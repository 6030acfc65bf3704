//! Crash-safe checkpointing of the fault-simulation campaign.
//!
//! [`DetectionAnalysis`](crate::DetectionAnalysis)'s banded campaign can
//! persist its progress after every pattern band through a
//! [`CheckpointStore`]. The file is an append-only log: a store's first
//! save writes it whole to a sibling `.tmp` file and renames that over
//! the destination, and every later save appends one band record.
//!
//! The on-disk format (version 3), all integers little-endian:
//!
//! ```text
//! header, 32 bytes:
//!     "FMCK"  version: u32 = 3  fingerprint: u64  faults: u64
//!     checksum: u64      FNV-1a over the header bytes before it
//! per save, one band record:
//!     len: u64           bytes after this field, checksum included
//!     next_pattern: u64  entries: u64
//!     per entry  fault: u32  pattern: u32  range
//!     checksum: u64      FNV-1a over the record bytes before it
//! ```
//!
//! A band record holds only the `(fault, pattern, raw range)` entries the
//! campaign added since the previous save, fault by fault, so a save
//! encodes, hashes and writes just its own band, and a campaign writes its
//! final file once. A kill during an append leaves a torn last record:
//! loading drops a record whose length field or body runs past the end of
//! the file, so at most the band being written is lost. A complete record
//! with a bad checksum is corruption, and the file fails to load. The
//! per-fault raw unions are not stored, and loading does not rebuild them:
//! the campaign derives each fault's raw union from its entries once,
//! after the last band, resumed or not. A version-1 or version-2 file
//! fails to load with [`CheckpointError::UnsupportedVersion`], and the
//! campaign restarts cleanly.
//!
//! Saves are not fsync'ed. The crash guarantee therefore covers the death
//! of the process (kill, OOM, panic), whose written bytes the operating
//! system still flushes, and not a power loss or a kernel crash.
//!
//! Resuming is bit-exact: the campaign merges per-pattern results in a
//! fixed pattern order, so restarting from any band boundary yields the
//! same [`DetectionAnalysis`](crate::DetectionAnalysis) as an
//! uninterrupted run — for any thread count on either side of the
//! interruption.
//!
//! The header's frame (magic, version, payload, FNV-1a checksum), written
//! by atomic tmp+rename, also carries the test set a shard supervisor
//! ships to its workers (magic `FMTS`, keyed by the campaign fingerprint;
//! see [`ShardFiles`](crate::ShardFiles)).

use std::cell::RefCell;
use std::fmt;
use std::path::{Path, PathBuf};

use fastmon_atpg::TestPattern;
use fastmon_faults::{
    DetectionRange, DetectionTable, Interval, IntervalSet, IntervalSetRef, RangeRef,
};

/// Magic bytes leading every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"FMCK";
/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 3;
/// Magic bytes leading every shipped test-set file.
const TEST_SET_MAGIC: [u8; 4] = *b"FMTS";
/// Current test-set format version.
const TEST_SET_VERSION: u32 = 1;

/// Errors of checkpoint persistence.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// No checkpoint file exists (a clean fresh start, not a failure).
    Missing,
    /// The underlying filesystem operation failed.
    Io {
        /// The operation that failed (`"read"`, `"write"`, `"rename"`, …).
        op: &'static str,
        /// The OS error message.
        message: String,
    },
    /// The file does not start with the `FMCK` magic.
    BadMagic,
    /// The file was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the file.
        got: u32,
        /// Version this build understands.
        supported: u32,
    },
    /// A checksum does not match the bytes it covers — the file is
    /// corrupt.
    ChecksumMismatch,
    /// The bytes do not hold exactly their fields: the file is shorter
    /// than its magic, version and checksum, or a record's fields run past
    /// or stop short of its length.
    Truncated,
    /// The checksums match but a record holds something no campaign
    /// writes: a fault index at or beyond the fault count, a pattern at
    /// or beyond its record's `next_pattern`, a `next_pattern` below the
    /// previous record's, or a fault's entries out of ascending pattern
    /// order.
    Malformed {
        /// What is wrong, with the offending values.
        reason: String,
    },
    /// The checkpoint belongs to a different campaign (circuit, fault
    /// list, patterns or clock differ).
    FingerprintMismatch {
        /// Fingerprint found in the file.
        got: u64,
        /// Fingerprint of the running campaign.
        expected: u64,
    },
    /// Another live process (or thread) holds this campaign's checkpoint
    /// directory — two same-fingerprint campaigns must not interleave
    /// their appends to one file.
    Locked {
        /// PID recorded in the lock file.
        holder_pid: u32,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Missing => write!(f, "no checkpoint file exists"),
            CheckpointError::Io { op, message } => {
                write!(f, "checkpoint {op} failed: {message}")
            }
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion { got, supported } => {
                write!(
                    f,
                    "checkpoint format version {got} is not supported (this build reads \
                     version {supported})"
                )
            }
            CheckpointError::ChecksumMismatch => {
                write!(f, "checkpoint checksum mismatch (corrupt file)")
            }
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::Malformed { reason } => {
                write!(f, "checkpoint file is malformed: {reason}")
            }
            CheckpointError::FingerprintMismatch { got, expected } => {
                write!(
                    f,
                    "checkpoint fingerprint {got:#018x} does not match this campaign \
                     ({expected:#018x})"
                )
            }
            CheckpointError::Locked { holder_pid } => {
                write!(
                    f,
                    "checkpoint directory is locked by live process {holder_pid}"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The persisted mid-campaign state: everything the banded fault-simulation
/// loop has accumulated up to (but not including) pattern `next_pattern`.
///
/// The struct holds exactly what reaches the file, so every saved
/// checkpoint loads back equal. Nothing derived is kept: the campaign
/// derives each fault's raw union from its entries after the last band.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    /// Fingerprint of the campaign inputs (circuit, faults, patterns,
    /// clock, glitch threshold).
    pub fingerprint: u64,
    /// First pattern index that has *not* been simulated yet.
    pub next_pattern: usize,
    /// Per fault: `(pattern, raw detection range)` entries accumulated so
    /// far, strictly ascending by pattern and all below `next_pattern`, in
    /// the campaign's flat [`DetectionTable`]. The campaign appends each
    /// band's ranges straight into it, and a save encodes each row's
    /// entries beyond the counts the file already holds.
    pub per_pattern: DetectionTable,
}

/// Persists campaign checkpoints to one file, as an append-only log.
///
/// A store's first save writes the file afresh — the header and one band
/// record of every entry, to `<path>.tmp`, renamed over `path` — and the
/// store keeps that file open. A save that extends the store's last one —
/// the same fingerprint and fault count, a `next_pattern` no lower and no
/// fault's entry list shorter — appends one band record of the entries
/// added since, through the open file. Any other save, for another
/// campaign or for an earlier point of this one, writes the file afresh
/// again. The entries already saved must be unchanged, which holds for the
/// campaign: it only appends.
///
/// The store never reopens `path` to append, so a file another writer
/// renamed over it never receives this store's bands. It assumes it is
/// the file's only writer otherwise: [`clear`](Self::clear) drops the open
/// file, but a file removed behind the store's back silently loses the
/// bands appended to it. [`CheckpointDir`] keeps two campaigns apart.
///
/// # Example
///
/// ```
/// use fastmon_core::{CampaignCheckpoint, CheckpointError, CheckpointStore};
/// use fastmon_faults::DetectionTable;
///
/// let dir = std::env::temp_dir().join("fastmon-checkpoint-doc");
/// let store = CheckpointStore::new(dir.join("doc.ckpt"));
/// assert_eq!(store.load().unwrap_err(), CheckpointError::Missing);
/// let cp = CampaignCheckpoint {
///     fingerprint: 7,
///     next_pattern: 2,
///     per_pattern: DetectionTable::new(1),
/// };
/// store.save(&cp)?;
/// assert_eq!(store.load()?, cp);
/// store.clear()?;
/// # Ok::<(), CheckpointError>(())
/// ```
#[derive(Debug)]
pub struct CheckpointStore {
    path: PathBuf,
    /// The file the last successful save wrote, for the next save that
    /// extends it.
    log: RefCell<Option<Log>>,
}

/// Maps an [`fastmon_obs::InjectedFailure`] into the same
/// [`CheckpointError::Io`] shape a real syscall failure produces, so every
/// downstream recovery path (retry, degrade-to-restart) treats injections
/// exactly like genuine transient I/O.
fn injected_io(op: &'static str) -> impl Fn(fastmon_obs::InjectedFailure) -> CheckpointError {
    move |e| CheckpointError::Io {
        op,
        message: e.to_string(),
    }
}

impl CheckpointStore {
    /// Creates a store persisting to `path`.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointStore {
            path: path.into(),
            log: RefCell::new(None),
        }
    }

    /// The checkpoint file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Path of the run-id sidecar (`<path>.run`): the trace run id of the
    /// process that last wrote this checkpoint, enabling kill → resume
    /// trace chaining.
    fn run_sidecar_path(&self) -> PathBuf {
        let mut p = self.path.clone().into_os_string();
        p.push(".run");
        PathBuf::from(p)
    }

    /// The trace run id of the process that wrote the current checkpoint,
    /// if a sidecar survives. A resuming campaign records this as its
    /// predecessor so the two `events.jsonl` files are linkable.
    #[must_use]
    pub fn predecessor_run(&self) -> Option<u64> {
        let text = std::fs::read_to_string(self.run_sidecar_path()).ok()?;
        u64::from_str_radix(text.trim(), 16).ok()
    }

    /// Persists `checkpoint`, appending its band to the file of the last
    /// save it extends and writing the file afresh otherwise, and returns
    /// the bytes it wrote (used by the campaign's checkpoint telemetry). A
    /// failed save leaves the store as it was, so a retry writes the same
    /// file: an append first cuts the file back to its last complete
    /// record.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] when the file cannot be written.
    pub fn save(&self, checkpoint: &CampaignCheckpoint) -> Result<u64, CheckpointError> {
        let mut log = self.log.borrow_mut();
        if let Some(log) = log.as_mut().filter(|log| log.extended_by(checkpoint)) {
            return log.append(checkpoint);
        }
        let fresh = Log::create(&self.path, checkpoint)?;
        let written = fresh.len;
        *log = Some(fresh);
        // Best-effort: the sidecar lets a resuming process link its trace
        // back to this run's; losing it only costs the link, never the
        // checkpoint.
        let _ = std::fs::write(self.run_sidecar_path(), fastmon_obs::run_id());
        Ok(written)
    }

    /// Loads and validates the checkpoint.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Missing`] when no file exists; the decoding
    /// errors ([`BadMagic`](CheckpointError::BadMagic),
    /// [`UnsupportedVersion`](CheckpointError::UnsupportedVersion),
    /// [`ChecksumMismatch`](CheckpointError::ChecksumMismatch),
    /// [`Truncated`](CheckpointError::Truncated),
    /// [`Malformed`](CheckpointError::Malformed)) when the file is not a
    /// valid current-version checkpoint.
    pub fn load(&self) -> Result<CampaignCheckpoint, CheckpointError> {
        decode(&read(&self.path)?)
    }

    /// Removes the checkpoint file (no-op when absent) and drops the file
    /// the store holds open, so its next save writes the file afresh.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] when the file exists but cannot be
    /// removed.
    pub fn clear(&self) -> Result<(), CheckpointError> {
        self.log.borrow_mut().take();
        let _ = std::fs::remove_file(self.run_sidecar_path());
        match std::fs::remove_file(&self.path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(CheckpointError::Io {
                op: "remove",
                message: e.to_string(),
            }),
        }
    }

    /// [`clear`](Self::clear) for a campaign whose results are already
    /// safe elsewhere: a file that cannot be removed only costs disk
    /// space, so the failure is logged to stderr, not returned.
    pub fn discard(&self) {
        if let Err(e) = self.clear() {
            eprintln!(
                "warning: could not remove finished checkpoint {}: {e}",
                self.path.display(),
            );
        }
    }
}

/// Atomically replaces `path` with what `write` writes: written to
/// `<path>.tmp`, then renamed over the destination, so a crash mid-write
/// never leaves a half-written file behind. Returns the file it wrote,
/// still open for writing.
///
/// Failpoints fire *before* their syscall so an injected failure never
/// leaves a half-written file behind (the real write/rename is skipped
/// entirely); injected errors are indistinguishable from transient I/O to
/// the retry machinery upstream.
pub(crate) fn write_atomic(
    path: &Path,
    write: impl FnOnce(&mut std::fs::File) -> std::io::Result<()>,
) -> Result<std::fs::File, CheckpointError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(io_err("create dir"))?;
        }
    }
    let mut tmp = path.to_path_buf().into_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    fastmon_obs::failpoints::fire("checkpoint_write").map_err(injected_io("write"))?;
    let file = std::fs::File::create(&tmp)
        .and_then(|mut file| write(&mut file).map(|()| file))
        .map_err(io_err("write"))?;
    fastmon_obs::failpoints::fire("checkpoint_rename").map_err(injected_io("rename"))?;
    std::fs::rename(&tmp, path).map_err(io_err("rename"))?;
    Ok(file)
}

/// Extra attempts after a failed write.
const WRITE_RETRIES: u32 = 3;
/// Sleep before the first retry; doubled per retry up to
/// [`WRITE_BACKOFF_CAP`].
const WRITE_BACKOFF: std::time::Duration = std::time::Duration::from_millis(5);
/// Longest sleep between two write attempts.
const WRITE_BACKOFF_CAP: std::time::Duration = std::time::Duration::from_millis(250);

/// Runs a save `write` of `path` (an atomic replace or an append),
/// retrying transient I/O failures (`CheckpointError::Io` — which
/// injected `checkpoint_write` / `checkpoint_rename` failures mimic) with
/// capped exponential backoff. Other errors are never retried. Every
/// retry increments `robustness.checkpoint_retries`.
pub(crate) fn write_with_retry<T>(
    path: &Path,
    metrics: &fastmon_obs::MetricsRegistry,
    mut write: impl FnMut() -> Result<T, CheckpointError>,
) -> Result<T, CheckpointError> {
    let mut delay = WRITE_BACKOFF;
    let mut attempt = 0u32;
    loop {
        match write() {
            Ok(written) => return Ok(written),
            Err(e @ CheckpointError::Io { .. }) if attempt < WRITE_RETRIES => {
                attempt += 1;
                metrics.robustness.checkpoint_retries.incr();
                eprintln!(
                    "warning: write attempt {attempt}/{} of {} failed ({e}); retrying in {delay:?}",
                    WRITE_RETRIES + 1,
                    path.display(),
                );
                std::thread::sleep(delay);
                delay = (delay * 2).min(WRITE_BACKOFF_CAP);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Reads a framed file whole, behind the `checkpoint_load` failpoint; a
/// missing file is [`CheckpointError::Missing`].
pub(crate) fn read(path: &Path) -> Result<Vec<u8>, CheckpointError> {
    fastmon_obs::failpoints::fire("checkpoint_load").map_err(injected_io("read"))?;
    read_input(path)
}

/// [`read`] without the failpoint, for a shard worker's campaign inputs
/// (its test set): `checkpoint_load` keeps targeting checkpoint loads
/// only, so a failpoint schedule means the same in a worker as in a
/// serial campaign.
pub(crate) fn read_input(path: &Path) -> Result<Vec<u8>, CheckpointError> {
    std::fs::read(path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            CheckpointError::Missing
        } else {
            io_err("read")(e)
        }
    })
}

const LOCK_FILE: &str = "LOCK";
const CHECKPOINT_FILE: &str = "campaign.ckpt";

fn io_err(op: &'static str) -> impl Fn(std::io::Error) -> CheckpointError {
    move |e| CheckpointError::Io {
        op,
        message: e.to_string(),
    }
}

/// Opens (creating it if needed) and exclusively locks the lock file at
/// `path`. `Ok(None)` when another open file description holds the lock,
/// whether in another process or in this one.
fn try_lock(path: &Path) -> std::io::Result<Option<std::fs::File>> {
    let file = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    match file.try_lock() {
        Ok(()) => Ok(Some(file)),
        Err(std::fs::TryLockError::WouldBlock) => Ok(None),
        Err(std::fs::TryLockError::Error(e)) => Err(e),
    }
}

/// True when `path` still names the open `file`: a sweep may have removed
/// the directory between the open and the lock, leaving the lock on an
/// unlinked file.
fn still_names(path: &Path, file: &std::fs::File) -> bool {
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt as _;
        match (std::fs::metadata(path), file.metadata()) {
            (Ok(named), Ok(held)) => named.dev() == held.dev() && named.ino() == held.ino(),
            _ => false,
        }
    }
    #[cfg(not(unix))]
    {
        let _ = file;
        path.exists()
    }
}

/// A root of per-job checkpoint directories keyed by campaign
/// fingerprint: `<root>/<fingerprint:016x>/campaign.ckpt`, guarded by an
/// exclusive lock ([`std::fs::File::try_lock`]) on the directory's `LOCK`
/// file.
///
/// The lock keeps two writers' appends apart: a [`CheckpointStore`]
/// appends every band after its first save to the file it holds open, so
/// two same-fingerprint campaigns pointed at one path would each rename
/// a fresh file over the other's and go on appending to their own, and
/// the bands of whichever file lost the race would vanish. [`acquire`]
/// makes the second campaign fail fast with [`CheckpointError::Locked`]
/// instead.
/// The lock belongs to the open file, not to the file's contents: the
/// operating system releases it when its holder exits, however it exits,
/// so a `kill -9` leaves nothing to steal and crash recovery never needs
/// manual cleanup — even when the restarted process has its old PID. The
/// file names its holder's PID only for the [`CheckpointError::Locked`]
/// message.
#[derive(Debug, Clone)]
pub struct CheckpointDir {
    root: PathBuf,
}

/// What a [`CheckpointDir::gc`] sweep did, and why survivors survived.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Fingerprints whose directories were removed.
    pub removed: Vec<u64>,
    /// Directories kept because their fingerprint is live/queued.
    pub kept_live: usize,
    /// Directories kept because a live process holds their lock.
    pub kept_locked: usize,
    /// Directories kept because they are younger than the grace period
    /// (a crashed job's client may be about to resubmit).
    pub kept_young: usize,
}

impl CheckpointDir {
    /// A checkpoint root at `root` (created lazily on first acquire).
    #[must_use]
    pub fn new(root: impl Into<PathBuf>) -> Self {
        CheckpointDir { root: root.into() }
    }

    /// The root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The per-job directory for `fingerprint`.
    #[must_use]
    pub fn dir_for(&self, fingerprint: u64) -> PathBuf {
        self.root.join(format!("{fingerprint:016x}"))
    }

    /// Acquires the job directory for `fingerprint`, creating it (and the
    /// root) as needed, and locks its `LOCK` file for as long as the
    /// returned [`JobStore`] lives. A lock held elsewhere — by another
    /// process or by another `JobStore` of this one — is
    /// [`CheckpointError::Locked`]. A [`gc`](CheckpointDir::gc) that
    /// removed the directory while this call opened its lock file is
    /// detected (the path no longer names the locked file), and the
    /// acquire starts over.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Locked`] when the campaign is already running
    /// somewhere, [`CheckpointError::Io`] on filesystem failures.
    pub fn acquire(&self, fingerprint: u64) -> Result<JobStore, CheckpointError> {
        use std::io::Write as _;
        let dir = self.dir_for(fingerprint);
        let lock_path = dir.join(LOCK_FILE);
        // Every retry follows a sweep's removal of the directory, which
        // the lock taken here keeps any later sweep from repeating.
        loop {
            std::fs::create_dir_all(&dir).map_err(io_err("create dir"))?;
            let mut lock = match try_lock(&lock_path) {
                Ok(Some(lock)) => lock,
                Ok(None) => {
                    let holder_pid = std::fs::read_to_string(&lock_path)
                        .ok()
                        .and_then(|s| s.trim().parse().ok())
                        .unwrap_or(0);
                    return Err(CheckpointError::Locked { holder_pid });
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound && !dir.exists() => continue,
                Err(e) => return Err(io_err("lock")(e)),
            };
            if !still_names(&lock_path, &lock) {
                continue;
            }
            lock.set_len(0)
                .and_then(|()| write!(lock, "{}", std::process::id()))
                .map_err(io_err("lock write"))?;
            let store = CheckpointStore::new(dir.join(CHECKPOINT_FILE));
            return Ok(JobStore {
                dir,
                store,
                _lock: lock,
            });
        }
    }

    /// Removes checkpoint directories whose fingerprint matches no entry
    /// in `live`, whose lock nobody holds, and whose last modification is
    /// at least `min_age` old. The grace period is what makes
    /// startup-time GC safe after a `kill -9`: freshly-crashed campaigns
    /// stay resumable until their clients have had a chance to resubmit.
    /// The sweep holds each candidate's lock while it removes the
    /// directory, so even with a zero grace period it cannot race a
    /// concurrent [`acquire`](CheckpointDir::acquire) of the same
    /// fingerprint.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the root exists but cannot be read;
    /// a missing root is an empty report, and per-directory removal
    /// failures are skipped (the next sweep retries them).
    pub fn gc(
        &self,
        live: &[u64],
        min_age: std::time::Duration,
    ) -> Result<GcReport, CheckpointError> {
        let mut report = GcReport::default();
        let entries = match std::fs::read_dir(&self.root) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(report),
            Err(e) => return Err(io_err("read dir")(e)),
        };
        let now = std::time::SystemTime::now();
        for entry in entries.flatten() {
            let name = entry.file_name();
            // Only the 16-hex-digit directories this store created are
            // candidates; anything else in the root is not ours to touch.
            let Some(fingerprint) = name
                .to_str()
                .filter(|s| s.len() == 16)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
            else {
                continue;
            };
            if live.contains(&fingerprint) {
                report.kept_live += 1;
                continue;
            }
            // Read before the lock: creating a missing lock file touches
            // the directory's modification time.
            let age = entry
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| now.duration_since(t).ok());
            let dir = entry.path();
            let lock_path = dir.join(LOCK_FILE);
            let _lock = match try_lock(&lock_path) {
                Ok(Some(lock)) if still_names(&lock_path, &lock) => lock,
                Ok(None) => {
                    report.kept_locked += 1;
                    continue;
                }
                // Removed (and maybe re-acquired) by someone else since
                // the listing, or unreadable: the next sweep looks again.
                Ok(Some(_)) | Err(_) => continue,
            };
            // An unreadable mtime counts as young: keep, retry next sweep.
            if age.is_none_or(|a| a < min_age) {
                report.kept_young += 1;
                continue;
            }
            if std::fs::remove_dir_all(&dir).is_ok() {
                report.removed.push(fingerprint);
            }
        }
        report.removed.sort_unstable();
        Ok(report)
    }
}

/// An acquired per-job checkpoint directory: a [`CheckpointStore`] plus
/// the lock that makes it exclusive. Dropping it releases the lock;
/// [`complete`](JobStore::complete) removes the whole directory once the
/// campaign has finished and its results are landed.
#[derive(Debug)]
pub struct JobStore {
    dir: PathBuf,
    store: CheckpointStore,
    /// The locked `LOCK` file; closing it releases the lock.
    _lock: std::fs::File,
}

impl JobStore {
    /// The checkpoint store scoped to this job.
    #[must_use]
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// The job directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Removes the job directory (checkpoint, lock file and all) after a
    /// successful campaign, still holding the lock.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the directory cannot be removed.
    pub fn complete(self) -> Result<(), CheckpointError> {
        std::fs::remove_dir_all(&self.dir).map_err(io_err("remove dir"))
    }
}

/// Streaming 64-bit FNV-1a: bytes fed in any split hash to the same value
/// as [`fnv1a`] over their concatenation. It computes the campaign and
/// result fingerprints without building their byte streams.
///
/// ```
/// use fastmon_core::{fnv1a, Fnv1a};
///
/// let mut hash = Fnv1a::new();
/// hash.write(b"band ");
/// hash.write(b"record");
/// assert_eq!(hash.finish(), fnv1a(b"band record"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher that has seen no bytes.
    #[must_use]
    pub const fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }

    /// Feeds `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The hash of every byte fed so far.
    #[must_use]
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// 64-bit FNV-1a over `bytes`: [`Fnv1a`] in one call.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write(bytes);
    hash.finish()
}

/// Where the little-endian fields of the file formats and fingerprints
/// go: a buffer being encoded, or an [`Fnv1a`] hashing the same byte
/// stream without building it.
pub(crate) trait ByteSink {
    /// Appends raw bytes.
    fn put(&mut self, bytes: &[u8]);

    fn put_u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// An interval set: its interval count, then each start and end.
    fn put_set(&mut self, set: IntervalSetRef<'_>) {
        self.put_u64(set.len() as u64);
        for iv in set.iter() {
            self.put_f64(iv.start);
            self.put_f64(iv.end);
        }
    }

    /// A detection range: its output count, then each output index and
    /// interval set.
    fn put_range(&mut self, range: RangeRef<'_>) {
        self.put_u64(range.len() as u64);
        for (op, set) in range.iter() {
            self.put_u64(op as u64);
            self.put_set(set);
        }
    }
}

impl ByteSink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl ByteSink for Fnv1a {
    fn put(&mut self, bytes: &[u8]) {
        self.write(bytes);
    }
}

/// Builds a framed record: `magic`, `version`, the payload `body`
/// writes, and an FNV-1a checksum over everything before it.
pub(crate) fn frame(magic: [u8; 4], version: u32, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::new();
    out.put(&magic);
    out.put_u32(version);
    body(&mut out);
    let checksum = fnv1a(&out);
    out.put_u64(checksum);
    out
}

/// Length of a checkpoint's header: magic, version, fingerprint, fault
/// count and checksum.
const HEADER_LEN: usize = 32;

/// The file a store's last save wrote, held open so that the next save
/// that extends it can append its band.
#[derive(Debug)]
struct Log {
    file: std::fs::File,
    /// Length of the file's header and complete band records.
    len: u64,
    fingerprint: u64,
    next_pattern: usize,
    /// Per fault: how many of its entries the file holds.
    counts: Vec<usize>,
}

impl Log {
    /// Writes `cp` to `path` afresh, by tmp+rename: the header, then one
    /// band record of every entry.
    fn create(path: &Path, cp: &CampaignCheckpoint) -> Result<Self, CheckpointError> {
        use std::io::Write as _;
        let header = frame(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, |out| {
            out.put_u64(cp.fingerprint);
            out.put_u64(cp.per_pattern.num_faults() as u64);
        });
        let counts = vec![0; cp.per_pattern.num_faults()];
        let record = band_record(cp, &counts);
        // Two writes: one concatenated buffer would hold a whole-shard
        // record twice.
        let file = write_atomic(path, |out| {
            out.write_all(&header)?;
            out.write_all(&record)
        })?;
        let mut log = Log {
            file,
            len: header.len() as u64,
            fingerprint: cp.fingerprint,
            next_pattern: 0,
            counts,
        };
        log.commit(cp, record.len());
        Ok(log)
    }

    /// Whether `cp` only appends to the checkpoint saved last.
    fn extended_by(&self, cp: &CampaignCheckpoint) -> bool {
        cp.fingerprint == self.fingerprint
            && cp.next_pattern >= self.next_pattern
            && cp.per_pattern.num_faults() == self.counts.len()
            && self
                .counts
                .iter()
                .enumerate()
                .all(|(fault, &saved)| cp.per_pattern.len(fault) >= saved)
    }

    /// Appends the band record of `cp`'s new entries after the file's
    /// last complete record, and returns its length. Cutting the file
    /// back to that record first drops whatever a failed attempt left.
    fn append(&mut self, cp: &CampaignCheckpoint) -> Result<u64, CheckpointError> {
        use std::io::{Seek as _, SeekFrom, Write as _};
        let record = band_record(cp, &self.counts);
        fastmon_obs::failpoints::fire("checkpoint_write").map_err(injected_io("write"))?;
        self.file
            .set_len(self.len)
            .and_then(|()| self.file.seek(SeekFrom::Start(self.len)))
            .and_then(|_| self.file.write_all(&record))
            .map_err(io_err("write"))?;
        self.commit(cp, record.len());
        Ok(record.len() as u64)
    }

    /// Records that a band record of `record` bytes, encoded for `cp`,
    /// now ends the file.
    fn commit(&mut self, cp: &CampaignCheckpoint, record: usize) {
        self.len += record as u64;
        self.next_pattern = cp.next_pattern;
        for (fault, saved) in self.counts.iter_mut().enumerate() {
            *saved = cp.per_pattern.len(fault);
        }
    }
}

/// Encodes the entries of `cp` beyond the first `counts[fault]` of each
/// fault, fault by fault, as one band record.
pub(crate) fn band_record(cp: &CampaignCheckpoint, counts: &[usize]) -> Vec<u8> {
    // length and entry count, filled in once known
    let mut record = vec![0; 8];
    record.put_u64(cp.next_pattern as u64);
    record.put_u64(0);
    let mut entries = 0u64;
    for (fault, &saved) in counts.iter().enumerate() {
        let id = u32::try_from(fault).unwrap_or_else(|_| unreachable!("fault count fits u32"));
        for k in saved..cp.per_pattern.len(fault) {
            let (pattern, range) = cp.per_pattern.entry(fault, k);
            record.put_u32(id);
            record.put_u32(pattern);
            record.put_range(range);
            entries += 1;
        }
    }
    record[16..24].copy_from_slice(&entries.to_le_bytes());
    seal(record)
}

/// Completes a band record whose first eight bytes are reserved for its
/// length: fills the length in and appends the checksum.
pub(crate) fn seal(mut record: Vec<u8>) -> Vec<u8> {
    // the bytes after the length field, the checksum included
    let len = record.len() as u64;
    record[..8].copy_from_slice(&len.to_le_bytes());
    let checksum = fnv1a(&record);
    record.put_u64(checksum);
    record
}

/// A shipped test set as stored on disk: the patterns plus the campaign
/// fingerprint they were prepared for and their vector width.
#[derive(Debug)]
pub(crate) struct TestSetRecord {
    pub fingerprint: u64,
    pub width: usize,
    pub patterns: Vec<TestPattern>,
}

/// Packs `bits` LSB-first, eight to a byte.
fn push_bits(out: &mut Vec<u8>, bits: &[bool]) {
    for chunk in bits.chunks(8) {
        out.push(
            chunk
                .iter()
                .enumerate()
                .fold(0u8, |byte, (i, &b)| byte | u8::from(b) << i),
        );
    }
}

pub(crate) fn encode_test_set(fingerprint: u64, set: &fastmon_atpg::TestSet) -> Vec<u8> {
    frame(TEST_SET_MAGIC, TEST_SET_VERSION, |out| {
        out.put_u64(fingerprint);
        out.put_u64(set.sources().len() as u64);
        out.put_u64(set.len() as u64);
        for pattern in set.iter() {
            push_bits(out, &pattern.launch);
            push_bits(out, &pattern.capture);
        }
    })
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Validates the frame around `bytes` — magic, version, checksum —
    /// and returns a cursor over its payload.
    fn unframe(bytes: &'a [u8], magic: [u8; 4], version: u32) -> Result<Self, CheckpointError> {
        if bytes.len() < magic.len() {
            return Err(CheckpointError::Truncated);
        }
        if bytes[..magic.len()] != magic {
            return Err(CheckpointError::BadMagic);
        }
        let mut cursor = Cursor {
            data: bytes,
            pos: magic.len(),
        };
        let got = cursor.u32()?;
        if got != version {
            return Err(CheckpointError::UnsupportedVersion {
                got,
                supported: version,
            });
        }
        if bytes.len() < cursor.pos + 8 {
            return Err(CheckpointError::Truncated);
        }
        let payload_end = bytes.len() - 8;
        let stored = u64::from_le_bytes(
            bytes[payload_end..]
                .try_into()
                .unwrap_or_else(|_| unreachable!("slice is exactly 8 bytes")),
        );
        if fnv1a(&bytes[..payload_end]) != stored {
            return Err(CheckpointError::ChecksumMismatch);
        }
        cursor.data = &bytes[..payload_end];
        Ok(cursor)
    }

    /// Splits the next band record off `rest`, checks its checksum and
    /// returns a cursor over its fields. `None` when `rest` is empty or
    /// holds a torn record, whose length field or body runs past the end
    /// of the file: an append that never finished, which ends the log.
    fn record(rest: &mut &'a [u8]) -> Result<Option<Self>, CheckpointError> {
        let Some((len, tail)) = rest.split_first_chunk::<8>() else {
            return Ok(None);
        };
        let Some(len) = usize::try_from(u64::from_le_bytes(*len))
            .ok()
            .filter(|&len| len <= tail.len())
        else {
            return Ok(None);
        };
        let (record, after) = rest.split_at(8 + len);
        *rest = after;
        // a record too short to hold its checksum fails like a wrong one
        match record.split_last_chunk::<8>() {
            Some((data, checksum)) if len >= 8 && fnv1a(data) == u64::from_le_bytes(*checksum) => {
                Ok(Some(Cursor { data, pos: 8 }))
            }
            _ => Err(CheckpointError::ChecksumMismatch),
        }
    }

    /// Bytes left in the payload.
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// The payload must be consumed exactly.
    fn finish(&self) -> Result<(), CheckpointError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(CheckpointError::Truncated)
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or(CheckpointError::Truncated)?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.u64()?).map_err(|_| CheckpointError::Truncated)
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn range(&mut self) -> Result<DetectionRange, CheckpointError> {
        let outputs = self.usize()?;
        let mut dr = DetectionRange::new();
        for _ in 0..outputs {
            let op = self.usize()?;
            if u32::try_from(op).is_err() {
                return Err(CheckpointError::Malformed {
                    reason: format!("observation point {op} exceeds u32"),
                });
            }
            let n = self.usize()?;
            let mut set = IntervalSet::new();
            for _ in 0..n {
                let start = self.f64()?;
                let end = self.f64()?;
                set.insert(Interval::new(start, end));
            }
            dr.push(op, set);
        }
        Ok(dr)
    }

    /// `width` bits packed by [`push_bits`].
    fn bits(&mut self, width: usize) -> Result<Vec<bool>, CheckpointError> {
        let bytes = self.take(width.div_ceil(8))?;
        Ok((0..width)
            .map(|i| bytes[i / 8] >> (i % 8) & 1 == 1)
            .collect())
    }
}

pub(crate) fn decode(bytes: &[u8]) -> Result<CampaignCheckpoint, CheckpointError> {
    let (header, mut rest) = bytes.split_at(bytes.len().min(HEADER_LEN));
    let mut cursor = Cursor::unframe(header, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
    let fingerprint = cursor.u64()?;
    let num_faults = cursor.usize()?;
    cursor.finish()?;
    let malformed = |reason: String| CheckpointError::Malformed { reason };
    // No bytes are spent on faults without entries, so the count is
    // bounded only by the u32 fault index of the band records, and the
    // allocation is fallible: an absurd count fails here, never aborts.
    if u32::try_from(num_faults).is_err() {
        return Err(malformed(format!("fault count {num_faults} exceeds u32")));
    }
    let mut per_pattern = DetectionTable::try_new(num_faults)
        .map_err(|_| malformed(format!("fault count {num_faults} cannot be allocated")))?;
    let mut next_pattern = 0;
    while let Some(mut record) = Cursor::record(&mut rest)? {
        let band_end = record.usize()?;
        if band_end < next_pattern {
            return Err(malformed(format!(
                "next_pattern {band_end} is below the previous record's {next_pattern}"
            )));
        }
        next_pattern = band_end;
        let entries = record.u64()?;
        for _ in 0..entries {
            let fault = record.u32()?;
            let pattern = record.u32()?;
            if fault as usize >= num_faults {
                return Err(malformed(format!(
                    "fault {fault} is not below the fault count {num_faults}"
                )));
            }
            if pattern as usize >= next_pattern {
                return Err(malformed(format!(
                    "fault {fault}: pattern {pattern} is not below next_pattern {next_pattern}"
                )));
            }
            if let Some((previous, _)) = per_pattern.entries(fault as usize).next_back() {
                if pattern <= previous {
                    return Err(malformed(format!(
                        "fault {fault}: pattern {pattern} does not follow pattern {previous}"
                    )));
                }
            }
            per_pattern.push(fault as usize, pattern, record.range()?.view());
        }
        record.finish()?;
    }
    Ok(CampaignCheckpoint {
        fingerprint,
        next_pattern,
        per_pattern,
    })
}

pub(crate) fn decode_test_set(bytes: &[u8]) -> Result<TestSetRecord, CheckpointError> {
    let mut cursor = Cursor::unframe(bytes, TEST_SET_MAGIC, TEST_SET_VERSION)?;
    let fingerprint = cursor.u64()?;
    let width = cursor.usize()?;
    let count = cursor.usize()?;
    // Both length fields must account for the payload exactly before
    // anything is allocated; a zero-width set has no bits to carry.
    let per_pattern = width.div_ceil(8) * 2;
    let fits = match count.checked_mul(per_pattern) {
        Some(0) => count == 0,
        Some(bytes) => bytes == cursor.remaining(),
        None => false,
    };
    if !fits {
        return Err(CheckpointError::Truncated);
    }
    let mut patterns = Vec::with_capacity(count);
    for _ in 0..count {
        let launch = cursor.bits(width)?;
        let capture = cursor.bits(width)?;
        patterns.push(TestPattern { launch, capture });
    }
    cursor.finish()?;
    Ok(TestSetRecord {
        fingerprint,
        width,
        patterns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table_equivalence::table_of;

    /// A checkpoint header.
    fn header(fingerprint: u64, faults: u64) -> Vec<u8> {
        frame(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, |out| {
            out.put_u64(fingerprint);
            out.put_u64(faults);
        })
    }

    /// The file a store's first save of `cp` writes.
    fn encode(cp: &CampaignCheckpoint) -> Vec<u8> {
        let counts = vec![0; cp.per_pattern.num_faults()];
        [
            header(cp.fingerprint, cp.per_pattern.num_faults() as u64),
            band_record(cp, &counts),
        ]
        .concat()
    }

    fn sample() -> CampaignCheckpoint {
        let mut dr = DetectionRange::new();
        let mut set = IntervalSet::new();
        set.insert(Interval::new(1.5, 2.5));
        set.insert(Interval::new(4.0, 4.5));
        dr.push(2, set);
        let mut dr2 = DetectionRange::new();
        let mut set2 = IntervalSet::new();
        set2.insert(Interval::new(0.25, 0.75));
        dr2.push(0, set2);
        CampaignCheckpoint {
            fingerprint: 0xdead_beef_1234_5678,
            next_pattern: 6,
            per_pattern: table_of(&[vec![(1, dr), (5, dr2)], Vec::new()]),
        }
    }

    /// How many entries each fault's row holds.
    fn lens(table: &DetectionTable) -> Vec<usize> {
        (0..table.num_faults()).map(|f| table.len(f)).collect()
    }

    /// Each fault's patterns.
    fn patterns(table: &DetectionTable) -> Vec<Vec<u32>> {
        (0..table.num_faults())
            .map(|f| table.entries(f).map(|(p, _)| p).collect())
            .collect()
    }

    #[test]
    fn encode_decode_round_trip() {
        let cp = sample();
        let bytes = encode(&cp);
        assert_eq!(decode(&bytes).unwrap(), cp);
    }

    #[test]
    fn every_payload_bit_flip_is_detected() {
        let bytes = encode(&sample());
        // flip one bit in a handful of payload positions
        for pos in [8, 20, 40, bytes.len() - 20] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x10;
            let err = decode(&corrupt).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::ChecksumMismatch | CheckpointError::UnsupportedVersion { .. }
                ),
                "pos {pos}: {err:?}"
            );
        }
    }

    #[test]
    fn version_mismatch_is_reported_as_such() {
        let mut bytes = encode(&sample());
        bytes[4] = 99; // version field, little-endian low byte
        assert!(matches!(
            decode(&bytes).unwrap_err(),
            CheckpointError::UnsupportedVersion { got: 99, .. }
        ));
    }

    #[test]
    fn truncation_and_magic_detected() {
        let bytes = encode(&sample());
        assert_eq!(decode(&bytes[..3]).unwrap_err(), CheckpointError::Truncated);
        // a cut inside the last record is a torn append: the records
        // before it (here none) load
        assert_eq!(
            decode(&bytes[..bytes.len() - 5]).unwrap(),
            CampaignCheckpoint {
                next_pattern: 0,
                per_pattern: DetectionTable::new(2),
                ..sample()
            },
        );
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(decode(&bad).unwrap_err(), CheckpointError::BadMagic);
    }

    /// A two-band file, as one store's two saves write it, and its first
    /// band's checkpoint and file.
    fn two_bands() -> (CampaignCheckpoint, Vec<u8>, CampaignCheckpoint, Vec<u8>) {
        let first = progress(3, 2);
        let second = progress(3, 4);
        let counts = lens(&first.per_pattern);
        let one = encode(&first);
        let two = [one.clone(), band_record(&second, &counts)].concat();
        (first, one, second, two)
    }

    #[test]
    fn a_torn_last_record_loads_as_the_records_before_it() {
        let (first, one, second, two) = two_bands();
        assert_eq!(decode(&two).unwrap(), second);
        for cut in one.len()..two.len() {
            assert_eq!(decode(&two[..cut]).unwrap(), first, "cut at {cut}");
        }
    }

    #[test]
    fn bit_flips_in_the_header_and_the_records_are_detected() {
        let (first, one, _, two) = two_bands();
        // the header's fingerprint, the first record's next_pattern, an
        // endpoint in the last record
        for pos in [8, HEADER_LEN + 8, two.len() - 12] {
            let mut corrupt = two.clone();
            corrupt[pos] ^= 0x04;
            assert_eq!(
                decode(&corrupt).unwrap_err(),
                CheckpointError::ChecksumMismatch,
                "pos {pos}"
            );
        }
        // A flipped length field makes its record look torn: the records
        // before it load, and nothing from the record or after it.
        let mut corrupt = two.clone();
        corrupt[one.len() + 7] ^= 0x40;
        assert_eq!(decode(&corrupt).unwrap(), first);
        let mut corrupt = two;
        corrupt[HEADER_LEN + 7] ^= 0x40;
        let empty = decode(&corrupt).unwrap();
        assert_eq!(empty.next_pattern, 0);
        assert_eq!(lens(&empty.per_pattern), [0; 3]);
    }

    #[test]
    fn store_save_load_clear() {
        let dir = std::env::temp_dir().join(format!("fastmon-ckpt-{}", std::process::id()));
        let store = CheckpointStore::new(dir.join("t.ckpt"));
        assert_eq!(store.load().unwrap_err(), CheckpointError::Missing);
        let cp = sample();
        store.save(&cp).unwrap();
        assert_eq!(store.load().unwrap(), cp);
        store.clear().unwrap();
        assert_eq!(store.load().unwrap_err(), CheckpointError::Missing);
        store.clear().unwrap(); // idempotent
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A campaign's progress once patterns `0..next_pattern` are
    /// simulated, as the banded loop builds it: pattern `p` detects fault
    /// `f` unless `p + f` is a multiple of 3.
    fn progress(faults: usize, next_pattern: u32) -> CampaignCheckpoint {
        CampaignCheckpoint {
            fingerprint: 0x5eed,
            next_pattern: next_pattern as usize,
            per_pattern: table_of(&progress_entries(faults, next_pattern)),
        }
    }

    /// [`progress`]'s entries, per fault.
    fn progress_entries(faults: usize, next_pattern: u32) -> Vec<Vec<(u32, DetectionRange)>> {
        (0..faults)
            .map(|f| {
                (0..next_pattern)
                    .filter(|&p| !(p as usize + f).is_multiple_of(3))
                    .map(|p| {
                        let start = f64::from(p) + 0.25 * f as f64;
                        let mut dr = DetectionRange::new();
                        dr.push(
                            (p as usize + f) % 2,
                            IntervalSet::from_intervals([Interval::new(start, start + 0.5)]),
                        );
                        (p, dr)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn saves_append_what_extends_the_last_save() {
        let dir = fresh_root("extend");
        let path = dir.join("c.ckpt");
        let store = CheckpointStore::new(&path);
        let file = || std::fs::read(&path).unwrap();

        // Band by band through one store: the first save writes the file
        // afresh, and each later one grows it by the bytes it returns.
        assert_eq!(store.save(&progress(3, 2)).unwrap(), file().len() as u64);
        for next_pattern in [4, 6, 8] {
            let cp = progress(3, next_pattern);
            let before = file().len() as u64;
            let written = store.save(&cp).unwrap();
            assert_eq!(file().len() as u64, before + written);
            assert_eq!(store.load().unwrap(), cp);
        }

        // A checkpoint that does not extend the last save is written
        // afresh: a shorter entry list at the same next pattern, another
        // fingerprint, another fault count, an earlier next pattern.
        let mut entries = progress_entries(3, 8);
        entries[1].pop();
        let shorter = CampaignCheckpoint {
            per_pattern: table_of(&entries),
            ..progress(3, 8)
        };
        let other_fingerprint = CampaignCheckpoint {
            fingerprint: 0xfeed,
            ..progress(3, 8)
        };
        let later = CampaignCheckpoint {
            next_pattern: 9,
            ..progress(3, 8)
        };
        for (last, cp) in [
            (progress(3, 8), shorter),
            (progress(3, 8), other_fingerprint),
            (progress(3, 8), progress(4, 8)),
            (later, progress(3, 8)),
        ] {
            store.save(&last).unwrap();
            let written = store.save(&cp).unwrap();
            assert_eq!(file(), encode(&cp));
            assert_eq!(written, file().len() as u64);
        }

        // So is a save after `clear`.
        store.save(&progress(3, 6)).unwrap();
        store.clear().unwrap();
        let written = store.save(&progress(3, 8)).unwrap();
        assert_eq!(file(), encode(&progress(3, 8)));
        assert_eq!(written, file().len() as u64);

        // A file another store renamed over the path stays as that store
        // wrote it: this store appends to the file it holds, never to the
        // path.
        store.save(&progress(3, 6)).unwrap();
        let theirs = CampaignCheckpoint {
            fingerprint: 0xfeed,
            ..progress(3, 6)
        };
        CheckpointStore::new(&path).save(&theirs).unwrap();
        store.save(&progress(3, 8)).unwrap();
        assert_eq!(file(), encode(&theirs));

        // Junk behind the last record, as a partial append leaves it, is
        // dropped on load and cut off by the next save, whose file then
        // equals an undisturbed store's.
        store.save(&progress(4, 4)).unwrap();
        {
            use std::io::Write as _;
            let mut tail = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            tail.write_all(&[0xab; 13]).unwrap();
        }
        assert_eq!(store.load().unwrap(), progress(4, 4));
        store.save(&progress(4, 6)).unwrap();
        let undisturbed = CheckpointStore::new(dir.join("u.ckpt"));
        undisturbed.save(&progress(4, 4)).unwrap();
        undisturbed.save(&progress(4, 6)).unwrap();
        assert_eq!(file(), std::fs::read(undisturbed.path()).unwrap());

        // A failed save leaves the store as it was: the file keeps the
        // last save, and the store still appends to it. (A directory
        // squatting on the temp path fails a fresh write without arming
        // the process-wide failpoints, which other tests share.)
        let tmp = dir.join("c.ckpt.tmp");
        std::fs::create_dir(&tmp).unwrap();
        let err = store.save(&progress(5, 6)).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Io { op: "write", .. }),
            "{err:?}"
        );
        std::fs::remove_dir(&tmp).unwrap();
        assert_eq!(store.load().unwrap(), progress(4, 6));
        store.save(&progress(4, 8)).unwrap();
        undisturbed.save(&progress(4, 8)).unwrap();
        assert_eq!(file(), std::fs::read(undisturbed.path()).unwrap());
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A band record of hand-written `(fault, pattern)` entries, every
    /// range the same.
    fn record(next_pattern: u64, entries: &[(u32, u32)]) -> Vec<u8> {
        let cp = progress(1, 2);
        let range = cp.per_pattern.entry(0, 0).1;
        let mut record = vec![0; 8];
        record.put_u64(next_pattern);
        record.put_u64(entries.len() as u64);
        for &(fault, pattern) in entries {
            record.put_u32(fault);
            record.put_u32(pattern);
            record.put_range(range);
        }
        seal(record)
    }

    /// A checkpoint file of hand-written band records, all ending at
    /// `next_pattern`.
    fn framed(faults: u64, next_pattern: u64, records: &[&[(u32, u32)]]) -> Vec<u8> {
        let mut file = header(0xf00d, faults);
        for entries in records {
            file.extend(record(next_pattern, entries));
        }
        file
    }

    fn malformed_reason(bytes: &[u8]) -> String {
        match decode(bytes) {
            Err(CheckpointError::Malformed { reason }) => reason,
            other => panic!("expected a malformed-record error, got {other:?}"),
        }
    }

    #[test]
    fn hand_framed_band_records_decode() {
        let cp = decode(&framed(2, 4, &[&[(0, 1), (1, 0)], &[], &[(0, 3)]])).unwrap();
        assert_eq!(patterns(&cp.per_pattern), vec![vec![1, 3], vec![0]]);
        assert_eq!(cp.next_pattern, 4);
    }

    #[test]
    fn fault_index_beyond_the_fault_count_is_malformed() {
        let reason = malformed_reason(&framed(2, 4, &[&[(0, 1)], &[(2, 3)]]));
        assert!(reason.contains("fault count 2"), "{reason}");
    }

    #[test]
    fn fault_count_beyond_u32_is_malformed() {
        let reason = malformed_reason(&header(7, u64::from(u32::MAX) + 1));
        assert!(reason.contains("exceeds u32"), "{reason}");
    }

    #[test]
    fn observation_point_beyond_u32_is_malformed() {
        let mut record = vec![0; 8];
        record.put_u64(4);
        record.put_u64(1);
        record.put_u32(0);
        record.put_u32(1);
        record.put_u64(1); // one point, then its index
        record.put_u64(u64::from(u32::MAX) + 1);
        record.put_u64(0);
        let reason = malformed_reason(&[header(7, 1), seal(record)].concat());
        assert!(reason.contains("observation point"), "{reason}");
    }

    #[test]
    fn pattern_at_or_beyond_next_pattern_is_malformed() {
        let reason = malformed_reason(&framed(2, 4, &[&[(1, 4)]]));
        assert!(reason.contains("next_pattern 4"), "{reason}");
    }

    #[test]
    fn next_pattern_falling_between_records_is_malformed() {
        let bytes = [header(0xf00d, 2), record(4, &[]), record(3, &[])].concat();
        let reason = malformed_reason(&bytes);
        assert!(reason.contains("below the previous record's 4"), "{reason}");
    }

    #[test]
    fn entries_out_of_pattern_order_are_malformed() {
        // within one record, across two records, and a repeated pattern
        let records: [&[&[(u32, u32)]]; 3] = [
            &[&[(0, 2), (0, 1)]],
            &[&[(1, 2)], &[(1, 1)]],
            &[&[(0, 3)], &[(0, 3)]],
        ];
        for records in records {
            let reason = malformed_reason(&framed(2, 4, records));
            assert!(reason.contains("does not follow"), "{reason}");
        }
    }

    fn fresh_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("fastmon-ckptdir-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn lock_excludes_same_fingerprint_and_releases_on_drop() {
        let root = fresh_root("lock");
        let dirs = CheckpointDir::new(&root);
        let job = dirs.acquire(0xabc).unwrap();
        // Second acquire of the same fingerprint: held by this (live)
        // process, so it must refuse, not steal.
        assert_eq!(
            dirs.acquire(0xabc).unwrap_err(),
            CheckpointError::Locked {
                holder_pid: std::process::id()
            }
        );
        // A different fingerprint is independent.
        let other = dirs.acquire(0xdef).unwrap();
        drop(other);
        // The store inside is scoped to the job directory.
        assert!(job.store().path().starts_with(dirs.dir_for(0xabc)));
        job.store().save(&sample()).unwrap();
        drop(job);
        // Lock released: reacquire succeeds and sees the checkpoint.
        let job2 = dirs.acquire(0xabc).unwrap();
        assert_eq!(job2.store().load().unwrap(), sample());
        job2.complete().unwrap();
        assert!(!dirs.dir_for(0xabc).exists());
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn unheld_lock_files_are_taken_whatever_they_name() {
        let root = fresh_root("steal");
        let dirs = CheckpointDir::new(&root);
        let dir = dirs.dir_for(0x123);
        std::fs::create_dir_all(&dir).unwrap();
        // A dead pid (PIDs are capped well below this on Linux) and a
        // garbled file: the lock is the open file, not its contents.
        for stale in ["4294967294", "not-a-pid"] {
            std::fs::write(dir.join("LOCK"), stale).unwrap();
            let job = dirs.acquire(0x123).unwrap();
            let lock = std::fs::read_to_string(dir.join("LOCK")).unwrap();
            assert_eq!(lock, std::process::id().to_string());
            drop(job);
        }
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn lock_naming_this_pid_that_nobody_holds_is_acquired_and_swept() {
        use std::time::Duration;
        // A restarted process can have its predecessor's PID (PID 1 in a
        // container): a stale LOCK naming it must not wedge the directory.
        let root = fresh_root("ownpid");
        let dirs = CheckpointDir::new(&root);
        let dir = dirs.dir_for(0x99);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("LOCK"), std::process::id().to_string()).unwrap();
        dirs.acquire(0x99).unwrap().store().save(&sample()).unwrap();
        let report = dirs.gc(&[], Duration::ZERO).unwrap();
        assert_eq!(report.removed, vec![0x99]);
        assert_eq!(report.kept_locked, 0);
        assert!(!dir.exists());
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn a_lock_on_a_removed_directory_is_not_the_directory_lock() {
        // What an acquire sees when a sweep removes the directory between
        // its open and its lock: the locked file is no longer the one the
        // path names, and the directory can be locked afresh.
        let root = fresh_root("moved");
        let dirs = CheckpointDir::new(&root);
        let dir = dirs.dir_for(0x5);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("LOCK");
        let orphan = try_lock(&path).unwrap().unwrap();
        assert!(still_names(&path, &orphan));
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(!still_names(&path, &orphan));
        let job = dirs.acquire(0x5).unwrap();
        assert!(!still_names(&path, &orphan));
        drop((job, orphan));
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn gc_removes_only_stale_unlocked_aged_directories() {
        use std::time::Duration;
        let root = fresh_root("gc");
        let dirs = CheckpointDir::new(&root);
        // Missing root: empty report, not an error.
        assert_eq!(dirs.gc(&[], Duration::ZERO).unwrap(), GcReport::default());

        // live: fingerprint still queued; locked: held by this process;
        // stale: eligible; foreign: not a fingerprint directory.
        let mut held = None;
        for fp in [0x1u64, 0x2, 0x3] {
            let job = dirs.acquire(fp).unwrap();
            job.store().save(&sample()).unwrap();
            if fp == 0x2 {
                held = Some(job); // keep 0x2's lock held
            }
        }
        std::fs::create_dir_all(root.join("not-a-fingerprint")).unwrap();

        let report = dirs.gc(&[0x1], Duration::ZERO).unwrap();
        assert_eq!(report.removed, vec![0x3]);
        assert_eq!(report.kept_live, 1);
        assert_eq!(report.kept_locked, 1);
        assert!(dirs.dir_for(0x1).exists());
        assert!(dirs.dir_for(0x2).exists());
        assert!(!dirs.dir_for(0x3).exists());
        assert!(root.join("not-a-fingerprint").exists());

        // A long grace period keeps even stale directories (crash-recent
        // campaigns stay resumable until clients resubmit).
        let report = dirs.gc(&[], Duration::from_secs(3600)).unwrap();
        assert!(report.removed.is_empty());
        assert_eq!(report.kept_young, 1); // 0x1 (0x2 still lock-held)
        assert_eq!(report.kept_locked, 1);

        // Release 0x2's lock and sweep everything.
        drop(held);
        let report = dirs.gc(&[], Duration::ZERO).unwrap();
        assert_eq!(report.removed, vec![0x1, 0x2]);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn gc_sweeps_unheld_locks_and_keeps_held_ones() {
        use std::time::Duration;
        let root = fresh_root("gc-claim");
        let dirs = CheckpointDir::new(&root);
        // A crash leftover (dead pid) and foreign junk (unparseable
        // holder) both age out; the sweep locks each before removing it
        // so it cannot race a resuming acquire.
        let dead = dirs.dir_for(0xa);
        std::fs::create_dir_all(&dead).unwrap();
        std::fs::write(dead.join("LOCK"), "4294967294").unwrap();
        let junk = dirs.dir_for(0xb);
        std::fs::create_dir_all(&junk).unwrap();
        std::fs::write(junk.join("LOCK"), "not-a-pid").unwrap();
        let report = dirs.gc(&[], Duration::ZERO).unwrap();
        assert_eq!(report.removed, vec![0xa, 0xb]);
        assert!(!dead.exists());
        assert!(!junk.exists());
        // A lock that a live holder has is kept, not removed — the same
        // arbitration a mid-sweep acquire would win.
        let job = dirs.acquire(0xc).unwrap();
        let report = dirs.gc(&[], Duration::ZERO).unwrap();
        assert!(report.removed.is_empty());
        assert_eq!(report.kept_locked, 1);
        assert!(dirs.dir_for(0xc).exists());
        drop(job);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn gc_skips_a_locked_dir_holding_live_shard_checkpoints() {
        use std::time::Duration;
        let root = fresh_root("gc-shards");
        let dirs = CheckpointDir::new(&root);
        // A supervised campaign parks its per-shard checkpoints inside
        // the job's locked directory, so a concurrent daemon gc can
        // never reap a shard file out from under a live supervisor.
        let job = dirs.acquire(0x5d).unwrap();
        let shard_ckpt = job.dir().join("shard-1-of-4.ckpt");
        CheckpointStore::new(&shard_ckpt).save(&sample()).unwrap();
        let report = dirs.gc(&[], Duration::ZERO).unwrap();
        assert!(report.removed.is_empty());
        assert_eq!(report.kept_locked, 1);
        assert!(
            shard_ckpt.exists(),
            "gc reaped a live supervised shard's checkpoint"
        );
        // Lock released (supervisor done): the whole job dir, shard
        // files included, becomes collectable again.
        drop(job);
        let report = dirs.gc(&[], Duration::ZERO).unwrap();
        assert_eq!(report.removed, vec![0x5d]);
        assert!(!shard_ckpt.exists());
        let _ = std::fs::remove_dir_all(root);
    }

    fn sample_test_set() -> fastmon_atpg::TestSet {
        let circuit = fastmon_netlist::library::s27();
        let mut set = fastmon_atpg::TestSet::new(&circuit);
        let width = set.sources().len();
        for k in 0..5 {
            set.push(TestPattern {
                launch: (0..width).map(|i| (i + k) % 3 == 0).collect(),
                capture: (0..width).map(|i| (i * k) % 2 == 1).collect(),
            });
        }
        set
    }

    // Decoding is exposed to whatever bytes happen to be on disk; it must
    // map *any* input to a typed error or a valid record, never panic.
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn decoding_arbitrary_bytes_never_panics(
            bytes in proptest::collection::vec(any::<u8>(), 0..512),
            faults in 0u64..5,
            next_pattern in 0u64..12,
        ) {
            match decode(&bytes) {
                Ok(cp) => prop_assert!(patterns(&cp.per_pattern)
                    .iter()
                    .flatten()
                    .all(|&p| (p as usize) < cp.next_pattern)),
                Err(e) => {
                    // every error renders (Display is part of the contract)
                    prop_assert!(!e.to_string().is_empty());
                }
            }
            // Random bytes almost never carry a valid checksum; framing
            // them properly drives the payload parsers themselves.
            let test_set = frame(TEST_SET_MAGIC, TEST_SET_VERSION, |out| out.extend(&bytes));
            for candidate in [&bytes, &test_set] {
                match decode_test_set(candidate) {
                    Ok(set) => prop_assert!(set.patterns.iter().all(|p| p.width() == set.width)),
                    Err(e) => prop_assert!(!e.to_string().is_empty()),
                }
            }
            // Behind a valid header, the bytes drive the record splitter
            // (lengths, torn tails, checksums); sealed as one record, they
            // drive the field parser and its entry checks.
            let mut body = vec![0; 8];
            body.put_u64(next_pattern);
            body.extend(&bytes);
            for candidate in [
                [header(7, faults), bytes.clone()].concat(),
                [header(7, faults), seal(body)].concat(),
            ] {
                match decode(&candidate) {
                    Ok(cp) => {
                        prop_assert_eq!(cp.per_pattern.num_faults() as u64, faults);
                        for entries in patterns(&cp.per_pattern) {
                            prop_assert!(entries.windows(2).all(|w| w[0] < w[1]));
                            prop_assert!(entries.iter().all(|&p| (p as usize) < cp.next_pattern));
                        }
                    }
                    Err(e) => prop_assert!(!e.to_string().is_empty()),
                }
            }
            // Their first 16 bytes as the header's fingerprint and fault
            // count, behind a valid checksum, drive the fault-count checks.
            let (fields, records) = bytes.split_at(bytes.len().min(16));
            let fuzzed_header = [
                frame(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, |out| out.extend(fields)),
                records.to_vec(),
            ]
            .concat();
            if let Err(e) = decode(&fuzzed_header) {
                prop_assert!(!e.to_string().is_empty());
            }
        }

        #[test]
        fn band_records_decode_iff_every_entry_is_valid(
            entries in proptest::collection::vec((0u32..4, 0u32..8), 0..12),
            split in 0usize..12,
        ) {
            // three faults, six patterns; the entries as one record or two
            let split = split.min(entries.len());
            let bytes = framed(3, 6, &[&entries[..split], &entries[split..]]);
            let mut last = [None; 3];
            let valid = entries.iter().all(|&(fault, pattern)| {
                let Some(previous) = last.get_mut(fault as usize) else {
                    return false;
                };
                let follows = previous.is_none_or(|p| pattern > p);
                *previous = Some(pattern);
                pattern < 6 && follows
            });
            match decode(&bytes) {
                Ok(cp) => {
                    prop_assert!(valid, "accepted {entries:?}");
                    let decoded: usize = lens(&cp.per_pattern).iter().sum();
                    prop_assert_eq!(decoded, entries.len());
                }
                Err(e) => {
                    prop_assert!(!valid, "rejected {entries:?}: {e}");
                    prop_assert!(matches!(e, CheckpointError::Malformed { .. }), "{e:?}");
                }
            }
        }

        #[test]
        fn decoding_mutated_valid_checkpoints_never_panics(
            pos in 0usize..4096,
            mask in 0u8..255,
        ) {
            let mut bytes = encode(&sample());
            let len = bytes.len();
            // mask + 1 keeps the XOR non-trivial (1..=255)
            bytes[pos % len] ^= mask + 1;
            if let Err(e) = decode(&bytes) {
                prop_assert!(!e.to_string().is_empty());
            }
            let mut bytes = encode_test_set(7, &sample_test_set());
            let len = bytes.len();
            bytes[pos % len] ^= mask + 1;
            if let Err(e) = decode_test_set(&bytes) {
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }
}
