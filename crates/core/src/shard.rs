//! The shard file layout: how a campaign split into `n` contiguous fault
//! shards lives in one directory. The shard supervisor and its worker
//! processes both go through [`ShardFiles`], so they agree on every path
//! and fingerprint.
//!
//! ```text
//! <dir>/shard-spec.json          the campaign spec a worker rebuilds its flow from
//! <dir>/test-set.fmts            the prepared test set, keyed by the campaign fingerprint
//! <dir>/shard-<i>-of-<n>.ckpt    shard i's checkpoint; once complete, its result
//! ```
//!
//! Checkpoints use the `FMCK` codec and the test set its `FMTS` sibling
//! (see [`crate::CheckpointStore`]): versioned and checksummed. The
//! test set and the spec, which is plain text, are written atomically.
//! A shard's checkpoint that has simulated every pattern is the shard's
//! result: it stays in the directory for [`ShardFiles::merge`], and the
//! caller removes the directory once the merged result is safe. Shard
//! files are keyed by [`ShardSpec::fingerprint`], so a repartitioned
//! rerun never resumes or merges a foreign slice.

use std::io::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};

use fastmon_atpg::{AtpgError, TestSet};
use fastmon_netlist::Circuit;

use crate::analysis::{contained, raw_unions};
use crate::checkpoint::{
    self, ByteSink as _, CampaignCheckpoint, CheckpointError, CheckpointStore, Fnv1a,
};
use crate::shardsup::{config_error, parse_shard_count, ShardsupError};
use crate::{Campaign, CampaignProgress, DetectionAnalysis, FlowError, HdfTestFlow};

/// The spec file a shard worker rebuilds its campaign from.
pub const SPEC_FILE: &str = "shard-spec.json";
/// The shipped test set every worker of the campaign simulates.
pub const TEST_SET_FILE: &str = "test-set.fmts";

/// A shard's `i/n` coordinates, as passed via `--shard-worker i/n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Zero-based shard index.
    pub shard: usize,
    /// Total shard count of the partition.
    pub shards: usize,
}

impl ShardSpec {
    /// Parses `"i/n"` with `i < n <=` [`crate::MAX_SHARDS`].
    ///
    /// # Errors
    ///
    /// [`ShardsupError::Config`] on malformed or out-of-range specs.
    pub fn parse(raw: &str) -> Result<Self, ShardsupError> {
        const KEY: &str = "--shard-worker";
        let (i, n) = raw
            .split_once('/')
            .ok_or_else(|| config_error(KEY, raw, "expected SHARD/SHARDS"))?;
        let shards = parse_shard_count(KEY, n)?;
        let shard: usize = i
            .trim()
            .parse()
            .map_err(|_| config_error(KEY, raw, "expected an unsigned shard index"))?;
        if shard >= shards {
            return Err(config_error(
                KEY,
                raw,
                "shard index must be below the count",
            ));
        }
        Ok(ShardSpec { shard, shards })
    }

    /// Every shard of a `shards`-way partition, in order. A count of 0
    /// is treated as 1.
    pub fn all(shards: usize) -> impl Iterator<Item = ShardSpec> {
        let shards = shards.max(1);
        (0..shards).map(move |shard| ShardSpec { shard, shards })
    }

    /// The contiguous slice of `faults` candidates this shard owns:
    /// shard `s` owns `[s·|Φ|/n, (s+1)·|Φ|/n)`. Counts above the
    /// candidate population yield trailing empty shards (harmless to run
    /// and to merge).
    #[must_use]
    pub fn range(&self, faults: usize) -> Range<usize> {
        (self.shard * faults / self.shards)..((self.shard + 1) * faults / self.shards)
    }

    /// The fingerprint keying this shard's checkpoint: the `campaign`
    /// fingerprint combined with the shard coordinates.
    #[must_use]
    pub fn fingerprint(&self, campaign: u64) -> u64 {
        let mut hash = Fnv1a::new();
        hash.put_u64(campaign);
        hash.put_u64(self.shard as u64);
        hash.put_u64(self.shards as u64);
        hash.finish()
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.shard, self.shards)
    }
}

/// The files of one sharded campaign directory (see the module docs).
#[derive(Debug, Clone)]
pub struct ShardFiles {
    dir: PathBuf,
}

impl ShardFiles {
    /// The layout rooted at `dir`.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ShardFiles { dir: dir.into() }
    }

    /// The campaign directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where the campaign spec lives ([`SPEC_FILE`]).
    #[must_use]
    pub fn spec_path(&self) -> PathBuf {
        self.dir.join(SPEC_FILE)
    }

    /// Lands `spec` — the text a worker rebuilds `flow`'s campaign from —
    /// atomically, so a worker racing a supervisor restart never reads a
    /// half-written file. Transient write failures are retried like
    /// checkpoint saves and counted in `flow`'s registry.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the file cannot be written.
    pub fn land_spec(&self, flow: &HdfTestFlow<'_>, spec: &str) -> Result<(), CheckpointError> {
        let path = self.spec_path();
        checkpoint::write_with_retry(&path, flow.metrics(), || {
            checkpoint::write_atomic(&path, |file| file.write_all(spec.as_bytes())).map(drop)
        })
    }

    /// The landed spec text.
    ///
    /// # Errors
    ///
    /// The I/O error when the file is missing or not UTF-8.
    pub fn read_spec(&self) -> std::io::Result<String> {
        std::fs::read_to_string(self.spec_path())
    }

    /// Shard `spec`'s checkpoint: resumable while patterns remain, the
    /// shard's result once it has simulated them all.
    #[must_use]
    pub fn checkpoint(&self, spec: ShardSpec) -> CheckpointStore {
        CheckpointStore::new(
            self.dir
                .join(format!("shard-{}-of-{}.ckpt", spec.shard, spec.shards)),
        )
    }

    /// Lands `patterns` as the campaign's shipped test set, keyed by
    /// `flow`'s campaign fingerprint for them. Transient write failures
    /// are retried like checkpoint saves.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the file cannot be written.
    pub fn land_test_set(
        &self,
        flow: &HdfTestFlow<'_>,
        patterns: &TestSet,
    ) -> Result<(), CheckpointError> {
        let bytes = checkpoint::encode_test_set(flow.campaign_fingerprint(patterns), patterns);
        let path = self.dir.join(TEST_SET_FILE);
        checkpoint::write_with_retry(&path, flow.metrics(), || {
            checkpoint::write_atomic(&path, |file| file.write_all(&bytes)).map(drop)
        })
    }

    /// Loads the shipped test set for `circuit`, together with the
    /// campaign fingerprint it was landed for.
    ///
    /// # Errors
    ///
    /// [`FlowError::Checkpoint`] when the file is missing, unreadable or
    /// corrupt; [`FlowError::Atpg`] when its vectors do not fit
    /// `circuit`'s sources.
    pub fn load_test_set(&self, circuit: &Circuit) -> Result<(u64, TestSet), FlowError> {
        let bytes = checkpoint::read_input(&self.dir.join(TEST_SET_FILE))?;
        let record = checkpoint::decode_test_set(&bytes)?;
        let mut set = TestSet::new(circuit);
        if record.width != set.sources().len() {
            return Err(AtpgError::WidthMismatch {
                got: record.width,
                expected: set.sources().len(),
            }
            .into());
        }
        for pattern in record.patterns {
            set.try_push(pattern)?;
        }
        Ok((record.fingerprint, set))
    }

    /// Whether shard `spec`'s checkpoint is complete and validates for
    /// this exact campaign and partition (the supervisor's completion
    /// probe — cheap: no finalization).
    #[must_use]
    pub fn landed(&self, flow: &HdfTestFlow<'_>, patterns: &TestSet, spec: ShardSpec) -> bool {
        let campaign = flow.campaign_fingerprint(patterns);
        self.load_raw(flow, patterns, spec, campaign).is_ok()
    }

    /// Runs shard `spec` on its checkpoint, resuming from it if one
    /// exists, and returns the shard fingerprint the checkpoint is keyed
    /// by — the shard worker's whole job. The finished checkpoint is the
    /// shard's result and stays on disk.
    ///
    /// Idempotent: a complete checkpoint resumes with no band left to
    /// run, so a supervisor can blindly re-dispatch a worker that died
    /// after finishing.
    ///
    /// # Errors
    ///
    /// Same as [`HdfTestFlow::run`], plus [`FlowError::Checkpoint`] when
    /// a campaign without patterns cannot write its checkpoint.
    pub fn run_to_result(
        &self,
        flow: &HdfTestFlow<'_>,
        patterns: &TestSet,
        spec: ShardSpec,
        observe: &mut dyn FnMut(CampaignProgress),
    ) -> Result<u64, FlowError> {
        let fingerprint = spec.fingerprint(flow.campaign_fingerprint(patterns));
        let store = self.checkpoint(spec);
        let analysis = flow.run(
            patterns,
            Campaign {
                shard: Some(spec),
                checkpoint: Some(&store),
                observe: Some(observe),
            },
        )?;
        if patterns.is_empty() {
            // No band ran, so no band saved the checkpoint that is the
            // shard's result.
            store.save(&CampaignCheckpoint {
                fingerprint,
                next_pattern: 0,
                per_pattern: analysis.per_pattern,
            })?;
        }
        Ok(fingerprint)
    }

    /// Loads every finished shard checkpoint of a `shards`-way partition,
    /// rebuilds each shard's analysis from its raw results and merges
    /// them. Each fault's raw union is derived from its entries the way
    /// the campaign derives it, then [`DetectionAnalysis::finalize`] runs,
    /// so the merged fingerprint is bit-identical to the serial
    /// campaign's.
    ///
    /// # Errors
    ///
    /// [`FlowError::ShardResult`] when any shard's checkpoint is missing,
    /// incomplete or does not belong to this campaign, partition and test
    /// set, and
    /// [`FlowError::WorkerPanic`] when deriving a raw union panics.
    pub fn merge(
        &self,
        flow: &HdfTestFlow<'_>,
        patterns: &TestSet,
        shards: usize,
    ) -> Result<DetectionAnalysis, FlowError> {
        let campaign = flow.campaign_fingerprint(patterns);
        let mut parts = Vec::new();
        for spec in ShardSpec::all(shards) {
            let cp = self.load_raw(flow, patterns, spec, campaign)?;
            // serially: the shards were simulated in other processes, and
            // threads spawned only for this add their allocator arenas to
            // the supervisor's peak RSS
            let raw_union = raw_unions(&cp.per_pattern, 1).map_err(contained(flow.metrics()))?;
            parts.push(DetectionAnalysis::finalize(
                flow.candidate_faults()
                    .slice(spec.range(flow.candidate_faults().len())),
                patterns.len(),
                cp.per_pattern,
                raw_union,
                flow.placement(),
                flow.configs(),
                flow.clock(),
            ));
        }
        DetectionAnalysis::merge(parts)
    }

    /// Loads shard `spec`'s checkpoint and checks that it is the
    /// complete result of this campaign's slice.
    fn load_raw(
        &self,
        flow: &HdfTestFlow<'_>,
        patterns: &TestSet,
        spec: ShardSpec,
        campaign: u64,
    ) -> Result<CampaignCheckpoint, FlowError> {
        let bad = |reason: String| FlowError::ShardResult {
            shard: spec.shard,
            shards: spec.shards,
            reason,
        };
        let fingerprint = spec.fingerprint(campaign);
        let faults = spec.range(flow.candidate_faults().len()).len();
        let cp = self
            .checkpoint(spec)
            .load()
            .map_err(|e| bad(e.to_string()))?;
        if cp.fingerprint != fingerprint {
            return Err(bad(format!(
                "fingerprint {:016x} does not match expected {fingerprint:016x}",
                cp.fingerprint
            )));
        }
        if cp.next_pattern != patterns.len() {
            return Err(bad(format!(
                "incomplete: simulated {} of {} pattern(s)",
                cp.next_pattern,
                patterns.len()
            )));
        }
        if cp.per_pattern.num_faults() != faults {
            return Err(bad(format!(
                "fault count {} does not match the shard's {faults} candidate(s)",
                cp.per_pattern.num_faults(),
            )));
        }
        Ok(cp)
    }
}
