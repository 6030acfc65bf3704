//! Peak-RSS probes for the experiment binaries.
//!
//! Two high-water marks matter for the snapshot artifacts: the probing
//! process's own peak (`VmHWM` from `/proc/self/status`, which captures
//! the campaign's waveform/scratch footprint) and the maximum over all
//! reaped children (`getrusage(RUSAGE_CHILDREN)`, which lets the
//! `run_all` driver record the hungriest experiment of a campaign).
//!
//! The workspace carries no `libc` dependency, so the `getrusage` call is
//! declared directly against the C ABI; both probes degrade to `None` on
//! non-Linux hosts or unparseable procfs rather than failing the run.

/// This process's peak resident-set size in bytes (`VmHWM`), or `None`
/// when the probe is unavailable (non-Linux, unreadable procfs).
pub use fastmon_core::shardsup::peak_rss_self_bytes;

/// Largest peak resident-set size in bytes over every child this process
/// has waited on, or `None` when the probe is unavailable. On Linux the
/// kernel reports `ru_maxrss` in KiB.
///
/// Each child is charged at least the parent's resident set at fork
/// time, so the figure overstates small children of a large parent; shard
/// workers report their own `VmHWM` in their `shard_done` record instead.
#[must_use]
pub fn peak_rss_children_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        linux::children_maxrss_kib().map(|kib| kib * 1024)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// `bytes` as a human-readable MiB figure for log lines.
#[must_use]
pub fn format_mib(bytes: u64) -> String {
    format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(target_os = "linux")]
mod linux {
    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    #[derive(Default)]
    struct Timeval {
        tv_sec: i64,
        tv_usec: i64,
    }

    /// `struct rusage`: two timevals followed by 14 longs, `ru_maxrss`
    /// first. The trailing longs are padded out so the kernel never
    /// writes past our buffer.
    #[repr(C)]
    #[derive(Default)]
    struct Rusage {
        ru_utime: Timeval,
        ru_stime: Timeval,
        ru_maxrss: i64,
        rest: [i64; 13],
    }

    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }

    /// `RUSAGE_CHILDREN` from `<sys/resource.h>`.
    const RUSAGE_CHILDREN: i32 = -1;

    /// Peak RSS in KiB over all reaped children.
    pub(super) fn children_maxrss_kib() -> Option<u64> {
        let mut usage = Rusage::default();
        // SAFETY: `usage` is a valid, writable `struct rusage`-layout
        // buffer and RUSAGE_CHILDREN is a documented selector.
        let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
        if rc == 0 {
            u64::try_from(usage.ru_maxrss).ok()
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn self_peak_is_positive_on_linux() {
        let peak = peak_rss_self_bytes();
        assert!(peak.is_some_and(|b| b > 0), "VmHWM probe failed: {peak:?}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn children_peak_reflects_a_reaped_child() {
        // `true(1)` is tiny but nonzero; after waiting on it the children
        // high-water mark must be > 0.
        let status = std::process::Command::new("true").status();
        if status.is_ok() {
            let peak = peak_rss_children_bytes();
            assert!(peak.is_some_and(|b| b > 0), "children probe: {peak:?}");
        }
    }

    #[test]
    fn mib_formatting() {
        assert_eq!(format_mib(3 * 1024 * 1024), "3.0 MiB");
    }
}
