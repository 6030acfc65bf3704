//! Deterministic heap gate for the fault-simulation campaign.
//!
//! A counting global allocator tallies every allocator call that obtains
//! memory (`alloc`, `alloc_zeroed`, `realloc`) and tracks the live heap
//! bytes (added on `alloc`/`alloc_zeroed`, moved by the size difference on
//! `realloc`, subtracted on `dealloc`) while one single-thread `analyze`
//! runs on `thread_scaling`'s configuration: the `p89k` profile scaled to
//! 1 500 gates, 1 500 sampled faults, 16 patterns. At one thread the
//! campaign's work, and therefore its allocation sequence, is a pure
//! function of its inputs, so the call count and the live-heap peak above
//! the level before the call must repeat exactly, and each must stay
//! within a per-(fault, pattern) budget.
//!
//! This file holds a single test on purpose: a second test running
//! concurrently in the same process would allocate into the tallies.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use fastmon_core::{FlowConfig, HdfTestFlow};
use fastmon_netlist::generate::CircuitProfile;

/// Allocator calls per simulated (fault, pattern) pair one `analyze` may
/// make: the 0.983 measured when this gate was last tightened (23 590
/// calls over 24 000 pairs), plus 6 % headroom.
const BUDGET_PER_PAIR: f64 = 1.04;

/// Live-heap peak, in bytes per simulated (fault, pattern) pair, that one
/// `analyze` may reach above the level before it: the 36.8 measured when
/// this gate was last tightened (884 018 bytes over 24 000 pairs), plus
/// 6 % headroom.
const PEAK_BYTES_PER_PAIR: f64 = 39.0;

struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` unchanged; the tallies are
// relaxed atomic updates that neither allocate nor touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grow(more),
                None => shrink(layout.size() - new_size),
            }
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn single_thread_analyze_allocations_are_deterministic_and_within_budget() {
    let profile = CircuitProfile::named("p89k")
        .expect("p89k is a built-in paper profile")
        .scaled(1_500.0 / 88_000.0);
    let circuit = profile.generate(1).expect("profile generates");
    let config = FlowConfig {
        threads: 1,
        max_faults: Some(1_500),
        ..FlowConfig::default()
    };
    let flow = HdfTestFlow::prepare(&circuit, &config);
    let patterns = flow.generate_patterns(Some(16));
    let pairs = (flow.candidate_faults().len() * patterns.len()) as f64;
    assert!(pairs > 0.0);

    let mut counts = [0u64; 2];
    let mut peaks = [0u64; 2];
    for (count, peak) in counts.iter_mut().zip(&mut peaks) {
        let calls = CALLS.load(Ordering::Relaxed);
        let live = LIVE.load(Ordering::Relaxed);
        PEAK.store(live, Ordering::Relaxed);
        let analysis = flow.analyze(&patterns);
        *count = CALLS.load(Ordering::Relaxed) - calls;
        *peak = PEAK.load(Ordering::Relaxed) - live;
        drop(analysis);
    }
    assert_eq!(
        counts[0], counts[1],
        "one-thread analyze must allocate deterministically"
    );
    assert_eq!(
        peaks[0], peaks[1],
        "one-thread analyze must reach the same live-heap peak every run"
    );
    let per_pair = counts[0] as f64 / pairs;
    let peak_per_pair = peaks[0] as f64 / pairs;
    eprintln!(
        "analyze: {} allocator calls, {per_pair:.2} per (fault, pattern); live-heap peak {} \
         bytes, {peak_per_pair:.0} per (fault, pattern)",
        counts[0], peaks[0]
    );
    assert!(
        per_pair <= BUDGET_PER_PAIR,
        "{} allocator calls = {per_pair:.2} per (fault, pattern), over the budget of \
         {BUDGET_PER_PAIR}",
        counts[0]
    );
    assert!(
        peak_per_pair <= PEAK_BYTES_PER_PAIR,
        "live-heap peak of {} bytes = {peak_per_pair:.0} per (fault, pattern), over the \
         budget of {PEAK_BYTES_PER_PAIR}",
        peaks[0]
    );
}
