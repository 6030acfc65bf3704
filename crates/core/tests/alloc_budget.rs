//! Deterministic heap-allocation gate for the fault-simulation campaign.
//!
//! A counting global allocator tallies every allocator call that obtains
//! memory (`alloc`, `alloc_zeroed`, `realloc`) while one single-thread
//! `analyze` runs on `thread_scaling`'s configuration: the `p89k` profile
//! scaled to 1 500 gates, 1 500 sampled faults, 16 patterns. At one
//! thread the campaign's work, and therefore its allocation sequence, is a
//! pure function of its inputs, so the count must repeat exactly, and it
//! must stay within a per-(fault, pattern) budget.
//!
//! This file holds a single test on purpose: a second test running
//! concurrently in the same process would allocate into the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use fastmon_core::{FlowConfig, HdfTestFlow};
use fastmon_netlist::generate::CircuitProfile;

/// Allocator calls per simulated (fault, pattern) pair one `analyze` may
/// make: the 1.89 measured when this gate was last tightened (45 314
/// calls), plus the same 6 % headroom the first budget had.
const BUDGET_PER_PAIR: f64 = 2.0;

struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is a
// relaxed atomic increment that neither allocates nor touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
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
    for count in &mut counts {
        let before = CALLS.load(Ordering::Relaxed);
        let analysis = flow.analyze(&patterns);
        *count = CALLS.load(Ordering::Relaxed) - before;
        drop(analysis);
    }
    assert_eq!(
        counts[0], counts[1],
        "one-thread analyze must allocate deterministically"
    );
    let per_pair = counts[0] as f64 / pairs;
    eprintln!(
        "analyze: {} allocator calls, {per_pair:.2} per (fault, pattern)",
        counts[0]
    );
    assert!(
        per_pair <= BUDGET_PER_PAIR,
        "{} allocator calls = {per_pair:.2} per (fault, pattern), over the budget of \
         {BUDGET_PER_PAIR}",
        counts[0]
    );
}
