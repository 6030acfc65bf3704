//! Campaign-scoped metric counters.
//!
//! A [`MetricsRegistry`] is owned by whoever runs a campaign (one
//! `HdfTestFlow` owns one registry) and handed down by shared reference
//! through the flow, the analysis and the worker pool. Counters use
//! relaxed ordering and are designed for batch flushes (the fault-sim hot
//! loop accumulates cone-walk deltas in its worker scratch and publishes
//! them once per work item), so the bookkeeping stays invisible in
//! profiles.
//!
//! Because every campaign owns its registry, concurrent campaigns in one
//! process attribute their work correctly — the one process-wide fallback
//! registry in `fastmon_sim::stats`, which engines built without a scoped
//! registry share, could not distinguish them.

use std::sync::atomic::{AtomicU64, Ordering};

/// A relaxed-ordering monotonic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zero counter (const so registries can live in statics).
    #[must_use]
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` (relaxed).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one (relaxed).
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (relaxed).
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero (relaxed).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

macro_rules! metric_section {
    ($(#[$meta:meta])* $name:ident { $($(#[$fmeta:meta])* $field:ident),+ $(,)? }) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        pub struct $name {
            $($(#[$fmeta])* pub $field: Counter,)+
        }

        impl $name {
            /// A fresh all-zero section.
            #[must_use]
            pub const fn new() -> Self {
                $name { $($field: Counter::new(),)+ }
            }

            /// Zeroes every counter in the section.
            pub fn reset(&self) {
                $(self.$field.reset();)+
            }

            /// `(name, value)` pairs in declaration order.
            #[must_use]
            pub fn entries(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field.get()),)+]
            }

            /// Adds every counter of `other` into `self`.
            pub fn absorb(&self, other: &Self) {
                $(self.$field.add(other.$field.get());)+
            }
        }
    };
}

metric_section! {
    /// Fault-simulation campaign counters (formerly `fastmon_sim::stats`).
    SimMetrics {
        /// Planned cone simulations whose fault was active at its seed gate.
        cones_simulated,
        /// Planned cone simulations rejected because the fault was fully
        /// masked at its own gate (seed waveform unchanged). Includes the
        /// pairs the activation check rejects before any waveform is
        /// built, which [`cones_never_activated`](Self::cones_never_activated)
        /// also counts.
        cones_masked,
        /// The part of `cones_masked` that the activation check rejects:
        /// the fault site's fault-free waveform has no edge of the fault's
        /// polarity, so the pattern never activates the fault.
        cones_never_activated,
        /// Cone gates re-evaluated because a fanin's faulty waveform
        /// differed from its fault-free one.
        nodes_evaluated,
        /// Cone gates of simulated cones never evaluated because no fanin
        /// changed: per cone, its length minus the seed minus the gates
        /// evaluated. The event-driven walk never visits them.
        nodes_converged,
        /// Cone gates dropped at plan-build time because they cannot reach
        /// any observation point.
        nodes_pruned_unobserved,
        /// Cone propagation plans built (one per distinct fault gate) —
        /// proves the plan/pruning wiring actually ran even when
        /// `nodes_pruned_unobserved` is legitimately 0 on fully observable
        /// netlists.
        cone_plans_built,
        /// Transition buffers the cone walk created because its scratch
        /// pool was empty: seed-gate, delayed-pin and cone-gate buffers,
        /// those of cones masked at their seed gate included. Pairs the
        /// activation check rejects take no buffer and are not counted.
        /// Not a heap-allocation count: a pooled buffer that grows
        /// reallocates without moving this counter.
        waveform_allocs,
        /// Transition buffers the cone walk took from its scratch pool.
        waveform_reuses,
        /// Always 0, kept because `perfbench` reads it: the word-parallel
        /// fault screen whose node visits it counted is deleted.
        screen_nodes_visited,
        /// Always 0, kept because `perfbench` reads it: every (fault,
        /// pattern) pair gets a cone walk, none is screened out.
        faults_screened_out,
    }
}

metric_section! {
    /// ATPG (PODEM + random phase + bit-parallel grading) counters.
    AtpgMetrics {
        /// Deterministic PODEM invocations.
        podem_calls,
        /// PODEM decision backtracks across all invocations.
        podem_backtracks,
        /// Gate evaluations done by PODEM's event-driven forward
        /// implication across all invocations.
        podem_implications,
        /// PODEM invocations aborted at the backtrack limit.
        podem_aborts,
        /// PODEM invocations answered `Untestable` straight from the
        /// static-learning preamble (no search).
        podem_learned_untestable,
        /// Sources pre-assigned by learned implications before the search
        /// started (necessary assignments).
        podem_necessity_assignments,
        /// Faults whose PODEM runs a worker finished ahead of need and
        /// whose outcome was thrown away, because a flush earlier in the
        /// same window detected the fault. Their runs are not in the other
        /// PODEM counters, and at one worker this stays 0.
        podem_outcomes_discarded,
        /// Faults proven untestable.
        faults_untestable,
        /// Faults detected (random phase + PODEM).
        faults_detected,
        /// Patterns in the final (compacted, budget-capped) set.
        patterns_emitted,
        /// Fanout cones precomputed into the shared grading arena.
        cones_cached,
        /// Fanout-cone BFS traversals actually performed (arena builds +
        /// uncached fallback grades).
        cone_bfs,
        /// Cached grades that skipped a per-call cone BFS (each would have
        /// been one `fanout_cone` traversal before the arena existed).
        cone_bfs_avoided,
        /// Cone gate words evaluated while grading faulty machines.
        cone_nodes_evaluated,
        /// Grading scratch buffers allocated (once per worker, plus grows
        /// on cones longer than any seen before).
        grade_scratch_allocs,
        /// Grades served entirely from reusable scratch (zero heap
        /// allocations on this path).
        grade_scratch_reuses,
        /// Full fault × pattern detection-matrix simulations.
        matrix_builds,
        /// Matrix re-simulations avoided by re-packing existing rows
        /// (`DetectionMatrix::select_patterns`).
        matrix_rebuilds_avoided,
    }
}

metric_section! {
    /// Static timing analysis counters.
    StaMetrics {
        /// Completed STA runs (forward + backward pass).
        analyses,
        /// Nodes levelized/propagated across all runs.
        nodes_levelized,
    }
}

metric_section! {
    /// ILP / set-cover scheduling counters.
    IlpMetrics {
        /// Branch-and-bound solves attempted.
        solves,
        /// Branch-and-bound search nodes expanded.
        bb_nodes,
        /// Columns fixed by dominance/reduction preprocessing.
        bb_fixed_by_reduction,
        /// Subtrees cut by the lower-bound tests.
        bb_bounds_pruned,
        /// Solves that hit their deadline and returned the incumbent.
        deadline_hits,
        /// Solves answered by the greedy fallback instead of exact search.
        greedy_fallbacks,
    }
}

metric_section! {
    /// Campaign checkpoint I/O counters (latencies in nanoseconds).
    CheckpointMetrics {
        /// Checkpoint files written.
        saves,
        /// Total wall time spent writing checkpoints, in ns.
        save_ns,
        /// Checkpoint bytes written.
        save_bytes,
        /// Checkpoint load attempts (including misses).
        loads,
        /// Total wall time spent loading checkpoints, in ns.
        load_ns,
        /// Campaigns actually resumed from a checkpoint.
        resumes,
    }
}

metric_section! {
    /// Robustness events: failpoint injections, checkpoint retries,
    /// contained worker panics and cancellation latency. Zero in healthy
    /// runs; nonzero values mean a recovery path actually executed.
    RobustnessMetrics {
        /// Failpoint triggers that fired inside this campaign's scope.
        failpoints_fired,
        /// Checkpoint saves retried after a transient I/O error.
        checkpoint_retries,
        /// Milliseconds between a cancellation request (explicit or
        /// deadline) and the graceful stop that honoured it.
        cancel_latency_ms,
        /// Worker panics caught by `catch_unwind` and surfaced as typed
        /// errors instead of aborting the process.
        worker_panics_contained,
    }
}

metric_section! {
    /// `fastmond` job-lifecycle counters, reported under
    /// `robustness.daemon.*`. Owned by the daemon process (one registry
    /// per daemon, not per campaign) and reported next to
    /// [`RobustnessMetrics`].
    DaemonMetrics {
        /// Jobs accepted onto the bounded queue.
        jobs_admitted,
        /// Jobs refused with a typed reject (queue full or draining).
        jobs_rejected,
        /// Jobs that resumed a campaign from an on-disk checkpoint.
        jobs_resumed,
        /// Jobs that ran to completion and landed results.
        jobs_completed,
        /// Jobs that ended with a typed error (still resumable when a
        /// checkpoint exists).
        jobs_failed,
        /// Jobs stopped by cancellation or deadline at a band boundary.
        jobs_cancelled,
        /// Graceful SIGTERM/SIGINT drains begun.
        drains,
        /// Worker panics contained per-job by `catch_unwind`.
        panics_contained,
    }
}

metric_section! {
    /// Multi-process shard-supervisor counters, reported under
    /// `robustness.shardsup.*`. Owned by whoever runs a supervised
    /// campaign (an experiment binary under `FASTMON_SHARD_PROCS=1`,
    /// `fastmond` shard-procs jobs) and absorbed into the robustness
    /// rollup. Zero outside supervised campaigns.
    ShardsupMetrics {
        /// Shard worker processes spawned (first attempts and respawns).
        workers_spawned,
        /// Workers respawned after a crash, stall kill, or nonzero exit.
        respawns,
        /// Workers killed because no heartbeat arrived within the stall
        /// timeout.
        stalls_detected,
        /// Workers SIGTERMed by the RSS watchdog for exceeding
        /// `FASTMON_SHARD_RSS_BYTES`.
        rss_evictions,
        /// Evicted workers re-admitted after concurrency freed memory.
        readmissions,
        /// Heartbeat/progress lines parsed from worker pipes.
        heartbeats_received,
        /// Shards whose finished checkpoint validated.
        shards_completed,
    }
}

/// The campaign-owned collector handed through the whole flow.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Fault-simulation counters.
    pub sim: SimMetrics,
    /// ATPG counters.
    pub atpg: AtpgMetrics,
    /// STA counters.
    pub sta: StaMetrics,
    /// ILP scheduling counters.
    pub ilp: IlpMetrics,
    /// Checkpoint I/O counters.
    pub checkpoint: CheckpointMetrics,
    /// Robustness-event counters (injections, retries, contained panics).
    pub robustness: RobustnessMetrics,
    /// Daemon job-lifecycle counters (zero outside a `fastmond` process).
    pub daemon: DaemonMetrics,
    /// Shard-supervisor counters (zero outside supervised campaigns).
    pub shardsup: ShardsupMetrics,
    /// Latency distributions (nanoseconds): queue-wait, job run, band,
    /// checkpoint save/load, protocol parse/handle.
    pub latency: crate::hist::HistogramSet,
}

impl MetricsRegistry {
    /// A fresh all-zero registry.
    #[must_use]
    pub const fn new() -> Self {
        MetricsRegistry {
            sim: SimMetrics::new(),
            atpg: AtpgMetrics::new(),
            sta: StaMetrics::new(),
            ilp: IlpMetrics::new(),
            checkpoint: CheckpointMetrics::new(),
            robustness: RobustnessMetrics::new(),
            daemon: DaemonMetrics::new(),
            shardsup: ShardsupMetrics::new(),
            latency: crate::hist::HistogramSet::new(),
        }
    }

    /// Zeroes every counter and histogram.
    pub fn reset(&self) {
        self.sim.reset();
        self.atpg.reset();
        self.sta.reset();
        self.ilp.reset();
        self.checkpoint.reset();
        self.robustness.reset();
        self.daemon.reset();
        self.shardsup.reset();
        self.latency.reset();
    }

    /// Adds every counter and histogram sample of `other` into `self`.
    ///
    /// This is how per-job registries (one per `HdfTestFlow`) roll up
    /// into a long-lived daemon registry without losing attribution in
    /// the per-job copy.
    pub fn absorb(&self, other: &MetricsRegistry) {
        self.sim.absorb(&other.sim);
        self.atpg.absorb(&other.atpg);
        self.sta.absorb(&other.sta);
        self.ilp.absorb(&other.ilp);
        self.checkpoint.absorb(&other.checkpoint);
        self.robustness.absorb(&other.robustness);
        self.daemon.absorb(&other.daemon);
        self.shardsup.absorb(&other.shardsup);
        self.latency.merge_from(&other.latency);
    }

    /// All counters as dotted `(name, value)` pairs, e.g.
    /// `("sim.cones_simulated", 42)`.
    #[must_use]
    pub fn entries(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for (section, entries) in [
            ("sim", self.sim.entries()),
            ("atpg", self.atpg.entries()),
            ("sta", self.sta.entries()),
            ("ilp", self.ilp.entries()),
            ("checkpoint", self.checkpoint.entries()),
            ("robustness", self.robustness.entries()),
            ("robustness.daemon", self.daemon.entries()),
            ("robustness.shardsup", self.shardsup.entries()),
        ] {
            for (name, value) in entries {
                out.push((format!("{section}.{name}"), value));
            }
        }
        out
    }

    /// The counters as a single-line JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value)) in self.entries().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            s.push_str(name); // dotted ascii identifiers, no escaping needed
            s.push_str("\":");
            s.push_str(&value.to_string());
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let reg = MetricsRegistry::new();
        reg.sim.cones_simulated.add(3);
        reg.sim.cones_simulated.incr();
        reg.ilp.bb_nodes.add(7);
        assert_eq!(reg.sim.cones_simulated.get(), 4);
        assert_eq!(reg.ilp.bb_nodes.get(), 7);
        reg.reset();
        assert_eq!(reg.sim.cones_simulated.get(), 0);
        assert_eq!(reg.ilp.bb_nodes.get(), 0);
    }

    #[test]
    fn entries_are_dotted_and_cover_every_section() {
        let reg = MetricsRegistry::new();
        reg.checkpoint.saves.incr();
        let entries = reg.entries();
        for prefix in [
            "sim.",
            "atpg.",
            "sta.",
            "ilp.",
            "checkpoint.",
            "robustness.",
            "robustness.daemon.",
            "robustness.shardsup.",
        ] {
            assert!(
                entries.iter().any(|(n, _)| n.starts_with(prefix)),
                "missing section {prefix}"
            );
        }
        reg.daemon.jobs_admitted.add(2);
        assert!(reg
            .entries()
            .iter()
            .any(|(n, v)| n == "robustness.daemon.jobs_admitted" && *v == 2));
        let saves = entries
            .iter()
            .find(|(n, _)| n == "checkpoint.saves")
            .map(|&(_, v)| v);
        assert_eq!(saves, Some(1));
    }

    #[test]
    fn json_is_parseable_by_the_inhouse_parser() {
        let reg = MetricsRegistry::new();
        reg.sim.nodes_pruned_unobserved.add(11);
        let value = crate::json::parse(&reg.to_json()).unwrap();
        assert_eq!(
            value
                .get("sim.nodes_pruned_unobserved")
                .and_then(crate::json::Value::as_u64),
            Some(11)
        );
    }
}
