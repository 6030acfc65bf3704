//! Campaign counter snapshots.
//!
//! The counters live in campaign-owned
//! [`fastmon_obs::SimMetrics`]/[`fastmon_obs::MetricsRegistry`] registries
//! (see [`SimEngine::with_metrics`](crate::SimEngine::with_metrics)):
//! each campaign holds its own collector, so concurrent campaigns in one
//! process attribute their work exactly. Engines *not* given a scoped
//! registry fall back to one process-wide [`global`] registry. The hot
//! paths keep the same discipline either way (relaxed ordering, per-cone
//! batch flushes).

use fastmon_obs::SimMetrics;

/// The process-wide fallback registry used by engines that were not given
/// a scoped one via [`SimEngine::with_metrics`](crate::SimEngine::with_metrics).
#[must_use]
pub fn global() -> &'static SimMetrics {
    static GLOBAL: SimMetrics = SimMetrics::new();
    &GLOBAL
}

/// A point-in-time copy of a campaign's fault-simulation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CampaignStats {
    /// Planned cone simulations whose fault was active at its seed gate.
    pub cones_simulated: u64,
    /// Planned cone simulations rejected because the fault was fully
    /// masked at its own gate (seed waveform unchanged).
    pub cones_masked: u64,
    /// Cone gates actually re-evaluated.
    pub nodes_evaluated: u64,
    /// Cone gates skipped because every fanin had already converged back
    /// to its fault-free waveform (including early-exit tail skips).
    pub nodes_converged: u64,
    /// Cone gates dropped at plan-build time because they cannot reach
    /// any observation point.
    pub nodes_pruned_unobserved: u64,
    /// Cone propagation plans built (one per distinct fault gate).
    pub cone_plans_built: u64,
    /// Transition buffers the cone walk created because its scratch pool
    /// was empty: seed-gate, delayed-pin and cone-gate buffers, masked
    /// cones included. This is not a heap-allocation count: a pooled
    /// buffer that has to grow reallocates without moving it, and
    /// fault-free simulation is not counted at all.
    pub waveform_allocs: u64,
    /// Transition buffers the cone walk took from its scratch pool.
    pub waveform_reuses: u64,
    /// Word-parallel screen traversals (one per 64-fault group per
    /// pattern).
    pub screen_walks: u64,
    /// Union-cone gates visited by the word-parallel screen.
    pub screen_nodes_visited: u64,
    /// (fault, pattern) pairs discarded by the screen without an exact
    /// cone walk.
    pub faults_screened_out: u64,
    /// Structural equivalence classes the campaign's fault set collapsed
    /// into (one representative simulated per class).
    pub fault_classes: u64,
    /// Faults never simulated because a class representative's detection
    /// results were fanned back to them.
    pub faults_collapsed: u64,
}

impl CampaignStats {
    /// Snapshots a scoped registry section.
    #[must_use]
    pub fn from_metrics(m: &SimMetrics) -> Self {
        CampaignStats {
            cones_simulated: m.cones_simulated.get(),
            cones_masked: m.cones_masked.get(),
            nodes_evaluated: m.nodes_evaluated.get(),
            nodes_converged: m.nodes_converged.get(),
            nodes_pruned_unobserved: m.nodes_pruned_unobserved.get(),
            cone_plans_built: m.cone_plans_built.get(),
            waveform_allocs: m.waveform_allocs.get(),
            waveform_reuses: m.waveform_reuses.get(),
            screen_walks: m.screen_walks.get(),
            screen_nodes_visited: m.screen_nodes_visited.get(),
            faults_screened_out: m.faults_screened_out.get(),
            fault_classes: m.fault_classes.get(),
            faults_collapsed: m.faults_collapsed.get(),
        }
    }
}

/// One cone's worth of counter deltas, flushed in a single batch.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ConeTally {
    pub nodes_evaluated: u64,
    pub nodes_converged: u64,
    pub waveform_allocs: u64,
    pub waveform_reuses: u64,
}

impl ConeTally {
    /// Publishes the deltas of one simulated cone into `m`.
    pub(crate) fn flush_simulated(self, m: &SimMetrics) {
        m.cones_simulated.incr();
        m.nodes_evaluated.add(self.nodes_evaluated);
        m.nodes_converged.add(self.nodes_converged);
        self.flush_buffers(m);
    }

    /// Publishes a cone masked at its own gate: only its seed (and
    /// delayed-pin) buffers were taken.
    pub(crate) fn flush_masked(self, m: &SimMetrics) {
        m.cones_masked.incr();
        self.flush_buffers(m);
    }

    fn flush_buffers(self, m: &SimMetrics) {
        m.waveform_allocs.add(self.waveform_allocs);
        m.waveform_reuses.add(self.waveform_reuses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_flush_accumulates() {
        let m = SimMetrics::new();
        ConeTally {
            nodes_evaluated: 5,
            nodes_converged: 2,
            waveform_allocs: 1,
            waveform_reuses: 4,
        }
        .flush_simulated(&m);
        m.cones_masked.incr();
        m.nodes_pruned_unobserved.add(7);
        let s = CampaignStats::from_metrics(&m);
        assert_eq!(s.cones_simulated, 1);
        assert_eq!(s.nodes_evaluated, 5);
        assert_eq!(s.nodes_converged, 2);
        assert_eq!(s.cones_masked, 1);
        assert_eq!(s.nodes_pruned_unobserved, 7);
        assert_eq!(s.waveform_allocs, 1);
        assert_eq!(s.waveform_reuses, 4);
    }
}
