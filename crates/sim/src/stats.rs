//! Campaign counter snapshots.
//!
//! The counters live in campaign-owned
//! [`fastmon_obs::SimMetrics`]/[`fastmon_obs::MetricsRegistry`] registries
//! (see [`SimEngine::with_metrics`](crate::SimEngine::with_metrics)):
//! each campaign holds its own collector, so concurrent campaigns in one
//! process attribute their work exactly. Engines *not* given a scoped
//! registry fall back to one process-wide [`global`] registry. The hot
//! paths keep the same discipline either way (relaxed ordering, cone-walk
//! counters published once per campaign work item).

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
    /// Cone gates re-evaluated because a fanin's faulty waveform differed
    /// from its fault-free one.
    pub nodes_evaluated: u64,
    /// Cone gates of simulated cones never evaluated because no fanin
    /// changed: per cone, its length minus the seed minus the gates
    /// evaluated. The event-driven walk never visits them.
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
            fault_classes: m.fault_classes.get(),
            faults_collapsed: m.faults_collapsed.get(),
        }
    }
}

/// Cone-walk counter deltas, accumulated per walk in the worker's scratch
/// and published in one batch per campaign work item.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ConeTally {
    pub cones_simulated: u64,
    pub cones_masked: u64,
    pub nodes_evaluated: u64,
    pub nodes_converged: u64,
    pub waveform_allocs: u64,
    pub waveform_reuses: u64,
}

impl ConeTally {
    /// Adds the deltas into `m`.
    pub(crate) fn publish(self, m: &SimMetrics) {
        m.cones_simulated.add(self.cones_simulated);
        m.cones_masked.add(self.cones_masked);
        m.nodes_evaluated.add(self.nodes_evaluated);
        m.nodes_converged.add(self.nodes_converged);
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
            cones_simulated: 1,
            cones_masked: 1,
            nodes_evaluated: 5,
            nodes_converged: 2,
            waveform_allocs: 1,
            waveform_reuses: 4,
        }
        .publish(&m);
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
