//! Campaign counter plumbing.
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
        assert_eq!(m.cones_simulated.get(), 1);
        assert_eq!(m.nodes_evaluated.get(), 5);
        assert_eq!(m.nodes_converged.get(), 2);
        assert_eq!(m.cones_masked.get(), 1);
        assert_eq!(m.waveform_allocs.get(), 1);
        assert_eq!(m.waveform_reuses.get(), 4);
    }
}
