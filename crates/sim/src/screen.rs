//! Word-parallel fault screening for the fault-simulation campaign.
//!
//! The campaign's inner loop re-simulates one fault cone per
//! (fault, pattern) pair. Most of those walks end without a detection:
//! the fault is not activated by the pattern, is blocked at a side input
//! held at a controlling value, or converges back to the fault-free
//! waveform before reaching an observation point. This module extends the
//! bit-parallel idea of the ATPG grader (`WordSim::detect_word_cached`)
//! to the timing-accurate campaign: faults are packed 64 to a word and a
//! single levelized traversal of the group's *union cone* computes, per
//! fault, a conservative "the fault effect may still reach an observation
//! point" mask against the shared fault-free waveforms. Only surviving
//! faults pay for an exact per-fault cone walk, so the screened result is
//! bit-identical to the unscreened campaign.
//!
//! # Soundness
//!
//! Bit `k` of the mask at node `n` means "fault `k` may make the waveform
//! of `n` differ from its fault-free waveform". The screen only ever
//! *clears* a bit when the faulty waveform is provably identical:
//!
//! * **Activation**: the fault delays transitions of one polarity on its
//!   site signal. If the fault-free site waveform carries no transition of
//!   that polarity, the delayed waveform is unchanged (the same pre-check
//!   the exact walk performs).
//! * **Blocking**: for a gate with a controlling value `c` (AND/NAND = 0,
//!   OR/NOR = 1), a side input whose fault-free waveform is *constant* at
//!   `c` — and which the fault provably cannot reach — forces the output
//!   to a constant in both the fault-free and the faulty circuit, at every
//!   instant. XOR-class and single-input gates never block.
//! * **Observability**: a fault whose mask reaches no observation-point
//!   driver cannot produce a difference interval.
//!
//! Each rule is timing-independent (it reasons about constant waveforms
//! and per-polarity transitions only), so a cleared bit implies the exact
//! timing walk would have produced an empty detection range.

use fastmon_faults::{FaultList, Polarity};
use fastmon_netlist::{Circuit, NodeId, PinRef};
use fastmon_obs::SimMetrics;

use crate::engine::{ConePlan, SimResult};
use crate::stats;
use crate::WaveRef;

/// Whether the waveform carries a transition the polarity affects.
///
/// This is the campaign's activation pre-check: a slow-to-rise fault can
/// only delay rising transitions, so a site waveform without one is
/// untouched by the fault.
#[must_use]
pub fn has_polarity_transition(wave: WaveRef<'_>, polarity: Polarity) -> bool {
    let mut value = wave.initial();
    for _ in wave.transitions() {
        value = !value;
        if polarity.affects(value) {
            return true;
        }
    }
    false
}

/// In-union fanin references carry this tag; the low bits are the slot.
const LOCAL: u32 = 1 << 31;
/// Marker for faults whose seed gate reaches no observation point.
const NO_SLOT: u32 = u32::MAX;
/// "No controlling value" marker in the per-node table.
const CTRL_NONE: u8 = 2;

/// One fault of a screen group: everything the per-pattern activation
/// check needs, resolved at build time so screening never touches the
/// circuit.
#[derive(Debug, Clone)]
struct ScreenSeed {
    /// Index into the campaign fault list.
    fault: u32,
    /// Index of the seed gate's entry in the campaign `by_gate`/plan
    /// arrays (the exact walk needs the matching [`ConePlan`]).
    gate_entry: u32,
    /// Bit position inside the group word.
    bit: u8,
    /// Slot of the seed gate in the union cone; [`NO_SLOT`] when the seed
    /// reaches no observation point (the fault can never be detected).
    gate_slot: u32,
    /// The signal whose transitions the fault delays.
    site_signal: NodeId,
    polarity: Polarity,
    /// Controlling value of the seed gate, for input-pin faults on
    /// controllable gates ([`CTRL_NONE`] otherwise).
    ctrl: u8,
    /// Range into [`FaultScreen::blockers`]: the seed gate's *other*
    /// fanins, whose constant-controlling waveforms mask the fault at its
    /// own gate.
    blockers: (u32, u32),
}

/// A word of up to 64 faults sharing one union propagation cone.
#[derive(Debug, Clone)]
pub struct ScreenGroup {
    seeds: Vec<ScreenSeed>,
    /// Union of the member gates' pruned cones, topologically ordered.
    nodes: Vec<NodeId>,
    /// Controlling value per union node ([`CTRL_NONE`] = none).
    ctrl: Vec<u8>,
    /// CSR fanin refs per union node: [`LOCAL`]`|slot` for in-union
    /// fanins, the raw node index otherwise.
    fanins: Vec<u32>,
    fanin_offsets: Vec<u32>,
    /// CSR of the in-union fanin slots only — external fanins always
    /// carry a zero mask, so the hot any-fault-here gather skips them.
    local_fanins: Vec<u32>,
    local_offsets: Vec<u32>,
    /// Union slots that drive an observation point.
    taps: Vec<u32>,
}

impl ScreenGroup {
    /// `(fault index, by_gate entry)` of every member, ascending fault
    /// order, for iterating the survivors of a screen word.
    pub fn members(&self) -> impl Iterator<Item = (usize, usize, u8)> + '_ {
        self.seeds
            .iter()
            .map(|s| (s.fault as usize, s.gate_entry as usize, s.bit))
    }

    /// Number of faults in this group.
    #[must_use]
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// Whether the group is empty (never produced by the builder).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }
}

/// Reusable per-worker buffers for [`FaultScreen::screen`].
#[derive(Debug, Default)]
pub struct ScreenScratch {
    /// Per union slot: the 64-fault "may differ" mask.
    masks: Vec<u64>,
    /// Per-fanin masks of the node being evaluated.
    fanin_masks: Vec<u64>,
    /// Per-fanin constant-at-controlling-value flags.
    fanin_ctrl: Vec<bool>,
    /// `(slot, bit)` of the seeds activated by the current pattern.
    seed_bits: Vec<(u32, u64)>,
}

impl ScreenScratch {
    /// Fresh, empty scratch; buffers grow to the largest group screened.
    #[must_use]
    pub fn new() -> Self {
        ScreenScratch::default()
    }
}

/// The campaign-wide screening structure: faults grouped 64 to a word in
/// campaign order, each group with its union propagation cone.
#[derive(Debug, Clone)]
pub struct FaultScreen {
    groups: Vec<ScreenGroup>,
    /// Shared side-input pool referenced by the seeds' `blockers` ranges.
    blockers: Vec<NodeId>,
}

impl FaultScreen {
    /// Groups the campaign's faults (already grouped by seed gate in
    /// `by_gate`, with a matching [`ConePlan`] per entry) into 64-fault
    /// words and builds each word's union cone.
    ///
    /// # Panics
    ///
    /// Panics if `plans` does not match `by_gate`.
    #[must_use]
    pub fn build(
        circuit: &Circuit,
        faults: &FaultList,
        by_gate: &[(NodeId, Vec<usize>)],
        plans: &[ConePlan],
    ) -> Self {
        assert_eq!(by_gate.len(), plans.len(), "one plan per fault gate");
        // topological rank, to order union cones without re-walking
        let mut rank = vec![0u32; circuit.len()];
        for (r, &id) in circuit.topo_order().iter().enumerate() {
            rank[id.index()] =
                u32::try_from(r).unwrap_or_else(|_| unreachable!("node count fits u32"));
        }

        // chunk whole gates into ≤64-fault words (a gate's faults never
        // split across words; per-gate fault counts are far below 64)
        let mut groups = Vec::new();
        let mut blockers = Vec::new();
        let mut slot = vec![0u32; circuit.len()]; // union slot + 1
        let mut entry = 0usize;
        while entry < by_gate.len() {
            let mut end = entry;
            let mut count = 0usize;
            while end < by_gate.len() {
                let gate_faults = by_gate[end].1.len();
                if count + gate_faults > 64 && count > 0 {
                    break;
                }
                count += gate_faults;
                end += 1;
            }
            groups.push(Self::build_group(
                circuit,
                faults,
                by_gate,
                plans,
                entry..end,
                &rank,
                &mut slot,
                &mut blockers,
            ));
            entry = end;
        }
        FaultScreen { groups, blockers }
    }

    #[allow(clippy::too_many_arguments)]
    fn build_group(
        circuit: &Circuit,
        faults: &FaultList,
        by_gate: &[(NodeId, Vec<usize>)],
        plans: &[ConePlan],
        entries: std::ops::Range<usize>,
        rank: &[u32],
        slot: &mut [u32],
        blockers: &mut Vec<NodeId>,
    ) -> ScreenGroup {
        // union of the member gates' pruned cones
        let mut nodes: Vec<NodeId> = Vec::new();
        for plan in &plans[entries.clone()] {
            for &id in plan.cone() {
                if slot[id.index()] == 0 {
                    slot[id.index()] = 1; // membership mark, slot assigned below
                    nodes.push(id);
                }
            }
        }
        nodes.sort_unstable_by_key(|id| rank[id.index()]);
        for (i, &id) in nodes.iter().enumerate() {
            slot[id.index()] =
                u32::try_from(i).unwrap_or_else(|_| unreachable!("cone fits u32")) + 1;
        }

        // CSR fanins + controlling values
        let mut ctrl = Vec::with_capacity(nodes.len());
        let mut fanins = Vec::new();
        let mut fanin_offsets = Vec::with_capacity(nodes.len() + 1);
        let mut local_fanins = Vec::new();
        let mut local_offsets = Vec::with_capacity(nodes.len() + 1);
        fanin_offsets.push(0u32);
        local_offsets.push(0u32);
        for &id in &nodes {
            let node = circuit.node(id);
            ctrl.push(match node.kind().controlling_value() {
                Some(false) => 0u8,
                Some(true) => 1,
                None => CTRL_NONE,
            });
            for &fi in node.fanins() {
                let s = slot[fi.index()];
                fanins.push(if s > 0 {
                    local_fanins.push(s - 1);
                    LOCAL | (s - 1)
                } else {
                    u32::try_from(fi.index()).unwrap_or_else(|_| unreachable!("node fits u32"))
                });
            }
            fanin_offsets
                .push(u32::try_from(fanins.len()).unwrap_or_else(|_| unreachable!("fits u32")));
            local_offsets
                .push(u32::try_from(local_fanins.len()).unwrap_or_else(|_| unreachable!("fits")));
        }

        // observation taps of any member plan, deduplicated by slot
        let mut taps: Vec<u32> = Vec::new();
        for plan in &plans[entries.clone()] {
            for &(_, driver) in plan.observers() {
                let s = slot[driver.index()];
                if s > 0 {
                    taps.push(s - 1);
                }
            }
        }
        taps.sort_unstable();
        taps.dedup();

        // seeds, in ascending fault order (by_gate preserves it)
        let mut seeds = Vec::new();
        for e in entries.clone() {
            let (gate, fault_ids) = &by_gate[e];
            let gate_slot = match slot[gate.index()] {
                0 => NO_SLOT,
                s => s - 1,
            };
            for &fidx in fault_ids {
                let fault = faults.fault(fastmon_faults::FaultId::from_index(fidx));
                let (site_signal, ctrl_val, blocker_range) = match fault.site {
                    PinRef::Output(n) => (n, CTRL_NONE, (0u32, 0u32)),
                    PinRef::Input(n, k) => {
                        let node = circuit.node(n);
                        let pin = node.fanins()[k as usize];
                        match node.kind().controlling_value() {
                            Some(c) => {
                                let lo = u32::try_from(blockers.len())
                                    .unwrap_or_else(|_| unreachable!("fits u32"));
                                blockers.extend(
                                    node.fanins()
                                        .iter()
                                        .enumerate()
                                        .filter(|&(j, _)| j != k as usize)
                                        .map(|(_, &fi)| fi),
                                );
                                let hi = u32::try_from(blockers.len())
                                    .unwrap_or_else(|_| unreachable!("fits u32"));
                                (pin, u8::from(c), (lo, hi))
                            }
                            None => (pin, CTRL_NONE, (0, 0)),
                        }
                    }
                };
                let bit = u8::try_from(seeds.len()).unwrap_or_else(|_| unreachable!("≤ 64 seeds"));
                seeds.push(ScreenSeed {
                    fault: u32::try_from(fidx).unwrap_or_else(|_| unreachable!("fits u32")),
                    gate_entry: u32::try_from(e).unwrap_or_else(|_| unreachable!("fits u32")),
                    bit,
                    gate_slot,
                    site_signal,
                    polarity: fault.polarity,
                    ctrl: ctrl_val,
                    blockers: blocker_range,
                });
            }
        }

        // clear the slot map for the next group
        for &id in &nodes {
            slot[id.index()] = 0;
        }

        ScreenGroup {
            seeds,
            nodes,
            ctrl,
            fanins,
            fanin_offsets,
            local_fanins,
            local_offsets,
            taps,
        }
    }

    /// The fault groups, in campaign (ascending fault) order.
    #[must_use]
    pub fn groups(&self) -> &[ScreenGroup] {
        &self.groups
    }

    /// Screens one group against a fault-free result: the returned word
    /// has bit `b` set iff the fault with bit `b` (see
    /// [`ScreenGroup::members`]) may produce a difference at an
    /// observation point and needs an exact cone walk.
    #[must_use]
    pub fn screen(
        &self,
        group: &ScreenGroup,
        base: &SimResult,
        scratch: &mut ScreenScratch,
        metrics: Option<&SimMetrics>,
    ) -> u64 {
        let metrics = match metrics {
            Some(m) => m,
            None => stats::global(),
        };

        // seed activation bits
        let mut activated = 0u64;
        scratch.seed_bits.clear();
        for seed in &group.seeds {
            if seed.gate_slot == NO_SLOT {
                continue;
            }
            if !has_polarity_transition(base.wave(seed.site_signal), seed.polarity) {
                continue;
            }
            if seed.ctrl != CTRL_NONE {
                let c = seed.ctrl == 1;
                let (lo, hi) = seed.blockers;
                let masked = self.blockers[lo as usize..hi as usize].iter().any(|&b| {
                    let w = base.wave(b);
                    w.is_constant() && w.initial() == c
                });
                if masked {
                    continue;
                }
            }
            activated |= 1 << seed.bit;
            scratch.seed_bits.push((seed.gate_slot, 1u64 << seed.bit));
        }
        metrics.screen_walks.incr();
        if activated == 0 {
            // no member fault toggles its site under this pattern
            metrics.faults_screened_out.add(group.seeds.len() as u64);
            return 0;
        }

        scratch.masks.clear();
        scratch.masks.resize(group.nodes.len(), 0);
        for &(slot, bit) in &scratch.seed_bits {
            scratch.masks[slot as usize] |= bit;
        }

        // levelized propagation over the union cone
        for i in 0..group.nodes.len() {
            // the hot gather only reads in-union fanins — external ones
            // always carry a zero mask
            let llo = group.local_offsets[i] as usize;
            let lhi = group.local_offsets[i + 1] as usize;
            let mut any = 0u64;
            for &s in &group.local_fanins[llo..lhi] {
                any |= scratch.masks[s as usize];
            }
            if any == 0 {
                continue;
            }
            let out = match group.ctrl[i] {
                CTRL_NONE => any,
                c => {
                    let lo = group.fanin_offsets[i] as usize;
                    let hi = group.fanin_offsets[i + 1] as usize;
                    scratch.fanin_masks.clear();
                    for &fref in &group.fanins[lo..hi] {
                        scratch.fanin_masks.push(if fref & LOCAL != 0 {
                            scratch.masks[(fref & !LOCAL) as usize]
                        } else {
                            0
                        });
                    }
                    // constant-at-controlling side inputs block fanins the
                    // fault cannot also reach
                    let c = c == 1;
                    scratch.fanin_ctrl.clear();
                    for &fref in &group.fanins[lo..hi] {
                        let id = if fref & LOCAL != 0 {
                            group.nodes[(fref & !LOCAL) as usize]
                        } else {
                            NodeId::from_index(fref as usize)
                        };
                        let w = base.wave(id);
                        scratch.fanin_ctrl.push(w.is_constant() && w.initial() == c);
                    }
                    let mut out = 0u64;
                    for (j, &mj) in scratch.fanin_masks.iter().enumerate() {
                        if mj == 0 {
                            continue;
                        }
                        let mut blocked = 0u64;
                        for (k, &ck) in scratch.fanin_ctrl.iter().enumerate() {
                            if ck && k != j {
                                blocked |= !scratch.fanin_masks[k];
                            }
                        }
                        out |= mj & !blocked;
                    }
                    out
                }
            };
            scratch.masks[i] |= out;
        }

        let mut detected = 0u64;
        for &t in &group.taps {
            detected |= scratch.masks[t as usize];
        }

        metrics.screen_nodes_visited.add(group.nodes.len() as u64);
        metrics
            .faults_screened_out
            .add(group.seeds.len() as u64 - u64::from(detected.count_ones()));
        detected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConeScratch, SimEngine, Stimulus, Waveform};
    use fastmon_faults::FaultList;
    use fastmon_netlist::generate::GeneratorConfig;
    use fastmon_netlist::library;
    use fastmon_timing::{DelayAnnotation, DelayModel};

    #[test]
    fn polarity_transition_check() {
        let w = Waveform::with_transitions(false, vec![1.0]); // rising only
        assert!(has_polarity_transition(w.view(), Polarity::SlowToRise));
        assert!(!has_polarity_transition(w.view(), Polarity::SlowToFall));
        let w = Waveform::with_transitions(false, vec![1.0, 2.0]); // rise+fall
        assert!(has_polarity_transition(w.view(), Polarity::SlowToFall));
        assert!(!has_polarity_transition(
            Waveform::constant(true).view(),
            Polarity::SlowToRise
        ));
    }

    /// The screen must never clear a bit whose exact walk finds a
    /// difference (no false negatives) — checked exhaustively on two
    /// circuits across several stimuli.
    fn assert_screen_is_sound(circuit: &Circuit) {
        let annot = DelayAnnotation::nominal(circuit, &DelayModel::nangate45_like());
        let engine = SimEngine::new(circuit, &annot);
        let faults = FaultList::sized(circuit, |_| 3.0);
        let mut by_gate: Vec<(NodeId, Vec<usize>)> = Vec::new();
        for (fid, fault) in faults.iter() {
            let gate = fault.site.node();
            match by_gate.last_mut() {
                Some((g, list)) if *g == gate => list.push(fid.index()),
                _ => by_gate.push((gate, vec![fid.index()])),
            }
        }
        let plans: Vec<ConePlan> = by_gate
            .iter()
            .map(|&(g, _)| ConePlan::new(circuit, g))
            .collect();
        let screen = FaultScreen::build(circuit, &faults, &by_gate, &plans);
        let total: usize = screen.groups().iter().map(ScreenGroup::len).sum();
        assert_eq!(
            total,
            faults.len(),
            "every fault lands in exactly one group"
        );

        let mut scratch = ScreenScratch::new();
        let mut cone_scratch = ConeScratch::new(circuit);
        let mut screened = 0u64;
        for seed in 0..6u64 {
            let stim = Stimulus::from_fn(circuit, |id| {
                (
                    (id.index() as u64 + seed).is_multiple_of(3),
                    (id.index() as u64 + seed).is_multiple_of(2),
                )
            });
            let base = engine.simulate(&stim);
            for group in screen.groups() {
                let word = screen.screen(group, &base, &mut scratch, None);
                for (fidx, entry, bit) in group.members() {
                    let fault = faults.fault(fastmon_faults::FaultId::from_index(fidx));
                    let diffs = engine.response_diff_planned(
                        &base,
                        fault,
                        &plans[entry],
                        &mut cone_scratch,
                        1e6,
                    );
                    if word & (1 << bit) == 0 {
                        assert!(
                            diffs.is_empty(),
                            "screen dropped a detectable fault: {fault} stim {seed}"
                        );
                        screened += 1;
                    }
                }
            }
        }
        assert!(screened > 0, "the screen never fired — test is vacuous");
    }

    #[test]
    fn screen_is_sound_on_s27() {
        assert_screen_is_sound(&library::s27());
    }

    #[test]
    fn screen_is_sound_on_a_synthetic_circuit() {
        let c = GeneratorConfig::new("scr")
            .gates(300)
            .flip_flops(16)
            .inputs(10)
            .outputs(5)
            .depth(10)
            .generate(11)
            .unwrap();
        assert_screen_is_sound(&c);
    }

    #[test]
    fn screen_counters_move() {
        let c = library::s27();
        let annot = DelayAnnotation::nominal(&c, &DelayModel::unit());
        let engine = SimEngine::new(&c, &annot);
        let faults = FaultList::sized(&c, |_| 1.0);
        let mut by_gate: Vec<(NodeId, Vec<usize>)> = Vec::new();
        for (fid, fault) in faults.iter() {
            let gate = fault.site.node();
            match by_gate.last_mut() {
                Some((g, list)) if *g == gate => list.push(fid.index()),
                _ => by_gate.push((gate, vec![fid.index()])),
            }
        }
        let plans: Vec<ConePlan> = by_gate.iter().map(|&(g, _)| ConePlan::new(&c, g)).collect();
        let screen = FaultScreen::build(&c, &faults, &by_gate, &plans);
        let metrics = SimMetrics::new();
        let stim = Stimulus::from_fn(&c, |id| (id.index() % 2 == 0, id.index() % 3 == 0));
        let base = engine.simulate(&stim);
        let mut scratch = ScreenScratch::new();
        for group in screen.groups() {
            let _ = screen.screen(group, &base, &mut scratch, Some(&metrics));
        }
        assert_eq!(metrics.screen_walks.get(), screen.groups().len() as u64);
        assert!(metrics.screen_nodes_visited.get() > 0);
    }
}
