//! Deterministic synthetic full-scan circuit generation.
//!
//! The paper evaluates on ISCAS'89 and proprietary industrial circuits
//! synthesized to the NanGate 45 nm library. The industrial netlists are not
//! available and the large ISCAS'89 netlists are not redistributable here, so
//! this module generates *synthetic stand-ins*: random full-scan circuits
//! whose gate count, flip-flop count, logic depth and output structure match
//! a [`CircuitProfile`]. The [`paper_suite`] function returns profiles for
//! all twelve circuits of Table I of the paper.
//!
//! Generation is fully deterministic in the seed, so experiments are
//! reproducible.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), fastmon_netlist::NetlistError> {
//! use fastmon_netlist::generate::{CircuitProfile, GeneratorConfig};
//!
//! let profile = CircuitProfile::named("s9234").expect("known profile");
//! let small = profile.scaled(0.05); // 5 % size for a quick experiment
//! let circuit = small.generate(42)?;
//! assert!(circuit.flip_flops().len() >= 8);
//!
//! // or configure everything by hand
//! let config = GeneratorConfig::new("demo")
//!     .inputs(8)
//!     .outputs(4)
//!     .flip_flops(16)
//!     .gates(200)
//!     .depth(12)
//!     .xor_fraction(0.05);
//! let c = config.generate(7)?;
//! assert_eq!(c.inputs().len(), 8);
//! # Ok(())
//! # }
//! ```

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use crate::{Circuit, CircuitBuilder, GateKind, NetlistError, NodeId};

/// Configuration of the synthetic circuit generator.
///
/// Built with a fluent interface; see the [module docs](self) for an
/// example.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    name: String,
    inputs: usize,
    outputs: usize,
    flip_flops: usize,
    gates: usize,
    depth: u32,
    xor_fraction: f64,
    wide_fraction: f64,
    shallow_fraction: f64,
}

impl GeneratorConfig {
    /// Creates a config with small defaults (8 inputs, 4 outputs,
    /// 8 flip-flops, 100 gates, depth 10).
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        GeneratorConfig {
            name: name.into(),
            inputs: 8,
            outputs: 4,
            flip_flops: 8,
            gates: 100,
            depth: 10,
            xor_fraction: 0.06,
            wide_fraction: 0.25,
            shallow_fraction: 0.25,
        }
    }

    /// Number of primary inputs (≥ 1).
    #[must_use]
    pub fn inputs(mut self, n: usize) -> Self {
        self.inputs = n;
        self
    }

    /// Number of primary outputs (≥ 1).
    #[must_use]
    pub fn outputs(mut self, n: usize) -> Self {
        self.outputs = n;
        self
    }

    /// Number of scan flip-flops.
    #[must_use]
    pub fn flip_flops(mut self, n: usize) -> Self {
        self.flip_flops = n;
        self
    }

    /// Number of combinational gates (≥ depth).
    #[must_use]
    pub fn gates(mut self, n: usize) -> Self {
        self.gates = n;
        self
    }

    /// Approximate logic depth (levels of combinational logic, ≥ 1).
    #[must_use]
    pub fn depth(mut self, d: u32) -> Self {
        self.depth = d;
        self
    }

    /// Fraction of XOR/XNOR gates (default 0.06).
    #[must_use]
    pub fn xor_fraction(mut self, f: f64) -> Self {
        self.xor_fraction = f;
        self
    }

    /// Fraction of 3-input gates among AND/OR/NAND/NOR (default 0.25).
    #[must_use]
    pub fn wide_fraction(mut self, f: f64) -> Self {
        self.wide_fraction = f;
        self
    }

    /// Fraction of gates placed in *shallow capture trees* (default 0.25).
    ///
    /// Real register-dominated designs contain large amounts of shallow
    /// logic — enables, status bits, state machines — that reach a
    /// flip-flop within a few gate delays while the same flip-flop also
    /// terminates deep paths. Fault effects in these trees die long before
    /// `t_min = t_nom/3` and are invisible to conventional FAST, but
    /// because their capture point also ends long paths it receives a
    /// monitor, whose delay element shifts the effects into the observable
    /// window. This knob controls how much of the circuit has that
    /// character and thereby the monitor coverage gain (paper Table I:
    /// +3.6 % for flat designs up to +190 % for register-dominated ones).
    #[must_use]
    pub fn shallow_capture_fraction(mut self, f: f64) -> Self {
        self.shallow_fraction = f;
        self
    }

    /// Generates a circuit, deterministically in `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadGeneratorConfig`] for degenerate
    /// configurations (no inputs, no observation points, fewer gates than
    /// levels).
    pub fn generate(&self, seed: u64) -> Result<Circuit, NetlistError> {
        self.validate()?;
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xfa57_0000_0000_0000);
        let mut builder = CircuitBuilder::new(self.name.clone());

        // --- sources -----------------------------------------------------
        let mut by_level: Vec<Vec<String>> = vec![Vec::new()];
        for i in 0..self.inputs {
            let name = format!("pi{i}");
            builder.add(&name, GateKind::Input, &[]);
            by_level[0].push(name);
        }
        for i in 0..self.flip_flops {
            let name = format!("ff{i}");
            // D fanin is patched in later; reference a placeholder that is
            // resolved at the end (builder resolves names lazily).
            by_level[0].push(name);
        }

        // --- gate budget: main logic vs shallow capture trees --------------
        let depth = self.depth as usize;
        let shallow_budget = if self.flip_flops == 0 {
            0
        } else {
            (((self.gates as f64) * self.shallow_fraction).round() as usize)
                .min(self.gates.saturating_sub(depth))
        };
        // Concentrate the budget on few capture points: monitors cover the
        // top ~25 % of observation points by arrival, so keeping the tree
        // count below ~20 % of all observation points ensures every tree's
        // capture gate (which also ends a critical path) gets a monitor.
        let num_trees = if shallow_budget == 0 {
            0
        } else {
            (((self.flip_flops + self.outputs) as f64 * 0.2).floor() as usize)
                .clamp(1, self.flip_flops)
                .min(shallow_budget)
        };
        let main_gates = self.gates - shallow_budget;

        // --- gate level allocation ----------------------------------------
        // Triangle-ish level widths: wide in the middle, at least one gate
        // per level so the depth target is met.
        let mut width = vec![1usize; depth];
        let mut remaining = main_gates - depth;
        let weights: Vec<f64> = (0..depth)
            .map(|l| {
                let x = (l as f64 + 0.5) / depth as f64;
                0.25 + (x * std::f64::consts::PI).sin()
            })
            .collect();
        let wsum: f64 = weights.iter().sum();
        for (l, w) in weights.iter().enumerate() {
            let extra = ((main_gates - depth) as f64 * w / wsum).floor() as usize;
            let extra = extra.min(remaining);
            width[l] += extra;
            remaining -= extra;
        }
        // distribute leftovers round-robin
        let mut l = 0;
        while remaining > 0 {
            width[l % depth] += 1;
            remaining -= 1;
            l += 1;
        }

        // --- gates ---------------------------------------------------------
        // `unused` holds (level, name) of nodes not yet referenced by any
        // fanin; preferring them keeps the circuit free of dangling logic.
        let mut unused: Vec<(usize, String)> =
            by_level[0].iter().map(|n| (0usize, n.clone())).collect();
        let mut gate_meta: Vec<(String, GateKind, Vec<String>)> = Vec::with_capacity(self.gates);
        let mut gate_idx = 0usize;
        for level in 1..=depth {
            let mut this_level = Vec::with_capacity(width[level - 1]);
            for _ in 0..width[level - 1] {
                let name = format!("g{gate_idx}");
                gate_idx += 1;
                let kind = self.sample_kind(&mut rng);
                let arity = self.sample_arity(kind, &mut rng);
                let mut fanins = Vec::with_capacity(arity);
                // primary fanin from the previous level keeps the level chain
                let prev = &by_level[level - 1];
                fanins.push(prev[rng.gen_range(0..prev.len())].clone());
                for _ in 1..arity {
                    fanins.push(self.pick_fanin(level, &by_level, &mut unused, &mut rng));
                }
                gate_meta.push((name.clone(), kind, fanins));
                unused.push((level, name.clone()));
                this_level.push(name);
            }
            by_level.push(this_level);
        }

        // --- shallow capture trees ------------------------------------------
        // A share of the flip-flops captures through a dedicated shallow
        // tree over sources, merged with one deep signal in the final
        // capture gate (see `shallow_capture_fraction`).
        let mut ff_drivers = Vec::with_capacity(self.flip_flops);
        let mut budget = shallow_budget;
        // deep signals come from the top level so the capture gate ends the
        // longest paths and is all but certain to receive a monitor
        let deep_pool: Vec<String> = by_level[depth].clone();
        // Mixed-kind trees with some XOR (parity/status logic propagates
        // transitions unconditionally). Subtrees are kept at most three
        // levels deep so their capture-path arrival stays well below
        // t_min = t_nom/3 — the defining property of a shallow cone.
        let tree_kinds = [
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ];
        let mut ff_index = 0usize;
        while budget > 0 && ff_index < num_trees {
            // spread the budget evenly over the trees so it is consumed
            // exactly
            let remaining_trees = num_trees - ff_index;
            let size = budget.div_ceil(remaining_trees).max(1).min(budget);
            // `size` gates per slot: 1 wide capture gate + several flat
            // subtrees of at most 6 gates (7 leaves, depth ≤ 3)
            let subtree_gates = size.saturating_sub(1);
            let mut roots: Vec<String> = Vec::new();
            let mut left = subtree_gates;
            let mut j = 0usize;
            // Subtrees may grow up to ~depth/4 levels: arrivals then spread
            // over (0, t_min), and faults arriving just below t_min gain
            // islands from *all four* monitor delay elements — the range
            // diversity that lets few FAST frequencies cover many shallow
            // faults (and that keeps the cones out of the window itself).
            let max_chunk = (1usize << (depth / 4).clamp(2, 5)) - 1;
            while left > 0 {
                let chunk = rng.gen_range(1..=max_chunk).min(left);
                let chunk = if left - chunk == 1 { chunk + 1 } else { chunk };
                left -= chunk;
                // balanced reduction of chunk+1 source leaves via `chunk`
                // two-input gates
                let mut frontier: std::collections::VecDeque<String> = (0..=chunk)
                    .map(|_| by_level[0][rng.gen_range(0..by_level[0].len())].clone())
                    .collect();
                while frontier.len() > 1 {
                    let (Some(a), Some(b)) = (frontier.pop_front(), frontier.pop_front()) else {
                        break;
                    };
                    let name = format!("sc{ff_index}_{j}");
                    j += 1;
                    let kind = tree_kinds[rng.gen_range(0..tree_kinds.len())];
                    gate_meta.push((name.clone(), kind, vec![a, b]));
                    frontier.push_back(name);
                }
                if let Some(root) = frontier.pop_front() {
                    roots.push(root);
                }
            }
            if roots.is_empty() {
                // degenerate slot (size 1): capture a source directly
                roots.push(by_level[0][rng.gen_range(0..by_level[0].len())].clone());
            }
            let deep = deep_pool[rng.gen_range(0..deep_pool.len())].clone();
            let cap_name = format!("sc{ff_index}_cap");
            // wide capture gates become parity collectors (XOR), which keep
            // propagating transitions regardless of side-input values;
            // narrow ones stay in the AND/OR class
            let kind = if roots.len() > 2 {
                GateKind::Xor
            } else {
                tree_kinds[rng.gen_range(0..4)]
            };
            let mut fanins = vec![deep];
            fanins.extend(roots);
            gate_meta.push((cap_name.clone(), kind, fanins));
            ff_drivers.push(cap_name);
            budget -= size;
            ff_index += 1;
        }

        // --- remaining flip-flop D pins and primary outputs -----------------
        // Capture points are spread over levels: half biased to the top
        // (long paths), half uniform (short paths too). This mirrors real
        // designs where registers terminate paths of very different length.
        for _ in ff_index..self.flip_flops {
            ff_drivers.push(self.pick_capture(&by_level, &mut unused, &mut rng));
        }
        let mut po_nets = Vec::with_capacity(self.outputs);
        for _ in 0..self.outputs {
            po_nets.push(self.pick_capture(&by_level, &mut unused, &mut rng));
        }

        for (i, d) in ff_drivers.iter().enumerate() {
            builder.add(format!("ff{i}"), GateKind::Dff, &[d.as_str()]);
        }
        for (name, kind, fanins) in &gate_meta {
            let refs: Vec<&str> = fanins.iter().map(String::as_str).collect();
            builder.add(name, *kind, &refs);
        }
        for po in &po_nets {
            builder.mark_output(po);
        }

        let circuit = builder.finish()?;
        prune_to_observed(circuit)
    }

    fn validate(&self) -> Result<(), NetlistError> {
        let fail = |message: &str| {
            Err(NetlistError::BadGeneratorConfig {
                message: message.to_owned(),
            })
        };
        if self.inputs == 0 && self.flip_flops == 0 {
            return fail("need at least one primary input or flip-flop");
        }
        if self.outputs == 0 && self.flip_flops == 0 {
            return fail("need at least one output or flip-flop");
        }
        if self.depth == 0 {
            return fail("depth must be at least 1");
        }
        if self.gates < self.depth as usize {
            return fail("need at least one gate per level (gates >= depth)");
        }
        if !(0.0..=1.0).contains(&self.xor_fraction) || !(0.0..=1.0).contains(&self.wide_fraction) {
            return fail("fractions must lie in [0, 1]");
        }
        Ok(())
    }

    fn sample_kind(&self, rng: &mut ChaCha8Rng) -> GateKind {
        let r: f64 = rng.gen();
        if r < self.xor_fraction {
            return if rng.gen() {
                GateKind::Xor
            } else {
                GateKind::Xnor
            };
        }
        // remaining mass over {NAND, NOR, AND, OR, NOT, BUF}
        match rng.gen_range(0..100u32) {
            0..=29 => GateKind::Nand,
            30..=49 => GateKind::Nor,
            50..=64 => GateKind::And,
            65..=79 => GateKind::Or,
            80..=92 => GateKind::Not,
            _ => GateKind::Buf,
        }
    }

    fn sample_arity(&self, kind: GateKind, rng: &mut ChaCha8Rng) -> usize {
        match kind {
            GateKind::Not | GateKind::Buf => 1,
            GateKind::Xor | GateKind::Xnor => 2,
            _ => {
                if rng.gen_bool(self.wide_fraction) {
                    3
                } else {
                    2
                }
            }
        }
    }

    /// Picks a fanin for a gate at `level`, preferring not-yet-used nodes.
    ///
    /// A fraction of fanins "jump" all the way down to an arbitrary lower
    /// level (often the sources). These jumps put *short* paths into the
    /// cones of deep capture points — the structure that makes short-path
    /// fault effects visible at long-path-end monitors, as in real designs
    /// where enables and status bits feed late logic directly.
    fn pick_fanin(
        &self,
        level: usize,
        by_level: &[Vec<String>],
        unused: &mut Vec<(usize, String)>,
        rng: &mut ChaCha8Rng,
    ) -> String {
        // A few tries to find an unused node below `level`.
        for _ in 0..4 {
            if unused.is_empty() {
                break;
            }
            let i = rng.gen_range(0..unused.len());
            if unused[i].0 < level {
                return unused.swap_remove(i).1;
            }
        }
        let src_level = if rng.gen_bool(0.2) {
            // long jump: uniform over all lower levels (level 0 included)
            rng.gen_range(0..level)
        } else {
            // local connection: geometrically recent level
            let mut l = level - 1;
            while l > 0 && rng.gen_bool(0.5) {
                l -= 1;
            }
            l
        };
        let pool = &by_level[src_level];
        pool[rng.gen_range(0..pool.len())].clone()
    }

    /// Picks a capture net (flip-flop D pin or primary output), spread over
    /// levels and preferring unused nets.
    fn pick_capture(
        &self,
        by_level: &[Vec<String>],
        unused: &mut Vec<(usize, String)>,
        rng: &mut ChaCha8Rng,
    ) -> String {
        let depth = by_level.len() - 1;
        // half top-biased, half uniform over gate levels
        let target_level = if rng.gen_bool(0.5) {
            depth - rng.gen_range(0..=(depth / 4))
        } else {
            rng.gen_range(1..=depth)
        };
        // prefer an unused gate near the target level
        for _ in 0..6 {
            if unused.is_empty() {
                break;
            }
            let i = rng.gen_range(0..unused.len());
            let (lvl, _) = &unused[i];
            if *lvl >= 1 && lvl.abs_diff(target_level) <= depth / 4 + 1 {
                return unused.swap_remove(i).1;
            }
        }
        let pool = &by_level[target_level];
        pool[rng.gen_range(0..pool.len())].clone()
    }
}

/// Marks gates that cannot reach any observation point as extra primary
/// outputs (rare with the used-biased fanin selection, but possible).
fn prune_to_observed(circuit: Circuit) -> Result<Circuit, NetlistError> {
    let dangling: Vec<NodeId> = circuit
        .node_ids()
        .filter(|&id| {
            !circuit.reaches_observe_point(id) && circuit.node(id).kind().is_combinational()
        })
        .collect();
    if dangling.is_empty() {
        return Ok(circuit);
    }
    // Rebuild with the dangling nets promoted to primary outputs.
    let mut b = CircuitBuilder::new(circuit.name().to_owned());
    for (_, node) in circuit.iter() {
        let fanins: Vec<&str> = node
            .fanins()
            .iter()
            .map(|&f| circuit.node(f).name())
            .collect();
        b.add(node.name(), node.kind(), &fanins);
    }
    for &po in circuit.outputs() {
        b.mark_output(circuit.node(po).name());
    }
    for id in dangling {
        // only promote cone tips (no combinational fanout at all)
        if circuit
            .fanouts(id)
            .iter()
            .all(|&fo| circuit.node(fo).kind().is_sequential())
        {
            b.mark_output(circuit.node(id).name());
        }
    }
    b.finish()
}

/// Size/shape profile of a benchmark circuit, used to generate a synthetic
/// stand-in of comparable statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitProfile {
    /// Circuit name (e.g. `"s9234"`).
    pub name: String,
    /// Number of combinational gates.
    pub gates: usize,
    /// Number of scan flip-flops.
    pub flip_flops: usize,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Approximate logic depth.
    pub depth: u32,
    /// Test-pattern budget reported by the paper for this circuit (|P| in
    /// Table I); experiments cap their generated pattern sets at this size.
    pub pattern_budget: usize,
    /// Shallow-capture gate fraction
    /// (see [`GeneratorConfig::shallow_capture_fraction`]); tuned per
    /// circuit to mirror the monitor coverage-gain spread of the paper's
    /// Table I.
    pub shallow_fraction: f64,
}

impl CircuitProfile {
    /// Looks up a profile of the paper's benchmark suite by name.
    ///
    /// Known names: `s9234`, `s13207`, `s15850`, `s35932`, `s38417`,
    /// `s38584`, `p35k`, `p45k`, `p78k`, `p89k`, `p100k`, `p141k`.
    #[must_use]
    pub fn named(name: &str) -> Option<CircuitProfile> {
        paper_suite().into_iter().find(|p| p.name == name)
    }

    /// Returns a copy scaled by `factor` in gate/flip-flop/output counts
    /// (pattern budget scales with the square root, mirroring how compacted
    /// pattern counts grow sublinearly with design size).
    ///
    /// Counts are clamped to small positive minima so even `factor = 0.01`
    /// yields a valid generator configuration.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> CircuitProfile {
        let scale = |n: usize, min: usize| ((n as f64 * factor).round() as usize).max(min);
        // Depth shrinks much slower than size: `t_min = t_nom/3` must stay
        // above the (fixed ≤ 4-level) shallow capture trees, or their fault
        // effects leak into the conventional FAST window and the monitor
        // gain of the original circuit is lost.
        let min_depth = self.depth.min(16);
        CircuitProfile {
            name: self.name.clone(),
            gates: scale(self.gates, 40),
            flip_flops: scale(self.flip_flops, 8),
            inputs: scale(self.inputs, 4),
            outputs: scale(self.outputs, 2),
            depth: ((f64::from(self.depth) * factor.sqrt()).round() as u32)
                .clamp(min_depth, self.depth),
            pattern_budget: ((self.pattern_budget as f64 * factor.sqrt()).round() as usize).max(8),
            ..self.clone()
        }
    }

    /// Generates the synthetic circuit for this profile.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError::BadGeneratorConfig`] for degenerate
    /// (over-scaled-down) profiles.
    pub fn generate(&self, seed: u64) -> Result<Circuit, NetlistError> {
        GeneratorConfig::new(self.name.clone())
            .inputs(self.inputs)
            .outputs(self.outputs)
            .flip_flops(self.flip_flops)
            .gates(self.gates.max(self.depth as usize))
            .depth(self.depth)
            .shallow_capture_fraction(self.shallow_fraction)
            .generate(seed)
    }
}

/// Profiles for the twelve circuits of Table I of the paper.
///
/// Gate and flip-flop counts are taken from the paper; input/output counts
/// for the industrial circuits are derived from the paper's monitor counts
/// (`|M| = 0.25 · (POs + FFs)` ⇒ `POs = 4·|M| − FFs`). Depths are plausible
/// synthesis depths growing slowly with size.
#[must_use]
pub fn paper_suite() -> Vec<CircuitProfile> {
    let mk = |name: &str, gates, ffs, pos: usize, patterns, depth, shallow| CircuitProfile {
        name: name.to_owned(),
        gates,
        flip_flops: ffs,
        inputs: pos.max(16),
        outputs: pos,
        depth,
        pattern_budget: patterns,
        shallow_fraction: shallow,
    };
    vec![
        mk("s9234", 1766, 228, 24, 155, 20, 0.09),
        mk("s13207", 2867, 669, 123, 195, 22, 0.53),
        mk("s15850", 3324, 597, 79, 134, 24, 0.56),
        mk("s35932", 11168, 1728, 324, 39, 12, 0.03),
        mk("s38417", 9796, 1636, 104, 128, 22, 0.19),
        mk("s38584", 12213, 1450, 254, 160, 24, 0.31),
        mk("p35k", 23294, 2173, 59, 1518, 30, 0.36),
        mk("p45k", 25406, 2331, 221, 2719, 28, 0.36),
        mk("p78k", 70495, 2977, 511, 70, 16, 0.03),
        mk("p89k", 58726, 4301, 259, 993, 32, 0.62),
        mk("p100k", 60767, 5735, 97, 2631, 32, 0.42),
        mk("p141k", 107655, 10501, 63, 824, 36, 0.30),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let cfg = GeneratorConfig::new("det").gates(150).depth(8);
        let a = cfg.clone().generate(1).unwrap();
        let b = cfg.clone().generate(1).unwrap();
        let c = cfg.generate(2).unwrap();
        assert_eq!(crate::bench::to_string(&a), crate::bench::to_string(&b));
        assert_ne!(crate::bench::to_string(&a), crate::bench::to_string(&c));
    }

    #[test]
    fn respects_counts() {
        let c = GeneratorConfig::new("counts")
            .inputs(10)
            .outputs(5)
            .flip_flops(12)
            .gates(300)
            .depth(15)
            .generate(3)
            .unwrap();
        assert_eq!(c.inputs().len(), 10);
        assert!(c.outputs().len() >= 5, "dangling promotion may add POs");
        assert_eq!(c.flip_flops().len(), 12);
        assert_eq!(c.combinational_nodes().count(), 300);
    }

    #[test]
    fn reaches_target_depth_roughly() {
        let c = GeneratorConfig::new("depth")
            .gates(400)
            .depth(20)
            .generate(5)
            .unwrap();
        assert!(
            c.max_level() >= 15,
            "max level {} too shallow",
            c.max_level()
        );
        // shallow-capture gates may add one level on top of the deep pool
        assert!(c.max_level() <= 22);
    }

    #[test]
    fn every_gate_reaches_an_observe_point() {
        let c = GeneratorConfig::new("observed")
            .gates(250)
            .depth(12)
            .generate(9)
            .unwrap();
        // reverse reachability from observe points must cover all gates
        let mut reaches = vec![false; c.len()];
        for op in c.observe_points() {
            reaches[op.driver.index()] = true;
        }
        for &id in c.topo_order().iter().rev() {
            if reaches[id.index()] {
                for &fi in c.node(id).fanins() {
                    reaches[fi.index()] = true;
                }
            }
        }
        for id in c.combinational_nodes() {
            assert!(
                reaches[id.index()],
                "gate {} unobservable",
                c.node(id).name()
            );
        }
    }

    #[test]
    fn capture_levels_are_spread() {
        // shallow capture trees disabled: this checks the spread of the
        // *plain* capture picker
        let c = GeneratorConfig::new("spread")
            .flip_flops(40)
            .gates(600)
            .depth(20)
            .shallow_capture_fraction(0.0)
            .generate(11)
            .unwrap();
        let levels: Vec<u32> = c
            .flip_flops()
            .iter()
            .map(|&ff| c.level(c.node(ff).fanins()[0]))
            .collect();
        let lo = levels.iter().filter(|&&l| l <= 7).count();
        let hi = levels.iter().filter(|&&l| l >= 14).count();
        assert!(lo >= 3, "want some short-path captures, got {lo}");
        assert!(hi >= 3, "want some long-path captures, got {hi}");
    }

    #[test]
    fn paper_suite_has_twelve() {
        let suite = paper_suite();
        assert_eq!(suite.len(), 12);
        assert!(CircuitProfile::named("p89k").is_some());
        assert!(CircuitProfile::named("nope").is_none());
    }

    #[test]
    fn scaled_profile_generates() {
        let p = CircuitProfile::named("s13207").unwrap().scaled(0.05);
        let c = p.generate(1).unwrap();
        assert!(c.combinational_nodes().count() >= 100);
        assert!(c.flip_flops().len() >= 8);
    }

    #[test]
    fn degenerate_config_rejected() {
        assert!(GeneratorConfig::new("x")
            .inputs(0)
            .flip_flops(0)
            .generate(0)
            .is_err());
        assert!(GeneratorConfig::new("x")
            .gates(5)
            .depth(10)
            .generate(0)
            .is_err());
        assert!(GeneratorConfig::new("x").depth(0).generate(0).is_err());
    }
}
