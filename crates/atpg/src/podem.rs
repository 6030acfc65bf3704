use fastmon_netlist::{Circuit, ConeMarks, GateKind, LevelQueue, NodeId};

use crate::logic5::{eval_gate5, V5};
use crate::TestSet;

/// A single stuck-at fault for PODEM: the output of `node` is stuck at
/// `stuck_at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StuckAtFault {
    /// The faulted gate output.
    pub node: NodeId,
    /// The stuck value.
    pub stuck_at: bool,
}

/// The result of a PODEM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodemOutcome {
    /// A test was found: per-source care bits in
    /// [`TestSet::source_order`] order (`None` = don't care).
    Test(Vec<Option<bool>>),
    /// The fault is proven untestable (search space exhausted).
    Untestable,
    /// The backtrack limit was hit before a decision.
    Aborted,
}

impl PodemOutcome {
    /// Returns the assignment if a test was found.
    #[must_use]
    pub fn test(self) -> Option<Vec<Option<bool>>> {
        match self {
            PodemOutcome::Test(t) => Some(t),
            _ => None,
        }
    }
}

/// Generates a vector that detects the stuck-at fault at an observation
/// point of the full-scan combinational core (classic PODEM with X-path
/// pruning).
///
/// # Example
///
/// ```
/// use fastmon_atpg::{podem, PodemOutcome, StuckAtFault};
/// use fastmon_netlist::library;
///
/// let circuit = library::c17();
/// let fault = StuckAtFault { node: circuit.find("N10").unwrap(), stuck_at: false };
/// let outcome = podem(&circuit, &fault, 1000);
/// assert!(matches!(outcome, PodemOutcome::Test(_)));
/// ```
#[must_use]
pub fn podem(circuit: &Circuit, fault: &StuckAtFault, max_backtracks: u32) -> PodemOutcome {
    PodemEngine::new(circuit).podem(fault, max_backtracks)
}

/// PODEM with an additional *side objective*: the returned vector detects
/// `fault` **and** justifies `side_value` at `side_node`.
///
/// Used by the broadside (launch-on-capture) generator, where the frame-2
/// stuck-at detection must coexist with the frame-1 launch value.
#[must_use]
pub fn podem_with_side_objective(
    circuit: &Circuit,
    fault: &StuckAtFault,
    side_node: NodeId,
    side_value: bool,
    max_backtracks: u32,
) -> PodemOutcome {
    PodemEngine::new(circuit).podem_with_side_objective(
        fault,
        side_node,
        side_value,
        max_backtracks,
    )
}

/// Generates a vector that justifies `value` at `node` (no fault
/// propagation) — used to build the launch vector of a transition test.
#[must_use]
pub fn justify(circuit: &Circuit, node: NodeId, value: bool, max_backtracks: u32) -> PodemOutcome {
    PodemEngine::new(circuit).justify(node, value, max_backtracks)
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Goal {
    /// Detect the fault; optionally also justify `(node, value)`.
    Detect(StuckAtFault, Option<(NodeId, bool)>),
    Justify(NodeId, bool),
}

impl Goal {
    fn fault(self) -> Option<StuckAtFault> {
        match self {
            Goal::Detect(f, _) => Some(f),
            Goal::Justify(..) => None,
        }
    }

    /// `(node, value)` pairs that must hold in the good machine for the
    /// goal to succeed: the justify target, or fault activation plus the
    /// optional side objective. Used by the static-learning preamble.
    fn requirements(self) -> [Option<(NodeId, bool)>; 2] {
        match self {
            Goal::Justify(node, value) => [Some((node, value)), None],
            Goal::Detect(fault, side) => [Some((fault.node, !fault.stuck_at)), side],
        }
    }
}

enum Tri {
    Success,
    Fail,
    Abort,
}

/// Evaluates one node of the 5-valued model from the current `values` /
/// `assignment` state, applying the fault injection when `id` is the
/// fault site. Gates read their fanins straight from `values`. Free
/// function so callers can hold disjoint field borrows.
#[inline]
fn eval_node(
    circuit: &Circuit,
    id: NodeId,
    values: &[V5],
    assignment: &[Option<bool>],
    source_pos: &[usize],
    fault: Option<StuckAtFault>,
) -> V5 {
    let v = match circuit.kind(id) {
        GateKind::Input | GateKind::Dff => match assignment[source_pos[id.index()]] {
            Some(b) => V5::from_bool(b),
            None => V5::X,
        },
        kind => eval_gate5(
            kind,
            circuit.fanins(id).iter().map(|&fi| values[fi.index()]),
        ),
    };
    match fault {
        Some(f) if f.node == id => v.with_faulty(f.stuck_at),
        _ => v,
    }
}

/// One from-scratch 5-valued evaluation of every node in topological
/// order: the fixed point that incremental implication must reach.
fn evaluate(
    circuit: &Circuit,
    assignment: &[Option<bool>],
    source_pos: &[usize],
    fault: Option<StuckAtFault>,
) -> Vec<V5> {
    let mut values = vec![V5::X; circuit.len()];
    for &id in circuit.topo_order() {
        values[id.index()] = eval_node(circuit, id, &values, assignment, source_pos, fault);
    }
    values
}

/// Cost ceiling for the SCOAP estimates: saturating "unreachable /
/// unjustifiable". Far below `u32::MAX` so sums of several INF terms
/// cannot wrap.
const INF_COST: u32 = u32::MAX / 4;

fn sat(a: u32, b: u32) -> u32 {
    a.saturating_add(b).min(INF_COST)
}

/// SCOAP-style testability estimates, computed once per circuit.
///
/// `cc0[n]` / `cc1[n]` approximate the number of source assignments needed
/// to justify 0 / 1 at node `n`; `co[n]` approximates the effort to
/// propagate a fault effect from `n` to an observation point. The search
/// uses them as *ordering heuristics only* — every choice remains exact and
/// deterministic, the costs just decide which branch is tried first.
struct Testability {
    cc0: Vec<u32>,
    cc1: Vec<u32>,
    co: Vec<u32>,
}

impl Testability {
    fn build(circuit: &Circuit) -> Self {
        let n = circuit.len();
        let mut cc0 = vec![INF_COST; n];
        let mut cc1 = vec![INF_COST; n];
        for &id in circuit.topo_order() {
            let node = circuit.node(id);
            let kind = node.kind();
            let fanins = node.fanins();
            let (c0, c1) = match kind {
                GateKind::Input | GateKind::Dff => (1, 1),
                GateKind::Const0 => (0, INF_COST),
                GateKind::Const1 => (INF_COST, 0),
                GateKind::Buf | GateKind::Not => {
                    let f = fanins[0].index();
                    (sat(cc0[f], 1), sat(cc1[f], 1))
                }
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    let c = kind
                        .controlling_value()
                        .unwrap_or_else(|| unreachable!("and/or class controlling value"));
                    // output == c: one controlling input suffices;
                    // output == !c: every input non-controlling
                    let easiest = fanins
                        .iter()
                        .map(|&f| if c { cc1[f.index()] } else { cc0[f.index()] })
                        .min()
                        .unwrap_or(INF_COST);
                    let all_non = fanins
                        .iter()
                        .map(|&f| if c { cc0[f.index()] } else { cc1[f.index()] })
                        .fold(0, sat);
                    if c {
                        (sat(all_non, 1), sat(easiest, 1))
                    } else {
                        (sat(easiest, 1), sat(all_non, 1))
                    }
                }
                GateKind::Xor | GateKind::Xnor => {
                    let first = fanins[0].index();
                    let (mut a0, mut a1) = (cc0[first], cc1[first]);
                    for &f in &fanins[1..] {
                        let (b0, b1) = (cc0[f.index()], cc1[f.index()]);
                        let n0 = sat(a0, b0).min(sat(a1, b1));
                        let n1 = sat(a0, b1).min(sat(a1, b0));
                        (a0, a1) = (n0, n1);
                    }
                    (sat(a0, 1), sat(a1, 1))
                }
            };
            let i = id.index();
            (cc0[i], cc1[i]) = if kind.is_inverting() {
                (c1, c0)
            } else {
                (c0, c1)
            };
        }

        let mut co = vec![INF_COST; n];
        for op in circuit.observe_points() {
            co[op.driver.index()] = 0;
        }
        for &id in circuit.topo_order().iter().rev() {
            let node = circuit.node(id);
            let kind = node.kind();
            if !kind.is_combinational() {
                continue;
            }
            let my = co[id.index()];
            if my >= INF_COST {
                continue;
            }
            let fanins = node.fanins();
            for (i, &fi) in fanins.iter().enumerate() {
                // side inputs must be held non-controlling (and/or class)
                // or at any binary value (xor class) to pass the effect
                let side: u32 = fanins
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &fj)| {
                        let j = fj.index();
                        match kind.controlling_value() {
                            Some(true) => cc0[j],
                            Some(false) => cc1[j],
                            None => cc0[j].min(cc1[j]),
                        }
                    })
                    .fold(0, sat);
                let cost = sat(sat(my, side), 1);
                let f = fi.index();
                co[f] = co[f].min(cost);
            }
        }
        Testability { cc0, cc1, co }
    }

    /// Controllability of `value` at node index `i`.
    fn cc(&self, i: usize, value: bool) -> u32 {
        if value {
            self.cc1[i]
        } else {
            self.cc0[i]
        }
    }
}

/// Upper bound on stored implications; beyond it the pass keeps the
/// (cheap, O(nodes)) constants but stops growing the reverse index.
const LEARN_CAP: usize = 4_000_000;

/// Static learned implications, computed once per circuit by ternary
/// forward simulation.
///
/// For every source `s` and value `v`, one cone-bounded 3-valued sweep with
/// only `s = v` assigned records each node that settles to a binary value
/// `b` as the implication `(s = v) ⇒ (n = b)`. Nodes forced to the *same*
/// value by both polarities of some source (or binary under the all-X
/// baseline) are constants. The implications are consulted before a search
/// starts: a target value contradicting a constant (or forbidden by both
/// values of one source) is `Untestable` with zero backtracks, and a source
/// value that would force the target to the wrong value yields a necessary
/// pre-assignment of the opposite value.
///
/// Soundness: ternary simulation is monotone — a node binary under a
/// partial assignment keeps that value under every completion — so every
/// recorded implication (and hence every constant, contradiction and
/// necessity) holds for all full assignments.
struct Learned {
    constant: Vec<Option<bool>>,
    /// node index → `(source position, source value, implied node value)`.
    implications: Vec<Vec<(u32, bool, bool)>>,
}

impl Learned {
    /// `baseline` is the all-X, fault-free evaluation of `circuit`.
    fn build(
        circuit: &Circuit,
        sources: &[NodeId],
        source_pos: &[usize],
        baseline: &[V5],
        marks: &mut ConeMarks,
    ) -> Self {
        let n = circuit.len();
        let mut values = baseline.to_vec();
        let mut assignment: Vec<Option<bool>> = vec![None; sources.len()];
        let as_binary = |v: V5| if v.is_binary() { v.good() } else { None };
        let mut constant: Vec<Option<bool>> = values.iter().map(|&v| as_binary(v)).collect();

        let mut implications: Vec<Vec<(u32, bool, bool)>> = vec![Vec::new(); n];
        let mut total = 0usize;
        // node → value implied by `s = false`, valid for the current source
        let mut low_pass: Vec<Option<bool>> = vec![None; n];
        let mut cone: Vec<NodeId> = Vec::new();
        for (k, &s) in sources.iter().enumerate() {
            circuit.fanout_cone_into(s, marks, &mut cone);
            for v in [false, true] {
                assignment[k] = Some(v);
                for &id in cone.iter() {
                    values[id.index()] =
                        eval_node(circuit, id, &values, &assignment, source_pos, None);
                }
                for &id in cone.iter() {
                    let i = id.index();
                    if constant[i].is_some() {
                        continue;
                    }
                    let b = as_binary(values[i]);
                    if !v {
                        low_pass[i] = b;
                    } else if let (Some(b1), Some(b0)) = (b, low_pass[i]) {
                        if b0 == b1 {
                            // forced either way: the node is constant
                            constant[i] = Some(b1);
                        }
                    }
                    if let Some(b) = b {
                        if total < LEARN_CAP {
                            let k = u32::try_from(k)
                                .unwrap_or_else(|_| unreachable!("source count fits u32"));
                            implications[i].push((k, v, b));
                            total += 1;
                        }
                    }
                }
                assignment[k] = None;
                for &id in cone.iter() {
                    values[id.index()] = baseline[id.index()];
                }
            }
            for &id in cone.iter() {
                low_pass[id.index()] = None;
            }
        }
        Learned {
            constant,
            implications,
        }
    }
}

/// What one PODEM run did, in the units of [`fastmon_obs::AtpgMetrics`].
/// A run returns it instead of recording it, so a caller that runs
/// searches ahead of need records only the runs whose outcome it keeps.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunTally {
    backtracks: u32,
    implications: u64,
    necessities: u64,
    learned_untestable: bool,
    aborted: bool,
}

impl RunTally {
    /// Records this run as one PODEM call.
    pub(crate) fn record(self, m: &fastmon_obs::AtpgMetrics) {
        m.podem_calls.incr();
        m.podem_backtracks.add(u64::from(self.backtracks));
        m.podem_implications.add(self.implications);
        m.podem_necessity_assignments.add(self.necessities);
        if self.learned_untestable {
            m.podem_learned_untestable.incr();
        }
        if self.aborted {
            m.podem_aborts.incr();
        }
    }
}

/// The read-only half of PODEM: everything built once per circuit and
/// only read by a search — the source order, the fault-free all-X
/// baseline, the [testability](Testability) costs, the
/// [learned](Learned) implications and the observation-point drivers.
/// One analysis serves any number of [`PodemSearch`]es, on any thread.
pub(crate) struct PodemAnalysis<'c> {
    circuit: &'c Circuit,
    sources: Vec<NodeId>,
    source_pos: Vec<usize>,
    /// The evaluation under the empty assignment and no fault.
    baseline: Vec<V5>,
    testability: Testability,
    learned: Learned,
    /// Observation-point drivers, for the dynamic D-frontier filter.
    op_driver: Vec<bool>,
}

impl<'c> PodemAnalysis<'c> {
    pub(crate) fn new(circuit: &'c Circuit) -> Self {
        let sources = TestSet::source_order(circuit);
        let mut source_pos = vec![usize::MAX; circuit.len()];
        for (k, &s) in sources.iter().enumerate() {
            source_pos[s.index()] = k;
        }
        let baseline = evaluate(circuit, &vec![None; sources.len()], &source_pos, None);
        let learned = Learned::build(
            circuit,
            &sources,
            &source_pos,
            &baseline,
            &mut ConeMarks::new(),
        );
        let mut op_driver = vec![false; circuit.len()];
        for op in circuit.observe_points() {
            op_driver[op.driver.index()] = true;
        }
        PodemAnalysis {
            circuit,
            sources,
            source_pos,
            baseline,
            testability: Testability::build(circuit),
            learned,
            op_driver,
        }
    }
}

/// The mutable half of PODEM: one search's buffers, reused across runs.
///
/// The three inner loops of the search are **bounded**:
///
/// * forward implication is event-driven (selective trace): a gate is
///   re-evaluated only when one of its fanins changed value, level by
///   level, and a run starts from the analysis's all-X baseline instead of
///   a whole-circuit pass;
/// * the D-frontier scan and the X-path check walk the fault site's
///   cached combinational fanout cone instead of the whole circuit (fault
///   effects cannot exist elsewhere).
///
/// Every bound is exact — implication reaches the same unique fixed point
/// as a full topological sweep, and the restricted walks visit the same
/// candidates in the same (topological) order as the original
/// whole-circuit walks. A run resets the assignment and the values before
/// it starts, and the cached cones only bound walks, so an outcome depends
/// on the goal and the backtrack limit alone: not on earlier runs, and not
/// on which search ran it.
pub(crate) struct PodemSearch {
    /// Always the evaluation of `assignment` under the current goal's
    /// fault, once `queue` is drained.
    values: Vec<V5>,
    assignment: Vec<Option<bool>>,
    /// Pending gate evaluations of the event-driven implication.
    queue: LevelQueue,
    /// The level being implied.
    level: Vec<NodeId>,
    /// Gate evaluations done by implication in the current run.
    implications: u64,
    reach: Vec<bool>,
    /// Combinational fanout cones of fault sites (D-frontier scan and
    /// X-path check), lazily built and reused across runs.
    cones: Vec<Option<Box<[NodeId]>>>,
    /// Scratch for the reverse can-reach-an-OP-through-X sweep; false
    /// outside an `objective` call.
    xreach: Vec<bool>,
    /// Shared mark scratch for the lazy cone builds.
    cone_marks: ConeMarks,
    /// Shared cone buffer for the lazy cone builds.
    cone_buf: Vec<NodeId>,
    backtracks_left: u32,
}

impl PodemSearch {
    pub(crate) fn new(analysis: &PodemAnalysis<'_>) -> Self {
        let n = analysis.circuit.len();
        PodemSearch {
            values: analysis.baseline.clone(),
            assignment: vec![None; analysis.sources.len()],
            queue: LevelQueue::new(),
            level: Vec::new(),
            implications: 0,
            reach: vec![false; n],
            cones: vec![None; n],
            xreach: vec![false; n],
            cone_marks: ConeMarks::new(),
            cone_buf: Vec::new(),
            backtracks_left: 0,
        }
    }

    /// Runs PODEM for `goal` over `a`, the analysis this search was built
    /// from.
    pub(crate) fn run(
        &mut self,
        a: &PodemAnalysis<'_>,
        goal: Goal,
        max_backtracks: u32,
    ) -> (PodemOutcome, RunTally) {
        self.assignment.fill(None);
        self.values.copy_from_slice(&a.baseline);
        self.backtracks_left = max_backtracks;
        self.implications = 0;
        if let Some(f) = goal.fault() {
            self.ensure_cone(a.circuit, f.node);
            self.queue.push(a.circuit, f.node);
        }
        let (contradiction, necessities) = self.apply_learned(a, goal);
        self.propagate(a, goal.fault());
        let outcome = if contradiction {
            PodemOutcome::Untestable
        } else {
            match self.search(a, goal) {
                Tri::Success => PodemOutcome::Test(self.assignment.clone()),
                Tri::Fail => PodemOutcome::Untestable,
                Tri::Abort => PodemOutcome::Aborted,
            }
        };
        let tally = RunTally {
            backtracks: max_backtracks - self.backtracks_left,
            implications: self.implications,
            necessities,
            learned_untestable: contradiction,
            aborted: matches!(outcome, PodemOutcome::Aborted),
        };
        (outcome, tally)
    }

    /// The static-learning preamble: checks every goal requirement against
    /// learned constants and implications. Returns `(true, _)` when some
    /// requirement is provably unsatisfiable (the goal is `Untestable`
    /// without any search); otherwise pre-assigns each source whose value
    /// would force a requirement to the wrong constant — those assignments
    /// are *necessary*, so exhausting the remaining space still proves
    /// untestability. Every pre-assigned source is queued for implication.
    fn apply_learned(&mut self, a: &PodemAnalysis<'_>, goal: Goal) -> (bool, u64) {
        let mut necessities = 0u64;
        for (node, value) in goal.requirements().into_iter().flatten() {
            let i = node.index();
            if let Some(c) = a.learned.constant[i] {
                if c != value {
                    return (true, necessities);
                }
                continue;
            }
            for &(k, source_value, implied) in &a.learned.implications[i] {
                if implied == value {
                    continue;
                }
                // `source = source_value` forces the wrong value here, so
                // the opposite source value is necessary
                let need = !source_value;
                match self.assignment[k as usize] {
                    Some(prev) if prev != need => return (true, necessities),
                    Some(_) => {}
                    None => {
                        self.assignment[k as usize] = Some(need);
                        self.queue.push(a.circuit, a.sources[k as usize]);
                        necessities += 1;
                    }
                }
            }
        }
        (false, necessities)
    }

    /// Caches the combinational fanout cone of a fault site.
    fn ensure_cone(&mut self, circuit: &Circuit, node: NodeId) {
        let idx = node.index();
        if self.cones[idx].is_none() {
            circuit.fanout_cone_into(node, &mut self.cone_marks, &mut self.cone_buf);
            self.cones[idx] = Some(self.cone_buf.as_slice().into());
        }
    }

    /// Event-driven forward implication: drains the queue in level order,
    /// re-evaluating each queued node and queueing the combinational
    /// fanouts of every node whose value changed. Nodes that are not queued
    /// keep their value, so `values` settles on the same fixed point as a
    /// whole-circuit sweep.
    fn propagate(&mut self, a: &PodemAnalysis<'_>, fault: Option<StuckAtFault>) {
        let circuit = a.circuit;
        while self.queue.pop_level(&mut self.level) {
            self.implications += self.level.len() as u64;
            for &id in &self.level {
                let i = id.index();
                let v = eval_node(
                    circuit,
                    id,
                    &self.values,
                    &self.assignment,
                    &a.source_pos,
                    fault,
                );
                if v != self.values[i] {
                    self.values[i] = v;
                    for &fo in circuit.fanouts(id) {
                        if circuit.kind(fo).is_combinational() {
                            self.queue.push(circuit, fo);
                        }
                    }
                }
            }
        }
    }

    /// Sets source `k` to `value` and implies the change forward.
    fn assign(
        &mut self,
        a: &PodemAnalysis<'_>,
        k: usize,
        value: Option<bool>,
        fault: Option<StuckAtFault>,
    ) {
        self.assignment[k] = value;
        self.queue.push(a.circuit, a.sources[k]);
        self.propagate(a, fault);
    }

    fn success(&self, a: &PodemAnalysis<'_>, goal: Goal) -> bool {
        match goal {
            Goal::Justify(node, value) => self.values[node.index()] == V5::from_bool(value),
            Goal::Detect(_, side) => {
                let side_ok = side
                    .is_none_or(|(node, value)| self.values[node.index()].good() == Some(value));
                side_ok
                    && a.circuit
                        .observe_points()
                        .iter()
                        .any(|op| self.values[op.driver.index()].is_fault_effect())
            }
        }
    }

    /// Returns `true` when the current partial assignment can no longer
    /// lead to success.
    fn hopeless(&mut self, a: &PodemAnalysis<'_>, goal: Goal) -> bool {
        match goal {
            Goal::Justify(node, value) => {
                let v = self.values[node.index()];
                v.is_binary() && v != V5::from_bool(value)
            }
            Goal::Detect(fault, side) => {
                if let Some((node, value)) = side {
                    // launch value fixed to the wrong polarity: dead branch
                    let v = self.values[node.index()];
                    if v.good().is_some_and(|g| g != value) {
                        return true;
                    }
                }
                let at_site = self.values[fault.node.index()];
                if at_site.is_binary() {
                    return true; // good == stuck: can never activate
                }
                if at_site.is_fault_effect() {
                    // activated: need an X-path from the frontier
                    !self.x_path_exists(a.circuit, fault)
                } else {
                    false // site still X: activation pending
                }
            }
        }
    }

    /// Whether some fault effect can still reach an observation point
    /// through X-valued logic. Walks the fault site's cached
    /// combinational fanout cone instead of the whole circuit — fault
    /// effects and their X-paths live inside it — using (and then
    /// clearing) the persistent `reach` scratch. A path could leave the
    /// cone only through a flip-flop's D pin, whose driver is an
    /// observation point: the path ends there, inside the cone.
    fn x_path_exists(&mut self, circuit: &Circuit, fault: StuckAtFault) -> bool {
        let cone = self.cones[fault.node.index()].as_deref().unwrap_or(&[]);
        for &id in cone {
            let v = self.values[id.index()];
            let mark = if v.is_fault_effect() {
                true
            } else if v == V5::X {
                circuit.fanins(id).iter().any(|&fi| self.reach[fi.index()])
            } else {
                false
            };
            self.reach[id.index()] = mark;
        }
        let hit = circuit
            .observe_points()
            .iter()
            .any(|op| self.reach[op.driver.index()]);
        for &id in cone {
            self.reach[id.index()] = false;
        }
        hit
    }

    /// The next objective `(node, value)` to pursue, or `None` when stuck.
    fn objective(&mut self, a: &PodemAnalysis<'_>, goal: Goal) -> Option<(NodeId, bool)> {
        match goal {
            Goal::Justify(node, value) => {
                (self.values[node.index()] == V5::X).then_some((node, value))
            }
            Goal::Detect(fault, side) => {
                if let Some((node, value)) = side {
                    if self.values[node.index()] == V5::X {
                        return Some((node, value));
                    }
                }
                let at_site = self.values[fault.node.index()];
                if at_site == V5::X {
                    return Some((fault.node, !fault.stuck_at));
                }
                if !at_site.is_fault_effect() {
                    return None;
                }
                // D-frontier: gates with an X output and a fault-effect
                // input. Effect-carrying nodes live inside the fault
                // site's combinational fanout cone, and so do their fanout
                // gates. Frontier gates whose output cannot reach an
                // observation point through X-valued logic any more are
                // dead ends — a reverse sweep over the cone filters them
                // out before they burn decisions. Among the live gates,
                // pursue the one whose output is *easiest to observe*
                // (minimum SCOAP CO, ties broken toward the first in
                // topological order) — the fault effect takes the cheapest
                // path out.
                let cone = self.cones[fault.node.index()].as_deref().unwrap_or(&[]);
                for &id in cone.iter().rev() {
                    let i = id.index();
                    // before: `xreach[i]` = some already-processed fanout
                    // reaches an OP through X; after: this node does
                    let ok = self.values[i] == V5::X && (a.op_driver[i] || self.xreach[i]);
                    self.xreach[i] = ok;
                    if ok {
                        for &fi in a.circuit.fanins(id) {
                            self.xreach[fi.index()] = true;
                        }
                    }
                }
                let mut best: Option<(u32, NodeId)> = None;
                for &id in cone {
                    if self.values[id.index()] != V5::X || !self.xreach[id.index()] {
                        continue;
                    }
                    let node = a.circuit.node(id);
                    if !node.kind().is_combinational() {
                        continue;
                    }
                    let has_effect = node
                        .fanins()
                        .iter()
                        .any(|&fi| self.values[fi.index()].is_fault_effect());
                    let has_x = node
                        .fanins()
                        .iter()
                        .any(|&fi| self.values[fi.index()] == V5::X);
                    if !has_effect || !has_x {
                        continue;
                    }
                    let cost = a.testability.co[id.index()];
                    if best.is_none_or(|(c, _)| cost < c) {
                        best = Some((cost, id));
                    }
                }
                // the sweep marks side fanins outside the cone too: clear
                // everything it could have touched before returning
                for &id in cone {
                    self.xreach[id.index()] = false;
                    for &fi in a.circuit.fanins(id) {
                        self.xreach[fi.index()] = false;
                    }
                }
                let (_, id) = best?;
                let node = a.circuit.node(id);
                // Side inputs: to pass the effect, *every* X side input
                // must eventually go non-controlling, so surface conflicts
                // early by driving the hardest one first. XOR-class gates
                // propagate through any binary value — still take the
                // hardest input, but aim for its cheaper value.
                let mut pick: Option<(u32, NodeId, bool)> = None;
                for &fi in node.fanins() {
                    let f = fi.index();
                    if self.values[f] != V5::X {
                        continue;
                    }
                    let (cost, v) = match node.kind().controlling_value() {
                        Some(c) => (a.testability.cc(f, !c), !c),
                        None => {
                            let (c0, c1) = (a.testability.cc0[f], a.testability.cc1[f]);
                            (c0.min(c1), c1 < c0)
                        }
                    };
                    if pick.is_none_or(|(c, _, _)| cost > c) {
                        pick = Some((cost, fi, v));
                    }
                }
                pick.map(|(_, fi, v)| (fi, v))
            }
        }
    }

    /// Maps an objective to a source assignment by walking X inputs
    /// backwards, ordered by the SCOAP controllability costs: where one
    /// controlling input suffices the *easiest* X input is taken, where
    /// every input must go non-controlling the *hardest* is taken first so
    /// infeasible branches die at the top of the decision stack instead of
    /// after a pile of cheap assignments.
    fn backtrace(&self, a: &PodemAnalysis<'_>, mut node: NodeId, mut value: bool) -> (usize, bool) {
        loop {
            let pos = a.source_pos[node.index()];
            if pos != usize::MAX {
                return (pos, value);
            }
            let n = a.circuit.node(node);
            let kind = n.kind();
            let pre = value ^ kind.is_inverting();
            // choose an X-valued input and the value to aim for there
            let (next, next_value) = match kind {
                GateKind::Buf | GateKind::Not => (n.fanins()[0], pre),
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    let ctrl = kind
                        .controlling_value()
                        .unwrap_or_else(|| unreachable!("and/or class controlling value"));
                    // needing the non-controlled output means every input
                    // is necessary (pick the hardest); a controlled output
                    // is a free choice (pick the easiest)
                    let all_necessary = pre != ctrl;
                    let needed = if all_necessary { !ctrl } else { ctrl };
                    let mut pick: Option<(u32, NodeId)> = None;
                    for &fi in n.fanins() {
                        let f = fi.index();
                        if self.values[f] != V5::X {
                            continue;
                        }
                        let cost = a.testability.cc(f, needed);
                        let better =
                            pick.is_none_or(
                                |(c, _)| {
                                    if all_necessary {
                                        cost > c
                                    } else {
                                        cost < c
                                    }
                                },
                            );
                        if better {
                            pick = Some((cost, fi));
                        }
                    }
                    let (_, x_input) =
                        pick.unwrap_or_else(|| unreachable!("X output implies an X input"));
                    (x_input, needed)
                }
                GateKind::Xor | GateKind::Xnor => {
                    // every input must settle to a binary value; take the
                    // cheapest-to-control X input first
                    let mut pick: Option<(u32, NodeId)> = None;
                    for &fi in n.fanins() {
                        let f = fi.index();
                        if self.values[f] != V5::X {
                            continue;
                        }
                        let cost = a.testability.cc0[f].min(a.testability.cc1[f]);
                        if pick.is_none_or(|(c, _)| cost < c) {
                            pick = Some((cost, fi));
                        }
                    }
                    let (_, x_input) =
                        pick.unwrap_or_else(|| unreachable!("X output implies an X input"));
                    // parity of the other inputs' known good bits
                    let parity = n
                        .fanins()
                        .iter()
                        .filter(|&&fi| fi != x_input)
                        .map(|&fi| self.values[fi.index()].good().unwrap_or(false))
                        .fold(false, |a, b| a ^ b);
                    (x_input, pre ^ parity)
                }
                GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1 => {
                    unreachable!("sources are caught above; constants are never X")
                }
            };
            node = next;
            value = next_value;
        }
    }

    fn search(&mut self, a: &PodemAnalysis<'_>, goal: Goal) -> Tri {
        if self.success(a, goal) {
            return Tri::Success;
        }
        if self.hopeless(a, goal) {
            return Tri::Fail;
        }
        let Some((obj_node, obj_value)) = self.objective(a, goal) else {
            return Tri::Fail;
        };
        let (src, first) = self.backtrace(a, obj_node, obj_value);
        for value in [first, !first] {
            self.assign(a, src, Some(value), goal.fault());
            match self.search(a, goal) {
                Tri::Success => return Tri::Success,
                Tri::Abort => return Tri::Abort,
                Tri::Fail => {
                    if self.backtracks_left == 0 {
                        return Tri::Abort;
                    }
                    self.backtracks_left -= 1;
                }
            }
        }
        self.assign(a, src, None, goal.fault());
        Tri::Fail
    }
}

/// Reusable PODEM search engine: a [`PodemAnalysis`] of one circuit and
/// one [`PodemSearch`] over it.
///
/// All per-circuit state — source ordering, the all-X baseline, the
/// testability costs and learned implications — is built once, and the
/// search buffers and lazily cached fault-site cones are reused across
/// faults, so a generation loop that targets thousands of faults
/// allocates once instead of per call. [`generate`](crate::generate)
/// shares one analysis between one search per worker instead.
///
/// The *order* in which candidates are tried is testability-guided:
/// [SCOAP-style](Testability) controllability/observability costs pick the
/// easiest D-frontier gate and order backtrace decisions
/// (easiest-controlling / hardest-non-controlling first), and a
/// [static-learning](Learned) preamble turns provably contradictory
/// targets into instant `Untestable` answers and seeds the search with
/// necessary source assignments. All of it is deterministic — identical
/// circuits produce identical cubes on every run and thread count — but
/// the cubes differ from the unguided first-X-input engine, trading
/// bit-compatibility for an order-of-magnitude backtrack reduction.
pub struct PodemEngine<'c> {
    analysis: PodemAnalysis<'c>,
    search: PodemSearch,
}

impl<'c> PodemEngine<'c> {
    /// Builds an engine for `circuit`; reuse it across as many
    /// [`podem`](Self::podem) / [`justify`](Self::justify) calls as you
    /// like.
    #[must_use]
    pub fn new(circuit: &'c Circuit) -> Self {
        let analysis = PodemAnalysis::new(circuit);
        let search = PodemSearch::new(&analysis);
        PodemEngine { analysis, search }
    }

    /// [`podem`] on this engine's circuit, reusing cached cones/buffers.
    pub fn podem(&mut self, fault: &StuckAtFault, max_backtracks: u32) -> PodemOutcome {
        self.run(Goal::Detect(*fault, None), max_backtracks)
    }

    /// [`podem_with_side_objective`] on this engine.
    pub fn podem_with_side_objective(
        &mut self,
        fault: &StuckAtFault,
        side_node: NodeId,
        side_value: bool,
        max_backtracks: u32,
    ) -> PodemOutcome {
        self.run(
            Goal::Detect(*fault, Some((side_node, side_value))),
            max_backtracks,
        )
    }

    /// [`justify`] on this engine.
    pub fn justify(&mut self, node: NodeId, value: bool, max_backtracks: u32) -> PodemOutcome {
        self.run(Goal::Justify(node, value), max_backtracks)
    }

    fn run(&mut self, goal: Goal, max_backtracks: u32) -> PodemOutcome {
        self.search.run(&self.analysis, goal, max_backtracks).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastmon_netlist::{library, CircuitBuilder};

    /// Good-machine steady state with don't-cares filled with 0.
    fn steady(circuit: &Circuit, assignment: &[Option<bool>]) -> Vec<bool> {
        let sources = TestSet::source_order(circuit);
        circuit.eval_steady(|id| {
            sources
                .iter()
                .position(|&s| s == id)
                .and_then(|k| assignment[k])
                .unwrap_or(false)
        })
    }

    fn check_detects(circuit: &Circuit, fault: &StuckAtFault, assignment: &[Option<bool>]) {
        // verify: good vs faulty steady simulation differ at an observation
        // point (don't-cares filled with 0)
        let sources = TestSet::source_order(circuit);
        let assigned = |id: NodeId| {
            sources
                .iter()
                .position(|&s| s == id)
                .and_then(|k| assignment[k])
                .unwrap_or(false)
        };
        let good = circuit.eval_steady(assigned);
        // faulty: recompute with the node forced
        let mut faulty = vec![false; circuit.len()];
        for &id in circuit.topo_order() {
            let node = circuit.node(id);
            faulty[id.index()] = if id == fault.node {
                fault.stuck_at
            } else {
                match node.kind() {
                    GateKind::Input | GateKind::Dff => assigned(id),
                    GateKind::Const0 => false,
                    GateKind::Const1 => true,
                    kind => {
                        let ins: Vec<bool> =
                            node.fanins().iter().map(|&fi| faulty[fi.index()]).collect();
                        kind.eval(&ins)
                    }
                }
            };
        }
        let detected = circuit
            .observe_points()
            .iter()
            .any(|op| good[op.driver.index()] != faulty[op.driver.index()]);
        assert!(detected, "assignment does not detect {fault:?}");
    }

    #[test]
    fn detects_all_c17_stuck_faults() {
        let c = library::c17();
        for id in c.node_ids() {
            for stuck in [false, true] {
                let fault = StuckAtFault {
                    node: id,
                    stuck_at: stuck,
                };
                match podem(&c, &fault, 10_000) {
                    PodemOutcome::Test(t) => check_detects(&c, &fault, &t),
                    other => panic!("c17 {fault:?} should be testable, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn detects_all_s27_stuck_faults() {
        let c = library::s27();
        let mut tested = 0;
        for id in c.node_ids() {
            if !c.node(id).kind().is_combinational() {
                continue;
            }
            for stuck in [false, true] {
                let fault = StuckAtFault {
                    node: id,
                    stuck_at: stuck,
                };
                match podem(&c, &fault, 50_000) {
                    PodemOutcome::Test(t) => {
                        check_detects(&c, &fault, &t);
                        tested += 1;
                    }
                    PodemOutcome::Untestable => {}
                    PodemOutcome::Aborted => panic!("s27 {fault:?} aborted"),
                }
            }
        }
        assert!(tested >= 18, "most s27 faults are testable, got {tested}");
    }

    #[test]
    fn untestable_fault_proven() {
        // y = OR(a, NOT(a)) is constant 1: s-a-1 at y is untestable
        let mut b = CircuitBuilder::new("taut");
        b.add("a", GateKind::Input, &[]);
        b.add("na", GateKind::Not, &["a"]);
        b.add("y", GateKind::Or, &["a", "na"]);
        b.mark_output("y");
        let c = b.finish().unwrap();
        let fault = StuckAtFault {
            node: c.find("y").unwrap(),
            stuck_at: true,
        };
        assert_eq!(podem(&c, &fault, 10_000), PodemOutcome::Untestable);
        // ...but s-a-0 is testable by any vector
        let fault = StuckAtFault {
            node: c.find("y").unwrap(),
            stuck_at: false,
        };
        assert!(matches!(podem(&c, &fault, 10_000), PodemOutcome::Test(_)));
    }

    #[test]
    fn justify_sets_internal_node() {
        let c = library::s27();
        let g11 = c.find("G11").unwrap();
        for target in [false, true] {
            match justify(&c, g11, target, 10_000) {
                PodemOutcome::Test(t) => assert_eq!(steady(&c, &t)[g11.index()], target),
                other => panic!("justify G11={target} failed: {other:?}"),
            }
        }
    }

    #[test]
    fn justify_constant_conflict_untestable() {
        let mut b = CircuitBuilder::new("const");
        b.add("a", GateKind::Input, &[]);
        b.add("z", GateKind::And, &["a", "zero"]);
        b.add("zero", GateKind::Const0, &[]);
        b.mark_output("z");
        let c = b.finish().unwrap();
        let z = c.find("z").unwrap();
        assert_eq!(justify(&c, z, true, 1000), PodemOutcome::Untestable);
        assert!(matches!(justify(&c, z, false, 1000), PodemOutcome::Test(_)));
    }

    /// What every run must leave behind: `values` is the from-scratch
    /// evaluation of the (possibly partial) assignment, nothing is queued,
    /// and a fresh engine answers the same.
    fn assert_settled(
        engine: &PodemEngine,
        fault: Option<StuckAtFault>,
        outcome: &PodemOutcome,
        fresh: &PodemOutcome,
    ) {
        let (a, s) = (&engine.analysis, &engine.search);
        let expected = evaluate(a.circuit, &s.assignment, &a.source_pos, fault);
        let drift = (0..expected.len()).find(|&i| s.values[i] != expected[i]);
        assert_eq!(drift, None, "{fault:?}: implication drifted at this node");
        assert!(s.queue.is_empty());
        assert_eq!(outcome, fresh, "{fault:?}: reused engine diverged");
    }

    /// One engine reused across every transition fault, driven the way
    /// `generate` drives it (justify, then podem) plus a side objective.
    #[test]
    fn implication_matches_full_resimulation() {
        let syn400 = fastmon_netlist::generate::GeneratorConfig::new("syn")
            .gates(400)
            .flip_flops(24)
            .inputs(12)
            .outputs(6)
            .depth(12)
            .generate(3)
            .unwrap();
        // gates that are binary under the all-X baseline: a fault there is
        // active before any decision
        let mut b = CircuitBuilder::new("consts");
        b.add("a", GateKind::Input, &[]);
        b.add("b", GateKind::Input, &[]);
        b.add("zero", GateKind::Const0, &[]);
        b.add("one", GateKind::Const1, &[]);
        b.add("lo", GateKind::And, &["a", "zero"]);
        b.add("hi", GateKind::Or, &["b", "one"]);
        b.add("x", GateKind::Xor, &["lo", "b"]);
        b.add("y", GateKind::Nand, &["hi", "a"]);
        b.mark_output("x");
        b.mark_output("y");
        let mut circuits = vec![library::s27(), b.finish().unwrap(), syn400];
        let s9234 = fastmon_netlist::generate::CircuitProfile::named("s9234")
            .unwrap()
            .scaled(0.05);
        for seed in 1..=3 {
            circuits.push(s9234.generate(seed).unwrap());
        }
        let (mut tests, mut aborts) = (0, 0);
        for c in &circuits {
            let mut engine = PodemEngine::new(c);
            let gates: Vec<NodeId> = c.combinational_nodes().collect();
            for (i, tf) in crate::transition_faults(c).iter().enumerate() {
                let fault = StuckAtFault {
                    node: tf.gate,
                    stuck_at: tf.initial_value(),
                };
                let (side_node, side_value) = (gates[(7 * i + 3) % gates.len()], i % 4 < 2);
                // alternate a tiny budget, which leaves aborted runs with
                // partial assignments, with one that mostly completes
                let limit = if i % 2 == 0 { 2 } else { 32 };
                let launch = engine.justify(tf.gate, tf.initial_value(), limit);
                let fresh = PodemEngine::new(c).justify(tf.gate, tf.initial_value(), limit);
                assert_settled(&engine, None, &launch, &fresh);
                if let PodemOutcome::Test(t) = &launch {
                    assert_eq!(steady(c, t)[tf.gate.index()], tf.initial_value());
                }

                let capture = engine.podem(&fault, limit);
                let fresh = PodemEngine::new(c).podem(&fault, limit);
                assert_settled(&engine, Some(fault), &capture, &fresh);
                if let PodemOutcome::Test(t) = &capture {
                    check_detects(c, &fault, t);
                }

                let both = engine.podem_with_side_objective(&fault, side_node, side_value, limit);
                let fresh = PodemEngine::new(c)
                    .podem_with_side_objective(&fault, side_node, side_value, limit);
                assert_settled(&engine, Some(fault), &both, &fresh);
                if let PodemOutcome::Test(t) = &both {
                    check_detects(c, &fault, t);
                    assert_eq!(steady(c, t)[side_node.index()], side_value);
                }

                for outcome in [launch, capture, both] {
                    match outcome {
                        PodemOutcome::Test(_) => tests += 1,
                        PodemOutcome::Aborted => aborts += 1,
                        PodemOutcome::Untestable => {}
                    }
                }
            }
        }
        assert!(tests > 0 && aborts > 0, "{tests} tests, {aborts} aborts");
    }

    #[test]
    fn dont_cares_remain() {
        // y = BUF(a); input b is irrelevant and must stay X
        let mut b = CircuitBuilder::new("dc");
        b.add("a", GateKind::Input, &[]);
        b.add("b", GateKind::Input, &[]);
        b.add("y", GateKind::Buf, &["a"]);
        b.add("z", GateKind::Buf, &["b"]);
        b.mark_output("y");
        b.mark_output("z");
        let c = b.finish().unwrap();
        let fault = StuckAtFault {
            node: c.find("y").unwrap(),
            stuck_at: false,
        };
        let t = podem(&c, &fault, 100).test().unwrap();
        let sources = TestSet::source_order(&c);
        let b_pos = sources
            .iter()
            .position(|&s| s == c.find("b").unwrap())
            .unwrap();
        assert_eq!(t[b_pos], None, "b is a don't care");
    }
}
