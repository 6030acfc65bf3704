use std::collections::VecDeque;
use std::fmt;
use std::mem::size_of;

use crate::{GateKind, NetlistError};

/// Index of a node (gate instance) inside a [`Circuit`].
///
/// `NodeId`s are dense: every id in `0..circuit.len()` is valid for the
/// circuit that produced it. Ids from one circuit must not be used with
/// another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Returns the raw index of the node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a `NodeId` from a raw index.
    ///
    /// Intended for sibling `fastmon` crates that store node ids in dense
    /// tables; passing an index that is out of range for the target circuit
    /// leads to panics on use, not undefined behaviour.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        NodeId(
            u32::try_from(index).unwrap_or_else(|_| panic!("node index {index} exceeds u32 range")),
        )
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A borrowed view of a single gate instance.
///
/// The circuit stores its nodes in flat arenas (one byte run for all
/// names, one `u32` run for all fanin lists); `Node` is the per-gate
/// window into them, so it is `Copy` and the accessors hand out slices
/// that live as long as the circuit, not as long as the view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node<'c> {
    name: &'c str,
    kind: GateKind,
    fanins: &'c [NodeId],
}

impl<'c> Node<'c> {
    /// The net/instance name (ISCAS naming: the gate is named after the net
    /// it drives).
    #[must_use]
    pub fn name(&self) -> &'c str {
        self.name
    }

    /// The gate kind.
    #[must_use]
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// The fanin nodes, in pin order.
    #[must_use]
    pub fn fanins(&self) -> &'c [NodeId] {
        self.fanins
    }
}

/// A reference to a specific pin of a gate — the granularity at which small
/// delay faults are modeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PinRef {
    /// The output pin of a gate.
    Output(NodeId),
    /// The `pin`-th input pin of a gate (index into [`Node::fanins`]).
    Input(NodeId, u8),
}

impl PinRef {
    /// The gate the pin belongs to.
    #[must_use]
    pub fn node(self) -> NodeId {
        match self {
            PinRef::Output(n) | PinRef::Input(n, _) => n,
        }
    }
}

impl fmt::Display for PinRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PinRef::Output(n) => write!(f, "{n}/Z"),
            PinRef::Input(n, k) => write!(f, "{n}/A{k}"),
        }
    }
}

/// What kind of capture element observes a signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObserveKind {
    /// A primary output captured by the tester.
    PrimaryOutput,
    /// A pseudo-primary output: the D pin of a scan flip-flop.
    PseudoOutput {
        /// The flip-flop whose D pin captures the signal.
        dff: NodeId,
    },
}

/// An observation point of the full-scan circuit: the signal captured at a
/// primary output or at a flip-flop D pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObservePoint {
    /// The node whose output signal is captured.
    pub driver: NodeId,
    /// Whether this is a primary or pseudo-primary output.
    pub kind: ObserveKind,
}

impl ObservePoint {
    /// Returns `true` for pseudo-primary outputs (flip-flop D pins) — the
    /// only places where delay monitors can be inserted.
    #[must_use]
    pub fn is_pseudo(&self) -> bool {
        matches!(self.kind, ObserveKind::PseudoOutput { .. })
    }
}

/// Reusable mark buffer for [`Circuit::fanout_cone_into`] and
/// [`Circuit::fanin_cone_into`].
///
/// The cone walks need one "in cone" bit per circuit node; allocating it
/// per call dominates the cost of small cones. A `ConeMarks` grows to the
/// circuit size on first use and is wiped selectively (only the nodes of
/// the previous cone) between calls, so repeated walks are allocation-free.
#[derive(Debug, Clone, Default)]
pub struct ConeMarks {
    mark: Vec<bool>,
    /// The nodes marked since the last [`ConeMarks::begin`], for selective
    /// wiping.
    touched: Vec<NodeId>,
}

impl ConeMarks {
    /// Fresh, empty scratch; the buffer grows to the circuit size on first
    /// use.
    #[must_use]
    pub fn new() -> Self {
        ConeMarks::default()
    }

    /// Starts a new walk over an `n`-node circuit: grows the buffer if
    /// needed and wipes only the marks of the previous walk.
    pub fn begin(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.clear();
            self.mark.resize(n, false);
        } else {
            for &id in &self.touched {
                self.mark[id.index()] = false;
            }
        }
        self.touched.clear();
    }

    /// Marks `id`, remembering it for the next wipe.
    pub fn set(&mut self, id: NodeId) {
        let slot = &mut self.mark[id.index()];
        if !*slot {
            *slot = true;
            self.touched.push(id);
        }
    }

    /// Whether `id` is marked in the current walk.
    #[must_use]
    pub fn get(&self, id: NodeId) -> bool {
        self.mark[id.index()]
    }
}

/// A work queue of nodes bucketed by combinational level, for event-driven
/// walks over a circuit's fanouts: PODEM's forward implication and the
/// fault simulator's cone walks.
///
/// A node is queued at most once until it is popped. A combinational
/// gate's level exceeds each of its fanins', so popping level by level and
/// pushing only combinational fanouts of popped nodes reaches every queued
/// node after all of its queued fanins. Like [`ConeMarks`], the queue grows
/// to the circuit on first use and holds nothing once drained, so one
/// queue serves any number of walks.
#[derive(Debug, Clone, Default)]
pub struct LevelQueue {
    buckets: Vec<Vec<NodeId>>,
    queued: Vec<bool>,
    /// Lowest level that may hold a pending node.
    low: usize,
    /// One past the highest level that may hold a pending node.
    top: usize,
}

impl LevelQueue {
    /// Fresh, empty queue; it grows to the circuit size on first use.
    #[must_use]
    pub fn new() -> Self {
        LevelQueue::default()
    }

    /// Queues `id` on its level unless it is already pending.
    #[inline]
    pub fn push(&mut self, circuit: &Circuit, id: NodeId) {
        let level = circuit.level(id) as usize;
        if id.index() >= self.queued.len() || level >= self.buckets.len() {
            self.grow(circuit);
        }
        let queued = &mut self.queued[id.index()];
        if !*queued {
            *queued = true;
            self.buckets[level].push(id);
            self.low = self.low.min(level);
            self.top = self.top.max(level + 1);
        }
    }

    #[cold]
    fn grow(&mut self, circuit: &Circuit) {
        if self.queued.len() < circuit.len() {
            self.queued.resize(circuit.len(), false);
        }
        let levels = circuit.max_level() as usize + 1;
        if self.buckets.len() < levels {
            self.buckets.resize_with(levels, Vec::new);
        }
    }

    /// Moves the lowest pending level's nodes into `nodes` (cleared first),
    /// in push order, and returns `true`; returns `false` once the queue is
    /// drained. Nodes pushed while `nodes` is processed land on higher
    /// levels and come out of later calls.
    #[inline]
    pub fn pop_level(&mut self, nodes: &mut Vec<NodeId>) -> bool {
        nodes.clear();
        while self.low < self.top {
            let bucket = &mut self.buckets[self.low];
            self.low += 1;
            if bucket.is_empty() {
                continue;
            }
            std::mem::swap(nodes, bucket);
            for &id in nodes.iter() {
                self.queued[id.index()] = false;
            }
            return true;
        }
        self.low = usize::MAX;
        self.top = 0;
        false
    }

    /// Whether no node is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.top == 0
    }
}

/// A levelized full-scan gate-level circuit.
///
/// The sequential netlist is stored as parsed; for delay test the circuit is
/// interpreted through its *combinational core*: flip-flop outputs are
/// pseudo-primary inputs, flip-flop D pins are pseudo-primary outputs, and
/// the edges into flip-flops are cut when levelizing.
///
/// # Storage
///
/// Node storage is compressed-sparse-row throughout: all fanin lists live
/// in one flat [`NodeId`] arena addressed by an offsets table, the derived
/// fanout lists in a second arena, and all node names in a single byte run.
/// There is no per-node allocation, so a million-gate netlist costs a fixed
/// ~40 bytes/gate plus its name bytes instead of several heap boxes per
/// gate. [`Circuit::node`] hands out a [`Node`] *view* into the arenas; the
/// public `fanins()`/`fanouts()` slice API is unchanged.
///
/// Two derived observation tables serve fault simulation, about 5 bytes
/// per node: the observe points each node drives
/// ([`Circuit::driven_observe_points`], CSR like the fanouts) and whether
/// it reaches one at all ([`Circuit::reaches_observe_point`]).
///
/// Construct circuits with [`CircuitBuilder`](crate::CircuitBuilder), the
/// [`bench`](crate::bench) parser or the [`generate`](crate::generate)
/// module.
#[derive(Debug, Clone)]
pub struct Circuit {
    name: String,
    // CSR node storage.
    names: String,
    name_offsets: Vec<u32>,
    kinds: Vec<GateKind>,
    fanins: Vec<NodeId>,
    fanin_offsets: Vec<u32>,
    outputs: Vec<NodeId>,
    // Derived structure (fanouts are CSR as well).
    fanouts: Vec<NodeId>,
    fanout_offsets: Vec<u32>,
    level: Vec<u32>,
    topo: Vec<NodeId>,
    max_level: u32,
    inputs: Vec<NodeId>,
    flip_flops: Vec<NodeId>,
    observe_points: Vec<ObservePoint>,
    // Derived observation tables: the observe points each node drives
    // (CSR of indices into `observe_points`), and whether a node reaches
    // one through combinational fanouts.
    driven: Vec<u32>,
    driven_offsets: Vec<u32>,
    observable: Vec<bool>,
}

impl Circuit {
    /// Builds a circuit from flat parts, validating arities and acyclicity.
    ///
    /// `fanins`/`fanin_offsets` are the CSR fanin arena: node `i`'s fanins
    /// are `fanins[fanin_offsets[i]..fanin_offsets[i + 1]]`, in pin order.
    /// `outputs` lists the nodes whose output nets are primary outputs.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadArity`] if a node's fanin count is illegal
    /// for its kind and [`NetlistError::CombinationalCycle`] if the
    /// combinational core (flip-flop inputs cut) is cyclic.
    pub(crate) fn from_parts(
        name: String,
        node_names: Vec<String>,
        kinds: Vec<GateKind>,
        fanins: Vec<NodeId>,
        fanin_offsets: Vec<u32>,
        outputs: Vec<NodeId>,
    ) -> Result<Self, NetlistError> {
        let n = kinds.len();
        debug_assert_eq!(node_names.len(), n);
        debug_assert_eq!(fanin_offsets.len(), n + 1);
        let fanin_of = |i: usize| &fanins[fanin_offsets[i] as usize..fanin_offsets[i + 1] as usize];

        for i in 0..n {
            if !kinds[i].arity_ok(fanin_of(i).len()) {
                return Err(NetlistError::BadArity {
                    kind: kinds[i],
                    node: node_names[i].clone(),
                    got: fanin_of(i).len(),
                });
            }
        }

        // Derived fanout CSR: a counting pass sizes the runs, a fill pass
        // scatters consumers in ascending id order (matching the pin-order
        // duplication semantics of the fanin arena).
        let mut fanout_offsets = vec![0u32; n + 1];
        for &fi in &fanins {
            fanout_offsets[fi.index() + 1] += 1;
        }
        for i in 0..n {
            fanout_offsets[i + 1] += fanout_offsets[i];
        }
        let mut fanouts = vec![NodeId(0); fanins.len()];
        let mut cursor: Vec<u32> = fanout_offsets[..n].to_vec();
        for i in 0..n {
            for &fi in fanin_of(i) {
                let c = &mut cursor[fi.index()];
                fanouts[*c as usize] = NodeId::from_index(i);
                *c += 1;
            }
        }

        // Levelize the combinational core with Kahn's algorithm. Sources and
        // flip-flops start at level 0; edges into flip-flops are cut.
        let mut indeg = vec![0usize; n];
        for (i, kind) in kinds.iter().enumerate() {
            if kind.is_combinational() {
                indeg[i] = fanin_of(i).len();
            }
        }
        let mut level = vec![0u32; n];
        let mut topo = Vec::with_capacity(n);
        let mut queue: VecDeque<NodeId> = (0..n)
            .filter(|&i| indeg[i] == 0)
            .map(NodeId::from_index)
            .collect();
        while let Some(id) = queue.pop_front() {
            topo.push(id);
            let lo = fanout_offsets[id.index()] as usize;
            let hi = fanout_offsets[id.index() + 1] as usize;
            for &fo in &fanouts[lo..hi] {
                let fi = fo.index();
                if kinds[fi].is_combinational() {
                    level[fi] = level[fi].max(level[id.index()] + 1);
                    indeg[fi] -= 1;
                    if indeg[fi] == 0 {
                        queue.push_back(fo);
                    }
                }
            }
        }
        if topo.len() != n {
            let on_cycle = (0..n)
                .find(|&i| indeg[i] > 0)
                .map(|i| node_names[i].clone())
                .unwrap_or_default();
            return Err(NetlistError::CombinationalCycle { node: on_cycle });
        }
        // `topo` from Kahn's BFS is already a valid topological order; sort
        // it by (level, id) so iteration is deterministic and level-grouped.
        topo.sort_by_key(|id| (level[id.index()], id.index()));
        let max_level = level.iter().copied().max().unwrap_or(0);

        let inputs: Vec<NodeId> = (0..n)
            .filter(|&i| kinds[i] == GateKind::Input)
            .map(NodeId::from_index)
            .collect();
        let flip_flops: Vec<NodeId> = (0..n)
            .filter(|&i| kinds[i] == GateKind::Dff)
            .map(NodeId::from_index)
            .collect();

        let mut observe_points: Vec<ObservePoint> = outputs
            .iter()
            .map(|&o| ObservePoint {
                driver: o,
                kind: ObserveKind::PrimaryOutput,
            })
            .collect();
        observe_points.extend(flip_flops.iter().map(|&ff| ObservePoint {
            driver: fanin_of(ff.index())[0],
            kind: ObserveKind::PseudoOutput { dff: ff },
        }));

        // Observation tables. The CSR lists each node's observe points in
        // ascending index order; a reverse topological sweep then marks
        // every node that drives one or feeds a marked combinational gate.
        let mut driven_offsets = vec![0u32; n + 1];
        for op in &observe_points {
            driven_offsets[op.driver.index() + 1] += 1;
        }
        for i in 0..n {
            driven_offsets[i + 1] += driven_offsets[i];
        }
        let mut driven = vec![0u32; observe_points.len()];
        let mut cursor: Vec<u32> = driven_offsets[..n].to_vec();
        for (k, op) in observe_points.iter().enumerate() {
            let c = &mut cursor[op.driver.index()];
            driven[*c as usize] =
                u32::try_from(k).unwrap_or_else(|_| panic!("observe points exceed u32 range"));
            *c += 1;
        }
        let mut observable = vec![false; n];
        for &id in topo.iter().rev() {
            let i = id.index();
            let lo = fanout_offsets[i] as usize;
            let hi = fanout_offsets[i + 1] as usize;
            observable[i] = driven_offsets[i] < driven_offsets[i + 1]
                || fanouts[lo..hi]
                    .iter()
                    .any(|fo| kinds[fo.index()].is_combinational() && observable[fo.index()]);
        }

        // Flatten the names into a single byte run + offsets.
        let total: usize = node_names.iter().map(String::len).sum();
        let mut names = String::with_capacity(total);
        let mut name_offsets = Vec::with_capacity(n + 1);
        name_offsets.push(0u32);
        for s in &node_names {
            names.push_str(s);
            name_offsets.push(
                u32::try_from(names.len())
                    .unwrap_or_else(|_| panic!("total name bytes exceed u32 range")),
            );
        }

        Ok(Circuit {
            name,
            names,
            name_offsets,
            kinds,
            fanins,
            fanin_offsets,
            outputs,
            fanouts,
            fanout_offsets,
            level,
            topo,
            max_level,
            inputs,
            flip_flops,
            observe_points,
            driven,
            driven_offsets,
            observable,
        })
    }

    /// The circuit name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes (gates, inputs and flip-flops).
    #[must_use]
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Returns `true` if the circuit has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The name of node `id` (a direct slice of the name arena).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this circuit.
    #[must_use]
    pub fn node_name(&self, id: NodeId) -> &str {
        let i = id.index();
        &self.names[self.name_offsets[i] as usize..self.name_offsets[i + 1] as usize]
    }

    /// The gate kind of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this circuit.
    #[must_use]
    pub fn kind(&self, id: NodeId) -> GateKind {
        self.kinds[id.index()]
    }

    /// The fanin nodes of `id`, in pin order (a direct slice of the fanin
    /// arena).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this circuit.
    #[must_use]
    pub fn fanins(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.fanins[self.fanin_offsets[i] as usize..self.fanin_offsets[i + 1] as usize]
    }

    /// Access a node by id as a borrowed view over the arenas.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this circuit.
    #[must_use]
    pub fn node(&self, id: NodeId) -> Node<'_> {
        Node {
            name: self.node_name(id),
            kind: self.kinds[id.index()],
            fanins: self.fanins(id),
        }
    }

    /// Iterates over all `(NodeId, Node)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Node<'_>)> {
        (0..self.kinds.len()).map(|i| {
            let id = NodeId::from_index(i);
            (id, self.node(id))
        })
    }

    /// All node ids in id order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.kinds.len()).map(NodeId::from_index)
    }

    /// Primary inputs.
    #[must_use]
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Nodes whose output nets are primary outputs.
    #[must_use]
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Flip-flops (scan cells).
    #[must_use]
    pub fn flip_flops(&self) -> &[NodeId] {
        &self.flip_flops
    }

    /// Observation points: primary outputs first, then pseudo-primary
    /// outputs (flip-flop D pins) in flip-flop order.
    #[must_use]
    pub fn observe_points(&self) -> &[ObservePoint] {
        &self.observe_points
    }

    /// The observation points that capture `id`'s output signal, as
    /// ascending indices into [`Circuit::observe_points`]. Most nodes drive
    /// none; a node can drive several (a primary output that also feeds
    /// flip-flop D pins).
    #[must_use]
    pub fn driven_observe_points(&self, id: NodeId) -> &[u32] {
        let i = id.index();
        &self.driven[self.driven_offsets[i] as usize..self.driven_offsets[i + 1] as usize]
    }

    /// Whether `id` drives an observation point or reaches one through
    /// combinational fanouts. A fault effect on a node for which this is
    /// false can never be captured, so fault simulation skips it.
    #[must_use]
    pub fn reaches_observe_point(&self, id: NodeId) -> bool {
        self.observable[id.index()]
    }

    /// The fanout nodes of `id` (all gates with `id` among their fanins,
    /// including flip-flops capturing the signal).
    #[must_use]
    pub fn fanouts(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.fanouts[self.fanout_offsets[i] as usize..self.fanout_offsets[i + 1] as usize]
    }

    /// The combinational level of a node: 0 for sources and flip-flops,
    /// `1 + max(level of fanins)` for combinational gates.
    #[must_use]
    pub fn level(&self, id: NodeId) -> u32 {
        self.level[id.index()]
    }

    /// The maximum combinational level (logic depth) of the circuit.
    #[must_use]
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// All nodes in a topological order of the combinational core: sources
    /// and flip-flops first, then combinational gates grouped by level.
    #[must_use]
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// Ids of all combinational gates, in topological order.
    pub fn combinational_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.topo
            .iter()
            .copied()
            .filter(move |&id| self.kinds[id.index()].is_combinational())
    }

    /// The sources of the combinational core: primary inputs, constants and
    /// flip-flop outputs (pseudo-primary inputs).
    pub fn combinational_sources(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.topo
            .iter()
            .copied()
            .filter(move |&id| !self.kinds[id.index()].is_combinational())
    }

    /// Heap bytes of the node storage: arenas, offset tables and derived
    /// structure. The benchmarks divide this by the gate count to report
    /// bytes/gate.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.names.len()
            + self.name_offsets.len() * size_of::<u32>()
            + self.kinds.len() * size_of::<GateKind>()
            + self.fanins.len() * size_of::<NodeId>()
            + self.fanin_offsets.len() * size_of::<u32>()
            + self.outputs.len() * size_of::<NodeId>()
            + self.fanouts.len() * size_of::<NodeId>()
            + self.fanout_offsets.len() * size_of::<u32>()
            + self.level.len() * size_of::<u32>()
            + self.topo.len() * size_of::<NodeId>()
            + self.inputs.len() * size_of::<NodeId>()
            + self.flip_flops.len() * size_of::<NodeId>()
            + self.observe_points.len() * size_of::<ObservePoint>()
            + self.driven.len() * size_of::<u32>()
            + self.driven_offsets.len() * size_of::<u32>()
            + self.observable.len() * size_of::<bool>()
    }

    /// Computes the transitive combinational fanout cone of `seed`
    /// (inclusive), in topological order. Traversal stops at flip-flops:
    /// they are not included (their D pins are capture points).
    ///
    /// Allocates fresh buffers per call; hot paths should use
    /// [`Circuit::fanout_cone_into`] with a reused [`ConeMarks`].
    #[must_use]
    pub fn fanout_cone(&self, seed: NodeId) -> Vec<NodeId> {
        let mut marks = ConeMarks::new();
        let mut cone = Vec::new();
        self.fanout_cone_into(seed, &mut marks, &mut cone);
        cone
    }

    /// [`Circuit::fanout_cone`] into a caller-provided buffer, reusing the
    /// mark scratch across calls. `cone` is cleared first.
    pub fn fanout_cone_into(&self, seed: NodeId, marks: &mut ConeMarks, cone: &mut Vec<NodeId>) {
        marks.begin(self.kinds.len());
        cone.clear();
        marks.set(seed);
        // topo order guarantees fanins are visited before fanouts
        for &id in &self.topo {
            if !marks.get(id) {
                continue;
            }
            cone.push(id);
            for &fo in self.fanouts(id) {
                if self.kinds[fo.index()].is_combinational() {
                    marks.set(fo);
                }
            }
        }
    }

    /// Computes the transitive combinational fanin cone of `seed`
    /// (inclusive), in topological order. Traversal stops at sources and
    /// flip-flops (which are included as the cone's inputs but not expanded
    /// further).
    ///
    /// Allocates fresh buffers per call; hot paths should use
    /// [`Circuit::fanin_cone_into`] with a reused [`ConeMarks`].
    #[must_use]
    pub fn fanin_cone(&self, seed: NodeId) -> Vec<NodeId> {
        let mut marks = ConeMarks::new();
        let mut cone = Vec::new();
        self.fanin_cone_into(seed, &mut marks, &mut cone);
        cone
    }

    /// [`Circuit::fanin_cone`] into a caller-provided buffer, reusing the
    /// mark scratch across calls. `cone` is cleared first.
    pub fn fanin_cone_into(&self, seed: NodeId, marks: &mut ConeMarks, cone: &mut Vec<NodeId>) {
        marks.begin(self.kinds.len());
        cone.clear();
        marks.set(seed);
        // reverse topological sweep marks fanins of marked nodes
        for &id in self.topo.iter().rev() {
            if marks.get(id) && self.kinds[id.index()].is_combinational() {
                for &fi in self.fanins(id) {
                    marks.set(fi);
                }
            }
        }
        // emit in topological order
        for &id in &self.topo {
            if marks.get(id) {
                cone.push(id);
            }
        }
    }

    /// The observation points whose captured signal lies in the fanout cone
    /// of `seed`, as indices into [`Circuit::observe_points`].
    #[must_use]
    pub fn observing_points_of(&self, seed: NodeId) -> Vec<usize> {
        let mut marks = ConeMarks::new();
        let mut cone = Vec::new();
        self.fanout_cone_into(seed, &mut marks, &mut cone);
        self.observe_points
            .iter()
            .enumerate()
            .filter(|(_, op)| marks.get(op.driver))
            .map(|(i, _)| i)
            .collect()
    }

    /// Evaluates the steady-state value of every node for the given
    /// assignment of combinational sources.
    ///
    /// `source_value` is queried for primary inputs and flip-flops (their
    /// current state); constants evaluate to themselves. The returned vector
    /// is indexed by [`NodeId::index`].
    pub fn eval_steady<F: Fn(NodeId) -> bool>(&self, source_value: F) -> Vec<bool> {
        let mut values = vec![false; self.kinds.len()];
        let mut ins: Vec<bool> = Vec::new();
        for &id in &self.topo {
            values[id.index()] = match self.kinds[id.index()] {
                GateKind::Input | GateKind::Dff => source_value(id),
                GateKind::Const0 => false,
                GateKind::Const1 => true,
                kind => {
                    ins.clear();
                    ins.extend(self.fanins(id).iter().map(|&fi| values[fi.index()]));
                    kind.eval(&ins)
                }
            };
        }
        values
    }

    /// Looks up a node by name (linear scan; intended for tests and small
    /// circuits).
    #[must_use]
    pub fn find(&self, name: &str) -> Option<NodeId> {
        (0..self.kinds.len())
            .map(NodeId::from_index)
            .find(|&id| self.node_name(id) == name)
    }
}

#[cfg(test)]
mod tests {
    use crate::{CircuitBuilder, GateKind};

    fn tiny() -> crate::Circuit {
        // a, b inputs; f = DFF(g); g = AND(a, f); o = NAND(g, b); output o
        let mut b = CircuitBuilder::new("tiny");
        b.add("a", GateKind::Input, &[]);
        b.add("b", GateKind::Input, &[]);
        b.add("f", GateKind::Dff, &["g"]);
        b.add("g", GateKind::And, &["a", "f"]);
        b.add("o", GateKind::Nand, &["g", "b"]);
        b.mark_output("o");
        b.finish().expect("valid circuit")
    }

    #[test]
    fn levels_and_topo() {
        let c = tiny();
        let g = c.find("g").unwrap();
        let o = c.find("o").unwrap();
        let f = c.find("f").unwrap();
        assert_eq!(c.level(f), 0);
        assert_eq!(c.level(g), 1);
        assert_eq!(c.level(o), 2);
        assert_eq!(c.max_level(), 2);
        let topo = c.topo_order();
        let pos = |id| topo.iter().position(|&x| x == id).unwrap();
        assert!(pos(g) < pos(o));
        assert!(pos(f) < pos(g));
    }

    #[test]
    fn observe_points_cover_po_and_ppo() {
        let c = tiny();
        let ops = c.observe_points();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].driver, c.find("o").unwrap());
        assert!(!ops[0].is_pseudo());
        assert_eq!(ops[1].driver, c.find("g").unwrap());
        assert!(ops[1].is_pseudo());
    }

    #[test]
    fn fanout_cone_stops_at_dff() {
        let c = tiny();
        let a = c.find("a").unwrap();
        let cone = c.fanout_cone(a);
        let names: Vec<&str> = cone.iter().map(|&id| c.node(id).name()).collect();
        assert_eq!(names, vec!["a", "g", "o"]);
    }

    #[test]
    fn fanin_cone_collects_support() {
        let c = tiny();
        let o = c.find("o").unwrap();
        let mut names: Vec<&str> = c
            .fanin_cone(o)
            .iter()
            .map(|&id| c.node(id).name())
            .collect();
        names.sort_unstable();
        // o = NAND(g, b), g = AND(a, f): support = {a, b, f, g, o}
        assert_eq!(names, vec!["a", "b", "f", "g", "o"]);
        // the cone stops at the flip-flop: its fanin net g10... (f's D pin)
        // is not expanded further — `f` is a leaf here
        let f = c.find("f").unwrap();
        assert_eq!(c.fanin_cone(f), vec![f]);
    }

    #[test]
    fn cone_scratch_reuse_matches_fresh_walks() {
        let c = tiny();
        let mut marks = super::ConeMarks::new();
        let mut cone = Vec::new();
        // interleave fanout and fanin walks through the same scratch; each
        // must match the allocating variant despite the shared mark buffer
        for id in c.node_ids() {
            c.fanout_cone_into(id, &mut marks, &mut cone);
            assert_eq!(cone, c.fanout_cone(id), "fanout cone of {id}");
            c.fanin_cone_into(id, &mut marks, &mut cone);
            assert_eq!(cone, c.fanin_cone(id), "fanin cone of {id}");
        }
    }

    #[test]
    fn observing_points_of_cone() {
        let c = tiny();
        let b_in = c.find("b").unwrap();
        // b only reaches the primary output o
        assert_eq!(c.observing_points_of(b_in), vec![0]);
        let a_in = c.find("a").unwrap();
        // a reaches both o (PO) and g (PPO via DFF f)
        assert_eq!(c.observing_points_of(a_in), vec![0, 1]);
    }

    #[test]
    fn observation_tables_match_the_cones() {
        // observe points: POs o (0) and g2 (1), then f's D pin (2), which
        // g2 drives too; the dead-end d reaches none of them
        let mut b = CircuitBuilder::new("obs");
        b.add("a", GateKind::Input, &[]);
        b.add("f", GateKind::Dff, &["g2"]);
        b.add("g2", GateKind::And, &["a", "f"]);
        b.add("d", GateKind::Not, &["g2"]);
        b.add("o", GateKind::Buf, &["a"]);
        b.mark_output("o");
        b.mark_output("g2");
        let c = b.finish().unwrap();
        for id in c.node_ids() {
            let driven: Vec<u32> = c
                .observe_points()
                .iter()
                .enumerate()
                .filter(|(_, op)| op.driver == id)
                .map(|(k, _)| k as u32)
                .collect();
            assert_eq!(c.driven_observe_points(id), driven.as_slice());
            let reaches = c
                .fanout_cone(id)
                .iter()
                .any(|&n| !c.driven_observe_points(n).is_empty());
            assert_eq!(c.reaches_observe_point(id), reaches, "{}", c.node_name(id));
        }
        let g2 = c.find("g2").unwrap();
        assert_eq!(c.driven_observe_points(g2), &[1, 2]);
        assert!(!c.reaches_observe_point(c.find("d").unwrap()));
    }

    #[test]
    fn level_queue_pops_each_node_once_in_level_order() {
        let c = tiny();
        let [a, g, o, f] = ["a", "g", "o", "f"].map(|n| c.find(n).unwrap());
        let mut queue = crate::LevelQueue::new();
        let mut level = Vec::new();
        for _ in 0..2 {
            // o is pushed twice but pending once; f shares level 0 with a
            for id in [o, g, o, f, a] {
                queue.push(&c, id);
            }
            let mut popped = Vec::new();
            while queue.pop_level(&mut level) {
                popped.push(level.clone());
            }
            assert_eq!(popped, vec![vec![f, a], vec![g], vec![o]]);
            // drained: the same nodes queue again on the second round
            assert!(queue.is_empty());
        }
    }

    #[test]
    fn eval_steady_matches_logic() {
        let c = tiny();
        let a = c.find("a").unwrap();
        let b_in = c.find("b").unwrap();
        let f = c.find("f").unwrap();
        let values = c.eval_steady(|id| id == a || id == f);
        // g = AND(a=1, f=1) = 1; o = NAND(g=1, b=0) = 1
        assert!(values[c.find("g").unwrap().index()]);
        assert!(values[c.find("o").unwrap().index()]);
        let values = c.eval_steady(|id| id == a || id == b_in || id == f);
        // o = NAND(1,1) = 0
        assert!(!values[c.find("o").unwrap().index()]);
    }

    #[test]
    fn storage_is_arena_backed() {
        let c = tiny();
        // 5 nodes, 5 fanin slots (f:1, g:2, o:2): sanity-check the CSR
        // accounting stays in the tens of bytes per node, not hundreds
        let bytes = c.storage_bytes();
        assert!(bytes > 0);
        assert!(bytes < 5 * 100, "tiny circuit costs {bytes} bytes");
        // fanin slices come straight from the arena, in pin order
        let o = c.find("o").unwrap();
        assert_eq!(c.fanins(o), c.node(o).fanins());
        assert_eq!(c.kind(o), GateKind::Nand);
        assert_eq!(c.node_name(o), "o");
    }

    #[test]
    fn cycle_detection() {
        let mut b = CircuitBuilder::new("cyclic");
        b.add("a", GateKind::Input, &[]);
        b.add("x", GateKind::And, &["a", "y"]);
        b.add("y", GateKind::And, &["a", "x"]);
        b.mark_output("y");
        assert!(matches!(
            b.finish(),
            Err(crate::NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn dff_breaks_cycles() {
        // feedback through a flip-flop is legal
        let mut b = CircuitBuilder::new("seq");
        b.add("a", GateKind::Input, &[]);
        b.add("q", GateKind::Dff, &["x"]);
        b.add("x", GateKind::And, &["a", "q"]);
        b.mark_output("x");
        assert!(b.finish().is_ok());
    }
}
