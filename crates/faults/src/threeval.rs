//! Three-valued detection for the paper's Definition 2: the scalar
//! oracle [`threeval_detects_stuck`] and the bit-parallel two-rail
//! kernel [`ThreevalKernel`] that answers 64 queries per pass.
//!
//! Definition 2 asks whether the common-bits vector `tij` of two tests
//! (specified where they agree, X elsewhere) already detects a target
//! fault. The kernel encodes a node's value over 64 such vectors — one
//! per lane — as two words: `one`, the lanes where the node is
//! definitely 1, and `zero`, the lanes where it is definitely 0; a lane
//! set in neither is X. Gate rules are word operations on the rails:
//!
//! * AND: `one = ∧ one_i`, `zero = ∨ zero_i`; OR is the dual;
//! * XOR: `known = ∧ (one_i | zero_i)`, output = parity of the `one`
//!   rails masked by `known`;
//! * NAND, NOR, XNOR and NOT swap the two rails of their base gate.
//!
//! These are exactly the pessimistic rules of
//! [`ndetect_sim::eval_gate_trit`], lane by lane. A lane detects the
//! fault iff some primary output is definite in both the fault-free
//! and the faulty circuit and the two values differ.

// Hot module: every word buffer comes from the `rows` data plane.
#![deny(clippy::disallowed_methods)]

use crate::sim::FaultSimulator;
use crate::stuck_at::StuckAtFault;
use ndetect_netlist::{GateKind, LineKind, Netlist, NodeId, Sink};
use ndetect_sim::rows::zeroed_words;
use ndetect_sim::{eval_gate_trit, eval_trits_all, PartialVector, Trit, MAX_EXHAUSTIVE_INPUTS};

/// Three-valued detection check for the paper's Definition 2 — the
/// scalar reference for [`ThreevalKernel`].
///
/// Returns `true` iff the partially specified vector `tij` **definitely**
/// detects the stuck-at fault: some primary output has definite and
/// different values in the fault-free and faulty circuits under
/// pessimistic three-valued simulation.
///
/// ```
/// use ndetect_netlist::NetlistBuilder;
/// use ndetect_sim::{PartialVector, PatternSpace};
/// use ndetect_faults::{threeval_detects_stuck, StuckAtFault};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new("and2");
/// let a = b.input("a");
/// let c = b.input("c");
/// let g = b.and("g", &[a, c])?;
/// b.output(g);
/// let n = b.build()?;
/// let space = PatternSpace::new(2)?;
/// let fault = StuckAtFault::new(n.lines().stem(g), false);
/// // 1X does not definitely detect g/0; 11 does.
/// let t_1x = PartialVector::common_bits(&space, 2, 3);
/// assert!(!threeval_detects_stuck(&n, fault, &t_1x));
/// let t_11 = PartialVector::from_vector(&space, 3);
/// assert!(threeval_detects_stuck(&n, fault, &t_11));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn threeval_detects_stuck(
    netlist: &Netlist,
    fault: StuckAtFault,
    vector: &PartialVector,
) -> bool {
    let inputs = vector.trits();
    let good = eval_trits_all(netlist, &inputs);

    let line = netlist.lines().line(fault.line);
    let fault_trit = Trit::from_bool(fault.value);

    // Faulty levelized pass with injection (cold three-valued path,
    // not a word buffer).
    #[allow(clippy::disallowed_methods)]
    let mut faulty = vec![Trit::X; netlist.num_nodes()];
    for (&pi, &v) in netlist.inputs().iter().zip(&inputs) {
        faulty[pi.index()] = v;
    }
    let (stem_forced, pin_override): (Option<NodeId>, Option<(NodeId, usize)>) = match *line.kind()
    {
        LineKind::Stem { node } => (Some(node), None),
        LineKind::Branch { node: _, sink } => match sink {
            Sink::GatePin { gate, pin } => (None, Some((gate, pin))),
            Sink::OutputSlot { .. } => (None, None),
        },
    };
    if let Some(node) = stem_forced {
        faulty[node.index()] = fault_trit;
    }
    let mut operands: Vec<Trit> = Vec::new();
    for &id in netlist.topo_order() {
        let node = netlist.node(id);
        if node.kind() == GateKind::Input {
            continue;
        }
        if stem_forced == Some(id) {
            continue; // value forced, no evaluation
        }
        operands.clear();
        operands.extend(node.fanins().iter().map(|f| faulty[f.index()]));
        if let Some((gate, pin)) = pin_override {
            if gate == id {
                operands[pin] = fault_trit;
            }
        }
        faulty[id.index()] = eval_gate_trit(node.kind(), &operands);
    }
    if let Some(node) = stem_forced {
        faulty[node.index()] = fault_trit;
    }

    // Observation: definite difference on some output slot.
    let po_branch_slot = match *line.kind() {
        LineKind::Branch {
            sink: Sink::OutputSlot { slot },
            ..
        } => Some(slot),
        _ => None,
    };
    for (slot, &po) in netlist.outputs().iter().enumerate() {
        let g = good[po.index()];
        let f = if po_branch_slot == Some(slot) {
            fault_trit
        } else {
            faulty[po.index()]
        };
        if let (Some(gb), Some(fb)) = (g.to_option(), f.to_option()) {
            if gb != fb {
                return true;
            }
        }
    }
    false
}

/// One node's value over the 64 lanes: `(one, zero)` rails. A lane set
/// in neither rail is X; no lane is ever set in both.
type Rails = (u64, u64);

/// The rails of a constant stuck value on every lane.
fn stuck_rails(value: bool) -> Rails {
    if value {
        (u64::MAX, 0)
    } else {
        (0, u64::MAX)
    }
}

/// Whether two rail pairs differ on any lane of `live`.
#[inline]
fn rails_differ(a: Rails, b: Rails, live: u64) -> bool {
    ((a.0 ^ b.0) | (a.1 ^ b.1)) & live != 0
}

/// Evaluates one gate on two rails; operand rails are read through `op`
/// (called with the pin index and the fanin node index).
#[inline]
fn eval_rails(kind: GateKind, fanins: &[u32], op: impl Fn(usize, u32) -> Rails) -> Rails {
    let swap = |(one, zero): Rails| (zero, one);
    match kind {
        GateKind::And | GateKind::Nand => {
            let (mut one, mut zero) = (u64::MAX, 0);
            for (pin, &f) in fanins.iter().enumerate() {
                let (o, z) = op(pin, f);
                one &= o;
                zero |= z;
            }
            if kind == GateKind::Nand {
                (zero, one)
            } else {
                (one, zero)
            }
        }
        GateKind::Or | GateKind::Nor => {
            let (mut one, mut zero) = (0, u64::MAX);
            for (pin, &f) in fanins.iter().enumerate() {
                let (o, z) = op(pin, f);
                one |= o;
                zero &= z;
            }
            if kind == GateKind::Nor {
                (zero, one)
            } else {
                (one, zero)
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            let (mut parity, mut known) = (0, u64::MAX);
            for (pin, &f) in fanins.iter().enumerate() {
                let (o, z) = op(pin, f);
                parity ^= o;
                known &= o | z;
            }
            let out = (parity & known, !parity & known);
            if kind == GateKind::Xnor {
                swap(out)
            } else {
                out
            }
        }
        GateKind::Buf => op(0, fanins[0]),
        GateKind::Not => swap(op(0, fanins[0])),
        GateKind::Const0 => stuck_rails(false),
        GateKind::Const1 => stuck_rails(true),
        GateKind::Input => unreachable!("inputs are loaded, never evaluated"),
    }
}

/// Bit-parallel two-rail three-valued simulation: up to
/// [`ThreevalKernel::LANES`] Definition-2 queries against one target
/// fault in a single pass.
///
/// Each lane holds the common-bits vector of one test pair `(s, t)`.
/// A pass loads the lanes onto the primary inputs, evaluates the
/// fault-free circuit once, then re-evaluates only the fault site's
/// fanout cone — the simulator's CSR cone arena — branch-free, reading
/// every operand from one faulty table seeded with the fault-free
/// rails. A fault on a branch feeding an output slot needs no cone at
/// all. Every lane agrees with [`threeval_detects_stuck`] on the same
/// vector.
///
/// The kernel borrows the netlist and the simulator read-only, so one
/// instance serves any number of worker threads; each worker owns a
/// [`ThreevalScratch`].
///
/// ```
/// use ndetect_netlist::NetlistBuilder;
/// use ndetect_faults::{FaultSimulator, StuckAtFault, ThreevalKernel};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetlistBuilder::new("and2");
/// let a = b.input("a");
/// let c = b.input("c");
/// let g = b.and("g", &[a, c])?;
/// b.output(g);
/// let n = b.build()?;
/// let sim = FaultSimulator::new(&n)?;
/// let kernel = ThreevalKernel::new(&n, &sim);
/// let mut scratch = kernel.new_scratch();
/// // g stuck-at-1: the common bits of 00 and 01 ("0X") detect it, those
/// // of 01 and 10 ("XX") do not.
/// let fault = StuckAtFault::new(n.lines().stem(g), true);
/// let det = kernel.detects_common_bits(fault, &[(0, 1), (1, 2)], &mut scratch);
/// assert_eq!(det, 0b01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ThreevalKernel<'a> {
    netlist: &'a Netlist,
    sim: &'a FaultSimulator,
    /// Per node: its gate kind.
    kinds: Vec<GateKind>,
    /// CSR offsets into [`Self::fanin_nodes`], one row per node.
    fanin_offsets: Vec<u32>,
    /// Flattened fanin lists (node indices), in pin order.
    fanin_nodes: Vec<u32>,
    /// Every non-input node, in topological order.
    gates: Vec<u32>,
    /// The primary-input node of each input position.
    inputs: Vec<u32>,
    /// The node observed on each output slot.
    outputs: Vec<u32>,
}

impl<'a> ThreevalKernel<'a> {
    /// Queries answered by one pass: the lanes of a word.
    pub const LANES: usize = 64;

    /// Prepares the kernel for `netlist` from the simulator built for
    /// it (whose cone arena bounds every faulty re-evaluation).
    ///
    /// # Panics
    ///
    /// Panics if `sim` was not built for `netlist`.
    #[must_use]
    pub fn new(netlist: &'a Netlist, sim: &'a FaultSimulator) -> Self {
        assert_eq!(
            sim.space().num_inputs(),
            netlist.num_inputs(),
            "wrong netlist"
        );
        let n = netlist.num_nodes();
        let mut kinds = Vec::with_capacity(n);
        let mut fanin_offsets = Vec::with_capacity(n + 1);
        let mut fanin_nodes = Vec::new();
        fanin_offsets.push(0u32);
        for i in 0..n {
            let node = netlist.node(NodeId::new(i));
            kinds.push(node.kind());
            fanin_nodes.extend(node.fanins().iter().map(|f| f.index() as u32));
            fanin_offsets.push(fanin_nodes.len() as u32);
        }
        let index = |id: &NodeId| id.index() as u32;
        ThreevalKernel {
            netlist,
            sim,
            kinds,
            fanin_offsets,
            fanin_nodes,
            gates: netlist
                .topo_order()
                .iter()
                .filter(|&&id| netlist.node(id).kind() != GateKind::Input)
                .map(index)
                .collect(),
            inputs: netlist.inputs().iter().map(index).collect(),
            outputs: netlist.outputs().iter().map(index).collect(),
        }
    }

    /// Allocates one worker's scratch (four words per node, from the
    /// `rows` data plane).
    #[must_use]
    pub fn new_scratch(&self) -> ThreevalScratch {
        let n = self.kinds.len();
        ThreevalScratch {
            good: zeroed_words(2 * n),
            faulty: zeroed_words(2 * n),
            live: 0,
            batches: 0,
            lanes: 0,
        }
    }

    #[inline]
    fn fanins(&self, node: usize) -> &[u32] {
        let lo = self.fanin_offsets[node] as usize;
        let hi = self.fanin_offsets[node + 1] as usize;
        &self.fanin_nodes[lo..hi]
    }

    /// Which lanes' common-bits vectors definitely detect `fault`: bit
    /// `l` of the result is set iff the common-bits vector of
    /// `pairs[l] = (s, t)` detects it ([`threeval_detects_stuck`] on
    /// [`PartialVector::common_bits`]). The query is symmetric in `s`
    /// and `t`; bits at and above `pairs.len()` are clear.
    ///
    /// Equivalent to [`Self::load`] followed by [`Self::detects_loaded`]
    /// on every loaded lane.
    ///
    /// # Panics
    ///
    /// Panics if more than [`Self::LANES`] pairs are given, or if a test
    /// lies outside the netlist's input space.
    pub fn detects_common_bits(
        &self,
        fault: StuckAtFault,
        pairs: &[(u32, u32)],
        scratch: &mut ThreevalScratch,
    ) -> u64 {
        self.load(pairs, scratch);
        self.detects_loaded(fault, u64::MAX, scratch)
    }

    /// Loads one test pair per lane and simulates the fault-free
    /// circuit on their common-bits vectors. Any number of target faults
    /// can then be judged on these lanes with [`Self::detects_loaded`],
    /// sharing this fault-free pass.
    ///
    /// # Panics
    ///
    /// Panics if more than [`Self::LANES`] pairs are given, or if a test
    /// lies outside the netlist's input space.
    pub fn load(&self, pairs: &[(u32, u32)], scratch: &mut ThreevalScratch) {
        assert!(pairs.len() <= Self::LANES, "at most 64 lanes per pass");
        if pairs.is_empty() {
            scratch.live = 0;
            return;
        }
        scratch.live = u64::MAX >> (Self::LANES - pairs.len());
        self.eval_good(pairs, &mut scratch.good);
    }

    /// Which of the loaded lanes in `lanes` definitely detect `fault`
    /// (see [`Self::detects_common_bits`]); bits outside `lanes` and
    /// outside the loaded lanes are clear.
    pub fn detects_loaded(
        &self,
        fault: StuckAtFault,
        lanes: u64,
        scratch: &mut ThreevalScratch,
    ) -> u64 {
        let live = lanes & scratch.live;
        if live == 0 {
            return 0;
        }
        scratch.batches += 1;
        scratch.lanes += u64::from(live.count_ones());
        let stuck = stuck_rails(fault.value);
        let det = match *self.netlist.lines().line(fault.line).kind() {
            LineKind::Stem { node } => self.propagate(node.index(), stuck, live, scratch),
            LineKind::Branch {
                sink: Sink::GatePin { gate, pin },
                ..
            } => {
                let g = gate.index();
                let good = &scratch.good;
                let root = eval_rails(self.kinds[g], self.fanins(g), |p, f| {
                    if p == pin {
                        stuck
                    } else {
                        (good[2 * f as usize], good[2 * f as usize + 1])
                    }
                });
                self.propagate(g, root, live, scratch)
            }
            // Only that output observation is faulty: detected where
            // the fault-free driver is definitely the opposite value.
            LineKind::Branch {
                node,
                sink: Sink::OutputSlot { .. },
            } => scratch.good[2 * node.index() + usize::from(fault.value)],
        };
        det & live
    }

    /// Loads the lanes' common bits onto the primary inputs and
    /// evaluates every gate fault-free, in topological order.
    fn eval_good(&self, pairs: &[(u32, u32)], good: &mut [u64]) {
        // Transpose lanes onto input bits: vector bit `b` is specified
        // as 1 in lane `l` where both tests have it set, as 0 where
        // both have it clear. Walking only the specified bits costs
        // about `I / 2` steps per lane.
        let num_inputs = self.inputs.len();
        let mask = (1u64 << num_inputs) - 1;
        let mut one_bits = [0u64; MAX_EXHAUSTIVE_INPUTS];
        let mut zero_bits = [0u64; MAX_EXHAUSTIVE_INPUTS];
        for (lane, &(s, t)) in pairs.iter().enumerate() {
            let lane_bit = 1u64 << lane;
            let (s, t) = (u64::from(s), u64::from(t));
            assert!((s | t) & !mask == 0, "test vector out of range");
            let mut ones = s & t;
            while ones != 0 {
                one_bits[ones.trailing_zeros() as usize] |= lane_bit;
                ones &= ones - 1;
            }
            let mut zeros = !(s | t) & mask;
            while zeros != 0 {
                zero_bits[zeros.trailing_zeros() as usize] |= lane_bit;
                zeros &= zeros - 1;
            }
        }
        for (i, &pi) in self.inputs.iter().enumerate() {
            // Input `i` is bit `I-1-i` of a vector index.
            let bit = num_inputs - 1 - i;
            good[2 * pi as usize] = one_bits[bit];
            good[2 * pi as usize + 1] = zero_bits[bit];
        }
        for &g in &self.gates {
            let g = g as usize;
            let (one, zero) = eval_rails(self.kinds[g], self.fanins(g), |_, f| {
                (good[2 * f as usize], good[2 * f as usize + 1])
            });
            good[2 * g] = one;
            good[2 * g + 1] = zero;
        }
    }

    /// Re-evaluates `root`'s fanout cone with `root` forced to `rails`
    /// and returns the detection word over every output slot (outputs
    /// outside the cone keep their fault-free rails and contribute
    /// nothing). A root that matches its fault-free value on every live
    /// lane ends the pass at once.
    fn propagate(
        &self,
        root: usize,
        rails: Rails,
        live: u64,
        scratch: &mut ThreevalScratch,
    ) -> u64 {
        let ThreevalScratch { good, faulty, .. } = scratch;
        let good_of = |i: usize| (good[2 * i], good[2 * i + 1]);
        if !rails_differ(rails, good_of(root), live) {
            return 0;
        }
        // Faulty rails start as a copy of the fault-free ones, so gates
        // read every operand from one table.
        faulty.copy_from_slice(good);
        faulty[2 * root] = rails.0;
        faulty[2 * root + 1] = rails.1;
        for &g in self.sim.cone(NodeId::new(root)) {
            let g = g.index();
            let (one, zero) = eval_rails(self.kinds[g], self.fanins(g), |_, f| {
                (faulty[2 * f as usize], faulty[2 * f as usize + 1])
            });
            faulty[2 * g] = one;
            faulty[2 * g + 1] = zero;
        }
        let mut det = 0;
        for &po in &self.outputs {
            let po = po as usize;
            let (g1, g0) = good_of(po);
            det |= (g1 & faulty[2 * po + 1]) | (g0 & faulty[2 * po]);
        }
        det
    }
}

/// One worker's mutable state for [`ThreevalKernel`]: fault-free and
/// faulty rails per node and the worker's pass counters. Reused across
/// every query, so a pass allocates nothing.
#[derive(Clone, Debug)]
pub struct ThreevalScratch {
    /// Fault-free rails, `one` at `2i` and `zero` at `2i + 1`.
    good: Vec<u64>,
    /// Faulty rails, same layout.
    faulty: Vec<u64>,
    /// The lanes of the last [`ThreevalKernel::load`].
    live: u64,
    batches: u64,
    lanes: u64,
}

impl ThreevalScratch {
    /// `(passes, lanes)` run through this scratch since the last
    /// [`Self::publish_counts`]: one pass per fault judged, one lane
    /// per test pair it was judged on.
    #[must_use]
    pub fn counts(&self) -> (u64, u64) {
        (self.batches, self.lanes)
    }

    /// Adds this worker's pass and lane counts to the
    /// `def2_kernel_batches_total` and `def2_kernel_lanes_total`
    /// counters of the global metrics registry, once, and resets them.
    pub fn publish_counts(&mut self) {
        let registry = ndetect_obs::global();
        registry
            .counter("def2_kernel_batches_total")
            .add(std::mem::take(&mut self.batches));
        registry
            .counter("def2_kernel_lanes_total")
            .add(std::mem::take(&mut self.lanes));
    }
}
