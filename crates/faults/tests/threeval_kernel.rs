//! Differential suite for the two-rail three-valued kernel: every lane
//! of [`ThreevalKernel::detects_common_bits`] must equal the scalar
//! oracle [`threeval_detects_stuck`] on the same common-bits vector, for
//! every stuck-at fault and at 1, 37 and 64 lanes per pass.

use ndetect_circuits::{extra, figure1};
use ndetect_faults::{
    all_stuck_at_faults, threeval_detects_stuck, FaultSimulator, StuckAtFault, ThreevalKernel,
};
use ndetect_netlist::{GateKind, LineKind, Netlist, NetlistBuilder, Sink};
use ndetect_sim::PartialVector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LANE_COUNTS: [usize; 3] = [1, 37, 64];

/// Test pairs over the netlist's space: every pair when the space is
/// small, otherwise `limit` seeded random pairs (including `s == t`).
fn pairs_for(netlist: &Netlist, limit: usize, seed: u64) -> Vec<(u32, u32)> {
    let patterns = 1u32 << netlist.num_inputs();
    if u64::from(patterns) * u64::from(patterns) <= limit as u64 {
        return (0..patterns)
            .flat_map(|s| (0..patterns).map(move |t| (s, t)))
            .collect();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    (0..limit)
        .map(|_| (rng.gen_range(0..patterns), rng.gen_range(0..patterns)))
        .collect()
}

/// Asserts kernel == oracle for every stuck-at fault of `netlist`, every
/// pair, and every lane count; returns the number of detecting lanes
/// (so callers can check the comparison was not vacuous).
fn check_against_oracle(netlist: &Netlist, pairs: &[(u32, u32)]) -> usize {
    let sim = FaultSimulator::new(netlist).expect("small circuit");
    let space = *sim.space();
    let kernel = ThreevalKernel::new(netlist, &sim);
    let mut scratch = kernel.new_scratch();
    let mut detecting = 0;
    for fault in all_stuck_at_faults(netlist) {
        let want: Vec<bool> = pairs
            .iter()
            .map(|&(s, t)| {
                let tij = PartialVector::common_bits(&space, s as usize, t as usize);
                threeval_detects_stuck(netlist, fault, &tij)
            })
            .collect();
        detecting += want.iter().filter(|&&d| d).count();
        for lanes in LANE_COUNTS {
            for (chunk, want) in pairs.chunks(lanes).zip(want.chunks(lanes)) {
                let det = kernel.detects_common_bits(fault, chunk, &mut scratch);
                if chunk.len() < 64 {
                    assert_eq!(det >> chunk.len(), 0, "dead lanes must be clear");
                }
                for (lane, (&pair, &w)) in chunk.iter().zip(want).enumerate() {
                    assert_eq!(
                        (det >> lane) & 1 == 1,
                        w,
                        "fault {} pair {pair:?} at {lanes} lanes",
                        fault.name(netlist)
                    );
                }
            }
        }
    }
    detecting
}

#[test]
fn kernel_matches_oracle_on_figure1() {
    let n = figure1::netlist();
    assert!(check_against_oracle(&n, &pairs_for(&n, 4096, 1)) > 0);
}

#[test]
fn kernel_matches_oracle_on_c17() {
    let n = extra::c17();
    assert!(check_against_oracle(&n, &pairs_for(&n, 4096, 2)) > 0);
}

/// XOR/XNOR (whose outputs go X on any X operand), both constants, NOT
/// and BUF, a primary input observed directly (so its stem fault
/// reaches an output slot with no gate in between) and a gate driving
/// two output slots.
#[test]
fn kernel_matches_oracle_on_every_gate_kind() {
    let n = every_kind();
    assert!(check_against_oracle(&n, &pairs_for(&n, 4096, 3)) > 0);
}

fn every_kind() -> Netlist {
    let mut b = NetlistBuilder::new("kinds");
    let a = b.input("a");
    let c = b.input("c");
    let d = b.input("d");
    let k0 = b.gate(GateKind::Const0, "k0", &[]).unwrap();
    let k1 = b.gate(GateKind::Const1, "k1", &[]).unwrap();
    let x = b.xor("x", &[a, c, d]).unwrap();
    let xn = b.gate(GateKind::Xnor, "xn", &[x, k1]).unwrap();
    let o = b.or("o", &[xn, k0]).unwrap();
    let nb = b.not("nb", o).unwrap();
    let bf = b.buf("bf", nb).unwrap();
    let nr = b.nor("nr", &[bf, a]).unwrap();
    let na = b.nand("na", &[nr, k1, c]).unwrap();
    b.output(na);
    b.output(a);
    b.output(xn);
    b.output(xn);
    b.build().unwrap()
}

/// A gate with the same fanin on two pins: a fault on one pin's branch
/// must override that pin only.
#[test]
fn kernel_matches_oracle_on_a_repeated_fanin() {
    let mut b = NetlistBuilder::new("repeat");
    let a = b.input("a");
    let c = b.input("c");
    let g = b.and("g", &[a, a, c]).unwrap();
    let h = b.xor("h", &[g, g]).unwrap();
    let o = b.or("o", &[h, a]).unwrap();
    b.output(o);
    b.output(g);
    let n = b.build().unwrap();
    let pin_faults = all_stuck_at_faults(&n)
        .into_iter()
        .filter(|f| {
            matches!(
                n.lines().line(f.line).kind(),
                LineKind::Branch {
                    sink: Sink::GatePin { .. },
                    ..
                }
            )
        })
        .count();
    assert!(
        pin_faults >= 4,
        "the repeated fanin must split into branches"
    );
    assert!(check_against_oracle(&n, &pairs_for(&n, 4096, 4)) > 0);
}

/// A stuck primary-input stem and a branch feeding an output slot are
/// the two injection sites that bypass gate evaluation at the root.
#[test]
fn kernel_covers_pi_stems_and_output_slot_branches() {
    let n = every_kind();
    let sim = FaultSimulator::new(&n).unwrap();
    let space = *sim.space();
    let kernel = ThreevalKernel::new(&n, &sim);
    let mut scratch = kernel.new_scratch();
    let faults = all_stuck_at_faults(&n);
    let site = |f: &&StuckAtFault| *n.lines().line(f.line).kind();
    let pi_stem = faults
        .iter()
        .find(|f| matches!(site(f), LineKind::Stem { node } if n.inputs().contains(&node)))
        .expect("a PI stem fault");
    let slot_branch = faults
        .iter()
        .find(|f| {
            matches!(
                site(f),
                LineKind::Branch {
                    sink: Sink::OutputSlot { .. },
                    ..
                }
            )
        })
        .expect("an output-slot branch fault");
    let pairs = pairs_for(&n, 4096, 5);
    for fault in [*pi_stem, *slot_branch] {
        let mut detecting = 0;
        for chunk in pairs.chunks(64) {
            let det = kernel.detects_common_bits(fault, chunk, &mut scratch);
            for (lane, &(s, t)) in chunk.iter().enumerate() {
                let tij = PartialVector::common_bits(&space, s as usize, t as usize);
                assert_eq!(
                    (det >> lane) & 1 == 1,
                    threeval_detects_stuck(&n, fault, &tij)
                );
            }
            detecting += det.count_ones();
        }
        assert!(detecting > 0, "fault {} never detected", fault.name(&n));
    }
}

/// One fault-free load serves many faults: judging a fault on a subset
/// of the loaded lanes equals the full answer masked to that subset.
#[test]
fn loaded_lanes_serve_every_fault_and_mask() {
    let n = extra::c17();
    let sim = FaultSimulator::new(&n).unwrap();
    let kernel = ThreevalKernel::new(&n, &sim);
    let mut scratch = kernel.new_scratch();
    let pairs = pairs_for(&n, 4096, 7);
    let faults = all_stuck_at_faults(&n);
    let masks = [u64::MAX, 1, 0x8000_0000_0000_0001, 0x0F0F_F0F0_1234_5678, 0];
    for chunk in pairs.chunks(53) {
        let full: Vec<u64> = faults
            .iter()
            .map(|&f| kernel.detects_common_bits(f, chunk, &mut scratch))
            .collect();
        kernel.load(chunk, &mut scratch);
        for (&fault, &want) in faults.iter().zip(&full) {
            for mask in masks {
                assert_eq!(
                    kernel.detects_loaded(fault, mask, &mut scratch),
                    want & mask
                );
            }
        }
    }
}

/// The query is symmetric in the two tests of a pair.
#[test]
fn kernel_is_symmetric_in_the_pair() {
    let n = extra::c17();
    let sim = FaultSimulator::new(&n).unwrap();
    let kernel = ThreevalKernel::new(&n, &sim);
    let mut scratch = kernel.new_scratch();
    let pairs = pairs_for(&n, 4096, 6);
    let swapped: Vec<(u32, u32)> = pairs.iter().map(|&(s, t)| (t, s)).collect();
    for fault in all_stuck_at_faults(&n) {
        for (a, b) in pairs.chunks(64).zip(swapped.chunks(64)) {
            assert_eq!(
                kernel.detects_common_bits(fault, a, &mut scratch),
                kernel.detects_common_bits(fault, b, &mut scratch)
            );
        }
    }
}

#[test]
#[should_panic(expected = "test vector out of range")]
fn kernel_rejects_tests_outside_the_input_space() {
    let n = figure1::netlist();
    let sim = FaultSimulator::new(&n).unwrap();
    let kernel = ThreevalKernel::new(&n, &sim);
    let mut scratch = kernel.new_scratch();
    let outside = 1u32 << n.num_inputs();
    kernel.load(&[(outside, outside)], &mut scratch);
}

#[test]
fn kernel_counts_passes_and_lanes() {
    let n = figure1::netlist();
    let sim = FaultSimulator::new(&n).unwrap();
    let kernel = ThreevalKernel::new(&n, &sim);
    let mut scratch = kernel.new_scratch();
    let fault = all_stuck_at_faults(&n)[0];
    kernel.detects_common_bits(fault, &[(1, 2); 37], &mut scratch);
    kernel.detects_common_bits(fault, &[(3, 4); 64], &mut scratch);
    assert_eq!(kernel.detects_common_bits(fault, &[], &mut scratch), 0);
    assert_eq!(scratch.counts(), (2, 101));
    // Publishing moves the worker's counts into the global registry
    // (no other test in this binary publishes) and resets them.
    let global = |name| ndetect_obs::global().counter(name).get();
    let before = (
        global("def2_kernel_batches_total"),
        global("def2_kernel_lanes_total"),
    );
    scratch.publish_counts();
    assert_eq!(scratch.counts(), (0, 0));
    assert_eq!(
        (
            global("def2_kernel_batches_total") - before.0,
            global("def2_kernel_lanes_total") - before.1
        ),
        (2, 101)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random DAGs with reconvergence and wide fanout: re-evaluating
    /// only the fault site's cone must never miss an observable
    /// difference.
    #[test]
    fn kernel_matches_oracle_on_random_netlists(
        netlist in ndetect_testutil::arb_netlist_sized(7, 24),
        seed in any::<u64>(),
    ) {
        check_against_oracle(&netlist, &pairs_for(&netlist, 300, seed));
    }
}
