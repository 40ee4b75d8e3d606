//! Determinism of the multi-threaded fault-simulation engine: every
//! parallel path (fault-parallel universe builds, threaded nmin
//! analysis) must produce results bit-identical to the 1-thread run.

use ndetect::analysis::WorstCaseAnalysis;
use ndetect::faults::{FaultUniverse, UniverseOptions};
use ndetect_testutil::arb_netlist;
use proptest::prelude::*;

fn universe_with_threads(netlist: &ndetect::netlist::Netlist, threads: usize) -> FaultUniverse {
    FaultUniverse::build_with(netlist, UniverseOptions::with_threads(threads))
        .expect("circuit fits exhaustive simulation")
}

/// Asserts that two universes carry identical faults and detection sets.
fn assert_universes_identical(a: &FaultUniverse, b: &FaultUniverse, label: &str) {
    assert_eq!(a.targets(), b.targets(), "{label}: target fault lists");
    assert_eq!(a.target_sets(), b.target_sets(), "{label}: target sets");
    assert_eq!(a.bridges(), b.bridges(), "{label}: bridge fault lists");
    assert_eq!(a.bridge_sets(), b.bridge_sets(), "{label}: bridge sets");
    assert_eq!(
        a.num_undetectable_bridges(),
        b.num_undetectable_bridges(),
        "{label}: undetectable count"
    );
}

#[test]
fn universe_build_is_thread_count_invariant_on_suite_circuits() {
    // Two suite circuits of different widths: dk16 is a single-block
    // space (7 bits), keyb a 64-block space (12 bits).
    for name in ["dk16", "keyb"] {
        let netlist = ndetect::circuits::build(name).expect("suite circuit builds");
        let serial = universe_with_threads(&netlist, 1);
        let parallel = universe_with_threads(&netlist, 4);
        assert_universes_identical(&serial, &parallel, name);

        // The nmin vectors derived from the universes agree too, and the
        // threaded nmin pass agrees with the serial one.
        let wc1 = WorstCaseAnalysis::compute_with(&serial, 1);
        let wc4 = WorstCaseAnalysis::compute_with(&parallel, 4);
        assert_eq!(wc1.nmin_values(), wc4.nmin_values(), "{name}: nmin");

        // A per-fault simulation reproduces the universe's stored sets.
        let sim = serial.simulator();
        for (j, fault) in serial.bridges().iter().enumerate().take(40) {
            let set = sim.detection_set_bridge(&netlist, fault);
            assert_eq!(&set, serial.bridge_set(j), "{name}: bridge {j} vs universe");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Universe builds on random netlists are identical for 1 and 3
    /// worker threads (3 deliberately does not divide typical fault
    /// counts, exercising uneven tiles).
    #[test]
    fn universe_build_is_thread_count_invariant_on_random_netlists(
        netlist in arb_netlist(6),
    ) {
        let serial = universe_with_threads(&netlist, 1);
        let parallel = universe_with_threads(&netlist, 3);
        assert_universes_identical(&serial, &parallel, netlist.name());
        let wc1 = WorstCaseAnalysis::compute_with(&serial, 1);
        let wc3 = WorstCaseAnalysis::compute_with(&parallel, 3);
        prop_assert_eq!(wc1.nmin_values(), wc3.nmin_values());
    }
}
