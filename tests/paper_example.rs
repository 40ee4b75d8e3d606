//! Exact reproduction of the paper's running example (Figure 1,
//! Table 1, and the worked g0/g6 numbers). These assertions pin the
//! whole reproduction to the published ground truth: if any fault
//! semantics drifted, they would fail.

use ndetect::analysis::{report, WorstCaseAnalysis};
use ndetect::circuits::figure1;
use ndetect::faults::{FaultUniverse, StuckAtFault};

/// Paper Table 1, verbatim: (index, paper line, stuck value, T(f), nmin(g0,f)).
const TABLE1: &[(usize, usize, bool, &[usize], u32)] = &[
    (0, 1, true, &[4, 5, 6, 7], 3),
    (1, 2, false, &[6, 7, 12, 13, 14, 15], 5),
    (3, 3, false, &[2, 6, 7, 10, 14, 15], 5),
    (9, 8, false, &[2, 6, 10, 14], 4),
    (11, 9, true, &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 11),
    (12, 10, false, &[6, 7, 14, 15], 3),
    (
        14,
        11,
        false,
        &[1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15],
        11,
    ),
];

fn universe() -> FaultUniverse {
    FaultUniverse::build(&figure1::netlist()).expect("figure1 fits exhaustive simulation")
}

#[test]
fn collapsed_fault_list_has_papers_sixteen_entries() {
    let u = universe();
    assert_eq!(u.targets().len(), 16);
    let paper_order: Vec<(usize, bool)> = u
        .targets()
        .iter()
        .map(|f| (f.line.index() + 1, f.value))
        .collect();
    assert_eq!(
        paper_order,
        vec![
            (1, true),
            (2, false),
            (2, true),
            (3, false),
            (3, true),
            (4, false),
            (5, true),
            (6, true),
            (7, true),
            (8, false),
            (9, false),
            (9, true),
            (10, false),
            (10, true),
            (11, false),
            (11, true),
        ]
    );
}

#[test]
fn table1_detection_sets_and_nmin_pairs_match_exactly() {
    let u = universe();
    let g0 = u.find_bridge("9", false, "10", true).expect("g0");
    assert_eq!(u.bridge_set(g0).to_vec(), vec![6, 7]);

    let rows = report::table1(&u, g0);
    assert_eq!(rows.len(), TABLE1.len());
    for (row, &(idx, line, value, t, nmin)) in rows.iter().zip(TABLE1) {
        assert_eq!(row.index, idx);
        let fault = u.targets()[idx];
        assert_eq!(fault.line.index() + 1, line, "f{idx} line");
        assert_eq!(fault.value, value, "f{idx} value");
        assert_eq!(row.t_set, t, "T(f{idx})");
        assert_eq!(row.nmin, nmin, "nmin(g0,f{idx})");
    }
}

#[test]
fn worked_nmin_values_match_the_paper() {
    let u = universe();
    let wc = WorstCaseAnalysis::compute(&u);
    let g0 = u.find_bridge("9", false, "10", true).expect("g0");
    assert_eq!(wc.nmin(g0), Some(3));
    let g6 = u.find_bridge("11", false, "9", true).expect("g6");
    assert_eq!(u.bridge_set(g6).to_vec(), vec![12]);
    assert_eq!(wc.nmin(g6), Some(4));
}

#[test]
fn paper_worked_counterexample_for_f0() {
    // "it is possible to detect f0 twice, using vectors 4 and 5, without
    // detecting g0. A third detection requires vector 6 or 7."
    let u = universe();
    let f0 = StuckAtFault::new(ndetect::netlist::LineId::new(0), true);
    assert_eq!(u.targets()[0], f0);
    let t_f0 = u.target_set(0);
    let g0 = u.find_bridge("9", false, "10", true).expect("g0");
    let t_g0 = u.bridge_set(g0);

    let mut adversarial = ndetect::sim::TestSet::new(16);
    adversarial.push(4);
    adversarial.push(5);
    assert_eq!(adversarial.detection_count(t_f0), 2);
    assert!(!adversarial.detects(t_g0));
    // Any third distinct detection of f0 must come from {6,7} = T(g0).
    for v in t_f0.iter() {
        if !adversarial.contains(v) {
            assert!(t_g0.contains(v), "vector {v} would evade the guarantee");
        }
    }
}

#[test]
fn table4_structure_holds_for_k10() {
    // Table 4's content is RNG-dependent; its *structure* is asserted:
    // 10 valid 1-detection sets extended into 10 valid 2-detection sets.
    let u = universe();
    let config = ndetect::analysis::Procedure1Config {
        nmax: 2,
        num_test_sets: 10,
        seed: 1,
        ..Default::default()
    };
    let series = ndetect::analysis::construct_test_set_series(&u, &config).expect("valid config");
    assert_eq!(series.sets.len(), 2);
    for n in 1..=2usize {
        assert_eq!(series.sets[n - 1].len(), 10);
        for set in &series.sets[n - 1] {
            for t_f in u.target_sets() {
                assert!(set.detection_count(t_f) >= n.min(t_f.len()));
            }
        }
    }
}

#[test]
fn figure1_bridge_population_is_ten_detectable_of_twelve() {
    let u = universe();
    assert_eq!(u.bridges().len(), 10);
    assert_eq!(u.num_undetectable_bridges(), 2);
}
