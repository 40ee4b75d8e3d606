//! Byte-level pins for Procedure 1 under Definition 2.
//!
//! The fixtures under `tests/data/` were rendered by the scalar
//! three-valued implementation of Definition 2. Any faster query engine
//! must reproduce them exactly: the same random draws, the same accepted
//! candidates, the same `d(n, g)` counts — at every worker count.

use ndetect_circuits::{extra, figure1};
use ndetect_core::{
    construct_test_set_series, estimate_detection_probabilities, DetectionDefinition,
    Procedure1Config,
};
use ndetect_faults::FaultUniverse;
use ndetect_netlist::{Netlist, NetlistBuilder};
use std::fmt::Write;

const SERIES_FIXTURE: &str = include_str!("data/def2_series.txt");
const COUNTS_FIXTURE: &str = include_str!("data/def2_cse_counts.txt");

/// `g = AND(a, c)`: every target has at most three tests, so
/// Definition 2 falls back to Definition 1 from `n = 3` on.
fn and2() -> Netlist {
    let mut b = NetlistBuilder::new("and2");
    let a = b.input("a");
    let c = b.input("c");
    let g = b.and("g", &[a, c]).unwrap();
    b.output(g);
    b.build().unwrap()
}

fn def2(nmax: u32, num_test_sets: usize, threads: usize) -> Procedure1Config {
    Procedure1Config {
        nmax,
        num_test_sets,
        definition: DetectionDefinition::SufficientlyDifferent,
        threads,
        ..Default::default()
    }
}

/// One line per (circuit, n, k): the test set's vectors in insertion
/// order.
fn render_series(threads: usize) -> String {
    let cases: [(&str, Netlist, u32, usize); 3] = [
        ("figure1", figure1::netlist(), 5, 12),
        ("c17", extra::c17(), 6, 10),
        ("and2", and2(), 4, 16),
    ];
    let mut out = String::new();
    for (name, netlist, nmax, k) in cases {
        let universe = FaultUniverse::build(&netlist).unwrap();
        let series = construct_test_set_series(&universe, &def2(nmax, k, threads)).unwrap();
        for (n, row) in series.sets.iter().enumerate() {
            for (k, set) in row.iter().enumerate() {
                write!(out, "{name} n{} k{k}:", n + 1).unwrap();
                for v in set.vectors() {
                    write!(out, " {v}").unwrap();
                }
                out.push('\n');
            }
        }
    }
    out
}

/// One line per `n`: `d(n, g)` for every bridging fault of `cse`, as
/// `pos=d` for the faults some test set missed (every other fault has
/// `d = K`).
fn render_cse_counts(threads: usize) -> String {
    let netlist = ndetect_circuits::build("cse").unwrap();
    let universe = FaultUniverse::build(&netlist).unwrap();
    let tracked: Vec<usize> = (0..universe.bridges().len()).collect();
    let config = def2(4, 6, threads);
    let probs = estimate_detection_probabilities(&universe, &tracked, &config).unwrap();
    let k = config.num_test_sets;
    let mut out = format!("tracked {} K {k}\n", tracked.len());
    for n in 1..=config.nmax {
        write!(out, "n{n}:").unwrap();
        for pos in 0..tracked.len() {
            let d = (probs.probability(n, pos) * k as f64).round() as usize;
            if d != k {
                write!(out, " {pos}={d}").unwrap();
            }
        }
        out.push('\n');
    }
    out
}

#[test]
fn definition2_series_match_the_pinned_vectors() {
    // `construct_test_set_series` runs on the calling thread; the worker
    // count must not matter either way.
    for threads in [1, 4] {
        assert!(
            render_series(threads) == SERIES_FIXTURE,
            "Definition-2 test-set series diverged from tests/data/def2_series.txt \
             at threads = {threads}"
        );
    }
}

#[test]
fn definition2_cse_counts_match_the_pinned_counts() {
    // 0 resolves through `NDETECT_THREADS`, so CI legs pinning that
    // variable exercise their own schedule too.
    for threads in [1, 4, 0] {
        assert!(
            render_cse_counts(threads) == COUNTS_FIXTURE,
            "Definition-2 cse counts diverged from tests/data/def2_cse_counts.txt \
             at threads = {threads}"
        );
    }
}
