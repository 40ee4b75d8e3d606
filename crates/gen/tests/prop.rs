//! Property suite for the n-detection generator, verified against the
//! **full-cone oracle** (the retained reference kernel) rather than the
//! event-driven detection sets the generator itself consumes — so a
//! kernel bug and a generator bug cannot cancel out:
//!
//! * for every suite circuit and `n ∈ {1, 3, 10}`, the generated set
//!   detects each target fault `min(n, |T(f)|)` times;
//! * compaction never breaks the property and never grows the set;
//! * `|T|` at `n = 1` stays at or below the exhaustive-space size on
//!   all three corpus circuits;
//! * the same properties hold on randomly generated netlists, seeded
//!   and unseeded;
//! * the generated vectors equal, in order, those of a naive greedy
//!   that recounts every gain from scratch each round — on every suite
//!   circuit, `figure1`, `c17` and random netlists, for every thread
//!   count and memory budget.

use ndetect_faults::{FaultUniverse, UniverseOptions};
use ndetect_gen::{compact, generate, GenOptions};
use ndetect_netlist::{bench_format, Netlist};
use ndetect_sim::{MemoryBudget, VectorSet};
use ndetect_testutil::arb_netlist_sized;
use proptest::prelude::*;
use std::path::PathBuf;

/// Builds the targets-only universe (bridging faults are irrelevant to
/// the n-detection requirement and dominate build time).
fn targets_universe(netlist: &Netlist) -> FaultUniverse {
    FaultUniverse::build_with(
        netlist,
        UniverseOptions {
            include_bridges: false,
            ..UniverseOptions::default()
        },
    )
    .expect("circuit fits exhaustive simulation")
}

/// Recomputes every target detection set through the full-cone
/// reference kernel.
fn full_cone_oracle(netlist: &Netlist, universe: &FaultUniverse) -> Vec<VectorSet> {
    universe
        .targets()
        .iter()
        .map(|&f| {
            universe
                .simulator()
                .detection_set_stuck_full_cone(netlist, f)
        })
        .collect()
}

/// Asserts the n-detection property of `members` against the oracle
/// sets: every target detected `min(n, |T(f)|)` times.
fn assert_oracle_property(
    circuit: &str,
    n: u32,
    oracle: &[VectorSet],
    members: &VectorSet,
    label: &str,
) {
    for (fi, t_f) in oracle.iter().enumerate() {
        let want = t_f.len().min(n as usize);
        let got = t_f.intersection_count(members);
        assert!(
            got >= want,
            "{circuit}: {label} set detects target {fi} only {got} < {want} times at n={n}"
        );
    }
}

#[test]
fn every_suite_circuit_meets_the_oracle_requirement() {
    for spec in ndetect_circuits::suite() {
        let netlist = ndetect_circuits::build(spec.name()).expect("suite circuit builds");
        let universe = targets_universe(&netlist);
        let oracle = full_cone_oracle(&netlist, &universe);
        for n in [1u32, 3, 10] {
            let raw = generate(&universe, &GenOptions::with_n(n));
            assert!(raw.satisfies(&universe), "{}: n={n}", spec.name());
            assert_oracle_property(spec.name(), n, &oracle, raw.as_vector_set(), "raw");

            let mut compacted = raw.clone();
            let removed = compact(&mut compacted, &universe);
            assert_eq!(compacted.len() + removed, raw.len());
            assert!(compacted.satisfies(&universe), "{}: n={n}", spec.name());
            assert_oracle_property(
                spec.name(),
                n,
                &oracle,
                compacted.as_vector_set(),
                "compacted",
            );
        }
    }
}

/// The seeded tie-breaking rank of `generate` (SplitMix64 finalizer of
/// `seed ^ v·φ`); unseeded ties go to the smallest vector index.
fn tie_rank(seed: Option<u64>, v: usize) -> u64 {
    let Some(seed) = seed else {
        return v as u64;
    };
    let mut z = seed ^ (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Naive greedy set cover, the differential oracle for `generate`:
/// each round recounts, from scratch, every unchosen vector's gain —
/// the number of still-deficient targets whose `T(f)` contains it —
/// and takes the highest gain, ties broken by [`tie_rank`].
fn naive_greedy(universe: &FaultUniverse, n: u32, seed: Option<u64>) -> Vec<u32> {
    let targets = universe.target_sets();
    let num_patterns = universe.space().num_patterns();
    let mut deficit: Vec<usize> = targets.iter().map(|t| t.len().min(n as usize)).collect();
    let mut chosen = VectorSet::new(num_patterns);
    let mut order = Vec::new();
    while deficit.iter().any(|&d| d > 0) {
        let mut gain = vec![0u32; num_patterns];
        for (t_f, &d) in targets.iter().zip(&deficit) {
            if d == 0 {
                continue;
            }
            for (b, (&t, &c)) in t_f.words().iter().zip(chosen.words()).enumerate() {
                let mut word = t & !c;
                while word != 0 {
                    gain[b * 64 + word.trailing_zeros() as usize] += 1;
                    word &= word - 1;
                }
            }
        }
        let best = (0..num_patterns)
            .filter(|&v| gain[v] > 0)
            .min_by_key(|&v| (std::cmp::Reverse(gain[v]), tie_rank(seed, v)))
            .expect("a deficient target has an unchosen vector left");
        chosen.insert(best);
        order.push(best as u32);
        for (t_f, d) in targets.iter().zip(&mut deficit) {
            if *d > 0 && t_f.contains(best) {
                *d -= 1;
            }
        }
    }
    order
}

/// The `(n, seed)` cases the generator is checked on.
const CASES: [(u32, Option<u64>); 6] = [
    (1, None),
    (3, None),
    (10, None),
    (1, Some(7)),
    (3, Some(7)),
    (10, Some(7)),
];

/// The thread counts and memory budgets `generate` must be invariant
/// under.
const KNOBS: [(usize, MemoryBudget); 6] = [
    (1, MemoryBudget::Unbounded),
    (2, MemoryBudget::Unbounded),
    (4, MemoryBudget::Unbounded),
    (1, MemoryBudget::Bytes(1)),
    (2, MemoryBudget::Bytes(1)),
    (4, MemoryBudget::Bytes(1)),
];

/// Asserts that `generate` returns the naive greedy's vectors for every
/// `(n, seed)` case under every (threads, budget) knob.
fn assert_matches_naive(
    name: &str,
    universe: &FaultUniverse,
    cases: &[(u32, Option<u64>)],
    knobs: &[(usize, MemoryBudget)],
) {
    for &(n, seed) in cases {
        let want = naive_greedy(universe, n, seed);
        for &(threads, mem_budget) in knobs {
            let options = GenOptions {
                n,
                seed,
                threads,
                mem_budget,
                ..GenOptions::default()
            };
            assert_eq!(
                generate(universe, &options).vectors(),
                want.as_slice(),
                "{name}: n={n} seed={seed:?} threads={threads} budget={mem_budget}"
            );
        }
    }
}

#[test]
fn generate_matches_the_naive_greedy_on_every_registry_circuit() {
    let names = ndetect_circuits::suite()
        .into_iter()
        .map(|spec| spec.name().to_string())
        .chain(["figure1".to_string(), "c17".to_string()]);
    for (i, name) in names.enumerate() {
        let netlist = ndetect_circuits::build(&name).expect("registry circuit builds");
        let universe = targets_universe(&netlist);
        // The naive oracle costs a full recount per round, so the
        // widest circuits (8k+ vectors) take one (n, seed) case each and
        // circuits beyond 4 blocks one knob each, both rotating through
        // every entry across the registry; random netlists below take
        // the full cross product.
        let blocks = universe.space().num_blocks();
        let cases = if blocks < 128 {
            &CASES[..]
        } else {
            std::slice::from_ref(&CASES[i % CASES.len()])
        };
        let knobs = if blocks <= 4 {
            &KNOBS[..]
        } else {
            std::slice::from_ref(&KNOBS[i % KNOBS.len()])
        };
        assert_matches_naive(&name, &universe, cases, knobs);
    }
}

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/corpus")
}

#[test]
fn corpus_one_detection_sets_beat_the_exhaustive_baseline() {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("corpus directory exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "bench"))
        .collect();
    paths.sort();
    assert_eq!(paths.len(), 4, "four corpus circuits");
    let mut combinational = 0;
    for path in paths {
        let name = path.file_stem().and_then(|s| s.to_str()).expect("utf8");
        let text = std::fs::read_to_string(&path).expect("corpus file readable");
        // The sequential fixture (s27) is exercised through its
        // time-frame expansion elsewhere; this oracle is combinational.
        let netlist = match bench_format::parse(name, &text) {
            Ok(n) => n,
            Err(ndetect_netlist::NetlistError::Sequential { .. }) => continue,
            Err(e) => panic!("corpus file parses: {e}"),
        };
        combinational += 1;
        let universe = targets_universe(&netlist);
        let oracle = full_cone_oracle(&netlist, &universe);
        let set = generate(
            &universe,
            &GenOptions {
                n: 1,
                compact: true,
                ..GenOptions::default()
            },
        );
        assert_oracle_property(name, 1, &oracle, set.as_vector_set(), "compacted");
        // The exhaustive space is the trivial 1-detection set; the
        // generated set must never be larger (and on these circuits it
        // is far smaller).
        let exhaustive = universe.space().num_patterns();
        assert!(
            set.len() <= exhaustive,
            "{name}: |T| = {} > |U| = {exhaustive}",
            set.len()
        );
        assert!(
            set.len() * 2 <= exhaustive,
            "{name}: a compact 1-detection set should be well below |U| ({} vs {exhaustive})",
            set.len()
        );
    }
    assert_eq!(combinational, 3, "three combinational corpus circuits");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_netlists_meet_the_oracle_requirement(
        netlist in arb_netlist_sized(5, 16),
        n in 1u32..=4,
        seed_raw in any::<u64>(),
    ) {
        // The vendored proptest has no Option strategy; derive one.
        let seed = (seed_raw % 2 == 1).then_some(seed_raw);
        let universe = targets_universe(&netlist);
        let oracle = full_cone_oracle(&netlist, &universe);
        let options = GenOptions { n, seed, ..GenOptions::default() };
        let raw = generate(&universe, &options);
        prop_assert!(raw.satisfies(&universe));
        assert_oracle_property(netlist.name(), n, &oracle, raw.as_vector_set(), "raw");

        let mut compacted = raw.clone();
        let removed = compact(&mut compacted, &universe);
        prop_assert_eq!(compacted.len() + removed, raw.len());
        prop_assert!(compacted.satisfies(&universe));
        assert_oracle_property(netlist.name(), n, &oracle, compacted.as_vector_set(), "compacted");
    }

    #[test]
    fn random_netlists_match_the_naive_greedy(netlist in arb_netlist_sized(8, 16)) {
        let universe = targets_universe(&netlist);
        assert_matches_naive(netlist.name(), &universe, &CASES, &KNOBS);
    }

    #[test]
    fn warm_generation_is_bit_identical_to_cold(
        netlist in arb_netlist_sized(4, 10),
        n in 1u32..=3,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "ndetect-gen-prop-{}-{}",
            std::process::id(),
            netlist.name(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ndetect_store::Store::open(&dir).expect("temp store opens");
        let universe = targets_universe(&netlist);
        let options = GenOptions { n, compact: true, ..GenOptions::default() };
        let cold = ndetect_gen::generate_stored(&universe, &options, Some(&store));
        let warm = ndetect_gen::generate_stored(&universe, &options, Some(&store));
        prop_assert_eq!(&cold, &warm);
        prop_assert!(store.session_hits() >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
