//! The three workloads: set-up, one pass over their circuits, and the
//! checks on every result a pass produces.
//!
//! A pass calls the library's public entry points back to back, each
//! inside a benchmark-side span named after its layer (see
//! [`crate::spans::LAYERS`]). Its time is the sum of those calls; the
//! checks that follow each circuit are not timed.

use crate::checks::{self, seeded_key, Recorded};
use ndetect_circuits::figure1;
use ndetect_core::{
    estimate_detection_probabilities, estimate_detection_probabilities_stored, DetectionDefinition,
    DetectionProbabilities, Procedure1Config, WorstCaseAnalysis,
};
use ndetect_faults::{FaultUniverse, UniverseOptions};
use ndetect_gen::{compact, generate, generate_stored, GenOptions, GeneratedSet};
use ndetect_netlist::Netlist;
use ndetect_obs::trace;
use ndetect_sim::MemoryBudget;
use ndetect_store::{fnv1a64, Store};
use std::path::Path;
use std::time::Instant;

/// Procedure 1 builds up to this `n`, as in the paper.
const NMAX: u32 = 10;
/// The tracked faults are those with `nmin >= TAIL`, the CLI's default.
const TAIL: u32 = NMAX + 1;
/// Test sets per Procedure-1 run under Definition 1 (the paper's Table 6).
const DEF1_K: usize = 1000;
/// Test sets per Procedure-1 run under Definition 2 (the paper's Table 4).
const DEF2_K: usize = 10;
/// `n` of the cold pass's generated set.
const COLD_N: u32 = 10;
/// `n` values of the warm pass's generated sets.
const WARM_NS: [u32; 3] = [1, 5, 10];

/// A named workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// `stats`, `worst`, `average --def 1` and `gen` against an emptied store.
    PaperCold,
    /// Procedure 1 under Definition 2 on prepared universes, no store.
    Def2Average,
    /// Store hits for the universes, then uncached generation.
    WarmGenerate,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::PaperCold, Kind::Def2Average, Kind::WarmGenerate];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperCold => "paper-cold",
            Kind::Def2Average => "def2-average",
            Kind::WarmGenerate => "warm-generate",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn circuits(self) -> &'static [&'static str] {
        match self {
            Kind::PaperCold | Kind::WarmGenerate => &["cse", "s1a", "fetch", "rie"],
            Kind::Def2Average => &["cse", "s1a"],
        }
    }

    fn uses_store(self) -> bool {
        self != Kind::Def2Average
    }
}

/// Time of each step, the result behind one `ndet` command, summed
/// over a pass's circuits (seconds).
#[derive(Clone, Copy, Default, Debug)]
pub struct Steps {
    pub stats: f64,
    pub worst: f64,
    pub average_def1: f64,
    pub average_def2: f64,
    pub gen: f64,
}

impl Steps {
    pub fn total(&self) -> f64 {
        self.stats + self.worst + self.average_def1 + self.average_def2 + self.gen
    }
}

/// Work a pass did, counted at the layer boundaries.
#[derive(Clone, Copy, Default, Debug)]
pub struct Work {
    /// Faults (targets and bridges) in universes built from scratch.
    pub faults_built: u64,
    /// `|F| * |G|` over the `nmin` computations.
    pub pairs: u64,
    /// `|F| * |G| * words per detection set`: the words an unpruned
    /// `nmin` scan would read.
    pub pair_words: u64,
    /// Tracked faults over the Procedure-1 runs.
    pub tracked: u64,
    /// Definition-2 test sets built.
    pub def2_test_sets: u64,
    /// Vectors in the generated (and compacted) sets.
    pub vectors: u64,
    /// Vectors removed by explicit `compact` calls.
    pub compact_removed: u64,
    pub store_hits: u64,
    pub store_misses: u64,
    pub store_writes: u64,
    pub store_write_errors: u64,
}

/// The outcome of one pass.
#[derive(Default)]
pub struct Pass {
    pub steps: Steps,
    pub work: Work,
    /// Analyses run (one per result checked).
    pub analyses: u64,
    /// One message per analysis whose checks failed.
    pub failures: Vec<String>,
    /// Every result digest, by key.
    pub digests: Vec<(String, u64)>,
}

impl Pass {
    /// Records an analysis whose call itself failed.
    fn failed(&mut self, message: String) {
        self.analyses += 1;
        self.failures.push(message);
    }
}

/// A set-up workload, ready to run passes.
pub struct Workload {
    kind: Kind,
    seed: u64,
    threads: usize,
    recorded: Recorded,
    circuits: Vec<(&'static str, Netlist)>,
    store: Option<Store>,
    /// Def2-average: each circuit's universe and tracked faults.
    prepared: Vec<(FaultUniverse, Vec<usize>)>,
    /// Warm-generate: each circuit's universe digest from its cold build.
    cold_universes: Vec<u64>,
}

/// Runs `f` inside a span named `layer` and returns its result with the
/// seconds it took. The clock runs outside the span, so a span never
/// outlasts the time it is charged against.
fn timed<T>(layer: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = {
        let _span = trace::span(layer);
        f()
    };
    (out, start.elapsed().as_secs_f64())
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Workload {
    /// Synthesizes the circuits, checks the paper's Figure 1 example and
    /// prepares what every pass starts from. Stores live under
    /// `store_dir`.
    ///
    /// # Errors
    ///
    /// Returns a message when synthesis, a build or a set-up check fails.
    pub fn setup(
        kind: Kind,
        seed: u64,
        threads: usize,
        recorded: Recorded,
        store_dir: &Path,
    ) -> Result<Self, String> {
        check_figure1()?;
        let circuits = kind
            .circuits()
            .iter()
            .map(|&name| {
                ndetect_circuits::build(name)
                    .map(|n| (name, n))
                    .map_err(|e| format!("{name}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let store = if kind.uses_store() {
            let store =
                Store::open(store_dir.join(kind.name())).map_err(|e| format!("store: {e}"))?;
            store.clear().map_err(|e| format!("store: {e}"))?;
            Some(store)
        } else {
            None
        };
        let mut w = Workload {
            kind,
            seed,
            threads,
            recorded,
            circuits,
            store,
            prepared: Vec::new(),
            cold_universes: Vec::new(),
        };
        match kind {
            Kind::PaperCold => {}
            Kind::Def2Average => {
                for (name, netlist) in &w.circuits {
                    let universe = FaultUniverse::build_with(netlist, w.universe_options())
                        .map_err(|e| format!("{name}: {e}"))?;
                    let wc = WorstCaseAnalysis::compute_with(&universe, threads);
                    w.recorded.check(
                        &format!("universe/{name}"),
                        seed,
                        checks::universe_digest(&universe),
                    )?;
                    w.recorded
                        .check(&format!("nmin/{name}"), seed, checks::worst_digest(&wc))?;
                    let tracked = wc.tail_indices(TAIL);
                    w.prepared.push((universe, tracked));
                }
            }
            Kind::WarmGenerate => {
                for (name, netlist) in &w.circuits {
                    let universe = FaultUniverse::build_stored(
                        netlist,
                        w.universe_options(),
                        w.store.as_ref(),
                    )
                    .map_err(|e| format!("{name}: {e}"))?;
                    let digest = checks::universe_digest(&universe);
                    w.recorded
                        .check(&format!("universe/{name}"), seed, digest)?;
                    w.cold_universes.push(digest);
                }
                let store = w.store.as_ref().expect("warm-generate has a store");
                if store.session_writes() != w.circuits.len() as u64 {
                    return Err(format!(
                        "set-up stored {} universes, expected {}",
                        store.session_writes(),
                        w.circuits.len()
                    ));
                }
            }
        }
        Ok(w)
    }

    /// Runs one pass and checks its results.
    ///
    /// # Panics
    ///
    /// Panics if the cold pass cannot empty its store.
    pub fn pass(&mut self) -> Pass {
        let mut pass = Pass::default();
        if self.kind == Kind::PaperCold {
            self.store
                .as_ref()
                .expect("paper-cold has a store")
                .clear()
                .expect("store empties");
        }
        let before = self.store_counts();
        for i in 0..self.circuits.len() {
            match self.kind {
                Kind::PaperCold => self.cold_circuit(i, &mut pass),
                Kind::Def2Average => self.def2_circuit(i, &mut pass),
                Kind::WarmGenerate => self.warm_circuit(i, &mut pass),
            }
        }
        let after = self.store_counts();
        pass.work.store_hits = after[0] - before[0];
        pass.work.store_misses = after[1] - before[1];
        pass.work.store_writes = after[2] - before[2];
        pass.work.store_write_errors = after[3] - before[3];
        pass
    }

    fn store_counts(&self) -> [u64; 4] {
        self.store.as_ref().map_or([0; 4], |s| {
            [
                s.session_hits(),
                s.session_misses(),
                s.session_writes(),
                s.session_write_errors(),
            ]
        })
    }

    fn universe_options(&self) -> UniverseOptions {
        UniverseOptions {
            threads: self.threads,
            mem_budget: MemoryBudget::Unbounded,
            ..UniverseOptions::default()
        }
    }

    fn procedure1(
        &self,
        definition: DetectionDefinition,
        num_test_sets: usize,
    ) -> Procedure1Config {
        Procedure1Config {
            nmax: NMAX,
            num_test_sets,
            seed: splitmix64(self.seed ^ 0x5EED_0001),
            definition,
            threads: self.threads,
        }
    }

    fn gen_options(&self, circuit: &str, n: u32, compact: bool) -> GenOptions {
        GenOptions {
            n,
            compact,
            seed: Some(splitmix64(
                self.seed ^ splitmix64(fnv1a64(circuit.as_bytes()) ^ u64::from(n)),
            )),
            threads: self.threads,
            mem_budget: MemoryBudget::Unbounded,
        }
    }

    /// `ndet stats`, `worst`, `average --def 1` and `gen --n 10` on one
    /// circuit, each through the store.
    fn cold_circuit(&self, i: usize, pass: &mut Pass) {
        let (name, netlist) = &self.circuits[i];
        let store = self.store.as_ref();
        let (universe, t) = timed("faults.build", || {
            FaultUniverse::build_stored(netlist, self.universe_options(), store)
        });
        pass.steps.stats += t;
        let universe = match universe {
            Ok(u) => u,
            Err(e) => return pass.failed(format!("universe/{name}: {e}")),
        };
        let (wc, t) = timed("core.worst_case", || {
            WorstCaseAnalysis::compute_stored(&universe, self.threads, store)
        });
        pass.steps.worst += t;
        let config = self.procedure1(DetectionDefinition::Standard, DEF1_K);
        let (probs, t) = timed("core.average_def1", || {
            let tracked = wc.tail_indices(TAIL);
            estimate_detection_probabilities_stored(&universe, &tracked, &config, store)
        });
        pass.steps.average_def1 += t;
        let options = self.gen_options(name, COLD_N, true);
        let (set, t) = timed("gen.generate", || {
            generate_stored(&universe, &options, store)
        });
        pass.steps.gen += t;

        let (f, g) = (
            universe.targets().len() as u64,
            universe.bridges().len() as u64,
        );
        let words = universe
            .target_sets()
            .first()
            .map_or(0, |s| s.words().len()) as u64;
        pass.work.faults_built += f + g;
        pass.work.pairs += f * g;
        pass.work.pair_words += f * g * words;
        pass.work.vectors += set.len() as u64;
        self.check_universe(pass, name, &universe, None);
        self.analysis(
            pass,
            format!("nmin/{name}"),
            checks::worst_digest(&wc),
            &[(
                checks::worst_is_consistent(&universe, &wc),
                "nmin disagrees with its witness",
            )],
        );
        self.check_probabilities(pass, "def1", name, &probs);
        self.check_generated(pass, name, &universe, &set);
    }

    /// `ndet average --def 2` on one prepared circuit, no store.
    fn def2_circuit(&self, i: usize, pass: &mut Pass) {
        let name = self.circuits[i].0;
        let (universe, tracked) = &self.prepared[i];
        let config = self.procedure1(DetectionDefinition::SufficientlyDifferent, DEF2_K);
        let (probs, t) = timed("core.average_def2", || {
            estimate_detection_probabilities(universe, tracked, &config)
        });
        pass.steps.average_def2 += t;
        pass.work.def2_test_sets += DEF2_K as u64;
        self.check_probabilities(pass, "def2", name, &probs);
    }

    /// A store hit for the universe, then uncached generation and
    /// compaction for every `n` in [`WARM_NS`].
    fn warm_circuit(&self, i: usize, pass: &mut Pass) {
        let (name, netlist) = &self.circuits[i];
        let (universe, t) = timed("faults.load", || {
            FaultUniverse::build_stored(netlist, self.universe_options(), self.store.as_ref())
        });
        pass.steps.stats += t;
        let universe = match universe {
            Ok(u) => u,
            Err(e) => return pass.failed(format!("universe/{name}: {e}")),
        };
        let mut sets = Vec::with_capacity(WARM_NS.len());
        for n in WARM_NS {
            let options = self.gen_options(name, n, false);
            let (mut set, t_gen) = timed("gen.generate", || generate(&universe, &options));
            let (removed, t_compact) = timed("gen.compact", || compact(&mut set, &universe));
            pass.steps.gen += t_gen + t_compact;
            pass.work.vectors += set.len() as u64;
            pass.work.compact_removed += removed as u64;
            sets.push(set);
        }
        self.check_universe(pass, name, &universe, Some(self.cold_universes[i]));
        for set in &sets {
            self.check_generated(pass, name, &universe, set);
        }
    }

    /// Records one analysis: its digest is compared with the recorded
    /// one and `invariants` lists what must hold for any seed.
    fn analysis(&self, pass: &mut Pass, key: String, digest: u64, invariants: &[(bool, &str)]) {
        pass.analyses += 1;
        let mut problems: Vec<String> = self
            .recorded
            .check(&key, self.seed, digest)
            .err()
            .into_iter()
            .collect();
        problems.extend(
            invariants
                .iter()
                .filter(|(ok, _)| !ok)
                .map(|(_, what)| format!("{key}: {what}")),
        );
        if !problems.is_empty() {
            pass.failures.push(problems.join("; "));
        }
        pass.digests.push((key, digest));
    }

    fn check_universe(
        &self,
        pass: &mut Pass,
        name: &str,
        universe: &FaultUniverse,
        cold: Option<u64>,
    ) {
        let digest = checks::universe_digest(universe);
        self.analysis(
            pass,
            format!("universe/{name}"),
            digest,
            &[(
                cold.is_none_or(|c| c == digest),
                "warm universe differs from its cold build",
            )],
        );
    }

    fn check_probabilities(
        &self,
        pass: &mut Pass,
        def: &str,
        name: &str,
        probs: &Result<DetectionProbabilities, ndetect_core::CoreError>,
    ) {
        let key = seeded_key(&format!("{def}/{name}"), self.seed);
        match probs {
            Ok(p) => {
                pass.work.tracked += p.tracked().len() as u64;
                self.analysis(
                    pass,
                    key,
                    checks::probabilities_digest(p),
                    &[(
                        checks::probabilities_are_monotone(p),
                        "p(n, g) decreases with n",
                    )],
                );
            }
            Err(e) => pass.failed(format!("{key}: {e}")),
        }
    }

    fn check_generated(
        &self,
        pass: &mut Pass,
        name: &str,
        universe: &FaultUniverse,
        set: &GeneratedSet,
    ) {
        self.analysis(
            pass,
            seeded_key(&format!("gen/{name}/n{}", set.n()), self.seed),
            checks::generated_digest(set),
            &[(
                set.satisfies(universe),
                "set misses its n-detection requirement",
            )],
        );
    }
}

/// Parallel efficiency of the `nmin` kernel on `s1a`: its one-thread time
/// over `threads` times its `threads`-thread time.
///
/// # Errors
///
/// Returns a message when `s1a` cannot be built.
pub fn worst_case_parallel_eff(threads: usize) -> Result<f64, String> {
    let netlist = ndetect_circuits::build("s1a").map_err(|e| format!("s1a: {e}"))?;
    let options = UniverseOptions {
        threads,
        mem_budget: MemoryBudget::Unbounded,
        ..UniverseOptions::default()
    };
    let universe = FaultUniverse::build_with(&netlist, options).map_err(|e| format!("s1a: {e}"))?;
    let time = |t: usize| {
        let start = Instant::now();
        std::hint::black_box(WorstCaseAnalysis::compute_with(&universe, t));
        start.elapsed().as_secs_f64()
    };
    let one = time(1);
    Ok(one / (threads as f64 * time(threads)))
}

/// The paper's Figure 1: `nmin(g0) = 3` for `g0 = (9,0,10,1)` and the
/// worst-case coverage row `40 40 80 100` for `n = 1..4`.
fn check_figure1() -> Result<(), String> {
    let options = UniverseOptions {
        threads: 1,
        mem_budget: MemoryBudget::Unbounded,
        ..UniverseOptions::default()
    };
    let universe = FaultUniverse::build_with(&figure1::netlist(), options)
        .map_err(|e| format!("figure1: {e}"))?;
    let wc = WorstCaseAnalysis::compute_with(&universe, 1);
    let g0 = universe
        .find_bridge("9", false, "10", true)
        .ok_or("figure1: g0 is missing")?;
    let row: Vec<String> = (1..=4)
        .map(|n| format!("{:.2}", wc.coverage_percent(n)))
        .collect();
    if wc.nmin(g0) != Some(3) || row != ["40.00", "40.00", "80.00", "100.00"] {
        return Err(format!(
            "figure1: nmin(g0) = {:?}, coverage row {row:?}",
            wc.nmin(g0)
        ));
    }
    Ok(())
}
