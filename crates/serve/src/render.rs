//! Render-to-string analysis front ends shared by the one-shot `ndet`
//! CLI and the persistent server.
//!
//! Both paths must produce **byte-identical** output for the same
//! request (the serve-smoke CI job diffs them), so the rendering lives
//! here once and the callers differ only in how they obtain artifacts:
//! the CLI builds straight through the on-disk store
//! ([`StoreProvider`]), the server layers its hot LRU and single-flight
//! dedup on top ([`crate::Engine`]).
//!
//! Every verb takes one resolved [`Circuit`], combinational or
//! sequential: [`Circuit::resolve`] (registry names) and
//! [`Circuit::parse_bench`] (`.bench` text) produce it, and
//! [`Circuit::universe`] is the one step from a circuit to its fault
//! universe (a sequential circuit is expanded first and analysed over
//! its lowered targets). The entry points are [`render_stats`],
//! [`render_worst`], [`render_gen`], and [`render_corpus`] /
//! [`render_corpus_stream`] for directories of `.bench` files.

use ndetect_circuits::CircuitError;
use ndetect_core::partition::analyze_output_cones_budget;
use ndetect_core::report::{render_table2, render_table3, table2_row, table3_row};
use ndetect_core::{NminDistribution, WorstCaseAnalysis};
use ndetect_faults::{ExplicitTargets, FaultUniverse, UniverseOptions};
use ndetect_gen::{GenOptions, GeneratedSet};
use ndetect_netlist::{bench_format, Netlist, NetlistError, NetlistStats, SeqNetlist};
use ndetect_seq::{expand_stored, ExpandedModel, FaultModel};
use ndetect_sim::MemoryBudget;
use ndetect_store::Store;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Simulation knobs shared by every analysis request: worker threads
/// and the per-worker kernel memory budget. Both are performance knobs
/// — results are identical for every combination.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Knobs {
    /// Worker threads (0 = auto: `NDETECT_THREADS`, then all cores).
    pub threads: usize,
    /// Per-worker kernel memory budget.
    pub mem_budget: MemoryBudget,
}

impl Knobs {
    /// The universe options these knobs select (semantic defaults).
    #[must_use]
    pub fn universe_options(self) -> UniverseOptions {
        UniverseOptions {
            threads: self.threads,
            mem_budget: self.mem_budget,
            ..UniverseOptions::default()
        }
    }
}

/// The user-facing text of a failed registry build: an unknown name
/// points at `ndet list`, which prints every circuit name.
#[must_use]
pub fn circuit_error(e: &CircuitError) -> String {
    match e {
        CircuitError::Unknown { .. } => format!("{e} (`ndet list` prints the circuit names)"),
        _ => e.to_string(),
    }
}

/// Where analyses get their expensive artifacts from. The one-shot CLI
/// reads through the on-disk store; the server adds an in-memory LRU
/// and single-flight dedup. Rendering code only sees this trait.
pub trait UniverseProvider: Sync {
    /// A fault universe for `netlist` under `options`: over its
    /// collapsed stuck-at faults, or over the `explicit` fault
    /// population a time-frame expansion lowered to. Keys come from
    /// [`ndetect_faults::universe_key`] or, for explicit targets, from
    /// the source model's canonical bytes via
    /// [`ndetect_faults::explicit_universe_key`].
    ///
    /// # Errors
    ///
    /// Returns a user-facing message when the circuit cannot be
    /// simulated exhaustively (e.g. too many inputs).
    fn universe(
        &self,
        netlist: &Netlist,
        explicit: Option<&ExplicitTargets>,
        options: UniverseOptions,
    ) -> Result<Arc<FaultUniverse>, String>;

    /// A generated n-detection set for `universe` under `options`.
    fn generated(&self, universe: &Arc<FaultUniverse>, options: &GenOptions) -> Arc<GeneratedSet>;

    /// The on-disk store backing derived artifacts (nmin vectors,
    /// Procedure-1 estimates), if one is configured.
    fn store(&self) -> Option<&Store>;
}

/// The plain store-backed provider used by one-shot CLI invocations:
/// no in-memory layer, every artifact read through `ndetect-store`.
pub struct StoreProvider<'a> {
    store: Option<&'a Store>,
}

impl<'a> StoreProvider<'a> {
    /// Wraps an optional store handle.
    #[must_use]
    pub fn new(store: Option<&'a Store>) -> Self {
        StoreProvider { store }
    }
}

impl UniverseProvider for StoreProvider<'_> {
    fn universe(
        &self,
        netlist: &Netlist,
        explicit: Option<&ExplicitTargets>,
        options: UniverseOptions,
    ) -> Result<Arc<FaultUniverse>, String> {
        match explicit {
            None => FaultUniverse::build_stored(netlist, options, self.store),
            Some(explicit) => {
                FaultUniverse::build_stored_explicit(netlist, explicit, options, self.store)
            }
        }
        .map(Arc::new)
        .map_err(|e| e.to_string())
    }

    fn generated(&self, universe: &Arc<FaultUniverse>, options: &GenOptions) -> Arc<GeneratedSet> {
        Arc::new(ndetect_gen::generate_stored(universe, options, self.store))
    }

    fn store(&self) -> Option<&Store> {
        self.store
    }
}

/// A resolved circuit argument: what every analysis verb takes.
pub enum Circuit {
    /// A combinational circuit, analysed directly.
    Comb(Netlist),
    /// A sequential circuit, analysed through its two-frame broadside
    /// expansion under the given fault model.
    Seq(SeqNetlist, FaultModel),
}

impl Circuit {
    /// Resolves a circuit name. The combinational suite is tried first
    /// so existing names keep their meaning; other names fall back to
    /// the sequential registry (`s27`, `shift4`, `cnt3`). `force_seq`
    /// skips the combinational lookup. A fault model only exists for
    /// time-frame expansion, so `model` on a combinational circuit is
    /// an error naming `model_flag`, the front end's spelling of it.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message for names in neither registry, a
    /// combinational name under `force_seq`, or a fault model on a
    /// combinational circuit.
    pub fn resolve(
        name: &str,
        model: Option<FaultModel>,
        force_seq: bool,
        model_flag: &str,
    ) -> Result<Self, String> {
        let circuit = match (ndetect_circuits::build(name), force_seq) {
            (Ok(netlist), false) => Circuit::Comb(netlist),
            (comb, _) => match (ndetect_circuits::build_seq(name), comb) {
                (Ok(seq), _) => Circuit::Seq(seq, FaultModel::default()),
                // Only reachable under `force_seq`: the name exists, but
                // in the combinational suite.
                (Err(_), Ok(_)) => {
                    return Err(format!("`{name}` is not a sequential circuit (drop --seq)"))
                }
                // Unknown everywhere: name the miss and point at the list.
                (Err(_), Err(e)) => return Err(circuit_error(&e)),
            },
        };
        circuit.with_model(name, model, model_flag)
    }

    /// Parses ISCAS `.bench` text. Files containing flip-flops (or any
    /// file under `force_seq`) parse as sequential circuits under the
    /// default fault model.
    ///
    /// # Errors
    ///
    /// Returns the parse error of the combinational or the sequential
    /// parser.
    pub fn parse_bench(name: &str, text: &str, force_seq: bool) -> Result<Self, NetlistError> {
        if !force_seq {
            match bench_format::parse(name, text) {
                // A DFF is a classification, not a failure.
                Err(NetlistError::Sequential { .. }) => {}
                parsed => return parsed.map(Circuit::Comb),
            }
        }
        bench_format::parse_seq(name, text).map(|seq| Circuit::Seq(seq, FaultModel::default()))
    }

    /// Applies an explicitly selected fault model; see [`Self::resolve`].
    ///
    /// # Errors
    ///
    /// Returns a user-facing message naming `model_flag` when `model` is
    /// given for a combinational circuit.
    pub fn with_model(
        self,
        name: &str,
        model: Option<FaultModel>,
        model_flag: &str,
    ) -> Result<Self, String> {
        match (self, model) {
            (Circuit::Comb(_), Some(_)) => Err(format!(
                "{model_flag} selects a sequential fault model; `{name}` is combinational"
            )),
            (Circuit::Seq(seq, _), Some(model)) => Ok(Circuit::Seq(seq, model)),
            (circuit, None) => Ok(circuit),
        }
    }

    /// The circuit's fault universe through `provider`: a sequential
    /// circuit is expanded (through the store) and its lowered targets
    /// become an explicit-target universe.
    ///
    /// # Errors
    ///
    /// Returns a user-facing message when the expansion fails or the
    /// universe cannot be built.
    pub fn universe(
        &self,
        knobs: Knobs,
        provider: &dyn UniverseProvider,
    ) -> Result<Arc<FaultUniverse>, String> {
        self.lower(provider.store())?.universe(knobs, provider)
    }

    /// The netlist the analyses simulate: the circuit itself, or its
    /// two-frame expansion.
    fn lower(&self, store: Option<&Store>) -> Result<Lowered<'_>, String> {
        match self {
            Circuit::Comb(netlist) => Ok(Lowered::Comb(netlist)),
            Circuit::Seq(seq, model) => expand_stored(seq, *model, store)
                .map(|expanded| Lowered::Seq(Box::new(expanded)))
                .map_err(|e| e.to_string()),
        }
    }

    /// [`Self::lower`] plus the universe: the one step every render
    /// function starts from.
    fn analysed(
        &self,
        knobs: Knobs,
        provider: &dyn UniverseProvider,
    ) -> Result<(Lowered<'_>, Arc<FaultUniverse>), String> {
        let lowered = self.lower(provider.store())?;
        let universe = lowered.universe(knobs, provider)?;
        Ok((lowered, universe))
    }
}

/// A circuit lowered to the combinational netlist its analyses
/// simulate.
enum Lowered<'a> {
    Comb(&'a Netlist),
    Seq(Box<ExpandedModel>),
}

impl Lowered<'_> {
    fn netlist(&self) -> &Netlist {
        match self {
            Lowered::Comb(netlist) => netlist,
            Lowered::Seq(expanded) => expanded.netlist(),
        }
    }

    /// The expansion summary line(s) that head every sequential report;
    /// empty for combinational circuits.
    fn header(&self) -> String {
        match self {
            Lowered::Comb(_) => String::new(),
            Lowered::Seq(expanded) => format!("{expanded}\n"),
        }
    }

    fn universe(
        &self,
        knobs: Knobs,
        provider: &dyn UniverseProvider,
    ) -> Result<Arc<FaultUniverse>, String> {
        let explicit = match self {
            Lowered::Comb(_) => None,
            Lowered::Seq(expanded) => Some(expanded.explicit_targets()),
        };
        provider.universe(self.netlist(), explicit.as_ref(), knobs.universe_options())
    }
}

/// `ndet stats` / serve `stats`: structure, fault population, kernel
/// (after the expansion summary, for a sequential circuit).
///
/// # Errors
///
/// Returns a user-facing message when the expansion fails or the
/// universe cannot be built.
pub fn render_stats(
    circuit: &Circuit,
    knobs: Knobs,
    provider: &dyn UniverseProvider,
) -> Result<String, String> {
    let (lowered, universe) = circuit.analysed(knobs, provider)?;
    let netlist = lowered.netlist();
    let mut out = lowered.header();
    let _ = writeln!(out, "{netlist}");
    let _ = writeln!(out, "{}", NetlistStats::compute(netlist));
    let _ = writeln!(out, "{universe}");
    let _ = writeln!(
        out,
        "kernel: {} ({} bytes/worker data plane, budget {})",
        universe.simulator().kernel_mode(),
        universe.simulator().data_plane_bytes(),
        universe.simulator().mem_budget(),
    );
    Ok(out)
}

/// `ndet worst` / serve `worst`: the worst-case nmin analysis with the
/// paper's Table 2/3 rows and the nmin tail distribution.
///
/// # Errors
///
/// Returns a user-facing message when the expansion fails or the
/// universe cannot be built.
pub fn render_worst(
    circuit: &Circuit,
    floor: u32,
    knobs: Knobs,
    provider: &dyn UniverseProvider,
) -> Result<String, String> {
    let (lowered, universe) = circuit.analysed(knobs, provider)?;
    let name = lowered.netlist().name();
    let wc = WorstCaseAnalysis::compute_stored(&universe, knobs.threads, provider.store());
    let mut out = lowered.header();
    let _ = writeln!(out, "{universe}");
    let _ = writeln!(out, "{wc}");
    let _ = writeln!(out);
    let _ = write!(out, "{}", render_table2(&[table2_row(name, &wc)]));
    let _ = writeln!(out);
    let _ = write!(out, "{}", render_table3(&[table3_row(name, &wc)]));
    let dist = NminDistribution::collect(&wc, floor);
    if !dist.is_empty() {
        let _ = writeln!(out, "\nnmin distribution (nmin >= {floor}):");
        let _ = write!(out, "{}", dist.render_ascii(24));
    }
    Ok(out)
}

/// `ndet gen` / serve `gen`: the set-cover generation engine with
/// compaction and seeded tie-breaking; the report is the set summary,
/// target accounting, bridging coverage, and the set listing.
///
/// # Errors
///
/// Returns a user-facing message when `n` is zero, the expansion
/// fails, or the universe cannot be built.
pub fn render_gen(
    circuit: &Circuit,
    n: u32,
    compact: bool,
    seed: Option<u64>,
    knobs: Knobs,
    provider: &dyn UniverseProvider,
) -> Result<String, String> {
    if n == 0 {
        return Err("n must be at least 1".into());
    }
    let (lowered, universe) = circuit.analysed(knobs, provider)?;
    let options = GenOptions {
        n,
        compact,
        seed,
        threads: knobs.threads,
        mem_budget: knobs.mem_budget,
    };
    let set = provider.generated(&universe, &options);
    let space = universe.space().num_patterns();
    let mut out = lowered.header();
    let _ = writeln!(
        out,
        "generated {n}-detection set: {} tests ({:.2}% of the {space}-vector space{})",
        set.len(),
        100.0 * set.len() as f64 / space as f64,
        if set.is_compacted() {
            ", compacted"
        } else {
            ""
        },
    );
    let _ = writeln!(
        out,
        "targets: {} detectable of {}; every one detected min(n, |T(f)|) times",
        universe.num_detectable_targets(),
        universe.targets().len()
    );
    let (covered, coverage) = universe.bridging_coverage(set.as_vector_set());
    let _ = writeln!(
        out,
        "bridging coverage: {coverage:.2}% ({covered} of {})",
        universe.bridges().len()
    );
    let _ = writeln!(out, "{set}");
    Ok(out)
}

/// Parameters of a corpus run (`ndet corpus` / serve `corpus`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusRequest {
    /// Directory holding `.bench` files.
    pub dir: PathBuf,
    /// `csv` or `json`.
    pub format: String,
    /// Cone-fallback threshold: circuits wider than this are analysed
    /// per output cone.
    pub max_inputs: usize,
    /// Whether to descend into subdirectories.
    pub recursive: bool,
}

/// Output of a corpus run: the machine-readable summary plus any
/// per-file error diagnostics (the run tolerates malformed files).
#[derive(Clone, Debug)]
pub struct CorpusOutput {
    /// The CSV or JSON summary (what `ndet corpus` prints on stdout).
    pub body: String,
    /// Human-readable per-file failure messages (stderr material).
    pub errors: Vec<String>,
    /// Total `.bench` files walked (for the failure summary line).
    pub files: usize,
}

/// One row of the corpus summary.
struct CorpusRow {
    circuit: String,
    /// `full` (exhaustive universe), `cones` (per-output partitioned
    /// fallback for circuits wider than `max_inputs`), `seq`
    /// (sequential circuit analysed through its two-frame transition
    /// expansion), `skipped` (every cone was too wide — nothing was
    /// analysed), or `error` (the file failed to
    /// read/parse/analyse).
    mode: &'static str,
    inputs: usize,
    outputs: usize,
    gates: usize,
    targets: usize,
    bridges: usize,
    /// `None` when nothing was analysed (`mode = skipped`) — an empty
    /// CSV cell / JSON null, never a fabricated percentage.
    cov1: Option<f64>,
    cov10: Option<f64>,
    tail11: usize,
    max_nmin: Option<u32>,
    /// The exhaustive baseline `|U| = 2^I` (`None` outside `full` mode,
    /// where no exhaustive universe exists).
    space: Option<usize>,
    /// Compacted generated-set sizes `|T|` at n = 1, 5, 10 (`None`
    /// outside `full` mode).
    gen1: Option<usize>,
    gen5: Option<usize>,
    gen10: Option<usize>,
    /// Kernel mode the circuit's simulation ran in: `full` or `tiled`
    /// (`tiled` as soon as any cone tiled, in `cones` mode); `None` when
    /// nothing was simulated.
    kernel: Option<&'static str>,
    /// Peak per-worker kernel working-set bytes (the maximum across
    /// cones in `cones` mode); `None` when nothing was simulated.
    peak_bytes: Option<u64>,
}

impl CorpusRow {
    fn empty(name: &str, mode: &'static str) -> Self {
        CorpusRow {
            circuit: name.to_string(),
            mode,
            inputs: 0,
            outputs: 0,
            gates: 0,
            targets: 0,
            bridges: 0,
            cov1: None,
            cov10: None,
            tail11: 0,
            max_nmin: None,
            space: None,
            gen1: None,
            gen5: None,
            gen10: None,
            kernel: None,
            peak_bytes: None,
        }
    }
}

/// Collects the `.bench` files under `dir` — its direct children, plus
/// every subdirectory when `recursive` (symlinked directories are not
/// followed). The caller sorts the full path list, so the walk order
/// never leaks into the output.
fn collect_bench_files(dir: &Path, recursive: bool, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read directory {}: {e}", dir.display()))?;
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        let is_dir = entry.file_type().is_ok_and(|t| t.is_dir());
        if is_dir {
            if recursive {
                collect_bench_files(&path, true, out)?;
            }
        } else if path.extension().is_some_and(|ext| ext == "bench") {
            out.push(path);
        }
    }
    Ok(())
}

/// `ndet corpus` / serve `corpus`: walks a directory of ISCAS-style
/// `.bench` files (sorted full path list, so results are
/// deterministic), runs the stats/worst-case analysis per circuit
/// through the provider (with the output-cone partitioned fallback for
/// circuits too wide for exhaustive simulation), generates compact
/// n-detection sets at n = 1, 5, 10 for exhaustively analysed
/// circuits, and emits a machine-readable CSV or JSON summary.
///
/// # Errors
///
/// Returns a user-facing message when the directory cannot be walked,
/// holds no `.bench` files, or the format is unknown. Individual
/// malformed files become `error` rows instead.
pub fn render_corpus(
    request: &CorpusRequest,
    knobs: Knobs,
    provider: &dyn UniverseProvider,
) -> Result<CorpusOutput, String> {
    let mut body = String::new();
    let tail = render_corpus_stream(request, knobs, provider, &mut |chunk| body.push_str(chunk))?;
    body.push_str(&tail.trailer);
    Ok(CorpusOutput {
        body,
        errors: tail.errors,
        files: tail.files,
    })
}

/// What remains of a streamed corpus run after the last row chunk: the
/// closing bytes of the body plus the per-file diagnostics.
/// `chunks... + trailer` is byte-identical to [`CorpusOutput::body`].
pub struct CorpusTail {
    /// Body bytes after the final row (`]\n` for JSON, empty for CSV).
    pub trailer: String,
    /// Human-readable per-file failure messages (stderr material).
    pub errors: Vec<String>,
    /// Total `.bench` files walked (for the failure summary line).
    pub files: usize,
}

/// The streaming core of [`render_corpus`]: emits the body as chunks —
/// one header chunk, then one chunk per circuit *as each analysis
/// completes* — so a serving front end can flush rows to a client
/// incrementally instead of buffering a long corpus run. The one-shot
/// path is just this function with a `String`-appending sink, which is
/// what keeps the two byte-identical.
///
/// # Errors
///
/// Returns a user-facing message when the directory cannot be walked,
/// holds no `.bench` files, or the format is unknown. Individual
/// malformed files become `error` rows instead.
pub fn render_corpus_stream(
    request: &CorpusRequest,
    knobs: Knobs,
    provider: &dyn UniverseProvider,
    sink: &mut dyn FnMut(&str),
) -> Result<CorpusTail, String> {
    let json = match request.format.as_str() {
        "csv" => false,
        "json" => true,
        other => return Err(format!("format must be csv or json, got `{other}`")),
    };
    let mut paths: Vec<PathBuf> = Vec::new();
    collect_bench_files(&request.dir, request.recursive, &mut paths)?;
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .bench files in {}", request.dir.display()));
    }

    sink(if json { "[\n" } else { CORPUS_CSV_HEADER });
    let mut errors = Vec::new();
    for (i, path) in paths.iter().enumerate() {
        // Per-file fault tolerance: one malformed file is reported as
        // an `error` row instead of aborting the whole corpus run.
        let row = match corpus_row(path, request.max_inputs, knobs, provider) {
            Ok(row) => row,
            Err(message) => {
                errors.push(message);
                let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("bench");
                CorpusRow::empty(name, "error")
            }
        };
        // One row per path, so the JSON separator is decidable without
        // holding rows back: every row but the last gets a comma.
        let chunk = if json {
            corpus_json_row(&row, i + 1 < paths.len())
        } else {
            corpus_csv_row(&row)
        };
        sink(&chunk);
    }
    Ok(CorpusTail {
        trailer: if json {
            "]\n".to_string()
        } else {
            String::new()
        },
        errors,
        files: paths.len(),
    })
}

/// Analyses one corpus circuit: exhaustively when it fits, otherwise
/// via the per-output-cone partition (conservative aggregates). A
/// sequential circuit becomes a `seq` row: its structure columns
/// (inputs/outputs/gates) describe the sequential circuit, its analysis
/// columns the universe of its two-frame transition expansion.
fn corpus_row(
    path: &Path,
    max_inputs: usize,
    knobs: Knobs,
    provider: &dyn UniverseProvider,
) -> Result<CorpusRow, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("bench");
    let circuit =
        Circuit::parse_bench(name, &text, false).map_err(|e| format!("{}: {e}", path.display()))?;
    let (mode, inputs, outputs, gates) = match &circuit {
        Circuit::Comb(n) => ("full", n.num_inputs(), n.num_outputs(), n.num_gates()),
        Circuit::Seq(s, _) => (
            "seq",
            s.num_true_inputs(),
            s.num_true_outputs(),
            s.core().num_gates(),
        ),
    };
    let mut row = CorpusRow {
        inputs,
        outputs,
        gates,
        ..CorpusRow::empty(name, mode)
    };
    let lowered = circuit.lower(provider.store())?;
    if lowered.netlist().num_inputs() <= max_inputs {
        let universe = lowered.universe(knobs, provider)?;
        let wc = WorstCaseAnalysis::compute_stored(&universe, knobs.threads, provider.store());
        // Compact generated-set sizes vs the exhaustive baseline |U|:
        // how much smaller than the whole space an n-detection set is.
        let gen_size = |n: u32| {
            let options = GenOptions {
                n,
                compact: true,
                seed: None,
                threads: knobs.threads,
                mem_budget: knobs.mem_budget,
            };
            Some(provider.generated(&universe, &options).len())
        };
        row.targets = universe.targets().len();
        row.bridges = universe.bridges().len();
        row.cov1 = Some(wc.coverage_percent(1));
        row.cov10 = Some(wc.coverage_percent(10));
        row.tail11 = wc.tail_count(11);
        row.max_nmin = wc.max_finite();
        row.space = Some(universe.space().num_patterns());
        row.gen1 = gen_size(1);
        row.gen5 = gen_size(5);
        row.gen10 = gen_size(10);
        row.kernel = Some(universe.simulator().kernel_mode());
        row.peak_bytes = Some(universe.simulator().data_plane_bytes());
        return Ok(row);
    }
    let Circuit::Comb(netlist) = &circuit else {
        // The broadside pattern space (PIs + state bits) is too wide
        // for exhaustive analysis; classify without fabricating
        // coverage, like `skipped`.
        return Ok(row);
    };
    let reports = analyze_output_cones_budget(
        netlist,
        max_inputs,
        knobs.threads,
        knobs.mem_budget,
        provider.store(),
    )
    .map_err(|e| e.to_string())?;
    if reports.is_empty() {
        // Every cone was wider than max_inputs: nothing was simulated,
        // so report no coverage rather than a vacuous 100%.
        row.mode = "skipped";
        return Ok(row);
    }
    let total_bridges: usize = reports.iter().map(|r| r.num_bridges).sum();
    // Bridge-weighted coverage across cones (conservative: each cone
    // only observes its own output).
    let weighted = |n: u32| -> f64 {
        if total_bridges == 0 {
            return 100.0;
        }
        reports
            .iter()
            .map(|r| {
                let cov = r
                    .coverage
                    .iter()
                    .find(|(t, _)| *t == n)
                    .map_or(100.0, |(_, pct)| *pct);
                cov * r.num_bridges as f64
            })
            .sum::<f64>()
            / total_bridges as f64
    };
    row.mode = "cones";
    row.targets = reports.iter().map(|r| r.num_targets).sum();
    row.bridges = total_bridges;
    row.cov1 = Some(weighted(1));
    row.cov10 = Some(weighted(10));
    row.tail11 = reports.iter().map(|r| r.tail_11).sum();
    // Peak over cones: the widest cone dominates the working set;
    // `tiled` as soon as any cone had to tile.
    row.kernel = Some(if reports.iter().any(|r| r.kernel == "tiled") {
        "tiled"
    } else {
        "full"
    });
    row.peak_bytes = reports.iter().map(|r| r.data_plane_bytes).max();
    Ok(row)
}

const CORPUS_CSV_HEADER: &str = "circuit,mode,inputs,outputs,gates,targets,bridges,cov1_pct,cov10_pct,tail11,max_nmin,space,gen1,gen5,gen10,kernel,peak_bytes\n";

fn corpus_csv_row(r: &CorpusRow) -> String {
    let pct = |v: Option<f64>| v.map_or(String::new(), |v| format!("{v:.2}"));
    let opt = |v: Option<usize>| v.map_or(String::new(), |v| v.to_string());
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
        r.circuit,
        r.mode,
        r.inputs,
        r.outputs,
        r.gates,
        r.targets,
        r.bridges,
        pct(r.cov1),
        pct(r.cov10),
        r.tail11,
        r.max_nmin.map_or(String::new(), |v| v.to_string()),
        opt(r.space),
        opt(r.gen1),
        opt(r.gen5),
        opt(r.gen10),
        r.kernel.unwrap_or(""),
        r.peak_bytes.map_or(String::new(), |v| v.to_string()),
    )
}

fn corpus_json_row(r: &CorpusRow, comma: bool) -> String {
    // Hand-rolled JSON (no serde offline); circuit names come from file
    // stems and are escaped minimally.
    let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let pct = |v: Option<f64>| v.map_or("null".to_string(), |v| format!("{v:.2}"));
    let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
    format!(
        "  {{\"circuit\": \"{}\", \"mode\": \"{}\", \"inputs\": {}, \"outputs\": {}, \
         \"gates\": {}, \"targets\": {}, \"bridges\": {}, \"cov1_pct\": {}, \
         \"cov10_pct\": {}, \"tail11\": {}, \"max_nmin\": {}, \"space\": {}, \
         \"gen1\": {}, \"gen5\": {}, \"gen10\": {}, \"kernel\": {}, \
         \"peak_bytes\": {}}}{}\n",
        escape(&r.circuit),
        r.mode,
        r.inputs,
        r.outputs,
        r.gates,
        r.targets,
        r.bridges,
        pct(r.cov1),
        pct(r.cov10),
        r.tail11,
        r.max_nmin.map_or("null".to_string(), |v| v.to_string()),
        opt(r.space),
        opt(r.gen1),
        opt(r.gen5),
        opt(r.gen10),
        r.kernel.map_or("null".to_string(), |k| format!("\"{k}\"")),
        r.peak_bytes.map_or("null".to_string(), |v| v.to_string()),
        if comma { "," } else { "" },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndetect_circuits::figure1;

    #[test]
    fn stats_and_worst_render_the_paper_numbers() {
        let provider = StoreProvider::new(None);
        let circuit = Circuit::Comb(figure1::netlist());
        let stats = render_stats(&circuit, Knobs::default(), &provider).unwrap();
        assert!(stats.contains("figure1: 4 inputs, 3 outputs, 3 gates, 11 lines"));
        assert!(stats.contains("kernel: "));
        let worst = render_worst(&circuit, 100, Knobs::default(), &provider).unwrap();
        assert!(worst.contains("40.00% at n=1"), "{worst}");
    }

    #[test]
    fn gen_rejects_n_zero_and_renders_a_set() {
        let provider = StoreProvider::new(None);
        let circuit = Circuit::Comb(figure1::netlist());
        assert!(render_gen(&circuit, 0, false, None, Knobs::default(), &provider).is_err());
        let out = render_gen(&circuit, 1, true, None, Knobs::default(), &provider).unwrap();
        assert!(out.contains("generated 1-detection set:"), "{out}");
        assert!(out.contains(", compacted"), "{out}");
    }

    #[test]
    fn corpus_rejects_unknown_formats_and_missing_dirs() {
        let provider = StoreProvider::new(None);
        let request = CorpusRequest {
            dir: PathBuf::from("/nonexistent-dir"),
            format: "yaml".into(),
            max_inputs: 14,
            recursive: false,
        };
        assert!(render_corpus(&request, Knobs::default(), &provider).is_err());
        let request = CorpusRequest {
            format: "csv".into(),
            ..request
        };
        assert!(render_corpus(&request, Knobs::default(), &provider).is_err());
    }
}
