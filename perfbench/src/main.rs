//! `perfbench`: the end-to-end and per-layer benchmark of the ndetect
//! analyses.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --record-digests --seed <n>
//! ```
//!
//! One process runs one workload as a closed loop with one caller: set
//! up, then passes back to back for about `--seconds`. With `--trace 0`
//! it prints the end-to-end metrics of untraced passes; with `--trace 1`
//! it alternates untraced and traced passes and prints per-layer metrics
//! from the traced ones. Every metric is printed as `name value unit`,
//! and the last line of standard output is one JSON object. Every result
//! is checked; the exit code is 1 when any check fails, and 2, with no
//! result printed, when the run cannot start or its set-up fails.
//! `--record-digests` prints the result digests of one pass of every
//! workload, the content of `digests.txt`.

mod checks;
mod env;
mod spans;
mod stats;
mod workloads;

use checks::Recorded;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Kind, Pass, Workload};

/// Set-ups per run; `setup_s` is their median. Set-up `k` starts on CPU
/// `k` (see [`env::start_on_cpu`]), so on two CPUs the median is taken
/// over two set-ups started on each.
const SETUP_REPS: usize = 4;

/// Variables that would change what a run does; the benchmark refuses
/// to run under any of them.
const REFUSED_ENV: [&str; 3] = ["NDETECT_FAILPOINTS", "NDETECT_TRACE", "NDETECT_CACHE_DIR"];

struct Args {
    kind: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        kind: None,
        seed: checks::RECORDED_SEED,
        seconds: 10.0,
        trace: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record-digests" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                args.kind = Some(Kind::parse(&value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.kind.is_none() && !args.record {
        return Err("--workload is required".into());
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// A private directory for the run's stores, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Result<Self, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let path = Path::new(".perfbench-tmp").join(format!("{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Fails, as it should, while another run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// Every pass's analyses and failures, over a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, pass: &Pass) {
        self.attempted += pass.analyses;
        self.failures.extend(pass.failures.iter().cloned());
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!("{var} is set; unset it to benchmark"));
    }
    let args = parse_args()?;
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let tmp = TempDir::new()?;
    if args.record {
        return record_digests(args.seed, threads, &tmp.0);
    }
    let kind = args.kind.expect("checked by parse_args");
    let (metrics, tally) = if args.trace {
        traced_run(kind, &args, threads, &tmp.0)?
    } else {
        untraced_run(kind, &args, threads, &tmp.0)?
    };
    drop(tmp);
    for failure in &tally.failures {
        eprintln!("check failed: {failure}");
    }
    for (name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }
    let failed = tally.failures.len();
    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        tally.attempted,
        metrics_json.join(",")
    );
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs `body` at least once and then until about `seconds` have
/// passed: another round starts only while at least half of a median
/// round still fits, so a run overshoots by at most half a round.
fn for_about(seconds: f64, mut body: impl FnMut()) {
    let start = Instant::now();
    let mut rounds: Vec<f64> = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if !rounds.is_empty() && elapsed + stats::median(&rounds) / 2.0 > seconds {
            break;
        }
        let round = Instant::now();
        body();
        rounds.push(round.elapsed().as_secs_f64());
    }
}

/// End-to-end metrics from untraced passes.
fn untraced_run(
    kind: Kind,
    args: &Args,
    threads: usize,
    dir: &Path,
) -> Result<(Vec<Metric>, Tally), String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for k in 0..SETUP_REPS {
        drop(workload.take());
        env::start_on_cpu(k);
        let start = Instant::now();
        workload = Some(Workload::setup(
            kind,
            args.seed,
            threads,
            Recorded::load(),
            dir,
        )?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");
    println!("env {}", env::describe(threads, None));

    let mut tally = Tally::default();
    let mut pass_s = Vec::new();
    for_about(args.seconds, || {
        let pass = workload.pass();
        pass_s.push(pass.steps.total());
        tally.add(&pass);
    });
    let samples: Vec<String> = pass_s.iter().map(|t| format!("{t:.4}")).collect();
    println!("passes {}: {}", pass_s.len(), samples.join(" "));
    let metrics = vec![
        ("setup_s", stats::median(&setup_s), "s"),
        ("pass_s", stats::median(&pass_s), "s"),
    ];
    Ok((metrics, tally))
}

/// Per-layer metrics: untraced and traced passes in turn, then the
/// process's peak memory, the kernel calibration and (on `paper-cold`)
/// the `nmin` thread-scaling probe, which run last so that neither
/// counts in the peak.
fn traced_run(
    kind: Kind,
    args: &Args,
    threads: usize,
    dir: &Path,
) -> Result<(Vec<Metric>, Tally), String> {
    let mut workload = Workload::setup(kind, args.seed, threads, Recorded::load(), dir)?;
    let mut tally = Tally::default();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<(Pass, Vec<ndetect_obs::SpanRecord>)> = Vec::new();
    for_about(args.seconds, || {
        let pass = workload.pass();
        tally.add(&pass);
        untraced.push(pass);

        let recorder = spans::Recorder::start();
        let pass = workload.pass();
        let spans = recorder.finish();
        tally.add(&pass);
        traced.push((pass, spans));
    });
    drop(workload);
    let peak_rss_mib = env::peak_rss_mib();
    let calibration = env::calibrate();
    let parallel_eff = if kind == Kind::PaperCold {
        workloads::worst_case_parallel_eff(threads)?
    } else {
        0.0
    };
    println!("env {}", env::describe(threads, Some(&calibration)));

    let per_pass: Vec<BTreeMap<&str, f64>> = traced
        .iter()
        .map(|(pass, spans)| layer_metrics(pass, spans, &calibration, threads))
        .collect();
    let from_traced =
        |name: &str| stats::median(&per_pass.iter().map(|m| m[name]).collect::<Vec<_>>());
    let untraced_s: Vec<f64> = untraced.iter().map(|p| p.steps.total()).collect();
    let traced_s: Vec<f64> = traced.iter().map(|(p, _)| p.steps.total()).collect();
    let step = |f: fn(&Pass) -> f64| stats::median(&untraced.iter().map(f).collect::<Vec<_>>());
    let (tail_s, tail_pct) = stats::tail(&untraced_s);
    println!(
        "pass.tail_s is percentile {tail_pct:.1} of {} untraced passes",
        untraced_s.len()
    );

    let mut metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, from_traced(name), unit))
        .collect();
    metrics.extend([
        ("core.worst_case.parallel_eff", parallel_eff, "ratio"),
        (
            "sim.and_popcount.gib_s",
            calibration.and_popcount_gib_s,
            "GiB/s",
        ),
        ("sim.and_into.gib_s", calibration.and_into_gib_s, "GiB/s"),
        (
            "trace.overhead_ratio",
            ratio(stats::median(&traced_s), stats::median(&untraced_s)),
            "ratio",
        ),
        ("step.stats_s", step(|p| p.steps.stats), "s"),
        ("step.worst_s", step(|p| p.steps.worst), "s"),
        ("step.average_def1_s", step(|p| p.steps.average_def1), "s"),
        ("step.average_def2_s", step(|p| p.steps.average_def2), "s"),
        ("step.gen_s", step(|p| p.steps.gen), "s"),
        ("pass.tail_s", tail_s, "s"),
        ("pass.samples", untraced_s.len() as f64, "count"),
        ("process.peak_rss_mib", peak_rss_mib, "MiB"),
        (
            "check.failed_ratio",
            ratio(tally.failures.len() as f64, tally.attempted as f64),
            "ratio",
        ),
    ]);
    Ok((metrics, tally))
}

/// The per-layer metrics computed from one traced pass, by name and unit.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.worst_case.self_s", "s"),
    ("core.worst_case.pairs", "count"),
    ("core.worst_case.gwords_per_s", "Gword/s"),
    ("core.worst_case.roofline_frac", "ratio"),
    ("core.average_def1.self_s", "s"),
    ("core.average_def2.self_s", "s"),
    ("core.average_def2.ms_per_test_set", "ms"),
    ("core.average.tracked", "count"),
    ("gen.generate.self_s", "s"),
    ("gen.compact.self_s", "s"),
    ("gen.vectors", "count"),
    ("gen.compact_removed", "count"),
    ("gen.us_per_vector", "us"),
    ("faults.build.self_s", "s"),
    ("faults.build.ns_per_fault", "ns"),
    ("faults.load.self_s", "s"),
    ("store.load.self_s", "s"),
    ("store.save.self_s", "s"),
    ("store.bytes_read", "B"),
    ("store.bytes_written", "B"),
    ("store.read_gib_s", "GiB/s"),
    ("store.write_gib_s", "GiB/s"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.writes", "count"),
    ("store.write_errors", "count"),
    ("store.hit_ratio", "ratio"),
    ("trace.coverage", "ratio"),
];

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn layer_metrics(
    pass: &Pass,
    spans: &[ndetect_obs::SpanRecord],
    calibration: &env::Calibration,
    threads: usize,
) -> BTreeMap<&'static str, f64> {
    let self_ns = spans::self_times(spans);
    let self_s = |layer: &str| self_ns.get(layer).map_or(0.0, |&ns| ns as f64 / 1e9);
    let w = &pass.work;
    let worst = self_s("core.worst_case");
    let gwords_per_s = ratio(w.pair_words as f64 / 1e9, worst);
    let bytes_read = spans::field_sum(spans, "store.load", "bytes") as f64;
    let bytes_written = spans::field_sum(spans, "store.save", "bytes") as f64;
    let gib = (1u64 << 30) as f64;
    let values = [
        worst,
        w.pairs as f64,
        gwords_per_s,
        ratio(
            gwords_per_s * 8e9 / gib,
            threads as f64 * calibration.and_popcount_gib_s,
        ),
        self_s("core.average_def1"),
        self_s("core.average_def2"),
        ratio(self_s("core.average_def2") * 1e3, w.def2_test_sets as f64),
        w.tracked as f64,
        self_s("gen.generate"),
        self_s("gen.compact"),
        w.vectors as f64,
        w.compact_removed as f64,
        ratio(self_s("gen.generate") * 1e6, w.vectors as f64),
        self_s("faults.build"),
        ratio(self_s("faults.build") * 1e9, w.faults_built as f64),
        self_s("faults.load"),
        self_s("store.load"),
        self_s("store.save"),
        bytes_read,
        bytes_written,
        ratio(bytes_read / gib, self_s("store.load")),
        ratio(bytes_written / gib, self_s("store.save")),
        w.store_hits as f64,
        w.store_misses as f64,
        w.store_writes as f64,
        w.store_write_errors as f64,
        ratio(w.store_hits as f64, (w.store_hits + w.store_misses) as f64),
        ratio(spans::root_union_ns(spans) as f64 / 1e9, pass.steps.total()),
    ];
    PER_LAYER
        .iter()
        .map(|&(name, _)| name)
        .zip(values)
        .collect()
}

/// Prints `key digest` for every result of one pass of each workload.
fn record_digests(seed: u64, threads: usize, dir: &Path) -> Result<ExitCode, String> {
    let mut digests: BTreeMap<String, u64> = BTreeMap::new();
    for kind in Kind::ALL {
        let mut workload = Workload::setup(kind, seed, threads, Recorded::recording(), dir)?;
        for (key, digest) in workload.pass().digests {
            if digests
                .insert(key.clone(), digest)
                .is_some_and(|d| d != digest)
            {
                return Err(format!("{key}: workloads disagree"));
            }
        }
    }
    println!("# Result digests at seed {seed}: perfbench --record-digests --seed {seed}");
    for (key, digest) in digests {
        println!("{key} {digest:016x}");
    }
    Ok(ExitCode::SUCCESS)
}
