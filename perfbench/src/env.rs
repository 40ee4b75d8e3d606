//! The machine the benchmark ran on, in-run kernel calibration, and the
//! process's peak memory.

use ndetect_sim::rows::{and_into, and_popcount, zeroed_words};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Words per detection set of `rie` (2^14 patterns).
const RIE_SET_WORDS: usize = 256;
/// `rie`'s collapsed stuck-at targets: its target sets are the `nmin`
/// kernel's streamed working set, 1227 x 2 KiB, about 2.4 MiB.
const RIE_TARGETS: usize = 1227;
/// The last-level cache assumed when the machine reports none.
const FALLBACK_LLC_BYTES: usize = 32 << 20;

const GIB: f64 = (1u64 << 30) as f64;

/// Kernel bandwidths measured in this process.
pub struct Calibration {
    /// `and_popcount` of each `rie`-sized target row against one probe
    /// row, in GiB of target rows per second, one thread.
    pub and_popcount_gib_s: f64,
    /// Bytes of the `and_popcount` working set.
    pub and_popcount_bytes: usize,
    /// `and_into` over two arrays that together are four times the
    /// last-level cache, in GiB of both arrays per second, one thread.
    pub and_into_gib_s: f64,
    /// Bytes of the two `and_into` arrays together.
    pub and_into_bytes: usize,
}

/// Measures both kernels, taking the median of several timed sweeps.
pub fn calibrate() -> Calibration {
    let popcount_words = RIE_TARGETS * RIE_SET_WORDS;
    let rows = filled(popcount_words, 1);
    let probe = filled(RIE_SET_WORDS, 2);
    let sweep = || {
        rows.chunks_exact(RIE_SET_WORDS)
            .map(|row| and_popcount(black_box(row), black_box(&probe)))
            .sum::<u64>()
    };
    black_box(sweep());
    // A sweep takes well under a millisecond: time batches of them.
    const SWEEPS: usize = 64;
    let popcount: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..SWEEPS {
                black_box(sweep());
            }
            (SWEEPS * popcount_words * 8) as f64 / GIB / start.elapsed().as_secs_f64()
        })
        .collect();

    let into_words = 2 * llc_bytes().unwrap_or(FALLBACK_LLC_BYTES) / 8;
    let mut dst = filled(into_words, 3);
    let src = filled(into_words, 4);
    let into: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            and_into(black_box(&mut dst), black_box(&src));
            black_box(&dst);
            (2 * into_words * 8) as f64 / GIB / start.elapsed().as_secs_f64()
        })
        .collect();

    Calibration {
        and_popcount_gib_s: crate::stats::median(&popcount),
        and_popcount_bytes: popcount_words * 8,
        and_into_gib_s: crate::stats::median(&into),
        and_into_bytes: 2 * into_words * 8,
    }
}

/// `len` pseudo-random words (every page touched).
fn filled(len: usize, seed: u64) -> Vec<u64> {
    let mut words = zeroed_words(len);
    let mut x = seed;
    for w in &mut words {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *w = x;
    }
    words
}

/// The CPU caches as `(level, type, size)`, as the kernel reports them
/// for CPU 0 (the source `lscpu` reads).
fn caches() -> Vec<(String, String, String)> {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |dir: &std::path::Path, f: &str| {
        std::fs::read_to_string(dir.join(f))
            .map(|s| s.trim().to_string())
            .ok()
    };
    let mut out: Vec<(String, String, String)> = std::fs::read_dir(base)
        .into_iter()
        .flatten()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("index"))
        })
        .filter_map(|p| Some((read(&p, "level")?, read(&p, "type")?, read(&p, "size")?)))
        .collect();
    out.sort();
    out
}

/// The size of the highest-level cache, in bytes.
fn llc_bytes() -> Option<usize> {
    let (_, _, size) = caches()
        .into_iter()
        .rev()
        .find(|(_, t, _)| t != "Instruction")?;
    let (digits, unit) = size.split_at(
        size.find(|c: char| !c.is_ascii_digit())
            .unwrap_or(size.len()),
    );
    let scale = match unit {
        "K" => 1 << 10,
        "M" => 1 << 20,
        "G" => 1 << 30,
        _ => 1,
    };
    Some(digits.parse::<usize>().ok()? * scale)
}

/// Moves the calling thread onto the `k`-th CPU it may use, then lets it
/// run anywhere again. The thread stays on that CPU until the scheduler
/// has a reason to move it, while threads it spawns may use every CPU.
/// Set-ups start on each CPU in turn this way, because on a shared host
/// the cores' speeds can differ by a third, and which one a
/// single-threaded set-up lands on would otherwise decide `setup_s`.
#[cfg(target_os = "linux")]
pub fn start_on_cpu(k: usize) {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: 1024 bits.
    let mut all = [0u64; 16];
    let size = std::mem::size_of_val(&all);
    // SAFETY: `all` is a writable buffer of exactly `size` bytes, and pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, size, all.as_mut_ptr()) } != 0 {
        return;
    }
    let allowed: Vec<usize> = (0..1024)
        .filter(|&i| (all[i / 64] >> (i % 64)) & 1 == 1)
        .collect();
    if allowed.is_empty() {
        return;
    }
    let cpu = allowed[k % allowed.len()];
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: both masks are readable buffers of exactly `size` bytes, and
    // pid 0 names the calling thread. A failed call leaves the affinity as
    // it was, which only loses the placement.
    unsafe {
        sched_setaffinity(0, size, one.as_ptr());
        sched_setaffinity(0, size, all.as_ptr());
    }
}

#[cfg(not(target_os = "linux"))]
pub fn start_on_cpu(_k: usize) {}

/// Peak resident memory of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// x86 features relevant to the popcount kernels: compiled in (`cfg`)
/// and reported by the CPU at run time.
#[cfg(target_arch = "x86_64")]
fn popcount_features() -> (Vec<&'static str>, Vec<(&'static str, bool)>) {
    let mut compiled = Vec::new();
    for (name, on) in [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("popcnt", cfg!(target_feature = "popcnt")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("avx512vpopcntdq", cfg!(target_feature = "avx512vpopcntdq")),
    ] {
        if on {
            compiled.push(name);
        }
    }
    let detected = vec![
        ("popcnt", std::is_x86_feature_detected!("popcnt")),
        ("avx2", std::is_x86_feature_detected!("avx2")),
        (
            "avx512vpopcntdq",
            std::is_x86_feature_detected!("avx512vpopcntdq"),
        ),
    ];
    (compiled, detected)
}

#[cfg(not(target_arch = "x86_64"))]
fn popcount_features() -> (Vec<&'static str>, Vec<(&'static str, bool)>) {
    (Vec::new(), Vec::new())
}

/// The popcount kernel the build could run: the widest instruction the
/// compiled-in target features allow `u64::count_ones` to use.
fn popcount_kernel(compiled: &[&str]) -> &'static str {
    if compiled.contains(&"avx512vpopcntdq") {
        "avx512-vpopcntdq"
    } else if compiled.contains(&"popcnt") {
        "popcnt"
    } else {
        "scalar"
    }
}

/// One JSON object describing the machine and the build.
pub fn describe(threads: usize, calibration: Option<&Calibration>) -> String {
    let (compiled, detected) = popcount_features();
    let mut out = String::from("{");
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let _ = write!(
        out,
        "\"nproc\":{nproc},\"threads\":{threads},\"mem_budget\":\"unbounded\""
    );
    let caches: Vec<String> = caches()
        .into_iter()
        .map(|(l, t, s)| format!("{{\"level\":{l},\"type\":\"{t}\",\"size\":\"{s}\"}}"))
        .collect();
    let _ = write!(out, ",\"caches\":[{}]", caches.join(","));
    let _ = write!(out, ",\"llc_bytes\":{}", llc_bytes().unwrap_or(0));
    let _ = write!(out, ",\"rustc\":\"{}\"", env!("PERFBENCH_RUSTC_VERSION"));
    let _ = write!(out, ",\"commit\":\"{}\"", commit());
    let compiled_json: Vec<String> = compiled.iter().map(|f| format!("\"{f}\"")).collect();
    let _ = write!(out, ",\"target_features\":[{}]", compiled_json.join(","));
    let detected_json: Vec<String> = detected
        .iter()
        .map(|(f, on)| format!("\"{f}\":{on}"))
        .collect();
    let _ = write!(out, ",\"detected\":{{{}}}", detected_json.join(","));
    let _ = write!(
        out,
        ",\"popcount_kernel\":\"{}\"",
        popcount_kernel(&compiled)
    );
    if let Some(c) = calibration {
        let _ = write!(
            out,
            ",\"and_popcount_bytes\":{},\"and_into_bytes\":{}",
            c.and_popcount_bytes, c.and_into_bytes
        );
    }
    out.push('}');
    out
}
