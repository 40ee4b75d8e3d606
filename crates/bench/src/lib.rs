//! Shared helpers for the benchmark harness binaries.
//!
//! Every table and figure of the paper has a dedicated binary in
//! `src/bin/` (`table1` … `table6`, `figure2`, `all_tables`), plus
//! calibration (`suite_stats`) and ablation (`ablation_atpg`,
//! `ablation_collapse`) tools. This library holds the tiny bits they
//! share: argument parsing (including the common `--threads` and
//! `--cache-dir` flags), timed universe construction, and an in-process
//! per-(circuit, options) universe cache with an optional
//! content-addressed on-disk fallthrough (`ndetect-store`).

use ndetect_faults::{FaultUniverse, UniverseOptions};
use ndetect_netlist::Netlist;
use ndetect_sim::MemoryBudget;
use ndetect_store::Store;
use std::collections::HashMap;
use std::time::Instant;

/// A parsed `--key value` command line.
#[derive(Debug, Default)]
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Parses `std::env::args` of the form `--key value`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    #[must_use]
    pub fn parse() -> Self {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        Self::from_vec(raw)
    }

    /// Parses an explicit argument vector (testable core of
    /// [`Self::parse`]).
    ///
    /// # Panics
    ///
    /// Panics on malformed arguments.
    #[must_use]
    pub fn from_vec(raw: Vec<String>) -> Self {
        let mut pairs = Vec::new();
        let mut it = raw.into_iter();
        while let Some(key) = it.next() {
            let Some(stripped) = key.strip_prefix("--") else {
                panic!("expected --key value pairs, got `{key}`");
            };
            let value = it
                .next()
                .unwrap_or_else(|| panic!("missing value for --{stripped}"));
            pairs.push((stripped.to_string(), value));
        }
        Args { pairs }
    }

    /// The raw string value of a key, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// A parsed value with a default.
    ///
    /// # Panics
    ///
    /// Panics if the value does not parse.
    #[must_use]
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: std::fmt::Debug,
    {
        match self.get(key) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|e| panic!("bad value for --{key}: {e:?}")),
            None => default,
        }
    }

    /// Comma-separated circuit list (`--circuits a,b,c`), or `None` for
    /// the full suite.
    #[must_use]
    pub fn circuits(&self) -> Option<Vec<String>> {
        self.get("circuits")
            .map(|v| v.split(',').map(str::to_string).collect())
    }

    /// Worker threads for fault simulation (`--threads N`); `0` (the
    /// default) means auto: the `NDETECT_THREADS` environment variable,
    /// then the machine's available parallelism.
    ///
    /// # Panics
    ///
    /// Panics if the value does not parse.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.get_or("threads", 0)
    }

    /// Per-worker kernel memory budget (`--mem-budget B`, e.g. `16MiB`,
    /// `64K`, a plain byte count, or `unbounded`). The default `Auto`
    /// consults the `NDETECT_MEM_BUDGET` environment variable, then
    /// runs unbounded. Results are identical for every budget.
    ///
    /// # Panics
    ///
    /// Panics if the value does not parse.
    #[must_use]
    pub fn mem_budget(&self) -> MemoryBudget {
        match self.get("mem-budget") {
            None => MemoryBudget::Auto,
            Some(v) => {
                MemoryBudget::parse(v).unwrap_or_else(|e| panic!("bad value for --mem-budget: {e}"))
            }
        }
    }

    /// The on-disk artifact cache directory: `--cache-dir DIR`, falling
    /// back to the `NDETECT_CACHE_DIR` environment variable. `None`
    /// (no flag, no variable) disables the disk cache.
    #[must_use]
    pub fn cache_dir(&self) -> Option<String> {
        self.get("cache-dir")
            .map(str::to_string)
            .or_else(|| std::env::var("NDETECT_CACHE_DIR").ok())
            .filter(|d| !d.is_empty())
    }

    /// The universe options selected by the common performance flags
    /// (`--threads`, `--mem-budget`), defaults otherwise.
    ///
    /// # Panics
    ///
    /// Panics if either flag's value does not parse.
    #[must_use]
    pub fn universe_options(&self) -> UniverseOptions {
        UniverseOptions {
            threads: self.threads(),
            mem_budget: self.mem_budget(),
            ..UniverseOptions::default()
        }
    }
}

/// Opens the content-addressed artifact store selected by `--cache-dir`
/// / `NDETECT_CACHE_DIR`, or `None` when no cache directory is
/// configured.
///
/// # Panics
///
/// Panics if the configured directory cannot be created.
#[must_use]
pub fn open_store(args: &Args) -> Option<Store> {
    args.cache_dir().map(|dir| {
        Store::open(&dir).unwrap_or_else(|e| panic!("cannot open cache dir `{dir}`: {e}"))
    })
}

/// Builds a suite circuit's fault universe under explicit options,
/// consulting the on-disk artifact store first when one is given;
/// prints timing to stderr.
///
/// # Panics
///
/// Panics if the circuit name is unknown or the universe cannot be
/// built (suite circuits always can).
#[must_use]
pub fn build_universe_options(
    name: &str,
    options: UniverseOptions,
    store: Option<&Store>,
) -> (Netlist, FaultUniverse) {
    let t0 = Instant::now();
    let netlist = ndetect_circuits::build(name)
        .unwrap_or_else(|e| panic!("cannot build circuit `{name}`: {e}"));
    let universe = FaultUniverse::build_stored(&netlist, options, store)
        .unwrap_or_else(|e| panic!("cannot build universe for `{name}`: {e}"));

    eprintln!("# {name}: {} ({:.1?})", universe, t0.elapsed());
    (netlist, universe)
}

/// An in-process cache of fault universes, keyed by **(circuit name,
/// universe options)**, so a binary that regenerates several tables
/// builds each distinct universe **once** and reuses it for every table
/// — and differing bridging/collapse/thread options can never alias to
/// the same cached universe. With [`UniverseCache::get_stored`] the
/// in-process cache additionally falls through to the content-addressed
/// on-disk store, making repeated invocations incremental across
/// processes.
#[derive(Default)]
pub struct UniverseCache {
    threads: usize,
    mem_budget: MemoryBudget,
    entries: HashMap<(String, UniverseOptions), (Netlist, FaultUniverse)>,
}

impl UniverseCache {
    /// Creates an empty cache building with up to `threads` workers and
    /// the given per-worker kernel memory budget.
    #[must_use]
    pub fn with_budget(threads: usize, mem_budget: MemoryBudget) -> Self {
        UniverseCache {
            threads,
            mem_budget,
            entries: HashMap::new(),
        }
    }

    /// The universe (and netlist) for `name` under the default options
    /// and this cache's thread count and budget, building it on first
    /// use and reusing it afterwards. A miss in the in-process map falls
    /// through to the on-disk store before building from scratch (and
    /// populates the store after a build).
    ///
    /// # Panics
    ///
    /// Panics if the circuit name is unknown or the universe cannot be
    /// built (suite circuits always can).
    pub fn get_stored(&mut self, name: &str, store: Option<&Store>) -> &(Netlist, FaultUniverse) {
        let options = UniverseOptions {
            threads: self.threads,
            mem_budget: self.mem_budget,
            ..UniverseOptions::default()
        };
        self.get_with(name, options, store)
    }

    /// The fully general lookup: the universe for `name` built with
    /// explicit `options`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit name is unknown or the universe cannot be
    /// built (suite circuits always can).
    pub fn get_with(
        &mut self,
        name: &str,
        options: UniverseOptions,
        store: Option<&Store>,
    ) -> &(Netlist, FaultUniverse) {
        // Key on the semantic options only: thread count and memory
        // budget are performance knobs with bit-identical results, so
        // they must not split the cache (matching the on-disk key
        // derivation).
        let key = (
            name.to_string(),
            UniverseOptions {
                threads: 0,
                mem_budget: MemoryBudget::Auto,
                ..options
            },
        );
        if !self.entries.contains_key(&key) {
            let built = build_universe_options(name, options, store);
            self.entries.insert(key.clone(), built);
        }
        &self.entries[&key]
    }
}

/// The circuits to process: the `--circuits` selection or the full
/// suite, in table order.
#[must_use]
pub fn selected_circuits(args: &Args) -> Vec<String> {
    match args.circuits() {
        Some(list) => list,
        None => ndetect_circuits::suite()
            .iter()
            .map(|s| s.name().to_string())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_lookup() {
        let args = Args::from_vec(vec![
            "--k".into(),
            "100".into(),
            "--circuits".into(),
            "lion,keyb".into(),
        ]);
        assert_eq!(args.get_or("k", 5usize), 100);
        assert_eq!(args.get_or("nmax", 10u32), 10);
        assert_eq!(
            args.circuits().unwrap(),
            vec!["lion".to_string(), "keyb".to_string()]
        );
        assert!(args.get("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "expected --key value")]
    fn rejects_positional_arguments() {
        let _ = Args::from_vec(vec!["oops".into()]);
    }

    #[test]
    fn cache_dir_flag_wins_over_nothing() {
        let args = Args::from_vec(vec!["--cache-dir".into(), "/tmp/ndet-cache".into()]);
        assert_eq!(args.cache_dir().as_deref(), Some("/tmp/ndet-cache"));
    }

    #[test]
    fn universe_cache_distinguishes_options() {
        let mut cache = UniverseCache::with_budget(1, MemoryBudget::Auto);
        let defaults = UniverseOptions::with_threads(1);
        let no_bridges = UniverseOptions {
            include_bridges: false,
            ..defaults
        };
        let (_, with_bridges) = cache.get_with("figure1", defaults, None);
        assert!(!with_bridges.bridges().is_empty());
        let (_, without) = cache.get_with("figure1", no_bridges, None);
        assert!(without.bridges().is_empty());
        // The first entry was not clobbered by the second.
        let (_, again) = cache.get_with("figure1", defaults, None);
        assert!(!again.bridges().is_empty());
    }
}
