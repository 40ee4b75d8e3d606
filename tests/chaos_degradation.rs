//! End-to-end degraded-but-correct equivalence: with every store-write
//! failpoint armed `always`, the full analysis pipeline — worst-case,
//! generation, Procedure 1 — must produce byte-identical results to an
//! unfailed run. The cache is an accelerator, never a correctness
//! dependency, so losing the write plane can only cost speed.
//!
//! Failpoints are process-global; this file is its own test binary and
//! every test holds one lock for its whole body — its unfailed runs
//! included — so no test ever observes another test's armed sites.

use ndetect::analysis::WorstCaseAnalysis;
use ndetect::circuits::figure1;
use ndetect::faults::{FaultUniverse, UniverseOptions};
use ndetect::gen::{generate_stored, GenOptions};
use ndetect::store::Store;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Every failpoint on the store's write plane.
const ALL_WRITES_FAIL: &str = "store.save.create=always:return-err;\
                               store.save.write=always:torn-write;\
                               store.save.rename=always:return-err;\
                               store.counters.flush=always:return-err";

/// Exclusive use of the failpoint registry for one test body; the
/// registry is disarmed on entry and on exit (panic included).
struct Serial(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for Serial {
    fn drop(&mut self) {
        ndetect::chaos::disarm_all();
    }
}

/// Takes the lock; call first, before any store I/O.
fn serialize() -> Serial {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    ndetect::chaos::disarm_all();
    Serial(guard)
}

/// Failpoints armed until dropped; arming requires holding [`Serial`].
struct Armed;

impl Drop for Armed {
    fn drop(&mut self) {
        ndetect::chaos::disarm_all();
    }
}

fn arm(_serial: &Serial, config: &str) -> Armed {
    ndetect::chaos::disarm_all();
    ndetect::chaos::apply_config(config).expect("valid failpoint config");
    Armed
}

fn temp_store(tag: &str) -> (Store, PathBuf) {
    let dir = std::env::temp_dir().join(format!("ndetect-e2e-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (Store::open(&dir).unwrap(), dir)
}

#[test]
fn a_dead_write_plane_changes_no_analysis_result() {
    let serial = serialize();
    // Unfailed reference run, fully through the store.
    let circuit = figure1::netlist();
    let options = UniverseOptions::default();
    let gen_options = GenOptions {
        n: 3,
        compact: true,
        ..GenOptions::default()
    };
    let (clean_store, clean_dir) = temp_store("clean");
    let clean_universe =
        FaultUniverse::build_stored(&circuit, options, Some(&clean_store)).unwrap();
    let clean_wc = WorstCaseAnalysis::compute_stored(&clean_universe, 0, Some(&clean_store));
    let clean_set = generate_stored(&clean_universe, &gen_options, Some(&clean_store));
    assert_eq!(clean_store.session_write_errors(), 0);

    // Same pipeline with the entire write plane failing.
    let _chaos = arm(&serial, ALL_WRITES_FAIL);
    let (store, dir) = temp_store("degraded");
    let universe = FaultUniverse::build_stored(&circuit, options, Some(&store)).unwrap();
    let wc = WorstCaseAnalysis::compute_stored(&universe, 0, Some(&store));
    let set = generate_stored(&universe, &gen_options, Some(&store));

    // Identical results, down to the rendered test-set bytes.
    assert_eq!(clean_wc.nmin_values(), wc.nmin_values());
    for n in [1, 2, 3, 4, 10] {
        assert_eq!(clean_wc.coverage_percent(n), wc.coverage_percent(n));
    }
    assert_eq!(clean_set.to_string(), set.to_string());

    // The failures were absorbed and counted, nothing torn published.
    assert!(store.session_write_errors() > 0);
    let verify = store.verify().unwrap();
    assert!(verify.corrupt.is_empty(), "{:?}", verify.corrupt);
    assert_eq!(verify.valid, 0, "no publish can survive a dead write plane");
    let repair = store.repair().unwrap();
    assert!(repair.quarantined.is_empty(), "{:?}", repair.quarantined);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&clean_dir);
}

#[test]
fn a_degraded_run_warms_up_once_the_plane_heals() {
    let serial = serialize();
    // Cold run under failing writes caches nothing...
    let circuit = figure1::netlist();
    let options = UniverseOptions::default();
    let (store, dir) = temp_store("heal");
    {
        let _chaos = arm(&serial, ALL_WRITES_FAIL);
        let universe = FaultUniverse::build_stored(&circuit, options, Some(&store)).unwrap();
        let _ = WorstCaseAnalysis::compute_stored(&universe, 0, Some(&store));
        assert!(store.session_write_errors() > 0);
    }
    // ...so the next (healthy) run rebuilds and publishes, and the one
    // after that is fully warm.
    let universe = FaultUniverse::build_stored(&circuit, options, Some(&store)).unwrap();
    let healthy_wc = WorstCaseAnalysis::compute_stored(&universe, 0, Some(&store));
    let hits_before = store.session_hits();
    let warm_universe = FaultUniverse::build_stored(&circuit, options, Some(&store)).unwrap();
    let warm_wc = WorstCaseAnalysis::compute_stored(&warm_universe, 0, Some(&store));
    assert_eq!(store.session_hits(), hits_before + 2);
    assert_eq!(healthy_wc.nmin_values(), warm_wc.nmin_values());
    let _ = std::fs::remove_dir_all(&dir);
}
