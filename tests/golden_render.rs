//! Byte-for-byte pins of the rendered analysis output: `stats`,
//! `worst` and `gen` on combinational and sequential circuits, and the
//! corpus summary in CSV and JSON. The CLI prints these strings and
//! the server replies with them, so any drift here is a user-visible
//! output change.
//!
//! The knobs are pinned (one thread, unbounded memory budget) so the
//! `kernel:` line and the `peak_bytes` column do not depend on
//! `NDETECT_THREADS` or `NDETECT_MEM_BUDGET`.

use ndetect::seq::FaultModel;
use ndetect::serve::{
    render_corpus, render_gen, render_stats, render_worst, Circuit, CorpusRequest, Engine, Knobs,
    StoreProvider, UniverseProvider,
};
use ndetect::sim::MemoryBudget;
use std::path::{Path, PathBuf};

const KNOBS: Knobs = Knobs {
    threads: 1,
    mem_budget: MemoryBudget::Unbounded,
};

fn data(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(rel)
}

fn check(fixture: &str, actual: &str) {
    let path = data("golden").join(fixture);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert!(
        actual == expected,
        "{fixture} drifted from its pinned bytes:\n--- expected\n{expected}\n--- actual\n{actual}"
    );
}

/// Pins `stats`, `worst` (floor 3, so the nmin distribution renders)
/// and compact `gen` at n = 3 for one circuit, through both the
/// one-shot provider and the serving engine.
fn pin(name: &str, circuit: &Circuit) {
    let engine = Engine::new(None, 8, 8);
    let providers: [&dyn UniverseProvider; 2] = [&StoreProvider::new(None), &engine];
    for provider in providers {
        check(
            &format!("{name}.stats.txt"),
            &render_stats(circuit, KNOBS, provider).unwrap(),
        );
        check(
            &format!("{name}.worst.txt"),
            &render_worst(circuit, 3, KNOBS, provider).unwrap(),
        );
        check(
            &format!("{name}.gen3.txt"),
            &render_gen(circuit, 3, true, None, KNOBS, provider).unwrap(),
        );
    }
}

fn comb(name: &str) {
    pin(
        name,
        &Circuit::Comb(ndetect::circuits::build(name).unwrap()),
    );
}

fn seq(name: &str, model: FaultModel) {
    let seq = ndetect::circuits::build_seq(name).unwrap();
    pin(name, &Circuit::Seq(seq, model));
}

#[test]
fn figure1_renders_its_pinned_bytes() {
    comb("figure1");
}

#[test]
fn c17_renders_its_pinned_bytes() {
    comb("c17");
}

#[test]
fn s27_transition_renders_its_pinned_bytes() {
    seq("s27", FaultModel::Transition);
}

#[test]
fn shift4_stuck_at_renders_its_pinned_bytes() {
    seq("shift4", FaultModel::StuckAt);
}

#[test]
fn cnt3_renders_its_pinned_bytes() {
    seq("cnt3", FaultModel::default());
}

#[test]
fn corpus_renders_its_pinned_bytes() {
    let provider = StoreProvider::new(None);
    for format in ["csv", "json"] {
        let request = CorpusRequest {
            dir: data("corpus"),
            format: format.to_string(),
            max_inputs: 14,
            recursive: false,
        };
        let output = render_corpus(&request, KNOBS, &provider).unwrap();
        assert!(output.errors.is_empty(), "{:?}", output.errors);
        check(&format!("corpus.{format}"), &output.body);
    }
}
