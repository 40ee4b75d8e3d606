//! The traced run's span recorder and the self-time computation.
//!
//! Spans are collected in memory through `ndetect_obs::trace` and parsed
//! back once a traced pass ends. Each span is charged to a layer: a span
//! named after a layer (the benchmark's own spans around each public call,
//! plus the program's `store.*` and `gen.*` spans) is that layer; any other
//! program span (`universe.*`, `sim.*`, `gen.round`) belongs to the layer of
//! its parent. A layer's self time is the sum, over its spans, of each
//! span's duration minus the part of it that its children cover.

use ndetect_obs::trace;
use ndetect_obs::SpanRecord;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Span names that name a layer; see the module docs.
pub const LAYERS: &[&str] = &[
    "faults.build",
    "faults.load",
    "core.worst_case",
    "core.average_def1",
    "core.average_def2",
    "gen.generate",
    "gen.compact",
    "store.load",
    "store.save",
];

/// The layer charged for spans outside every named layer.
const UNATTRIBUTED: &str = "unattributed";

/// An in-memory trace sink.
#[derive(Clone, Default)]
struct MemorySink(Arc<Mutex<Vec<u8>>>);

impl Write for MemorySink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer lock poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Records the spans closed between [`Recorder::start`] and
/// [`Recorder::finish`].
pub struct Recorder {
    sink: MemorySink,
}

impl Recorder {
    /// Enables tracing into a fresh in-memory buffer.
    pub fn start() -> Self {
        let sink = MemorySink::default();
        trace::init_writer(Box::new(sink.clone()));
        Recorder { sink }
    }

    /// Disables tracing and returns the recorded spans.
    ///
    /// # Panics
    ///
    /// Panics if a recorded line does not parse, which would mean the
    /// trace format changed under the benchmark.
    pub fn finish(self) -> Vec<SpanRecord> {
        trace::disable();
        let bytes = std::mem::take(&mut *self.sink.0.lock().expect("trace buffer lock poisoned"));
        String::from_utf8(bytes)
            .expect("trace lines are UTF-8")
            .lines()
            .map(|line| SpanRecord::parse(line).expect("trace line parses"))
            .collect()
    }
}

/// Self time in nanoseconds per layer (see the module docs).
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<String, u64> {
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.start_ns + s.dur_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let (start, end) = (s.start_ns, s.start_ns + s.dur_ns);
        let covered = children.get(&s.id).map_or(0, |c| union_ns(c, start, end));
        *out.entry(layer_of(s, &by_id).to_string()).or_insert(0) += s.dur_ns - covered;
    }
    out
}

/// The length of the union of the root spans' intervals, in nanoseconds.
pub fn root_union_ns(spans: &[SpanRecord]) -> u64 {
    let roots: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| (s.start_ns, s.start_ns + s.dur_ns))
        .collect();
    union_ns(&roots, 0, u64::MAX)
}

/// The sum of the numeric field `key` over spans named `name`.
pub fn field_sum(spans: &[SpanRecord], name: &str, key: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .flat_map(|s| s.fields.iter().filter(|(k, _)| k == key))
        .filter_map(|(_, v)| v.parse::<u64>().ok())
        .sum()
}

fn layer_of<'a>(span: &'a SpanRecord, by_id: &HashMap<u64, &'a SpanRecord>) -> &'a str {
    let mut cur = span;
    loop {
        if LAYERS.contains(&cur.name.as_str()) {
            return &cur.name;
        }
        match by_id.get(&cur.parent) {
            Some(parent) => cur = parent,
            None => return UNATTRIBUTED,
        }
    }
}

/// The length of the union of `intervals`, each clipped to `[lo, hi)`.
fn union_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            id,
            parent,
            thread: 1,
            start_ns,
            dur_ns: end_ns - start_ns,
            fields: vec![("bytes".into(), (end_ns - start_ns).to_string())],
        }
    }

    /// faults.build [0,100) with a program child universe.build [0,60)
    /// (itself holding universe.tile_gather [10,50)) and a store.save
    /// [70,90); then core.worst_case [150,200) with store.load children
    /// [160,170) and [175,190).
    fn tree() -> Vec<SpanRecord> {
        vec![
            span("universe.tile_gather", 3, 2, 10, 50),
            span("universe.build", 2, 1, 0, 60),
            span("store.save", 4, 1, 70, 90),
            span("faults.build", 1, 0, 0, 100),
            span("store.load", 6, 5, 160, 170),
            span("store.load", 7, 5, 175, 190),
            span("core.worst_case", 5, 0, 150, 200),
        ]
    }

    #[test]
    fn self_time_subtracts_children_and_inherits_layers() {
        let times = self_times(&tree());
        // faults.build: its own 20 + universe.build's 20 + tile_gather's 40.
        assert_eq!(times["faults.build"], 80);
        assert_eq!(times["store.save"], 20);
        assert_eq!(times["core.worst_case"], 25);
        assert_eq!(times["store.load"], 25);
        assert_eq!(times.len(), 4);
        // Self times partition the roots' durations.
        assert_eq!(times.values().sum::<u64>(), 150);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // gen.round starts before its parent (clipped to [100,120)) and
        // overlaps store.load [110,130): together they cover [100,130).
        let spans = vec![
            span("gen.generate", 1, 0, 100, 200),
            span("gen.round", 2, 1, 50, 120),
            span("store.load", 3, 1, 110, 130),
        ];
        let times = self_times(&spans);
        assert_eq!(times["gen.generate"], 70 + 70);
        assert_eq!(times["store.load"], 20);
    }

    #[test]
    fn orphans_are_unattributed_and_roots_union() {
        let spans = vec![span("sim.assemble", 9, 42, 0, 10)];
        assert_eq!(self_times(&spans)[UNATTRIBUTED], 10);
        assert_eq!(root_union_ns(&tree()), 150);
        assert_eq!(field_sum(&tree(), "store.load", "bytes"), 25);
    }
}
