//! Output checks: result digests against the recorded ones, and the
//! invariants that hold for every seed.

use ndetect_core::{DetectionProbabilities, WorstCaseAnalysis};
use ndetect_faults::FaultUniverse;
use ndetect_gen::GeneratedSet;
use ndetect_store::encode_to_vec;
use std::collections::BTreeMap;

/// The seed whose seed-dependent results have recorded digests.
pub const RECORDED_SEED: u64 = 1;

/// Digests recorded by `perfbench --record-digests --seed 1`.
const RECORDED: &str = include_str!("../digests.txt");

/// A 64-bit digest over words; multiply-rotate mixing, fast enough for
/// the hundreds of megabytes a pass produces.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0x243F_6A88_85A3_08D3)
    }

    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.word(u64::from(b));
        }
    }

    pub fn finish(self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^ (h >> 33)
    }
}

/// The universe's target and bridge detection sets.
pub fn universe_digest(universe: &FaultUniverse) -> u64 {
    let mut d = Digest::new();
    for sets in [universe.target_sets(), universe.bridge_sets()] {
        d.word(sets.len() as u64);
        for set in sets {
            d.word(set.num_patterns() as u64);
            for &w in set.words() {
                d.word(w);
            }
        }
    }
    d.finish()
}

/// The `nmin` and witness vectors (their store encoding).
pub fn worst_digest(wc: &WorstCaseAnalysis) -> u64 {
    bytes_digest(&encode_to_vec(wc))
}

/// The Procedure-1 counts `d(n, g)` and tracked list (their store
/// encoding).
pub fn probabilities_digest(probs: &DetectionProbabilities) -> u64 {
    bytes_digest(&encode_to_vec(probs))
}

/// The generated vectors, in order.
pub fn generated_digest(set: &GeneratedSet) -> u64 {
    let mut d = Digest::new();
    d.word(set.len() as u64);
    for &v in set.vectors() {
        d.word(u64::from(v));
    }
    d.finish()
}

fn bytes_digest(bytes: &[u8]) -> u64 {
    let mut d = Digest::new();
    d.bytes(bytes);
    d.finish()
}

/// Every `nmin(g)` equals `N(f) - M(g, f) + 1` on its witness target `f`.
pub fn worst_is_consistent(universe: &FaultUniverse, wc: &WorstCaseAnalysis) -> bool {
    (0..wc.len()).all(|j| match (wc.nmin(j), wc.witness(j)) {
        (Some(n), Some(f)) => {
            let t_f = universe.target_set(f);
            let m = t_f.intersection_count(universe.bridge_set(j));
            m > 0 && (t_f.len() - m + 1) as u64 == u64::from(n)
        }
        (None, None) => true,
        _ => false,
    })
}

/// `p(n, g)` never decreases with `n`.
pub fn probabilities_are_monotone(probs: &DetectionProbabilities) -> bool {
    (0..probs.tracked().len()).all(|pos| {
        (1..probs.nmax()).all(|n| probs.probability(n, pos) <= probs.probability(n + 1, pos))
    })
}

/// The recorded digests, keyed by result name; `None` while recording
/// them, when every digest is accepted.
pub struct Recorded(Option<BTreeMap<String, u64>>);

impl Recorded {
    /// Accepts every digest, for `--record-digests`.
    pub fn recording() -> Self {
        Recorded(None)
    }

    pub fn load() -> Self {
        let map = RECORDED
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| {
                let (key, hex) = l.split_once(' ').expect("digest line is `key hex`");
                let value = u64::from_str_radix(hex.trim(), 16).expect("digest is hex");
                (key.to_string(), value)
            })
            .collect();
        Recorded(Some(map))
    }

    /// Compares a result digest against the recorded one. Results keyed
    /// with `@seed` are recorded only for [`RECORDED_SEED`]; every other
    /// key must be present.
    pub fn check(&self, key: &str, seed: u64, digest: u64) -> Result<(), String> {
        let Some(recorded) = &self.0 else {
            return Ok(());
        };
        if key.contains('@') && seed != RECORDED_SEED {
            return Ok(());
        }
        match recorded.get(key) {
            Some(&want) if want == digest => Ok(()),
            Some(&want) => Err(format!("{key}: digest {digest:016x}, recorded {want:016x}")),
            None => Err(format!("{key}: no recorded digest")),
        }
    }
}

/// The key of a seed-dependent result for `seed`.
pub fn seeded_key(name: &str, seed: u64) -> String {
    format!("{name}@{seed}")
}
