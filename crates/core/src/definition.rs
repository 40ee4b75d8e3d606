//! The two definitions of "detected n times" (the paper's Definitions 1
//! and 2).

use ndetect_faults::{StuckAtFault, ThreevalKernel, ThreevalScratch};

const LANES: usize = ThreevalKernel::LANES;

/// Which counting rule Procedure 1 uses for target-fault detections.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum DetectionDefinition {
    /// **Definition 1** (standard): a fault is detected `n` times by a
    /// test set containing `n` tests that detect it.
    #[default]
    Standard,
    /// **Definition 2** (from Pomeranz & Reddy, DATE 2001): tests `ti`,
    /// `tj` count as different detections of `f` only if `tij` — the
    /// vector specified where `ti` and `tj` agree and unspecified
    /// elsewhere — does **not** detect `f` under three-valued
    /// simulation. Counting is greedy in test-insertion order.
    SufficientlyDifferent,
}

/// One worker's Definition-2 queries: the shared two-rail kernel plus
/// this worker's scratch and buffers.
///
/// A query asks whether a candidate `t` counts as a **new** detection
/// of a target fault whose Definition-2-counted tests are `counted`:
/// `t` must be sufficiently different from every counted test (no
/// common-bits vector `(s, t)` may already detect the fault). Every
/// `(s, t)` pair is one lane of a [`ThreevalKernel`] pass, so one pass
/// answers up to 64 pairs.
pub(crate) struct Def2Queries<'k, 'a> {
    kernel: &'k ThreevalKernel<'a>,
    scratch: ThreevalScratch,
    /// Reused buffers: one pass's lanes; per target of an added test,
    /// whether it is similar and how far its counted list was paired.
    lanes: Vec<(u32, u32)>,
    similar: Vec<bool>,
    cursor: Vec<usize>,
}

impl<'k, 'a> Def2Queries<'k, 'a> {
    pub(crate) fn new(kernel: &'k ThreevalKernel<'a>) -> Self {
        Def2Queries {
            kernel,
            scratch: kernel.new_scratch(),
            lanes: Vec::with_capacity(LANES),
            similar: Vec::new(),
            cursor: Vec::new(),
        }
    }

    /// How many candidates one pass can judge against `counted`
    /// (at least one; a list longer than a pass takes several passes
    /// per candidate).
    pub(crate) fn candidates_per_pass(counted: &[u32]) -> usize {
        if counted.is_empty() {
            1
        } else {
            (LANES / counted.len()).max(1)
        }
    }

    /// Whether `t` counts as a new detection of `fault` next to the
    /// `counted` tests.
    pub(crate) fn counts_as_new_detection(
        &mut self,
        fault: StuckAtFault,
        counted: &[u32],
        t: u32,
    ) -> bool {
        counted.chunks(LANES).all(|chunk| {
            self.lanes.clear();
            self.lanes.extend(chunk.iter().map(|&s| (s, t)));
            self.kernel
                .detects_common_bits(fault, &self.lanes, &mut self.scratch)
                == 0
        })
    }

    /// The position in `candidates` of the first candidate that counts
    /// as a new detection of `fault`, judging up to
    /// [`Self::candidates_per_pass`] candidates in one pass.
    pub(crate) fn first_new_detection(
        &mut self,
        fault: StuckAtFault,
        counted: &[u32],
        candidates: &[u32],
    ) -> Option<usize> {
        let width = counted.len();
        if width == 0 || width * candidates.len() > LANES {
            return candidates
                .iter()
                .position(|&t| self.counts_as_new_detection(fault, counted, t));
        }
        self.lanes.clear();
        for &t in candidates {
            self.lanes.extend(counted.iter().map(|&s| (s, t)));
        }
        let det = self
            .kernel
            .detects_common_bits(fault, &self.lanes, &mut self.scratch);
        // Candidate `c` owns lanes `c * width .. (c + 1) * width`.
        let group = u64::MAX >> (LANES - width);
        (0..candidates.len()).find(|&c| (det >> (c * width)) & group == 0)
    }

    /// For each target fault in `targets` (indices into `faults`) that
    /// the newest test `t` detects, whether `t` is similar to one of its
    /// counted tests: whether the common bits of `t` and some `tests[p]`,
    /// `p` in `counted[f]`, detect the fault. Counted tests are
    /// positions in `tests`, so one pass pairs `t` with a chunk of 64
    /// tests, and its fault-free simulation serves every target.
    pub(crate) fn similar_targets(
        &mut self,
        faults: &[StuckAtFault],
        targets: &[u32],
        counted: &[Vec<u32>],
        tests: &[u32],
        t: u32,
    ) -> &[bool] {
        self.similar.clear();
        self.similar.resize(targets.len(), false);
        self.cursor.clear();
        self.cursor.resize(targets.len(), 0);
        for (chunk, chunk_tests) in tests.chunks(LANES).enumerate() {
            let chunk_end = (chunk + 1) * LANES;
            let mut loaded = false;
            for (k, &f) in targets.iter().enumerate() {
                if self.similar[k] {
                    continue;
                }
                // Counted positions ascend: take this chunk's run.
                let counted = &counted[f as usize];
                let mut lanes = 0u64;
                let mut c = self.cursor[k];
                while let Some(&p) = counted.get(c).filter(|&&p| (p as usize) < chunk_end) {
                    lanes |= 1 << (p as usize % LANES);
                    c += 1;
                }
                self.cursor[k] = c;
                if lanes == 0 {
                    continue;
                }
                if !loaded {
                    self.lanes.clear();
                    self.lanes.extend(chunk_tests.iter().map(|&s| (s, t)));
                    self.kernel.load(&self.lanes, &mut self.scratch);
                    loaded = true;
                }
                self.similar[k] =
                    self.kernel
                        .detects_loaded(faults[f as usize], lanes, &mut self.scratch)
                        != 0;
            }
        }
        &self.similar
    }

    /// Adds this worker's kernel pass and lane counts to the global
    /// metrics registry.
    pub(crate) fn publish_counts(&mut self) {
        self.scratch.publish_counts();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndetect_faults::FaultUniverse;
    use ndetect_netlist::NetlistBuilder;

    fn and2() -> ndetect_netlist::Netlist {
        let mut b = NetlistBuilder::new("and2");
        let a = b.input("a");
        let c = b.input("c");
        let g = b.and("g", &[a, c]).unwrap();
        b.output(g);
        b.build().unwrap()
    }

    #[test]
    fn similar_tests_do_not_count_twice() {
        // For g stuck-at-1 on AND(a,c): T = {00, 01, 10}. Tests 00 and 01
        // share "0-" which already detects the fault (a=0 forces output 0,
        // faulty 1) => NOT sufficiently different.
        let n = and2();
        let u = FaultUniverse::build(&n).unwrap();
        let fault = u.targets()[u.find_target("g", true).unwrap()];
        let kernel = ThreevalKernel::new(u.netlist(), u.simulator());
        let mut q = Def2Queries::new(&kernel);
        assert!(!q.counts_as_new_detection(fault, &[0], 1));
        // Tests 01 and 10 share "--" (nothing specified): tij detects
        // nothing => they are sufficiently different.
        assert!(q.counts_as_new_detection(fault, &[1], 2));
        // Nothing counted yet: any test is a new detection.
        assert!(q.counts_as_new_detection(fault, &[], 0));
        // Batched: against {0}, candidate 1 is similar, 2 is not.
        assert_eq!(q.first_new_detection(fault, &[0], &[1, 2]), None);
        assert_eq!(q.first_new_detection(fault, &[1], &[0, 2]), Some(1));
    }

    #[test]
    fn queries_are_symmetric_in_the_pair() {
        let n = and2();
        let u = FaultUniverse::build(&n).unwrap();
        let kernel = ThreevalKernel::new(u.netlist(), u.simulator());
        let mut q = Def2Queries::new(&kernel);
        for &fault in u.targets() {
            for ti in 0..4 {
                for tj in 0..4 {
                    assert_eq!(
                        q.counts_as_new_detection(fault, &[ti], tj),
                        q.counts_as_new_detection(fault, &[tj], ti),
                        "fault {} ({ti}, {tj})",
                        fault.name(&n)
                    );
                }
            }
        }
    }

    #[test]
    fn similar_targets_pair_counted_positions_across_chunks() {
        // y = AND of 7 inputs, y stuck-at-1, newest test t = 126: the
        // common bits of t and s leave bit 0 specified as 0 (so y is
        // definitely 0 and the fault detected) exactly when s is even.
        let mut b = NetlistBuilder::new("and7");
        let ins: Vec<_> = (0..7).map(|i| b.input(format!("i{i}"))).collect();
        let y = b.and("y", &ins).unwrap();
        b.output(y);
        let u = FaultUniverse::build(&b.build().unwrap()).unwrap();
        let f = u.find_target("y", true).unwrap();
        let kernel = ThreevalKernel::new(u.netlist(), u.simulator());
        let mut q = Def2Queries::new(&kernel);
        let tests: Vec<u32> = (0..100).collect();
        let mut counted = vec![Vec::new(); u.targets().len()];
        for (list, want) in [
            (vec![65], false),
            (vec![3, 65, 99], false),
            (vec![65, 70], true),
            (vec![4, 65], true),
            (vec![], false),
        ] {
            counted[f] = list;
            let got = q.similar_targets(u.targets(), &[f as u32], &counted, &tests, 126);
            assert_eq!(got, &[want], "counted {:?}", counted[f]);
        }
    }

    #[test]
    fn long_counted_lists_take_several_passes() {
        // 70 counted tests exceed one pass: the answer must still see
        // the one similar test at the end of the list.
        let n = and2();
        let u = FaultUniverse::build(&n).unwrap();
        let fault = u.targets()[u.find_target("g", true).unwrap()];
        let kernel = ThreevalKernel::new(u.netlist(), u.simulator());
        let mut q = Def2Queries::new(&kernel);
        let mut counted = vec![1u32; 69];
        assert!(q.counts_as_new_detection(fault, &counted, 2));
        counted.push(0);
        assert!(!q.counts_as_new_detection(fault, &counted, 2));
        assert_eq!(Def2Queries::candidates_per_pass(&counted), 1);
        assert_eq!(q.first_new_detection(fault, &counted, &[2, 1]), None);
    }
}
