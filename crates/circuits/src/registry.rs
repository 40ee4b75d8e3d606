//! The benchmark suite registry: one stand-in per paper circuit.

use crate::generators;
use ndetect_fsm::{
    random_fsm, synthesize, Fsm, FsmError, RandomFsmConfig, StateEncoding, SynthOptions,
};
use ndetect_netlist::Netlist;
use std::error::Error;
use std::fmt;

/// How a suite circuit is produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CircuitSource {
    /// Structured saturating up/down counter ([`generators::up_down_counter`]).
    UpDownCounter,
    /// Structured bidirectional cycle tracker ([`generators::cycle_tracker`]).
    CycleTracker,
    /// Structured modulo counter with enable ([`generators::modulo_counter`]).
    ModuloCounter,
    /// Seeded pseudo-random machine ([`ndetect_fsm::random_fsm`]).
    Random {
        /// The generation seed (fixed per circuit for reproducibility).
        seed: u64,
        /// Upper bound on input-cube rows per state; lower bounds keep
        /// circuits small enough for the all-pairs nmin pass on wide
        /// machines.
        max_rows: usize,
    },
}

/// A suite entry: the paper circuit's name and signature, and the
/// stand-in machine used to reproduce it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CircuitSpec {
    name: &'static str,
    inputs: usize,
    outputs: usize,
    states: usize,
    source: CircuitSource,
}

impl CircuitSpec {
    /// The paper's circuit name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of primary inputs of the FSM.
    #[must_use]
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of primary outputs of the FSM.
    #[must_use]
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// Number of states of the FSM.
    #[must_use]
    pub fn states(&self) -> usize {
        self.states
    }

    /// How the stand-in is generated.
    #[must_use]
    pub fn source(&self) -> CircuitSource {
        self.source
    }

    /// Number of state bits under binary encoding.
    #[must_use]
    pub fn state_bits(&self) -> usize {
        (usize::BITS - (self.states - 1).leading_zeros()).max(1) as usize
    }

    /// Total inputs of the synthesized combinational logic (PIs + state
    /// bits) — the exhaustive space is `2^this`.
    #[must_use]
    pub fn total_input_bits(&self) -> usize {
        self.inputs + self.state_bits()
    }

    /// Builds the stand-in state machine.
    #[must_use]
    pub fn build_fsm(&self) -> Fsm {
        match self.source {
            CircuitSource::UpDownCounter => generators::up_down_counter(self.name, self.states),
            CircuitSource::CycleTracker => generators::cycle_tracker(self.name, self.states),
            CircuitSource::ModuloCounter => generators::modulo_counter(self.name, self.states),
            CircuitSource::Random { seed, max_rows } => random_fsm(
                self.name,
                &RandomFsmConfig {
                    num_inputs: self.inputs,
                    num_outputs: self.outputs,
                    num_states: self.states,
                    seed,
                    min_rows_per_state: 2.min(max_rows),
                    max_rows_per_state: max_rows,
                    ..RandomFsmConfig::default()
                },
            ),
        }
    }

    /// Synthesizes the combinational logic of the stand-in (binary state
    /// encoding, auto minimization).
    ///
    /// # Errors
    ///
    /// Propagates [`FsmError`] from synthesis (does not occur for suite
    /// entries; the suite is covered by tests).
    pub fn build(&self) -> Result<Netlist, FsmError> {
        let fsm = self.build_fsm();
        let encoding = StateEncoding::binary(fsm.num_states());
        synthesize(&fsm, &encoding, SynthOptions::default())
    }
}

/// The 35 benchmark circuits of the paper's Tables 2–3, in table order,
/// each with the (inputs, outputs, states) signature of the MCNC
/// original and a deterministic stand-in source.
#[must_use]
pub fn suite() -> Vec<CircuitSpec> {
    fn rnd(seed: u64) -> CircuitSource {
        CircuitSource::Random { seed, max_rows: 6 }
    }
    fn rnd_small(seed: u64) -> CircuitSource {
        CircuitSource::Random { seed, max_rows: 3 }
    }
    let table: &[(&'static str, usize, usize, usize, CircuitSource)] = &[
        ("lion", 2, 1, 4, CircuitSource::UpDownCounter),
        ("dk27", 1, 2, 7, rnd(2701)),
        ("ex5", 2, 2, 9, rnd(501)),
        ("train4", 2, 1, 4, CircuitSource::CycleTracker),
        ("bbtas", 2, 2, 6, rnd(601)),
        ("dk15", 3, 5, 4, rnd(1501)),
        ("dk512", 1, 3, 15, rnd(51201)),
        ("dk14", 3, 5, 7, rnd(1401)),
        ("dk17", 2, 3, 8, rnd(1701)),
        ("firstex", 3, 2, 4, rnd(101)),
        ("lion9", 2, 1, 9, CircuitSource::UpDownCounter),
        ("mc", 3, 5, 4, rnd(9901)),
        ("dk16", 2, 3, 27, rnd(1601)),
        ("modulo12", 1, 1, 12, CircuitSource::ModuloCounter),
        ("s8", 4, 1, 5, rnd(801)),
        ("tav", 4, 4, 4, rnd(40401)),
        ("donfile", 2, 1, 24, CircuitSource::CycleTracker),
        ("ex7", 2, 2, 10, rnd(701)),
        ("train11", 2, 1, 11, CircuitSource::CycleTracker),
        ("beecount", 3, 4, 7, rnd(2201)),
        ("ex2", 2, 2, 19, rnd(201)),
        ("ex3", 2, 2, 10, rnd(301)),
        ("ex6", 5, 8, 8, rnd(606)),
        ("mark1", 5, 16, 15, rnd_small(1301)),
        ("bbara", 4, 2, 10, rnd(4001)),
        ("ex4", 6, 9, 14, rnd(404)),
        ("keyb", 7, 2, 19, rnd_small(5301)),
        ("opus", 5, 6, 10, rnd(6901)),
        ("bbsse", 7, 7, 16, rnd_small(7701)),
        ("cse", 7, 7, 16, rnd_small(3501)),
        ("dvram", 8, 4, 30, rnd_small(8801)),
        ("fetch", 9, 4, 24, rnd_small(9901)),
        ("log", 9, 4, 16, rnd_small(1101)),
        ("rie", 9, 5, 28, rnd_small(2901)),
        ("s1a", 8, 4, 20, rnd_small(1901)),
    ];
    table
        .iter()
        .map(|&(name, inputs, outputs, states, source)| CircuitSpec {
            name,
            inputs,
            outputs,
            states,
            source,
        })
        .collect()
}

/// Looks up a suite circuit by name.
#[must_use]
pub fn spec(name: &str) -> Option<CircuitSpec> {
    suite().into_iter().find(|s| s.name == name)
}

/// Why [`build`] or [`crate::build_seq`] returned no circuit.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CircuitError {
    /// No registry entry has this name.
    Unknown {
        /// The name that was looked up.
        name: String,
    },
    /// Synthesizing a suite machine failed.
    Synthesis(FsmError),
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::Unknown { name } => write!(f, "unknown circuit `{name}`"),
            CircuitError::Synthesis(e) => e.fmt(f),
        }
    }
}

impl Error for CircuitError {}

/// Builds a circuit by name: any suite entry, plus the specials
/// `"figure1"` (the paper's example) and `"c17"` (ISCAS-85).
///
/// # Errors
///
/// Returns [`CircuitError::Unknown`] for unknown names, or
/// [`CircuitError::Synthesis`] if a suite entry fails to synthesize.
pub fn build(name: &str) -> Result<Netlist, CircuitError> {
    match name {
        "figure1" => Ok(crate::figure1::netlist()),
        "c17" => Ok(crate::extra::c17()),
        _ => spec(name)
            .ok_or_else(|| CircuitError::Unknown {
                name: name.to_string(),
            })?
            .build()
            .map_err(CircuitError::Synthesis),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_names_are_reported_as_such() {
        let err = build("nosuch").unwrap_err();
        assert_eq!(
            err,
            CircuitError::Unknown {
                name: "nosuch".into()
            }
        );
        assert_eq!(err.to_string(), "unknown circuit `nosuch`");
    }

    #[test]
    fn suite_has_35_unique_entries() {
        let s = suite();
        assert_eq!(s.len(), 35);
        let mut names: Vec<&str> = s.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 35);
    }

    #[test]
    fn all_signatures_fit_exhaustive_simulation() {
        for spec in suite() {
            assert!(
                spec.total_input_bits() <= 14,
                "{} has {} total input bits",
                spec.name(),
                spec.total_input_bits()
            );
        }
    }

    #[test]
    fn small_circuits_synthesize_and_match_signature() {
        for name in ["lion", "train4", "modulo12", "bbtas", "dk15", "tav"] {
            let spec = spec(name).unwrap();
            let n = spec.build().unwrap();
            assert_eq!(n.num_inputs(), spec.total_input_bits(), "{name}: PI count");
            assert_eq!(
                n.num_outputs(),
                spec.outputs() + spec.state_bits(),
                "{name}: PO count"
            );
        }
    }

    #[test]
    fn builds_are_deterministic() {
        let a = build("dk27").unwrap();
        let b = build("dk27").unwrap();
        assert_eq!(
            ndetect_netlist::bench_format::write(&a),
            ndetect_netlist::bench_format::write(&b)
        );
    }

    #[test]
    fn specials_build() {
        assert_eq!(build("figure1").unwrap().num_inputs(), 4);
        assert_eq!(build("c17").unwrap().num_inputs(), 5);
        assert!(build("nonexistent").is_err());
    }

    #[test]
    fn fsm_stand_ins_are_deterministic_tables() {
        for name in ["lion", "train4", "donfile", "modulo12", "ex5", "keyb"] {
            let fsm = spec(name).unwrap().build_fsm();
            assert_eq!(fsm.check_deterministic(), None, "{name}");
        }
    }
}
