//! Bundled sequential benchmark circuits for time-frame-expansion
//! analysis: the ISCAS-89 `s27` netlist (small enough that its
//! two-frame expansion stays exhaustively simulable) plus parameterized
//! generators for shift registers and binary counters.
//!
//! All circuits are produced as `.bench` text and parsed through
//! [`bench_format::parse_seq`], so they exercise the same frontend as
//! user-supplied files.

use crate::CircuitError;
use ndetect_netlist::{bench_format, SeqNetlist};
use std::fmt::Write as _;

/// The ISCAS-89 `s27` benchmark: 4 PIs, 1 PO, 3 flip-flops, 10 gates.
/// Its broadside expansion has 7 inputs — 128 exhaustive patterns.
pub const S27_BENCH: &str = "\
# s27 (ISCAS-89)
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NAND(G2, G12)
";

/// Builds the ISCAS-89 `s27` benchmark.
#[must_use]
pub fn s27() -> SeqNetlist {
    bench_format::parse_seq("s27", S27_BENCH).expect("bundled s27 text is valid")
}

/// Builds an `bits`-stage shift register: `q0' = din`, `qi' = q(i-1)`,
/// `dout = q(bits-1)`. The simplest FF-chained circuit — every
/// transition fault at a stage output needs the launch value to ripple
/// in from the previous stage.
///
/// # Panics
///
/// Panics if `bits == 0`.
#[must_use]
pub fn shift_register(name: &str, bits: usize) -> SeqNetlist {
    assert!(bits >= 1, "shift register needs at least one stage");
    let mut src = String::from("INPUT(din)\nOUTPUT(dout)\n");
    for i in 0..bits {
        let d = if i == 0 {
            "din".to_string()
        } else {
            format!("q{}", i - 1)
        };
        let _ = writeln!(src, "q{i} = DFF({d})");
    }
    let _ = writeln!(src, "dout = BUF(q{})", bits - 1);
    bench_format::parse_seq(name, &src).expect("generated shift register is valid")
}

/// Builds a `bits`-bit binary up-counter with enable and carry-out:
/// `q0' = q0 XOR en`, `qi' = qi XOR carry(i)`, `co = AND(carry chain)`.
/// Dense reconvergence through the carry chain makes it the stress
/// fixture for transition-fault propagation across the FF boundary.
///
/// # Panics
///
/// Panics if `bits == 0`.
#[must_use]
pub fn counter(name: &str, bits: usize) -> SeqNetlist {
    assert!(bits >= 1, "counter needs at least one bit");
    let mut src = String::from("INPUT(en)\nOUTPUT(co)\n");
    for i in 0..bits {
        let _ = writeln!(src, "q{i} = DFF(n{i})");
        let carry = if i == 0 {
            "en".to_string()
        } else {
            format!("c{i}")
        };
        let _ = writeln!(src, "n{i} = XOR(q{i}, {carry})");
        let _ = writeln!(src, "c{} = AND({carry}, q{i})", i + 1);
    }
    let _ = writeln!(src, "co = BUF(c{bits})");
    bench_format::parse_seq(name, &src).expect("generated counter is valid")
}

/// Names of the bundled sequential circuits, in registry order.
#[must_use]
pub fn seq_suite() -> Vec<&'static str> {
    vec!["s27", "shift4", "cnt3"]
}

/// Builds a bundled sequential circuit by name: `s27`, `shift4` (a
/// 4-stage shift register), or `cnt3` (a 3-bit enabled counter).
///
/// # Errors
///
/// Returns [`CircuitError::Unknown`] for unknown names, like
/// [`crate::build`].
pub fn build_seq(name: &str) -> Result<SeqNetlist, CircuitError> {
    match name {
        "s27" => Ok(s27()),
        "shift4" => Ok(shift_register("shift4", 4)),
        "cnt3" => Ok(counter("cnt3", 3)),
        _ => Err(CircuitError::Unknown {
            name: name.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s27_has_the_published_signature() {
        let s = s27();
        assert_eq!(s.num_true_inputs(), 4);
        assert_eq!(s.num_true_outputs(), 1);
        assert_eq!(s.num_ffs(), 3);
        assert_eq!(s.core().num_gates(), 10);
    }

    #[test]
    fn shift_register_shifts() {
        let s = shift_register("sr2", 2);
        // state [q0, q1], input [din]; dout = q1, next = [din, q0].
        let (po, next) = s.step(&[true, false], &[false]);
        assert_eq!(po, [false]);
        assert_eq!(next, [false, true]);
    }

    #[test]
    fn counter_counts_with_carry_out() {
        let c = counter("cnt2", 2);
        // 0b11 + en=1 wraps to 0b00 with carry out.
        let (po, next) = c.step(&[true, true], &[true]);
        assert_eq!(po, [true]);
        assert_eq!(next, [false, false]);
        // Disabled: state holds, no carry.
        let (po, next) = c.step(&[true, true], &[false]);
        assert_eq!(po, [false]);
        assert_eq!(next, [true, true]);
    }

    #[test]
    fn registry_resolves_every_suite_name() {
        for name in seq_suite() {
            let s = build_seq(name).unwrap();
            // Every bundled circuit's expansion must stay exhaustively
            // simulable.
            assert!(s.core().num_inputs() <= 12, "{name}");
        }
        assert!(build_seq("nope").is_err());
    }
}
