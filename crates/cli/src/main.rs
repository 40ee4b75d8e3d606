//! `ndet` — command-line interface to the n-detection analysis library.
//!
//! ```text
//! ndet list                         # suite circuits and signatures
//! ndet stats <circuit>              # structure + fault population
//! ndet worst <circuit>              # worst-case nmin analysis
//! ndet average <circuit> [opts]     # Procedure-1 detection probabilities
//! ndet greedy <circuit> --n N       # compact greedy n-detection set
//! ndet synth <circuit>              # print synthesized .bench netlist
//! ndet bench-file <path> <command>  # analyze a user-provided .bench file
//! ndet cones <circuit|path>         # per-output-cone partitioned analysis
//! ```
//!
//! `<circuit>` is any suite name (see `ndet list`), `figure1`, or `c17`.

use ndetect_cli::commands;
use std::any::Any;
use std::panic;
use std::process::ExitCode;

/// Whether a panic payload is `print!` failing on a closed stdout pipe
/// (`ndet list | head -1`): the reader is gone, so the command ends
/// quietly instead of reporting a crash. `SIGPIPE` stays ignored, so
/// `ndet serve` keeps surviving clients that hang up.
fn is_closed_stdout(payload: &(dyn Any + Send)) -> bool {
    payload.downcast_ref::<String>().is_some_and(|message| {
        message.starts_with("failed printing to stdout") && message.contains("Broken pipe")
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let report = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        if !is_closed_stdout(info.payload()) {
            report(info);
        }
    }));
    let outcome = match panic::catch_unwind(|| commands::dispatch(&args)) {
        Ok(outcome) => outcome,
        Err(payload) if is_closed_stdout(payload.as_ref()) => return ExitCode::SUCCESS,
        Err(payload) => panic::resume_unwind(payload),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}
