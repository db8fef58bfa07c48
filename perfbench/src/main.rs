//! Command-line entry point of the repository benchmark; see the library
//! docs for what it measures.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use perfbench::{run, Options, USAGE};

fn main() -> ExitCode {
    let opts = match Options::parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for e in &outcome.tally.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", outcome.facts_json());
    for m in &outcome.metrics {
        println!("{:<26} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for m in &outcome.wall_clock {
        println!(
            "{:<26} {:>16.6} {} (wall clock, not bounded)",
            m.name, m.value, m.unit
        );
    }
    println!(
        "{:<26} {:>16.6} ratio ({} of {} operations failed)",
        "failed_ratio",
        outcome.failed_ratio(),
        outcome.tally.failed,
        outcome.tally.attempted
    );
    println!("{}", outcome.result_json());
    if outcome.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
