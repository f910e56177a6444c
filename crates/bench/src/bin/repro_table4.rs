//! Regenerates Table IV: ablation over EOT trick combinations.
//!
//! ```text
//! cargo run --release -p rd-bench --bin repro_table4 -- [--scale paper|smoke] [--seed 42] [--audit] [--threads N] [--profile] \
//!     [--checkpoint-every N] [--checkpoint-dir DIR] [--resume] [--deadline-secs N] [--max-retries N]
//! ```

use std::process::ExitCode;

use rd_bench::{compare, paper};
use road_decals::experiments::run_table4;

fn main() -> ExitCode {
    rd_bench::main("repro_table4", run_body)
}

fn run_body() -> Result<(), Box<dyn std::error::Error>> {
    let (mut env, seed) = rd_bench::environment_from_args()?;
    println!(
        "victim detector class-accuracy: {:.2}\n",
        env.detector_accuracy
    );
    let measured = run_table4(&mut env, seed)?;
    println!("{}", paper::table4());
    println!("{measured}");
    println!("shape checks (perspective matters most; gamma beats brightness):");
    compare::report(&[
        // dropping perspective — row (1)+(2)+(3)+(4) — hurts most
        compare::row_dominates(&measured, "(1)+(2)+(4)+(5)", "(1)+(2)+(3)+(4)"),
        compare::row_dominates(&measured, "All", "(1)+(2)+(3)+(4)"),
        // keeping gamma beats keeping brightness
        compare::row_dominates(&measured, "(1)+(2)+(4)+(5)", "(1)+(2)+(3)+(5)"),
    ]);
    Ok(())
}
