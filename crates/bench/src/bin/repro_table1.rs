//! Regenerates Table I: real-world comparison of our attack (with and
//! without consecutive frames) against the colored baseline [34].
//!
//! ```text
//! cargo run --release -p rd-bench --bin repro_table1 -- [--scale paper|smoke] [--seed 42] [--audit] [--threads N] [--profile] \
//!     [--checkpoint-every N] [--checkpoint-dir DIR] [--resume] [--deadline-secs N] [--max-retries N]
//! ```

use std::process::ExitCode;

use rd_bench::{compare, paper};
use road_decals::experiments::run_table1;

fn main() -> ExitCode {
    rd_bench::main("repro_table1", run_body)
}

fn run_body() -> Result<(), Box<dyn std::error::Error>> {
    let (mut env, seed) = rd_bench::environment_from_args()?;
    println!(
        "victim detector class-accuracy: {:.2}\n",
        env.detector_accuracy
    );
    let measured = run_table1(&mut env, seed)?;
    println!("{}", paper::table1());
    println!("{measured}");
    println!("shape checks (paper's qualitative claims on our measurement):");
    let ours = "Ours (w/ 3 consecutive frames)";
    let solo = "Ours (w/o 3 consecutive frames)";
    compare::report(&[
        compare::row_near_zero(&measured, "w/o Attack", 0.05),
        compare::row_dominates(&measured, ours, solo),
        compare::row_dominates(&measured, solo, "[34]"),
        compare::row_dominates(&measured, ours, "[34]"),
        compare::monotone_decreasing(&measured, ours, &["slow", "normal", "fast"]),
        compare::monotone_decreasing(&measured, "[34]", &["slow", "normal", "fast"]),
    ]);
    Ok(())
}
