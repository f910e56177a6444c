//! Regenerates Table II: our attack in the indoor simulated environment.
//!
//! ```text
//! cargo run --release -p rd-bench --bin repro_table2 -- [--scale paper|smoke] [--seed 42] [--audit] [--threads N] [--profile] \
//!     [--checkpoint-every N] [--checkpoint-dir DIR] [--resume] [--deadline-secs N] [--max-retries N]
//! ```

use std::process::ExitCode;

use rd_bench::{compare, paper};
use road_decals::experiments::run_table2;

fn main() -> ExitCode {
    rd_bench::main("repro_table2", run_body)
}

fn run_body() -> Result<(), Box<dyn std::error::Error>> {
    let (mut env, seed) = rd_bench::environment_from_args()?;
    println!(
        "victim detector class-accuracy: {:.2}\n",
        env.detector_accuracy
    );
    let measured = run_table2(&mut env, seed)?;
    println!("{}", paper::table2());
    println!("{measured}");
    println!("shape checks:");
    compare::report(&[compare::monotone_decreasing(
        &measured,
        "Ours",
        &["slow", "normal", "fast"],
    )]);
    // the simulated environment should beat the real-world Table I cell;
    // cross-table checks are reported in EXPERIMENTS.md
    Ok(())
}
