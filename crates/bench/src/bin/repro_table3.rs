//! Regenerates Table III: ablation over the number of decals N.
//!
//! ```text
//! cargo run --release -p rd-bench --bin repro_table3 -- [--scale paper|smoke] [--seed 42] [--audit] [--threads N] [--profile] \
//!     [--checkpoint-every N] [--checkpoint-dir DIR] [--resume] [--deadline-secs N] [--max-retries N]
//! ```

use std::process::ExitCode;

use rd_bench::{compare, paper};
use road_decals::experiments::run_table3;

fn main() -> ExitCode {
    rd_bench::main("repro_table3", run_body)
}

fn run_body() -> Result<(), Box<dyn std::error::Error>> {
    let (mut env, seed) = rd_bench::environment_from_args()?;
    println!(
        "victim detector class-accuracy: {:.2}\n",
        env.detector_accuracy
    );
    let measured = run_table3(&mut env, seed)?;
    println!("{}", paper::table3());
    println!("{measured}");
    println!("shape checks (mid-range N wins):");
    compare::report(&[
        compare::row_dominates(&measured, "N=4", "N=8"),
        compare::row_dominates(&measured, "N=6", "N=8"),
        compare::monotone_decreasing(&measured, "N=4", &["slow", "normal", "fast"]),
    ]);
    Ok(())
}
