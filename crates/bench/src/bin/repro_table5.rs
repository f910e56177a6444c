//! Regenerates Table V: ablation over decal shapes.
//!
//! ```text
//! cargo run --release -p rd-bench --bin repro_table5 -- [--scale paper|smoke] [--seed 42] [--audit] [--threads N] [--profile] \
//!     [--checkpoint-every N] [--checkpoint-dir DIR] [--resume] [--deadline-secs N] [--max-retries N]
//! ```

use std::process::ExitCode;

use rd_bench::{compare, paper};
use road_decals::experiments::run_table5;

fn main() -> ExitCode {
    rd_bench::main("repro_table5", run_body)
}

fn run_body() -> Result<(), Box<dyn std::error::Error>> {
    let (mut env, seed) = rd_bench::environment_from_args()?;
    println!(
        "victim detector class-accuracy: {:.2}\n",
        env.detector_accuracy
    );
    let measured = run_table5(&mut env, seed)?;
    println!("{}", paper::table5());
    println!("{measured}");
    println!("shape checks (star wins, circle loses):");
    compare::report(&[
        compare::row_dominates(&measured, "star", "triangle"),
        compare::row_dominates(&measured, "star", "circle"),
        compare::row_dominates(&measured, "star", "square"),
        compare::row_dominates(&measured, "triangle", "circle"),
    ]);
    Ok(())
}
