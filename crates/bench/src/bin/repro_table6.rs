//! Regenerates Table VI: ablation over decal size k.
//!
//! ```text
//! cargo run --release -p rd-bench --bin repro_table6 -- [--scale paper|smoke] [--seed 42] [--audit] [--threads N] [--profile] \
//!     [--checkpoint-every N] [--checkpoint-dir DIR] [--resume] [--deadline-secs N] [--max-retries N]
//! ```

use std::process::ExitCode;

use rd_bench::{compare, paper};
use road_decals::experiments::run_table6;

fn main() -> ExitCode {
    rd_bench::main("repro_table6", run_body)
}

fn run_body() -> Result<(), Box<dyn std::error::Error>> {
    let (mut env, seed) = rd_bench::environment_from_args()?;
    println!(
        "victim detector class-accuracy: {:.2}\n",
        env.detector_accuracy
    );
    let measured = run_table6(&mut env, seed)?;
    println!("{}", paper::table6());
    println!("{measured}");
    println!("shape checks (k=60 peaks; both tails collapse):");
    compare::report(&[
        compare::row_dominates(&measured, "k=60", "k=20"),
        compare::row_dominates(&measured, "k=60", "k=80"),
        compare::row_dominates(&measured, "k=40", "k=20"),
    ]);
    Ok(())
}
