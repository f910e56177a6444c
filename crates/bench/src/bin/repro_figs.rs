//! Regenerates the paper's figures (2-8) as PPM images under
//! `out/figures/`.
//!
//! ```text
//! cargo run --release -p rd-bench --bin repro_figs -- [--scale paper|smoke] [--seed 42] [--audit] [--threads N] [--profile] \
//!     [--checkpoint-every N] [--checkpoint-dir DIR] [--resume] [--deadline-secs N] [--max-retries N]
//! ```

use std::process::ExitCode;

use road_decals::experiments::run_figures;

fn main() -> ExitCode {
    rd_bench::main("repro_figs", run_body)
}

fn run_body() -> Result<(), Box<dyn std::error::Error>> {
    let (mut env, seed) = rd_bench::environment_from_args()?;
    let written = run_figures(&mut env, seed, "out/figures")?;
    println!("wrote {} figures:", written.len());
    for p in written {
        println!("  {}", p.display());
    }
    Ok(())
}
