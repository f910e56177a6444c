//! The repository benchmark: one Table I unit, and driven challenge
//! videos streamed one at a time or as a supervised fleet.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1_smoke|drive_stream|drive_fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Every input is generated from `--seed`.
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones; the last line of stdout is the result object, the line before
//! it the run manifest. Digests and manifests are also written under
//! `.bench_state/`.

mod checks;
mod layers;
mod report;
mod setup;
mod workloads;

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use rd_tensor::{parallel, simd, Runtime, RuntimeConfig, Tier};

use crate::report::{json_num, json_str};

pub const WORKLOADS: [&str; 3] = ["table1_smoke", "drive_stream", "drive_fleet"];

/// Worker threads of the runtime the benchmark runs on.
const THREADS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = checks::DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Comma-separated JSON numbers.
fn samples(values: &[f64]) -> String {
    values
        .iter()
        .map(|&v| json_num(v))
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let state = Path::new(".bench_state");
    let run = Duration::from_secs(args.seconds);
    let rt = Runtime::new(RuntimeConfig {
        threads: THREADS,
        tier: Tier::Reference,
        profiling: false,
    });
    let steal0 = report::host_steal_s();
    let out = rt.enter(|| match args.workload.as_str() {
        "table1_smoke" => workloads::table1_smoke(args.seed, run, args.trace, state),
        "drive_stream" => workloads::drive_stream(args.seed, run, args.trace, state),
        _ => workloads::drive_fleet(args.seed, run, args.trace, state),
    });

    let threads = if args.workload == "drive_fleet" {
        format!(
            "{{\"jobs\": {}, \"threads_per_job\": 1}}",
            workloads::FLEET_JOBS
        )
    } else {
        format!("{{\"jobs\": 1, \"threads_per_job\": {THREADS}}}")
    };
    let manifest = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_logical_cpus\": {}, \"threads\": {threads}, \"tier\": {}, \
         \"simd_backend\": {}, \"git_commit\": {}, \"tracing_overhead\": {}, \
         \"host_steal_s\": {}, \
         \"checks_attempted\": {}, \"checks_failed\": {}, \"metrics\": {}, \"unit_s_samples\": [{}], \"setup_s_samples\": [{}]}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        parallel::host_logical_cpus(),
        json_str(Tier::Reference.label()),
        json_str(simd::Backend::select(std::env::var_os("RD_NO_SIMD").is_some()).label()),
        json_str(&report::git_commit()),
        out.tracing_overhead.map_or("null".to_string(), json_num),
        steal0
            .zip(report::host_steal_s())
            .map_or("null".to_string(), |(a, b)| json_num(b - a)),
        out.checks.attempted,
        out.checks.failed,
        out.metrics.to_json(),
        samples(&out.unit_s),
        samples(&out.setup_s),
    );
    let manifest_path = state.join(format!(
        "manifest-{}-{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(state)
        .and_then(|()| std::fs::write(&manifest_path, format!("{manifest}\n")))
    {
        eprintln!("perfbench: cannot write {}: {e}", manifest_path.display());
    }
    // a run that checked nothing counts as one failed check
    let (attempted, failed) = match out.checks.attempted {
        0 => (1, 1),
        n => (n, out.checks.failed),
    };
    println!("{{\"manifest\": {manifest}}}");
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        out.metrics.to_json(),
    );
    ExitCode::SUCCESS
}
