//! Static plan audit: runs the `rd-analysis` plan analyzer over every
//! compiled plan in the workspace.
//!
//! ```text
//! cargo run --release -p rd-bench --bin plan_audit -- \
//!     [--out target/PLAN_AUDIT.json]
//! ```
//!
//! Only the detector compiles plans: TinyYolo's inference plan,
//! training plan and gradient (frozen-eval) plan, audited at the
//! standard 96×96 configuration. The GAN runs on the tape.
//!
//! Per plan it prints op/buffer statistics (op count, fused convs,
//! slots, peak live per-sample activation footprint) and every analyzer
//! finding. The process exits nonzero on any finding or any orphan
//! parameter — this is the hard gate ci.sh runs.
//!
//! This binary lives in `rd-bench` rather than `rd-analysis` because
//! the detector crate already depends on `rd-analysis` for the
//! compile-site audit hook; a bin in `rd-analysis` that built the
//! detector would close a dependency cycle.

use rand::rngs::StdRng;
use rand::SeedableRng;

use rd_analysis::{liveness, PlanIr};
use rd_bench::arg;
use rd_detector::{TinyYolo, YoloConfig};
use rd_tensor::{ParamSet, PlanMeta};

/// One audited plan's statistics and findings.
struct Report {
    tag: String,
    kind: &'static str,
    ops: usize,
    convs: usize,
    slots: usize,
    peak_live_f32: usize,
    issues: Vec<String>,
}

/// Audits one plan: lints + liveness statistics.
fn audit(tag: &str, meta: &PlanMeta, ps: &ParamSet) -> Report {
    let issues: Vec<String> = rd_analysis::audit_plan(meta, ps)
        .iter()
        .map(|i| i.to_string())
        .collect();
    let (slots, peak) = match PlanIr::lift(meta) {
        Ok(ir) => (meta.slots.len(), liveness::peak_live_elems(&ir)),
        Err(_) => (meta.slots.len(), 0), // already reported as issues
    };
    Report {
        tag: tag.to_string(),
        kind: match meta.kind {
            rd_tensor::PlanKind::Infer => "infer",
            rd_tensor::PlanKind::Train => "train",
        },
        ops: meta.ops.len(),
        convs: meta.num_convs(),
        slots,
        peak_live_f32: peak,
        issues,
    }
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("plan_audit: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let out: String = arg("--out", "target/PLAN_AUDIT.json".to_owned())?;
    let mut rng = StdRng::seed_from_u64(7);
    let mut reports = Vec::new();
    let mut orphan_msgs: Vec<String> = Vec::new();

    // --- detector: the three cached plan sites -----------------------
    let mut ps_det = ParamSet::new();
    let det = TinyYolo::new(&mut ps_det, &mut rng, YoloConfig::standard());
    let det_infer = det.infer_plan(&ps_det).meta();
    let det_train = det.train_plan(&ps_det).meta();
    let det_grad = det.grad_plan(&ps_det).meta();
    reports.push(audit("detector/infer", &det_infer, &ps_det));
    reports.push(audit("detector/train", &det_train, &ps_det));
    reports.push(audit("detector/grad", &det_grad, &ps_det));
    orphan_msgs.extend(
        rd_analysis::orphan_params(&[&det_infer, &det_train, &det_grad], &ps_det)
            .iter()
            .map(|i| format!("detector: {i}")),
    );

    // --- render ------------------------------------------------------
    println!(
        "{:<24} {:<6} {:>5} {:>6} {:>6} {:>14}",
        "plan", "kind", "ops", "convs", "slots", "peak-live f32"
    );
    let mut failed = false;
    for r in &reports {
        println!(
            "{:<24} {:<6} {:>5} {:>6} {:>6} {:>14}",
            r.tag, r.kind, r.ops, r.convs, r.slots, r.peak_live_f32
        );
        for i in &r.issues {
            failed = true;
            println!("    FAIL {i}");
        }
    }
    for m in &orphan_msgs {
        failed = true;
        println!("    FAIL {m}");
    }

    // --- JSON report (--out) ------------------------------------------
    let plans_json: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "    {{\"tag\": \"{}\", \"kind\": \"{}\", \"ops\": {}, \"convs\": {}, \
                 \"slots\": {}, \"peak_live_f32\": {}, \"issues\": {}}}",
                r.tag,
                r.kind,
                r.ops,
                r.convs,
                r.slots,
                r.peak_live_f32,
                r.issues.len(),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"plan_audit\",\n  \"clean\": {},\n  \"plans\": [\n{}\n  ]\n}}\n",
        !failed && orphan_msgs.is_empty(),
        plans_json.join(",\n")
    );
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&out, &json).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("plan_audit: wrote {out}");

    if failed {
        return Err("plan audit found issues (see FAIL lines above)".into());
    }
    println!("plan_audit: {} plan(s) clean", reports.len());
    Ok(())
}
