//! Static plan audit: runs the `rd-analysis` plan analyzer over every
//! compiled plan in the workspace's model zoo and certifies ulp-error
//! bounds for the ROADMAP item-1 kernel substitution.
//!
//! ```text
//! cargo run --release -p rd-bench --bin plan_audit -- \
//!     [--out target/PLAN_AUDIT.json]
//! ```
//!
//! Audited plans (everything the models cache at their compile sites):
//!
//! * TinyYolo — inference plan, training plan, gradient (frozen-eval)
//!   plan, at the standard 96×96 configuration;
//! * Generator / Discriminator — inference plans. Their training runs
//!   on the tape: `TrainPlan` has no backward for `linear`, `relu` or
//!   `sigmoid`.
//!
//! Per plan it prints op/buffer statistics (op count, fused convs,
//! slots, peak live per-sample activation footprint) and every analyzer
//! finding; per inference plan it additionally certifies a
//! [`rd_analysis::LogitBound`] for the `f32x8-fma` candidate kernel
//! model. The process exits nonzero on any finding, any orphan
//! parameter, or an inference bound that fails to certify — this is the
//! hard gate ci.sh runs.
//!
//! This binary lives in `rd-bench` rather than `rd-analysis` because
//! the model crates already depend on `rd-analysis` for the
//! compile-site audit hook; a bin in `rd-analysis` that built the
//! models would close a dependency cycle.

use rand::rngs::StdRng;
use rand::SeedableRng;

use rd_analysis::{certify_logit_bounds, liveness, KernelModel, PlanIr};
use rd_bench::arg;
use rd_detector::{TinyYolo, YoloConfig};
use rd_gan::{Discriminator, GanConfig, Generator};
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
    /// Certified max-abs divergence in logit-scale ulps for the
    /// `f32x8-fma` candidate, when the plan admits a static bound.
    bound_ulps: Option<f64>,
}

impl Report {
    /// The highest execution tier this plan certifies under: inference
    /// plans with a finite f32x8-fma bound may run the fast tier;
    /// training/gradient plans (and plans whose bound failed to
    /// certify) stay on the scalar reference, which is the oracle
    /// itself and needs no certificate.
    fn certified_tier(&self) -> &'static str {
        match self.bound_ulps {
            Some(u) if u.is_finite() => "fast",
            _ => "reference",
        }
    }
}

/// Audits one plan: lints + liveness statistics + (for inference
/// plans over `[input_lo, input_hi]` inputs) the candidate-kernel
/// ulp-bound certificate.
fn audit(tag: &str, meta: &PlanMeta, ps: &ParamSet, input_box: Option<(f64, f64)>) -> Report {
    let issues: Vec<String> = rd_analysis::audit_plan(meta, ps)
        .iter()
        .map(|i| i.to_string())
        .collect();
    let (slots, peak) = match PlanIr::lift(meta) {
        Ok(ir) => (meta.slots.len(), liveness::peak_live_elems(&ir)),
        Err(_) => (meta.slots.len(), 0), // already reported as issues
    };
    let mut issues = issues;
    let bound_ulps = input_box.and_then(|(lo, hi)| {
        match certify_logit_bounds(meta, ps, lo, hi, &KernelModel::f32x8_fma()) {
            Ok(bounds) => bounds
                .iter()
                .map(|b| b.ulps_at_scale)
                .fold(None, |acc: Option<f64>, u| {
                    Some(acc.map_or(u, |a| a.max(u)))
                }),
            Err(e) => {
                issues.push(format!("[ulp-bound] {tag}: certification failed: {e}"));
                None
            }
        }
    });
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
        bound_ulps,
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
    // Rendered frames are normalized RGB in [0, 1].
    reports.push(audit(
        "detector/infer",
        &det_infer,
        &ps_det,
        Some((0.0, 1.0)),
    ));
    reports.push(audit("detector/train", &det_train, &ps_det, None));
    reports.push(audit("detector/grad", &det_grad, &ps_det, None));
    orphan_msgs.extend(
        rd_analysis::orphan_params(&[&det_infer, &det_train, &det_grad], &ps_det)
            .iter()
            .map(|i| format!("detector: {i}")),
    );

    // --- GAN: inference plans ----------------------------------------
    let cfg = GanConfig::default();
    let mut ps_g = ParamSet::new();
    let mut ps_d = ParamSet::new();
    let gen = Generator::new(&mut ps_g, &mut rng, cfg);
    let disc = Discriminator::new(&mut ps_d, &mut rng, cfg);
    let gen_infer = gen.infer_plan(&ps_g).meta();
    let disc_infer = disc.infer_plan(&ps_d).meta();
    // Latents are standard normal; ±6σ is far beyond anything sampled.
    reports.push(audit("gan/generator", &gen_infer, &ps_g, Some((-6.0, 6.0))));
    // Decals leave the generator through a sigmoid, so inputs are [0, 1].
    reports.push(audit(
        "gan/discriminator",
        &disc_infer,
        &ps_d,
        Some((0.0, 1.0)),
    ));
    orphan_msgs.extend(
        rd_analysis::orphan_params(&[&gen_infer], &ps_g)
            .iter()
            .map(|i| format!("generator: {i}")),
    );
    orphan_msgs.extend(
        rd_analysis::orphan_params(&[&disc_infer], &ps_d)
            .iter()
            .map(|i| format!("discriminator: {i}")),
    );

    // --- render ------------------------------------------------------
    println!(
        "{:<24} {:<6} {:>5} {:>6} {:>6} {:>14} {:>16} {:>10}",
        "plan", "kind", "ops", "convs", "slots", "peak-live f32", "f32x8 bound ulps", "tier"
    );
    let mut failed = false;
    for r in &reports {
        let bound = r.bound_ulps.map_or("-".to_string(), |u| format!("{u:.3}"));
        println!(
            "{:<24} {:<6} {:>5} {:>6} {:>6} {:>14} {:>16} {:>10}",
            r.tag,
            r.kind,
            r.ops,
            r.convs,
            r.slots,
            r.peak_live_f32,
            bound,
            r.certified_tier()
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
                 \"slots\": {}, \"peak_live_f32\": {}, \"issues\": {}, \"bound_ulps\": {}, \
                 \"certified_tier\": \"{}\"}}",
                r.tag,
                r.kind,
                r.ops,
                r.convs,
                r.slots,
                r.peak_live_f32,
                r.issues.len(),
                r.bound_ulps
                    .map_or("null".to_string(), |u| format!("{u:.6}")),
                r.certified_tier(),
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
    println!(
        "plan_audit: {} plan(s) clean, every inference bound certified",
        reports.len()
    );
    Ok(())
}
