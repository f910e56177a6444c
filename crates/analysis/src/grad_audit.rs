//! Gradient audit harness: every op's backward pass vs central
//! differences.
//!
//! This generalizes the ad-hoc checks in `rd_tensor::check` into a sweep
//! over the full op surface exported by `rd-tensor`. Each case builds a
//! small graph around one op, differentiates a scalar reduction of its
//! output with respect to one chosen tensor, and compares against a
//! central-difference estimate. Multi-input ops get one row per input
//! (`conv2d ∂x`, `conv2d ∂w`, ...). The binary `grad_audit` prints the
//! table; [`run_grad_audit`] returns it for tests and CI.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rd_tensor::check::numeric_grad;
use rd_tensor::{Graph, LinearMap, ParamId, ParamSet, Tensor, TrainPlan, VarId, WarpEntry};
use std::sync::Arc;

/// Result of auditing one op's backward pass with respect to one input.
#[derive(Debug, Clone, PartialEq)]
pub struct OpReport {
    /// Row label: op name plus the differentiated input, e.g. `conv2d ∂w`.
    pub case: &'static str,
    /// Largest normalized deviation between analytic and numeric
    /// gradients (`|a - n| / max(1, |a|, |n|)`).
    pub max_err: f32,
    /// Whether `max_err` is below the audit tolerance.
    pub pass: bool,
}

/// Finite-difference step. Large enough to dominate `f32` round-off on
/// the summed losses used here, small enough for the quadratic
/// truncation error to stay far below the audit tolerance.
const EPS: f32 = 1e-2;

fn max_normalized_err(analytic: &Tensor, numeric: &Tensor) -> f32 {
    analytic
        .data()
        .iter()
        .zip(numeric.data())
        .map(|(&a, &n)| (a - n).abs() / 1.0f32.max(a.abs()).max(n.abs()))
        .fold(0.0, f32::max)
}

/// Audits one case: `build` applies the op under test to the graph,
/// returning the op's output node; the loss is `sum_all` of that output.
/// The gradient is taken with respect to `x0` (always the first `input`
/// registered by the harness — `build` decides which operand that is).
fn audit_case(
    case: &'static str,
    x0: &Tensor,
    tol: f32,
    build: impl Fn(&mut Graph, VarId) -> VarId,
) -> OpReport {
    let forward = |t: &Tensor| -> (Graph, VarId, VarId) {
        let mut g = Graph::new();
        let x = g.input(t.clone());
        let y = build(&mut g, x);
        let loss = g.sum_all(y);
        (g, x, loss)
    };
    let (g, x, loss) = forward(x0);
    let analytic = {
        let grads = g.backward(loss);
        grads.get(x).clone()
    };
    let numeric = numeric_grad(
        |t| {
            let (g, _, loss) = forward(t);
            g.value(loss).data()[0]
        },
        x0,
        EPS,
    );
    let max_err = max_normalized_err(&analytic, &numeric);
    OpReport {
        case,
        max_err,
        pass: max_err < tol,
    }
}

/// Audits one fused backward kernel of a compiled [`TrainPlan`]: runs
/// the plan's own forward, seeds the backward with the output itself
/// (i.e. the loss is `sum(out^2)/2`), and compares the resulting input
/// or parameter gradient against central differences of the plan's
/// forward pass. `wrt = None` differentiates the input, `Some(pid)` the
/// named parameter.
fn audit_plan_case(
    case: &'static str,
    ps: &mut ParamSet,
    plan: &TrainPlan,
    x0: &Tensor,
    wrt: Option<ParamId>,
    tol: f32,
) -> OpReport {
    let loss_of = |ps: &ParamSet, x: &Tensor| -> f32 {
        let step = plan.forward(ps, x, false);
        step.output(0).data().iter().map(|v| 0.5 * v * v).sum()
    };
    ps.zero_grads();
    let analytic = {
        let mut step = plan.forward(ps, x0, wrt.is_some());
        let seed = step.output(0);
        step.backward(ps, &[&seed], wrt.is_none());
        match wrt {
            None => step.input_grad(),
            Some(pid) => {
                step.write_param_grads(ps);
                ps.get(pid).grad().clone()
            }
        }
    };
    let numeric = match wrt {
        None => numeric_grad(|t| loss_of(ps, t), x0, EPS),
        Some(pid) => {
            let base = ps.get(pid).value().clone();
            numeric_grad(
                |t| {
                    let mut ps2 = ps.clone();
                    *ps2.get_mut(pid).value_mut() = t.clone();
                    loss_of(&ps2, x0)
                },
                &base,
                EPS,
            )
        }
    };
    let max_err = max_normalized_err(&analytic, &numeric);
    OpReport {
        case,
        max_err,
        pass: max_err < tol,
    }
}

fn warp_map() -> Arc<LinearMap> {
    // A deterministic 3x3 → 2x2 bilinear-style shrink: each output pixel
    // mixes two source pixels so the transpose scatter is exercised.
    let entries = vec![
        WarpEntry {
            dst: 0,
            src: 0,
            weight: 0.7,
        },
        WarpEntry {
            dst: 0,
            src: 1,
            weight: 0.3,
        },
        WarpEntry {
            dst: 1,
            src: 2,
            weight: 0.6,
        },
        WarpEntry {
            dst: 1,
            src: 1,
            weight: 0.4,
        },
        WarpEntry {
            dst: 2,
            src: 6,
            weight: 0.8,
        },
        WarpEntry {
            dst: 2,
            src: 3,
            weight: 0.2,
        },
        WarpEntry {
            dst: 3,
            src: 8,
            weight: 0.5,
        },
        WarpEntry {
            dst: 3,
            src: 4,
            weight: 0.5,
        },
    ];
    Arc::new(LinearMap::new((3, 3), (2, 2), entries))
}

/// Runs the full audit at the given tolerance and returns one report per
/// `(op, differentiated input)` case, covering every op exported by
/// `rd-tensor`.
pub fn run_grad_audit(tol: f32) -> Vec<OpReport> {
    let mut rng = StdRng::seed_from_u64(2024);
    // Shared operands. Activation inputs stay away from the kinks of
    // relu/clamp (|x| >= 0.1) so the central difference never straddles a
    // non-differentiable point.
    let vec4 = Tensor::from_vec(vec![0.5, -0.8, 1.2, -0.3], &[4]);
    let vec4b = Tensor::from_vec(vec![-0.4, 0.9, 0.6, -1.1], &[4]);
    let pos4 = Tensor::from_vec(vec![0.3, 0.7, 0.45, 0.9], &[4]);
    let img = Tensor::randn(&mut rng, &[1, 2, 4, 4], 0.8);
    let img1c = Tensor::randn(&mut rng, &[1, 1, 3, 3], 0.8);
    let cw = Tensor::randn(&mut rng, &[3, 2, 3, 3], 0.5);
    let lin_x = Tensor::randn(&mut rng, &[2, 3], 0.8);
    let lin_w = Tensor::randn(&mut rng, &[4, 3], 0.5);
    let lin_b = Tensor::randn(&mut rng, &[4], 0.5);
    let mm_a = Tensor::randn(&mut rng, &[2, 3], 0.8);
    let mm_b = Tensor::randn(&mut rng, &[3, 2], 0.8);
    let gamma = Tensor::from_vec(vec![1.1, 0.9], &[2]);
    let beta = Tensor::from_vec(vec![0.2, -0.1], &[2]);
    let mut bn_ps = ParamSet::new();
    let run_mean = bn_ps.register("rmean", Tensor::from_vec(vec![0.05, -0.1], &[2]));
    let run_var = bn_ps.register("rvar", Tensor::from_vec(vec![0.8, 1.3], &[2]));
    let logits = Tensor::randn(&mut rng, &[3, 4], 1.0);
    let bce_target = Tensor::from_vec(vec![1.0, 0.0, 1.0, 0.0], &[4]);
    let mse_target = Tensor::from_vec(vec![0.1, -0.2, 0.4, 0.0], &[4]);
    let mask = Tensor::from_vec(
        vec![0.0, 0.25, 0.5, 0.75, 1.0, 0.3, 0.6, 0.9, 0.1],
        &[1, 1, 3, 3],
    );
    let map = warp_map();

    let mut reports = Vec::new();
    let mut case = |name: &'static str, x0: &Tensor, build: &dyn Fn(&mut Graph, VarId) -> VarId| {
        reports.push(audit_case(name, x0, tol, build));
    };

    case("add", &vec4, &|g, x| {
        let b = g.input(vec4b.clone());
        g.add(x, b)
    });
    case("sub", &vec4, &|g, x| {
        let b = g.input(vec4b.clone());
        g.sub(x, b)
    });
    case("mul", &vec4, &|g, x| {
        let b = g.input(vec4b.clone());
        g.mul(x, b)
    });
    case("scale", &vec4, &|g, x| g.scale(x, 1.7));
    case("add_scalar", &vec4, &|g, x| g.add_scalar(x, 0.3));
    case("mul_const", &vec4, &|g, x| g.mul_const(x, &vec4b));
    case("add_const", &vec4, &|g, x| g.add_const(x, &vec4b));
    case("lerp_mask ∂a", &img1c, &|g, x| {
        let b = g.input(mask.clone().reshape(&[1, 1, 3, 3]));
        g.lerp_mask(x, b, &mask)
    });
    case("lerp_mask ∂b", &img1c, &|g, x| {
        let a = g.input(Tensor::full(&[1, 1, 3, 3], 0.4));
        g.lerp_mask(a, x, &mask)
    });
    case("relu", &vec4, &|g, x| g.relu(x));
    case("leaky_relu", &vec4, &|g, x| g.leaky_relu(x, 0.1));
    case("sigmoid", &vec4, &|g, x| g.sigmoid(x));
    case("tanh", &vec4, &|g, x| g.tanh(x));
    case("powf_const", &pos4, &|g, x| g.powf_const(x, 1.7));
    case("clamp", &vec4, &|g, x| g.clamp(x, -1.0, 1.0));
    case("reshape", &vec4, &|g, x| g.reshape(x, &[2, 2]));
    case("repeat_channels", &img1c, &|g, x| g.repeat_channels(x, 3));
    case("concat_channels ∂a", &img, &|g, x| {
        let b = g.input(Tensor::full(&[1, 1, 4, 4], 0.6));
        g.concat_channels(x, b)
    });
    case("concat_channels ∂b", &img1c, &|g, x| {
        let a = g.input(Tensor::full(&[1, 2, 3, 3], 0.2));
        g.concat_channels(a, x)
    });
    case("concat_batch", &lin_x, &|g, x| {
        let b = g.input(Tensor::full(&[1, 3], 0.5));
        g.concat_batch(&[x, b])
    });
    case("sum_all", &vec4, &|g, x| g.sum_all(x));
    case("mean_all", &vec4, &|g, x| g.mean_all(x));
    case("matmul ∂a", &mm_a, &|g, x| {
        let b = g.input(mm_b.clone());
        g.matmul(x, b)
    });
    case("matmul ∂b", &mm_b, &|g, x| {
        let a = g.input(mm_a.clone());
        g.matmul(a, x)
    });
    case("linear ∂x", &lin_x, &|g, x| {
        let w = g.input(lin_w.clone());
        let b = g.input(lin_b.clone());
        g.linear(x, w, b)
    });
    case("linear ∂w", &lin_w, &|g, x| {
        let xx = g.input(lin_x.clone());
        let b = g.input(lin_b.clone());
        g.linear(xx, x, b)
    });
    case("linear ∂b", &lin_b, &|g, x| {
        let xx = g.input(lin_x.clone());
        let w = g.input(lin_w.clone());
        g.linear(xx, w, x)
    });
    case("add_bias_channel ∂x", &img, &|g, x| {
        let b = g.input(gamma.clone());
        g.add_bias_channel(x, b)
    });
    case("add_bias_channel ∂b", &gamma, &|g, x| {
        let xx = g.input(img.clone());
        g.add_bias_channel(xx, x)
    });
    case("conv2d ∂x", &img, &|g, x| {
        let w = g.input(cw.clone());
        g.conv2d(x, w, None, 1, 1)
    });
    case("conv2d ∂w", &cw, &|g, x| {
        let xx = g.input(img.clone());
        g.conv2d(xx, x, None, 1, 1)
    });
    case("max_pool2d", &img, &|g, x| g.max_pool2d(x, 2, 2, 0));
    case("upsample_nearest2x", &img, &|g, x| g.upsample_nearest2x(x));
    case("batch_norm2d_train ∂x", &img, &|g, x| {
        let ga = g.input(gamma.clone());
        let be = g.input(beta.clone());
        // sum_all of plain batch norm is gradient-free in x (the output
        // mean is pinned to beta), so square the output to exercise the
        // full backward formula.
        let (y, _) = g.batch_norm2d_train(x, ga, be, run_mean, run_var, 1e-5);
        g.mul(y, y)
    });
    case("batch_norm2d_train ∂gamma", &gamma, &|g, x| {
        let xx = g.input(img.clone());
        let be = g.input(beta.clone());
        let (y, _) = g.batch_norm2d_train(xx, x, be, run_mean, run_var, 1e-5);
        g.mul(y, y)
    });
    case("batch_norm2d_train ∂beta", &beta, &|g, x| {
        let xx = g.input(img.clone());
        let ga = g.input(gamma.clone());
        let (y, _) = g.batch_norm2d_train(xx, ga, x, run_mean, run_var, 1e-5);
        g.mul(y, y)
    });
    case("batch_norm2d_eval ∂x", &img, &|g, x| {
        let ga = g.input(gamma.clone());
        let be = g.input(beta.clone());
        g.batch_norm2d_eval(x, ga, be, &bn_ps, run_mean, run_var, 1e-5)
    });
    case("batch_norm2d_eval ∂gamma", &gamma, &|g, x| {
        let xx = g.input(img.clone());
        let be = g.input(beta.clone());
        g.batch_norm2d_eval(xx, x, be, &bn_ps, run_mean, run_var, 1e-5)
    });
    case("softmax_cross_entropy_rows", &logits, &|g, x| {
        g.softmax_cross_entropy_rows(x, &[0, 3, 1])
    });
    case("bce_with_logits", &vec4, &|g, x| {
        g.bce_with_logits(x, &bce_target)
    });
    case("mse", &vec4, &|g, x| g.mse(x, &mse_target));
    case("warp", &img1c, &|g, x| g.warp(x, &map));

    // ---- compiled-plan fused backward kernels ----
    // The rows above audit the tape's backward closures; the rows below
    // audit the fused kernels of the compiled training step instead.
    // Each net is traced shape-only at batch 1, compiled into a
    // TrainPlan, and differentiated through the plan's own
    // forward/backward, covering conv+bn(train|eval)+leaky chains,
    // conv+bias, max-pool scatter, nearest-upsample scatter, channel
    // concat, and the standalone leaky kernel.
    {
        let mut ps = ParamSet::new();
        let w = ps.register("w", Tensor::randn(&mut rng, &[3, 2, 3, 3], 0.5));
        let gamma = ps.register("gamma", Tensor::from_vec(vec![1.1, 0.9, 1.05], &[3]));
        let beta = ps.register("beta", Tensor::from_vec(vec![0.2, -0.1, 0.05], &[3]));
        let rmean = ps.register("rmean", Tensor::from_vec(vec![0.05, -0.1, 0.0], &[3]));
        let rvar = ps.register("rvar", Tensor::from_vec(vec![0.8, 1.3, 1.0], &[3]));
        let trace = |ps: &ParamSet, train_bn: bool| -> (Graph, VarId) {
            let mut g = Graph::shape_only();
            let x = g.input(Tensor::zeros(&[1, 2, 4, 4]));
            let wv = g.param(ps, w);
            let y = g.conv2d(x, wv, None, 1, 1);
            let ga = g.param(ps, gamma);
            let be = g.param(ps, beta);
            let y = if train_bn {
                g.batch_norm2d_train(y, ga, be, rmean, rvar, 1e-5).0
            } else {
                g.batch_norm2d_eval(y, ga, be, ps, rmean, rvar, 1e-5)
            };
            let y = g.leaky_relu(y, 0.1);
            (g, y)
        };
        let (g, root) = trace(&ps, true);
        let plan = TrainPlan::compile(&g, &[root]).expect("fused bn-train chain compiles");
        for (name, wrt) in [
            ("plan conv_bn_train_leaky ∂x", None),
            ("plan conv_bn_train_leaky ∂w", Some(w)),
            ("plan conv_bn_train_leaky ∂gamma", Some(gamma)),
            ("plan conv_bn_train_leaky ∂beta", Some(beta)),
        ] {
            reports.push(audit_plan_case(name, &mut ps, &plan, &img, wrt, tol));
        }
        let (g, root) = trace(&ps, false);
        let plan = TrainPlan::compile(&g, &[root]).expect("fused bn-eval chain compiles");
        for (name, wrt) in [
            ("plan conv_bn_eval_leaky ∂x", None),
            ("plan conv_bn_eval_leaky ∂gamma", Some(gamma)),
            ("plan conv_bn_eval_leaky ∂beta", Some(beta)),
        ] {
            reports.push(audit_plan_case(name, &mut ps, &plan, &img, wrt, tol));
        }
    }
    {
        let mut ps = ParamSet::new();
        let w = ps.register("w", Tensor::randn(&mut rng, &[2, 2, 1, 1], 0.6));
        let b = ps.register("b", Tensor::from_vec(vec![0.3, -0.2], &[2]));
        let mut g = Graph::shape_only();
        let x = g.input(Tensor::zeros(&[1, 2, 4, 4]));
        let wv = g.param(&ps, w);
        let bv = g.param(&ps, b);
        let y = g.conv2d(x, wv, Some(bv), 1, 0);
        // branch 1: pool then upsample back to 4x4
        let p = g.max_pool2d(y, 2, 2, 0);
        let u = g.upsample_nearest2x(p);
        // branch 2: leaky off the same conv output — a second reader,
        // so it compiles to the standalone (unfused) leaky kernel
        let l = g.leaky_relu(y, 0.1);
        let cat = g.concat_channels(u, l);
        let plan = TrainPlan::compile(&g, &[cat]).expect("pool/upsample/concat net compiles");
        for (name, wrt) in [
            ("plan conv_bias+pool+up+concat ∂x", None),
            ("plan conv_bias+pool+up+concat ∂w", Some(w)),
            ("plan conv_bias+pool+up+concat ∂b", Some(b)),
        ] {
            reports.push(audit_plan_case(name, &mut ps, &plan, &img, wrt, tol));
        }
    }

    reports
}

/// Renders the audit as an aligned pass/fail table.
pub fn render_table(reports: &[OpReport], tol: f32) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<32} {:>12} {:>6}\n",
        "op ∂input", "max err", "status"
    ));
    out.push_str(&format!("{}\n", "-".repeat(52)));
    for r in reports {
        out.push_str(&format!(
            "{:<32} {:>12.3e} {:>6}\n",
            r.case,
            r.max_err,
            if r.pass { "ok" } else { "FAIL" }
        ));
    }
    let failed = reports.iter().filter(|r| !r.pass).count();
    out.push_str(&format!(
        "{} case(s), {} failed, tolerance {tol:.0e}\n",
        reports.len(),
        failed
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_op_passes_at_audit_tolerance() {
        let reports = run_grad_audit(1e-2);
        let failing: Vec<&OpReport> = reports.iter().filter(|r| !r.pass).collect();
        assert!(
            failing.is_empty(),
            "failing cases:\n{}",
            render_table(&reports, 1e-2)
        );
        // the sweep must cover the full op surface, not a subset —
        // including the compiled-plan fused backward kernels
        assert!(reports.len() >= 50, "only {} cases", reports.len());
        assert!(
            reports
                .iter()
                .filter(|r| r.case.starts_with("plan "))
                .count()
                >= 10,
            "missing compiled-plan cases"
        );
    }
}
