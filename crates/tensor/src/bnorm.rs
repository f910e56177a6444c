//! Batch normalization over NCHW activations.
//!
//! The forward/backward arithmetic lives in free `bn_*` kernel
//! functions that the tape closures here and the compiled training
//! plan (`crate::train_plan`) both call. Eval mode is one per-channel
//! affine, [`bn_eval_affine`], which all three engines apply through
//! `crate::conv::conv_epilogue`.

use crate::conv::conv_epilogue;
use crate::graph::{Graph, VarId};
use crate::params::{ParamId, ParamSet};
use crate::plan::Act;
use crate::tensor::Tensor;

/// Per-channel batch statistics returned by the training-mode forward pass
/// so the owning module can update its running averages.
#[derive(Debug, Clone)]
pub struct BatchStats {
    /// Per-channel mean over `N x H x W`.
    pub mean: Tensor,
    /// Per-channel (biased) variance over `N x H x W`.
    pub var: Tensor,
}

/// Momentum-folds batch statistics into their running-stat parameters,
/// `r = momentum*r + (1-momentum)*batch`, one `(running mean, running
/// var, stats)` entry at a time. The tape training forward and the
/// compiled training step ([`crate::TrainStep::bn_stats`]) both fold
/// through here, so they move the running stats bitwise-identically.
pub fn fold_running_stats(
    ps: &mut ParamSet,
    pending: &[(ParamId, ParamId, BatchStats)],
    momentum: f32,
) {
    for (rmean, rvar, stats) in pending {
        for (id, batch) in [(rmean, &stats.mean), (rvar, &stats.var)] {
            let r = ps.get_mut(*id).value_mut();
            for (r, &b) in r.data_mut().iter_mut().zip(batch.data()) {
                *r = momentum * *r + (1.0 - momentum) * b;
            }
        }
    }
}

/// The attrs both batch norms carry for the plan lowering: the running
/// statistics' parameter ids and the epsilon's bits.
fn bn_attrs(rmean: ParamId, rvar: ParamId, eps: f32) -> [(&'static str, usize); 3] {
    [
        ("rmean_pid", rmean.index()),
        ("rvar_pid", rvar.index()),
        ("eps_bits", eps.to_bits() as usize),
    ]
}

/// Per-channel batch mean/variance over `[n, c, hw]` data; the exact
/// two-pass sum order of the original tape loop.
pub(crate) fn bn_batch_stats(
    xd: &[f32],
    n: usize,
    c: usize,
    hw: usize,
    mean: &mut [f32],
    var: &mut [f32],
) {
    let m = (n * hw) as f32;
    for ch in 0..c {
        let mut s = 0.0f32;
        for ni in 0..n {
            let off = (ni * c + ch) * hw;
            s += xd[off..off + hw].iter().sum::<f32>();
        }
        let mu = s / m;
        let mut v = 0.0f32;
        for ni in 0..n {
            let off = (ni * c + ch) * hw;
            for &xval in &xd[off..off + hw] {
                let d = xval - mu;
                v += d * d;
            }
        }
        mean[ch] = mu;
        var[ch] = v / m;
    }
}

/// `ivstd[ch] = 1 / sqrt(var[ch] + eps)`.
pub(crate) fn bn_ivstd(var: &[f32], eps: f32, ivstd: &mut [f32]) {
    for (iv, &v) in ivstd.iter_mut().zip(var) {
        *iv = 1.0 / (v + eps).sqrt();
    }
}

/// Training-mode forward: normalizes `xhat` in place (it enters holding
/// the input, and the backward pass needs the normalized values) and
/// writes the affine output.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bn_train_forward(
    n: usize,
    c: usize,
    hw: usize,
    mean: &[f32],
    ivstd: &[f32],
    gv: &[f32],
    bv: &[f32],
    xhat: &mut [f32],
    out: &mut [f32],
) {
    for ni in 0..n {
        for ch in 0..c {
            let off = (ni * c + ch) * hw;
            let mu = mean[ch];
            let iv = ivstd[ch];
            let ga = gv[ch];
            let be = bv[ch];
            for i in 0..hw {
                let xh = (xhat[off + i] - mu) * iv;
                xhat[off + i] = xh;
                out[off + i] = ga * xh + be;
            }
        }
    }
}

/// Training-mode backward reductions: `sum_g[ch] = Σ g` and
/// `sum_gx[ch] = Σ g·xhat`, accumulated sample-major exactly like the
/// tape closure. These are also the gamma/beta gradients.
pub(crate) fn bn_train_backward_sums(
    gd: &[f32],
    xhat: &[f32],
    n: usize,
    c: usize,
    hw: usize,
    sum_g: &mut [f32],
    sum_gx: &mut [f32],
) {
    for ni in 0..n {
        for ch in 0..c {
            let off = (ni * c + ch) * hw;
            for i in 0..hw {
                let gv = gd[off + i];
                sum_g[ch] += gv;
                sum_gx[ch] += gv * xhat[off + i];
            }
        }
    }
}

/// Training-mode input gradient,
/// `gx += gamma*ivstd/m * (m*g - sum_g - xhat*sum_gx)`, accumulated
/// into `gx` in the tape's element order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bn_train_backward_gx(
    gd: &[f32],
    xhat: &[f32],
    n: usize,
    c: usize,
    hw: usize,
    gamma_v: &[f32],
    ivstd: &[f32],
    sum_g: &[f32],
    sum_gx: &[f32],
    gx: &mut [f32],
) {
    let m = (n * hw) as f32;
    for ni in 0..n {
        for ch in 0..c {
            let off = (ni * c + ch) * hw;
            let k = gamma_v[ch] * ivstd[ch] / m;
            for i in 0..hw {
                let gv = gd[off + i];
                gx[off + i] += k * (m * gv - sum_g[ch] - xhat[off + i] * sum_gx[ch]);
            }
        }
    }
}

/// Eval-mode batch norm as a per-channel affine `x·scale + shift`.
pub(crate) struct BnAffine {
    /// `1 / sqrt(var + eps)`, which the backward kernels read.
    pub ivstd: Vec<f32>,
    /// `gamma·ivstd`.
    pub scale: Vec<f32>,
    /// `beta − mean·scale`.
    pub shift: Vec<f32>,
}

/// The eval-mode affine of running statistics `mean` / `var`.
pub(crate) fn bn_eval_affine(
    gamma: &[f32],
    beta: &[f32],
    mean: &[f32],
    var: &[f32],
    eps: f32,
) -> BnAffine {
    let mut ivstd = vec![0.0; var.len()];
    bn_ivstd(var, eps, &mut ivstd);
    let scale: Vec<f32> = gamma.iter().zip(&ivstd).map(|(&g, &iv)| g * iv).collect();
    let shift = beta
        .iter()
        .zip(mean)
        .zip(&scale)
        .map(|((&b, &m), &s)| b - m * s)
        .collect();
    BnAffine {
        ivstd,
        scale,
        shift,
    }
}

/// Eval-mode backward: accumulates all three gradients in the tape's
/// interleaved `(sample, channel)` order — the per-channel beta/gamma
/// entries receive one partial sum per sample.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bn_eval_backward(
    gd: &[f32],
    xd: &[f32],
    n: usize,
    c: usize,
    hw: usize,
    mean: &[f32],
    ivstd: &[f32],
    gamma_v: &[f32],
    gx: &mut [f32],
    ggamma: &mut [f32],
    gbeta: &mut [f32],
) {
    for ni in 0..n {
        for ch in 0..c {
            let off = (ni * c + ch) * hw;
            let scale = gamma_v[ch] * ivstd[ch];
            let mut sum_g = 0.0f32;
            let mut sum_gxh = 0.0f32;
            for i in 0..hw {
                let gval = gd[off + i];
                gx[off + i] += gval * scale;
                sum_g += gval;
                let xh = (xd[off + i] - mean[ch]) * ivstd[ch];
                sum_gxh += gval * xh;
            }
            gbeta[ch] += sum_g;
            ggamma[ch] += sum_gxh;
        }
    }
}

/// Eval-mode input gradient only: `gx += g * gamma*ivstd`. Used by the
/// compiled plan when parameter gradients are not requested (frozen
/// detector in the attack loop) — the expression for `gx` is identical
/// to [`bn_eval_backward`]'s, so skipping the reductions changes no
/// bit of the input gradient.
pub(crate) fn bn_eval_backward_gx_only(
    gd: &[f32],
    n: usize,
    c: usize,
    hw: usize,
    ivstd: &[f32],
    gamma_v: &[f32],
    gx: &mut [f32],
) {
    for ni in 0..n {
        for ch in 0..c {
            let off = (ni * c + ch) * hw;
            let scale = gamma_v[ch] * ivstd[ch];
            for i in 0..hw {
                gx[off + i] += gd[off + i] * scale;
            }
        }
    }
}

impl Graph {
    /// Training-mode batch norm: normalizes with the batch statistics and
    /// returns them alongside the output node. The running statistics
    /// they fold into are not read; their ids are recorded for the plan
    /// lowering. On a shape-only tape the stats are empty, so folding
    /// them changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    pub fn batch_norm2d_train(
        &mut self,
        x: VarId,
        gamma: VarId,
        beta: VarId,
        running_mean: ParamId,
        running_var: ParamId,
        eps: f32,
    ) -> (VarId, BatchStats) {
        let attrs = bn_attrs(running_mean, running_var, eps);
        if self.is_shape_only() {
            let y = self.declare_like("batch_norm2d_train", &[x, gamma, beta], &attrs);
            let empty = || Tensor::from_vec(Vec::new(), &[0]);
            return (
                y,
                BatchStats {
                    mean: empty(),
                    var: empty(),
                },
            );
        }
        let xv = self.value(x);
        assert_eq!(xv.shape().len(), 4, "batch norm input must be NCHW");
        let (n, c, h, w) = (xv.shape()[0], xv.shape()[1], xv.shape()[2], xv.shape()[3]);
        assert_eq!(self.value(gamma).len(), c);
        assert_eq!(self.value(beta).len(), c);
        let hw = h * w;

        let mut mean = Tensor::zeros(&[c]);
        let mut var = Tensor::zeros(&[c]);
        bn_batch_stats(xv.data(), n, c, hw, mean.data_mut(), var.data_mut());

        let mut xhat = xv.clone();
        let mut ivstd = Tensor::zeros(&[c]);
        bn_ivstd(var.data(), eps, ivstd.data_mut());
        let gv = self.value(gamma).clone();
        let bv = self.value(beta).clone();
        let mut out = Tensor::zeros(&[n, c, h, w]);
        bn_train_forward(
            n,
            c,
            hw,
            mean.data(),
            ivstd.data(),
            gv.data(),
            bv.data(),
            xhat.data_mut(),
            out.data_mut(),
        );
        let stats = BatchStats {
            mean,
            var: var.clone(),
        };
        let out_id = self.record(
            "batch_norm2d_train",
            &[x, gamma, beta],
            &attrs,
            out,
            Some(Box::new(move |g, vals, grads| {
                let gamma_v = &vals[gamma.0];
                // Per-channel reductions of the incoming gradient.
                let mut sum_g = vec![0.0f32; c];
                let mut sum_gx = vec![0.0f32; c]; // sum of g * xhat
                bn_train_backward_sums(g.data(), xhat.data(), n, c, hw, &mut sum_g, &mut sum_gx);
                // gamma / beta gradients
                for ch in 0..c {
                    grads[gamma.0].data_mut()[ch] += sum_gx[ch];
                    grads[beta.0].data_mut()[ch] += sum_g[ch];
                }
                // input gradient:
                // gx = gamma*ivstd/m * (m*g - sum_g - xhat*sum_gx)
                bn_train_backward_gx(
                    g.data(),
                    xhat.data(),
                    n,
                    c,
                    hw,
                    gamma_v.data(),
                    ivstd.data(),
                    &sum_g,
                    &sum_gx,
                    grads[x.0].data_mut(),
                );
            })),
        );
        (out_id, stats)
    }

    /// Inference-mode batch norm using the fixed running statistics read
    /// from `ps`. The output is an affine function of `x`, so gradients
    /// flow through to `x`, `gamma` and `beta` (useful when attacking a
    /// frozen detector).
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    #[allow(clippy::too_many_arguments)]
    pub fn batch_norm2d_eval(
        &mut self,
        x: VarId,
        gamma: VarId,
        beta: VarId,
        ps: &ParamSet,
        running_mean: ParamId,
        running_var: ParamId,
        eps: f32,
    ) -> VarId {
        let attrs = bn_attrs(running_mean, running_var, eps);
        if self.is_shape_only() {
            return self.declare_like("batch_norm2d_eval", &[x, gamma, beta], &attrs);
        }
        let (running_mean, running_var) =
            (ps.get(running_mean).value(), ps.get(running_var).value());
        let xv = self.value(x);
        assert_eq!(xv.shape().len(), 4, "batch norm input must be NCHW");
        let (n, c, h, w) = (xv.shape()[0], xv.shape()[1], xv.shape()[2], xv.shape()[3]);
        assert_eq!(running_mean.len(), c);
        assert_eq!(running_var.len(), c);
        let hw = h * w;
        let mean = running_mean.clone();
        let affine = bn_eval_affine(
            self.value(gamma).data(),
            self.value(beta).data(),
            mean.data(),
            running_var.data(),
            eps,
        );
        let mut out = xv.clone();
        conv_epilogue(out.data_mut(), c, hw, None, Some(&affine), Act::None);
        let ivstd = affine.ivstd;
        self.record(
            "batch_norm2d_eval",
            &[x, gamma, beta],
            &attrs,
            out,
            Some(Box::new(move |g, vals, grads| {
                let gamma_v = vals[gamma.0].clone();
                // The kernel needs three disjoint gradient slices at once;
                // lift the per-channel entries out of the tape for the call.
                let mut ggamma = std::mem::replace(&mut grads[gamma.0], Tensor::scalar(0.0));
                let mut gbeta = std::mem::replace(&mut grads[beta.0], Tensor::scalar(0.0));
                bn_eval_backward(
                    g.data(),
                    vals[x.0].data(),
                    n,
                    c,
                    hw,
                    mean.data(),
                    &ivstd,
                    gamma_v.data(),
                    grads[x.0].data_mut(),
                    ggamma.data_mut(),
                    gbeta.data_mut(),
                );
                grads[gamma.0] = ggamma;
                grads[beta.0] = gbeta;
            })),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{assert_grads_close, numeric_grad};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Running statistics `(ps, mean id, var id)`.
    fn running(mean: Vec<f32>, var: Vec<f32>) -> (ParamSet, ParamId, ParamId) {
        let mut ps = ParamSet::new();
        let c = mean.len();
        let rm = ps.register("rmean", Tensor::from_vec(mean, &[c]));
        let rv = ps.register("rvar", Tensor::from_vec(var, &[c]));
        (ps, rm, rv)
    }

    #[test]
    fn train_mode_normalizes() {
        let mut rng = StdRng::seed_from_u64(1);
        let x0 = Tensor::randn(&mut rng, &[8, 3, 6, 6], 2.0).map(|v| v + 3.0);
        let (_, rm, rv) = running(vec![0.0; 3], vec![1.0; 3]);
        let mut g = Graph::new();
        let x = g.input(x0);
        let gamma = g.input(Tensor::ones(&[3]));
        let beta = g.input(Tensor::zeros(&[3]));
        let (y, stats) = g.batch_norm2d_train(x, gamma, beta, rm, rv, 1e-5);
        // output should be ~zero-mean unit-var per channel
        let yv = g.value(y);
        let (n, c, h, w) = (8, 3, 6, 6);
        for ch in 0..c {
            let mut s = 0.0;
            let mut s2 = 0.0;
            for ni in 0..n {
                for i in 0..h * w {
                    let v = yv.data()[(ni * c + ch) * h * w + i];
                    s += v;
                    s2 += v * v;
                }
            }
            let m = (n * h * w) as f32;
            assert!((s / m).abs() < 1e-4);
            assert!((s2 / m - 1.0).abs() < 1e-3);
        }
        assert!((stats.mean.data()[0] - 3.0).abs() < 0.4);
        assert!((stats.var.data()[0] - 4.0).abs() < 1.2);
    }

    #[test]
    fn train_grads_match_numeric() {
        let mut rng = StdRng::seed_from_u64(2);
        let x0 = Tensor::randn(&mut rng, &[2, 2, 3, 3], 1.0);
        let g0 = Tensor::from_vec(vec![1.3, 0.7], &[2]);
        let b0 = Tensor::from_vec(vec![0.1, -0.2], &[2]);
        let (_, rm, rv) = running(vec![0.0; 2], vec![1.0; 2]);
        let run = |x0: &Tensor, g0: &Tensor, b0: &Tensor| {
            let mut g = Graph::new();
            let x = g.input(x0.clone());
            let ga = g.input(g0.clone());
            let be = g.input(b0.clone());
            let (y, _) = g.batch_norm2d_train(x, ga, be, rm, rv, 1e-5);
            let y2 = g.mul(y, y);
            let s = g.sum_all(y2);
            // add an asymmetric term so mean/var gradients are exercised
            let sy = g.sum_all(y);
            let loss = g.add(s, sy);
            (g, x, ga, be, loss)
        };
        let (g, x, ga, be, loss) = run(&x0, &g0, &b0);
        let grads = g.backward(loss);
        let f = |xt: &Tensor, gt: &Tensor, bt: &Tensor| {
            let (g, _, _, _, l) = run(xt, gt, bt);
            g.value(l).data()[0]
        };
        assert_grads_close(
            grads.get(x),
            &numeric_grad(|t| f(t, &g0, &b0), &x0, 1e-2),
            0.05,
        );
        assert_grads_close(
            grads.get(ga),
            &numeric_grad(|t| f(&x0, t, &b0), &g0, 1e-3),
            0.05,
        );
        assert_grads_close(
            grads.get(be),
            &numeric_grad(|t| f(&x0, &g0, t), &b0, 1e-3),
            0.05,
        );
    }

    #[test]
    fn eval_mode_is_affine() {
        let x0 = Tensor::from_vec(vec![1.0, 2.0], &[1, 1, 1, 2]);
        let (ps, rm, rv) = running(vec![1.0], vec![3.0]);
        let mut g = Graph::new();
        let x = g.input(x0);
        let gamma = g.input(Tensor::from_vec(vec![2.0], &[1]));
        let beta = g.input(Tensor::from_vec(vec![0.5], &[1]));
        let y = g.batch_norm2d_eval(x, gamma, beta, &ps, rm, rv, 0.0);
        let iv = 1.0 / 3.0f32.sqrt();
        let want0 = 0.5;
        let want1 = 2.0 * iv + 0.5;
        assert!((g.value(y).data()[0] - want0).abs() < 1e-5);
        assert!((g.value(y).data()[1] - want1).abs() < 1e-5);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert!((grads.get(x).data()[0] - 2.0 * iv).abs() < 1e-5);
    }

    #[test]
    fn eval_grads_match_numeric() {
        let mut rng = StdRng::seed_from_u64(6);
        let x0 = Tensor::randn(&mut rng, &[2, 2, 2, 2], 1.0);
        let g0 = Tensor::from_vec(vec![1.1, 0.9], &[2]);
        let b0 = Tensor::from_vec(vec![0.3, -0.1], &[2]);
        let (ps, rm, rv) = running(vec![0.2, -0.4], vec![1.5, 0.8]);
        let run = |x0: &Tensor, g0: &Tensor, b0: &Tensor| {
            let mut g = Graph::new();
            let x = g.input(x0.clone());
            let ga = g.input(g0.clone());
            let be = g.input(b0.clone());
            let y = g.batch_norm2d_eval(x, ga, be, &ps, rm, rv, 1e-5);
            let y2 = g.mul(y, y);
            let loss = g.sum_all(y2);
            (g, x, ga, be, loss)
        };
        let (g, x, ga, be, loss) = run(&x0, &g0, &b0);
        let grads = g.backward(loss);
        let f = |xt: &Tensor, gt: &Tensor, bt: &Tensor| {
            let (g, _, _, _, l) = run(xt, gt, bt);
            g.value(l).data()[0]
        };
        assert_grads_close(
            grads.get(x),
            &numeric_grad(|t| f(t, &g0, &b0), &x0, 1e-3),
            0.05,
        );
        assert_grads_close(
            grads.get(ga),
            &numeric_grad(|t| f(&x0, t, &b0), &g0, 1e-3),
            0.05,
        );
        assert_grads_close(
            grads.get(be),
            &numeric_grad(|t| f(&x0, &g0, t), &b0, 1e-3),
            0.05,
        );
    }

    #[test]
    fn gx_only_kernel_matches_full_eval_backward() {
        // The frozen-path kernel must reproduce the input gradient of the
        // full eval backward bit-for-bit.
        let mut rng = StdRng::seed_from_u64(9);
        let (n, c, hw) = (3, 4, 6);
        let gd = Tensor::randn(&mut rng, &[n * c * hw], 1.0);
        let xd = Tensor::randn(&mut rng, &[n * c * hw], 1.0);
        let mean = Tensor::randn(&mut rng, &[c], 0.5);
        let var = Tensor::randn(&mut rng, &[c], 0.2).map(|v| v.abs() + 0.5);
        let gamma = Tensor::randn(&mut rng, &[c], 1.0);
        let mut ivstd = vec![0.0f32; c];
        bn_ivstd(var.data(), 1e-5, &mut ivstd);
        let mut gx_full = vec![0.0f32; n * c * hw];
        let mut gg = vec![0.0f32; c];
        let mut gb = vec![0.0f32; c];
        bn_eval_backward(
            gd.data(),
            xd.data(),
            n,
            c,
            hw,
            mean.data(),
            &ivstd,
            gamma.data(),
            &mut gx_full,
            &mut gg,
            &mut gb,
        );
        let mut gx_only = vec![0.0f32; n * c * hw];
        bn_eval_backward_gx_only(gd.data(), n, c, hw, &ivstd, gamma.data(), &mut gx_only);
        assert_eq!(gx_only, gx_full);
    }
}
