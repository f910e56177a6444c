//! 2-D convolution via im2col + GEMM: the one conv kernel of the tape,
//! `TrainPlan` and `InferPlan`.
//!
//! This module owns every step of a convolution's arithmetic:
//!
//! - the column layout ([`im2col`] / [`col2im`]);
//! - one sample's forward, [`conv_forward_sample`] (`im2col`, then
//!   [`crate::simd`]'s `exact_gemm`), which `InferPlan` calls per sample;
//! - the batched forward and backward fan-outs, [`conv_forward`] and
//!   [`conv_backward`], which the tape's `conv2d` and `TrainPlan` call
//!   (`exact_gemm_nt` grad-weight, `exact_gemm_tn_over` + `col2im`
//!   grad-input);
//! - the fused epilogue, [`conv_epilogue`]: bias, eval batch norm and
//!   leaky in one in-place pass, which both plans call for their
//!   fused convs and the tape for `add_bias_channel` and
//!   `batch_norm2d_eval`; and the bias gradient, [`bias_grad`].
//!
//! Both fan-outs partition the batch into [`crate::parallel::groups_for`]
//! fixed groups — a function of the batch size only, never the
//! machine's core count — and reduce per-group partials in group order,
//! so results are bitwise identical whatever the thread budget.

use std::sync::Mutex;

use crate::arena::{self, ScratchBuf};
use crate::bnorm::BnAffine;
use crate::graph::{leaky, Graph, VarId};
use crate::parallel;
use crate::plan::Act;
use crate::plan_meta::ConvGeom;
use crate::shape::conv_out_dim;
use crate::simd::{exact_gemm, exact_gemm_nt, exact_gemm_tn_over};
use crate::tensor::Tensor;

/// Unfolds one CHW image into a `[C*kh*kw, Ho*Wo]` column matrix.
#[allow(clippy::too_many_arguments)]
pub(crate) fn im2col(
    x: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    ho: usize,
    wo: usize,
    cols: &mut [f32],
) {
    debug_assert_eq!(
        cols.len(),
        c * kh * kw * ho * wo,
        "im2col: column buffer has {} elements, C·kh·kw×Ho·Wo = {}·{kh}·{kw}×{ho}·{wo} needs {}",
        cols.len(),
        c,
        c * kh * kw * ho * wo
    );
    let howo = ho * wo;
    for ch in 0..c {
        let xch = &x[ch * h * w..(ch + 1) * h * w];
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ch * kh + ki) * kw + kj;
                let dst = &mut cols[row * howo..(row + 1) * howo];
                // stride-1: the in-bounds span of each output row is one
                // contiguous input run — pure data movement, identical
                // values to the per-element loop below
                let copy_rows = stride == 1;
                for oh in 0..ho {
                    let ih = (oh * stride + ki) as isize - pad as isize;
                    if ih < 0 || ih >= h as isize {
                        for d in &mut dst[oh * wo..(oh + 1) * wo] {
                            *d = 0.0;
                        }
                        continue;
                    }
                    let ih = ih as usize;
                    if copy_rows {
                        // iw = ow + kj - pad must land in [0, w)
                        let lo = pad.saturating_sub(kj).min(wo);
                        let hi = (w + pad).saturating_sub(kj).min(wo).max(lo);
                        let drow = &mut dst[oh * wo..(oh + 1) * wo];
                        drow[..lo].fill(0.0);
                        drow[hi..].fill(0.0);
                        let src = ih * w + lo + kj - pad;
                        drow[lo..hi].copy_from_slice(&xch[src..src + (hi - lo)]);
                        continue;
                    }
                    for ow in 0..wo {
                        let iw = (ow * stride + kj) as isize - pad as isize;
                        dst[oh * wo + ow] = if iw < 0 || iw >= w as isize {
                            0.0
                        } else {
                            xch[ih * w + iw as usize]
                        };
                    }
                }
            }
        }
    }
}

/// Scatter-adds a column matrix back into a CHW image (transpose of
/// [`im2col`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn col2im(
    cols: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    ho: usize,
    wo: usize,
    x: &mut [f32],
) {
    let howo = ho * wo;
    for ch in 0..c {
        let xch = &mut x[ch * h * w..(ch + 1) * h * w];
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ch * kh + ki) * kw + kj;
                let src = &cols[row * howo..(row + 1) * howo];
                for oh in 0..ho {
                    let ih = (oh * stride + ki) as isize - pad as isize;
                    if ih < 0 || ih >= h as isize {
                        continue;
                    }
                    let ih = ih as usize;
                    for ow in 0..wo {
                        let iw = (ow * stride + kj) as isize - pad as isize;
                        if iw < 0 || iw >= w as isize {
                            continue;
                        }
                        xch[ih * w + iw as usize] += src[oh * wo + ow];
                    }
                }
            }
        }
    }
}

/// One sample's convolution: unfolds `x` (`cin·hin·win`) into `cols`
/// (at least [`ConvGeom::cols_len`] long), then overwrites `out`
/// (`cout·ho·wo`) with `w × cols`.
pub(crate) fn conv_forward_sample(
    g: &ConvGeom,
    x: &[f32],
    w: &[f32],
    cols: &mut [f32],
    out: &mut [f32],
) {
    let cols = &mut cols[..g.cols_len()];
    im2col(
        x, g.cin, g.hin, g.win, g.kh, g.kw, g.stride, g.pad, g.ho, g.wo, cols,
    );
    exact_gemm(w, cols, out, g.cout, g.cin * g.kh * g.kw, g.ho * g.wo);
}

/// Batched convolution of `n` samples of `x` into `out` (overwritten):
/// [`conv_forward_sample`] per sample, the samples in fixed
/// `groups_for(n)` groups. With `cols_cache` (`n` column matrices),
/// each sample's columns are built there and kept for the backward.
pub(crate) fn conv_forward(
    g: &ConvGeom,
    n: usize,
    x: &[f32],
    w: &[f32],
    out: &mut [f32],
    cols_cache: Option<&mut [f32]>,
) {
    let (in_len, out_len, cols_len) = (g.cin * g.hin * g.win, g.cout * g.ho * g.wo, g.cols_len());
    let per = n.div_ceil(parallel::groups_for(n));
    let xs = |gi: usize, li: usize| {
        let ni = gi * per + li;
        &x[ni * in_len..(ni + 1) * in_len]
    };
    match cols_cache {
        Some(cache) => parallel::for_each_chunk2_mut(
            out,
            cache,
            per * out_len,
            per * cols_len,
            |gi, oc, cc| {
                let samples = oc.chunks_mut(out_len).zip(cc.chunks_mut(cols_len));
                for (li, (os, cols)) in samples.enumerate() {
                    conv_forward_sample(g, xs(gi, li), w, cols, os);
                }
            },
        ),
        None => parallel::for_each_chunk_mut(out, per * out_len, |gi, oc| {
            let mut cols = ScratchBuf::zeroed(cols_len);
            for (li, os) in oc.chunks_mut(out_len).enumerate() {
                conv_forward_sample(g, xs(gi, li), w, &mut cols, os);
            }
        }),
    }
}

/// Batched convolution backward of `n` samples: `gout` is the output
/// gradient, `x` and `w` the forward's input and weight.
///
/// - `gw`: grad-weight target. Each group sums its samples'
///   `gout × colsᵀ` over the columns in `cols_cache` (or rebuilt with
///   `im2col` when there is none); the partials are then added into
///   `gw` in group order.
/// - `gx`: grad-input target and whether to scatter into it directly.
///   Each sample's `wᵀ × gout` is `col2im`-scattered straight into the
///   target when `direct` (the target then holds no other contribution
///   yet), else into a temporary that is added to it afterwards.
///   Starting from zeros, both routes give the same bits.
///
/// Does nothing when neither target is given.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_backward(
    g: &ConvGeom,
    n: usize,
    gout: &[f32],
    x: &[f32],
    w: &[f32],
    cols_cache: Option<&[f32]>,
    gw: Option<&mut [f32]>,
    gx: Option<(&mut [f32], bool)>,
) {
    if gw.is_none() && gx.is_none() {
        return;
    }
    let (in_len, out_len, cols_len) = (g.cin * g.hin * g.win, g.cout * g.ho * g.wo, g.cols_len());
    let (o, ckk, howo) = (g.cout, g.cin * g.kh * g.kw, g.ho * g.wo);
    let per = n.div_ceil(parallel::groups_for(n));
    let need_gw = gw.is_some();
    let (mut gx_target, mut gx_tmp) = match gx {
        Some((t, direct)) => (Some(t), (!direct).then(|| arena::take(n * in_len))),
        None => (None, None),
    };
    let partials = {
        let gx_cells: Vec<Mutex<Option<&mut [f32]>>> = gx_tmp
            .as_deref_mut()
            .or(gx_target.as_deref_mut())
            .into_iter()
            .flat_map(|d| d.chunks_mut(per * in_len))
            .map(|ch| Mutex::new(Some(ch)))
            .collect();
        parallel::run_indexed(n.div_ceil(per), |gi| {
            let mut gx_chunk = gx_cells.get(gi).map(|cell| {
                cell.lock()
                    .expect("conv gx cell poisoned")
                    .take()
                    .expect("conv gx chunk taken twice")
            });
            let mut gw_part = need_gw.then(|| arena::take(o * ckk));
            let mut scratch =
                (need_gw && cols_cache.is_none()).then(|| ScratchBuf::zeroed(cols_len));
            let mut gcols = gx_chunk.is_some().then(|| ScratchBuf::zeroed(cols_len));
            for li in 0..per.min(n - gi * per) {
                let ni = gi * per + li;
                let gs = &gout[ni * out_len..(ni + 1) * out_len];
                if let Some(gw_part) = gw_part.as_mut() {
                    let cols = match (cols_cache, scratch.as_deref_mut()) {
                        (Some(cc), _) => &cc[ni * cols_len..(ni + 1) * cols_len],
                        (None, Some(sc)) => {
                            let xs = &x[ni * in_len..(ni + 1) * in_len];
                            im2col(
                                xs, g.cin, g.hin, g.win, g.kh, g.kw, g.stride, g.pad, g.ho, g.wo,
                                sc,
                            );
                            sc
                        }
                        (None, None) => unreachable!("column scratch taken when uncached"),
                    };
                    exact_gemm_nt(gs, cols, gw_part, o, howo, ckk);
                }
                if let (Some(gxc), Some(gc)) = (gx_chunk.as_deref_mut(), gcols.as_deref_mut()) {
                    let gxs = &mut gxc[li * in_len..(li + 1) * in_len];
                    exact_gemm_tn_over(w, gs, gc, o, ckk, howo);
                    col2im(
                        gc, g.cin, g.hin, g.win, g.kh, g.kw, g.stride, g.pad, g.ho, g.wo, gxs,
                    );
                }
            }
            gw_part
        })
    };
    if let (Some(tmp), Some(target)) = (gx_tmp, gx_target) {
        for (dst, &src) in target.iter_mut().zip(&tmp) {
            *dst += src;
        }
        arena::recycle(tmp);
    }
    if let Some(gw) = gw {
        for part in partials.into_iter().flatten() {
            for (dst, &src) in gw.iter_mut().zip(&part) {
                *dst += src;
            }
            arena::recycle(part);
        }
    }
}

/// A fused conv's epilogue, in place over `out` (samples of `c` planes
/// of `hw`): per element `v + bias`, then `v·scale + shift` with the
/// eval batch norm's per-channel affine, then the activation — each
/// stage only when present, all in one pass.
pub(crate) fn conv_epilogue(
    out: &mut [f32],
    c: usize,
    hw: usize,
    bias: Option<&[f32]>,
    bn: Option<&BnAffine>,
    act: Act,
) {
    if bias.is_none() && bn.is_none() && act == Act::None {
        return;
    }
    match act {
        Act::None => epilogue(out, c, hw, bias, bn, |t| t),
        Act::Leaky(alpha) => epilogue(out, c, hw, bias, bn, |t| leaky(t, alpha)),
    }
}

/// [`conv_epilogue`] with the activation `act` resolved, so each
/// plane's loop carries no branch but the activation's own.
fn epilogue(
    out: &mut [f32],
    c: usize,
    hw: usize,
    bias: Option<&[f32]>,
    bn: Option<&BnAffine>,
    act: impl Fn(f32) -> f32,
) {
    for (plane, seg) in out.chunks_mut(hw).enumerate() {
        let ch = plane % c;
        let add = bias.map(|b| b[ch]);
        let affine = bn.map(|bn| (bn.scale[ch], bn.shift[ch]));
        match (add, affine) {
            (None, None) => seg.iter_mut().for_each(|v| *v = act(*v)),
            (Some(b), None) => seg.iter_mut().for_each(|v| *v = act(*v + b)),
            (None, Some((s, t))) => seg.iter_mut().for_each(|v| *v = act(*v * s + t)),
            (Some(b), Some((s, t))) => seg.iter_mut().for_each(|v| *v = act((*v + b) * s + t)),
        }
    }
}

/// Bias gradient of samples of `c` planes of `hw`: each plane's sum of
/// `g`, added into `gb[channel]` one sample at a time.
pub(crate) fn bias_grad(g: &[f32], c: usize, hw: usize, gb: &mut [f32]) {
    for (plane, seg) in g.chunks(hw).enumerate() {
        gb[plane % c] += seg.iter().sum::<f32>();
    }
}

impl Graph {
    /// 2-D convolution `x:[N,C,H,W] * w:[O,C,kh,kw] -> [N,O,Ho,Wo]` with an
    /// optional per-channel bias.
    ///
    /// # Panics
    ///
    /// Panics on rank or dimension mismatches, or when the kernel does not
    /// fit the padded input.
    pub fn conv2d(
        &mut self,
        x: VarId,
        w: VarId,
        bias: Option<VarId>,
        stride: usize,
        pad: usize,
    ) -> VarId {
        let attrs = [("stride", stride), ("pad", pad)];
        if self.is_shape_only() {
            let (xs, ws) = (self.shape(x), self.shape(w));
            let shape = [
                xs[0],
                ws[0],
                conv_out_dim("h", xs[2], ws[2], pad, stride),
                conv_out_dim("w", xs[3], ws[3], pad, stride),
            ];
            let out = self.declare("conv2d", &[x, w], &attrs, &shape);
            return bias.map_or(out, |b| self.add_bias_channel(out, b));
        }
        let xv = self.value(x);
        let wv = self.value(w);
        assert_eq!(xv.shape().len(), 4, "conv2d input must be NCHW");
        assert_eq!(wv.shape().len(), 4, "conv2d weight must be OCKK");
        let (n, c, h, wd) = (xv.shape()[0], xv.shape()[1], xv.shape()[2], xv.shape()[3]);
        let (o, c2, kh, kw) = (wv.shape()[0], wv.shape()[1], wv.shape()[2], wv.shape()[3]);
        assert_eq!(
            c2, c,
            "conv2d weight OC×C×K×K has C={c2}, input NCHW has C={c}"
        );
        assert!(
            h + 2 * pad >= kh && wd + 2 * pad >= kw,
            "kernel larger than input"
        );
        let geom = ConvGeom {
            stride,
            pad,
            cin: c,
            hin: h,
            win: wd,
            cout: o,
            kh,
            kw,
            ho: (h + 2 * pad - kh) / stride + 1,
            wo: (wd + 2 * pad - kw) / stride + 1,
        };
        let mut out = Tensor::zeros(&[n, o, geom.ho, geom.wo]);
        conv_forward(&geom, n, xv.data(), wv.data(), out.data_mut(), None);
        let out = self.record(
            "conv2d",
            &[x, w],
            &attrs,
            out,
            Some(Box::new(move |g, vals, grads| {
                // While this conv is (so far) the sole contributor to its
                // input's gradient — the entry is still all-zero — the
                // backward scatters straight into it.
                let sole = grads[x.0].data().iter().all(|&v| v == 0.0);
                let [gx, gw] = grads
                    .get_disjoint_mut([x.0, w.0])
                    .expect("conv2d input and weight are distinct nodes");
                conv_backward(
                    &geom,
                    n,
                    g.data(),
                    vals[x.0].data(),
                    vals[w.0].data(),
                    None,
                    Some(gw.data_mut()),
                    Some((gx.data_mut(), sole)),
                );
            })),
        );
        match bias {
            Some(b) => self.add_bias_channel(out, b),
            None => out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{assert_grads_close, numeric_grad};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn conv2d_identity_kernel() {
        // 1x1 kernel with weight 1 reproduces the input.
        let mut g = Graph::new();
        let x0 = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 1, 4, 4]);
        let x = g.input(x0.clone());
        let w = g.input(Tensor::ones(&[1, 1, 1, 1]));
        let y = g.conv2d(x, w, None, 1, 0);
        assert_eq!(g.value(y).data(), x0.data());
    }

    #[test]
    fn conv2d_known_values() {
        // 2x2 all-ones kernel on a 3x3 ramp, no padding: sliding sums.
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(
            vec![1., 2., 3., 4., 5., 6., 7., 8., 9.],
            &[1, 1, 3, 3],
        ));
        let w = g.input(Tensor::ones(&[1, 1, 2, 2]));
        let y = g.conv2d(x, w, None, 1, 0);
        assert_eq!(g.value(y).shape(), &[1, 1, 2, 2]);
        assert_eq!(g.value(y).data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn conv2d_padding_and_stride() {
        let mut g = Graph::new();
        let x = g.input(Tensor::ones(&[1, 1, 4, 4]));
        let w = g.input(Tensor::ones(&[1, 1, 3, 3]));
        let y = g.conv2d(x, w, None, 2, 1);
        // output 2x2; corners see 2x2=4 ones, etc.
        assert_eq!(g.value(y).shape(), &[1, 1, 2, 2]);
        assert_eq!(g.value(y).data(), &[4.0, 6.0, 6.0, 9.0]);
    }

    #[test]
    fn conv2d_bias() {
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(&[1, 1, 2, 2]));
        let w = g.input(Tensor::ones(&[2, 1, 1, 1]));
        let b = g.input(Tensor::from_vec(vec![1.5, -2.0], &[2]));
        let y = g.conv2d(x, w, Some(b), 1, 0);
        assert_eq!(g.value(y).at4(0, 0, 1, 1), 1.5);
        assert_eq!(g.value(y).at4(0, 1, 0, 0), -2.0);
    }

    #[test]
    fn conv2d_grads_match_numeric() {
        let mut rng = StdRng::seed_from_u64(99);
        let x0 = Tensor::randn(&mut rng, &[2, 3, 5, 5], 1.0);
        let w0 = Tensor::randn(&mut rng, &[4, 3, 3, 3], 0.5);
        let b0 = Tensor::randn(&mut rng, &[4], 0.5);
        let run = |x0: &Tensor, w0: &Tensor, b0: &Tensor| {
            let mut g = Graph::new();
            let x = g.input(x0.clone());
            let w = g.input(w0.clone());
            let b = g.input(b0.clone());
            let y = g.conv2d(x, w, Some(b), 2, 1);
            let y2 = g.mul(y, y);
            let loss = g.sum_all(y2);
            (g, x, w, b, loss)
        };
        let (g, x, w, b, loss) = run(&x0, &w0, &b0);
        let grads = g.backward(loss);
        let f = |xt: &Tensor, wt: &Tensor, bt: &Tensor| {
            let (g, _, _, _, l) = run(xt, wt, bt);
            g.value(l).data()[0]
        };
        assert_grads_close(
            grads.get(x),
            &numeric_grad(|t| f(t, &w0, &b0), &x0, 1e-2),
            0.05,
        );
        assert_grads_close(
            grads.get(w),
            &numeric_grad(|t| f(&x0, t, &b0), &w0, 1e-2),
            0.05,
        );
        assert_grads_close(
            grads.get(b),
            &numeric_grad(|t| f(&x0, &w0, t), &b0, 1e-2),
            0.05,
        );
    }

    #[test]
    fn im2col_col2im_adjoint() {
        // <im2col(x), y> == <x, col2im(y)> — the pair must be exact adjoints
        // for conv gradients to be correct.
        let mut rng = StdRng::seed_from_u64(3);
        let (c, h, w, kh, kw, s, p) = (2, 5, 4, 3, 3, 2, 1);
        let ho = (h + 2 * p - kh) / s + 1;
        let wo = (w + 2 * p - kw) / s + 1;
        let x = Tensor::randn(&mut rng, &[c * h * w], 1.0);
        let y = Tensor::randn(&mut rng, &[c * kh * kw * ho * wo], 1.0);
        let mut cols = vec![0.0; c * kh * kw * ho * wo];
        im2col(x.data(), c, h, w, kh, kw, s, p, ho, wo, &mut cols);
        let lhs: f32 = cols.iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let mut xb = vec![0.0; c * h * w];
        col2im(y.data(), c, h, w, kh, kw, s, p, ho, wo, &mut xb);
        let rhs: f32 = xb.iter().zip(x.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn conv_backward_direct_and_temp_paths_agree() {
        // The sole-contributor fast path (scatter straight into grads[x])
        // must compute the same per-sample gradient as the temp+add path,
        // which is forced by giving x a second consumer whose backward runs
        // first. The shared-x gradient must then equal the two
        // sole-contributor gradients accumulated in backward order.
        let mut rng = StdRng::seed_from_u64(23);
        let x0 = Tensor::randn(&mut rng, &[2, 2, 5, 5], 1.0);
        let w0 = Tensor::randn(&mut rng, &[3, 2, 3, 3], 0.5);
        let gx_conv = {
            let mut g = Graph::new();
            let x = g.input(x0.clone());
            let w = g.input(w0.clone());
            let y = g.conv2d(x, w, None, 1, 1);
            let l = g.sum_all(y);
            let grads = g.backward(l);
            grads.get(x).clone()
        };
        let gx_leaky = {
            let mut g = Graph::new();
            let x = g.input(x0.clone());
            let z = g.leaky_relu(x, 0.3);
            let l = g.sum_all(z);
            let grads = g.backward(l);
            grads.get(x).clone()
        };
        let gx_both = {
            let mut g = Graph::new();
            let x = g.input(x0.clone());
            let w = g.input(w0.clone());
            let y = g.conv2d(x, w, None, 1, 1);
            let z = g.leaky_relu(x, 0.3);
            let l1 = g.sum_all(y);
            let l2 = g.sum_all(z);
            let l = g.add(l1, l2);
            let grads = g.backward(l);
            grads.get(x).clone()
        };
        let mut want = gx_leaky;
        want.add_scaled_assign(&gx_conv, 1.0);
        assert_eq!(gx_both.data(), want.data());
    }
}
