//! 2-D convolution via im2col + GEMM, with batch-parallel forward and
//! backward passes.
//!
//! This module owns the column layout (`im2col` / `col2im`, shared with
//! both compiled plans) and the tape's `conv2d`; the three GEMMs are
//! [`crate::simd`]'s exact kernels: `exact_gemm` forward,
//! `exact_gemm_nt` grad-weight and `exact_gemm_tn_over` grad-input.
//!
//! Both passes partition the batch into [`crate::parallel::groups_for`]
//! fixed groups — a function of the batch size only, never the
//! machine's core count — and reduce per-group partials in group order,
//! so results are bitwise identical whatever the thread budget.

use crate::graph::{Graph, VarId};
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
        let ho = (h + 2 * pad - kh) / stride + 1;
        let wo = (wd + 2 * pad - kw) / stride + 1;
        let ckk = c * kh * kw;
        let howo = ho * wo;

        // Fixed batch partition: groups depend only on `n`, and the
        // worker pool never spawns more threads than groups (so small
        // batches pay no spawn overhead for idle workers).
        let per = n.div_ceil(crate::parallel::groups_for(n));
        let mut out = Tensor::zeros(&[n, o, ho, wo]);
        {
            let xd = xv.data();
            let wd_flat = wv.data();
            crate::parallel::for_each_chunk_mut(out.data_mut(), per * o * howo, |gi, chunk| {
                let start = gi * per;
                let mut cols = crate::arena::ScratchBuf::zeroed(ckk * howo);
                for (li, oslice) in chunk.chunks_mut(o * howo).enumerate() {
                    let ni = start + li;
                    im2col(
                        &xd[ni * c * h * wd..(ni + 1) * c * h * wd],
                        c,
                        h,
                        wd,
                        kh,
                        kw,
                        stride,
                        pad,
                        ho,
                        wo,
                        &mut cols,
                    );
                    exact_gemm(wd_flat, &cols, oslice, o, ckk, howo);
                }
            });
        }
        let out = self.record(
            "conv2d",
            &[x, w],
            &attrs,
            out,
            Some(Box::new(move |g, vals, grads| {
                let xd = vals[x.0].data();
                let wd_flat = vals[w.0].data();
                let gd = g.data();
                // Same fixed partition as the forward pass. Each group
                // writes a disjoint slice of the input gradient and
                // returns a partial weight gradient; the partials are
                // reduced in group order on the calling thread, which
                // makes the accumulation bitwise thread-count-invariant.
                let per = n.div_ceil(crate::parallel::groups_for(n));
                // When this conv is (so far) the sole contributor to its
                // input's gradient — the entry is still all-zero — the
                // groups scatter straight into `grads[x.0]`, skipping the
                // gx temporary and the add pass. Starting from the same
                // zeros, col2im performs the identical accumulation
                // sequence either way, so both routes are bitwise equal.
                let sole = grads[x.0].data().iter().all(|&v| v == 0.0);
                let mut gx_tmp = if sole {
                    None
                } else {
                    Some(Tensor::zeros(&[n, c, h, wd]))
                };
                let gw_partials: Vec<Vec<f32>> = {
                    let gx_data: &mut [f32] = match gx_tmp.as_mut() {
                        Some(t) => t.data_mut(),
                        None => grads[x.0].data_mut(),
                    };
                    let gx_slots: Vec<std::sync::Mutex<Option<&mut [f32]>>> = gx_data
                        .chunks_mut(per * c * h * wd)
                        .map(|chunk| std::sync::Mutex::new(Some(chunk)))
                        .collect();
                    crate::parallel::run_indexed(gx_slots.len(), |gi| {
                        let gx_chunk = gx_slots[gi]
                            .lock()
                            .expect("conv2d gx slot poisoned")
                            .take()
                            .expect("conv2d gx chunk taken twice");
                        let mut gw = crate::arena::take(o * ckk);
                        let mut cols = crate::arena::ScratchBuf::zeroed(ckk * howo);
                        let mut gcols = crate::arena::ScratchBuf::zeroed(ckk * howo);
                        for (li, gx_slice) in gx_chunk.chunks_mut(c * h * wd).enumerate() {
                            let ni = gi * per + li;
                            let gslice = &gd[ni * o * howo..(ni + 1) * o * howo];
                            im2col(
                                &xd[ni * c * h * wd..(ni + 1) * c * h * wd],
                                c,
                                h,
                                wd,
                                kh,
                                kw,
                                stride,
                                pad,
                                ho,
                                wo,
                                &mut cols,
                            );
                            // gw += g_n [o,howo] * cols^T [howo,ckk]
                            exact_gemm_nt(gslice, &cols, &mut gw, o, howo, ckk);
                            // gcols = w^T [ckk,o] * g_n [o,howo]; overwrite
                            // mode fully writes the buffer, so no zeroing
                            // pass between samples.
                            exact_gemm_tn_over(wd_flat, gslice, &mut gcols, o, ckk, howo);
                            col2im(&gcols, c, h, wd, kh, kw, stride, pad, ho, wo, gx_slice);
                        }
                        gw
                    })
                };
                if let Some(gx) = gx_tmp {
                    grads[x.0].add_scaled_assign(&gx, 1.0);
                    crate::arena::recycle(gx.into_vec());
                }
                let gwt = grads[w.0].data_mut();
                for part in gw_partials {
                    for (dst, &src) in gwt.iter_mut().zip(part.iter()) {
                        *dst += src;
                    }
                    crate::arena::recycle(part);
                }
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
