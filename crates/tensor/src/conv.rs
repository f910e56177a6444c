//! 2-D convolution via im2col + GEMM, with batch-parallel forward and
//! backward passes.
//!
//! Both passes partition the batch into [`crate::parallel::groups_for`]
//! fixed groups — a function of the batch size only, never the
//! machine's core count — and reduce per-group partials in group order,
//! so results are bitwise identical whatever the thread budget.

use crate::graph::{Graph, VarId};
use crate::shape::conv_out_dim;
use crate::tensor::{matmul_into, Tensor};

/// Output-row widths up to this use the register-accumulating GEMM.
pub(crate) const GEMM_ACC_WIDTH: usize = 64;

/// GEMM `out = a × b` specialized for small `n` (deep conv layers have
/// tiny output grids — 2×2 to 8×8 — where [`matmul_into`]'s
/// dynamic-length inner loop is pure overhead). Each output row is
/// accumulated on the stack and stored once.
///
/// Bitwise equivalence: per output element this performs the exact f32
/// sequence of `matmul_into` over a zeroed output — ascending `k`,
/// skipping `a == 0.0` terms, one `mul` + one `add` per term (Rust
/// never contracts these to an FMA) — so only store traffic changes,
/// never a rounding.
pub(crate) fn gemm_small_n(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert!(n <= GEMM_ACC_WIDTH);
    let mut acc = [0.0f32; GEMM_ACC_WIDTH];
    for i in 0..m {
        let acc = &mut acc[..n];
        acc.fill(0.0);
        for (kk, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            for (s, &bv) in acc.iter_mut().zip(&b[kk * n..kk * n + n]) {
                *s += av * bv;
            }
        }
        out[i * n..(i + 1) * n].copy_from_slice(acc);
    }
}

/// [`gemm_small_n`] monomorphized on the row width so the compiler can
/// unroll and vectorize the `N`-wide accumulator update. Same f32
/// sequence as the generic version.
pub(crate) fn gemm_fixed<const N: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
) {
    for i in 0..m {
        let mut acc = [0.0f32; N];
        for (kk, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow: &[f32; N] = b[kk * N..kk * N + N].try_into().unwrap();
            for j in 0..N {
                acc[j] += av * brow[j];
            }
        }
        out[i * N..(i + 1) * N].copy_from_slice(&acc);
    }
}

/// The conv forward GEMM `out = a × b` of the tape and of both
/// compiled plans: [`crate::simd::exact_gemm`], which runs the AVX2
/// kernel or [`conv_gemm_scalar`], bitwise identical to each other.
/// `out` need not be zeroed.
pub(crate) fn conv_gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    crate::simd::exact_gemm(a, b, out, m, k, n);
}

/// Scalar body of [`conv_gemm`]: dispatches between the
/// register-accumulating kernels and [`matmul_into`]; `out` need not
/// be zeroed (every path fully overwrites it). The fixed widths are the
/// square head/backbone grids the detector configs produce (2..8 per
/// side).
pub(crate) fn conv_gemm_scalar(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    match n {
        4 => gemm_fixed::<4>(a, b, out, m, k),
        9 => gemm_fixed::<9>(a, b, out, m, k),
        16 => gemm_fixed::<16>(a, b, out, m, k),
        25 => gemm_fixed::<25>(a, b, out, m, k),
        36 => gemm_fixed::<36>(a, b, out, m, k),
        49 => gemm_fixed::<49>(a, b, out, m, k),
        64 => gemm_fixed::<64>(a, b, out, m, k),
        _ if n <= GEMM_ACC_WIDTH => gemm_small_n(a, b, out, m, k, n),
        _ => {
            out.fill(0.0);
            matmul_into(a, b, out, m, k, n);
        }
    }
}

/// `out[m,n] += a[m,k] * b[n,k]^T` (dot products of rows).
///
/// Conv backward's grad-weight GEMM: `k` is the output grid `Ho·Wo`,
/// so the dot length hits the same square sizes the forward's
/// [`conv_gemm`] dispatches on. Monomorphizing on it lets the compiler
/// unroll the inner product; every path keeps the identical
/// k-ascending `mul`+`add` sequence (no zero-skip, matching the
/// original), so dispatch never changes a rounding. Runs through
/// [`crate::simd::exact_gemm_nt`], whose AVX2 kernel is bitwise
/// identical to the scalar body [`gemm_nt_scalar`].
pub(crate) fn gemm_nt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    crate::simd::exact_gemm_nt(a, b, out, m, k, n);
}

/// Scalar body of [`gemm_nt`].
pub(crate) fn gemm_nt_scalar(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(
        a.len(),
        m * k,
        "gemm_nt: lhs A has {} elements, M×K = {m}×{k} needs {}",
        a.len(),
        m * k
    );
    debug_assert_eq!(
        b.len(),
        n * k,
        "gemm_nt: rhs B has {} elements, N×K = {n}×{k} needs {}",
        b.len(),
        n * k
    );
    debug_assert_eq!(
        out.len(),
        m * n,
        "gemm_nt: out has {} elements, M×N = {m}×{n} needs {}",
        out.len(),
        m * n
    );
    match k {
        4 => gemm_nt_fixed::<4>(a, b, out, m, n),
        9 => gemm_nt_fixed::<9>(a, b, out, m, n),
        16 => gemm_nt_fixed::<16>(a, b, out, m, n),
        25 => gemm_nt_fixed::<25>(a, b, out, m, n),
        36 => gemm_nt_fixed::<36>(a, b, out, m, n),
        49 => gemm_nt_fixed::<49>(a, b, out, m, n),
        64 => gemm_nt_fixed::<64>(a, b, out, m, n),
        _ => gemm_nt_any(a, b, out, m, k, n),
    }
}

fn gemm_nt_any(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (x, y) in arow.iter().zip(brow) {
                acc += x * y;
            }
            out[i * n + j] += acc;
        }
    }
}

/// [`gemm_nt_any`] monomorphized on the dot length `K`.
fn gemm_nt_fixed<const K: usize>(a: &[f32], b: &[f32], out: &mut [f32], m: usize, n: usize) {
    for i in 0..m {
        let arow: &[f32; K] = a[i * K..(i + 1) * K].try_into().unwrap();
        for j in 0..n {
            let brow: &[f32; K] = b[j * K..(j + 1) * K].try_into().unwrap();
            let mut acc = 0.0f32;
            for t in 0..K {
                acc += arow[t] * brow[t];
            }
            out[i * n + j] += acc;
        }
    }
}

/// `out[m,n] += a[k,m]^T * b[k,n]` (outer-product accumulation).
///
/// Conv backward's grad-input GEMM: `n` is the output grid `Ho·Wo`, so
/// the row width gets the same monomorphized treatment as
/// [`conv_gemm`]. The `a == 0.0` outer-product skip of the original is
/// preserved on every path.
///
/// Production callers all use [`gemm_tn_over`] (which skips the
/// caller-side zeroing pass); this accumulate-mode entry stays as the
/// reference the overwrite mode is tested against.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn gemm_tn(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
    gemm_tn_asserts(a, b, out, k, m, n);
    gemm_tn_dispatch::<false>(a, b, out, k, m, n);
}

/// Overwrite-mode [`gemm_tn`]: `out[m,n] = a[k,m]^T * b[k,n]`, fully
/// writing the output so callers can drop their zeroing pass. The
/// `p == 0` slice of the outer-product sum writes (or zero-fills on a
/// skipped `a == 0.0` term) instead of accumulating; later slices
/// accumulate exactly as [`gemm_tn`]. Relative to zero-then-accumulate
/// only the initial `0.0 + x` fold disappears, which can flip the sign
/// of a zero but never a value — and conv backward's `col2im`
/// scatter-add re-folds any `-0.0` away before gradients escape.
///
/// Runs through [`crate::simd::exact_gemm_tn_over`], whose AVX2 kernel
/// is bitwise identical to the scalar body [`gemm_tn_over_scalar`].
pub(crate) fn gemm_tn_over(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
    crate::simd::exact_gemm_tn_over(a, b, out, k, m, n);
}

/// Scalar body of [`gemm_tn_over`].
pub(crate) fn gemm_tn_over_scalar(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
    n: usize,
) {
    gemm_tn_asserts(a, b, out, k, m, n);
    if k == 0 {
        out.fill(0.0);
        return;
    }
    gemm_tn_dispatch::<true>(a, b, out, k, m, n);
}

fn gemm_tn_asserts(a: &[f32], b: &[f32], out: &[f32], k: usize, m: usize, n: usize) {
    debug_assert_eq!(
        a.len(),
        k * m,
        "gemm_tn: lhs A has {} elements, K×M = {k}×{m} needs {}",
        a.len(),
        k * m
    );
    debug_assert_eq!(
        b.len(),
        k * n,
        "gemm_tn: rhs B has {} elements, K×N = {k}×{n} needs {}",
        b.len(),
        k * n
    );
    debug_assert_eq!(
        out.len(),
        m * n,
        "gemm_tn: out has {} elements, M×N = {m}×{n} needs {}",
        out.len(),
        m * n
    );
}

fn gemm_tn_dispatch<const OVERWRITE: bool>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
    n: usize,
) {
    match n {
        4 => gemm_tn_fixed::<4, OVERWRITE>(a, b, out, k, m),
        9 => gemm_tn_fixed::<9, OVERWRITE>(a, b, out, k, m),
        16 => gemm_tn_fixed::<16, OVERWRITE>(a, b, out, k, m),
        25 => gemm_tn_fixed::<25, OVERWRITE>(a, b, out, k, m),
        36 => gemm_tn_fixed::<36, OVERWRITE>(a, b, out, k, m),
        49 => gemm_tn_fixed::<49, OVERWRITE>(a, b, out, k, m),
        64 => gemm_tn_fixed::<64, OVERWRITE>(a, b, out, k, m),
        _ => gemm_tn_any::<OVERWRITE>(a, b, out, k, m, n),
    }
}

fn gemm_tn_any<const OVERWRITE: bool>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
    n: usize,
) {
    for p in 0..k {
        let arow = &a[p * m..(p + 1) * m];
        let brow = &b[p * n..(p + 1) * n];
        for (i, &av) in arow.iter().enumerate() {
            if OVERWRITE && p == 0 {
                let orow = &mut out[i * n..(i + 1) * n];
                if av == 0.0 {
                    orow.fill(0.0);
                } else {
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o = av * bv;
                    }
                }
                continue;
            }
            if av == 0.0 {
                continue;
            }
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// [`gemm_tn_any`] monomorphized on the row width `N`.
fn gemm_tn_fixed<const N: usize, const OVERWRITE: bool>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
) {
    for p in 0..k {
        let arow = &a[p * m..(p + 1) * m];
        let brow: &[f32; N] = b[p * N..(p + 1) * N].try_into().unwrap();
        for (i, &av) in arow.iter().enumerate() {
            if OVERWRITE && p == 0 {
                let orow: &mut [f32; N] = (&mut out[i * N..(i + 1) * N]).try_into().unwrap();
                if av == 0.0 {
                    orow.fill(0.0);
                } else {
                    for j in 0..N {
                        orow[j] = av * brow[j];
                    }
                }
                continue;
            }
            if av == 0.0 {
                continue;
            }
            let orow: &mut [f32; N] = (&mut out[i * N..(i + 1) * N]).try_into().unwrap();
            for j in 0..N {
                orow[j] += av * brow[j];
            }
        }
    }
}

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
                    conv_gemm(wd_flat, &cols, oslice, o, ckk, howo);
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
                            gemm_nt(gslice, &cols, &mut gw, o, howo, ckk);
                            // gcols = w^T [ckk,o] * g_n [o,howo]; overwrite
                            // mode fully writes the buffer, so no zeroing
                            // pass between samples.
                            gemm_tn_over(wd_flat, gslice, &mut gcols, o, ckk, howo);
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
    fn gemm_variants_agree_with_matmul() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = Tensor::randn(&mut rng, &[3, 4], 1.0);
        let b = Tensor::randn(&mut rng, &[5, 4], 1.0);
        let mut out = vec![0.0; 15];
        gemm_nt(a.data(), b.data(), &mut out, 3, 4, 5);
        let want = a.matmul(&b.transpose2d());
        for (x, y) in out.iter().zip(want.data()) {
            assert!((x - y).abs() < 1e-5);
        }
        let c = Tensor::randn(&mut rng, &[4, 3], 1.0);
        let d = Tensor::randn(&mut rng, &[4, 5], 1.0);
        let mut out2 = vec![0.0; 15];
        gemm_tn(c.data(), d.data(), &mut out2, 4, 3, 5);
        let want2 = c.transpose2d().matmul(&d);
        for (x, y) in out2.iter().zip(want2.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn gemm_tn_over_matches_zero_then_accumulate() {
        // Overwrite mode on a poisoned buffer must equal zero-then-gemm_tn,
        // across both the fixed-width widths and the generic fallback, and
        // with zeros sprinkled into A to exercise the skip path.
        let mut rng = StdRng::seed_from_u64(21);
        for &(k, m, n) in &[(4, 6, 4), (3, 5, 16), (8, 7, 64), (2, 3, 70), (5, 4, 9)] {
            let mut a = Tensor::randn(&mut rng, &[k, m], 1.0);
            for v in a.data_mut().iter_mut().step_by(3) {
                *v = 0.0;
            }
            let b = Tensor::randn(&mut rng, &[k, n], 1.0);
            let mut want = vec![0.0f32; m * n];
            gemm_tn(a.data(), b.data(), &mut want, k, m, n);
            let mut got = vec![f32::NAN; m * n];
            gemm_tn_over(a.data(), b.data(), &mut got, k, m, n);
            assert_eq!(got, want, "k={k} m={m} n={n}");
        }
    }

    #[test]
    fn gemm_dispatch_widths_agree_with_generic() {
        // The monomorphized gemm_nt/gemm_tn widths must be bitwise equal to
        // the dynamic-loop kernels they replace.
        let mut rng = StdRng::seed_from_u64(22);
        for &s in &[4usize, 9, 16, 25, 36, 49, 64, 50] {
            let (m, n) = (5, 7);
            let a = Tensor::randn(&mut rng, &[m, s], 1.0);
            let b = Tensor::randn(&mut rng, &[n, s], 1.0);
            let mut want = vec![0.1f32; m * n];
            gemm_nt_any(a.data(), b.data(), &mut want, m, s, n);
            let mut got = vec![0.1f32; m * n];
            gemm_nt(a.data(), b.data(), &mut got, m, s, n);
            assert_eq!(got, want, "gemm_nt k={s}");

            let (k, m2) = (6, 3);
            let c = Tensor::randn(&mut rng, &[k, m2], 1.0);
            let d = Tensor::randn(&mut rng, &[k, s], 1.0);
            let mut want2 = vec![0.2f32; m2 * s];
            gemm_tn_any::<false>(c.data(), d.data(), &mut want2, k, m2, s);
            let mut got2 = vec![0.2f32; m2 * s];
            gemm_tn(c.data(), d.data(), &mut got2, k, m2, s);
            assert_eq!(got2, want2, "gemm_tn n={s}");
        }
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
