//! f32x8 microkernels for the compiled engines, the tape and the
//! capture channel.
//!
//! This is the one module in the workspace allowed to contain `unsafe`
//! (the workspace-wide lint is `unsafe_code = "deny"`): the AVX2
//! kernels below use `std::arch` intrinsics behind a runtime feature
//! check. Every other crate keeps the deny.
//!
//! # Contract
//!
//! The kernels come in two families.
//!
//! * **Exact, dispatched on the backend alone.** `exact_gemm`,
//!   `exact_gemm_nt` and `exact_gemm_tn_over` (the reference tier's
//!   conv GEMMs), `sparse_gather` (behind [`crate::LinearMap`]),
//!   [`add_scaled_clamp`] and [`box_blur_vertical`] run, per output element, the scalar loop's
//!   own sequence of separate `mul`s and `add`s (never FMA, no
//!   re-association). IEEE `mul` and `add` round the same at any vector
//!   width, so both backends are **bitwise identical** to the scalar
//!   code and to each other, and they serve either tier.
//! * **Certified, fast tier only.** [`gemm`], [`gemm_nt_acc`],
//!   [`gemm_tn_over`], [`affine_act`], [`act_inplace`] and
//!   [`max_pool2x2`] implement [`Tier::Fast`](crate::tier::Tier): they
//!   may contract `mul`+`add` into FMA and (for the dot-product kernel)
//!   re-associate the reduction into eight lanes, so their results are
//!   **not** bitwise-identical to the scalar reference in
//!   [`crate::conv`]. They are instead covered by the static
//!   `f32x8-fma` ulp certificate from `rd_analysis::bounds`: per output
//!   element the divergence stays within `2·γ(k)·Σ|aᵢ·bᵢ|` of the
//!   reference, the forward-error model the certifier propagates to the
//!   logits. The equivalence proptests at the bottom of this module
//!   check exactly that bound per kernel.
//!
//! # Backends
//!
//! [`backend`] picks once per process:
//!
//! * [`Backend::Avx2Fma`] — `std::arch` 8-lane kernels, selected when
//!   the host reports AVX2 *and* FMA (checked at runtime, not compile
//!   time) and `RD_NO_SIMD` is unset. The exact kernels enable only
//!   `avx2`, so the compiler cannot emit an FMA inside them.
//! * [`Backend::Portable`] — safe scalar code: the exact kernels'
//!   scalar bodies (for the GEMMs, the ones in `crate::conv`), and
//!   scalar-unrolled fast-tier kernels whose reductions mimic the
//!   8-lane partial-sum shape without FMA, so one certificate covers
//!   both backends.
//!
//! # Cache blocking
//!
//! The fast forward GEMM tiles the im2col output grid into 64-column
//! panels (eight f32x8 accumulators) and blocks the reduction into
//! 256-row slabs of the column matrix, so the active B panel stays
//! cache-resident across the weight rows. Spilling accumulators to the
//! output between k-blocks stores/reloads exact `f32` values, so the
//! blocking never changes a rounding — per element the sequence is
//! still one k-ascending FMA chain.
#![allow(unsafe_code)]

use std::sync::OnceLock;

/// Output-column tile width: eight f32x8 accumulators.
const NR: usize = 64;
/// Reduction block: B-panel rows kept cache-resident per tile.
const KC: usize = 256;

/// Fused epilogue activation applied after `x·scale + shift`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Act {
    /// Affine only.
    None,
    /// `t > 0 ? t : α·t`.
    Leaky(f32),
    /// `max(t, 0)`.
    Relu,
}

/// Which kernel implementation the fast tier runs on this host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `std::arch` AVX2+FMA 8-lane kernels.
    Avx2Fma,
    /// Safe scalar-unrolled fallback with the same tile structure.
    Portable,
}

impl Backend {
    /// Stable label for reports and bench JSON.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Avx2Fma => "avx2+fma",
            Backend::Portable => "portable-unrolled",
        }
    }

    /// Runtime dispatch rule, split out so tests can drive both
    /// outcomes: AVX2+FMA only when the host reports both features and
    /// SIMD is not disabled (`simd_disabled` mirrors the `RD_NO_SIMD`
    /// environment switch). On non-x86_64 hosts this is always
    /// [`Backend::Portable`].
    pub fn select(simd_disabled: bool) -> Backend {
        #[cfg(target_arch = "x86_64")]
        {
            if !simd_disabled && is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
            {
                return Backend::Avx2Fma;
            }
        }
        let _ = simd_disabled;
        Backend::Portable
    }
}

/// The backend the fast tier uses in this process, detected once.
/// Set `RD_NO_SIMD=1` to force the portable fallback on any host.
pub fn backend() -> Backend {
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(|| Backend::select(std::env::var_os("RD_NO_SIMD").is_some()))
}

/// GEMM `out = a[m,k] × b[k,n]`, overwrite mode (no zeroing needed).
///
/// Fast-tier counterpart of [`crate::conv`]'s `conv_gemm`.
///
/// # Panics
///
/// Panics if a slice is shorter than its extent.
pub fn gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert!(
        a.len() >= m * k && b.len() >= k * n && out.len() >= m * n,
        "gemm: slices shorter than m={m} k={k} n={n}"
    );
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out[..m * n].fill(0.0);
        return;
    }
    match backend() {
        // SAFETY: `backend()` returned Avx2Fma only after runtime
        // detection of both `avx2` and `fma` on this CPU.
        Backend::Avx2Fma => unsafe { avx2::gemm(a, b, out, m, k, n) },
        Backend::Portable => crate::conv::conv_gemm_scalar(a, b, out, m, k, n),
    }
}

/// `out[m,n] += a[m,k] × b[n,k]ᵀ` (row–row dot products).
///
/// Fast-tier counterpart of [`crate::conv`]'s `gemm_nt` (conv
/// backward's grad-weight GEMM). The reduction over `k` runs as eight
/// partial lanes folded in a fixed order, so it re-associates relative
/// to the reference — covered by the `f32x8-fma` model.
///
/// # Panics
///
/// Panics if a slice is shorter than its extent.
pub fn gemm_nt_acc(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert!(
        a.len() >= m * k && b.len() >= n * k && out.len() >= m * n,
        "gemm_nt_acc: slices shorter than m={m} k={k} n={n}"
    );
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    match backend() {
        // SAFETY: AVX2+FMA presence established by `backend()`.
        Backend::Avx2Fma => unsafe { avx2::gemm_nt_acc(a, b, out, m, k, n) },
        Backend::Portable => portable::gemm_nt_acc(a, b, out, m, k, n),
    }
}

/// `out[m,n] = a[k,m]ᵀ × b[k,n]`, overwrite mode.
///
/// Fast-tier counterpart of [`crate::conv`]'s `gemm_tn_over` (conv
/// backward's grad-input GEMM). Per output element the sum stays
/// p-ascending; only FMA contraction (and the sign of exact zeros)
/// differs from the reference.
///
/// # Panics
///
/// Panics if a slice is shorter than its extent.
pub fn gemm_tn_over(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
    assert!(
        a.len() >= k * m && b.len() >= k * n && out.len() >= m * n,
        "gemm_tn_over: slices shorter than k={k} m={m} n={n}"
    );
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out[..m * n].fill(0.0);
        return;
    }
    match backend() {
        // SAFETY: AVX2+FMA presence established by `backend()`.
        Backend::Avx2Fma => unsafe { avx2::gemm_tn_over(a, b, out, k, m, n) },
        Backend::Portable => portable::gemm_tn_over(a, b, out, k, m, n),
    }
}

/// Fused conv epilogue: `v = act(v·scale + shift)` over a channel
/// segment. The reference computes the same chain with separate
/// `mul`+`add`; the AVX2 path contracts it to one FMA per element.
pub fn affine_act(seg: &mut [f32], scale: f32, shift: f32, act: Act) {
    match backend() {
        // SAFETY: AVX2+FMA presence established by `backend()`.
        Backend::Avx2Fma => unsafe { avx2::affine_act(seg, scale, shift, act) },
        Backend::Portable => portable::affine_act(seg, scale, shift, act),
    }
}

/// 2×2 stride-2 max-pool over a CHW tensor with even `h`, `w`.
///
/// `max` performs no rounding, so this is **bitwise identical** to the
/// reference pooling loop on non-NaN data regardless of backend. It is
/// still dispatched on the fast tier only, because NaN is the one case
/// where they differ: `_mm256_max_ps` returns its second operand when
/// either is NaN, while `f32::max` ignores a NaN operand.
///
/// # Panics
///
/// Debug-asserts the 2×2/stride-2 shape contract.
pub fn max_pool2x2(xs: &[f32], out: &mut [f32], c: usize, h: usize, w: usize) {
    debug_assert!(
        h.is_multiple_of(2) && w.is_multiple_of(2),
        "max_pool2x2 needs even dims"
    );
    debug_assert!(xs.len() >= c * h * w && out.len() >= c * (h / 2) * (w / 2));
    match backend() {
        // SAFETY: AVX2+FMA presence established by `backend()`.
        Backend::Avx2Fma => unsafe { avx2::max_pool2x2(xs, out, c, h, w) },
        Backend::Portable => portable::max_pool2x2(xs, out, c, h, w),
    }
}

/// Standalone activation over a buffer (conv epilogue without a fused
/// batch norm). Value-identical to the reference branches.
pub fn act_inplace(seg: &mut [f32], act: Act) {
    match act {
        Act::None => {}
        _ => match backend() {
            // SAFETY: AVX2+FMA presence established by `backend()`.
            Backend::Avx2Fma => unsafe { avx2::act_inplace(seg, act) },
            Backend::Portable => portable::act_inplace(seg, act),
        },
    }
}

/// Sparse CSR row gather: `out[r] = Σᵢ weights[i]·src[srcs[i]]` over
/// `offsets[r]..offsets[r + 1]`, overwrite mode.
///
/// The apply kernel behind [`crate::LinearMap`]'s bilinear warps. Each
/// row accumulates from `0.0` in entry order with separate `mul`+`add`
/// (never FMA), so the result is **bitwise identical** to the scalar
/// entry scatter on both backends — like [`max_pool2x2`] this needs no
/// ulp certificate, and because the render path is tier-independent it
/// is dispatched on the backend alone. The AVX2 path vectorises the
/// dominant shapes of a bilinear map: runs of eight 4-entry rows
/// (interior pixels) and runs of eight empty rows (outside the warp
/// footprint).
///
/// Crate-private: the AVX2 path reads `src` at every `srcs[i]` and
/// between `offsets` without a bounds check, and only debug builds
/// re-check those here. Its one caller is [`crate::LinearMap`], whose
/// constructor asserts every source index and whose CSR arrays are
/// private, so safe code outside the crate cannot reach it with bad
/// indices.
///
/// # Panics
///
/// Asserts the CSR shape contract (one row per output element, the last
/// offset closing `srcs`/`weights`); monotone offsets and source
/// indices are debug-asserted.
pub(crate) fn sparse_gather(
    offsets: &[u32],
    srcs: &[u32],
    weights: &[f32],
    src: &[f32],
    out: &mut [f32],
) {
    assert_eq!(offsets.len(), out.len() + 1, "CSR needs out_n + 1 offsets");
    assert_eq!(srcs.len(), weights.len());
    assert_eq!(
        *offsets.last().expect("offsets non-empty") as usize,
        srcs.len()
    );
    debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(srcs.iter().all(|&s| (s as usize) < src.len()));
    match backend() {
        // SAFETY: AVX2+FMA presence established by `backend()`; the
        // asserts above pin the CSR shape and `LinearMap::new` bounds
        // every source index.
        Backend::Avx2Fma => unsafe { avx2::sparse_gather(offsets, srcs, weights, src, out) },
        Backend::Portable => portable::sparse_gather(offsets, srcs, weights, src, out),
    }
}

/// Capture-channel noise blend: `seg[i] = (seg[i] + noise[i]·scale)
/// .clamp(0.0, 1.0)`.
///
/// Separate `mul`+`add` (no FMA) and a compare+select clamp that keeps
/// `-0.0` and NaN behaviour identical to `f32::clamp`, so both
/// backends are **bitwise identical** to the scalar loop.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn add_scaled_clamp(seg: &mut [f32], noise: &[f32], scale: f32) {
    assert_eq!(seg.len(), noise.len());
    match backend() {
        // SAFETY: AVX2+FMA presence established by `backend()`.
        Backend::Avx2Fma => unsafe { avx2::add_scaled_clamp(seg, noise, scale) },
        Backend::Portable => portable::add_scaled_clamp(seg, noise, scale),
    }
}

/// Vertical box blur of one `h × w` plane with a clamped window of
/// `radius` rows each side: `dst[y·w + x] = mean(src[y0..y1, x])`.
///
/// The motion-blur kernel of the capture channel. Per output element
/// the window sum runs y-ascending from `0.0` and one IEEE division —
/// the exact scalar sequence — so both backends are **bitwise
/// identical**; the AVX2 path just walks eight columns per iteration.
///
/// # Panics
///
/// Panics if `src`/`dst` do not hold `h·w` elements.
pub fn box_blur_vertical(src: &[f32], dst: &mut [f32], h: usize, w: usize, radius: usize) {
    assert_eq!(src.len(), h * w);
    assert_eq!(dst.len(), h * w);
    match backend() {
        // SAFETY: AVX2+FMA presence established by `backend()`; the
        // asserts above pin the plane shape.
        Backend::Avx2Fma => unsafe { avx2::box_blur_vertical(src, dst, h, w, radius) },
        Backend::Portable => portable::box_blur_vertical(src, dst, h, w, radius),
    }
}

/// Exact forward GEMM `out = a[m,k] × b[k,n]`, overwrite mode: the
/// reference tier's conv forward (`conv::conv_gemm`).
///
/// Per output element both backends run the scalar body's sequence:
/// from `+0.0`, ascending `k`, one `mul` then one `add` per term, and
/// no term whose `a` equals `0.0` (either sign), so a NaN or infinity in
/// `b` behind a zero weight stays out of the sum. The AVX2 path only
/// runs several such chains side by side (register blocks of rows ×
/// 8, 16 or 32 columns, SSE for 4-column tails), so it is **bitwise
/// identical** to the scalar body and is dispatched on the backend
/// alone, on either tier.
///
/// # Panics
///
/// Panics if a slice is shorter than its extent.
pub(crate) fn exact_gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert!(
        a.len() >= m * k && b.len() >= k * n && out.len() >= m * n,
        "exact_gemm: slices shorter than m={m} k={k} n={n}"
    );
    match backend() {
        // SAFETY: `backend()` returned Avx2Fma only after runtime
        // detection of `avx2`; the assert above bounds every read of
        // `a` and `b` and every write of `out`.
        Backend::Avx2Fma => unsafe { exact::gemm::<false>(a, k, 1, b, out, m, k, n) },
        Backend::Portable => crate::conv::conv_gemm_scalar(a, b, out, m, k, n),
    }
}

/// Exact grad-weight GEMM `out[m,n] += a[m,k] × b[n,k]ᵀ`: the reference
/// tier's `conv::gemm_nt`.
///
/// Per output element both backends form the dot product from `+0.0`,
/// ascending `k`, one `mul` then one `add` per term (no term skipped),
/// and add the finished sum into `out` — **bitwise identical** to the
/// scalar body. The AVX2 path puts eight output rows in the lanes of
/// one register, reading them from a transposed copy of `a` in arena
/// scratch (or on the stack when it is small).
///
/// # Panics
///
/// Panics if a slice is shorter than its extent.
pub(crate) fn exact_gemm_nt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert!(
        a.len() >= m * k && b.len() >= n * k && out.len() >= m * n,
        "exact_gemm_nt: slices shorter than m={m} k={k} n={n}"
    );
    match backend() {
        Backend::Avx2Fma => {
            // at[t·m8 + i] = a[i·k + t]; the padding rows stay zero.
            let m8 = m.div_ceil(8) * 8;
            let mut small = [0.0f32; 1024];
            let mut pooled;
            let at: &mut [f32] = if k * m8 <= small.len() {
                &mut small[..k * m8]
            } else {
                pooled = crate::arena::ScratchBuf::zeroed(k * m8);
                &mut pooled
            };
            for (i, row) in a[..m * k].chunks_exact(k.max(1)).enumerate() {
                for (t, &v) in row.iter().enumerate() {
                    at[t * m8 + i] = v;
                }
            }
            // SAFETY: AVX2 presence established by `backend()`; `at`
            // holds `k·m8` elements and the assert above bounds `b` and
            // `out`.
            unsafe { exact::gemm_nt(at, m8, b, out, m, k, n) }
        }
        Backend::Portable => crate::conv::gemm_nt_scalar(a, b, out, m, k, n),
    }
}

/// Exact grad-input GEMM `out[m,n] = a[k,m]ᵀ × b[k,n]`, overwrite mode:
/// the reference tier's `conv::gemm_tn_over`.
///
/// Per output element both backends write the first term as `a·b` (or
/// `+0.0` when its `a` is zero), then add the later terms in ascending
/// `k`, one `mul` then one `add` each, skipping every term whose `a`
/// equals `0.0` — **bitwise identical** to the scalar body, and every
/// element of `out[..m·n]` is overwritten.
///
/// # Panics
///
/// Panics if a slice is shorter than its extent.
pub(crate) fn exact_gemm_tn_over(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    k: usize,
    m: usize,
    n: usize,
) {
    assert!(
        a.len() >= k * m && b.len() >= k * n && out.len() >= m * n,
        "exact_gemm_tn_over: slices shorter than k={k} m={m} n={n}"
    );
    match backend() {
        // SAFETY: AVX2 presence established by `backend()`; the assert
        // above bounds every read of `a` and `b` and write of `out`.
        Backend::Avx2Fma => unsafe { exact::gemm::<true>(a, 1, m, b, out, m, k, n) },
        Backend::Portable => crate::conv::gemm_tn_over_scalar(a, b, out, k, m, n),
    }
}

/// Safe scalar-unrolled fallback kernels (also the only backend on
/// non-x86_64 hosts). Public so the dispatch tests can pin this path
/// regardless of the host CPU.
pub mod portable {
    use super::{Act, NR};

    /// Portable [`super::gemm_nt_acc`]: eight k-strided partial sums
    /// folded pairwise — the 8-lane reduction shape without FMA.
    pub fn gemm_nt_acc(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        let kv = k / 8 * 8;
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let brow = &b[j * k..(j + 1) * k];
                let mut acc = [0.0f32; 8];
                let mut kk = 0;
                while kk < kv {
                    for (t, s) in acc.iter_mut().enumerate() {
                        *s += arow[kk + t] * brow[kk + t];
                    }
                    kk += 8;
                }
                let mut tail = 0.0f32;
                for t in kv..k {
                    tail += arow[t] * brow[t];
                }
                let s = ((acc[0] + acc[1]) + (acc[2] + acc[3]))
                    + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
                    + tail;
                out[i * n + j] += s;
            }
        }
    }

    /// Portable [`super::gemm_tn_over`]: 64-column tiles accumulated
    /// p-ascending with the reference's zero-skip; only the sign of
    /// exact zeros can differ from the reference's overwrite mode.
    pub fn gemm_tn_over(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
        let mut jb = 0;
        while jb < n {
            let jw = NR.min(n - jb);
            for i in 0..m {
                let mut acc = [0.0f32; NR];
                let acc = &mut acc[..jw];
                for p in 0..k {
                    let av = a[p * m + i];
                    if av == 0.0 {
                        continue;
                    }
                    let brow = &b[p * n + jb..p * n + jb + jw];
                    for (s, &bv) in acc.iter_mut().zip(brow) {
                        *s += av * bv;
                    }
                }
                out[i * n + jb..i * n + jb + jw].copy_from_slice(acc);
            }
            jb += jw;
        }
    }

    /// Portable [`super::affine_act`]: the reference epilogue verbatim.
    pub fn affine_act(seg: &mut [f32], scale: f32, shift: f32, act: Act) {
        match act {
            Act::None => {
                for v in seg {
                    *v = *v * scale + shift;
                }
            }
            Act::Leaky(alpha) => {
                for v in seg {
                    let t = *v * scale + shift;
                    *v = if t > 0.0 { t } else { alpha * t };
                }
            }
            Act::Relu => {
                for v in seg {
                    *v = (*v * scale + shift).max(0.0);
                }
            }
        }
    }

    /// Portable [`super::max_pool2x2`]: branch-free row-pair maxima.
    pub fn max_pool2x2(xs: &[f32], out: &mut [f32], c: usize, h: usize, w: usize) {
        let (ho, wo) = (h / 2, w / 2);
        let (hw, howo) = (h * w, ho * wo);
        for ch in 0..c {
            let plane = &xs[ch * hw..(ch + 1) * hw];
            let oplane = &mut out[ch * howo..(ch + 1) * howo];
            for oh in 0..ho {
                let r0 = &plane[2 * oh * w..2 * oh * w + w];
                let r1 = &plane[(2 * oh + 1) * w..(2 * oh + 1) * w + w];
                for (ow, o) in oplane[oh * wo..(oh + 1) * wo].iter_mut().enumerate() {
                    let j = 2 * ow;
                    *o = r0[j].max(r0[j + 1]).max(r1[j].max(r1[j + 1]));
                }
            }
        }
    }

    /// Portable [`super::act_inplace`]: the reference branches verbatim.
    pub fn act_inplace(seg: &mut [f32], act: Act) {
        match act {
            Act::None => {}
            Act::Leaky(alpha) => {
                for v in seg {
                    let t = *v;
                    *v = if t > 0.0 { t } else { alpha * t };
                }
            }
            Act::Relu => {
                for v in seg {
                    *v = v.max(0.0);
                }
            }
        }
    }

    /// Portable [`super::sparse_gather`]: the per-row accumulation loop,
    /// entry order, from `0.0` — the scalar scatter's exact add chain.
    pub fn sparse_gather(
        offsets: &[u32],
        srcs: &[u32],
        weights: &[f32],
        src: &[f32],
        out: &mut [f32],
    ) {
        for (r, o) in out.iter_mut().enumerate() {
            let (lo, hi) = (offsets[r] as usize, offsets[r + 1] as usize);
            let mut acc = 0.0f32;
            for i in lo..hi {
                acc += weights[i] * src[srcs[i] as usize];
            }
            *o = acc;
        }
    }

    /// Portable [`super::add_scaled_clamp`]: the scalar loop verbatim.
    pub fn add_scaled_clamp(seg: &mut [f32], noise: &[f32], scale: f32) {
        for (v, &n) in seg.iter_mut().zip(noise) {
            *v = (*v + n * scale).clamp(0.0, 1.0);
        }
    }

    /// Portable [`super::box_blur_vertical`]: per-column clamped window
    /// sums, y-ascending, one division per output.
    pub fn box_blur_vertical(src: &[f32], dst: &mut [f32], h: usize, w: usize, radius: usize) {
        for y in 0..h {
            let y0 = y.saturating_sub(radius);
            let y1 = (y + radius + 1).min(h);
            let inv = (y1 - y0) as f32;
            for x in 0..w {
                let mut acc = 0.0f32;
                for yy in y0..y1 {
                    acc += src[yy * w + x];
                }
                dst[y * w + x] = acc / inv;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! `std::arch` AVX2+FMA kernels. Every function here is
    //! `unsafe fn` + `#[target_feature]`: callers must have verified
    //! AVX2 and FMA at runtime (see [`super::backend`]).

    use super::{Act, KC, NR};
    use std::arch::x86_64::*;

    /// Horizontal sum of one f32x8 vector in a fixed lane order.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn hsum(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps::<1>(v);
        let q = _mm_add_ps(lo, hi);
        let d = _mm_add_ps(q, _mm_movehl_ps(q, q));
        let s = _mm_add_ss(d, _mm_shuffle_ps::<1>(d, d));
        _mm_cvtss_f32(s)
    }

    /// One (row, 8·NV-column, k-block) GEMM tile: `NV` accumulators,
    /// k-ascending FMA chain, spilled exactly between k-blocks.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA, `orow[jb..jb + 8·NV]` in bounds, and
    /// `b[kk·n + jb + 8·NV − 1]` in bounds for every `kk` in the block.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn gemm_tile<const NV: usize>(
        arow: &[f32],
        b: &[f32],
        orow: &mut [f32],
        jb: usize,
        n: usize,
        kb: usize,
        kw: usize,
        first: bool,
    ) {
        let mut acc = [_mm256_setzero_ps(); NV];
        let op = orow.as_mut_ptr().add(jb);
        if !first {
            for (t, s) in acc.iter_mut().enumerate() {
                *s = _mm256_loadu_ps(op.add(t * 8));
            }
        }
        for kk in kb..kb + kw {
            let av = _mm256_set1_ps(arow[kk]);
            let bp = b.as_ptr().add(kk * n + jb);
            for (t, s) in acc.iter_mut().enumerate() {
                *s = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(t * 8)), *s);
            }
        }
        for (t, s) in acc.iter().enumerate() {
            _mm256_storeu_ps(op.add(t * 8), *s);
        }
    }

    /// One (row, 16-column, k-block) tile: two f32x8 accumulators per
    /// column pair, each split into two k-strided partial chains. A
    /// 16-wide tile has too few independent 8-lane accumulators to
    /// cover the FMA latency, so the k-split buys the missing ILP; the
    /// reassociation is covered by the `f32x8-fma` certificate.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA, `orow[jb..jb + 16]` in bounds, and
    /// `b[kk·n + jb + 15]` in bounds for every `kk` in the block.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn gemm_tile16(
        arow: &[f32],
        b: &[f32],
        orow: &mut [f32],
        jb: usize,
        n: usize,
        kb: usize,
        kw: usize,
        first: bool,
    ) {
        let bp = b.as_ptr();
        let (mut a0, mut a1) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        let (mut c0, mut c1) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        let kend = kb + kw;
        let mut kk = kb;
        while kk + 2 <= kend {
            let av0 = _mm256_set1_ps(arow[kk]);
            let av1 = _mm256_set1_ps(arow[kk + 1]);
            let r0 = bp.add(kk * n + jb);
            let r1 = bp.add((kk + 1) * n + jb);
            a0 = _mm256_fmadd_ps(av0, _mm256_loadu_ps(r0), a0);
            c0 = _mm256_fmadd_ps(av0, _mm256_loadu_ps(r0.add(8)), c0);
            a1 = _mm256_fmadd_ps(av1, _mm256_loadu_ps(r1), a1);
            c1 = _mm256_fmadd_ps(av1, _mm256_loadu_ps(r1.add(8)), c1);
            kk += 2;
        }
        if kk < kend {
            let av = _mm256_set1_ps(arow[kk]);
            let r = bp.add(kk * n + jb);
            a0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(r), a0);
            c0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(r.add(8)), c0);
        }
        let mut va = _mm256_add_ps(a0, a1);
        let mut vc = _mm256_add_ps(c0, c1);
        let op = orow.as_mut_ptr().add(jb);
        if !first {
            va = _mm256_add_ps(va, _mm256_loadu_ps(op));
            vc = _mm256_add_ps(vc, _mm256_loadu_ps(op.add(8)));
        }
        _mm256_storeu_ps(op, va);
        _mm256_storeu_ps(op.add(8), vc);
    }

    /// One (row, 8-column, k-block) tile: a single f32x8 accumulator
    /// split into four k-strided partial chains for ILP (same
    /// reassociated shape as [`gemm_tile16`]).
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA, `orow[jb..jb + 8]` in bounds, and
    /// `b[kk·n + jb + 7]` in bounds for every `kk` in the block.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn gemm_tile8(
        arow: &[f32],
        b: &[f32],
        orow: &mut [f32],
        jb: usize,
        n: usize,
        kb: usize,
        kw: usize,
        first: bool,
    ) {
        let bp = b.as_ptr();
        let mut acc = [_mm256_setzero_ps(); 4];
        let kend = kb + kw;
        let mut kk = kb;
        while kk + 4 <= kend {
            for (t, s) in acc.iter_mut().enumerate() {
                *s = _mm256_fmadd_ps(
                    _mm256_set1_ps(arow[kk + t]),
                    _mm256_loadu_ps(bp.add((kk + t) * n + jb)),
                    *s,
                );
            }
            kk += 4;
        }
        while kk < kend {
            acc[0] = _mm256_fmadd_ps(
                _mm256_set1_ps(arow[kk]),
                _mm256_loadu_ps(bp.add(kk * n + jb)),
                acc[0],
            );
            kk += 1;
        }
        let mut v = _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3]));
        let op = orow.as_mut_ptr().add(jb);
        if !first {
            v = _mm256_add_ps(v, _mm256_loadu_ps(op));
        }
        _mm256_storeu_ps(op, v);
    }

    /// One (row, 4-column, k-block) tile for narrow j-tails: 128-bit
    /// lanes with four k-strided partial chains folded pairwise. The
    /// extra chains buy ILP on latency-bound tiny grids (a 2×2 head
    /// grid is one of these tiles); the reassociation is covered by
    /// the `f32x8-fma` certificate like the 8-lane reductions.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA, `orow[jb..jb + 4]` in bounds, and
    /// `b[kk·n + jb + 3]` in bounds for every `kk` in the block.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn gemm_tile4(
        arow: &[f32],
        b: &[f32],
        orow: &mut [f32],
        jb: usize,
        n: usize,
        kb: usize,
        kw: usize,
        first: bool,
    ) {
        let bp = b.as_ptr();
        let mut acc = [_mm_setzero_ps(); 4];
        let kend = kb + kw;
        let mut kk = kb;
        while kk + 4 <= kend {
            for (t, s) in acc.iter_mut().enumerate() {
                *s = _mm_fmadd_ps(
                    _mm_set1_ps(arow[kk + t]),
                    _mm_loadu_ps(bp.add((kk + t) * n + jb)),
                    *s,
                );
            }
            kk += 4;
        }
        while kk < kend {
            acc[0] = _mm_fmadd_ps(
                _mm_set1_ps(arow[kk]),
                _mm_loadu_ps(bp.add(kk * n + jb)),
                acc[0],
            );
            kk += 1;
        }
        let mut v = _mm_add_ps(_mm_add_ps(acc[0], acc[1]), _mm_add_ps(acc[2], acc[3]));
        let op = orow.as_mut_ptr().add(jb);
        if !first {
            v = _mm_add_ps(v, _mm_loadu_ps(op));
        }
        _mm_storeu_ps(op, v);
    }

    /// One leftover output column (< 4 remaining): scalar FMA over four
    /// k-strided partial chains, folded pairwise.
    ///
    /// # Safety
    ///
    /// Requires FMA (for `mul_add` to lower to `vfmadd`); all indexing
    /// is bounds-checked slice access.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn gemm_col(
        arow: &[f32],
        b: &[f32],
        orow: &mut [f32],
        j: usize,
        n: usize,
        kb: usize,
        kw: usize,
        first: bool,
    ) {
        let mut s = [0.0f32; 4];
        let kend = kb + kw;
        let mut kk = kb;
        while kk + 4 <= kend {
            for (t, st) in s.iter_mut().enumerate() {
                *st = arow[kk + t].mul_add(b[(kk + t) * n + j], *st);
            }
            kk += 4;
        }
        while kk < kend {
            s[0] = arow[kk].mul_add(b[kk * n + j], s[0]);
            kk += 1;
        }
        let mut v = (s[0] + s[1]) + (s[2] + s[3]);
        if !first {
            v += orow[j];
        }
        orow[j] = v;
    }

    /// AVX2 [`super::gemm`]: j-tiled (NR columns), k-blocked (KC rows).
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA and the slice extents asserted by the caller.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        let mut jb = 0;
        while jb < n {
            let jw = NR.min(n - jb);
            let nv = jw / 8;
            let jtail = jb + nv * 8;
            let mut kb = 0;
            while kb < k {
                let kw = KC.min(k - kb);
                let first = kb == 0;
                for i in 0..m {
                    let arow = &a[i * k..(i + 1) * k];
                    let orow = &mut out[i * n..(i + 1) * n];
                    match nv {
                        8 => gemm_tile::<8>(arow, b, orow, jb, n, kb, kw, first),
                        7 => gemm_tile::<7>(arow, b, orow, jb, n, kb, kw, first),
                        6 => gemm_tile::<6>(arow, b, orow, jb, n, kb, kw, first),
                        5 => gemm_tile::<5>(arow, b, orow, jb, n, kb, kw, first),
                        4 => gemm_tile::<4>(arow, b, orow, jb, n, kb, kw, first),
                        3 => gemm_tile::<3>(arow, b, orow, jb, n, kb, kw, first),
                        // narrow tiles: k-split chains for ILP
                        2 => gemm_tile16(arow, b, orow, jb, n, kb, kw, first),
                        1 => gemm_tile8(arow, b, orow, jb, n, kb, kw, first),
                        _ => {}
                    }
                    let mut j = jtail;
                    while j + 4 <= jb + jw {
                        gemm_tile4(arow, b, orow, j, n, kb, kw, first);
                        j += 4;
                    }
                    while j < jb + jw {
                        gemm_col(arow, b, orow, j, n, kb, kw, first);
                        j += 1;
                    }
                }
                kb += kw;
            }
            jb += jw;
        }
    }

    /// AVX2 [`super::gemm_nt_acc`]: four f32x8 lanes over `k`, folded
    /// `((l0+l1)+(l2+l3))` then horizontally, scalar-FMA tail.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA and the slice extents asserted by the caller.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemm_nt_acc(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let brow = &b[j * k..(j + 1) * k];
                let ap = arow.as_ptr();
                let bp = brow.as_ptr();
                let mut acc = [_mm256_setzero_ps(); 4];
                let mut kk = 0;
                while kk + 32 <= k {
                    for (t, s) in acc.iter_mut().enumerate() {
                        *s = _mm256_fmadd_ps(
                            _mm256_loadu_ps(ap.add(kk + t * 8)),
                            _mm256_loadu_ps(bp.add(kk + t * 8)),
                            *s,
                        );
                    }
                    kk += 32;
                }
                while kk + 8 <= k {
                    acc[0] = _mm256_fmadd_ps(
                        _mm256_loadu_ps(ap.add(kk)),
                        _mm256_loadu_ps(bp.add(kk)),
                        acc[0],
                    );
                    kk += 8;
                }
                let v = _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3]));
                let mut s = hsum(v);
                while kk < k {
                    s = arow[kk].mul_add(brow[kk], s);
                    kk += 1;
                }
                out[i * n + j] += s;
            }
        }
    }

    /// One (row, 8·NV-column) grad-input tile: accumulators over the
    /// full p range, p-ascending FMA chain.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA, `orow[jb..jb + 8·NV]` in bounds, and
    /// `b[p·n + jb + 8·NV − 1]` in bounds for every `p < k`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn tn_tile<const NV: usize>(
        a: &[f32],
        b: &[f32],
        orow: &mut [f32],
        i: usize,
        jb: usize,
        k: usize,
        m: usize,
        n: usize,
    ) {
        let bp0 = b.as_ptr().add(jb);
        let av0 = _mm256_set1_ps(a[i]);
        let mut acc = [_mm256_setzero_ps(); NV];
        for (t, s) in acc.iter_mut().enumerate() {
            *s = _mm256_mul_ps(av0, _mm256_loadu_ps(bp0.add(t * 8)));
        }
        for p in 1..k {
            let av = _mm256_set1_ps(a[p * m + i]);
            let bp = b.as_ptr().add(p * n + jb);
            for (t, s) in acc.iter_mut().enumerate() {
                *s = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp.add(t * 8)), *s);
            }
        }
        let op = orow.as_mut_ptr().add(jb);
        for (t, s) in acc.iter().enumerate() {
            _mm256_storeu_ps(op.add(t * 8), *s);
        }
    }

    /// Narrow grad-input tile: four output columns, 128-bit lanes with
    /// four p-strided partial chains folded pairwise (same reassociated
    /// shape as [`gemm_tile4`], same certificate).
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA, `orow[jb..jb + 4]` in bounds, and
    /// `b[p·n + jb + 3]` in bounds for every `p < k`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn tn_tile4(
        a: &[f32],
        b: &[f32],
        orow: &mut [f32],
        i: usize,
        jb: usize,
        k: usize,
        m: usize,
        n: usize,
    ) {
        let bp = b.as_ptr();
        let mut acc = [_mm_setzero_ps(); 4];
        let mut p = 0;
        while p + 4 <= k {
            for (t, s) in acc.iter_mut().enumerate() {
                *s = _mm_fmadd_ps(
                    _mm_set1_ps(a[(p + t) * m + i]),
                    _mm_loadu_ps(bp.add((p + t) * n + jb)),
                    *s,
                );
            }
            p += 4;
        }
        while p < k {
            acc[0] = _mm_fmadd_ps(
                _mm_set1_ps(a[p * m + i]),
                _mm_loadu_ps(bp.add(p * n + jb)),
                acc[0],
            );
            p += 1;
        }
        let v = _mm_add_ps(_mm_add_ps(acc[0], acc[1]), _mm_add_ps(acc[2], acc[3]));
        _mm_storeu_ps(orow.as_mut_ptr().add(jb), v);
    }

    /// AVX2 [`super::gemm_tn_over`]: j-tiled, p-ascending FMA chains.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA and the slice extents asserted by the caller.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemm_tn_over(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        k: usize,
        m: usize,
        n: usize,
    ) {
        let mut jb = 0;
        while jb < n {
            let jw = NR.min(n - jb);
            let nv = jw / 8;
            let jtail = jb + nv * 8;
            for i in 0..m {
                let orow = &mut out[i * n..(i + 1) * n];
                match nv {
                    8 => tn_tile::<8>(a, b, orow, i, jb, k, m, n),
                    7 => tn_tile::<7>(a, b, orow, i, jb, k, m, n),
                    6 => tn_tile::<6>(a, b, orow, i, jb, k, m, n),
                    5 => tn_tile::<5>(a, b, orow, i, jb, k, m, n),
                    4 => tn_tile::<4>(a, b, orow, i, jb, k, m, n),
                    3 => tn_tile::<3>(a, b, orow, i, jb, k, m, n),
                    2 => tn_tile::<2>(a, b, orow, i, jb, k, m, n),
                    1 => tn_tile::<1>(a, b, orow, i, jb, k, m, n),
                    _ => {}
                }
                let mut j = jtail;
                while j + 4 <= jb + jw {
                    tn_tile4(a, b, orow, i, j, k, m, n);
                    j += 4;
                }
                while j < jb + jw {
                    // scalar leftover: four p-strided FMA chains folded
                    let mut s = [0.0f32; 4];
                    let mut p = 0;
                    while p + 4 <= k {
                        for (t, st) in s.iter_mut().enumerate() {
                            *st = a[(p + t) * m + i].mul_add(b[(p + t) * n + j], *st);
                        }
                        p += 4;
                    }
                    while p < k {
                        s[0] = a[p * m + i].mul_add(b[p * n + j], s[0]);
                        p += 1;
                    }
                    orow[j] = (s[0] + s[1]) + (s[2] + s[3]);
                    j += 1;
                }
            }
            jb += jw;
        }
    }

    /// AVX2 [`super::affine_act`]: one FMA per element plus a
    /// branchless activation select.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn affine_act(seg: &mut [f32], scale: f32, shift: f32, act: Act) {
        let vs = _mm256_set1_ps(scale);
        let vh = _mm256_set1_ps(shift);
        let zero = _mm256_setzero_ps();
        let len = seg.len();
        let lv = len / 8 * 8;
        let p = seg.as_mut_ptr();
        match act {
            Act::None => {
                let mut idx = 0;
                while idx < lv {
                    let t = _mm256_fmadd_ps(_mm256_loadu_ps(p.add(idx)), vs, vh);
                    _mm256_storeu_ps(p.add(idx), t);
                    idx += 8;
                }
                for v in &mut seg[lv..] {
                    *v = v.mul_add(scale, shift);
                }
            }
            Act::Leaky(alpha) => {
                let va = _mm256_set1_ps(alpha);
                let mut idx = 0;
                while idx < lv {
                    let t = _mm256_fmadd_ps(_mm256_loadu_ps(p.add(idx)), vs, vh);
                    let pos = _mm256_cmp_ps::<_CMP_GT_OQ>(t, zero);
                    let r = _mm256_blendv_ps(_mm256_mul_ps(t, va), t, pos);
                    _mm256_storeu_ps(p.add(idx), r);
                    idx += 8;
                }
                for v in &mut seg[lv..] {
                    let t = v.mul_add(scale, shift);
                    *v = if t > 0.0 { t } else { alpha * t };
                }
            }
            Act::Relu => {
                let mut idx = 0;
                while idx < lv {
                    let t = _mm256_fmadd_ps(_mm256_loadu_ps(p.add(idx)), vs, vh);
                    _mm256_storeu_ps(p.add(idx), _mm256_max_ps(t, zero));
                    idx += 8;
                }
                for v in &mut seg[lv..] {
                    *v = v.mul_add(scale, shift).max(0.0);
                }
            }
        }
    }

    /// AVX2 [`super::max_pool2x2`]: vertical 8-lane maxima of the two
    /// input rows, then an in-register pairwise horizontal max — eight
    /// outputs per iteration. `max` is exact, so the result is bitwise
    /// identical to the scalar loop on non-NaN data.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA and the shape contract of the safe wrapper
    /// (`xs` holds `c·h·w` elements, `out` holds `c·(h/2)·(w/2)`, even
    /// `h` and `w`).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn max_pool2x2(xs: &[f32], out: &mut [f32], c: usize, h: usize, w: usize) {
        let (ho, wo) = (h / 2, w / 2);
        let (hw, howo) = (h * w, ho * wo);
        // lane order after the shuffle pair: [p0 p1 q0 q1 | p2 p3 q2 q3]
        let fix = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
        for ch in 0..c {
            let plane = &xs[ch * hw..(ch + 1) * hw];
            let oplane = &mut out[ch * howo..(ch + 1) * howo];
            for oh in 0..ho {
                let r0 = plane.as_ptr().add(2 * oh * w);
                let r1 = plane.as_ptr().add((2 * oh + 1) * w);
                let orow = oplane.as_mut_ptr().add(oh * wo);
                let mut ow = 0;
                while ow + 8 <= wo {
                    let j = 2 * ow;
                    let v0 = _mm256_max_ps(_mm256_loadu_ps(r0.add(j)), _mm256_loadu_ps(r1.add(j)));
                    let v1 = _mm256_max_ps(
                        _mm256_loadu_ps(r0.add(j + 8)),
                        _mm256_loadu_ps(r1.add(j + 8)),
                    );
                    let even = _mm256_shuffle_ps::<0b10_00_10_00>(v0, v1);
                    let odd = _mm256_shuffle_ps::<0b11_01_11_01>(v0, v1);
                    let m = _mm256_max_ps(even, odd);
                    _mm256_storeu_ps(orow.add(ow), _mm256_permutevar8x32_ps(m, fix));
                    ow += 8;
                }
                while ow < wo {
                    let j = 2 * ow;
                    let a = (*r0.add(j)).max(*r0.add(j + 1));
                    let b = (*r1.add(j)).max(*r1.add(j + 1));
                    *orow.add(ow) = a.max(b);
                    ow += 1;
                }
            }
        }
    }

    /// AVX2 [`super::act_inplace`].
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn act_inplace(seg: &mut [f32], act: Act) {
        let zero = _mm256_setzero_ps();
        let len = seg.len();
        let lv = len / 8 * 8;
        let p = seg.as_mut_ptr();
        match act {
            Act::None => {}
            Act::Leaky(alpha) => {
                let va = _mm256_set1_ps(alpha);
                let mut idx = 0;
                while idx < lv {
                    let t = _mm256_loadu_ps(p.add(idx));
                    let pos = _mm256_cmp_ps::<_CMP_GT_OQ>(t, zero);
                    let r = _mm256_blendv_ps(_mm256_mul_ps(t, va), t, pos);
                    _mm256_storeu_ps(p.add(idx), r);
                    idx += 8;
                }
                for v in &mut seg[lv..] {
                    let t = *v;
                    *v = if t > 0.0 { t } else { alpha * t };
                }
            }
            Act::Relu => {
                let mut idx = 0;
                while idx < lv {
                    let t = _mm256_loadu_ps(p.add(idx));
                    _mm256_storeu_ps(p.add(idx), _mm256_max_ps(t, zero));
                    idx += 8;
                }
                for v in &mut seg[lv..] {
                    *v = v.max(0.0);
                }
            }
        }
    }

    /// AVX2 [`super::sparse_gather`]: eight rows per iteration when the
    /// run is uniform — eight 4-entry rows (the bilinear interior, one
    /// strided gather per entry slot, `add(mul)` never FMA) or eight
    /// empty rows (one zero store). Anything irregular falls to the
    /// scalar row loop, so every row's add chain matches the portable
    /// kernel exactly.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA and the CSR contract of the safe wrapper:
    /// `offsets` monotone with `out.len() + 1` elements ending at
    /// `srcs.len() == weights.len()`, and every `srcs[i]` in bounds of
    /// `src`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sparse_gather(
        offsets: &[u32],
        srcs: &[u32],
        weights: &[f32],
        src: &[f32],
        out: &mut [f32],
    ) {
        let n = out.len();
        let op = out.as_mut_ptr();
        let sp = src.as_ptr();
        let wp = weights.as_ptr();
        let ip = srcs.as_ptr() as *const i32;
        // Entry i of row r + k sits at offsets[r] + 4k + j for slot j
        // when the run is uniform; one element-stride gather per slot.
        let stride4 = _mm256_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28);
        let mut r = 0usize;
        while r < n {
            let base = *offsets.get_unchecked(r) as usize;
            if r + 8 <= n {
                let end = *offsets.get_unchecked(r + 8) as usize;
                if end == base {
                    // Eight rows outside the warp footprint: exact +0.0,
                    // same as the scalar empty accumulation.
                    _mm256_storeu_ps(op.add(r), _mm256_setzero_ps());
                    r += 8;
                    continue;
                }
                let uniform4 = end - base == 32
                    && (1..8).all(|t| *offsets.get_unchecked(r + t) as usize == base + 4 * t);
                if uniform4 {
                    let mut acc = _mm256_setzero_ps();
                    for j in 0..4 {
                        let w = _mm256_i32gather_ps::<4>(wp.add(base + j), stride4);
                        let idx = _mm256_i32gather_epi32::<4>(ip.add(base + j), stride4);
                        let s = _mm256_i32gather_ps::<4>(sp, idx);
                        // First slot lands as 0.0 + w·s, mirroring the
                        // scalar chain's first add (−0.0 weights stay
                        // bit-exact).
                        acc = _mm256_add_ps(acc, _mm256_mul_ps(w, s));
                    }
                    _mm256_storeu_ps(op.add(r), acc);
                    r += 8;
                    continue;
                }
            }
            let hi = *offsets.get_unchecked(r + 1) as usize;
            let mut acc = 0.0f32;
            for i in base..hi {
                acc += *wp.add(i) * *sp.add(*ip.add(i) as u32 as usize);
            }
            *op.add(r) = acc;
            r += 1;
        }
    }

    /// AVX2 [`super::add_scaled_clamp`]: `add(mul)` (no FMA) and a
    /// compare+select clamp — `x < 0 → 0`, `x > 1 → 1`, else `x` — the
    /// branch structure of `f32::clamp`, keeping `-0.0` and NaN results
    /// bit-exact with the scalar loop.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA and `seg.len() == noise.len()` (asserted by the
    /// safe wrapper).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn add_scaled_clamp(seg: &mut [f32], noise: &[f32], scale: f32) {
        let len = seg.len();
        let lv = len / 8 * 8;
        let p = seg.as_mut_ptr();
        let q = noise.as_ptr();
        let vs = _mm256_set1_ps(scale);
        let zero = _mm256_setzero_ps();
        let one = _mm256_set1_ps(1.0);
        let mut idx = 0;
        while idx < lv {
            let x = _mm256_add_ps(
                _mm256_loadu_ps(p.add(idx)),
                _mm256_mul_ps(_mm256_loadu_ps(q.add(idx)), vs),
            );
            let lt = _mm256_cmp_ps::<_CMP_LT_OQ>(x, zero);
            let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(x, one);
            let r = _mm256_blendv_ps(_mm256_blendv_ps(x, zero, lt), one, gt);
            _mm256_storeu_ps(p.add(idx), r);
            idx += 8;
        }
        for i in lv..len {
            let v = p.add(i);
            *v = (*v + *q.add(i) * scale).clamp(0.0, 1.0);
        }
    }

    /// AVX2 [`super::box_blur_vertical`]: eight columns per iteration;
    /// per lane the window adds stay y-ascending from `0.0` and the
    /// division is IEEE-exact, so each output matches the scalar column
    /// walk bit for bit.
    ///
    /// # Safety
    ///
    /// Requires AVX2+FMA and `src.len() == dst.len() == h·w` (asserted
    /// by the safe wrapper).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn box_blur_vertical(
        src: &[f32],
        dst: &mut [f32],
        h: usize,
        w: usize,
        radius: usize,
    ) {
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        let wv = w / 8 * 8;
        for y in 0..h {
            let y0 = y.saturating_sub(radius);
            let y1 = (y + radius + 1).min(h);
            let inv = (y1 - y0) as f32;
            let vinv = _mm256_set1_ps(inv);
            let mut x = 0;
            while x < wv {
                let mut acc = _mm256_setzero_ps();
                for yy in y0..y1 {
                    acc = _mm256_add_ps(acc, _mm256_loadu_ps(sp.add(yy * w + x)));
                }
                _mm256_storeu_ps(dp.add(y * w + x), _mm256_div_ps(acc, vinv));
                x += 8;
            }
            while x < w {
                let mut acc = 0.0f32;
                for yy in y0..y1 {
                    acc += *sp.add(yy * w + x);
                }
                *dp.add(y * w + x) = acc / inv;
                x += 1;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod exact {
    //! Bitwise-exact AVX2 kernels for the reference tier's conv GEMMs.
    //! Every function here enables `avx2` and nothing else, so the
    //! compiler cannot contract a `mul` and an `add` into an FMA: each
    //! lane runs one output element's scalar chain, and the register
    //! blocks only decide how many chains run side by side. Callers must
    //! have verified AVX2 at runtime (see [`super::backend`]).

    use std::arch::x86_64::*;

    /// Strided left operand: element `(i, p)` sits at `ptr[i·rs + p·ps]`.
    #[derive(Clone, Copy)]
    struct Lhs {
        ptr: *const f32,
        rs: usize,
        ps: usize,
    }

    impl Lhs {
        /// # Safety
        ///
        /// `(i, p)` must lie inside the operand the caller bounded.
        #[inline(always)]
        unsafe fn at(self, i: usize, p: usize) -> f32 {
            *self.ptr.add(i * self.rs + p * self.ps)
        }
    }

    /// Output geometry shared by the tiles: `b` is `[k, n]`, `out` is
    /// `[m, n]`, both row-major.
    #[derive(Clone, Copy)]
    struct Dims {
        b: *const f32,
        out: *mut f32,
        k: usize,
        n: usize,
    }

    /// Whether any of `xs` equals `0.0` (either sign).
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn has_zero(xs: &[f32]) -> bool {
        let zero = _mm256_setzero_ps();
        let mut any = [_mm256_setzero_ps(); 4];
        let mut chunks = xs.chunks_exact(32);
        for c in &mut chunks {
            for (t, z) in any.iter_mut().enumerate() {
                let v = _mm256_loadu_ps(c.as_ptr().add(t * 8));
                *z = _mm256_or_ps(*z, _mm256_cmp_ps::<_CMP_EQ_OQ>(v, zero));
            }
        }
        let any = _mm256_or_ps(_mm256_or_ps(any[0], any[1]), _mm256_or_ps(any[2], any[3]));
        _mm256_movemask_ps(any) != 0 || chunks.remainder().contains(&0.0)
    }

    /// One `R`-row × `8·V`-column block of `out = lhs × b` at `(i0, j0)`.
    /// `TN` writes the first term as `a·b` (grad-input mode) instead of
    /// adding it to `+0.0`; `SKIP` tests each `a` against `0.0`.
    ///
    /// # Safety
    ///
    /// Requires AVX2, rows `i0..i0 + R` of `lhs`, and columns
    /// `j0..j0 + 8·V` of `b` and `out` in bounds.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn tile<const R: usize, const V: usize, const TN: bool, const SKIP: bool>(
        lhs: Lhs,
        d: Dims,
        i0: usize,
        j0: usize,
    ) {
        let bj = d.b.add(j0);
        let mut acc = [[_mm256_setzero_ps(); V]; R];
        if TN {
            for (r, row) in acc.iter_mut().enumerate() {
                let av = lhs.at(i0 + r, 0);
                if !SKIP || av != 0.0 {
                    let va = _mm256_set1_ps(av);
                    for (v, s) in row.iter_mut().enumerate() {
                        *s = _mm256_mul_ps(va, _mm256_loadu_ps(bj.add(v * 8)));
                    }
                }
            }
        }
        for p in usize::from(TN)..d.k {
            let bp = bj.add(p * d.n);
            let mut bv = [_mm256_setzero_ps(); V];
            for (v, x) in bv.iter_mut().enumerate() {
                *x = _mm256_loadu_ps(bp.add(v * 8));
            }
            for (r, row) in acc.iter_mut().enumerate() {
                let av = lhs.at(i0 + r, p);
                if SKIP && av == 0.0 {
                    continue;
                }
                let va = _mm256_set1_ps(av);
                for (s, &x) in row.iter_mut().zip(&bv) {
                    *s = _mm256_add_ps(*s, _mm256_mul_ps(va, x));
                }
            }
        }
        let o = d.out.add(i0 * d.n + j0);
        for (r, row) in acc.iter().enumerate() {
            for (v, s) in row.iter().enumerate() {
                _mm256_storeu_ps(o.add(r * d.n + v * 8), *s);
            }
        }
    }

    /// [`tile`] over four columns in SSE registers.
    ///
    /// # Safety
    ///
    /// Requires AVX2, rows `i0..i0 + R` of `lhs`, and columns
    /// `j0..j0 + 4` of `b` and `out` in bounds.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn tile4<const R: usize, const TN: bool, const SKIP: bool>(
        lhs: Lhs,
        d: Dims,
        i0: usize,
        j0: usize,
    ) {
        let bj = d.b.add(j0);
        let mut acc = [_mm_setzero_ps(); R];
        if TN {
            for (r, s) in acc.iter_mut().enumerate() {
                let av = lhs.at(i0 + r, 0);
                if !SKIP || av != 0.0 {
                    *s = _mm_mul_ps(_mm_set1_ps(av), _mm_loadu_ps(bj));
                }
            }
        }
        for p in usize::from(TN)..d.k {
            let x = _mm_loadu_ps(bj.add(p * d.n));
            for (r, s) in acc.iter_mut().enumerate() {
                let av = lhs.at(i0 + r, p);
                if SKIP && av == 0.0 {
                    continue;
                }
                *s = _mm_add_ps(*s, _mm_mul_ps(_mm_set1_ps(av), x));
            }
        }
        let o = d.out.add(i0 * d.n + j0);
        for (r, s) in acc.iter().enumerate() {
            _mm_storeu_ps(o.add(r * d.n), *s);
        }
    }

    /// Column block `j0` of every row: `R`-row [`tile`]s, then 4-, 2-
    /// and 1-row tiles for the rows left over.
    ///
    /// # Safety
    ///
    /// As for [`tile`], over rows `0..m`.
    #[target_feature(enable = "avx2")]
    unsafe fn rows<const R: usize, const V: usize, const TN: bool, const SKIP: bool>(
        lhs: Lhs,
        d: Dims,
        m: usize,
        j0: usize,
    ) {
        let mut i = 0;
        while i + R <= m {
            tile::<R, V, TN, SKIP>(lhs, d, i, j0);
            i += R;
        }
        // fewer than `R ≤ 8` rows left: 4 + 2 + 1 covers any count
        if i + 4 <= m {
            tile::<4, V, TN, SKIP>(lhs, d, i, j0);
            i += 4;
        }
        if i + 2 <= m {
            tile::<2, V, TN, SKIP>(lhs, d, i, j0);
            i += 2;
        }
        if i < m {
            tile::<1, V, TN, SKIP>(lhs, d, i, j0);
        }
    }

    /// [`rows`] for the 4-column SSE tile.
    ///
    /// # Safety
    ///
    /// As for [`tile4`], over rows `0..m`.
    #[target_feature(enable = "avx2")]
    unsafe fn rows4<const TN: bool, const SKIP: bool>(lhs: Lhs, d: Dims, m: usize, j0: usize) {
        let mut i = 0;
        while i + 8 <= m {
            tile4::<8, TN, SKIP>(lhs, d, i, j0);
            i += 8;
        }
        if i + 4 <= m {
            tile4::<4, TN, SKIP>(lhs, d, i, j0);
            i += 4;
        }
        if i + 2 <= m {
            tile4::<2, TN, SKIP>(lhs, d, i, j0);
            i += 2;
        }
        if i < m {
            tile4::<1, TN, SKIP>(lhs, d, i, j0);
        }
    }

    /// Every column of `out = lhs × b`: 32-, 16- and 8-column AVX tiles,
    /// a 4-column SSE tile, then scalar columns.
    ///
    /// # Safety
    ///
    /// Requires AVX2, `k ≥ 1`, and `lhs`, `b`, `out` in bounds for
    /// `m × k × n`.
    #[target_feature(enable = "avx2")]
    unsafe fn columns<const TN: bool, const SKIP: bool>(lhs: Lhs, d: Dims, m: usize) {
        let mut j = 0;
        while j + 32 <= d.n {
            rows::<2, 4, TN, SKIP>(lhs, d, m, j);
            j += 32;
        }
        if j + 16 <= d.n {
            rows::<4, 2, TN, SKIP>(lhs, d, m, j);
            j += 16;
        }
        if j + 8 <= d.n {
            rows::<8, 1, TN, SKIP>(lhs, d, m, j);
            j += 8;
        }
        if j + 4 <= d.n {
            rows4::<TN, SKIP>(lhs, d, m, j);
            j += 4;
        }
        // scalar columns, eight independent row chains at a time
        for jj in j..d.n {
            for i0 in (0..m).step_by(8) {
                let mut s = [0.0f32; 8];
                let s = &mut s[..(m - i0).min(8)];
                for p in 0..d.k {
                    let bv = *d.b.add(p * d.n + jj);
                    for (r, st) in s.iter_mut().enumerate() {
                        let av = lhs.at(i0 + r, p);
                        if av == 0.0 {
                            continue;
                        }
                        let t = av * bv;
                        *st = if TN && p == 0 { t } else { *st + t };
                    }
                }
                for (r, &st) in s.iter().enumerate() {
                    *d.out.add((i0 + r) * d.n + jj) = st;
                }
            }
        }
    }

    /// Forward (`TN = false`, `lhs(i, p) = a[i·rs + p·ps]`) or
    /// grad-input (`TN = true`) GEMM over the whole output. The tiles
    /// test each `a` against `0.0` only when `a` holds a zero at all,
    /// which trained weights practically never do.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `a` must hold every `(i, p)` with `i < m`,
    /// `p < k`, `b` must hold `k·n` and `out` `m·n` elements.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn gemm<const TN: bool>(
        a: &[f32],
        rs: usize,
        ps: usize,
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        if k == 0 {
            out[..m * n].fill(0.0);
            return;
        }
        let lhs = Lhs {
            ptr: a.as_ptr(),
            rs,
            ps,
        };
        let d = Dims {
            b: b.as_ptr(),
            out: out.as_mut_ptr(),
            k,
            n,
        };
        let skip = has_zero(&a[..m * k]);
        if skip {
            columns::<TN, true>(lhs, d, m);
        } else {
            columns::<TN, false>(lhs, d, m);
        }
    }

    /// In-register 8×8 transpose: lane `l` of `v[c]` becomes lane `c`
    /// of `v[l]`.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn transpose8(v: &mut [__m256; 8]) {
        let t0 = _mm256_unpacklo_ps(v[0], v[1]);
        let t1 = _mm256_unpackhi_ps(v[0], v[1]);
        let t2 = _mm256_unpacklo_ps(v[2], v[3]);
        let t3 = _mm256_unpackhi_ps(v[2], v[3]);
        let t4 = _mm256_unpacklo_ps(v[4], v[5]);
        let t5 = _mm256_unpackhi_ps(v[4], v[5]);
        let t6 = _mm256_unpacklo_ps(v[6], v[7]);
        let t7 = _mm256_unpackhi_ps(v[6], v[7]);
        let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let s1 = _mm256_shuffle_ps::<0xee>(t0, t2);
        let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let s3 = _mm256_shuffle_ps::<0xee>(t1, t3);
        let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let s5 = _mm256_shuffle_ps::<0xee>(t4, t6);
        let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let s7 = _mm256_shuffle_ps::<0xee>(t5, t7);
        v[0] = _mm256_permute2f128_ps::<0x20>(s0, s4);
        v[1] = _mm256_permute2f128_ps::<0x20>(s1, s5);
        v[2] = _mm256_permute2f128_ps::<0x20>(s2, s6);
        v[3] = _mm256_permute2f128_ps::<0x20>(s3, s7);
        v[4] = _mm256_permute2f128_ps::<0x31>(s0, s4);
        v[5] = _mm256_permute2f128_ps::<0x31>(s1, s5);
        v[6] = _mm256_permute2f128_ps::<0x31>(s2, s6);
        v[7] = _mm256_permute2f128_ps::<0x31>(s3, s7);
    }

    /// Eight rows (the lanes) × `C` columns of `a·bᵀ` at `(i0, j0)`,
    /// each lane a k-ascending `mul`-then-`add` chain from `+0.0`, then
    /// added into `out`. Rows past `m` are padding and never stored.
    ///
    /// # Safety
    ///
    /// Requires AVX2, `at[t·m8 + i0 + 7]` in bounds for every `t < k`,
    /// rows `j0..j0 + C` of `b` in bounds, and `out` holding `m·n`.
    #[target_feature(enable = "avx2")]
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn nt_tile<const C: usize>(
        at: *const f32,
        m8: usize,
        b: *const f32,
        out: *mut f32,
        i0: usize,
        j0: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        let bj = b.add(j0 * k);
        let mut acc = [_mm256_setzero_ps(); C];
        for t in 0..k {
            let va = _mm256_loadu_ps(at.add(t * m8 + i0));
            for (c, s) in acc.iter_mut().enumerate() {
                let vb = _mm256_set1_ps(*bj.add(c * k + t));
                *s = _mm256_add_ps(*s, _mm256_mul_ps(va, vb));
            }
        }
        let o = out.add(i0 * n + j0);
        if C == 8 && i0 + 8 <= m {
            let mut v = [_mm256_setzero_ps(); 8];
            v.copy_from_slice(&acc[..8]);
            transpose8(&mut v);
            for (r, x) in v.iter().enumerate() {
                let p = o.add(r * n);
                _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), *x));
            }
        } else {
            let mut lanes = [[0.0f32; 8]; C];
            for (l, s) in lanes.iter_mut().zip(&acc) {
                _mm256_storeu_ps(l.as_mut_ptr(), *s);
            }
            for r in 0..(m - i0).min(8) {
                for (c, l) in lanes.iter().enumerate() {
                    *o.add(r * n + c) += l[r];
                }
            }
        }
    }

    /// `out[m,n] += a·bᵀ` from `at`, the transposed `a` padded to `m8`
    /// rows: eight-row blocks × eight-column tiles, then a narrower
    /// tile for the last `n mod 8` columns.
    ///
    /// # Safety
    ///
    /// Requires AVX2, `at` holding `k·m8` elements with `m8` the
    /// multiple of 8 at or above `m`, `b` holding `n·k` and `out` `m·n`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_nt(
        at: &[f32],
        m8: usize,
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let (at, bp, op) = (at.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        for i0 in (0..m).step_by(8) {
            let mut j = 0;
            while j + 8 <= n {
                nt_tile::<8>(at, m8, bp, op, i0, j, m, k, n);
                j += 8;
            }
            match n - j {
                1 => nt_tile::<1>(at, m8, bp, op, i0, j, m, k, n),
                2 => nt_tile::<2>(at, m8, bp, op, i0, j, m, k, n),
                3 => nt_tile::<3>(at, m8, bp, op, i0, j, m, k, n),
                4 => nt_tile::<4>(at, m8, bp, op, i0, j, m, k, n),
                5 => nt_tile::<5>(at, m8, bp, op, i0, j, m, k, n),
                6 => nt_tile::<6>(at, m8, bp, op, i0, j, m, k, n),
                7 => nt_tile::<7>(at, m8, bp, op, i0, j, m, k, n),
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `γ(k) = k·u/(1−k·u)` with `u = 2⁻²⁴` — the reduction model the
    /// certifier uses; the per-element divergence bound for one GEMM
    /// under the `f32x8-fma` model is `2·γ(k)·Σ|aᵢ·bᵢ|`.
    fn gamma(k: usize) -> f64 {
        let ku = k as f64 * 5.960_464_477_539_063e-8;
        ku / (1.0 - ku)
    }

    fn randv(rng: &mut StdRng, n: usize, zeros: bool) -> Vec<f32> {
        (0..n)
            .map(|i| {
                if zeros && i % 7 == 0 {
                    0.0
                } else {
                    rng.gen_range(-2.0f32..2.0)
                }
            })
            .collect()
    }

    /// Asserts `got` within the certified per-element bound of `want`
    /// for a k-term reduction over rows of `a` and columns of `b`.
    fn assert_within_cert(
        got: &[f32],
        want: &[f32],
        bound_l1: impl Fn(usize) -> f64,
        k: usize,
        tag: &str,
    ) {
        let g = gamma(k + 2);
        for (e, (&x, &y)) in got.iter().zip(want).enumerate() {
            let bound = 2.0 * g * bound_l1(e) + 1e-30;
            let diff = (x as f64 - y as f64).abs();
            assert!(
                diff <= bound,
                "{tag}: element {e} diverged {diff:.3e} > certified {bound:.3e}"
            );
        }
    }

    /// Throughput probe at the smoke detector's twelve conv shapes
    /// `(out channels, C·kh·kw, Ho·Wo)`: GF/s of the scalar body, the
    /// exact kernel and the fast-tier kernel for the forward, grad-weight
    /// and grad-input GEMMs. Ignored in normal runs:
    /// `cargo test --release -p rd-tensor simd::tests::micro -- --ignored
    /// --nocapture`
    #[test]
    #[ignore]
    fn micro() {
        use std::time::Instant;
        type Gemm = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
        let shapes = [
            ("c1", 8usize, 27usize, 4096usize),
            ("c2", 16, 72, 1024),
            ("c3", 32, 144, 256),
            ("c4", 64, 288, 64),
            ("c5", 96, 576, 16),
            ("c6", 128, 864, 4),
            ("c7", 64, 128, 4),
            ("h1pre", 128, 576, 4),
            ("h1", 30, 128, 4),
            ("route", 32, 64, 4),
            ("h2pre", 128, 1152, 16),
            ("h2", 30, 128, 16),
        ];
        let kernels: [(&str, [Gemm; 3]); 3] = [
            ("fwd", [conv::conv_gemm_scalar, exact_gemm, gemm]),
            ("nt", [conv::gemm_nt_scalar, exact_gemm_nt, gemm_nt_acc]),
            (
                "tn",
                [conv::gemm_tn_over_scalar, exact_gemm_tn_over, gemm_tn_over],
            ),
        ];
        let mut rng = StdRng::seed_from_u64(7);
        println!("backend {}", backend().label());
        for (name, o, ckk, howo) in shapes {
            let w: Vec<f32> = (0..o * ckk).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let cols: Vec<f32> = (0..ckk * howo).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let g: Vec<f32> = (0..o * howo).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let reps = (200_000_000 / (o * ckk * howo)).max(8);
            let flop = 2.0 * (o * ckk * howo * reps) as f64;
            for (kind, fns) in kernels {
                // (a, b, out len, the three extents) as each kernel takes them
                let (a, b, len, dims) = match kind {
                    "fwd" => (&w, &cols, o * howo, (o, ckk, howo)),
                    "nt" => (&g, &cols, o * ckk, (o, howo, ckk)),
                    _ => (&w, &g, ckk * howo, (o, ckk, howo)),
                };
                let mut out = vec![0.0f32; len];
                let gfs = fns.map(|f| {
                    f(a, b, &mut out, dims.0, dims.1, dims.2);
                    let t0 = Instant::now();
                    for _ in 0..reps {
                        f(a, b, &mut out, dims.0, dims.1, dims.2);
                    }
                    std::hint::black_box(&out);
                    flop / t0.elapsed().as_secs_f64() / 1e9
                });
                println!(
                    "{name:>5} {kind:>3} m={:4} k={:5} n={:5}: scalar {:6.2}  exact {:6.2}  \
                     fast {:6.2} GF/s  (exact {:.2}x scalar, {:.2}x fast)",
                    dims.0,
                    dims.1,
                    dims.2,
                    gfs[0],
                    gfs[1],
                    gfs[2],
                    gfs[1] / gfs[0],
                    gfs[1] / gfs[2]
                );
            }
        }
    }

    #[test]
    fn dispatch_prefers_avx2_only_when_host_has_it() {
        // Simulated "feature absent" (RD_NO_SIMD) must always fall back.
        assert_eq!(Backend::select(true), Backend::Portable);
        // With SIMD allowed, the choice must agree with the host CPU.
        #[cfg(target_arch = "x86_64")]
        {
            let host = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
            let want = if host {
                Backend::Avx2Fma
            } else {
                Backend::Portable
            };
            assert_eq!(Backend::select(false), want);
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(Backend::select(false), Backend::Portable);
    }

    #[test]
    fn portable_epilogues_are_bitwise_identical_to_reference() {
        let mut rng = StdRng::seed_from_u64(32);
        let x = randv(&mut rng, 37, false);
        for act in [Act::None, Act::Leaky(0.1), Act::Relu] {
            let mut want = x.clone();
            for v in &mut want {
                let t = *v * 1.3 + -0.2;
                *v = match act {
                    Act::None => t,
                    Act::Leaky(a) => {
                        if t > 0.0 {
                            t
                        } else {
                            a * t
                        }
                    }
                    Act::Relu => t.max(0.0),
                };
            }
            let mut got = x.clone();
            portable::affine_act(&mut got, 1.3, -0.2, act);
            assert_eq!(got, want, "{act:?}");
        }
    }

    /// Random CSR shaped like real bilinear maps: runs of 4-entry rows,
    /// runs of empty rows, and irregular rows that force the scalar
    /// fallback inside the AVX2 kernel.
    fn random_csr(rng: &mut StdRng, out_n: usize, in_n: usize) -> (Vec<u32>, Vec<u32>, Vec<f32>) {
        let mut offsets = Vec::with_capacity(out_n + 1);
        let (mut srcs, mut weights) = (Vec::new(), Vec::new());
        let mut r = 0usize;
        while r < out_n {
            let run = rng.gen_range(1usize..=12).min(out_n - r);
            let per_row = match rng.gen_range(0..10) {
                0..=3 => 4usize,
                4..=6 => 0,
                other => other - 5, // 2, 3 or 4 entries
            };
            for _ in 0..run {
                offsets.push(srcs.len() as u32);
                for _ in 0..per_row {
                    srcs.push(rng.gen_range(0..in_n as u32));
                    // Mix in exact and negative zeros so the first-add
                    // sign behaviour is exercised.
                    weights.push(match rng.gen_range(0..12) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.gen_range(-1.5f32..1.5),
                    });
                }
            }
            r += run;
        }
        offsets.push(srcs.len() as u32);
        (offsets, srcs, weights)
    }

    #[test]
    fn sparse_gather_bitwise_matches_scatter_on_both_backends() {
        let mut rng = StdRng::seed_from_u64(91);
        for _ in 0..40 {
            let out_n = rng.gen_range(1..200);
            let in_n = rng.gen_range(1..150);
            let (offsets, srcs, weights) = random_csr(&mut rng, out_n, in_n);
            let src = randv(&mut rng, in_n, false);
            let mut want = vec![0.0f32; out_n];
            for r in 0..out_n {
                for i in offsets[r] as usize..offsets[r + 1] as usize {
                    want[r] += weights[i] * src[srcs[i] as usize];
                }
            }
            for dispatched in [false, true] {
                let mut got = vec![f32::NAN; out_n];
                if dispatched {
                    sparse_gather(&offsets, &srcs, &weights, &src, &mut got);
                } else {
                    portable::sparse_gather(&offsets, &srcs, &weights, &src, &mut got);
                }
                assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "out_n={out_n} dispatched={dispatched} ({})",
                    backend().label()
                );
            }
        }
    }

    #[test]
    fn add_scaled_clamp_bitwise_matches_scalar_on_both_backends() {
        let mut rng = StdRng::seed_from_u64(92);
        for len in [0usize, 1, 7, 8, 9, 33, 1000] {
            let x: Vec<f32> = (0..len).map(|_| rng.gen_range(-0.5f32..1.5)).collect();
            let noise: Vec<f32> = (0..len)
                .map(|_| match rng.gen_range(0..10) {
                    0 => -0.0,
                    1 => 0.0,
                    _ => rng.gen_range(-2.0f32..2.0),
                })
                .collect();
            for scale in [0.07f32, -0.3, 0.0] {
                let mut want = x.clone();
                for (v, &nz) in want.iter_mut().zip(&noise) {
                    *v = (*v + nz * scale).clamp(0.0, 1.0);
                }
                for dispatched in [false, true] {
                    let mut got = x.clone();
                    if dispatched {
                        add_scaled_clamp(&mut got, &noise, scale);
                    } else {
                        portable::add_scaled_clamp(&mut got, &noise, scale);
                    }
                    assert_eq!(
                        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "len={len} scale={scale} dispatched={dispatched}"
                    );
                }
            }
        }
    }

    #[test]
    fn box_blur_vertical_bitwise_matches_scalar_on_both_backends() {
        let mut rng = StdRng::seed_from_u64(93);
        for (h, w) in [(1usize, 1usize), (5, 3), (8, 8), (13, 17), (64, 64)] {
            let src = randv(&mut rng, h * w, false);
            for radius in [0usize, 1, 2, 7] {
                let mut want = vec![f32::NAN; h * w];
                for x in 0..w {
                    for y in 0..h {
                        let y0 = y.saturating_sub(radius);
                        let y1 = (y + radius + 1).min(h);
                        let mut acc = 0.0f32;
                        for yy in y0..y1 {
                            acc += src[yy * w + x];
                        }
                        want[y * w + x] = acc / (y1 - y0) as f32;
                    }
                }
                for dispatched in [false, true] {
                    let mut got = vec![f32::NAN; h * w];
                    if dispatched {
                        box_blur_vertical(&src, &mut got, h, w, radius);
                    } else {
                        portable::box_blur_vertical(&src, &mut got, h, w, radius);
                    }
                    assert_eq!(
                        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "h={h} w={w} radius={radius} dispatched={dispatched}"
                    );
                }
            }
        }
    }

    /// Asserts `got` and `want` equal bit for bit, naming the first
    /// element that differs.
    fn assert_same_bits(got: &[f32], want: &[f32], tag: &str) {
        assert_eq!(got.len(), want.len(), "{tag}");
        if let Some(e) = (0..got.len()).find(|&e| got[e].to_bits() != want[e].to_bits()) {
            let (g, w) = (got[e], want[e]);
            panic!(
                "{tag}: element {e} is {g:e} ({:#010x}), scalar body gives {w:e} ({:#010x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// Uniforms in `[-2, 2)`, with exact `0.0` and `-0.0` mixed in when
    /// `zeros`.
    fn with_zeros(rng: &mut StdRng, len: usize, zeros: bool) -> Vec<f32> {
        (0..len)
            .map(|_| match rng.gen_range(0..12) {
                0 if zeros => 0.0,
                1 if zeros => -0.0,
                _ => rng.gen_range(-2.0f32..2.0),
            })
            .collect()
    }

    /// NaN, ±inf or a finite value: what may sit behind a zero weight.
    fn poison(rng: &mut StdRng, nan: bool) -> f32 {
        match rng.gen_range(0..4) {
            0 if nan => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            _ => rng.gen_range(-2.0f32..2.0),
        }
    }

    /// The three exact GEMMs, dispatched, against their scalar bodies,
    /// bit for bit, at `(m, k, n)` in forward terms (`nt` takes the
    /// grid `n` as its dot length). With `zeros`, `a` holds signed
    /// zeros and some reduction indices are *dead*: every `a` on them
    /// is a signed zero and `b` behind them holds NaN or ±inf (±inf
    /// only for `nt`, which skips nothing, so every NaN it makes is the
    /// same default NaN). Without, no term is skipped.
    fn check_exact_gemms(rng: &mut StdRng, m: usize, k: usize, n: usize, zeros: bool) {
        let dead: Vec<bool> = (0..k).map(|_| zeros && rng.gen_range(0..6) == 0).collect();
        let tag = format!("m={m} k={k} n={n} zeros={zeros} ({})", backend().label());

        // forward: a[m,k] × b[k,n], out poisoned (overwrite mode)
        let mut a = with_zeros(rng, m * k, zeros);
        let mut b = randv(rng, k * n, false);
        for p in (0..k).filter(|&p| dead[p]) {
            (0..m).for_each(|i| a[i * k + p] = if i % 2 == 0 { 0.0 } else { -0.0 });
            (0..n).for_each(|j| b[p * n + j] = poison(rng, true));
        }
        let mut want = vec![f32::NAN; m * n];
        conv::conv_gemm_scalar(&a, &b, &mut want, m, k, n);
        let mut got = vec![f32::NAN; m * n];
        conv::conv_gemm(&a, &b, &mut got, m, k, n);
        assert_same_bits(&got, &want, &format!("conv_gemm {tag}"));

        // grad-input: a[k,m]ᵀ × b[k,n], out poisoned (overwrite mode)
        let mut a = with_zeros(rng, k * m, zeros);
        let mut b = randv(rng, k * n, false);
        for p in (0..k).filter(|&p| dead[p]) {
            (0..m).for_each(|i| a[p * m + i] = if i % 2 == 0 { -0.0 } else { 0.0 });
            (0..n).for_each(|j| b[p * n + j] = poison(rng, true));
        }
        let mut want = vec![f32::NAN; m * n];
        conv::gemm_tn_over_scalar(&a, &b, &mut want, k, m, n);
        let mut got = vec![f32::NAN; m * n];
        conv::gemm_tn_over(&a, &b, &mut got, k, m, n);
        assert_same_bits(&got, &want, &format!("gemm_tn_over {tag}"));

        // grad-weight: out[m,k] += a[m,n] × b[k,n]ᵀ, non-zero start
        let mut a = with_zeros(rng, m * n, zeros);
        let mut b = randv(rng, k * n, false);
        if dead[0] {
            (0..m).for_each(|i| a[i * n] = 0.0);
            (0..k).for_each(|j| b[j * n] = poison(rng, false));
        }
        let base = randv(rng, m * k, false);
        let mut want = base.clone();
        conv::gemm_nt_scalar(&a, &b, &mut want, m, n, k);
        let mut got = base;
        conv::gemm_nt(&a, &b, &mut got, m, n, k);
        assert_same_bits(&got, &want, &format!("gemm_nt {tag}"));
    }

    #[test]
    fn exact_gemms_bitwise_match_scalar() {
        let mut rng = StdRng::seed_from_u64(94);
        // every smoke (64²…2²) and standard (96²…3²) detector grid, with
        // row counts off every row block (30 = the heads) and on them
        for zeros in [true, false] {
            for n in [4usize, 16, 64, 256, 1024, 4096, 9, 36, 144, 576, 2304, 9216] {
                for (m, k) in [(30usize, 9usize), (8, 5), (3, 27)] {
                    check_exact_gemms(&mut rng, m, k, n, zeros);
                }
            }
            // odd widths: every tile width plus a scalar tail
            for n in [1usize, 2, 3, 5, 70, 130, 63] {
                check_exact_gemms(&mut rng, 17, 12, n, zeros);
            }
            for _ in 0..40 {
                let m = rng.gen_range(1..40);
                let k = rng.gen_range(1..70);
                let n = rng.gen_range(1..300);
                check_exact_gemms(&mut rng, m, k, n, zeros);
            }
        }
    }

    #[test]
    #[should_panic(expected = "gemm: slices shorter")]
    fn gemm_rejects_a_short_b() {
        let mut out = vec![0.0f32; 9 * 8];
        gemm(&[1.0; 9 * 4], &[1.0; 4 * 8 - 1], &mut out, 9, 4, 8);
    }

    #[test]
    #[should_panic(expected = "gemm_tn_over: slices shorter")]
    fn gemm_tn_over_rejects_a_short_b() {
        let mut out = vec![0.0f32; 9 * 8];
        gemm_tn_over(&[1.0; 4 * 9], &[1.0; 4 * 8 - 1], &mut out, 4, 9, 8);
    }

    #[test]
    #[should_panic(expected = "exact_gemm: slices shorter")]
    fn exact_gemm_rejects_a_short_b() {
        let mut out = vec![0.0f32; 9 * 8];
        exact_gemm(&[1.0; 9 * 4], &[1.0; 4 * 8 - 1], &mut out, 9, 4, 8);
    }

    #[test]
    #[should_panic(expected = "exact_gemm_tn_over: slices shorter")]
    fn exact_gemm_tn_over_rejects_a_short_b() {
        let mut out = vec![0.0f32; 9 * 8];
        exact_gemm_tn_over(&[1.0; 4 * 9], &[1.0; 4 * 8 - 1], &mut out, 4, 9, 8);
    }

    #[test]
    #[should_panic(expected = "exact_gemm_nt: slices shorter")]
    fn exact_gemm_nt_rejects_a_short_b() {
        let mut out = vec![0.0f32; 9 * 8];
        exact_gemm_nt(&[1.0; 9 * 4], &[1.0; 8 * 4 - 1], &mut out, 9, 4, 8);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Dispatched `gemm` (whatever backend this host selects) stays
        /// within the certified per-element bound of the scalar
        /// reference across random shapes.
        #[test]
        fn gemm_within_certified_bound(
            m in 1usize..9,
            k in 1usize..130,
            n in 1usize..150,
            seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = randv(&mut rng, m * k, true);
            let b = randv(&mut rng, k * n, false);
            let mut want = vec![f32::NAN; m * n];
            conv::conv_gemm(&a, &b, &mut want, m, k, n);
            let mut got = vec![f32::NAN; m * n];
            gemm(&a, &b, &mut got, m, k, n);
            assert_within_cert(&got, &want, |e| {
                let (i, j) = (e / n, e % n);
                (0..k).map(|t| (a[i * k + t] as f64 * b[t * n + j] as f64).abs()).sum()
            }, k, "gemm");
        }

        /// Dispatched `gemm_nt_acc` within the certified bound of the
        /// reference `gemm_nt` (both accumulate onto the same base).
        #[test]
        fn gemm_nt_within_certified_bound(
            m in 1usize..7,
            k in 1usize..200,
            n in 1usize..40,
            seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = randv(&mut rng, m * k, false);
            let b = randv(&mut rng, n * k, false);
            let base = randv(&mut rng, m * n, false);
            let mut want = base.clone();
            conv::gemm_nt(&a, &b, &mut want, m, k, n);
            let mut got = base;
            gemm_nt_acc(&a, &b, &mut got, m, k, n);
            assert_within_cert(&got, &want, |e| {
                let (i, j) = (e / n, e % n);
                1.0 + (0..k).map(|t| (a[i * k + t] as f64 * b[j * k + t] as f64).abs()).sum::<f64>()
            }, k, "gemm_nt_acc");
        }

        /// Dispatched `gemm_tn_over` within the certified bound of the
        /// reference overwrite-mode kernel.
        #[test]
        fn gemm_tn_within_certified_bound(
            k in 1usize..60,
            m in 1usize..9,
            n in 1usize..150,
            seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = randv(&mut rng, k * m, true);
            let b = randv(&mut rng, k * n, false);
            let mut want = vec![f32::NAN; m * n];
            conv::gemm_tn_over(&a, &b, &mut want, k, m, n);
            let mut got = vec![f32::NAN; m * n];
            gemm_tn_over(&a, &b, &mut got, k, m, n);
            assert_within_cert(&got, &want, |e| {
                let (i, j) = (e / n, e % n);
                (0..k).map(|p| (a[p * m + i] as f64 * b[p * n + j] as f64).abs()).sum()
            }, k, "gemm_tn_over");
        }

        /// Fused epilogue within a few ulps of the reference chain
        /// (the certifier widens bn stages by 8u for this fold).
        #[test]
        fn affine_act_within_epilogue_slack(
            len in 1usize..80,
            scale in -3.0f32..3.0,
            shift in -3.0f32..3.0,
            which in 0u8..3,
            seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let x = randv(&mut rng, len, false);
            let act = match which { 0 => Act::None, 1 => Act::Leaky(0.1), _ => Act::Relu };
            let mut want = x.clone();
            portable::affine_act(&mut want, scale, shift, act);
            let mut got = x.clone();
            affine_act(&mut got, scale, shift, act);
            for (e, (&g, &w)) in got.iter().zip(&want).enumerate() {
                // FMA-vs-separate divergence scales with the operand
                // magnitude |x·scale| + |shift| (the pre-activation
                // interval), exactly how the certifier widens fused
                // bn stages — not with the possibly-cancelled result.
                let mag = (x[e] as f64 * scale as f64).abs() + shift.abs() as f64;
                let slack = 8.0 * 5.960_464_477_539_063e-8 * mag + 1e-40;
                prop_assert!(
                    ((g as f64) - (w as f64)).abs() <= slack,
                    "element {e}: {g} vs {w}"
                );
            }
        }
    }
}
