//! AVX2 kernels for the tape, the compiled plans and the capture
//! channel.
//!
//! This is the one module in the workspace allowed to contain `unsafe`
//! (the workspace-wide lint is `unsafe_code = "deny"`): the AVX2
//! kernels below use `std::arch` intrinsics behind a runtime feature
//! check. Every other crate keeps the deny.
//!
//! # Contract
//!
//! Every kernel here is exact. `exact_gemm`, `exact_gemm_nt` and
//! `exact_gemm_tn_over` (every GEMM in the workspace: the conv forward
//! and backward of the tape and both compiled plans, and the linear
//! layers behind [`crate::Tensor::matmul`] and [`crate::InferPlan`]),
//! `sparse_gather` (behind [`crate::LinearMap`]),
//! [`add_scaled_clamp`] and [`box_blur_vertical`] run, per output
//! element, the scalar loop's own sequence of separate `mul`s and
//! `add`s: never FMA, no re-association. IEEE `mul` and `add` round the
//! same at any vector width, so both backends are **bitwise identical**
//! to the scalar code and to each other. The AVX2 functions enable
//! `avx2` and nothing else, so the compiler cannot contract a `mul` and
//! an `add` into an FMA; ci.sh fails if an FMA intrinsic or a `mul_add`
//! call appears anywhere in `crates/*/src`.
//!
//! # Backends
//!
//! [`backend`] picks once per process:
//!
//! * [`Backend::Avx2Fma`] — the `std::arch` kernels, selected when the
//!   host reports AVX2 *and* FMA (checked at runtime, not compile time)
//!   and `RD_NO_SIMD` is unset. The kernels need only AVX2; the
//!   selection rule and the `avx2+fma` label are kept because reports
//!   and perfbench's manifest print the label.
//! * [`Backend::Portable`] — the same kernels' safe scalar bodies, one
//!   plain loop per kernel in the private `portable` module.
#![allow(unsafe_code)]

use std::sync::OnceLock;

/// Which kernel implementation this host runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `std::arch` AVX2 kernels.
    Avx2Fma,
    /// The kernels' safe scalar bodies.
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

/// The backend the kernels use in this process, detected once.
/// Set `RD_NO_SIMD=1` to force the portable fallback on any host.
pub fn backend() -> Backend {
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(|| Backend::select(std::env::var_os("RD_NO_SIMD").is_some()))
}

/// Sparse CSR row gather: `out[r] = Σᵢ weights[i]·src[srcs[i]]` over
/// `offsets[r]..offsets[r + 1]`, overwrite mode.
///
/// The apply kernel behind [`crate::LinearMap`]'s bilinear warps. Each
/// row accumulates from `0.0` in entry order with separate `mul`+`add`
/// (never FMA), so the result is **bitwise identical** to the scalar
/// entry scatter on both backends. The AVX2 path vectorises the
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
        // SAFETY: AVX2 presence established by `backend()`; the
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
        // SAFETY: AVX2 presence established by `backend()`; the
        // assert above pins the lengths.
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
        // SAFETY: AVX2 presence established by `backend()`; the
        // asserts above pin the plane shape.
        Backend::Avx2Fma => unsafe { avx2::box_blur_vertical(src, dst, h, w, radius) },
        Backend::Portable => portable::box_blur_vertical(src, dst, h, w, radius),
    }
}

/// Exact forward GEMM `out = a[m,k] × b[k,n]`, overwrite mode: the
/// conv forward of the tape and both plans, [`crate::Tensor::matmul`]
/// and the compiled linear layer.
///
/// Per output element both backends run the scalar body's sequence:
/// from `+0.0`, ascending `k`, one `mul` then one `add` per term, and
/// no term whose `a` equals `0.0` (either sign), so a NaN or infinity in
/// `b` behind a zero weight stays out of the sum. The AVX2 path only
/// runs several such chains side by side (register blocks of rows ×
/// 8, 16 or 32 columns, SSE for 4-column tails), so it is **bitwise
/// identical** to the scalar body.
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
        Backend::Avx2Fma => unsafe { avx2::gemm::<false>(a, k, 1, b, out, m, k, n) },
        Backend::Portable => portable::gemm(a, b, out, m, k, n),
    }
}

/// Exact grad-weight GEMM `out[m,n] += a[m,k] × b[n,k]ᵀ`: the conv
/// backward of the tape and of `TrainPlan`.
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
            unsafe { avx2::gemm_nt(at, m8, b, out, m, k, n) }
        }
        Backend::Portable => portable::gemm_nt(a, b, out, m, k, n),
    }
}

/// Exact grad-input GEMM `out[m,n] = a[k,m]ᵀ × b[k,n]`, overwrite mode:
/// the conv backward of the tape and of `TrainPlan`.
///
/// Per output element both backends write the first term as `a·b` (or
/// `+0.0` when its `a` is zero), then add the later terms in ascending
/// `k`, one `mul` then one `add` each, skipping every term whose `a`
/// equals `0.0` — **bitwise identical** to the scalar body, and every
/// element of `out[..m·n]` is overwritten. Against zeroing `out` first
/// (the [`exact_gemm`] sequence), only the `0.0 + x` fold of the first
/// term is gone, which can flip the sign of a zero but never a value;
/// conv backward's `col2im` scatter-add folds any `-0.0` away before
/// gradients escape.
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
        Backend::Avx2Fma => unsafe { avx2::gemm::<true>(a, 1, m, b, out, m, k, n) },
        Backend::Portable => portable::gemm_tn_over(a, b, out, k, m, n),
    }
}

/// Safe scalar bodies of the kernels above (also the only backend on
/// non-x86_64 hosts).
mod portable {
    /// Portable [`super::exact_gemm`]: `out[..m·n]` zeroed, then i-k-j
    /// with `out +=`, skipping every term whose `a` is zero.
    pub fn gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        out[..m * n].fill(0.0);
        for i in 0..m {
            let orow = &mut out[i * n..(i + 1) * n];
            for (p, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in orow.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                    *o += av * bv;
                }
            }
        }
    }

    /// Portable [`super::exact_gemm_nt`]: one dot product per output
    /// element, from `0.0`, added into `out`.
    pub fn gemm_nt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let mut acc = 0.0f32;
                for (x, y) in arow.iter().zip(&b[j * k..(j + 1) * k]) {
                    acc += x * y;
                }
                out[i * n + j] += acc;
            }
        }
    }

    /// Portable [`super::exact_gemm_tn_over`]: outer products in
    /// ascending `p`, the `p == 0` one written (zero-filled when its
    /// `a` is zero), the later ones added, skipping zero `a`s.
    pub fn gemm_tn_over(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
        if k == 0 {
            out[..m * n].fill(0.0);
            return;
        }
        for p in 0..k {
            let brow = &b[p * n..(p + 1) * n];
            for (i, &av) in a[p * m..(p + 1) * m].iter().enumerate() {
                let orow = &mut out[i * n..(i + 1) * n];
                if p == 0 {
                    if av == 0.0 {
                        orow.fill(0.0);
                    } else {
                        for (o, &bv) in orow.iter_mut().zip(brow) {
                            *o = av * bv;
                        }
                    }
                } else if av != 0.0 {
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
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
    //! `std::arch` AVX2 kernels. Every function here is `unsafe fn` +
    //! `#[target_feature(enable = "avx2")]` and enables nothing else, so
    //! the compiler cannot contract a `mul` and an `add` into an FMA:
    //! each lane runs one output element's scalar chain, and the
    //! register blocks only decide how many chains run side by side.
    //! Callers must have verified AVX2 at runtime (see
    //! [`super::backend`]).

    use std::arch::x86_64::*;

    /// AVX2 [`super::sparse_gather`]: eight rows per iteration when the
    /// run is uniform — eight 4-entry rows (the bilinear interior, one
    /// strided gather per entry slot, `add(mul)` never FMA) or eight
    /// empty rows (one zero store). Anything irregular falls to the
    /// scalar row loop, so every row's add chain matches the portable
    /// kernel exactly.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and the CSR contract of the safe wrapper:
    /// `offsets` monotone with `out.len() + 1` elements ending at
    /// `srcs.len() == weights.len()`, and every `srcs[i]` in bounds of
    /// `src`.
    #[target_feature(enable = "avx2")]
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
    /// Requires AVX2 and `seg.len() == noise.len()` (asserted by the
    /// safe wrapper).
    #[target_feature(enable = "avx2")]
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
    /// Requires AVX2 and `src.len() == dst.len() == h·w` (asserted
    /// by the safe wrapper).
    #[target_feature(enable = "avx2")]
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
    use crate::Tensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Uniforms in `[-2, 2)`.
    fn randv(rng: &mut StdRng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
    }

    /// Throughput probe at the smoke detector's twelve conv shapes
    /// `(out channels, C·kh·kw, Ho·Wo)`: GF/s of the scalar body and the
    /// dispatched exact kernel for the forward, grad-weight and
    /// grad-input GEMMs. Ignored in normal runs:
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
        let kernels: [(&str, [Gemm; 2]); 3] = [
            ("fwd", [portable::gemm, exact_gemm]),
            ("nt", [portable::gemm_nt, exact_gemm_nt]),
            ("tn", [portable::gemm_tn_over, exact_gemm_tn_over]),
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
                    "{name:>5} {kind:>3} m={:4} k={:5} n={:5}: scalar {:6.2}  exact {:6.2} GF/s  \
                     (exact {:.2}x scalar)",
                    dims.0,
                    dims.1,
                    dims.2,
                    gfs[0],
                    gfs[1],
                    gfs[1] / gfs[0]
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
            let src = randv(&mut rng, in_n);
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
            let src = randv(&mut rng, h * w);
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
        let mut b = randv(rng, k * n);
        for p in (0..k).filter(|&p| dead[p]) {
            (0..m).for_each(|i| a[i * k + p] = if i % 2 == 0 { 0.0 } else { -0.0 });
            (0..n).for_each(|j| b[p * n + j] = poison(rng, true));
        }
        let mut want = vec![f32::NAN; m * n];
        portable::gemm(&a, &b, &mut want, m, k, n);
        let mut got = vec![f32::NAN; m * n];
        exact_gemm(&a, &b, &mut got, m, k, n);
        assert_same_bits(&got, &want, &format!("exact_gemm {tag}"));

        // grad-input: a[k,m]ᵀ × b[k,n], out poisoned (overwrite mode)
        let mut a = with_zeros(rng, k * m, zeros);
        let mut b = randv(rng, k * n);
        for p in (0..k).filter(|&p| dead[p]) {
            (0..m).for_each(|i| a[p * m + i] = if i % 2 == 0 { -0.0 } else { 0.0 });
            (0..n).for_each(|j| b[p * n + j] = poison(rng, true));
        }
        let mut want = vec![f32::NAN; m * n];
        portable::gemm_tn_over(&a, &b, &mut want, k, m, n);
        let mut got = vec![f32::NAN; m * n];
        exact_gemm_tn_over(&a, &b, &mut got, k, m, n);
        assert_same_bits(&got, &want, &format!("exact_gemm_tn_over {tag}"));

        // grad-weight: out[m,k] += a[m,n] × b[k,n]ᵀ, non-zero start
        let mut a = with_zeros(rng, m * n, zeros);
        let mut b = randv(rng, k * n);
        if dead[0] {
            (0..m).for_each(|i| a[i * n] = 0.0);
            (0..k).for_each(|j| b[j * n] = poison(rng, false));
        }
        let base = randv(rng, m * k);
        let mut want = base.clone();
        portable::gemm_nt(&a, &b, &mut want, m, n, k);
        let mut got = base;
        exact_gemm_nt(&a, &b, &mut got, m, n, k);
        assert_same_bits(&got, &want, &format!("exact_gemm_nt {tag}"));
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
    fn gemm_variants_agree_with_matmul() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = Tensor::randn(&mut rng, &[3, 4], 1.0);
        let b = Tensor::randn(&mut rng, &[5, 4], 1.0);
        let mut out = vec![0.0; 15];
        exact_gemm_nt(a.data(), b.data(), &mut out, 3, 4, 5);
        let want = a.matmul(&b.transpose2d());
        for (x, y) in out.iter().zip(want.data()) {
            assert!((x - y).abs() < 1e-5);
        }
        let c = Tensor::randn(&mut rng, &[4, 3], 1.0);
        let d = Tensor::randn(&mut rng, &[4, 5], 1.0);
        let mut out2 = vec![0.0; 15];
        exact_gemm_tn_over(c.data(), d.data(), &mut out2, 4, 3, 5);
        let want2 = c.transpose2d().matmul(&d);
        for (x, y) in out2.iter().zip(want2.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn gemm_tn_over_matches_zero_then_accumulate() {
        // Overwrite mode on a poisoned buffer must equal the zero-started
        // `Tensor::matmul(aᵀ, b)` by value (the dropped `0.0 + x` fold may
        // flip the sign of a zero), across every tile width and a scalar
        // tail, with zeros sprinkled into A to exercise the skip path.
        let mut rng = StdRng::seed_from_u64(21);
        for &(k, m, n) in &[(4, 6, 4), (3, 5, 16), (8, 7, 64), (2, 3, 70), (5, 4, 9)] {
            let mut a = Tensor::randn(&mut rng, &[k, m], 1.0);
            for v in a.data_mut().iter_mut().step_by(3) {
                *v = 0.0;
            }
            let b = Tensor::randn(&mut rng, &[k, n], 1.0);
            let want = a.transpose2d().matmul(&b);
            let mut got = vec![f32::NAN; m * n];
            exact_gemm_tn_over(a.data(), b.data(), &mut got, k, m, n);
            assert_eq!(got, want.data(), "k={k} m={m} n={n}");
        }
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
}
