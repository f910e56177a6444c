//! Dense row-major `f32` tensors.
//!
//! [`Tensor`] is the value type everything else in the workspace is built
//! on: images, network weights, gradients and intermediate activations.
//! It is deliberately small — a shape vector plus a flat `Vec<f32>` — and
//! favours clarity over micro-optimization; its one product,
//! [`Tensor::matmul`], runs the exact GEMM of [`crate::simd`].

use std::fmt;

use rand::Rng;

/// A dense row-major tensor of `f32` values.
///
/// # Examples
///
/// ```
/// use rd_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// assert_eq!(t.at2(1, 0), 3.0);
/// assert_eq!(t.sum(), 10.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, .., {:.4}] (n={})",
                self.data[0],
                self.data[1],
                self.data[self.data.len() - 1],
                self.data.len()
            )
        }
    }
}

impl Tensor {
    /// Creates a tensor filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if `shape` contains a zero dimension.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n: usize = shape.iter().product();
        assert!(n > 0, "tensor shape {shape:?} has zero elements");
        Tensor {
            shape: shape.to_vec(),
            // Large buffers come from the scratch arena (and return to
            // it when a Graph/Gradients drops), so per-step activation
            // allocations are reused across attack steps.
            data: crate::arena::take_filled(n, value),
        }
    }

    /// Creates a tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a scalar (rank-1, single-element) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: vec![1],
            data: vec![value],
        }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            n,
            "buffer length {} != shape {shape:?}",
            data.len()
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Samples every element i.i.d. from `N(0, std^2)` using Box–Muller.
    pub fn randn<R: Rng>(rng: &mut R, shape: &[usize], std: f32) -> Self {
        let n: usize = shape.iter().product();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(1e-7f32..1.0);
            let u2: f32 = rng.gen_range(0.0f32..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let th = 2.0 * std::f32::consts::PI * u2;
            data.push(r * th.cos() * std);
            if data.len() < n {
                data.push(r * th.sin() * std);
            }
        }
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Samples every element i.i.d. from `U(lo, hi)`.
    pub fn rand_uniform<R: Rng>(rng: &mut R, shape: &[usize], lo: f32, hi: f32) -> Self {
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements (never true for valid tensors).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns a reshaped copy sharing no structure (cheap move of the buffer).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            self.data.len(),
            n,
            "cannot reshape {:?} to {shape:?}",
            self.shape
        );
        self.shape = shape.to_vec();
        self
    }

    /// Element at `(i, j)` of a rank-2 tensor.
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[i * self.shape[1] + j]
    }

    /// Element at `(n, c, h, w)` of a rank-4 tensor.
    pub fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 4);
        let (cc, hh, ww) = (self.shape[1], self.shape[2], self.shape[3]);
        self.data[((n * cc + c) * hh + h) * ww + w]
    }

    /// Sets the element at `(n, c, h, w)` of a rank-4 tensor.
    pub fn set4(&mut self, n: usize, c: usize, h: usize, w: usize, v: f32) {
        debug_assert_eq!(self.shape.len(), 4);
        let (cc, hh, ww) = (self.shape[1], self.shape[2], self.shape[3]);
        self.data[((n * cc + c) * hh + h) * ww + w] = v;
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(self.shape, other.shape, "zip_map shape mismatch");
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Elementwise sum.
    pub fn add(&self, other: &Tensor) -> Self {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Self {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise product.
    pub fn mul(&self, other: &Tensor) -> Self {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// Adds `other * s` into `self` in place (axpy).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_scaled_assign(&mut self, other: &Tensor, s: f32) {
        assert_eq!(self.shape, other.shape, "add_scaled_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b * s;
        }
    }

    /// Fills the tensor with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.data.len() as f32
    }

    /// Maximum element.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element of the flat buffer.
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        for (i, &x) in self.data.iter().enumerate() {
            if x > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Squared L2 norm of the buffer.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// True when any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Dense matrix product of two rank-2 tensors: `[m,k] x [k,n] -> [m,n]`.
    ///
    /// Runs the exact forward GEMM the convolutions use: per output
    /// element a k-ascending `mul`-then-`add` chain from `+0.0` that
    /// skips every term whose left factor is zero, so a NaN or infinity
    /// behind a zero stays out of the sum. The tape's `linear` runs on it.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be rank 2");
        assert_eq!(other.shape.len(), 2, "matmul rhs must be rank 2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dims {k} != {k2}");
        let mut out = crate::arena::take(m * n);
        crate::simd::exact_gemm(&self.data, &other.data, &mut out, m, k, n);
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose2d(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose2d needs rank 2");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut data = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                data[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor {
            shape: vec![n, m],
            data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.at2(1, 2), 6.0);
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
    }

    #[test]
    fn rank4_access() {
        let mut t = Tensor::zeros(&[2, 3, 4, 5]);
        t.set4(1, 2, 3, 4, 7.5);
        assert_eq!(t.at4(1, 2, 3, 4), 7.5);
        assert_eq!(t.at4(0, 0, 0, 0), 0.0);
        assert_eq!(t.sum(), 7.5);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_shape() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, -2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]);
        assert_eq!(a.add(&b).data(), &[4.0, 3.0]);
        assert_eq!(a.sub(&b).data(), &[-2.0, -7.0]);
        assert_eq!(a.mul(&b).data(), &[3.0, -10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, -4.0]);
    }

    #[test]
    fn add_scaled_assign_is_axpy() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        a.add_scaled_assign(&b, 0.5);
        assert_eq!(a.data(), &[6.0, 12.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -3.0, 2.0], &[3]);
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.max(), 2.0);
        assert_eq!(t.min(), -3.0);
        assert_eq!(t.argmax(), 2);
        assert!((t.mean() - 0.0).abs() < 1e-6);
        assert_eq!(t.sq_norm(), 14.0);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Tensor::randn(&mut rng, &[4, 4], 1.0);
        let mut eye = Tensor::zeros(&[4, 4]);
        for i in 0..4 {
            eye.data_mut()[i * 4 + i] = 1.0;
        }
        let c = a.matmul(&eye);
        for (x, y) in c.data().iter().zip(a.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn matmul_skips_zero_terms_bitwise() {
        // Reference: the plain i-k-j loop (`out` zeroed, then `out +=`
        // in ascending `p`, skipping every term whose `a` is zero). It
        // pins the tape's `linear` to that arithmetic on both backends.
        fn ikj(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
            let mut out = vec![0.0f32; m * n];
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
            out
        }
        let mut rng = StdRng::seed_from_u64(95);
        // The GAN's fc layers (generator z 16 -> 512 at batch 1,
        // discriminator 512 -> 1 at batch 8) through the tape's
        // `linear`: forward x·wᵀ, backward g·w and gᵀ·x.
        let mut shapes = vec![
            (1, 16, 512),
            (1, 512, 16),
            (512, 1, 16),
            (8, 512, 1),
            (8, 1, 512),
            (1, 8, 512),
        ];
        for _ in 0..12 {
            shapes.push((
                rng.gen_range(1..40),
                rng.gen_range(1..70),
                rng.gen_range(1..300),
            ));
        }
        for (m, k, n) in shapes {
            let mut a = Tensor::randn(&mut rng, &[m, k], 1.0);
            let mut b = Tensor::randn(&mut rng, &[k, n], 1.0);
            // Dead reduction indices: a signed zero on every row of `a`,
            // NaN or ±inf behind it in `b`. On the others, scattered
            // signed zeros in `a`.
            for p in 0..k {
                let dead = rng.gen_range(0..5) == 0;
                for i in 0..m {
                    let r = rng.gen_range(0..8);
                    if dead || r < 2 {
                        a.data_mut()[i * k + p] = if r % 2 == 0 { 0.0 } else { -0.0 };
                    }
                }
                if dead {
                    for j in 0..n {
                        b.data_mut()[p * n + j] = match rng.gen_range(0..3) {
                            0 => f32::NAN,
                            1 => f32::INFINITY,
                            _ => f32::NEG_INFINITY,
                        };
                    }
                }
            }
            let got = a.matmul(&b);
            let want = ikj(a.data(), b.data(), m, k, n);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got.data()), bits(&want), "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Tensor::randn(&mut rng, &[3, 5], 1.0);
        let back = a.transpose2d().transpose2d();
        assert_eq!(a, back);
    }

    #[test]
    fn randn_statistics() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = Tensor::randn(&mut rng, &[10_000], 2.0);
        let mean = t.mean();
        let var = t
            .data()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f32>()
            / 10_000.0;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = Tensor::rand_uniform(&mut rng, &[1000], -0.5, 0.25);
        assert!(t.min() >= -0.5 && t.max() < 0.25);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(&[3]);
        assert!(!t.has_non_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(t.has_non_finite());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).reshape(&[2, 2]);
        assert_eq!(t.at2(1, 1), 4.0);
    }
}
