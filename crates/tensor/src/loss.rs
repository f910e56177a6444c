//! Loss functions: softmax cross-entropy, binary cross-entropy with
//! logits, and mean squared error.

use crate::graph::{Graph, VarId};
use crate::tensor::Tensor;

/// Numerically stable row-wise softmax of a `[N, C]` tensor.
pub fn softmax_rows(logits: &Tensor) -> Tensor {
    assert_eq!(logits.shape().len(), 2, "softmax_rows needs rank 2");
    let (n, c) = (logits.shape()[0], logits.shape()[1]);
    let mut out = Tensor::zeros(&[n, c]);
    for r in 0..n {
        let row = &logits.data()[r * c..(r + 1) * c];
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for (o, &x) in out.data_mut()[r * c..(r + 1) * c].iter_mut().zip(row) {
            let e = (x - m).exp();
            *o = e;
            denom += e;
        }
        for o in &mut out.data_mut()[r * c..(r + 1) * c] {
            *o /= denom;
        }
    }
    out
}

impl Graph {
    /// Mean softmax cross-entropy of `[N, C]` logits against integer
    /// targets.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len() != N` or any target is out of range.
    pub fn softmax_cross_entropy_rows(&mut self, logits: VarId, targets: &[usize]) -> VarId {
        self.eager("softmax_cross_entropy_rows");
        let lv = self.value(logits);
        assert_eq!(lv.shape().len(), 2, "logits must be [N, C]");
        let (n, c) = (lv.shape()[0], lv.shape()[1]);
        assert_eq!(targets.len(), n, "one target per row required");
        assert!(targets.iter().all(|&t| t < c), "target class out of range");
        let probs = softmax_rows(lv);
        let mut loss = 0.0f32;
        for (r, &t) in targets.iter().enumerate() {
            loss -= probs.at2(r, t).max(1e-12).ln();
        }
        loss /= n as f32;
        let targets = targets.to_vec();
        self.record(
            "softmax_cross_entropy_rows",
            &[logits],
            &[("classes", c)],
            Tensor::scalar(loss),
            Some(Box::new(move |g, _vals, grads| {
                let gv = g.data()[0] / n as f32;
                let gl = &mut grads[logits.0];
                for r in 0..n {
                    for cc in 0..c {
                        let indicator = if cc == targets[r] { 1.0 } else { 0.0 };
                        gl.data_mut()[r * c + cc] += gv * (probs.at2(r, cc) - indicator);
                    }
                }
            })),
        )
    }

    /// Mean binary cross-entropy with logits against a constant target
    /// tensor of the same shape (elements in `[0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn bce_with_logits(&mut self, x: VarId, target: &Tensor) -> VarId {
        self.eager("bce_with_logits");
        let xv = self.value(x);
        assert_eq!(xv.shape(), target.shape(), "bce target shape mismatch");
        let n = xv.len() as f32;
        let mut loss = 0.0f32;
        for (&z, &t) in xv.data().iter().zip(target.data()) {
            // stable: max(z,0) - z*t + ln(1 + e^{-|z|})
            loss += z.max(0.0) - z * t + (1.0 + (-z.abs()).exp()).ln();
        }
        loss /= n;
        let target = target.clone();
        self.record(
            "bce_with_logits",
            &[x],
            &[],
            Tensor::scalar(loss),
            Some(Box::new(move |g, vals, grads| {
                let gv = g.data()[0] / n;
                let gx = &mut grads[x.0];
                for ((o, &z), &t) in gx
                    .data_mut()
                    .iter_mut()
                    .zip(vals[x.0].data())
                    .zip(target.data())
                {
                    let s = 1.0 / (1.0 + (-z).exp());
                    *o += gv * (s - t);
                }
            })),
        )
    }

    /// Mean squared error against a constant target tensor.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mse(&mut self, x: VarId, target: &Tensor) -> VarId {
        self.eager("mse");
        let xv = self.value(x);
        assert_eq!(xv.shape(), target.shape(), "mse target shape mismatch");
        let n = xv.len() as f32;
        let mut loss = 0.0f32;
        for (&a, &t) in xv.data().iter().zip(target.data()) {
            let d = a - t;
            loss += d * d;
        }
        loss /= n;
        let target = target.clone();
        self.record(
            "mse",
            &[x],
            &[],
            Tensor::scalar(loss),
            Some(Box::new(move |g, vals, grads| {
                let gv = g.data()[0] * 2.0 / n;
                let gx = &mut grads[x.0];
                for ((o, &a), &t) in gx
                    .data_mut()
                    .iter_mut()
                    .zip(vals[x.0].data())
                    .zip(target.data())
                {
                    *o += gv * (a - t);
                }
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

    #[test]
    fn softmax_rows_sums_to_one() {
        let mut rng = StdRng::seed_from_u64(21);
        let l = Tensor::randn(&mut rng, &[5, 7], 3.0);
        let p = softmax_rows(&l);
        for r in 0..5 {
            let s: f32 = (0..7).map(|c| p.at2(r, c)).sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!((0..7).all(|c| p.at2(r, c) >= 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let l = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let l2 = l.map(|x| x + 1000.0);
        let p1 = softmax_rows(&l);
        let p2 = softmax_rows(&l2);
        for (a, b) in p1.data().iter().zip(p2.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn ce_perfect_prediction_is_near_zero() {
        let mut g = Graph::new();
        let logits = g.input(Tensor::from_vec(vec![100.0, 0.0, 0.0], &[1, 3]));
        let loss = g.softmax_cross_entropy_rows(logits, &[0]);
        assert!(g.value(loss).data()[0] < 1e-4);
    }

    #[test]
    fn ce_uniform_prediction_is_log_c() {
        let mut g = Graph::new();
        let logits = g.input(Tensor::zeros(&[2, 4]));
        let loss = g.softmax_cross_entropy_rows(logits, &[1, 3]);
        assert!((g.value(loss).data()[0] - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn ce_grads_match_numeric() {
        let mut rng = StdRng::seed_from_u64(13);
        let l0 = Tensor::randn(&mut rng, &[3, 5], 1.0);
        let targets = [4usize, 0, 2];
        let run = |l: &Tensor| {
            let mut g = Graph::new();
            let x = g.input(l.clone());
            let loss = g.softmax_cross_entropy_rows(x, &targets);
            (g, x, loss)
        };
        let (g, x, loss) = run(&l0);
        let grads = g.backward(loss);
        let num = numeric_grad(
            |t| {
                let (g, _, l) = run(t);
                g.value(l).data()[0]
            },
            &l0,
            1e-3,
        );
        assert_grads_close(grads.get(x), &num, 0.02);
    }

    #[test]
    fn bce_grads_match_numeric() {
        let mut rng = StdRng::seed_from_u64(14);
        let x0 = Tensor::randn(&mut rng, &[6], 2.0);
        let t = Tensor::from_vec(vec![1.0, 0.0, 1.0, 0.0, 0.5, 1.0], &[6]);
        let run = |x: &Tensor| {
            let mut g = Graph::new();
            let xv = g.input(x.clone());
            let loss = g.bce_with_logits(xv, &t);
            (g, xv, loss)
        };
        let (g, x, loss) = run(&x0);
        let grads = g.backward(loss);
        let num = numeric_grad(
            |t2| {
                let (g, _, l) = run(t2);
                g.value(l).data()[0]
            },
            &x0,
            1e-3,
        );
        assert_grads_close(grads.get(x), &num, 0.02);
    }

    #[test]
    fn bce_extreme_logits_stay_finite() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![500.0, -500.0], &[2]));
        let t = Tensor::from_vec(vec![1.0, 0.0], &[2]);
        let loss = g.bce_with_logits(x, &t);
        assert!(g.value(loss).data()[0].is_finite());
        assert!(g.value(loss).data()[0] < 1e-4);
    }

    #[test]
    fn mse_value_and_grad() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![1.0, 3.0], &[2]));
        let t = Tensor::from_vec(vec![0.0, 1.0], &[2]);
        let loss = g.mse(x, &t);
        assert!((g.value(loss).data()[0] - 2.5).abs() < 1e-6);
        let grads = g.backward(loss);
        assert_eq!(grads.get(x).data(), &[1.0, 2.0]);
    }
}
