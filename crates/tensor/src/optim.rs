//! First-order optimizers over a [`ParamSet`].

use crate::params::ParamSet;
use crate::tensor::Tensor;

/// Result of one training step, shared by every step-wise trainer in the
/// workspace so the recovery runner can treat them uniformly.
#[derive(Debug, Clone, PartialEq)]
pub enum StepOutcome {
    /// The step completed and the optimizer update was applied.
    Ran {
        /// The step's scalar loss.
        loss: f32,
    },
    /// A non-finite loss or gradient was detected **before** any update
    /// was applied; parameters and optimizer state are untouched.
    NonFinite {
        /// Human-readable provenance (offending params, tape audit).
        detail: String,
    },
}

/// A complete snapshot of an [`Adam`] optimizer's state, for
/// checkpointing and bitwise-identical resume.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// Steps taken (drives bias correction).
    pub t: u64,
    /// First moments, one per parameter in registration order.
    pub m: Vec<Tensor>,
    /// Second moments, one per parameter in registration order.
    pub v: Vec<Tensor>,
}

/// Adam (Kingma & Ba) with bias correction — the optimizer the paper uses
/// for both GAN training and patch optimization (lr = 1e-4).
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimizer with the standard (0.9, 0.999) betas.
    pub fn new(lr: f32) -> Self {
        Self::with_betas(lr, 0.9, 0.999)
    }

    /// Creates an Adam optimizer with explicit betas (GAN training often
    /// uses beta1 = 0.5).
    pub fn with_betas(lr: f32, beta1: f32, beta2: f32) -> Self {
        Adam {
            lr,
            beta1,
            beta2,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Updates the learning rate.
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Snapshots the full optimizer state (hyper-parameters, step
    /// counter, both moment buffers) for checkpointing.
    pub fn export_state(&self) -> AdamState {
        AdamState {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restores a state exported by [`export_state`](Self::export_state).
    /// Moment buffers may be shorter than the parameter set (state grows
    /// lazily), but paired buffers must have matching lengths.
    ///
    /// # Errors
    ///
    /// Returns a message when the snapshot is internally inconsistent.
    pub fn load_state(&mut self, st: AdamState) -> Result<(), String> {
        if st.m.len() != st.v.len() {
            return Err(format!(
                "Adam state has {} first moment(s) but {} second moment(s)",
                st.m.len(),
                st.v.len()
            ));
        }
        for (i, (m, v)) in st.m.iter().zip(&st.v).enumerate() {
            if m.shape() != v.shape() {
                return Err(format!(
                    "Adam moment #{i} shape mismatch: m {:?} vs v {:?}",
                    m.shape(),
                    v.shape()
                ));
            }
        }
        self.lr = st.lr;
        self.beta1 = st.beta1;
        self.beta2 = st.beta2;
        self.eps = st.eps;
        self.t = st.t;
        self.m = st.m;
        self.v = st.v;
        Ok(())
    }

    /// Applies one update step using the gradients accumulated in `ps`.
    pub fn step(&mut self, ps: &mut ParamSet) {
        while self.m.len() < ps.len() {
            let idx = self.m.len();
            let shape = ps
                .iter()
                .nth(idx)
                .map(|(_, p)| p.value().shape().to_vec())
                .expect("param exists");
            self.m.push(Tensor::zeros(&shape));
            self.v.push(Tensor::zeros(&shape));
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, (_, p)) in ps.iter_mut().enumerate() {
            let g = p.grad().clone();
            let m = &mut self.m[i];
            for (mv, &gv) in m.data_mut().iter_mut().zip(g.data()) {
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * gv;
            }
            let v = &mut self.v[i];
            for (vv, &gv) in v.data_mut().iter_mut().zip(g.data()) {
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * gv * gv;
            }
            let lr = self.lr;
            let eps = self.eps;
            let mslice = self.m[i].data();
            let vslice = self.v[i].data();
            for ((w, &mv), &vv) in p.value_mut().data_mut().iter_mut().zip(mslice).zip(vslice) {
                let mhat = mv / bc1;
                let vhat = vv / bc2;
                *w -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// Minimizes (w - 3)^2 and checks convergence.
    fn converges(step: &mut dyn FnMut(&mut ParamSet)) -> f32 {
        let mut ps = ParamSet::new();
        let w = ps.register("w", Tensor::from_vec(vec![0.0], &[1]));
        for _ in 0..400 {
            ps.zero_grads();
            let mut g = Graph::new();
            let wv = g.param(&ps, w);
            let shifted = g.add_scalar(wv, -3.0);
            let sq = g.mul(shifted, shifted);
            let loss = g.sum_all(sq);
            let grads = g.backward(loss);
            g.write_grads(&grads, &mut ps);
            step(&mut ps);
        }
        ps.get(w).value().data()[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.05);
        let w = converges(&mut |ps| opt.step(ps));
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn adam_first_step_size_is_lr() {
        // With bias correction, the very first Adam step has magnitude ~lr.
        let mut ps = ParamSet::new();
        let w = ps.register("w", Tensor::from_vec(vec![1.0], &[1]));
        ps.get_mut(w).grad_mut().fill(123.0);
        let mut opt = Adam::new(0.01);
        opt.step(&mut ps);
        assert!((ps.get(w).value().data()[0] - 0.99).abs() < 1e-4);
    }

    #[test]
    fn adam_state_roundtrip_resumes_identically() {
        let run = |resume_at: Option<usize>| -> Vec<f32> {
            let mut ps = ParamSet::new();
            let w = ps.register("w", Tensor::from_vec(vec![0.0, 4.0], &[2]));
            let mut opt = Adam::new(0.05);
            for step in 0..20 {
                if Some(step) == resume_at {
                    // serialize through the snapshot and hand off to a
                    // brand-new optimizer mid-run
                    let st = opt.export_state();
                    opt = Adam::new(0.123);
                    opt.load_state(st).unwrap();
                }
                ps.zero_grads();
                let mut g = Graph::new();
                let wv = g.param(&ps, w);
                let shifted = g.add_scalar(wv, -3.0);
                let sq = g.mul(shifted, shifted);
                let loss = g.sum_all(sq);
                let grads = g.backward(loss);
                g.write_grads(&grads, &mut ps);
                opt.step(&mut ps);
            }
            ps.get(w).value().data().to_vec()
        };
        let straight = run(None);
        let resumed = run(Some(11));
        assert_eq!(straight, resumed, "resume must be bitwise-identical");
    }

    #[test]
    fn adam_load_state_rejects_inconsistent_moments() {
        let mut opt = Adam::new(0.1);
        let bad = AdamState {
            lr: 0.1,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 3,
            m: vec![Tensor::zeros(&[2])],
            v: vec![Tensor::zeros(&[3])],
        };
        assert!(opt.load_state(bad).is_err());
    }

    #[test]
    fn late_registered_params_get_state() {
        let mut ps = ParamSet::new();
        let a = ps.register("a", Tensor::from_vec(vec![1.0], &[1]));
        let mut opt = Adam::new(0.1);
        ps.get_mut(a).grad_mut().fill(1.0);
        opt.step(&mut ps);
        let b = ps.register("b", Tensor::from_vec(vec![1.0], &[1]));
        ps.get_mut(b).grad_mut().fill(1.0);
        opt.step(&mut ps); // must not panic, state grows lazily
        assert!(ps.get(b).value().data()[0] < 1.0);
    }
}
