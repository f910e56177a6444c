//! # rd-gan
//!
//! A small DCGAN-style generator/discriminator pair over monochrome decal
//! canvases, for the `road-decals` reproduction of *Road Decals as
//! Trojans* (DSN 2024).
//!
//! The paper synthesizes its adversarial patches with a GAN trained on the
//! Four Shapes dataset (Eq. 1): the generator learns to emit plausible
//! shape-like monochrome decals, the discriminator enforces realism, and
//! an attack term `α·L_f` (added by the attack pipeline in the
//! `road-decals` crate) pulls the decals toward fooling the detector.
//!
//! # Examples
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use rd_gan::{GanConfig, Generator};
//! use rd_tensor::{Graph, ParamSet, Tensor};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let cfg = GanConfig::default();
//! let mut ps = ParamSet::new();
//! let gen = Generator::new(&mut ps, &mut rng, cfg);
//! let mut g = Graph::new();
//! let z = g.input(Tensor::randn(&mut rng, &[2, cfg.z_dim], 1.0));
//! let decal = gen.forward(&mut g, &mut ps, z, false);
//! assert_eq!(g.value(decal).shape(), &[2, 1, 16, 16]);
//! assert!(g.value(decal).min() >= 0.0 && g.value(decal).max() <= 1.0);
//! ```

#![warn(missing_docs)]

use rand::Rng;

use std::sync::OnceLock;

use rd_tensor::{
    fold_running_stats, init, optim::Adam, BatchStats, Graph, InferPlan, ParamId, ParamSet, Tensor,
    VarId,
};
use rd_vision::shapes::{four_shapes_sample, Shape};

/// Architecture hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GanConfig {
    /// Latent dimension of the generator input.
    pub z_dim: usize,
    /// Side length of the generated decal canvas.
    pub canvas: usize,
    /// Base channel width.
    pub base: usize,
}

impl Default for GanConfig {
    fn default() -> Self {
        GanConfig {
            z_dim: 16,
            canvas: 16,
            base: 16,
        }
    }
}

const BN_EPS: f32 = 1e-5;

/// Batch statistics collected during a training forward, folded into
/// the running-stat parameters after the graph is built.
type PendingStats = Vec<(ParamId, ParamId, BatchStats)>;

/// Batch-norm mode of the generator's single forward: training mode uses
/// batch statistics (collecting them for a deferred running-stat
/// update), eval mode reads the frozen running statistics.
enum BnMode<'s> {
    Train(&'s mut PendingStats),
    Eval,
}

/// conv + BN + relu sub-block used by the generator.
#[derive(Debug)]
struct GenBlock {
    w: ParamId,
    gamma: ParamId,
    beta: ParamId,
    rmean: ParamId,
    rvar: ParamId,
}

impl GenBlock {
    fn new<R: Rng>(ps: &mut ParamSet, rng: &mut R, name: &str, cin: usize, cout: usize) -> Self {
        GenBlock {
            w: ps.register(
                format!("{name}.w"),
                init::kaiming_conv(rng, cout, cin, 3, 3),
            ),
            gamma: ps.register(format!("{name}.gamma"), Tensor::ones(&[cout])),
            beta: ps.register(format!("{name}.beta"), Tensor::zeros(&[cout])),
            rmean: ps.register(format!("{name}.rmean"), Tensor::zeros(&[cout])),
            rvar: ps.register(format!("{name}.rvar"), Tensor::ones(&[cout])),
        }
    }

    fn forward(&self, g: &mut Graph, ps: &ParamSet, x: VarId, mode: &mut BnMode<'_>) -> VarId {
        let w = g.param(ps, self.w);
        let y = g.conv2d(x, w, None, 1, 1);
        let gamma = g.param(ps, self.gamma);
        let beta = g.param(ps, self.beta);
        let (rm, rv) = (self.rmean, self.rvar);
        let y = match mode {
            BnMode::Train(pending) => {
                let (y, stats) = g.batch_norm2d_train(y, gamma, beta, rm, rv, BN_EPS);
                pending.push((rm, rv, stats));
                y
            }
            BnMode::Eval => g.batch_norm2d_eval(y, gamma, beta, ps, rm, rv, BN_EPS),
        };
        g.relu(y)
    }
}

/// The decal generator: `z -> [N, 1, canvas, canvas]` in `[0, 1]`.
#[derive(Debug)]
pub struct Generator {
    cfg: GanConfig,
    fc_w: ParamId,
    fc_b: ParamId,
    b1: GenBlock,
    b2: GenBlock,
    out_w: ParamId,
    out_b: ParamId,
    /// Lazily compiled grad-free inference plan (structure only; weights
    /// are read from the `ParamSet` at execution time).
    plan: OnceLock<InferPlan>,
}

impl Generator {
    /// Builds a generator, registering parameters into `ps`.
    ///
    /// # Panics
    ///
    /// Panics unless `cfg.canvas` is divisible by 4.
    pub fn new<R: Rng>(ps: &mut ParamSet, rng: &mut R, cfg: GanConfig) -> Self {
        assert_eq!(cfg.canvas % 4, 0, "canvas must be divisible by 4");
        let s0 = cfg.canvas / 4;
        let c0 = cfg.base * 2;
        Generator {
            cfg,
            fc_w: ps.register(
                "gen.fc.w",
                init::xavier_linear(rng, c0 * s0 * s0, cfg.z_dim),
            ),
            fc_b: ps.register("gen.fc.b", Tensor::zeros(&[c0 * s0 * s0])),
            b1: GenBlock::new(ps, rng, "gen.b1", c0, cfg.base),
            b2: GenBlock::new(ps, rng, "gen.b2", cfg.base, cfg.base),
            out_w: ps.register("gen.out.w", init::kaiming_conv(rng, 1, cfg.base, 3, 3)),
            out_b: ps.register("gen.out.b", Tensor::zeros(&[1])),
            plan: OnceLock::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> GanConfig {
        self.cfg
    }

    /// Maps latents `z: [N, z_dim]` to decals `[N, 1, canvas, canvas]`.
    /// `training` selects batch-norm mode (and updates running statistics
    /// inside `ps` when true).
    pub fn forward(&self, g: &mut Graph, ps: &mut ParamSet, z: VarId, training: bool) -> VarId {
        if !training {
            return self.forward_mode(g, ps, z, &mut BnMode::Eval);
        }
        let mut pending = PendingStats::new();
        let out = self.forward_mode(g, ps, z, &mut BnMode::Train(&mut pending));
        // running stats move 10% of the way to each batch's statistics
        fold_running_stats(ps, &pending, 0.9);
        out
    }

    /// The single forward both batch-norm modes share; the eval mode
    /// needs only a shared `ps`.
    fn forward_mode(&self, g: &mut Graph, ps: &ParamSet, z: VarId, mode: &mut BnMode<'_>) -> VarId {
        let n = g.shape(z)[0];
        let s0 = self.cfg.canvas / 4;
        let c0 = self.cfg.base * 2;
        let (y, ow, ob) = g.scoped("gen", |g| {
            let w = g.param(ps, self.fc_w);
            let b = g.param(ps, self.fc_b);
            let y = g.linear(z, w, b);
            let y = g.leaky_relu(y, 0.1);
            let y = g.reshape(y, &[n, c0, s0, s0]);
            let y = g.upsample_nearest2x(y);
            let y = g.scoped("b1", |g| self.b1.forward(g, ps, y, mode));
            let y = g.upsample_nearest2x(y);
            let y = g.scoped("b2", |g| self.b2.forward(g, ps, y, mode));
            let ow = g.param(ps, self.out_w);
            let ob = g.param(ps, self.out_b);
            (y, ow, ob)
        });
        let y = g.conv2d(y, ow, Some(ob), 1, 1);
        g.sigmoid(y)
    }

    /// The eval forward traced on a shape-only tape over `batch`
    /// latents: what [`Generator::infer_plan`] lowers (at batch 1) and
    /// [`Generator::validate`] checks.
    fn trace(&self, ps: &ParamSet, batch: usize) -> (Graph, VarId) {
        let mut g = Graph::shape_only();
        let z = g.input(Tensor::zeros(&[batch, self.cfg.z_dim]));
        let out = self.forward_mode(&mut g, ps, z, &mut BnMode::Eval);
        (g, out)
    }

    /// The compiled grad-free inference plan for the generator's eval
    /// path, built on first use from the shape-only trace.
    pub fn infer_plan(&self, ps: &ParamSet) -> &InferPlan {
        self.plan.get_or_init(|| {
            let (g, out) = self.trace(ps, 1);
            let plan = InferPlan::compile(&g, &[out])
                .expect("generator lowering must compile to an inference plan");
            rd_analysis::audit_plan_or_panic("gan/generator", &plan.meta(), ps);
            plan
        })
    }

    /// Tape-free batched sampling: maps latents `z: [N, z_dim]` to
    /// decals `[N, 1, canvas, canvas]`, bitwise-identical to
    /// [`Generator::forward`] with `training = false` on the same
    /// weights at any worker-pool thread count.
    pub fn infer(&self, ps: &ParamSet, z: &Tensor) -> Tensor {
        let mut out = self.infer_plan(ps).execute(ps, z);
        out.pop().expect("plan has one root")
    }

    /// Statically validates the generator's wiring against the parameter
    /// shapes registered in `ps`, before any kernel runs, by checking the
    /// eval forward's shape-only trace.
    pub fn validate(
        &self,
        ps: &ParamSet,
        batch: usize,
    ) -> Result<(), Vec<rd_analysis::ShapeIssue>> {
        let (g, out) = self.trace(ps, batch);
        rd_analysis::validate_with_root(&g, out)
    }
}

/// The shape discriminator: decals -> real/fake logits `[N, 1]`.
#[derive(Debug)]
pub struct Discriminator {
    cfg: GanConfig,
    c1_w: ParamId,
    c1_b: ParamId,
    c2_w: ParamId,
    c2_b: ParamId,
    fc_w: ParamId,
    fc_b: ParamId,
    /// Lazily compiled grad-free inference plan (structure only; weights
    /// are read from the `ParamSet` at execution time).
    plan: OnceLock<InferPlan>,
}

impl Discriminator {
    /// Builds a discriminator, registering parameters into `ps`.
    pub fn new<R: Rng>(ps: &mut ParamSet, rng: &mut R, cfg: GanConfig) -> Self {
        let s = cfg.canvas / 4;
        Discriminator {
            cfg,
            c1_w: ps.register("disc.c1.w", init::kaiming_conv(rng, cfg.base, 1, 3, 3)),
            c1_b: ps.register("disc.c1.b", Tensor::zeros(&[cfg.base])),
            c2_w: ps.register(
                "disc.c2.w",
                init::kaiming_conv(rng, cfg.base * 2, cfg.base, 3, 3),
            ),
            c2_b: ps.register("disc.c2.b", Tensor::zeros(&[cfg.base * 2])),
            fc_w: ps.register(
                "disc.fc.w",
                init::xavier_linear(rng, 1, cfg.base * 2 * s * s),
            ),
            fc_b: ps.register("disc.fc.b", Tensor::zeros(&[1])),
            plan: OnceLock::new(),
        }
    }

    /// Maps decals `[N, 1, canvas, canvas]` to real/fake logits `[N, 1]`.
    ///
    /// With `frozen = true` the weights enter the graph as constants so
    /// gradient write-back never reaches this discriminator (used for the
    /// generator step).
    pub fn forward(&self, g: &mut Graph, ps: &ParamSet, x: VarId, frozen: bool) -> VarId {
        let n = g.shape(x)[0];
        let s = self.cfg.canvas / 4;
        let p = |g: &mut Graph, id: ParamId| {
            if frozen {
                g.input(ps.get(id).value().clone())
            } else {
                g.param(ps, id)
            }
        };
        g.scoped("disc", |g| {
            let w1 = p(g, self.c1_w);
            let b1 = p(g, self.c1_b);
            let y = g.conv2d(x, w1, Some(b1), 2, 1);
            let y = g.leaky_relu(y, 0.2);
            let w2 = p(g, self.c2_w);
            let b2 = p(g, self.c2_b);
            let y = g.conv2d(y, w2, Some(b2), 2, 1);
            let y = g.leaky_relu(y, 0.2);
            let y = g.reshape(y, &[n, self.cfg.base * 2 * s * s]);
            let fw = p(g, self.fc_w);
            let fb = p(g, self.fc_b);
            g.linear(y, fw, fb)
        })
    }

    /// The forward traced on a shape-only tape over `batch` decals, with
    /// the weights as parameters: what [`Discriminator::infer_plan`]
    /// lowers (at batch 1) and [`Discriminator::validate`] checks.
    fn trace(&self, ps: &ParamSet, batch: usize) -> (Graph, VarId) {
        let mut g = Graph::shape_only();
        let canvas = self.cfg.canvas;
        let x = g.input(Tensor::zeros(&[batch, 1, canvas, canvas]));
        let out = self.forward(&mut g, ps, x, false);
        (g, out)
    }

    /// The compiled grad-free inference plan for the discriminator's eval
    /// path, built on first use from the shape-only trace.
    pub fn infer_plan(&self, ps: &ParamSet) -> &InferPlan {
        self.plan.get_or_init(|| {
            let (g, out) = self.trace(ps, 1);
            let plan = InferPlan::compile(&g, &[out])
                .expect("discriminator lowering must compile to an inference plan");
            rd_analysis::audit_plan_or_panic("gan/discriminator", &plan.meta(), ps);
            plan
        })
    }

    /// Tape-free batched scoring: maps decals `[N, 1, canvas, canvas]` to
    /// logits `[N, 1]`, bitwise-identical to
    /// [`Discriminator::forward`] with `frozen = true` on the same
    /// weights at any worker-pool thread count.
    pub fn infer(&self, ps: &ParamSet, x: &Tensor) -> Tensor {
        let mut out = self.infer_plan(ps).execute(ps, x);
        out.pop().expect("plan has one root")
    }

    /// Statically validates the discriminator's wiring against the
    /// parameter shapes registered in `ps`, before any kernel runs, by
    /// checking the forward's shape-only trace.
    pub fn validate(
        &self,
        ps: &ParamSet,
        batch: usize,
    ) -> Result<(), Vec<rd_analysis::ShapeIssue>> {
        let (g, out) = self.trace(ps, batch);
        rd_analysis::validate_with_root(&g, out)
    }
}

/// One alternating GAN training step on a batch of real shape images.
/// Returns `(d_loss, g_adv_loss)`.
///
/// The attack pipeline in the `road-decals` crate performs its own
/// generator step with the extra `α·L_f` term; this function is the plain
/// Eq.-1-without-attack baseline used for pre-training and tests.
#[allow(clippy::too_many_arguments)]
pub fn gan_step<R: Rng>(
    gen: &Generator,
    disc: &Discriminator,
    ps_g: &mut ParamSet,
    ps_d: &mut ParamSet,
    opt_g: &mut Adam,
    opt_d: &mut Adam,
    real: &Tensor,
    rng: &mut R,
) -> (f32, f32) {
    let n = real.shape()[0];
    let zdim = gen.config().z_dim;

    // ---- discriminator step ----
    ps_d.zero_grads();
    let d_loss_val;
    {
        // fakes are generated eval-mode and detached; the compiled
        // generator plan skips the tape entirely (no gradient is wanted
        // here) and is bitwise-identical to the eval-mode forward
        let z = Tensor::randn(rng, &[n, zdim], 1.0);
        let fake_t = gen.infer(ps_g, &z);
        let mut g = Graph::new();
        let real_v = g.input(real.clone());
        let fake_v = g.input(fake_t);
        let d_real = disc.forward(&mut g, ps_d, real_v, false);
        let d_fake = disc.forward(&mut g, ps_d, fake_v, false);
        let ones = Tensor::ones(&[n, 1]);
        let zeros = Tensor::zeros(&[n, 1]);
        let l_real = g.bce_with_logits(d_real, &ones);
        let l_fake = g.bce_with_logits(d_fake, &zeros);
        let loss = g.add(l_real, l_fake);
        let grads = g.backward(loss);
        g.write_grads(&grads, ps_d);
        opt_d.step(ps_d);
        d_loss_val = g.value(loss).data()[0];
    }

    // ---- generator step ----
    ps_g.zero_grads();
    let g_loss_val;
    {
        let mut g = Graph::new();
        let z = g.input(Tensor::randn(rng, &[n, zdim], 1.0));
        let fake = gen.forward(&mut g, ps_g, z, true);
        let d_fake = disc.forward(&mut g, ps_d, fake, true);
        let ones = Tensor::ones(&[n, 1]);
        let loss = g.bce_with_logits(d_fake, &ones);
        let grads = g.backward(loss);
        g.write_grads(&grads, ps_g);
        opt_g.step(ps_g);
        g_loss_val = g.value(loss).data()[0];
    }
    (d_loss_val, g_loss_val)
}

/// Builds a batch of real Four-Shapes samples as a `[N, 1, s, s]` tensor.
pub fn real_shape_batch<R: Rng>(rng: &mut R, shape: Shape, n: usize, canvas: usize) -> Tensor {
    let mut data = Vec::with_capacity(n * canvas * canvas);
    for _ in 0..n {
        let s = four_shapes_sample(rng, shape, canvas);
        data.extend_from_slice(s.data());
    }
    Tensor::from_vec(data, &[n, 1, canvas, canvas])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Generator, Discriminator, ParamSet, ParamSet, StdRng) {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = GanConfig::default();
        let mut ps_g = ParamSet::new();
        let mut ps_d = ParamSet::new();
        let gen = Generator::new(&mut ps_g, &mut rng, cfg);
        let disc = Discriminator::new(&mut ps_d, &mut rng, cfg);
        (gen, disc, ps_g, ps_d, rng)
    }

    #[test]
    fn generator_output_range_and_shape() {
        let (gen, _, mut ps_g, _, mut rng) = setup();
        let mut g = Graph::new();
        let z = g.input(Tensor::randn(&mut rng, &[3, 16], 1.0));
        let out = gen.forward(&mut g, &mut ps_g, z, false);
        let v = g.value(out);
        assert_eq!(v.shape(), &[3, 1, 16, 16]);
        assert!(v.min() >= 0.0 && v.max() <= 1.0);
    }

    #[test]
    fn discriminator_output_shape() {
        let (_, disc, _, ps_d, mut rng) = setup();
        let mut g = Graph::new();
        let x = g.input(Tensor::rand_uniform(&mut rng, &[4, 1, 16, 16], 0.0, 1.0));
        let out = disc.forward(&mut g, &ps_d, x, false);
        assert_eq!(g.value(out).shape(), &[4, 1]);
    }

    #[test]
    fn frozen_discriminator_gets_no_grads() {
        let (gen, disc, mut ps_g, mut ps_d, mut rng) = setup();
        let mut g = Graph::new();
        let z = g.input(Tensor::randn(&mut rng, &[2, 16], 1.0));
        let fake = gen.forward(&mut g, &mut ps_g, z, true);
        let d = disc.forward(&mut g, &ps_d, fake, true);
        let ones = Tensor::ones(&[2, 1]);
        let loss = g.bce_with_logits(d, &ones);
        let grads = g.backward(loss);
        g.write_grads(&grads, &mut ps_g);
        g.write_grads(&grads, &mut ps_d);
        assert!(ps_g.grad_norm() > 0.0, "generator must receive gradients");
        assert_eq!(ps_d.grad_norm(), 0.0, "frozen discriminator must not");
    }

    #[test]
    fn gan_step_runs_and_improves_discrimination() {
        let (gen, disc, mut ps_g, mut ps_d, mut rng) = setup();
        let mut opt_g = Adam::with_betas(2e-3, 0.5, 0.999);
        let mut opt_d = Adam::with_betas(2e-3, 0.5, 0.999);
        let mut first_d = 0.0;
        let mut last_d = 0.0;
        for i in 0..12 {
            let real = real_shape_batch(&mut rng, Shape::Star, 8, 16);
            let (d, _g) = gan_step(
                &gen, &disc, &mut ps_g, &mut ps_d, &mut opt_g, &mut opt_d, &real, &mut rng,
            );
            if i == 0 {
                first_d = d;
            }
            last_d = d;
            assert!(d.is_finite());
        }
        // the discriminator should at least beat its starting loss
        assert!(last_d < first_d, "d loss {first_d} -> {last_d}");
    }

    #[test]
    fn real_batches_look_like_shapes() {
        let mut rng = StdRng::seed_from_u64(5);
        let b = real_shape_batch(&mut rng, Shape::Circle, 4, 16);
        assert_eq!(b.shape(), &[4, 1, 16, 16]);
        // dark shape on light background: both tails present
        assert!(b.min() < 0.2);
        assert!(b.max() > 0.8);
    }

    #[test]
    fn both_networks_validate_cleanly() {
        let (gen, disc, ps_g, ps_d, _) = setup();
        gen.validate(&ps_g, 2).expect("generator wiring");
        disc.validate(&ps_d, 2).expect("discriminator wiring");
    }

    #[test]
    fn validate_catches_wrong_fc_width() {
        let (gen, _, mut ps_g, _, _) = setup();
        // Shrink the fc weight's output so the reshape no longer fits
        // 32 channels of an 4x4 grid.
        let id = ps_g
            .iter()
            .find(|(_, p)| p.name() == "gen.fc.w")
            .map(|(id, _)| id)
            .unwrap();
        *ps_g.get_mut(id).value_mut() = Tensor::zeros(&[100, 16]);
        let issues = gen.validate(&ps_g, 1).unwrap_err();
        let msg: String = issues
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(msg.contains("gen/reshape"), "must name the layer:\n{msg}");
    }

    #[test]
    fn discriminator_infer_matches_tape_bitwise() {
        let (_, disc, _, ps_d, mut rng) = setup();
        let x0 = Tensor::rand_uniform(&mut rng, &[5, 1, 16, 16], 0.0, 1.0);
        let mut g = Graph::new();
        let x = g.input(x0.clone());
        let out = disc.forward(&mut g, &ps_d, x, true);
        let tape = g.value(out).clone();
        let compiled = disc.infer(&ps_d, &x0);
        assert_eq!(tape.shape(), compiled.shape());
        assert_eq!(
            tape.data(),
            compiled.data(),
            "compiled discriminator must be bitwise-identical to the tape"
        );
    }

    #[test]
    fn generator_infer_matches_tape_bitwise() {
        let (gen, _, mut ps_g, _, mut rng) = setup();
        let z0 = Tensor::randn(&mut rng, &[5, 16], 1.0);
        let mut g = Graph::new();
        let z = g.input(z0.clone());
        let out = gen.forward(&mut g, &mut ps_g, z, false);
        let tape = g.value(out).clone();
        let compiled = gen.infer(&ps_g, &z0);
        assert_eq!(tape.shape(), compiled.shape());
        assert_eq!(
            tape.data(),
            compiled.data(),
            "compiled generator must be bitwise-identical to the tape"
        );
    }

    #[test]
    fn generator_is_deterministic_in_eval() {
        let (gen, _, mut ps_g, _, mut rng) = setup();
        let z0 = Tensor::randn(&mut rng, &[1, 16], 1.0);
        let run = |ps: &mut ParamSet| {
            let mut g = Graph::new();
            let z = g.input(z0.clone());
            let o = gen.forward(&mut g, ps, z, false);
            g.value(o).clone()
        };
        assert_eq!(run(&mut ps_g), run(&mut ps_g));
    }
}
