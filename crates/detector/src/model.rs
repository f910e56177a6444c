//! The scaled YOLOv3-tiny model.
//!
//! Structure follows darknet's `yolov3-tiny.cfg` — conv/BN/leaky blocks
//! separated by max-pools, a coarse stride-32 head, and a routed,
//! upsampled, concatenated fine stride-16 head — with channel widths
//! reduced so the network trains in seconds on CPU (see DESIGN.md's
//! scaling table). The paper fine-tunes from `darknet53.conv.74`; we train
//! from Kaiming initialization on the procedural dataset instead.

use std::sync::OnceLock;

use rand::Rng;

use rd_tensor::{
    fold_running_stats, init, BatchStats, Graph, InferPlan, ParamId, ParamSet, Tensor, TrainPlan,
    VarId,
};

use crate::anchors::ANCHORS_PER_HEAD;

const BN_EPS: f32 = 1e-5;
/// Running-stat momentum of every batch norm, on the tape and compiled
/// training paths alike.
pub(crate) const BN_MOMENTUM: f32 = 0.9;
const LEAKY_SLOPE: f32 = 0.1;

/// Batch statistics collected during a training forward, folded into
/// the running-stat parameters after the graph is built.
type PendingStats = Vec<(ParamId, ParamId, BatchStats)>;

/// Batch-norm mode for the single shared block-forward: training mode
/// uses batch statistics (collecting them for a deferred running-stat
/// update), eval mode reads the frozen running statistics.
enum BnMode<'s> {
    Train(&'s mut PendingStats),
    Eval,
}

/// Conv + batch-norm + leaky-ReLU block (darknet's `[convolutional]` with
/// `batch_normalize=1`).
#[derive(Debug)]
struct ConvBlock {
    w: ParamId,
    gamma: ParamId,
    beta: ParamId,
    running_mean: ParamId,
    running_var: ParamId,
    stride: usize,
    pad: usize,
}

impl ConvBlock {
    #[allow(clippy::too_many_arguments)]
    fn new<R: Rng>(
        ps: &mut ParamSet,
        rng: &mut R,
        name: &str,
        cin: usize,
        cout: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        ConvBlock {
            w: ps.register(
                format!("{name}.w"),
                init::kaiming_conv(rng, cout, cin, k, k),
            ),
            gamma: ps.register(format!("{name}.gamma"), Tensor::ones(&[cout])),
            beta: ps.register(format!("{name}.beta"), Tensor::zeros(&[cout])),
            running_mean: ps.register(format!("{name}.rmean"), Tensor::zeros(&[cout])),
            running_var: ps.register(format!("{name}.rvar"), Tensor::ones(&[cout])),
            stride,
            pad,
        }
    }

    /// The single conv/bn/leaky graph builder both modes share. In
    /// training mode the momentum update of the running statistics is
    /// *not* applied here — the batch stats are pushed onto `mode`'s
    /// pending list and folded in by [`TinyYolo::forward`] once the
    /// whole graph is built (running stats are never read in training
    /// mode, so the deferral is bitwise-neutral).
    fn fwd(&self, g: &mut Graph, ps: &ParamSet, x: VarId, mode: &mut BnMode<'_>) -> VarId {
        let w = g.param(ps, self.w);
        let y = g.conv2d(x, w, None, self.stride, self.pad);
        let gamma = g.param(ps, self.gamma);
        let beta = g.param(ps, self.beta);
        let (rm, rv) = (self.running_mean, self.running_var);
        let y = match mode {
            BnMode::Train(pending) => {
                let (y, stats) = g.batch_norm2d_train(y, gamma, beta, rm, rv, BN_EPS);
                pending.push((rm, rv, stats));
                y
            }
            BnMode::Eval => g.batch_norm2d_eval(y, gamma, beta, ps, rm, rv, BN_EPS),
        };
        g.leaky_relu(y, LEAKY_SLOPE)
    }
}

/// Plain conv with bias and no activation (darknet's detection conv).
#[derive(Debug)]
struct HeadConv {
    w: ParamId,
    b: ParamId,
}

impl HeadConv {
    fn new<R: Rng>(
        ps: &mut ParamSet,
        rng: &mut R,
        name: &str,
        cin: usize,
        cout: usize,
        obj_bias: f32,
        channels_per_anchor: usize,
    ) -> Self {
        let mut bias = Tensor::zeros(&[cout]);
        // start objectness strongly negative so the untrained detector is
        // quiet (standard focal-style initialization)
        for a in 0..cout / channels_per_anchor {
            bias.data_mut()[a * channels_per_anchor + 4] = obj_bias;
        }
        HeadConv {
            w: ps.register(
                format!("{name}.w"),
                init::kaiming_conv(rng, cout, cin, 1, 1),
            ),
            b: ps.register(format!("{name}.b"), bias),
        }
    }

    fn forward(&self, g: &mut Graph, ps: &ParamSet, x: VarId) -> VarId {
        let w = g.param(ps, self.w);
        let b = g.param(ps, self.b);
        g.conv2d(x, w, Some(b), 1, 0)
    }
}

/// Configuration of the scaled detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct YoloConfig {
    /// Square input size in pixels (must be divisible by 32).
    pub input: usize,
    /// Number of object classes.
    pub num_classes: usize,
}

impl YoloConfig {
    /// Standard 96x96 configuration for the 5-class road dataset.
    pub fn standard() -> Self {
        YoloConfig {
            input: 96,
            num_classes: 5,
        }
    }

    /// Smoke-scale 64x64 configuration.
    pub fn smoke() -> Self {
        YoloConfig {
            input: 64,
            num_classes: 5,
        }
    }

    /// Channels per head: `anchors * (5 + classes)`.
    pub fn head_channels(&self) -> usize {
        ANCHORS_PER_HEAD * (5 + self.num_classes)
    }
}

/// Raw head outputs of one forward pass.
#[derive(Debug, Clone, Copy)]
pub struct YoloOutputs {
    /// Coarse head `[N, A*(5+C), S32, S32]`.
    pub coarse: VarId,
    /// Fine head `[N, A*(5+C), S16, S16]`.
    pub fine: VarId,
}

/// The scaled YOLOv3-tiny detector.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use rd_detector::{TinyYolo, YoloConfig};
/// use rd_tensor::{Graph, ParamSet, Tensor};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut ps = ParamSet::new();
/// let model = TinyYolo::new(&mut ps, &mut rng, YoloConfig::smoke());
/// let mut g = Graph::new();
/// let x = g.input(Tensor::zeros(&[1, 3, 64, 64]));
/// let out = model.forward(&mut g, &mut ps, x, false);
/// assert_eq!(g.value(out.coarse).shape(), &[1, 30, 2, 2]);
/// assert_eq!(g.value(out.fine).shape(), &[1, 30, 4, 4]);
/// ```
#[derive(Debug)]
pub struct TinyYolo {
    cfg: YoloConfig,
    c1: ConvBlock,
    c2: ConvBlock,
    c3: ConvBlock,
    c4: ConvBlock,
    c5: ConvBlock,
    c6: ConvBlock,
    c7: ConvBlock,
    head1_pre: ConvBlock,
    head1: HeadConv,
    route: ConvBlock,
    head2_pre: ConvBlock,
    head2: HeadConv,
    /// Lazily compiled grad-free inference plan (architecture-only —
    /// weights are read fresh from the `ParamSet` on every execution, so
    /// the cached plan survives weight updates).
    plan: OnceLock<InferPlan>,
    /// Lazily compiled training-mode gradient plan (batch-statistics
    /// batch norm) for the compiled detector training step.
    train_plan: OnceLock<TrainPlan>,
    /// Lazily compiled eval-mode gradient plan (frozen running stats)
    /// for input-gradient work against the frozen detector (the attack
    /// loop).
    grad_plan: OnceLock<TrainPlan>,
}

/// Backbone channel widths (the full YOLOv3-tiny uses
/// 16-32-64-128-256-512; we divide by 4 and trim the tail).
const WIDTHS: [usize; 7] = [8, 16, 32, 64, 96, 128, 64];

impl TinyYolo {
    /// Builds a freshly initialized detector, registering all parameters.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.input` is not divisible by 32.
    pub fn new<R: Rng>(ps: &mut ParamSet, rng: &mut R, cfg: YoloConfig) -> Self {
        assert_eq!(cfg.input % 32, 0, "input size must be divisible by 32");
        let hc = cfg.head_channels();
        let cpa = 5 + cfg.num_classes;
        TinyYolo {
            cfg,
            c1: ConvBlock::new(ps, rng, "c1", 3, WIDTHS[0], 3, 1, 1),
            c2: ConvBlock::new(ps, rng, "c2", WIDTHS[0], WIDTHS[1], 3, 1, 1),
            c3: ConvBlock::new(ps, rng, "c3", WIDTHS[1], WIDTHS[2], 3, 1, 1),
            c4: ConvBlock::new(ps, rng, "c4", WIDTHS[2], WIDTHS[3], 3, 1, 1),
            c5: ConvBlock::new(ps, rng, "c5", WIDTHS[3], WIDTHS[4], 3, 1, 1),
            c6: ConvBlock::new(ps, rng, "c6", WIDTHS[4], WIDTHS[5], 3, 1, 1),
            c7: ConvBlock::new(ps, rng, "c7", WIDTHS[5], WIDTHS[6], 1, 1, 0),
            head1_pre: ConvBlock::new(ps, rng, "h1pre", WIDTHS[6], WIDTHS[5], 3, 1, 1),
            head1: HeadConv::new(ps, rng, "h1", WIDTHS[5], hc, -2.0, cpa),
            route: ConvBlock::new(ps, rng, "route", WIDTHS[6], 32, 1, 1, 0),
            head2_pre: ConvBlock::new(ps, rng, "h2pre", WIDTHS[4] + 32, WIDTHS[5], 3, 1, 1),
            head2: HeadConv::new(ps, rng, "h2", WIDTHS[5], hc, -2.0, cpa),
            plan: OnceLock::new(),
            train_plan: OnceLock::new(),
            grad_plan: OnceLock::new(),
        }
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> YoloConfig {
        self.cfg
    }

    /// The single source of truth for the network graph: both batch-norm
    /// modes build exactly this structure, so training and eval can never
    /// drift apart layer-wise.
    fn forward_mode(
        &self,
        g: &mut Graph,
        ps: &ParamSet,
        x: VarId,
        mode: &mut BnMode<'_>,
    ) -> YoloOutputs {
        let shape = g.shape(x);
        assert_eq!(shape.len(), 4, "input must be NCHW");
        assert_eq!(shape[1], 3, "input must be RGB");
        assert_eq!(shape[2], self.cfg.input, "input height mismatch");
        assert_eq!(shape[3], self.cfg.input, "input width mismatch");

        let y = g.scoped("c1", |g| self.c1.fwd(g, ps, x, mode));
        let y = g.max_pool2d(y, 2, 2, 0);
        let y = g.scoped("c2", |g| self.c2.fwd(g, ps, y, mode));
        let y = g.max_pool2d(y, 2, 2, 0);
        let y = g.scoped("c3", |g| self.c3.fwd(g, ps, y, mode));
        let y = g.max_pool2d(y, 2, 2, 0);
        let y = g.scoped("c4", |g| self.c4.fwd(g, ps, y, mode));
        let y = g.max_pool2d(y, 2, 2, 0);
        let feat16 = g.scoped("c5", |g| self.c5.fwd(g, ps, y, mode)); // stride 16
        let y = g.max_pool2d(feat16, 2, 2, 0);
        let y = g.scoped("c6", |g| self.c6.fwd(g, ps, y, mode));
        let bottleneck = g.scoped("c7", |g| self.c7.fwd(g, ps, y, mode)); // stride 32

        // coarse head
        let h1 = g.scoped("h1pre", |g| self.head1_pre.fwd(g, ps, bottleneck, mode));
        let coarse = g.scoped("h1", |g| self.head1.forward(g, ps, h1));

        // fine head: bottleneck -> 1x1 -> upsample -> concat(feat16)
        let r = g.scoped("route", |g| self.route.fwd(g, ps, bottleneck, mode));
        let r = g.upsample_nearest2x(r);
        let cat = g.concat_channels(feat16, r);
        let h2 = g.scoped("h2pre", |g| self.head2_pre.fwd(g, ps, cat, mode));
        let fine = g.scoped("h2", |g| self.head2.forward(g, ps, h2));

        YoloOutputs { coarse, fine }
    }

    /// Runs the network. `training` selects batch-norm mode (and updates
    /// running statistics inside `ps` when true).
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[N, 3, input, input]`.
    pub fn forward(
        &self,
        g: &mut Graph,
        ps: &mut ParamSet,
        x: VarId,
        training: bool,
    ) -> YoloOutputs {
        if !training {
            return self.forward_frozen(g, ps, x);
        }
        let mut pending = PendingStats::new();
        let out = self.forward_mode(g, ps, x, &mut BnMode::Train(&mut pending));
        // fold batch statistics into the running stats (their gradients
        // are never written, so the optimizer leaves them untouched)
        fold_running_stats(ps, &pending, BN_MOMENTUM);
        out
    }

    /// Eval-mode forward through a *shared* parameter set.
    ///
    /// Identical graph to `forward(..., training=false)`, but takes
    /// `&ParamSet`: batch norm reads running statistics and nothing in
    /// `ps` is mutated, so the attack loop's frame workers can build
    /// independent tapes concurrently against one frozen detector.
    pub fn forward_frozen(&self, g: &mut Graph, ps: &ParamSet, x: VarId) -> YoloOutputs {
        self.forward_mode(g, ps, x, &mut BnMode::Eval)
    }

    /// [`TinyYolo::forward_mode`] traced on a shape-only tape over a
    /// `batch`-sized input: eval-mode batch norm, or batch statistics
    /// with `train_bn`. The compiled plans lower this trace at batch 1 and
    /// [`TinyYolo::validate`] checks it, so both see the network that
    /// runs.
    fn trace(&self, ps: &ParamSet, batch: usize, train_bn: bool) -> (Graph, YoloOutputs) {
        let mut g = Graph::shape_only();
        let s = self.cfg.input;
        let x = g.input(Tensor::zeros(&[batch, 3, s, s]));
        let mut pending = PendingStats::new();
        let mut mode = if train_bn {
            BnMode::Train(&mut pending)
        } else {
            BnMode::Eval
        };
        let out = self.forward_mode(&mut g, ps, x, &mut mode);
        (g, out)
    }

    /// The compiled grad-free inference plan for this architecture,
    /// built on first use from the shape-only trace.
    ///
    /// The plan stores only structure (op list, buffer sizes, parameter
    /// ids); [`TinyYolo::infer`] reads weights out of the `ParamSet` at
    /// execution time, so the cached plan stays valid across training
    /// steps and checkpoint restores.
    pub fn infer_plan(&self, ps: &ParamSet) -> &InferPlan {
        self.plan.get_or_init(|| {
            let (g, out) = self.trace(ps, 1, false);
            let plan = InferPlan::compile(&g, &[out.coarse, out.fine])
                .expect("TinyYolo lowering must compile to an inference plan");
            rd_analysis::audit_plan_or_panic("detector/infer", &plan.meta(), ps);
            plan
        })
    }

    /// The compiled training-step plan (batch-statistics batch norm),
    /// built on first use from the training-mode trace.
    ///
    /// Like [`TinyYolo::infer_plan`] the plan stores only structure;
    /// weights and running stats are read from the `ParamSet` per step,
    /// so the cached plan stays valid across updates and restores.
    pub fn train_plan(&self, ps: &ParamSet) -> &TrainPlan {
        self.train_plan.get_or_init(|| {
            let (g, out) = self.trace(ps, 1, true);
            let plan = TrainPlan::compile(&g, &[out.coarse, out.fine])
                .expect("TinyYolo train lowering must compile to a training plan");
            rd_analysis::audit_plan_or_panic("detector/train", &plan.meta(), ps);
            plan
        })
    }

    /// The compiled eval-mode gradient plan (frozen running statistics):
    /// a [`TrainPlan`] over the same trace as the inference plan, for
    /// paths that need gradients *through* the frozen detector — the
    /// attack loop's input-gradient computation.
    pub fn grad_plan(&self, ps: &ParamSet) -> &TrainPlan {
        self.grad_plan.get_or_init(|| {
            let (g, out) = self.trace(ps, 1, false);
            let plan = TrainPlan::compile(&g, &[out.coarse, out.fine])
                .expect("TinyYolo eval lowering must compile to a gradient plan");
            rd_analysis::audit_plan_or_panic("detector/grad", &plan.meta(), ps);
            plan
        })
    }

    /// Tape-free batched forward: runs the compiled plan on `x`
    /// (`[N, 3, input, input]`) and returns `(coarse, fine)` head
    /// tensors, bitwise-identical to [`TinyYolo::forward_frozen`] on the
    /// same weights at any worker-pool thread count.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[N, 3, input, input]` with `N >= 1`.
    pub fn infer(&self, ps: &ParamSet, x: &Tensor) -> (Tensor, Tensor) {
        let mut out = self.infer_plan(ps).execute(ps, x);
        let fine = out.pop().expect("plan has two roots");
        let coarse = out.pop().expect("plan has two roots");
        (coarse, fine)
    }

    /// Statically validates the wiring of the model against the parameter
    /// shapes registered in `ps`, before any kernel runs, by checking the
    /// eval forward's shape-only trace. Returns every shape inconsistency
    /// found, each anchored to the offending layer's scope path (e.g.
    /// `c4/conv2d: conv2d weight OC×C×K×K has C=16, input NCHW has
    /// C=32`).
    pub fn validate(
        &self,
        ps: &ParamSet,
        batch: usize,
    ) -> Result<(), Vec<rd_analysis::ShapeIssue>> {
        let (g, out) = self.trace(ps, batch, false);
        rd_analysis::validate_with_root(&g, out.fine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build(cfg: YoloConfig) -> (TinyYolo, ParamSet) {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = ParamSet::new();
        let m = TinyYolo::new(&mut ps, &mut rng, cfg);
        (m, ps)
    }

    #[test]
    fn output_shapes_standard() {
        let (m, mut ps) = build(YoloConfig::standard());
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros(&[2, 3, 96, 96]));
        let out = m.forward(&mut g, &mut ps, x, false);
        assert_eq!(g.value(out.coarse).shape(), &[2, 30, 3, 3]);
        assert_eq!(g.value(out.fine).shape(), &[2, 30, 6, 6]);
    }

    #[test]
    fn parameter_count_is_modest() {
        let (_, ps) = build(YoloConfig::standard());
        let n = ps.num_scalars();
        assert!(n > 100_000, "suspiciously small model: {n}");
        assert!(n < 1_500_000, "model too large for CPU training: {n}");
    }

    #[test]
    fn training_mode_updates_running_stats() {
        let (m, mut ps) = build(YoloConfig::smoke());
        let mut rng = StdRng::seed_from_u64(2);
        let before: Vec<f32> = ps
            .iter()
            .filter(|(_, p)| p.name().ends_with(".rmean"))
            .flat_map(|(_, p)| p.value().data().to_vec())
            .collect();
        let mut g = Graph::new();
        let x = g.input(Tensor::randn(&mut rng, &[2, 3, 64, 64], 1.0));
        let _ = m.forward(&mut g, &mut ps, x, true);
        let after: Vec<f32> = ps
            .iter()
            .filter(|(_, p)| p.name().ends_with(".rmean"))
            .flat_map(|(_, p)| p.value().data().to_vec())
            .collect();
        assert_ne!(before, after, "running means should move in training");
    }

    #[test]
    fn eval_mode_is_deterministic_and_stats_frozen() {
        let (m, mut ps) = build(YoloConfig::smoke());
        let mut rng = StdRng::seed_from_u64(3);
        let x0 = Tensor::randn(&mut rng, &[1, 3, 64, 64], 1.0);
        let run = |ps: &mut ParamSet| {
            let mut g = Graph::new();
            let x = g.input(x0.clone());
            let out = m.forward(&mut g, ps, x, false);
            g.value(out.coarse).clone()
        };
        let a = run(&mut ps);
        let b = run(&mut ps);
        assert_eq!(a, b);
    }

    #[test]
    fn gradients_reach_the_input() {
        // The whole attack depends on d(logits)/d(input pixels) != 0.
        let (m, mut ps) = build(YoloConfig::smoke());
        let mut rng = StdRng::seed_from_u64(4);
        let mut g = Graph::new();
        let x = g.input(Tensor::randn(&mut rng, &[1, 3, 64, 64], 0.5));
        let out = m.forward(&mut g, &mut ps, x, false);
        let s1 = g.sum_all(out.coarse);
        let s2 = g.sum_all(out.fine);
        let loss = g.add(s1, s2);
        let grads = g.backward(loss);
        assert!(grads.get(x).sq_norm() > 0.0, "no gradient at the input");
    }

    #[test]
    fn validate_accepts_well_formed_model() {
        let (m, ps) = build(YoloConfig::standard());
        m.validate(&ps, 2)
            .expect("well-formed model must validate cleanly");
    }

    #[test]
    fn validate_names_the_miswired_layer() {
        let (m, mut ps) = build(YoloConfig::standard());
        // Seed a wiring bug: c4's weight claims 16 input channels while
        // its input (c3's output) carries 32.
        let id = ps
            .iter()
            .find(|(_, p)| p.name() == "c4.w")
            .map(|(id, _)| id)
            .unwrap();
        *ps.get_mut(id).value_mut() = Tensor::zeros(&[64, 16, 3, 3]);
        let issues = m.validate(&ps, 1).unwrap_err();
        let msg: String = issues
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(
            msg.contains("c4/conv2d"),
            "issue must name the layer:\n{msg}"
        );
        assert!(
            msg.contains("C=16") && msg.contains("C=32"),
            "issue must carry both channel counts:\n{msg}"
        );
        // the mis-wiring must not cascade into reports for every later layer
        assert!(issues.len() <= 3, "claimed-shape recovery failed:\n{msg}");
    }

    #[test]
    fn objectness_bias_starts_negative() {
        let (m, ps) = build(YoloConfig::smoke());
        let _ = m;
        let bias = ps
            .iter()
            .find(|(_, p)| p.name() == "h1.b")
            .map(|(_, p)| p.value().clone())
            .unwrap();
        assert_eq!(bias.data()[4], -2.0);
        assert_eq!(bias.data()[14], -2.0);
        assert_eq!(bias.data()[0], 0.0);
    }
}
