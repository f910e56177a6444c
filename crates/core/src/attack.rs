//! The road-decal attack: joint GAN + EOT + consecutive-frame training
//! (the paper's Eq. 1 pipeline, Fig. 1).
//!
//! Every optimization step synthesizes **one** monochrome decal from the
//! generator, stamps `N` EOT-transformed copies around the victim in each
//! of `clips x frames` camera views (a batch is made of *consecutive*
//! frames of the same drive — the paper's key trick), pushes the whole
//! batch through the frozen detector, and minimizes
//! `L_adv + α · L_f` where `L_f` is the targeted cross-entropy of Eq. 2.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use rd_detector::loss::{targeted_class_loss, AttackCell};
use rd_detector::{GradHook, TinyYolo};
use rd_eot::{adjust_placement, apply_photometric, EotConfig, TransformSample};
use rd_gan::{real_shape_batch, Discriminator, GanConfig, Generator};
use rd_scene::{AngleSetting, CameraPose, ObjectClass, Speed};
use rd_tensor::io::{Checkpoint, CheckpointError};
use rd_tensor::optim::{Adam, StepOutcome};
use rd_tensor::{Graph, LinearMap, ParamSet, Runtime, Tensor, VarId};
use rd_vision::compose::paste_patch;
use rd_vision::shapes::{mask, Shape};
use rd_vision::Plane;

use crate::decal::Decal;
use crate::scenario::AttackScenario;

/// Attack hyper-parameters (defaults follow §IV-A where CPU budgets
/// allow; see DESIGN.md's scaling table).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackConfig {
    /// Decal silhouette.
    pub shape: Shape,
    /// Class the detector should report (`t` in Eq. 2).
    pub target_class: ObjectClass,
    /// EOT tricks and ranges.
    pub eot: EotConfig,
    /// Frames per clip (3 = the paper's setting; 1 = "w/o consecutive
    /// frames").
    pub consecutive_frames: usize,
    /// Clips per batch (paper: batch 18 = 6 clips x 3 frames).
    pub clips_per_batch: usize,
    /// Optimization steps.
    pub steps: usize,
    /// Generator/discriminator Adam learning rate.
    pub lr: f32,
    /// Attack-term weight α (paper: 0.5).
    pub alpha: f32,
    /// Objectness weight inside `L_f` (0 = the pure Eq. 2 class term).
    pub obj_weight: f32,
    /// Realism-term weight on the generator's adversarial loss.
    pub gan_weight: f32,
    /// Run a discriminator step every `d_every` generator steps.
    pub d_every: usize,
    /// RNG seed.
    pub seed: u64,
    /// Opt-in graph auditing: validate detector/GAN wiring before the
    /// first step, lint the first step's tape, and scan every step's tape
    /// for non-finite values with provenance reports (`--audit` on the
    /// train/repro binaries). Audit runs take each frame's frozen
    /// detector through the tape instead of the compiled gradient plan
    /// (bitwise-identical), so those checks see the full graph.
    pub audit: bool,
}

impl AttackConfig {
    /// Paper-faithful settings at reproduction scale.
    pub fn paper() -> Self {
        AttackConfig {
            shape: Shape::Star,
            target_class: ObjectClass::Bicycle,
            eot: EotConfig::paper(),
            consecutive_frames: 3,
            clips_per_batch: 6,
            steps: 300,
            lr: 4e-3,
            alpha: 1.5,
            obj_weight: 0.7,
            gan_weight: 0.06,
            d_every: 2,
            seed: 7,
            audit: false,
        }
    }

    /// Fast settings for tests.
    pub fn smoke() -> Self {
        AttackConfig {
            steps: 6,
            clips_per_batch: 2,
            ..Self::paper()
        }
    }

    /// The single-frame ablation ("w/o 3 consecutive frames"): identical
    /// batch size, but every batch element is an *independent* frame.
    pub fn without_consecutive_frames(mut self) -> Self {
        self.clips_per_batch *= self.consecutive_frames;
        self.consecutive_frames = 1;
        self
    }

    /// Total frames per optimization batch.
    pub fn batch_frames(&self) -> usize {
        self.consecutive_frames * self.clips_per_batch
    }
}

/// The result of an attack run.
#[derive(Debug, Clone)]
pub struct TrainedDecal {
    /// The synthesized decal (monochrome).
    pub decal: Decal,
    /// Attack-loss (`L_f`) per step.
    pub attack_loss: Vec<f32>,
    /// Generator adversarial loss per step.
    pub adv_loss: Vec<f32>,
}

/// Samples the camera state for one training clip: a random point along a
/// random drive (speed × angle × distance), then `frames` consecutive
/// poses of that drive.
fn sample_clip_poses<R: Rng>(rng: &mut R, frames: usize, fps: f32) -> Vec<CameraPose> {
    let speed = Speed::ALL[rng.gen_range(0..3)];
    let angle = AngleSetting::ALL[rng.gen_range(0..3)];
    let step = speed.m_per_frame(fps);
    // Start far enough out that the 1.5 m near-plane floor is never hit
    // mid-clip: a low z0 draw would otherwise clamp consecutive frames to
    // identical poses, defeating the consecutive-frames premise.
    let travel = step * frames.saturating_sub(1) as f32;
    let z0 = rng.gen_range((1.5 + travel)..(4.4 + travel));
    let lateral = rng.gen_range(-0.15..0.15);
    (0..frames)
        .map(|f| CameraPose {
            z_near: (z0 - step * f as f32).max(1.5),
            lateral_m: lateral + rng.gen_range(-0.03..0.03),
            yaw: angle.yaw() + rng.gen_range(-0.02..0.02),
            roll: rng.gen_range(-0.03..0.03),
        })
        .collect()
}

/// Samples one pose with the victim guaranteed in view.
pub(crate) fn sample_visible_pose<R: Rng>(
    scenario: &AttackScenario,
    rng: &mut R,
    fps: f32,
) -> CameraPose {
    sample_visible_clip(scenario, rng, 1, fps)[0]
}

/// Samples clip poses, retrying until the victim is in view on the first
/// frame (rigs with tight fields of view can otherwise lose it).
pub(crate) fn sample_visible_clip<R: Rng>(
    scenario: &AttackScenario,
    rng: &mut R,
    frames: usize,
    fps: f32,
) -> Vec<CameraPose> {
    for _ in 0..16 {
        let poses = sample_clip_poses(rng, frames, fps);
        if scenario.victim_box(&poses[0]).is_some() {
            return poses;
        }
    }
    // deterministic fallback: a close straight-ahead clip
    (0..frames)
        .map(|f| CameraPose::at_distance(2.2 - 0.05 * f as f32))
        .collect()
}

/// Every `(anchor, cy, cx)` position whose cell centre falls inside the
/// victim box, for one head. The victim spans many cells, and the
/// detection that wins NMS can come from any of them, so the attack
/// targets them all.
pub fn victim_cells(vb: &rd_scene::GtBox, grid: usize) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    for cy in 0..grid {
        for cx in 0..grid {
            let ccx = (cx as f32 + 0.5) / grid as f32;
            let ccy = (cy as f32 + 0.5) / grid as f32;
            if (ccx - vb.cx).abs() < vb.w / 2.0 && (ccy - vb.cy).abs() < vb.h / 2.0 {
                for anchor in 0..rd_detector::anchors::ANCHORS_PER_HEAD {
                    out.push((anchor, cy, cx));
                }
            }
        }
    }
    if out.is_empty() {
        // thin box between cell centres: fall back to the containing cell
        let cy = ((vb.cy * grid as f32) as usize).min(grid - 1);
        let cx = ((vb.cx * grid as f32) as usize).min(grid - 1);
        for anchor in 0..rd_detector::anchors::ANCHORS_PER_HEAD {
            out.push((anchor, cy, cx));
        }
    }
    out
}

/// The attacked cells of a batch on both detector heads, each tagged
/// with its sample's batch index.
#[derive(Default)]
pub(crate) struct VictimCells {
    coarse: Vec<AttackCell>,
    fine: Vec<AttackCell>,
}

impl VictimCells {
    /// Adds sample `n`'s [`victim_cells`] on the coarse (stride 32) and
    /// fine (stride 16) heads of a detector with `input`-pixel frames.
    pub(crate) fn push(&mut self, n: usize, vb: &rd_scene::GtBox, input: usize) {
        for (cells, grid) in [(&mut self.coarse, input / 32), (&mut self.fine, input / 16)] {
            cells.extend(
                victim_cells(vb, grid)
                    .into_iter()
                    .map(|(anchor, cy, cx)| AttackCell { n, anchor, cy, cx }),
            );
        }
    }
}

/// The targeted attack loss (Eq. 2) of the frozen `detector` on the
/// `images` batch: [`targeted_class_loss`] on each head's `cells`,
/// weighted by that head's share of all cells. Both attacks score their
/// frames here, so their loss and its gradient cannot drift apart.
/// `None` when no cell is attacked.
///
/// By default the detector runs through the cached
/// [`TinyYolo::grad_plan`] with parameter gradients skipped, and the
/// image gradient is bridged back onto `g` through one custom node. With
/// `tape` set it runs [`TinyYolo::forward_frozen`] on `g` instead, so
/// lints and NaN provenance see the full graph. Both routes are bitwise
/// identical (asserted by `compiled_attack_matches_tape_bitwise` and
/// `compiled_baseline_matches_tape_bitwise`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn frozen_detector_loss(
    g: &mut Graph,
    detector: &TinyYolo,
    ps_det: &ParamSet,
    images: VarId,
    cells: &VictimCells,
    target: ObjectClass,
    obj_weight: f32,
    tape: bool,
) -> Option<VarId> {
    let num_cells = cells.coarse.len() + cells.fine.len();
    if num_cells == 0 {
        return None;
    }
    let num_classes = detector.config().num_classes;
    let heads_loss = |g: &mut Graph, coarse: VarId, fine: VarId| {
        let mut loss: Option<VarId> = None;
        for (preds, head) in [(coarse, &cells.coarse), (fine, &cells.fine)] {
            if head.is_empty() {
                continue;
            }
            let l = targeted_class_loss(g, preds, head, num_classes, target.index(), obj_weight);
            let l = g.scale(l, head.len() as f32 / num_cells as f32);
            loss = Some(match loss {
                Some(prev) => g.add(prev, l),
                None => l,
            });
        }
        loss.expect("cells checked non-empty")
    };
    if tape {
        let outs = detector.forward_frozen(g, ps_det, images);
        return Some(heads_loss(g, outs.coarse, outs.fine));
    }
    let mut step = detector
        .grad_plan(ps_det)
        .forward(ps_det, g.value(images), false);
    let mut mg = Graph::new();
    let coarse = mg.input(step.output(0));
    let fine = mg.input(step.output(1));
    let loss = heads_loss(&mut mg, coarse, fine);
    let loss_val = mg.value(loss).data()[0];
    let mgrads = mg.backward(loss);
    step.backward(ps_det, &[mgrads.get(coarse), mgrads.get(fine)], true);
    let gx = step.input_grad();
    drop(step);
    let ni = images.index();
    Some(g.custom_named(
        "frozen_detector_loss",
        &[images],
        &[("cells", num_cells)],
        Tensor::scalar(loss_val),
        Some(Box::new(move |gout, _vals, grads| {
            grads[ni].add_scaled_assign(&gx, gout.data()[0]);
        })),
    ))
}

/// One frame's pre-sampled randomness and targeting data.
///
/// Every random draw a frame needs is made on the **main** thread in
/// frame order — the EOT transforms directly, the capture channel via a
/// child seed — so the training trajectory is a pure function of the
/// config seed, whatever the worker-thread count.
struct FrameJob {
    pose: CameraPose,
    eot: Vec<TransformSample>,
    capture_seed: u64,
    cells: VictimCells,
}

/// A worker's result for one frame: the attack-loss value, its gradient
/// with respect to the shared patch, and any audit findings.
struct FrameResult {
    loss: f32,
    patch_grad: Tensor,
    audit: Vec<String>,
}

/// Shared read-only state a frame worker needs: the scene, the frozen
/// detector, and the per-run constants common to all frames of a step.
struct FrameCtx<'a> {
    scenario: &'a AttackScenario,
    detector: &'a TinyYolo,
    ps_det: &'a ParamSet,
    cfg: &'a AttackConfig,
    silhouette: &'a Plane,
    blur_maps: &'a [Arc<LinearMap>],
    canvas: usize,
}

/// Renders, composites, and scores one frame on its own batch-1 tape,
/// returning the frame loss `l_i` and `dl_i/dpatch`. Returns `None` when
/// the victim is out of view (no attacked cells, hence no loss).
fn eval_frame(
    ctx: &FrameCtx<'_>,
    job: &FrameJob,
    patch_value: &Tensor,
    lint_tape: bool,
) -> Option<FrameResult> {
    let mut rng = StdRng::seed_from_u64(job.capture_seed);
    let mut g = Graph::new();
    let patch = g.input(patch_value.clone());
    let base = ctx
        .scenario
        .rig
        .render_frame(ctx.scenario.world.canvas(), &job.pose);
    let mut node = g.input(base.to_tensor());
    for (i, placement) in ctx.scenario.decal_placements.iter().enumerate() {
        let ts = &job.eot[i];
        let decal_node = apply_photometric(&mut g, patch, ts);
        let adjusted = adjust_placement(*placement, ts, ctx.canvas);
        let map: Arc<LinearMap> = ctx.scenario.decal_map(i, &job.pose, Some(adjusted)).into();
        node = paste_patch(&mut g, node, decal_node, &map, ctx.silhouette);
    }
    // differentiable capture channel on the *composited* frame
    // (exposure -> gamma -> blur -> noise), mirroring
    // `CaptureModel::apply` so evaluation sees nothing new
    let exposure = (rng.gen_range(-1.0f32..1.0) * 0.08).exp();
    node = g.scale(node, exposure);
    let gamma = (rng.gen_range(-1.0f32..1.0) * 0.08).exp();
    node = g.clamp(node, 0.0, 1.0);
    node = g.powf_const(node, gamma);
    let blur_pick = rng.gen_range(0..ctx.blur_maps.len() + 2);
    if blur_pick < ctx.blur_maps.len() {
        node = g.warp(node, &ctx.blur_maps[blur_pick]);
    }
    let noise = Tensor::rand_uniform(&mut rng, g.value(node).shape(), -0.03, 0.03);
    node = g.add_const(node, &noise);
    node = g.clamp(node, 0.0, 1.0);

    // audit runs take the frozen detector through the frame tape
    let lf = frozen_detector_loss(
        &mut g,
        ctx.detector,
        ctx.ps_det,
        node,
        &job.cells,
        ctx.cfg.target_class,
        ctx.cfg.obj_weight,
        ctx.cfg.audit,
    )?;
    let mut audit = Vec::new();
    if lint_tape {
        for issue in rd_analysis::lint(&g) {
            audit.push(format!("tape: {issue}"));
        }
    }
    if ctx.cfg.audit {
        if let Some(report) = rd_analysis::audit_non_finite(&g) {
            audit.push(report.to_string());
        }
    }
    let loss = g.value(lf).data()[0];
    let grads = g.backward(lf);
    Some(FrameResult {
        loss,
        patch_grad: grads.get(patch).clone(),
        audit,
    })
}

/// Step-wise attack training with full-state snapshot/restore.
///
/// Owns everything `train_decal_attack`'s loop used to hold — the GAN,
/// both optimizers, the annealed latent `z*`, the training RNG and the
/// loss histories — and exposes it one optimizer step at a time. The
/// complete state can be exported as an [`rd_tensor::io::Checkpoint`]
/// and restored bitwise-identically, and a healthy step-wise run matches
/// [`train_decal_attack`] bit for bit (including PR 2's deterministic
/// parallel frame fan-out, whatever the thread count).
pub struct AttackTrainer<'a> {
    scenario: &'a AttackScenario,
    detector: &'a TinyYolo,
    ps_det: &'a mut ParamSet,
    /// Runtime every step/checkpoint/restore re-enters, so one job's
    /// kernels, arena traffic and thread budget never leak across jobs.
    rt: Runtime,
    cfg: AttackConfig,
    rng: StdRng,
    gan_cfg: GanConfig,
    ps_g: ParamSet,
    ps_d: ParamSet,
    gen: Generator,
    disc: Discriminator,
    opt_g: Adam,
    opt_d: Adam,
    silhouette: Plane,
    z_star: Tensor,
    blur_maps: Vec<Arc<LinearMap>>,
    attack_hist: Vec<f32>,
    adv_hist: Vec<f32>,
    real_labels: Tensor,
    fake_labels: Tensor,
    gen_label: Tensor,
    grad_acc: Option<Arc<Tensor>>,
    step: usize,
    canvas: usize,
    fps: f32,
    anneal_at: usize,
}

impl<'a> AttackTrainer<'a> {
    /// Builds the GAN and all run state. Consumes exactly the RNG draws
    /// the original monolithic loop consumed before its first step.
    pub fn new(
        scenario: &'a AttackScenario,
        detector: &'a TinyYolo,
        ps_det: &'a mut ParamSet,
        cfg: &AttackConfig,
    ) -> Self {
        assert!(cfg.consecutive_frames >= 1);
        assert!(cfg.clips_per_batch >= 1);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let canvas = scenario.patch_canvas;
        let gan_cfg = GanConfig {
            z_dim: 16,
            canvas,
            base: 16,
        };
        let mut ps_g = ParamSet::new();
        let mut ps_d = ParamSet::new();
        let gen = Generator::new(&mut ps_g, &mut rng, gan_cfg);
        let disc = Discriminator::new(&mut ps_d, &mut rng, gan_cfg);
        let opt_g = Adam::with_betas(cfg.lr, 0.5, 0.999);
        let opt_d = Adam::with_betas(cfg.lr, 0.5, 0.999);
        if cfg.audit {
            // Fail fast on mis-wired models before any kernel-heavy step runs.
            let mut issues = Vec::new();
            // frames run through the detector on batch-1 worker tapes
            issues.extend(detector.validate(ps_det, 1).err().unwrap_or_default());
            issues.extend(gen.validate(&ps_g, 1).err().unwrap_or_default());
            issues.extend(disc.validate(&ps_d, 1).err().unwrap_or_default());
            assert!(
                issues.is_empty(),
                "graph validation failed:\n{}",
                issues
                    .iter()
                    .map(|i| i.to_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
        let silhouette = mask(cfg.shape, canvas);
        let z_star = Tensor::randn(&mut rng, &[1, gan_cfg.z_dim], 1.0);
        let fps = 18.0;
        // pre-built differentiable motion-blur maps (EOT over capture blur)
        let blur_maps: Vec<Arc<LinearMap>> = (1..=3)
            .map(|r| {
                Arc::new(rd_vision::warp::vertical_box_blur_map(
                    scenario.rig.image_hw,
                    r,
                ))
            })
            .collect();
        AttackTrainer {
            scenario,
            detector,
            ps_det,
            rt: rd_tensor::runtime::current(),
            cfg: *cfg,
            rng,
            gan_cfg,
            ps_g,
            ps_d,
            gen,
            disc,
            opt_g,
            opt_d,
            silhouette,
            z_star,
            blur_maps,
            attack_hist: Vec::with_capacity(cfg.steps),
            adv_hist: Vec::with_capacity(cfg.steps),
            // GAN label constants, hoisted out of the step loop (they
            // never change, so re-allocating them every step was churn).
            real_labels: Tensor::ones(&[8, 1]),
            fake_labels: Tensor::zeros(&[8, 1]),
            gen_label: Tensor::ones(&[1, 1]),
            // Accumulation buffer for the fan-out's patch gradient,
            // reused across steps (each tape only borrows it via `Arc`).
            grad_acc: None,
            step: 0,
            canvas,
            fps,
            // After this step, training locks onto the deployment latent
            // z* so the *single* decal that will be printed gets direct
            // optimization (the paper synthesizes one AP and verifies it
            // digitally before printing).
            anneal_at: cfg.steps * 3 / 5,
        }
    }

    /// Rebinds the trainer to an explicit [`Runtime`]; subsequent steps
    /// and checkpoint work run under it (builder style, for supervised
    /// jobs that pin each attempt to a fresh runtime).
    pub fn with_runtime(mut self, rt: Runtime) -> Self {
        self.rt = rt;
        self
    }

    /// The runtime this trainer's steps execute under.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// Optimizer steps completed (or skipped) so far.
    pub fn steps_done(&self) -> u64 {
        self.step as u64
    }

    /// Total optimizer steps a full run takes.
    pub fn total_steps(&self) -> u64 {
        self.cfg.steps as u64
    }

    /// Whether every step has been consumed.
    pub fn is_done(&self) -> bool {
        self.step >= self.cfg.steps
    }

    /// Scales both optimizers' learning rates relative to the configured
    /// base rate (backoff policy hook; 1.0 restores the base rate).
    pub fn set_lr_scale(&mut self, scale: f32) {
        self.opt_g.set_lr(self.cfg.lr * scale);
        self.opt_d.set_lr(self.cfg.lr * scale);
    }

    /// Current generator learning rate.
    pub fn lr(&self) -> f32 {
        self.opt_g.lr()
    }

    /// Runs one optimizer step. On a non-finite loss or gradient the
    /// generator/discriminator updates are suppressed, the step counter
    /// does **not** advance, and the returned [`StepOutcome::NonFinite`]
    /// carries provenance (offending params plus a tape audit).
    pub fn step(&mut self, hook: Option<GradHook<'_>>) -> StepOutcome {
        let rt = self.rt.clone();
        rt.enter(|| self.run_step(hook, true))
    }

    /// Runs the current step's full sampling and compute but suppresses
    /// both optimizer updates — the runner's last resort once LR backoff
    /// is exhausted. The RNG consumes exactly the draws a real step
    /// would, so the rest of the trajectory stays deterministic.
    pub fn skip_step(&mut self) {
        let rt = self.rt.clone();
        rt.enter(|| self.run_step(None, false));
    }

    fn run_step(&mut self, hook: Option<GradHook<'_>>, apply: bool) -> StepOutcome {
        assert!(!self.is_done(), "step() called on a finished trainer");
        let cfg = self.cfg;
        let step = self.step;
        // ---- discriminator step (keeps the decal shaped like a decal) ----
        if cfg.d_every > 0 && step.is_multiple_of(cfg.d_every) {
            self.ps_d.zero_grads();
            let real = real_shape_batch(&mut self.rng, cfg.shape, 8, self.canvas);
            // detached eval-mode fake; no gradient flows into the
            // generator here
            let z_t = Tensor::randn(&mut self.rng, &[8, self.gan_cfg.z_dim], 1.0);
            let fake_t = self.gen.infer(&self.ps_g, &z_t);
            let mut g = Graph::new();
            let rv = g.input(real);
            let fv = g.input(fake_t);
            let dr = self.disc.forward(&mut g, &self.ps_d, rv, false);
            let df = self.disc.forward(&mut g, &self.ps_d, fv, false);
            let lr_ = g.bce_with_logits(dr, &self.real_labels);
            let lf_ = g.bce_with_logits(df, &self.fake_labels);
            let dl = g.add(lr_, lf_);
            let grads = g.backward(dl);
            g.write_grads(&grads, &mut self.ps_d);
            if apply {
                let dval = g.value(dl).data()[0];
                if let Some(detail) = rd_analysis::non_finite_detail(dval, &self.ps_d, &g) {
                    return StepOutcome::NonFinite {
                        detail: format!("discriminator: {detail}"),
                    };
                }
                self.opt_d.step(&mut self.ps_d);
            }
        }

        // ---- generator step: realism + α · L_f over the frame batch ----
        self.ps_g.zero_grads();
        let mut g = Graph::new();
        let z_t = if step < self.anneal_at {
            Tensor::randn(&mut self.rng, &[1, self.gan_cfg.z_dim], 1.0)
        } else {
            // move z* onto the tape; it is moved back out after the step
            std::mem::replace(&mut self.z_star, Tensor::scalar(0.0))
        };
        let z = g.input(z_t);
        let patch = self.gen.forward(&mut g, &mut self.ps_g, z, true);
        let d_logit = self.disc.forward(&mut g, &self.ps_d, patch, true);
        let l_adv = g.bce_with_logits(d_logit, &self.gen_label);

        // ---- frame fan-out: every random draw happens here, on the
        // main rng, in frame order; the frames themselves (render,
        // composite, frozen detector, per-frame loss + patch gradient)
        // run on the worker pool, one batch-1 tape each ----
        let mut jobs: Vec<FrameJob> = Vec::with_capacity(cfg.batch_frames());
        for _ in 0..cfg.clips_per_batch {
            let poses = sample_visible_clip(
                self.scenario,
                &mut self.rng,
                cfg.consecutive_frames,
                self.fps,
            );
            for pose in poses {
                let eot = cfg
                    .eot
                    .sample_n(&mut self.rng, self.scenario.decal_placements.len());
                let capture_seed = self.rng.next_u64();
                // attacked cells: everywhere the detector could file the
                // victim (both heads, all anchors in the box)
                let mut cells = VictimCells::default();
                if let Some(vb) = self.scenario.victim_box(&pose) {
                    cells.push(0, &vb, self.detector.config().input);
                }
                jobs.push(FrameJob {
                    pose,
                    eot,
                    capture_seed,
                    cells,
                });
            }
        }
        let ctx = FrameCtx {
            scenario: self.scenario,
            detector: self.detector,
            ps_det: self.ps_det,
            cfg: &self.cfg,
            silhouette: &self.silhouette,
            blur_maps: &self.blur_maps,
            canvas: self.canvas,
        };
        let patch_value = g.value(patch);
        let lint_first = cfg.audit && step == 0;
        let results: Vec<Option<FrameResult>> = rd_tensor::parallel::run_indexed(jobs.len(), |i| {
            eval_frame(&ctx, &jobs[i], patch_value, lint_first && i == 0)
        });
        if cfg.audit {
            if step == 0 {
                for issue in rd_analysis::lint(&g) {
                    eprintln!("[audit] step 0 generator tape: {issue}");
                }
            }
            for (i, r) in results.iter().enumerate() {
                for line in r.iter().flat_map(|r| r.audit.iter()) {
                    eprintln!("[audit] step {step} frame {i}: {line}");
                }
            }
        }
        let adv_val = g.value(l_adv).data()[0];

        // ---- deterministic reduction: weighted sum of the per-frame
        // patch gradients, on the calling thread, in frame order ----
        let live: Vec<&FrameResult> = results.iter().flatten().collect();
        // `None` means no frame saw the victim this step — a legitimate
        // no-signal batch, recorded as NaN in the history but NOT a
        // divergence (the loss node itself stays finite).
        let attack_val = if live.is_empty() {
            None
        } else {
            Some(live.iter().map(|r| r.loss).sum::<f32>() / live.len() as f32)
        };
        let loss = if live.is_empty() {
            g.scale(l_adv, cfg.gan_weight)
        } else {
            // L_f = mean_i l_i, plus — in consecutive-frame mode — a
            // quadratic term 0.5/n Σ l_i² that penalizes a clip's worst
            // frames: averages hide single bad frames, but one bad frame
            // breaks the AV's confirmation run. Hence
            // dL_f/dl_i = (1 + l_i)/n (resp. 1/n without the term).
            let n = live.len() as f32;
            let mean_val = attack_val.expect("non-empty");
            let lf_total = if cfg.consecutive_frames > 1 {
                mean_val + live.iter().map(|r| r.loss * r.loss).sum::<f32>() * 0.5 / n
            } else {
                mean_val
            };
            let acc = self
                .grad_acc
                .get_or_insert_with(|| Arc::new(Tensor::zeros(live[0].patch_grad.shape())));
            let buf =
                Arc::get_mut(acc).expect("gradient buffer still held by a previous step's tape");
            buf.data_mut().fill(0.0);
            for r in &live {
                let w = if cfg.consecutive_frames > 1 {
                    (1.0 + r.loss) / n
                } else {
                    1.0 / n
                };
                buf.add_scaled_assign(&r.patch_grad, w);
            }
            let acc_tape = Arc::clone(acc);
            let pi = patch.index();
            let lf_node = g.custom_named(
                "frame_fanout",
                &[patch],
                &[("frames", live.len())],
                Tensor::scalar(lf_total),
                Some(Box::new(move |gout, _vals, grads| {
                    grads[pi].add_scaled_assign(&acc_tape, gout.data()[0]);
                })),
            );
            let a = g.scale(l_adv, cfg.gan_weight);
            let b = g.scale(lf_node, cfg.alpha);
            g.add(a, b)
        };
        let grads = g.backward(loss);
        g.write_grads(&grads, &mut self.ps_g);
        self.ps_g.clip_grad_norm(10.0);
        if let Some(h) = hook {
            h(self.step as u64, &mut self.ps_g);
        }
        let loss_val = g.value(loss).data()[0];
        if apply {
            if let Some(detail) = rd_analysis::non_finite_detail(loss_val, &self.ps_g, &g) {
                if step >= self.anneal_at {
                    // reclaim z* (moved onto the tape above) so a rollback
                    // retry finds the trainer structurally intact
                    self.z_star = g.into_value(z);
                }
                return StepOutcome::NonFinite {
                    detail: format!("generator: {detail}"),
                };
            }
            self.opt_g.step(&mut self.ps_g);
        }
        self.adv_hist.push(adv_val);
        self.attack_hist.push(attack_val.unwrap_or(f32::NAN));
        if step >= self.anneal_at {
            // reclaim z* (moved onto the tape above) without a copy
            self.z_star = g.into_value(z);
        }
        self.step += 1;
        StepOutcome::Ran { loss: loss_val }
    }

    fn fingerprint(&self) -> Vec<u64> {
        vec![
            self.cfg.steps as u64,
            self.cfg.clips_per_batch as u64,
            self.cfg.consecutive_frames as u64,
            self.cfg.seed,
            self.cfg.lr.to_bits() as u64,
            self.canvas as u64,
        ]
    }

    /// Exports the complete training state.
    pub fn checkpoint(&self) -> Checkpoint {
        let mut ck = Checkpoint::new();
        ck.put_params("gen", &self.ps_g);
        ck.put_params("disc", &self.ps_d);
        ck.put_adam("opt_g", &self.opt_g);
        ck.put_adam("opt_d", &self.opt_d);
        ck.put_rng("rng", &self.rng);
        ck.put_u64("step", self.step as u64);
        ck.put_tensors("z_star", vec![self.z_star.clone()]);
        ck.put_f32s("attack_hist", self.attack_hist.clone());
        ck.put_f32s("adv_hist", self.adv_hist.clone());
        ck.put_u64s("fingerprint", self.fingerprint());
        ck
    }

    /// Restores a state exported by [`checkpoint`](Self::checkpoint),
    /// after which training continues bitwise-identically to the run
    /// that produced it.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::StateMismatch`] when the checkpoint
    /// came from a different scenario/config, or a structural error when
    /// sections are missing or malformed.
    pub fn restore(&mut self, ck: &Checkpoint) -> Result<(), CheckpointError> {
        let fp = ck.u64s("fingerprint")?;
        if fp != self.fingerprint() {
            return Err(CheckpointError::StateMismatch(format!(
                "attack checkpoint fingerprint {fp:?} != this run's {:?} \
                 (steps, clips, frames, seed, lr bits, canvas)",
                self.fingerprint()
            )));
        }
        ck.load_params_into("gen", &mut self.ps_g)?;
        ck.load_params_into("disc", &mut self.ps_d)?;
        let mut opt_g = Adam::with_betas(self.cfg.lr, 0.5, 0.999);
        opt_g
            .load_state(ck.get_adam("opt_g")?)
            .map_err(CheckpointError::StateMismatch)?;
        let mut opt_d = Adam::with_betas(self.cfg.lr, 0.5, 0.999);
        opt_d
            .load_state(ck.get_adam("opt_d")?)
            .map_err(CheckpointError::StateMismatch)?;
        let z_star = match ck.tensors("z_star")? {
            [z] => z.clone(),
            other => {
                return Err(CheckpointError::Malformed(format!(
                    "z_star section holds {} tensor(s), expected 1",
                    other.len()
                )))
            }
        };
        if z_star.shape() != [1, self.gan_cfg.z_dim] {
            return Err(CheckpointError::StateMismatch(format!(
                "z_star has shape {:?}, expected [1, {}]",
                z_star.shape(),
                self.gan_cfg.z_dim
            )));
        }
        self.rng = ck.get_rng("rng")?;
        self.step = ck.u64("step")? as usize;
        self.opt_g = opt_g;
        self.opt_d = opt_d;
        self.z_star = z_star;
        self.attack_hist = ck.f32s("attack_hist")?.to_vec();
        self.adv_hist = ck.f32s("adv_hist")?.to_vec();
        Ok(())
    }

    /// Consumes the trainer: candidate decals (the annealed latent plus
    /// a few fresh samples) are scored by digital flip rate — the paper's
    /// protocol verifies digital-world success before printing — and the
    /// best one becomes the final [`TrainedDecal`].
    pub fn finish(self) -> TrainedDecal {
        let rt = self.rt.clone();
        rt.enter(move || self.finish_inner())
    }

    fn finish_inner(self) -> TrainedDecal {
        let AttackTrainer {
            scenario,
            detector,
            ps_det,
            cfg,
            mut rng,
            gan_cfg,
            ps_g,
            gen,
            silhouette,
            z_star,
            attack_hist,
            adv_hist,
            canvas,
            ..
        } = self;
        let mut candidates: Vec<Tensor> = vec![z_star];
        for _ in 0..5 {
            candidates.push(Tensor::randn(&mut rng, &[1, gan_cfg.z_dim], 1.0));
        }
        let val_poses: Vec<CameraPose> = (0..8)
            .map(|i| CameraPose::at_distance(1.4 + 0.4 * i as f32))
            .collect();
        let mut best: Option<(usize, Plane)> = None;
        for z_t in candidates {
            let patch_t = gen.infer(&ps_g, &z_t);
            let plane = Plane::from_vec(patch_t.into_vec(), canvas, canvas);
            let decal = Decal::mono(&plane, silhouette.clone(), cfg.shape);
            let flips = digital_flip_rate(
                scenario,
                &decal,
                detector,
                ps_det,
                cfg.target_class,
                &val_poses,
            );
            if best.as_ref().map(|(b, _)| flips > *b).unwrap_or(true) {
                best = Some((flips, plane));
            }
        }
        let (_, plane) = best.expect("at least one candidate");
        TrainedDecal {
            decal: Decal::mono(&plane, silhouette, cfg.shape),
            attack_loss: attack_hist,
            adv_loss: adv_hist,
        }
    }
}

/// Trains a decal against a frozen detector. `ps_det` is only used for
/// forward passes (weights are never updated).
///
/// Convenience wrapper over [`AttackTrainer`]: runs every step, and on a
/// non-finite loss/gradient skips the offending batch (leaving the GAN
/// untouched) rather than poisoning the weights. For checkpointed,
/// resumable training drive [`AttackTrainer`] directly or through
/// [`crate::runner::TrainRunner`].
pub fn train_decal_attack(
    scenario: &AttackScenario,
    detector: &TinyYolo,
    ps_det: &mut ParamSet,
    cfg: &AttackConfig,
) -> TrainedDecal {
    let mut trainer = AttackTrainer::new(scenario, detector, ps_det, cfg);
    while !trainer.is_done() {
        if let StepOutcome::NonFinite { detail } = trainer.step(None) {
            eprintln!(
                "attack train: skipping batch at step {}: {detail}",
                trainer.steps_done()
            );
            trainer.skip_step();
        }
    }
    trainer.finish()
}

/// Number of validation poses on which the decal flips the victim to the
/// target class (the paper's "ensure APs can successfully misclassify in
/// the digital world" step).
fn digital_flip_rate(
    scenario: &AttackScenario,
    decal: &Decal,
    detector: &TinyYolo,
    ps_det: &ParamSet,
    target: ObjectClass,
    poses: &[CameraPose],
) -> usize {
    let decals = deploy(decal, scenario);
    let mut frames = Vec::with_capacity(poses.len());
    let mut victims = Vec::with_capacity(poses.len());
    for pose in poses {
        let mut frame = scenario.rig.render_frame(scenario.world.canvas(), pose);
        for (i, d) in decals.iter().enumerate() {
            let map = scenario.decal_map(i, pose, None);
            let plane = Plane::from_vec(d.channel_data().to_vec(), d.canvas(), d.canvas());
            rd_vision::compose::paste_plane_map(&mut frame, &plane, d.mask(), &map);
        }
        frames.push(frame);
        victims.push(scenario.victim_box(pose));
    }
    let dets = rd_detector::detect(detector, ps_det, &frames, 0.35);
    dets.iter()
        .zip(&victims)
        .filter(|(dlist, vb)| {
            vb.is_some_and(|vb| crate::eval::classify_victim(dlist, &vb, 0.1) == Some(target))
        })
        .count()
}

/// One trained decal design laid out across a scenario's decal sites.
///
/// The paper prints a single pattern and deploys identical copies at
/// every site, so this stores the design **once** plus a site count
/// instead of materializing one full-canvas `Decal` clone per
/// placement. Iteration yields the shared design `len()` times, which
/// is exactly what the renderers and evaluators consume.
#[derive(Debug, Clone)]
pub struct Deployment {
    decal: Option<Decal>,
    sites: usize,
}

impl Deployment {
    /// The empty deployment (the tables' "w/o attack" rows).
    pub fn none() -> Self {
        Deployment {
            decal: None,
            sites: 0,
        }
    }

    /// Number of decal sites covered by this deployment.
    pub fn len(&self) -> usize {
        self.sites
    }

    /// True when no decal is deployed.
    pub fn is_empty(&self) -> bool {
        self.sites == 0
    }

    /// The shared design, if any decal is deployed.
    pub fn design(&self) -> Option<&Decal> {
        self.decal.as_ref()
    }

    /// Iterates the per-site decals (the same design, [`len`](Self::len)
    /// times) without cloning.
    pub fn iter(&self) -> DeploymentIter<'_> {
        self.into_iter()
    }
}

/// Iterator over a [`Deployment`]'s per-site decals.
#[derive(Debug)]
pub struct DeploymentIter<'a> {
    decal: Option<&'a Decal>,
    left: usize,
}

impl<'a> Iterator for DeploymentIter<'a> {
    type Item = &'a Decal;

    fn next(&mut self) -> Option<&'a Decal> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        self.decal
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for DeploymentIter<'_> {}

impl<'a> IntoIterator for &'a Deployment {
    type Item = &'a Decal;
    type IntoIter = DeploymentIter<'a>;

    fn into_iter(self) -> DeploymentIter<'a> {
        DeploymentIter {
            decal: self.decal.as_ref(),
            left: if self.decal.is_some() { self.sites } else { 0 },
        }
    }
}

/// Deploys one trained decal design at each of the scenario's decal
/// sites. The design is cloned once, however many sites there are.
pub fn deploy(decal: &Decal, scenario: &AttackScenario) -> Deployment {
    Deployment {
        decal: Some(decal.clone()),
        sites: scenario.decal_placements.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_scene::CameraRig;
    use rd_tensor::RuntimeConfig;

    #[test]
    fn config_arithmetic() {
        let cfg = AttackConfig::paper();
        assert_eq!(cfg.batch_frames(), 18);
        let solo = cfg.without_consecutive_frames();
        assert_eq!(solo.consecutive_frames, 1);
        assert_eq!(solo.batch_frames(), 18);
    }

    #[test]
    fn clip_poses_are_consecutive() {
        let mut rng = StdRng::seed_from_u64(4);
        let poses = sample_clip_poses(&mut rng, 3, 18.0);
        assert_eq!(poses.len(), 3);
        assert!(poses[1].z_near < poses[0].z_near);
        assert!(poses[2].z_near < poses[1].z_near);
    }

    #[test]
    fn smoke_attack_produces_a_decal_and_gradients_flow() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ps_det = ParamSet::new();
        let detector = TinyYolo::new(&mut ps_det, &mut rng, rd_detector::YoloConfig::smoke());
        let scenario = AttackScenario::parking_lot(CameraRig::smoke(), 2, 60, 16, 5);
        let cfg = AttackConfig {
            steps: 3,
            clips_per_batch: 1,
            audit: true,
            ..AttackConfig::smoke()
        };
        let out = train_decal_attack(&scenario, &detector, &mut ps_det, &cfg);
        assert_eq!(out.decal.canvas(), 16);
        assert_eq!(out.attack_loss.len(), 3);
        assert!(out.attack_loss.iter().all(|l| l.is_finite()));
        assert!(out.adv_loss.iter().all(|l| l.is_finite()));
        // the decal is monochrome by construction
        assert_eq!(out.decal.num_channels(), 1);
        assert_eq!(out.decal.masked_chroma(), 0.0);
    }

    #[test]
    fn compiled_attack_matches_tape_bitwise() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ps_det = ParamSet::new();
        let detector = TinyYolo::new(&mut ps_det, &mut rng, rd_detector::YoloConfig::smoke());
        let scenario = AttackScenario::parking_lot(CameraRig::smoke(), 2, 60, 16, 5);
        let base = AttackConfig {
            steps: 3,
            clips_per_batch: 1,
            ..AttackConfig::smoke()
        };
        // audit runs take every frame through the tape
        let tape = train_decal_attack(
            &scenario,
            &detector,
            &mut ps_det,
            &AttackConfig {
                audit: true,
                ..base
            },
        );
        // the compiled run goes through a profiling runtime: its plan's
        // ops must land in the profiler under `train/...` paths
        let profiled = Runtime::new(RuntimeConfig {
            profiling: true,
            ..RuntimeConfig::default()
        });
        let (compiled, paths) = profiled.enter(|| {
            let out = train_decal_attack(&scenario, &detector, &mut ps_det, &base);
            (out, rd_tensor::profile::snapshot())
        });
        assert!(
            paths.iter().any(|(path, _)| path.starts_with("train/")),
            "the profiler recorded no train/ op: {:?}",
            paths.iter().map(|(path, _)| path).collect::<Vec<_>>()
        );
        // NaN-safe bitwise comparison (a no-victim batch records NaN)
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&compiled.attack_loss),
            bits(&tape.attack_loss),
            "attack-loss history diverged"
        );
        assert_eq!(
            bits(&compiled.adv_loss),
            bits(&tape.adv_loss),
            "adversarial-loss history diverged"
        );
        assert_eq!(
            compiled.decal.channel_data(),
            tape.decal.channel_data(),
            "trained decal diverged"
        );
    }

    #[test]
    fn deploy_replicates_per_site() {
        let mut rng = StdRng::seed_from_u64(3);
        let _ = &mut rng;
        let scenario = AttackScenario::parking_lot(CameraRig::smoke(), 6, 60, 16, 5);
        let plane = Plane::new(16, 16, 0.1);
        let d = Decal::mono(&plane, mask(Shape::Star, 16), Shape::Star);
        assert_eq!(deploy(&d, &scenario).len(), 6);
    }
}
