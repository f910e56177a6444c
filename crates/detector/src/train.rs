//! Detector training, evaluation and convenience inference.
//!
//! Training is exposed two ways: the classic [`train`] convenience loop,
//! and the step-wise [`DetectorTrainer`] that can snapshot and restore
//! its complete state (parameters, Adam moments, RNG stream, shuffle
//! order, epoch position) as an [`rd_tensor::io::Checkpoint`], enabling
//! crash-safe resume and divergence rollback. A healthy `train` run and
//! a `DetectorTrainer` run draw identical RNG streams and produce
//! bitwise-identical weights.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use rd_scene::dataset::Sample;
use rd_scene::GtBox;
use rd_tensor::io::{Checkpoint, CheckpointError};
use rd_tensor::optim::{Adam, StepOutcome};
use rd_tensor::{fold_running_stats, Graph, ParamSet, Runtime, Tensor};
use rd_vision::Image;

use crate::decode::{postprocess, Detection};
use crate::loss::{build_targets, yolo_head_loss, HeadTargets, YoloLossWeights};
use crate::model::{TinyYolo, BN_MOMENTUM};

/// Training hyper-parameters. Defaults mirror the paper's optimizer choice
/// (Adam, lr 1e-4) with epoch counts scaled to CPU budgets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the dataset.
    pub epochs: usize,
    /// Images per step.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Shuffle seed.
    pub seed: u64,
    /// Gradient-norm clip (0 disables).
    pub clip: f32,
    /// Print a progress line every this many steps (0 = silent).
    pub log_every: usize,
    /// Route steps through the compiled [`rd_tensor::TrainPlan`]
    /// (bitwise-identical to the tape; the tape stays available as the
    /// reference path). Not part of the checkpoint fingerprint — the two
    /// paths produce interchangeable checkpoints.
    pub compiled: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 8,
            batch_size: 16,
            lr: 1e-3,
            seed: 0,
            clip: 10.0,
            log_every: 0,
            compiled: true,
        }
    }
}

/// Per-epoch mean losses returned by [`train`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean total loss per epoch.
    pub epoch_losses: Vec<f32>,
}

impl TrainReport {
    /// Final epoch's mean loss.
    pub fn final_loss(&self) -> f32 {
        *self.epoch_losses.last().unwrap_or(&f32::NAN)
    }
}

/// A gradient hook: called with the global step index after gradients
/// are written and clipped, before the finiteness check and optimizer
/// update. The fault-injection harness uses this to corrupt gradients at
/// a precise, reproducible point.
pub type GradHook<'h> = &'h dyn Fn(u64, &mut ParamSet);

/// Step-wise detector training with full-state snapshot/restore.
///
/// Drives the exact computation of [`train`] one optimizer step at a
/// time. All state a resume needs — parameters, Adam moments, the RNG
/// stream position, the epoch shuffle order and loss accumulators — can
/// be exported as a [`Checkpoint`] and restored bitwise-identically.
pub struct DetectorTrainer<'a> {
    model: &'a TinyYolo,
    ps: &'a mut ParamSet,
    data: &'a [Sample],
    /// Runtime every step re-enters, so concurrent trainers keep their
    /// arena traffic, thread budgets and tiers apart.
    rt: Runtime,
    cfg: TrainConfig,
    rng: StdRng,
    opt: Adam,
    order: Vec<usize>,
    epoch: usize,
    /// Start index of the next chunk within `order`.
    pos: usize,
    epoch_loss: f32,
    epoch_steps: usize,
    epoch_losses: Vec<f32>,
    steps_done: u64,
    /// Cumulative im2col column-cache (hits, misses) over every compiled
    /// step this trainer ran; stays (0, 0) on the tape path.
    col_cache: (u64, u64),
}

impl<'a> DetectorTrainer<'a> {
    /// Prepares a trainer; no RNG is consumed until the first step.
    pub fn new(
        model: &'a TinyYolo,
        ps: &'a mut ParamSet,
        data: &'a [Sample],
        cfg: TrainConfig,
    ) -> Self {
        assert!(!data.is_empty(), "empty training set");
        DetectorTrainer {
            model,
            ps,
            data,
            rt: rd_tensor::runtime::current(),
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            opt: Adam::new(cfg.lr),
            order: (0..data.len()).collect(),
            epoch: 0,
            pos: 0,
            epoch_loss: 0.0,
            epoch_steps: 0,
            epoch_losses: Vec::with_capacity(cfg.epochs),
            steps_done: 0,
            col_cache: (0, 0),
        }
    }

    /// Rebinds the trainer to an explicit [`Runtime`]; subsequent steps
    /// run under it (builder style, for supervised jobs that pin each
    /// attempt to a fresh runtime).
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
        self.steps_done
    }

    /// Cumulative activation-column cache (hits, misses) across every
    /// compiled step so far — (0, 0) when running on the tape path.
    pub fn col_cache_stats(&self) -> (u64, u64) {
        self.col_cache
    }

    /// Total optimizer steps a full run takes.
    pub fn total_steps(&self) -> u64 {
        (self.cfg.epochs as u64) * (self.data.len().div_ceil(self.cfg.batch_size) as u64)
    }

    /// Whether every epoch has been consumed.
    pub fn is_done(&self) -> bool {
        self.epoch >= self.cfg.epochs
    }

    /// Scales the optimizer's learning rate relative to the configured
    /// base rate (backoff policy hook; 1.0 restores the base rate).
    pub fn set_lr_scale(&mut self, scale: f32) {
        self.opt.set_lr(self.cfg.lr * scale);
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.opt.lr()
    }

    fn begin_epoch_if_needed(&mut self) {
        if self.pos == 0 {
            self.order.shuffle(&mut self.rng);
        }
    }

    fn advance(&mut self) {
        self.pos += self.cfg.batch_size.min(self.data.len() - self.pos);
        self.steps_done += 1;
        if self.pos >= self.data.len() {
            self.epoch_losses
                .push(self.epoch_loss / self.epoch_steps.max(1) as f32);
            self.epoch += 1;
            self.pos = 0;
            self.epoch_loss = 0.0;
            self.epoch_steps = 0;
        }
    }

    /// Runs one optimizer step. On a non-finite loss or gradient the
    /// update is suppressed, the batch position does **not** advance, and
    /// the returned [`StepOutcome::NonFinite`] carries provenance (the
    /// offending parameters plus a tape audit). Batch-norm running stats
    /// still move (they update during the forward pass); a rollback that
    /// restores the whole [`ParamSet`] undoes that too.
    pub fn step(&mut self, hook: Option<GradHook<'_>>) -> StepOutcome {
        let rt = self.rt.clone();
        rt.enter(|| self.step_inner(hook))
    }

    fn step_inner(&mut self, hook: Option<GradHook<'_>>) -> StepOutcome {
        assert!(!self.is_done(), "step() called on a finished trainer");
        self.begin_epoch_if_needed();
        let input = self.model.config().input;
        let num_classes = self.model.config().num_classes;
        let chunk_end = (self.pos + self.cfg.batch_size).min(self.data.len());
        let chunk = &self.order[self.pos..chunk_end];
        let images: Vec<Image> = chunk.iter().map(|&i| self.data[i].image.clone()).collect();
        let boxes: Vec<Vec<GtBox>> = chunk.iter().map(|&i| self.data[i].boxes.clone()).collect();
        let batch = Image::batch_to_tensor(&images);
        let targets = build_targets(&boxes, input);

        self.ps.zero_grads();
        let (lval, g) = if self.cfg.compiled {
            self.forward_backward_compiled(&batch, &targets, num_classes)
        } else {
            self.forward_backward_tape(batch, &targets, num_classes)
        };
        if self.cfg.clip > 0.0 {
            self.ps.clip_grad_norm(self.cfg.clip);
        }
        if let Some(h) = hook {
            h(self.steps_done, self.ps);
        }

        if let Some(detail) = rd_analysis::non_finite_detail(lval, self.ps, &g) {
            return StepOutcome::NonFinite { detail };
        }

        self.opt.step(self.ps);
        self.epoch_loss += lval;
        self.epoch_steps += 1;
        if self.cfg.log_every > 0 {
            let step_in_epoch = self.pos / self.cfg.batch_size;
            if step_in_epoch.is_multiple_of(self.cfg.log_every) {
                eprintln!("epoch {} step {step_in_epoch}: loss {lval:.4}", self.epoch);
            }
        }
        self.advance();
        StepOutcome::Ran { loss: lval }
    }

    /// Reference tape path: full autodiff graph, gradients written into
    /// the `ParamSet`. Returns the loss value and the tape (kept for
    /// non-finite provenance audits).
    fn forward_backward_tape(
        &mut self,
        batch: Tensor,
        targets: &[HeadTargets; 2],
        num_classes: usize,
    ) -> (f32, Graph) {
        let mut g = Graph::new();
        let x = g.input(batch);
        let out = self.model.forward(&mut g, self.ps, x, true);
        let l1 = yolo_head_loss(
            &mut g,
            out.coarse,
            &targets[0],
            num_classes,
            YoloLossWeights::default(),
        );
        let l2 = yolo_head_loss(
            &mut g,
            out.fine,
            &targets[1],
            num_classes,
            YoloLossWeights::default(),
        );
        let loss = g.add(l1, l2);
        let lval = g.value(loss).data()[0];
        let grads = g.backward(loss);
        g.write_grads(&grads, self.ps);
        (lval, g)
    }

    /// Compiled path: the cached [`rd_tensor::TrainPlan`] runs the
    /// network forward and backward; only the loss itself is built as a
    /// small tape on the head outputs, whose input gradients seed the
    /// plan backward. Bitwise-identical to
    /// [`Self::forward_backward_tape`] — loss value, running-stat fold,
    /// parameter gradients — at any worker-pool thread count. The
    /// returned graph is the loss tape (what a non-finite audit can
    /// still inspect on this path).
    fn forward_backward_compiled(
        &mut self,
        batch: &Tensor,
        targets: &[HeadTargets; 2],
        num_classes: usize,
    ) -> (f32, Graph) {
        let plan = self.model.train_plan(self.ps);
        let mut step = plan.forward(self.ps, batch, true);
        // same fold point as the tape path: end of forward, before the
        // loss and any non-finite gating
        fold_running_stats(self.ps, step.bn_stats(), BN_MOMENTUM);
        let mut g = Graph::new();
        let coarse = g.input(step.output(0));
        let fine = g.input(step.output(1));
        let l1 = yolo_head_loss(
            &mut g,
            coarse,
            &targets[0],
            num_classes,
            YoloLossWeights::default(),
        );
        let l2 = yolo_head_loss(
            &mut g,
            fine,
            &targets[1],
            num_classes,
            YoloLossWeights::default(),
        );
        let loss = g.add(l1, l2);
        let lval = g.value(loss).data()[0];
        let grads = g.backward(loss);
        step.backward(self.ps, &[grads.get(coarse), grads.get(fine)], false);
        step.write_param_grads(self.ps);
        let (hits, misses) = step.col_cache_stats();
        self.col_cache.0 += hits;
        self.col_cache.1 += misses;
        (lval, g)
    }

    /// Skips the current batch without touching parameters or optimizer
    /// state — the runner's last resort once LR backoff is exhausted.
    /// The detector draws no per-step randomness, so skipping costs no
    /// compute and keeps the RNG trajectory aligned.
    pub fn skip_step(&mut self) {
        assert!(!self.is_done(), "skip_step() called on a finished trainer");
        self.begin_epoch_if_needed();
        self.advance();
    }

    /// Exports the complete training state.
    pub fn checkpoint(&self) -> Checkpoint {
        let mut ck = Checkpoint::new();
        ck.put_params("params", self.ps);
        ck.put_adam("adam", &self.opt);
        ck.put_rng("rng", &self.rng);
        ck.put_u64s("order", self.order.iter().map(|&i| i as u64).collect());
        ck.put_u64s(
            "counters",
            vec![
                self.epoch as u64,
                self.pos as u64,
                self.epoch_steps as u64,
                self.steps_done,
            ],
        );
        ck.put_f32s("epoch_loss", vec![self.epoch_loss]);
        ck.put_f32s("epoch_losses", self.epoch_losses.clone());
        ck.put_u64s("fingerprint", self.fingerprint());
        ck
    }

    fn fingerprint(&self) -> Vec<u64> {
        vec![
            self.data.len() as u64,
            self.cfg.epochs as u64,
            self.cfg.batch_size as u64,
            self.cfg.lr.to_bits() as u64,
            self.cfg.seed,
        ]
    }

    /// Restores a state exported by [`checkpoint`](Self::checkpoint),
    /// after which training continues bitwise-identically to the run
    /// that produced it.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::StateMismatch`] when the checkpoint
    /// came from a different dataset/config, or a structural error when
    /// sections are missing or malformed.
    pub fn restore(&mut self, ck: &Checkpoint) -> Result<(), CheckpointError> {
        let fp = ck.u64s("fingerprint")?;
        if fp != self.fingerprint() {
            return Err(CheckpointError::StateMismatch(format!(
                "detector checkpoint fingerprint {fp:?} != this run's {:?} \
                 (dataset size, epochs, batch size, lr bits, seed)",
                self.fingerprint()
            )));
        }
        ck.load_params_into("params", self.ps)?;
        let mut opt = Adam::new(self.cfg.lr);
        opt.load_state(ck.get_adam("adam")?)
            .map_err(CheckpointError::StateMismatch)?;
        let order: Vec<usize> = ck.u64s("order")?.iter().map(|&v| v as usize).collect();
        if order.len() != self.data.len() {
            return Err(CheckpointError::StateMismatch(format!(
                "checkpoint shuffle order covers {} sample(s), dataset has {}",
                order.len(),
                self.data.len()
            )));
        }
        let counters = ck.u64s("counters")?;
        let [epoch, pos, epoch_steps, steps_done] = *counters else {
            return Err(CheckpointError::Malformed(format!(
                "counters section holds {} value(s), expected 4",
                counters.len()
            )));
        };
        let epoch_loss = match ck.f32s("epoch_loss")? {
            [v] => *v,
            other => {
                return Err(CheckpointError::Malformed(format!(
                    "epoch_loss section holds {} value(s), expected 1",
                    other.len()
                )))
            }
        };
        self.rng = ck.get_rng("rng")?;
        self.opt = opt;
        self.order = order;
        self.epoch = epoch as usize;
        self.pos = pos as usize;
        self.epoch_steps = epoch_steps as usize;
        self.steps_done = steps_done;
        self.epoch_loss = epoch_loss;
        self.epoch_losses = ck.f32s("epoch_losses")?.to_vec();
        Ok(())
    }

    /// Consumes the trainer, producing the per-epoch loss report.
    pub fn finish(self) -> TrainReport {
        TrainReport {
            epoch_losses: self.epoch_losses,
        }
    }
}

/// Trains the detector in place.
///
/// Convenience wrapper over [`DetectorTrainer`]: runs every step, and on
/// a non-finite loss/gradient skips the offending batch (leaving
/// parameters untouched) rather than poisoning the weights. For
/// checkpointed, resumable training drive [`DetectorTrainer`] directly
/// or through the workspace's recovery runner.
pub fn train(
    model: &TinyYolo,
    ps: &mut ParamSet,
    data: &[Sample],
    cfg: &TrainConfig,
) -> TrainReport {
    let mut trainer = DetectorTrainer::new(model, ps, data, *cfg);
    while !trainer.is_done() {
        if let StepOutcome::NonFinite { detail } = trainer.step(None) {
            eprintln!(
                "detector train: skipping batch at step {}: {detail}",
                trainer.steps_done()
            );
            trainer.skip_step();
        }
    }
    trainer.finish()
}

/// Runs inference on a batch of images through the compiled grad-free
/// plan (eval-mode batch norm; bitwise-identical to the tape forward).
pub fn detect(
    model: &TinyYolo,
    ps: &ParamSet,
    images: &[Image],
    obj_threshold: f32,
) -> Vec<Vec<Detection>> {
    let batch = Image::batch_to_tensor(images);
    let (coarse, fine) = model.infer(ps, &batch);
    postprocess(
        &coarse,
        &fine,
        model.config().num_classes,
        obj_threshold,
        0.45,
    )
}

/// Detection quality metrics over a labelled set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalMetrics {
    /// Fraction of GT boxes matched by any detection (IoU ≥ 0.3).
    pub recall: f32,
    /// Fraction of matched boxes whose class is correct.
    pub class_accuracy: f32,
    /// Mean IoU of matched boxes.
    pub mean_iou: f32,
    /// Mean number of detections per image (sanity signal).
    pub dets_per_image: f32,
}

/// Evaluates the detector on a labelled dataset (compiled inference).
pub fn evaluate(
    model: &TinyYolo,
    ps: &ParamSet,
    data: &[Sample],
    obj_threshold: f32,
) -> EvalMetrics {
    let mut total_boxes = 0usize;
    let mut matched = 0usize;
    let mut correct = 0usize;
    let mut iou_sum = 0.0f32;
    let mut det_count = 0usize;
    for chunk in data.chunks(16) {
        let images: Vec<Image> = chunk.iter().map(|s| s.image.clone()).collect();
        let dets = detect(model, ps, &images, obj_threshold);
        for (s, dlist) in chunk.iter().zip(&dets) {
            det_count += dlist.len();
            for b in &s.boxes {
                total_boxes += 1;
                let best = dlist
                    .iter()
                    .map(|d| (d, d.iou(b)))
                    .max_by(|a, b| a.1.total_cmp(&b.1));
                if let Some((d, iou)) = best {
                    if iou >= 0.3 {
                        matched += 1;
                        iou_sum += iou;
                        if d.class == b.class {
                            correct += 1;
                        }
                    }
                }
            }
        }
    }
    EvalMetrics {
        recall: matched as f32 / total_boxes.max(1) as f32,
        class_accuracy: correct as f32 / matched.max(1) as f32,
        mean_iou: iou_sum / matched.max(1) as f32,
        dets_per_image: det_count as f32 / data.len().max(1) as f32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::YoloConfig;
    use rd_scene::dataset::{generate, DatasetConfig};
    use rd_scene::CameraRig;

    fn smoke_data(n: usize) -> Vec<Sample> {
        generate(&DatasetConfig {
            rig: CameraRig::smoke(),
            n_images: n,
            seed: 77,
            augment: false,
        })
    }

    #[test]
    fn one_epoch_reduces_loss() {
        let data = smoke_data(24);
        let mut rng = StdRng::seed_from_u64(5);
        let mut ps = ParamSet::new();
        let model = TinyYolo::new(&mut ps, &mut rng, YoloConfig::smoke());
        let report = train(
            &model,
            &mut ps,
            &data,
            &TrainConfig {
                epochs: 3,
                batch_size: 8,
                lr: 5e-4,
                ..TrainConfig::default()
            },
        );
        assert_eq!(report.epoch_losses.len(), 3);
        assert!(
            report.final_loss() < report.epoch_losses[0],
            "loss should fall: {:?}",
            report.epoch_losses
        );
        assert!(report.final_loss().is_finite());
    }

    #[test]
    fn trainer_loop_matches_train_bitwise() {
        let data = smoke_data(12);
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 4,
            lr: 5e-4,
            ..TrainConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut ps_a = ParamSet::new();
        let model_a = TinyYolo::new(&mut ps_a, &mut rng, YoloConfig::smoke());
        let report_a = train(&model_a, &mut ps_a, &data, &cfg);

        let mut rng = StdRng::seed_from_u64(5);
        let mut ps_b = ParamSet::new();
        let model_b = TinyYolo::new(&mut ps_b, &mut rng, YoloConfig::smoke());
        let mut trainer = DetectorTrainer::new(&model_b, &mut ps_b, &data, cfg);
        while !trainer.is_done() {
            match trainer.step(None) {
                StepOutcome::Ran { .. } => {}
                StepOutcome::NonFinite { detail } => panic!("unexpected non-finite: {detail}"),
            }
        }
        let report_b = trainer.finish();
        assert_eq!(report_a, report_b);
        for ((_, a), (_, b)) in ps_a.iter().zip(ps_b.iter()) {
            assert_eq!(a.value().data(), b.value().data(), "param {}", a.name());
        }
    }

    #[test]
    fn trainer_checkpoint_resume_is_bitwise() {
        let data = smoke_data(12);
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 4,
            lr: 5e-4,
            ..TrainConfig::default()
        };
        // straight run
        let mut rng = StdRng::seed_from_u64(5);
        let mut ps_a = ParamSet::new();
        let model_a = TinyYolo::new(&mut ps_a, &mut rng, YoloConfig::smoke());
        let mut t = DetectorTrainer::new(&model_a, &mut ps_a, &data, cfg);
        while !t.is_done() {
            t.step(None);
        }
        drop(t);

        // interrupted run: 2 steps, checkpoint through the byte codec,
        // rebuild everything from scratch, restore, finish
        let mut rng = StdRng::seed_from_u64(5);
        let mut ps_b = ParamSet::new();
        let model_b = TinyYolo::new(&mut ps_b, &mut rng, YoloConfig::smoke());
        let bytes = {
            let mut t = DetectorTrainer::new(&model_b, &mut ps_b, &data, cfg);
            t.step(None);
            t.step(None);
            rd_tensor::io::encode_checkpoint(&t.checkpoint())
        };
        let mut rng = StdRng::seed_from_u64(99); // different init on purpose
        let mut ps_c = ParamSet::new();
        let model_c = TinyYolo::new(&mut ps_c, &mut rng, YoloConfig::smoke());
        let mut t = DetectorTrainer::new(&model_c, &mut ps_c, &data, cfg);
        let ck = rd_tensor::io::decode_checkpoint(&bytes).unwrap();
        t.restore(&ck).unwrap();
        assert_eq!(t.steps_done(), 2);
        while !t.is_done() {
            t.step(None);
        }
        drop(t);
        for ((_, a), (_, c)) in ps_a.iter().zip(ps_c.iter()) {
            assert_eq!(a.value().data(), c.value().data(), "param {}", a.name());
        }
    }

    #[test]
    fn grad_hook_nan_is_detected_and_params_untouched() {
        let data = smoke_data(8);
        let mut rng = StdRng::seed_from_u64(5);
        let mut ps = ParamSet::new();
        let model = TinyYolo::new(&mut ps, &mut rng, YoloConfig::smoke());
        let before: Vec<Vec<f32>> = ps.iter().map(|(_, p)| p.value().data().to_vec()).collect();
        let mut t = DetectorTrainer::new(&model, &mut ps, &data, TrainConfig::default());
        let poison = |_step: u64, ps: &mut ParamSet| {
            let (_, p) = ps.iter_mut().next().unwrap();
            p.grad_mut().data_mut()[0] = f32::NAN;
        };
        match t.step(Some(&poison)) {
            StepOutcome::NonFinite { detail } => {
                assert!(detail.contains("non-finite"), "{detail}");
            }
            StepOutcome::Ran { .. } => panic!("poisoned gradient not detected"),
        }
        assert_eq!(t.steps_done(), 0, "poisoned step must not advance");
        drop(t);
        // BN running stats update during the forward pass itself, so only
        // optimizer-driven parameters are expected to be untouched.
        for ((_, p), b) in ps.iter().zip(&before) {
            if p.name().contains("rmean") || p.name().contains("rvar") {
                continue;
            }
            assert_eq!(p.value().data(), &b[..], "param {} was modified", p.name());
        }
    }

    #[test]
    fn restore_rejects_wrong_fingerprint() {
        let data = smoke_data(8);
        let mut rng = StdRng::seed_from_u64(5);
        let mut ps = ParamSet::new();
        let model = TinyYolo::new(&mut ps, &mut rng, YoloConfig::smoke());
        let ck = {
            let t = DetectorTrainer::new(&model, &mut ps, &data, TrainConfig::default());
            t.checkpoint()
        };
        let mut t = DetectorTrainer::new(
            &model,
            &mut ps,
            &data,
            TrainConfig {
                lr: 9e-1,
                ..TrainConfig::default()
            },
        );
        assert!(matches!(
            t.restore(&ck),
            Err(rd_tensor::io::CheckpointError::StateMismatch(_))
        ));
    }

    #[test]
    fn untrained_detector_is_quiet() {
        let data = smoke_data(4);
        let mut rng = StdRng::seed_from_u64(5);
        let mut ps = ParamSet::new();
        let model = TinyYolo::new(&mut ps, &mut rng, YoloConfig::smoke());
        let m = evaluate(&model, &ps, &data, 0.3);
        // negative objectness bias keeps the fresh model from spamming
        assert!(m.dets_per_image < 12.0, "{m:?}");
    }

    #[test]
    fn detect_returns_one_list_per_image() {
        let data = smoke_data(3);
        let mut rng = StdRng::seed_from_u64(5);
        let mut ps = ParamSet::new();
        let model = TinyYolo::new(&mut ps, &mut rng, YoloConfig::smoke());
        let images: Vec<Image> = data.iter().map(|s| s.image.clone()).collect();
        let d = detect(&model, &ps, &images, 0.3);
        assert_eq!(d.len(), 3);
    }
}
