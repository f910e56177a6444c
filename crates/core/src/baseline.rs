//! The comparison baseline: Sava et al. [34] — a *colored* adversarial
//! patch optimized directly in pixel space with EOT, on independent
//! (static) frames. The paper reimplemented it for lack of official code;
//! so do we, sharing the compositing/EOT substrate and the attack's
//! frozen-detector loss ([`crate::attack`]'s `frozen_detector_loss`,
//! one compiled gradient-plan call per step over the whole frame batch)
//! so the comparison is apples-to-apples.
//!
//! Differences from the road-decal attack, mirroring the papers:
//! * full-color patch (three channels) — suffers print gamut error;
//! * no GAN realism term, no shape constraint (square sticker);
//! * every batch element is an independent frame (no consecutive-frame
//!   objective).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rd_detector::TinyYolo;
use rd_eot::{adjust_placement, EotConfig, TrickSet};
use rd_scene::ObjectClass;
use rd_tensor::{optim::Adam, Graph, LinearMap, ParamSet, Tensor, VarId};
use rd_vision::compose::paste_patch_rgb;
use rd_vision::shapes::Shape;
use rd_vision::Plane;

use crate::attack::{frozen_detector_loss, sample_visible_pose, AttackConfig, VictimCells};
use crate::decal::Decal;
use crate::scenario::AttackScenario;

/// Baseline hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineConfig {
    /// Target class `t`.
    pub target_class: ObjectClass,
    /// EOT tricks (the baseline uses all five).
    pub eot: EotConfig,
    /// Independent frames per batch.
    pub batch_frames: usize,
    /// Optimization steps.
    pub steps: usize,
    /// Adam learning rate on the patch logits.
    pub lr: f32,
    /// Objectness weight inside `L_f` (matched to the main attack).
    pub obj_weight: f32,
    /// RNG seed.
    pub seed: u64,
}

impl BaselineConfig {
    /// Matched to [`AttackConfig::paper`] budgets.
    pub fn paper() -> Self {
        BaselineConfig {
            target_class: ObjectClass::Bicycle,
            eot: EotConfig::with_tricks(TrickSet::all()),
            batch_frames: 18,
            steps: 120,
            lr: 5e-2,
            obj_weight: 0.7,
            seed: 7,
        }
    }

    /// Fast settings for tests.
    pub fn smoke() -> Self {
        BaselineConfig {
            batch_frames: 3,
            steps: 4,
            ..Self::paper()
        }
    }

    /// Derives a budget-matched baseline from an attack config.
    pub fn matched(cfg: &AttackConfig) -> Self {
        BaselineConfig {
            target_class: cfg.target_class,
            eot: EotConfig::with_tricks(TrickSet::all()),
            batch_frames: cfg.batch_frames(),
            steps: cfg.steps,
            lr: 5e-2,
            obj_weight: cfg.obj_weight,
            seed: cfg.seed,
        }
    }
}

/// Result of a baseline run.
#[derive(Debug, Clone)]
pub struct BaselinePatch {
    /// The colored patch (square silhouette).
    pub decal: Decal,
    /// Attack loss per step.
    pub attack_loss: Vec<f32>,
}

/// Optimizes the colored EOT patch of [34] against a frozen detector.
pub fn train_baseline_patch(
    scenario: &AttackScenario,
    detector: &TinyYolo,
    ps_det: &ParamSet,
    cfg: &BaselineConfig,
) -> BaselinePatch {
    train_patch(scenario, detector, ps_det, cfg, false)
}

/// [`train_baseline_patch`], scoring each step's frame batch through
/// [`frozen_detector_loss`] on its compiled route, or on the step's tape
/// when `tape` is set.
fn train_patch(
    scenario: &AttackScenario,
    detector: &TinyYolo,
    ps_det: &ParamSet,
    cfg: &BaselineConfig,
    tape: bool,
) -> BaselinePatch {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let canvas = scenario.patch_canvas;
    // optimize unconstrained logits; patch = sigmoid(logits) stays in [0,1]
    let mut ps = ParamSet::new();
    let w = ps.register(
        "baseline.patch_logits",
        Tensor::randn(&mut rng, &[1, 3, canvas, canvas], 0.5),
    );
    let mut opt = Adam::new(cfg.lr);
    let full_mask = Plane::new(canvas, canvas, 1.0);
    let input = detector.config().input;
    let fps = 18.0;

    let mut attack_hist = Vec::with_capacity(cfg.steps);
    for _ in 0..cfg.steps {
        ps.zero_grads();
        let mut g = Graph::new();
        let logits = g.param(&ps, w);
        let patch = g.sigmoid(logits);
        let mut frames: Vec<VarId> = Vec::with_capacity(cfg.batch_frames);
        let mut cells = VictimCells::default();
        for n in 0..cfg.batch_frames {
            // independent (static) frames — the baseline's key limitation
            let pose = sample_visible_pose(scenario, &mut rng, fps);
            let base = scenario.rig.render_frame(scenario.world.canvas(), &pose);
            let mut node = g.input(base.to_tensor());
            for (i, placement) in scenario.decal_placements.iter().enumerate() {
                let ts = cfg.eot.sample(&mut rng);
                // photometric EOT on a colored patch: brightness only (the
                // baseline's pixel values are already free parameters)
                let decal_node = if ts.brightness.abs() > 1e-6 {
                    let shifted = g.add_scalar(patch, ts.brightness);
                    g.clamp(shifted, 0.0, 1.0)
                } else {
                    patch
                };
                let adjusted = adjust_placement(*placement, &ts, canvas);
                let map: Arc<LinearMap> = scenario.decal_map(i, &pose, Some(adjusted)).into();
                node = paste_patch_rgb(&mut g, node, decal_node, &map, &full_mask);
            }
            // NOTE: no capture-channel simulation here — Sava et al. [34]
            // optimize purely in the digital domain with image-space EOT
            // and only then print; that gap is exactly what Table I probes.
            frames.push(node);
            if let Some(vb) = scenario.victim_box(&pose) {
                cells.push(n, &vb, input);
            }
        }
        let batch = g.concat_batch(&frames);
        let Some(loss) = frozen_detector_loss(
            &mut g,
            detector,
            ps_det,
            batch,
            &cells,
            cfg.target_class,
            cfg.obj_weight,
            tape,
        ) else {
            attack_hist.push(f32::NAN);
            continue;
        };
        attack_hist.push(g.value(loss).data()[0]);
        let grads = g.backward(loss);
        g.write_grads(&grads, &mut ps);
        opt.step(&mut ps);
    }

    // materialize the final patch
    let mut g = Graph::new();
    let logits = g.param(&ps, w);
    let patch = g.sigmoid(logits);
    let v = g.value(patch);
    let t = Tensor::from_vec(v.data().to_vec(), &[3, canvas, canvas]);
    BaselinePatch {
        decal: Decal::rgb(&t, full_mask, Shape::Square),
        attack_loss: attack_hist,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_scene::CameraRig;
    use rd_tensor::{Runtime, RuntimeConfig};

    #[test]
    fn baseline_produces_colored_patch() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ps_det = ParamSet::new();
        let detector = TinyYolo::new(&mut ps_det, &mut rng, rd_detector::YoloConfig::smoke());
        let scenario = AttackScenario::parking_lot(CameraRig::smoke(), 2, 60, 16, 5);
        let out = train_baseline_patch(&scenario, &detector, &ps_det, &BaselineConfig::smoke());
        assert_eq!(out.decal.num_channels(), 3);
        assert_eq!(out.attack_loss.len(), 4);
        assert!(out.attack_loss.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn compiled_baseline_matches_tape_bitwise() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ps_det = ParamSet::new();
        let detector = TinyYolo::new(&mut ps_det, &mut rng, rd_detector::YoloConfig::smoke());
        let scenario = AttackScenario::parking_lot(CameraRig::smoke(), 2, 60, 16, 5);
        let cfg = BaselineConfig::smoke();
        let tape = train_patch(&scenario, &detector, &ps_det, &cfg, true);
        // NaN-safe bitwise comparison (a no-victim batch records NaN)
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for threads in [1, 2] {
            let rt = Runtime::new(RuntimeConfig {
                threads,
                ..RuntimeConfig::default()
            });
            let compiled = rt.enter(|| train_baseline_patch(&scenario, &detector, &ps_det, &cfg));
            assert_eq!(
                bits(&compiled.attack_loss),
                bits(&tape.attack_loss),
                "attack-loss history diverged at {threads} thread(s)"
            );
            assert_eq!(
                compiled.decal.channel_data(),
                tape.decal.channel_data(),
                "trained patch diverged at {threads} thread(s)"
            );
        }
    }

    #[test]
    fn matched_config_inherits_budget() {
        let a = AttackConfig::paper();
        let b = BaselineConfig::matched(&a);
        assert_eq!(b.steps, a.steps);
        assert_eq!(b.batch_frames, a.batch_frames());
        assert_eq!(b.eot.tricks, TrickSet::all());
    }
}
