//! The buffered reference oracle for challenge evaluation, compiled into
//! the crate's unit tests only.
//!
//! [`evaluate_buffered`] is the original materialize-then-batch
//! evaluator: it renders every frame of a run, then infers in
//! [`BATCH_FRAMES`]-frame batches and scores the buffered history with
//! [`has_consecutive`]. Its peak live memory grows with the drive
//! length, so nothing ships it; it stays here as the ground truth the
//! streaming pipeline behind [`crate::eval::evaluate_challenge`] is
//! held against. The tests compare per-frame detections, not just the
//! folded PWC/CWC, at 1 and N threads, on the noiseless digital
//! channel and on the noise-bearing simulated one.

use rd_detector::{has_consecutive, postprocess_into, DecodeBuffers, Detection, TinyYolo};
use rd_scene::{CaptureDraws, ObjectClass};
use rd_tensor::ParamSet;
use rd_vision::Image;

use crate::attack::Deployment;
use crate::decal::Decal;
use crate::eval::{
    classify_victim, run_rng, Challenge, ChallengeOutcome, EvalConfig, FrameObserver,
    CONFIRM_WINDOW,
};
use crate::metrics::{Cell, OutcomeAccumulator};
use crate::render::FrameRenderer;
use crate::scenario::AttackScenario;
use crate::stream::BATCH_FRAMES;

/// One decoded frame of a traced evaluation: the unit the bitwise
/// streamed-vs-buffered tests compare.
#[derive(Debug, Clone, PartialEq)]
struct FrameTrace {
    run: usize,
    frame: usize,
    class: Option<ObjectClass>,
    detections: Vec<Detection>,
}

/// Runs `eval` with a recording [`FrameObserver`] and returns its outcome
/// plus every post-NMS detection and victim classification, in scoring
/// order.
fn traced(
    eval: impl FnOnce(&mut FrameObserver<'_>) -> ChallengeOutcome,
) -> (ChallengeOutcome, Vec<FrameTrace>) {
    let mut trace = Vec::new();
    let mut record = |run: usize, frame: usize, dets: &[Detection], class: Option<ObjectClass>| {
        trace.push(FrameTrace {
            run,
            frame,
            class,
            detections: dets.to_vec(),
        });
    };
    let outcome = eval(&mut record);
    (outcome, trace)
}

/// The materialize-then-batch reference oracle. Rendering goes through
/// the pose-keyed [`FrameRenderer`] with capture randomness pre-sampled
/// in frame order, which is bitwise-identical to calling
/// [`crate::eval::render_attacked_frame`] per frame (see
/// [`crate::render`]).
#[allow(clippy::too_many_arguments)]
fn evaluate_buffered(
    scenario: &AttackScenario,
    decals: &Deployment,
    model: &TinyYolo,
    ps: &ParamSet,
    target: ObjectClass,
    challenge: Challenge,
    cfg: &EvalConfig,
    observer: &mut FrameObserver<'_>,
) -> ChallengeOutcome {
    let mut acc = OutcomeAccumulator::new();
    let renderer = FrameRenderer::new(scenario);
    let mut decode_bufs = DecodeBuffers::default();
    let mut dets: Vec<Vec<Detection>> = Vec::new();
    for run in 0..cfg.runs {
        let mut rng = run_rng(cfg, run);
        // each run prints fresh physical decals (per-print variation)
        let printed: Vec<Decal> = decals
            .iter()
            .map(|d| d.print(&cfg.channel.print, &mut rng))
            .collect();
        let poses = challenge.poses(cfg, &mut rng);
        let motion = challenge.motion_m_per_frame(cfg.fps);
        // pre-sample capture randomness in frame order: same RNG stream
        // as drawing inside each render call
        let draws: Vec<CaptureDraws> = poses
            .iter()
            .map(|_| {
                cfg.channel
                    .capture
                    .sample_draws(scenario.rig.image_hw, &mut rng)
            })
            .collect();
        let mut history: Vec<Option<ObjectClass>> = Vec::with_capacity(poses.len());
        // render all frames, then run the detector in batches
        let mut frames = Vec::with_capacity(poses.len());
        let mut victims = Vec::with_capacity(poses.len());
        for (pose, frame_draws) in poses.iter().zip(&draws) {
            frames.push(renderer.render(scenario, &printed, pose, cfg, motion, frame_draws));
            victims.push(scenario.victim_box(pose));
        }
        for d in draws {
            d.recycle();
        }
        for (chunk, vchunk) in frames
            .chunks(BATCH_FRAMES)
            .zip(victims.chunks(BATCH_FRAMES))
        {
            let batch = Image::batch_to_tensor(chunk);
            let (coarse, fine) = model.infer(ps, &batch);
            postprocess_into(
                &coarse,
                &fine,
                model.config().num_classes,
                cfg.conf_threshold,
                cfg.nms_threshold,
                &mut decode_bufs,
                &mut dets,
            );
            rd_tensor::arena::recycle(batch.into_vec());
            rd_tensor::arena::recycle(coarse.into_vec());
            rd_tensor::arena::recycle(fine.into_vec());
            for (dlist, victim) in dets.iter().zip(vchunk) {
                let class = victim
                    .as_ref()
                    .and_then(|v| classify_victim(dlist, v, cfg.victim_iou));
                observer(run, history.len(), dlist, class);
                acc.push_frame(class.is_some());
                history.push(class);
            }
        }
        for f in frames {
            rd_tensor::arena::recycle(f.into_vec());
        }
        let hits = history.iter().filter(|&&c| c == Some(target)).count();
        let cell = Cell {
            pwc: hits as f32 / history.len().max(1) as f32,
            cwc: has_consecutive(&history, target, CONFIRM_WINDOW),
        };
        acc.finish_run(cell, history.len());
    }
    ChallengeOutcome {
        cell: acc.cell(),
        frames_per_run: acc.frames_per_run(),
        victim_detected: acc.victim_rate(),
    }
}

mod tests {
    use rd_scene::{CameraRig, PhysicalChannel, RotationSetting, Speed};
    use rd_tensor::{Runtime, RuntimeConfig};
    use rd_vision::shapes::{mask, Shape};
    use rd_vision::Plane;

    use super::*;
    use crate::attack::deploy;
    use crate::experiments::{prepare_environment, Environment, Scale};
    use crate::stream::evaluate_streamed_observed;

    fn setup() -> (Environment, AttackScenario, Deployment) {
        let env = prepare_environment(Scale::Smoke, 42);
        let scenario = AttackScenario::parking_lot(CameraRig::smoke(), 4, 60, 16, 42);
        let d = Decal::mono(
            &Plane::new(16, 16, 0.03),
            mask(Shape::Star, 16),
            Shape::Star,
        );
        let decals = deploy(&d, &scenario);
        (env, scenario, decals)
    }

    /// Streams and buffers the same drive, then requires the two to agree
    /// bit for bit: PWC, CWC, victim rate, frames per run and every
    /// per-frame detection.
    fn assert_streamed_matches_buffered(
        env: &Environment,
        scenario: &AttackScenario,
        decals: &Deployment,
        challenge: Challenge,
        cfg: &EvalConfig,
        ctx: &str,
    ) {
        let (model, ps, target) = (&env.detector, &env.params, ObjectClass::Bicycle);
        let (s_out, s_trace) = traced(|obs| {
            evaluate_streamed_observed(scenario, decals, model, ps, target, challenge, cfg, obs)
                .outcome
        });
        let (b_out, b_trace) = traced(|obs| {
            evaluate_buffered(scenario, decals, model, ps, target, challenge, cfg, obs)
        });
        assert_eq!(
            s_out.cell.pwc.to_bits(),
            b_out.cell.pwc.to_bits(),
            "PWC drifted ({ctx})"
        );
        assert_eq!(s_out.cell.cwc, b_out.cell.cwc, "CWC drifted ({ctx})");
        assert_eq!(
            s_out.victim_detected.to_bits(),
            b_out.victim_detected.to_bits(),
            "victim rate drifted ({ctx})"
        );
        assert_eq!(s_out.frames_per_run, b_out.frames_per_run, "{ctx}");
        assert_eq!(
            s_trace, b_trace,
            "per-frame detections drifted between streamed and buffered ({ctx})"
        );
    }

    #[test]
    fn streamed_matches_buffered_bitwise_across_threads() {
        let (env, scenario, decals) = setup();
        // a rotation drive of two full chunks plus a partial one
        // (40 = 2×16 + 8), over two runs: exercises chunk-boundary and
        // final-partial-chunk handling on both paths. The simulated
        // channel draws blur and noise per frame; the digital one draws
        // neither.
        for (name, channel) in [
            ("digital", PhysicalChannel::digital()),
            ("simulated", PhysicalChannel::simulated()),
        ] {
            let cfg = EvalConfig {
                rotation_frames: 40,
                runs: 2,
                channel,
                ..EvalConfig::smoke(7)
            };
            for threads in [1usize, 4] {
                let rt = Runtime::new(RuntimeConfig {
                    threads,
                    ..RuntimeConfig::default()
                });
                let ctx = format!("{name} channel, {threads} threads");
                rt.enter(|| {
                    assert_streamed_matches_buffered(
                        &env,
                        &scenario,
                        &decals,
                        Challenge::Rotation(RotationSetting::Slight),
                        &cfg,
                        &ctx,
                    )
                });
            }
        }
    }

    #[test]
    fn streamed_matches_buffered_on_approach_challenge() {
        // approach videos have data-dependent length (not a multiple of
        // the chunk size) and per-frame motion blur noise draws
        let (env, scenario, decals) = setup();
        let cfg = EvalConfig {
            runs: 2,
            ..EvalConfig::smoke(3)
        };
        assert_streamed_matches_buffered(
            &env,
            &scenario,
            &decals,
            Challenge::Speed(Speed::Slow),
            &cfg,
            "approach",
        );
    }
}
