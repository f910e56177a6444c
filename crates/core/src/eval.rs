//! Challenge evaluation: drive (or shake) the camera, film the decals,
//! run the detector per frame, and score PWC / CWC.
//!
//! [`evaluate_challenge`] runs the bounded-memory streaming loop in
//! [`crate::stream`]: frames are rendered, inferred and scored in fixed
//! 16-frame chunks, one chunk at a time, so peak live frames are
//! O(chunk) instead of O(drive length). The crate's unit tests keep
//! a materialize-then-batch *reference oracle* that draws the per-run
//! RNG in the same order (`run_rng`) and batches the same 16-frame
//! groups; streamed and buffered evaluation are held bitwise-identical
//! at any thread count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rd_detector::{Detection, TinyYolo};
use rd_scene::{
    approach_poses, rotation_poses, AngleSetting, ApproachConfig, CameraPose, ObjectClass,
    PhysicalChannel, RotationSetting, Speed,
};
use rd_tensor::ParamSet;
use rd_vision::compose::{mask_on_image, paste_plane_alpha, paste_rgb_map};
use rd_vision::Image;

use crate::attack::Deployment;
use crate::decal::Decal;
use crate::metrics::Cell;
use crate::scenario::AttackScenario;
use crate::stream;

/// Number of consecutive frames an AV needs before acting (the paper's
/// CWC window).
pub const CONFIRM_WINDOW: usize = 3;

/// The three challenge axes of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Challenge {
    /// Stationary camera, optional hand-shake.
    Rotation(RotationSetting),
    /// Drive-by at a given speed (centred).
    Speed(Speed),
    /// Drive-by at slow speed with a lateral angle.
    Angle(AngleSetting),
}

impl Challenge {
    /// The eight columns of the paper's Tables I/II, in order.
    pub fn table_columns() -> Vec<Challenge> {
        let mut v = Vec::new();
        for r in RotationSetting::ALL {
            v.push(Challenge::Rotation(r));
        }
        for s in Speed::ALL {
            v.push(Challenge::Speed(s));
        }
        for a in AngleSetting::ALL {
            v.push(Challenge::Angle(a));
        }
        v
    }

    /// The six speed+angle columns of the ablation tables (III–VI).
    pub fn ablation_columns() -> Vec<Challenge> {
        let mut v = Vec::new();
        for s in Speed::ALL {
            v.push(Challenge::Speed(s));
        }
        for a in AngleSetting::ALL {
            v.push(Challenge::Angle(a));
        }
        v
    }

    /// Column header text.
    pub fn label(&self) -> String {
        match self {
            Challenge::Rotation(r) => r.to_string(),
            Challenge::Speed(s) => s.to_string(),
            Challenge::Angle(a) => format!("{a} deg"),
        }
    }

    /// The camera motion per frame in m (drives motion blur).
    pub(crate) fn motion_m_per_frame(&self, fps: f32) -> f32 {
        match self {
            Challenge::Rotation(_) => 0.0,
            Challenge::Speed(s) => s.m_per_frame(fps),
            Challenge::Angle(_) => Speed::Slow.m_per_frame(fps),
        }
    }

    /// Generates the pose sequence for one evaluation run.
    pub fn poses<R: Rng>(&self, cfg: &EvalConfig, rng: &mut R) -> Vec<CameraPose> {
        match self {
            Challenge::Rotation(r) => rotation_poses(2.2, cfg.rotation_frames, *r, rng),
            Challenge::Speed(s) => approach_poses(
                &ApproachConfig {
                    speed: *s,
                    angle: AngleSetting::Center,
                    start_z: cfg.start_z,
                    end_z: cfg.end_z,
                    fps: cfg.fps,
                    max_frames: 200,
                },
                rng,
            ),
            Challenge::Angle(a) => approach_poses(
                &ApproachConfig {
                    speed: Speed::Slow,
                    angle: *a,
                    start_z: cfg.start_z,
                    end_z: cfg.end_z,
                    fps: cfg.fps,
                    max_frames: 200,
                },
                rng,
            ),
        }
    }
}

/// Evaluation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalConfig {
    /// Frames per rotation-challenge video.
    pub rotation_frames: usize,
    /// Approach start distance (m).
    pub start_z: f32,
    /// Approach end distance (m).
    pub end_z: f32,
    /// Capture frame rate.
    pub fps: f32,
    /// Independent runs averaged per cell (the paper uses 3).
    pub runs: usize,
    /// The digital→physical→digital channel.
    pub channel: PhysicalChannel,
    /// Detector objectness threshold.
    pub conf_threshold: f32,
    /// NMS IoU threshold used when decoding detections.
    pub nms_threshold: f32,
    /// Minimum IoU with the victim's ground-truth box for a detection
    /// to count as a classification of the victim.
    pub victim_iou: f32,
    /// Base RNG seed.
    pub seed: u64,
}

impl EvalConfig {
    /// Real-world parking-lot evaluation (Table I conditions).
    pub fn real_world(seed: u64) -> Self {
        EvalConfig {
            rotation_frames: 24,
            start_z: 3.4,
            end_z: 1.0,
            fps: 18.0,
            runs: 3,
            channel: PhysicalChannel::real_world(),
            conf_threshold: 0.35,
            nms_threshold: 0.45,
            victim_iou: 0.1,
            seed,
        }
    }

    /// Indoor simulated-environment evaluation (Table II conditions).
    pub fn simulated(seed: u64) -> Self {
        EvalConfig {
            channel: PhysicalChannel::simulated(),
            ..Self::real_world(seed)
        }
    }

    /// Pure digital evaluation.
    pub fn digital(seed: u64) -> Self {
        EvalConfig {
            channel: PhysicalChannel::digital(),
            ..Self::real_world(seed)
        }
    }

    /// A fast variant for tests.
    pub fn smoke(seed: u64) -> Self {
        EvalConfig {
            rotation_frames: 8,
            start_z: 4.5,
            end_z: 2.0,
            fps: 8.0,
            runs: 1,
            channel: PhysicalChannel::digital(),
            conf_threshold: 0.35,
            nms_threshold: 0.45,
            victim_iou: 0.1,
            seed,
        }
    }
}

/// Outcome of evaluating one challenge cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChallengeOutcome {
    /// Averaged PWC / majority CWC.
    pub cell: Cell,
    /// Frames per run (diagnostic).
    pub frames_per_run: usize,
    /// Fraction of frames where the victim was detected at all.
    pub victim_detected: f32,
}

/// Renders one physical frame: world → camera → decals → capture channel.
///
/// `printed` is anything that yields the per-site decals in placement
/// order — a `&[Decal]` of physical prints or a lazy
/// [`Deployment`](crate::attack::Deployment).
#[allow(clippy::too_many_arguments)]
pub fn render_attacked_frame<'a, I>(
    scenario: &AttackScenario,
    printed: I,
    pose: &CameraPose,
    cfg: &EvalConfig,
    motion: f32,
    rng: &mut StdRng,
) -> Image
where
    I: IntoIterator<Item = &'a Decal>,
{
    let mut frame = scenario.rig.render_frame(scenario.world.canvas(), pose);
    for (i, d) in printed.into_iter().enumerate() {
        let map = scenario.decal_map(i, pose, None);
        match d.num_channels() {
            1 => {
                // Composite straight from the decal's channel buffer —
                // no per-frame Plane clone of the canvas.
                let alpha = mask_on_image(&map, d.mask());
                let rows = (0, frame.height());
                paste_plane_alpha(&mut frame, d.channel_data(), &map, &alpha, rows);
            }
            _ => paste_rgb_map(&mut frame, d.channel_data(), d.mask(), &map),
        }
    }
    cfg.channel.capture.apply(&mut frame, motion, rng);
    frame
}

/// Per-frame classification of the victim: the highest-confidence
/// detection overlapping the victim's true box by more than `min_iou`
/// ([`EvalConfig::victim_iou`]).
pub(crate) fn classify_victim(
    dets: &[Detection],
    victim: &rd_scene::GtBox,
    min_iou: f32,
) -> Option<ObjectClass> {
    dets.iter()
        .filter(|d| d.iou(victim) > min_iou)
        .max_by(|a, b| a.confidence().total_cmp(&b.confidence()))
        .map(|d| d.class)
}

/// The per-run RNG: one sequential stream per run covering decal
/// printing, pose generation and per-frame capture noise, in that
/// order. Both execution paths draw from it identically — this shared
/// constructor is what pins the bitwise contract down.
pub(crate) fn run_rng(cfg: &EvalConfig, run: usize) -> StdRng {
    StdRng::seed_from_u64(cfg.seed ^ (run as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Per-frame probe used by the bitwise streamed-vs-buffered test:
/// called once per scored frame, in frame order, with the run index,
/// the frame index within the run, the frame's post-NMS detections and
/// the victim classification derived from them.
pub(crate) type FrameObserver<'a> = dyn FnMut(usize, usize, &[Detection], Option<ObjectClass>) + 'a;

/// Evaluates a decal set under one challenge. `decals` may be empty (the
/// "w/o attack" row).
///
/// Scores the drive through the streaming loop
/// ([`stream::evaluate_streamed`], which also reports loop
/// statistics).
///
/// Runs on the caller's current runtime and honors its cancellation
/// state: per run, per chunk and per rendered frame the
/// deadline/cancel flag is checked, and a tripped runtime aborts the
/// evaluation by unwinding with an [`rd_tensor::runtime::CancelUnwind`]
/// payload (which a supervisor catches and reports as a deadline, not a
/// crash). Outside supervised jobs the check never fires.
pub fn evaluate_challenge(
    scenario: &AttackScenario,
    decals: &Deployment,
    model: &TinyYolo,
    ps: &ParamSet,
    target: ObjectClass,
    challenge: Challenge,
    cfg: &EvalConfig,
) -> ChallengeOutcome {
    stream::evaluate_streamed(scenario, decals, model, ps, target, challenge, cfg).outcome
}

/// Evaluates the clean scene ("w/o attack" rows): same pipeline, no
/// decals.
pub fn evaluate_clean(
    scenario: &AttackScenario,
    model: &TinyYolo,
    ps: &ParamSet,
    target: ObjectClass,
    challenge: Challenge,
    cfg: &EvalConfig,
) -> ChallengeOutcome {
    evaluate_challenge(
        scenario,
        &Deployment::none(),
        model,
        ps,
        target,
        challenge,
        cfg,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_columns_are_eight() {
        let c = Challenge::table_columns();
        assert_eq!(c.len(), 8);
        assert_eq!(c[0].label(), "fix");
        assert_eq!(c[2].label(), "slow");
        assert_eq!(c[5].label(), "-15 deg");
    }

    #[test]
    fn ablation_columns_are_six() {
        assert_eq!(Challenge::ablation_columns().len(), 6);
    }

    #[test]
    fn pose_counts_reflect_speed() {
        let cfg = EvalConfig::real_world(1);
        let mut rng = StdRng::seed_from_u64(2);
        let slow = Challenge::Speed(Speed::Slow).poses(&cfg, &mut rng).len();
        let fast = Challenge::Speed(Speed::Fast).poses(&cfg, &mut rng).len();
        assert!(slow > fast);
        assert!(fast >= CONFIRM_WINDOW, "fast runs must allow a CWC window");
    }

    #[test]
    fn rotation_poses_have_fixed_count() {
        let cfg = EvalConfig::real_world(1);
        let mut rng = StdRng::seed_from_u64(2);
        let p = Challenge::Rotation(RotationSetting::Fix).poses(&cfg, &mut rng);
        assert_eq!(p.len(), cfg.rotation_frames);
    }
}
