//! Gates on the streaming evaluation pipeline: its live-frame memory
//! must be bounded by one chunk pair regardless of drive length, and the
//! fleet driver must account for every drive. (Its bitwise equality with
//! the buffered reference oracle is tested inside the crate, where the
//! oracle lives.)

use std::time::Duration;

use rd_scene::{CameraRig, ObjectClass, RotationSetting};
use rd_tensor::{Runtime, RuntimeConfig};
use rd_vision::shapes::{mask, Shape};
use rd_vision::Plane;

use road_decals::attack::{deploy, Deployment};
use road_decals::decal::Decal;
use road_decals::eval::{Challenge, EvalConfig};
use road_decals::experiments::{prepare_environment, Environment, Scale};
use road_decals::scenario::AttackScenario;
use road_decals::stream::{eval_fleet, evaluate_streamed, FleetConfig, BATCH_FRAMES};
use road_decals::supervisor::JobOutcome;

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

#[test]
fn peak_live_frames_bounded_by_one_chunk_pair() {
    let (env, scenario, decals) = setup();
    let drive = |rotation_frames| {
        let cfg = EvalConfig {
            rotation_frames,
            ..EvalConfig::smoke(5)
        };
        evaluate_streamed(
            &scenario,
            &decals,
            &env.detector,
            &env.params,
            ObjectClass::Bicycle,
            Challenge::Rotation(RotationSetting::Fix),
            &cfg,
        )
        .stats
    };
    let short = drive(8);
    let long = drive(6 * BATCH_FRAMES);
    assert_eq!(short.frames, 8);
    assert_eq!(long.frames, 6 * BATCH_FRAMES);
    assert!(long.chunks > short.chunks);
    // the memory bound: a 12x longer drive must not hold more frames
    // live than the double buffer allows
    assert!(
        long.peak_live_frames <= 2 * BATCH_FRAMES,
        "peak live frames {} exceeds one chunk pair",
        long.peak_live_frames
    );
    assert!(short.peak_live_frames <= 2 * BATCH_FRAMES);
}

#[test]
fn arena_high_water_does_not_scale_with_drive_length() {
    let (env, scenario, decals) = setup();
    let high_water = |rotation_frames| {
        // fresh runtime per measurement: the mark is per-runtime state
        let rt = Runtime::new(RuntimeConfig::default());
        let cfg = EvalConfig {
            rotation_frames,
            ..EvalConfig::smoke(5)
        };
        rt.enter(|| {
            evaluate_streamed(
                &scenario,
                &decals,
                &env.detector,
                &env.params,
                ObjectClass::Bicycle,
                Challenge::Rotation(RotationSetting::Fix),
                &cfg,
            );
        });
        rt.arena_high_water()
    };
    // frame buffers are arena-backed (FrameRenderer), so the pipeline's
    // steady state — one chunk rendering while another is inferred —
    // first appears at two chunks; measure from there
    let short = high_water(2 * BATCH_FRAMES);
    let long = high_water(6 * BATCH_FRAMES);
    // frame and inference scratch is recycled chunk to chunk: a 3x
    // longer drive may not demand a meaningfully deeper arena
    assert!(
        long <= short + short / 8,
        "arena high water scaled with drive length: {short} -> {long}"
    );
}

#[test]
fn fleet_accounts_for_every_drive() {
    let (env, scenario, decals) = setup();
    let cfg = EvalConfig::smoke(9);
    let fleet = FleetConfig::new(5, 2);
    let report = eval_fleet(
        &scenario,
        &decals,
        &env.detector,
        &env.params,
        ObjectClass::Bicycle,
        Challenge::Rotation(RotationSetting::Fix),
        &cfg,
        &fleet,
    );
    assert!(report.finished(), "jobs: {:?}", report.jobs);
    assert_eq!(report.drives, 5);
    assert_eq!(report.drives_finished, 5);
    assert_eq!(report.jobs.len(), 2);
    assert_eq!(
        report.frames,
        5 * cfg.rotation_frames as u64,
        "every drive's frames must be scored exactly once"
    );
}

#[test]
fn fleet_deadline_cancels_cleanly() {
    let (env, scenario, decals) = setup();
    let cfg = EvalConfig::smoke(9);
    let fleet = FleetConfig {
        deadline: Some(Duration::ZERO),
        ..FleetConfig::new(4, 2)
    };
    let report = eval_fleet(
        &scenario,
        &decals,
        &env.detector,
        &env.params,
        ObjectClass::Bicycle,
        Challenge::Rotation(RotationSetting::Fix),
        &cfg,
        &fleet,
    );
    assert!(!report.finished());
    for job in &report.jobs {
        assert_eq!(
            job.outcome,
            JobOutcome::DeadlineExceeded,
            "an expired deadline must classify as a deadline, not a crash"
        );
    }
    assert_eq!(report.drives_finished, 0);
}
