//! Behavioural tests of the evaluation harness itself (crate-level
//! integration): the metrics must respond to the scene the way the
//! paper's protocol assumes.

use rd_detector::map::mean_average_precision;
use rd_detector::postprocess;
use rd_scene::dataset::{generate, DatasetConfig};
use rd_scene::{CameraRig, ObjectClass, PhysicalChannel, RotationSetting, Speed};
use rd_vision::shapes::{mask, Shape};
use rd_vision::{Image, Plane};

use road_decals::attack::{deploy, Deployment};
use road_decals::decal::Decal;
use road_decals::eval::{evaluate_challenge, Challenge, EvalConfig};
use road_decals::experiments::{prepare_environment, Scale};
use road_decals::scenario::AttackScenario;

fn black_star_decals(scenario: &AttackScenario) -> Deployment {
    let d = Decal::mono(
        &Plane::new(16, 16, 0.03),
        mask(Shape::Star, 16),
        Shape::Star,
    );
    deploy(&d, scenario)
}

/// The committed smoke detector must detect something: objects on
/// labelled frames (a positive mAP@0.5 and at least one detection at
/// the evaluation's confidence and NMS thresholds) and the victim on a
/// star-decal drive. Every PWC/CWC figure measured with this detector
/// would be vacuous without it.
#[test]
fn committed_smoke_detector_detects() {
    const CONF: f32 = 0.35;
    const NMS_IOU: f32 = 0.45;
    let env = prepare_environment(Scale::Smoke, 42);
    let nc = env.detector.config().num_classes;
    let frames = generate(&DatasetConfig {
        rig: CameraRig::smoke(),
        n_images: 32,
        seed: 11,
        augment: false,
    });
    let mut labelled = Vec::with_capacity(frames.len());
    for chunk in frames.chunks(16) {
        let images: Vec<_> = chunk.iter().map(|s| s.image.clone()).collect();
        let (coarse, fine) = env
            .detector
            .infer(&env.params, &Image::batch_to_tensor(&images));
        let dets = postprocess(&coarse, &fine, nc, CONF, NMS_IOU);
        labelled.extend(dets.into_iter().zip(chunk.iter().map(|s| s.boxes.clone())));
    }
    let detections: usize = labelled.iter().map(|(d, _)| d.len()).sum();
    let map = mean_average_precision(&labelled, 0.5);
    assert!(map > 0.0, "mAP {map} on the committed smoke detector");
    assert!(detections > 0, "no detections at conf {CONF}");

    let scenario = AttackScenario::parking_lot(CameraRig::smoke(), 4, 60, 16, 42);
    let drive = evaluate_challenge(
        &scenario,
        &black_star_decals(&scenario),
        &env.detector,
        &env.params,
        ObjectClass::Bicycle,
        Challenge::Rotation(RotationSetting::Slight),
        &EvalConfig {
            rotation_frames: 40,
            runs: 2,
            ..EvalConfig::smoke(7)
        },
    );
    assert!(drive.victim_detected > 0.0, "{drive:?}");
}

#[test]
fn evaluation_is_deterministic_given_seed() {
    let env = prepare_environment(Scale::Smoke, 42);
    let scenario = AttackScenario::parking_lot(CameraRig::smoke(), 4, 60, 16, 42);
    let decals = black_star_decals(&scenario);
    let ecfg = EvalConfig::smoke(7);
    let run = |env: &road_decals::experiments::Environment| {
        evaluate_challenge(
            &scenario,
            &decals,
            &env.detector,
            &env.params,
            ObjectClass::Bicycle,
            Challenge::Rotation(RotationSetting::Fix),
            &ecfg,
        )
    };
    let a = run(&env);
    let b = run(&env);
    assert_eq!(a.cell, b.cell);
    assert_eq!(a.victim_detected, b.victim_detected);
}

#[test]
fn different_seeds_vary_only_stochastic_parts() {
    // under the digital channel with a fixed-rotation challenge, the only
    // seed-dependence is pose jitter (none for Fix) — cells must agree
    let env = prepare_environment(Scale::Smoke, 42);
    let scenario = AttackScenario::parking_lot(CameraRig::smoke(), 4, 60, 16, 42);
    let decals = black_star_decals(&scenario);
    let mk = |seed| EvalConfig {
        channel: PhysicalChannel::digital(),
        ..EvalConfig::smoke(seed)
    };
    let a = evaluate_challenge(
        &scenario,
        &decals,
        &env.detector,
        &env.params,
        ObjectClass::Bicycle,
        Challenge::Rotation(RotationSetting::Fix),
        &mk(1),
    );
    let b = evaluate_challenge(
        &scenario,
        &decals,
        &env.detector,
        &env.params,
        ObjectClass::Bicycle,
        Challenge::Rotation(RotationSetting::Fix),
        &mk(2),
    );
    assert_eq!(
        a.cell, b.cell,
        "fixed pose + digital channel must be seed-free"
    );
}

#[test]
fn faster_speeds_produce_fewer_frames() {
    let env = prepare_environment(Scale::Smoke, 42);
    let scenario = AttackScenario::parking_lot(CameraRig::smoke(), 4, 60, 16, 42);
    let decals = black_star_decals(&scenario);
    let ecfg = EvalConfig::smoke(3);
    let frames = |speed| {
        evaluate_challenge(
            &scenario,
            &decals,
            &env.detector,
            &env.params,
            ObjectClass::Bicycle,
            Challenge::Speed(speed),
            &ecfg,
        )
        .frames_per_run
    };
    let slow = frames(Speed::Slow);
    let fast = frames(Speed::Fast);
    assert!(slow > fast, "slow {slow} vs fast {fast}");
    assert!(fast >= 3, "CWC must remain possible at fast speed");
}

#[test]
fn challenge_outcome_fields_are_consistent() {
    let env = prepare_environment(Scale::Smoke, 42);
    let scenario = AttackScenario::parking_lot(CameraRig::smoke(), 4, 60, 16, 42);
    let decals = black_star_decals(&scenario);
    let out = evaluate_challenge(
        &scenario,
        &decals,
        &env.detector,
        &env.params,
        ObjectClass::Bicycle,
        Challenge::Rotation(RotationSetting::Slight),
        &EvalConfig::smoke(11),
    );
    assert!(out.cell.pwc >= 0.0 && out.cell.pwc <= 1.0);
    assert!(out.victim_detected >= 0.0 && out.victim_detected <= 1.0);
    // CWC requires at least 3 frames of target class: impossible if PWC
    // implies fewer than 3 frames total hit
    if out.cell.cwc {
        assert!(out.cell.pwc * out.frames_per_run as f32 >= 2.9 / 3.0);
    }
}
