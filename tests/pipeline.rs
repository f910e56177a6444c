//! End-to-end integration tests: detector training → decal attack →
//! challenge evaluation, at smoke scale.

use road_decals_repro::attack as rd;
use road_decals_repro::scene::{ObjectClass, PhysicalChannel, RotationSetting};

use rd::attack::{deploy, train_decal_attack, AttackConfig};
use rd::baseline::{train_baseline_patch, BaselineConfig};
use rd::eval::{evaluate_challenge, evaluate_clean, Challenge, EvalConfig};
use rd::experiments::{prepare_environment, Scale};
use rd::scenario::AttackScenario;

#[test]
fn clean_scene_is_never_classified_as_the_target() {
    let env = prepare_environment(Scale::Smoke, 42);
    let scenario = AttackScenario::parking_lot(Scale::Smoke.rig(), 4, 60, 16, 42);
    let ecfg = EvalConfig::smoke(42);
    for challenge in [
        Challenge::Rotation(RotationSetting::Fix),
        Challenge::Rotation(RotationSetting::Slight),
    ] {
        let out = evaluate_clean(
            &scenario,
            &env.detector,
            &env.params,
            ObjectClass::Bicycle,
            challenge,
            &ecfg,
        );
        assert!(
            out.cell.pwc <= 0.25,
            "clean PWC should be near zero, got {} at {}",
            out.cell.pwc,
            challenge.label()
        );
    }
}

#[test]
fn full_attack_pipeline_produces_consistent_artifacts() {
    let mut env = prepare_environment(Scale::Smoke, 42);
    let scenario = AttackScenario::parking_lot(Scale::Smoke.rig(), 4, 60, 16, 42);
    let cfg = AttackConfig {
        steps: 8,
        clips_per_batch: 2,
        ..AttackConfig::paper()
    };
    let trained = train_decal_attack(&scenario, &env.detector, &mut env.params, &cfg);
    // monochrome, in-range, correct canvas
    assert_eq!(trained.decal.num_channels(), 1);
    assert_eq!(trained.decal.canvas(), 16);
    assert_eq!(trained.decal.masked_chroma(), 0.0);
    let intensity = trained.decal.intensity();
    assert!(intensity.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    // loss histories populated and finite
    assert_eq!(trained.attack_loss.len(), 8);
    assert!(trained.attack_loss.iter().all(|l| l.is_finite()));
    // deployment replicates per site
    let decals = deploy(&trained.decal, &scenario);
    assert_eq!(decals.len(), 4);
    // evaluation runs end to end
    let out = evaluate_challenge(
        &scenario,
        &decals,
        &env.detector,
        &env.params,
        cfg.target_class,
        Challenge::Rotation(RotationSetting::Fix),
        &EvalConfig::smoke(42),
    );
    assert!(out.cell.pwc >= 0.0 && out.cell.pwc <= 1.0);
    assert!(out.frames_per_run > 0);
}

#[test]
fn baseline_pipeline_runs_and_is_colored() {
    let env = prepare_environment(Scale::Smoke, 42);
    let scenario = AttackScenario::parking_lot(Scale::Smoke.rig(), 2, 60, 16, 42);
    let cfg = BaselineConfig {
        steps: 4,
        batch_frames: 4,
        ..BaselineConfig::smoke()
    };
    let patch = train_baseline_patch(&scenario, &env.detector, &env.params, &cfg);
    assert_eq!(patch.decal.num_channels(), 3);
    // a freshly optimized colored patch generally carries chroma
    let decals = deploy(&patch.decal, &scenario);
    let out = evaluate_challenge(
        &scenario,
        &decals,
        &env.detector,
        &env.params,
        cfg.target_class,
        Challenge::Rotation(RotationSetting::Fix),
        &EvalConfig::smoke(42),
    );
    assert!(out.cell.pwc >= 0.0 && out.cell.pwc <= 1.0);
}

#[test]
fn physical_channel_never_helps_the_monochrome_attack_much() {
    // PWC under the real-world channel should not exceed the digital PWC
    // by more than noise allows — the channel only destroys information.
    let mut env = prepare_environment(Scale::Smoke, 42);
    let scenario = AttackScenario::parking_lot(Scale::Smoke.rig(), 4, 60, 16, 42);
    let cfg = AttackConfig {
        steps: 8,
        clips_per_batch: 2,
        ..AttackConfig::paper()
    };
    let trained = train_decal_attack(&scenario, &env.detector, &mut env.params, &cfg);
    let decals = deploy(&trained.decal, &scenario);
    let challenge = Challenge::Rotation(RotationSetting::Fix);
    let digital = evaluate_challenge(
        &scenario,
        &decals,
        &env.detector,
        &env.params,
        cfg.target_class,
        challenge,
        &EvalConfig {
            channel: PhysicalChannel::digital(),
            ..EvalConfig::smoke(42)
        },
    );
    let real = evaluate_challenge(
        &scenario,
        &decals,
        &env.detector,
        &env.params,
        cfg.target_class,
        challenge,
        &EvalConfig {
            channel: PhysicalChannel::real_world(),
            ..EvalConfig::smoke(42)
        },
    );
    assert!(
        real.cell.pwc <= digital.cell.pwc + 0.5,
        "real-world PWC {} should not dominate digital {}",
        real.cell.pwc,
        digital.cell.pwc
    );
}

#[test]
fn environment_cache_roundtrip_is_stable() {
    // preparing twice must yield identical weights (2nd load from cache)
    let env1 = prepare_environment(Scale::Smoke, 42);
    let env2 = prepare_environment(Scale::Smoke, 42);
    for ((_, a), (_, b)) in env1.params.iter().zip(env2.params.iter()) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.value(), b.value());
    }
}
