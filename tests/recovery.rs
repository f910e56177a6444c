//! Integration tests for the fault-tolerant training runner: every
//! recovery path — kill + resume, divergence rollback with LR backoff,
//! batch skipping after backoff exhaustion, and corrupted-checkpoint
//! rejection — driven by the deterministic `FaultPlan` harness.
//!
//! The headline contract: a run that is killed at step N and resumed
//! from its checkpoint finishes **bitwise-identically** to a run that
//! was never interrupted, at any worker-thread count.

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::SeedableRng;

use road_decals_repro::attack::scenario::AttackScenario;
use road_decals_repro::attack::{
    train_decal_attack_recoverable, train_detector_recoverable, AttackConfig, AttackTrainer,
    CorruptMode, FaultPlan, RecoveryOptions, RunnerError, TrainRunner, TrainedDecal,
};
use road_decals_repro::detector::{TinyYolo, TrainConfig, YoloConfig};
use road_decals_repro::scene::dataset::{generate, DatasetConfig};
use road_decals_repro::scene::CameraRig;
use road_decals_repro::tensor::io::{encode_checkpoint, load_checkpoint_file, CheckpointError};
use road_decals_repro::tensor::{ParamSet, Runtime, RuntimeConfig};

/// Runs `f` inside a private [`Runtime`] capped at `n` worker threads.
/// Thread budgets are per-runtime now, so tests at different counts run
/// concurrently without a process-global lock.
fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let rt = Runtime::new(RuntimeConfig {
        threads: n,
        ..RuntimeConfig::default()
    });
    rt.enter(f)
}

fn tmp_ck(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("rd_recovery_{name}.rdc"));
    let _ = std::fs::remove_file(&path);
    path
}

// ---------------------------------------------------------------- attack

fn smoke_attack(steps: usize) -> (AttackScenario, TinyYolo, ParamSet, AttackConfig) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut ps = ParamSet::new();
    let detector = TinyYolo::new(&mut ps, &mut rng, YoloConfig::smoke());
    let scenario = AttackScenario::parking_lot(CameraRig::smoke(), 2, 60, 16, 5);
    let cfg = AttackConfig {
        steps,
        seed: 5,
        ..AttackConfig::smoke()
    };
    (scenario, detector, ps, cfg)
}

/// Trains `steps` straight through, then again with a kill at
/// `kill_at` + a resume, and asserts the two final decals (and full loss
/// histories) are bitwise identical.
fn assert_kill_resume_bitwise(steps: usize, checkpoint_every: u64, kill_at: u64, tag: &str) {
    // uninterrupted reference
    let (scenario, detector, mut ps, cfg) = smoke_attack(steps);
    let (straight, _) = train_decal_attack_recoverable(
        &scenario,
        &detector,
        &mut ps,
        &cfg,
        &RecoveryOptions::default(),
    )
    .expect("straight run");

    // interrupted: checkpoint periodically, die at `kill_at`
    let path = tmp_ck(tag);
    let opts = RecoveryOptions {
        checkpoint_every,
        checkpoint_path: Some(path.clone()),
        ..RecoveryOptions::default()
    };
    let (scenario, detector, mut ps, cfg) = smoke_attack(steps);
    let plan = FaultPlan::new(0).kill_at(kill_at);
    let mut trainer = AttackTrainer::new(&scenario, &detector, &mut ps, &cfg);
    let err = TrainRunner::new(opts.clone())
        .with_fault_plan(&plan)
        .run(&mut trainer)
        .expect_err("scripted kill fires");
    assert!(
        matches!(err, RunnerError::SimulatedKill { step } if step == kill_at),
        "unexpected: {err}"
    );
    drop(trainer);

    // resume from the checkpoint and finish
    let resume_opts = RecoveryOptions {
        resume: true,
        ..opts
    };
    let (scenario, detector, mut ps, cfg) = smoke_attack(steps);
    let (resumed, report) =
        train_decal_attack_recoverable(&scenario, &detector, &mut ps, &cfg, &resume_opts)
            .expect("resumed run");
    let expect_resume_step = (kill_at / checkpoint_every) * checkpoint_every;
    assert_eq!(report.resumed_from, Some(expect_resume_step));

    let assert_same = |a: &TrainedDecal, b: &TrainedDecal| {
        assert_eq!(
            a.decal.channel_data(),
            b.decal.channel_data(),
            "decal diverged after resume"
        );
        let key = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            key(&a.attack_loss),
            key(&b.attack_loss),
            "attack-loss curve diverged"
        );
        assert_eq!(
            key(&a.adv_loss),
            key(&b.adv_loss),
            "adv-loss curve diverged"
        );
    };
    assert_same(&resumed, &straight);

    // resuming the *finished* run is a no-op, not a retrain
    let (scenario, detector, mut ps, cfg) = smoke_attack(steps);
    let (finished, report) =
        train_decal_attack_recoverable(&scenario, &detector, &mut ps, &cfg, &resume_opts)
            .expect("no-op resume");
    assert_eq!(report.resumed_from, Some(steps as u64));
    assert_eq!(report.steps_run, 0);
    assert_same(&finished, &straight);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn attack_kill_and_resume_is_bitwise_serial() {
    with_threads(1, || assert_kill_resume_bitwise(6, 2, 4, "attack_serial"));
}

#[test]
fn attack_kill_and_resume_is_bitwise_4_threads() {
    with_threads(4, || assert_kill_resume_bitwise(6, 2, 3, "attack_mt"));
}

/// The ci.sh resume-determinism smoke: 20 steps straight vs 10 + kill +
/// resume 10 (release build; `--ignored` opts in).
#[test]
#[ignore = "ci smoke: run with --ignored in release builds"]
fn attack_resume_determinism_smoke_20_steps() {
    with_threads(0, || assert_kill_resume_bitwise(20, 5, 10, "attack_ci20"));
}

// ------------------------------------------------- checkpoint round trip

/// A run killed mid-job leaves a checkpoint that a fresh trainer
/// restores and re-encodes byte for byte, and resuming from it twice
/// finishes bitwise-identically both times.
#[test]
fn kill_resume_checkpoint_round_trips_bitwise() {
    let path = tmp_ck("round_trip");
    let opts = RecoveryOptions {
        checkpoint_every: 2,
        checkpoint_path: Some(path.clone()),
        ..RecoveryOptions::default()
    };

    // leg 1: killed at step 4 (last checkpoint = step-4 state)
    {
        let (scenario, detector, mut ps, cfg) = smoke_attack(6);
        let plan = FaultPlan::new(0).kill_at(4);
        let mut trainer = AttackTrainer::new(&scenario, &detector, &mut ps, &cfg);
        let err = TrainRunner::new(opts.clone())
            .with_fault_plan(&plan)
            .run(&mut trainer)
            .expect_err("scripted kill fires");
        assert!(matches!(err, RunnerError::SimulatedKill { step: 4 }));
    }

    // the restore is bitwise: a fresh trainer re-encodes the killed
    // run's bytes exactly
    let bytes = std::fs::read(&path).expect("checkpoint file");
    let ck = load_checkpoint_file(&path).expect("checkpoint readable");
    with_threads(0, || {
        let (scenario, detector, mut ps, cfg) = smoke_attack(6);
        let mut trainer = AttackTrainer::new(&scenario, &detector, &mut ps, &cfg);
        trainer.restore(&ck).expect("restore");
        assert_eq!(trainer.steps_done(), 4);
        assert_eq!(
            encode_checkpoint(&trainer.checkpoint()),
            bytes,
            "checkpoint restore is not bitwise"
        );
    });

    // leg 2: resume — twice, bitwise-identically
    let resume_opts = RecoveryOptions {
        resume: true,
        ..opts
    };
    let run_resume = || {
        with_threads(0, || {
            let (scenario, detector, mut ps, cfg) = smoke_attack(6);
            train_decal_attack_recoverable(&scenario, &detector, &mut ps, &cfg, &resume_opts)
                .expect("resume")
        })
    };
    let (decal_a, report_a) = run_resume();
    assert_eq!(report_a.resumed_from, Some(4));
    // rewind the checkpoint file and replay the resume
    std::fs::write(&path, &bytes).expect("rewind checkpoint");
    let (decal_b, report_b) = run_resume();
    assert_eq!(report_b.resumed_from, Some(4));
    assert_eq!(
        decal_a.decal.channel_data(),
        decal_b.decal.channel_data(),
        "resume is not deterministic"
    );
    let key = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(key(&decal_a.attack_loss), key(&decal_b.attack_loss));
    let _ = std::fs::remove_file(&path);
}

// -------------------------------------------------------------- detector

fn smoke_detector_data() -> (
    TinyYolo,
    ParamSet,
    Vec<road_decals_repro::scene::dataset::Sample>,
) {
    let mut rng = StdRng::seed_from_u64(17);
    let mut ps = ParamSet::new();
    let model = TinyYolo::new(&mut ps, &mut rng, YoloConfig::smoke());
    let data = generate(&DatasetConfig {
        rig: CameraRig::smoke(),
        n_images: 8,
        seed: 23,
        augment: false,
    });
    (model, ps, data)
}

fn detector_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 2,
        batch_size: 4,
        lr: 1e-3,
        seed: 17,
        clip: 10.0,
        log_every: 0,
        compiled: true,
    }
}

#[test]
fn detector_kill_and_resume_is_bitwise() {
    let (model, mut ps, data) = smoke_detector_data();
    let cfg = detector_cfg();
    let (straight_report, _) =
        train_detector_recoverable(&model, &mut ps, &data, &cfg, &RecoveryOptions::default())
            .expect("straight run");
    let straight_ps = ps;

    let path = tmp_ck("detector");
    let opts = RecoveryOptions {
        checkpoint_every: 1,
        checkpoint_path: Some(path.clone()),
        ..RecoveryOptions::default()
    };
    let (model, mut ps, data) = smoke_detector_data();
    let plan = FaultPlan::new(0).kill_at(2);
    let mut trainer =
        road_decals_repro::detector::DetectorTrainer::new(&model, &mut ps, &data, cfg);
    let err = TrainRunner::new(opts.clone())
        .with_fault_plan(&plan)
        .run(&mut trainer)
        .expect_err("scripted kill fires");
    assert!(matches!(err, RunnerError::SimulatedKill { step: 2 }));
    drop(trainer);

    let (model, mut ps, data) = smoke_detector_data();
    let (resumed_report, runner_report) = train_detector_recoverable(
        &model,
        &mut ps,
        &data,
        &cfg,
        &RecoveryOptions {
            resume: true,
            ..opts
        },
    )
    .expect("resumed run");
    assert_eq!(runner_report.resumed_from, Some(2));
    for ((_, a), (_, b)) in straight_ps.iter().zip(ps.iter()) {
        assert_eq!(
            a.value().data(),
            b.value().data(),
            "param {} diverged after resume",
            a.name()
        );
    }
    let key = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        key(&straight_report.epoch_losses),
        key(&resumed_report.epoch_losses),
        "loss curve diverged after resume"
    );
    let _ = std::fs::remove_file(&path);
}

// --------------------------------------------------- divergence recovery

#[test]
fn transient_nan_rolls_back_and_completes() {
    let (model, mut ps, data) = smoke_detector_data();
    let cfg = detector_cfg();
    // one NaN planted into a gradient the first time step 1 runs
    let plan = FaultPlan::new(9).nan_at_times(1, 1);
    let mut trainer =
        road_decals_repro::detector::DetectorTrainer::new(&model, &mut ps, &data, cfg);
    let report = TrainRunner::new(RecoveryOptions::default())
        .with_fault_plan(&plan)
        .run(&mut trainer)
        .expect("recovers from a transient NaN");
    assert!(trainer.is_done());
    assert_eq!(report.rollbacks, 1);
    assert_eq!(report.nonfinite_events.len(), 1);
    assert_eq!(report.nonfinite_events[0].0, 1);
    assert!(
        report.nonfinite_events[0].1.contains("non-finite"),
        "provenance detail missing: {}",
        report.nonfinite_events[0].1
    );
    assert!(report.skipped_steps.is_empty(), "no skip needed");
    drop(trainer);
    for (_, p) in ps.iter() {
        assert!(
            p.value().data().iter().all(|v| v.is_finite()),
            "param {} left non-finite after recovery",
            p.name()
        );
    }
}

#[test]
fn persistent_nan_exhausts_backoff_and_skips_the_batch() {
    let (model, mut ps, data) = smoke_detector_data();
    let cfg = detector_cfg();
    // a NaN every time step 1 runs: backoff can never ride it out
    let plan = FaultPlan::new(9).nan_at(1);
    let opts = RecoveryOptions {
        max_lr_halvings: 2,
        ..RecoveryOptions::default()
    };
    let mut trainer =
        road_decals_repro::detector::DetectorTrainer::new(&model, &mut ps, &data, cfg);
    let report = TrainRunner::new(opts)
        .with_fault_plan(&plan)
        .run(&mut trainer)
        .expect("skips the poisoned batch");
    assert!(trainer.is_done());
    // 2 halvings + 1 exhaustion event, then the batch is skipped
    assert_eq!(report.rollbacks, 3);
    assert_eq!(report.skipped_steps, vec![1]);
    assert_eq!(trainer.steps_done(), trainer.total_steps());
}

// ------------------------------------------------- checkpoint corruption

#[test]
fn corrupt_checkpoints_are_rejected_cleanly_on_resume() {
    let cfg = detector_cfg();
    // with checkpoint_every=1 and 4 total steps, write index 4 is the
    // terminal checkpoint — corrupting it leaves the *last* file bad
    let cases = [
        (CorruptMode::BitFlip, "bitflip"),
        (CorruptMode::Truncate, "truncate"),
        (CorruptMode::TornWrite, "torn"),
    ];
    for (mode, tag) in cases {
        let path = tmp_ck(&format!("corrupt_{tag}"));
        let opts = RecoveryOptions {
            checkpoint_every: 1,
            checkpoint_path: Some(path.clone()),
            ..RecoveryOptions::default()
        };
        let (model, mut ps, data) = smoke_detector_data();
        let plan = FaultPlan::new(7).corrupt_checkpoint(4, mode);
        let mut trainer =
            road_decals_repro::detector::DetectorTrainer::new(&model, &mut ps, &data, cfg);
        TrainRunner::new(opts.clone())
            .with_fault_plan(&plan)
            .run(&mut trainer)
            .expect("the training run itself succeeds");
        drop(trainer);

        let (model, mut ps, data) = smoke_detector_data();
        let err = train_detector_recoverable(
            &model,
            &mut ps,
            &data,
            &cfg,
            &RecoveryOptions {
                resume: true,
                ..opts
            },
        )
        .expect_err("corrupt checkpoint must not resume");
        match (&err, mode) {
            (
                RunnerError::Checkpoint(CheckpointError::CrcMismatch { .. }),
                CorruptMode::BitFlip,
            ) => {}
            (
                RunnerError::Checkpoint(CheckpointError::Truncated { .. }),
                CorruptMode::Truncate | CorruptMode::TornWrite,
            ) => {}
            _ => panic!("{tag}: unexpected error {err}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}

// ------------------------------------------------------ state mismatches

#[test]
fn resume_rejects_checkpoint_from_a_different_run() {
    // checkpoint a 2-epoch run, then try to resume a 3-epoch run from it
    let path = tmp_ck("fingerprint");
    let opts = RecoveryOptions {
        checkpoint_every: 1,
        checkpoint_path: Some(path.clone()),
        ..RecoveryOptions::default()
    };
    let (model, mut ps, data) = smoke_detector_data();
    train_detector_recoverable(&model, &mut ps, &data, &detector_cfg(), &opts).expect("first run");

    let (model, mut ps, data) = smoke_detector_data();
    let other_cfg = TrainConfig {
        epochs: 3,
        ..detector_cfg()
    };
    let err = train_detector_recoverable(
        &model,
        &mut ps,
        &data,
        &other_cfg,
        &RecoveryOptions {
            resume: true,
            ..opts
        },
    )
    .expect_err("mismatched run must not resume");
    assert!(
        matches!(
            err,
            RunnerError::Checkpoint(CheckpointError::StateMismatch(_))
        ),
        "unexpected error: {err}"
    );
    let _ = std::fs::remove_file(&path);
}
