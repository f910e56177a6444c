//! Fault-matrix integration tests for the supervisor: N concurrent
//! supervised jobs, one sabotaged — panic at a step, stall past the
//! job deadline, a gradient NaN storm or a corrupted checkpoint — and
//! the siblings must finish **bitwise-identically** to their solo runs.
//!
//! Containment holds because every job runs on its own
//! [`road_decals_repro::tensor::Runtime`] (separate worker budget and
//! scratch arena) and the parallel substrate's partitioning is
//! size-only, so a job's numerics do not depend on what its neighbors
//! are doing — or whether they are alive at all.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use road_decals_repro::attack::{
    run_fleet, run_job, CorruptMode, FaultPlan, JobCtx, JobOutcome, JobSpec, RecoveryOptions,
    RunnerError, RunnerReport, TrainRunner,
};
use road_decals_repro::detector::{DetectorTrainer, TinyYolo, TrainConfig, YoloConfig};
use road_decals_repro::scene::dataset::{generate, DatasetConfig, Sample};
use road_decals_repro::scene::CameraRig;
use road_decals_repro::tensor::ParamSet;

/// Fresh detector-training state for a job, seeded off `seed` so every
/// job in a fleet trains a distinct model on distinct data.
fn detector_state(seed: u64) -> (TinyYolo, ParamSet, Vec<Sample>) {
    let mut rng = StdRng::seed_from_u64(17 + seed);
    let mut ps = ParamSet::new();
    let model = TinyYolo::new(&mut ps, &mut rng, YoloConfig::smoke());
    let data = generate(&DatasetConfig {
        rig: CameraRig::smoke(),
        n_images: 8,
        seed: 23 + seed,
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

fn tmp_ck(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("rd_supervisor_{name}.rdc"));
    let _ = std::fs::remove_file(&path);
    path
}

/// What a finished job leaves behind for bitwise comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
struct JobResult {
    param_bits: Vec<Vec<u32>>,
    loss_bits: Vec<u32>,
}

/// One job's shape: its data seed, optional sabotage, and whether the
/// sabotage applies to every attempt or only the first (a transient
/// fault the retry rides out via checkpoint resume).
struct JobDef {
    seed: u64,
    fault: Option<FaultPlan>,
    fault_first_attempt_only: bool,
    ck: PathBuf,
}

impl JobDef {
    fn healthy(seed: u64, ck: PathBuf) -> Self {
        JobDef {
            seed,
            fault: None,
            fault_first_attempt_only: false,
            ck,
        }
    }
}

/// The uniform job body every fleet test runs: build detector-training
/// state from the def's seed, bind trainer and runner to the attempt's
/// runtime, train with periodic checkpoints + resume, and park the
/// final parameter/loss bits in `slot` for the bitwise assertions.
fn detector_job(
    ctx: &JobCtx,
    def: &JobDef,
    slot: &Mutex<Option<JobResult>>,
) -> Result<RunnerReport, RunnerError> {
    let (model, mut ps, data) = detector_state(def.seed);
    let cfg = detector_cfg();
    let opts = RecoveryOptions {
        checkpoint_every: 1,
        checkpoint_path: Some(def.ck.clone()),
        resume: true,
        ..RecoveryOptions::default()
    };
    let mut trainer =
        DetectorTrainer::new(&model, &mut ps, &data, cfg).with_runtime(ctx.rt.clone());
    let mut runner = TrainRunner::new(opts).with_runtime(ctx.rt.clone());
    let sabotage = def
        .fault
        .as_ref()
        .filter(|_| !def.fault_first_attempt_only || ctx.attempt == 0);
    if let Some(plan) = sabotage {
        runner = runner.with_fault_plan(plan);
    }
    let report = runner.run(&mut trainer)?;
    let train_report = trainer.finish();
    *slot.lock().unwrap() = Some(JobResult {
        param_bits: ps
            .iter()
            .map(|(_, p)| p.value().data().iter().map(|x| x.to_bits()).collect())
            .collect(),
        loss_bits: train_report
            .epoch_losses
            .iter()
            .map(|x| x.to_bits())
            .collect(),
    });
    Ok(report)
}

/// Runs every def under its spec, all concurrently; returns the fleet's
/// reports and each job's captured result.
fn run_matrix(
    defs: &[JobDef],
    specs: &[JobSpec],
) -> (
    Vec<road_decals_repro::attack::JobReport>,
    Vec<Option<JobResult>>,
) {
    let slots: Vec<Mutex<Option<JobResult>>> = defs.iter().map(|_| Mutex::new(None)).collect();
    let jobs: Vec<(JobSpec, _)> = defs
        .iter()
        .zip(&slots)
        .zip(specs)
        .map(|((def, slot), spec)| {
            let job = move |ctx: &JobCtx| detector_job(ctx, def, slot);
            (spec.clone(), job)
        })
        .collect();
    let reports = run_fleet(jobs);
    let results = slots.into_iter().map(|s| s.into_inner().unwrap()).collect();
    (reports, results)
}

/// Solo baseline for a def: same job body, same spec, run alone.
fn solo(def: &JobDef, spec: &JobSpec) -> Option<JobResult> {
    let _ = std::fs::remove_file(&def.ck);
    let slot = Mutex::new(None);
    let report = run_job(spec, |ctx| detector_job(ctx, def, &slot));
    assert!(
        report.finished(),
        "solo run of {} must finish: {:?}",
        spec.name,
        report.outcome
    );
    let _ = std::fs::remove_file(&def.ck);
    slot.into_inner().unwrap()
}

/// Per-job specs: `sabotaged_spec` at `sabotaged`, plain defaults (plus
/// the job's checkpoint path) everywhere else.
fn matrix_specs(defs: &[JobDef], sabotaged: usize, sabotaged_spec: JobSpec) -> Vec<JobSpec> {
    defs.iter()
        .enumerate()
        .map(|(i, def)| {
            if i == sabotaged {
                sabotaged_spec.clone()
            } else {
                JobSpec::new(&format!("healthy-{i}")).checkpoint_path(def.ck.clone())
            }
        })
        .collect()
}

/// Asserts the three healthy siblings of `sabotaged` match their solo
/// baselines bit for bit, then cleans up every checkpoint file.
fn assert_siblings_bitwise(
    defs: &[JobDef],
    sabotaged: usize,
    results: &[Option<JobResult>],
    solos: &[Option<JobResult>],
) {
    for (i, def) in defs.iter().enumerate() {
        if i != sabotaged {
            assert_eq!(
                results[i], solos[i],
                "healthy job {i} diverged from its solo run"
            );
        }
        let _ = std::fs::remove_file(&def.ck);
    }
}

fn matrix_defs(tag: &str, base_seed: u64) -> Vec<JobDef> {
    (0..4)
        .map(|i| JobDef::healthy(base_seed + i, tmp_ck(&format!("{tag}_{i}"))))
        .collect()
}

// ------------------------------------------------------------ panic

#[test]
fn fleet_panic_is_contained_and_the_job_recovers() {
    let mut defs = matrix_defs("panic", 100);
    // sabotage job 0: panic in preflight of step 2, first attempt only
    defs[0].fault = Some(FaultPlan::new(0).panic_at(2));
    defs[0].fault_first_attempt_only = true;
    let spec = JobSpec::new("crashy")
        .max_retries(2)
        .backoff(Duration::from_millis(1), Duration::from_millis(4))
        .checkpoint_path(defs[0].ck.clone());
    let specs = matrix_specs(&defs, 0, spec);
    let solos: Vec<_> = defs.iter().zip(&specs).map(|(d, s)| solo(d, s)).collect();

    let (reports, results) = run_matrix(&defs, &specs);

    let crashy = &reports[0];
    assert!(
        crashy.finished(),
        "retry must recover: {:?}",
        crashy.outcome
    );
    assert_eq!(crashy.attempts, 2, "first attempt panics, second finishes");
    assert_eq!(crashy.quarantined, 1, "the panicked runtime is quarantined");
    assert!(crashy.panics[0].contains("injected panic at step 2"));
    // the retry resumed from the step-2 checkpoint instead of step 0
    let runner = crashy.runner.as_ref().unwrap();
    assert_eq!(runner.resumed_from, Some(2));
    // and because resume is bitwise, even the sabotaged job converges to
    // its solo (never-crashed) result
    assert_eq!(results[0], solos[0], "recovered job diverged from solo");
    for r in &reports[1..] {
        assert!(r.finished());
        assert_eq!(r.attempts, 1);
    }
    assert_siblings_bitwise(&defs, 0, &results, &solos);
}

// --------------------------------------------------- stall past deadline

#[test]
fn fleet_stall_past_deadline_is_contained() {
    let mut defs = matrix_defs("stall", 200);
    // sabotage job 1: wedge for an hour at step 1; the 3s job deadline
    // trips mid-stall and the cooperative sleep bails out
    defs[1].fault = Some(FaultPlan::new(0).stall_at(1, Duration::from_secs(3600)));
    let spec = JobSpec::new("wedged")
        .deadline(Duration::from_secs(3))
        .checkpoint_path(defs[1].ck.clone());
    let specs = matrix_specs(&defs, 1, spec);
    let solos: Vec<_> = defs
        .iter()
        .zip(&specs)
        .enumerate()
        .map(|(i, (d, s))| {
            if i == 1 {
                None // never finishes; no baseline
            } else {
                solo(d, s)
            }
        })
        .collect();

    let (reports, results) = run_matrix(&defs, &specs);

    assert_eq!(reports[1].outcome, JobOutcome::DeadlineExceeded);
    assert_eq!(
        reports[1].quarantined, 0,
        "a deadline is a graceful stop, not a crash"
    );
    assert!(results[1].is_none(), "the wedged job must not finish");
    for (i, r) in reports.iter().enumerate() {
        if i != 1 {
            assert!(r.finished());
        }
    }
    assert_siblings_bitwise(&defs, 1, &results, &solos);
}

// -------------------------------------------------------------- NaN storm

#[test]
fn fleet_nan_storm_is_contained() {
    let mut defs = matrix_defs("nan", 300);
    // sabotage job 2: a gradient NaN every time step 1 runs; the runner
    // rolls back, exhausts LR backoff and skips the batch — the job
    // still finishes on its first attempt
    defs[2].fault = Some(FaultPlan::new(9).nan_at(1));
    let spec = JobSpec::new("nan-storm").checkpoint_path(defs[2].ck.clone());
    // the NaN job's baseline is its own solo run under the *same* fault:
    // the rollback/skip trajectory is deterministic too
    let specs = matrix_specs(&defs, 2, spec);
    let solos: Vec<_> = defs.iter().zip(&specs).map(|(d, s)| solo(d, s)).collect();

    let (reports, results) = run_matrix(&defs, &specs);

    let stormy = &reports[2];
    assert!(
        stormy.finished(),
        "rollback handles NaNs: {:?}",
        stormy.outcome
    );
    assert_eq!(stormy.attempts, 1, "NaN recovery is the runner's job");
    let runner = stormy.runner.as_ref().unwrap();
    assert!(runner.rollbacks > 0, "the NaN must have forced rollbacks");
    assert_eq!(runner.skipped_steps, vec![1]);
    assert_eq!(results[2], solos[2], "NaN recovery diverged from solo");
    assert_siblings_bitwise(&defs, 2, &results, &solos);
}

// ---------------------------------------------------- corrupt checkpoint

#[test]
fn fleet_corrupt_checkpoint_is_contained() {
    let mut defs = matrix_defs("corrupt", 400);
    // sabotage job 3, first attempt only: checkpoint write 2 (the step-3
    // state) is bit-flipped, then the run dies at step 3. The retry hits
    // the corrupt file (CRC mismatch), the supervisor deletes it, and
    // the second retry restarts clean from step 0.
    defs[3].fault = Some(
        FaultPlan::new(0)
            .corrupt_checkpoint(2, CorruptMode::BitFlip)
            .kill_at(3),
    );
    defs[3].fault_first_attempt_only = true;
    let spec = JobSpec::new("poisoned")
        .max_retries(2)
        .backoff(Duration::from_millis(1), Duration::from_millis(4))
        .checkpoint_path(defs[3].ck.clone());
    let specs = matrix_specs(&defs, 3, spec);
    let solos: Vec<_> = defs.iter().zip(&specs).map(|(d, s)| solo(d, s)).collect();

    let (reports, results) = run_matrix(&defs, &specs);

    let poisoned = &reports[3];
    assert!(
        poisoned.finished(),
        "deleting the poison file unblocks the retry: {:?}",
        poisoned.outcome
    );
    assert_eq!(
        poisoned.attempts, 3,
        "kill, then corrupt-checkpoint rejection, then a clean restart"
    );
    let runner = poisoned.runner.as_ref().unwrap();
    assert_eq!(
        runner.resumed_from, None,
        "the clean restart begins from step 0 — the poison file is gone"
    );
    // a from-scratch restart is the straight run: bitwise equal to solo
    assert_eq!(results[3], solos[3], "restarted job diverged from solo");
    assert_siblings_bitwise(&defs, 3, &results, &solos);
}
