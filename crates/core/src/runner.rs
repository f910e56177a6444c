//! Fault-tolerant training driver: periodic checkpoints, crash resume,
//! divergence rollback with LR backoff, and graceful batch skipping.
//!
//! [`TrainRunner`] wraps any [`Trainable`] — the attack's
//! [`crate::attack::AttackTrainer`] and the detector's
//! [`rd_detector::DetectorTrainer`] both qualify — and drives it to
//! completion under a recovery policy:
//!
//! * **Checkpointing**: every K steps the full training state is written
//!   atomically (v2 format: versioned header + CRC; see
//!   [`rd_tensor::io`]). A killed run restarted with `resume` picks up at
//!   the last checkpoint and, because training is deterministic, finishes
//!   **bitwise-identically** to an uninterrupted run.
//! * **Divergence rollback**: when a step reports
//!   [`StepOutcome::NonFinite`] (carrying `audit_non_finite` provenance),
//!   the runner restores the last checkpoint and retries with the
//!   learning rate halved — capped exponential backoff up to
//!   [`RecoveryOptions::max_lr_halvings`].
//! * **Graceful skip**: if the same step still diverges after the cap,
//!   the runner rolls back once more, replays at the base rate and skips
//!   the offending batch, consuming its RNG draws so the remaining
//!   trajectory stays deterministic.
//!
//! The runner also carries a [`Runtime`] binding: cooperative
//! cancellation/deadline state is checked at every step boundary
//! ([`RunnerError::Cancelled`]).
//!
//! The [`crate::fault`] harness plugs in here to script NaNs, kills,
//! panics, stalls and checkpoint corruption for the integration tests.

use std::error::Error;
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use rd_detector::{DetectorTrainer, GradHook};
use rd_tensor::io::{
    encode_checkpoint, load_checkpoint_file, save_checkpoint_bytes, Checkpoint, CheckpointError,
};
use rd_tensor::optim::StepOutcome;
use rd_tensor::{runtime, Cancelled, ParamSet, Runtime};

use crate::attack::{AttackConfig, AttackTrainer, TrainedDecal};
use crate::fault::FaultPlan;
use crate::scenario::AttackScenario;

/// Anything the recovery runner can drive: a step-wise trainer whose
/// complete state round-trips through a [`Checkpoint`].
pub trait Trainable {
    /// Runs one optimizer step; a `NonFinite` outcome must leave
    /// optimizer-visible state un-updated.
    fn step(&mut self, hook: Option<GradHook<'_>>) -> StepOutcome;
    /// Advances past the current batch without updating parameters,
    /// consuming exactly the RNG draws a real step would.
    fn skip_step(&mut self);
    /// Steps completed (or skipped) so far.
    fn steps_done(&self) -> u64;
    /// Steps in a full run.
    fn total_steps(&self) -> u64;
    /// Whether the run is complete.
    fn is_done(&self) -> bool;
    /// Scales the learning rate relative to the configured base rate.
    fn set_lr_scale(&mut self, scale: f32);
    /// Exports the complete training state.
    fn checkpoint(&self) -> Checkpoint;
    /// Restores a state exported by `checkpoint`.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] when the checkpoint is missing
    /// sections, malformed, or from an incompatible run.
    fn restore(&mut self, ck: &Checkpoint) -> Result<(), CheckpointError>;
}

impl Trainable for AttackTrainer<'_> {
    fn step(&mut self, hook: Option<GradHook<'_>>) -> StepOutcome {
        AttackTrainer::step(self, hook)
    }
    fn skip_step(&mut self) {
        AttackTrainer::skip_step(self);
    }
    fn steps_done(&self) -> u64 {
        AttackTrainer::steps_done(self)
    }
    fn total_steps(&self) -> u64 {
        AttackTrainer::total_steps(self)
    }
    fn is_done(&self) -> bool {
        AttackTrainer::is_done(self)
    }
    fn set_lr_scale(&mut self, scale: f32) {
        AttackTrainer::set_lr_scale(self, scale);
    }
    fn checkpoint(&self) -> Checkpoint {
        AttackTrainer::checkpoint(self)
    }
    fn restore(&mut self, ck: &Checkpoint) -> Result<(), CheckpointError> {
        AttackTrainer::restore(self, ck)
    }
}

impl Trainable for DetectorTrainer<'_> {
    fn step(&mut self, hook: Option<GradHook<'_>>) -> StepOutcome {
        DetectorTrainer::step(self, hook)
    }
    fn skip_step(&mut self) {
        DetectorTrainer::skip_step(self);
    }
    fn steps_done(&self) -> u64 {
        DetectorTrainer::steps_done(self)
    }
    fn total_steps(&self) -> u64 {
        DetectorTrainer::total_steps(self)
    }
    fn is_done(&self) -> bool {
        DetectorTrainer::is_done(self)
    }
    fn set_lr_scale(&mut self, scale: f32) {
        DetectorTrainer::set_lr_scale(self, scale);
    }
    fn checkpoint(&self) -> Checkpoint {
        DetectorTrainer::checkpoint(self)
    }
    fn restore(&mut self, ck: &Checkpoint) -> Result<(), CheckpointError> {
        DetectorTrainer::restore(self, ck)
    }
}

/// Recovery policy knobs (the bins expose these as `--checkpoint-every`,
/// `--checkpoint-dir` and `--resume`).
#[derive(Debug, Clone)]
pub struct RecoveryOptions {
    /// Write a checkpoint every this many steps (0 disables periodic
    /// checkpoints; rollback then returns to the run's start).
    pub checkpoint_every: u64,
    /// Where to persist checkpoints; `None` keeps them in memory only
    /// (rollback still works, resume across processes does not).
    pub checkpoint_path: Option<PathBuf>,
    /// Load `checkpoint_path` before training if it exists.
    pub resume: bool,
    /// Divergence backoff cap: the LR is halved this many times before
    /// the offending batch is skipped outright.
    pub max_lr_halvings: u32,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            checkpoint_every: 0,
            checkpoint_path: None,
            resume: false,
            max_lr_halvings: 4,
        }
    }
}

/// What a recovered run went through, for logs and assertions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunnerReport {
    /// Optimizer steps that ran to completion (retries of a rolled-back
    /// region count again).
    pub steps_run: u64,
    /// Step the run resumed from, when `resume` found a checkpoint.
    pub resumed_from: Option<u64>,
    /// Rollbacks performed (one per non-finite event).
    pub rollbacks: u32,
    /// Steps skipped after exhausting LR backoff.
    pub skipped_steps: Vec<u64>,
    /// Every non-finite event: `(step, provenance detail)`.
    pub nonfinite_events: Vec<(u64, String)>,
    /// Checkpoints written to disk.
    pub checkpoints_written: u32,
}

/// Why a recovered run stopped without finishing.
#[derive(Debug)]
pub enum RunnerError {
    /// A checkpoint could not be read, written or applied.
    Checkpoint(CheckpointError),
    /// The fault plan's scripted kill fired (tests treat this as the
    /// process dying at that step).
    SimulatedKill {
        /// Step the kill fired at.
        step: u64,
    },
    /// The runner's runtime was cancelled or ran past its deadline; the
    /// run stopped gracefully at a step boundary.
    Cancelled {
        /// Step the cancellation was observed at.
        step: u64,
        /// Why the runtime tripped (explicit cancel vs deadline).
        cause: Cancelled,
    },
}

impl fmt::Display for RunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunnerError::Checkpoint(e) => write!(f, "{e}"),
            RunnerError::SimulatedKill { step } => {
                write!(f, "simulated kill at step {step}")
            }
            RunnerError::Cancelled { step, cause } => {
                write!(f, "run cancelled at step {step}: {cause}")
            }
        }
    }
}

impl Error for RunnerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunnerError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for RunnerError {
    fn from(e: CheckpointError) -> Self {
        RunnerError::Checkpoint(e)
    }
}

/// Drives a [`Trainable`] to completion under a recovery policy.
pub struct TrainRunner<'p> {
    opts: RecoveryOptions,
    fault: Option<&'p FaultPlan>,
    /// Runtime whose cancellation state the run loop honors (the
    /// caller's current runtime unless overridden).
    rt: Runtime,
}

/// Writes checkpoint bytes, creating the parent directory on first use.
fn write_checkpoint(bytes: &[u8], path: &std::path::Path) -> Result<(), CheckpointError> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(CheckpointError::Io)?;
        }
    }
    save_checkpoint_bytes(bytes, path)
}

impl<'p> TrainRunner<'p> {
    /// A runner with the given policy and no fault injection, honoring
    /// the cancellation state of the caller's current runtime.
    pub fn new(opts: RecoveryOptions) -> Self {
        TrainRunner {
            opts,
            fault: None,
            rt: runtime::current(),
        }
    }

    /// Scripts a fault plan into the run (tests only).
    pub fn with_fault_plan(mut self, plan: &'p FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Binds the runner to an explicit [`Runtime`], whose cancellation
    /// state is checked at every step boundary. The trainers themselves
    /// carry their own runtime binding (`with_runtime`); pass the same
    /// handle to both.
    pub fn with_runtime(mut self, rt: Runtime) -> Self {
        self.rt = rt;
        self
    }

    /// Cooperative stall: sleeps `dur` in short slices, ending early if
    /// the runtime is cancelled mid-stall.
    fn stall(&self, dur: Duration) {
        let until = std::time::Instant::now() + dur;
        while std::time::Instant::now() < until {
            if self.rt.cancel_state().is_some() {
                return;
            }
            let left = until - std::time::Instant::now();
            std::thread::sleep(left.min(Duration::from_millis(10)));
        }
    }

    /// The cancellation and scripted-fault gate run before every step.
    fn preflight(&self, step: u64) -> Result<(), RunnerError> {
        if let Some(cause) = self.rt.cancel_state() {
            return Err(RunnerError::Cancelled { step, cause });
        }
        if let Some(plan) = self.fault {
            if plan.should_kill(step) {
                return Err(RunnerError::SimulatedKill { step });
            }
            if plan.should_panic(step) {
                panic!("[fault] injected panic at step {step}");
            }
            if let Some(dur) = plan.stall_for(step) {
                eprintln!("[fault] stalling {dur:?} at step {step}");
                self.stall(dur);
                if let Some(cause) = self.rt.cancel_state() {
                    return Err(RunnerError::Cancelled { step, cause });
                }
            }
        }
        Ok(())
    }

    /// Runs the trainer to completion, checkpointing, rolling back and
    /// skipping per the policy.
    ///
    /// # Errors
    ///
    /// Returns [`RunnerError::Checkpoint`] when resume/rollback state
    /// cannot be loaded or written, and [`RunnerError::SimulatedKill`]
    /// when the fault plan's kill fires.
    pub fn run<T: Trainable>(&self, trainer: &mut T) -> Result<RunnerReport, RunnerError> {
        let mut report = RunnerReport::default();
        if self.opts.resume {
            if let Some(path) = &self.opts.checkpoint_path {
                if path.exists() {
                    let ck = load_checkpoint_file(path)?;
                    trainer.restore(&ck)?;
                    report.resumed_from = Some(trainer.steps_done());
                }
            }
        }
        let hook_fn = |step: u64, ps: &mut ParamSet| {
            if let Some(plan) = self.fault {
                plan.apply_grads(step, ps);
            }
        };
        let hook: Option<GradHook<'_>> = match self.fault {
            Some(plan) if plan.has_grad_faults() => Some(&hook_fn),
            _ => None,
        };

        // The rollback target: last periodic checkpoint, or the state at
        // entry when checkpointing is disabled.
        let mut rollback = trainer.checkpoint();
        let mut halvings: u32 = 0;
        let mut bad_step: Option<u64> = None;
        let mut condemned: Option<u64> = None;
        let mut writes: usize = 0;

        while !trainer.is_done() {
            let step = trainer.steps_done();
            self.preflight(step)?;
            if condemned == Some(step) {
                trainer.skip_step();
                report.skipped_steps.push(step);
                condemned = None;
                bad_step = None;
                halvings = 0;
                trainer.set_lr_scale(1.0);
                continue;
            }
            match trainer.step(hook) {
                StepOutcome::Ran { .. } => {
                    report.steps_run += 1;
                    if bad_step.is_some_and(|b| trainer.steps_done() > b) {
                        // past the troubled region: restore the base LR
                        trainer.set_lr_scale(1.0);
                        halvings = 0;
                        bad_step = None;
                    }
                    if self.opts.checkpoint_every > 0
                        && trainer
                            .steps_done()
                            .is_multiple_of(self.opts.checkpoint_every)
                    {
                        let ck = trainer.checkpoint();
                        if let Some(path) = &self.opts.checkpoint_path {
                            let mut bytes = encode_checkpoint(&ck);
                            if let Some(plan) = self.fault {
                                if let Some(mode) = plan.corrupt_bytes(writes, &mut bytes) {
                                    eprintln!(
                                        "[fault] corrupting checkpoint write {writes} ({mode:?})"
                                    );
                                }
                            }
                            write_checkpoint(&bytes, path)?;
                            writes += 1;
                            report.checkpoints_written += 1;
                        }
                        rollback = ck;
                    }
                }
                StepOutcome::NonFinite { detail } => {
                    eprintln!("[recover] step {step}: {detail}");
                    report.nonfinite_events.push((step, detail));
                    report.rollbacks += 1;
                    trainer.restore(&rollback)?;
                    if bad_step == Some(step) || bad_step.is_none() {
                        bad_step = Some(step);
                    }
                    if halvings >= self.opts.max_lr_halvings {
                        // backoff exhausted: replay at the base rate and
                        // skip the offending batch when we reach it again
                        condemned = Some(step);
                        trainer.set_lr_scale(1.0);
                        eprintln!(
                            "[recover] step {step}: LR backoff exhausted after {halvings} \
                             halving(s); batch will be skipped"
                        );
                    } else {
                        halvings += 1;
                        let scale = 0.5f32.powi(halvings as i32);
                        trainer.set_lr_scale(scale);
                        eprintln!(
                            "[recover] rolled back to step {}, retrying with lr scale {scale}",
                            trainer.steps_done()
                        );
                    }
                }
            }
        }
        // terminal checkpoint so a later `--resume` of a finished run is
        // a no-op instead of a retrain
        if self.opts.checkpoint_every > 0 {
            if let Some(path) = &self.opts.checkpoint_path {
                let mut bytes = encode_checkpoint(&trainer.checkpoint());
                if let Some(plan) = self.fault {
                    if let Some(mode) = plan.corrupt_bytes(writes, &mut bytes) {
                        eprintln!("[fault] corrupting checkpoint write {writes} ({mode:?})");
                    }
                }
                write_checkpoint(&bytes, path)?;
                report.checkpoints_written += 1;
            }
        }
        Ok(report)
    }
}

/// [`crate::attack::train_decal_attack`] with the full recovery policy:
/// periodic checkpoints, resume, rollback/backoff and batch skipping.
///
/// # Errors
///
/// Returns a [`RunnerError`] when checkpoint state cannot be read or
/// written (or, in tests, when a scripted kill fires).
pub fn train_decal_attack_recoverable(
    scenario: &AttackScenario,
    detector: &rd_detector::TinyYolo,
    ps_det: &mut ParamSet,
    cfg: &AttackConfig,
    opts: &RecoveryOptions,
) -> Result<(TrainedDecal, RunnerReport), RunnerError> {
    let mut trainer = AttackTrainer::new(scenario, detector, ps_det, cfg);
    let report = TrainRunner::new(opts.clone()).run(&mut trainer)?;
    Ok((trainer.finish(), report))
}

/// [`rd_detector::train`] with the full recovery policy.
///
/// # Errors
///
/// Returns a [`RunnerError`] when checkpoint state cannot be read or
/// written.
pub fn train_detector_recoverable(
    model: &rd_detector::TinyYolo,
    ps: &mut ParamSet,
    data: &[rd_scene::dataset::Sample],
    cfg: &rd_detector::TrainConfig,
    opts: &RecoveryOptions,
) -> Result<(rd_detector::TrainReport, RunnerReport), RunnerError> {
    let mut trainer = DetectorTrainer::new(model, ps, data, *cfg);
    let report = TrainRunner::new(opts.clone()).run(&mut trainer)?;
    Ok((trainer.finish(), report))
}
