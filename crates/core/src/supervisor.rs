//! Supervised job execution: panic isolation, deadlines, and retry with
//! capped-exponential backoff.
//!
//! A *job* is any closure that drives a training run to completion
//! under a [`crate::runner::TrainRunner`] — the attack loop, the
//! detector trainer, a challenge evaluation. The supervisor runs each
//! job inside its own fresh [`Runtime`], so N concurrent jobs in one
//! process are fully isolated: separate thread budgets, scratch arenas
//! and profiler registries. Containment is the contract the
//! fault-matrix test enforces — a sabotaged job (panic, stall past its
//! deadline, NaN storm, corrupted checkpoint) must leave its siblings
//! bitwise-identical to their solo runs.
//!
//! Per attempt, the supervisor:
//!
//! 1. builds a **fresh** [`Runtime`] from the [`JobSpec`]'s thread
//!    budget, arms it with the job's remaining deadline, and hands it
//!    to the job via [`JobCtx`];
//! 2. runs the job under `catch_unwind`. A panicking attempt's runtime
//!    is [quarantined](Runtime::quarantine) — its arena never pools
//!    again, so buffers that were in flight when the job died cannot be
//!    reused — and is then dropped, never shared with the next attempt;
//! 3. classifies the result: a [`CancelUnwind`] payload or
//!    [`RunnerError::Cancelled`] carrying
//!    [`Cancelled::DeadlineExceeded`] ends the job as
//!    [`JobOutcome::DeadlineExceeded`]; a crash, simulated kill or
//!    unreadable checkpoint retries after a capped-exponential backoff
//!    until [`JobSpec::max_retries`] is exhausted.
//!
//! Retries ride the runner's checkpoint-resume: a job whose spec names
//! a [`JobSpec::checkpoint_path`] and whose closure passes `resume =
//! true` picks up at the last good checkpoint instead of step 0. When
//! an attempt fails because that checkpoint itself is unreadable
//! ([`RunnerError::Checkpoint`]), the supervisor deletes the file so
//! the retry restarts cleanly rather than re-reading poison forever.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use rd_tensor::runtime::CancelUnwind;
use rd_tensor::{Cancelled, Runtime, RuntimeConfig, Tier};

use crate::runner::{RunnerError, RunnerReport};

/// Per-job policy: identity, runtime shape, deadline and retry budget.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Job name for reports and logs.
    pub name: String,
    /// Worker-thread budget of the job's runtime (0 = auto).
    pub threads: usize,
    /// Wall-clock budget for the *whole job* (all attempts plus
    /// backoff); `None` = unbounded. Enforced cooperatively via the
    /// runtime's deadline, checked at step/frame boundaries.
    pub deadline: Option<Duration>,
    /// Crash/kill retries after the first attempt.
    pub max_retries: u32,
    /// First retry backoff; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling for the capped-exponential schedule.
    pub backoff_cap: Duration,
    /// The job's checkpoint file, if it persists one. The supervisor
    /// deletes it when an attempt dies on a checkpoint decode error, so
    /// the retry restarts clean instead of re-reading corrupt bytes.
    pub checkpoint_path: Option<PathBuf>,
}

impl JobSpec {
    /// A spec with conservative defaults: auto threads, no deadline, 2
    /// retries, 50ms..2s backoff, no checkpoint file.
    pub fn new(name: &str) -> Self {
        JobSpec {
            name: name.to_string(),
            threads: 0,
            deadline: None,
            max_retries: 2,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            checkpoint_path: None,
        }
    }

    /// Sets the worker-thread budget.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Inert: returns the spec unchanged. It stays only until the next
    /// benchmark change removes it from perfbench.
    pub fn tier(self, _: Tier) -> Self {
        self
    }

    /// Sets the whole-job wall-clock deadline.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Sets the retry budget.
    pub fn max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Sets the backoff schedule (`base` doubling up to `cap`).
    pub fn backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }

    /// Names the job's on-disk checkpoint file.
    pub fn checkpoint_path(mut self, p: PathBuf) -> Self {
        self.checkpoint_path = Some(p);
        self
    }
}

/// What one attempt sees: the fresh runtime built for it and the
/// attempt ordinal (0 = first).
#[derive(Debug)]
pub struct JobCtx {
    /// Runtime for this attempt; bind trainers and runners to it.
    pub rt: Runtime,
    /// 0-based attempt counter across retries.
    pub attempt: u32,
}

/// Terminal state of a supervised job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The job's runner finished every step.
    Finished,
    /// The job's deadline tripped (graceful stop or cancel-unwind).
    DeadlineExceeded,
    /// Retries exhausted or a non-retryable error; the payload is the
    /// last attempt's failure.
    Failed(String),
}

/// Everything a supervised job went through, for logs and assertions.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// The spec's job name.
    pub name: String,
    /// Attempts launched (first run + retries).
    pub attempts: u32,
    /// Terminal state.
    pub outcome: JobOutcome,
    /// The successful attempt's runner report, when one finished.
    pub runner: Option<RunnerReport>,
    /// Runtimes quarantined after panicking attempts.
    pub quarantined: u32,
    /// Panic messages of crashed attempts, in order.
    pub panics: Vec<String>,
    /// Total time spent sleeping between retries.
    pub backoff_slept: Duration,
}

impl JobReport {
    /// Whether the job reached [`JobOutcome::Finished`].
    pub fn finished(&self) -> bool {
        self.outcome == JobOutcome::Finished
    }
}

/// Renders a panic payload for the report.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// How one attempt ended, after unwind/downcast classification.
enum AttemptEnd {
    Finished(RunnerReport),
    Deadline,
    /// Retryable failure: crash, kill, bad checkpoint.
    Retry {
        why: String,
        panicked: bool,
    },
    /// Non-retryable failure (explicit cancel).
    Fatal(String),
}

/// Runs one job to its terminal state under `spec`'s policy. See the
/// module docs for the full per-attempt lifecycle.
pub fn run_job<F>(spec: &JobSpec, mut job: F) -> JobReport
where
    F: FnMut(&JobCtx) -> Result<RunnerReport, RunnerError>,
{
    let started = Instant::now();
    let mut report = JobReport {
        name: spec.name.clone(),
        attempts: 0,
        outcome: JobOutcome::Failed("never attempted".to_string()),
        runner: None,
        quarantined: 0,
        panics: Vec::new(),
        backoff_slept: Duration::ZERO,
    };
    let mut retries_left = spec.max_retries;

    loop {
        let remaining = spec.deadline.map(|d| d.saturating_sub(started.elapsed()));
        if remaining == Some(Duration::ZERO) {
            report.outcome = JobOutcome::DeadlineExceeded;
            return report;
        }
        let rt = Runtime::new(RuntimeConfig {
            threads: spec.threads,
            ..RuntimeConfig::default()
        });
        rt.set_deadline(remaining);
        let ctx = JobCtx {
            rt: rt.clone(),
            attempt: report.attempts,
        };
        report.attempts += 1;
        let result = catch_unwind(AssertUnwindSafe(|| rt.enter(|| job(&ctx))));
        let end = match result {
            Ok(Ok(runner_report)) => AttemptEnd::Finished(runner_report),
            Ok(Err(RunnerError::Cancelled { cause, step })) => match cause {
                Cancelled::DeadlineExceeded => AttemptEnd::Deadline,
                Cancelled::Requested => AttemptEnd::Fatal(format!("cancelled at step {step}")),
            },
            Ok(Err(e @ RunnerError::Checkpoint(_))) => {
                // Corrupt or unreadable checkpoint: delete it so the
                // retry restarts clean instead of re-reading poison.
                if let Some(p) = &spec.checkpoint_path {
                    let _ = std::fs::remove_file(p);
                }
                AttemptEnd::Retry {
                    why: format!("checkpoint error: {e}"),
                    panicked: false,
                }
            }
            Ok(Err(e @ RunnerError::SimulatedKill { .. })) => AttemptEnd::Retry {
                why: e.to_string(),
                panicked: false,
            },
            Err(payload) => {
                if let Some(cu) = payload.downcast_ref::<CancelUnwind>() {
                    match cu.0 {
                        Cancelled::DeadlineExceeded => AttemptEnd::Deadline,
                        Cancelled::Requested => {
                            AttemptEnd::Fatal("cancelled mid-frame".to_string())
                        }
                    }
                } else {
                    AttemptEnd::Retry {
                        why: panic_message(payload.as_ref()),
                        panicked: true,
                    }
                }
            }
        };
        match end {
            AttemptEnd::Finished(runner_report) => {
                report.runner = Some(runner_report);
                report.outcome = JobOutcome::Finished;
                return report;
            }
            AttemptEnd::Deadline => {
                report.outcome = JobOutcome::DeadlineExceeded;
                return report;
            }
            AttemptEnd::Fatal(why) => {
                report.outcome = JobOutcome::Failed(why);
                return report;
            }
            AttemptEnd::Retry { why, panicked } => {
                if panicked {
                    // One-way: the dead attempt's buffers are never
                    // pooled out again, whatever still holds a handle.
                    rt.quarantine();
                    report.quarantined += 1;
                    report.panics.push(why.clone());
                }
                if retries_left == 0 {
                    report.outcome = JobOutcome::Failed(format!(
                        "retries exhausted after {} attempt(s); last error: {why}",
                        report.attempts
                    ));
                    return report;
                }
                let exp = spec.max_retries - retries_left;
                retries_left -= 1;
                let mut backoff = spec
                    .backoff_base
                    .saturating_mul(1u32 << exp.min(16))
                    .min(spec.backoff_cap);
                if let Some(d) = spec.deadline {
                    backoff = backoff.min(d.saturating_sub(started.elapsed()));
                }
                eprintln!(
                    "[supervisor] {}: attempt {} failed ({why}); retrying in {backoff:?}",
                    spec.name, report.attempts
                );
                std::thread::sleep(backoff);
                report.backoff_slept += backoff;
            }
        }
    }
}

/// Runs a fleet of jobs concurrently, one OS thread per job, each under
/// [`run_job`]'s per-attempt isolation. Reports come back in spec
/// order. Because every job runs in its own [`Runtime`] and the
/// parallel substrate's partitioning is size-only, a job's numerics are
/// identical whether it runs solo or inside a fleet — the property the
/// fault-matrix test asserts bitwise.
pub fn run_fleet<F>(jobs: Vec<(JobSpec, F)>) -> Vec<JobReport>
where
    F: FnMut(&JobCtx) -> Result<RunnerReport, RunnerError> + Send,
{
    std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|(spec, mut job)| s.spawn(move || run_job(&spec, &mut job)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("supervisor job thread must not die"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_report() -> RunnerReport {
        RunnerReport {
            steps_run: 3,
            ..RunnerReport::default()
        }
    }

    #[test]
    fn healthy_job_finishes_first_attempt() {
        let spec = JobSpec::new("healthy");
        let report = run_job(&spec, |ctx| {
            assert_eq!(ctx.attempt, 0);
            Ok(ok_report())
        });
        assert!(report.finished());
        assert_eq!(report.attempts, 1);
        assert_eq!(report.quarantined, 0);
    }

    #[test]
    fn panicking_job_is_retried_then_fails_with_quarantine() {
        let spec = JobSpec::new("crashy")
            .max_retries(2)
            .backoff(Duration::from_millis(1), Duration::from_millis(4));
        let mut runtimes: Vec<Runtime> = Vec::new();
        let report = run_job(&spec, |ctx| {
            runtimes.push(ctx.rt.clone());
            panic!("boom attempt {}", ctx.attempt);
        });
        assert!(report.outcome_is_failed());
        assert_eq!(report.attempts, 3, "first try + 2 retries");
        assert_eq!(report.quarantined, 3);
        assert_eq!(report.panics.len(), 3);
        assert!(report.panics[0].contains("boom attempt 0"));
        // every attempt got a fresh runtime, and each was quarantined
        for (i, rt) in runtimes.iter().enumerate() {
            assert!(rt.is_quarantined(), "attempt {i} runtime quarantined");
            for other in &runtimes[i + 1..] {
                assert!(!rt.same_as(other), "attempts must not share runtimes");
            }
        }
    }

    #[test]
    fn transient_panic_recovers() {
        let spec = JobSpec::new("flaky")
            .max_retries(3)
            .backoff(Duration::from_millis(1), Duration::from_millis(2));
        let report = run_job(&spec, |ctx| {
            if ctx.attempt == 0 {
                panic!("transient");
            }
            Ok(ok_report())
        });
        assert!(report.finished());
        assert_eq!(report.attempts, 2);
        assert_eq!(report.quarantined, 1);
    }

    #[test]
    fn job_deadline_bounds_the_whole_job() {
        let spec = JobSpec::new("slow").deadline(Duration::from_millis(40));
        let report = run_job(&spec, |ctx| {
            // A cooperative job checks its runtime's cancel state.
            loop {
                if let Some(c) = ctx.rt.cancel_state() {
                    return Err(RunnerError::Cancelled { step: 1, cause: c });
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        assert_eq!(report.outcome, JobOutcome::DeadlineExceeded);
    }

    #[test]
    fn cancel_unwind_is_a_deadline_not_a_crash() {
        let spec = JobSpec::new("unwound").deadline(Duration::from_millis(30));
        let report = run_job(&spec, |ctx| {
            loop {
                // eval-style frame loop: panics with CancelUnwind
                ctx.rt.enter(rd_tensor::runtime::check_cancelled_or_unwind);
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        assert_eq!(report.outcome, JobOutcome::DeadlineExceeded);
        assert_eq!(report.quarantined, 0, "a deadline unwind is not a crash");
        assert!(report.panics.is_empty());
    }

    /// The same with the check on a worker of `run_indexed`, where a
    /// streamed drive's render checks run. On a 1-CPU host
    /// `run_indexed` runs inline, so this passes trivially there.
    #[test]
    fn cancel_unwind_in_a_worker_is_a_deadline_not_a_crash() {
        let spec = JobSpec::new("unwound-in-worker")
            .threads(2)
            .deadline(Duration::from_millis(30));
        let report = run_job(&spec, |_ctx| loop {
            // the job already runs under its attempt's runtime
            rd_tensor::parallel::run_indexed(4, |_| {
                rd_tensor::runtime::check_cancelled_or_unwind()
            });
            std::thread::sleep(Duration::from_millis(2));
        });
        assert_eq!(report.outcome, JobOutcome::DeadlineExceeded);
        assert_eq!(report.quarantined, 0, "a deadline unwind is not a crash");
        assert!(report.panics.is_empty());
    }

    #[test]
    fn fleet_reports_come_back_in_spec_order() {
        let jobs: Vec<(JobSpec, _)> = (0..4)
            .map(|i| {
                let spec = JobSpec::new(&format!("job-{i}"));
                let job = move |_ctx: &JobCtx| {
                    Ok(RunnerReport {
                        steps_run: i as u64,
                        ..RunnerReport::default()
                    })
                };
                (spec, job)
            })
            .collect();
        let reports = run_fleet(jobs);
        assert_eq!(reports.len(), 4);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.name, format!("job-{i}"));
            assert!(r.finished());
            assert_eq!(r.runner.as_ref().unwrap().steps_run, i as u64);
        }
    }

    impl JobReport {
        fn outcome_is_failed(&self) -> bool {
            matches!(self.outcome, JobOutcome::Failed(_))
        }
    }
}
