//! Bounded-memory streaming evaluation: the render→infer→score pipeline
//! behind [`evaluate_challenge`](crate::eval::evaluate_challenge), plus
//! the fleet driver that scales it to thousands of supervised drives.
//!
//! # Pipeline
//!
//! Each run of a challenge video is driven as staged chunks of
//! [`BATCH_FRAMES`] frames:
//!
//! ```text
//! pose generation ─► noise pre-sampling ─► parallel chunk render
//!    (producer thread, sequential per-run RNG)   (runtime pool)
//!                                                       │
//!                                                rendezvous channel
//!                                                       ▼
//!            online accumulate ◄─ decode ◄─ batched inference
//!                      (consumer = calling thread)
//! ```
//!
//! The producer owns the per-run RNG on a dedicated thread entered into
//! the caller's [`Runtime`](rd_tensor::Runtime): per chunk it samples
//! the capture randomness sequentially in frame order
//! ([`rd_scene::CaptureModel::sample_draws`]), then renders the chunk's
//! frames in parallel on the runtime's worker pool through a shared
//! pose-keyed [`FrameRenderer`] — index-ordered fan-out, so the frames
//! are bit-identical to serial rendering at any thread count. The
//! consumer runs inference on the same pool. A zero-capacity rendezvous
//! channel double-buffers the two stages: while the consumer infers
//! chunk *k*, the producer renders chunk *k+1*, and peak live frames are
//! bounded by one chunk pair (2 × [`BATCH_FRAMES`]) regardless of drive
//! length — the buffered reference oracle in the crate's tests
//! materializes the whole drive instead.
//!
//! # Bitwise contract
//!
//! A streamed evaluation must equal the buffered oracle bit for bit —
//! PWC, CWC, victim rate and every per-frame detection — at any thread
//! count, on both execution tiers and on noiseless and noise-bearing
//! capture channels (the crate's unit tests hold it). Three invariants
//! carry it:
//!
//! 1. **Same groups**: the chunk size equals the buffered path's batch
//!    size ([`BATCH_FRAMES`]), so the model sees identical batches.
//! 2. **Same draws**: one sequential per-run RNG covers decal printing,
//!    pose generation and per-frame capture noise in frame order; the
//!    producer owns it end to end and pre-samples each chunk's capture
//!    draws *before* fanning the renders out, so parallelism cannot
//!    reorder the stream.
//! 3. **Same folds**: the online scorers
//!    ([`CellAccumulator`](crate::metrics::CellAccumulator),
//!    [`OutcomeAccumulator`](crate::metrics::OutcomeAccumulator)) run
//!    the same integer counts through the same `f32` divisions as the
//!    buffered history scan (property-tested equivalence).
//!
//! # Cancellation
//!
//! Every stage boundary checks the current runtime's cancel/deadline
//! flag: the producer per rendered frame, the consumer per inference
//! batch, the fleet driver per drive. A tripped check unwinds with a
//! [`CancelUnwind`](rd_tensor::runtime::CancelUnwind) payload that is
//! re-raised across the pipeline's thread boundary, so a supervisor
//! classifies it as a deadline, not a crash.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use rd_detector::{postprocess_into, DecodeBuffers, Detection, TinyYolo};
use rd_scene::{CaptureDraws, GtBox, ObjectClass};
use rd_tensor::{parallel, runtime, ParamSet, Tier};
use rd_vision::Image;

use crate::attack::Deployment;
use crate::decal::Decal;
use crate::eval::{
    classify_victim, run_rng, Challenge, ChallengeOutcome, EvalConfig, FrameObserver,
    CONFIRM_WINDOW,
};
use crate::metrics::{CellAccumulator, OutcomeAccumulator};
use crate::render::FrameRenderer;
use crate::runner::{RunnerError, RunnerReport};
use crate::scenario::AttackScenario;
use crate::supervisor::{run_fleet, JobReport, JobSpec};

/// Frames per pipeline chunk — identical to the buffered oracle's
/// inference batch size, which is what makes the two paths produce the
/// same batch groups (bitwise contract, invariant 1).
pub const BATCH_FRAMES: usize = 16;

/// What the pipeline went through, for the bounded-memory gate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Frames rendered and scored across every run.
    pub frames: usize,
    /// Chunks that crossed the render→infer channel.
    pub chunks: usize,
    /// Most frames ever alive at once (rendered, not yet scored and
    /// dropped). Bounded by `2 * BATCH_FRAMES` by construction.
    pub peak_live_frames: usize,
}

/// A streamed evaluation's outcome plus its pipeline statistics.
#[derive(Debug, Clone)]
pub struct StreamedEval {
    /// The challenge outcome — bitwise-identical to the buffered oracle's.
    pub outcome: ChallengeOutcome,
    /// Pipeline statistics for the memory-bound assertions.
    pub stats: StreamStats,
}

/// Evaluates a challenge through the streaming pipeline. This is what
/// [`crate::eval::evaluate_challenge`] runs; this entry point
/// additionally reports [`StreamStats`] for the bounded-memory gate.
pub fn evaluate_streamed(
    scenario: &AttackScenario,
    decals: &Deployment,
    model: &TinyYolo,
    ps: &ParamSet,
    target: ObjectClass,
    challenge: Challenge,
    cfg: &EvalConfig,
) -> StreamedEval {
    let mut ignore = |_: usize, _: usize, _: &[Detection], _: Option<ObjectClass>| {};
    evaluate_streamed_observed(
        scenario,
        decals,
        model,
        ps,
        target,
        challenge,
        cfg,
        &mut ignore,
    )
}

/// One chunk crossing the render→infer boundary.
type Chunk = (Vec<Image>, Vec<Option<GtBox>>);

/// [`evaluate_streamed`] with the per-frame probe the bitwise oracle
/// test uses.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_streamed_observed(
    scenario: &AttackScenario,
    decals: &Deployment,
    model: &TinyYolo,
    ps: &ParamSet,
    target: ObjectClass,
    challenge: Challenge,
    cfg: &EvalConfig,
    observer: &mut FrameObserver<'_>,
) -> StreamedEval {
    let mut acc = OutcomeAccumulator::new();
    // decode scratch shared across every batch of the whole evaluation,
    // exactly like the buffered oracle
    let mut decode_bufs = DecodeBuffers::default();
    let mut dets: Vec<Vec<Detection>> = Vec::new();
    let mut stats = StreamStats::default();
    let live = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let rt = runtime::current();
    // one pose-keyed geometry cache for the whole evaluation, shared by
    // the chunk-render workers of every run
    let renderer = FrameRenderer::new(scenario);

    for run in 0..cfg.runs {
        runtime::check_cancelled_or_unwind();
        let mut rng = run_rng(cfg, run);
        // each run prints fresh physical decals (per-print variation);
        // printing draws before pose generation, same as the oracle
        let printed: Vec<Decal> = decals
            .iter()
            .map(|d| d.print(&cfg.channel.print, &mut rng))
            .collect();
        let poses = challenge.poses(cfg, &mut rng);
        let motion = challenge.motion_m_per_frame(cfg.fps);

        let mut cell_acc = CellAccumulator::new(target, CONFIRM_WINDOW);
        std::thread::scope(|s| {
            // rendezvous: send blocks until the consumer takes the
            // chunk, so at most one chunk is in flight while another is
            // being rendered — the double buffer and the memory bound
            let (tx, rx) = mpsc::sync_channel::<Chunk>(0);
            let producer = s.spawn({
                let rt = rt.clone();
                let poses = &poses;
                let printed = &printed;
                let renderer = &renderer;
                let (live, peak) = (&live, &peak);
                move || {
                    // worker threads inherit the spawner's runtime only
                    // through enter(): charge rendering to the caller's
                    // runtime, not the default shim
                    rt.enter(|| {
                        for chunk_poses in poses.chunks(BATCH_FRAMES) {
                            runtime::check_cancelled_or_unwind();
                            // capture randomness stays one sequential
                            // producer stream: sample the chunk's draws
                            // in frame order...
                            let draws: Vec<CaptureDraws> = chunk_poses
                                .iter()
                                .map(|_| {
                                    cfg.channel
                                        .capture
                                        .sample_draws(scenario.rig.image_hw, &mut rng)
                                })
                                .collect();
                            // ...then fan the renders out on the
                            // runtime's pool. Index-ordered collection:
                            // bit-identical to serial at any thread
                            // count.
                            let frames = parallel::run_indexed(chunk_poses.len(), |i| {
                                runtime::check_cancelled_or_unwind();
                                let f = renderer.render(
                                    scenario,
                                    printed,
                                    &chunk_poses[i],
                                    cfg,
                                    motion,
                                    &draws[i],
                                );
                                let now = live.fetch_add(1, Ordering::Relaxed) + 1;
                                peak.fetch_max(now, Ordering::Relaxed);
                                f
                            });
                            for d in draws {
                                d.recycle();
                            }
                            let victims: Vec<Option<GtBox>> =
                                chunk_poses.iter().map(|p| scenario.victim_box(p)).collect();
                            if tx.send((frames, victims)).is_err() {
                                // consumer gone (its own cancel check
                                // tripped): stop rendering
                                return;
                            }
                        }
                    });
                }
            });

            // consumer: inference + decode + online scoring on the
            // calling thread (and the runtime's worker pool)
            while let Ok((frames, victims)) = rx.recv() {
                runtime::check_cancelled_or_unwind();
                let batch = Image::batch_to_tensor(&frames);
                let n_frames = frames.len();
                // frame buffers are arena-backed (FrameRenderer): hand
                // them back as soon as they're batched
                for f in frames {
                    rd_tensor::arena::recycle(f.into_vec());
                }
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
                // hand the batch and head buffers back to the arena so
                // the next chunk reuses them instead of allocating fresh
                rd_tensor::arena::recycle(batch.into_vec());
                rd_tensor::arena::recycle(coarse.into_vec());
                rd_tensor::arena::recycle(fine.into_vec());
                for (dlist, victim) in dets.iter().zip(&victims) {
                    let class = victim
                        .as_ref()
                        .and_then(|v| classify_victim(dlist, v, cfg.victim_iou));
                    observer(run, cell_acc.frames(), dlist, class);
                    acc.push_frame(class.is_some());
                    cell_acc.push(class);
                }
                stats.chunks += 1;
                stats.frames += n_frames;
                live.fetch_sub(n_frames, Ordering::Relaxed);
            }

            // the channel closed: either the producer finished the run
            // or it unwound. Re-raise its panic (a CancelUnwind payload
            // must cross the thread boundary intact so a supervisor
            // still classifies it as a deadline).
            if let Err(payload) = producer.join() {
                std::panic::resume_unwind(payload);
            }
        });
        acc.finish_run(cell_acc.finish(), cell_acc.frames());
    }

    stats.peak_live_frames = peak.load(Ordering::Relaxed);
    StreamedEval {
        outcome: ChallengeOutcome {
            cell: acc.cell(),
            frames_per_run: acc.frames_per_run(),
            victim_detected: acc.victim_rate(),
        },
        stats,
    }
}

/// Shape of a fleet evaluation: how many drives, spread over how many
/// supervised jobs, on what runtimes.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Total simulated drives (each is one full challenge evaluation
    /// with its own derived seed).
    pub drives: usize,
    /// Concurrent supervised jobs the drives are partitioned across;
    /// each runs on its own per-job [`Runtime`](rd_tensor::Runtime).
    pub jobs: usize,
    /// Worker-thread budget per job runtime (0 = auto).
    pub threads_per_job: usize,
    /// Execution tier every job starts on.
    pub tier: Tier,
    /// Per-job wall-clock deadline (None = unbounded).
    pub deadline: Option<Duration>,
    /// Crash retries per job.
    pub max_retries: u32,
}

impl FleetConfig {
    /// A fleet of `drives` drives over `jobs` jobs, serial per-job
    /// runtimes (the jobs themselves are the parallelism), reference
    /// tier, no deadline, no retries.
    pub fn new(drives: usize, jobs: usize) -> Self {
        FleetConfig {
            drives,
            jobs: jobs.max(1),
            threads_per_job: 1,
            tier: Tier::Reference,
            deadline: None,
            max_retries: 0,
        }
    }
}

/// What a fleet evaluation went through.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Drives requested.
    pub drives: usize,
    /// Drives that completed scoring.
    pub drives_finished: usize,
    /// Frames rendered + scored across the whole fleet.
    pub frames: u64,
    /// Per-job supervisor reports, in job order.
    pub jobs: Vec<JobReport>,
}

impl FleetReport {
    /// Whether every job finished.
    pub fn finished(&self) -> bool {
        self.jobs.iter().all(|j| j.finished())
    }
}

/// Evaluates `fleet.drives` simulated drives of one challenge as
/// supervised jobs riding [`run_fleet`]: the drives are partitioned
/// contiguously across `fleet.jobs` jobs, each job runs on its own
/// fresh per-attempt [`Runtime`](rd_tensor::Runtime) (panic quarantine,
/// deadline, retry policy from `fleet`), and every drive streams through
/// the bounded-memory pipeline with a derived seed
/// (`cfg.seed` mixed with the drive index). Cancellation is checked at
/// every stage boundary: per drive here, per frame/batch inside the
/// pipeline.
#[allow(clippy::too_many_arguments)]
pub fn eval_fleet(
    scenario: &AttackScenario,
    decals: &Deployment,
    model: &TinyYolo,
    ps: &ParamSet,
    target: ObjectClass,
    challenge: Challenge,
    cfg: &EvalConfig,
    fleet: &FleetConfig,
) -> FleetReport {
    let frames = AtomicU64::new(0);
    let jobs: Vec<(JobSpec, _)> = (0..fleet.jobs)
        .map(|j| {
            // contiguous partition: job j owns drives [lo, hi)
            let lo = fleet.drives * j / fleet.jobs;
            let hi = fleet.drives * (j + 1) / fleet.jobs;
            let mut spec = JobSpec::new(&format!("eval-fleet-{j}"))
                .threads(fleet.threads_per_job)
                .tier(fleet.tier)
                .max_retries(fleet.max_retries);
            if let Some(d) = fleet.deadline {
                spec = spec.deadline(d);
            }
            let frames = &frames;
            let job = move |ctx: &crate::supervisor::JobCtx| -> Result<RunnerReport, RunnerError> {
                let mut drives_done = 0u64;
                for drive in lo..hi {
                    // stage boundary: stop between drives, not just
                    // inside one, so a deadline surfaces as a clean
                    // cancellation instead of a mid-frame unwind
                    if let Some(cause) = ctx.rt.cancel_state() {
                        return Err(RunnerError::Cancelled {
                            step: drive as u64,
                            cause,
                        });
                    }
                    let drive_cfg = EvalConfig {
                        seed: cfg
                            .seed
                            .wrapping_add((drive as u64 + 1).wrapping_mul(0xd1b5_4a32_d192_ed03)),
                        ..*cfg
                    };
                    let eval = evaluate_streamed(
                        scenario, decals, model, ps, target, challenge, &drive_cfg,
                    );
                    frames.fetch_add(eval.stats.frames as u64, Ordering::Relaxed);
                    drives_done += 1;
                }
                Ok(RunnerReport {
                    steps_run: drives_done,
                    tier: ctx.tier.label().to_string(),
                    ..RunnerReport::default()
                })
            };
            (spec, job)
        })
        .collect();
    let reports = run_fleet(jobs);
    let drives_finished = reports
        .iter()
        .filter_map(|r| r.runner.as_ref())
        .map(|r| r.steps_run as usize)
        .sum();
    FleetReport {
        drives: fleet.drives,
        drives_finished,
        frames: frames.load(Ordering::Relaxed),
        jobs: reports,
    }
}
