//! The traced path: each unit of work driven one layer call at a time,
//! every call timed from outside, with `rd_tensor::profile` switched on
//! inside the calls so its leaf `train/`, `infer/` and `render/` paths
//! can be read per stage.
//!
//! Every function here reproduces its library counterpart bit for bit
//! (`train_detector_recoverable`, `train_decal_attack_recoverable`,
//! `evaluate_challenge`); the workloads check that against the library
//! path instead of assuming it.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rd_detector::{postprocess_into, DecodeBuffers, Detection, DetectorTrainer, TinyYolo};
use rd_scene::dataset::{generate, Sample};
use rd_scene::{CaptureDraws, GtBox, ObjectClass, Speed};
use rd_tensor::optim::StepOutcome;
use rd_tensor::{arena, parallel, profile, ParamSet};
use rd_vision::Image;
use road_decals::metrics::{CellAccumulator, OutcomeAccumulator};
use road_decals::{
    evaluate_streamed, train_baseline_patch, AttackConfig, AttackScenario, AttackTrainer,
    BaselineConfig, BaselinePatch, Challenge, ChallengeOutcome, Decal, Deployment, EvalConfig,
    FrameRenderer, TrainedDecal, BATCH_FRAMES,
};

use crate::setup;

/// Profile rows of one stage: op path → (samples, total ns).
pub type ProfRows = BTreeMap<String, (u64, u64)>;

/// Everything the traced path measured, summed over every call.
#[derive(Debug, Default)]
pub struct Trace {
    /// Profile rows per stage (`finetune`, `attack`, `baseline`, `eval`).
    pub prof: BTreeMap<&'static str, ProfRows>,
    pub dataset_ns: u64,
    pub train_step_ns: Vec<u64>,
    pub train_busy_ns: u64,
    /// Images the fine-tunes pushed through the train plan.
    pub train_samples: u64,
    pub col_cache: (u64, u64),
    pub attack_step_ns: Vec<u64>,
    pub attack_busy_ns: u64,
    pub baseline_steps: u64,
    pub baseline_ns: u64,
    /// Challenge evaluations scored, and their wall time.
    pub eval_cells: u64,
    pub eval_ns: u64,
    pub render_frame_ns: Vec<u64>,
    pub render_ns: u64,
    pub infer_batch_ns: Vec<u64>,
    pub infer_ns: u64,
    pub decode_batch_ns: Vec<u64>,
    pub decode_ns: u64,
    pub frames: u64,
    pub dets: u64,
    pub cam: (u64, u64),
    pub decal: (u64, u64),
    /// Streamed-pipeline probes: chunks, peak live frames, wall time,
    /// and the layer path's render+infer+decode time on the same drives.
    pub chunks: u64,
    pub peak_live: u64,
    pub probe_ns: u64,
    pub probed_busy_ns: u64,
    /// Layer-path and streamed outcomes of every probed drive.
    pub probe_pairs: Vec<(ChallengeOutcome, ChallengeOutcome)>,
    /// Top-level stage spans and the unit walls they sit in.
    pub stage_ns: u64,
    pub unit_ns: u64,
    pub arena: (u64, u64),
    pub high_water_elems: u64,
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl Trace {
    /// Folds another trace (a fleet job's) into this one.
    pub fn merge(&mut self, o: Trace) {
        for (stage, rows) in o.prof {
            let mine = self.prof.entry(stage).or_default();
            for (path, (c, t)) in rows {
                let e = mine.entry(path).or_default();
                e.0 += c;
                e.1 += t;
            }
        }
        self.dataset_ns += o.dataset_ns;
        self.train_step_ns.extend(o.train_step_ns);
        self.train_busy_ns += o.train_busy_ns;
        self.train_samples += o.train_samples;
        self.col_cache.0 += o.col_cache.0;
        self.col_cache.1 += o.col_cache.1;
        self.attack_step_ns.extend(o.attack_step_ns);
        self.attack_busy_ns += o.attack_busy_ns;
        self.baseline_steps += o.baseline_steps;
        self.baseline_ns += o.baseline_ns;
        self.eval_cells += o.eval_cells;
        self.eval_ns += o.eval_ns;
        self.render_frame_ns.extend(o.render_frame_ns);
        self.render_ns += o.render_ns;
        self.infer_batch_ns.extend(o.infer_batch_ns);
        self.infer_ns += o.infer_ns;
        self.decode_batch_ns.extend(o.decode_batch_ns);
        self.decode_ns += o.decode_ns;
        self.frames += o.frames;
        self.dets += o.dets;
        self.cam.0 += o.cam.0;
        self.cam.1 += o.cam.1;
        self.decal.0 += o.decal.0;
        self.decal.1 += o.decal.1;
        self.chunks += o.chunks;
        self.peak_live = self.peak_live.max(o.peak_live);
        self.probe_ns += o.probe_ns;
        self.probed_busy_ns += o.probed_busy_ns;
        self.probe_pairs.extend(o.probe_pairs);
        self.stage_ns += o.stage_ns;
        self.unit_ns += o.unit_ns;
        self.arena.0 += o.arena.0;
        self.arena.1 += o.arena.1;
        self.high_water_elems = self.high_water_elems.max(o.high_water_elems);
    }

    /// Summed profile total of the paths in `stage` that `keep` selects.
    pub fn prof_ns(&self, stage: &str, keep: impl Fn(&str) -> bool) -> u64 {
        self.prof
            .get(stage)
            .map(|rows| rows.iter().filter(|(p, _)| keep(p)).map(|(_, r)| r.1).sum())
            .unwrap_or(0)
    }

    /// Runs `f` with the current runtime's profiler on and files the
    /// rows it recorded under `stage`.
    fn profiled<R>(&mut self, stage: &'static str, f: impl FnOnce(&mut Trace) -> R) -> R {
        profile::reset();
        profile::set_enabled(true);
        let out = f(self);
        profile::set_enabled(false);
        let rows = self.prof.entry(stage).or_default();
        for (path, s) in profile::snapshot() {
            let e = rows.entry(path).or_default();
            e.0 += s.count;
            e.1 += s.total_ns;
        }
        profile::reset();
        out
    }
}

/// `rd_scene::dataset::generate` on the seed's detector training set.
pub fn dataset(tr: &mut Trace, seed: u64) -> Vec<Sample> {
    let t = Instant::now();
    let data = generate(&setup::dataset_config(seed));
    tr.dataset_ns += ns(t);
    data
}

/// The detector fine-tune, one `DetectorTrainer::step` at a time.
pub fn finetune(
    tr: &mut Trace,
    detector: &TinyYolo,
    ps: &mut ParamSet,
    data: &[Sample],
    seed: u64,
) -> Result<(), String> {
    let cfg = setup::detector_train_config(seed);
    tr.profiled("finetune", |tr| {
        let t0 = Instant::now();
        let mut trainer = DetectorTrainer::new(detector, ps, data, cfg);
        while !trainer.is_done() {
            let t = Instant::now();
            if let StepOutcome::NonFinite { detail } = trainer.step(None) {
                return Err(format!("detector step {}: {detail}", trainer.steps_done()));
            }
            tr.train_step_ns.push(ns(t));
        }
        let (hits, misses) = trainer.col_cache_stats();
        tr.col_cache.0 += hits;
        tr.col_cache.1 += misses;
        tr.train_samples += (cfg.epochs * data.len()) as u64;
        trainer.finish();
        tr.train_busy_ns += ns(t0);
        Ok(())
    })
}

/// One decal attack, one `AttackTrainer::step` at a time.
pub fn attack(
    tr: &mut Trace,
    scenario: &AttackScenario,
    detector: &TinyYolo,
    ps: &mut ParamSet,
    cfg: &AttackConfig,
) -> Result<TrainedDecal, String> {
    tr.profiled("attack", |tr| {
        let t0 = Instant::now();
        let mut trainer = AttackTrainer::new(scenario, detector, ps, cfg);
        while !trainer.is_done() {
            let t = Instant::now();
            if let StepOutcome::NonFinite { detail } = trainer.step(None) {
                return Err(format!("attack step {}: {detail}", trainer.steps_done()));
            }
            tr.attack_step_ns.push(ns(t));
        }
        let out = trainer.finish();
        tr.attack_busy_ns += ns(t0);
        Ok(out)
    })
}

/// The tape-only colored baseline [34], timed as one call.
pub fn baseline(
    tr: &mut Trace,
    scenario: &AttackScenario,
    detector: &TinyYolo,
    ps: &mut ParamSet,
    cfg: &BaselineConfig,
) -> BaselinePatch {
    tr.profiled("baseline", |tr| {
        let t = Instant::now();
        let out = train_baseline_patch(scenario, detector, ps, cfg);
        tr.baseline_ns += ns(t);
        tr.baseline_steps += cfg.steps as u64;
        out
    })
}

/// `Challenge::motion_m_per_frame`, which the core crate keeps private.
fn motion_m_per_frame(challenge: Challenge, fps: f32) -> f32 {
    match challenge {
        Challenge::Rotation(_) => 0.0,
        Challenge::Speed(s) => s.m_per_frame(fps),
        Challenge::Angle(_) => Speed::Slow.m_per_frame(fps),
    }
}

/// The victim classification `evaluate_challenge` scores per frame.
fn classify_victim(dets: &[Detection], victim: &GtBox, min_iou: f32) -> Option<ObjectClass> {
    dets.iter()
        .filter(|d| d.iou(victim) > min_iou)
        .max_by(|a, b| a.confidence().total_cmp(&b.confidence()))
        .map(|d| d.class)
}

/// What one layer-path drive produced.
#[derive(Debug, Clone, Copy)]
pub struct Driven {
    /// The outcome `evaluate_challenge` reports for the same drive.
    pub outcome: ChallengeOutcome,
    /// Time inside the render, infer and decode calls.
    pub busy_ns: u64,
    /// Wall time of the whole drive.
    pub wall_ns: u64,
}

/// One challenge video through a renderer the benchmark owns:
/// `FrameRenderer::render`, `TinyYolo::infer` and `postprocess_into`
/// called chunk by chunk on the challenge poses, each call timed.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    tr: &mut Trace,
    scenario: &AttackScenario,
    decals: &Deployment,
    model: &TinyYolo,
    ps: &ParamSet,
    target: ObjectClass,
    challenge: Challenge,
    cfg: &EvalConfig,
) -> Driven {
    tr.profiled("eval", |tr| {
        let t0 = Instant::now();
        let mut busy = 0u64;
        let t = Instant::now();
        let renderer = FrameRenderer::new(scenario);
        let build_ns = ns(t);
        tr.render_ns += build_ns;
        busy += build_ns;
        let mut acc = OutcomeAccumulator::new();
        let mut bufs = DecodeBuffers::default();
        let mut dets: Vec<Vec<Detection>> = Vec::new();
        let motion = motion_m_per_frame(challenge, cfg.fps);
        for run in 0..cfg.runs {
            // the per-run RNG stream of the evaluation pipeline: decal
            // printing, then poses, then capture noise in frame order
            let mut rng = StdRng::seed_from_u64(
                cfg.seed ^ (run as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            );
            let printed: Vec<Decal> = decals
                .iter()
                .map(|d| d.print(&cfg.channel.print, &mut rng))
                .collect();
            let poses = challenge.poses(cfg, &mut rng);
            let mut cell = CellAccumulator::new(target, road_decals::eval::CONFIRM_WINDOW);
            for chunk in poses.chunks(BATCH_FRAMES) {
                let t = Instant::now();
                let draws: Vec<CaptureDraws> = chunk
                    .iter()
                    .map(|_| {
                        cfg.channel
                            .capture
                            .sample_draws(scenario.rig.image_hw, &mut rng)
                    })
                    .collect();
                let rendered = parallel::run_indexed(chunk.len(), |i| {
                    let t = Instant::now();
                    let f = renderer.render(scenario, &printed, &chunk[i], cfg, motion, &draws[i]);
                    (f, ns(t))
                });
                for d in draws {
                    d.recycle();
                }
                let mut frames = Vec::with_capacity(rendered.len());
                for (f, frame_ns) in rendered {
                    tr.render_frame_ns.push(frame_ns);
                    frames.push(f);
                }
                let render_ns = ns(t);
                tr.render_ns += render_ns;

                // inference time includes batching the frames
                let t = Instant::now();
                let batch = Image::batch_to_tensor(&frames);
                for f in frames {
                    arena::recycle(f.into_vec());
                }
                let (coarse, fine) = model.infer(ps, &batch);
                let infer_ns = ns(t);
                tr.infer_batch_ns.push(infer_ns);
                tr.infer_ns += infer_ns;

                let t = Instant::now();
                postprocess_into(
                    &coarse,
                    &fine,
                    model.config().num_classes,
                    cfg.conf_threshold,
                    cfg.nms_threshold,
                    &mut bufs,
                    &mut dets,
                );
                let decode_ns = ns(t);
                tr.decode_batch_ns.push(decode_ns);
                tr.decode_ns += decode_ns;
                busy += render_ns + infer_ns + decode_ns;

                arena::recycle(batch.into_vec());
                arena::recycle(coarse.into_vec());
                arena::recycle(fine.into_vec());
                for (dlist, pose) in dets.iter().zip(chunk) {
                    let class = scenario
                        .victim_box(pose)
                        .and_then(|v| classify_victim(dlist, &v, cfg.victim_iou));
                    acc.push_frame(class.is_some());
                    cell.push(class);
                    tr.dets += dlist.len() as u64;
                }
                tr.frames += chunk.len() as u64;
            }
            acc.finish_run(cell.finish(), cell.frames());
        }
        let stats = renderer.cache_stats();
        tr.cam.0 += stats.cam_hits as u64;
        tr.cam.1 += stats.cam_misses as u64;
        tr.decal.0 += stats.decal_hits as u64;
        tr.decal.1 += stats.decal_misses as u64;
        let wall_ns = ns(t0);
        tr.eval_cells += 1;
        tr.eval_ns += wall_ns;
        Driven {
            outcome: ChallengeOutcome {
                cell: acc.cell(),
                frames_per_run: acc.frames_per_run(),
                victim_detected: acc.victim_rate(),
            },
            busy_ns: busy,
            wall_ns,
        }
    })
}

/// The same video through the library's streamed pipeline, profiler
/// off, for its pipeline statistics and the bitwise comparison with the
/// layer path. `layer` is what [`drive`] returned for it.
#[allow(clippy::too_many_arguments)]
pub fn probe(
    tr: &mut Trace,
    scenario: &AttackScenario,
    decals: &Deployment,
    model: &TinyYolo,
    ps: &ParamSet,
    target: ObjectClass,
    challenge: Challenge,
    cfg: &EvalConfig,
    layer: &Driven,
) {
    let t = Instant::now();
    let streamed = evaluate_streamed(scenario, decals, model, ps, target, challenge, cfg);
    tr.probe_ns += ns(t);
    tr.probed_busy_ns += layer.busy_ns;
    tr.chunks += streamed.stats.chunks as u64;
    tr.peak_live = tr.peak_live.max(streamed.stats.peak_live_frames as u64);
    tr.probe_pairs.push((layer.outcome, streamed.outcome));
}
