//! The three workloads. Each is a closed loop: one unit of work starts
//! when the previous one finished, until the run's time is up.
//!
//! Untraced runs call the library's entry points (`run_table1`,
//! `evaluate_challenge`, `eval_fleet`) and report the end-to-end
//! metrics. Traced runs drive the same units layer by layer through
//! [`crate::layers`] and report the per-layer metrics; they also run the
//! library path once more to check the two agree bit for bit.

use std::hint::black_box;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use rd_detector::TinyYolo;
use rd_scene::dataset::{generate, generate_sample};
use rd_tensor::{arena, parallel, runtime, ParamSet, PlanMeta};
use road_decals::experiments::{run_table1, Environment, ExperimentRecovery};
use road_decals::{
    deploy, eval_fleet, evaluate_challenge, run_fleet, train_detector_recoverable, BaselineConfig,
    Challenge, ChallengeOutcome, Deployment, EvalConfig, FleetConfig, JobCtx, JobReport, JobSpec,
    RecoveryOptions, RunnerError, RunnerReport, Table,
};

use crate::checks::{outcomes_equal, tables_equal, Checks, Digest};
use crate::layers::{self, Trace};
use crate::report::{median, peak_rss_mb, percentile, ratio, scaled, Metrics};
use crate::setup::{self, DriveSetup, MIX};

/// Set-ups per run; `setup_s` is their median.
const DRIVE_SETUPS: usize = 3;
const TABLE_SETUPS: usize = 21;
/// Fleet shape: drives per `eval_fleet` call, over this many jobs of
/// one thread each.
pub const FLEET_DRIVES: usize = 6;
pub const FLEET_JOBS: usize = 2;

/// What a run measured and checked.
pub struct RunOut {
    pub metrics: Metrics,
    pub checks: Checks,
    /// Wall time of every unit, in run order.
    pub unit_s: Vec<f64>,
    /// Wall time of every set-up.
    pub setup_s: Vec<f64>,
    /// Traced wall time over untraced wall time of the same work, minus 1.
    pub tracing_overhead: Option<f64>,
}

impl RunOut {
    /// A run that measured nothing.
    fn empty(checks: Checks) -> Self {
        RunOut {
            metrics: Metrics::default(),
            checks,
            unit_s: Vec::new(),
            setup_s: Vec::new(),
            tracing_overhead: None,
        }
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The end-to-end metrics every workload reports. `unit_s` holds whole
/// passes of a mix of `kinds` unit kinds, in mix order; the latency
/// percentiles are taken per kind over the passes and averaged over the
/// mix, so each draws on the whole run rather than on the few units of
/// whichever kind happens to sit at that rank.
fn end_to_end(setup_s: &[f64], unit_s: &[f64], kinds: usize, videos: u64, frames: u64) -> Metrics {
    let wall: f64 = unit_s.iter().sum();
    let per_kind = |p: f64| -> f64 {
        (0..kinds)
            .map(|k| {
                percentile(
                    &unit_s
                        .iter()
                        .skip(k)
                        .step_by(kinds)
                        .copied()
                        .collect::<Vec<_>>(),
                    p,
                )
            })
            .sum::<f64>()
            / kinds as f64
    };
    let mut m = Metrics::default();
    m.push("setup_s", median(setup_s), "s");
    m.push("unit_s", per_kind(0.5), "s");
    m.push("unit_p90_s", per_kind(0.9), "s");
    m.push("videos_per_s", videos as f64 / wall, "1/s");
    m.push("frames_per_s", frames as f64 / wall, "1/s");
    m.push("peak_rss_mb", peak_rss_mb(), "MiB");
    m
}

/// Layer-level facts a trace alone does not hold.
struct Extra {
    test_acc: f64,
    ours_pwc: f64,
    jobs: u64,
    attempts: u64,
    drives: u64,
    drives_finished: u64,
}

/// Per-conv FLOPs of one plan: (metric scope, profile path, FLOPs per
/// sample), from the plan's `ConvGeom`s.
fn conv_flops(meta: &PlanMeta) -> Vec<(String, String, u64)> {
    meta.ops
        .iter()
        .filter_map(|op| {
            let g = op.conv?;
            let flops = 2 * g.cin * g.kh * g.kw * g.cout * g.ho * g.wo;
            let scope = op
                .path
                .split_once('/')
                .and_then(|(_, rest)| rest.rsplit_once('/'))
                .map_or(op.name.clone(), |(scope, _)| scope.replace('/', "."));
            Some((scope, op.path.clone(), flops as u64))
        })
        .collect()
}

/// Every per-layer metric, from one run's trace.
fn per_layer(tr: &Trace, det: &TinyYolo, ps: &ParamSet, x: &Extra) -> Metrics {
    let is_plan = |p: &str| {
        ["train/", "infer/", "render/"]
            .iter()
            .any(|k| p.starts_with(k))
    };
    let all_stages = |keep: &dyn Fn(&str) -> bool| -> u64 {
        ["finetune", "attack", "baseline", "eval"]
            .iter()
            .map(|s| tr.prof_ns(s, keep))
            .sum()
    };
    let s = |ns: u64| ns as f64 * 1e-9;
    let mut m = Metrics::default();
    m.push("scene.dataset_s", s(tr.dataset_ns), "s");
    m.push(
        "detector.train_steps",
        tr.train_step_ns.len() as f64,
        "count",
    );
    m.push(
        "detector.train_step_ms_p50",
        median(&scaled(&tr.train_step_ns, 1e-6)),
        "ms",
    );
    m.push("detector.train_busy_s", s(tr.train_busy_ns), "s");
    m.push(
        "detector.col_cache_hit_ratio",
        ratio(tr.col_cache.0, tr.col_cache.0 + tr.col_cache.1),
        "ratio",
    );
    m.push("detector.test_class_acc", x.test_acc, "ratio");
    m.push("attack.steps", tr.attack_step_ns.len() as f64, "count");
    m.push(
        "attack.step_ms_p50",
        median(&scaled(&tr.attack_step_ns, 1e-6)),
        "ms",
    );
    m.push("attack.busy_s", s(tr.attack_busy_ns), "s");
    m.push("attack.ours_pwc_mean", x.ours_pwc, "ratio");
    m.push("baseline.steps", tr.baseline_steps as f64, "count");
    m.push("baseline.busy_s", s(tr.baseline_ns), "s");
    m.push("eval.cells", tr.eval_cells as f64, "count");
    m.push("eval.busy_s", s(tr.eval_ns), "s");
    m.push(
        "tensor.train_fwd_s",
        s(all_stages(&|p| {
            p.starts_with("train/") && !p.ends_with("_bwd")
        })),
        "s",
    );
    m.push(
        "tensor.train_bwd_s",
        s(all_stages(&|p| {
            p.starts_with("train/") && p.ends_with("_bwd")
        })),
        "s",
    );
    // the baseline runs on the tape alone, so its tape paths are leaves
    m.push(
        "tensor.tape_s",
        s(tr.prof_ns("baseline", |p| !is_plan(p))),
        "s",
    );
    m.push(
        "tensor.infer_s",
        s(all_stages(&|p| p.starts_with("infer/"))),
        "s",
    );
    m.push("render.frames", tr.frames as f64, "count");
    m.push(
        "render.frame_us_p50",
        median(&scaled(&tr.render_frame_ns, 1e-3)),
        "us",
    );
    m.push("render.busy_s", s(tr.render_ns), "s");
    for part in ["world", "decals", "capture"] {
        let key = format!("render/{part}");
        m.push(
            format!("render.{part}_s"),
            s(tr.prof_ns("eval", |p| p == key)),
            "s",
        );
    }
    m.push(
        "render.cam_hit_ratio",
        ratio(tr.cam.0, tr.cam.0 + tr.cam.1),
        "ratio",
    );
    m.push(
        "render.decal_hit_ratio",
        ratio(tr.decal.0, tr.decal.0 + tr.decal.1),
        "ratio",
    );
    m.push(
        "detector.infer_batches",
        tr.infer_batch_ns.len() as f64,
        "count",
    );
    m.push(
        "detector.infer_batch_ms_p50",
        median(&scaled(&tr.infer_batch_ns, 1e-6)),
        "ms",
    );
    m.push("detector.infer_busy_s", s(tr.infer_ns), "s");
    m.push(
        "decode.batch_us_p50",
        median(&scaled(&tr.decode_batch_ns, 1e-3)),
        "us",
    );
    m.push("decode.busy_s", s(tr.decode_ns), "s");
    m.push(
        "decode.dets_per_frame",
        ratio(tr.dets, tr.frames),
        "1/frame",
    );
    m.push("stream.chunks", tr.chunks as f64, "count");
    m.push("stream.peak_live_frames", tr.peak_live as f64, "count");
    m.push(
        "stream.overlap_ratio",
        ratio(tr.probed_busy_ns, tr.probe_ns),
        "ratio",
    );
    m.push("supervisor.jobs", x.jobs as f64, "count");
    m.push("supervisor.attempts", x.attempts as f64, "count");
    m.push(
        "supervisor.drives_finished_ratio",
        ratio(x.drives_finished, x.drives),
        "ratio",
    );
    m.push(
        "arena.hit_ratio",
        ratio(tr.arena.0, tr.arena.0 + tr.arena.1),
        "ratio",
    );
    m.push(
        "arena.high_water_mb",
        tr.high_water_elems as f64 * 4.0 / (1024.0 * 1024.0),
        "MiB",
    );
    m.push(
        "unit.stage_cover_ratio",
        ratio(tr.stage_ns, tr.unit_ns),
        "ratio",
    );
    // achieved GFLOP/s per conv: FLOPs from the plan geometry, time from
    // the profiler's leaf path of that conv
    let plans: [(&str, PlanMeta, &str); 3] = [
        ("infer", det.infer_plan(ps).meta(), "eval"),
        ("train", det.train_plan(ps).meta(), "finetune"),
        ("grad", det.grad_plan(ps).meta(), "attack"),
    ];
    for (label, meta, stage) in plans {
        let rows = tr.prof.get(stage);
        for (scope, path, flops) in conv_flops(&meta) {
            let (count, total_ns) = rows.and_then(|r| r.get(&path)).copied().unwrap_or((0, 0));
            // the train plan runs whole batches per call; the infer and
            // grad plans record one sample per call
            let samples = if label == "train" {
                tr.train_samples
            } else {
                count
            };
            m.push(
                format!("conv.{label}.{scope}.gflop_s"),
                ratio(flops * samples, total_ns),
                "GFLOP/s",
            );
        }
    }
    m
}

/// Run-wide arena counters of the current runtime, as deltas from `start`.
fn arena_delta(tr: &mut Trace, start: (usize, usize, usize)) {
    let (hits, misses, _) = arena::stats();
    tr.arena.0 += (hits - start.0) as u64;
    tr.arena.1 += (misses - start.1) as u64;
    tr.high_water_elems = tr
        .high_water_elems
        .max(runtime::current().arena_high_water() as u64);
}

// ------------------------------------------------------------- Table I

/// One Table I unit's results.
struct TableUnit {
    table: Table,
    /// Detector parameters after the fine-tune, then the table.
    digest: Digest,
    detector: TinyYolo,
    params: ParamSet,
}

/// Dataset → detector fine-tune → `run_table1`, through the library.
fn table_unit_library(seed: u64) -> Result<TableUnit, String> {
    let data = generate(&setup::dataset_config(seed));
    let (detector, mut params) = setup::new_detector(seed);
    let cfg = setup::detector_train_config(seed);
    train_detector_recoverable(
        &detector,
        &mut params,
        &data,
        &cfg,
        &RecoveryOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    let mut pd = Digest::default();
    pd.params(&params);
    let mut env = Environment {
        scale: setup::SCALE,
        detector,
        params,
        detector_accuracy: 0.0,
        audit: false,
        recovery: ExperimentRecovery::default(),
    };
    let table = run_table1(&mut env, seed).map_err(|e| e.to_string())?;
    pd.table(&table);
    Ok(TableUnit {
        table,
        digest: pd,
        detector: env.detector,
        params: env.params,
    })
}

/// Per table cell: the deployment, column and layer-path result the
/// streamed replays compare against.
type TableCells = Vec<(Deployment, Challenge, layers::Driven)>;

/// The traced unit: the same stages called layer by layer, each stage
/// span timed. Returns the unit, its cells, and the share of the unit's
/// wall time the stage spans cover.
fn table_unit_traced(tr: &mut Trace, seed: u64) -> Result<(TableUnit, TableCells, f64), String> {
    let unit = Instant::now();
    let mut stages = Duration::ZERO;

    let t = Instant::now();
    let data = layers::dataset(tr, seed);
    stages += t.elapsed();

    let t = Instant::now();
    let (detector, mut params) = setup::new_detector(seed);
    layers::finetune(tr, &detector, &mut params, &data, seed)?;
    stages += t.elapsed();
    let mut digest = Digest::default();
    digest.params(&params);

    // run_table1's rows: no attack, ours, ours without consecutive
    // frames, the baseline — each trained, then driven on all columns.
    // Building the scenario counts towards the attack stage.
    let t = Instant::now();
    let scn = setup::scenario(seed);
    let cfg = setup::attack_config(seed);
    stages += t.elapsed();
    let ecfg = setup::table_eval_config(seed);
    let columns = Challenge::table_columns();
    let headers: Vec<String> = columns.iter().map(|c| c.label()).collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "Table I: comparison under three challenges (real-world channel)",
        &header_refs,
    );
    let mut cells = Vec::new();
    for row in 0..4 {
        let t = Instant::now();
        let (label, decals) = match row {
            0 => ("w/o Attack", Deployment::none()),
            1 => {
                let ours = layers::attack(tr, &scn, &detector, &mut params, &cfg)?;
                ("Ours (w/ 3 consecutive frames)", deploy(&ours.decal, &scn))
            }
            2 => {
                let solo_cfg = cfg.without_consecutive_frames();
                let solo = layers::attack(tr, &scn, &detector, &mut params, &solo_cfg)?;
                ("Ours (w/o 3 consecutive frames)", deploy(&solo.decal, &scn))
            }
            _ => {
                let bl_cfg = BaselineConfig::matched(&cfg);
                let bl = layers::baseline(tr, &scn, &detector, &mut params, &bl_cfg);
                ("[34]", deploy(&bl.decal, &scn))
            }
        };
        stages += t.elapsed();
        let t = Instant::now();
        let mut row_cells = Vec::with_capacity(columns.len());
        for &c in &columns {
            let d = layers::drive(
                tr,
                &scn,
                &decals,
                &detector,
                &params,
                cfg.target_class,
                c,
                &ecfg,
            );
            row_cells.push(d.outcome.cell);
            cells.push((decals.clone(), c, d));
        }
        stages += t.elapsed();
        table.push_row(label, row_cells);
    }
    let wall = unit.elapsed();
    tr.stage_ns += stages.as_nanos() as u64;
    tr.unit_ns += wall.as_nanos() as u64;
    digest.table(&table);
    let cover = stages.as_secs_f64() / wall.as_secs_f64();
    Ok((
        TableUnit {
            table,
            digest,
            detector,
            params,
        },
        cells,
        cover,
    ))
}

/// Frames one Table I unit scores: pose counts depend only on the
/// challenge settings, never on the run's random draws.
fn table_frames(seed: u64) -> u64 {
    let ecfg = setup::table_eval_config(seed);
    let per_row: usize = Challenge::table_columns()
        .iter()
        .map(|c| c.poses(&ecfg, &mut StdRng::seed_from_u64(0)).len() * ecfg.runs)
        .sum();
    4 * per_row as u64
}

pub fn table1_smoke(seed: u64, run: Duration, traced: bool, state: &Path) -> RunOut {
    let mut checks = Checks::default();
    // set-up: the held-out test set, generated on the runtime's worker
    // threads, and the Table I scenario. Every repetition's results stay
    // alive until the last is built, so none reuses memory an earlier one
    // freed: with reuse allowed, the median of this millisecond set-up
    // moved by up to a third between runs.
    let test_cfg = setup::test_config(seed);
    let mut setup_s = Vec::with_capacity(TABLE_SETUPS);
    let mut built = Vec::with_capacity(TABLE_SETUPS);
    for _ in 0..TABLE_SETUPS {
        let t = Instant::now();
        let test = parallel::run_indexed(test_cfg.n_images, |i| generate_sample(&test_cfg, i));
        built.push((test, setup::scenario(seed)));
        setup_s.push(secs(t));
    }
    black_box(built);
    let frames_per_unit = table_frames(seed);
    let cells_per_unit = 4 * Challenge::table_columns().len() as u64;

    let mut tr = Trace::default();
    let arena0 = arena::stats();
    let mut unit_s = Vec::new();
    let mut first: Option<(TableUnit, TableCells)> = None;
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let unit = if traced {
            let frames_before = tr.frames;
            table_unit_traced(&mut tr, seed).map(|(u, cells, cover)| {
                checks.check(
                    (0.95..=1.0).contains(&cover),
                    format!("stage spans cover {cover:.4} of the unit's wall time"),
                );
                checks.check(
                    tr.frames - frames_before == frames_per_unit,
                    "traced unit scored the expected frames",
                );
                (u, cells)
            })
        } else {
            table_unit_library(seed).map(|u| (u, Vec::new()))
        };
        let wall = secs(t);
        match unit {
            Ok((u, cells)) => {
                unit_s.push(wall);
                checks.check(
                    table_valid(&u.table),
                    "Table I has 4 rows of 8 cells, PWC in [0, 1]",
                );
                match &first {
                    None => first = Some((u, cells)),
                    Some((f, _)) => {
                        checks.check(u.digest == f.digest, "Table I unit repeats bit for bit");
                    }
                }
            }
            Err(e) => {
                checks.check(false, format!("Table I unit failed: {e}"));
                break;
            }
        }
        if start.elapsed() >= run {
            break;
        }
    }
    let Some((first, cells)) = first else {
        return RunOut::empty(checks);
    };
    checks.digest(state, "table1_smoke", seed, first.digest);

    if !traced {
        return RunOut {
            metrics: end_to_end(
                &setup_s,
                &unit_s,
                1,
                cells_per_unit * unit_s.len() as u64,
                frames_per_unit * unit_s.len() as u64,
            ),
            checks,
            unit_s,
            setup_s,
            tracing_overhead: None,
        };
    }

    // the library unit, for the bitwise table check and the overhead
    let t = Instant::now();
    let lib = table_unit_library(seed);
    let lib_s = secs(t);
    let mut overhead = None;
    match lib {
        Ok(lib) => {
            checks.check(
                tables_equal(&lib.table, &first.table),
                "run_table1 equals the table assembled layer by layer",
            );
            checks.check(
                lib.digest == first.digest,
                "library and traced unit digests agree",
            );
            overhead = Some(unit_s[0] / lib_s - 1.0);
        }
        Err(e) => {
            checks.check(false, format!("library Table I unit failed: {e}"));
        }
    }
    // every cell once more through the streamed pipeline
    let target = setup::attack_config(seed).target_class;
    let scn = setup::scenario(seed);
    let ecfg = setup::table_eval_config(seed);
    for (decals, c, d) in &cells {
        layers::probe(
            &mut tr,
            &scn,
            decals,
            &first.detector,
            &first.params,
            target,
            *c,
            &ecfg,
            d,
        );
    }
    check_probes(&mut checks, &tr);
    arena_delta(&mut tr, arena0);
    let ours = &first.table.rows[1].1;
    let extra = Extra {
        test_acc: setup::test_accuracy(&first.detector, &first.params, seed),
        ours_pwc: ours.iter().map(|c| f64::from(c.pwc)).sum::<f64>() / ours.len() as f64,
        jobs: 0,
        attempts: 0,
        drives: tr.eval_cells,
        drives_finished: tr.eval_cells,
    };
    RunOut {
        metrics: per_layer(&tr, &first.detector, &first.params, &extra),
        checks,
        unit_s,
        setup_s,
        tracing_overhead: overhead,
    }
}

fn table_valid(t: &Table) -> bool {
    t.rows.len() == 4
        && t.rows.iter().all(|(_, cells)| {
            cells.len() == Challenge::table_columns().len()
                && cells.iter().all(|c| (0.0..=1.0).contains(&c.pwc))
        })
}

/// A drive scored every pose of its challenge, with rates in `[0, 1]`.
fn outcome_valid(o: &ChallengeOutcome, c: Challenge, cfg: &EvalConfig) -> bool {
    o.frames_per_run == c.poses(cfg, &mut StdRng::seed_from_u64(0)).len()
        && (0.0..=1.0).contains(&o.cell.pwc)
        && (0.0..=1.0).contains(&o.victim_detected)
}

fn check_probes(checks: &mut Checks, tr: &Trace) {
    for (i, (layer, streamed)) in tr.probe_pairs.iter().enumerate() {
        checks.check(
            outcomes_equal(layer, streamed),
            format!("drive {i}: layer path {layer:?} != streamed {streamed:?}"),
        );
    }
}

// -------------------------------------------------------------- drives

/// `DRIVE_SETUPS` set-ups; returns the first and their wall times, and
/// checks they all produced the same detector and decals.
fn drive_setups(
    checks: &mut Checks,
    tr: &mut Trace,
    seed: u64,
    traced: bool,
) -> Result<(DriveSetup, Vec<f64>), String> {
    let mut walls = Vec::with_capacity(DRIVE_SETUPS);
    let mut first: Option<DriveSetup> = None;
    for _ in 0..DRIVE_SETUPS {
        let t = Instant::now();
        let s = if traced {
            setup::drive_setup_traced(tr, seed)?
        } else {
            setup::drive_setup(seed)?
        };
        walls.push(secs(t));
        match &first {
            None => first = Some(s),
            Some(f) => {
                checks.check(s.digest == f.digest, "drive set-up repeats bit for bit");
            }
        }
    }
    Ok((first.expect("at least one set-up"), walls))
}

fn ours_pwc(outcomes: &[ChallengeOutcome]) -> f64 {
    let ours: Vec<f64> = outcomes
        .iter()
        .enumerate()
        .filter(|(i, _)| setup::drive_spec(0, *i).1 == 0)
        .map(|(_, o)| f64::from(o.cell.pwc))
        .collect();
    ours.iter().sum::<f64>() / ours.len().max(1) as f64
}

fn failed_setup(mut checks: Checks, e: String) -> RunOut {
    checks.check(false, format!("drive set-up failed: {e}"));
    RunOut::empty(checks)
}

pub fn drive_stream(seed: u64, run: Duration, traced: bool, state: &Path) -> RunOut {
    let mut checks = Checks::default();
    let mut tr = Trace::default();
    let (s, setup_s) = match drive_setups(&mut checks, &mut tr, seed, traced) {
        Ok(v) => v,
        Err(e) => return failed_setup(checks, e),
    };
    let target = setup::attack_config(seed).target_class;
    let arena0 = arena::stats();
    let mut first: Vec<ChallengeOutcome> = Vec::with_capacity(MIX);
    let mut unit_s = Vec::new();
    let mut frames = 0u64;
    let start = Instant::now();
    let mut k = 0;
    // whole passes of the mix only, so every run times the same drives
    while k % MIX != 0 || k == 0 || start.elapsed() < run {
        let (c, d, cfg) = setup::drive_spec(seed, k % MIX);
        let decals = &s.decals[d];
        let t = Instant::now();
        let outcome = if traced {
            let l = layers::drive(
                &mut tr,
                &s.scenario,
                decals,
                &s.detector,
                &s.params,
                target,
                c,
                &cfg,
            );
            tr.stage_ns += l.busy_ns;
            tr.unit_ns += l.wall_ns;
            layers::probe(
                &mut tr,
                &s.scenario,
                decals,
                &s.detector,
                &s.params,
                target,
                c,
                &cfg,
                &l,
            );
            l.outcome
        } else {
            evaluate_challenge(&s.scenario, decals, &s.detector, &s.params, target, c, &cfg)
        };
        unit_s.push(secs(t));
        checks.check(
            outcome_valid(&outcome, c, &cfg),
            format!("drive {}: {outcome:?} is not a valid outcome", k % MIX),
        );
        frames += (outcome.frames_per_run * cfg.runs) as u64;
        if k < MIX {
            first.push(outcome);
        } else {
            checks.check(
                outcomes_equal(&outcome, &first[k % MIX]),
                format!("drive {} repeats bit for bit", k % MIX),
            );
        }
        k += 1;
    }
    let mut digest = s.digest;
    for o in &first {
        digest.outcome(o);
    }
    checks.digest(state, "drive_stream", seed, digest);
    if !traced {
        return RunOut {
            metrics: end_to_end(&setup_s, &unit_s, MIX, k as u64, frames),
            checks,
            unit_s,
            setup_s,
            tracing_overhead: None,
        };
    }
    check_probes(&mut checks, &tr);
    arena_delta(&mut tr, arena0);
    let extra = Extra {
        test_acc: setup::test_accuracy(&s.detector, &s.params, seed),
        ours_pwc: ours_pwc(&first),
        jobs: 0,
        attempts: 0,
        drives: k as u64,
        drives_finished: tr.eval_cells,
    };
    RunOut {
        metrics: per_layer(&tr, &s.detector, &s.params, &extra),
        checks,
        unit_s,
        setup_s,
        tracing_overhead: Some(tr.unit_ns as f64 / tr.probe_ns as f64 - 1.0),
    }
}

/// `eval_fleet`'s seed for drive `drive` of a fleet evaluated under `cfg`.
fn fleet_drive_config(cfg: &EvalConfig, drive: usize) -> EvalConfig {
    EvalConfig {
        seed: cfg
            .seed
            .wrapping_add((drive as u64 + 1).wrapping_mul(0xd1b5_4a32_d192_ed03)),
        ..*cfg
    }
}

/// The traced fleet: the same supervised jobs and drive partition as
/// `eval_fleet`, each drive driven layer by layer inside its job.
fn layer_fleet(
    s: &DriveSetup,
    decals: &Deployment,
    c: Challenge,
    cfg: &EvalConfig,
    fleet: &FleetConfig,
) -> (Vec<Trace>, Vec<JobReport>) {
    let target = setup::attack_config(0).target_class;
    let traces = Mutex::new(Vec::new());
    let jobs: Vec<(JobSpec, _)> = (0..fleet.jobs)
        .map(|j| {
            let lo = fleet.drives * j / fleet.jobs;
            let hi = fleet.drives * (j + 1) / fleet.jobs;
            let spec = JobSpec::new(&format!("perfbench-fleet-{j}"))
                .threads(fleet.threads_per_job)
                .tier(fleet.tier)
                .max_retries(fleet.max_retries);
            let traces = &traces;
            let job = move |ctx: &JobCtx| -> Result<RunnerReport, RunnerError> {
                let mut tr = Trace::default();
                for drive in lo..hi {
                    let dcfg = fleet_drive_config(cfg, drive);
                    let l = layers::drive(
                        &mut tr,
                        &s.scenario,
                        decals,
                        &s.detector,
                        &s.params,
                        target,
                        c,
                        &dcfg,
                    );
                    tr.stage_ns += l.busy_ns;
                    tr.unit_ns += l.wall_ns;
                    layers::probe(
                        &mut tr,
                        &s.scenario,
                        decals,
                        &s.detector,
                        &s.params,
                        target,
                        c,
                        &dcfg,
                        &l,
                    );
                }
                let (hits, misses, _) = arena::stats();
                tr.arena = (hits as u64, misses as u64);
                tr.high_water_elems = ctx.rt.arena_high_water() as u64;
                traces
                    .lock()
                    .expect("no job panics holding the lock")
                    .push(tr);
                Ok(RunnerReport {
                    steps_run: (hi - lo) as u64,
                    ..RunnerReport::default()
                })
            };
            (spec, job)
        })
        .collect();
    let reports = run_fleet(jobs);
    let traces = traces.into_inner().expect("no job panics holding the lock");
    (traces, reports)
}

fn finished_drives(reports: &[JobReport]) -> u64 {
    reports
        .iter()
        .filter_map(|r| r.runner.as_ref())
        .map(|r| r.steps_run)
        .sum()
}

pub fn drive_fleet(seed: u64, run: Duration, traced: bool, state: &Path) -> RunOut {
    let mut checks = Checks::default();
    let mut tr = Trace::default();
    let (s, setup_s) = match drive_setups(&mut checks, &mut tr, seed, traced) {
        Ok(v) => v,
        Err(e) => return failed_setup(checks, e),
    };
    let target = setup::attack_config(seed).target_class;
    let fleet = FleetConfig::new(FLEET_DRIVES, FLEET_JOBS);
    let mut first: Vec<(u64, u64)> = Vec::with_capacity(MIX);
    let mut ours: Vec<ChallengeOutcome> = Vec::new();
    let mut unit_s = Vec::new();
    let (mut videos, mut frames) = (0u64, 0u64);
    let (mut jobs, mut attempts, mut drives) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    let mut k = 0;
    // whole passes of the mix only, so every run times the same drives
    while k % MIX != 0 || k == 0 || start.elapsed() < run {
        let (c, d, cfg) = setup::drive_spec(seed, k % MIX);
        let decals = &s.decals[d];
        let t = Instant::now();
        let layer = traced.then(|| layer_fleet(&s, decals, c, &cfg, &fleet));
        let lib = eval_fleet(
            &s.scenario,
            decals,
            &s.detector,
            &s.params,
            target,
            c,
            &cfg,
            &fleet,
        );
        checks.check(lib.finished(), format!("fleet {k}: every job finished"));
        let (finished, unit_frames) = match layer {
            None => (lib.drives_finished as u64, lib.frames),
            Some((traces, reports)) => {
                let frames_before = tr.frames;
                for job in traces {
                    if d == 0 && k < MIX {
                        ours.extend(job.probe_pairs.iter().map(|p| p.0));
                    }
                    tr.merge(job);
                }
                let finished = finished_drives(&reports);
                let unit_frames = tr.frames - frames_before;
                checks.check(
                    unit_frames == lib.frames && finished == lib.drives_finished as u64,
                    format!(
                        "fleet {k}: layer path {finished} drives / {unit_frames} frames, \
                         eval_fleet {} / {}",
                        lib.drives_finished, lib.frames
                    ),
                );
                checks.check(
                    reports.iter().all(JobReport::finished),
                    "every layer-path fleet job finished",
                );
                jobs += (reports.len() + lib.jobs.len()) as u64;
                attempts += reports
                    .iter()
                    .chain(&lib.jobs)
                    .map(|r| u64::from(r.attempts))
                    .sum::<u64>();
                (finished, unit_frames)
            }
        };
        unit_s.push(secs(t));
        checks.check(
            finished == fleet.drives as u64,
            format!("fleet {k}: {finished} of {} drives finished", fleet.drives),
        );
        drives += fleet.drives as u64;
        videos += finished;
        frames += unit_frames;
        if k < MIX {
            first.push((finished, unit_frames));
        } else {
            checks.check(
                first[k % MIX] == (finished, unit_frames),
                format!("fleet {} repeats its drive and frame counts", k % MIX),
            );
        }
        k += 1;
    }
    let mut digest = s.digest;
    for &(finished, unit_frames) in &first {
        digest.u64(finished);
        digest.u64(unit_frames);
    }
    checks.digest(state, "drive_fleet", seed, digest);
    if !traced {
        return RunOut {
            metrics: end_to_end(&setup_s, &unit_s, MIX, videos, frames),
            checks,
            unit_s,
            setup_s,
            tracing_overhead: None,
        };
    }
    check_probes(&mut checks, &tr);
    let extra = Extra {
        test_acc: setup::test_accuracy(&s.detector, &s.params, seed),
        ours_pwc: ours.iter().map(|o| f64::from(o.cell.pwc)).sum::<f64>()
            / ours.len().max(1) as f64,
        jobs,
        attempts,
        drives,
        drives_finished: videos,
    };
    RunOut {
        metrics: per_layer(&tr, &s.detector, &s.params, &extra),
        checks,
        unit_s,
        setup_s,
        tracing_overhead: Some(tr.unit_ns as f64 / tr.probe_ns as f64 - 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names a run prints, in order, against the names
    /// BENCHMARK.json declares for the same section.
    fn assert_declared(section: &str, printed: &Metrics) {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let declared: Vec<&str> = body
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("name closes")])
            .collect();
        let names: Vec<&str> = printed.0.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, declared, "{section}");
    }

    #[test]
    fn printed_metrics_match_the_benchmark_declaration() {
        assert_declared("end_to_end", &end_to_end(&[1.0], &[1.0], 1, 1, 1));
        let (det, ps) = setup::new_detector(0);
        let extra = Extra {
            test_acc: 0.0,
            ours_pwc: 0.0,
            jobs: 0,
            attempts: 0,
            drives: 0,
            drives_finished: 0,
        };
        assert_declared(
            "per_layer",
            &per_layer(&Trace::default(), &det, &ps, &extra),
        );
    }
}
