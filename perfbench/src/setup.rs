//! Inputs every workload builds from its seed: the detector training
//! set, the fine-tuned detector, the Table I scenario, and the decals
//! the drives deploy. Nothing is read from disk.

use rand::rngs::StdRng;
use rand::SeedableRng;

use rd_detector::{evaluate, TinyYolo, TrainConfig};
use rd_scene::dataset::{generate, DatasetConfig};
use rd_scene::PhysicalChannel;
use rd_tensor::ParamSet;
use road_decals::experiments::Scale;
use road_decals::{
    deploy, train_baseline_patch, train_decal_attack_recoverable, train_detector_recoverable,
    AttackConfig, AttackScenario, BaselineConfig, Challenge, Deployment, EvalConfig,
    RecoveryOptions,
};

use crate::checks::Digest;
use crate::layers::{self, Trace};

pub const SCALE: Scale = Scale::Smoke;

/// Drives in one pass of the drive mix: every Table I column, once with
/// the consecutive-frame decal and once with the colored baseline.
pub const MIX: usize = 16;

/// The detector training set (as `prepare_environment` builds it).
pub fn dataset_config(seed: u64) -> DatasetConfig {
    DatasetConfig {
        rig: SCALE.rig(),
        n_images: SCALE.train_images(),
        seed: seed ^ 0xda7a,
        augment: true,
    }
}

/// The held-out 24-image test set behind the detector's class accuracy.
pub fn test_config(seed: u64) -> DatasetConfig {
    DatasetConfig {
        rig: SCALE.rig(),
        n_images: 24,
        seed: seed ^ 0x7e57,
        augment: false,
    }
}

pub fn detector_train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: SCALE.train_epochs(),
        batch_size: 16,
        lr: 1e-3,
        seed,
        clip: 10.0,
        log_every: 0,
        compiled: true,
    }
}

/// A freshly initialised detector and its parameters.
pub fn new_detector(seed: u64) -> (TinyYolo, ParamSet) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ps = ParamSet::new();
    let det = TinyYolo::new(&mut ps, &mut rng, SCALE.yolo());
    (det, ps)
}

/// The Table I scenario: N = 6 decals, k = 60.
pub fn scenario(seed: u64) -> AttackScenario {
    AttackScenario::parking_lot(SCALE.rig(), 6, 60, 16, seed)
}

/// The "Ours (w/ 3 consecutive frames)" attack of Table I.
pub fn attack_config(seed: u64) -> AttackConfig {
    AttackConfig {
        steps: SCALE.attack_steps(),
        seed,
        audit: false,
        ..AttackConfig::paper()
    }
}

/// Table I's evaluation settings at smoke scale.
pub fn table_eval_config(seed: u64) -> EvalConfig {
    EvalConfig {
        channel: PhysicalChannel::real_world(),
        runs: 1,
        ..EvalConfig::smoke(seed)
    }
}

/// Drive `i` of the mix: its column, which decal it deploys (0 = ours,
/// 1 = the baseline), and its evaluation settings. A high frame rate
/// makes every approach span more than one 16-frame chunk.
pub fn drive_spec(seed: u64, i: usize) -> (Challenge, usize, EvalConfig) {
    let columns = Challenge::table_columns();
    let drive_seed = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((i as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    let cfg = EvalConfig {
        fps: 96.0,
        rotation_frames: 96,
        runs: 1,
        ..EvalConfig::real_world(drive_seed)
    };
    (columns[i % columns.len()], i / columns.len(), cfg)
}

/// Class accuracy of a detector on the seed's held-out test set.
pub fn test_accuracy(det: &TinyYolo, ps: &ParamSet, seed: u64) -> f64 {
    f64::from(evaluate(det, ps, &generate(&test_config(seed)), 0.35).class_accuracy)
}

/// What the drive workloads run on.
pub struct DriveSetup {
    pub scenario: AttackScenario,
    pub detector: TinyYolo,
    pub params: ParamSet,
    /// Ours (w/ 3 consecutive frames), then the baseline [34].
    pub decals: [Deployment; 2],
    /// Digest of the detector parameters and both decals' pixels.
    pub digest: Digest,
}

fn finish_setup(
    scenario: AttackScenario,
    detector: TinyYolo,
    params: ParamSet,
    ours: &road_decals::Decal,
    baseline: &road_decals::Decal,
) -> DriveSetup {
    let mut digest = Digest::default();
    digest.params(&params);
    digest.decal(ours);
    digest.decal(baseline);
    let decals = [deploy(ours, &scenario), deploy(baseline, &scenario)];
    DriveSetup {
        scenario,
        detector,
        params,
        decals,
        digest,
    }
}

/// Drive set-up through the library's entry points.
pub fn drive_setup(seed: u64) -> Result<DriveSetup, String> {
    let data = generate(&dataset_config(seed));
    let (det, mut ps) = new_detector(seed);
    let none = RecoveryOptions::default();
    train_detector_recoverable(&det, &mut ps, &data, &detector_train_config(seed), &none)
        .map_err(|e| e.to_string())?;
    let scn = scenario(seed);
    let cfg = attack_config(seed);
    let (ours, _) = train_decal_attack_recoverable(&scn, &det, &mut ps, &cfg, &none)
        .map_err(|e| e.to_string())?;
    let bl = train_baseline_patch(&scn, &det, &mut ps, &BaselineConfig::matched(&cfg));
    Ok(finish_setup(scn, det, ps, &ours.decal, &bl.decal))
}

/// Drive set-up one layer call at a time.
pub fn drive_setup_traced(tr: &mut Trace, seed: u64) -> Result<DriveSetup, String> {
    let data = layers::dataset(tr, seed);
    let (det, mut ps) = new_detector(seed);
    layers::finetune(tr, &det, &mut ps, &data, seed)?;
    let scn = scenario(seed);
    let cfg = attack_config(seed);
    let ours = layers::attack(tr, &scn, &det, &mut ps, &cfg)?;
    let bl = layers::baseline(tr, &scn, &det, &mut ps, &BaselineConfig::matched(&cfg));
    Ok(finish_setup(scn, det, ps, &ours.decal, &bl.decal))
}
