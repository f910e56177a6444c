//! Shared experiment environment: scale selection and the trained victim
//! detector (cached on disk so the six table binaries don't retrain it).

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::SeedableRng;

use rd_detector::{evaluate, TinyYolo, TrainConfig, YoloConfig};
use rd_scene::dataset::{generate, DatasetConfig};
use rd_scene::CameraRig;
use rd_tensor::{io, ParamSet};

use crate::runner::{train_detector_recoverable, RecoveryOptions, RunnerError, RunnerReport};

/// Experiment scale: `Smoke` for tests/benches (seconds), `Paper` for the
/// EXPERIMENTS.md numbers (minutes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-level budget; 64x64 rig.
    Smoke,
    /// The full reproduction budget; 96x96 rig.
    Paper,
}

impl std::str::FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "smoke" => Ok(Scale::Smoke),
            "paper" => Ok(Scale::Paper),
            other => Err(format!("unknown scale '{other}' (expected smoke|paper)")),
        }
    }
}

impl Scale {
    /// Camera/world geometry for the scale.
    pub fn rig(self) -> CameraRig {
        match self {
            Scale::Smoke => CameraRig::smoke(),
            Scale::Paper => CameraRig::standard(),
        }
    }

    /// Detector configuration for the scale.
    pub fn yolo(self) -> YoloConfig {
        match self {
            Scale::Smoke => YoloConfig::smoke(),
            Scale::Paper => YoloConfig::standard(),
        }
    }

    /// Detector training set size (paper: 1000 images).
    pub fn train_images(self) -> usize {
        match self {
            Scale::Smoke => 96,
            Scale::Paper => 1000,
        }
    }

    /// Detector training epochs.
    pub fn train_epochs(self) -> usize {
        match self {
            Scale::Smoke => 4,
            Scale::Paper => 18,
        }
    }

    /// Attack optimization steps.
    pub fn attack_steps(self) -> usize {
        match self {
            Scale::Smoke => 10,
            Scale::Paper => 150,
        }
    }

    /// The weight-cache file for this scale, in the workspace root's
    /// `out/` whatever the working directory (`cargo test` runs each
    /// package's tests from that package's own directory).
    pub fn cache_path(self) -> PathBuf {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("the crate sits two levels below the workspace root");
        root.join("out").join(match self {
            Scale::Smoke => "detector_smoke.rdw",
            Scale::Paper => "detector_paper.rdw",
        })
    }
}

/// Recovery policy for a whole experiment run: every training stage (the
/// detector fine-tune and each table row's attack) checkpoints into one
/// directory and can resume from it after a crash.
///
/// The default is fully disabled — no checkpoint files, no resume — which
/// keeps `prepare_environment` and the table runners byte-for-byte
/// equivalent to their pre-recovery behaviour.
#[derive(Debug, Clone, Default)]
pub struct ExperimentRecovery {
    /// Write a checkpoint every this many optimizer steps (0 disables
    /// periodic checkpoints).
    pub checkpoint_every: u64,
    /// Directory holding the per-stage checkpoint files
    /// (`<stage-slug>.rdc`); `None` keeps recovery in memory only.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume each stage from its checkpoint file when one exists.
    pub resume: bool,
}

impl ExperimentRecovery {
    /// The concrete runner policy for one named training stage; the stage
    /// label is slugged into the checkpoint file name.
    pub fn for_stage(&self, stage: &str) -> RecoveryOptions {
        RecoveryOptions {
            checkpoint_every: self.checkpoint_every,
            checkpoint_path: self
                .checkpoint_dir
                .as_ref()
                .map(|d| d.join(format!("{}.rdc", slug(stage)))),
            resume: self.resume,
            ..RecoveryOptions::default()
        }
    }

    /// Logs what a finished stage went through (resume point, rollbacks,
    /// skipped batches) — silent for a clean uninterrupted run.
    pub fn log_stage(stage: &str, report: &RunnerReport) {
        if let Some(step) = report.resumed_from {
            eprintln!("[recover] {stage}: resumed at step {step}");
        }
        if report.rollbacks > 0 {
            eprintln!(
                "[recover] {stage}: {} rollback(s), {} batch(es) skipped",
                report.rollbacks,
                report.skipped_steps.len()
            );
        }
    }
}

/// File-name slug for a stage label: `"Table I · Ours (w/ 3 frames)"`
/// becomes `"table-i-ours-w-3-frames"`.
fn slug(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') && !out.is_empty() {
            out.push('-');
        }
    }
    out.trim_end_matches('-').to_owned()
}

/// Why an experiment runner stopped early instead of producing its table
/// or figures.
#[derive(Debug)]
pub enum ExperimentError {
    /// A training stage failed inside the recovery runner (unreadable or
    /// unwritable checkpoint, scripted kill in tests).
    Train(RunnerError),
    /// An output artifact (figure, report) could not be written.
    Io {
        /// The path being written.
        path: PathBuf,
        /// The underlying filesystem error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Train(e) => write!(f, "training stage failed: {e}"),
            ExperimentError::Io { path, source } => {
                write!(f, "cannot write {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Train(e) => Some(e),
            ExperimentError::Io { source, .. } => Some(source),
        }
    }
}

impl From<RunnerError> for ExperimentError {
    fn from(e: RunnerError) -> Self {
        ExperimentError::Train(e)
    }
}

/// Everything the table experiments share: the rig and a trained victim
/// detector.
pub struct Environment {
    /// Scale the environment was built at.
    pub scale: Scale,
    /// The victim model.
    pub detector: TinyYolo,
    /// Its weights (frozen during attacks).
    pub params: ParamSet,
    /// Test-set detection accuracy (for reporting).
    pub detector_accuracy: f32,
    /// Propagated into every attack the experiment runs (see
    /// [`crate::attack::AttackConfig::audit`]).
    pub audit: bool,
    /// Recovery policy applied to every training stage the experiment
    /// runs (disabled by default).
    pub recovery: ExperimentRecovery,
}

impl Environment {
    /// Turns on graph auditing for every attack this environment runs,
    /// and immediately validates the victim detector's wiring.
    ///
    /// # Panics
    ///
    /// Panics if the detector fails shape validation.
    pub fn with_audit(mut self, audit: bool) -> Self {
        self.audit = audit;
        if audit {
            if let Err(issues) = self.detector.validate(&self.params, 1) {
                panic!(
                    "victim detector failed validation:\n{}",
                    issues
                        .iter()
                        .map(|i| i.to_string())
                        .collect::<Vec<_>>()
                        .join("\n")
                );
            }
            eprintln!("[audit] victim detector wiring validated");
        }
        self
    }
}

impl std::fmt::Debug for Environment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Environment")
            .field("scale", &self.scale)
            .field("detector_accuracy", &self.detector_accuracy)
            .finish()
    }
}

/// Trains (or loads from the on-disk cache) the victim detector for a
/// scale. Deterministic given `seed` — the cache only skips recompute.
pub fn prepare_environment(scale: Scale, seed: u64) -> Environment {
    prepare_environment_with(scale, seed, ExperimentRecovery::default())
        .expect("detector training cannot fail with recovery disabled")
}

/// [`prepare_environment`] under a recovery policy: the detector
/// fine-tune runs through [`crate::runner::TrainRunner`] (periodic
/// checkpoints, crash resume, divergence rollback), and the policy is
/// carried into the environment for every attack the tables and figures
/// train.
///
/// # Errors
///
/// Returns [`ExperimentError::Train`] when a checkpoint cannot be read
/// or written.
pub fn prepare_environment_with(
    scale: Scale,
    seed: u64,
    recovery: ExperimentRecovery,
) -> Result<Environment, ExperimentError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut params = ParamSet::new();
    let detector = TinyYolo::new(&mut params, &mut rng, scale.yolo());
    let cache = scale.cache_path();
    let mut loaded = false;
    if cache.exists() {
        match std::fs::read(&cache) {
            Ok(buf) => match io::load_params_into(&mut params, &buf) {
                Ok(()) => loaded = true,
                Err(e) => eprintln!(
                    "[cache] ignoring weight cache {}: {e}; retraining",
                    cache.display()
                ),
            },
            Err(e) => eprintln!(
                "[cache] cannot read weight cache {}: {e}; retraining",
                cache.display()
            ),
        }
    }
    if !loaded {
        let data = generate(&DatasetConfig {
            rig: scale.rig(),
            n_images: scale.train_images(),
            seed: seed ^ 0xda7a,
            augment: true,
        });
        let stage = format!("detector-{scale:?}");
        let (_, report) = train_detector_recoverable(
            &detector,
            &mut params,
            &data,
            &TrainConfig {
                epochs: scale.train_epochs(),
                batch_size: 16,
                lr: 1e-3,
                seed,
                clip: 10.0,
                log_every: 0,
                compiled: true,
            },
            &recovery.for_stage(&stage),
        )?;
        ExperimentRecovery::log_stage(&stage, &report);
        if let Some(dir) = cache.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        // the cache is best-effort: failing to write it costs a retrain
        // next run, nothing else
        let _ = io::save_params_file(&params, &cache);
    }
    let test = generate(&DatasetConfig {
        rig: scale.rig(),
        n_images: 24,
        seed: seed ^ 0x7e57,
        augment: false,
    });
    let m = evaluate(&detector, &params, &test, 0.35);
    Ok(Environment {
        scale,
        detector,
        params,
        detector_accuracy: m.class_accuracy,
        audit: false,
        recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!("paper".parse::<Scale>().unwrap(), Scale::Paper);
        assert_eq!("SMOKE".parse::<Scale>().unwrap(), Scale::Smoke);
        assert!("tiny".parse::<Scale>().is_err());
    }

    #[test]
    fn stage_slugs_are_filesystem_safe() {
        assert_eq!(
            slug("Table I · Ours (w/ 3 frames)"),
            "table-i-ours-w-3-frames"
        );
        assert_eq!(slug("(1)+(2)+(3)+(5)"), "1-2-3-5");
        assert_eq!(slug("k=60"), "k-60");
        let rec = ExperimentRecovery {
            checkpoint_every: 5,
            checkpoint_dir: Some(PathBuf::from("out/ckpt")),
            resume: true,
        };
        let opts = rec.for_stage("Table V star");
        assert_eq!(
            opts.checkpoint_path.as_deref(),
            Some(std::path::Path::new("out/ckpt/table-v-star.rdc"))
        );
        assert_eq!(opts.checkpoint_every, 5);
        assert!(opts.resume);
    }

    #[test]
    fn weight_cache_is_anchored_at_the_workspace_root() {
        // unit tests run from crates/core; the cache must not follow
        let path = Scale::Smoke.cache_path();
        let root = path.parent().and_then(Path::parent).unwrap();
        assert!(root.join("Cargo.lock").is_file(), "{}", path.display());
        assert_eq!(path.file_name().unwrap(), "detector_smoke.rdw");
    }

    #[test]
    fn scales_use_matching_geometry() {
        assert_eq!(Scale::Smoke.rig().image_hw.0, Scale::Smoke.yolo().input);
        assert_eq!(Scale::Paper.rig().image_hw.0, Scale::Paper.yolo().input);
    }
}
