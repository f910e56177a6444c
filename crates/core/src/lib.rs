//! # road-decals
//!
//! Reproduction of **Road Decals as Trojans: Disrupting Autonomous
//! Vehicle Navigation with Adversarial Patterns** (DSN 2024): monochrome,
//! shape-constrained adversarial road decals that fool a YOLOv3-tiny
//! object detector for *consecutive* frames while a simulated vehicle
//! drives over them.
//!
//! The crate composes the workspace substrates into the paper's pipeline:
//!
//! * [`scenario`] — the parking-lot world, victim object and decal sites;
//! * [`attack`] — GAN + EOT + consecutive-frame training (Eq. 1);
//! * [`baseline`] — the colored EOT patch of Sava et al. [34];
//! * [`eval`] — challenge videos (rotation / speed / angle) scored with
//!   the paper's PWC and CWC metrics ([`metrics`]);
//! * [`experiments`] — one entry point per paper table and figure;
//! * [`supervisor`] — isolated concurrent jobs on per-job
//!   [`rd_tensor::Runtime`]s: panic quarantine, deadlines,
//!   retry/backoff and fast-tier demotion around [`runner`].
//!
//! # Examples
//!
//! Run a tiny end-to-end attack (smoke scale):
//!
//! ```no_run
//! use rand::{rngs::StdRng, SeedableRng};
//! use rd_detector::{TinyYolo, YoloConfig};
//! use rd_scene::CameraRig;
//! use rd_tensor::ParamSet;
//! use road_decals::{attack, scenario::AttackScenario};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut ps = ParamSet::new();
//! let detector = TinyYolo::new(&mut ps, &mut rng, YoloConfig::smoke());
//! let scenario = AttackScenario::parking_lot(CameraRig::smoke(), 4, 60, 16, 1);
//! let cfg = attack::AttackConfig::smoke();
//! let trained = attack::train_decal_attack(&scenario, &detector, &mut ps, &cfg);
//! println!("decal mean intensity: {}", trained.decal.masked_mean());
//! ```

#![warn(missing_docs)]

pub mod annotate;
pub mod attack;
pub mod baseline;
pub mod decal;
pub mod defense;
pub mod eval;
#[cfg(test)]
mod eval_oracle;
pub mod experiments;
pub mod fault;
pub mod metrics;
pub mod render;
pub mod runner;
pub mod scenario;
pub mod stream;
pub mod supervisor;

pub use attack::{
    deploy, train_decal_attack, AttackConfig, AttackTrainer, Deployment, TrainedDecal,
};
pub use baseline::{train_baseline_patch, BaselineConfig, BaselinePatch};
pub use decal::Decal;
pub use defense::{evaluate_defense, Defense, DefenseOutcome};
pub use eval::{evaluate_challenge, evaluate_clean, Challenge, ChallengeOutcome, EvalConfig};
pub use fault::{CorruptMode, FaultPlan, TierDriftInfo};
pub use metrics::{Cell, Table};
pub use render::{FrameRenderer, RenderCacheStats};
pub use runner::{
    train_decal_attack_recoverable, train_detector_recoverable, RecoveryOptions, RunnerError,
    RunnerReport, TrainRunner, Trainable,
};
pub use scenario::AttackScenario;
pub use stream::{
    eval_fleet, evaluate_streamed, FleetConfig, FleetReport, StreamStats, StreamedEval,
    BATCH_FRAMES,
};
pub use supervisor::{
    run_fleet, run_job, supervise_main, JobCtx, JobOutcome, JobReport, JobSpec, TierDemotion,
};
