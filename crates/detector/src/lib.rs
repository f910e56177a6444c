//! # rd-detector
//!
//! A from-scratch, CPU-trainable reproduction of YOLOv3-tiny — the victim
//! model of *Road Decals as Trojans* (DSN 2024) — scaled down per
//! DESIGN.md so white-box attacks run on a laptop.
//!
//! The crate provides the [`TinyYolo`] model (conv/BN/leaky backbone with
//! coarse + fine anchor heads), target assignment and the fused YOLO
//! training loss ([`loss`]), decoding and NMS ([`Detection`]), a training
//! loop ([`train`]) and the consecutive-frame confirmation rule behind
//! the paper's CWC metric: [`ConfirmState`], which CWC is scored with,
//! [`has_consecutive`] over a buffered history, and [`Confirmer`], which
//! feeds the [`Tracker`]. The targeted attack loss of the paper's Eq. 2
//! lives in [`loss::targeted_class_loss`].

#![warn(missing_docs)]

pub mod anchors;
mod confirm;
mod decode;
pub mod loss;
pub mod map;
mod model;
mod track;
mod train;

pub use confirm::{has_consecutive, ConfirmState, Confirmer};
pub use decode::{
    decode_head_into, nms_into, postprocess, postprocess_into, DecodeBuffers, Detection,
};
pub use model::{TinyYolo, YoloConfig, YoloOutputs};
pub use track::{Track, TrackState, Tracker, TrackerConfig};
pub use train::{
    detect, evaluate, train, DetectorTrainer, EvalMetrics, GradHook, TrainConfig, TrainReport,
};
