//! # rd-tensor
//!
//! A small, CPU-only tensor library with reverse-mode automatic
//! differentiation, written from scratch for the `road-decals`
//! reproduction of *Road Decals as Trojans* (DSN 2024).
//!
//! The paper's attack is a white-box gradient attack against a YOLOv3-tiny
//! object detector; everything it needs — convolutions, batch norm,
//! pooling, GAN layers, EOT image warps — must be differentiable. This
//! crate provides:
//!
//! * [`Tensor`] — dense row-major `f32` arrays.
//! * [`Graph`] — a single-use autodiff tape ([`Graph::backward`] produces
//!   [`Gradients`]); ops cover conv2d, max-pool, upsample, batch norm,
//!   activations, losses and sparse [`LinearMap`] warps.
//! * [`ParamSet`] / [`optim`] — named parameters plus Adam.
//! * [`io`] — binary weight blobs plus versioned, CRC-guarded training
//!   checkpoints with atomic writes for crash-safe resume.
//! * `plan` (crate-private) — the one lowering behind both compiled
//!   plans: a network's forward, traced on a [`Graph::shape_only`]
//!   tape, becomes a flat, fused op list with a slot table, lifted into
//!   a [`PlanMeta`] for static analysis.
//! * [`infer`] — tape-free compiled inference ([`InferPlan`]) for
//!   grad-free evaluation paths, bitwise-identical to the tape forward.
//! * [`train_plan`] — the compiled training step ([`TrainPlan`] /
//!   [`TrainStep`]): the same lowering run full-batch forward+backward
//!   with activation column caching, bitwise-identical to a tape
//!   forward+backward.
//! * [`check`] — numerical gradient checking used across the workspace.
//! * [`simd`] — the exact kernels, AVX2 with a portable fallback: every
//!   GEMM (the convolutions and [`Tensor::matmul`]), the sparse warp
//!   gather and the capture channel's blend and blur.
//! * [`runtime`] — instance-scoped execution contexts ([`Runtime`]):
//!   each bundles a worker-thread budget, fixed when it is built, with
//!   a scratch arena, profiler registry and cancellation state. The free functions in [`parallel`] /
//!   [`arena`] / [`profile`] act on the runtime current at the call
//!   site (a lazily created process default outside any
//!   [`Runtime::enter`] scope), so supervisors can run isolated
//!   concurrent jobs.
//!
//! # Examples
//!
//! Train a one-parameter model with Adam:
//!
//! ```
//! use rd_tensor::{optim::Adam, Graph, ParamSet, Tensor};
//!
//! let mut ps = ParamSet::new();
//! let w = ps.register("w", Tensor::from_vec(vec![0.0], &[1]));
//! let mut opt = Adam::new(0.1);
//! for _ in 0..200 {
//!     ps.zero_grads();
//!     let mut g = Graph::new();
//!     let wv = g.param(&ps, w);
//!     let err = g.add_scalar(wv, -5.0);
//!     let sq = g.mul(err, err);
//!     let loss = g.sum_all(sq);
//!     let grads = g.backward(loss);
//!     g.write_grads(&grads, &mut ps);
//!     opt.step(&mut ps);
//! }
//! assert!((ps.get(w).value().data()[0] - 5.0).abs() < 0.05);
//! ```

#![warn(missing_docs)]

pub mod arena;
mod bnorm;
pub mod check;
mod conv;
mod graph;
pub mod infer;
pub mod init;
pub mod io;
mod linmap;
pub mod loss;
pub mod optim;
pub mod parallel;
mod params;
mod plan;
pub mod plan_meta;
mod pool;
pub mod profile;
pub mod runtime;
pub mod shape;
pub mod simd;
mod tensor;
pub mod train_plan;

pub use bnorm::{fold_running_stats, BatchStats};
pub use graph::{BackFn, Gradients, Graph, OpMeta, VarId};
pub use infer::InferPlan;
pub use linmap::{LinearMap, WarpEntry};
pub use params::{Param, ParamId, ParamSet};
pub use plan_meta::{ConvGeom, ParamRef, ParamRole, PlanKind, PlanMeta, PlanOpMeta, SlotMeta};
pub use runtime::{Cancelled, Runtime, RuntimeConfig, Tier};
pub use tensor::Tensor;
pub use train_plan::{TrainPlan, TrainStep};
