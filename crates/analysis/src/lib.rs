//! # rd-analysis
//!
//! Static analyses over the `rd-tensor` autograd tape.
//!
//! The attack pipeline (GAN patch synthesis → EOT composite → YOLO
//! detector) builds long single-use [`rd_tensor::Graph`]s where a silent
//! shape mismatch or a NaN poisons an entire multi-epoch run. Every tape
//! node records declarative [`rd_tensor::OpMeta`] alongside its opaque
//! backward closure, and this crate works entirely off that metadata:
//!
//! * [`validate`] — symbolic shape inference. Per-op shape rules
//!   re-derive every node's output shape from its parents and report
//!   *all* mismatches with op-path traces (e.g.
//!   `head16/conv3: conv2d weight OC×C×K×K has C=32, input NCHW has
//!   C=64`) instead of panicking on the first. Works on eager tapes and
//!   on [`rd_tensor::Graph::shape_only`] tapes, where a model traces its
//!   own forward without running a kernel, so the models check their
//!   wiring before any kernel runs.
//! * [`lint`] — graph lints: parameters unreachable from the loss, dead
//!   nodes never consumed, fan-in anomalies, and parameters whose
//!   gradient is structurally always zero.
//! * [`audit_non_finite`] — NaN/Inf provenance: finds the first
//!   non-finite value on the tape and reports the producing op, its
//!   parents' value ranges and the nearest fully-finite ancestor.
//! * [`grad_audit`] — a harness sweeping every op's backward pass
//!   against central differences, emitting a pass/fail table.
//!
//! Since PR 4/5 the hot paths no longer execute tapes — they execute
//! *compiled plans* ([`rd_tensor::InferPlan`] / [`rd_tensor::TrainPlan`]),
//! and those have their own analyzer, working off the
//! [`rd_tensor::PlanMeta`] introspection each plan exports:
//!
//! * [`ir`] — the dataflow IR ([`PlanIr`]: per-slot def/use chains)
//!   plus fusion-legality, parameter-coverage/orphan and column-budget
//!   lints; [`audit_plan`] runs everything, and
//!   [`audit_plan_or_panic`] is the compile-site hook the model crates
//!   call on every freshly cached plan (debug builds).
//! * [`liveness`] — buffers proven written-before-read, roots defined,
//!   dead buffers flagged; plus live-range/peak-footprint statistics.
//! * [`alias`] — single-producer/no-in-place/input-read-only proofs
//!   and re-derivation of the train convs' `gx_direct` routing.
//! * [`race`] — a static data-race check for the worker-group fan-out:
//!   the sample partition is exhaustively verified and every conv's
//!   chunk strides are proven consistent with the slot table.
//! * [`bounds`] — interval + ulp-error propagation certifying a
//!   [`bounds::LogitBound`] for a candidate GEMM kernel substitution
//!   (the `f32x8`/FMA tier): a static max-abs-divergence bound on the
//!   logits, checked against observed divergence by the test suite.
//! * [`plan_mutate`] — targeted plan corruptions for mutation-testing
//!   the lints themselves.
//!
//! # Examples
//!
//! Validate a hand-written shape-only tape:
//!
//! ```
//! use rd_tensor::Graph;
//!
//! let mut g = Graph::shape_only();
//! let x = g.declare("input", &[], &[], &[1, 64, 12, 12]);
//! g.push_scope("head16");
//! // 3x3 conv whose weight expects 32 input channels — mis-wired.
//! let w = g.declare("param", &[], &[], &[18, 32, 3, 3]);
//! g.push_scope("conv3");
//! let y = g.declare("conv2d", &[x, w], &[("stride", 1), ("pad", 1)], &[1, 18, 12, 12]);
//! g.pop_scope();
//! g.pop_scope();
//! let issues = rd_analysis::validate(&g).unwrap_err();
//! assert!(issues[0].to_string().contains("head16/conv3"));
//! assert!(issues[0].to_string().contains("C=32"));
//! # let _ = y;
//! ```

pub mod alias;
pub mod bounds;
pub mod grad_audit;
pub mod ir;
mod lints;
pub mod liveness;
mod nan;
pub mod plan_mutate;
pub mod race;
mod shape;

pub use bounds::{certify_logit_bounds, KernelModel, LogitBound};
pub use grad_audit::{render_table, run_grad_audit, OpReport};
pub use ir::{
    audit_plan, audit_plan_or_panic, check_col_budget, check_fusion, check_params, orphan_params,
    PlanIr, PlanIssue, PlanLintKind,
};
pub use lints::{lint, lint_with_params, LintIssue, LintKind};
pub use nan::{audit_non_finite, non_finite_detail, NanReport, ValueRange};
pub use plan_mutate::Corruption;
pub use shape::{validate, validate_with_root, ShapeIssue};
