//! Alias analysis over the plan IR.
//!
//! The compiled executors assume SSA-like buffer discipline: every
//! activation slot has exactly one producer, no op updates a slot in
//! place, and the plan input slot is read-only after the executor
//! copies the batch in. The lowering guarantees all three today — it
//! allocates a fresh slot per value-producing tape op — but nothing
//! downstream re-checks it, and the
//! parallel fan-out silently depends on it (two producers for one slot
//! in different groups is a write-write race; see [`crate::race`]).
//!
//! This module also re-derives the train plans' `gx_direct` routing:
//! a conv backward may `col2im`-scatter straight into its input slot's
//! gradient *only* when that slot has no later forward reader and is
//! not a plan root; otherwise the scatter must go through a temp + add
//! so earlier consumers' contributions accumulate. The flag is computed
//! once at compile time — [`check`] recomputes the sole-consumer
//! property from the IR and flags any disagreement.

use crate::ir::{op_issue, PlanIr, PlanIssue, PlanLintKind};
use rd_tensor::PlanKind;

/// Single-producer / no-in-place / input-read-only alias lints plus
/// `gx_direct` routing verification.
pub fn check(ir: &PlanIr) -> Vec<PlanIssue> {
    let meta = ir.meta;
    let mut issues = Vec::new();

    for (s, defs) in ir.defs.iter().enumerate() {
        if defs.len() > 1 {
            let writers: Vec<String> = defs
                .iter()
                .map(|&d| format!("{}#{d}", meta.ops[d].path))
                .collect();
            issues.push(op_issue(
                meta,
                PlanLintKind::Alias,
                defs[1],
                format!(
                    "slot {s} has {} producers ({}); compiled buffers are single-assignment",
                    defs.len(),
                    writers.join(", ")
                ),
            ));
        }
    }

    for (oi, op) in meta.ops.iter().enumerate() {
        for &w in &op.writes {
            if op.reads.contains(&w) {
                issues.push(op_issue(
                    meta,
                    PlanLintKind::Alias,
                    oi,
                    format!("reads and writes slot {w} (in-place update; no plan kernel is in-place safe)"),
                ));
            }
            if w == meta.input_slot {
                issues.push(op_issue(
                    meta,
                    PlanLintKind::Alias,
                    oi,
                    format!("writes the plan input slot {w}; the input is read-only after batch copy-in"),
                ));
            }
        }
    }

    issues.extend(check_gx_routing(ir));
    issues
}

/// Recompute each train conv's sole-consumer property and compare with
/// the stored `gx_direct` flag.
fn check_gx_routing(ir: &PlanIr) -> Vec<PlanIssue> {
    let meta = ir.meta;
    let mut issues = Vec::new();
    for (oi, op) in meta.ops.iter().enumerate() {
        let Some(stored) = op.gx_direct else { continue };
        if meta.kind == PlanKind::Infer {
            issues.push(op_issue(
                meta,
                PlanLintKind::GxRouting,
                oi,
                "carries a gx_direct flag in an inference plan (no backward pass exists)".into(),
            ));
            continue;
        }
        let Some(&x) = op.reads.first() else { continue };
        let later_reader = meta.ops[oi + 1..]
            .iter()
            .position(|o| o.reads.contains(&x))
            .map(|j| oi + 1 + j);
        let is_root = meta.outputs.contains(&x);
        let expected = later_reader.is_none() && !is_root;
        if stored != expected {
            let why = if let Some(j) = later_reader {
                format!("slot {x} is also read by {}#{j}", meta.ops[j].path)
            } else if is_root {
                format!("slot {x} is a plan root")
            } else {
                format!("slot {x} has no later reader and is not a root")
            };
            issues.push(op_issue(
                meta,
                PlanLintKind::GxRouting,
                oi,
                format!(
                    "gx_direct is {stored} but the IR derives {expected}: {why}; \
                     direct col2im scatter would {} gradient contributions",
                    if stored {
                        "clobber earlier consumers'"
                    } else {
                        "needlessly stage"
                    }
                ),
            ));
        }
    }
    issues
}
