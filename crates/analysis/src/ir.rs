//! Dataflow IR over compiled plans, plus the plan-level lints.
//!
//! [`rd_tensor::PlanMeta`] (lifted from `InferPlan::meta()` /
//! `TrainPlan::meta()`) is a flat op list; [`PlanIr`] adds the derived
//! def/use chains every analysis walks: which op writes each slot,
//! which ops read it. On top of the IR this module implements the
//! plan-level lints that don't need a dataflow walk of their own:
//!
//! * **fusion legality** — every fused kernel's tape-op chain must be
//!   in canonical lowering order (`conv2d` → at most one of
//!   `add_bias_channel` / `batch_norm2d_*` → at most one `leaky_relu`),
//!   batch norm must never be algebraically folded into the conv
//!   weights (its four parameters must still be dereferenced at
//!   execution time), and a train-plan fused leaky needs `alpha > 0`
//!   (the backward reconstructs the input sign from the fused output).
//! * **parameter coverage** — every [`rd_tensor::ParamRef`] must
//!   resolve inside the [`ParamSet`] with the shape its role implies,
//!   so every plan parameter is restorable from a checkpoint section.
//!   The complementary orphan check ([`orphan_params`]) takes *all*
//!   plans compiled against a set and reports parameters none of them
//!   reference.
//! * **column-cache budget feasibility** — a nonzero train-plan budget
//!   that cannot cache even the smallest conv at batch 1 is a silent
//!   misconfiguration (the cache would never hit).
//!
//! The buffer-lifetime, alias and fan-out checks live in
//! [`crate::liveness`], [`crate::alias`] and [`crate::race`];
//! [`audit_plan`] runs everything and returns the combined findings.

use rd_tensor::{ParamRole, ParamSet, PlanKind, PlanMeta};

/// Category of a [`PlanIssue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanLintKind {
    /// Structurally invalid IR: slot index out of range, impossible
    /// geometry, an infer op carrying train-only state.
    Malformed,
    /// A slot is read before any op writes it (or a root is never
    /// written) — the executor would publish uninitialized data.
    UseBeforeDef,
    /// A slot is written but never read and is not a plan root.
    DeadBuffer,
    /// Buffer aliasing: two ops write one slot, an op writes its own
    /// input slot, or an op overwrites the plan input.
    Alias,
    /// The stored direct-vs-temp input-gradient routing of a train conv
    /// contradicts what the consumer structure implies.
    GxRouting,
    /// The worker-group fan-out would not tile a buffer into disjoint,
    /// covering chunks (conv geometry vs slot length, or a broken
    /// `groups_for` partition).
    Race,
    /// A fused kernel's tape-op chain violates the lowering rules.
    Fusion,
    /// A parameter reference does not resolve in the [`ParamSet`] with
    /// the shape its role implies.
    ParamCoverage,
    /// A parameter in the set is referenced by no plan at all.
    OrphanParam,
    /// The im2col column-cache budget cannot cache any conv.
    ColBudget,
}

impl PlanLintKind {
    /// Short kebab-case label used in rendered issues.
    pub fn label(self) -> &'static str {
        match self {
            PlanLintKind::Malformed => "malformed-ir",
            PlanLintKind::UseBeforeDef => "use-before-def",
            PlanLintKind::DeadBuffer => "dead-buffer",
            PlanLintKind::Alias => "alias",
            PlanLintKind::GxRouting => "gx-routing",
            PlanLintKind::Race => "race",
            PlanLintKind::Fusion => "fusion-order",
            PlanLintKind::ParamCoverage => "param-coverage",
            PlanLintKind::OrphanParam => "orphan-param",
            PlanLintKind::ColBudget => "col-budget",
        }
    }
}

/// One plan-analyzer finding, anchored to an op when one is at fault.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanIssue {
    /// Category of the finding.
    pub kind: PlanLintKind,
    /// Index of the offending op in the plan's op list, when the
    /// finding is op-local.
    pub op: Option<usize>,
    /// Profile path of the offending op (`infer/<scope>/<fused>`), or a
    /// plan-level anchor like `plan` / `parallel::groups_for`.
    pub path: String,
    /// Explanation of the finding.
    pub message: String,
}

impl std::fmt::Display for PlanIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.kind.label(), self.path, self.message)
    }
}

/// Builds an issue anchored at op `oi` of `meta`.
pub(crate) fn op_issue(
    meta: &PlanMeta,
    kind: PlanLintKind,
    oi: usize,
    message: String,
) -> PlanIssue {
    PlanIssue {
        kind,
        op: Some(oi),
        path: op_path(meta, oi),
        message,
    }
}

/// `path#index` anchor of op `oi` (the profile path disambiguated with
/// the op position, since fused names repeat across a network).
pub(crate) fn op_path(meta: &PlanMeta, oi: usize) -> String {
    format!("{}#{oi}", meta.ops[oi].path)
}

/// Dataflow IR over a [`PlanMeta`]: per-slot def/use chains.
#[derive(Debug)]
pub struct PlanIr<'m> {
    /// The lifted plan.
    pub meta: &'m PlanMeta,
    /// `defs[s]` = ops writing slot `s`, in op order.
    pub defs: Vec<Vec<usize>>,
    /// `uses[s]` = ops reading slot `s`, in op order.
    pub uses: Vec<Vec<usize>>,
}

impl<'m> PlanIr<'m> {
    /// Lifts a plan into the IR, checking every slot index first.
    ///
    /// # Errors
    ///
    /// Returns `Malformed` issues when an op or the plan header refers
    /// to a slot outside the slot table — nothing downstream is
    /// meaningful then.
    pub fn lift(meta: &'m PlanMeta) -> Result<PlanIr<'m>, Vec<PlanIssue>> {
        let nslots = meta.slots.len();
        let mut issues = Vec::new();
        if meta.input_slot >= nslots {
            issues.push(PlanIssue {
                kind: PlanLintKind::Malformed,
                op: None,
                path: "plan".into(),
                message: format!(
                    "input slot {} out of range ({nslots} slots)",
                    meta.input_slot
                ),
            });
        }
        for (ri, &s) in meta.outputs.iter().enumerate() {
            if s >= nslots {
                issues.push(PlanIssue {
                    kind: PlanLintKind::Malformed,
                    op: None,
                    path: "plan".into(),
                    message: format!("root {ri} slot {s} out of range ({nslots} slots)"),
                });
            }
        }
        let mut defs = vec![Vec::new(); nslots];
        let mut uses = vec![Vec::new(); nslots];
        for (oi, op) in meta.ops.iter().enumerate() {
            for (what, slots, table) in [
                ("reads", &op.reads, &mut uses),
                ("writes", &op.writes, &mut defs),
            ] {
                for &s in slots.iter() {
                    if s >= nslots {
                        issues.push(op_issue(
                            meta,
                            PlanLintKind::Malformed,
                            oi,
                            format!("{what} slot {s} out of range ({nslots} slots)"),
                        ));
                    } else {
                        table[s].push(oi);
                    }
                }
            }
        }
        if issues.is_empty() {
            Ok(PlanIr { meta, defs, uses })
        } else {
            Err(issues)
        }
    }
}

/// Fusion-legality lint. See the module docs for the rules.
pub fn check_fusion(meta: &PlanMeta) -> Vec<PlanIssue> {
    let mut issues = Vec::new();
    for (oi, op) in meta.ops.iter().enumerate() {
        let fused: Vec<&str> = op.fused.iter().map(String::as_str).collect();
        let issue = |msg: String| op_issue(meta, PlanLintKind::Fusion, oi, msg);
        if op.conv.is_none() {
            // non-conv kernels never fuse: their chain is themselves
            if fused != [op.name.as_str()] {
                issues.push(issue(format!(
                    "non-conv op must fuse exactly itself, got {:?}",
                    op.fused
                )));
            }
            continue;
        }
        if fused.first() != Some(&"conv2d") {
            issues.push(issue(format!(
                "fused chain must start with conv2d (tape order), got {:?}",
                op.fused
            )));
            continue;
        }
        let mut rest = &fused[1..];
        let mut has_bn = false;
        if let Some(&mid) = rest.first() {
            match mid {
                "add_bias_channel" => rest = &rest[1..],
                "batch_norm2d_eval" => {
                    has_bn = true;
                    rest = &rest[1..];
                }
                "batch_norm2d_train" => {
                    has_bn = true;
                    if meta.kind == PlanKind::Infer {
                        issues.push(issue(
                            "train-mode batch norm fused into a grad-free infer plan".into(),
                        ));
                    }
                    rest = &rest[1..];
                }
                _ => {}
            }
        }
        match rest {
            [] => {}
            ["leaky_relu"] => {
                let Some(alpha) = op.alpha else {
                    issues.push(issue("fused leaky_relu but op carries no alpha".into()));
                    continue;
                };
                if meta.kind == PlanKind::Train && alpha <= 0.0 {
                    issues.push(issue(format!(
                        "train plan fused leaky_relu needs alpha > 0 to reconstruct \
                         the input sign from the fused output, got alpha = {alpha}"
                    )));
                }
            }
            _ => issues.push(issue(format!(
                "fused chain {:?} does not match the lowering order \
                 conv2d [bias|bn] [activation]",
                op.fused
            ))),
        }
        if has_bn {
            // BN must never be folded into the conv weights: all four
            // bn parameters must still be read at execution time.
            for role in [
                ParamRole::BnGamma,
                ParamRole::BnBeta,
                ParamRole::BnRunningMean,
                ParamRole::BnRunningVar,
            ] {
                if !op.params.iter().any(|p| p.role == role) {
                    issues.push(issue(format!(
                        "fused batch norm no longer dereferences its {} parameter — \
                         bn must be applied at execution time, never folded into weights",
                        role.label()
                    )));
                }
            }
        } else if op
            .params
            .iter()
            .any(|p| matches!(p.role, ParamRole::BnGamma | ParamRole::BnBeta))
        {
            issues.push(issue(
                "op dereferences bn parameters but fuses no batch norm".into(),
            ));
        }
    }
    issues
}

/// Parameter-coverage lint: every [`rd_tensor::ParamRef`] must resolve
/// inside `ps` with the shape its role implies, so every plan parameter
/// can be restored from a checkpoint section.
pub fn check_params(meta: &PlanMeta, ps: &ParamSet) -> Vec<PlanIssue> {
    let params: Vec<_> = ps.iter().map(|(_, p)| p).collect();
    let mut issues = Vec::new();
    for (oi, op) in meta.ops.iter().enumerate() {
        let issue = |msg: String| op_issue(meta, PlanLintKind::ParamCoverage, oi, msg);
        // Presence: the op geometry dictates which parameters *must* be
        // dereferenced at execution time. A conv without a weight
        // reference would execute against garbage (and could never be
        // restored from a checkpoint section).
        if op.conv.is_some() && !op.params.iter().any(|p| p.role == ParamRole::ConvWeight) {
            issues.push(issue(format!(
                "op geometry requires a {} parameter but the op dereferences none",
                ParamRole::ConvWeight.label()
            )));
        }
        for r in &op.params {
            let Some(p) = params.get(r.index) else {
                issues.push(issue(format!(
                    "{} param #{} out of range: ParamSet has {} params \
                     (not restorable from any checkpoint section)",
                    r.role.label(),
                    r.index,
                    params.len()
                )));
                continue;
            };
            let shape = p.value().shape();
            let want: Option<Vec<usize>> = match (r.role, &op.conv) {
                (ParamRole::ConvWeight, Some(c)) => Some(vec![c.cout, c.cin, c.kh, c.kw]),
                (_, Some(c)) => Some(vec![c.cout]),
                (_, None) => None,
            };
            match want {
                Some(w) if shape != &w[..] => issues.push(issue(format!(
                    "{} param '{}' has shape {:?}, op geometry implies {:?}",
                    r.role.label(),
                    p.name(),
                    shape,
                    w
                ))),
                Some(_) => {}
                None => issues.push(issue(format!(
                    "{} param '{}' referenced by an op without matching geometry",
                    r.role.label(),
                    p.name()
                ))),
            }
        }
    }
    issues
}

/// Orphan check across every plan compiled against one [`ParamSet`]:
/// parameters referenced by none of `metas` cannot receive gradients or
/// influence any compiled path — usually a wiring bug.
pub fn orphan_params(metas: &[&PlanMeta], ps: &ParamSet) -> Vec<PlanIssue> {
    let mut referenced = vec![false; ps.len()];
    for meta in metas {
        for op in &meta.ops {
            for r in &op.params {
                if let Some(f) = referenced.get_mut(r.index) {
                    *f = true;
                }
            }
        }
    }
    ps.iter()
        .zip(&referenced)
        .filter(|(_, &seen)| !seen)
        .map(|((_, p), _)| PlanIssue {
            kind: PlanLintKind::OrphanParam,
            op: None,
            path: "plan".into(),
            message: format!(
                "param '{}' is referenced by none of the {} audited plan(s)",
                p.name(),
                metas.len()
            ),
        })
        .collect()
}

/// Column-cache budget feasibility: a nonzero budget smaller than the
/// smallest conv's per-sample column matrix can never cache anything.
pub fn check_col_budget(meta: &PlanMeta) -> Vec<PlanIssue> {
    let Some(budget) = meta.col_budget else {
        return Vec::new();
    };
    if budget == 0 {
        return Vec::new(); // explicit opt-out: backward recomputes im2col
    }
    let budget_elems = budget / std::mem::size_of::<f32>();
    let mut issues = Vec::new();
    let mut min_cols: Option<(usize, usize)> = None;
    for (oi, op) in meta.ops.iter().enumerate() {
        if let Some(c) = &op.conv {
            let cols = c.cols_len();
            if min_cols.is_none_or(|(_, best)| cols < best) {
                min_cols = Some((oi, cols));
            }
        }
    }
    if let Some((oi, cols)) = min_cols {
        if budget_elems < cols {
            issues.push(op_issue(
                meta,
                PlanLintKind::ColBudget,
                oi,
                format!(
                    "col-cache budget of {budget} bytes ({budget_elems} f32) cannot cache \
                     even the smallest conv ({cols} f32 per sample at batch 1) — \
                     the cache would never hit; set the budget to 0 to opt out explicitly"
                ),
            ));
        }
    }
    issues
}

/// Runs every structural analysis over one plan: IR lift, buffer
/// liveness, alias/routing, fan-out race model, fusion legality,
/// parameter coverage and column-budget feasibility. Orphan detection
/// needs all plans of a [`ParamSet`] at once — see [`orphan_params`].
pub fn audit_plan(meta: &PlanMeta, ps: &ParamSet) -> Vec<PlanIssue> {
    let ir = match PlanIr::lift(meta) {
        Ok(ir) => ir,
        Err(issues) => return issues,
    };
    let mut issues = Vec::new();
    issues.extend(crate::liveness::check(&ir));
    issues.extend(crate::alias::check(&ir));
    issues.extend(crate::race::check(&ir));
    issues.extend(check_fusion(meta));
    issues.extend(check_params(meta, ps));
    issues.extend(check_col_budget(meta));
    issues
}

/// Compile-time audit hook for plan caches: in debug builds, runs
/// [`audit_plan`] and panics with every finding if the freshly compiled
/// plan is not clean. A plan that fails its own structural audit is a
/// compiler bug, not a runtime condition, so panicking at the compile
/// site is the right failure mode. Release builds skip it; the
/// `plan_audit` binary audits every plan there.
///
/// # Panics
///
/// Panics listing all findings in a debug build when the audit reports
/// at least one issue.
pub fn audit_plan_or_panic(tag: &str, meta: &PlanMeta, ps: &ParamSet) {
    if !cfg!(debug_assertions) {
        return;
    }
    let issues = audit_plan(meta, ps);
    if !issues.is_empty() {
        let rendered: Vec<String> = issues.iter().map(|i| format!("  {i}")).collect();
        panic!(
            "plan audit failed for {tag} ({} issue(s)):\n{}",
            issues.len(),
            rendered.join("\n")
        );
    }
}
