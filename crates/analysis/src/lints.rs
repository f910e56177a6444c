//! Structural lints over the metadata tape.
//!
//! These catch graphs that execute fine but silently train wrong:
//! parameters the loss never sees, nodes computed and thrown away, and
//! parameters whose gradient is structurally zero because every path to
//! the loss crosses a node without a backward closure.
//!
//! Every node records the complete list of tape positions it reads, so
//! reachability follows parent lists alone.

use crate::shape::expected_arity;
use rd_tensor::{Graph, ParamSet, VarId};

/// Category of a [`LintIssue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintKind {
    /// A parameter leaf with no forward path to the root node.
    UnusedParam,
    /// A non-leaf node never consumed by any later node or the root.
    DeadNode,
    /// A parameter that reaches the root, but only through nodes with no
    /// backward closure — its gradient is always zero.
    AlwaysZeroGrad,
    /// A node whose recorded parent list is malformed (forward
    /// reference, self-reference, or arity outside the op's rule).
    FanInAnomaly,
}

impl LintKind {
    fn label(self) -> &'static str {
        match self {
            LintKind::UnusedParam => "unused-param",
            LintKind::DeadNode => "dead-node",
            LintKind::AlwaysZeroGrad => "always-zero-grad",
            LintKind::FanInAnomaly => "fan-in-anomaly",
        }
    }
}

/// One lint finding, anchored to a tape node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintIssue {
    /// Category of the finding.
    pub kind: LintKind,
    /// Tape position of the offending node.
    pub node: usize,
    /// `scope/op` label of the node.
    pub path: String,
    /// Explanation of the finding.
    pub message: String,
}

impl std::fmt::Display for LintIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.kind.label(), self.path, self.message)
    }
}

fn node_path(g: &Graph, i: usize) -> String {
    let meta = g.meta(VarId::from_index(i));
    if meta.scope.is_empty() {
        format!("{}#{i}", meta.op)
    } else {
        format!("{}/{}#{i}", meta.scope, meta.op)
    }
}

/// Marks everything reachable backwards from `root` by following parent
/// lists. When `grad_only` is set, edges out of a node are only followed
/// if that node has a backward closure (or is the root itself), which
/// yields the set of nodes that can receive a nonzero gradient.
fn reach_backwards(g: &Graph, root: usize, grad_only: bool) -> Vec<bool> {
    let mut seen = vec![false; g.len()];
    let mut stack = vec![root];
    seen[root] = true;
    while let Some(i) = stack.pop() {
        let id = VarId::from_index(i);
        if grad_only && i != root && !g.has_back(id) {
            continue;
        }
        for p in g.meta(id).parents.iter() {
            let j = p.index();
            if j < i && !seen[j] {
                seen[j] = true;
                stack.push(j);
            }
        }
    }
    seen
}

/// Lints the tape with its last node as the root (the conventional loss
/// position). See [`lint_with_params`] to resolve parameter names.
pub fn lint(g: &Graph) -> Vec<LintIssue> {
    lint_impl(g, None)
}

/// Lints the tape and resolves parameter names through `ps` for links
/// that belong to it (links to other parameter sets keep positional
/// labels).
pub fn lint_with_params(g: &Graph, ps: &ParamSet) -> Vec<LintIssue> {
    lint_impl(g, Some(ps))
}

fn lint_impl(g: &Graph, ps: Option<&ParamSet>) -> Vec<LintIssue> {
    let mut issues = Vec::new();
    if g.is_empty() {
        return issues;
    }
    let root = g.len() - 1;

    // Fan-in anomalies first: they are metadata bugs that make the
    // reachability answers below unreliable for the offending node.
    for i in 0..g.len() {
        let meta = g.meta(VarId::from_index(i));
        for p in meta.parents.iter() {
            if p.index() >= i {
                issues.push(LintIssue {
                    kind: LintKind::FanInAnomaly,
                    node: i,
                    path: node_path(g, i),
                    message: format!(
                        "parent #{} does not precede the node on the tape",
                        p.index()
                    ),
                });
            }
        }
        if let Some((lo, hi)) = expected_arity(meta.op) {
            let n = meta.parents.len();
            if n < lo || n > hi {
                issues.push(LintIssue {
                    kind: LintKind::FanInAnomaly,
                    node: i,
                    path: node_path(g, i),
                    message: if lo == hi {
                        format!("{} expects {lo} parent(s), metadata records {n}", meta.op)
                    } else {
                        format!(
                            "{} expects at least {lo} parent(s), metadata records {n}",
                            meta.op
                        )
                    },
                });
            }
        }
    }

    let fwd = reach_backwards(g, root, false);
    let grad = reach_backwards(g, root, true);

    // Unused / zero-grad parameters.
    for (link_idx, &(var, pid, uid)) in g.param_links().iter().enumerate() {
        let name = match ps {
            Some(ps) if ps.uid() == uid => format!("`{}`", ps.get(pid).name()),
            _ => format!("link #{link_idx}"),
        };
        let i = var.index();
        if !fwd[i] {
            issues.push(LintIssue {
                kind: LintKind::UnusedParam,
                node: i,
                path: node_path(g, i),
                message: format!("parameter {name} is never used by the loss at node #{root}"),
            });
        } else if !grad[i] {
            issues.push(LintIssue {
                kind: LintKind::AlwaysZeroGrad,
                node: i,
                path: node_path(g, i),
                message: format!(
                    "every path from parameter {name} to the loss crosses a node without a backward closure; its gradient is structurally zero"
                ),
            });
        }
    }

    // Dead nodes: computed, never consumed.
    let mut consumed = vec![false; g.len()];
    for i in 0..g.len() {
        for p in g.meta(VarId::from_index(i)).parents.iter() {
            if p.index() < i {
                consumed[p.index()] = true;
            }
        }
    }
    for (i, &used) in consumed.iter().enumerate() {
        let meta = g.meta(VarId::from_index(i));
        if i != root && !used && !matches!(meta.op, "input" | "param") {
            issues.push(LintIssue {
                kind: LintKind::DeadNode,
                node: i,
                path: node_path(g, i),
                message: format!("{} output is never consumed", meta.op),
            });
        }
    }

    issues
}
