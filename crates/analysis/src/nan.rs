//! NaN/Inf provenance over an executed tape.
//!
//! When a loss diverges, the interesting question is not *that* a NaN
//! exists but *where it was born*. [`audit_non_finite`] scans the value
//! tape in execution order, stops at the first node holding a non-finite
//! value, and reports the producing op, its parents' value ranges, and
//! the nearest fully-finite ancestor — the last place the numbers were
//! still healthy.

use rd_tensor::{Graph, ParamSet, Tensor, VarId};

/// Summary of one tensor's values for a provenance report.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueRange {
    /// Tape position of the summarized node.
    pub node: usize,
    /// `scope/op` label of the node.
    pub path: String,
    /// Smallest finite value (`None` when no element is finite).
    pub min: Option<f32>,
    /// Largest finite value (`None` when no element is finite).
    pub max: Option<f32>,
    /// Number of non-finite elements.
    pub non_finite: usize,
    /// Total number of elements.
    pub len: usize,
}

impl std::fmt::Display for ValueRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.min, self.max) {
            (Some(lo), Some(hi)) if self.non_finite == 0 => {
                write!(f, "#{} {}: range [{lo:.4}, {hi:.4}]", self.node, self.path)
            }
            (Some(lo), Some(hi)) => write!(
                f,
                "#{} {}: range [{lo:.4}, {hi:.4}], {}/{} non-finite",
                self.node, self.path, self.non_finite, self.len
            ),
            _ => write!(
                f,
                "#{} {}: all {} element(s) non-finite",
                self.node, self.path, self.len
            ),
        }
    }
}

fn summarize(g: &Graph, i: usize) -> ValueRange {
    let t: &Tensor = g.value(VarId::from_index(i));
    let mut min = None;
    let mut max = None;
    let mut non_finite = 0usize;
    for &v in t.data() {
        if v.is_finite() {
            min = Some(min.map_or(v, |m: f32| m.min(v)));
            max = Some(max.map_or(v, |m: f32| m.max(v)));
        } else {
            non_finite += 1;
        }
    }
    ValueRange {
        node: i,
        path: path_of(g, i),
        min,
        max,
        non_finite,
        len: t.len(),
    }
}

fn path_of(g: &Graph, i: usize) -> String {
    let meta = g.meta(VarId::from_index(i));
    if meta.scope.is_empty() {
        meta.op.to_string()
    } else {
        format!("{}/{}", meta.scope, meta.op)
    }
}

/// Where the first non-finite value on the tape came from.
#[derive(Debug, Clone, PartialEq)]
pub struct NanReport {
    /// The first node (in execution order) holding a non-finite value.
    pub culprit: ValueRange,
    /// Value ranges of the culprit's recorded parents.
    pub parents: Vec<ValueRange>,
    /// Nearest ancestor whose value is fully finite, if any.
    pub last_finite_ancestor: Option<ValueRange>,
}

impl std::fmt::Display for NanReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "first non-finite value produced by {}", self.culprit)?;
        if self.parents.is_empty() {
            writeln!(f, "  parents: none recorded (a leaf)")?;
        } else {
            for p in &self.parents {
                writeln!(f, "  parent {p}")?;
            }
        }
        match &self.last_finite_ancestor {
            Some(a) => write!(f, "  last finite ancestor {a}"),
            None => write!(f, "  no fully-finite ancestor"),
        }
    }
}

/// Scans the executed tape for its first non-finite value and explains
/// its provenance. Returns `None` when every node is finite. Intended as
/// an opt-in audit (`--audit` on the train/repro binaries): it touches
/// every element of every tensor on the tape.
pub fn audit_non_finite(g: &Graph) -> Option<NanReport> {
    let culprit_idx = (0..g.len()).find(|&i| g.value(VarId::from_index(i)).has_non_finite())?;
    let culprit = summarize(g, culprit_idx);
    let meta = g.meta(VarId::from_index(culprit_idx));
    let parents: Vec<ValueRange> = meta
        .parents
        .iter()
        .map(|p| summarize(g, p.index()))
        .collect();

    // Breadth-first walk up the ancestry for the nearest finite tensor.
    let mut seen = vec![false; g.len()];
    let mut frontier: Vec<usize> = meta.parents.iter().map(|p| p.index()).collect();
    for &i in &frontier {
        seen[i] = true;
    }
    let mut last_finite_ancestor = None;
    while !frontier.is_empty() {
        if let Some(&i) = frontier
            .iter()
            .find(|&&i| !g.value(VarId::from_index(i)).has_non_finite())
        {
            last_finite_ancestor = Some(summarize(g, i));
            break;
        }
        let mut next = Vec::new();
        for &i in &frontier {
            for p in g.meta(VarId::from_index(i)).parents.iter() {
                if p.index() < i && !seen[p.index()] {
                    seen[p.index()] = true;
                    next.push(p.index());
                }
            }
        }
        frontier = next;
    }

    Some(NanReport {
        culprit,
        parents,
        last_finite_ancestor,
    })
}

/// The report a training step gives when its loss or any accumulated
/// gradient in `ps` is non-finite: the loss, the offending parameters
/// and, when the tape holds a non-finite value, its
/// [`audit_non_finite`] provenance. `None` when everything is healthy.
pub fn non_finite_detail(loss: f32, ps: &ParamSet, g: &Graph) -> Option<String> {
    let bad_params: Vec<String> = ps
        .iter()
        .filter(|(_, p)| p.grad().data().iter().any(|v| !v.is_finite()))
        .map(|(_, p)| format!("{}{:?}", p.name(), p.value().shape()))
        .collect();
    if loss.is_finite() && bad_params.is_empty() {
        return None;
    }
    let mut detail = if loss.is_finite() {
        format!("non-finite gradient(s) in [{}]", bad_params.join(", "))
    } else if bad_params.is_empty() {
        format!("non-finite loss {loss}")
    } else {
        format!(
            "non-finite loss {loss}; non-finite gradient(s) in [{}]",
            bad_params.join(", ")
        )
    };
    if let Some(report) = audit_non_finite(g) {
        detail.push_str(&format!("\ntape audit: {report}"));
    }
    Some(detail)
}
