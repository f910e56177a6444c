//! Static interval + ulp-error certification for kernel substitution.
//!
//! ROADMAP item 1 wants to swap the scalar GEMM inner loops for an
//! `f32x8`/FMA tier. That substitution changes *rounding*, not math:
//! a vectorised kernel reassociates the reduction (8 partial sums) and
//! FMA skips the intermediate product rounding. This module certifies,
//! statically, how far a candidate kernel's logits can drift from the
//! scalar reference on any input inside a declared box.
//!
//! The analysis propagates per-slot triples `(lo, hi, err)` through the
//! plan in `f64`: `[lo, hi]` bounds every *computed* activation value
//! (of both executions) and `err` bounds the absolute divergence
//! between the reference and candidate executions of the same plan on
//! the same input bits.
//!
//! * A reduction of `k` products carries the standard forward bound
//!   `|fl(dot) − dot| ≤ γ(k)·Σ|wᵢ||xᵢ|` with `γ(k) = k·u/(1−k·u)`,
//!   `u = 2⁻²⁴`, for **any** summation order — so reference and
//!   candidate each sit within `γ(k)·L1·tmax` of the exact dot, and
//!   their mutual divergence is at most `2γ(k)·L1·(tmax+err_in)` plus
//!   the `L1·err_in` carried in from diverged inputs. (An FMA halves
//!   the rounding count; bounding it by the same γ stays sound.)
//! * A kernel that neither reassociates nor uses FMA executes the
//!   *identical* instruction sequence, so equal input bits give equal
//!   output bits: `err` stays exactly `0` and the certificate for
//!   [`KernelModel::reference`] is the bitwise-identity guarantee the
//!   runtime tests already enforce.
//! * Pointwise post-ops propagate `err` by their Lipschitz constants
//!   (leaky `max(1,|α|)`, relu/pool/copies `1`, sigmoid `¼`) with a
//!   few-ulp slack for their own rounding once `err > 0`.
//! * Batch-norm **train** ops mix batch statistics into the values, so
//!   no input-box bound exists statically; certification returns `Err`
//!   rather than guessing.
//!
//! The final [`LogitBound`] per plan root reports `max_abs_err` and the
//! same normalised as ulps at the logit scale (`err / ulp32(max|logit|)`),
//! which is the number the CI gate compares against observed runtime
//! divergence.

use rd_tensor::{Param, ParamRef, ParamRole, ParamSet, PlanMeta, PlanOpMeta};

/// Unit roundoff of `f32` round-to-nearest: `2⁻²⁴`.
const U: f64 = 5.960_464_477_539_063e-8;

/// Rounding model of a candidate GEMM inner-loop implementation.
#[derive(Debug, Clone, Copy)]
pub struct KernelModel {
    /// Human-readable tag reported in certificates.
    pub name: &'static str,
    /// Whether the kernel may sum the reduction in a different order
    /// than the scalar reference (e.g. 8 SIMD partial sums).
    pub reassociates: bool,
    /// Whether the kernel may contract `a*b + c` into a fused
    /// multiply-add (skipping the product rounding).
    pub fma: bool,
}

impl KernelModel {
    /// The scalar reference kernel itself: identical instruction
    /// sequence, certified divergence exactly zero.
    pub fn reference() -> Self {
        KernelModel {
            name: "scalar-reference",
            reassociates: false,
            fma: false,
        }
    }

    /// The ROADMAP item-1 candidate: 8-lane SIMD partial sums with FMA.
    pub fn f32x8_fma() -> Self {
        KernelModel {
            name: "f32x8-fma",
            reassociates: true,
            fma: true,
        }
    }

    fn divergent(&self) -> bool {
        self.reassociates || self.fma
    }
}

/// Certified bound for one plan root under a [`KernelModel`].
#[derive(Debug, Clone, Copy)]
pub struct LogitBound {
    /// Root position in the plan's output list.
    pub root: usize,
    /// Slot the root reads.
    pub slot: usize,
    /// Lower bound on every computed value of the root.
    pub lo: f64,
    /// Upper bound on every computed value of the root.
    pub hi: f64,
    /// Max absolute reference-vs-candidate divergence of any root
    /// element, over all inputs in the declared box.
    pub max_abs_err: f64,
    /// `max_abs_err` in units of one `f32` ulp at the logit scale
    /// `max(|lo|, |hi|)`.
    pub ulps_at_scale: f64,
}

#[derive(Clone, Copy)]
struct SlotState {
    lo: f64,
    hi: f64,
    err: f64,
}

/// `γ(k) = k·u / (1 − k·u)`: relative bound for a `k`-term reduction.
fn gamma_k(k: usize) -> Result<f64, String> {
    let ku = k as f64 * U;
    if ku >= 1.0 {
        return Err(format!("reduction of {k} terms overflows the γ(k) model"));
    }
    Ok(ku / (1.0 - ku))
}

/// Size of one `f32` ulp at magnitude `m` (subnormal floor `2⁻¹⁴⁹`).
pub fn ulp32(m: f64) -> f64 {
    let m = m.abs();
    if !m.is_finite() {
        return f64::INFINITY;
    }
    let e = if m > 0.0 {
        m.log2().floor().clamp(-126.0, 127.0) as i32
    } else {
        -126
    };
    (2f64).powi(e - 23).max((2f64).powi(-149))
}

fn finite_param<'p>(p: &'p Param, what: &str) -> Result<&'p [f32], String> {
    let data = p.value().data();
    if data.iter().any(|v| !v.is_finite()) {
        return Err(format!(
            "{what} parameter `{}` holds non-finite values",
            p.name()
        ));
    }
    Ok(data)
}

fn role_param<'p>(
    op: &PlanOpMeta,
    params: &[&'p Param],
    role: ParamRole,
) -> Result<&'p Param, String> {
    let r: &ParamRef = op
        .params
        .iter()
        .find(|p| p.role == role)
        .ok_or_else(|| format!("{}: missing {} parameter reference", op.path, role.label()))?;
    params
        .get(r.index)
        .copied()
        .ok_or_else(|| format!("{}: parameter index {} out of range", op.path, r.index))
}

/// One dense row bank: conv rows of `ckk` taps or linear rows of
/// `in_dim` taps, followed by the op's fused per-channel post-chain.
#[allow(clippy::too_many_arguments)]
fn dot_bank(
    op: &PlanOpMeta,
    params: &[&Param],
    x: SlotState,
    rows: usize,
    k: usize,
    pad: bool,
    model: &KernelModel,
) -> Result<SlotState, String> {
    let w = finite_param(role_param(op, params, weight_role(op))?, "weight")?;
    if w.len() != rows * k {
        return Err(format!(
            "{}: weight holds {} values, geometry needs {rows}x{k}",
            op.path,
            w.len()
        ));
    }
    let g = gamma_k(k)?;
    // Zero padding injects literal zeros into the taps.
    let (tlo, thi) = if pad {
        (x.lo.min(0.0), x.hi.max(0.0))
    } else {
        (x.lo, x.hi)
    };
    let tmax = tlo.abs().max(thi.abs());

    let bias = bias_role(op)
        .map(|role| finite_param(role_param(op, params, role)?, "bias"))
        .transpose()?;
    let bn = bn_scale_shift(op, params, rows)?;

    let mut out = SlotState {
        lo: f64::INFINITY,
        hi: f64::NEG_INFINITY,
        err: 0.0,
    };
    for r in 0..rows {
        let row = &w[r * k..(r + 1) * k];
        let mut l1 = 0.0f64;
        let mut dot_lo = 0.0f64;
        let mut dot_hi = 0.0f64;
        for &wj in row {
            let wj = wj as f64;
            l1 += wj.abs();
            let (a, b) = (wj * tlo, wj * thi);
            dot_lo += a.min(b);
            dot_hi += a.max(b);
        }
        // Both executions land within γ·L1·|tap|max of the exact dot;
        // diverged inputs shift taps by up to err more.
        let round = g * l1 * (tmax + x.err);
        let mut lo = dot_lo - x.err * l1 - round;
        let mut hi = dot_hi + x.err * l1 + round;
        let mut err = if model.divergent() || x.err > 0.0 {
            l1 * x.err * (1.0 + g) + if model.divergent() { 2.0 * round } else { 0.0 }
        } else {
            0.0
        };

        // Linear layers carry their bias implicitly (fused list is just
        // ["linear"]); convs list every fused stage explicitly.
        let implicit_bias = op.linear.is_some() && bias.is_some();
        let stages = op
            .fused
            .iter()
            .skip(1)
            .map(String::as_str)
            .chain(implicit_bias.then_some("add_bias_channel"));
        for stage in stages {
            let mag = lo.abs().max(hi.abs());
            match stage {
                "add_bias_channel" => {
                    let b = bias
                        .ok_or_else(|| format!("{}: fused bias without a bias param", op.path))?;
                    let br = *b
                        .get(r)
                        .ok_or_else(|| format!("{}: bias shorter than {rows} channels", op.path))?
                        as f64;
                    lo += br;
                    hi += br;
                    if err > 0.0 {
                        err = err * (1.0 + 2.0 * U) + 2.0 * U * (mag + br.abs());
                    }
                }
                "batch_norm2d_eval" => {
                    let (s, t) = bn
                        .as_ref()
                        .ok_or_else(|| format!("{}: fused bn without bn params", op.path))?[r];
                    let (a, b) = (s * lo + t, s * hi + t);
                    (lo, hi) = (a.min(b), a.max(b));
                    // The executor folds the scale/shift in f32; widen
                    // the interval and err by a few ulps for that.
                    let slack = 8.0 * U * lo.abs().max(hi.abs()) + 1e-40;
                    lo -= slack;
                    hi += slack;
                    if err > 0.0 {
                        err = s.abs() * err * (1.0 + 8.0 * U) + slack;
                    }
                }
                "batch_norm2d_train" => {
                    return Err(format!(
                        "{}: batch_norm2d_train mixes batch statistics; no static input-box bound exists",
                        op.path
                    ));
                }
                "leaky_relu" => {
                    let a = op
                        .alpha
                        .ok_or_else(|| format!("{}: fused leaky without alpha", op.path))?
                        as f64;
                    let (fl, fh) = (leaky(lo, a), leaky(hi, a));
                    lo = fl.min(fh).min(if a < 0.0 { 0.0 } else { fl });
                    hi = fl.max(fh).max(if a < 0.0 { 0.0 } else { fh });
                    if err > 0.0 {
                        err = err * a.abs().max(1.0) * (1.0 + 2.0 * U);
                    }
                }
                "relu" => {
                    lo = lo.max(0.0);
                    hi = hi.max(0.0);
                    // exact, 1-Lipschitz: err unchanged
                }
                other => {
                    return Err(format!("{}: unknown fused stage `{other}`", op.path));
                }
            }
        }
        out.lo = out.lo.min(lo);
        out.hi = out.hi.max(hi);
        out.err = out.err.max(err);
    }
    if !out.lo.is_finite() || !out.hi.is_finite() || !out.err.is_finite() {
        return Err(format!("{}: bound diverged to non-finite values", op.path));
    }
    Ok(out)
}

fn weight_role(op: &PlanOpMeta) -> ParamRole {
    if op.linear.is_some() {
        ParamRole::LinearWeight
    } else {
        ParamRole::ConvWeight
    }
}

fn bias_role(op: &PlanOpMeta) -> Option<ParamRole> {
    if op.linear.is_some() {
        op.params
            .iter()
            .any(|p| p.role == ParamRole::LinearBias)
            .then_some(ParamRole::LinearBias)
    } else {
        op.params
            .iter()
            .any(|p| p.role == ParamRole::ConvBias)
            .then_some(ParamRole::ConvBias)
    }
}

/// Per-channel `(scale, shift)` of a fused eval-mode batch norm, in
/// `f64`: `s = γ/√(rvar+ε)`, `t = β − s·rmean`.
fn bn_scale_shift(
    op: &PlanOpMeta,
    params: &[&Param],
    rows: usize,
) -> Result<Option<Vec<(f64, f64)>>, String> {
    if !op.params.iter().any(|p| p.role == ParamRole::BnGamma) {
        return Ok(None);
    }
    let eps = op
        .bn_eps
        .ok_or_else(|| format!("{}: bn params without an epsilon", op.path))? as f64;
    let ga = finite_param(role_param(op, params, ParamRole::BnGamma)?, "bn gamma")?;
    let be = finite_param(role_param(op, params, ParamRole::BnBeta)?, "bn beta")?;
    let rm = finite_param(role_param(op, params, ParamRole::BnRunningMean)?, "bn mean")?;
    let rv = finite_param(role_param(op, params, ParamRole::BnRunningVar)?, "bn var")?;
    for v in [ga, be, rm, rv] {
        if v.len() < rows {
            return Err(format!(
                "{}: bn params shorter than {rows} channels",
                op.path
            ));
        }
    }
    (0..rows)
        .map(|r| {
            let var = rv[r] as f64 + eps;
            if var <= 0.0 {
                return Err(format!(
                    "{}: running-var + eps = {var} <= 0 in channel {r}",
                    op.path
                ));
            }
            let s = ga[r] as f64 / var.sqrt();
            Ok((s, be[r] as f64 - s * rm[r] as f64))
        })
        .collect::<Result<Vec<_>, _>>()
        .map(Some)
}

fn leaky(x: f64, a: f64) -> f64 {
    if x >= 0.0 {
        x
    } else {
        a * x
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Certify per-root logit bounds for `meta` executed against `ps` on
/// any input inside `[input_lo, input_hi]`, comparing the scalar
/// reference against `model`.
///
/// Returns `Err` when no sound static bound exists (train-mode batch
/// norm, non-finite parameters, unsupported ops) — callers must treat
/// that as "substitution not certified", never as zero.
pub fn certify_logit_bounds(
    meta: &PlanMeta,
    ps: &ParamSet,
    input_lo: f64,
    input_hi: f64,
    model: &KernelModel,
) -> Result<Vec<LogitBound>, String> {
    // NaN endpoints must fail too, so check for a proven-valid box
    // rather than negating the comparison.
    if input_lo > input_hi || input_lo.is_nan() || input_hi.is_nan() {
        return Err(format!("empty input box [{input_lo}, {input_hi}]"));
    }
    let params: Vec<&Param> = ps.iter().map(|(_, p)| p).collect();
    let mut states: Vec<Option<SlotState>> = vec![None; meta.slots.len()];
    if meta.input_slot >= meta.slots.len() {
        return Err("input slot out of range".into());
    }
    states[meta.input_slot] = Some(SlotState {
        lo: input_lo,
        hi: input_hi,
        err: 0.0,
    });

    for op in &meta.ops {
        let read = |i: usize| -> Result<SlotState, String> {
            op.reads
                .get(i)
                .and_then(|&s| states.get(s).copied().flatten())
                .ok_or_else(|| format!("{}: reads an unbounded slot (plan malformed?)", op.path))
        };
        let out = if let Some(c) = &op.conv {
            let k = c.cin * c.kh * c.kw;
            dot_bank(op, &params, read(0)?, c.cout, k, c.pad > 0, model)?
        } else if let Some((i, o)) = op.linear {
            dot_bank(op, &params, read(0)?, o, i, false, model)?
        } else {
            let x = read(0)?;
            match op.name.as_str() {
                // Selection/copy ops: 1-Lipschitz, exact in f32.
                "max_pool2d" | "upsample_nearest2x" => x,
                "relu" => SlotState {
                    lo: x.lo.max(0.0),
                    hi: x.hi.max(0.0),
                    err: x.err,
                },
                "leaky_relu" => {
                    let a = op
                        .alpha
                        .ok_or_else(|| format!("{}: leaky without alpha", op.path))?
                        as f64;
                    let (fl, fh) = (leaky(x.lo, a), leaky(x.hi, a));
                    SlotState {
                        lo: fl.min(fh).min(if a < 0.0 { 0.0 } else { fl }),
                        hi: fl.max(fh).max(if a < 0.0 { 0.0 } else { fh }),
                        err: if x.err > 0.0 {
                            x.err * a.abs().max(1.0) * (1.0 + 2.0 * U)
                        } else {
                            0.0
                        },
                    }
                }
                "sigmoid" => SlotState {
                    lo: sigmoid(x.lo) - 4.0 * U,
                    hi: sigmoid(x.hi) + 4.0 * U,
                    err: if x.err > 0.0 {
                        x.err * 0.25 + 4.0 * U
                    } else {
                        0.0
                    },
                },
                "concat_channels" => {
                    let b = read(1)?;
                    SlotState {
                        lo: x.lo.min(b.lo),
                        hi: x.hi.max(b.hi),
                        err: x.err.max(b.err),
                    }
                }
                other => return Err(format!("{}: op `{other}` has no bound model", op.path)),
            }
        };
        for &w in &op.writes {
            states[w] = Some(out);
        }
    }

    meta.outputs
        .iter()
        .enumerate()
        .map(|(root, &slot)| {
            let s = states
                .get(slot)
                .copied()
                .flatten()
                .ok_or_else(|| format!("root {root} slot {slot} was never bounded"))?;
            if !s.lo.is_finite() || !s.hi.is_finite() || !s.err.is_finite() {
                return Err(format!("root {root}: non-finite certified bound"));
            }
            let scale = s.lo.abs().max(s.hi.abs());
            Ok(LogitBound {
                root,
                slot,
                lo: s.lo,
                hi: s.hi,
                max_abs_err: s.err,
                ulps_at_scale: s.err / ulp32(scale),
            })
        })
        .collect()
}
