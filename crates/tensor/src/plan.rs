//! The one lowering behind both compiled plans.
//!
//! [`crate::InferPlan`] and [`crate::TrainPlan`] run the same kind of
//! program: a flat, topologically ordered list of (possibly fused) ops
//! over per-sample activation slots, lowered from a network's forward
//! traced on a [`Graph::shape_only`] tape at batch 1. This module owns that
//! program ([`Plan`]), the single function that builds it ([`lower`])
//! and the single function that lifts it into a [`PlanMeta`]
//! ([`Plan::meta`]). The engines differ only in how they execute it:
//! `InferPlan` runs each sample through grad-free per-group buffers,
//! `TrainPlan` runs the full batch with gradient, column-cache and
//! batch-norm staging buffers.
//!
//! ## Fusion
//!
//! A `conv2d` absorbs the stages that follow it in tape order:
//! `add_bias_channel` or a `batch_norm2d_{eval,train}`, then a
//! `leaky_relu` or `relu`. A stage fuses only when the value it reads —
//! the conv's output so far — has that stage as its sole consumer and
//! is not a plan root, because the fused kernel overwrites that value
//! in place. When it has other readers, an activation becomes a
//! standalone op on a fresh slot, and a bias or batch norm (which have
//! no standalone kernel) is a compile error. A leaky activation also
//! needs `alpha > 0` to fuse: the fused backward recovers the input's
//! sign from the output.
//!
//! Parameters are referenced by [`ParamId`] (carried on the tape
//! nodes as `pid` / `rmean_pid` / `rvar_pid` attrs, with `eps_bits` and
//! `alpha_bits` carrying the f32 constants), so a plan survives weight
//! updates: the executors read values from the [`crate::ParamSet`] each
//! time they run.

use crate::graph::{Graph, VarId};
use crate::params::ParamId;
use crate::plan_meta::{ConvGeom, ParamRef, ParamRole, PlanKind, PlanMeta, PlanOpMeta, SlotMeta};
use crate::simd::Act;

/// Batch-norm stage of a fused conv.
#[derive(Debug, Clone)]
pub(crate) struct Bn {
    pub gamma: ParamId,
    pub beta: ParamId,
    pub rmean: ParamId,
    pub rvar: ParamId,
    pub eps: f32,
    /// Batch statistics (training mode) instead of the running ones.
    pub train: bool,
}

/// One fused convolution: conv + optional bias or batch norm + optional
/// activation.
#[derive(Debug, Clone)]
pub(crate) struct Conv {
    pub x: usize,
    pub out: usize,
    pub w: ParamId,
    pub bias: Option<ParamId>,
    pub bn: Option<Bn>,
    pub act: Act,
    pub geom: ConvGeom,
    /// True when no later op reads `x` and `x` is not a plan root, so a
    /// training backward can `col2im`-scatter straight into the
    /// input-slot gradient instead of a temp + add pass.
    pub gx_direct: bool,
}

impl Conv {
    /// The tape ops this kernel fuses, in execution order.
    fn fused(&self) -> Vec<&'static str> {
        let mut fused = vec!["conv2d"];
        if self.bias.is_some() {
            fused.push("add_bias_channel");
        }
        if let Some(bn) = &self.bn {
            fused.push(if bn.train {
                "batch_norm2d_train"
            } else {
                "batch_norm2d_eval"
            });
        }
        match self.act {
            Act::None => {}
            Act::Leaky(_) => fused.push("leaky_relu"),
            Act::Relu => fused.push("relu"),
        }
        fused
    }

    /// Fused kernel name (`conv_bn_leaky`, `conv_bias`, ...).
    fn name(&self) -> String {
        let mut name = String::from("conv");
        for stage in &self.fused()[1..] {
            name.push_str(match *stage {
                "add_bias_channel" => "_bias",
                "leaky_relu" => "_leaky",
                "relu" => "_relu",
                _ => "_bn",
            });
        }
        name
    }
}

/// Plan op kinds. Slot indices refer to the executor's activation
/// buffers (per sample for inference, full batch for training).
#[derive(Debug, Clone)]
pub(crate) enum OpKind {
    Conv(Conv),
    MaxPool {
        x: usize,
        out: usize,
        k: usize,
        stride: usize,
        c: usize,
        h: usize,
        w: usize,
        ho: usize,
        wo: usize,
    },
    Upsample2x {
        x: usize,
        out: usize,
        c: usize,
        h: usize,
        w: usize,
    },
    Concat {
        a: usize,
        b: usize,
        out: usize,
        ca: usize,
        cb: usize,
        hw: usize,
    },
    Leaky {
        x: usize,
        out: usize,
        alpha: f32,
        len: usize,
    },
    Relu {
        x: usize,
        out: usize,
        len: usize,
    },
    Sigmoid {
        x: usize,
        out: usize,
        len: usize,
    },
    Linear {
        x: usize,
        out: usize,
        w: ParamId,
        b: ParamId,
        in_dim: usize,
        out_dim: usize,
    },
}

impl OpKind {
    /// Slots the op reads in its forward pass (= the slots a training
    /// backward writes gradients into), in parent order.
    fn reads(&self) -> Vec<usize> {
        match self {
            OpKind::Conv(c) => vec![c.x],
            OpKind::Concat { a, b, .. } => vec![*a, *b],
            OpKind::MaxPool { x, .. }
            | OpKind::Upsample2x { x, .. }
            | OpKind::Leaky { x, .. }
            | OpKind::Relu { x, .. }
            | OpKind::Sigmoid { x, .. }
            | OpKind::Linear { x, .. } => vec![*x],
        }
    }

    /// The slot the op writes.
    fn out(&self) -> usize {
        match self {
            OpKind::Conv(c) => c.out,
            OpKind::MaxPool { out, .. }
            | OpKind::Upsample2x { out, .. }
            | OpKind::Concat { out, .. }
            | OpKind::Leaky { out, .. }
            | OpKind::Relu { out, .. }
            | OpKind::Sigmoid { out, .. }
            | OpKind::Linear { out, .. } => *out,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Op {
    pub kind: OpKind,
    /// Profile key: `<infer|train>/<scope>/<fused-op>` for convs,
    /// `<infer|train>/<scope>/<op>` otherwise.
    pub path: String,
}

/// A lowered plan: the op list plus the per-sample slot table.
#[derive(Debug)]
pub(crate) struct Plan {
    pub kind: PlanKind,
    pub ops: Vec<Op>,
    /// Per-sample flat length of each activation slot.
    pub slot_lens: Vec<usize>,
    /// Per-sample shape of each activation slot (batch dim stripped).
    pub slot_shapes: Vec<Vec<usize>>,
    pub input_slot: usize,
    pub outputs: Vec<usize>,
}

/// How a tape node maps into the plan while lowering.
#[derive(Debug, Clone, Copy)]
enum NodeRef {
    /// A `param` node; carries the id resolved from its `pid` attr.
    Param(ParamId),
    /// A value-producing node; carries its activation slot.
    Slot(usize),
}

/// The conv that is the last op so far, when it writes `slot`: the only
/// op a following bias, batch norm or activation may fuse into.
fn last_conv(ops: &mut [Op], slot: usize) -> Option<&mut Conv> {
    match ops.last_mut().map(|o| &mut o.kind) {
        Some(OpKind::Conv(c)) if c.out == slot => Some(c),
        _ => None,
    }
}

/// Lowers a shape-only trace (built at batch 1) into a plan of `kind`
/// producing the values of `roots`, in order.
///
/// # Errors
///
/// Returns a message naming the offending node when the tape contains
/// an op the `kind`'s executor cannot run, is missing the attrs the
/// lowering must carry, would fuse a bias or batch norm into a conv
/// whose output has other readers, or was not traced at batch 1.
pub(crate) fn lower(g: &Graph, roots: &[VarId], kind: PlanKind) -> Result<Plan, String> {
    let (tag, unsupported): (&str, &[&str]) = match kind {
        // batch statistics do not exist for one sample
        PlanKind::Infer => ("infer", &["batch_norm2d_train"]),
        // no compiled backward
        PlanKind::Train => ("train", &["relu", "sigmoid", "linear"]),
    };
    let metas = g.metas();

    // A reshape aliases its input's slot, so consumers are counted per
    // aliased value; a plan root counts as one more consumer.
    let mut base: Vec<usize> = (0..metas.len()).collect();
    let mut uses = vec![0usize; metas.len()];
    for (idx, meta) in metas.iter().enumerate() {
        if meta.op == "reshape" {
            base[idx] = base[meta.parents[0].index()];
        } else {
            for p in meta.parents.iter() {
                uses[base[p.index()]] += 1;
            }
        }
    }
    for r in roots {
        uses[base[r.index()]] += 1;
    }

    let mut plan = Plan {
        kind,
        ops: Vec::new(),
        slot_lens: Vec::new(),
        slot_shapes: Vec::new(),
        input_slot: 0,
        outputs: Vec::with_capacity(roots.len()),
    };
    let mut refs: Vec<Option<NodeRef>> = vec![None; metas.len()];
    let mut input: Option<usize> = None;

    for (idx, meta) in metas.iter().enumerate() {
        let path = meta.path();
        let fail = |msg: String| Err(format!("{tag} compile at {path}: {msg}"));
        let slot_of = |pi: usize| match refs[meta.parents[pi].index()] {
            Some(NodeRef::Slot(s)) => Ok(s),
            _ => Err(format!(
                "{tag} compile at {path}: parent {pi} is not a value node"
            )),
        };
        let param_of = |pi: usize| match refs[meta.parents[pi].index()] {
            Some(NodeRef::Param(p)) => Ok(p),
            _ => Err(format!(
                "{tag} compile at {path}: parent {pi} is not a param node"
            )),
        };
        let attr = |name: &str| {
            meta.attr(name)
                .ok_or_else(|| format!("{tag} compile at {path}: missing '{name}' attr"))
        };
        let per_sample = || match meta.expected_shape.split_first() {
            Some((1, per)) => Ok(per.to_vec()),
            _ => Err(format!(
                "{tag} compile at {path}: plans must be traced at batch 1, got {:?}",
                meta.expected_shape
            )),
        };
        let new_slot = |plan: &mut Plan| -> Result<usize, String> {
            let per = per_sample()?;
            plan.slot_lens.push(per.iter().product());
            plan.slot_shapes.push(per);
            Ok(plan.slot_shapes.len() - 1)
        };
        // a fused stage overwrites its input value in place
        let sole_use = || uses[base[meta.parents[0].index()]] == 1;
        let op_path = format!("{tag}/{path}");

        if unsupported.contains(&meta.op) {
            return fail(format!("unsupported op '{}'", meta.op));
        }
        let node = match meta.op {
            "input" => {
                if input.is_some() {
                    return fail("plan supports a single input".into());
                }
                let s = new_slot(&mut plan)?;
                input = Some(s);
                NodeRef::Slot(s)
            }
            "param" => NodeRef::Param(ParamId(attr("pid")?)),
            "conv2d" => {
                let x = slot_of(0)?;
                let w = param_of(1)?;
                let ws = &metas[meta.parents[1].index()].expected_shape;
                let (cin, hin, win) = {
                    let xs = &plan.slot_shapes[x];
                    (xs[0], xs[1], xs[2])
                };
                let out = new_slot(&mut plan)?;
                let geom = ConvGeom {
                    stride: attr("stride")?,
                    pad: attr("pad")?,
                    cin,
                    hin,
                    win,
                    cout: ws[0],
                    kh: ws[2],
                    kw: ws[3],
                    ho: plan.slot_shapes[out][1],
                    wo: plan.slot_shapes[out][2],
                };
                plan.ops.push(Op {
                    kind: OpKind::Conv(Conv {
                        x,
                        out,
                        w,
                        bias: None,
                        bn: None,
                        act: Act::None,
                        geom,
                        gx_direct: false,
                    }),
                    // the fused kernel name is appended once fusion is done
                    path: if meta.scope.is_empty() {
                        tag.to_string()
                    } else {
                        format!("{tag}/{}", meta.scope)
                    },
                });
                NodeRef::Slot(out)
            }
            "add_bias_channel" | "batch_norm2d_eval" | "batch_norm2d_train" => {
                let y = slot_of(0)?;
                let (bias, bn) = if meta.op == "add_bias_channel" {
                    (Some(param_of(1)?), None)
                } else {
                    let bn = Bn {
                        gamma: param_of(1)?,
                        beta: param_of(2)?,
                        rmean: ParamId(attr("rmean_pid")?),
                        rvar: ParamId(attr("rvar_pid")?),
                        eps: f32::from_bits(attr("eps_bits")? as u32),
                        train: meta.op == "batch_norm2d_train",
                    };
                    (None, Some(bn))
                };
                match last_conv(&mut plan.ops, y) {
                    Some(c)
                        if c.bias.is_none()
                            && c.bn.is_none()
                            && c.act == Act::None
                            && sole_use() =>
                    {
                        c.bias = bias;
                        c.bn = bn;
                    }
                    _ => {
                        return fail(format!(
                            "{} must directly follow its conv as the sole reader of node {}",
                            meta.op,
                            meta.parents[0].index()
                        ))
                    }
                }
                NodeRef::Slot(y)
            }
            "leaky_relu" | "relu" => {
                let x = slot_of(0)?;
                let act = if meta.op == "relu" {
                    Act::Relu
                } else {
                    Act::Leaky(f32::from_bits(attr("alpha_bits")? as u32))
                };
                let fusable = sole_use()
                    && match act {
                        Act::Leaky(alpha) => alpha > 0.0,
                        _ => true,
                    };
                match last_conv(&mut plan.ops, x) {
                    Some(c) if c.act == Act::None && fusable => {
                        c.act = act;
                        NodeRef::Slot(x)
                    }
                    _ => {
                        let out = new_slot(&mut plan)?;
                        let len = plan.slot_lens[out];
                        let kind = match act {
                            Act::Leaky(alpha) => OpKind::Leaky { x, out, alpha, len },
                            _ => OpKind::Relu { x, out, len },
                        };
                        plan.ops.push(Op {
                            kind,
                            path: op_path,
                        });
                        NodeRef::Slot(out)
                    }
                }
            }
            "sigmoid" => {
                let x = slot_of(0)?;
                let out = new_slot(&mut plan)?;
                let len = plan.slot_lens[out];
                plan.ops.push(Op {
                    kind: OpKind::Sigmoid { x, out, len },
                    path: op_path,
                });
                NodeRef::Slot(out)
            }
            "max_pool2d" => {
                let x = slot_of(0)?;
                let xs = plan.slot_shapes[x].clone();
                let out = new_slot(&mut plan)?;
                plan.ops.push(Op {
                    kind: OpKind::MaxPool {
                        x,
                        out,
                        k: attr("k")?,
                        stride: attr("stride")?,
                        c: xs[0],
                        h: xs[1],
                        w: xs[2],
                        ho: plan.slot_shapes[out][1],
                        wo: plan.slot_shapes[out][2],
                    },
                    path: op_path,
                });
                NodeRef::Slot(out)
            }
            "upsample_nearest2x" => {
                let x = slot_of(0)?;
                let xs = plan.slot_shapes[x].clone();
                let out = new_slot(&mut plan)?;
                plan.ops.push(Op {
                    kind: OpKind::Upsample2x {
                        x,
                        out,
                        c: xs[0],
                        h: xs[1],
                        w: xs[2],
                    },
                    path: op_path,
                });
                NodeRef::Slot(out)
            }
            "concat_channels" => {
                let a = slot_of(0)?;
                let b = slot_of(1)?;
                let (asl, bsl) = (plan.slot_shapes[a].clone(), plan.slot_shapes[b].clone());
                if asl[1..] != bsl[1..] {
                    return fail(format!("concat spatial mismatch {asl:?} vs {bsl:?}"));
                }
                let out = new_slot(&mut plan)?;
                plan.ops.push(Op {
                    kind: OpKind::Concat {
                        a,
                        b,
                        out,
                        ca: asl[0],
                        cb: bsl[0],
                        hw: asl[1] * asl[2],
                    },
                    path: op_path,
                });
                NodeRef::Slot(out)
            }
            "reshape" => {
                // flat per-sample data is unchanged: alias the slot (and,
                // in a training plan, its gradient), relabelling it with
                // the post-reshape dims so shape-sensitive consumers
                // (conv, upsample, pool) see the reshaped geometry
                let x = slot_of(0)?;
                let per = per_sample()?;
                let len: usize = per.iter().product();
                if len != plan.slot_lens[x] {
                    return fail(format!(
                        "reshape changes per-sample length {} -> {len}",
                        plan.slot_lens[x]
                    ));
                }
                plan.slot_shapes[x] = per;
                NodeRef::Slot(x)
            }
            "linear" => {
                let x = slot_of(0)?;
                let w = param_of(1)?;
                let b = param_of(2)?;
                let ws = &metas[meta.parents[1].index()].expected_shape;
                let (out_dim, in_dim) = (ws[0], ws[1]);
                if plan.slot_lens[x] != in_dim {
                    return fail(format!(
                        "linear input length {} != weight columns {in_dim}",
                        plan.slot_lens[x]
                    ));
                }
                let out = new_slot(&mut plan)?;
                plan.ops.push(Op {
                    kind: OpKind::Linear {
                        x,
                        out,
                        w,
                        b,
                        in_dim,
                        out_dim,
                    },
                    path: op_path,
                });
                NodeRef::Slot(out)
            }
            other => return fail(format!("unsupported op '{other}'")),
        };
        refs[idx] = Some(node);
    }

    plan.input_slot = input.ok_or(format!("{tag} compile: tape has no input node"))?;
    for &r in roots {
        match refs[r.index()] {
            Some(NodeRef::Slot(s)) => plan.outputs.push(s),
            _ => return Err(format!("{tag} compile: root {} is not a value", r.index())),
        }
    }

    // fusion is final: name the conv kernels and route their input
    // gradients
    for oi in 0..plan.ops.len() {
        let gx_direct = match &plan.ops[oi].kind {
            OpKind::Conv(c) => {
                !plan.outputs.contains(&c.x)
                    && !plan.ops[oi + 1..]
                        .iter()
                        .any(|o| o.kind.reads().contains(&c.x))
            }
            _ => continue,
        };
        let op = &mut plan.ops[oi];
        if let OpKind::Conv(c) = &mut op.kind {
            c.gx_direct = gx_direct;
            op.path = format!("{}/{}", op.path, c.name());
        }
    }
    Ok(plan)
}

impl Plan {
    /// The fused convs, in op order.
    pub fn convs(&self) -> impl Iterator<Item = &Conv> {
        self.ops.iter().filter_map(|o| match &o.kind {
            OpKind::Conv(c) => Some(c),
            _ => None,
        })
    }

    /// Largest per-sample im2col column buffer any conv needs.
    pub fn max_cols(&self) -> usize {
        self.convs().map(|c| c.geom.cols_len()).max().unwrap_or(0)
    }

    /// Largest per-sample raw output of a conv that feeds a batch norm.
    pub fn max_bn_raw(&self) -> usize {
        self.convs()
            .filter(|c| c.bn.is_some())
            .map(|c| c.geom.cout * c.geom.ho * c.geom.wo)
            .max()
            .unwrap_or(0)
    }

    /// Per-sample input shape (batch dim stripped).
    pub fn input_shape(&self) -> &[usize] {
        &self.slot_shapes[self.input_slot]
    }

    /// Lifts the plan into a plain-data [`PlanMeta`] for static
    /// analysis: op list with slot defs/uses, parameter references,
    /// fusion composition, conv geometry and, for training plans, the
    /// `gx_direct` routing and the column-cache budget. Nothing is
    /// executed; the returned value owns all its data.
    pub fn meta(&self, col_budget: Option<usize>) -> PlanMeta {
        let train = self.kind == PlanKind::Train;
        let ops = self
            .ops
            .iter()
            .map(|op| {
                let mut m = PlanOpMeta {
                    name: String::new(),
                    path: op.path.clone(),
                    reads: op.kind.reads(),
                    writes: vec![op.kind.out()],
                    params: Vec::new(),
                    fused: Vec::new(),
                    conv: None,
                    linear: None,
                    alpha: None,
                    bn_train: None,
                    bn_eps: None,
                    gx_direct: None,
                };
                let name = match &op.kind {
                    OpKind::Conv(c) => {
                        m.params.push(ParamRef {
                            role: ParamRole::ConvWeight,
                            index: c.w.index(),
                        });
                        if let Some(b) = c.bias {
                            m.params.push(ParamRef {
                                role: ParamRole::ConvBias,
                                index: b.index(),
                            });
                        }
                        if let Some(bn) = &c.bn {
                            for (role, pid) in [
                                (ParamRole::BnGamma, bn.gamma),
                                (ParamRole::BnBeta, bn.beta),
                                (ParamRole::BnRunningMean, bn.rmean),
                                (ParamRole::BnRunningVar, bn.rvar),
                            ] {
                                m.params.push(ParamRef {
                                    role,
                                    index: pid.index(),
                                });
                            }
                            m.bn_train = Some(bn.train);
                            m.bn_eps = Some(bn.eps);
                        }
                        if let Act::Leaky(alpha) = c.act {
                            m.alpha = Some(alpha);
                        }
                        m.conv = Some(c.geom);
                        m.gx_direct = train.then_some(c.gx_direct);
                        m.fused = c.fused().into_iter().map(String::from).collect();
                        m.name = c.name();
                        return m;
                    }
                    OpKind::MaxPool { .. } => "max_pool2d",
                    OpKind::Upsample2x { .. } => "upsample_nearest2x",
                    OpKind::Concat { .. } => "concat_channels",
                    OpKind::Leaky { alpha, .. } => {
                        m.alpha = Some(*alpha);
                        "leaky_relu"
                    }
                    OpKind::Relu { .. } => "relu",
                    OpKind::Sigmoid { .. } => "sigmoid",
                    OpKind::Linear {
                        w,
                        b,
                        in_dim,
                        out_dim,
                        ..
                    } => {
                        m.params = vec![
                            ParamRef {
                                role: ParamRole::LinearWeight,
                                index: w.index(),
                            },
                            ParamRef {
                                role: ParamRole::LinearBias,
                                index: b.index(),
                            },
                        ];
                        m.linear = Some((*in_dim, *out_dim));
                        "linear"
                    }
                };
                m.name = name.to_string();
                m.fused = vec![name.to_string()];
                m
            })
            .collect();
        PlanMeta {
            kind: self.kind,
            ops,
            slots: self
                .slot_lens
                .iter()
                .zip(&self.slot_shapes)
                .map(|(&len, shape)| SlotMeta {
                    len,
                    shape: shape.clone(),
                })
                .collect(),
            input_slot: self.input_slot,
            outputs: self.outputs.clone(),
            col_budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InferPlan, ParamSet, Tensor, TrainPlan};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const ALPHA: f32 = 0.1;

    /// `y = conv2d(x)`, `a = leaky_relu(y)`, and `y` read once more:
    /// by a max pool (roots `[a, pool(y)]`) or as a root itself
    /// (roots `[a, y]`). Either way the leaky must not overwrite `y`.
    fn shared(g: &mut Graph, ps: &ParamSet, w: ParamId, x: VarId, y_is_root: bool) -> Vec<VarId> {
        let wv = g.param(ps, w);
        let y = g.conv2d(x, wv, None, 1, 1);
        let a = g.leaky_relu(y, ALPHA);
        if y_is_root {
            vec![a, y]
        } else {
            vec![a, g.max_pool2d(y, 2, 2, 0)]
        }
    }

    /// `Σ_roots Σ (r + 0.5)²` over `roots` already on `g`.
    fn loss(g: &mut Graph, roots: &[VarId]) -> VarId {
        let terms: Vec<VarId> = roots
            .iter()
            .map(|&r| {
                let sh = g.add_scalar(r, 0.5);
                let sq = g.mul(sh, sh);
                g.sum_all(sq)
            })
            .collect();
        terms[1..].iter().fold(terms[0], |acc, &t| g.add(acc, t))
    }

    /// Tape reference: root values, input gradient and the weight
    /// gradient written into `ps`.
    fn tape(ps: &mut ParamSet, w: ParamId, x0: &Tensor, y_is_root: bool) -> (Vec<Tensor>, Tensor) {
        let mut g = Graph::new();
        let x = g.input(x0.clone());
        let roots = shared(&mut g, ps, w, x, y_is_root);
        let l = loss(&mut g, &roots);
        let grads = g.backward(l);
        let values = roots.iter().map(|&r| g.value(r).clone()).collect();
        let gx = grads.get(x).clone();
        g.write_grads(&grads, ps);
        (values, gx)
    }

    #[test]
    fn activation_on_a_shared_conv_output_is_not_fused() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut ps = ParamSet::new();
        let w = ps.register("w", crate::init::kaiming_conv(&mut rng, 4, 3, 3, 3));
        let x0 = Tensor::randn(&mut rng, &[2, 3, 8, 8], 1.0);
        for y_is_root in [false, true] {
            let mut g = Graph::shape_only();
            let x = g.input(Tensor::zeros(&[1, 3, 8, 8]));
            let roots = shared(&mut g, &ps, w, x, y_is_root);
            ps.zero_grads();
            let (want, want_gx) = tape(&mut ps, w, &x0, y_is_root);
            let want_gw = ps.get(w).grad().data().to_vec();

            let infer = InferPlan::compile(&g, &roots).expect("infer plan compiles");
            // conv, standalone leaky (, pool)
            assert_eq!(infer.num_ops(), if y_is_root { 2 } else { 3 });
            let got = infer.execute(&ps, &x0);
            for (r, (got, want)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    got.data(),
                    want.data(),
                    "infer root {r} (y root: {y_is_root})"
                );
            }

            let train = TrainPlan::compile(&g, &roots).expect("train plan compiles");
            let mut step = train.forward(&ps, &x0, true);
            let outs: Vec<Tensor> = (0..roots.len()).map(|i| step.output(i)).collect();
            for (r, (got, want)) in outs.iter().zip(&want).enumerate() {
                assert_eq!(
                    got.data(),
                    want.data(),
                    "train root {r} (y root: {y_is_root})"
                );
            }
            let mut mg = Graph::new();
            let ins: Vec<VarId> = outs.iter().map(|o| mg.input(o.clone())).collect();
            let l = loss(&mut mg, &ins);
            let seeds = mg.backward(l);
            let seeds: Vec<&Tensor> = ins.iter().map(|&i| seeds.get(i)).collect();
            step.backward(&ps, &seeds, true);
            ps.zero_grads();
            step.write_param_grads(&mut ps);
            assert_eq!(step.input_grad().data(), want_gx.data(), "input grad");
            assert_eq!(ps.get(w).grad().data(), &want_gw[..], "weight grad");
        }
    }

    #[test]
    fn bias_on_a_shared_conv_output_is_a_compile_error() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", Tensor::zeros(&[4, 3, 3, 3]));
        let b = ps.register("b", Tensor::zeros(&[4]));
        let mut g = Graph::shape_only();
        let x = g.input(Tensor::zeros(&[1, 3, 8, 8]));
        let wv = g.param(&ps, w);
        let y = g.conv2d(x, wv, None, 1, 1);
        let bv = g.param(&ps, b);
        let z = g.add_bias_channel(y, bv);
        let roots = [z, y];
        let err = InferPlan::compile(&g, &roots).unwrap_err();
        assert!(
            err.contains("add_bias_channel") && err.contains(&format!("node {}", y.index())),
            "got: {err}"
        );
        let err = TrainPlan::compile(&g, &roots).unwrap_err();
        assert!(
            err.starts_with("train compile at add_bias_channel"),
            "got: {err}"
        );
    }
}
