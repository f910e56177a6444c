//! Grad-free compiled inference: per-sample execution of the shared
//! `crate::plan` lowering.
//!
//! Evaluation paths (tables, figures, defense sweeps, mAP, the
//! confirm-window video loop) run the detector thousands of times with
//! no gradient anywhere in sight, yet the tape forward still allocates
//! per-node values, backward closures and metadata for every frame.
//! This module removes that overhead without touching the kernels'
//! arithmetic:
//!
//! - [`InferPlan::compile`] lowers a network's forward traced on a
//!   [`Graph::shape_only`] tape through `crate::plan`, which fuses
//!   `conv2d → {add_bias_channel | batch_norm2d_eval} → leaky_relu`
//!   chains into single kernels. Parameters are referenced by
//!   [`crate::ParamId`] (carried on the `param` nodes as `pid` attrs),
//!   so a compiled plan
//!   survives weight updates — values are read fresh from the
//!   [`ParamSet`] at execution time.
//! - [`InferPlan::execute`] runs the plan over batched NCHW input with
//!   arena-backed activation buffers (one set per worker group),
//!   fanning samples out across [`crate::parallel`]'s worker pool.
//!
//! ## Bitwise equivalence with the tape
//!
//! The executor keeps only the op dispatch, the slot routing and its
//! schedule; each op's arithmetic is the one kernel the tape calls too
//! (one kernel per op): `crate::conv`'s per-sample conv and its
//! epilogue (bias, eval batch norm as the per-channel affine of
//! `crate::bnorm`, leaky, in one in-place pass), `crate::pool`'s
//! per-plane max-pool and upsample, and the leaky and concat kernels of
//! `crate::graph`. Every one of them treats samples
//! independently, so one sample through a kernel gives the bits of
//! that sample in the tape's batched call, and a per-sample execution
//! is bitwise identical to a batched tape forward. The batch norm is
//! never folded into the convolution weights. Group partitioning only
//! decides *which thread* computes a sample, not the sample's
//! arithmetic, so results are identical at any thread count — and
//! `batched(N)` trivially equals `N` batch-1 calls.

use std::sync::Mutex;

use crate::arena;
use crate::bnorm::{bn_eval_affine, BnAffine};
use crate::conv::{conv_epilogue, conv_forward_sample};
use crate::graph::{concat_forward, leaky_forward, Graph, VarId};
use crate::parallel;
use crate::params::ParamSet;
use crate::plan::{self, Conv, OpKind, Plan};
use crate::plan_meta::{PlanKind, PlanMeta};
use crate::pool::{max_pool_plane, upsample2x_plane};
use crate::profile;
use crate::tensor::Tensor;

/// A compiled, grad-free execution plan: the shared `crate::plan`
/// lowering of a shape-only trace, executed per sample.
#[derive(Debug)]
pub struct InferPlan {
    ir: Plan,
}

impl InferPlan {
    /// Compiles a shape-only trace (built at batch 1) into a plan
    /// producing the values of `roots`, in order, with the fusion rules
    /// of `crate::plan`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending node when the tape
    /// contains an op outside the plans' op set (`crate::plan`) or a
    /// `batch_norm2d_train` (inference has no batch statistics), is
    /// missing the `pid`/`eps_bits`/`alpha_bits` attrs the lowering must
    /// carry, or was not traced at batch 1.
    pub fn compile(g: &Graph, roots: &[VarId]) -> Result<InferPlan, String> {
        let ir = plan::lower(g, roots, PlanKind::Infer)?;
        Ok(InferPlan { ir })
    }

    /// Number of (fused) ops in the plan.
    pub fn num_ops(&self) -> usize {
        self.ir.ops.len()
    }

    /// Lifts the plan into a plain-data [`PlanMeta`] description (op
    /// list with slot defs/uses, parameter references, fusion
    /// composition, conv geometry) for static analysis. Nothing is
    /// executed; the returned value owns all its data.
    pub fn meta(&self) -> PlanMeta {
        self.ir.meta(None)
    }

    /// Runs the plan over a batched input `[N, ...input_shape]` and
    /// returns one batched output tensor per plan root, in root order.
    ///
    /// Samples are partitioned into the same fixed, size-only groups
    /// the training substrate uses ([`parallel::groups_for`]); each
    /// group's samples run serially in its own buffer set, so the
    /// result is bitwise independent of the worker-thread count.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not `[N, ...input_shape]` with `N >= 1`.
    pub fn execute(&self, ps: &ParamSet, input: &Tensor) -> Vec<Tensor> {
        InferExec::new(self).run(ps, input)
    }

    /// Runs one sample already copied into `bufs`' input slot.
    fn exec_sample(&self, ps: &ParamSet, bn_affines: &[Option<BnAffine>], bufs: &mut GroupBufs) {
        for (op, bn) in self.ir.ops.iter().zip(bn_affines) {
            let t0 = profile::enabled().then(std::time::Instant::now);
            match &op.kind {
                OpKind::Conv(c) => {
                    let mut out = std::mem::take(&mut bufs.slots[c.out]);
                    let w = ps.get(c.w).value().data();
                    conv_forward_sample(&c.geom, &bufs.slots[c.x], w, &mut bufs.cols, &mut out);
                    let bias = c.bias.map(|b| ps.get(b).value().data());
                    let (cout, howo) = (c.geom.cout, c.geom.ho * c.geom.wo);
                    conv_epilogue(&mut out, cout, howo, bias, bn.as_ref(), c.act);
                    bufs.slots[c.out] = out;
                }
                OpKind::MaxPool {
                    x,
                    out,
                    k,
                    stride,
                    c,
                    h,
                    w,
                    ho,
                    wo,
                } => {
                    let mut o = std::mem::take(&mut bufs.slots[*out]);
                    let (hw, howo) = (h * w, ho * wo);
                    let planes = bufs.slots[*x].chunks(hw).zip(o.chunks_mut(howo));
                    for (xp, op) in planes.take(*c) {
                        max_pool_plane::<false>(xp, *h, *w, *k, *stride, *ho, *wo, op, &mut []);
                    }
                    bufs.slots[*out] = o;
                }
                OpKind::Upsample2x { x, out, c, h, w } => {
                    let mut o = std::mem::take(&mut bufs.slots[*out]);
                    let hw = h * w;
                    let planes = bufs.slots[*x].chunks(hw).zip(o.chunks_mut(hw * 4));
                    for (xp, op) in planes.take(*c) {
                        upsample2x_plane(xp, *h, *w, op);
                    }
                    bufs.slots[*out] = o;
                }
                OpKind::Concat {
                    a,
                    b,
                    out,
                    ca,
                    cb,
                    hw,
                } => {
                    let mut o = std::mem::take(&mut bufs.slots[*out]);
                    let (la, lb) = (ca * hw, cb * hw);
                    concat_forward(&bufs.slots[*a][..la], &bufs.slots[*b][..lb], la, lb, &mut o);
                    bufs.slots[*out] = o;
                }
                OpKind::Leaky { x, out, alpha, len } => {
                    let mut o = std::mem::take(&mut bufs.slots[*out]);
                    leaky_forward(&bufs.slots[*x][..*len], *alpha, &mut o);
                    bufs.slots[*out] = o;
                }
            }
            if let Some(t0) = t0 {
                profile::add_sample(&op.path, t0.elapsed().as_nanos() as u64);
            }
        }
    }
}

/// Per-worker-group activation buffers, all arena-backed.
struct GroupBufs {
    /// One buffer per plan slot, sized to the slot's per-sample length.
    slots: Vec<Vec<f32>>,
    /// Shared im2col column buffer (sized to the plan's largest conv).
    cols: Vec<f32>,
}

impl GroupBufs {
    fn new(plan: &Plan) -> Self {
        GroupBufs {
            slots: plan.slot_lens.iter().map(|&l| arena::take(l)).collect(),
            cols: arena::take(plan.max_cols()),
        }
    }
}

/// One [`InferPlan::execute`] call's buffers: a [`GroupBufs`] per
/// worker group, taken from the current runtime's arena and recycled
/// into it on drop, including when a sample panics.
struct InferExec<'p> {
    plan: &'p InferPlan,
    groups: Vec<GroupBufs>,
}

impl<'p> InferExec<'p> {
    fn new(plan: &'p InferPlan) -> Self {
        InferExec {
            plan,
            groups: Vec::new(),
        }
    }

    fn run(&mut self, ps: &ParamSet, input: &Tensor) -> Vec<Tensor> {
        let plan = self.plan;
        let ir = &plan.ir;
        assert!(
            !input.shape().is_empty() && input.shape()[1..] == *ir.input_shape(),
            "infer input {:?} does not match plan input [N, {:?}]",
            input.shape(),
            ir.input_shape()
        );
        let n = input.shape()[0];
        assert!(n > 0, "infer batch must be non-empty");
        let groups = parallel::groups_for(n);
        while self.groups.len() < groups {
            self.groups.push(GroupBufs::new(ir));
        }
        let per = n.div_ceil(groups);
        let in_len = ir.slot_lens[ir.input_slot];

        // each eval batch norm's per-channel affine, once for every sample
        let bn_affines: Vec<Option<BnAffine>> = ir
            .ops
            .iter()
            .map(|op| match &op.kind {
                OpKind::Conv(Conv { bn: Some(bn), .. }) => Some(bn_eval_affine(
                    ps.get(bn.gamma).value().data(),
                    ps.get(bn.beta).value().data(),
                    ps.get(bn.rmean).value().data(),
                    ps.get(bn.rvar).value().data(),
                    bn.eps,
                )),
                _ => None,
            })
            .collect();

        let mut outs: Vec<Tensor> = ir
            .outputs
            .iter()
            .map(|&s| {
                let mut shape = vec![n];
                shape.extend_from_slice(&ir.slot_shapes[s]);
                Tensor::zeros(&shape)
            })
            .collect();
        let counts: Vec<usize> = (0..groups)
            .map(|gi| per.min(n.saturating_sub(gi * per)))
            .collect();

        // hand each worker group exclusive slices of the output tensors
        // and its own buffer set through take-once mutex cells
        let mut out_cells: Vec<Vec<Mutex<Option<&mut [f32]>>>> = Vec::with_capacity(outs.len());
        for (oi, t) in outs.iter_mut().enumerate() {
            let olen = ir.slot_lens[ir.outputs[oi]];
            let mut rest: &mut [f32] = t.data_mut();
            let mut cells = Vec::with_capacity(groups);
            for &count in &counts {
                let (head, tail) = rest.split_at_mut(count * olen);
                cells.push(Mutex::new(Some(head)));
                rest = tail;
            }
            out_cells.push(cells);
        }
        let buf_cells: Vec<Mutex<Option<&mut GroupBufs>>> = self.groups[..groups]
            .iter_mut()
            .map(|gb| Mutex::new(Some(gb)))
            .collect();
        let xin = input.data();

        parallel::run_indexed(groups, |gi| {
            let mut guard = buf_cells[gi].lock().expect("infer buffer cell poisoned");
            let bufs: &mut GroupBufs = guard.take().expect("group buffers taken twice");
            let mut ochunks: Vec<&mut [f32]> = out_cells
                .iter()
                .map(|cells| {
                    cells[gi]
                        .lock()
                        .expect("infer output cell poisoned")
                        .take()
                        .expect("output chunk taken twice")
                })
                .collect();
            let start = gi * per;
            for li in 0..counts[gi] {
                let ni = start + li;
                bufs.slots[ir.input_slot].copy_from_slice(&xin[ni * in_len..(ni + 1) * in_len]);
                plan.exec_sample(ps, &bn_affines, bufs);
                for (oi, &slot) in ir.outputs.iter().enumerate() {
                    let olen = ir.slot_lens[slot];
                    ochunks[oi][li * olen..(li + 1) * olen]
                        .copy_from_slice(&bufs.slots[slot][..olen]);
                }
            }
        });
        outs
    }
}

impl Drop for InferExec<'_> {
    fn drop(&mut self) {
        for gb in self.groups.drain(..) {
            for b in gb.slots {
                arena::recycle(b);
            }
            arena::recycle(gb.cols);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamId;

    /// Parameters of [`tiny_body`]: `(w1, gamma, beta, rmean, rvar, w2, b2)`.
    type Ids = (
        ParamId,
        ParamId,
        ParamId,
        ParamId,
        ParamId,
        ParamId,
        ParamId,
    );

    fn tiny_net(ps: &mut ParamSet) -> Ids {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let w1 = ps.register("w1", crate::init::kaiming_conv(&mut rng, 4, 3, 3, 3));
        let gamma = ps.register("gamma", Tensor::ones(&[4]));
        let beta = ps.register("beta", Tensor::randn(&mut rng, &[4], 0.1));
        let rmean = ps.register("rmean", Tensor::randn(&mut rng, &[4], 0.2));
        let rvar = ps.register("rvar", Tensor::full(&[4], 0.9));
        let w2 = ps.register("w2", crate::init::kaiming_conv(&mut rng, 2, 4, 1, 1));
        let b2 = ps.register("b2", Tensor::randn(&mut rng, &[2], 0.5));
        (w1, gamma, beta, rmean, rvar, w2, b2)
    }

    /// A conv(3x3, s1, p1) + bn + leaky + maxpool + conv+bias net on `x`.
    fn tiny_body(g: &mut Graph, ps: &ParamSet, ids: &Ids, x: VarId, train_bn: bool) -> VarId {
        let (w1, gamma, beta, rmean, rvar, w2, b2) = *ids;
        let w = g.param(ps, w1);
        let y = g.conv2d(x, w, None, 1, 1);
        let ga = g.param(ps, gamma);
        let be = g.param(ps, beta);
        let y = if train_bn {
            g.batch_norm2d_train(y, ga, be, rmean, rvar, 1e-5).0
        } else {
            g.batch_norm2d_eval(y, ga, be, ps, rmean, rvar, 1e-5)
        };
        let y = g.leaky_relu(y, 0.1);
        let y = g.max_pool2d(y, 2, 2, 0);
        let w = g.param(ps, w2);
        let b = g.param(ps, b2);
        g.conv2d(y, w, Some(b), 1, 0)
    }

    /// [`tiny_body`] traced shape-only at batch 1.
    fn trace_tiny(ps: &ParamSet, ids: &Ids, train_bn: bool) -> (Graph, VarId) {
        let mut g = Graph::shape_only();
        let x = g.input(Tensor::zeros(&[1, 3, 8, 8]));
        let root = tiny_body(&mut g, ps, ids, x, train_bn);
        (g, root)
    }

    fn tape_tiny(ps: &ParamSet, ids: &Ids, x0: &Tensor) -> Tensor {
        let mut g = Graph::new();
        let x = g.input(x0.clone());
        let y = tiny_body(&mut g, ps, ids, x, false);
        g.value(y).clone()
    }

    #[test]
    fn compiled_tiny_net_matches_tape_bitwise() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut ps = ParamSet::new();
        let ids = tiny_net(&mut ps);
        let (g, root) = trace_tiny(&ps, &ids, false);
        let plan = InferPlan::compile(&g, &[root]).expect("tiny net compiles");
        assert_eq!(plan.num_ops(), 3, "conv_bn_leaky + pool + conv_bias");

        let mut rng = StdRng::seed_from_u64(11);
        let x = Tensor::randn(&mut rng, &[3, 3, 8, 8], 1.0);
        let got = plan.execute(&ps, &x);
        let want = tape_tiny(&ps, &ids, &x);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].shape(), want.shape());
        assert_eq!(got[0].data(), want.data(), "compiled != tape");
    }

    #[test]
    fn batched_equals_per_sample() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut ps = ParamSet::new();
        let ids = tiny_net(&mut ps);
        let (g, root) = trace_tiny(&ps, &ids, false);
        let plan = InferPlan::compile(&g, &[root]).expect("tiny net compiles");
        let mut rng = StdRng::seed_from_u64(13);
        let x = Tensor::randn(&mut rng, &[5, 3, 8, 8], 1.0);
        let batched = plan.execute(&ps, &x);
        let in_len = 3 * 8 * 8;
        let out_len: usize = batched[0].shape()[1..].iter().product();
        for ni in 0..5 {
            let xi = Tensor::from_vec(
                x.data()[ni * in_len..(ni + 1) * in_len].to_vec(),
                &[1, 3, 8, 8],
            );
            let oi = plan.execute(&ps, &xi);
            assert_eq!(
                &batched[0].data()[ni * out_len..(ni + 1) * out_len],
                oi[0].data(),
                "sample {ni} differs between batched and batch-1"
            );
        }
    }

    #[test]
    fn compile_rejects_unsupported_ops() {
        let mut g = Graph::shape_only();
        let x = g.declare("input", &[], &[], &[1, 4]);
        let _ = g.declare("softmax", &[x], &[], &[1, 4]);
        let err = InferPlan::compile(&g, &[VarId::from_index(1)]).unwrap_err();
        assert!(err.contains("unsupported op 'softmax'"), "got: {err}");

        // batch statistics have no meaning per sample: a training-mode
        // batch norm lowers for TrainPlan only
        let mut ps = ParamSet::new();
        let ids = tiny_net(&mut ps);
        let (g, root) = trace_tiny(&ps, &ids, true);
        assert!(crate::TrainPlan::compile(&g, &[root]).is_ok());
        let err = InferPlan::compile(&g, &[root]).unwrap_err();
        assert!(
            err.contains("unsupported op 'batch_norm2d_train'"),
            "got: {err}"
        );
    }

    #[test]
    fn compile_rejects_batched_declares() {
        let mut g = Graph::shape_only();
        let _ = g.input(Tensor::zeros(&[2, 3, 8, 8]));
        let err = InferPlan::compile(&g, &[VarId::from_index(0)]).unwrap_err();
        assert!(err.contains("batch 1"), "got: {err}");
    }
}
