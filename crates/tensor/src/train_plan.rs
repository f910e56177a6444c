//! Compiled training step: full-batch forward and backward execution
//! of the shared `crate::plan` lowering.
//!
//! [`crate::infer`] removes the tape's per-node overhead from grad-free
//! evaluation; this module does the same for the training hot path.
//! [`TrainPlan::compile`] lowers a shape-only trace through
//! `crate::plan`, which fuses `conv2d → {add_bias_channel |
//! batch_norm2d_train | batch_norm2d_eval} → leaky_relu` chains, and
//! [`TrainPlan::forward`] / [`TrainStep::backward`] execute it
//! full-batch with arena-backed activation, gradient and auxiliary
//! buffers.
//!
//! What the compiled step saves over the tape:
//!
//! - **Activation-column caching.** The tape's conv backward re-runs
//!   `im2col` per sample, recomputing the exact columns the forward
//!   built and threw away. The plan's forward writes them straight
//!   into a per-conv cache (greedy in op order, behind a configurable
//!   activation-memory budget) and the grad-weight GEMM reuses them.
//! - **No per-node bookkeeping.** No backward closures, no per-node
//!   `Tensor` allocation, no metadata pushes; buffers are arena
//!   recycled across steps.
//! - **Fused backward chains.** The leaky and batch-norm gradient
//!   transforms run in place on the output-slot gradient buffer
//!   instead of allocating `zip_map` temporaries per node.
//! - **Skippable work.** When parameter gradients are not needed (the
//!   frozen detector inside the attack loop) the backward skips
//!   `im2col` + grad-weight GEMMs entirely — about two thirds of the
//!   conv backward — and eval batch-norm reduces to `gx += g*scale`.
//!
//! ## Bitwise equivalence with the tape
//!
//! Every kernel the executor calls is the *same function* the tape
//! closures call ([`crate::simd`]'s exact GEMMs, [`crate::conv`]'s
//! im2col/col2im,
//! [`crate::bnorm`]'s `bn_*` kernels, [`crate::pool`]'s batched
//! fill/scatter kernels), invoked full-batch in the same op order with
//! the same fixed [`crate::parallel::groups_for`] partition, and the
//! backward walks ops in exact reverse tape order accumulating into
//! zeroed buffers just like [`crate::Graph::backward`]. The only
//! deltas are `±0.0` signs from dropped `0.0 + x` folds, which the
//! downstream scatter-adds re-fold before any gradient escapes — so
//! compiled-vs-tape identity and 1-vs-N-thread determinism both hold
//! bit for bit (asserted in `rd-detector`'s `train_compiled` tests and
//! in `road-decals`' compiled attack test).

use std::sync::Mutex;

use crate::arena;
use crate::bnorm::{
    bn_batch_stats, bn_eval_backward, bn_eval_backward_gx_only, bn_eval_forward, bn_ivstd,
    bn_train_backward_gx, bn_train_backward_sums, bn_train_forward, BatchStats,
};
use crate::conv::{col2im, im2col};
use crate::graph::{Graph, VarId};
use crate::params::{ParamId, ParamSet};
use crate::plan::{self, Act, Conv, OpKind, Plan};
use crate::plan_meta::{ConvGeom, PlanKind, PlanMeta};
use crate::pool::{max_pool_backward, max_pool_forward, upsample2x_backward, upsample2x_forward};
use crate::profile;
use crate::runtime::{self, Runtime};
use crate::simd::{exact_gemm, exact_gemm_nt, exact_gemm_tn_over};
use crate::tensor::Tensor;

/// Default im2col column-cache budget: 256 MiB of activation memory.
pub const DEFAULT_COL_BUDGET: usize = 256 << 20;

/// A compiled training step: the shared `crate::plan` lowering of a
/// shape-only trace (built at batch 1), executed full-batch at any batch
/// size with fused forward/backward kernels.
#[derive(Debug)]
pub struct TrainPlan {
    ir: Plan,
    /// Backward profile key of each op (`<forward path>_bwd`).
    bwd_paths: Vec<String>,
    /// im2col column-cache budget in bytes.
    col_budget: usize,
}

impl TrainPlan {
    /// Compiles a shape-only trace (built at batch 1) into a
    /// training plan producing the values of `roots`, in order, with
    /// the fusion rules of `crate::plan`. `batch_norm2d_train`
    /// nodes (carrying `rmean_pid`/`rvar_pid`/`eps_bits` attrs) are
    /// accepted alongside the eval form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending node when the tape
    /// contains an op the executor has no backward for (`relu`,
    /// `sigmoid`, `linear` and anything the lowering rejects), is
    /// missing required attrs, or was not traced at batch 1.
    pub fn compile(g: &Graph, roots: &[VarId]) -> Result<TrainPlan, String> {
        let ir = plan::lower(g, roots, PlanKind::Train)?;
        Ok(TrainPlan {
            bwd_paths: ir.ops.iter().map(|o| format!("{}_bwd", o.path)).collect(),
            ir,
            col_budget: DEFAULT_COL_BUDGET,
        })
    }

    /// Number of (fused) ops in the plan.
    pub fn num_ops(&self) -> usize {
        self.ir.ops.len()
    }

    /// Lifts the plan into a plain-data [`PlanMeta`] description (op
    /// list with slot defs/uses, parameter references, fusion
    /// composition, conv geometry, `gx_direct` routing and the column
    /// budget) for static analysis. Nothing is executed; the returned
    /// value owns all its data.
    pub fn meta(&self) -> PlanMeta {
        self.ir.meta(Some(self.col_budget))
    }

    /// Sets the im2col column-cache budget in bytes. Convs are cached
    /// greedily in op order while their full-batch column matrices fit;
    /// a budget of 0 disables the cache (the backward then recomputes
    /// `im2col` per sample, exactly like the tape).
    pub fn set_col_budget(&mut self, bytes: usize) {
        self.col_budget = bytes;
    }

    /// Runs the forward pass over a batched input `[N, ...input_shape]`
    /// and returns the in-flight step holding activations and
    /// auxiliaries for [`TrainStep::backward`].
    ///
    /// `need_param_grads = false` (frozen network, e.g. the detector
    /// inside the attack loop) skips everything only parameter
    /// gradients need: the column cache, eval-bn raw staging and, in
    /// the backward, the grad-weight GEMMs.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match the plan's input shape or the
    /// batch is empty.
    pub fn forward<'p>(
        &'p self,
        ps: &ParamSet,
        input: &Tensor,
        need_param_grads: bool,
    ) -> TrainStep<'p> {
        assert!(
            !input.shape().is_empty() && input.shape()[1..] == *self.ir.input_shape(),
            "train input {:?} does not match plan input [N, {:?}]",
            input.shape(),
            self.ir.input_shape()
        );
        let n = input.shape()[0];
        assert!(n > 0, "train batch must be non-empty");
        let rt = runtime::current();

        let mut vals: Vec<Vec<f32>> = self
            .ir
            .slot_lens
            .iter()
            .map(|&l| arena::take(n * l))
            .collect();
        vals[self.ir.input_slot].copy_from_slice(input.data());
        let mut aux: Vec<OpAux> = self.ir.ops.iter().map(|_| OpAux::default()).collect();
        let mut bn_stats: Vec<(ParamId, ParamId, BatchStats)> = Vec::new();

        // Greedy column-cache allocation in op order under the budget.
        let mut cols_cache: Vec<Option<Vec<f32>>> = self.ir.ops.iter().map(|_| None).collect();
        if need_param_grads {
            let mut left = self.col_budget / std::mem::size_of::<f32>();
            for (oi, op) in self.ir.ops.iter().enumerate() {
                if let OpKind::Conv(c) = &op.kind {
                    let elems = n * c.geom.cols_len();
                    if elems <= left {
                        left -= elems;
                        cols_cache[oi] = Some(arena::take(elems));
                    }
                }
            }
        }

        // Shared staging buffer for raw conv outputs feeding a batch norm.
        let mut raw = arena::take(n * self.ir.max_bn_raw());

        for (oi, op) in self.ir.ops.iter().enumerate() {
            let t0 = profile::enabled().then(std::time::Instant::now);
            match &op.kind {
                OpKind::Conv(c) => {
                    let ConvGeom {
                        stride,
                        pad,
                        cin,
                        hin,
                        win,
                        cout,
                        kh,
                        kw,
                        ho,
                        wo,
                    } = c.geom;
                    let (ckk, howo, o) = (cin * kh * kw, ho * wo, cout);
                    let in_len = cin * hin * win;
                    let mut out = std::mem::take(&mut vals[c.out]);
                    // Eval-bn backward needs the raw conv output when
                    // parameter gradients are requested; keep a per-op
                    // copy then instead of the shared scratch.
                    let keep_raw = matches!(&c.bn, Some(bn) if !bn.train) && need_param_grads;
                    if keep_raw {
                        aux[oi].raw = arena::take(n * o * howo);
                    }
                    {
                        let dst: &mut [f32] = if keep_raw {
                            &mut aux[oi].raw
                        } else if c.bn.is_some() {
                            &mut raw[..n * o * howo]
                        } else {
                            &mut out
                        };
                        let xd = &vals[c.x];
                        let wd_flat = ps.get(c.w).value().data();
                        // Same fixed batch partition as the tape's conv2d
                        // forward: groups depend only on n.
                        let per = n.div_ceil(crate::parallel::groups_for(n));
                        let dst_cells: Vec<Mutex<Option<&mut [f32]>>> = dst
                            .chunks_mut(per * o * howo)
                            .map(|ch| Mutex::new(Some(ch)))
                            .collect();
                        let cache_cells: Option<Vec<Mutex<Option<&mut [f32]>>>> =
                            cols_cache[oi].as_mut().map(|cb| {
                                cb.chunks_mut(per * ckk * howo)
                                    .map(|ch| Mutex::new(Some(ch)))
                                    .collect()
                            });
                        crate::parallel::run_indexed(dst_cells.len(), |gi| {
                            let chunk = dst_cells[gi]
                                .lock()
                                .expect("train conv dst cell poisoned")
                                .take()
                                .expect("train conv dst chunk taken twice");
                            let mut cache_chunk: Option<&mut [f32]> =
                                cache_cells.as_ref().map(|cells| {
                                    cells[gi]
                                        .lock()
                                        .expect("train conv cache cell poisoned")
                                        .take()
                                        .expect("train conv cache chunk taken twice")
                                });
                            let mut scratch = if cache_chunk.is_none() {
                                Some(arena::ScratchBuf::zeroed(ckk * howo))
                            } else {
                                None
                            };
                            for (li, oslice) in chunk.chunks_mut(o * howo).enumerate() {
                                let ni = gi * per + li;
                                let cols: &mut [f32] = match cache_chunk.as_deref_mut() {
                                    Some(cc) => &mut cc[li * ckk * howo..(li + 1) * ckk * howo],
                                    None => &mut scratch.as_mut().unwrap()[..],
                                };
                                im2col(
                                    &xd[ni * in_len..(ni + 1) * in_len],
                                    cin,
                                    hin,
                                    win,
                                    kh,
                                    kw,
                                    stride,
                                    pad,
                                    ho,
                                    wo,
                                    cols,
                                );
                                exact_gemm(wd_flat, cols, oslice, o, ckk, howo);
                            }
                        });
                    }
                    if let Some(b) = c.bias {
                        // same per-(sample, channel) add as the tape's
                        // add_bias_channel forward
                        let bv = ps.get(b).value().data();
                        for i in 0..n {
                            for ch in 0..o {
                                let add = bv[ch];
                                let off = (i * o + ch) * howo;
                                for v in &mut out[off..off + howo] {
                                    *v += add;
                                }
                            }
                        }
                    }
                    if let Some(bn) = &c.bn {
                        let gv = ps.get(bn.gamma).value().data();
                        let bv = ps.get(bn.beta).value().data();
                        let a = &mut aux[oi];
                        a.ivstd = vec![0.0; o];
                        let src: &[f32] = if keep_raw {
                            &a.raw
                        } else {
                            &raw[..n * o * howo]
                        };
                        if bn.train {
                            let mut mean = Tensor::zeros(&[o]);
                            let mut var = Tensor::zeros(&[o]);
                            bn_batch_stats(src, n, o, howo, mean.data_mut(), var.data_mut());
                            bn_ivstd(var.data(), bn.eps, &mut a.ivstd);
                            a.xhat = arena::take(n * o * howo);
                            bn_train_forward(
                                src,
                                n,
                                o,
                                howo,
                                mean.data(),
                                &a.ivstd,
                                gv,
                                bv,
                                &mut a.xhat,
                                &mut out,
                            );
                            bn_stats.push((bn.rmean, bn.rvar, BatchStats { mean, var }));
                        } else {
                            a.mean = ps.get(bn.rmean).value().data().to_vec();
                            bn_ivstd(ps.get(bn.rvar).value().data(), bn.eps, &mut a.ivstd);
                            bn_eval_forward(src, n, o, howo, &a.mean, &a.ivstd, gv, bv, &mut out);
                        }
                    }
                    if let Act::Leaky(alpha) = c.act {
                        for v in out.iter_mut() {
                            let t = *v;
                            *v = if t > 0.0 { t } else { alpha * t };
                        }
                    }
                    vals[c.out] = out;
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
                    let mut o = std::mem::take(&mut vals[*out]);
                    aux[oi].argmax = vec![0u32; n * c * ho * wo];
                    max_pool_forward(
                        &vals[*x],
                        n * c,
                        *h,
                        *w,
                        *k,
                        *stride,
                        *ho,
                        *wo,
                        &mut o,
                        &mut aux[oi].argmax,
                    );
                    vals[*out] = o;
                }
                OpKind::Upsample2x { x, out, c, h, w } => {
                    let mut o = std::mem::take(&mut vals[*out]);
                    upsample2x_forward(&vals[*x], n * c, *h, *w, &mut o);
                    vals[*out] = o;
                }
                OpKind::Concat {
                    a,
                    b,
                    out,
                    ca,
                    cb,
                    hw,
                } => {
                    let mut o = std::mem::take(&mut vals[*out]);
                    for i in 0..n {
                        let doff = i * (ca + cb) * hw;
                        o[doff..doff + ca * hw]
                            .copy_from_slice(&vals[*a][i * ca * hw..(i + 1) * ca * hw]);
                        o[doff + ca * hw..doff + (ca + cb) * hw]
                            .copy_from_slice(&vals[*b][i * cb * hw..(i + 1) * cb * hw]);
                    }
                    vals[*out] = o;
                }
                OpKind::Leaky { x, out, alpha, len } => {
                    let mut o = std::mem::take(&mut vals[*out]);
                    for (ov, &xv) in o.iter_mut().zip(&vals[*x][..n * len]) {
                        *ov = if xv > 0.0 { xv } else { alpha * xv };
                    }
                    vals[*out] = o;
                }
                OpKind::Relu { .. } | OpKind::Sigmoid { .. } | OpKind::Linear { .. } => {
                    unreachable!("rejected by TrainPlan::compile")
                }
            }
            if let Some(t0) = t0 {
                profile::add_sample(&op.path, t0.elapsed().as_nanos() as u64);
            }
        }
        arena::recycle(raw);

        TrainStep {
            plan: self,
            rt,
            n,
            need_param_grads,
            vals,
            grads: Vec::new(),
            aux,
            cols_cache,
            param_grads: Vec::new(),
            bn_stats,
            col_hits: 0,
            col_misses: 0,
            ran_backward: false,
        }
    }
}

/// Per-op auxiliary state the backward pass needs, produced by the
/// forward pass. All vectors are empty for ops that don't need them.
#[derive(Default)]
struct OpAux {
    /// bn-train: normalized activations.
    xhat: Vec<f32>,
    /// bn: per-channel `1/sqrt(var + eps)`.
    ivstd: Vec<f32>,
    /// bn-eval: per-channel mean snapshot.
    mean: Vec<f32>,
    /// bn-eval with param grads: raw conv output.
    raw: Vec<f32>,
    /// max-pool: plane-relative argmax per output element.
    argmax: Vec<u32>,
}

/// An in-flight compiled training step: activations and auxiliaries
/// from [`TrainPlan::forward`], gradients after
/// [`TrainStep::backward`]. All buffers are arena-recycled on drop.
pub struct TrainStep<'p> {
    plan: &'p TrainPlan,
    /// Runtime current at forward time; backward and drop re-enter it
    /// so the step's buffers stay within one runtime's arena.
    rt: Runtime,
    n: usize,
    need_param_grads: bool,
    vals: Vec<Vec<f32>>,
    grads: Vec<Vec<f32>>,
    aux: Vec<OpAux>,
    cols_cache: Vec<Option<Vec<f32>>>,
    param_grads: Vec<(ParamId, Vec<f32>)>,
    bn_stats: Vec<(ParamId, ParamId, BatchStats)>,
    col_hits: u64,
    col_misses: u64,
    ran_backward: bool,
}

/// Finds or inserts the zeroed gradient buffer for `pid`.
fn pg_buf(pgs: &mut Vec<(ParamId, Vec<f32>)>, pid: ParamId, len: usize) -> &mut [f32] {
    if let Some(i) = pgs.iter().position(|(p, _)| *p == pid) {
        return &mut pgs[i].1;
    }
    pgs.push((pid, arena::take(len)));
    &mut pgs.last_mut().expect("pushed above").1
}

impl TrainStep<'_> {
    /// Batch size of this step.
    pub fn batch(&self) -> usize {
        self.n
    }

    /// The `i`-th plan root's full-batch value, `[N, ...slot_shape]`.
    pub fn output(&self, i: usize) -> Tensor {
        let slot = self.plan.ir.outputs[i];
        let mut shape = vec![self.n];
        shape.extend_from_slice(&self.plan.ir.slot_shapes[slot]);
        Tensor::from_vec(self.vals[slot].clone(), &shape)
    }

    /// Batch statistics of every training-mode batch norm, in op order,
    /// each with the running mean/var [`ParamId`]s its node carried —
    /// everything the caller needs for the momentum fold.
    pub fn bn_stats(&self) -> &[(ParamId, ParamId, BatchStats)] {
        &self.bn_stats
    }

    /// Column-cache reuse counters for this step, in per-sample conv
    /// backward visits: `(cache hits, im2col recomputes)`.
    pub fn col_cache_stats(&self) -> (u64, u64) {
        (self.col_hits, self.col_misses)
    }

    /// Runs the backward pass. `seeds` are the loss gradients w.r.t.
    /// the plan roots, in root order (each `[N, ...slot_shape]`) —
    /// typically read off a small loss tape built on [`Self::output`]
    /// values. `need_input_grad` controls whether the gradient w.r.t.
    /// the plan input is produced (the attack loop needs it, the
    /// detector trainer does not).
    ///
    /// # Panics
    ///
    /// Panics on seed count/shape mismatches or if called twice.
    pub fn backward(&mut self, ps: &ParamSet, seeds: &[&Tensor], need_input_grad: bool) {
        let rt = self.rt.clone();
        rt.enter(|| self.backward_inner(ps, seeds, need_input_grad));
    }

    fn backward_inner(&mut self, ps: &ParamSet, seeds: &[&Tensor], need_input_grad: bool) {
        assert!(!self.ran_backward, "TrainStep::backward called twice");
        self.ran_backward = true;
        let plan = self.plan;
        assert_eq!(
            seeds.len(),
            plan.ir.outputs.len(),
            "expected one seed per plan root"
        );
        self.grads = plan
            .ir
            .slot_lens
            .iter()
            .map(|&l| arena::take(self.n * l))
            .collect();
        for (si, seed) in seeds.iter().enumerate() {
            let slot = plan.ir.outputs[si];
            assert_eq!(
                seed.len(),
                self.n * plan.ir.slot_lens[slot],
                "seed {si} length mismatch"
            );
            self.grads[slot].copy_from_slice(seed.data());
        }
        for oi in (0..plan.ir.ops.len()).rev() {
            let op = &plan.ir.ops[oi];
            let t0 = profile::enabled().then(std::time::Instant::now);
            match &op.kind {
                OpKind::Conv(c) => self.conv_backward(ps, oi, c, need_input_grad),
                OpKind::MaxPool {
                    x,
                    out,
                    c,
                    h,
                    w,
                    ho,
                    wo,
                    ..
                } => {
                    let gout = std::mem::take(&mut self.grads[*out]);
                    max_pool_backward(
                        &gout,
                        &self.aux[oi].argmax,
                        self.n * c,
                        *h,
                        *w,
                        *ho,
                        *wo,
                        &mut self.grads[*x],
                    );
                    arena::recycle(gout);
                }
                OpKind::Upsample2x { x, out, c, h, w } => {
                    let gout = std::mem::take(&mut self.grads[*out]);
                    upsample2x_backward(&gout, self.n * c, *h, *w, &mut self.grads[*x]);
                    arena::recycle(gout);
                }
                OpKind::Concat {
                    a,
                    b,
                    out,
                    ca,
                    cb,
                    hw,
                } => {
                    // exact tape loop: per sample, the a-half then the b-half
                    let gout = std::mem::take(&mut self.grads[*out]);
                    for i in 0..self.n {
                        let src = &gout[i * (ca + cb) * hw..];
                        let ga = &mut self.grads[*a];
                        for j in 0..ca * hw {
                            ga[i * ca * hw + j] += src[j];
                        }
                        let gb = &mut self.grads[*b];
                        for j in 0..cb * hw {
                            gb[i * cb * hw + j] += src[ca * hw + j];
                        }
                    }
                    arena::recycle(gout);
                }
                OpKind::Leaky { x, out, alpha, len } => {
                    let gout = std::mem::take(&mut self.grads[*out]);
                    let xv = &self.vals[*x];
                    let gx = &mut self.grads[*x];
                    for i in 0..self.n * len {
                        let t = if xv[i] > 0.0 {
                            gout[i]
                        } else {
                            alpha * gout[i]
                        };
                        gx[i] += t;
                    }
                    arena::recycle(gout);
                }
                OpKind::Relu { .. } | OpKind::Sigmoid { .. } | OpKind::Linear { .. } => {
                    unreachable!("rejected by TrainPlan::compile")
                }
            }
            if let Some(t0) = t0 {
                profile::add_sample(&plan.bwd_paths[oi], t0.elapsed().as_nanos() as u64);
            }
        }
    }

    /// Backward of one fused conv: leaky grad transform in place on the
    /// output-slot gradient, bn / bias gradients, then the conv core
    /// with cached columns and the direct-vs-temp `col2im` routing.
    fn conv_backward(&mut self, ps: &ParamSet, oi: usize, c: &Conv, need_input_grad: bool) {
        let n = self.n;
        let ConvGeom {
            stride,
            pad,
            cin,
            hin,
            win,
            cout,
            kh,
            kw,
            ho,
            wo,
        } = c.geom;
        let (ckk, howo, o) = (cin * kh * kw, ho * wo, cout);
        let in_len = cin * hin * win;
        let mut gout = std::mem::take(&mut self.grads[c.out]);

        if let Act::Leaky(alpha) = c.act {
            // The fused output stores leaky(y); with alpha > 0 (enforced
            // at compile) out > 0 iff y > 0, so the tape's input-sign
            // branch is reproduced from the output.
            for (gv, &yv) in gout.iter_mut().zip(self.vals[c.out].iter()) {
                if yv > 0.0 {
                    continue;
                }
                *gv *= alpha;
            }
        }

        if let Some(bn) = &c.bn {
            let aux = &self.aux[oi];
            let gamma_v = ps.get(bn.gamma).value().data();
            let mut gx = arena::take(gout.len());
            if bn.train {
                let mut sum_g = vec![0.0f32; o];
                let mut sum_gx = vec![0.0f32; o];
                bn_train_backward_sums(&gout, &aux.xhat, n, o, howo, &mut sum_g, &mut sum_gx);
                if self.need_param_grads {
                    let pg = pg_buf(&mut self.param_grads, bn.gamma, o);
                    for (dst, &src) in pg.iter_mut().zip(sum_gx.iter()) {
                        *dst += src;
                    }
                    let pg = pg_buf(&mut self.param_grads, bn.beta, o);
                    for (dst, &src) in pg.iter_mut().zip(sum_g.iter()) {
                        *dst += src;
                    }
                }
                bn_train_backward_gx(
                    &gout, &aux.xhat, n, o, howo, gamma_v, &aux.ivstd, &sum_g, &sum_gx, &mut gx,
                );
            } else if self.need_param_grads {
                let mut gg = vec![0.0f32; o];
                let mut gb = vec![0.0f32; o];
                bn_eval_backward(
                    &gout, &aux.raw, n, o, howo, &aux.mean, &aux.ivstd, gamma_v, &mut gx, &mut gg,
                    &mut gb,
                );
                let pg = pg_buf(&mut self.param_grads, bn.gamma, o);
                for (dst, &src) in pg.iter_mut().zip(gg.iter()) {
                    *dst += src;
                }
                let pg = pg_buf(&mut self.param_grads, bn.beta, o);
                for (dst, &src) in pg.iter_mut().zip(gb.iter()) {
                    *dst += src;
                }
            } else {
                bn_eval_backward_gx_only(&gout, n, o, howo, &aux.ivstd, gamma_v, &mut gx);
            }
            arena::recycle(std::mem::replace(&mut gout, gx));
        }

        if let (Some(b), true) = (c.bias, self.need_param_grads) {
            // same per-(sample, channel) partial sums as the tape
            let pg = pg_buf(&mut self.param_grads, b, o);
            for i in 0..n {
                for ch in 0..o {
                    let off = (i * o + ch) * howo;
                    let s: f32 = gout[off..off + howo].iter().sum();
                    pg[ch] += s;
                }
            }
        }

        // conv core: gw needs columns (cached or recomputed), gx needs
        // the weight-transposed GEMM + col2im scatter
        let compute_gx = c.x != self.plan.ir.input_slot || need_input_grad;
        if self.need_param_grads {
            if self.cols_cache[oi].is_some() {
                self.col_hits += n as u64;
            } else {
                self.col_misses += n as u64;
            }
        }
        if compute_gx || self.need_param_grads {
            let per = n.div_ceil(crate::parallel::groups_for(n));
            let ngroups = n.div_ceil(per);
            let wd_flat = ps.get(c.w).value().data();
            let xd = &self.vals[c.x];
            let cache: Option<&[f32]> = self.cols_cache[oi].as_deref();
            let need_pg = self.need_param_grads;
            let mut gx_tmp: Option<Vec<f32>> =
                (compute_gx && !c.gx_direct).then(|| arena::take(n * in_len));
            let gw_partials: Vec<Option<Vec<f32>>> = {
                let gx_data: Option<&mut [f32]> = if compute_gx {
                    Some(match gx_tmp.as_mut() {
                        Some(t) => &mut t[..],
                        None => &mut self.grads[c.x],
                    })
                } else {
                    None
                };
                let gx_cells: Vec<Mutex<Option<&mut [f32]>>> = match gx_data {
                    Some(d) => d
                        .chunks_mut(per * in_len)
                        .map(|ch| Mutex::new(Some(ch)))
                        .collect(),
                    None => Vec::new(),
                };
                crate::parallel::run_indexed(ngroups, |gi| {
                    let mut gx_chunk: Option<&mut [f32]> = if compute_gx {
                        Some(
                            gx_cells[gi]
                                .lock()
                                .expect("train conv gx cell poisoned")
                                .take()
                                .expect("train conv gx chunk taken twice"),
                        )
                    } else {
                        None
                    };
                    let mut gw: Option<Vec<f32>> = need_pg.then(|| arena::take(o * ckk));
                    let mut cols_scratch =
                        (need_pg && cache.is_none()).then(|| arena::ScratchBuf::zeroed(ckk * howo));
                    let mut gcols = compute_gx.then(|| arena::ScratchBuf::zeroed(ckk * howo));
                    let count = per.min(n - gi * per);
                    for li in 0..count {
                        let ni = gi * per + li;
                        let gslice = &gout[ni * o * howo..(ni + 1) * o * howo];
                        if let Some(gw) = gw.as_mut() {
                            let cols: &[f32] = match cache {
                                Some(cb) => &cb[ni * ckk * howo..(ni + 1) * ckk * howo],
                                None => {
                                    let sc = cols_scratch.as_mut().expect("scratch gated above");
                                    im2col(
                                        &xd[ni * in_len..(ni + 1) * in_len],
                                        cin,
                                        hin,
                                        win,
                                        kh,
                                        kw,
                                        stride,
                                        pad,
                                        ho,
                                        wo,
                                        &mut sc[..],
                                    );
                                    &sc[..]
                                }
                            };
                            exact_gemm_nt(gslice, cols, gw, o, howo, ckk);
                        }
                        if let Some(gx_chunk) = gx_chunk.as_deref_mut() {
                            let gc = gcols.as_mut().expect("gcols gated above");
                            exact_gemm_tn_over(wd_flat, gslice, &mut gc[..], o, ckk, howo);
                            col2im(
                                &gc[..],
                                cin,
                                hin,
                                win,
                                kh,
                                kw,
                                stride,
                                pad,
                                ho,
                                wo,
                                &mut gx_chunk[li * in_len..(li + 1) * in_len],
                            );
                        }
                    }
                    gw
                })
            };
            if let Some(t) = gx_tmp {
                // same full-batch serial add as the tape's
                // add_scaled_assign(gx, 1.0)
                for (dst, &src) in self.grads[c.x].iter_mut().zip(t.iter()) {
                    *dst += src;
                }
                arena::recycle(t);
            }
            if need_pg {
                // reduce group partials in group order, as the tape does
                let pg = pg_buf(&mut self.param_grads, c.w, o * ckk);
                for part in gw_partials.into_iter().flatten() {
                    for (dst, &src) in pg.iter_mut().zip(part.iter()) {
                        *dst += src;
                    }
                    arena::recycle(part);
                }
            }
        }
        arena::recycle(gout);
    }

    /// Gradient w.r.t. the plan input, `[N, ...input_shape]`.
    ///
    /// # Panics
    ///
    /// Panics if [`Self::backward`] has not run.
    pub fn input_grad(&self) -> Tensor {
        assert!(self.ran_backward, "input_grad before backward");
        let mut shape = vec![self.n];
        shape.extend_from_slice(self.plan.ir.input_shape());
        Tensor::from_vec(self.grads[self.plan.ir.input_slot].clone(), &shape)
    }

    /// Adds the accumulated parameter gradients into `ps`'s gradient
    /// accumulators — the compiled equivalent of
    /// [`Graph::write_grads`].
    ///
    /// # Panics
    ///
    /// Panics if [`Self::backward`] has not run.
    pub fn write_param_grads(&self, ps: &mut ParamSet) {
        assert!(self.ran_backward, "write_param_grads before backward");
        for (pid, buf) in &self.param_grads {
            let g = ps.get_mut(*pid).grad_mut().data_mut();
            debug_assert_eq!(g.len(), buf.len(), "param grad length mismatch");
            for (dst, &src) in g.iter_mut().zip(buf.iter()) {
                *dst += src;
            }
        }
    }
}

impl Drop for TrainStep<'_> {
    fn drop(&mut self) {
        // Recycle into the runtime the step was created under, even
        // when the drop happens from another runtime's scope (e.g. a
        // supervisor unwinding a panicked job).
        let rt = self.rt.clone();
        rt.enter(|| {
            for b in self.vals.drain(..) {
                arena::recycle(b);
            }
            for b in self.grads.drain(..) {
                arena::recycle(b);
            }
            for a in self.aux.drain(..) {
                arena::recycle(a.xhat);
                arena::recycle(a.raw);
            }
            for b in self.cols_cache.drain(..).flatten() {
                arena::recycle(b);
            }
            for (_, b) in self.param_grads.drain(..) {
                arena::recycle(b);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EPS: f32 = 1e-5;
    const ALPHA: f32 = 0.1;

    struct Net {
        w1: ParamId,
        gamma: ParamId,
        beta: ParamId,
        rmean: ParamId,
        rvar: ParamId,
        w2: ParamId,
        b2: ParamId,
        w3: ParamId,
    }

    /// conv_bn_leaky(x) = y0; a = conv_bias(y0); b = conv(up(pool(y0)));
    /// root = leaky(concat(a, b)). Covers every op kind, the shared-slot
    /// temp path (y0 feeds both the a-conv and the pool) and the direct
    /// path (the b-conv is y0's chain's sole consumer of `u`).
    fn net(ps: &mut ParamSet) -> Net {
        let mut rng = StdRng::seed_from_u64(7);
        Net {
            w1: ps.register("w1", crate::init::kaiming_conv(&mut rng, 4, 3, 3, 3)),
            gamma: ps.register("gamma", Tensor::randn(&mut rng, &[4], 0.3).map(|v| v + 1.0)),
            beta: ps.register("beta", Tensor::randn(&mut rng, &[4], 0.1)),
            rmean: ps.register("rmean", Tensor::randn(&mut rng, &[4], 0.2)),
            rvar: ps.register("rvar", Tensor::full(&[4], 0.9)),
            w2: ps.register("w2", crate::init::kaiming_conv(&mut rng, 2, 4, 1, 1)),
            b2: ps.register("b2", Tensor::randn(&mut rng, &[2], 0.5)),
            w3: ps.register("w3", crate::init::kaiming_conv(&mut rng, 2, 4, 1, 1)),
        }
    }

    /// The net of [`net`] on `x`; returns the root and, with `train_bn`,
    /// the batch norm's statistics.
    fn net_body(
        g: &mut Graph,
        ps: &ParamSet,
        ids: &Net,
        x: VarId,
        train_bn: bool,
    ) -> (VarId, Option<BatchStats>) {
        let w1 = g.param(ps, ids.w1);
        let y = g.conv2d(x, w1, None, 1, 1);
        let ga = g.param(ps, ids.gamma);
        let be = g.param(ps, ids.beta);
        let (rm, rv) = (ids.rmean, ids.rvar);
        let (y, stats) = if train_bn {
            let (y, s) = g.batch_norm2d_train(y, ga, be, rm, rv, EPS);
            (y, Some(s))
        } else {
            (g.batch_norm2d_eval(y, ga, be, ps, rm, rv, EPS), None)
        };
        let y0 = g.leaky_relu(y, ALPHA);
        let w2 = g.param(ps, ids.w2);
        let b2 = g.param(ps, ids.b2);
        let a = g.conv2d(y0, w2, Some(b2), 1, 0);
        let p = g.max_pool2d(y0, 2, 2, 0);
        let u = g.upsample_nearest2x(p);
        let w3 = g.param(ps, ids.w3);
        let b = g.conv2d(u, w3, None, 1, 0);
        let cat = g.concat_channels(a, b);
        (g.leaky_relu(cat, ALPHA), stats)
    }

    /// [`net_body`] traced shape-only at batch 1.
    fn trace_net(ps: &ParamSet, ids: &Net, train_bn: bool) -> (Graph, VarId) {
        let mut g = Graph::shape_only();
        let x = g.input(Tensor::zeros(&[1, 3, 8, 8]));
        let (root, _) = net_body(&mut g, ps, ids, x, train_bn);
        (g, root)
    }

    /// Tape reference: full forward + loss `sum((root+0.5)^2)` +
    /// backward, gradients written into `ps`. Returns (loss value,
    /// input grad, bn stats).
    fn tape_step(
        ps: &mut ParamSet,
        ids: &Net,
        x0: &Tensor,
        train_bn: bool,
    ) -> (f32, Tensor, Option<BatchStats>) {
        let mut g = Graph::new();
        let x = g.input(x0.clone());
        let (root, stats) = net_body(&mut g, ps, ids, x, train_bn);
        let sh = g.add_scalar(root, 0.5);
        let sq = g.mul(sh, sh);
        let loss = g.sum_all(sq);
        let lv = g.value(loss).data()[0];
        let grads = g.backward(loss);
        let gx = grads.get(x).clone();
        g.write_grads(&grads, ps);
        (lv, gx, stats)
    }

    /// Compiled step with the same loss built as a mini-tape on the
    /// plan output. Gradients written into `ps`.
    fn plan_step(
        plan: &TrainPlan,
        ps: &mut ParamSet,
        x0: &Tensor,
        need_param_grads: bool,
    ) -> (f32, Tensor, TrainStepStats) {
        let mut step = plan.forward(ps, x0, need_param_grads);
        let out = step.output(0);
        let mut mg = Graph::new();
        let yin = mg.input(out);
        let sh = mg.add_scalar(yin, 0.5);
        let sq = mg.mul(sh, sh);
        let loss = mg.sum_all(sq);
        let lv = mg.value(loss).data()[0];
        let grads = mg.backward(loss);
        step.backward(ps, &[grads.get(yin)], true);
        let gx = step.input_grad();
        step.write_param_grads(ps);
        let stats = TrainStepStats {
            bn: step.bn_stats().to_vec(),
            cache: step.col_cache_stats(),
        };
        (lv, gx, stats)
    }

    struct TrainStepStats {
        bn: Vec<(ParamId, ParamId, BatchStats)>,
        cache: (u64, u64),
    }

    fn snapshot_grads(ps: &ParamSet) -> Vec<Vec<f32>> {
        ps.iter().map(|(_, p)| p.grad().data().to_vec()).collect()
    }

    #[test]
    fn compiled_train_step_matches_tape_bitwise() {
        let mut ps = ParamSet::new();
        let ids = net(&mut ps);
        let (g, root) = trace_net(&ps, &ids, true);
        let plan = TrainPlan::compile(&g, &[root]).expect("net compiles");
        // conv_bn_leaky, conv_bias, pool, upsample, conv, concat, leaky
        assert_eq!(plan.num_ops(), 7);

        let mut rng = StdRng::seed_from_u64(11);
        let x0 = Tensor::randn(&mut rng, &[4, 3, 8, 8], 1.0);

        ps.zero_grads();
        let (tape_loss, tape_gx, tape_stats) = tape_step(&mut ps, &ids, &x0, true);
        let tape_grads = snapshot_grads(&ps);

        ps.zero_grads();
        let (plan_loss, plan_gx, stats) = plan_step(&plan, &mut ps, &x0, true);
        let plan_grads = snapshot_grads(&ps);

        assert_eq!(plan_loss.to_bits(), tape_loss.to_bits(), "loss differs");
        assert_eq!(plan_gx.data(), tape_gx.data(), "input grad differs");
        assert_eq!(plan_grads, tape_grads, "param grads differ");
        let ts = tape_stats.expect("train bn ran");
        assert_eq!(stats.bn.len(), 1);
        assert_eq!(stats.bn[0].0, ids.rmean);
        assert_eq!(stats.bn[0].1, ids.rvar);
        assert_eq!(stats.bn[0].2.mean.data(), ts.mean.data(), "bn mean differs");
        assert_eq!(stats.bn[0].2.var.data(), ts.var.data(), "bn var differs");
        // all three convs fit the default budget: every backward visit hits
        assert_eq!(stats.cache, (12, 0), "expected 3 convs x 4 samples cached");
    }

    #[test]
    fn compiled_eval_bn_step_matches_tape_bitwise() {
        let mut ps = ParamSet::new();
        let ids = net(&mut ps);
        let (g, root) = trace_net(&ps, &ids, false);
        let plan = TrainPlan::compile(&g, &[root]).expect("net compiles");

        let mut rng = StdRng::seed_from_u64(12);
        let x0 = Tensor::randn(&mut rng, &[3, 3, 8, 8], 1.0);

        ps.zero_grads();
        let (tape_loss, tape_gx, _) = tape_step(&mut ps, &ids, &x0, false);
        let tape_grads = snapshot_grads(&ps);

        ps.zero_grads();
        let (plan_loss, plan_gx, _) = plan_step(&plan, &mut ps, &x0, true);
        let plan_grads = snapshot_grads(&ps);

        assert_eq!(plan_loss.to_bits(), tape_loss.to_bits(), "loss differs");
        assert_eq!(plan_gx.data(), tape_gx.data(), "input grad differs");
        assert_eq!(plan_grads, tape_grads, "param grads differ");
    }

    #[test]
    fn column_cache_budget_does_not_change_gradients() {
        let mut ps = ParamSet::new();
        let ids = net(&mut ps);
        let (g, root) = trace_net(&ps, &ids, true);
        let mut plan = TrainPlan::compile(&g, &[root]).expect("net compiles");

        let mut rng = StdRng::seed_from_u64(13);
        let x0 = Tensor::randn(&mut rng, &[2, 3, 8, 8], 1.0);

        ps.zero_grads();
        let (loss_cached, gx_cached, stats_cached) = plan_step(&plan, &mut ps, &x0, true);
        let grads_cached = snapshot_grads(&ps);
        assert_eq!(stats_cached.cache.1, 0, "default budget should cache all");
        assert!(stats_cached.cache.0 > 0);

        plan.set_col_budget(0);
        ps.zero_grads();
        let (loss_plain, gx_plain, stats_plain) = plan_step(&plan, &mut ps, &x0, true);
        let grads_plain = snapshot_grads(&ps);
        assert_eq!(stats_plain.cache.0, 0, "budget 0 must disable the cache");
        assert!(stats_plain.cache.1 > 0);

        assert_eq!(loss_cached.to_bits(), loss_plain.to_bits());
        assert_eq!(gx_cached.data(), gx_plain.data());
        assert_eq!(grads_cached, grads_plain);
    }

    #[test]
    fn frozen_path_input_grad_matches_full_backward() {
        let mut ps = ParamSet::new();
        let ids = net(&mut ps);
        let (g, root) = trace_net(&ps, &ids, false);
        let plan = TrainPlan::compile(&g, &[root]).expect("net compiles");

        let mut rng = StdRng::seed_from_u64(14);
        let x0 = Tensor::randn(&mut rng, &[2, 3, 8, 8], 1.0);

        ps.zero_grads();
        let (_, gx_full, _) = plan_step(&plan, &mut ps, &x0, true);
        let before = snapshot_grads(&ps);
        let (_, gx_frozen, stats) = plan_step(&plan, &mut ps, &x0, false);
        let after = snapshot_grads(&ps);

        assert_eq!(gx_frozen.data(), gx_full.data(), "frozen gx differs");
        assert_eq!(before, after, "frozen path must not touch param grads");
        assert_eq!(stats.cache, (0, 0), "frozen path never visits columns");
    }

    #[test]
    fn compile_rejects_unsupported_and_batched() {
        let mut g = Graph::shape_only();
        let x = g.declare("input", &[], &[], &[1, 4]);
        let _ = g.declare("softmax", &[x], &[], &[1, 4]);
        let err = TrainPlan::compile(&g, &[VarId::from_index(1)]).unwrap_err();
        assert!(err.contains("unsupported op 'softmax'"), "got: {err}");

        // ops InferPlan runs but the compiled backward does not cover
        let mut ps = ParamSet::new();
        let w = ps.register("w", Tensor::zeros(&[2, 4]));
        let b = ps.register("b", Tensor::zeros(&[2]));
        for op in ["relu", "sigmoid", "linear"] {
            let mut g = Graph::shape_only();
            let x = g.input(Tensor::zeros(&[1, 4]));
            let root = match op {
                "relu" => g.relu(x),
                "sigmoid" => g.sigmoid(x),
                _ => {
                    let (wv, bv) = (g.param(&ps, w), g.param(&ps, b));
                    g.linear(x, wv, bv)
                }
            };
            assert!(crate::InferPlan::compile(&g, &[root]).is_ok(), "{op}");
            let err = TrainPlan::compile(&g, &[root]).unwrap_err();
            assert!(
                err.contains(&format!("unsupported op '{op}'")),
                "got: {err}"
            );
        }

        let mut g = Graph::shape_only();
        let _ = g.input(Tensor::zeros(&[2, 3, 8, 8]));
        let err = TrainPlan::compile(&g, &[VarId::from_index(0)]).unwrap_err();
        assert!(err.contains("batch 1"), "got: {err}");
    }
}
