//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] is a single-use tape: every operation appends a node holding
//! the forward value and (optionally) a backward closure. Calling
//! [`Graph::backward`] walks the tape in reverse, producing a [`Gradients`]
//! table indexed by [`VarId`]. Parameters registered via [`Graph::param`]
//! remember their [`ParamId`] so gradients can be written back into the
//! owning [`ParamSet`] with [`Graph::write_grads`].
//!
//! A [`Graph::shape_only`] tape runs a network's own forward without
//! computing anything: the ops the models use record their metadata and
//! the output shape they would produce, and nothing else. That trace is
//! what the compiled plans are lowered from and what shape validation
//! checks, so a model is described once, by its `forward`.
//!
//! # Examples
//!
//! ```
//! use rd_tensor::{Graph, Tensor};
//!
//! let mut g = Graph::new();
//! let x = g.input(Tensor::from_vec(vec![2.0, -3.0], &[2]));
//! let y = g.mul(x, x); // y = x^2
//! let loss = g.sum_all(y);
//! let grads = g.backward(loss);
//! assert_eq!(grads.get(x).data(), &[4.0, -6.0]); // d(x^2)/dx = 2x
//! ```

use crate::conv::{bias_grad, conv_epilogue};
use crate::params::{ParamId, ParamSet};
use crate::plan::Act;
use crate::simd::exact_gemm;
use crate::tensor::Tensor;

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Position of the node on the tape.
    pub fn index(self) -> usize {
        self.0
    }

    /// Reconstructs a handle from a tape position. Used by analyses that
    /// walk the metadata tape; referencing a position past the end of the
    /// graph it came from will panic on first use.
    pub fn from_index(index: usize) -> Self {
        VarId(index)
    }
}

/// Declarative description of one tape node, recorded alongside its
/// opaque [`BackFn`]. Static analyses (shape validation, graph lints,
/// NaN provenance in `rd-analysis`) work entirely off this metadata, so
/// every op records its name, parents and the shape it claims to
/// produce. For eagerly-executed ops `expected_shape` always equals the
/// forward value's shape; on a [`Graph::shape_only`] tape it is the only
/// shape information there is.
#[derive(Debug, Clone)]
pub struct OpMeta {
    /// Stable op name (`"conv2d"`, `"add"`, ...); fused ops from other
    /// crates name themselves through [`Graph::custom_named`].
    pub op: &'static str,
    /// Tape positions this node reads. Must be complete for analyses to
    /// trace reachability.
    pub parents: Vec<VarId>,
    /// The output shape this node claims to produce.
    pub expected_shape: Vec<usize>,
    /// Scalar op attributes, e.g. `("stride", 2)` for a conv.
    pub attrs: Vec<(&'static str, usize)>,
    /// `/`-joined scope path active when the node was recorded, e.g.
    /// `"head16/conv3"`. Empty outside any scope.
    pub scope: String,
}

impl OpMeta {
    /// Looks up a scalar attribute by name.
    pub fn attr(&self, name: &str) -> Option<usize> {
        self.attrs.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Human-readable `scope/op` label for diagnostics.
    pub fn path(&self) -> String {
        if self.scope.is_empty() {
            self.op.to_string()
        } else {
            format!("{}/{}", self.scope, self.op)
        }
    }
}

/// Backward closure contract: `back(grad_out, values, grads)` must *add*
/// contributions into `grads[parent.index()]` for each of its parents and
/// must not touch any other entry. `values` is the full forward tape.
pub type BackFn = Box<dyn Fn(&Tensor, &[Tensor], &mut [Tensor])>;

/// Gradients produced by [`Graph::backward`], indexed by [`VarId`].
#[derive(Debug)]
pub struct Gradients {
    grads: Vec<Tensor>,
}

impl Gradients {
    /// Gradient of the loss with respect to the given node.
    pub fn get(&self, id: VarId) -> &Tensor {
        &self.grads[id.0]
    }
}

/// A single-use autodiff tape.
#[derive(Default)]
pub struct Graph {
    /// Forward values; always empty on a shape-only tape.
    values: Vec<Tensor>,
    backs: Vec<Option<BackFn>>,
    metas: Vec<OpMeta>,
    param_links: Vec<(VarId, ParamId, u64)>,
    scope_stack: Vec<String>,
    scope_path: String,
    shape_only: bool,
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.metas.len())
            .field("params", &self.param_links.len())
            .finish()
    }
}

impl Drop for Graph {
    /// Returns every forward buffer to the scratch arena so the next
    /// tape (the attack loop builds one per step) reuses the capacity
    /// instead of reallocating.
    fn drop(&mut self) {
        for t in self.values.drain(..) {
            crate::arena::recycle(t.into_vec());
        }
    }
}

impl Drop for Gradients {
    /// Gradient buffers are recycled like forward buffers; consumers
    /// copy what they keep (`write_grads` accumulates into the
    /// `ParamSet`), so nothing aliases these by the time we drop.
    fn drop(&mut self) {
        for t in self.grads.drain(..) {
            crate::arena::recycle(t.into_vec());
        }
    }
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty *shape-only* tape. No kernel runs on it: `input`,
    /// `param`, `conv2d`, `add_bias_channel`, both batch norms,
    /// `leaky_relu`, `relu`, `sigmoid`, `max_pool2d`,
    /// `upsample_nearest2x`, `concat_channels`, `reshape` and `linear`
    /// record their metadata and the output shape they claim, without
    /// asserting that their inputs fit, so a mis-wired network traces to
    /// the end and `rd-analysis` shape validation can name every bad
    /// layer. Any other op panics naming itself, and so does
    /// [`Graph::value`].
    pub fn shape_only() -> Self {
        let mut g = Self::default();
        g.shape_only = true;
        g
    }

    /// Whether this is a [`Graph::shape_only`] tape.
    pub(crate) fn is_shape_only(&self) -> bool {
        self.shape_only
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Forward value of a node.
    ///
    /// # Panics
    ///
    /// Panics on a shape-only tape, whose nodes have no value.
    pub fn value(&self, id: VarId) -> &Tensor {
        assert!(
            !self.shape_only,
            "Graph::value: node {} is on a shape-only tape and has no value",
            id.0
        );
        &self.values[id.0]
    }

    /// Shape of a node: its value's shape on an eager tape, the claimed
    /// shape on a shape-only one.
    pub fn shape(&self, id: VarId) -> &[usize] {
        &self.metas[id.0].expected_shape
    }

    /// Recorded metadata of a node.
    pub fn meta(&self, id: VarId) -> &OpMeta {
        &self.metas[id.0]
    }

    /// Metadata of every node, in tape order.
    pub fn metas(&self) -> &[OpMeta] {
        &self.metas
    }

    /// Whether the node has a backward closure (leaves and explicit
    /// gradient stops do not).
    pub fn has_back(&self, id: VarId) -> bool {
        self.backs[id.0].is_some()
    }

    /// The `(node, parameter, param-set uid)` links recorded by
    /// [`Graph::param`], in registration order.
    pub fn param_links(&self) -> &[(VarId, ParamId, u64)] {
        &self.param_links
    }

    /// Enters a named scope; nodes recorded until the matching
    /// [`Graph::pop_scope`] carry `.../name` in their [`OpMeta::scope`].
    pub fn push_scope(&mut self, name: &str) {
        self.scope_stack.push(name.to_string());
        self.scope_path = self.scope_stack.join("/");
    }

    /// Leaves the innermost scope.
    pub fn pop_scope(&mut self) {
        self.scope_stack.pop();
        self.scope_path = self.scope_stack.join("/");
    }

    /// Runs `f` inside a named scope.
    ///
    /// SAFETY-adjacent note (this is *not* an `unsafe` block — the
    /// PR-6 audit found none in the workspace, and
    /// `unsafe_code = "deny"` in the workspace lints keeps it that
    /// way): this helper is merely *panic*-unsafe in that a panicking
    /// `f` skips the `pop_scope`, leaving the scope stack deeper than
    /// the caller entered with. That is harmless by construction —
    /// every `Graph` is single-use and is dropped when a panic unwinds
    /// past its owner, so no later op can observe the stale scope path.
    pub fn scoped<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.push_scope(name);
        let r = f(self);
        self.pop_scope();
        r
    }

    /// Panics on a shape-only tape: `op` has no shape-only form.
    pub(crate) fn eager(&self, op: &str) {
        assert!(!self.shape_only, "Graph::{op} has no shape-only form");
    }

    /// The shape-only node of an op whose output has the shape of its
    /// first parent.
    pub(crate) fn declare_like(
        &mut self,
        op: &'static str,
        parents: &[VarId],
        attrs: &[(&'static str, usize)],
    ) -> VarId {
        let shape = self.shape(parents[0]).to_vec();
        self.declare(op, parents, attrs, &shape)
    }

    /// Internal append: every eager op funnels through here so the
    /// metadata tape stays in lockstep with the value tape.
    pub(crate) fn record(
        &mut self,
        op: &'static str,
        parents: &[VarId],
        attrs: &[(&'static str, usize)],
        value: Tensor,
        back: Option<BackFn>,
    ) -> VarId {
        let meta = OpMeta {
            op,
            parents: parents.to_vec(),
            expected_shape: value.shape().to_vec(),
            attrs: attrs.to_vec(),
            scope: self.scope_path.clone(),
        };
        if crate::profile::enabled() {
            // Forward timing is gap attribution: the value was computed
            // just before this call, so the elapsed time since the last
            // recorded op belongs to this op. Leaves re-mark without
            // charging so host-side work between tape touches (render,
            // sampling) is not misattributed to a tensor op.
            match op {
                "input" | "param" => crate::profile::mark(),
                _ => crate::profile::note_forward(&meta.path()),
            }
        }
        self.values.push(value);
        self.backs.push(back);
        self.metas.push(meta);
        VarId(self.values.len() - 1)
    }

    /// Appends a fused op node with full metadata. This is the extension
    /// point for fused ops defined in other crates (e.g. the detector's
    /// YOLO loss): a stable `op` name, the complete list of tape positions
    /// the closure reads, and any scalar attributes worth surfacing in
    /// diagnostics. `back` receives the output gradient, the full value
    /// tape and the mutable gradient tape, and must accumulate into its
    /// parents' entries only.
    pub fn custom_named(
        &mut self,
        op: &'static str,
        parents: &[VarId],
        attrs: &[(&'static str, usize)],
        value: Tensor,
        back: Option<BackFn>,
    ) -> VarId {
        self.eager(op);
        self.record(op, parents, attrs, value, back)
    }

    /// Appends a node to a shape-only tape: metadata claiming `shape`,
    /// with no value and no backward. The shape-only forms of the ops
    /// are built on it; analysis tests use it to write a tape by hand.
    ///
    /// # Panics
    ///
    /// Panics on an eager tape.
    pub fn declare(
        &mut self,
        op: &'static str,
        parents: &[VarId],
        attrs: &[(&'static str, usize)],
        shape: &[usize],
    ) -> VarId {
        assert!(
            self.shape_only,
            "Graph::declare({op}) needs a shape-only tape (Graph::shape_only)"
        );
        self.backs.push(None);
        self.metas.push(OpMeta {
            op,
            parents: parents.to_vec(),
            expected_shape: shape.to_vec(),
            attrs: attrs.to_vec(),
            scope: self.scope_path.clone(),
        });
        VarId(self.metas.len() - 1)
    }

    /// Registers an input/constant leaf (gradients are still tracked so
    /// adversarial attacks can differentiate with respect to inputs).
    /// A shape-only tape keeps only the value's shape.
    pub fn input(&mut self, value: Tensor) -> VarId {
        if self.shape_only {
            return self.declare("input", &[], &[], value.shape());
        }
        self.record("input", &[], &[], value, None)
    }

    /// Registers a parameter leaf linked back to `ps`, carrying its id
    /// as the `pid` attr.
    pub fn param(&mut self, ps: &ParamSet, id: ParamId) -> VarId {
        let attrs = [("pid", id.index())];
        let value = ps.get(id).value();
        let v = if self.shape_only {
            self.declare("param", &[], &attrs, value.shape())
        } else {
            self.record("param", &[], &attrs, value.clone(), None)
        };
        self.param_links.push((v, id, ps.uid()));
        v
    }

    /// Runs reverse-mode differentiation from `loss` (which must be a
    /// single-element tensor).
    ///
    /// # Panics
    ///
    /// Panics if `loss` holds more than one element.
    pub fn backward(&self, loss: VarId) -> Gradients {
        self.eager("backward");
        assert_eq!(
            self.values[loss.0].len(),
            1,
            "backward() needs a scalar loss"
        );
        let mut grads: Vec<Tensor> = self
            .values
            .iter()
            .map(|v| Tensor::zeros(v.shape()))
            .collect();
        grads[loss.0] = Tensor::ones(self.values[loss.0].shape());
        let profiling = crate::profile::enabled();
        for i in (0..=loss.0).rev() {
            if self.backs[i].is_none() {
                continue;
            }
            if grads[i].data().iter().all(|&x| x == 0.0) {
                continue;
            }
            let g = std::mem::replace(&mut grads[i], Tensor::scalar(0.0));
            if let Some(back) = &self.backs[i] {
                if profiling {
                    let t0 = std::time::Instant::now();
                    back(&g, &self.values, &mut grads);
                    let key = format!("{}/bwd", self.metas[i].path());
                    crate::profile::add_sample(&key, t0.elapsed().as_nanos() as u64);
                } else {
                    back(&g, &self.values, &mut grads);
                }
            }
            grads[i] = g;
        }
        Gradients { grads }
    }

    /// Consumes the tape and moves out the forward value of `id`
    /// without cloning it; every other buffer on the tape is recycled
    /// into the scratch arena by `Drop`.
    pub fn into_value(mut self, id: VarId) -> Tensor {
        self.eager("into_value");
        std::mem::replace(&mut self.values[id.0], Tensor::scalar(0.0))
    }

    /// Accumulates parameter gradients into their [`ParamSet`]. Links
    /// belonging to *other* parameter sets (e.g. a frozen co-model in the
    /// same graph) are skipped, so call this once per trainable set.
    pub fn write_grads(&self, grads: &Gradients, ps: &mut ParamSet) {
        for &(var, pid, uid) in &self.param_links {
            if uid == ps.uid() {
                ps.get_mut(pid)
                    .grad_mut()
                    .add_scaled_assign(grads.get(var), 1.0);
            }
        }
    }

    // ---- pointwise and structural ops ----

    /// Elementwise sum of two same-shaped nodes.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        self.eager("add");
        let v = self.values[a.0].add(&self.values[b.0]);
        self.record(
            "add",
            &[a, b],
            &[],
            v,
            Some(Box::new(move |g, _vals, grads| {
                grads[a.0].add_scaled_assign(g, 1.0);
                grads[b.0].add_scaled_assign(g, 1.0);
            })),
        )
    }

    /// Elementwise difference `a - b`.
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        self.eager("sub");
        let v = self.values[a.0].sub(&self.values[b.0]);
        self.record(
            "sub",
            &[a, b],
            &[],
            v,
            Some(Box::new(move |g, _vals, grads| {
                grads[a.0].add_scaled_assign(g, 1.0);
                grads[b.0].add_scaled_assign(g, -1.0);
            })),
        )
    }

    /// Elementwise product of two same-shaped nodes.
    pub fn mul(&mut self, a: VarId, b: VarId) -> VarId {
        self.eager("mul");
        let v = self.values[a.0].mul(&self.values[b.0]);
        self.record(
            "mul",
            &[a, b],
            &[],
            v,
            Some(Box::new(move |g, vals, grads| {
                let ga = g.mul(&vals[b.0]);
                let gb = g.mul(&vals[a.0]);
                grads[a.0].add_scaled_assign(&ga, 1.0);
                grads[b.0].add_scaled_assign(&gb, 1.0);
            })),
        )
    }

    /// Multiplies a node by a constant scalar.
    pub fn scale(&mut self, a: VarId, c: f32) -> VarId {
        self.eager("scale");
        let v = self.values[a.0].scale(c);
        self.record(
            "scale",
            &[a],
            &[],
            v,
            Some(Box::new(move |g, _vals, grads| {
                grads[a.0].add_scaled_assign(g, c);
            })),
        )
    }

    /// Adds a constant scalar to every element.
    pub fn add_scalar(&mut self, a: VarId, c: f32) -> VarId {
        self.eager("add_scalar");
        let v = self.values[a.0].map(|x| x + c);
        self.record(
            "add_scalar",
            &[a],
            &[],
            v,
            Some(Box::new(move |g, _vals, grads| {
                grads[a.0].add_scaled_assign(g, 1.0);
            })),
        )
    }

    /// Elementwise product with a constant tensor (e.g. a fixed mask).
    pub fn mul_const(&mut self, a: VarId, t: &Tensor) -> VarId {
        self.eager("mul_const");
        let v = self.values[a.0].mul(t);
        let t = t.clone();
        self.record(
            "mul_const",
            &[a],
            &[],
            v,
            Some(Box::new(move |g, _vals, grads| {
                let ga = g.mul(&t);
                grads[a.0].add_scaled_assign(&ga, 1.0);
            })),
        )
    }

    /// Elementwise sum with a constant tensor.
    pub fn add_const(&mut self, a: VarId, t: &Tensor) -> VarId {
        self.eager("add_const");
        let v = self.values[a.0].add(t);
        self.record(
            "add_const",
            &[a],
            &[],
            v,
            Some(Box::new(move |g, _vals, grads| {
                grads[a.0].add_scaled_assign(g, 1.0);
            })),
        )
    }

    /// Mask interpolation `a * (1 - m) + b * m` with a constant mask `m`.
    ///
    /// This is the differentiable patch-compositing primitive: `a` is the
    /// scene, `b` the (warped) decal and `m` its alpha mask.
    pub fn lerp_mask(&mut self, a: VarId, b: VarId, mask: &Tensor) -> VarId {
        self.eager("lerp_mask");
        assert_eq!(self.values[a.0].shape(), self.values[b.0].shape());
        assert_eq!(self.values[a.0].shape(), mask.shape());
        let va = &self.values[a.0];
        let vb = &self.values[b.0];
        let mut out = va.clone();
        for ((o, &bv), &m) in out.data_mut().iter_mut().zip(vb.data()).zip(mask.data()) {
            *o = *o * (1.0 - m) + bv * m;
        }
        let mask = mask.clone();
        self.record(
            "lerp_mask",
            &[a, b],
            &[],
            out,
            Some(Box::new(move |g, _vals, grads| {
                for ((ga, &gv), &m) in grads[a.0]
                    .data_mut()
                    .iter_mut()
                    .zip(g.data())
                    .zip(mask.data())
                {
                    *ga += gv * (1.0 - m);
                }
                for ((gb, &gv), &m) in grads[b.0]
                    .data_mut()
                    .iter_mut()
                    .zip(g.data())
                    .zip(mask.data())
                {
                    *gb += gv * m;
                }
            })),
        )
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: VarId) -> VarId {
        if self.shape_only {
            return self.declare_like("relu", &[a], &[]);
        }
        let x = &self.values[a.0];
        let mut v = Tensor::zeros(x.shape());
        relu_forward(x.data(), v.data_mut());
        self.record(
            "relu",
            &[a],
            &[],
            v,
            Some(Box::new(move |g, vals, grads| {
                let ga = g.zip_map(&vals[a.0], |gv, x| if x > 0.0 { gv } else { 0.0 });
                grads[a.0].add_scaled_assign(&ga, 1.0);
            })),
        )
    }

    /// Leaky rectified linear unit with negative slope `alpha`, carried
    /// as the `alpha_bits` attr.
    pub fn leaky_relu(&mut self, a: VarId, alpha: f32) -> VarId {
        let attrs = [("alpha_bits", alpha.to_bits() as usize)];
        if self.shape_only {
            return self.declare_like("leaky_relu", &[a], &attrs);
        }
        let x = &self.values[a.0];
        let mut v = Tensor::zeros(x.shape());
        leaky_forward(x.data(), alpha, v.data_mut());
        self.record(
            "leaky_relu",
            &[a],
            &attrs,
            v,
            Some(Box::new(move |g, vals, grads| {
                leaky_backward(g.data(), vals[a.0].data(), alpha, grads[a.0].data_mut());
            })),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: VarId) -> VarId {
        if self.shape_only {
            return self.declare_like("sigmoid", &[a], &[]);
        }
        let x = &self.values[a.0];
        let mut v = Tensor::zeros(x.shape());
        sigmoid_forward(x.data(), v.data_mut());
        let out = self.record("sigmoid", &[a], &[], v, None);
        let o = out.0;
        self.backs[o] = Some(Box::new(move |g, vals, grads| {
            let y = &vals[o];
            let ga = g.zip_map(y, |gv, yv| gv * yv * (1.0 - yv));
            grads[a.0].add_scaled_assign(&ga, 1.0);
        }));
        out
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: VarId) -> VarId {
        self.eager("tanh");
        let v = self.values[a.0].map(f32::tanh);
        let out = self.record("tanh", &[a], &[], v, None);
        let o = out.0;
        self.backs[o] = Some(Box::new(move |g, vals, grads| {
            let y = &vals[o];
            let ga = g.zip_map(y, |gv, yv| gv * (1.0 - yv * yv));
            grads[a.0].add_scaled_assign(&ga, 1.0);
        }));
        out
    }

    /// Elementwise power with a constant exponent, `max(x, eps)^p`.
    ///
    /// Inputs are clamped to `eps = 1e-6` from below so gamma correction of
    /// near-black pixels stays finite in both directions.
    pub fn powf_const(&mut self, a: VarId, p: f32) -> VarId {
        self.eager("powf_const");
        const EPS: f32 = 1e-6;
        let v = self.values[a.0].map(|x| x.max(EPS).powf(p));
        self.record(
            "powf_const",
            &[a],
            &[],
            v,
            Some(Box::new(move |g, vals, grads| {
                let ga = g.zip_map(&vals[a.0], |gv, x| {
                    let xc = x.max(EPS);
                    gv * p * xc.powf(p - 1.0)
                });
                grads[a.0].add_scaled_assign(&ga, 1.0);
            })),
        )
    }

    /// Clamps every element to `[lo, hi]`; gradient passes only inside.
    pub fn clamp(&mut self, a: VarId, lo: f32, hi: f32) -> VarId {
        self.eager("clamp");
        let v = self.values[a.0].map(|x| x.clamp(lo, hi));
        self.record(
            "clamp",
            &[a],
            &[],
            v,
            Some(Box::new(move |g, vals, grads| {
                let ga = g.zip_map(&vals[a.0], |gv, x| if x > lo && x < hi { gv } else { 0.0 });
                grads[a.0].add_scaled_assign(&ga, 1.0);
            })),
        )
    }

    /// Reinterprets the node with a new shape of equal element count.
    pub fn reshape(&mut self, a: VarId, shape: &[usize]) -> VarId {
        if self.shape_only {
            return self.declare("reshape", &[a], &[], shape);
        }
        let v = self.values[a.0].clone().reshape(shape);
        let old_shape = self.values[a.0].shape().to_vec();
        self.record(
            "reshape",
            &[a],
            &[],
            v,
            Some(Box::new(move |g, _vals, grads| {
                let gr = g.clone().reshape(&old_shape);
                grads[a.0].add_scaled_assign(&gr, 1.0);
            })),
        )
    }

    /// Repeats a single-channel NCHW node `k` times along the channel axis.
    pub fn repeat_channels(&mut self, a: VarId, k: usize) -> VarId {
        self.eager("repeat_channels");
        let x = &self.values[a.0];
        assert_eq!(x.shape().len(), 4, "repeat_channels needs NCHW");
        assert_eq!(x.shape()[1], 1, "repeat_channels input must have 1 channel");
        let (n, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let hw = h * w;
        let mut out = Tensor::zeros(&[n, k, h, w]);
        for i in 0..n {
            let src = &x.data()[i * hw..(i + 1) * hw];
            for c in 0..k {
                let off = (i * k + c) * hw;
                out.data_mut()[off..off + hw].copy_from_slice(src);
            }
        }
        self.record(
            "repeat_channels",
            &[a],
            &[("k", k)],
            out,
            Some(Box::new(move |g, _vals, grads| {
                let ga = &mut grads[a.0];
                for i in 0..n {
                    for c in 0..k {
                        let off = (i * k + c) * hw;
                        for j in 0..hw {
                            ga.data_mut()[i * hw + j] += g.data()[off + j];
                        }
                    }
                }
            })),
        )
    }

    /// Concatenates two NCHW nodes along the channel axis.
    pub fn concat_channels(&mut self, a: VarId, b: VarId) -> VarId {
        if self.shape_only {
            let (sa, sb) = (self.shape(a), self.shape(b));
            let shape = [sa[0], sa[1] + sb[1], sa[2], sa[3]];
            return self.declare("concat_channels", &[a, b], &[], &shape);
        }
        let (xa, xb) = (&self.values[a.0], &self.values[b.0]);
        assert_eq!(xa.shape().len(), 4);
        assert_eq!(xb.shape().len(), 4);
        let (n, ca, h, w) = (xa.shape()[0], xa.shape()[1], xa.shape()[2], xa.shape()[3]);
        let cb = xb.shape()[1];
        assert_eq!(&xb.shape()[2..], &[h, w], "spatial dims must match");
        assert_eq!(xb.shape()[0], n, "batch dims must match");
        let (la, lb) = (ca * h * w, cb * h * w);
        let mut out = Tensor::zeros(&[n, ca + cb, h, w]);
        concat_forward(xa.data(), xb.data(), la, lb, out.data_mut());
        self.record(
            "concat_channels",
            &[a, b],
            &[],
            out,
            Some(Box::new(move |g, _vals, grads| {
                concat_backward(g.data(), 0, la, la + lb, grads[a.0].data_mut());
                concat_backward(g.data(), la, lb, la + lb, grads[b.0].data_mut());
            })),
        )
    }

    /// Concatenates nodes along the batch (first) axis. All inputs must
    /// share their remaining dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or trailing dimensions differ.
    pub fn concat_batch(&mut self, parts: &[VarId]) -> VarId {
        self.eager("concat_batch");
        assert!(!parts.is_empty(), "concat_batch needs at least one node");
        let first_shape = self.values[parts[0].0].shape().to_vec();
        assert!(!first_shape.is_empty());
        let item_rest: Vec<usize> = first_shape[1..].to_vec();
        let mut total_n = 0usize;
        let mut sizes = Vec::with_capacity(parts.len());
        for &p in parts {
            let sh = self.values[p.0].shape();
            assert_eq!(
                &sh[1..],
                &item_rest[..],
                "concat_batch trailing dims differ"
            );
            total_n += sh[0];
            sizes.push(self.values[p.0].len());
        }
        let mut shape = vec![total_n];
        shape.extend_from_slice(&item_rest);
        let mut data = Vec::with_capacity(shape.iter().product());
        for &p in parts {
            data.extend_from_slice(self.values[p.0].data());
        }
        let out = Tensor::from_vec(data, &shape);
        let parent_ids = parts;
        let parts = parts.to_vec();
        self.record(
            "concat_batch",
            parent_ids,
            &[],
            out,
            Some(Box::new(move |g, _vals, grads| {
                let mut off = 0usize;
                for (&p, &len) in parts.iter().zip(&sizes) {
                    let gp = &mut grads[p.0];
                    for (dst, &src) in gp.data_mut().iter_mut().zip(&g.data()[off..off + len]) {
                        *dst += src;
                    }
                    off += len;
                }
            })),
        )
    }

    /// Sum of all elements, producing a scalar node.
    pub fn sum_all(&mut self, a: VarId) -> VarId {
        self.eager("sum_all");
        let v = Tensor::scalar(self.values[a.0].sum());
        self.record(
            "sum_all",
            &[a],
            &[],
            v,
            Some(Box::new(move |g, _vals, grads| {
                let gv = g.data()[0];
                for x in grads[a.0].data_mut() {
                    *x += gv;
                }
            })),
        )
    }

    /// Mean of all elements, producing a scalar node.
    pub fn mean_all(&mut self, a: VarId) -> VarId {
        self.eager("mean_all");
        let n = self.values[a.0].len() as f32;
        let v = Tensor::scalar(self.values[a.0].mean());
        self.record(
            "mean_all",
            &[a],
            &[],
            v,
            Some(Box::new(move |g, _vals, grads| {
                let gv = g.data()[0] / n;
                for x in grads[a.0].data_mut() {
                    *x += gv;
                }
            })),
        )
    }

    /// Matrix product of two rank-2 nodes.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        self.eager("matmul");
        let v = self.values[a.0].matmul(&self.values[b.0]);
        self.record(
            "matmul",
            &[a, b],
            &[],
            v,
            Some(Box::new(move |g, vals, grads| {
                let ga = g.matmul(&vals[b.0].transpose2d());
                let gb = vals[a.0].transpose2d().matmul(g);
                grads[a.0].add_scaled_assign(&ga, 1.0);
                grads[b.0].add_scaled_assign(&gb, 1.0);
            })),
        )
    }

    /// Fully connected layer `y = x w^T + b` for `x: [N, I]`, `w: [O, I]`,
    /// `b: [O]`.
    pub fn linear(&mut self, x: VarId, w: VarId, b: VarId) -> VarId {
        if self.shape_only {
            let shape = [self.shape(x)[0], self.shape(w)[0]];
            return self.declare("linear", &[x, w, b], &[], &shape);
        }
        let xv = &self.values[x.0];
        let wv = &self.values[w.0];
        let bv = &self.values[b.0];
        assert_eq!(xv.shape().len(), 2);
        assert_eq!(wv.shape().len(), 2);
        let (n, i) = (xv.shape()[0], xv.shape()[1]);
        let (o, i2) = (wv.shape()[0], wv.shape()[1]);
        assert_eq!(i, i2, "linear: input dim mismatch");
        assert_eq!(bv.len(), o, "linear: bias dim mismatch");
        let mut v = Tensor::zeros(&[n, o]);
        let wt = wv.transpose2d();
        linear_forward(xv.data(), wt.data(), bv.data(), n, i, o, v.data_mut());
        self.record(
            "linear",
            &[x, w, b],
            &[],
            v,
            Some(Box::new(move |g, vals, grads| {
                let gx = g.matmul(&vals[w.0]);
                grads[x.0].add_scaled_assign(&gx, 1.0);
                let gw = g.transpose2d().matmul(&vals[x.0]);
                grads[w.0].add_scaled_assign(&gw, 1.0);
                let gb = &mut grads[b.0];
                for r in 0..n {
                    for c in 0..o {
                        gb.data_mut()[c] += g.data()[r * o + c];
                    }
                }
            })),
        )
    }

    /// Adds a per-channel bias `b: [C]` to an NCHW node.
    pub fn add_bias_channel(&mut self, x: VarId, b: VarId) -> VarId {
        if self.shape_only {
            return self.declare_like("add_bias_channel", &[x, b], &[]);
        }
        let xv = &self.values[x.0];
        let bv = &self.values[b.0];
        assert_eq!(xv.shape().len(), 4);
        let (c, hw) = (xv.shape()[1], xv.shape()[2] * xv.shape()[3]);
        assert_eq!(bv.len(), c, "bias length must equal channel count");
        let mut v = xv.clone();
        conv_epilogue(v.data_mut(), c, hw, Some(bv.data()), None, Act::None);
        self.record(
            "add_bias_channel",
            &[x, b],
            &[],
            v,
            Some(Box::new(move |g, _vals, grads| {
                grads[x.0].add_scaled_assign(g, 1.0);
                bias_grad(g.data(), c, hw, grads[b.0].data_mut());
            })),
        )
    }
}

// ---------------------------------------------------------------------------
// Kernels: the one spelling of these ops' arithmetic. The tape ops above
// call all of them; `TrainPlan` and `InferPlan` call the leaky and concat
// kernels (relu, sigmoid and linear run on the tape only).
// ---------------------------------------------------------------------------

/// Leaky ReLU, `x > 0 ? x : α·x`.
#[inline]
pub(crate) fn leaky(x: f32, alpha: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        alpha * x
    }
}

/// ReLU, `max(x, 0)`.
#[inline]
fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// `out[i] = leaky(x[i])`.
pub(crate) fn leaky_forward(x: &[f32], alpha: f32, out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o = leaky(v, alpha);
    }
}

/// `out[i] = relu(x[i])`.
fn relu_forward(x: &[f32], out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o = relu(v);
    }
}

/// `out[i] = 1 / (1 + exp(−x[i]))`.
fn sigmoid_forward(x: &[f32], out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(x) {
        *o = 1.0 / (1.0 + (-v).exp());
    }
}

/// Leaky ReLU backward from the input's sign:
/// `gx[i] += x[i] > 0 ? g[i] : α·g[i]`.
pub(crate) fn leaky_backward(g: &[f32], x: &[f32], alpha: f32, gx: &mut [f32]) {
    for ((d, &gv), &xv) in gx.iter_mut().zip(g).zip(x) {
        *d += if xv > 0.0 { gv } else { alpha * gv };
    }
}

/// Channel concat forward: per sample, `a`'s `la` values, then `b`'s
/// `lb`.
pub(crate) fn concat_forward(a: &[f32], b: &[f32], la: usize, lb: usize, out: &mut [f32]) {
    for ((o, sa), sb) in out.chunks_mut(la + lb).zip(a.chunks(la)).zip(b.chunks(lb)) {
        o[..la].copy_from_slice(sa);
        o[la..].copy_from_slice(sb);
    }
}

/// Channel concat backward of one input: adds values `[off, off + len)`
/// of each sample's `total`-long output gradient into that input's
/// gradient `g`, sample by sample.
pub(crate) fn concat_backward(gout: &[f32], off: usize, len: usize, total: usize, g: &mut [f32]) {
    for (gs, src) in g.chunks_mut(len).zip(gout.chunks(total)) {
        for (d, &v) in gs.iter_mut().zip(&src[off..off + len]) {
            *d += v;
        }
    }
}

/// Linear layer forward for `n` rows: `out = x × wt`, with `wt` the
/// transposed weight (`in_dim × out_dim`), then each row's bias.
fn linear_forward(
    x: &[f32],
    wt: &[f32],
    b: &[f32],
    n: usize,
    in_dim: usize,
    out_dim: usize,
    out: &mut [f32],
) {
    exact_gemm(x, wt, out, n, in_dim, out_dim);
    for row in out.chunks_mut(out_dim) {
        for (o, &bv) in row.iter_mut().zip(b) {
            *o += bv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::numeric_grad;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_unary(op: impl Fn(&mut Graph, VarId) -> VarId, x0: Tensor, tol: f32) {
        let mut g = Graph::new();
        let x = g.input(x0.clone());
        let y = op(&mut g, x);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        let num = numeric_grad(
            |t| {
                let mut g = Graph::new();
                let x = g.input(t.clone());
                let y = op(&mut g, x);
                let loss = g.sum_all(y);
                g.value(loss).data()[0]
            },
            &x0,
            1e-3,
        );
        for (a, n) in grads.get(x).data().iter().zip(num.data()) {
            assert!((a - n).abs() < tol, "analytic {a} vs numeric {n}");
        }
    }

    #[test]
    fn grad_sigmoid() {
        check_unary(
            |g, x| g.sigmoid(x),
            Tensor::from_vec(vec![0.3, -1.2, 2.0, 0.0], &[4]),
            1e-3,
        );
    }

    #[test]
    fn grad_tanh() {
        check_unary(
            |g, x| g.tanh(x),
            Tensor::from_vec(vec![0.3, -1.2, 2.0, 0.0], &[4]),
            1e-3,
        );
    }

    #[test]
    fn grad_leaky_relu() {
        check_unary(
            |g, x| g.leaky_relu(x, 0.1),
            Tensor::from_vec(vec![0.5, -0.5, 2.0, -2.0], &[4]),
            1e-3,
        );
    }

    #[test]
    fn grad_powf() {
        check_unary(
            |g, x| g.powf_const(x, 1.7),
            Tensor::from_vec(vec![0.5, 0.9, 0.1, 0.3], &[4]),
            1e-2,
        );
    }

    #[test]
    fn grad_mul_and_add() {
        let mut g = Graph::new();
        let a0 = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b0 = Tensor::from_vec(vec![3.0, -4.0], &[2]);
        let a = g.input(a0);
        let b = g.input(b0);
        let p = g.mul(a, b);
        let s = g.add(p, a);
        let loss = g.sum_all(s);
        let grads = g.backward(loss);
        // d/da (a*b + a) = b + 1 ; d/db = a
        assert_eq!(grads.get(a).data(), &[4.0, -3.0]);
        assert_eq!(grads.get(b).data(), &[1.0, 2.0]);
    }

    #[test]
    fn grad_linear_matches_numeric() {
        let mut rng = StdRng::seed_from_u64(11);
        let x0 = Tensor::randn(&mut rng, &[3, 4], 1.0);
        let w0 = Tensor::randn(&mut rng, &[2, 4], 1.0);
        let b0 = Tensor::randn(&mut rng, &[2], 1.0);
        let run = |x0: &Tensor, w0: &Tensor, b0: &Tensor| -> (f32, Option<Gradients>, Vec<VarId>) {
            let mut g = Graph::new();
            let x = g.input(x0.clone());
            let w = g.input(w0.clone());
            let b = g.input(b0.clone());
            let y = g.linear(x, w, b);
            let y2 = g.mul(y, y);
            let loss = g.sum_all(y2);
            let grads = g.backward(loss);
            let l = g.value(loss).data()[0];
            (l, Some(grads), vec![x, w, b])
        };
        let (_, grads, vars) = run(&x0, &w0, &b0);
        let grads = grads.unwrap();
        let numw = numeric_grad(|w| run(&x0, w, &b0).0, &w0, 1e-3);
        for (a, n) in grads.get(vars[1]).data().iter().zip(numw.data()) {
            assert!((a - n).abs() < 0.05, "analytic {a} vs numeric {n}");
        }
        let numb = numeric_grad(|b| run(&x0, &w0, b).0, &b0, 1e-3);
        for (a, n) in grads.get(vars[2]).data().iter().zip(numb.data()) {
            assert!((a - n).abs() < 0.05, "analytic {a} vs numeric {n}");
        }
    }

    #[test]
    fn grad_matmul() {
        let mut rng = StdRng::seed_from_u64(5);
        let a0 = Tensor::randn(&mut rng, &[2, 3], 1.0);
        let b0 = Tensor::randn(&mut rng, &[3, 2], 1.0);
        let mut g = Graph::new();
        let a = g.input(a0.clone());
        let b = g.input(b0.clone());
        let c = g.matmul(a, b);
        let loss = g.sum_all(c);
        let grads = g.backward(loss);
        let num = numeric_grad(
            |t| {
                let mut g = Graph::new();
                let a = g.input(t.clone());
                let b = g.input(b0.clone());
                let c = g.matmul(a, b);
                let loss = g.sum_all(c);
                g.value(loss).data()[0]
            },
            &a0,
            1e-3,
        );
        for (x, n) in grads.get(a).data().iter().zip(num.data()) {
            assert!((x - n).abs() < 1e-2);
        }
    }

    #[test]
    fn grad_lerp_mask() {
        let a0 = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let b0 = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[1, 1, 2, 2]);
        let m = Tensor::from_vec(vec![0.0, 0.25, 0.75, 1.0], &[1, 1, 2, 2]);
        let mut g = Graph::new();
        let a = g.input(a0);
        let b = g.input(b0);
        let o = g.lerp_mask(a, b, &m);
        assert_eq!(g.value(o).data(), &[1.0, 3.0, 6.0, 8.0]);
        let loss = g.sum_all(o);
        let grads = g.backward(loss);
        assert_eq!(grads.get(a).data(), &[1.0, 0.75, 0.25, 0.0]);
        assert_eq!(grads.get(b).data(), &[0.0, 0.25, 0.75, 1.0]);
    }

    #[test]
    fn grad_repeat_channels() {
        let x0 = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let mut g = Graph::new();
        let x = g.input(x0);
        let y = g.repeat_channels(x, 3);
        assert_eq!(g.value(y).shape(), &[1, 3, 2, 2]);
        assert_eq!(g.value(y).at4(0, 2, 1, 1), 4.0);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert_eq!(grads.get(x).data(), &[3.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn grad_concat_channels() {
        let a0 = Tensor::ones(&[2, 2, 2, 2]);
        let b0 = Tensor::full(&[2, 1, 2, 2], 5.0);
        let mut g = Graph::new();
        let a = g.input(a0);
        let b = g.input(b0);
        let c = g.concat_channels(a, b);
        assert_eq!(g.value(c).shape(), &[2, 3, 2, 2]);
        assert_eq!(g.value(c).at4(1, 2, 0, 0), 5.0);
        assert_eq!(g.value(c).at4(1, 1, 0, 0), 1.0);
        let s = g.sum_all(c);
        let grads = g.backward(s);
        assert!(grads.get(a).data().iter().all(|&x| x == 1.0));
        assert!(grads.get(b).data().iter().all(|&x| x == 1.0));
    }

    #[test]
    fn grad_bias_channel() {
        let x0 = Tensor::zeros(&[2, 3, 2, 2]);
        let b0 = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let mut g = Graph::new();
        let x = g.input(x0);
        let b = g.input(b0);
        let y = g.add_bias_channel(x, b);
        assert_eq!(g.value(y).at4(1, 2, 1, 1), 3.0);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        // each channel has N*H*W = 2*2*2 = 8 elements
        assert_eq!(grads.get(b).data(), &[8.0, 8.0, 8.0]);
    }

    #[test]
    fn param_grads_flow_to_paramset() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", Tensor::from_vec(vec![2.0, 3.0], &[2]));
        let mut g = Graph::new();
        let wv = g.param(&ps, w);
        let y = g.mul(wv, wv);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        g.write_grads(&grads, &mut ps);
        assert_eq!(ps.get(w).grad().data(), &[4.0, 6.0]);
        // accumulation: second write adds
        g.write_grads(&grads, &mut ps);
        assert_eq!(ps.get(w).grad().data(), &[8.0, 12.0]);
    }

    #[test]
    fn concat_batch_values_and_grads() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(vec![1.0, 2.0], &[1, 2]));
        let b = g.input(Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]));
        let c = g.concat_batch(&[a, b]);
        assert_eq!(g.value(c).shape(), &[3, 2]);
        assert_eq!(g.value(c).data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let c2 = g.mul(c, c);
        let loss = g.sum_all(c2);
        let grads = g.backward(loss);
        assert_eq!(grads.get(a).data(), &[2.0, 4.0]);
        assert_eq!(grads.get(b).data(), &[6.0, 8.0, 10.0, 12.0]);
    }

    #[test]
    fn grads_route_to_the_correct_param_set() {
        let mut trainable = ParamSet::new();
        let mut frozen = ParamSet::new();
        let w = trainable.register("w", Tensor::from_vec(vec![2.0], &[1]));
        let f = frozen.register("f", Tensor::from_vec(vec![3.0], &[1]));
        let mut g = Graph::new();
        let wv = g.param(&trainable, w);
        let fv = g.param(&frozen, f);
        let y = g.mul(wv, fv);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        g.write_grads(&grads, &mut trainable);
        assert_eq!(trainable.get(w).grad().data(), &[3.0]);
        // the frozen set was never written
        assert_eq!(frozen.get(f).grad().data(), &[0.0]);
        // and writing to it works independently
        g.write_grads(&grads, &mut frozen);
        assert_eq!(frozen.get(f).grad().data(), &[2.0]);
    }

    #[test]
    fn mean_all_scales_gradient() {
        let x0 = Tensor::ones(&[4]);
        let mut g = Graph::new();
        let x = g.input(x0);
        let m = g.mean_all(x);
        let grads = g.backward(m);
        assert!(grads.get(x).data().iter().all(|&v| (v - 0.25).abs() < 1e-7));
    }

    #[test]
    fn clamp_blocks_gradient_outside() {
        let x0 = Tensor::from_vec(vec![-2.0, 0.5, 2.0], &[3]);
        let mut g = Graph::new();
        let x = g.input(x0);
        let y = g.clamp(x, 0.0, 1.0);
        assert_eq!(g.value(y).data(), &[0.0, 0.5, 1.0]);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert_eq!(grads.get(x).data(), &[0.0, 1.0, 0.0]);
    }
}
