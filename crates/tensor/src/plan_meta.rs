//! Plan introspection: a plain-data description of a compiled plan.
//!
//! [`crate::InferPlan`] and [`crate::TrainPlan`] keep their op lists
//! private — the executors are the only code that should drive them.
//! Static analysis (the `rd-analysis` plan analyzer) still needs to see
//! a plan's structure: which slots each op reads and writes, which
//! [`crate::ParamId`]s it dereferences at execution time, how tape ops
//! were fused into each kernel, and the geometry that decides how the
//! worker-group fan-out tiles each buffer. [`PlanMeta`] is that view:
//! a fully public, plain-data lift of a compiled plan, produced without
//! executing anything by `InferPlan::meta()` / `TrainPlan::meta()` —
//! both the one `meta()` of the shared lowering in `crate::plan`, so
//! the two kinds differ only in [`PlanKind`], the path prefix,
//! `gx_direct` and `col_budget`.
//!
//! Every field is public and owned (no references into the plan), so a
//! consumer can freely reshape or *corrupt* a `PlanMeta` — the analyzer
//! mutation tests rely on exactly that to prove each lint fires.
//! Parameters are referenced by their [`ParamSet`](crate::ParamSet)
//! position (`usize`) rather than by [`crate::ParamId`] so that
//! downstream crates can construct and rewrite references.

/// Which compiled engine a [`PlanMeta`] was lifted from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// A grad-free [`crate::InferPlan`]: per-sample slots, each worker
    /// group owns a private buffer set.
    Infer,
    /// A gradient-capable [`crate::TrainPlan`]: full-batch slots, conv
    /// kernels fan out over per-group sample chunks of shared buffers.
    Train,
}

/// Role a parameter reference plays inside a (possibly fused) plan op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamRole {
    /// Convolution weight `[cout, cin, kh, kw]`.
    ConvWeight,
    /// Per-channel conv bias `[cout]`.
    ConvBias,
    /// Batch-norm scale `[c]`.
    BnGamma,
    /// Batch-norm shift `[c]`.
    BnBeta,
    /// Batch-norm running mean `[c]` (read in eval mode, written back
    /// by the caller's momentum fold in train mode).
    BnRunningMean,
    /// Batch-norm running variance `[c]`.
    BnRunningVar,
}

impl ParamRole {
    /// Short human-readable label (`weight`, `gamma`, ...).
    pub fn label(self) -> &'static str {
        match self {
            ParamRole::ConvWeight => "weight",
            ParamRole::ConvBias => "bias",
            ParamRole::BnGamma => "gamma",
            ParamRole::BnBeta => "beta",
            ParamRole::BnRunningMean => "running-mean",
            ParamRole::BnRunningVar => "running-var",
        }
    }
}

/// One parameter reference an op dereferences at execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamRef {
    /// What the parameter is used as.
    pub role: ParamRole,
    /// Position inside the [`ParamSet`](crate::ParamSet) the plan is
    /// executed against (`ParamId::index()`).
    pub index: usize,
}

/// Geometry of a (possibly fused) convolution op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    /// Spatial stride.
    pub stride: usize,
    /// Zero padding on each spatial border.
    pub pad: usize,
    /// Input channels.
    pub cin: usize,
    /// Input height.
    pub hin: usize,
    /// Input width.
    pub win: usize,
    /// Output channels.
    pub cout: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Output height.
    pub ho: usize,
    /// Output width.
    pub wo: usize,
}

impl ConvGeom {
    /// Per-sample im2col column-matrix element count (`cin*kh*kw * ho*wo`).
    pub fn cols_len(&self) -> usize {
        self.cin * self.kh * self.kw * self.ho * self.wo
    }
}

/// Plain-data description of one (possibly fused) plan op.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanOpMeta {
    /// Fused kernel name (`conv_bn_leaky`, `max_pool2d`, ...).
    pub name: String,
    /// Profile path (`infer/<scope>/<fused>` or `train/...`).
    pub path: String,
    /// Slots read by the op's forward pass, in parent order.
    pub reads: Vec<usize>,
    /// Slots written by the op's forward pass.
    pub writes: Vec<usize>,
    /// Parameters dereferenced at execution time.
    pub params: Vec<ParamRef>,
    /// The tape ops this kernel fuses, in execution order
    /// (e.g. `["conv2d", "batch_norm2d_eval", "leaky_relu"]`).
    pub fused: Vec<String>,
    /// Convolution geometry, when the op is a fused conv.
    pub conv: Option<ConvGeom>,
    /// Leaky-relu negative slope, when a leaky activation is involved
    /// (fused into a conv or standalone).
    pub alpha: Option<f32>,
    /// For batch-norm ops: `true` when batch statistics are used
    /// (training mode), `false` for running statistics (eval mode).
    pub bn_train: Option<bool>,
    /// Batch-norm epsilon, when a batch norm is involved.
    pub bn_eps: Option<f32>,
    /// Train plans only: whether the conv backward `col2im`-scatters
    /// straight into the input-slot gradient (sole consumer) instead of
    /// a temp + add pass. `None` for non-conv ops and infer plans.
    pub gx_direct: Option<bool>,
}

/// Per-sample size and shape of one activation slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotMeta {
    /// Flat per-sample length.
    pub len: usize,
    /// Per-sample shape, batch dim stripped.
    pub shape: Vec<usize>,
}

/// A fully public, plain-data description of a compiled plan: the op
/// list with def/use slot indices, parameter references, fusion
/// composition and geometry, plus the slot table. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanMeta {
    /// Which engine the plan drives.
    pub kind: PlanKind,
    /// Flat, topologically ordered op list.
    pub ops: Vec<PlanOpMeta>,
    /// Activation slot table.
    pub slots: Vec<SlotMeta>,
    /// Slot the batched input is copied into.
    pub input_slot: usize,
    /// Root slots, in root order.
    pub outputs: Vec<usize>,
    /// Train plans: the im2col column-cache budget in bytes.
    pub col_budget: Option<usize>,
}

impl PlanMeta {
    /// Number of fused conv ops in the plan.
    pub fn num_convs(&self) -> usize {
        self.ops.iter().filter(|o| o.conv.is_some()).count()
    }
}
