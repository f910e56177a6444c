//! Execution-tier selection for the compiled engines.
//!
//! The workspace runs its compiled plans ([`crate::InferPlan`] /
//! [`crate::TrainPlan`]) under one of two numeric contracts:
//!
//! * [`Tier::Reference`] — the scalar kernels whose f32 instruction
//!   sequence retraces the autodiff tape exactly. Compiled results are
//!   **bitwise identical** to the tape at any thread count. This is the
//!   default and the oracle every other tier is measured against.
//! * [`Tier::Fast`] — the [`crate::simd`] f32x8 microkernels (AVX2+FMA
//!   where the host supports it, a portable unrolled fallback
//!   otherwise). Results may diverge from the reference tier, but only
//!   within the static per-head ulp certificate emitted by
//!   `rd_analysis::bounds` for the `f32x8-fma` kernel model. The
//!   detector's tier tests hold the observed divergence under that
//!   certificate, and hold the trained smoke detector's decoded
//!   detections, mAP and PWC/CWC equal across tiers.
//!
//! The tier is fixed by the [`crate::RuntimeConfig::tier`] of the
//! [`crate::runtime::Runtime`] current at the call site
//! ([`crate::Runtime::tier`] reads it), so two concurrent runtimes can
//! run different tiers in one process. Plan compilation is
//! tier-independent. The autodiff tape itself always runs the reference
//! kernels — it is the oracle.

/// Which kernel family the compiled engines execute with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Scalar kernels, bitwise-identical to the tape (the default).
    Reference,
    /// f32x8 microkernels under the certified-ulp contract.
    Fast,
}

impl Tier {
    /// Stable label used in reports and bench JSON.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Reference => "reference",
            Tier::Fast => "fast",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_labels_are_stable() {
        assert_eq!(Tier::Reference.label(), "reference");
        assert_eq!(Tier::Fast.label(), "fast");
    }
}
