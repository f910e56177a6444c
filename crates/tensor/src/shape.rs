//! Checked output-shape arithmetic for conv lowerings.
//!
//! Model code used to compute claimed conv output dims with
//! `saturating_sub`, so a kernel larger than its (padded) input
//! silently produced `ho = 1`/`wo = 1` instead of failing — the bogus
//! shape then surfaced far downstream as a buffer-length mismatch (or
//! not at all). These helpers make the underflow a descriptive error
//! where a shape-only `conv2d` claims its shape; `rd_analysis`'s shape
//! validator additionally flags any claimed zero-sized dimension.

/// Checked conv/pool output dimension along one spatial axis:
/// `(in + 2·pad − kernel) / stride + 1`.
///
/// Returns a descriptive error when `kernel` is zero or larger than
/// the padded input, or when `stride` is zero — the cases the old
/// saturating arithmetic silently folded into a bogus `1`.
pub fn try_conv_out_dim(
    axis: &str,
    in_dim: usize,
    kernel: usize,
    pad: usize,
    stride: usize,
) -> Result<usize, String> {
    if stride == 0 {
        return Err(format!("conv {axis}: stride must be positive"));
    }
    if kernel == 0 {
        return Err(format!("conv {axis}: kernel must be positive"));
    }
    let padded = in_dim + 2 * pad;
    if padded < kernel {
        return Err(format!(
            "conv {axis}: kernel {kernel} larger than padded input {padded} \
             (input {in_dim} + 2·pad {pad}) — output dimension underflows"
        ));
    }
    Ok((padded - kernel) / stride + 1)
}

/// [`try_conv_out_dim`] for call sites with no error channel.
///
/// # Panics
///
/// Panics with the descriptive shape error on underflow.
pub fn conv_out_dim(axis: &str, in_dim: usize, kernel: usize, pad: usize, stride: usize) -> usize {
    match try_conv_out_dim(axis, in_dim, kernel, pad, stride) {
        Ok(d) => d,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_out_dim_matches_reference_formula() {
        assert_eq!(conv_out_dim("h", 13, 3, 1, 1), 13);
        assert_eq!(conv_out_dim("h", 13, 1, 0, 1), 13);
        assert_eq!(conv_out_dim("h", 13, 2, 0, 2), 6);
        assert_eq!(conv_out_dim("w", 32, 3, 1, 2), 16);
        assert_eq!(conv_out_dim("h", 3, 3, 0, 1), 1);
    }

    #[test]
    fn underflow_is_a_descriptive_error_not_a_bogus_one() {
        let err = try_conv_out_dim("h", 2, 5, 1, 1).unwrap_err();
        assert!(err.contains("underflows"), "{err}");
        assert!(err.contains("kernel 5"), "{err}");
        assert!(try_conv_out_dim("w", 0, 2, 0, 2).is_err());
        assert!(try_conv_out_dim("h", 4, 3, 0, 0).is_err());
        assert!(try_conv_out_dim("h", 4, 0, 0, 1).is_err());
    }

    #[test]
    #[should_panic(expected = "output dimension underflows")]
    fn panicking_form_reports_the_underflow() {
        conv_out_dim("h", 1, 4, 1, 1);
    }
}
