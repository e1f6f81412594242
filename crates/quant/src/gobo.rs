//! The GOBO centroid-selection algorithm (Section IV-B of the paper).
//!
//! Starting from equal-population initialization, GOBO repeats
//! nearest-centroid reassignment (L1 distance) and mean updates while
//! *monitoring the summed L1 norm*, and keeps the iterate at which the
//! L1 norm is minimal. The paper observes convergence in ~7 iterations
//! for 3-bit codebooks, roughly 9× faster than running K-Means to
//! assignment convergence, with consistently better downstream accuracy.
//!
//! Every iteration reads one sorted view of the G group
//! ([`crate::kernel`]), whose loop GOBO shares with K-Means; only the
//! stopping rule and the returned iterate differ.

use crate::codebook::{Codebook, ConvergenceTrace};
use crate::error::QuantError;
use crate::kernel::{self, SortedView, Stop};

/// Result of clustering a layer's G group: the final codebook, one index
/// per weight, and the per-iteration convergence trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// The selected representative values.
    pub codebook: Codebook,
    /// Per-weight centroid indices, parallel to the input values.
    pub assignments: Vec<u8>,
    /// L1/L2 norms per iteration (Figure 2 of the paper).
    pub trace: ConvergenceTrace,
}

impl Clustering {
    /// Mean absolute reconstruction error per weight.
    pub fn mean_abs_error(&self, values: &[f32]) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        self.codebook.l1_norm(values, &self.assignments) / values.len() as f64
    }
}

/// How many consecutive non-improving iterations GOBO tolerates before
/// declaring the L1 norm minimized. The paper stops "when the L1-Norm
/// is minimized"; a short patience window makes that detection robust
/// to single-iteration blips on small layers while preserving the
/// early-stop behaviour (total iterations stay far below K-Means').
pub const L1_PATIENCE: usize = 5;

/// Quantizes G-group values with the GOBO policy.
///
/// # Errors
///
/// Propagates initialization errors ([`QuantError::TooFewValues`],
/// [`QuantError::EmptyLayer`], [`QuantError::InvalidConfig`]).
///
/// # Example
///
/// ```
/// use gobo_quant::gobo::quantize_g;
///
/// let values: Vec<f32> = (0..256).map(|i| (i as f32 / 64.0).sin() * 0.1).collect();
/// let clustering = quantize_g(&values, 8, 100)?;
/// assert_eq!(clustering.codebook.len(), 8);
/// assert_eq!(clustering.assignments.len(), values.len());
/// # Ok::<(), gobo_quant::QuantError>(())
/// ```
pub fn quantize_g(
    values: &[f32],
    clusters: usize,
    max_iterations: usize,
) -> Result<Clustering, QuantError> {
    let (codebook, trace) =
        kernel::cluster(&SortedView::new(values), clusters, max_iterations, Stop::MinL1)?;
    Ok(Clustering { assignments: codebook.assign(values), codebook, trace })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wavy(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.37).sin() * 0.08 + (i as f32 * 0.011).cos() * 0.02).collect()
    }

    #[test]
    fn selection_is_global_minimum_and_stop_is_prompt() {
        let values = wavy(4096);
        let c = quantize_g(&values, 8, 100).unwrap();
        let selected = c.trace.selected_iteration;
        let min = c.trace.l1.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((c.trace.l1[selected] - min).abs() < 1e-12);
        // After the minimum, at most L1_PATIENCE extra iterations ran.
        assert!(c.trace.iterations() <= selected + 1 + L1_PATIENCE);
    }

    #[test]
    fn selected_iteration_is_argmin_l1() {
        let values = wavy(2048);
        let c = quantize_g(&values, 8, 100).unwrap();
        let min = c.trace.l1.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((c.trace.l1[c.trace.selected_iteration] - min).abs() < 1e-12);
    }

    #[test]
    fn final_state_consistent_with_trace() {
        let values = wavy(1024);
        let c = quantize_g(&values, 16, 100).unwrap();
        let l1 = c.codebook.l1_norm(&values, &c.assignments);
        assert!((l1 - c.trace.l1[c.trace.selected_iteration]).abs() < 1e-9);
    }

    #[test]
    fn converges_in_few_iterations_for_3bit() {
        // The paper reports ~7 iterations for 3-bit quantization.
        let values = wavy(50_000);
        let c = quantize_g(&values, 8, 1000).unwrap();
        assert!(
            c.trace.iterations() <= 40,
            "expected fast convergence, took {} iterations",
            c.trace.iterations()
        );
    }

    #[test]
    fn improves_on_initialization() {
        let values = wavy(8192);
        let c = quantize_g(&values, 8, 100).unwrap();
        // Iterating should strictly improve L1 vs the initial codebook for
        // non-trivial data.
        assert!(c.trace.l1[c.trace.selected_iteration] < c.trace.l1[0]);
    }

    #[test]
    fn reconstruction_error_shrinks_with_more_clusters() {
        let values = wavy(4096);
        let mut prev = f64::INFINITY;
        for bits in [1u32, 2, 3, 4, 5] {
            let c = quantize_g(&values, 1usize << bits, 100).unwrap();
            let err = c.mean_abs_error(&values);
            assert!(err <= prev + 1e-12, "error grew at {bits} bits");
            prev = err;
        }
    }

    #[test]
    fn exact_when_distinct_values_fit_in_codebook() {
        // 4 distinct values, 4 clusters: zero reconstruction error.
        let values: Vec<f32> = (0..100).map(|i| (i % 4) as f32).collect();
        let c = quantize_g(&values, 4, 100).unwrap();
        assert!(c.mean_abs_error(&values) < 1e-7);
    }

    #[test]
    fn respects_max_iterations_cap() {
        let values = wavy(1024);
        let c = quantize_g(&values, 8, 2).unwrap();
        assert!(c.trace.iterations() <= 2);
        assert!(quantize_g(&values, 8, 0).is_err());
    }

    #[test]
    fn assignments_index_valid_centroids() {
        let values = wavy(512);
        let c = quantize_g(&values, 8, 100).unwrap();
        assert!(c.assignments.iter().all(|&a| (a as usize) < c.codebook.len()));
    }
}
