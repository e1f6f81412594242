//! Lloyd's K-Means baseline (the paper's "GOBO w/ K-Means" column).
//!
//! Identical initialization and update rule to GOBO, but iterated until
//! the cluster *assignments* converge — the classical stopping rule,
//! which the paper shows takes roughly 9× more iterations and lands on
//! an L2-optimal (not L1-optimal) codebook with worse downstream
//! accuracy. It runs the same loop over the same sorted view as GOBO
//! ([`crate::kernel`]), stopping at the fixed point instead.

use crate::error::QuantError;
use crate::gobo::Clustering;
use crate::kernel::{self, SortedView, Stop};

/// Quantizes G-group values with K-Means run to assignment convergence.
///
/// # Errors
///
/// Propagates initialization errors ([`QuantError::TooFewValues`],
/// [`QuantError::EmptyLayer`], [`QuantError::InvalidConfig`]).
pub fn quantize_g(
    values: &[f32],
    clusters: usize,
    max_iterations: usize,
) -> Result<Clustering, QuantError> {
    let (codebook, trace) =
        kernel::cluster(&SortedView::new(values), clusters, max_iterations, Stop::FixedPoint)?;
    Ok(Clustering { assignments: codebook.assign(values), codebook, trace })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gobo;

    fn wavy(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.29).sin() * 0.07 + (i as f32 * 0.013).cos() * 0.03).collect()
    }

    #[test]
    fn l2_is_nonincreasing() {
        let values = wavy(4096);
        let c = quantize_g(&values, 8, 500).unwrap();
        for w in c.trace.l2.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "L2 increased: {:?}", c.trace.l2);
        }
    }

    #[test]
    fn stops_when_assignments_stable() {
        let values = wavy(2048);
        let c = quantize_g(&values, 8, 500).unwrap();
        // Re-assigning with the final codebook must not change anything.
        assert_eq!(c.codebook.assign(&values), c.assignments);
    }

    #[test]
    fn never_stops_before_gobo() {
        // GOBO shares K-Means' trajectory but adds an early L1 stop, so
        // it can never run longer. (The paper's ~9x speedup on realistic
        // Gaussian layers is asserted in gobo-core's analytic tests; this
        // synthetic waveform only guarantees the ordering.)
        let values = wavy(50_000);
        let g = gobo::quantize_g(&values, 8, 1000).unwrap();
        let k = quantize_g(&values, 8, 1000).unwrap();
        assert!(
            k.trace.iterations() >= g.trace.iterations(),
            "kmeans {} vs gobo {}",
            k.trace.iterations(),
            g.trace.iterations()
        );
    }

    #[test]
    fn final_l2_not_worse_than_gobo_l2() {
        // K-Means optimizes L2 to convergence, so its final L2 must be at
        // least as good as GOBO's early-stopped iterate.
        let values = wavy(30_000);
        let g = gobo::quantize_g(&values, 8, 1000).unwrap();
        let k = quantize_g(&values, 8, 1000).unwrap();
        let g_l2 = g.codebook.l2_norm(&values, &g.assignments);
        let k_l2 = k.codebook.l2_norm(&values, &k.assignments);
        assert!(k_l2 <= g_l2 + 1e-6, "kmeans L2 {k_l2} vs gobo L2 {g_l2}");
    }

    #[test]
    fn gobo_l1_not_worse_than_kmeans_l1() {
        // Symmetrically, GOBO selects the L1-minimal iterate.
        let values = wavy(30_000);
        let g = gobo::quantize_g(&values, 8, 1000).unwrap();
        let k = quantize_g(&values, 8, 1000).unwrap();
        let g_l1 = g.codebook.l1_norm(&values, &g.assignments);
        let k_l1 = k.codebook.l1_norm(&values, &k.assignments);
        assert!(g_l1 <= k_l1 + 1e-6, "gobo L1 {g_l1} vs kmeans L1 {k_l1}");
    }

    #[test]
    fn respects_iteration_cap() {
        let values = wavy(1024);
        let c = quantize_g(&values, 8, 3).unwrap();
        assert!(c.trace.iterations() <= 3);
        assert!(quantize_g(&values, 8, 0).is_err());
    }

    #[test]
    fn exact_for_separable_clusters() {
        let values: Vec<f32> = (0..90)
            .map(|i| match i % 3 {
                0 => -1.0,
                1 => 0.0,
                _ => 1.0,
            })
            .collect();
        let c = quantize_g(&values, 4, 100).unwrap();
        assert!(c.mean_abs_error(&values) < 1e-7);
    }
}
