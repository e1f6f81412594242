//! Outlier detection: the "O" half of GOBO.
//!
//! A weight is an outlier when its log-density under the layer's fitted
//! Gaussian falls below a threshold (paper default -4). Because the
//! Gaussian log-pdf is monotone in `|w - mean|`, the test reduces to a
//! radius comparison, which keeps detection a single O(n) pass even for
//! multi-million-weight layers.

use gobo_stats::{Gaussian, StatsError};

use crate::error::QuantError;

/// Maps a Gaussian-fit failure onto the detection error contract.
/// `Gaussian::fit` already checks every weight for finiteness inside
/// its first accumulation pass, so detection needs no dedicated
/// pre-scan — folding the check into the fit removes one full pass
/// over the layer while preserving the exact error values.
fn fit_error(e: StatsError) -> QuantError {
    match e {
        StatsError::NonFinite => QuantError::NonFinite,
        other => QuantError::Stats(other),
    }
}

/// The log-pdf threshold the paper found sufficient across all models.
pub const DEFAULT_LOG_PDF_THRESHOLD: f64 = -4.0;

/// A layer's weights split into the Gaussian "G" group and outliers.
#[derive(Debug, Clone, PartialEq)]
pub struct OutlierSplit {
    /// The fitted per-layer Gaussian.
    gaussian: Gaussian,
    /// Non-outlier weights, in their original relative order.
    g_values: Vec<f32>,
    /// Positions (indices into the original layer) of the outliers.
    outlier_positions: Vec<u32>,
    /// The outlier values, parallel to `outlier_positions`.
    outlier_values: Vec<f32>,
    /// Total number of weights in the original layer.
    total: usize,
}

impl OutlierSplit {
    /// Splits a layer's weights by Gaussian log-density.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::EmptyLayer`] for an empty slice,
    /// [`QuantError::NonFinite`] for NaN/infinite weights, and
    /// propagates [`QuantError::Stats`] when the Gaussian fit fails
    /// (e.g. all weights identical).
    pub fn detect(weights: &[f32], log_pdf_threshold: f64) -> Result<Self, QuantError> {
        if weights.is_empty() {
            return Err(QuantError::EmptyLayer);
        }
        let gaussian = Gaussian::fit(weights).map_err(fit_error)?;
        // log_pdf(w) < threshold  ⇔  |w - mean| > radius.
        let radius = gaussian.cutoff_radius(log_pdf_threshold);
        let mean = gaussian.mean();
        let mut g_values = Vec::with_capacity(weights.len());
        let mut outlier_positions = Vec::new();
        let mut outlier_values = Vec::new();
        match radius {
            Some(r) => {
                for (i, &w) in weights.iter().enumerate() {
                    if (f64::from(w) - mean).abs() > r {
                        outlier_positions.push(i as u32);
                        outlier_values.push(w);
                    } else {
                        g_values.push(w);
                    }
                }
            }
            // Threshold above the density peak: every weight is an outlier.
            None => {
                outlier_positions.extend(0..weights.len() as u32);
                outlier_values.extend_from_slice(weights);
            }
        }
        Ok(OutlierSplit {
            gaussian,
            g_values,
            outlier_positions,
            outlier_values,
            total: weights.len(),
        })
    }

    /// Puts every weight in the G group (no outliers). Used for the
    /// ablation demonstrating that preserving outliers is essential.
    ///
    /// # Errors
    ///
    /// Same conditions as [`OutlierSplit::detect`].
    pub fn all_gaussian(weights: &[f32]) -> Result<Self, QuantError> {
        if weights.is_empty() {
            return Err(QuantError::EmptyLayer);
        }
        let gaussian = Gaussian::fit(weights).map_err(fit_error)?;
        Ok(OutlierSplit {
            gaussian,
            g_values: weights.to_vec(),
            outlier_positions: Vec::new(),
            outlier_values: Vec::new(),
            total: weights.len(),
        })
    }

    /// The Gaussian fitted to the full layer.
    pub fn gaussian(&self) -> &Gaussian {
        &self.gaussian
    }

    /// The non-outlier ("G" group) weights, original order preserved.
    pub fn g_values(&self) -> &[f32] {
        &self.g_values
    }

    /// Outlier positions in the original layer, strictly increasing.
    pub fn outlier_positions(&self) -> &[u32] {
        &self.outlier_positions
    }

    /// Outlier values, parallel to [`Self::outlier_positions`].
    pub fn outlier_values(&self) -> &[f32] {
        &self.outlier_values
    }

    /// Number of outliers.
    pub fn outlier_count(&self) -> usize {
        self.outlier_values.len()
    }

    /// Total number of weights in the original layer.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Fraction of weights classified as outliers, in `[0, 1]`.
    pub fn outlier_fraction(&self) -> f64 {
        self.outlier_count() as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-Gaussian sample via a fixed LCG + Box-Muller.
    fn gaussian_sample(n: usize, mean: f32, std: f32) -> Vec<f32> {
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32) / (u32::MAX >> 1) as f32
        };
        (0..n)
            .map(|_| {
                let u1 = next().clamp(1e-7, 1.0);
                let u2 = next();
                mean + std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
            })
            .collect()
    }

    #[test]
    fn detects_injected_outliers() {
        let mut w = gaussian_sample(10_000, 0.0, 0.03);
        w[5] = 1.0;
        w[100] = -0.9;
        w[9999] = 0.8;
        let split = OutlierSplit::detect(&w, -4.0).unwrap();
        assert!(split.outlier_positions().contains(&5));
        assert!(split.outlier_positions().contains(&100));
        assert!(split.outlier_positions().contains(&9999));
        assert_eq!(split.total(), 10_000);
        assert_eq!(split.g_values().len() + split.outlier_count(), 10_000);
    }

    #[test]
    fn outlier_fraction_is_small_for_pure_gaussian() {
        let w = gaussian_sample(100_000, 0.0, 0.05);
        let split = OutlierSplit::detect(&w, -4.0).unwrap();
        // For a true Gaussian at threshold -4 the expected tail fraction
        // is ≈ 0.9% (|z| > ~2.6); it must certainly be below 2%.
        assert!(split.outlier_fraction() < 0.02, "{}", split.outlier_fraction());
    }

    #[test]
    fn lower_threshold_means_fewer_outliers() {
        let w = gaussian_sample(50_000, 0.0, 0.05);
        let loose = OutlierSplit::detect(&w, -2.0).unwrap();
        let tight = OutlierSplit::detect(&w, -6.0).unwrap();
        assert!(tight.outlier_count() < loose.outlier_count());
    }

    #[test]
    fn positions_strictly_increasing() {
        let mut w = gaussian_sample(5_000, 0.0, 0.02);
        w[10] = 3.0;
        w[4000] = -3.0;
        let split = OutlierSplit::detect(&w, -4.0).unwrap();
        assert!(split.outlier_positions().windows(2).all(|p| p[0] < p[1]));
    }

    /// The two groups, merged back by position with the G group
    /// untouched, are the layer: nothing lost, nothing moved.
    #[test]
    fn reassemble_round_trips_with_identity_g() {
        let mut w = gaussian_sample(1_000, 0.0, 0.02);
        w[3] = 5.0;
        let split = OutlierSplit::detect(&w, -4.0).unwrap();
        let (mut g, mut outliers) = (split.g_values().iter(), split.outlier_values().iter());
        let rebuilt: Vec<f32> = (0..w.len() as u32)
            .map(
                |i| if split.outlier_positions().contains(&i) { outliers.next() } else { g.next() },
            )
            .map(|value| *value.unwrap())
            .collect();
        assert_eq!(rebuilt, w);
    }

    #[test]
    fn all_gaussian_has_no_outliers() {
        let w = gaussian_sample(1_000, 0.0, 0.02);
        let split = OutlierSplit::all_gaussian(&w).unwrap();
        assert_eq!(split.outlier_count(), 0);
        assert_eq!(split.g_values(), &w[..]);
        assert_eq!(split.outlier_fraction(), 0.0);
    }

    #[test]
    fn rejects_degenerate_layers() {
        assert!(matches!(OutlierSplit::detect(&[], -4.0), Err(QuantError::EmptyLayer)));
        assert!(matches!(OutlierSplit::detect(&[1.0, f32::NAN], -4.0), Err(QuantError::NonFinite)));
        assert!(matches!(OutlierSplit::detect(&[2.0, 2.0, 2.0], -4.0), Err(QuantError::Stats(_))));
    }

    #[test]
    fn threshold_above_peak_marks_everything_outlier() {
        // σ = 0.001 → peak log-pdf ≈ 5.99; threshold −4 keeps a normal
        // band, but a threshold of +7 is above the peak.
        let w = gaussian_sample(100, 0.0, 0.001);
        let split = OutlierSplit::detect(&w, 7.0).unwrap();
        assert_eq!(split.outlier_count(), 100);
        assert!(split.g_values().is_empty());
    }

    #[test]
    fn equivalent_to_direct_log_pdf_test() {
        let mut w = gaussian_sample(10_000, 0.05, 0.04);
        w[42] = 1.5;
        let split = OutlierSplit::detect(&w, -4.0).unwrap();
        let g = split.gaussian();
        for (i, &x) in w.iter().enumerate() {
            let is_outlier = split.outlier_positions().binary_search(&(i as u32)).is_ok();
            let by_pdf = g.log_pdf(x) < -4.0;
            // The radius form and the direct log-pdf form must agree
            // except for values within float ulps of the boundary.
            if (g.log_pdf(x) - -4.0).abs() > 1e-6 {
                assert_eq!(is_outlier, by_pdf, "weight {i} = {x}");
            }
        }
    }
}
