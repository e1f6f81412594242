//! Outlier detection: the "O" half of GOBO.
//!
//! A weight is an outlier when its log-density under the layer's fitted
//! Gaussian falls below a threshold (paper default -4). Because the
//! Gaussian log-pdf is monotone in `|w - mean|`, the test reduces to a
//! radius comparison, [`OutlierSplit::is_outlier`]. Detection sorts one
//! copy of the layer: along it `f64(w) - mean` never decreases, so the
//! outliers are a prefix and a suffix, found by two binary searches, and
//! the G group is the run between them. That sorted layer is the view
//! the clustering kernel reads ([`SortedView`]).

use gobo_stats::{Gaussian, StatsError};

use crate::error::QuantError;
use crate::kernel::SortedView;

/// Maps a Gaussian-fit failure onto the detection error contract.
/// `Gaussian::fit` already checks every weight for finiteness inside
/// its first accumulation pass, so detection needs no dedicated
/// pre-scan — folding the check into the fit removes one full pass
/// over the layer while preserving the exact error values.
pub(crate) fn fit_error(e: StatsError) -> QuantError {
    match e {
        StatsError::NonFinite => QuantError::NonFinite,
        other => QuantError::Stats(other),
    }
}

/// The log-pdf threshold the paper found sufficient across all models.
pub const DEFAULT_LOG_PDF_THRESHOLD: f64 = -4.0;

/// A layer's outlier rule, `|f64(w) - mean| > radius`: what the input-
/// order pass of [`crate::QuantizedLayer::encode_split`] needs of a split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OutlierRule {
    mean: f64,
    /// −∞ when every weight is an outlier, +∞ when none is.
    radius: f64,
}

impl OutlierRule {
    /// Returns `true` when `w` is an outlier.
    pub(crate) fn is_outlier(self, w: f32) -> bool {
        (f64::from(w) - self.mean).abs() > self.radius
    }
}

/// A layer split into the Gaussian "G" group and outliers: the layer
/// sorted once, its G group the run between the outliers below the mean
/// and those above it. Positions are not kept; a pass over the layer in
/// input order finds them with [`OutlierSplit::is_outlier`].
#[derive(Debug, Clone, PartialEq)]
pub struct OutlierSplit {
    /// The fitted per-layer Gaussian.
    gaussian: Gaussian,
    rule: OutlierRule,
    /// The sorted layer and its G group.
    view: SortedView,
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
        // log_pdf(w) < threshold  ⇔  |w - mean| > radius; a threshold
        // above the density peak has no radius: every weight is an outlier.
        Self::split(weights, |g| g.cutoff_radius(log_pdf_threshold).unwrap_or(f64::NEG_INFINITY))
    }

    /// Puts every weight in the G group (no outliers). Used for the
    /// ablation demonstrating that preserving outliers is essential.
    ///
    /// # Errors
    ///
    /// Same conditions as [`OutlierSplit::detect`].
    pub fn all_gaussian(weights: &[f32]) -> Result<Self, QuantError> {
        Self::split(weights, |_| f64::INFINITY)
    }

    /// Fits the Gaussian in input order, then sorts one copy of the
    /// layer and finds its G group with two binary searches on the rule.
    fn split(weights: &[f32], radius: impl FnOnce(&Gaussian) -> f64) -> Result<Self, QuantError> {
        if weights.is_empty() {
            return Err(QuantError::EmptyLayer);
        }
        let gaussian = Gaussian::fit(weights).map_err(fit_error)?;
        let rule = OutlierRule { mean: gaussian.mean(), radius: radius(&gaussian) };
        let mut sorted = weights.to_vec();
        sorted.sort_unstable_by(f32::total_cmp);
        // Along the sorted layer f64(w) - mean never decreases (±0 give
        // the same value): the outliers below the mean are a prefix, and
        // after it the G group runs up to the first outlier above.
        let lo = sorted.partition_point(|&w| f64::from(w) < rule.mean && rule.is_outlier(w));
        let hi = lo + sorted[lo..].partition_point(|&w| !rule.is_outlier(w));
        Ok(OutlierSplit { gaussian, rule, view: SortedView::over(sorted, lo..hi) })
    }

    /// The Gaussian fitted to the full layer.
    pub fn gaussian(&self) -> &Gaussian {
        &self.gaussian
    }

    /// Returns `true` when `w` is an outlier of this layer.
    pub fn is_outlier(&self, w: f32) -> bool {
        self.rule.is_outlier(w)
    }

    /// The rule alone, which outlives the sorted view.
    pub(crate) fn rule(&self) -> OutlierRule {
        self.rule
    }

    /// The sorted layer, its G group the clustered run.
    pub fn view(&self) -> &SortedView {
        &self.view
    }

    /// Number of outliers.
    pub fn outlier_count(&self) -> usize {
        self.total() - self.view.len()
    }

    /// Total number of weights in the original layer.
    pub fn total(&self) -> usize {
        self.view.total()
    }

    /// Fraction of weights classified as outliers, in `[0, 1]`.
    pub fn outlier_fraction(&self) -> f64 {
        self.outlier_count() as f64 / self.total() as f64
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
        assert!(split.is_outlier(w[5]) && split.is_outlier(w[100]) && split.is_outlier(w[9999]));
        assert_eq!(split.total(), 10_000);
        assert_eq!(split.view().values().len() + split.outlier_count(), 10_000);
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

    /// The input-order pass that encodes a layer lists its outliers by
    /// ascending position, exactly the weights the rule marks.
    #[test]
    fn positions_strictly_increasing() {
        let mut w = gaussian_sample(5_000, 0.0, 0.02);
        w[10] = 3.0;
        w[4000] = -3.0;
        let split = OutlierSplit::detect(&w, -4.0).unwrap();
        let config = crate::QuantConfig::new(crate::QuantMethod::Gobo, 3).unwrap();
        let layer = crate::QuantizedLayer::encode(&w, &config).unwrap();
        let (positions, values) = layer.outliers();
        assert!(positions.windows(2).all(|p| p[0] < p[1]));
        let marked: Vec<u32> =
            (0..w.len() as u32).filter(|&i| split.is_outlier(w[i as usize])).collect();
        assert_eq!(positions, &marked[..]);
        assert!(positions
            .iter()
            .zip(values)
            .all(|(&i, &v)| w[i as usize].to_bits() == v.to_bits()));
    }

    /// The sorted layer is the layer: the outliers below the mean, the
    /// G group and the outliers above it, in that order, are the weights
    /// sorted, and the rule marks exactly the two outer runs.
    #[test]
    fn reassemble_round_trips_with_identity_g() {
        let mut w = gaussian_sample(1_000, 0.0, 0.02);
        w[3] = 5.0;
        w[7] = -4.0;
        let split = OutlierSplit::detect(&w, -4.0).unwrap();
        let mut sorted = w.clone();
        sorted.sort_by(f32::total_cmp);
        let g = split.view().values();
        let lo = sorted.iter().position(|&v| !split.is_outlier(v)).unwrap();
        assert_eq!(g, &sorted[lo..lo + g.len()]);
        assert!(sorted[..lo].iter().chain(&sorted[lo + g.len()..]).all(|&v| split.is_outlier(v)));
        assert!(g.iter().all(|&v| !split.is_outlier(v)));
        assert_eq!(split.outlier_count(), w.iter().filter(|&&v| split.is_outlier(v)).count());
    }

    #[test]
    fn all_gaussian_has_no_outliers() {
        let w = gaussian_sample(1_000, 0.0, 0.02);
        let split = OutlierSplit::all_gaussian(&w).unwrap();
        assert_eq!(split.outlier_count(), 0);
        let mut sorted = w.clone();
        sorted.sort_by(f32::total_cmp);
        assert_eq!(split.view().values(), &sorted[..]);
        assert!(w.iter().all(|&v| !split.is_outlier(v)));
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
        assert!(split.view().values().is_empty());
        assert!(w.iter().all(|&v| split.is_outlier(v)));
    }

    #[test]
    fn equivalent_to_direct_log_pdf_test() {
        let mut w = gaussian_sample(10_000, 0.05, 0.04);
        w[42] = 1.5;
        let split = OutlierSplit::detect(&w, -4.0).unwrap();
        let g = split.gaussian();
        for (i, &x) in w.iter().enumerate() {
            let is_outlier = split.is_outlier(x);
            let by_pdf = g.log_pdf(x) < -4.0;
            // The radius form and the direct log-pdf form must agree
            // except for values within float ulps of the boundary.
            if (g.log_pdf(x) - -4.0).abs() > 1e-6 {
                assert_eq!(is_outlier, by_pdf, "weight {i} = {x}");
            }
        }
    }
}
