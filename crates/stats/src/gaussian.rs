//! Single-component Gaussian fitting and log-density scoring.
//!
//! Equivalent to scikit-learn's `GaussianMixture(n_components=1).fit`
//! followed by `score_samples`, which is how the paper computes each
//! weight's log probability before applying the outlier threshold of -4.

use crate::error::StatsError;

/// A univariate Gaussian distribution described by mean and standard
/// deviation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    mean: f64,
    std: f64,
}

impl Gaussian {
    /// Creates a Gaussian from mean and standard deviation.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when `std` is not a
    /// strictly positive finite number or `mean` is not finite.
    pub fn new(mean: f64, std: f64) -> Result<Self, StatsError> {
        if !mean.is_finite() {
            return Err(StatsError::InvalidParameter { name: "mean" });
        }
        if !(std.is_finite() && std > 0.0) {
            return Err(StatsError::InvalidParameter { name: "std" });
        }
        Ok(Gaussian { mean, std })
    }

    /// Maximum-likelihood fit to a sample (population variance, matching
    /// `GaussianMixture` with one component).
    ///
    /// Accumulates in `f64` so fits over tens of millions of `f32`
    /// weights stay accurate.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for an empty sample,
    /// [`StatsError::NonFinite`] if the sample contains NaN/infinity, and
    /// [`StatsError::ZeroVariance`] when all values are identical.
    pub fn fit(sample: &[f32]) -> Result<Self, StatsError> {
        if sample.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let n = sample.len() as f64;
        let mut sum = 0.0f64;
        for &x in sample {
            if !x.is_finite() {
                return Err(StatsError::NonFinite);
            }
            sum += f64::from(x);
        }
        let mean = sum / n;
        let mut ss = 0.0f64;
        for &x in sample {
            let d = f64::from(x) - mean;
            ss += d * d;
        }
        let var = ss / n;
        if var <= 0.0 {
            return Err(StatsError::ZeroVariance);
        }
        Ok(Gaussian { mean, std: var.sqrt() })
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The distribution standard deviation.
    pub fn std(&self) -> f64 {
        self.std
    }

    /// The distribution variance.
    pub fn variance(&self) -> f64 {
        self.std * self.std
    }

    /// Probability density at `x` (Eq. 1 of the paper).
    pub fn pdf(&self, x: f32) -> f64 {
        self.log_pdf(x).exp()
    }

    /// Natural-log probability density at `x`.
    ///
    /// This is the `score_samples` value the paper thresholds at -4: a
    /// weight with `log_pdf < -4` is an outlier.
    pub fn log_pdf(&self, x: f32) -> f64 {
        const LN_SQRT_2PI: f64 = 0.918_938_533_204_672_7;
        let z = (f64::from(x) - self.mean) / self.std;
        -0.5 * z * z - self.std.ln() - LN_SQRT_2PI
    }

    /// The half-width `|x - mean|` at which the log-density equals
    /// `log_threshold`, i.e. the outlier cut-off radius implied by the
    /// paper's threshold.
    ///
    /// Returns `None` when the threshold is above the density's peak (no
    /// value would qualify as an outlier in that direction).
    pub fn cutoff_radius(&self, log_threshold: f64) -> Option<f64> {
        const LN_SQRT_2PI: f64 = 0.918_938_533_204_672_7;
        let peak = -self.std.ln() - LN_SQRT_2PI;
        let z2 = 2.0 * (peak - log_threshold);
        if z2 < 0.0 {
            return None;
        }
        Some(z2.sqrt() * self.std)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_known_moments() {
        // Symmetric sample around 2 with spread 1: mean=2, var=2/3·...
        let sample = [1.0f32, 2.0, 3.0];
        let g = Gaussian::fit(&sample).unwrap();
        assert!((g.mean() - 2.0).abs() < 1e-9);
        let expected_var = 2.0 / 3.0;
        assert!((g.variance() - expected_var).abs() < 1e-6);
    }

    #[test]
    fn fit_rejects_bad_inputs() {
        assert_eq!(Gaussian::fit(&[]), Err(StatsError::EmptyInput));
        assert_eq!(Gaussian::fit(&[1.0, f32::NAN]), Err(StatsError::NonFinite));
        assert_eq!(Gaussian::fit(&[5.0, 5.0, 5.0]), Err(StatsError::ZeroVariance));
    }

    #[test]
    fn new_validates_parameters() {
        assert!(Gaussian::new(0.0, 1.0).is_ok());
        assert!(Gaussian::new(0.0, 0.0).is_err());
        assert!(Gaussian::new(0.0, -1.0).is_err());
        assert!(Gaussian::new(f64::NAN, 1.0).is_err());
        assert!(Gaussian::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn standard_normal_log_pdf_matches_closed_form() {
        let g = Gaussian::new(0.0, 1.0).unwrap();
        // log pdf(0) of N(0,1) = -0.5·ln(2π) ≈ -0.9189
        assert!((g.log_pdf(0.0) + 0.918_938_5).abs() < 1e-6);
        // pdf(0) ≈ 0.398942
        assert!((g.pdf(0.0) - 0.398_942_3).abs() < 1e-6);
        // log pdf(2) = -2 - 0.9189
        assert!((g.log_pdf(2.0) + 2.918_938_5).abs() < 1e-6);
    }

    #[test]
    fn log_pdf_is_monotone_in_distance_from_mean() {
        let g = Gaussian::new(1.0, 0.5).unwrap();
        assert!(g.log_pdf(1.0) > g.log_pdf(1.5));
        assert!(g.log_pdf(1.5) > g.log_pdf(2.5));
        assert!((g.log_pdf(0.5) - g.log_pdf(1.5)).abs() < 1e-9, "symmetric");
    }

    #[test]
    fn cutoff_radius_inverts_log_pdf() {
        let g = Gaussian::new(0.0, 0.03).unwrap();
        let thr = -4.0;
        let r = g.cutoff_radius(thr).expect("threshold below peak");
        // At the cutoff the log-pdf equals the threshold.
        assert!((g.log_pdf(r as f32) - thr).abs() < 1e-3);
        // Inside the radius, density above the threshold.
        assert!(g.log_pdf((r * 0.9) as f32) > thr);
        assert!(g.log_pdf((r * 1.1) as f32) < thr);
    }

    #[test]
    fn cutoff_radius_none_when_threshold_above_peak() {
        // Narrow distribution: peak log-density is high (≈ 2.58 for σ=0.03),
        // so a threshold of +5 is unattainable.
        let g = Gaussian::new(0.0, 0.03).unwrap();
        assert!(g.cutoff_radius(5.0).is_none());
    }

    #[test]
    fn fit_handles_large_samples_accurately() {
        // 1M identical pairs offset around a large mean to stress f64
        // accumulation.
        let mut v = Vec::with_capacity(1_000_000);
        for i in 0..500_000 {
            let delta = if i % 2 == 0 { 0.001 } else { -0.001 };
            v.push(100.0 + delta);
            v.push(100.0 - delta);
        }
        let g = Gaussian::fit(&v).unwrap();
        assert!((g.mean() - 100.0).abs() < 1e-4);
        assert!((g.std() - 0.001).abs() < 2e-4, "std {}", g.std());
    }
}
