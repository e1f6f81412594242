//! Quantization configuration.

use crate::error::QuantError;
use crate::outlier::DEFAULT_LOG_PDF_THRESHOLD;

/// Which centroid-selection policy quantizes the G (Gaussian) group.
///
/// All three share the same outlier handling; they differ only in how
/// the non-outlier representative values are chosen, exactly as in the
/// paper's Table IV comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantMethod {
    /// The paper's proposal: equal-population init, mean updates,
    /// stop at minimal L1 norm.
    Gobo,
    /// Lloyd's K-Means with the same init, run until cluster assignments
    /// converge (L2 objective).
    KMeans,
    /// Equidistant levels spanning the G-group range.
    Linear,
}

impl QuantMethod {
    /// Human-readable name matching the paper's table headers.
    pub fn name(&self) -> &'static str {
        match self {
            QuantMethod::Gobo => "GOBO",
            QuantMethod::KMeans => "K-Means",
            QuantMethod::Linear => "Linear",
        }
    }

    /// Lowercase machine-readable identifier, matching the CLI's
    /// `--method` argument and the telemetry JSON `method` field.
    pub fn slug(&self) -> &'static str {
        match self {
            QuantMethod::Gobo => "gobo",
            QuantMethod::KMeans => "kmeans",
            QuantMethod::Linear => "linear",
        }
    }
}

impl std::fmt::Display for QuantMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full configuration for quantizing one layer.
///
/// # Example
///
/// ```
/// use gobo_quant::{QuantConfig, QuantMethod};
///
/// let config = QuantConfig::new(QuantMethod::Gobo, 3)?
///     .with_outlier_threshold(-4.0)?
///     .with_max_iterations(50)?;
/// assert_eq!(config.clusters(), 8);
/// # Ok::<(), gobo_quant::QuantError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantConfig {
    method: QuantMethod,
    bits: u8,
    outlier_threshold: f64,
    max_iterations: usize,
    detect_outliers: bool,
}

impl QuantConfig {
    /// Creates a configuration with the paper's defaults: log-pdf
    /// outlier threshold of -4 and an iteration cap of 100.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedBits`] unless `1 <= bits <= 8`.
    pub fn new(method: QuantMethod, bits: u8) -> Result<Self, QuantError> {
        if !(1..=8).contains(&bits) {
            return Err(QuantError::UnsupportedBits { bits });
        }
        Ok(QuantConfig {
            method,
            bits,
            outlier_threshold: DEFAULT_LOG_PDF_THRESHOLD,
            max_iterations: 100,
            detect_outliers: true,
        })
    }

    /// Overrides the log-pdf outlier threshold (paper default: -4).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidConfig`] for non-finite thresholds.
    pub fn with_outlier_threshold(mut self, threshold: f64) -> Result<Self, QuantError> {
        if !threshold.is_finite() {
            return Err(QuantError::InvalidConfig { name: "outlier_threshold" });
        }
        self.outlier_threshold = threshold;
        Ok(self)
    }

    /// Overrides the iteration cap for the clustering loop.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidConfig`] when `max == 0`.
    pub fn with_max_iterations(mut self, max: usize) -> Result<Self, QuantError> {
        if max == 0 {
            return Err(QuantError::InvalidConfig { name: "max_iterations" });
        }
        self.max_iterations = max;
        Ok(self)
    }

    /// Disables outlier detection entirely (every weight joins the G
    /// group). Used by the "outliers are essential" ablation.
    pub fn without_outliers(mut self) -> Self {
        self.detect_outliers = false;
        self
    }

    /// The centroid-selection policy.
    pub fn method(&self) -> QuantMethod {
        self.method
    }

    /// Index width in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of clusters, `2^bits`.
    pub fn clusters(&self) -> usize {
        1usize << self.bits
    }

    /// The log-pdf threshold below which a weight is an outlier.
    pub fn outlier_threshold(&self) -> f64 {
        self.outlier_threshold
    }

    /// Iteration cap for the clustering loop.
    pub fn max_iterations(&self) -> usize {
        self.max_iterations
    }

    /// Whether outlier detection is enabled.
    pub fn detect_outliers(&self) -> bool {
        self.detect_outliers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = QuantConfig::new(QuantMethod::Gobo, 3).unwrap();
        assert_eq!(c.bits(), 3);
        assert_eq!(c.clusters(), 8);
        assert_eq!(c.outlier_threshold(), -4.0);
        assert!(c.detect_outliers());
        assert_eq!(c.method(), QuantMethod::Gobo);
    }

    #[test]
    fn bits_bounds_enforced() {
        assert!(QuantConfig::new(QuantMethod::Gobo, 0).is_err());
        assert!(QuantConfig::new(QuantMethod::Gobo, 9).is_err());
        assert!(QuantConfig::new(QuantMethod::Gobo, 1).is_ok());
        assert!(QuantConfig::new(QuantMethod::Gobo, 8).is_ok());
    }

    #[test]
    fn builder_validation() {
        let c = QuantConfig::new(QuantMethod::Linear, 4).unwrap();
        assert!(c.with_outlier_threshold(f64::NAN).is_err());
        assert!(c.with_max_iterations(0).is_err());
        let c2 = c.with_outlier_threshold(-6.0).unwrap().with_max_iterations(7).unwrap();
        assert_eq!(c2.outlier_threshold(), -6.0);
        assert_eq!(c2.max_iterations(), 7);
    }

    #[test]
    fn without_outliers_flag() {
        let c = QuantConfig::new(QuantMethod::KMeans, 3).unwrap().without_outliers();
        assert!(!c.detect_outliers());
    }

    #[test]
    fn method_names_match_paper() {
        assert_eq!(QuantMethod::Gobo.to_string(), "GOBO");
        assert_eq!(QuantMethod::KMeans.to_string(), "K-Means");
        assert_eq!(QuantMethod::Linear.to_string(), "Linear");
    }
}
