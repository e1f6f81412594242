//! Fixed-width histograms (Figure 1b of the paper).

use crate::error::StatsError;

/// A histogram with uniformly spaced bins over `[lo, hi)`.
///
/// Values below `lo` clamp into the first bin and values at or above `hi`
/// clamp into the last, so the total count always equals the number of
/// observations — convenient when plotting weight distributions whose
/// outliers would otherwise fall off the chart.
///
/// # Example
///
/// ```
/// use gobo_stats::Histogram;
///
/// let mut h = Histogram::new(-1.0, 1.0, 4)?;
/// h.extend_from_slice(&[-0.9, -0.1, 0.1, 0.9, 5.0]);
/// assert_eq!(h.counts(), &[1, 1, 1, 2]);
/// # Ok::<(), gobo_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f32,
    hi: f32,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates an empty histogram over `[lo, hi)` with `bins` bins.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when `bins == 0`, the
    /// bounds are not finite, or `lo >= hi`.
    pub fn new(lo: f32, hi: f32, bins: usize) -> Result<Self, StatsError> {
        if bins == 0 {
            return Err(StatsError::InvalidParameter { name: "bins" });
        }
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(StatsError::InvalidParameter { name: "bounds" });
        }
        Ok(Histogram { lo, hi, counts: vec![0; bins] })
    }

    /// Creates a histogram sized to a sample's min/max and fills it.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for empty samples,
    /// [`StatsError::NonFinite`] for NaN/infinite values, and
    /// [`StatsError::InvalidParameter`] for `bins == 0` or constant
    /// samples (zero range).
    pub fn from_sample(sample: &[f32], bins: usize) -> Result<Self, StatsError> {
        if sample.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        if sample.iter().any(|x| !x.is_finite()) {
            return Err(StatsError::NonFinite);
        }
        let lo = sample.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = sample.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        if lo == hi {
            return Err(StatsError::InvalidParameter { name: "range" });
        }
        // Widen hi a hair so the max lands inside the last bin rather than
        // on the open boundary.
        let mut h = Histogram::new(lo, hi + (hi - lo) * 1e-6, bins)?;
        h.extend_from_slice(sample);
        Ok(h)
    }

    /// Adds one observation (non-finite values are ignored).
    pub fn push(&mut self, x: f32) {
        if !x.is_finite() {
            return;
        }
        let bins = self.counts.len();
        let t = (x - self.lo) / (self.hi - self.lo);
        let idx = ((t * bins as f32).floor() as i64).clamp(0, bins as i64 - 1) as usize;
        self.counts[idx] += 1;
    }

    /// Adds every value in a slice.
    pub fn extend_from_slice(&mut self, xs: &[f32]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Center of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= bins()`.
    pub fn bin_center(&self, i: usize) -> f32 {
        assert!(i < self.counts.len(), "bin {i} out of range");
        let w = (self.hi - self.lo) / self.counts.len() as f32;
        self.lo + w * (i as f32 + 0.5)
    }

    /// Lower bound of the histogram's range.
    pub fn lo(&self) -> f32 {
        self.lo
    }

    /// Upper bound of the histogram's range.
    pub fn hi(&self) -> f32 {
        self.hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_partition_range() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.extend_from_slice(&[0.0, 0.25, 0.49, 0.5, 0.75]);
        assert_eq!(h.counts(), &[3, 2]);
    }

    #[test]
    fn out_of_range_values_clamp() {
        let mut h = Histogram::new(0.0, 1.0, 4).unwrap();
        h.extend_from_slice(&[-10.0, 10.0]);
        assert_eq!(h.counts(), &[1, 0, 0, 1]);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn non_finite_values_ignored() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.push(f32::NAN);
        h.push(f32::INFINITY);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn from_sample_covers_extremes() {
        let sample = [1.0f32, 2.0, 3.0, 4.0];
        let h = Histogram::from_sample(&sample, 3).unwrap();
        assert_eq!(h.total(), 4);
        // Max (4.0) must be counted in the last bin, not dropped.
        assert!(h.counts()[2] >= 1);
    }

    #[test]
    fn from_sample_rejects_bad_inputs() {
        assert!(Histogram::from_sample(&[], 3).is_err());
        assert!(Histogram::from_sample(&[1.0, f32::NAN], 3).is_err());
        assert!(Histogram::from_sample(&[2.0, 2.0], 3).is_err());
        assert!(Histogram::from_sample(&[1.0, 2.0], 0).is_err());
    }

    #[test]
    fn bin_centers_are_midpoints() {
        let h = Histogram::new(0.0, 1.0, 4).unwrap();
        assert!((h.bin_center(0) - 0.125).abs() < 1e-6);
        assert!((h.bin_center(3) - 0.875).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bin_center_panics_out_of_range() {
        let h = Histogram::new(0.0, 1.0, 2).unwrap();
        let _ = h.bin_center(2);
    }

    #[test]
    fn invalid_constructor_parameters() {
        assert!(Histogram::new(1.0, 0.0, 4).is_err());
        assert!(Histogram::new(0.0, 0.0, 4).is_err());
        assert!(Histogram::new(0.0, f32::INFINITY, 4).is_err());
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
    }
}
