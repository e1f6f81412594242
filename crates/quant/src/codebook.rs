//! Codebooks (representative values) and assignment machinery shared by
//! every centroid-selection policy.

use crate::error::QuantError;
use crate::kernel::nearest_sorted;

/// A sorted table of representative values ("centroids") for one layer.
///
/// Invariant: centroids are finite and ascending. Nearest-centroid
/// assignment for a sorted codebook only needs a binary search over the
/// midpoints between adjacent centroids.
#[derive(Debug, Clone, PartialEq)]
pub struct Codebook {
    centroids: Vec<f32>,
}

impl Codebook {
    /// Creates a codebook, sorting the provided centroids.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::EmptyLayer`] for an empty table and
    /// [`QuantError::NonFinite`] if any centroid is NaN/infinite.
    pub fn new(mut centroids: Vec<f32>) -> Result<Self, QuantError> {
        if centroids.is_empty() {
            return Err(QuantError::EmptyLayer);
        }
        if centroids.iter().any(|c| !c.is_finite()) {
            return Err(QuantError::NonFinite);
        }
        centroids.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Ok(Codebook { centroids })
    }

    /// The representative values, ascending.
    pub fn centroids(&self) -> &[f32] {
        &self.centroids
    }

    /// Number of representative values.
    pub fn len(&self) -> usize {
        self.centroids.len()
    }

    /// Returns `true` when the codebook has no entries (never holds for a
    /// successfully constructed codebook).
    pub fn is_empty(&self) -> bool {
        self.centroids.is_empty()
    }

    /// Index of the centroid nearest to `x` (ties break toward the lower
    /// index, i.e. the smaller centroid): [`nearest_sorted`].
    pub fn nearest(&self, x: f32) -> usize {
        nearest_sorted(&self.centroids, x)
    }

    /// Assigns every value to its nearest centroid.
    pub fn assign<'a>(&self, values: impl IntoIterator<Item = &'a f32>) -> Vec<u8> {
        debug_assert!(self.centroids.len() <= 256, "u8 assignments");
        values.into_iter().map(|&v| self.nearest(v) as u8).collect()
    }

    /// The centroids padded with zeros to every `u8` index, so a decode
    /// loop over validated indices needs no bounds check.
    pub fn lut(&self) -> [f32; 256] {
        let mut lut = [0.0f32; 256];
        lut[..self.centroids.len()].copy_from_slice(&self.centroids);
        lut
    }

    /// Decodes assignments back to representative values.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::CorruptPayload`] when any index is out of
    /// range for this codebook.
    pub fn decode(&self, assignments: &[u8]) -> Result<Vec<f32>, QuantError> {
        // The LUT is indexed unconditionally (no per-element bounds
        // branch); out-of-range indices hit the padding and are detected
        // by one max() fold over the raw assignments.
        let lut = self.lut();
        let out: Vec<f32> = assignments.iter().map(|&a| lut[a as usize]).collect();
        let max_seen = assignments.iter().copied().max().map_or(0, usize::from);
        if max_seen >= self.centroids.len() {
            return Err(QuantError::CorruptPayload { what: "assignment index out of range" });
        }
        Ok(out)
    }

    /// Sum of `|v - c(v)|` over all values (the norm GOBO monitors), in
    /// the values' order.
    pub fn l1_norm<'a>(
        &self,
        values: impl IntoIterator<Item = &'a f32>,
        assignments: &[u8],
    ) -> f64 {
        values
            .into_iter()
            .zip(assignments)
            .map(|(&v, &a)| f64::from((v - self.centroids[a as usize]).abs()))
            .sum()
    }

    /// Sum of `(v - c(v))²` over all values (the K-Means objective), in
    /// the values' order.
    pub fn l2_norm<'a>(
        &self,
        values: impl IntoIterator<Item = &'a f32>,
        assignments: &[u8],
    ) -> f64 {
        values
            .into_iter()
            .zip(assignments)
            .map(|(&v, &a)| {
                let d = f64::from(v - self.centroids[a as usize]);
                d * d
            })
            .sum()
    }
}

/// Per-iteration L1/L2 norms recorded while clustering, regenerating the
/// paper's Figure 2 (GOBO vs K-Means convergence).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConvergenceTrace {
    /// Summed L1 norm after each iteration (index 0 = initialization).
    pub l1: Vec<f64>,
    /// Summed L2 norm after each iteration (index 0 = initialization).
    pub l2: Vec<f64>,
    /// Iteration index (into `l1`/`l2`) the final codebook was taken
    /// from.
    pub selected_iteration: usize,
}

impl ConvergenceTrace {
    /// Number of recorded iterations.
    pub fn iterations(&self) -> usize {
        self.l1.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_sorts_and_validates() {
        let cb = Codebook::new(vec![3.0, -1.0, 2.0]).unwrap();
        assert_eq!(cb.centroids(), &[-1.0, 2.0, 3.0]);
        assert!(Codebook::new(vec![]).is_err());
        assert!(Codebook::new(vec![1.0, f32::NAN]).is_err());
    }

    #[test]
    fn nearest_basic_and_boundaries() {
        let cb = Codebook::new(vec![0.0, 1.0, 10.0]).unwrap();
        assert_eq!(cb.nearest(-5.0), 0);
        assert_eq!(cb.nearest(0.4), 0);
        assert_eq!(cb.nearest(0.6), 1);
        assert_eq!(cb.nearest(5.0), 1);
        assert_eq!(cb.nearest(6.0), 2);
        assert_eq!(cb.nearest(99.0), 2);
    }

    #[test]
    fn nearest_tie_prefers_lower() {
        let cb = Codebook::new(vec![0.0, 2.0]).unwrap();
        assert_eq!(cb.nearest(1.0), 0);
    }

    #[test]
    fn nearest_matches_linear_scan() {
        let cb = Codebook::new(vec![-2.0, -0.5, 0.0, 0.4, 1.7, 8.0]).unwrap();
        for i in -300..300 {
            let x = i as f32 * 0.05;
            let fast = cb.nearest(x);
            let slow = cb
                .centroids()
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| (x - **a).abs().partial_cmp(&(x - **b).abs()).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            assert!(
                (x - cb.centroids()[fast]).abs() <= (x - cb.centroids()[slow]).abs() + 1e-7,
                "x={x}: fast={fast} slow={slow}"
            );
        }
    }

    #[test]
    fn decode_round_trips_assignments() {
        let cb = Codebook::new(vec![-1.0, 0.0, 1.0]).unwrap();
        let values = [-0.9f32, 0.1, 0.8, -0.2];
        let assignments = cb.assign(&values);
        let decoded = cb.decode(&assignments).unwrap();
        assert_eq!(decoded, vec![-1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn decode_rejects_out_of_range() {
        let cb = Codebook::new(vec![0.0, 1.0]).unwrap();
        assert!(cb.decode(&[0, 1, 2]).is_err());
    }

    #[test]
    fn norms_zero_when_values_equal_centroids() {
        let cb = Codebook::new(vec![1.0, 5.0]).unwrap();
        let values = [1.0f32, 5.0, 1.0];
        let a = cb.assign(&values);
        assert_eq!(cb.l1_norm(&values, &a), 0.0);
        assert_eq!(cb.l2_norm(&values, &a), 0.0);
    }

    #[test]
    fn norms_known_values() {
        let cb = Codebook::new(vec![0.0]).unwrap();
        let values = [1.0f32, -2.0];
        let a = cb.assign(&values);
        assert_eq!(cb.l1_norm(&values, &a), 3.0);
        assert_eq!(cb.l2_norm(&values, &a), 5.0);
    }
}
