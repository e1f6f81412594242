//! The bit-exact compressed representation of one layer.
//!
//! A [`QuantizedLayer`] holds everything the paper's Section IV stores
//! per layer: the FP32 outliers (with positions), the packed G-group
//! indices, and the FP32 reconstruction table (codebook). Decoding
//! produces an FP32 weight vector of the original length, so the result
//! is plug-in compatible with any FP32 execution engine.

use std::sync::Arc;

use crate::codebook::{Codebook, ConvergenceTrace};
use crate::config::{QuantConfig, QuantMethod};
use crate::error::QuantError;
use crate::outlier::OutlierSplit;
use crate::packing;
use crate::{gobo, kmeans, linear};

/// Byte cost of the fixed per-layer header in the storage format:
/// element count (u32), outlier count (u32), bits (u8), method tag (u8),
/// and 2 bytes of padding/versioning.
pub const LAYER_HEADER_BYTES: usize = 12;

/// Exact storage cost of a quantized layer, split by component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeBreakdown {
    /// Packed G-group index bytes.
    pub index_bytes: usize,
    /// Codebook (reconstruction table) bytes: `2^bits × 4`.
    pub codebook_bytes: usize,
    /// Outlier FP32 value bytes.
    pub outlier_value_bytes: usize,
    /// Outlier position bytes (u32 each).
    pub outlier_position_bytes: usize,
    /// Fixed header bytes.
    pub header_bytes: usize,
}

impl SizeBreakdown {
    /// Total compressed bytes.
    pub fn total(&self) -> usize {
        self.index_bytes
            + self.codebook_bytes
            + self.outlier_value_bytes
            + self.outlier_position_bytes
            + self.header_bytes
    }
}

/// A layer compressed with one of the paper's quantization policies.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedLayer {
    method: QuantMethod,
    bits: u8,
    total: usize,
    codebook: Codebook,
    packed_indices: Arc<[u8]>,
    outlier_positions: Vec<u32>,
    outlier_values: Vec<f32>,
    trace: ConvergenceTrace,
    outlier_fraction: f64,
}

impl QuantizedLayer {
    /// Quantizes a layer's weights.
    ///
    /// Runs outlier detection (unless disabled in `config`), clusters the
    /// G group with the configured policy, and packs the result.
    ///
    /// # Errors
    ///
    /// Propagates detection and clustering failures; see
    /// [`OutlierSplit::detect`] and the per-policy `quantize_g`
    /// functions.
    pub fn encode(weights: &[f32], config: &QuantConfig) -> Result<Self, QuantError> {
        let split = {
            let _span = gobo_obs::span!("gobo.outlier", weights = weights.len());
            if config.detect_outliers() {
                OutlierSplit::detect(weights, config.outlier_threshold())?
            } else {
                OutlierSplit::all_gaussian(weights)?
            }
        };
        Self::encode_split(&split, config)
    }

    /// Quantizes a pre-computed outlier split, allowing callers to reuse
    /// one detection pass across several configurations (as the paper's
    /// Table IV sweep does: "the outlier weights in all of these methods
    /// are detected and represented in the same manner").
    ///
    /// # Errors
    ///
    /// Propagates clustering failures from the configured policy.
    pub fn encode_split(split: &OutlierSplit, config: &QuantConfig) -> Result<Self, QuantError> {
        let clusters = config.clusters();
        let clustering = {
            let _span = gobo_obs::span!(
                "gobo.cluster",
                method = config.method(),
                bits = config.bits(),
                g = split.g_values().len()
            );
            match config.method() {
                QuantMethod::Gobo => {
                    gobo::quantize_g(split.g_values(), clusters, config.max_iterations())?
                }
                QuantMethod::KMeans => {
                    kmeans::quantize_g(split.g_values(), clusters, config.max_iterations())?
                }
                QuantMethod::Linear => linear::quantize_g(split.g_values(), clusters)?,
            }
        };
        let packed_indices = {
            let _span = gobo_obs::span!("gobo.pack", bits = config.bits());
            packing::pack(&clustering.assignments, config.bits())?.into()
        };
        Ok(QuantizedLayer {
            method: config.method(),
            bits: config.bits(),
            total: split.total(),
            codebook: clustering.codebook,
            packed_indices,
            outlier_positions: split.outlier_positions().to_vec(),
            outlier_values: split.outlier_values().to_vec(),
            trace: clustering.trace,
            outlier_fraction: split.outlier_fraction(),
        })
    }

    /// Reconstructs the FP32 weight vector.
    ///
    /// Outliers are restored bit-exactly; G-group weights become their
    /// cluster's representative value.
    pub fn decode(&self) -> Vec<f32> {
        let g_count = self.total - self.outlier_values.len();
        let assignments = packing::unpack(&self.packed_indices, self.bits, g_count)
            .expect("internally consistent payload");
        let g_decoded = self.codebook.decode(&assignments).expect("valid assignments");
        let mut out = Vec::with_capacity(self.total);
        let mut g_iter = g_decoded.into_iter();
        let mut o_idx = 0usize;
        for i in 0..self.total {
            if o_idx < self.outlier_positions.len() && self.outlier_positions[o_idx] as usize == i {
                out.push(self.outlier_values[o_idx]);
                o_idx += 1;
            } else {
                out.push(g_iter.next().expect("g group exhausted"));
            }
        }
        out
    }

    /// The centroid-selection policy used.
    pub fn method(&self) -> QuantMethod {
        self.method
    }

    /// Index width in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of weights in the original layer.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of preserved outliers.
    pub fn outlier_count(&self) -> usize {
        self.outlier_values.len()
    }

    /// Fraction of weights stored as outliers.
    pub fn outlier_fraction(&self) -> f64 {
        self.outlier_fraction
    }

    /// The per-layer reconstruction table.
    pub fn codebook(&self) -> &Codebook {
        &self.codebook
    }

    /// Per-iteration convergence trace of the clustering run.
    pub fn trace(&self) -> &ConvergenceTrace {
        &self.trace
    }

    /// Codebook bin occupancy: how many G-group weights map to each
    /// centroid, parallel to [`QuantizedLayer::codebook`]'s centroids.
    /// GOBO's equal-population initialization starts these balanced;
    /// the telemetry reports where iteration moved them.
    pub fn bin_occupancy(&self) -> Vec<u64> {
        let g_count = self.total - self.outlier_values.len();
        let assignments = packing::unpack(&self.packed_indices, self.bits, g_count)
            .expect("internally consistent payload");
        let mut counts = vec![0u64; self.codebook.len()];
        for a in assignments {
            counts[a as usize] += 1;
        }
        counts
    }

    /// The packed G-group index bytes (LSB-first, see
    /// [`crate::packing`]).
    pub fn packed_indices(&self) -> &[u8] {
        &self.packed_indices
    }

    /// The preserved outliers as `(positions, values)` parallel slices,
    /// positions strictly ascending.
    pub fn outliers(&self) -> (&[u32], &[f32]) {
        (&self.outlier_positions, &self.outlier_values)
    }

    /// Assembles a layer from already-validated parts (used by the
    /// container deserializer; see [`crate::container`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        method: QuantMethod,
        bits: u8,
        total: usize,
        codebook: Codebook,
        packed_indices: Arc<[u8]>,
        outlier_positions: Vec<u32>,
        outlier_values: Vec<f32>,
        trace: ConvergenceTrace,
    ) -> Self {
        let outlier_fraction =
            if total == 0 { 0.0 } else { outlier_values.len() as f64 / total as f64 };
        QuantizedLayer {
            method,
            bits,
            total,
            codebook,
            packed_indices,
            outlier_positions,
            outlier_values,
            trace,
            outlier_fraction,
        }
    }

    /// Exact compressed size, by component.
    pub fn size_breakdown(&self) -> SizeBreakdown {
        SizeBreakdown {
            index_bytes: self.packed_indices.len(),
            codebook_bytes: self.codebook.len() * 4,
            outlier_value_bytes: self.outlier_values.len() * 4,
            outlier_position_bytes: self.outlier_positions.len() * 4,
            header_bytes: LAYER_HEADER_BYTES,
        }
    }

    /// Total compressed bytes.
    pub fn compressed_bytes(&self) -> usize {
        self.size_breakdown().total()
    }

    /// Original FP32 size in bytes.
    pub fn original_bytes(&self) -> usize {
        self.total * 4
    }

    /// `original_bytes / compressed_bytes`.
    pub fn compression_ratio(&self) -> f64 {
        self.original_bytes() as f64 / self.compressed_bytes() as f64
    }

    /// Mean absolute reconstruction error over all weights (outliers
    /// contribute zero).
    pub fn mean_abs_error(&self, original: &[f32]) -> f64 {
        assert_eq!(original.len(), self.total, "original layer length mismatch");
        let decoded = self.decode();
        decoded.iter().zip(original).map(|(&d, &o)| f64::from((d - o).abs())).sum::<f64>()
            / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaussian_with_outliers(n: usize) -> Vec<f32> {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32) / (u32::MAX >> 1) as f32
        };
        let mut w: Vec<f32> = (0..n)
            .map(|_| {
                let u1 = next().clamp(1e-7, 1.0);
                let u2 = next();
                0.04 * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
            })
            .collect();
        // Sprinkle strong outliers.
        for i in (0..n).step_by(n / 10 + 1) {
            w[i] = if i % 2 == 0 { 0.9 } else { -0.8 };
        }
        w
    }

    fn cfg(method: QuantMethod, bits: u8) -> QuantConfig {
        QuantConfig::new(method, bits).unwrap()
    }

    #[test]
    fn clones_share_their_packed_indices() {
        // A served model hands layers out by clone; the packed indices,
        // the bulk of a layer, must be shared rather than copied.
        let layer =
            QuantizedLayer::encode(&gaussian_with_outliers(4_096), &cfg(QuantMethod::Gobo, 3))
                .unwrap();
        let clone = layer.clone();
        assert!(!layer.packed_indices().is_empty());
        assert_eq!(clone.packed_indices().as_ptr(), layer.packed_indices().as_ptr());
    }

    #[test]
    fn outliers_decode_bit_exactly() {
        let w = gaussian_with_outliers(10_000);
        let layer = QuantizedLayer::encode(&w, &cfg(QuantMethod::Gobo, 3)).unwrap();
        let decoded = layer.decode();
        assert_eq!(decoded.len(), w.len());
        assert!(layer.outlier_count() > 0);
        // Every original outlier value must survive exactly.
        for i in (0..w.len()).step_by(w.len() / 10 + 1) {
            assert_eq!(decoded[i], w[i], "outlier at {i}");
        }
    }

    #[test]
    fn g_weights_decode_to_codebook_entries() {
        let w = gaussian_with_outliers(5_000);
        let layer = QuantizedLayer::encode(&w, &cfg(QuantMethod::Gobo, 3)).unwrap();
        let decoded = layer.decode();
        let centroids = layer.codebook().centroids();
        let outlier_set: std::collections::HashSet<usize> =
            (0..w.len()).filter(|&i| decoded[i] == w[i] && !centroids.contains(&w[i])).collect();
        for (i, &d) in decoded.iter().enumerate() {
            if !outlier_set.contains(&i) {
                assert!(centroids.contains(&d), "decoded[{i}]={d} not a centroid");
            }
        }
    }

    #[test]
    fn three_bit_compression_is_near_ten_x() {
        let w = gaussian_with_outliers(1 << 20); // 1M weights, ~0.002% header noise
        let layer = QuantizedLayer::encode(&w, &cfg(QuantMethod::Gobo, 3)).unwrap();
        let ratio = layer.compression_ratio();
        // Ideal 32/3 = 10.67×; outliers (~0.1–1%) and tables shave it.
        assert!(ratio > 8.0 && ratio < 10.7, "ratio {ratio}");
    }

    #[test]
    fn size_breakdown_adds_up() {
        let w = gaussian_with_outliers(10_000);
        let layer = QuantizedLayer::encode(&w, &cfg(QuantMethod::KMeans, 4)).unwrap();
        let b = layer.size_breakdown();
        assert_eq!(b.total(), layer.compressed_bytes());
        assert_eq!(b.codebook_bytes, 16 * 4);
        assert_eq!(b.outlier_value_bytes, layer.outlier_count() * 4);
        assert_eq!(b.outlier_position_bytes, layer.outlier_count() * 4);
        let g = layer.total() - layer.outlier_count();
        assert_eq!(b.index_bytes, (g * 4).div_ceil(8));
    }

    #[test]
    fn more_bits_lower_error_smaller_ratio() {
        let w = gaussian_with_outliers(20_000);
        let mut prev_err = f64::INFINITY;
        let mut prev_ratio = f64::INFINITY;
        for bits in [2u8, 3, 4, 5, 6] {
            let layer = QuantizedLayer::encode(&w, &cfg(QuantMethod::Gobo, bits)).unwrap();
            let err = layer.mean_abs_error(&w);
            let ratio = layer.compression_ratio();
            assert!(err <= prev_err + 1e-9, "error grew at {bits} bits");
            assert!(ratio < prev_ratio, "ratio grew at {bits} bits");
            prev_err = err;
            prev_ratio = ratio;
        }
    }

    #[test]
    fn disabling_outliers_inflates_error() {
        let w = gaussian_with_outliers(20_000);
        let with = QuantizedLayer::encode(&w, &cfg(QuantMethod::Gobo, 3)).unwrap();
        let without =
            QuantizedLayer::encode(&w, &cfg(QuantMethod::Gobo, 3).without_outliers()).unwrap();
        assert_eq!(without.outlier_count(), 0);
        // Outliers dominate the *worst-case* error: without them, the
        // largest-magnitude weights collapse onto bulk centroids.
        let max_err = |layer: &QuantizedLayer| {
            layer.decode().iter().zip(&w).map(|(&d, &o)| (d - o).abs()).fold(0.0f32, f32::max)
        };
        let e_with = max_err(&with);
        let e_without = max_err(&without);
        assert!(
            e_without > e_with * 5.0,
            "outlier preservation should matter: max err {e_without} vs {e_with}"
        );
    }

    #[test]
    fn all_methods_round_trip_lengths() {
        let w = gaussian_with_outliers(4_096);
        for method in [QuantMethod::Gobo, QuantMethod::KMeans, QuantMethod::Linear] {
            let layer = QuantizedLayer::encode(&w, &cfg(method, 3)).unwrap();
            assert_eq!(layer.decode().len(), w.len(), "{method}");
        }
    }

    #[test]
    fn gobo_error_not_worse_than_linear() {
        let w = gaussian_with_outliers(20_000);
        let split = OutlierSplit::detect(&w, -4.0).unwrap();
        let g = QuantizedLayer::encode_split(&split, &cfg(QuantMethod::Gobo, 3)).unwrap();
        let l = QuantizedLayer::encode_split(&split, &cfg(QuantMethod::Linear, 3)).unwrap();
        assert!(g.mean_abs_error(&w) <= l.mean_abs_error(&w));
    }

    #[test]
    fn encode_split_reuses_outliers() {
        let w = gaussian_with_outliers(8_192);
        let split = OutlierSplit::detect(&w, -4.0).unwrap();
        let a = QuantizedLayer::encode_split(&split, &cfg(QuantMethod::Gobo, 3)).unwrap();
        let b = QuantizedLayer::encode_split(&split, &cfg(QuantMethod::KMeans, 3)).unwrap();
        assert_eq!(a.outlier_count(), b.outlier_count());
    }

    #[test]
    fn bin_occupancy_counts_every_g_weight() {
        let w = gaussian_with_outliers(10_000);
        for method in [QuantMethod::Gobo, QuantMethod::KMeans, QuantMethod::Linear] {
            let layer = QuantizedLayer::encode(&w, &cfg(method, 3)).unwrap();
            let occupancy = layer.bin_occupancy();
            assert_eq!(occupancy.len(), layer.codebook().len(), "{method}");
            assert_eq!(
                occupancy.iter().sum::<u64>() as usize,
                layer.total() - layer.outlier_count(),
                "{method}"
            );
            // Occupancy must agree with a decode-side recount.
            let centroids = layer.codebook().centroids().to_vec();
            let g_count = layer.total() - layer.outlier_count();
            let assignments =
                crate::packing::unpack(layer.packed_indices(), layer.bits(), g_count).unwrap();
            let mut recount = vec![0u64; centroids.len()];
            for a in assignments {
                recount[a as usize] += 1;
            }
            assert_eq!(occupancy, recount, "{method}");
        }
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(QuantizedLayer::encode(&[], &cfg(QuantMethod::Gobo, 3)).is_err());
        assert!(QuantizedLayer::encode(&[1.0; 4], &cfg(QuantMethod::Gobo, 3)).is_err());
    }
}
