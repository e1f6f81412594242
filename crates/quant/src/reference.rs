//! Reference quantizers standing in for the published comparison
//! points of Table III: Intel's Q8BERT (8-bit fixed point, fine-tuned)
//! and Q-BERT (group-wise dictionary quantization).
//!
//! These reproduce the *storage formats* — which is what Table III's
//! compression-ratio column measures — together with faithful
//! post-training versions of their value mappings. The original methods
//! recover accuracy by fine-tuning, which GOBO's whole point is to
//! avoid; our accuracy columns therefore report the post-training
//! variants and EXPERIMENTS.md notes the caveat.

use std::sync::Arc;

use crate::error::QuantError;
use crate::kmeans;
use crate::packing;

/// Q8BERT-style symmetric 8-bit linear quantization of a layer.
///
/// Weights map to `round(w / scale)` clamped to `[-127, 127]` with
/// `scale = max|w| / 127`; storage is 1 byte per weight plus the scale.
#[derive(Debug, Clone, PartialEq)]
pub struct SymmetricQuantizedLayer {
    scale: f32,
    values: Vec<i8>,
}

impl SymmetricQuantizedLayer {
    /// Quantizes a layer to symmetric 8-bit fixed point.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::EmptyLayer`] for empty input and
    /// [`QuantError::NonFinite`] for NaN/infinite weights.
    pub fn encode(weights: &[f32]) -> Result<Self, QuantError> {
        if weights.is_empty() {
            return Err(QuantError::EmptyLayer);
        }
        if weights.iter().any(|w| !w.is_finite()) {
            return Err(QuantError::NonFinite);
        }
        let max_abs = weights.iter().fold(0.0f32, |m, &w| m.max(w.abs()));
        let scale = if max_abs == 0.0 { 1.0 } else { max_abs / 127.0 };
        let values =
            weights.iter().map(|&w| (w / scale).round().clamp(-127.0, 127.0) as i8).collect();
        Ok(SymmetricQuantizedLayer { scale, values })
    }

    /// Reconstructs FP32 weights.
    pub fn decode(&self) -> Vec<f32> {
        self.values.iter().map(|&v| f32::from(v) * self.scale).collect()
    }

    /// Compressed bytes: one per weight plus the FP32 scale.
    pub fn compressed_bytes(&self) -> usize {
        self.values.len() + 4
    }

    /// `original / compressed` size ratio (original is FP32).
    pub fn compression_ratio(&self) -> f64 {
        (self.values.len() * 4) as f64 / self.compressed_bytes() as f64
    }
}

/// Q-BERT-style group-wise dictionary quantization.
///
/// The layer is split into `groups` equal chunks; each chunk gets its
/// own `2^bits`-entry K-Means dictionary (Hessian-guided in the original
/// paper; plain L2 here) and stores per-weight indices. No outliers are
/// kept — that is the key structural difference from GOBO, which Q-BERT
/// compensates for with many per-group dictionaries and fine-tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedDictionaryLayer {
    bits: u8,
    group_len: usize,
    total: usize,
    /// One codebook per group, flattened: `groups × 2^bits` entries.
    dictionaries: Vec<f32>,
    packed_indices: Arc<[u8]>,
}

impl GroupedDictionaryLayer {
    /// Quantizes a layer with per-group dictionaries.
    ///
    /// The paper's configuration uses 128 groups per layer.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedBits`] for widths outside
    /// `1..=8`, [`QuantError::InvalidConfig`] for zero `groups`,
    /// [`QuantError::EmptyLayer`]/[`QuantError::NonFinite`] for
    /// degenerate weights, and [`QuantError::TooFewValues`] when a group
    /// is smaller than its dictionary.
    pub fn encode(weights: &[f32], bits: u8, groups: usize) -> Result<Self, QuantError> {
        if !(1..=8).contains(&bits) {
            return Err(QuantError::UnsupportedBits { bits });
        }
        if groups == 0 {
            return Err(QuantError::InvalidConfig { name: "groups" });
        }
        if weights.is_empty() {
            return Err(QuantError::EmptyLayer);
        }
        if weights.iter().any(|w| !w.is_finite()) {
            return Err(QuantError::NonFinite);
        }
        let clusters = 1usize << bits;
        let group_len = weights.len().div_ceil(groups);
        let mut dictionaries = Vec::with_capacity(groups * clusters);
        let mut all_indices = Vec::with_capacity(weights.len());
        for chunk in weights.chunks(group_len) {
            let clustering = kmeans::quantize_g(chunk, clusters.min(chunk.len()), 100)?;
            let mut centroids = clustering.codebook.centroids().to_vec();
            // Pad degenerate dictionaries so every group costs the same.
            centroids.resize(clusters, *centroids.last().expect("non-empty codebook"));
            dictionaries.extend_from_slice(&centroids);
            all_indices.extend_from_slice(&clustering.assignments);
        }
        let packed_indices = packing::pack(&all_indices, bits)?.into();
        Ok(GroupedDictionaryLayer {
            bits,
            group_len,
            total: weights.len(),
            dictionaries,
            packed_indices,
        })
    }

    /// Reconstructs FP32 weights.
    pub fn decode(&self) -> Vec<f32> {
        let clusters = 1usize << self.bits;
        let indices = packing::unpack(&self.packed_indices, self.bits, self.total)
            .expect("internally consistent payload");
        indices
            .iter()
            .enumerate()
            .map(|(i, &idx)| {
                let group = i / self.group_len;
                self.dictionaries[group * clusters + idx as usize]
            })
            .collect()
    }

    /// Compressed bytes: packed indices plus all dictionaries.
    pub fn compressed_bytes(&self) -> usize {
        self.packed_indices.len() + self.dictionaries.len() * 4
    }

    /// `original / compressed` size ratio (original is FP32).
    pub fn compression_ratio(&self) -> f64 {
        (self.total * 4) as f64 / self.compressed_bytes() as f64
    }

    /// Mean absolute reconstruction error per weight.
    pub fn mean_abs_error(&self, original: &[f32]) -> f64 {
        let decoded = self.decode();
        decoded.iter().zip(original).map(|(&d, &o)| f64::from((d - o).abs())).sum::<f64>()
            / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.17).sin() * 0.05 + ((i % 97) as f32 - 48.0) * 0.0004).collect()
    }

    #[test]
    fn symmetric_round_trip_error_bounded() {
        let w = sample(4096);
        let q = SymmetricQuantizedLayer::encode(&w).unwrap();
        let decoded = q.decode();
        let max_abs = w.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let half_step = max_abs / 127.0 / 2.0;
        for (&a, &b) in w.iter().zip(&decoded) {
            assert!((a - b).abs() <= half_step + 1e-6);
        }
    }

    #[test]
    fn symmetric_ratio_is_near_four() {
        let q = SymmetricQuantizedLayer::encode(&sample(100_000)).unwrap();
        assert!((q.compression_ratio() - 4.0).abs() < 0.01);
    }

    #[test]
    fn symmetric_handles_all_zero_layer() {
        let q = SymmetricQuantizedLayer::encode(&[0.0; 16]).unwrap();
        assert_eq!(q.decode(), vec![0.0; 16]);
    }

    #[test]
    fn symmetric_rejects_bad_input() {
        assert!(SymmetricQuantizedLayer::encode(&[]).is_err());
        assert!(SymmetricQuantizedLayer::encode(&[f32::NAN]).is_err());
    }

    #[test]
    fn grouped_round_trips_length_and_bounds_error() {
        let w = sample(16_384);
        let q = GroupedDictionaryLayer::encode(&w, 3, 128).unwrap();
        let d = q.decode();
        assert_eq!(d.len(), w.len());
        // Each decoded weight is a dictionary entry of its group.
        assert!(q.mean_abs_error(&w) < 0.05);
    }

    #[test]
    fn grouped_more_groups_reduce_error() {
        let w = sample(16_384);
        let coarse = GroupedDictionaryLayer::encode(&w, 3, 4).unwrap();
        let fine = GroupedDictionaryLayer::encode(&w, 3, 128).unwrap();
        assert!(fine.mean_abs_error(&w) <= coarse.mean_abs_error(&w) + 1e-9);
    }

    #[test]
    fn grouped_ratio_below_ideal_due_to_dictionaries() {
        let w = sample(1 << 18);
        let q = GroupedDictionaryLayer::encode(&w, 3, 128).unwrap();
        let r = q.compression_ratio();
        assert!(r < 32.0 / 3.0, "ratio {r}");
        assert!(r > 8.0, "ratio {r}");
    }

    #[test]
    fn grouped_validation() {
        assert!(GroupedDictionaryLayer::encode(&[], 3, 128).is_err());
        assert!(GroupedDictionaryLayer::encode(&[1.0], 0, 128).is_err());
        assert!(GroupedDictionaryLayer::encode(&[1.0], 9, 128).is_err());
        assert!(GroupedDictionaryLayer::encode(&[1.0], 3, 0).is_err());
    }

    #[test]
    fn grouped_uneven_final_group() {
        // 1000 weights into 128 groups: group_len = 8, last group short.
        let w = sample(1000);
        let q = GroupedDictionaryLayer::encode(&w, 2, 128).unwrap();
        assert_eq!(q.decode().len(), 1000);
    }
}
