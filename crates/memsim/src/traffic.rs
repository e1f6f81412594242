//! Per-inference off-chip traffic accounting.

use gobo_model::footprint::Footprint;

/// Bytes moved across the off-chip interface for one inference.
///
/// The model follows the paper's Section I framing: FC weights and the
/// embedding rows actually touched are streamed from DRAM once per
/// inference (they exceed any realistic on-chip capacity), while
/// activations are small enough to count once in and once out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceTraffic {
    /// FC weight bytes streamed.
    pub weight_bytes: f64,
    /// Embedding-row bytes gathered (`seq_len` rows of the word table).
    pub embedding_bytes: f64,
    /// Activation bytes written + read across layer boundaries.
    pub activation_bytes: f64,
}

impl InferenceTraffic {
    /// Traffic of the uncompressed FP32 model described by `footprint`.
    pub fn fp32(footprint: &Footprint) -> Self {
        let seq = footprint.sequence_length as f64;
        InferenceTraffic {
            weight_bytes: footprint.weight_bytes as f64,
            // One word-embedding row per token.
            embedding_bytes: seq * footprint.input_per_word_bytes as f64,
            // Hidden state out + in around each streamed layer group is
            // dominated by the largest per-word activation.
            activation_bytes: 2.0
                * seq
                * (footprint.input_per_word_bytes + footprint.largest_acts_per_word_bytes) as f64,
        }
    }

    /// The same inference with weights (and embedding rows) compressed
    /// by `ratio` — the effect of GOBO's off-chip format. Activations
    /// stay FP32, exactly as in the paper.
    ///
    /// # Panics
    ///
    /// Panics when `ratio` is not a positive finite number.
    pub fn with_weight_compression(&self, ratio: f64) -> Self {
        assert!(ratio.is_finite() && ratio > 0.0, "invalid compression ratio {ratio}");
        InferenceTraffic {
            weight_bytes: self.weight_bytes / ratio,
            embedding_bytes: self.embedding_bytes / ratio,
            activation_bytes: self.activation_bytes,
        }
    }

    /// Total off-chip bytes.
    pub fn total_bytes(&self) -> f64 {
        self.weight_bytes + self.embedding_bytes + self.activation_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gobo_model::config::ModelConfig;

    fn base() -> InferenceTraffic {
        InferenceTraffic::fp32(&Footprint::of(&ModelConfig::bert_base(), 128))
    }

    #[test]
    fn weights_dominate_fp32_traffic() {
        // Section I: footprint and traffic are dominated by the weights.
        let t = base();
        let weight_fraction = t.weight_bytes / t.total_bytes();
        assert!(weight_fraction > 0.9, "weight fraction {weight_fraction}");
    }

    #[test]
    fn compression_scales_weight_term_only() {
        let t = base();
        let c = t.with_weight_compression(10.0);
        assert!((c.weight_bytes - t.weight_bytes / 10.0).abs() < 1.0);
        assert_eq!(c.activation_bytes, t.activation_bytes);
        assert!(c.total_bytes() < t.total_bytes() / 5.0);
    }

    #[test]
    fn longer_sequences_move_more_activation_bytes() {
        let short = InferenceTraffic::fp32(&Footprint::of(&ModelConfig::bert_base(), 64));
        let long = InferenceTraffic::fp32(&Footprint::of(&ModelConfig::bert_base(), 256));
        assert!(long.activation_bytes > short.activation_bytes * 3.9);
        assert_eq!(long.weight_bytes, short.weight_bytes);
    }

    #[test]
    #[should_panic(expected = "invalid compression ratio")]
    fn rejects_zero_ratio() {
        let _ = base().with_weight_compression(0.0);
    }
}
