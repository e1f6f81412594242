//! Memory-footprint accounting (Tables I, II and VII).
//!
//! The paper reports sizes in "MB" that are binary mebibytes of FP32
//! parameters: BERT-Base weights 326.26 MB, embedding tables 89.42 MB,
//! and per-word activations of 3 KB (one 768-wide FP32 vector ≈ 3 KiB).
//! These functions reproduce those rows exactly from the geometry.

use crate::config::ModelConfig;

/// Bytes per mebibyte (the paper's "MB").
pub const MIB: f64 = 1024.0 * 1024.0;

/// One model's memory footprint, mirroring Table II's rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Footprint {
    /// Model name.
    pub model: String,
    /// Word-embedding-table bytes (Table II "Embedding Tables").
    pub embedding_bytes: usize,
    /// FC weight-matrix bytes (Table II "Weights").
    pub weight_bytes: usize,
    /// Bytes of model input per word (hidden-state vector).
    pub input_per_word_bytes: usize,
    /// Bytes of the largest layer's activations per word (the
    /// intermediate FC output).
    pub largest_acts_per_word_bytes: usize,
    /// Sequence length used for the activation row.
    pub sequence_length: usize,
    /// Total activation bytes for one sequence.
    pub activation_bytes: usize,
}

impl Footprint {
    /// Computes the footprint of a model at a given sequence length
    /// (the paper uses 128).
    pub fn of(config: &ModelConfig, sequence_length: usize) -> Self {
        let input_per_word = config.hidden * 4;
        let largest_acts_per_word = config.intermediate * 4;
        // Per word the live working set is the hidden state plus the
        // widest intermediate activation.
        let activation = sequence_length * (config.hidden + config.intermediate) * 4;
        Footprint {
            model: config.name.clone(),
            embedding_bytes: config.word_embedding_params() * 4,
            weight_bytes: config.fc_weight_params() * 4,
            input_per_word_bytes: input_per_word,
            largest_acts_per_word_bytes: largest_acts_per_word,
            sequence_length,
            activation_bytes: activation,
        }
    }

    /// Embedding bytes in the paper's MB (MiB).
    pub fn embedding_mib(&self) -> f64 {
        self.embedding_bytes as f64 / MIB
    }

    /// Weight bytes in the paper's MB (MiB).
    pub fn weight_mib(&self) -> f64 {
        self.weight_bytes as f64 / MIB
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_bert_base() {
        let f = Footprint::of(&ModelConfig::bert_base(), 128);
        assert!((f.embedding_mib() - 89.42).abs() < 0.01, "{}", f.embedding_mib());
        assert!((f.weight_mib() - 326.25).abs() < 0.5, "{}", f.weight_mib());
        // "Model Input per Word: 3 KB" — 768 floats = 3 KiB.
        assert_eq!(f.input_per_word_bytes, 3 * 1024);
        // "Largest layer Acts per Word: 12 KB" — 3072 floats = 12 KiB.
        assert_eq!(f.largest_acts_per_word_bytes, 12 * 1024);
        // "Activations ≈ 1.5 MB" at sequence length 128.
        assert!((f.activation_bytes as f64 / MIB - 1.875).abs() < 0.5);
    }

    #[test]
    fn table2_bert_large() {
        let f = Footprint::of(&ModelConfig::bert_large(), 128);
        assert!((f.embedding_mib() - 119.22).abs() < 0.01);
        assert!((f.weight_bytes as f64 / MIB / 1024.0 - 1.12).abs() < 0.02, "GiB");
        assert_eq!(f.input_per_word_bytes, 4 * 1024);
        assert_eq!(f.largest_acts_per_word_bytes, 16 * 1024);
    }

    #[test]
    fn distilbert_is_half_of_bert_base() {
        let base = Footprint::of(&ModelConfig::bert_base(), 128);
        let distil = Footprint::of(&ModelConfig::distilbert(), 128);
        let ratio = base.weight_bytes as f64 / distil.weight_bytes as f64;
        assert!(ratio > 1.9 && ratio < 2.2, "ratio {ratio}");
    }
}
