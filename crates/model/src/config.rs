//! Model geometry for the BERT family (Table I of the paper).

use crate::error::ModelError;

/// Complete architectural description of a BERT-style encoder.
///
/// The five published presets ([`ModelConfig::bert_base`] and friends)
/// reproduce Table I exactly; [`ModelConfig::tiny`] builds small
/// trainable variants with the same topology for the accuracy
/// experiments.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelConfig {
    /// Human-readable model name (e.g. `"BERT-Base"`).
    pub name: String,
    /// Number of stacked encoder ("BERT") layers.
    pub encoder_layers: usize,
    /// Hidden-state width.
    pub hidden: usize,
    /// Intermediate FC width (4× hidden in the published models).
    pub intermediate: usize,
    /// Number of attention heads.
    pub heads: usize,
    /// WordPiece/BPE vocabulary size.
    pub vocab: usize,
    /// Maximum sequence length (position-embedding rows).
    pub max_position: usize,
    /// Token-type vocabulary (2 for BERT's sentence-pair encoding; 0
    /// when the model has no segment embeddings, e.g. DistilBERT).
    pub type_vocab: usize,
    /// Whether the model ends in a pooler FC (DistilBERT does not).
    pub has_pooler: bool,
}

impl ModelConfig {
    /// BERT-Base: 12 layers, hidden 768, intermediate 3072 (Table I).
    pub fn bert_base() -> Self {
        ModelConfig {
            name: "BERT-Base".into(),
            encoder_layers: 12,
            hidden: 768,
            intermediate: 3072,
            heads: 12,
            vocab: 30_522,
            max_position: 512,
            type_vocab: 2,
            has_pooler: true,
        }
    }

    /// BERT-Large: 24 layers, hidden 1024, intermediate 4096 (Table I).
    pub fn bert_large() -> Self {
        ModelConfig {
            name: "BERT-Large".into(),
            encoder_layers: 24,
            hidden: 1024,
            intermediate: 4096,
            heads: 16,
            vocab: 30_522,
            max_position: 512,
            type_vocab: 2,
            has_pooler: true,
        }
    }

    /// DistilBERT: 6 layers distilled from BERT-Base, no pooler and no
    /// token-type embeddings.
    pub fn distilbert() -> Self {
        ModelConfig {
            name: "DistilBERT".into(),
            encoder_layers: 6,
            hidden: 768,
            intermediate: 3072,
            heads: 12,
            vocab: 30_522,
            max_position: 512,
            type_vocab: 0,
            has_pooler: false,
        }
    }

    /// RoBERTa (base): BERT-Base geometry with a 50k BPE vocabulary.
    pub fn roberta_base() -> Self {
        ModelConfig {
            name: "RoBERTa".into(),
            encoder_layers: 12,
            hidden: 768,
            intermediate: 3072,
            heads: 12,
            vocab: 50_265,
            max_position: 514,
            type_vocab: 1,
            has_pooler: true,
        }
    }

    /// RoBERTa-Large: BERT-Large geometry with a 50k BPE vocabulary.
    pub fn roberta_large() -> Self {
        ModelConfig {
            name: "RoBERTa-Large".into(),
            encoder_layers: 24,
            hidden: 1024,
            intermediate: 4096,
            heads: 16,
            vocab: 50_265,
            max_position: 514,
            type_vocab: 1,
            has_pooler: true,
        }
    }

    /// A small trainable variant with the same topology. Hidden width
    /// must divide evenly among heads.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] when any extent is zero or
    /// `hidden % heads != 0`.
    pub fn tiny(
        name: &str,
        encoder_layers: usize,
        hidden: usize,
        heads: usize,
        vocab: usize,
        max_position: usize,
    ) -> Result<Self, ModelError> {
        let config = ModelConfig {
            name: name.into(),
            encoder_layers,
            hidden,
            intermediate: hidden * 4,
            heads,
            vocab,
            max_position,
            type_vocab: 2,
            has_pooler: true,
        };
        config.validate()?;
        Ok(config)
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.encoder_layers == 0 {
            return Err(ModelError::InvalidConfig { name: "encoder_layers" });
        }
        if self.hidden == 0 {
            return Err(ModelError::InvalidConfig { name: "hidden" });
        }
        if self.intermediate == 0 {
            return Err(ModelError::InvalidConfig { name: "intermediate" });
        }
        if self.heads == 0 || !self.hidden.is_multiple_of(self.heads) {
            return Err(ModelError::InvalidConfig { name: "heads" });
        }
        if self.vocab == 0 {
            return Err(ModelError::InvalidConfig { name: "vocab" });
        }
        if self.max_position == 0 {
            return Err(ModelError::InvalidConfig { name: "max_position" });
        }
        // The raw-model format carries the name behind a `u16` length:
        // bounded here, where the value is created, so
        // `io::save_model` never writes a length it had to clamp.
        if self.name.len() > usize::from(u16::MAX) {
            return Err(ModelError::InvalidConfig { name: "name" });
        }
        Ok(())
    }

    /// Per-head dimension (`hidden / heads`).
    pub fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }

    /// Number of FC layers: 6 per encoder (4 attention + intermediate +
    /// output) plus the pooler — 73 for BERT-Base, 145 for BERT-Large,
    /// matching Section II.
    pub fn fc_layer_count(&self) -> usize {
        self.encoder_layers * 6 + usize::from(self.has_pooler)
    }

    /// Total FC *weight-matrix* parameters (the population GOBO
    /// quantizes; biases and LayerNorm excluded, matching Table II's
    /// "Weights" row).
    pub fn fc_weight_params(&self) -> usize {
        let per_layer = 4 * self.hidden * self.hidden + 2 * self.hidden * self.intermediate;
        let pooler = if self.has_pooler { self.hidden * self.hidden } else { 0 };
        self.encoder_layers * per_layer + pooler
    }

    /// Word-embedding parameters (the "Embedding Tables" row of
    /// Table II counts the word table).
    pub fn word_embedding_params(&self) -> usize {
        self.vocab * self.hidden
    }

    /// All embedding parameters (word + position + token-type).
    pub fn embedding_params(&self) -> usize {
        (self.vocab + self.max_position + self.type_vocab) * self.hidden
    }
}

impl Default for ModelConfig {
    /// Defaults to BERT-Base, the paper's primary subject.
    fn default() -> Self {
        Self::bert_base()
    }
}

impl std::fmt::Display for ModelConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} layers, hidden {}, intermediate {})",
            self.name, self.encoder_layers, self.hidden, self.intermediate
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_geometry() {
        let base = ModelConfig::bert_base();
        assert_eq!(base.encoder_layers, 12);
        assert_eq!(base.hidden, 768);
        assert_eq!(base.intermediate, 3072);
        let large = ModelConfig::bert_large();
        assert_eq!(large.encoder_layers, 24);
        assert_eq!(large.hidden, 1024);
        assert_eq!(large.intermediate, 4096);
    }

    #[test]
    fn fc_layer_counts_match_section2() {
        assert_eq!(ModelConfig::bert_base().fc_layer_count(), 73);
        assert_eq!(ModelConfig::bert_large().fc_layer_count(), 145);
        assert_eq!(ModelConfig::distilbert().fc_layer_count(), 36);
    }

    #[test]
    fn weight_params_match_table2() {
        // BERT-Base weights: 326.26 MiB of FP32.
        let bytes = ModelConfig::bert_base().fc_weight_params() * 4;
        let mib = bytes as f64 / (1024.0 * 1024.0);
        assert!((mib - 326.25).abs() < 0.5, "BERT-Base weights {mib} MiB");
        // BERT-Large: ~1.12 GiB.
        let gib = (ModelConfig::bert_large().fc_weight_params() * 4) as f64 / (1024.0f64.powi(3));
        assert!((gib - 1.12).abs() < 0.02, "BERT-Large weights {gib} GiB");
    }

    #[test]
    fn word_embeddings_match_table7() {
        let mib = |c: &ModelConfig| (c.word_embedding_params() * 4) as f64 / (1024.0 * 1024.0);
        assert!((mib(&ModelConfig::bert_base()) - 89.42).abs() < 0.01);
        assert!((mib(&ModelConfig::bert_large()) - 119.22).abs() < 0.01);
        assert!((mib(&ModelConfig::distilbert()) - 89.42).abs() < 0.01);
        assert!((mib(&ModelConfig::roberta_base()) - 147.26).abs() < 0.01);
        assert!((mib(&ModelConfig::roberta_large()) - 196.34).abs() < 0.01);
    }

    #[test]
    fn tiny_validates() {
        let t = ModelConfig::tiny("Tiny", 2, 64, 4, 100, 32).unwrap();
        assert_eq!(t.head_dim(), 16);
        assert_eq!(t.intermediate, 256);
        assert!(ModelConfig::tiny("Bad", 2, 65, 4, 100, 32).is_err());
        assert!(ModelConfig::tiny("Bad", 0, 64, 4, 100, 32).is_err());
        assert!(ModelConfig::tiny("Bad", 2, 64, 4, 0, 32).is_err());
    }

    #[test]
    fn validate_catches_each_field() {
        let mut c = ModelConfig::bert_base();
        c.heads = 7; // 768 % 7 != 0
        assert!(c.validate().is_err());
        let mut c = ModelConfig::bert_base();
        c.intermediate = 0;
        assert!(c.validate().is_err());
        let mut c = ModelConfig::bert_base();
        c.max_position = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_bounds_what_the_model_file_can_carry() {
        let mut c = ModelConfig::bert_base();
        c.name = "n".repeat(usize::from(u16::MAX));
        assert!(c.validate().is_ok());
        c.name.push('n');
        assert_eq!(c.validate(), Err(ModelError::InvalidConfig { name: "name" }));
    }

    #[test]
    fn display_names() {
        assert!(ModelConfig::bert_base().to_string().contains("BERT-Base"));
        assert_eq!(ModelConfig::default(), ModelConfig::bert_base());
    }
}
