//! The layer registry: every quantizable weight matrix in a model.
//!
//! Figure 3 of the paper plots outlier fractions across "all 73 FC
//! layers" of BERT-Base; Tables III–VII distinguish FC weights from
//! embedding tables. [`enumerate_fc_layers`] and
//! [`enumerate_embedding_tables`] produce exactly those populations,
//! with stable names consumed by the mixed-precision rules in
//! `gobo-quant`.

use crate::config::ModelConfig;

/// What role a weight matrix plays, mirroring Figure 1a's blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Self-attention query projection.
    Query,
    /// Self-attention key projection.
    Key,
    /// Self-attention value projection.
    Value,
    /// Self-attention output projection.
    AttentionOutput,
    /// The widening intermediate FC.
    Intermediate,
    /// The narrowing output FC.
    Output,
    /// The final pooler FC.
    Pooler,
    /// Word-piece embedding table.
    WordEmbedding,
    /// Position embedding table.
    PositionEmbedding,
    /// Token-type (segment) embedding table.
    TokenTypeEmbedding,
}

/// Name and geometry of one weight matrix.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FcLayerSpec {
    /// Stable name, e.g. `encoder.3.attention.value` or
    /// `embeddings.word`.
    pub name: String,
    /// Which block the matrix belongs to.
    pub kind: LayerKind,
    /// Encoder index for per-encoder layers; `None` for pooler and
    /// embeddings.
    pub encoder: Option<usize>,
    /// Output features (rows; weights are stored `(rows, cols)`).
    pub rows: usize,
    /// Input features (columns).
    pub cols: usize,
}

impl FcLayerSpec {
    /// Number of weights in the matrix.
    pub fn params(&self) -> usize {
        self.rows * self.cols
    }
}

/// Enumerates every FC weight matrix of a model in forward order:
/// per-encoder query, key, value, attention-output, intermediate,
/// output; then the pooler (when present).
pub fn enumerate_fc_layers(config: &ModelConfig) -> Vec<FcLayerSpec> {
    let h = config.hidden;
    let i = config.intermediate;
    let mut out = Vec::with_capacity(config.fc_layer_count());
    for e in 0..config.encoder_layers {
        let mk = |component: &str, kind: LayerKind, rows: usize, cols: usize| FcLayerSpec {
            name: format!("encoder.{e}.{component}"),
            kind,
            encoder: Some(e),
            rows,
            cols,
        };
        out.push(mk("attention.query", LayerKind::Query, h, h));
        out.push(mk("attention.key", LayerKind::Key, h, h));
        out.push(mk("attention.value", LayerKind::Value, h, h));
        out.push(mk("attention.output", LayerKind::AttentionOutput, h, h));
        out.push(mk("intermediate", LayerKind::Intermediate, i, h));
        out.push(mk("output", LayerKind::Output, h, i));
    }
    if config.has_pooler {
        out.push(FcLayerSpec {
            name: "pooler".into(),
            kind: LayerKind::Pooler,
            encoder: None,
            rows: h,
            cols: h,
        });
    }
    out
}

/// Enumerates the embedding tables of a model (word, position, and —
/// when the model has segments — token-type).
pub fn enumerate_embedding_tables(config: &ModelConfig) -> Vec<FcLayerSpec> {
    let mut out = vec![
        FcLayerSpec {
            name: "embeddings.word".into(),
            kind: LayerKind::WordEmbedding,
            encoder: None,
            rows: config.vocab,
            cols: config.hidden,
        },
        FcLayerSpec {
            name: "embeddings.position".into(),
            kind: LayerKind::PositionEmbedding,
            encoder: None,
            rows: config.max_position,
            cols: config.hidden,
        },
    ];
    if config.type_vocab > 0 {
        out.push(FcLayerSpec {
            name: "embeddings.token_type".into(),
            kind: LayerKind::TokenTypeEmbedding,
            encoder: None,
            rows: config.type_vocab,
            cols: config.hidden,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bert_base_has_73_fc_layers() {
        let layers = enumerate_fc_layers(&ModelConfig::bert_base());
        assert_eq!(layers.len(), 73);
        assert_eq!(layers.last().unwrap().name, "pooler");
    }

    #[test]
    fn bert_large_has_145_fc_layers() {
        assert_eq!(enumerate_fc_layers(&ModelConfig::bert_large()).len(), 145);
    }

    #[test]
    fn distilbert_has_no_pooler() {
        let layers = enumerate_fc_layers(&ModelConfig::distilbert());
        assert_eq!(layers.len(), 36);
        assert!(layers.iter().all(|l| l.kind != LayerKind::Pooler));
    }

    #[test]
    fn params_sum_matches_config() {
        for config in [
            ModelConfig::bert_base(),
            ModelConfig::bert_large(),
            ModelConfig::distilbert(),
            ModelConfig::roberta_base(),
        ] {
            let total: usize = enumerate_fc_layers(&config).iter().map(|l| l.params()).sum();
            assert_eq!(total, config.fc_weight_params(), "{}", config.name);
        }
    }

    #[test]
    fn names_are_unique_and_parseable() {
        let layers = enumerate_fc_layers(&ModelConfig::bert_base());
        let names: std::collections::HashSet<_> = layers.iter().map(|l| &l.name).collect();
        assert_eq!(names.len(), layers.len());
        // Encoder-scoped names carry their index.
        for l in &layers {
            if let Some(e) = l.encoder {
                assert!(l.name.starts_with(&format!("encoder.{e}.")));
            }
        }
    }

    #[test]
    fn intermediate_and_output_dims_match_table1() {
        let layers = enumerate_fc_layers(&ModelConfig::bert_base());
        let inter = layers.iter().find(|l| l.kind == LayerKind::Intermediate).unwrap();
        assert_eq!((inter.rows, inter.cols), (3072, 768));
        let out = layers.iter().find(|l| l.kind == LayerKind::Output).unwrap();
        assert_eq!((out.rows, out.cols), (768, 3072));
    }

    #[test]
    fn embedding_tables_enumerate() {
        let tables = enumerate_embedding_tables(&ModelConfig::bert_base());
        assert_eq!(tables.len(), 3);
        let kinds: Vec<LayerKind> = tables.iter().map(|t| t.kind).collect();
        let expected =
            [LayerKind::WordEmbedding, LayerKind::PositionEmbedding, LayerKind::TokenTypeEmbedding];
        assert_eq!(kinds, expected);
        assert_eq!(tables[0].params(), 30_522 * 768);
        // DistilBERT drops token-type embeddings.
        assert_eq!(enumerate_embedding_tables(&ModelConfig::distilbert()).len(), 2);
    }
}
