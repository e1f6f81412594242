//! The FP32 encoder forward pass (Figure 1a).
//!
//! Each encoder layer runs multi-head self-attention (query/key/value
//! projections, scaled dot-product, output projection, residual +
//! LayerNorm), then the intermediate GELU FC and output FC with another
//! residual + LayerNorm. A final pooler (FC + tanh over the first
//! token) produces the sentence representation used by classification
//! heads.

use gobo_tensor::embed::gather_rows;
use gobo_tensor::linalg::{merge_heads, split_heads, transpose_batched};
use gobo_tensor::norm::LAYER_NORM_EPS;
use gobo_tensor::Tensor;

use crate::error::ModelError;
use crate::weights::TransformerModel;

/// Output of one encoder pass.
#[derive(Debug, Clone, PartialEq)]
pub struct EncoderOutput {
    /// Final hidden states, `(seq_len, hidden)`.
    pub hidden: Tensor,
    /// Pooled first-token representation (`tanh(W·h₀+b)`), when the
    /// model has a pooler.
    pub pooled: Option<Tensor>,
}

impl TransformerModel {
    /// Runs the full encoder over a token sequence.
    ///
    /// `type_ids` may be empty (treated as all zeros) or must match
    /// `ids` in length. Models without token-type embeddings ignore it.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidInput`] for empty/overlong inputs or
    /// out-of-vocabulary ids, and propagates tensor failures.
    pub fn encode(&self, ids: &[usize], type_ids: &[usize]) -> Result<EncoderOutput, ModelError> {
        let config = self.config();
        self.validate_input(ids, type_ids)?;

        // --- Embeddings ---------------------------------------------------
        let word = gather_rows(self.weight("embeddings.word")?, ids)?;
        let positions: Vec<usize> = (0..ids.len()).collect();
        let pos = gather_rows(self.weight("embeddings.position")?, &positions)?;
        let mut x = word.add(&pos)?;
        if config.type_vocab > 0 {
            let zeros;
            let types: &[usize] = if type_ids.is_empty() {
                zeros = vec![0usize; ids.len()];
                &zeros
            } else {
                type_ids
            };
            let tt = gather_rows(self.weight("embeddings.token_type")?, types)?;
            x = x.add(&tt)?;
        }
        x = x.layer_norm(
            self.aux("embeddings.ln.gamma")?,
            self.aux("embeddings.ln.beta")?,
            LAYER_NORM_EPS,
        )?;

        // --- Encoder stack -------------------------------------------------
        for e in 0..config.encoder_layers {
            x = self.encoder_layer(e, &x)?;
        }

        // --- Pooler ---------------------------------------------------------
        let pooled = if config.has_pooler {
            let first = x.row(0)?.reshape(&[1, config.hidden])?;
            let z = first.matmul_nt(self.weight("pooler")?)?.add_bias(self.aux("pooler.bias")?)?;
            Some(z.tanh().reshape(&[config.hidden])?)
        } else {
            None
        };

        Ok(EncoderOutput { hidden: x, pooled })
    }

    /// Validates one token sequence against the model configuration.
    ///
    /// `type_ids` may be empty (treated as all zeros) or must match
    /// `ids` in length; type-id values are only range-checked when the
    /// model actually has token-type embeddings. This is exactly the
    /// admission check [`TransformerModel::encode`] performs, exposed so
    /// batched callers can vet every sequence before any compute runs.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidInput`] for empty/overlong inputs,
    /// out-of-vocabulary ids, or mismatched/out-of-range type ids.
    pub fn validate_input(&self, ids: &[usize], type_ids: &[usize]) -> Result<(), ModelError> {
        let config = self.config();
        if ids.is_empty() {
            return Err(ModelError::InvalidInput { what: "empty token sequence" });
        }
        if ids.len() > config.max_position {
            return Err(ModelError::InvalidInput { what: "sequence longer than max_position" });
        }
        if !type_ids.is_empty() && type_ids.len() != ids.len() {
            return Err(ModelError::InvalidInput { what: "type_ids length mismatch" });
        }
        if ids.iter().any(|&id| id >= config.vocab) {
            return Err(ModelError::InvalidInput { what: "token id outside vocabulary" });
        }
        if config.type_vocab > 0 && type_ids.iter().any(|&t| t >= config.type_vocab) {
            return Err(ModelError::InvalidInput { what: "token type id outside vocabulary" });
        }
        Ok(())
    }

    /// One encoder layer: self-attention block then feed-forward block.
    fn encoder_layer(&self, e: usize, x: &Tensor) -> Result<Tensor, ModelError> {
        let config = self.config();
        let prefix = format!("encoder.{e}");
        let fc = |name: &str, input: &Tensor| -> Result<Tensor, ModelError> {
            let full = format!("{prefix}.{name}");
            Ok(input
                .matmul_nt(self.weight(&full)?)?
                .add_bias(self.aux(&format!("{full}.bias"))?)?)
        };

        // Self-attention.
        let q = fc("attention.query", x)?;
        let k = fc("attention.key", x)?;
        let v = fc("attention.value", x)?;
        let ctx = self_attention(&q, &k, &v, config.heads)?;
        let attn = fc("attention.output", &ctx)?;
        let x = x.add(&attn)?.layer_norm(
            self.aux(&format!("{prefix}.attention.ln.gamma"))?,
            self.aux(&format!("{prefix}.attention.ln.beta"))?,
            LAYER_NORM_EPS,
        )?;

        // Feed-forward.
        let inter = fc("intermediate", &x)?.gelu();
        let out = fc("output", &inter)?;
        let x = x.add(&out)?.layer_norm(
            self.aux(&format!("{prefix}.output.ln.gamma"))?,
            self.aux(&format!("{prefix}.output.ln.beta"))?,
            LAYER_NORM_EPS,
        )?;
        Ok(x)
    }
}

/// Scaled dot-product self-attention within one sequence: `q`, `k` and
/// `v` are its `(seq_len, hidden)` projections, split into `heads`, and
/// the result is the merged `(seq_len, hidden)` context. Both forwards
/// call this — the reference on the whole sequence, the batched forward
/// on each sequence's row slice. K's rows are the weight rows of
/// `Q·Kᵀ`; `probs·V` runs against `Vᵀ`.
pub(crate) fn self_attention(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
) -> Result<Tensor, ModelError> {
    let (qh, kh, vh) = (split_heads(q, heads)?, split_heads(k, heads)?, split_heads(v, heads)?);
    let scale = 1.0 / (qh.dims()[2] as f32).sqrt();
    let probs = qh.batch_matmul_nt(&kh)?.scale(scale).softmax()?;
    Ok(merge_heads(&probs.batch_matmul_nt(&transpose_batched(&vh)?)?)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> TransformerModel {
        let config = ModelConfig::tiny("Tiny", 2, 32, 4, 64, 16).unwrap();
        TransformerModel::new(config, &mut StdRng::seed_from_u64(3)).unwrap()
    }

    #[test]
    fn encode_shapes() {
        let m = tiny();
        let out = m.encode(&[1, 2, 3, 4, 5], &[]).unwrap();
        assert_eq!(out.hidden.dims(), &[5, 32]);
        assert_eq!(out.pooled.as_ref().unwrap().dims(), &[32]);
        assert!(out.hidden.all_finite());
        assert!(out.pooled.unwrap().all_finite());
    }

    #[test]
    fn pooled_values_in_tanh_range() {
        let m = tiny();
        let out = m.encode(&[9, 8, 7], &[]).unwrap();
        assert!(out.pooled.unwrap().as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn encode_is_deterministic() {
        let m = tiny();
        let a = m.encode(&[4, 4, 4], &[0, 0, 1]).unwrap();
        let b = m.encode(&[4, 4, 4], &[0, 0, 1]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn token_types_change_output() {
        let m = tiny();
        let a = m.encode(&[4, 5, 6], &[0, 0, 0]).unwrap();
        let b = m.encode(&[4, 5, 6], &[1, 1, 1]).unwrap();
        assert_ne!(a.hidden, b.hidden);
    }

    #[test]
    fn position_matters() {
        let m = tiny();
        let a = m.encode(&[10, 11], &[]).unwrap();
        let b = m.encode(&[11, 10], &[]).unwrap();
        assert_ne!(a.hidden, b.hidden);
    }

    #[test]
    fn input_validation() {
        let m = tiny();
        assert!(m.encode(&[], &[]).is_err());
        assert!(m.encode(&[999], &[]).is_err()); // out of vocab
        assert!(m.encode(&[1, 2], &[0]).is_err()); // length mismatch
        assert!(m.encode(&[1, 2], &[0, 9]).is_err()); // bad type id
        let too_long: Vec<usize> = vec![1; 17]; // max_position = 16
        assert!(m.encode(&too_long, &[]).is_err());
    }

    #[test]
    fn distilbert_like_has_no_pooled_output() {
        let mut config = ModelConfig::tiny("TinyD", 1, 16, 2, 30, 8).unwrap();
        config.has_pooler = false;
        config.type_vocab = 0;
        let m = TransformerModel::new(config, &mut StdRng::seed_from_u64(5)).unwrap();
        let out = m.encode(&[1, 2, 3], &[]).unwrap();
        assert!(out.pooled.is_none());
        assert_eq!(out.hidden.dims(), &[3, 16]);
    }

    #[test]
    fn weight_perturbation_changes_output() {
        // Plug-in compatibility sanity: replacing a weight changes the
        // forward result (the quantization pipeline relies on set_weight
        // actually being wired into encode()).
        let mut m = tiny();
        let before = m.encode(&[1, 2, 3], &[]).unwrap();
        let w = m.weight("encoder.0.intermediate").unwrap().scale(1.5);
        m.set_weight("encoder.0.intermediate", w).unwrap();
        let after = m.encode(&[1, 2, 3], &[]).unwrap();
        assert_ne!(before.hidden, after.hidden);
    }
}
