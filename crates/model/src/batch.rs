//! Ragged batched encoder forward pass.
//!
//! A coalesced serve batch holds sequences of *different* lengths. This
//! module stacks them into one `(Σ lenᵢ, hidden)` activation panel so
//! every FC product — the operations that dominate encoder cost and the
//! ones a compute-on-compressed backend amortizes across rows — runs
//! once per layer over the whole batch. Only self-attention, which
//! mixes information *within* a sequence, is computed per sequence on a
//! row slice of the panel.
//!
//! ## Bit-identity
//!
//! Every stacked operation (FC products, bias adds, GELU/tanh,
//! per-row LayerNorm, per-sequence attention) treats each activation
//! row independently and in the same order as the solo path, so
//! [`TransformerModel::encode_batch`] produces outputs **bitwise
//! identical** to calling [`TransformerModel::encode`] once per
//! sequence. The serve tier's byte-identical parity tests rely on this.

use gobo_tensor::norm::LAYER_NORM_EPS;
use gobo_tensor::Tensor;

use crate::compute::{DenseCompute, WeightCompute};
use crate::error::ModelError;
use crate::forward::{self_attention, EncoderOutput};
use crate::weights::TransformerModel;

/// One sequence of a ragged encode batch.
#[derive(Debug, Clone, Copy)]
pub struct EncodeInput<'a> {
    /// Token ids, non-empty and within the model vocabulary.
    pub ids: &'a [usize],
    /// Token type ids: empty (all zeros) or `ids.len()` entries.
    pub type_ids: &'a [usize],
}

impl TransformerModel {
    /// Runs the encoder over a ragged batch of sequences using the
    /// dense FP32 weights.
    ///
    /// Returns one [`EncoderOutput`] per input, in order, bitwise
    /// identical to encoding each sequence alone.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidInput`] for an empty batch or if
    /// *any* sequence fails validation (no partial results), and
    /// propagates tensor failures.
    pub fn encode_batch(
        &self,
        inputs: &[EncodeInput<'_>],
    ) -> Result<Vec<EncoderOutput>, ModelError> {
        self.encode_batch_with(&DenseCompute, inputs)
    }

    /// [`TransformerModel::encode_batch`] with a pluggable
    /// [`WeightCompute`] backend for the embedding gathers and the FC
    /// products.
    ///
    /// # Errors
    ///
    /// As [`TransformerModel::encode_batch`], plus whatever the backend
    /// reports.
    pub fn encode_batch_with<C: WeightCompute + ?Sized>(
        &self,
        compute: &C,
        inputs: &[EncodeInput<'_>],
    ) -> Result<Vec<EncoderOutput>, ModelError> {
        let config = self.config();
        if inputs.is_empty() {
            return Err(ModelError::InvalidInput { what: "empty encode batch" });
        }
        for input in inputs {
            self.validate_input(input.ids, input.type_ids)?;
        }

        // Row offsets of each sequence inside the stacked panel:
        // sequence `b` occupies rows `offsets[b] .. offsets[b + 1]`.
        let mut offsets = Vec::with_capacity(inputs.len() + 1);
        let mut total = 0usize;
        offsets.push(0);
        for input in inputs {
            total += input.ids.len();
            offsets.push(total);
        }

        // --- Embeddings (stacked) -----------------------------------------
        let all_ids: Vec<usize> =
            inputs.iter().flat_map(|input| input.ids.iter().copied()).collect();
        let word = compute.gather_rows(self, "embeddings.word", &all_ids)?;
        let positions: Vec<usize> = inputs.iter().flat_map(|input| 0..input.ids.len()).collect();
        let pos = compute.gather_rows(self, "embeddings.position", &positions)?;
        let mut x = word.add(&pos)?;
        if config.type_vocab > 0 {
            let mut types = Vec::with_capacity(total);
            for input in inputs {
                if input.type_ids.is_empty() {
                    types.resize(types.len() + input.ids.len(), 0);
                } else {
                    types.extend_from_slice(input.type_ids);
                }
            }
            let tt = compute.gather_rows(self, "embeddings.token_type", &types)?;
            x = x.add(&tt)?;
        }
        x = x.layer_norm(
            self.aux("embeddings.ln.gamma")?,
            self.aux("embeddings.ln.beta")?,
            LAYER_NORM_EPS,
        )?;

        // --- Encoder stack -------------------------------------------------
        for e in 0..config.encoder_layers {
            x = self.encoder_layer_batched(compute, e, &x, &offsets)?;
        }

        // --- Pooler (stacked first-token rows) ------------------------------
        let hidden = config.hidden;
        let pooled_rows = if config.has_pooler {
            let xs = x.as_slice();
            let mut first = Vec::with_capacity(inputs.len() * hidden);
            for &off in &offsets[..inputs.len()] {
                first.extend_from_slice(&xs[off * hidden..(off + 1) * hidden]);
            }
            let first = Tensor::from_vec(first, &[inputs.len(), hidden])?;
            let z =
                compute.matmul_nt(self, "pooler", &first)?.add_bias(self.aux("pooler.bias")?)?;
            Some(z.tanh())
        } else {
            None
        };

        // --- Split the panel back into per-sequence outputs -----------------
        let xs = x.as_slice();
        let mut outputs = Vec::with_capacity(inputs.len());
        for (b, pair) in offsets.windows(2).enumerate() {
            let (start, end) = (pair[0], pair[1]);
            let hidden_t = Tensor::from_vec(
                xs[start * hidden..end * hidden].to_vec(),
                &[end - start, hidden],
            )?;
            let pooled = match &pooled_rows {
                Some(z) => Some(z.row(b)?),
                None => None,
            };
            outputs.push(EncoderOutput { hidden: hidden_t, pooled });
        }
        Ok(outputs)
    }

    /// One encoder layer over a stacked ragged panel: FC products run
    /// batched through `compute`; attention runs per sequence on its
    /// row slice.
    fn encoder_layer_batched<C: WeightCompute + ?Sized>(
        &self,
        compute: &C,
        e: usize,
        x: &Tensor,
        offsets: &[usize],
    ) -> Result<Tensor, ModelError> {
        let config = self.config();
        let prefix = format!("encoder.{e}");
        let fc = |name: &str, input: &Tensor| -> Result<Tensor, ModelError> {
            let full = format!("{prefix}.{name}");
            Ok(compute
                .matmul_nt(self, &full, input)?
                .add_bias(self.aux(&format!("{full}.bias"))?)?)
        };

        // Self-attention, per sequence. Context rows land back in one
        // stacked buffer at the same offsets.
        let q = fc("attention.query", x)?;
        let k = fc("attention.key", x)?;
        let v = fc("attention.value", x)?;
        let hidden = config.hidden;
        let mut ctx_data = vec![0.0f32; x.len()];
        for pair in offsets.windows(2) {
            let (start, end) = (pair[0], pair[1]);
            let slice = |t: &Tensor| -> Result<Tensor, ModelError> {
                Ok(Tensor::from_vec(
                    t.as_slice()[start * hidden..end * hidden].to_vec(),
                    &[end - start, hidden],
                )?)
            };
            let ctx = self_attention(&slice(&q)?, &slice(&k)?, &slice(&v)?, config.heads)?;
            ctx_data[start * hidden..end * hidden].copy_from_slice(ctx.as_slice());
        }
        let ctx = Tensor::from_vec(ctx_data, x.dims())?;
        let attn = fc("attention.output", &ctx)?;
        let x = x.add(&attn)?.layer_norm(
            self.aux(&format!("{prefix}.attention.ln.gamma"))?,
            self.aux(&format!("{prefix}.attention.ln.beta"))?,
            LAYER_NORM_EPS,
        )?;

        // Feed-forward, fully batched.
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
    fn ragged_batch_is_bitwise_identical_to_solo() {
        let m = tiny();
        let seqs: Vec<Vec<usize>> =
            vec![vec![1, 2, 3, 4, 5], vec![9], vec![7, 7, 7, 7, 7, 7, 7, 7], vec![60, 61, 62]];
        let type_ids: Vec<Vec<usize>> = vec![vec![], vec![1], vec![], vec![0, 1, 1]];
        let inputs: Vec<EncodeInput<'_>> = seqs
            .iter()
            .zip(&type_ids)
            .map(|(ids, tys)| EncodeInput { ids, type_ids: tys })
            .collect();

        let batched = m.encode_batch(&inputs).unwrap();
        assert_eq!(batched.len(), inputs.len());
        for (input, got) in inputs.iter().zip(&batched) {
            let solo = m.encode(input.ids, input.type_ids).unwrap();
            assert_eq!(got.hidden.dims(), solo.hidden.dims());
            for (a, b) in got.hidden.as_slice().iter().zip(solo.hidden.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            let (gp, sp) = (got.pooled.as_ref().unwrap(), solo.pooled.as_ref().unwrap());
            assert_eq!(gp.dims(), sp.dims());
            for (a, b) in gp.as_slice().iter().zip(sp.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn batch_of_one_matches_solo() {
        let m = tiny();
        let ids = [4usize, 4, 4];
        let tys = [0usize, 0, 1];
        let batched = m.encode_batch(&[EncodeInput { ids: &ids, type_ids: &tys }]).unwrap();
        let solo = m.encode(&ids, &tys).unwrap();
        assert_eq!(batched[0], solo);
    }

    #[test]
    fn batch_without_pooler() {
        let mut config = ModelConfig::tiny("TinyD", 1, 16, 2, 30, 8).unwrap();
        config.has_pooler = false;
        config.type_vocab = 0;
        let m = TransformerModel::new(config, &mut StdRng::seed_from_u64(5)).unwrap();
        let ids_a = [1usize, 2, 3];
        let ids_b = [4usize, 5];
        let batched = m
            .encode_batch(&[
                EncodeInput { ids: &ids_a, type_ids: &[] },
                EncodeInput { ids: &ids_b, type_ids: &[] },
            ])
            .unwrap();
        assert!(batched[0].pooled.is_none());
        assert_eq!(batched[0], m.encode(&ids_a, &[]).unwrap());
        assert_eq!(batched[1], m.encode(&ids_b, &[]).unwrap());
    }

    #[test]
    fn batch_validation() {
        let m = tiny();
        assert!(m.encode_batch(&[]).is_err());
        let good = [1usize, 2];
        let bad = [999usize];
        // One bad apple fails the whole batch, before any compute.
        assert!(m
            .encode_batch(&[
                EncodeInput { ids: &good, type_ids: &[] },
                EncodeInput { ids: &bad, type_ids: &[] },
            ])
            .is_err());
        assert!(m.encode_batch(&[EncodeInput { ids: &[], type_ids: &[] }]).is_err());
    }
}
