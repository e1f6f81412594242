//! The compute-on-compressed serving engine.
//!
//! A registered model keeps two representations: the decoded FP32
//! [`TransformerModel`] (embeddings, aux parameters, dense fallback)
//! and the compressed archive itself. [`QuantizedEngine`] wires the
//! second into the forward pass: it implements
//! [`WeightCompute`], routing every archived FC product to
//! [`QuantizedMatrix::matmul_blocked`] — the tiled batched GEMM
//! that decodes each weight tile **once** per batch instead of once per
//! request. Embedding tables are consumed by row gathers, not matrix
//! products, so they stay on the dense path regardless of whether they
//! were archived.
//!
//! The blocked kernel is bit-identical to decoding the layer and
//! multiplying dense, so an engine-served output is byte-identical to
//! [`TransformerModel::encode`] on the decoded model — batching and
//! compression are invisible to clients.
//!
//! [`TransformerModel::encode`]: gobo_model::TransformerModel::encode

use std::collections::HashMap;
use std::sync::Arc;

use gobo::format::CompressedModel;
use gobo_model::batch::EncodeInput;
use gobo_model::compute::WeightCompute;
use gobo_model::forward::EncoderOutput;
use gobo_model::{ModelError, TransformerModel};
use gobo_quant::QuantizedMatrix;
use gobo_tensor::Tensor;

use crate::error::ServeError;

/// A decoded model paired with its compressed FC layers, executing
/// batched forwards directly on the packed representation.
#[derive(Debug)]
pub struct QuantizedEngine {
    model: Arc<TransformerModel>,
    fc: HashMap<String, QuantizedMatrix>,
}

impl QuantizedEngine {
    /// Builds an engine over `model` (already decoded from
    /// `compressed`), wrapping every archived rank-2 FC weight as a
    /// [`QuantizedMatrix`]. Archived embedding tables are skipped —
    /// they are read by row gathers, which the dense skeleton serves.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Internal`] when an archive entry's element
    /// count disagrees with the model's weight shape (the container
    /// would have failed to decode first, so this guards an internal
    /// invariant, not user input).
    pub fn new(
        model: Arc<TransformerModel>,
        compressed: &CompressedModel,
    ) -> Result<Self, ServeError> {
        let mut fc = HashMap::new();
        for (name, layer) in compressed.archive.iter() {
            if name.starts_with("embeddings.") {
                continue;
            }
            let Ok(weight) = model.weight(name) else {
                continue;
            };
            let &[rows, cols] = weight.dims() else {
                continue;
            };
            let matrix = QuantizedMatrix::new(layer.clone(), rows, cols)
                .map_err(|_| ServeError::Internal("archive layer shape mismatch"))?;
            fc.insert(name.to_owned(), matrix);
        }
        Ok(QuantizedEngine { model, fc })
    }

    /// The decoded model this engine computes for.
    pub fn model(&self) -> &Arc<TransformerModel> {
        &self.model
    }

    /// Number of FC layers served from the compressed representation.
    pub fn compressed_fc_layers(&self) -> usize {
        self.fc.len()
    }

    /// Runs the ragged batched forward pass with archived FC products
    /// computed on the compressed form.
    ///
    /// # Errors
    ///
    /// As [`TransformerModel::encode_batch`](gobo_model::TransformerModel::encode_batch).
    pub fn encode_batch(
        &self,
        inputs: &[EncodeInput<'_>],
    ) -> Result<Vec<EncoderOutput>, ModelError> {
        self.model.encode_batch_with(self, inputs)
    }
}

impl WeightCompute for QuantizedEngine {
    fn matmul_nt(
        &self,
        model: &TransformerModel,
        name: &str,
        input: &Tensor,
    ) -> Result<Tensor, ModelError> {
        let Some(matrix) = self.fc.get(name) else {
            // Not archived (FP32 container, or a partially-quantized
            // model): dense product against the skeleton weight.
            return Ok(input.matmul_nt(model.weight(name)?)?);
        };
        let &[m, cols] = input.dims() else {
            return Err(ModelError::InvalidInput { what: "activation panel is not rank 2" });
        };
        if cols != matrix.cols() {
            return Err(ModelError::InvalidInput { what: "activation width mismatch" });
        }
        let out = matrix
            .matmul_blocked(input.as_slice())
            .map_err(|_| ModelError::InvalidInput { what: "compressed product failed" })?;
        Ok(Tensor::from_vec(out, &[m, matrix.rows()])?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gobo::pipeline::{quantize_model, QuantizeOptions};
    use gobo_model::config::ModelConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn compressed(bits: u8) -> CompressedModel {
        let config = ModelConfig::tiny("Eng", 2, 16, 2, 40, 12).unwrap();
        let model = TransformerModel::new(config, &mut StdRng::seed_from_u64(7)).unwrap();
        let outcome = quantize_model(&model, &QuantizeOptions::gobo(bits).unwrap()).unwrap();
        CompressedModel::new(&model, outcome.archive)
    }

    #[test]
    fn engine_output_is_byte_identical_to_decoded_model() {
        let c = compressed(3);
        let model = Arc::new(c.decode().unwrap());
        let engine = QuantizedEngine::new(Arc::clone(&model), &c).unwrap();
        assert!(engine.compressed_fc_layers() > 0);

        let seqs: Vec<Vec<usize>> = vec![vec![1, 2, 3], vec![8], vec![4, 5, 6, 7, 9, 10]];
        let inputs: Vec<EncodeInput<'_>> =
            seqs.iter().map(|ids| EncodeInput { ids, type_ids: &[] }).collect();
        let served = engine.encode_batch(&inputs).unwrap();
        for (ids, got) in seqs.iter().zip(&served) {
            let direct = model.encode(ids, &[]).unwrap();
            assert_eq!(got, &direct, "engine must match dense decode bit for bit");
        }
    }

    #[test]
    fn every_fc_layer_is_served_compressed() {
        let c = compressed(4);
        let model = Arc::new(c.decode().unwrap());
        let engine = QuantizedEngine::new(Arc::clone(&model), &c).unwrap();
        // Everything archived except embedding tables is compressed-served.
        let archived_fc = c.archive.iter().filter(|(n, _)| !n.starts_with("embeddings.")).count();
        assert_eq!(engine.compressed_fc_layers(), archived_fc);
    }

    #[test]
    fn unarchived_weight_falls_back_to_dense() {
        let c = compressed(3);
        let model = Arc::new(c.decode().unwrap());
        let engine = QuantizedEngine::new(Arc::clone(&model), &c).unwrap();
        // Ask for a product against a weight the archive does not hold:
        // the embedding table (rank 2, never in `fc`).
        let emb = model.weight("embeddings.word").unwrap();
        let x = Tensor::from_vec(vec![0.5; emb.dims()[1]], &[1, emb.dims()[1]]).unwrap();
        let dense = x.matmul_nt(emb).unwrap();
        let via_engine = engine.matmul_nt(&model, "embeddings.word", &x).unwrap();
        assert_eq!(dense, via_engine);
    }
}
