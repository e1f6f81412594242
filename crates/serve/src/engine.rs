//! The compute-on-compressed serving engine.
//!
//! A served model is its container. Every tensor the archive carries
//! stays packed — a [`QuantizedMatrix`] over the archive's own index
//! bytes, codebook and outliers — and [`QuantizedEngine`] wires it into
//! the forward pass as its [`WeightCompute`] backend: an archived FC
//! product runs [`QuantizedMatrix::matmul_blocked`], the batched GEMM
//! that decodes each block of 8 weight rows **once** per batch into a
//! scratch block, and an archived embedding table answers the batch's lookups
//! through [`QuantizedMatrix::gather_rows`], which decodes only the rows
//! asked for. Neither materializes the matrix. The [`TransformerModel`]
//! beside it is the container's skeleton as stored: the configuration,
//! the auxiliary parameters and, in FP32, only the weights the archive
//! does not carry.
//!
//! Both packed paths are bit-identical to decoding the layer and running
//! the dense path, so an engine-served output is byte-identical to
//! [`TransformerModel::encode`] on the decoded model — batching and
//! compression are invisible to clients.
//!
//! [`TransformerModel::encode`]: gobo_model::TransformerModel::encode

use std::collections::HashMap;
use std::sync::Arc;

use gobo::format::CompressedModel;
use gobo_model::batch::EncodeInput;
use gobo_model::compute::{DenseCompute, WeightCompute};
use gobo_model::forward::EncoderOutput;
use gobo_model::{ModelError, TransformerModel};
use gobo_quant::container::ModelArchive;
use gobo_quant::QuantizedMatrix;
use gobo_tensor::Tensor;

use crate::error::ServeError;

/// A model paired with its packed archive, executing batched forwards
/// directly on the compressed representation.
#[derive(Debug)]
pub struct QuantizedEngine {
    model: Arc<TransformerModel>,
    packed: HashMap<String, QuantizedMatrix>,
}

impl QuantizedEngine {
    /// Builds an engine over `model`, wrapping every entry `compressed`
    /// archives as a [`QuantizedMatrix`] of the shape `model`'s
    /// configuration gives it. `model` must hold every weight the
    /// archive does not carry; archived weights it also holds are never
    /// read.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Internal`] when an archive entry is not a
    /// weight of the configuration or its element count disagrees with
    /// the configured shape. A parsed container cannot have either
    /// ([`CompressedModel::from_bytes`] refuses both), so this guards a
    /// hand-built one.
    pub fn new(
        model: Arc<TransformerModel>,
        compressed: &CompressedModel,
    ) -> Result<Self, ServeError> {
        Self::over_archive(model, compressed.archive.clone())
    }

    /// [`QuantizedEngine::new`] over the archive alone, for a caller
    /// that has moved the container's skeleton into `model`: each
    /// archived layer moves into its matrix.
    pub(crate) fn over_archive(
        model: Arc<TransformerModel>,
        archive: ModelArchive,
    ) -> Result<Self, ServeError> {
        let mut packed = HashMap::new();
        for (name, layer) in archive.into_layers() {
            let matrix = model
                .weight_dims(&name)
                .ok()
                .and_then(|[rows, cols]| QuantizedMatrix::new(layer, rows, cols).ok())
                .ok_or(ServeError::Internal("archive layer shape mismatch"))?;
            packed.insert(name, matrix);
        }
        Ok(QuantizedEngine { model, packed })
    }

    /// The model this engine computes for: configuration, auxiliary
    /// parameters and the weights that are not served packed.
    pub fn model(&self) -> &Arc<TransformerModel> {
        &self.model
    }

    /// Bytes this engine keeps in memory: every FP32 tensor of its
    /// model plus the packed form of every archived tensor.
    pub fn resident_bytes(&self) -> usize {
        let packed: usize = self.packed.values().map(|m| m.layer().compressed_bytes()).sum();
        self.model.resident_bytes() + packed
    }

    /// Runs the ragged batched forward pass with every archived tensor
    /// read in its packed form.
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

/// A weight the archive does not carry takes the dense default.
impl WeightCompute for QuantizedEngine {
    fn matmul_nt(
        &self,
        model: &TransformerModel,
        name: &str,
        input: &Tensor,
    ) -> Result<Tensor, ModelError> {
        let Some(matrix) = self.packed.get(name) else {
            return DenseCompute.matmul_nt(model, name, input);
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

    fn gather_rows(
        &self,
        model: &TransformerModel,
        name: &str,
        ids: &[usize],
    ) -> Result<Tensor, ModelError> {
        let Some(matrix) = self.packed.get(name) else {
            return DenseCompute.gather_rows(model, name, ids);
        };
        let rows = matrix
            .gather_rows(ids)
            .map_err(|_| ModelError::InvalidInput { what: "compressed row gather failed" })?;
        Ok(Tensor::from_vec(rows, &[ids.len(), matrix.cols()])?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gobo::pipeline::{quantize_model, QuantizeOptions};
    use gobo_model::config::ModelConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn compressed_with(options: &QuantizeOptions) -> CompressedModel {
        let config = ModelConfig::tiny("Eng", 2, 16, 2, 40, 12).unwrap();
        let model = TransformerModel::new(config, &mut StdRng::seed_from_u64(7)).unwrap();
        let outcome = quantize_model(&model, options).unwrap();
        CompressedModel::new(&model, outcome.archive)
    }

    fn compressed(bits: u8) -> CompressedModel {
        compressed_with(&QuantizeOptions::gobo(bits).unwrap())
    }

    /// The engine exactly as the registry builds it: over the skeleton
    /// as stored, with no decoded copy of anything the archive carries.
    fn served(c: &CompressedModel) -> QuantizedEngine {
        QuantizedEngine::new(Arc::new(c.skeleton.clone()), c).unwrap()
    }

    #[test]
    fn every_fc_layer_is_served_compressed() {
        // Everything archived is served packed — FC layers, and the
        // embedding tables when they were quantized — and none of it is
        // also held dense.
        let fc_only = QuantizeOptions::gobo(4).unwrap();
        let with_embeddings = fc_only.clone().with_embedding_bits(4).unwrap();
        for options in [fc_only, with_embeddings] {
            let c = compressed_with(&options);
            let engine = served(&c);
            assert_eq!(engine.packed.len(), c.archive.len());
            let model = engine.model();
            assert!(model.iter().all(|(name, _)| c.archive.get(name).is_none()));
            let packed: usize = c.archive.iter().map(|(_, l)| l.compressed_bytes()).sum();
            assert_eq!(engine.resident_bytes(), model.resident_bytes() + packed);
        }
    }

    #[test]
    fn unarchived_weight_falls_back_to_dense() {
        let c = compressed(3);
        let engine = served(&c);
        let model = engine.model();
        // Ask for a product against a weight the archive does not hold:
        // an FC-only container leaves the embedding tables FP32.
        let emb = model.weight("embeddings.word").unwrap();
        let x = Tensor::from_vec(vec![0.5; emb.dims()[1]], &[1, emb.dims()[1]]).unwrap();
        let dense = x.matmul_nt(emb).unwrap();
        let via_engine = engine.matmul_nt(model, "embeddings.word", &x).unwrap();
        assert_eq!(dense, via_engine);
    }

    #[test]
    fn dense_compute_over_a_skeleton_names_the_absent_layer() {
        use gobo_model::compute::DenseCompute;
        let c = compressed(3);
        let x = Tensor::from_vec(vec![0.5; 16], &[1, 16]).unwrap();
        assert_eq!(
            DenseCompute.matmul_nt(&c.skeleton, "pooler", &x),
            Err(ModelError::AbsentWeight { name: "pooler".into() })
        );
        // The engine's dense fallback is the same lookup: a layer that
        // is neither packed nor held is an error, never a zero product.
        let empty = CompressedModel { skeleton: c.skeleton.clone(), archive: Default::default() };
        let engine = QuantizedEngine::new(Arc::new(c.skeleton.clone()), &empty).unwrap();
        assert_eq!(
            engine.matmul_nt(&c.skeleton, "pooler", &x),
            Err(ModelError::AbsentWeight { name: "pooler".into() })
        );
    }
}
