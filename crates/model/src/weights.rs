//! Named weight storage and the inference-only transformer.

use std::collections::BTreeMap;

use gobo_tensor::rng::{randn, xavier_normal};
use gobo_tensor::Tensor;
use rand::Rng;

use crate::config::ModelConfig;
use crate::error::ModelError;
use crate::spec::{enumerate_embedding_tables, enumerate_fc_layers, FcLayerSpec};

/// An FP32 transformer encoder with named, individually replaceable
/// weight matrices.
///
/// This is the "execution engine" side of the paper's plug-in
/// compatibility claim: quantization produces FP32 tensors of identical
/// shape, which are swapped in via [`TransformerModel::set_weight`] and
/// run through the unmodified [`forward`](crate::forward) pass.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerModel {
    config: ModelConfig,
    /// The quantizable weight matrices (FC layers + embedding tables)
    /// this model holds. A weight the map lacks is *absent* — carried
    /// in compressed form by whoever owns the model — not zero.
    weights: BTreeMap<String, Tensor>,
    /// Non-quantized parameters: biases and LayerNorm gamma/beta.
    aux: BTreeMap<String, Tensor>,
}

impl TransformerModel {
    /// Builds a model with random weights: Xavier-normal FC matrices
    /// (Gaussian-shaped, like trained BERT layers — Figure 1b),
    /// `N(0, 0.02²)` embeddings, zero biases, unit LayerNorm gains.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] when the configuration is
    /// inconsistent.
    pub fn new(config: ModelConfig, rng: &mut impl Rng) -> Result<Self, ModelError> {
        let mut model = Self::skeleton(config)?;
        for spec in model.fc_layers() {
            model.weights.insert(spec.name, xavier_normal(rng, spec.rows, spec.cols));
        }
        for spec in model.embedding_tables() {
            model.weights.insert(spec.name, randn(rng, &[spec.rows, spec.cols], 0.0, 0.02));
        }
        Ok(model)
    }

    /// Builds a model that holds **no** quantizable weight: the
    /// configuration plus default auxiliary parameters (zero biases,
    /// unit LayerNorm gains). Weights are supplied one by one through
    /// [`TransformerModel::set_weight`]; until then
    /// [`TransformerModel::weight`] — and therefore every forward pass
    /// that needs the layer — fails with [`ModelError::AbsentWeight`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] when the configuration is
    /// inconsistent.
    pub fn skeleton(config: ModelConfig) -> Result<Self, ModelError> {
        config.validate()?;
        let mut aux = BTreeMap::new();
        let h = config.hidden;
        let mut ln = |name: String| {
            aux.insert(format!("{name}.gamma"), Tensor::ones(&[h]));
            aux.insert(format!("{name}.beta"), Tensor::zeros(&[h]));
        };
        ln("embeddings.ln".into());
        for e in 0..config.encoder_layers {
            ln(format!("encoder.{e}.attention.ln"));
            ln(format!("encoder.{e}.output.ln"));
        }
        for spec in enumerate_fc_layers(&config) {
            aux.insert(format!("{}.bias", spec.name), Tensor::zeros(&[spec.rows]));
        }
        Ok(TransformerModel { config, weights: BTreeMap::new(), aux })
    }

    /// The model's configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// `[rows, cols]` the configuration prescribes for a quantizable
    /// weight, whether or not the model holds it.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownLayer`] for names the configuration
    /// does not define.
    pub fn weight_dims(&self, name: &str) -> Result<[usize; 2], ModelError> {
        self.fc_layers()
            .into_iter()
            .chain(self.embedding_tables())
            .find(|spec| spec.name == name)
            .map(|spec| [spec.rows, spec.cols])
            .ok_or_else(|| ModelError::UnknownLayer { name: name.into() })
    }

    /// Borrows a quantizable weight matrix by name.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::AbsentWeight`] when the model does not
    /// hold the weight (a skeleton whose archive carries it), and
    /// [`ModelError::UnknownLayer`] for names the configuration does
    /// not define.
    pub fn weight(&self, name: &str) -> Result<&Tensor, ModelError> {
        match self.weights.get(name) {
            Some(tensor) => Ok(tensor),
            None => {
                self.weight_dims(name)?;
                Err(ModelError::AbsentWeight { name: name.into() })
            }
        }
    }

    /// Supplies or replaces a quantizable weight matrix, enforcing the
    /// shape the configuration prescribes for it.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownLayer`] for unknown names and
    /// [`ModelError::WeightShape`] when the shapes differ.
    pub fn set_weight(&mut self, name: &str, tensor: Tensor) -> Result<(), ModelError> {
        let expected = self.weight_dims(name)?;
        if tensor.dims() != expected {
            return Err(ModelError::WeightShape {
                layer: name.into(),
                expected: expected.to_vec(),
                got: tensor.dims().to_vec(),
            });
        }
        self.weights.insert(name.into(), tensor);
        Ok(())
    }

    /// Takes a quantizable weight out of the model, leaving the layer
    /// absent; `None` when it already was.
    pub fn remove_weight(&mut self, name: &str) -> Option<Tensor> {
        self.weights.remove(name)
    }

    /// Borrows an auxiliary (bias / LayerNorm) parameter by name.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownLayer`] for unknown names.
    pub fn aux(&self, name: &str) -> Result<&Tensor, ModelError> {
        self.aux.get(name).ok_or_else(|| ModelError::UnknownLayer { name: name.into() })
    }

    /// Replaces an auxiliary parameter, enforcing shape equality.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TransformerModel::set_weight`].
    pub fn set_aux(&mut self, name: &str, tensor: Tensor) -> Result<(), ModelError> {
        let slot =
            self.aux.get_mut(name).ok_or_else(|| ModelError::UnknownLayer { name: name.into() })?;
        if slot.dims() != tensor.dims() {
            return Err(ModelError::WeightShape {
                layer: name.into(),
                expected: slot.dims().to_vec(),
                got: tensor.dims().to_vec(),
            });
        }
        *slot = tensor;
        Ok(())
    }

    /// Iterates over `(name, tensor)` for the quantizable weights the
    /// model holds, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.weights.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Specs of the model's FC layers.
    pub fn fc_layers(&self) -> Vec<FcLayerSpec> {
        enumerate_fc_layers(&self.config)
    }

    /// Specs of the model's embedding tables.
    pub fn embedding_tables(&self) -> Vec<FcLayerSpec> {
        enumerate_embedding_tables(&self.config)
    }

    /// Total FP32 bytes held in quantizable weights.
    pub fn weight_bytes(&self) -> usize {
        self.weights.values().map(|t| t.len() * 4).sum()
    }

    /// FP32 bytes of every tensor the model holds: the quantizable
    /// weights that are present plus the auxiliary parameters.
    pub fn resident_bytes(&self) -> usize {
        self.weight_bytes() + self.aux.values().map(|t| t.len() * 4).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> TransformerModel {
        let config = ModelConfig::tiny("Tiny", 2, 32, 4, 50, 16).unwrap();
        TransformerModel::new(config, &mut StdRng::seed_from_u64(1)).unwrap()
    }

    #[test]
    fn construction_creates_all_layers() {
        let m = tiny();
        assert_eq!(m.fc_layers().len(), 13); // 2×6 + pooler
        assert!(m.weight("encoder.0.attention.query").is_ok());
        assert!(m.weight("encoder.1.output").is_ok());
        assert!(m.weight("pooler").is_ok());
        assert!(m.weight("embeddings.word").is_ok());
        assert!(m.weight("embeddings.token_type").is_ok());
        assert!(m.aux("encoder.0.attention.ln.gamma").is_ok());
        assert!(m.aux("pooler.bias").is_ok());
    }

    #[test]
    fn unknown_layer_is_error() {
        let m = tiny();
        assert!(matches!(m.weight("encoder.9.output"), Err(ModelError::UnknownLayer { .. })));
        assert!(m.aux("nope").is_err());
    }

    #[test]
    fn set_weight_replaces_and_checks_shape() {
        let mut m = tiny();
        let dims = m.weight("pooler").unwrap().dims().to_vec();
        let new = Tensor::full(&dims, 0.5);
        m.set_weight("pooler", new.clone()).unwrap();
        assert_eq!(m.weight("pooler").unwrap(), &new);
        assert!(matches!(
            m.set_weight("pooler", Tensor::zeros(&[2, 2])),
            Err(ModelError::WeightShape { .. })
        ));
        assert!(m.set_weight("missing", Tensor::zeros(&[2, 2])).is_err());
    }

    #[test]
    fn skeleton_holds_aux_but_no_weight() {
        let full = tiny();
        let mut m = TransformerModel::skeleton(full.config().clone()).unwrap();
        assert_eq!(m.iter().count(), 0);
        assert_eq!(m.weight_bytes(), 0);
        assert!(m.aux("pooler.bias").is_ok());
        assert!(m.resident_bytes() > 0);
        assert_eq!(
            m.weight("pooler"),
            Err(ModelError::AbsentWeight { name: "pooler".into() }),
            "an absent weight is an error, never zeros"
        );
        // The forward pass fails on the first layer it needs.
        let err = m.encode(&[1, 2, 3], &[]).unwrap_err();
        assert_eq!(err, ModelError::AbsentWeight { name: "embeddings.word".into() });
        // Supplying every weight makes it the full model again.
        for (name, tensor) in full.iter() {
            m.set_weight(name, tensor.clone()).unwrap();
        }
        assert_eq!(m, full);
        assert_eq!(m.remove_weight("pooler").as_ref(), Some(full.weight("pooler").unwrap()));
        assert_eq!(m.remove_weight("pooler"), None);
        assert_eq!(m.resident_bytes(), full.resident_bytes() - 32 * 32 * 4);
    }

    #[test]
    fn shapes_match_specs() {
        let m = tiny();
        for spec in m.fc_layers().iter().chain(&m.embedding_tables()) {
            let w = m.weight(&spec.name).unwrap();
            assert_eq!(w.dims(), &[spec.rows, spec.cols], "{}", spec.name);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let config = ModelConfig::tiny("Tiny", 1, 16, 2, 20, 8).unwrap();
        let a = TransformerModel::new(config.clone(), &mut StdRng::seed_from_u64(7)).unwrap();
        let b = TransformerModel::new(config.clone(), &mut StdRng::seed_from_u64(7)).unwrap();
        let c = TransformerModel::new(config, &mut StdRng::seed_from_u64(8)).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn weight_bytes_counts_fc_and_embeddings() {
        let m = tiny();
        let expected: usize =
            m.fc_layers().iter().chain(&m.embedding_tables()).map(|s| s.params() * 4).sum();
        assert_eq!(m.weight_bytes(), expected);
    }

    #[test]
    fn iter_visits_every_weight_once() {
        let m = tiny();
        let count = m.iter().count();
        assert_eq!(count, m.fc_layers().len() + m.embedding_tables().len());
    }
}
