//! Whole-model quantization.
//!
//! [`quantize_model`] applies a quantization policy to every FC layer
//! (and optionally every embedding table) of a
//! [`TransformerModel`], in parallel across layers, and returns both
//! the decoded plug-in-compatible FP32 model and the exact compression
//! report.

use gobo_model::{ModelError, TransformerModel};
use gobo_quant::container::ModelArchive;
use gobo_quant::mixed::MixedPrecisionPlan;
use gobo_quant::{
    CompressionReport, LayerReport, QuantConfig, QuantError, QuantMethod, QuantizedLayer,
};
use gobo_tensor::Tensor;

use crate::error::GoboError;

/// What to quantize and how.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizeOptions {
    method: QuantMethod,
    weight_plan: MixedPrecisionPlan,
    embedding_bits: Option<u8>,
    outlier_threshold: f64,
    max_iterations: usize,
    detect_outliers: bool,
    quantize_weights: bool,
}

impl QuantizeOptions {
    /// GOBO quantization of all FC weights at a uniform bit width, with
    /// the paper's defaults (outlier threshold -4; embeddings left
    /// FP32 — add them with [`QuantizeOptions::with_embedding_bits`]).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedBits`] (as [`GoboError::Quant`])
    /// for widths outside `1..=8`.
    pub fn gobo(bits: u8) -> Result<Self, GoboError> {
        Self::with_method(QuantMethod::Gobo, bits)
    }

    /// Uniform-width quantization with an arbitrary centroid policy.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QuantizeOptions::gobo`].
    pub fn with_method(method: QuantMethod, bits: u8) -> Result<Self, GoboError> {
        Ok(QuantizeOptions {
            method,
            weight_plan: MixedPrecisionPlan::uniform(bits).map_err(GoboError::from)?,
            embedding_bits: None,
            outlier_threshold: gobo_quant::DEFAULT_LOG_PDF_THRESHOLD,
            max_iterations: 100,
            detect_outliers: true,
            quantize_weights: true,
        })
    }

    /// Replaces the per-layer bit plan (e.g. the paper's RoBERTa
    /// "sensitive layers at 4b" policy).
    pub fn with_weight_plan(mut self, plan: MixedPrecisionPlan) -> Self {
        self.weight_plan = plan;
        self
    }

    /// Also quantizes the embedding tables at `bits`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedBits`] (as [`GoboError::Quant`])
    /// for widths outside `1..=8`.
    pub fn with_embedding_bits(mut self, bits: u8) -> Result<Self, GoboError> {
        if !(1..=8).contains(&bits) {
            return Err(QuantError::UnsupportedBits { bits }.into());
        }
        self.embedding_bits = Some(bits);
        Ok(self)
    }

    /// Skips FC weights (embedding-only quantization, as in the first
    /// scenario of the paper's Figure 4).
    pub fn embeddings_only(mut self) -> Self {
        self.quantize_weights = false;
        self
    }

    /// Overrides the outlier log-pdf threshold (default -4).
    pub fn with_outlier_threshold(mut self, threshold: f64) -> Self {
        self.outlier_threshold = threshold;
        self
    }

    /// Disables outlier preservation entirely (ablation).
    pub fn without_outliers(mut self) -> Self {
        self.detect_outliers = false;
        self
    }

    /// The active centroid policy.
    pub fn method(&self) -> QuantMethod {
        self.method
    }

    /// Embedding bit width, if embeddings are quantized.
    pub fn embedding_bits(&self) -> Option<u8> {
        self.embedding_bits
    }

    fn layer_config(&self, bits: u8) -> Result<QuantConfig, QuantError> {
        let config = QuantConfig::new(self.method, bits)?
            .with_outlier_threshold(self.outlier_threshold)?
            .with_max_iterations(self.max_iterations)?;
        Ok(if self.detect_outliers { config } else { config.without_outliers() })
    }
}

/// Result of quantizing a model.
#[derive(Debug, Clone)]
pub struct QuantizedModel {
    /// The decoded FP32 model (identical architecture; quantized layers
    /// hold their representative values, outliers restored exactly).
    pub model: TransformerModel,
    /// Exact per-layer compression accounting.
    pub report: CompressionReport,
    /// The serializable compressed payload (see
    /// [`gobo_quant::container`]); `archive.to_bytes()` is the stream a
    /// deployment would ship off-chip.
    pub archive: ModelArchive,
}

/// Quantizes every selected layer of `model`, returning the decoded
/// model and the compression report. Layers are processed in parallel.
///
/// # Errors
///
/// Propagates per-layer quantization failures and shape mismatches.
pub fn quantize_model(
    model: &TransformerModel,
    options: &QuantizeOptions,
) -> Result<QuantizedModel, GoboError> {
    let mut targets: Vec<(String, u8, usize)> = Vec::new();
    if options.quantize_weights {
        for spec in model.fc_layers() {
            let bits = options.weight_plan.bits_for(&spec.name);
            targets.push((spec.name.clone(), bits, spec.params()));
        }
    }
    if let Some(bits) = options.embedding_bits {
        for spec in model.embedding_tables() {
            targets.push((spec.name.clone(), bits, spec.params()));
        }
    }

    // Quantize layers on the bounded global pool, biggest layers
    // first: each worker reads the source tensor and produces
    // (name, decoded weights, compressed layer, wall time).
    let _model_span =
        gobo_obs::span!("gobo.quantize_model", layers = targets.len(), method = options.method);
    type LayerResult = Result<(String, Tensor, QuantizedLayer, u64), GoboError>;
    let results: Vec<LayerResult> = crate::par::par_map_largest_first(
        &targets,
        |(_, _, params)| *params,
        |(name, bits, _)| -> LayerResult {
            let _span = gobo_obs::span!("gobo.quantize_layer", layer = name, bits = bits);
            let started = std::time::Instant::now();
            let tensor = model.weight(name)?;
            let config = options.layer_config(*bits)?;
            let layer = QuantizedLayer::encode(tensor.as_slice(), &config)?;
            let decoded =
                Tensor::from_vec(layer.decode(), tensor.dims()).map_err(ModelError::from)?;
            Ok((name.clone(), decoded, layer, started.elapsed().as_micros() as u64))
        },
    );

    let mut out = model.clone();
    let mut report = CompressionReport::new();
    let mut archive = ModelArchive::new();
    for result in results {
        let (name, decoded, layer, wall_us) = result?;
        out.set_weight(&name, decoded)?;
        report.push(LayerReport::from_layer(name.clone(), &layer).with_wall_us(wall_us));
        archive.push(name, layer)?;
    }
    Ok(QuantizedModel { model: out, report, archive })
}

/// Applies an arbitrary per-layer weight transform (e.g. the
/// Q8BERT/Q-BERT-style reference quantizers) to every FC layer and —
/// when `include_embeddings` — every embedding table, returning the
/// transformed model.
///
/// The transform receives the layer name and its weights and returns
/// the replacement weights (same length).
///
/// # Errors
///
/// Propagates transform failures and shape mismatches.
pub fn transform_weights<F>(
    model: &TransformerModel,
    include_embeddings: bool,
    mut transform: F,
) -> Result<TransformerModel, GoboError>
where
    F: FnMut(&str, &[f32]) -> Result<Vec<f32>, GoboError>,
{
    let mut out = model.clone();
    let mut names: Vec<String> = model.fc_layers().into_iter().map(|s| s.name).collect();
    if include_embeddings {
        names.extend(model.embedding_tables().into_iter().map(|s| s.name));
    }
    for name in names {
        let tensor = model.weight(&name)?;
        let new = transform(&name, tensor.as_slice())?;
        let new = Tensor::from_vec(new, tensor.dims()).map_err(ModelError::from)?;
        out.set_weight(&name, new)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gobo_model::config::ModelConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model() -> TransformerModel {
        let config = ModelConfig::tiny("Tiny", 2, 32, 4, 64, 16).unwrap();
        TransformerModel::new(config, &mut StdRng::seed_from_u64(7)).unwrap()
    }

    #[test]
    fn quantizes_all_fc_layers() {
        let model = tiny_model();
        let outcome = quantize_model(&model, &QuantizeOptions::gobo(3).unwrap()).unwrap();
        assert_eq!(outcome.report.layers.len(), model.fc_layers().len());
        assert!(outcome.report.compression_ratio() > 5.0);
        // Weights actually changed (quantization is not a no-op).
        let before = model.weight("encoder.0.intermediate").unwrap();
        let after = outcome.model.weight("encoder.0.intermediate").unwrap();
        assert_ne!(before, after);
        // Architecture is unchanged and the model still runs.
        let out = outcome.model.encode(&[1, 2, 3, 4], &[]).unwrap();
        assert!(out.hidden.all_finite());
    }

    #[test]
    fn embedding_bits_add_tables_to_report() {
        let model = tiny_model();
        let options = QuantizeOptions::gobo(3).unwrap().with_embedding_bits(4).unwrap();
        let outcome = quantize_model(&model, &options).unwrap();
        let names: Vec<&str> = outcome.report.layers.iter().map(|l| l.name.as_str()).collect();
        assert!(names.contains(&"embeddings.word"));
        assert!(names.contains(&"pooler"));
        // Embedding rows use 4 bits even though weights use 3.
        let word = outcome.report.layers.iter().find(|l| l.name == "embeddings.word").unwrap();
        assert_eq!(word.bits, 4);
    }

    #[test]
    fn embeddings_only_skips_weights() {
        let model = tiny_model();
        let options =
            QuantizeOptions::gobo(3).unwrap().with_embedding_bits(3).unwrap().embeddings_only();
        let outcome = quantize_model(&model, &options).unwrap();
        assert_eq!(outcome.report.layers.len(), model.embedding_tables().len());
        // FC weights untouched.
        assert_eq!(model.weight("pooler").unwrap(), outcome.model.weight("pooler").unwrap());
    }

    #[test]
    fn mixed_plan_applies_per_layer_bits() {
        let model = tiny_model();
        let plan = gobo_quant::mixed::MixedPrecisionPlan::roberta_sensitive(3, 4, 1).unwrap();
        let options = QuantizeOptions::gobo(3).unwrap().with_weight_plan(plan);
        let outcome = quantize_model(&model, &options).unwrap();
        let bits_of = |name: &str| {
            outcome.report.layers.iter().find(|l| l.name == name).map(|l| l.bits).unwrap()
        };
        assert_eq!(bits_of("encoder.0.attention.value"), 4);
        assert_eq!(bits_of("encoder.0.intermediate"), 4);
        assert_eq!(bits_of("encoder.0.attention.query"), 3);
        assert_eq!(bits_of("encoder.1.attention.value"), 3);
    }

    #[test]
    fn methods_differ_in_outcome() {
        let model = tiny_model();
        let gobo = quantize_model(&model, &QuantizeOptions::gobo(3).unwrap()).unwrap();
        let linear =
            quantize_model(&model, &QuantizeOptions::with_method(QuantMethod::Linear, 3).unwrap())
                .unwrap();
        assert_ne!(
            gobo.model.weight("encoder.0.output").unwrap(),
            linear.model.weight("encoder.0.output").unwrap()
        );
    }

    #[test]
    fn outlier_fraction_reported_small() {
        let model = tiny_model();
        let outcome = quantize_model(&model, &QuantizeOptions::gobo(3).unwrap()).unwrap();
        // Xavier-uniform weights have thin tails, so the fraction is
        // small but the accounting must be consistent.
        let frac = outcome.report.outlier_fraction();
        assert!((0.0..0.2).contains(&frac), "outlier fraction {frac}");
        assert_eq!(
            outcome.report.total_weights(),
            model.fc_layers().iter().map(|s| s.params()).sum::<usize>()
        );
    }

    #[test]
    fn transform_weights_applies_everywhere() {
        let model = tiny_model();
        let negated =
            transform_weights(&model, true, |_name, w| Ok(w.iter().map(|v| -v).collect())).unwrap();
        for spec in model.fc_layers().iter().chain(&model.embedding_tables()) {
            let a = model.weight(&spec.name).unwrap();
            let b = negated.weight(&spec.name).unwrap();
            assert_eq!(a.scale(-1.0), *b, "{}", spec.name);
        }
        // Without embeddings, embedding tables stay untouched.
        let fc_only = transform_weights(&model, false, |_n, w| Ok(vec![0.0; w.len()])).unwrap();
        assert_eq!(
            model.weight("embeddings.word").unwrap(),
            fc_only.weight("embeddings.word").unwrap()
        );
        assert_eq!(fc_only.weight("pooler").unwrap().sum(), 0.0);
    }

    #[test]
    fn per_layer_wall_time_is_recorded() {
        let model = tiny_model();
        let outcome = quantize_model(&model, &QuantizeOptions::gobo(3).unwrap()).unwrap();
        // Every layer carries its telemetry; at least the big FFN layers
        // take measurable wall time even on a fast machine.
        assert!(outcome.report.total_wall_us() > 0);
        for layer in &outcome.report.layers {
            assert!(layer.iterations >= 1, "{}", layer.name);
            assert_eq!(
                layer.bin_occupancy.iter().sum::<u64>() as usize,
                layer.weights - layer.outliers
            );
        }
    }

    /// Tracing enabled: quantizing a model must record one
    /// `gobo.quantize_layer` span per FC layer, nested inside the
    /// pool's `gobo.par.task` spans on the worker threads. (Other tests
    /// may quantize concurrently while the flag is up, so assertions
    /// are set-inclusion, never exact counts.)
    #[test]
    fn tracing_records_one_span_per_layer() {
        let model = tiny_model();
        let options = QuantizeOptions::gobo(3).unwrap();
        let (outcome, session) =
            gobo_obs::trace::Session::record(|| quantize_model(&model, &options));
        outcome.unwrap();
        let events = session.events;
        let layer_spans: Vec<&gobo_obs::trace::SpanEvent> =
            events.iter().filter(|e| e.name == "gobo.quantize_layer").collect();
        for spec in model.fc_layers() {
            let needle = format!("layer={}", spec.name);
            assert!(
                layer_spans.iter().any(|e| e.detail.starts_with(&needle)),
                "no span for {}",
                spec.name
            );
        }
        // Layer spans nest under the pool's task spans.
        assert!(events.iter().any(|e| e.name == "gobo.par.task"));
        assert!(layer_spans.iter().all(|e| e.depth >= 1), "layer spans must be nested");
        assert!(events.iter().any(|e| e.name == "gobo.quantize_model"));
    }

    #[test]
    fn invalid_bits_rejected() {
        assert!(QuantizeOptions::gobo(0).is_err());
        assert!(QuantizeOptions::gobo(9).is_err());
        assert!(QuantizeOptions::gobo(3).unwrap().with_embedding_bits(0).is_err());
    }
}
