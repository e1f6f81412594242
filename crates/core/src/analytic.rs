//! Full-scale analytic experiments on synthetic weights.
//!
//! Everything here operates layer-by-layer on synthetic weights that
//! match the published models' exact geometry (Table I) and observed
//! weight distribution (Figures 1b/1c), so BERT-Large's 1.12 GiB of
//! FP32 never needs to be resident at once. These functions back the
//! compression-ratio columns of Tables III–VII and Figures 1–3.

use gobo_model::config::ModelConfig;
use gobo_model::spec::{enumerate_embedding_tables, enumerate_fc_layers};
use gobo_model::synth::{layer_distribution, synthesize_embedding, synthesize_layer};
use gobo_quant::mixed::MixedPrecisionPlan;
use gobo_quant::{
    CompressionReport, ConvergenceTrace, LayerReport, OutlierSplit, QuantConfig, QuantMethod,
    QuantizedLayer,
};
use gobo_stats::Histogram;

use crate::error::GoboError;

/// Shrinks a full-scale geometry by an integer divisor for debug-mode
/// smoke runs (divisor 1 = the paper's exact geometry).
///
/// # Errors
///
/// Returns [`GoboError::InvalidExperiment`] when the divisor is zero or
/// collapses a dimension.
pub fn scaled_config(config: &ModelConfig, divisor: usize) -> Result<ModelConfig, GoboError> {
    if divisor == 0 {
        return Err(GoboError::InvalidExperiment { what: "zero scale divisor" });
    }
    if divisor == 1 {
        return Ok(config.clone());
    }
    let mut scaled = config.clone();
    scaled.hidden /= divisor;
    scaled.intermediate /= divisor;
    scaled.vocab /= divisor;
    scaled.heads = (scaled.heads / divisor).max(1);
    if scaled.hidden == 0 || scaled.intermediate == 0 || scaled.vocab < 16 {
        return Err(GoboError::InvalidExperiment { what: "scale divisor too large" });
    }
    scaled.name = format!("{} (1/{divisor})", config.name);
    Ok(scaled)
}

/// One point of Figure 3: the outlier fraction of one FC layer.
#[derive(Debug, Clone, PartialEq)]
pub struct OutlierPoint {
    /// Position in the FC-layer enumeration (x axis of Figure 3).
    pub layer_index: usize,
    /// Layer name.
    pub name: String,
    /// Fraction of the layer's weights classified as outliers.
    pub fraction: f64,
}

/// Computes the per-FC-layer outlier fraction across a model
/// (Figure 3), streaming one layer at a time.
///
/// # Errors
///
/// Propagates quantization failures.
pub fn outlier_profile(
    config: &ModelConfig,
    log_pdf_threshold: f64,
    seed: u64,
) -> Result<Vec<OutlierPoint>, GoboError> {
    let specs = enumerate_fc_layers(config);
    let count = specs.len();
    let mut out = Vec::with_capacity(count);
    for (i, spec) in specs.iter().enumerate() {
        let dist = layer_distribution(config, i, count);
        let weights = synthesize_layer(spec, &dist, seed);
        let split = OutlierSplit::detect(&weights, log_pdf_threshold)?;
        out.push(OutlierPoint {
            layer_index: i,
            name: spec.name.clone(),
            fraction: split.outlier_fraction(),
        });
    }
    Ok(out)
}

/// Quantizes every FC layer of a synthetic full-scale model and
/// returns the exact compression report (the "Compression Ratio"
/// columns of Tables III–VI). Layers run in parallel.
///
/// # Errors
///
/// Propagates quantization failures.
pub fn weight_compression(
    config: &ModelConfig,
    plan: &MixedPrecisionPlan,
    method: QuantMethod,
    seed: u64,
) -> Result<CompressionReport, GoboError> {
    let specs = enumerate_fc_layers(config);
    let count = specs.len();
    let indexed: Vec<(usize, &gobo_model::spec::FcLayerSpec)> = specs.iter().enumerate().collect();
    let results: Vec<Result<LayerReport, GoboError>> = crate::par::par_map_largest_first(
        &indexed,
        |(_, spec)| spec.params(),
        |&(i, spec)| -> Result<LayerReport, GoboError> {
            let dist = layer_distribution(config, i, count);
            let weights = synthesize_layer(spec, &dist, seed);
            let quant_config = QuantConfig::new(method, plan.bits_for(&spec.name))?;
            let layer = QuantizedLayer::encode(&weights, &quant_config)?;
            Ok(LayerReport::from_layer(spec.name.clone(), &layer))
        },
    );
    results.into_iter().collect::<Result<CompressionReport, GoboError>>()
}

/// Quantizes a synthetic word-embedding table (Table VII / Figure 4's
/// size side).
///
/// # Errors
///
/// Propagates quantization failures.
pub fn embedding_compression(
    config: &ModelConfig,
    bits: u8,
    seed: u64,
) -> Result<CompressionReport, GoboError> {
    // Table VII counts the word table; position/type tables are
    // negligible but included for completeness (and overlap the word
    // table on a second core).
    let specs = enumerate_embedding_tables(config);
    let results: Vec<Result<LayerReport, GoboError>> = crate::par::par_map_largest_first(
        &specs,
        |spec| spec.params(),
        |spec| -> Result<LayerReport, GoboError> {
            let weights = synthesize_embedding(spec, seed);
            let quant_config = QuantConfig::new(QuantMethod::Gobo, bits)?;
            let layer = QuantizedLayer::encode(&weights, &quant_config)?;
            Ok(LayerReport::from_layer(spec.name.clone(), &layer))
        },
    );
    results.into_iter().collect::<Result<CompressionReport, GoboError>>()
}

/// Convergence traces of GOBO vs K-Means on one representative layer
/// (Figure 2).
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceComparison {
    /// The layer used.
    pub layer_name: String,
    /// GOBO's per-iteration L1/L2 norms.
    pub gobo: ConvergenceTrace,
    /// K-Means' per-iteration L1/L2 norms (run to assignment
    /// convergence).
    pub kmeans: ConvergenceTrace,
}

impl ConvergenceComparison {
    /// The headline speedup: K-Means iterations over GOBO iterations.
    pub fn iteration_speedup(&self) -> f64 {
        self.kmeans.iterations() as f64 / self.gobo.iterations() as f64
    }
}

/// Runs GOBO and K-Means (same outlier split, same init) on a
/// representative mid-stack layer and records both traces.
///
/// # Errors
///
/// Propagates quantization failures.
pub fn convergence_comparison(
    config: &ModelConfig,
    bits: u8,
    seed: u64,
) -> Result<ConvergenceComparison, GoboError> {
    let specs = enumerate_fc_layers(config);
    let spec = &specs[specs.len() / 2];
    let dist = layer_distribution(config, specs.len() / 2, specs.len());
    let weights = synthesize_layer(spec, &dist, seed);
    let split = OutlierSplit::detect(&weights, gobo_quant::DEFAULT_LOG_PDF_THRESHOLD)?;
    let encode =
        |method| QuantizedLayer::encode_split(&weights, &split, &QuantConfig::new(method, bits)?);
    let (gobo_layer, kmeans_layer) = (encode(QuantMethod::Gobo)?, encode(QuantMethod::KMeans)?);
    Ok(ConvergenceComparison {
        layer_name: spec.name.clone(),
        gobo: gobo_layer.trace().clone(),
        kmeans: kmeans_layer.trace().clone(),
    })
}

/// Weight histogram of one layer (Figure 1b).
///
/// # Errors
///
/// Propagates histogram-construction failures.
pub fn weight_histogram(
    config: &ModelConfig,
    layer_index: usize,
    bins: usize,
    seed: u64,
) -> Result<Histogram, GoboError> {
    let specs = enumerate_fc_layers(config);
    let idx = layer_index.min(specs.len() - 1);
    let dist = layer_distribution(config, idx, specs.len());
    let weights = synthesize_layer(&specs[idx], &dist, seed);
    Histogram::from_sample(&weights, bins)
        .map_err(|e| GoboError::Quant(gobo_quant::QuantError::Stats(e)))
}

/// Figure 1c data: `(value, is_outlier)` for a downsampled slice of one
/// layer's weights.
///
/// # Errors
///
/// Propagates quantization failures.
pub fn layer_scatter(
    config: &ModelConfig,
    layer_index: usize,
    max_points: usize,
    seed: u64,
) -> Result<Vec<(f32, bool)>, GoboError> {
    let specs = enumerate_fc_layers(config);
    let idx = layer_index.min(specs.len() - 1);
    let dist = layer_distribution(config, idx, specs.len());
    let weights = synthesize_layer(&specs[idx], &dist, seed);
    let split = OutlierSplit::detect(&weights, gobo_quant::DEFAULT_LOG_PDF_THRESHOLD)?;
    let stride = (weights.len() / max_points.max(1)).max(1);
    Ok(weights.iter().step_by(stride).map(|&w| (w, split.is_outlier(w))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ModelConfig {
        scaled_config(&ModelConfig::bert_base(), 16).unwrap()
    }

    #[test]
    fn scaling_validates() {
        assert!(scaled_config(&ModelConfig::bert_base(), 0).is_err());
        assert!(scaled_config(&ModelConfig::bert_base(), 4000).is_err());
        let s = small();
        assert_eq!(s.hidden, 48);
        assert_eq!(s.encoder_layers, 12); // depth preserved
    }

    #[test]
    fn outlier_profile_matches_figure3_shape() {
        let profile = outlier_profile(&small(), -4.0, 7).unwrap();
        assert_eq!(profile.len(), 73);
        // All but the last layers below ~1.5%; whole-model average small.
        let avg: f64 = profile.iter().map(|p| p.fraction).sum::<f64>() / profile.len() as f64;
        assert!(avg < 0.01, "average outlier fraction {avg}");
        for p in &profile[..68] {
            assert!(p.fraction < 0.015, "{}: {}", p.name, p.fraction);
        }
        // The final layers carry more outliers than the stack average.
        let last = profile.last().unwrap().fraction;
        assert!(last > avg, "last layer {last} vs avg {avg}");
    }

    #[test]
    fn weight_compression_near_ideal() {
        let plan = MixedPrecisionPlan::uniform(3).unwrap();
        let report = weight_compression(&small(), &plan, QuantMethod::Gobo, 7).unwrap();
        assert_eq!(report.layers.len(), 73);
        let ratio = report.compression_ratio();
        assert!(ratio > 8.5 && ratio < 10.67, "ratio {ratio}");
    }

    #[test]
    fn mixed_plan_changes_ratio() {
        let uniform = weight_compression(
            &small(),
            &MixedPrecisionPlan::uniform(3).unwrap(),
            QuantMethod::Gobo,
            7,
        )
        .unwrap();
        let mixed = weight_compression(
            &small(),
            &MixedPrecisionPlan::roberta_sensitive(3, 4, 6).unwrap(),
            QuantMethod::Gobo,
            7,
        )
        .unwrap();
        assert!(mixed.compression_ratio() < uniform.compression_ratio());
        assert!(mixed.compression_ratio() > uniform.compression_ratio() * 0.9);
    }

    #[test]
    fn embedding_compression_near_ideal() {
        let report = embedding_compression(&small(), 3, 7).unwrap();
        let ratio = report.compression_ratio();
        assert!(ratio > 9.0 && ratio < 10.67, "ratio {ratio}");
        let four_bit = embedding_compression(&small(), 4, 7).unwrap();
        assert!(four_bit.compression_ratio() < ratio);
    }

    #[test]
    fn convergence_comparison_shows_speedup() {
        let cmp = convergence_comparison(&small(), 3, 7).unwrap();
        assert!(cmp.iteration_speedup() > 1.5, "speedup {}", cmp.iteration_speedup());
        // GOBO's final L1 is no worse than K-Means' final L1 on this
        // realistic layer (the paper's accuracy-side argument).
        let g_l1 = cmp.gobo.l1[cmp.gobo.selected_iteration];
        let k_l1 = *cmp.kmeans.l1.last().unwrap();
        assert!(g_l1 <= k_l1 * 1.001, "gobo {g_l1} vs kmeans {k_l1}");
    }

    #[test]
    fn histogram_is_bell_shaped() {
        let h = weight_histogram(&small(), 5, 31, 7).unwrap();
        let counts = h.counts();
        let mid = counts.len() / 2;
        // Center bins dominate the edges by a wide margin.
        assert!(counts[mid] > 10 * counts[1].max(1));
        assert!(counts[mid] > 10 * counts[counts.len() - 2].max(1));
    }

    #[test]
    fn scatter_marks_fringe_values_as_outliers() {
        let pts = layer_scatter(&small(), 5, 2000, 7).unwrap();
        assert!(!pts.is_empty());
        let outlier_mags: Vec<f32> = pts.iter().filter(|(_, o)| *o).map(|(w, _)| w.abs()).collect();
        let bulk_max = pts.iter().filter(|(_, o)| !*o).map(|(w, _)| w.abs()).fold(0.0f32, f32::max);
        for m in outlier_mags {
            assert!(m > bulk_max * 0.8, "outlier {m} inside bulk {bulk_max}");
        }
    }
}
