//! Compression reports aggregating per-layer results into the
//! model-level numbers the paper's tables quote.

use crate::layer::{QuantizedLayer, SizeBreakdown};

/// Per-layer compression summary **and** quantization telemetry: the
/// distributional facts the paper argues from (outlier fraction,
/// iterations-to-converge, final L1 norm, bin occupancy) plus the wall
/// time the layer cost to quantize.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer name (`encoder.3.attention.value`, `pooler`, …).
    pub name: String,
    /// Centroid-selection policy used (`gobo` / `kmeans` / `linear`).
    pub method: String,
    /// Number of weights.
    pub weights: usize,
    /// Number of preserved outliers.
    pub outliers: usize,
    /// Outlier fraction in `[0, 1]`.
    pub outlier_fraction: f64,
    /// Index width used for the G group.
    pub bits: u8,
    /// Exact compressed size by component.
    pub size: SizeBreakdown,
    /// Original FP32 bytes.
    pub original_bytes: usize,
    /// Clustering iterations run (including the initialization sweep).
    pub iterations: usize,
    /// Iteration the final codebook was taken from (GOBO keeps the
    /// L1-minimal iterate, which may precede the last one run).
    pub selected_iteration: usize,
    /// Summed L1 reconstruction norm of the selected iterate.
    pub final_l1: f64,
    /// G-group weights assigned to each codebook bin, ascending by
    /// centroid.
    pub bin_occupancy: Vec<u64>,
    /// Wall time spent quantizing this layer, microseconds (0 when the
    /// caller did not time the encode).
    pub wall_us: u64,
}

impl LayerReport {
    /// Builds a report from a quantized layer. Wall time is unknown at
    /// this level; callers that timed the encode attach it with
    /// [`LayerReport::with_wall_us`].
    pub fn from_layer(name: impl Into<String>, layer: &QuantizedLayer) -> Self {
        let trace = layer.trace();
        let final_l1 = trace.l1.get(trace.selected_iteration).copied().unwrap_or(f64::NAN);
        LayerReport {
            name: name.into(),
            method: layer.method().slug().to_string(),
            weights: layer.total(),
            outliers: layer.outlier_count(),
            outlier_fraction: layer.outlier_fraction(),
            bits: layer.bits(),
            size: layer.size_breakdown(),
            original_bytes: layer.original_bytes(),
            iterations: trace.iterations(),
            selected_iteration: trace.selected_iteration,
            final_l1,
            bin_occupancy: layer.bin_occupancy(),
            wall_us: 0,
        }
    }

    /// Attaches the measured wall time of this layer's encode.
    pub fn with_wall_us(mut self, wall_us: u64) -> Self {
        self.wall_us = wall_us;
        self
    }

    /// `original / compressed` for this layer alone.
    pub fn compression_ratio(&self) -> f64 {
        self.original_bytes as f64 / self.size.total() as f64
    }

    /// This layer's record in the telemetry JSON schema (see
    /// [`CompressionReport::telemetry_json`]).
    pub fn telemetry_json(&self) -> String {
        use gobo_obs::json;
        let occupancy: Vec<String> = self.bin_occupancy.iter().map(u64::to_string).collect();
        format!(
            "{{\"name\":{},\"method\":{},\"bits\":{},\"weights\":{},\"outliers\":{},\
             \"outlier_fraction\":{},\"iterations\":{},\"selected_iteration\":{},\
             \"final_l1\":{},\"bin_occupancy\":[{}],\"wall_us\":{},\
             \"compressed_bytes\":{},\"original_bytes\":{}}}",
            json::string(&self.name),
            json::string(&self.method),
            self.bits,
            self.weights,
            self.outliers,
            json::number(self.outlier_fraction),
            self.iterations,
            self.selected_iteration,
            json::number(self.final_l1),
            occupancy.join(","),
            self.wall_us,
            self.size.total(),
            self.original_bytes,
        )
    }
}

/// Whole-model compression summary (weights, or embeddings, or both —
/// whatever set of layers was quantized).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompressionReport {
    /// Per-layer rows in quantization order.
    pub layers: Vec<LayerReport>,
}

impl CompressionReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer's row.
    pub fn push(&mut self, report: LayerReport) {
        self.layers.push(report);
    }

    /// Total weights across all layers.
    pub fn total_weights(&self) -> usize {
        self.layers.iter().map(|l| l.weights).sum()
    }

    /// Total outliers across all layers.
    pub fn total_outliers(&self) -> usize {
        self.layers.iter().map(|l| l.outliers).sum()
    }

    /// Model-wide outlier fraction (the paper reports ≈0.1% on average).
    pub fn outlier_fraction(&self) -> f64 {
        let total = self.total_weights();
        if total == 0 {
            return 0.0;
        }
        self.total_outliers() as f64 / total as f64
    }

    /// Total original FP32 bytes.
    pub fn original_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.original_bytes).sum()
    }

    /// Total compressed bytes.
    pub fn compressed_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.size.total()).sum()
    }

    /// Model-wide compression ratio.
    pub fn compression_ratio(&self) -> f64 {
        if self.compressed_bytes() == 0 {
            return 0.0;
        }
        self.original_bytes() as f64 / self.compressed_bytes() as f64
    }

    /// Total wall time across all layers, microseconds (as-recorded;
    /// layers quantized in parallel overlap, so this is CPU-time-like,
    /// not elapsed time).
    pub fn total_wall_us(&self) -> u64 {
        self.layers.iter().map(|l| l.wall_us).sum()
    }

    /// Merges another report's layers into this one.
    pub fn merge(&mut self, other: CompressionReport) {
        self.layers.extend(other.layers);
    }

    /// Renders the per-layer quantization telemetry as JSON
    /// (`gobo.telemetry.v1`): one record per layer with outlier
    /// fraction, iterations-to-converge, final L1 norm, bin occupancy,
    /// and wall time, plus model-wide totals. This is the payload
    /// `gobo quantize --telemetry-out` writes and
    /// `gobo telemetry-check` validates.
    pub fn telemetry_json(&self) -> String {
        use gobo_obs::json;
        let layers: Vec<String> = self.layers.iter().map(LayerReport::telemetry_json).collect();
        format!(
            "{{\"schema\":\"gobo.telemetry.v1\",\"layers\":[{}],\
             \"totals\":{{\"layers\":{},\"weights\":{},\"outliers\":{},\
             \"outlier_fraction\":{},\"compressed_bytes\":{},\"original_bytes\":{},\
             \"compression_ratio\":{},\"wall_us\":{}}}}}\n",
            layers.join(","),
            self.layers.len(),
            self.total_weights(),
            self.total_outliers(),
            json::number(self.outlier_fraction()),
            self.compressed_bytes(),
            self.original_bytes(),
            json::number(self.compression_ratio()),
            self.total_wall_us(),
        )
    }
}

impl FromIterator<LayerReport> for CompressionReport {
    fn from_iter<I: IntoIterator<Item = LayerReport>>(iter: I) -> Self {
        CompressionReport { layers: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QuantConfig, QuantMethod};

    fn sample_layer(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let u = ((state >> 33) as f32) / (u32::MAX >> 1) as f32;
                (u - 0.5) * 0.2 + ((state >> 60) as f32) * 0.001
            })
            .collect()
    }

    fn quantize(n: usize, seed: u64) -> QuantizedLayer {
        let w = sample_layer(n, seed);
        QuantizedLayer::encode(&w, &QuantConfig::new(QuantMethod::Gobo, 3).unwrap()).unwrap()
    }

    #[test]
    fn layer_report_mirrors_layer() {
        let layer = quantize(4096, 7);
        let r = LayerReport::from_layer("encoder.0.attention.query", &layer);
        assert_eq!(r.weights, 4096);
        assert_eq!(r.outliers, layer.outlier_count());
        assert_eq!(r.original_bytes, 4096 * 4);
        assert!((r.compression_ratio() - layer.compression_ratio()).abs() < 1e-12);
    }

    #[test]
    fn model_report_aggregates() {
        let mut report = CompressionReport::new();
        for (i, n) in [(0usize, 2048usize), (1, 4096), (2, 1024)] {
            report.push(LayerReport::from_layer(format!("layer.{i}"), &quantize(n, i as u64 + 1)));
        }
        assert_eq!(report.total_weights(), 2048 + 4096 + 1024);
        assert_eq!(report.original_bytes(), report.total_weights() * 4);
        assert!(report.compression_ratio() > 5.0);
        assert!(report.outlier_fraction() < 0.05);
    }

    #[test]
    fn empty_report_is_harmless() {
        let r = CompressionReport::new();
        assert_eq!(r.total_weights(), 0);
        assert_eq!(r.compression_ratio(), 0.0);
        assert_eq!(r.outlier_fraction(), 0.0);
    }

    #[test]
    fn merge_concatenates() {
        let mut a: CompressionReport =
            vec![LayerReport::from_layer("a", &quantize(1024, 3))].into_iter().collect();
        let b: CompressionReport =
            vec![LayerReport::from_layer("b", &quantize(1024, 4))].into_iter().collect();
        a.merge(b);
        assert_eq!(a.layers.len(), 2);
        assert_eq!(a.total_weights(), 2048);
    }

    #[test]
    fn telemetry_fields_mirror_the_clustering_run() {
        let layer = quantize(4096, 11);
        let r = LayerReport::from_layer("encoder.1.output", &layer).with_wall_us(1234);
        assert_eq!(r.method, "gobo");
        assert_eq!(r.iterations, layer.trace().iterations());
        assert_eq!(r.selected_iteration, layer.trace().selected_iteration);
        assert!((r.final_l1 - layer.trace().l1[r.selected_iteration]).abs() < 1e-12);
        assert_eq!(r.bin_occupancy.len(), layer.codebook().len());
        assert_eq!(
            r.bin_occupancy.iter().sum::<u64>() as usize,
            layer.total() - layer.outlier_count()
        );
        assert_eq!(r.wall_us, 1234);
    }

    #[test]
    fn telemetry_json_carries_schema_layers_and_totals() {
        let report: CompressionReport = vec![
            LayerReport::from_layer("a", &quantize(2048, 5)).with_wall_us(10),
            LayerReport::from_layer("b", &quantize(1024, 6)).with_wall_us(20),
        ]
        .into_iter()
        .collect();
        let json = report.telemetry_json();
        assert!(json.contains("\"schema\":\"gobo.telemetry.v1\""), "{json}");
        assert!(json.contains("\"name\":\"a\""), "{json}");
        assert!(json.contains("\"outlier_fraction\":"), "{json}");
        assert!(json.contains("\"iterations\":"), "{json}");
        assert!(json.contains("\"final_l1\":"), "{json}");
        assert!(json.contains("\"bin_occupancy\":["), "{json}");
        assert!(json.contains("\"wall_us\":10"), "{json}");
        assert!(json.contains("\"wall_us\":30"), "{json}");
        assert_eq!(report.total_wall_us(), 30);
        // Balanced braces/brackets — cheap structural sanity without a
        // parser (the CLI test does the full parse).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close, "{json}");
    }

    #[test]
    fn report_serializes() {
        let r: CompressionReport =
            vec![LayerReport::from_layer("a", &quantize(512, 9))].into_iter().collect();
        // Reports are rendered by hand (`telemetry_json`); the value itself
        // only has to survive a clone unchanged.
        let cloned = r.clone();
        assert_eq!(r, cloned);
    }
}
