//! Synthetic full-scale weight generation.
//!
//! We cannot ship the pre-trained HuggingFace checkpoints the paper
//! quantizes, but every size/outlier/convergence experiment depends
//! only on the *distributional shape* of trained BERT weights, which
//! Section II-A characterizes precisely: per layer, weights closely
//! follow a Gaussian whose parameters vary by layer, plus a tiny
//! fraction of large-magnitude outliers on the fringes (Figures 1b/1c),
//! with the outlier share rising in the final layers (Figure 3).
//!
//! [`synthesize_layer`] samples exactly that shape, deterministically
//! per (model, layer) so full-scale models never need to be resident in
//! memory — callers stream one layer at a time.

use gobo_tensor::rng::fill_randn;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::ModelConfig;
use crate::spec::FcLayerSpec;

/// Distributional parameters for one synthetic layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerDistribution {
    /// Gaussian mean of the weight bulk.
    pub mean: f32,
    /// Gaussian standard deviation of the weight bulk.
    pub std: f32,
    /// Fraction of weights drawn from the heavy tail.
    pub tail_fraction: f64,
    /// Scale multiplier of tail samples relative to `std`.
    pub tail_scale: f32,
}

/// Deterministic per-layer distribution parameters.
///
/// Layer-to-layer variation mimics Figure 1b (means near zero, stds in
/// the 0.02–0.06 range) and Figure 3 (tail mass below ~0.4% for all but
/// the final layers, rising toward ~1% at the end of the stack).
pub fn layer_distribution(
    config: &ModelConfig,
    layer_index: usize,
    layer_count: usize,
) -> LayerDistribution {
    // Small deterministic wobble so every layer differs, seeded by name
    // hash + index.
    let mut h = 0xcbf29ce484222325u64;
    for b in config.name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
    }
    h ^= layer_index as u64;
    let wobble = ((h >> 32) as f32 / u32::MAX as f32) - 0.5; // [-0.5, 0.5)
    let depth = if layer_count <= 1 { 0.0 } else { layer_index as f32 / (layer_count - 1) as f32 };
    // Final layers carry more outliers (Figure 3's upturn at the last
    // FC layers).
    let tail_fraction = if depth > 0.97 { 0.004 } else { 0.0008 + 0.0008 * f64::from(depth) };
    LayerDistribution {
        mean: 0.001 * wobble,
        std: 0.03 + 0.015 * depth + 0.005 * wobble.abs(),
        tail_fraction,
        tail_scale: 8.0,
    }
}

/// Samples one layer's weights: `(1 - tail_fraction)` of the values
/// from `N(mean, std²)`, the rest from a widened Gaussian at
/// `tail_scale × std`, scattered uniformly through the buffer.
///
/// Deterministic given `(seed, spec.name)`.
pub fn synthesize_layer(spec: &FcLayerSpec, dist: &LayerDistribution, seed: u64) -> Vec<f32> {
    let mut rng = rng_for(seed, &spec.name);
    let n = spec.params();
    let mut out = vec![0.0f32; n];
    fill_randn(&mut rng, &mut out, dist.mean, dist.std);
    let tail_count = (n as f64 * dist.tail_fraction).round() as usize;
    for _ in 0..tail_count {
        let i = rng.gen_range(0..n);
        let mut t = [0.0f32; 1];
        fill_randn(&mut rng, &mut t, dist.mean, dist.std * dist.tail_scale);
        // Push the tail sample outside the bulk so it reads as a fringe
        // value (Figure 1c), regardless of the Gaussian draw.
        let sign = if t[0] >= dist.mean { 1.0 } else { -1.0 };
        out[i] = t[0] + sign * 4.0 * dist.std;
    }
    out
}

/// Synthesizes one embedding table (same tail structure; embeddings
/// show slightly heavier tails in practice, hence the bump).
pub fn synthesize_embedding(spec: &FcLayerSpec, seed: u64) -> Vec<f32> {
    let dist = LayerDistribution { mean: 0.0, std: 0.035, tail_fraction: 0.0015, tail_scale: 8.0 };
    synthesize_layer(spec, &dist, seed)
}

fn rng_for(seed: u64, name: &str) -> StdRng {
    let mut h = seed ^ 0x9E3779B97F4A7C15;
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
        h = h.rotate_left(17);
    }
    StdRng::seed_from_u64(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gobo_stats::Gaussian;

    fn spec(rows: usize, cols: usize) -> FcLayerSpec {
        FcLayerSpec {
            name: "encoder.0.attention.query".into(),
            kind: crate::spec::LayerKind::Query,
            encoder: Some(0),
            rows,
            cols,
        }
    }

    #[test]
    fn weights_follow_requested_gaussian() {
        let dist = LayerDistribution { mean: 0.01, std: 0.04, tail_fraction: 0.0, tail_scale: 8.0 };
        let w = synthesize_layer(&spec(200, 200), &dist, 1);
        let g = Gaussian::fit(&w).unwrap();
        assert!((g.mean() - 0.01).abs() < 0.002, "mean {}", g.mean());
        assert!((g.std() - 0.04).abs() < 0.002, "std {}", g.std());
    }

    #[test]
    fn tail_fraction_materializes_as_outliers() {
        let dist =
            LayerDistribution { mean: 0.0, std: 0.03, tail_fraction: 0.002, tail_scale: 8.0 };
        let w = synthesize_layer(&spec(300, 300), &dist, 2);
        // Count weights beyond 4σ of the bulk — tails should dominate
        // that region.
        let far = w.iter().filter(|&&v| v.abs() > 0.12).count();
        let frac = far as f64 / w.len() as f64;
        assert!(frac > 0.0005 && frac < 0.01, "fringe fraction {frac}");
    }

    #[test]
    fn deterministic_per_seed_and_name() {
        let dist = layer_distribution(&ModelConfig::bert_base(), 0, 73);
        let a = synthesize_layer(&spec(50, 50), &dist, 42);
        let b = synthesize_layer(&spec(50, 50), &dist, 42);
        assert_eq!(a, b);
        let c = synthesize_layer(&spec(50, 50), &dist, 43);
        assert_ne!(a, c);
        let mut other = spec(50, 50);
        other.name = "encoder.1.attention.query".into();
        let d = synthesize_layer(&other, &dist, 42);
        assert_ne!(a, d);
    }

    #[test]
    fn distribution_varies_per_layer_and_rises_at_end() {
        let config = ModelConfig::bert_base();
        let first = layer_distribution(&config, 0, 73);
        let mid = layer_distribution(&config, 36, 73);
        let last = layer_distribution(&config, 72, 73);
        assert!(first.std != mid.std || first.mean != mid.mean);
        assert!(last.tail_fraction > first.tail_fraction * 2.0);
        // All but the last layers stay below ~0.4% tail mass (Figure 3).
        for i in 0..70 {
            assert!(layer_distribution(&config, i, 73).tail_fraction < 0.004);
        }
    }

    /// Full-scale experiments stream a model one layer at a time (BERT-Large
    /// weights total 1.12 GiB): every layer of the enumeration, in order,
    /// synthesizes at its own size under its own distribution.
    #[test]
    fn streaming_visits_every_layer_in_order() {
        let config = ModelConfig::tiny("Tiny", 2, 16, 2, 30, 8).unwrap();
        let specs = crate::spec::enumerate_fc_layers(&config);
        for (i, spec) in specs.iter().enumerate() {
            let dist = layer_distribution(&config, i, specs.len());
            assert_eq!(synthesize_layer(spec, &dist, 7).len(), spec.params(), "{}", spec.name);
        }
    }

    #[test]
    fn bulk_is_gaussian_tails_break_normality() {
        // The generator's contract with Section II-A: without tails the
        // weights pass a normality check; with tails they fail it the
        // way real BERT layers do (heavy kurtosis from outliers).
        let clean = LayerDistribution { mean: 0.0, std: 0.03, tail_fraction: 0.0, tail_scale: 8.0 };
        let tailed =
            LayerDistribution { mean: 0.0, std: 0.03, tail_fraction: 0.002, tail_scale: 8.0 };
        let w_clean = synthesize_layer(&spec(200, 200), &clean, 11);
        let w_tailed = synthesize_layer(&spec(200, 200), &tailed, 11);
        let jb_clean = gobo_stats::jarque_bera_per_sample(&w_clean).unwrap();
        let jb_tailed = gobo_stats::jarque_bera_per_sample(&w_tailed).unwrap();
        assert!(jb_clean < 0.01, "clean JB/n {jb_clean}");
        assert!(jb_tailed > jb_clean * 10.0, "tails must dominate: {jb_tailed} vs {jb_clean}");
    }

    #[test]
    fn embedding_synthesis_matches_spec_size() {
        let tables = crate::spec::enumerate_embedding_tables(
            &ModelConfig::tiny("Tiny", 1, 16, 2, 100, 8).unwrap(),
        );
        let w = synthesize_embedding(&tables[0], 3);
        assert_eq!(w.len(), 100 * 16);
    }
}
