//! Parity between compute-on-compressed and decode-then-matmul.
//!
//! [`QuantizedMatrix::matvec`] accumulates activations *per centroid*
//! and multiplies each centroid once (the accelerator's schedule);
//! decode-then-matmul performs the textbook dot product. Both consume
//! the exact same quantized weights, so any disagreement beyond
//! floating-point reassociation is a codec bug.
//!
//! ## Tolerance
//!
//! The two paths sum the same terms in different orders (bucketed by
//! centroid vs. column order), so results are *not* bit-identical.
//! Each output is a sum of `cols` products of magnitude ≤ `|x|∞·|w|∞`;
//! reassociating an FP32 sum of `n` terms perturbs it by at most about
//! `n · ε · Σ|terms|` with `ε = 2⁻²⁴ ≈ 6e-8`. For BERT-base geometry
//! (`cols = 768`, weights ≲ 1.5 with outliers, activations ≤ 1) that
//! bound is ~5e-5 per element; we assert a comfortably tight 1e-4
//! combined absolute/relative epsilon.

use gobo_model::config::ModelConfig;
use gobo_model::spec::enumerate_fc_layers;
use gobo_model::synth::{layer_distribution, synthesize_layer};
use gobo_quant::{QuantConfig, QuantMethod, QuantizedLayer, QuantizedMatrix};
use proptest::prelude::*;

const EPS: f32 = 1e-4;

fn assert_close(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let tol = EPS * (1.0 + w.abs());
        assert!((g - w).abs() <= tol, "{what}[{i}]: compressed {g} vs decoded {w} (tol {tol})");
    }
}

/// Deterministic pseudo-activations in `[-1, 1)`.
fn activations(n: usize, seed: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let x = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed);
            ((x >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        })
        .collect()
}

/// Quantizes a synthetic BERT-base FC layer and checks matvec parity
/// between the compressed schedule and the decoded dense product.
#[test]
fn bert_layer_matvec_matches_decoded() {
    let config = ModelConfig::bert_base();
    let specs = enumerate_fc_layers(&config);
    // An attention projection: 768×768, the common FC shape.
    let spec = specs.iter().find(|s| s.rows == s.cols).expect("square FC layer");
    let dist = layer_distribution(&config, 0, specs.len());
    let weights = synthesize_layer(spec, &dist, 11);

    for bits in [3u8, 4] {
        let layer = QuantizedLayer::encode(
            &weights,
            &QuantConfig::new(QuantMethod::Gobo, bits).expect("bits"),
        )
        .expect("encode");
        let matrix = QuantizedMatrix::new(layer, spec.rows, spec.cols).expect("shape");

        // Reference: decode to dense, then the textbook product.
        let dense = matrix.to_dense();
        let x = activations(spec.cols, 42);
        let mut reference = vec![0.0f32; spec.rows];
        for (r, y) in reference.iter_mut().enumerate() {
            *y = dense[r * spec.cols..(r + 1) * spec.cols]
                .iter()
                .zip(&x)
                .map(|(w, xv)| w * xv)
                .sum();
        }

        let got = matrix.matvec(&x).expect("matvec");
        assert_close(&got, &reference, &format!("matvec@{bits}b"));
    }
}

/// Outliers must flow through the compressed product exactly: zeroing
/// every activation except one that hits an outlier column isolates the
/// outlier path, where both schedules multiply the same two floats and
/// must agree bit-for-bit.
#[test]
fn outlier_path_is_exact() {
    let config = ModelConfig::bert_base();
    let specs = enumerate_fc_layers(&config);
    let spec = specs.iter().find(|s| s.rows == s.cols).expect("square FC layer");
    let dist = layer_distribution(&config, 0, specs.len());
    let weights = synthesize_layer(spec, &dist, 17);

    let layer =
        QuantizedLayer::encode(&weights, &QuantConfig::new(QuantMethod::Gobo, 3).expect("bits"))
            .expect("encode");
    let (positions, values) = layer.outliers();
    assert!(!positions.is_empty(), "synthetic BERT layer should have outliers");
    let (flat, outlier_value) = (positions[0] as usize, values[0]);
    let (row, col) = (flat / spec.cols, flat % spec.cols);

    let matrix = QuantizedMatrix::new(layer, spec.rows, spec.cols).expect("shape");
    let mut x = vec![0.0f32; spec.cols];
    x[col] = 0.8125; // exactly representable
    let y = matrix.matvec(&x).expect("matvec");
    assert_eq!(y[row].to_bits(), (0.8125f32 * outlier_value).to_bits());
}

/// Quantizes a deterministic weight matrix with a controllable outlier
/// fraction. `outlier_every` plants a large-magnitude weight every that
/// many elements (0 = none beyond what the distribution produces).
fn quantized(
    rows: usize,
    cols: usize,
    bits: u8,
    outlier_every: usize,
    seed: u64,
) -> QuantizedMatrix {
    let n = rows * cols;
    let mut w: Vec<f32> = (0..n)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
            (((x >> 33) as f32 / (1u64 << 31) as f32) - 1.0) * 0.05
        })
        .collect();
    if outlier_every > 0 {
        for i in (0..n).step_by(outlier_every) {
            w[i] = if i % (2 * outlier_every) == 0 { 1.3 } else { -1.6 };
        }
    }
    let layer =
        QuantizedLayer::encode(&w, &QuantConfig::new(QuantMethod::Gobo, bits).expect("bits"))
            .expect("encode");
    QuantizedMatrix::new(layer, rows, cols).expect("shape")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The cache-blocked batched GEMM and the per-centroid matvec
    /// applied row by row sum the same terms in different orders, so
    /// they must agree within the documented 1e-4 reassociation
    /// tolerance — across bit widths 2/3/4, ragged batch sizes
    /// (including 1) and outlier-heavy layers.
    #[test]
    fn matmul_blocked_matches_matvec_per_row(
        bits_i in 0usize..3,
        batch_i in 0usize..5,
        outliers_i in 0usize..3,
        seed in 0u64..1000,
    ) {
        let bits = [2u8, 3, 4][bits_i];
        let batch = [1usize, 7, 8, 32, 33][batch_i];
        let outlier_every = [0usize, 97, 13][outliers_i];
        let (rows, cols) = (48, 96);
        let matrix = quantized(rows, cols, bits, outlier_every, seed);
        let a = activations(batch * cols, seed ^ 0xABCD);
        let batched = matrix.matmul_blocked(&a).expect("matmul_blocked");
        let mut reference = Vec::with_capacity(batch * rows);
        for row in a.chunks(cols) {
            reference.extend(matrix.matvec(row).expect("matvec"));
        }
        assert_close(&batched, &reference, &format!("batch={batch}@{bits}b"));
    }

    /// The always-blocked serving kernel must match decode-then-dense
    /// bit for bit at every batch size — this is the invariant that
    /// makes served outputs independent of how requests were coalesced.
    #[test]
    fn matmul_blocked_bitwise_matches_decoded(
        bits_i in 0usize..3,
        batch_i in 0usize..3,
        seed in 0u64..1000,
    ) {
        let bits = [2u8, 3, 4][bits_i];
        let batch = [1usize, 7, 33][batch_i];
        let (rows, cols) = (32, 300);
        let matrix = quantized(rows, cols, bits, 61, seed);
        let dense = matrix.to_dense();
        let a = activations(batch * cols, seed ^ 0x5A5A);
        let got = matrix.matmul_blocked(&a).expect("matmul_blocked");
        for (i, row) in a.chunks(cols).enumerate() {
            for r in 0..rows {
                let want: f32 = dense[r * cols..(r + 1) * cols]
                    .iter()
                    .zip(row)
                    .map(|(w, xv)| w * xv)
                    .sum();
                assert_eq!(got[i * rows + r].to_bits(), want.to_bits(), "row {i} out {r}");
            }
        }
    }
}
