//! Parity between compute-on-compressed and decode-then-matmul.
//!
//! [`QuantizedMatrix::matmul_blocked`] and `Tensor::matmul_nt` on the
//! decoded layer consume the same weight values through the same
//! kernel (`gobo_tensor::linalg::gemm_nt`), one from decoded blocks of
//! weight rows and one from slices of the dense matrix. They must agree
//! **bit for bit** — at BERT
//! geometry, at every batch size, and through the outlier path — so
//! any difference at all is a codec bug.

use gobo_model::config::ModelConfig;
use gobo_model::spec::enumerate_fc_layers;
use gobo_model::synth::{layer_distribution, synthesize_layer};
use gobo_quant::{QuantConfig, QuantMethod, QuantizedLayer, QuantizedMatrix};
use gobo_tensor::Tensor;
use proptest::prelude::*;

/// `a × decode(matrix)ᵀ` through the dense kernel, for `a: (m, cols)`.
fn decoded_product(matrix: &QuantizedMatrix, a: &[f32]) -> Vec<f32> {
    let (rows, cols) = (matrix.rows(), matrix.cols());
    let dense = Tensor::from_vec(matrix.to_dense(), &[rows, cols]).expect("dense shape");
    let a = Tensor::from_vec(a.to_vec(), &[a.len() / cols, cols]).expect("panel shape");
    a.matmul_nt(&dense).expect("dense product").as_slice().to_vec()
}

fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: compressed {g} vs decoded {w}");
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

/// Quantizes a synthetic BERT-base FC layer and checks the compressed
/// product against the decoded dense one, for one row and for a panel.
#[test]
fn bert_layer_product_matches_decoded() {
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
        for m in [1usize, 6] {
            let a = activations(m * spec.cols, 42);
            let got = matrix.matmul_blocked(&a).expect("matmul_blocked");
            assert_same_bits(&got, &decoded_product(&matrix, &a), &format!("m={m}@{bits}b"));
        }
    }
}

/// Outliers must flow through the compressed product exactly: zeroing
/// every activation except one that hits an outlier column isolates the
/// outlier path: the output is that one product, exactly.
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
    let y = matrix.matmul_blocked(&x).expect("matmul_blocked");
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

    /// A request's rows must not depend on what it was coalesced with:
    /// row `i` of a batched product has the bits of the one-row product
    /// — across bit widths 2/3/4, ragged batch sizes (crossing the
    /// kernel's 2-row pass) and outlier-heavy layers.
    #[test]
    fn matmul_blocked_rows_do_not_depend_on_the_batch(
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
        let mut alone = Vec::with_capacity(batch * rows);
        for row in a.chunks(cols) {
            alone.extend(matrix.matmul_blocked(row).expect("one row"));
        }
        assert_same_bits(&batched, &alone, &format!("batch={batch}@{bits}b"));
    }
}
