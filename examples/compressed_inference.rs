//! Compute directly on the compressed weights: the packed indices are
//! decoded eight weight rows at a time inside the product, so no FP32
//! copy of the layer ever exists — and because the packed and the dense
//! product are one kernel, the results agree bit for bit.
//!
//! Run with `cargo run --release -p gobo-examples --bin compressed_inference`.

use std::time::Instant;

use gobo_quant::compute::QuantizedMatrix;
use gobo_quant::{QuantConfig, QuantMethod, QuantizedLayer};
use gobo_tensor::Tensor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A BERT-Base-sized intermediate layer: 3072 × 768.
    let (rows, cols) = (3072usize, 768usize);
    let mut weights: Vec<f32> = (0..rows * cols)
        .map(|i| ((i as f32) * 0.011).sin() * 0.04 + ((i as f32) * 0.0007).cos() * 0.015)
        .collect();
    weights[42] = 1.8;
    weights[1_000_000] = -1.5;

    let layer = QuantizedLayer::encode(&weights, &QuantConfig::new(QuantMethod::Gobo, 3)?)?;
    println!(
        "layer {}x{}: {:.2}x compression, {} outliers",
        rows,
        cols,
        layer.compression_ratio(),
        layer.outlier_count()
    );
    let qm = QuantizedMatrix::new(layer, rows, cols)?;

    // One request's worth of activations: 8 token rows.
    let tokens = 8usize;
    let x: Vec<f32> = (0..tokens * cols).map(|i| (i as f32 * 0.05).cos()).collect();

    // Compressed-domain product.
    let t0 = Instant::now();
    let y_compressed = qm.matmul_blocked(&x)?;
    let t_compressed = t0.elapsed();

    // Conventional path: decode to FP32, dense product.
    let t0 = Instant::now();
    let dense = Tensor::from_vec(qm.to_dense(), &[rows, cols])?;
    let t_decode = t0.elapsed();
    let t0 = Instant::now();
    let y_dense = Tensor::from_vec(x, &[tokens, cols])?.matmul_nt(&dense)?;
    let t_dense = t0.elapsed();

    let identical =
        y_compressed.iter().zip(y_dense.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(identical, "packed and dense products must agree bit for bit");
    println!("compressed == dense, bit for bit ({} outputs)", y_compressed.len());
    println!("compressed-domain product: {t_compressed:?}");
    println!("decode ({t_decode:?}) + dense product ({t_dense:?})");
    println!(
        "\nthe compressed path reads {} bytes of weights instead of {} — \
         the bandwidth story behind the paper's energy claims",
        qm.layer().compressed_bytes(),
        rows * cols * 4
    );
    Ok(())
}
