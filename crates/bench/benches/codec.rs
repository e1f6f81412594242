//! Storage-codec throughput: bit-packing, unpacking, and full
//! encode/decode round trips — the costs a deployment pays on the
//! load path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gobo_quant::compute::QuantizedMatrix;
use gobo_quant::packing::{pack, unpack};
use gobo_quant::{QuantConfig, QuantMethod, QuantizedLayer};
use gobo_tensor::Tensor;

fn bench_packing(c: &mut Criterion) {
    let mut group = c.benchmark_group("packing");
    let n = 1_000_000usize;
    for bits in [3u8, 4, 8] {
        let mask = if bits == 8 { 0xFF } else { (1u8 << bits) - 1 };
        let values: Vec<u8> = (0..n).map(|i| (i % 251) as u8 & mask).collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("pack", bits), &values, |b, v| {
            b.iter(|| pack(v, bits).expect("pack"))
        });
        let packed = pack(&values, bits).expect("pack");
        group.bench_with_input(BenchmarkId::new("unpack", bits), &packed, |b, p| {
            b.iter(|| unpack(p, bits, n).expect("unpack"))
        });
    }
    group.finish();
}

fn bench_round_trip(c: &mut Criterion) {
    let n = 262_144usize; // one 512×512 layer
    let mut weights: Vec<f32> = (0..n)
        .map(|i| ((i as f32) * 0.07).sin() * 0.04 + ((i as f32) * 0.003).cos() * 0.01)
        .collect();
    weights[100] = 1.0;
    weights[200_000] = -0.9;
    let mut group = c.benchmark_group("codec_round_trip");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n as u64));
    for bits in [3u8, 4] {
        let config = QuantConfig::new(QuantMethod::Gobo, bits).expect("bits");
        group.bench_with_input(BenchmarkId::new("encode", bits), &weights, |b, w| {
            b.iter(|| QuantizedLayer::encode(w, &config).expect("encode"))
        });
        let layer = QuantizedLayer::encode(&weights, &config).expect("encode");
        group.bench_with_input(BenchmarkId::new("decode", bits), &layer, |b, l| {
            b.iter(|| l.decode())
        });
    }
    group.finish();
}

/// One request's 8 token rows through the packed kernel vs
/// decode + the dense kernel; the two outputs must be the same bits.
fn bench_compressed_compute(c: &mut Criterion) {
    let (rows, cols, tokens) = (768usize, 768usize, 8usize);
    let mut weights: Vec<f32> = (0..rows * cols)
        .map(|i| ((i as f32) * 0.021).sin() * 0.04 + ((i as f32) * 0.0013).cos() * 0.015)
        .collect();
    weights[1000] = 1.5;
    let layer =
        QuantizedLayer::encode(&weights, &QuantConfig::new(QuantMethod::Gobo, 3).expect("cfg"))
            .expect("encode");
    let qm = QuantizedMatrix::new(layer, rows, cols).expect("matrix");
    let x: Vec<f32> = (0..tokens * cols).map(|i| (i as f32 * 0.05).cos()).collect();
    let panel = Tensor::from_vec(x.clone(), &[tokens, cols]).expect("panel");
    let decode_then_dense = || {
        let dense = Tensor::from_vec(qm.to_dense(), &[rows, cols]).expect("dense");
        panel.matmul_nt(&dense).expect("dense product")
    };
    let packed = qm.matmul_blocked(&x).expect("matmul_blocked");
    let same =
        packed.iter().zip(decode_then_dense().as_slice()).all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(same, "packed and dense products must agree bit for bit");

    let mut group = c.benchmark_group("compressed_compute_768x768");
    group.throughput(Throughput::Elements((tokens * rows * cols) as u64));
    group.bench_function("matmul_blocked_on_compressed", |b| {
        b.iter(|| qm.matmul_blocked(&x).expect("matmul_blocked"))
    });
    group.bench_function("decode_then_dense_matmul_nt", |b| b.iter(decode_then_dense));
    group.finish();
}

criterion_group!(benches, bench_packing, bench_round_trip, bench_compressed_compute);
criterion_main!(benches);
