//! Property-based tests for the quantization core.

use gobo_quant::compute::QuantizedMatrix;
use gobo_quant::container::ModelArchive;
use gobo_quant::layer::QuantizedLayer;
use gobo_quant::outlier::OutlierSplit;
use gobo_quant::packing::{pack, packed_len, unpack};
use gobo_quant::{gobo, init, kmeans, oracle, QuantConfig, QuantMethod};
use gobo_tensor::Tensor;
use proptest::prelude::*;

/// Weights that look like a real layer: Gaussian bulk plus occasional
/// strong outliers, always with enough spread to fit a Gaussian.
fn layer_weights() -> impl Strategy<Value = Vec<f32>> {
    (
        proptest::collection::vec(-1.0f32..1.0, 64..512),
        proptest::collection::vec((0usize..64, -10.0f32..10.0), 0..5),
    )
        .prop_map(|(mut bulk, outliers)| {
            for v in bulk.iter_mut() {
                *v *= 0.05;
            }
            // Guarantee non-zero variance.
            bulk[0] = 0.04;
            bulk[1] = -0.04;
            for (pos, val) in outliers {
                let i = pos % bulk.len();
                bulk[i] = val;
            }
            bulk
        })
}

proptest! {
    #[test]
    fn pack_unpack_round_trip(values in proptest::collection::vec(0u8..=255, 0..600), bits in 1u8..=8) {
        let mask = if bits == 8 { 0xFF } else { (1u8 << bits) - 1 };
        let clipped: Vec<u8> = values.iter().map(|v| v & mask).collect();
        let packed = pack(&clipped, bits).unwrap();
        prop_assert_eq!(packed.len(), packed_len(clipped.len(), bits));
        prop_assert_eq!(unpack(&packed, bits, clipped.len()).unwrap(), clipped);
    }

    #[test]
    fn outlier_split_partitions_exactly(w in layer_weights(), thr in -8.0f64..-1.0) {
        let split = OutlierSplit::detect(&w, thr).unwrap();
        prop_assert_eq!(split.view().values().len() + split.outlier_count(), w.len());
        // The rule marks exactly the plain split's outliers, and the
        // sorted view's G group is the plain split's G group sorted.
        let oracle::Split { mut g, positions, .. } = oracle::split(&w, Some(thr)).unwrap();
        let marked: Vec<u32> = (0..w.len() as u32).filter(|&i| split.is_outlier(w[i as usize])).collect();
        prop_assert_eq!(marked, positions);
        g.sort_by(f32::total_cmp);
        prop_assert_eq!(split.view().values(), &g[..]);
    }

    #[test]
    fn equal_population_bins_balanced(n in 8usize..2000, clusters_log in 1u8..=5) {
        let clusters = 1usize << clusters_log;
        if n < clusters { return Ok(()); }
        let pops = init::bin_populations(n, clusters);
        prop_assert_eq!(pops.iter().sum::<usize>(), n);
        let min = pops.iter().min().unwrap();
        let max = pops.iter().max().unwrap();
        prop_assert!(max - min <= 1);
    }

    #[test]
    fn gobo_stops_within_patience_of_its_minimum(w in layer_weights()) {
        let split = OutlierSplit::detect(&w, -4.0).unwrap();
        let g = split.view().values();
        if g.len() < 8 { return Ok(()); }
        let c = gobo::quantize_g(g, 8, 100).unwrap();
        prop_assert!(
            c.trace.iterations() <= c.trace.selected_iteration + 1 + gobo::L1_PATIENCE
        );
    }

    #[test]
    fn gobo_selects_argmin_l1_of_its_trace(w in layer_weights()) {
        // GOBO and K-Means share the same init and update rule, so GOBO's
        // guarantee is: it returns the L1-minimal iterate of the prefix it
        // explored, which is never worse than the initialization.
        let split = OutlierSplit::detect(&w, -4.0).unwrap();
        let view = split.view();
        if view.values().len() < 8 { return Ok(()); }
        // The trace's norms are the sorted view's, so the returned
        // codebook's L1 is re-measured there: bit for bit the minimum.
        let g = gobo::quantize_g(view.values(), 8, 500).unwrap();
        let centroids = g.codebook.centroids();
        let (final_l1, _) = view.norms(centroids, &view.boundaries(centroids));
        let trace_min = g.trace.l1.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert_eq!(final_l1.to_bits(), trace_min.to_bits());
        prop_assert!(final_l1 <= g.trace.l1[0]);
    }

    #[test]
    fn gobo_never_iterates_longer_than_kmeans(w in layer_weights()) {
        let split = OutlierSplit::detect(&w, -4.0).unwrap();
        let g_group = split.view().values();
        if g_group.len() < 8 { return Ok(()); }
        let g = gobo::quantize_g(g_group, 8, 500).unwrap();
        let k = kmeans::quantize_g(g_group, 8, 500).unwrap();
        // Both observe one extra iteration to detect their stopping
        // condition; GOBO's L1 test can fire one step later than
        // assignment convergence in tie-heavy cases, hence the +1.
        prop_assert!(g.trace.iterations() <= k.trace.iterations() + 1);
    }

    #[test]
    fn decode_is_bit_exact_for_outliers_and_in_hull_for_g(w in layer_weights(), bits in 2u8..=5) {
        let config = QuantConfig::new(QuantMethod::Gobo, bits).unwrap();
        let layer = match QuantizedLayer::encode(&w, &config) {
            Ok(l) => l,
            Err(_) => return Ok(()), // degenerate split (e.g. too few G values)
        };
        let decoded = layer.decode();
        prop_assert_eq!(decoded.len(), w.len());
        let centroids = layer.codebook().centroids();
        let lo = centroids[0];
        let hi = centroids[centroids.len() - 1];
        for (&d, &o) in decoded.iter().zip(&w) {
            // Every reconstructed weight is either the original (outlier)
            // or one of the representative values.
            let is_original = d == o;
            let is_centroid = centroids.contains(&d);
            prop_assert!(is_original || is_centroid);
            if is_centroid {
                prop_assert!(d >= lo && d <= hi);
            }
        }
    }

    #[test]
    fn container_round_trip_preserves_decode(w in layer_weights(), bits in 2u8..=5) {
        let config = QuantConfig::new(QuantMethod::Gobo, bits).unwrap();
        let layer = match QuantizedLayer::encode(&w, &config) {
            Ok(l) => l,
            Err(_) => return Ok(()),
        };
        let restored = QuantizedLayer::from_bytes(&layer.to_bytes()).unwrap();
        prop_assert_eq!(restored.decode(), layer.decode());
        prop_assert_eq!(restored.compressed_bytes(), layer.compressed_bytes());

        let mut archive = ModelArchive::new();
        archive.push("layer", layer.clone()).unwrap();
        let restored = ModelArchive::from_bytes(&archive.to_bytes()).unwrap();
        prop_assert_eq!(restored.get("layer").unwrap().decode(), layer.decode());
    }

    #[test]
    fn compressed_product_equals_dense(w in layer_weights(), x_seed in 0u32..1000) {
        // Shape the weights into a matrix (pad-free: trim to a multiple
        // of a small column count).
        let cols = 16usize;
        let rows = w.len() / cols;
        if rows == 0 { return Ok(()); }
        let w = &w[..rows * cols];
        let config = QuantConfig::new(QuantMethod::Gobo, 3).unwrap();
        let layer = match QuantizedLayer::encode(w, &config) {
            Ok(l) => l,
            Err(_) => return Ok(()),
        };
        let qm = QuantizedMatrix::new(layer, rows, cols).unwrap();
        let x: Vec<f32> = (0..cols).map(|i| ((i as u32 + x_seed) as f32 * 0.37).sin()).collect();
        let fast = qm.matmul_blocked(&x).unwrap();
        let dense = Tensor::from_vec(qm.to_dense(), &[rows, cols]).unwrap();
        let expected = Tensor::from_vec(x, &[1, cols]).unwrap().matmul_nt(&dense).unwrap();
        for (r, (got, want)) in fast.iter().zip(expected.as_slice()).enumerate() {
            prop_assert_eq!(got.to_bits(), want.to_bits(), "row {}: {} vs {}", r, got, want);
        }
    }

    #[test]
    fn decode_is_pure_and_bounded(w in layer_weights()) {
        let config = QuantConfig::new(QuantMethod::KMeans, 3).unwrap();
        let layer = match QuantizedLayer::encode(&w, &config) {
            Ok(l) => l,
            Err(_) => return Ok(()),
        };
        // Decoding is deterministic…
        prop_assert_eq!(layer.decode(), layer.decode());
        // …finite, and never escapes the original value hull.
        let lo = w.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = w.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for d in layer.decode() {
            prop_assert!(d.is_finite());
            prop_assert!(d >= lo - 1e-6 && d <= hi + 1e-6);
        }
    }
}

proptest! {
    // Large-layer cases are expensive in debug builds; a handful of
    // cases still covers every bit width.
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn compression_ratio_close_to_ideal_for_large_layers(bits in 2u8..=6) {
        let n = 100_000usize;
        let w: Vec<f32> = (0..n)
            .map(|i| ((i as f32 * 0.013).sin() + (i as f32 * 0.00071).cos()) * 0.04)
            .collect();
        let config = QuantConfig::new(QuantMethod::Gobo, bits).unwrap();
        let layer = QuantizedLayer::encode(&w, &config).unwrap();
        let ideal = 32.0 / f64::from(bits);
        let ratio = layer.compression_ratio();
        prop_assert!(ratio <= ideal + 1e-9);
        prop_assert!(ratio > ideal * 0.5, "ratio {ratio} vs ideal {ideal}");
    }
}
