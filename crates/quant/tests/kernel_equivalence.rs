//! Equivalence properties for the clustering kernel, the outlier split
//! and the bit packer.
//!
//! GOBO and K-Means (`gobo_quant::kernel::cluster`) find each
//! iteration's cluster boundaries by binary search over one sorted view
//! of the G group; `gobo_quant::oracle::cluster` finds them with an O(n)
//! nearest-centroid pass. `OutlierSplit` finds the G group as the run
//! between two binary searches on the sorted layer, and
//! `QuantizedLayer::encode_split` writes outliers and indices in one
//! input-order pass; `gobo_quant::oracle::split` is the plain input-order
//! partition. The word-at-a-time packer and the group-at-a-time unpacker
//! replace byte-at-a-time ones. Each pair must agree **bit for bit**:
//! these tests enforce it across random layers, every supported bit
//! width, sorted input, degenerate inputs (constant layers, duplicate
//! centroids, codebook-sized layers), layers cut exactly at their
//! outlier radius, and one G group of the paper's own layer size. They
//! also state the spec's one promise about order: a codebook depends
//! only on the sorted multiset of the G values.

use gobo_quant::gobo::{self, Clustering};
use gobo_quant::kernel::Stop;
use gobo_quant::oracle;
use gobo_quant::packing;
use gobo_quant::{
    kmeans, linear, OutlierSplit, QuantConfig, QuantError, QuantMethod, QuantizedLayer,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn f32_bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn f64_bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Panics unless the two clusterings agree bit-for-bit: codebook,
/// assignments, both trace norms, and the selected iteration.
fn assert_identical(kernel: &Clustering, oracle: &Clustering) {
    assert_eq!(
        f32_bits(kernel.codebook.centroids()),
        f32_bits(oracle.codebook.centroids()),
        "codebooks differ"
    );
    assert_eq!(kernel.assignments, oracle.assignments, "assignments differ");
    assert_eq!(f64_bits(&kernel.trace.l1), f64_bits(&oracle.trace.l1), "L1 traces differ");
    assert_eq!(f64_bits(&kernel.trace.l2), f64_bits(&oracle.trace.l2), "L2 traces differ");
    assert_eq!(
        kernel.trace.selected_iteration, oracle.trace.selected_iteration,
        "selected iterations differ"
    );
}

fn compare_all_methods(values: &[f32], clusters: usize) {
    let kernel = gobo::quantize_g(values, clusters, 60).unwrap();
    assert_identical(&kernel, &oracle::cluster(values, clusters, 60, Stop::MinL1).unwrap());

    let kernel = kmeans::quantize_g(values, clusters, 200).unwrap();
    assert_identical(&kernel, &oracle::cluster(values, clusters, 200, Stop::FixedPoint).unwrap());
}

/// G-group-like weights with at least 256 entries so every bit width
/// up to 8 has enough values for its codebook.
fn g_values() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-0.15f32..0.15, 260..600)
}

/// A layer at the edges of the split: a bell of small values with both
/// zeros and a repeated value, two strong outliers, and its last eight
/// weights on the cut of its own fit at `threshold` — μ + r and μ − r
/// rounded to f32, each twice (duplicates at the cut), and each one ulp
/// up and down. Moving those eight moves the fit, so they are moved
/// again until they hold still. A `nonneg` layer is at or above zero
/// and is not cut, so both zeros tie for the G group's minimum, which
/// Linear's input-order fold decides. Returns the layer and whether its
/// cut held still.
fn layer_at_the_cut(seed: u64, n: usize, threshold: f64, nonneg: bool) -> (Vec<f32>, bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w: Vec<f32> = (0..n)
        .map(|_| match rng.gen_range(0u32..8) {
            0 => 0.0,
            1 => -0.0,
            2 => 0.03,
            _ => {
                let v: f32 = (0..4).map(|_| rng.gen_range(-0.05f32..0.05)).sum();
                if nonneg {
                    v.abs()
                } else {
                    v
                }
            }
        })
        .collect();
    (w[0], w[1]) = (0.9, if nonneg { 0.8 } else { -0.7 });
    if nonneg {
        return (w, false);
    }
    for _ in 0..64 {
        let Ok(split) = OutlierSplit::detect(&w, threshold) else { break };
        let Some(r) = split.gaussian().cutoff_radius(threshold) else { break };
        let (hi, lo) = ((split.gaussian().mean() + r) as f32, (split.gaussian().mean() - r) as f32);
        let cut = [hi, hi, hi.next_up(), hi.next_down(), lo, lo, lo.next_up(), lo.next_down()];
        if w[n - 8..] == cut {
            return (w, true);
        }
        w[n - 8..].copy_from_slice(&cut);
    }
    (w, false)
}

/// Panics unless `QuantizedLayer::encode` is its plain spec, bit for
/// bit: `oracle::split`, then `oracle::cluster` (or
/// `linear::quantize_g`) on the input-order G group, then
/// `Codebook::assign` and `packing::pack` — or both fail alike.
fn assert_encode_is_the_spec(w: &[f32], config: &QuantConfig) {
    let threshold = config.detect_outliers().then(|| config.outlier_threshold());
    let spec = oracle::split(w, threshold).and_then(|oracle::Split { g, positions, values }| {
        let (clusters, max) = (config.clusters(), config.max_iterations());
        let clustering = match config.method() {
            QuantMethod::Gobo => oracle::cluster(&g, clusters, max, Stop::MinL1)?,
            QuantMethod::KMeans => oracle::cluster(&g, clusters, max, Stop::FixedPoint)?,
            QuantMethod::Linear => linear::quantize_g(&g, clusters)?,
        };
        let packed = packing::pack(&clustering.codebook.assign(&g), config.bits())?;
        Ok((positions, values, clustering, packed))
    });
    match (QuantizedLayer::encode(w, config), spec) {
        (Ok(layer), Ok((spec_positions, spec_values, clustering, packed))) => {
            let spec = Clustering { assignments: Vec::new(), ..clustering };
            let got = Clustering {
                codebook: layer.codebook().clone(),
                assignments: Vec::new(),
                trace: layer.trace().clone(),
            };
            assert_identical(&got, &spec);
            assert_eq!(layer.packed_indices(), &packed[..], "packed indices differ");
            let (positions, values) = layer.outliers();
            assert_eq!(positions, &spec_positions[..], "outlier positions differ");
            assert_eq!(f32_bits(values), f32_bits(&spec_values), "outlier values differ");
            assert_eq!(layer.total(), w.len());
        }
        (Err(got), Err(spec)) => assert_eq!(got, spec, "errors differ"),
        (got, spec) => panic!("encode's error {:?}, the spec's {:?}", got.err(), spec.err()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sorted_view_kernel_matches_oracle_cluster(w in g_values(), bits in 1u8..=8) {
        compare_all_methods(&w, 1usize << bits);
    }

    #[test]
    fn sorted_view_kernel_matches_oracle_cluster_on_sorted_input(w in g_values(), bits in 1u8..=8) {
        // Ascending input: the view's sort leaves it as it is, and the
        // final index pass crosses each boundary once, in order.
        let mut w = w;
        w.sort_by(|a, b| a.partial_cmp(b).unwrap());
        compare_all_methods(&w, 1usize << bits);
    }

    #[test]
    fn codebooks_depend_only_on_the_sorted_multiset(
        w in g_values(),
        bits in 1u8..=8,
        seed in any::<u64>(),
    ) {
        // The same G group in another order: every method gives the same
        // codebook bits and, value for value, the same indices.
        let mut order: Vec<usize> = (0..w.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        let clusters = 1usize << bits;
        let permuted: Vec<f32> = order.iter().map(|&i| w[i]).collect();
        let runs = [
            (gobo::quantize_g(&w, clusters, 60), gobo::quantize_g(&permuted, clusters, 60)),
            (kmeans::quantize_g(&w, clusters, 200), kmeans::quantize_g(&permuted, clusters, 200)),
            (linear::quantize_g(&w, clusters), linear::quantize_g(&permuted, clusters)),
        ];
        for (a, b) in runs {
            let (a, b) = (a.unwrap(), b.unwrap());
            prop_assert_eq!(f32_bits(a.codebook.centroids()), f32_bits(b.codebook.centroids()));
            let expected: Vec<u8> = order.iter().map(|&i| a.assignments[i]).collect();
            prop_assert_eq!(b.assignments, expected);
        }
    }

    #[test]
    fn encode_matches_the_split_spec(
        seed in any::<u64>(),
        n in 64usize..400,
        bits in 2u8..=4,
        method in 0usize..3,
        threshold in 0usize..4,
        detect in any::<bool>(),
    ) {
        // -2, -4 and -6 cut a band; +50 is above every layer's density
        // peak, so every weight is an outlier and the G group is empty.
        let threshold = [-4.0, -2.0, -6.0, 50.0][threshold];
        let (w, _) = layer_at_the_cut(seed, n, threshold, seed % 2 == 0);
        let method = [QuantMethod::Gobo, QuantMethod::KMeans, QuantMethod::Linear][method];
        let config = QuantConfig::new(method, bits).unwrap().with_outlier_threshold(threshold).unwrap();
        assert_encode_is_the_spec(&w, &if detect { config } else { config.without_outliers() });
    }

    #[test]
    fn word_packing_matches_bytewise_oracle(
        values in proptest::collection::vec(0u8..=255, 0..900),
        bits in 1u8..=8,
    ) {
        let mask = if bits == 8 { 0xFF } else { (1u8 << bits) - 1 };
        let clipped: Vec<u8> = values.iter().map(|v| v & mask).collect();
        let word = packing::pack(&clipped, bits).unwrap();
        let byte = oracle::pack_bytewise(&clipped, bits).unwrap();
        prop_assert_eq!(word.to_vec(), byte.to_vec());
        // Both unpackers invert both packers.
        prop_assert_eq!(packing::unpack(&word, bits, clipped.len()).unwrap(), clipped.clone());
        prop_assert_eq!(oracle::unpack_bytewise(&word, bits, clipped.len()).unwrap(), clipped);
    }

    #[test]
    fn unpack_run_matches_bytewise_oracle_at_any_offset(
        values in proptest::collection::vec(0u8..=255, 0..900),
        bits in 1u8..=8,
        start in 0usize..900,
        len in 0usize..900,
    ) {
        let mask = if bits == 8 { 0xFF } else { (1u8 << bits) - 1 };
        let clipped: Vec<u8> = values.iter().map(|v| v & mask).collect();
        let packed = packing::pack(&clipped, bits).unwrap();
        let start = start % (clipped.len() + 1);
        let len = len % (clipped.len() - start + 1);
        let mut run = vec![0u8; len];
        packing::unpack_run(&packed, bits, start, &mut run).unwrap();
        let all = oracle::unpack_bytewise(&packed, bits, clipped.len()).unwrap();
        prop_assert_eq!(&run[..], &all[start..start + len]);
    }
}

/// A 768 × 768 G group — BERT-Base's attention matrices, 589 824
/// values — at the paper's two widths: the kernel that quantizes a
/// paper-scale layer is the one the oracle is compared with, at that
/// size. Hash-seeded and bell-shaped (a sum of four uniforms); the
/// iteration caps keep the K-Means leg short, not the comparison loose.
#[test]
fn sorted_view_kernel_matches_oracle_cluster_on_a_paper_scale_g_group() {
    let uniform = |i: u32| {
        let h = (i ^ 0x9E37_79B9).wrapping_mul(0x85EB_CA6B);
        ((h ^ (h >> 13)).wrapping_mul(0xC2B2_AE35) >> 8) as f32 / (1 << 23) as f32 - 1.0
    };
    let values: Vec<f32> = (0..768 * 768u32)
        .map(|i| (0..4).map(|lane| uniform(4 * i + lane)).sum::<f32>() * 0.02)
        .collect();
    for clusters in [8, 16] {
        let kernel = gobo::quantize_g(&values, clusters, 8).unwrap();
        assert_identical(&kernel, &oracle::cluster(&values, clusters, 8, Stop::MinL1).unwrap());
        assert!(kernel.trace.iterations() > 2, "the comparison covers mean updates");

        let kernel = kmeans::quantize_g(&values, clusters, 4).unwrap();
        assert_identical(
            &kernel,
            &oracle::cluster(&values, clusters, 4, Stop::FixedPoint).unwrap(),
        );
    }
}

#[test]
fn sorted_view_kernel_matches_oracle_cluster_on_degenerate_layers() {
    let constant = vec![0.5f32; 300];
    let two_valued: Vec<f32> = (0..300).map(|i| (i % 2) as f32).collect();
    let codebook_sized: Vec<f32> = (0..256).map(|i| i as f32 * 0.01 - 1.28).collect();
    let tiny = vec![-1.0f32, 1.0, 0.0, 0.25];
    for values in [&constant, &two_valued, &codebook_sized, &tiny] {
        for bits in 1u8..=8 {
            let clusters = 1usize << bits;
            if clusters > values.len() {
                continue;
            }
            compare_all_methods(values, clusters);
        }
    }
}

#[test]
fn packing_error_cases_match_bytewise_oracle() {
    // Oversized value, bad widths, truncated payload: both
    // implementations must agree on every rejection.
    assert!(packing::pack(&[8], 3).is_err() && oracle::pack_bytewise(&[8], 3).is_err());
    for bits in [0u8, 9] {
        assert!(packing::pack(&[0], bits).is_err() && oracle::pack_bytewise(&[0], bits).is_err());
        assert!(
            packing::unpack(&[0], bits, 1).is_err()
                && oracle::unpack_bytewise(&[0], bits, 1).is_err()
        );
    }
    let packed = packing::pack(&[1, 2, 3, 4, 5], 4).unwrap();
    assert!(packing::unpack(&packed[..1], 4, 5).is_err());
    assert!(oracle::unpack_bytewise(&packed[..1], 4, 5).is_err());
}

/// The split's edges, pinned: on layers whose cut held still, a weight
/// on each side of μ ± r, in every method and width, with and without
/// detection. A threshold above the density peak makes every weight an
/// outlier, and encoding then fails as it always has: the G group is
/// empty.
#[test]
fn encode_matches_the_split_spec_at_the_cut() {
    let mut held = 0;
    for seed in 0..12u64 {
        let (w, still) = layer_at_the_cut(seed, 300, -4.0, false);
        if !still {
            continue;
        }
        held += 1;
        let split = OutlierSplit::detect(&w, -4.0).unwrap();
        let cut = &w[w.len() - 8..];
        assert!(cut.iter().any(|&v| split.is_outlier(v)), "seed {seed}: no cut weight is out");
        assert!(cut.iter().any(|&v| !split.is_outlier(v)), "seed {seed}: no cut weight is in");
        for method in [QuantMethod::Gobo, QuantMethod::KMeans, QuantMethod::Linear] {
            for bits in 2..=4 {
                let config = QuantConfig::new(method, bits).unwrap();
                assert_encode_is_the_spec(&w, &config);
                assert_encode_is_the_spec(&w, &config.without_outliers());
            }
        }
    }
    assert!(held >= 6, "only {held} of 12 cuts held still");

    // Both zeros are the G group's minimum, with detection and without.
    let (w, _) = layer_at_the_cut(3, 300, -4.0, true);
    let g = OutlierSplit::detect(&w, -4.0).unwrap().view().values().to_vec();
    assert_eq!(
        (g[0].to_bits(), g.iter().find(|v| v.to_bits() != g[0].to_bits())),
        (0x8000_0000, Some(&0.0))
    );
    for bits in 2..=4 {
        let config = QuantConfig::new(QuantMethod::Linear, bits).unwrap();
        assert_encode_is_the_spec(&w, &config);
        assert_encode_is_the_spec(&w, &config.without_outliers());
    }

    let (w, _) = layer_at_the_cut(7, 300, -4.0, false);
    for method in [QuantMethod::Gobo, QuantMethod::KMeans, QuantMethod::Linear] {
        let config = QuantConfig::new(method, 3).unwrap().with_outlier_threshold(50.0).unwrap();
        assert_eq!(QuantizedLayer::encode(&w, &config), Err(QuantError::EmptyLayer));
        assert_encode_is_the_spec(&w, &config);
    }
}
