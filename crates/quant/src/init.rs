//! Centroid initialization policies.
//!
//! GOBO initializes from equal-*population* bins of the sorted G-group
//! weights (step 3–4 of the paper's Section IV-B summary): dense regions
//! get many clusters, sparse tails few. Linear initialization
//! (equidistant levels) is provided for the ablation comparing
//! initializers and for the linear-quantization baseline.

use crate::codebook::Codebook;
use crate::error::QuantError;
use crate::kernel::SortedView;

/// Equal-population initialization: splits a view's sorted G group
/// into `clusters` bins of (nearly) equal population and uses each bin's
/// mean as its initial centroid: the run's prefix difference over its
/// count ([`SortedView::mean`]), the same mean every later iteration takes.
///
/// When the values contain heavy ties the bin means can coincide; the
/// resulting codebook still has `clusters` entries (duplicates allowed)
/// so the index width stays as requested.
///
/// # Errors
///
/// Returns [`QuantError::EmptyLayer`] for an empty G group,
/// [`QuantError::InvalidConfig`] for `clusters == 0`, and
/// [`QuantError::TooFewValues`] when there are fewer values than
/// clusters.
pub fn equal_population(view: &SortedView, clusters: usize) -> Result<Codebook, QuantError> {
    if clusters == 0 {
        return Err(QuantError::InvalidConfig { name: "clusters" });
    }
    if view.len() == 0 {
        return Err(QuantError::EmptyLayer);
    }
    if view.len() < clusters {
        return Err(QuantError::TooFewValues { values: view.len(), clusters });
    }
    let mut centroids = Vec::with_capacity(clusters);
    let mut start = 0;
    for size in bin_populations(view.len(), clusters) {
        centroids.push(view.mean(start, start + size));
        start += size;
    }
    Codebook::new(centroids)
}

/// Linear initialization: `clusters` equidistant levels spanning
/// `[min, max]` of the values.
///
/// Unlike [`equal_population`], the level positions do not depend on
/// the population, so fewer values than clusters is permitted. Min and
/// max are folds in the values' order, so a layer passes its G group in
/// input order (a ±0 tie is decided by that order).
///
/// # Errors
///
/// Returns [`QuantError::EmptyLayer`] for empty input and
/// [`QuantError::InvalidConfig`] for `clusters == 0`.
pub fn linear<'a>(
    values: impl IntoIterator<Item = &'a f32, IntoIter: Clone>,
    clusters: usize,
) -> Result<Codebook, QuantError> {
    let values = values.into_iter();
    if clusters == 0 {
        return Err(QuantError::InvalidConfig { name: "clusters" });
    }
    if values.clone().next().is_none() {
        return Err(QuantError::EmptyLayer);
    }
    let lo = values.clone().copied().fold(f32::INFINITY, f32::min);
    let hi = values.copied().fold(f32::NEG_INFINITY, f32::max);
    let centroids = if clusters == 1 {
        vec![(lo + hi) * 0.5]
    } else {
        let step = (f64::from(hi) - f64::from(lo)) / (clusters - 1) as f64;
        (0..clusters).map(|i| (f64::from(lo) + step * i as f64) as f32).collect()
    };
    Codebook::new(centroids)
}

/// Population of each equal-population bin for an input of `n` values —
/// exposed for tests and the bin-boundary diagnostics in the figures.
pub fn bin_populations(n: usize, clusters: usize) -> Vec<usize> {
    let base = n / clusters;
    let extra = n % clusters;
    (0..clusters).map(|b| base + usize::from(b < extra)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn equal_population(values: &[f32], clusters: usize) -> Result<Codebook, QuantError> {
        super::equal_population(&SortedView::new(values), clusters)
    }

    #[test]
    fn equal_population_uniform_data() {
        // 8 values, 4 clusters: bins of 2, centroids are pair means.
        let values = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let cb = equal_population(&values, 4).unwrap();
        assert_eq!(cb.centroids(), &[1.5, 3.5, 5.5, 7.5]);
    }

    #[test]
    fn equal_population_concentrates_in_dense_regions() {
        // 90% of mass near 0, 10% spread to 10: most centroids near 0.
        let mut values: Vec<f32> = (0..90).map(|i| i as f32 * 0.001).collect();
        values.extend((0..10).map(|i| 1.0 + i as f32));
        let cb = equal_population(&values, 8).unwrap();
        let near_zero = cb.centroids().iter().filter(|&&c| c < 0.5).count();
        assert!(near_zero >= 6, "centroids: {:?}", cb.centroids());
    }

    #[test]
    fn equal_population_handles_remainders() {
        // 10 values into 4 bins: populations 3,3,2,2.
        assert_eq!(bin_populations(10, 4), vec![3, 3, 2, 2]);
        let values: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let cb = equal_population(&values, 4).unwrap();
        assert_eq!(cb.len(), 4);
        // First bin = {0,1,2} → 1.0; last bin = {8,9} → 8.5.
        assert_eq!(cb.centroids()[0], 1.0);
        assert_eq!(cb.centroids()[3], 8.5);
    }

    #[test]
    fn equal_population_is_order_invariant() {
        let a = [5.0f32, 1.0, 3.0, 2.0, 4.0, 0.0, 7.0, 6.0];
        let mut b = a;
        b.reverse();
        assert_eq!(equal_population(&a, 4).unwrap(), equal_population(&b, 4).unwrap());
    }

    #[test]
    fn input_validation() {
        assert!(matches!(equal_population(&[], 4), Err(QuantError::EmptyLayer)));
        assert!(matches!(
            equal_population(&[1.0, 2.0], 4),
            Err(QuantError::TooFewValues { values: 2, clusters: 4 })
        ));
        assert!(matches!(equal_population(&[1.0], 0), Err(QuantError::InvalidConfig { .. })));
        assert!(linear(&[], 4).is_err());
        assert!(linear(&[1.0], 0).is_err());
    }

    #[test]
    fn linear_levels_are_equidistant() {
        let values = [-1.0f32, 0.2, 0.9, 3.0];
        let cb = linear(&values, 5).unwrap();
        let cs = cb.centroids();
        assert_eq!(cs[0], -1.0);
        assert_eq!(cs[4], 3.0);
        let step = cs[1] - cs[0];
        for w in cs.windows(2) {
            assert!((w[1] - w[0] - step).abs() < 1e-5);
        }
    }

    #[test]
    fn linear_single_cluster_is_midpoint() {
        let cb = linear(&[0.0, 4.0], 1).unwrap();
        assert_eq!(cb.centroids(), &[2.0]);
    }

    #[test]
    fn equal_population_with_ties_keeps_cluster_count() {
        let values = [0.0f32; 6].iter().chain(&[1.0f32, 2.0]).copied().collect::<Vec<_>>();
        let cb = equal_population(&values, 4).unwrap();
        assert_eq!(cb.len(), 4);
    }
}
