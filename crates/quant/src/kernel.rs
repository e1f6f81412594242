//! The clustering kernel: one sorted view of a layer.
//!
//! GOBO and K-Means alternate nearest-centroid assignment with a mean
//! update. On one dimension the nearest centroid of an ascending table
//! is monotone in the value, so every cluster is a contiguous run of the
//! sorted values. [`SortedView`] is the layer sorted once, with f64
//! prefix sums of v and v² over its G group; an iteration then finds the
//! k − 1 cluster boundaries by binary search, with [`nearest_sorted`] as
//! the predicate, and takes counts, sums, L1 and L2 from prefix
//! differences: O(k log n) an iteration, and the weights are not
//! touched. This is the standard device of exact 1-D clustering
//! (Grønlund et al., 2017, <https://arxiv.org/abs/1701.07204>). The
//! caller's one input-order pass then writes each G weight's index.
//!
//! So a codebook is a function of the sorted multiset of the G values,
//! never of their order in memory. `cluster` is the one loop GOBO and
//! K-Means share; they differ only in their [`Stop`] rule.
//! [`crate::oracle::cluster`] states the same spec with an O(n)
//! assignment pass per iteration, and `tests/kernel_equivalence.rs`
//! holds the two bit for bit, up to the paper's 768 × 768 layer.
//!
//! A layer is clustered serially: its bytes are a function of its values
//! alone, never of the host's core count. Cores are used one level up,
//! across the layers of a model (`gobo::quantize_model`).

use std::ops::Range;

use crate::codebook::{Codebook, ConvergenceTrace};
use crate::error::QuantError;
use crate::gobo::L1_PATIENCE;
use crate::init;

/// Codebooks up to this size use the branchless counting search in
/// [`nearest_sorted`]; GOBO's production widths (2–4 bits → 4–16
/// centroids) all land here.
pub const SMALL_K: usize = 16;

/// Index of the centroid nearest to `x` in an ascending centroid table
/// (ties break toward the lower index).
///
/// For tables of at most [`SMALL_K`] entries the partition point is
/// computed as a branchless count of `centroid <= x` — for an ascending
/// table the predicate is monotone, so the count *is*
/// `partition_point(|&c| c <= x)`, duplicates included. The boundary
/// cases collapse into one clamped tie-break compare: at `hi == 0` and
/// `hi == k` both candidate indices clamp to the same slot, so the
/// compare degenerates to the correct constant answer without a branch.
///
/// The result never decreases as `x` grows, which is what lets
/// [`SortedView::boundaries`] binary-search it.
#[inline]
pub fn nearest_sorted(cs: &[f32], x: f32) -> usize {
    let k = cs.len();
    debug_assert!(k >= 1, "non-empty centroid table");
    let hi = if k <= SMALL_K {
        let mut n = 0usize;
        for &c in cs {
            n += usize::from(c <= x);
        }
        n
    } else {
        // partition_point returns the first centroid > x.
        cs.partition_point(|&c| c <= x)
    };
    let lo = hi.saturating_sub(1);
    let hi = hi.min(k - 1);
    if (x - cs[lo]).abs() <= (cs[hi] - x).abs() {
        lo
    } else {
        hi
    }
}

/// A layer sorted ascending (`f32::total_cmp`) and the run of it that
/// is clustered, its G group, with the f64 prefix sums of that run's
/// values and of their squares, accumulated in sorted order from the
/// run's first value. It costs 20 bytes a value.
/// [`crate::OutlierSplit`] is this view of a layer; on a bare G group
/// ([`SortedView::new`]) the run is all of it.
#[derive(Debug, Clone, PartialEq)]
pub struct SortedView {
    sorted: Vec<f32>,
    /// The G group: `sorted[g]`.
    g: Range<usize>,
    /// `sums[i]` is the sum of `values()[..i]`.
    sums: Vec<f64>,
    /// `squares[i]` is the sum of the squares of `values()[..i]`.
    squares: Vec<f64>,
}

impl SortedView {
    /// Sorts a copy of `values`, all of which are clustered.
    pub fn new(values: &[f32]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_unstable_by(f32::total_cmp);
        let g = 0..sorted.len();
        Self::over(sorted, g)
    }

    /// The view of an ascending layer whose G group is `sorted[g]`.
    pub(crate) fn over(sorted: Vec<f32>, g: Range<usize>) -> Self {
        let mut sums = Vec::with_capacity(g.len() + 1);
        let mut squares = Vec::with_capacity(g.len() + 1);
        let (mut sum, mut square) = (0.0f64, 0.0f64);
        sums.push(sum);
        squares.push(square);
        for &v in &sorted[g.clone()] {
            let v = f64::from(v);
            sum += v;
            square += v * v;
            sums.push(sum);
            squares.push(square);
        }
        SortedView { sorted, g, sums, squares }
    }

    /// The clustered values, ascending.
    pub fn values(&self) -> &[f32] {
        &self.sorted[self.g.clone()]
    }

    /// Number of weights in the whole layer, clustered or not.
    pub(crate) fn total(&self) -> usize {
        self.sorted.len()
    }

    /// Number of clustered values.
    pub(crate) fn len(&self) -> usize {
        self.g.len()
    }

    /// Sum of `values()[a..b]`, as a prefix difference.
    fn sum(&self, a: usize, b: usize) -> f64 {
        self.sums[b] - self.sums[a]
    }

    /// Mean of the non-empty run `values()[a..b]`: its prefix difference
    /// over its count.
    pub(crate) fn mean(&self, a: usize, b: usize) -> f32 {
        // CAST: a mean of f32 values rounds back to the codebook's type
        (self.sum(a, b) / (b - a) as f64) as f32
    }

    /// The k + 1 cluster boundaries for an ascending centroid table:
    /// cluster `j` is `values()[b[j]..b[j + 1]]`, the values whose
    /// [`nearest_sorted`] index is `j` (empty for a centroid no value is
    /// nearest to).
    pub fn boundaries(&self, centroids: &[f32]) -> Vec<usize> {
        let values = self.values();
        let mut bounds = Vec::with_capacity(centroids.len() + 1);
        let mut start = 0;
        bounds.push(start);
        for j in 1..centroids.len() {
            start += values[start..].partition_point(|&v| nearest_sorted(centroids, v) < j);
            bounds.push(start);
        }
        bounds.push(self.len());
        bounds
    }

    /// Summed `|v - c(v)|` and `(v - c(v))²` of the clustering that
    /// `bounds` defines. L1 splits each cluster's run at its centroid.
    pub fn norms(&self, centroids: &[f32], bounds: &[usize]) -> (f64, f64) {
        let (values, mut l1, mut l2) = (self.values(), 0.0f64, 0.0f64);
        for (j, &c) in centroids.iter().enumerate() {
            let (a, b) = (bounds[j], bounds[j + 1]);
            let m = a + values[a..b].partition_point(|&v| v < c);
            let c = f64::from(c);
            l1 += (self.sum(m, b) - c * (b - m) as f64) + (c * (m - a) as f64 - self.sum(a, m));
            l2 += (self.squares[b] - self.squares[a]) - 2.0 * c * self.sum(a, b)
                + (b - a) as f64 * c * c;
        }
        (l1, l2)
    }

    /// Moves each centroid to the mean of its cluster; an empty cluster
    /// keeps its centroid. Restores the ascending order a kept centroid
    /// can break.
    pub(crate) fn update_centroids(&self, centroids: &mut [f32], bounds: &[usize]) {
        for (j, c) in centroids.iter_mut().enumerate() {
            let (a, b) = (bounds[j], bounds[j + 1]);
            if b > a {
                *c = self.mean(a, b);
            }
        }
        centroids.sort_by(f32::total_cmp);
    }
}

/// When an iterative run stops, and which iterate it returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// GOBO: the iterate of minimal L1, once L1 has not improved for
    /// [`L1_PATIENCE`] iterations or the assignments reach a fixed point.
    MinL1,
    /// K-Means: the current iterate, once the assignments reach a fixed
    /// point. At the iteration cap it is the last one measured, so the
    /// codebook and indices returned are the trace's last point.
    FixedPoint,
}

/// Clusters a view's G group from equal-population initialization, at
/// most `max_iterations` assignment + mean-update rounds. A fixed point
/// is an iteration whose boundaries equal the previous one's. Returns
/// the selected codebook and the trace; the caller writes the indices.
///
/// # Errors
///
/// [`QuantError::InvalidConfig`] for `max_iterations == 0`, and the
/// initialization's errors ([`QuantError::TooFewValues`],
/// [`QuantError::EmptyLayer`], [`QuantError::InvalidConfig`]).
pub(crate) fn cluster(
    view: &SortedView,
    clusters: usize,
    max_iterations: usize,
    stop: Stop,
) -> Result<(Codebook, ConvergenceTrace), QuantError> {
    if max_iterations == 0 {
        return Err(QuantError::InvalidConfig { name: "max_iterations" });
    }
    let mut centroids = init::equal_population(view, clusters)?.centroids().to_vec();
    let mut selected = centroids.clone();
    let mut trace = ConvergenceTrace::default();
    let mut best_l1 = f64::INFINITY;
    let mut stale = 0usize;
    let mut previous = Vec::new();
    for iteration in 0..max_iterations {
        let bounds = view.boundaries(&centroids);
        let (l1, l2) = view.norms(&centroids, &bounds);
        trace.l1.push(l1);
        trace.l2.push(l2);
        if stop == Stop::FixedPoint || l1 < best_l1 {
            best_l1 = l1;
            selected.copy_from_slice(&centroids);
            trace.selected_iteration = iteration;
            stale = 0;
        } else {
            stale += 1;
            if stale >= L1_PATIENCE {
                break;
            }
        }
        if bounds == previous {
            break;
        }
        view.update_centroids(&mut centroids, &bounds);
        previous = bounds;
    }
    Ok((Codebook::new(selected)?, trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_split_where_the_nearest_centroid_changes() {
        let view = SortedView::new(&[0.9f32, -1.0, 0.1, 0.5, 0.6, -0.2, 5.0]);
        let centroids = [-1.0f32, 0.0, 1.0, 9.0];
        let bounds = view.boundaries(&centroids);
        assert_eq!(bounds, vec![0, 1, 4, 7, 7]);
        for (j, run) in bounds.windows(2).enumerate() {
            for &v in &view.values()[run[0]..run[1]] {
                assert_eq!(nearest_sorted(&centroids, v), j);
            }
        }
    }

    #[test]
    fn single_centroid_everything_assigns_to_zero() {
        let view = SortedView::new(&[1.0f32, -2.0, 0.5]);
        let centroids = [0.0f32];
        let bounds = view.boundaries(&centroids);
        assert_eq!(bounds, vec![0, 3]);
        assert_eq!(view.norms(&centroids, &bounds), (3.5, 1.0 + 4.0 + 0.25));
    }

    #[test]
    fn update_centroids_keeps_empty_clusters() {
        let view = SortedView::new(&[1.0f32, 2.0, 3.0]);
        let mut centroids = vec![0.0f32, 100.0];
        let bounds = view.boundaries(&centroids);
        view.update_centroids(&mut centroids, &bounds);
        assert_eq!(centroids, vec![2.0, 100.0]);
    }

    #[test]
    fn update_centroids_keeps_empty_cluster_centroid() {
        // Empty clusters below and between populated ones keep their
        // centroids too, and the codebook stays ascending.
        let view = SortedView::new(&[3.0f32, 1.0, 99.0, 2.0]);
        let mut centroids = vec![-100.0f32, 0.0, 50.0, 100.0];
        let bounds = view.boundaries(&centroids);
        assert_eq!(bounds, vec![0, 0, 3, 3, 4]);
        view.update_centroids(&mut centroids, &bounds);
        assert_eq!(centroids, vec![-100.0, 2.0, 50.0, 99.0]);
    }

    #[test]
    fn update_centroids_moves_centroids_to_cluster_means() {
        let view = SortedView::new(&[1.0f32, 2.0, 9.0, 11.0]);
        let mut centroids = vec![0.0f32, 10.0];
        let bounds = view.boundaries(&centroids);
        view.update_centroids(&mut centroids, &bounds);
        assert_eq!(centroids, vec![1.5, 10.0]);
    }

    #[test]
    fn mean_update_never_increases_l2() {
        // One Lloyd step (assign + mean update) cannot increase the L2
        // objective — spot-check on an irregular sample.
        let values: Vec<f32> = (0..500).map(|i| ((i * 37) % 97) as f32 * 0.1).collect();
        let view = SortedView::new(&values);
        let mut centroids = vec![0.0f32, 2.0, 4.0, 8.0];
        let mut prev = f64::INFINITY;
        for _ in 0..10 {
            let bounds = view.boundaries(&centroids);
            let (_, l2) = view.norms(&centroids, &bounds);
            assert!(l2 <= prev + 1e-9, "L2 increased: {l2} > {prev}");
            prev = l2;
            view.update_centroids(&mut centroids, &bounds);
        }
    }

    #[test]
    fn norms_match_the_input_order_sums() {
        let values: Vec<f32> = (0..4096)
            .map(|i| (i as f32 * 0.37).sin() * 0.08 + (i as f32 * 0.011).cos() * 0.02)
            .collect();
        let view = SortedView::new(&values);
        let codebook = Codebook::new(vec![-0.07, -0.02, 0.0, 0.01, 0.03, 0.08]).unwrap();
        let (l1, l2) = view.norms(codebook.centroids(), &view.boundaries(codebook.centroids()));
        let assignments = codebook.assign(&values);
        assert!((l1 - codebook.l1_norm(&values, &assignments)).abs() < 1e-6 * l1);
        assert!((l2 - codebook.l2_norm(&values, &assignments)).abs() < 1e-6 * l2);
    }
}
