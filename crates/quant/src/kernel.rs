//! Fused single-pass clustering kernels.
//!
//! The original clustering loop made four full traversals of the layer
//! per iteration — `assign`, `l1_norm`, `l2_norm`, `update_means` —
//! plus a clone of the codebook and assignment vector every time the
//! L1 norm improved. [`fused_sweep`] collapses all four into **one**
//! traversal that produces the assignments, both norms, and the
//! per-cluster sums/counts the mean update needs, writing into
//! caller-owned scratch ([`ClusterScratch`]) so the steady state
//! allocates nothing.
//!
//! Bit-exactness contract: for identical inputs, [`fused_sweep`]
//! produces bit-identical assignments, norms, and per-cluster sums to
//! the separate-pass reference implementations preserved in
//! [`crate::oracle`]. This holds because the fused sweep visits
//! values in input order and performs the exact same sequence of
//! f32/f64 operations per element; it is enforced by the tests in
//! `tests/kernel_equivalence.rs`, up to the paper's 768 × 768 layer.
//!
//! [`fused_sweep`] is the sweep at every layer size and it is serial: a
//! layer's bytes are a function of its values alone, never of the host's
//! core count. Cores are used one level up, across the layers of a model
//! (`gobo::quantize_model`).

use crate::error::QuantError;

/// Codebooks up to this size use the branchless counting search in
/// [`nearest_sorted`]; GOBO's production widths (2–4 bits → 4–16
/// centroids) all land here.
pub const SMALL_K: usize = 16;

/// Index of the centroid nearest to `x` in an ascending centroid table
/// (ties break toward the lower index).
///
/// Exactly equivalent to [`crate::Codebook::nearest`] (the pre-kernel
/// branchy binary search, kept verbatim for the scalar oracle), but for
/// tables of at most [`SMALL_K`] entries the partition point is computed
/// as a branchless count of `centroid <= x` — for an ascending table the
/// predicate is monotone, so the count *is* `partition_point(|&c| c <= x)`,
/// duplicates included. The boundary cases collapse into one clamped
/// tie-break compare: at `hi == 0` and `hi == k` both candidate indices
/// clamp to the same slot, so the compare degenerates to the correct
/// constant answer without a branch.
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

/// Everything one clustering iteration needs from a pass over the
/// values, produced by a single traversal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepStats {
    /// Summed `|v - c(v)|` (the norm GOBO monitors), accumulated in f64
    /// input order.
    pub l1: f64,
    /// Summed `(v - c(v))²` (the K-Means objective), accumulated in f64
    /// input order.
    pub l2: f64,
    /// Number of assignment slots whose value changed relative to the
    /// buffer's previous contents — zero means the assignments reached
    /// a fixed point (callers must ignore this on the first sweep,
    /// when the buffer holds no previous iteration).
    pub changed: usize,
}

/// Block width of the fused sweep's two inner loops. One block of
/// values plus its assignments stays comfortably in L1, and splitting
/// the traversal into a tight assignment loop and a tight accumulation
/// loop lets the compiler optimize each independently — the monolithic
/// single loop carries too much state to schedule well.
const BLOCK: usize = 4096;

/// One fused pass: assigns every value to its nearest centroid and
/// simultaneously accumulates the L1/L2 norms and per-cluster
/// sums/counts. `sums`/`counts` are reset here; `assignments` is
/// overwritten in place and its previous contents drive
/// [`SweepStats::changed`].
pub fn fused_sweep(
    values: &[f32],
    centroids: &[f32],
    assignments: &mut [u8],
    sums: &mut [f64],
    counts: &mut [u64],
) -> SweepStats {
    debug_assert_eq!(values.len(), assignments.len());
    debug_assert_eq!(centroids.len(), sums.len());
    debug_assert_eq!(centroids.len(), counts.len());
    debug_assert!(centroids.len() <= 256, "u8 assignments");
    sums.fill(0.0);
    counts.fill(0);
    let mut l1 = 0.0f64;
    let mut l2 = 0.0f64;
    let mut changed = 0usize;
    // Blocks are visited in input order and each loop walks its block
    // in input order, so the accumulation sequence — and therefore every
    // f64 rounding step — is identical to a single element-at-a-time
    // traversal.
    for (vblock, ablock) in values.chunks(BLOCK).zip(assignments.chunks_mut(BLOCK)) {
        for (&v, slot) in vblock.iter().zip(ablock.iter_mut()) {
            let a = nearest_sorted(centroids, v) as u8;
            changed += usize::from(*slot != a);
            *slot = a;
        }
        for (&v, &a) in vblock.iter().zip(ablock.iter()) {
            let d = f64::from(v - centroids[a as usize]);
            l1 += d.abs();
            l2 += d * d;
            sums[a as usize] += f64::from(v);
            counts[a as usize] += 1;
        }
    }
    SweepStats { l1, l2, changed }
}

/// Recomputes centroids as the means of their clusters from the
/// sums/counts a fused sweep produced; clusters with no members keep
/// their previous centroid. Restores the ascending invariant with the
/// same stable sort the `Codebook` constructor uses, so the resulting
/// table is bit-identical to `Codebook::update_means` on the same
/// inputs.
pub fn update_centroids(centroids: &mut [f32], sums: &[f64], counts: &[u64]) {
    debug_assert_eq!(centroids.len(), sums.len());
    debug_assert_eq!(centroids.len(), counts.len());
    for i in 0..centroids.len() {
        if counts[i] > 0 {
            centroids[i] = (sums[i] / counts[i] as f64) as f32;
        }
    }
    centroids.sort_by(|a, b| a.partial_cmp(b).expect("finite centroids"));
}

/// Reusable buffers for an iterative clustering run: the working
/// centroid table, the current and best-so-far assignment buffers and
/// the per-cluster accumulators. All sizing happens in
/// [`ClusterScratch::load`]; the per-iteration path
/// ([`ClusterScratch::sweep`], [`ClusterScratch::update_centroids`],
/// [`ClusterScratch::snapshot_best`]) allocates nothing.
#[derive(Debug, Default)]
pub struct ClusterScratch {
    /// Working centroid table, always ascending.
    centroids: Vec<f32>,
    /// Assignments from the latest sweep (doubles as the previous
    /// iteration's buffer for fixed-point detection via
    /// [`SweepStats::changed`]).
    cur: Vec<u8>,
    /// Snapshot of the best iterate's assignments.
    best: Vec<u8>,
    /// Snapshot of the best iterate's centroids.
    best_centroids: Vec<f32>,
    /// Per-cluster value sums from the latest sweep.
    sums: Vec<f64>,
    /// Per-cluster populations from the latest sweep.
    counts: Vec<u64>,
}

impl ClusterScratch {
    /// Creates empty scratch; [`ClusterScratch::load`] sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes every buffer for a run over `n` values with the given
    /// initial centroid table, reusing existing capacity.
    pub fn load(&mut self, n: usize, initial_centroids: &[f32]) {
        let k = initial_centroids.len();
        self.centroids.clear();
        self.centroids.extend_from_slice(initial_centroids);
        self.best_centroids.clear();
        self.best_centroids.extend_from_slice(initial_centroids);
        self.cur.clear();
        self.cur.resize(n, 0);
        self.best.clear();
        self.best.resize(n, 0);
        self.sums.clear();
        self.sums.resize(k, 0.0);
        self.counts.clear();
        self.counts.resize(k, 0);
    }

    /// The working centroid table.
    pub fn centroids(&self) -> &[f32] {
        &self.centroids
    }

    /// The latest sweep's assignments.
    pub fn assignments(&self) -> &[u8] {
        &self.cur
    }

    /// Runs one fused sweep of `values` against the working centroids.
    pub fn sweep(&mut self, values: &[f32]) -> SweepStats {
        fused_sweep(values, &self.centroids, &mut self.cur, &mut self.sums, &mut self.counts)
    }

    /// Applies the mean update to the working centroids from the latest
    /// sweep's sums/counts.
    pub fn update_centroids(&mut self) {
        update_centroids(&mut self.centroids, &self.sums, &self.counts);
    }

    /// Records the current iterate (centroids + assignments) as the
    /// best so far — two `copy_from_slice`s, no allocation.
    pub fn snapshot_best(&mut self) {
        self.best.copy_from_slice(&self.cur);
        self.best_centroids.copy_from_slice(&self.centroids);
    }

    /// Consumes the best snapshot as `(centroids, assignments)`.
    pub fn take_best(&mut self) -> (Vec<f32>, Vec<u8>) {
        (std::mem::take(&mut self.best_centroids), std::mem::take(&mut self.best))
    }

    /// Consumes the current iterate as `(centroids, assignments)`.
    pub fn take_current(&mut self) -> (Vec<f32>, Vec<u8>) {
        (std::mem::take(&mut self.centroids), std::mem::take(&mut self.cur))
    }
}

/// Validates the shared iteration-count precondition of the iterative
/// quantizers.
pub(crate) fn check_max_iterations(max_iterations: usize) -> Result<(), QuantError> {
    if max_iterations == 0 {
        return Err(QuantError::InvalidConfig { name: "max_iterations" });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wavy(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.37).sin() * 0.08 + (i as f32 * 0.011).cos() * 0.02).collect()
    }

    fn four_pass_reference(
        values: &[f32],
        centroids: &[f32],
    ) -> (Vec<u8>, f64, f64, Vec<f64>, Vec<u64>) {
        let assignments: Vec<u8> =
            values.iter().map(|&v| nearest_sorted(centroids, v) as u8).collect();
        let l1: f64 = values
            .iter()
            .zip(&assignments)
            .map(|(&v, &a)| f64::from((v - centroids[a as usize]).abs()))
            .sum();
        let l2: f64 = values
            .iter()
            .zip(&assignments)
            .map(|(&v, &a)| {
                let d = f64::from(v - centroids[a as usize]);
                d * d
            })
            .sum();
        let mut sums = vec![0.0f64; centroids.len()];
        let mut counts = vec![0u64; centroids.len()];
        for (&v, &a) in values.iter().zip(&assignments) {
            sums[a as usize] += f64::from(v);
            counts[a as usize] += 1;
        }
        (assignments, l1, l2, sums, counts)
    }

    #[test]
    fn fused_sweep_matches_four_separate_passes_bitwise() {
        let values = wavy(4096);
        let centroids = [-0.07f32, -0.02, 0.0, 0.01, 0.03, 0.08];
        let mut assignments = vec![0u8; values.len()];
        let mut sums = vec![0.0f64; centroids.len()];
        let mut counts = vec![0u64; centroids.len()];
        let stats = fused_sweep(&values, &centroids, &mut assignments, &mut sums, &mut counts);
        let (ra, rl1, rl2, rsums, rcounts) = four_pass_reference(&values, &centroids);
        assert_eq!(assignments, ra);
        assert_eq!(stats.l1.to_bits(), rl1.to_bits());
        assert_eq!(stats.l2.to_bits(), rl2.to_bits());
        assert_eq!(
            sums.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            rsums.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(counts, rcounts);
    }

    #[test]
    fn changed_counts_differences_from_previous_contents() {
        let values = [0.0f32, 1.0, 0.0, 1.0];
        let centroids = [0.0f32, 1.0];
        let mut assignments = vec![0u8; 4];
        let mut sums = vec![0.0f64; 2];
        let mut counts = vec![0u64; 2];
        let first = fused_sweep(&values, &centroids, &mut assignments, &mut sums, &mut counts);
        assert_eq!(first.changed, 2); // slots 1 and 3 flip 0 → 1
        let second = fused_sweep(&values, &centroids, &mut assignments, &mut sums, &mut counts);
        assert_eq!(second.changed, 0); // fixed point
    }

    #[test]
    fn update_centroids_matches_codebook_update_means() {
        let values = wavy(1024);
        let cb = crate::Codebook::new(vec![-0.06, -0.01, 0.02, 0.07]).unwrap();
        let mut assignments = vec![0u8; values.len()];
        let mut sums = vec![0.0f64; cb.len()];
        let mut counts = vec![0u64; cb.len()];
        fused_sweep(&values, cb.centroids(), &mut assignments, &mut sums, &mut counts);
        let mut fast = cb.centroids().to_vec();
        update_centroids(&mut fast, &sums, &counts);
        let reference = cb.update_means(&values, &assignments);
        assert_eq!(fast, reference.centroids());
    }

    #[test]
    fn update_centroids_keeps_empty_clusters() {
        let mut centroids = vec![0.0f32, 100.0];
        let sums = vec![6.0f64, 0.0];
        let counts = vec![3u64, 0];
        update_centroids(&mut centroids, &sums, &counts);
        assert_eq!(centroids, vec![2.0, 100.0]);
    }

    #[test]
    fn single_centroid_everything_assigns_to_zero() {
        let values = [1.0f32, -2.0, 0.5];
        let centroids = [0.0f32];
        let mut assignments = vec![9u8; 3];
        let mut sums = vec![0.0f64; 1];
        let mut counts = vec![0u64; 1];
        let stats = fused_sweep(&values, &centroids, &mut assignments, &mut sums, &mut counts);
        assert_eq!(assignments, vec![0, 0, 0]);
        assert_eq!(stats.l1, 3.5);
        assert_eq!(stats.l2, 1.0 + 4.0 + 0.25);
        assert_eq!(counts[0], 3);
    }
}
