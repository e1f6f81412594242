//! Matrix products.
//!
//! Every product in the workspace has the shape `A × Wᵀ`: the rows of
//! both operands are contiguous, so no transpose of the weights is
//! materialized. The FC layers' weights are stored `(out, in)` already;
//! attention's `Q·Kᵀ` takes K's rows as the weight rows, and `probs·V`
//! and the training backward transpose an activation instead.
//!
//! # The canonical dot product
//!
//! Every product in the workspace — dense ([`Tensor::matmul_nt`]),
//! batched per attention head ([`Tensor::batch_matmul_nt`]), packed
//! (`gobo-quant`'s `matmul_blocked`) and [`Tensor::dot`] — is one
//! function, [`gemm_nt`], and therefore one summation order, fixed here
//! so that it can be vectorized without changing a bit of the result:
//!
//! 1. element `c` of the first `K − K % 8` belongs to lane `c % 8`; each
//!    of the 8 lanes starts at `+0.0` and accumulates its products in
//!    column order, as a rounded multiply followed by a rounded add
//!    (never a fused multiply-add);
//! 2. the lanes reduce as `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`;
//! 3. the `K % 8` tail products are then added one by one, in column
//!    order.
//!
//! The order is a property of the source, not of the target: safe Rust
//! never reassociates or contracts float arithmetic, so the scalar,
//! SSE2, AVX2 and AVX-512 code the compiler emits for the inner loop all
//! produce the same bits (pinned by the golden-bits test below).

use crate::error::TensorError;
use crate::tensor::Tensor;

impl Tensor {
    /// Matrix product `self × rhsᵀ` without materializing the transpose.
    ///
    /// `rhs` has shape `(n, k)`; the result has shape `(m, n)`. This is the
    /// natural layout for FC layers whose weights are stored as
    /// `(out_features, in_features)`.
    ///
    /// Each output element is the canonical dot product of the [module
    /// docs](self) — this is [`gemm_nt`] over the dense weight rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are rank
    /// 2, and [`TensorError::ShapeMismatch`] unless both operands share the
    /// same number of columns.
    ///
    /// # Example
    ///
    /// ```
    /// use gobo_tensor::Tensor;
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
    /// let w = Tensor::from_vec(vec![5.0, 7.0, 6.0, 8.0], &[2, 2])?;
    /// assert_eq!(a.matmul_nt(&w)?.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    /// # Ok::<(), gobo_tensor::TensorError>(())
    /// ```
    pub fn matmul_nt(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        let op = "matmul_nt";
        for x in [self, rhs] {
            if x.shape().rank() != 2 {
                return Err(TensorError::RankMismatch { op, expected: 2, got: x.shape().rank() });
            }
        }
        let (m, k, n) = (self.dims()[0], self.dims()[1], rhs.dims()[0]);
        if rhs.dims()[1] != k {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.dims().to_vec(),
                rhs: rhs.dims().to_vec(),
            });
        }
        let out = gemm_nt(self.as_slice(), m, k, n, &mut DenseRows { w: rhs.as_slice(), k });
        Tensor::from_vec(out, &[m, n])
    }

    /// Batched `self × rhsᵀ` of two rank-3 tensors with equal batch size.
    ///
    /// `self` is `(b, m, k)`, `rhs` is `(b, n, k)`; the result is
    /// `(b, m, n)`, batch `i` being [`gemm_nt`] of batch `i` of each
    /// operand. Used for attention's `Q·Kᵀ` and `probs·V` (against
    /// `Vᵀ`) and the training backward's batched products.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are rank
    /// 3, and [`TensorError::ShapeMismatch`] unless batch sizes and column
    /// counts agree.
    pub fn batch_matmul_nt(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        let op = "batch_matmul_nt";
        for x in [self, rhs] {
            if x.shape().rank() != 3 {
                return Err(TensorError::RankMismatch { op, expected: 3, got: x.shape().rank() });
            }
        }
        let (b, m, k) = (self.dims()[0], self.dims()[1], self.dims()[2]);
        let n = rhs.dims()[1];
        if rhs.dims()[0] != b || rhs.dims()[2] != k {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.dims().to_vec(),
                rhs: rhs.dims().to_vec(),
            });
        }
        let mut out = Vec::with_capacity(b * m * n);
        for batch in 0..b {
            let a = &self.as_slice()[batch * m * k..][..m * k];
            let w = &rhs.as_slice()[batch * n * k..][..n * k];
            out.extend(gemm_nt(a, m, k, n, &mut DenseRows { w, k }));
        }
        Tensor::from_vec(out, &[b, m, n])
    }

    /// Dot product of two rank-1 tensors of equal length, in the
    /// canonical order of the [module docs](self).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the lengths differ.
    pub fn dot(&self, rhs: &Tensor) -> Result<f32, TensorError> {
        if self.len() != rhs.len() {
            return Err(TensorError::ShapeMismatch {
                op: "dot",
                lhs: self.dims().to_vec(),
                rhs: rhs.dims().to_vec(),
            });
        }
        let (a, b) = (self.as_slice(), rhs.as_slice());
        Ok(gemm_nt(a, 1, a.len(), 1, &mut DenseRows { w: b, k: a.len() })[0])
    }
}

/// Lanes of the canonical dot product (see the [module docs](self)).
const LANES: usize = 8;

/// Weight rows [`gemm_nt`] asks its [`WeightRows`] source for at a time.
pub const BLOCK_ROWS: usize = 8;

/// Row-major `(n, k)` weights, handed to [`gemm_nt`] a block of rows at a
/// time.
pub trait WeightRows {
    /// Weight rows `first .. first + count` as one row-major `(count, k)`
    /// slice, with `count <= BLOCK_ROWS`. The slice may live in scratch
    /// space that the next call overwrites.
    fn rows(&mut self, first: usize, count: usize) -> &[f32];
}

/// Dense weights: a block is a slice of the matrix itself.
struct DenseRows<'a> {
    w: &'a [f32],
    k: usize,
}

impl WeightRows for DenseRows<'_> {
    fn rows(&mut self, first: usize, count: usize) -> &[f32] {
        &self.w[first * self.k..][..count * self.k]
    }
}

/// `A × Wᵀ` for row-major `a: (m, k)` and `weights: (n, k)`, giving
/// row-major `(m, n)` — the one kernel under every FC product. Weights
/// arrive [`BLOCK_ROWS`] rows at a time, and every pair of activation rows
/// meets every pair of weight rows of a block in one `pass` over all of
/// `k`. Each output is the canonical dot product of the [module
/// docs](self), so neither the blocking nor the rows of `a` show in it.
///
/// # Panics
///
/// Panics unless `a.len() == m * k`.
pub fn gemm_nt(a: &[f32], m: usize, k: usize, n: usize, weights: &mut impl WeightRows) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "activation panel is not (m, k)");
    let mut out = vec![0.0f32; m * n];
    if k == 0 {
        return out;
    }
    for first in (0..n).step_by(BLOCK_ROWS) {
        let block = weights.rows(first, BLOCK_ROWS.min(n - first));
        for (i, a_pair) in a.chunks(2 * k).enumerate() {
            for (j, w_pair) in block.chunks(2 * k).enumerate() {
                let at = 2 * i * n + first + 2 * j;
                match (a_pair.len() / k, w_pair.len() / k) {
                    (2, 2) => pass::<2, 2>(a_pair, w_pair, &mut out[at..], n),
                    (2, _) => pass::<2, 1>(a_pair, w_pair, &mut out[at..], n),
                    (_, 2) => pass::<1, 2>(a_pair, w_pair, &mut out[at..], n),
                    _ => pass::<1, 1>(a_pair, w_pair, &mut out[at..], n),
                }
            }
        }
    }
    out
}

/// One pass over all of `k` for the `R` activation rows of `a` and the
/// `S` weight rows of `w` (both row-major, `k` columns): [`lanes`] sums
/// the whole chunks, then each output's lanes are reduced, its `k % 8`
/// tail is added, and output `(r, s)` is written to `out[r * n + s]`.
#[inline(always)]
fn pass<const R: usize, const S: usize>(a: &[f32], w: &[f32], out: &mut [f32], n: usize) {
    let k = a.len() / R;
    let a: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..][..k]);
    let w: [&[f32]; S] = std::array::from_fn(|s| &w[s * k..][..k]);
    let body = k - k % LANES;
    let acc = lanes(a.map(|x| x[..body].as_chunks().0), w.map(|x| x[..body].as_chunks().0));
    for (r, acc_r) in acc.iter().enumerate() {
        for (s, l) in acc_r.iter().enumerate() {
            let mut sum = ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
            for (&x, &y) in a[r][body..].iter().zip(&w[s][body..]) {
                sum += x * y;
            }
            out[r * n + s] = sum;
        }
    }
}

/// The inner loop: every chunk `c` adds `a[r][c][l] * w[s][c][l]` to
/// lane `l` of output `(r, s)`, with the `R × S × 8` lanes held in
/// locals. Kept out of line, so the vectorizer sees this loop alone:
/// inlined into a large caller it has left the loop scalar, and with the
/// reductions in view it has packed lanes of different outputs into one
/// register at a shuffle per product.
#[inline(never)]
fn lanes<const R: usize, const S: usize>(
    a: [&[[f32; LANES]]; R],
    w: [&[[f32; LANES]]; S],
) -> [[[f32; LANES]; S]; R] {
    let chunks = w[0].len();
    let (a, w) = (a.map(|x| &x[..chunks]), w.map(|x| &x[..chunks]));
    let mut acc = [[[0.0f32; LANES]; S]; R];
    for c in 0..chunks {
        for (acc_r, a_r) in acc.iter_mut().zip(a) {
            for (acc_rs, w_s) in acc_r.iter_mut().zip(w) {
                for ((l, &x), &y) in acc_rs.iter_mut().zip(&a_r[c]).zip(&w_s[c]) {
                    *l += x * y;
                }
            }
        }
    }
    acc
}

/// Splits the columns of a `(rows, heads·head_dim)` matrix into
/// `(heads, rows, head_dim)`, the layout used by multi-head attention.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless the column count is
/// divisible by `heads`, or a rank error when `x` is not rank 2.
pub fn split_heads(x: &Tensor, heads: usize) -> Result<Tensor, TensorError> {
    if x.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "split_heads",
            expected: 2,
            got: x.shape().rank(),
        });
    }
    let (rows, cols) = (x.dims()[0], x.dims()[1]);
    if heads == 0 || cols % heads != 0 {
        return Err(TensorError::ShapeMismatch {
            op: "split_heads",
            lhs: x.dims().to_vec(),
            rhs: vec![heads],
        });
    }
    let hd = cols / heads;
    let mut data = vec![0.0f32; rows * cols];
    let src = x.as_slice();
    for h in 0..heads {
        for r in 0..rows {
            let dst = h * rows * hd + r * hd;
            let from = r * cols + h * hd;
            data[dst..dst + hd].copy_from_slice(&src[from..from + hd]);
        }
    }
    Ok(Tensor::from_vec(data, &[heads, rows, hd]).expect("sized above"))
}

/// Inverse of [`split_heads`]: merges `(heads, rows, head_dim)` back into
/// `(rows, heads·head_dim)`.
///
/// # Errors
///
/// Returns a rank error when `x` is not rank 3.
pub fn merge_heads(x: &Tensor) -> Result<Tensor, TensorError> {
    if x.shape().rank() != 3 {
        return Err(TensorError::RankMismatch {
            op: "merge_heads",
            expected: 3,
            got: x.shape().rank(),
        });
    }
    let (heads, rows, hd) = (x.dims()[0], x.dims()[1], x.dims()[2]);
    let cols = heads * hd;
    let mut data = vec![0.0f32; rows * cols];
    let src = x.as_slice();
    for h in 0..heads {
        for r in 0..rows {
            let from = h * rows * hd + r * hd;
            let dst = r * cols + h * hd;
            data[dst..dst + hd].copy_from_slice(&src[from..from + hd]);
        }
    }
    Ok(Tensor::from_vec(data, &[rows, cols]).expect("sized above"))
}

/// Transposes the last two axes of a rank-3 tensor: `(b, m, n)` →
/// `(b, n, m)`. Used to form `Vᵀ` per attention head, so `probs·V` is a
/// [`Tensor::batch_matmul_nt`], and by the training backward.
///
/// # Errors
///
/// Returns a rank error when `x` is not rank 3.
pub fn transpose_batched(x: &Tensor) -> Result<Tensor, TensorError> {
    if x.shape().rank() != 3 {
        return Err(TensorError::RankMismatch {
            op: "transpose_batched",
            expected: 3,
            got: x.shape().rank(),
        });
    }
    let (b, m, n) = (x.dims()[0], x.dims()[1], x.dims()[2]);
    let mut data = vec![0.0f32; b * m * n];
    let src = x.as_slice();
    for batch in 0..b {
        for i in 0..m {
            for j in 0..n {
                data[batch * m * n + j * m + i] = src[batch * m * n + i * n + j];
            }
        }
    }
    Ok(Tensor::from_vec(data, &[b, n, m]).expect("sized above"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, d: &[usize]) -> Tensor {
        Tensor::from_vec(v, d).unwrap()
    }

    #[test]
    fn matmul_identity() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let i = Tensor::eye(3);
        assert_eq!(a.matmul_nt(&i).unwrap(), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let w = t(vec![5.0, 7.0, 6.0, 8.0], &[2, 2]);
        assert_eq!(a.matmul_nt(&w).unwrap().as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rejects_mismatched_inner() {
        let a = Tensor::zeros(&[2, 3]);
        let w = Tensor::zeros(&[2, 4]);
        assert!(a.matmul_nt(&w).is_err());
        assert!(a.matmul_nt(&Tensor::zeros(&[3])).is_err());
    }

    /// Output `(i, j)` is row `i` of `a` against column `j` of the
    /// explicit transpose `wᵀ`.
    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = t((0..12).map(|x| x as f32).collect(), &[3, 4]);
        let w = t((0..8).map(|x| (x as f32) * 0.5 - 2.0).collect(), &[2, 4]);
        let wt = w.transpose().unwrap();
        let via_nt = a.matmul_nt(&w).unwrap();
        for i in 0..3 {
            for j in 0..2 {
                let col: Vec<f32> = (0..4).map(|p| wt.get(&[p, j]).unwrap()).collect();
                let want = a.row(i).unwrap().dot(&t(col, &[4])).unwrap();
                assert_eq!(via_nt.get(&[i, j]).unwrap(), want, "({i},{j})");
            }
        }
    }

    /// Deterministic values in `[-1, 1)` with full 24-bit mantissas, so
    /// any reordering of a sum shows in its low bits. Integer hashing
    /// and a power-of-two scale only: the same floats on every target.
    fn noise(n: usize, seed: u32) -> Vec<f32> {
        (0..n as u32)
            .map(|i| {
                let h = (i ^ seed.wrapping_mul(0x9E37_79B9)).wrapping_mul(0x85EB_CA6B);
                ((h ^ (h >> 13)).wrapping_mul(0xC2B2_AE35) >> 8) as f32 / (1 << 23) as f32 - 1.0
            })
            .collect()
    }

    /// The canonical order of the module docs, written the slow way.
    fn spec_dot(a: &[f32], b: &[f32]) -> f32 {
        let body = a.len() - a.len() % 8;
        let mut lanes: Vec<Vec<f32>> = vec![Vec::new(); 8];
        for c in 0..body {
            lanes[c % 8].push(a[c] * b[c]);
        }
        let l: Vec<f32> =
            lanes.iter().map(|products| products.iter().fold(0.0, |s, p| s + p)).collect();
        let mut sum = ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
        for c in body..a.len() {
            sum += a[c] * b[c];
        }
        sum
    }

    #[test]
    fn kernel_matches_the_written_summation_order() {
        for k in [0usize, 1, 7, 8, 9, 255, 256, 257, 300, 513] {
            let (m, n) = (5, 3);
            let (a, w) = (noise(m * k, 1), noise(n * k, 2));
            let got = gemm_nt(&a, m, k, n, &mut DenseRows { w: &w, k });
            for i in 0..m {
                for j in 0..n {
                    let want = spec_dot(&a[i * k..(i + 1) * k], &w[j * k..(j + 1) * k]);
                    assert_eq!(got[i * n + j].to_bits(), want.to_bits(), "k={k} ({i},{j})");
                }
            }
            let dot = t(a[..k].to_vec(), &[k]).dot(&t(w[..k].to_vec(), &[k])).unwrap();
            assert_eq!(dot.to_bits(), got[0].to_bits(), "dot k={k}");
        }
    }

    /// Every output is the canonical dot product whatever the shape: `m`
    /// and `n` cross the 2 × 2 pass with every remainder, `n` crosses
    /// the 8-row weight block with and without a short last block, and
    /// `k` = 0 is a product of zeros. The same holds for every batch of
    /// [`Tensor::batch_matmul_nt`], and an empty batch or an empty `m`
    /// gives an empty output of the right shape.
    #[test]
    fn every_output_is_the_spec_dot_under_weight_row_blocking() {
        for k in [0usize, 7, 8, 269] {
            for n in [1usize, 2, 3, 7, 8, 9, 17] {
                for m in 1..=9 {
                    for b in [1usize, 3] {
                        let (a, w) = (noise(b * m * k, 9), noise(b * n * k, 8));
                        let (ta, tw) = (t(a.clone(), &[b, m, k]), t(w.clone(), &[b, n, k]));
                        let got = ta.batch_matmul_nt(&tw).unwrap();
                        assert_eq!(got.dims(), &[b, m, n]);
                        for (o, v) in got.as_slice().iter().enumerate() {
                            let (l, i, j) = (o / (m * n), o / n % m, o % n);
                            let row = &a[(l * m + i) * k..][..k];
                            let col = &w[(l * n + j) * k..][..k];
                            let at = format!("b={b} m={m} n={n} k={k} ({l},{i},{j})");
                            assert_eq!(v.to_bits(), spec_dot(row, col).to_bits(), "{at}");
                        }
                        if k == 0 {
                            assert!(got.as_slice().iter().all(|v| v.to_bits() == 0), "m={m} n={n}");
                        }
                    }
                }
            }
        }
        let empty = Tensor::zeros(&[0]);
        assert_eq!(empty.dot(&empty).unwrap().to_bits(), 0.0f32.to_bits());
        for (b, m) in [(0usize, 4usize), (3, 0)] {
            let got =
                Tensor::zeros(&[b, m, 5]).batch_matmul_nt(&Tensor::zeros(&[b, 6, 5])).unwrap();
            assert_eq!(got.dims(), &[b, m, 6]);
            assert!(got.is_empty());
        }
    }

    /// Row `i` of a product does not depend on how many rows ride along:
    /// `m` from 1 to 9 crosses the 2-row pass and every remainder.
    #[test]
    fn rows_are_invariant_to_row_blocking() {
        let (k, n) = (300, 7);
        let (a, w) = (noise(9 * k, 3), t(noise(n * k, 4), &[n, k]));
        let full = t(a.clone(), &[9, k]).matmul_nt(&w).unwrap();
        for m in 1..=9 {
            let part = t(a[..m * k].to_vec(), &[m, k]).matmul_nt(&w).unwrap();
            let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(part.as_slice()), bits(&full.as_slice()[..m * n]), "m={m}");
        }
    }

    /// Served bytes are a function of this source alone: a target whose
    /// code generation reassociates or fuses would change these bits.
    #[test]
    fn golden_bits() {
        let k = 269; // 33 whole chunks and a 5-wide tail
        let a = t(noise(2 * k, 5), &[2, k]);
        let w = t(noise(3 * k, 6), &[3, k]);
        let got: Vec<u32> =
            a.matmul_nt(&w).unwrap().as_slice().iter().map(|v| v.to_bits()).collect();
        let golden = [0x410a_22a0, 0xc104_9fa1, 0xc0a8_685b, 0x410a_ceaa, 0xbf9a_a6e6, 0xc014_034b];
        assert_eq!(got, golden, "{got:#x?}");
    }

    #[test]
    fn batch_matmul_rejects_mismatched_batch() {
        let a = Tensor::zeros(&[2, 2, 2]);
        assert!(a.batch_matmul_nt(&Tensor::zeros(&[3, 2, 2])).is_err());
        assert!(a.batch_matmul_nt(&Tensor::zeros(&[2, 2, 3])).is_err());
        assert!(a.batch_matmul_nt(&Tensor::zeros(&[2, 2])).is_err());
    }

    #[test]
    fn dot_product() {
        let a = t(vec![1.0, 2.0, 3.0], &[3]);
        let b = t(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
        assert!(a.dot(&Tensor::zeros(&[2])).is_err());
    }

    #[test]
    fn split_and_merge_heads_round_trip() {
        let x = t((0..24).map(|v| v as f32).collect(), &[3, 8]);
        let split = split_heads(&x, 2).unwrap();
        assert_eq!(split.dims(), &[2, 3, 4]);
        // Head 0 of row 0 is the first 4 columns.
        assert_eq!(&split.as_slice()[..4], &[0.0, 1.0, 2.0, 3.0]);
        let merged = merge_heads(&split).unwrap();
        assert_eq!(merged, x);
    }

    #[test]
    fn split_heads_rejects_indivisible() {
        let x = Tensor::zeros(&[2, 7]);
        assert!(split_heads(&x, 2).is_err());
        assert!(split_heads(&x, 0).is_err());
    }

    #[test]
    fn transpose_batched_swaps_last_axes() {
        let x = t((0..12).map(|v| v as f32).collect(), &[2, 2, 3]);
        let tx = transpose_batched(&x).unwrap();
        assert_eq!(tx.dims(), &[2, 3, 2]);
        assert_eq!(tx.get(&[0, 2, 1]).unwrap(), x.get(&[0, 1, 2]).unwrap());
        assert_eq!(tx.get(&[1, 0, 1]).unwrap(), x.get(&[1, 1, 0]).unwrap());
    }
}
