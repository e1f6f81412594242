//! Computing directly on the compressed representation.
//!
//! The MICRO version of GOBO pairs the storage format with a hardware
//! accelerator that never decompresses. Because every G-group weight is
//! one of a few representative values, that accelerator *accumulates
//! activations per centroid* and multiplies by each centroid once —
//!
//! ```text
//! y[r] = Σ_c x[c]·w[r,c]
//!      = Σ_k centroid[k] · ( Σ_{c: idx[r,c]=k} x[c] )  +  Σ_{outliers} x[c]·w[r,c]
//! ```
//!
//! That schedule is **not** what this module runs: it sums in a
//! different order from the dense product, so its results differ from
//! the FP32 forward in the low bits, and a served model must not.
//!
//! What the software analogue keeps is the other half of the hardware
//! argument — weights stay packed until the moment they are used.
//! [`QuantizedMatrix::matmul_blocked`] hands the workspace's one GEMM
//! kernel ([`gobo_tensor::linalg::gemm_nt`]) decoded blocks of weight
//! rows instead of dense rows: each block of up to 8 rows is decoded
//! (G-group runs unpacked straight through the codebook, outlier values
//! written between the runs) exactly once and reused across **all** rows
//! of the activation batch, so the per-element decode cost — which
//! dominates low-bit inference at small batches — is amortized by the
//! batch size; [`QuantizedMatrix::gather_rows`] decodes just the
//! looked-up rows of an embedding table. No unpacked copy outlives a
//! block, so the resident footprint is the compressed layer itself, and
//! because the dense product is the same kernel over the same values, the
//! two agree bit for bit.

use gobo_tensor::linalg::{gemm_nt, WeightRows, BLOCK_ROWS};

use crate::error::QuantError;
use crate::layer::QuantizedLayer;
use crate::packing::{self, GroupLut};

/// Evaluates `$body` with `$rows` bound to `$qm`'s row decoder at the
/// layer's index width: the one width dispatch, for every consumer. A
/// width outside 1–8 returns [`QuantError::UnsupportedBits`].
macro_rules! with_decoder {
    ($qm:expr, |$rows:ident| $body:expr) => {
        with_decoder!($qm, $rows, $body, 1 2 3 4 5 6 7 8)
    };
    ($qm:expr, $rows:ident, $body:expr, $($bits:literal)*) => {
        match $qm.layer.bits() {
            $($bits => {
                let $rows = &mut $qm.decoder::<$bits>();
                $body
            })*
            bits => return Err(QuantError::UnsupportedBits { bits }),
        }
    };
}

/// A [`QuantizedLayer`] with matrix shape, supporting products without
/// decompression.
///
/// Weights are row-major `(rows, cols)`, matching `gobo-model`'s
/// `(out_features, in_features)` FC layout.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    layer: QuantizedLayer,
    rows: usize,
    cols: usize,
}

impl QuantizedMatrix {
    /// Wraps a quantized layer with its matrix shape.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidConfig`] unless
    /// `rows × cols == layer.total()`, and
    /// [`QuantError::CorruptPayload`] when the packed index stream is
    /// too short for the layer's G-group count (checked once here so
    /// the product kernels never fail mid-stream).
    pub fn new(layer: QuantizedLayer, rows: usize, cols: usize) -> Result<Self, QuantError> {
        if rows * cols != layer.total() {
            return Err(QuantError::InvalidConfig { name: "rows*cols" });
        }
        let g_count = layer.total() - layer.outlier_count();
        if layer.packed_indices().len() < packing::packed_len(g_count, layer.bits()) {
            return Err(QuantError::CorruptPayload { what: "packed payload too short" });
        }
        Ok(QuantizedMatrix { layer, rows, cols })
    }

    /// Number of output features (matrix rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of input features (matrix columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying compressed layer.
    pub fn layer(&self) -> &QuantizedLayer {
        &self.layer
    }

    /// Batched `Y = A·Wᵀ` straight on the packed indices, for row-major
    /// `a: (m, cols)` producing `(m, rows)` — the one FC-layer product,
    /// at every batch size including 1.
    ///
    /// This is [`gobo_tensor::linalg::gemm_nt`] — the kernel under the
    /// dense `Tensor::matmul_nt` — fed decoded blocks instead of slices
    /// of the dense matrix: each block of [`BLOCK_ROWS`] weight rows is
    /// decoded once and reused across **all** `m` activation rows, in a
    /// scratch of at most `BLOCK_ROWS × cols` floats. Because both
    /// products run the same function over the same weight values, the
    /// result is **bit-identical** to decoding the layer and running
    /// `matmul_nt`, so the served output of a batch does not depend on
    /// how requests were coalesced. This is the kernel behind the
    /// `gobo.batch_gemm` span.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidConfig`] unless `a.len()` is a
    /// multiple of `cols`, and [`QuantError::UnsupportedBits`] for an
    /// index width outside 1–8 (which no encoded or parsed layer has).
    pub fn matmul_blocked(&self, a: &[f32]) -> Result<Vec<f32>, QuantError> {
        if self.cols == 0 || !a.len().is_multiple_of(self.cols) {
            return Err(QuantError::InvalidConfig { name: "a.len" });
        }
        let m = a.len() / self.cols;
        let _span =
            gobo_obs::span!("gobo.batch_gemm", rows = self.rows, cols = self.cols, batch = m);
        let (k, n) = (self.cols, self.rows);
        Ok(with_decoder!(self, |rows| gemm_nt(a, m, k, n, rows)))
    }

    /// Rows `ids` (any order, repeats allowed) as a row-major
    /// `(ids.len(), cols)` buffer, decoded by `matmul_blocked`'s row
    /// decoder: each row equals the decoded layer's row bit for bit.
    ///
    /// # Errors
    ///
    /// [`QuantError::InvalidConfig`] for an id past the last row.
    pub fn gather_rows(&self, ids: &[usize]) -> Result<Vec<f32>, QuantError> {
        if ids.iter().any(|&id| id >= self.rows) {
            return Err(QuantError::InvalidConfig { name: "row id" });
        }
        let mut out = Vec::with_capacity(ids.len() * self.cols);
        with_decoder!(self, |rows| for &id in ids {
            out.extend_from_slice(rows.rows(id, 1));
        });
        Ok(out)
    }

    /// Decodes to a dense row-major weight matrix (for verification and
    /// interop).
    pub fn to_dense(&self) -> Vec<f32> {
        self.layer.decode()
    }

    /// The packed row source for a layer of width `BITS`.
    fn decoder<const BITS: usize>(&self) -> RowDecoder<'_, BITS> {
        let (positions, values) = self.layer.outliers();
        RowDecoder {
            cols: self.cols,
            total: self.layer.total(),
            lut: GroupLut::new(&self.layer.codebook().lut()),
            positions,
            values,
            packed: self.layer.packed_indices(),
            next: 0,
            block: vec![0.0; BLOCK_ROWS.min(self.rows) * self.cols],
        }
    }
}

/// Decodes blocks of weight rows for [`gemm_nt`] from a packed layer of
/// width `BITS`.
struct RowDecoder<'a, const BITS: usize> {
    cols: usize,
    total: usize,
    /// The codebook; indices are validated against it when a layer is
    /// parsed.
    lut: GroupLut<BITS>,
    positions: &'a [u32],
    values: &'a [f32],
    packed: &'a [u8],
    /// The first outlier at or after the end of the last block asked
    /// for: where the next block in row-major order starts.
    next: usize,
    /// Scratch for one block of at most [`BLOCK_ROWS`] rows.
    block: Vec<f32>,
}

impl<const BITS: usize> WeightRows for RowDecoder<'_, BITS> {
    /// A block is the flat range `first·cols .. (first+count)·cols`, and
    /// outlier positions are ascending, so the block splits at the
    /// outliers it holds: the G-group runs between them are gathered
    /// through the codebook, the outlier values are written as stored.
    /// [`gemm_nt`] asks in ascending order, so the outliers are found by
    /// a cursor; a binary search only rewinds it for a block asked out of
    /// order.
    fn rows(&mut self, first: usize, count: usize) -> &[f32] {
        let (start, len) = (first * self.cols, count * self.cols);
        let end = start + len;
        // `new` checked that the payload holds every G-group index of the
        // matrix, so this one check covers every run of the block.
        assert!(end <= self.total, "rows {start}..{end} outside a {}-weight matrix", self.total);
        let positions = self.positions;
        let cursor_at_start =
            self.next.checked_sub(1).is_none_or(|p| (positions[p] as usize) < start)
                && positions.get(self.next).is_none_or(|&p| p as usize >= start);
        if !cursor_at_start {
            self.next = positions.partition_point(|&p| (p as usize) < start);
        }
        // Every outlier before `start` is one G-group index not stored.
        let mut g_at = start - self.next;
        let mut at = 0;
        while let Some(&p) = positions.get(self.next).filter(|&&p| (p as usize) < end) {
            let local = p as usize - start;
            self.lut.unpack_run(self.packed, g_at, &mut self.block[at..local]);
            g_at += local - at;
            self.block[local] = self.values[self.next];
            at = local + 1;
            self.next += 1;
        }
        self.lut.unpack_run(self.packed, g_at, &mut self.block[at..len]);
        &self.block[..len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codebook::{Codebook, ConvergenceTrace};
    use crate::config::{QuantConfig, QuantMethod};
    use crate::oracle;
    use gobo_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{RngCore, SeedableRng};

    /// Quantizes smooth weights with `outliers` planted at the given
    /// flat positions (far outside the bulk, so they are detected).
    fn matrix_with(rows: usize, cols: usize, bits: u8, outliers: &[usize]) -> QuantizedMatrix {
        let n = rows * cols;
        let mut w: Vec<f32> = (0..n)
            .map(|i| ((i as f32) * 0.13).sin() * 0.05 + ((i as f32) * 0.009).cos() * 0.02)
            .collect();
        for (j, &at) in outliers.iter().enumerate() {
            w[at] = if j % 2 == 0 { 1.4 + j as f32 * 0.01 } else { -1.1 - j as f32 * 0.01 };
        }
        let layer = QuantizedLayer::encode(&w, &QuantConfig::new(QuantMethod::Gobo, bits).unwrap())
            .unwrap();
        let (positions, _) = layer.outliers();
        for at in outliers {
            assert!(positions.contains(&(*at as u32)), "planted outlier {at} not detected");
        }
        QuantizedMatrix::new(layer, rows, cols).unwrap()
    }

    fn matrix(rows: usize, cols: usize, bits: u8) -> QuantizedMatrix {
        matrix_with(rows, cols, bits, &[5, rows * cols - 9])
    }

    /// A `bits`-wide matrix whose parts are chosen here, not by a
    /// quantizer: seeded indices over the whole codebook, and outliers
    /// placed so that G-group runs start at every position 0–7 of an
    /// 8-index group with every length 0–9.
    fn planted(cols: usize, bits: u8) -> QuantizedMatrix {
        let mut is_outlier = Vec::new();
        let mut g = 0usize;
        for phase in 0..8 {
            for len in 0..=9 {
                while g % 8 != phase {
                    is_outlier.push(false);
                    g += 1;
                }
                is_outlier.push(true);
                is_outlier.extend(std::iter::repeat_n(false, len));
                g += len;
                is_outlier.push(true);
            }
        }
        let rows = is_outlier.len().div_ceil(cols) + 1;
        is_outlier.resize(rows * cols, false);
        let positions: Vec<u32> =
            (0..rows * cols).filter(|&at| is_outlier[at]).map(|at| at as u32).collect();
        let values: Vec<f32> = (0..positions.len())
            .map(|j| if j % 2 == 0 { 1.0 + j as f32 * 0.01 } else { -1.0 - j as f32 * 0.01 })
            .collect();
        let mut rng = StdRng::seed_from_u64(u64::from(bits) * 1000 + cols as u64);
        let indices: Vec<u8> = (0..rows * cols - positions.len())
            .map(|_| (rng.next_u64() % (1 << bits)) as u8)
            .collect();
        let codebook =
            Codebook::new((0..1 << bits).map(|k| k as f32 * 0.003 - 0.2).collect()).unwrap();
        let layer = QuantizedLayer::from_parts(
            QuantMethod::Gobo,
            bits,
            rows * cols,
            codebook,
            packing::pack(&indices, bits).unwrap(),
            positions,
            values,
            ConvergenceTrace::default(),
        );
        QuantizedMatrix::new(layer, rows, cols).unwrap()
    }

    /// The packed product must equal `Tensor::matmul_nt` on the decoded
    /// layer **bit for bit**, at every batch size.
    fn assert_matches_decoded(qm: &QuantizedMatrix, what: &str) {
        assert_matches_dense(qm, qm.to_dense(), what);
    }

    fn assert_matches_dense(qm: &QuantizedMatrix, dense: Vec<f32>, what: &str) {
        let (rows, cols) = (qm.rows(), qm.cols());
        let dense = Tensor::from_vec(dense, &[rows, cols]).unwrap();
        for m in [1usize, 2, 5, 7, 32, 33] {
            let a: Vec<f32> = (0..m * cols).map(|i| (i as f32 * 0.11).sin()).collect();
            let got = qm.matmul_blocked(&a).unwrap();
            let want = Tensor::from_vec(a, &[m, cols]).unwrap().matmul_nt(&dense).unwrap();
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want.as_slice()) {
                assert_eq!(g.to_bits(), w.to_bits(), "{what} {rows}x{cols} m={m}");
            }
        }
    }

    /// This is what makes served outputs independent of batch
    /// composition: shapes cross the 8-row block with and without a short
    /// last block, and leave a `cols % 8` tail with and without whole
    /// chunks before it.
    #[test]
    fn matmul_blocked_is_bit_identical_to_decoded_dense() {
        for (rows, cols, bits) in
            [(24, 40, 2u8), (16, 300, 3), (9, 513, 4), (12, 256, 3), (7, 261, 3), (30, 13, 4)]
        {
            assert_matches_decoded(&matrix(rows, cols, bits), &format!("{bits}b"));
        }
    }

    /// Outliers wherever the branch-free decode splits a block of 8 weight
    /// rows: its first and last weight, both sides of the row 7 | row 8
    /// boundary, a row that is nothing but outliers, and the short last
    /// block of a matrix whose rows are not a multiple of 8.
    #[test]
    fn outliers_at_block_edges_decode_exactly() {
        let (rows, cols) = (43, 45);
        let at = |r: usize, c: usize| r * cols + c;
        let cases: [(&str, Vec<usize>); 5] = [
            ("first and last weight of a block", vec![at(0, 0), at(7, 44), at(8, 0), at(15, 44)]),
            ("row 7 | row 8", vec![at(7, 43), at(7, 44), at(8, 0), at(8, 1)]),
            ("row 15 | row 16", vec![at(15, 44), at(16, 0)]),
            ("all-outlier row", (0..cols).map(|c| at(9, c)).collect()),
            ("short last block", vec![at(40, 0), at(41, 20), at(42, 44)]),
        ];
        for (what, outliers) in &cases {
            let qm = matrix_with(rows, cols, 3, outliers);
            assert_eq!(qm.to_dense().len(), rows * cols);
            assert_matches_decoded(&qm, what);
        }
    }

    /// `decode()` and the row decode share one unpack loop, so the
    /// dense side here is rebuilt from the bytewise oracle instead: at
    /// every width, with runs at every group position and length 0–9,
    /// for the product and for row gathers in any order.
    #[test]
    fn matmul_blocked_matches_the_bytewise_oracle_at_every_width() {
        for bits in 1u8..=8 {
            for cols in [13, 256, 300] {
                let qm = planted(cols, bits);
                let layer = qm.layer();
                let (positions, values) = layer.outliers();
                let g_count = layer.total() - layer.outlier_count();
                let indices =
                    oracle::unpack_bytewise(layer.packed_indices(), bits, g_count).unwrap();
                let centroids = layer.codebook().centroids();
                let mut g = indices.iter().map(|&i| centroids[usize::from(i)]);
                let mut outliers = positions.iter().zip(values).peekable();
                let dense: Vec<f32> = (0..layer.total())
                    .map(|at| match outliers.next_if(|(&p, _)| p as usize == at) {
                        Some((_, &v)) => v,
                        None => g.next().unwrap(),
                    })
                    .collect();
                let rows: Vec<usize> = (0..qm.rows()).collect();
                let reversed: Vec<usize> = rows.iter().rev().copied().collect();
                let repeated = [1, 1, 0, qm.rows() - 1, 1];
                for ids in [&rows[..], &reversed, &repeated] {
                    let want: Vec<u32> = ids
                        .iter()
                        .flat_map(|&r| &dense[r * cols..][..cols])
                        .map(|w| w.to_bits())
                        .collect();
                    let got = qm.gather_rows(ids).unwrap();
                    let got: Vec<u32> = got.iter().map(|w| w.to_bits()).collect();
                    assert_eq!(got, want, "gather {bits}b {cols} cols {ids:?}");
                }
                assert!(qm.gather_rows(&[0, qm.rows()]).is_err(), "{bits}b {cols} cols");
                assert_matches_dense(&qm, dense, &format!("oracle {bits}b"));
            }
        }
    }

    /// `gemm_nt` asks for blocks in ascending order and the decoder's
    /// outlier cursor relies on it, but `WeightRows` promises no order:
    /// blocks asked backwards, shuffled, or at any start and length up to
    /// `BLOCK_ROWS` still decode bit for bit.
    #[test]
    fn rows_asked_out_of_order_match_the_decoded_layer() {
        for cols in [13, 300] {
            let qm = planted(cols, 3);
            let (rows, dense) = (qm.rows(), qm.to_dense());
            let widest = BLOCK_ROWS.min(rows);
            let blocks: Vec<(usize, usize)> = (0..rows)
                .step_by(BLOCK_ROWS)
                .map(|first| (first, widest.min(rows - first)))
                .collect();
            let mut shuffled = blocks.clone();
            let mut rng = StdRng::seed_from_u64(7);
            shuffled.shuffle(&mut rng);
            let mixed: Vec<(usize, usize)> = (0..64)
                .map(|_| {
                    let count = 1 + rng.next_u64() as usize % widest;
                    (rng.next_u64() as usize % (rows - count + 1), count)
                })
                .collect();
            let bits_of = |w: &[f32]| w.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            let reversed = blocks.iter().rev().copied().collect();
            for (order, spans) in [
                ("in order", blocks),
                ("reversed", reversed),
                ("shuffled", shuffled),
                ("mixed", mixed),
            ] {
                let mut decoder = qm.decoder::<3>();
                for (first, count) in spans {
                    let want = bits_of(&dense[first * cols..][..count * cols]);
                    assert_eq!(
                        bits_of(decoder.rows(first, count)),
                        want,
                        "{cols} cols {order} ({first}, {count})"
                    );
                }
            }
        }
    }

    #[test]
    fn outliers_contribute_exactly() {
        // A weight matrix that is all-centroid except one huge outlier;
        // the product must reflect the outlier at its exact position.
        let rows = 8;
        let cols = 32;
        let mut w: Vec<f32> = (0..rows * cols).map(|i| ((i % 7) as f32 - 3.0) * 0.01).collect();
        w[3 * cols + 10] = 5.0;
        let layer =
            QuantizedLayer::encode(&w, &QuantConfig::new(QuantMethod::Gobo, 3).unwrap()).unwrap();
        let qm = QuantizedMatrix::new(layer, rows, cols).unwrap();
        let mut x = vec![0.0f32; cols];
        x[10] = 2.0;
        let y = qm.matmul_blocked(&x).unwrap();
        assert!((y[3] - 10.0).abs() < 0.1, "outlier row got {}", y[3]);
    }

    #[test]
    fn shape_validation() {
        let qm = matrix(10, 10, 3);
        assert!(qm.matmul_blocked(&[0.0; 9]).is_err());
        assert!(qm.matmul_blocked(&[0.0; 11]).is_err());
        // An empty batch is a valid zero-row product.
        assert!(qm.matmul_blocked(&[]).unwrap().is_empty());
        let layer = qm.layer().clone();
        assert!(QuantizedMatrix::new(layer, 3, 7).is_err());
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let qm = matrix(6, 18, 3);
        let y = qm.matmul_blocked(&[0.0; 18]).unwrap();
        assert!(y.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn accessors() {
        let qm = matrix(6, 18, 4);
        assert_eq!(qm.rows(), 6);
        assert_eq!(qm.cols(), 18);
        assert_eq!(qm.layer().bits(), 4);
        assert_eq!(qm.to_dense().len(), 6 * 18);
    }
}
