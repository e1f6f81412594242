//! Computing directly on the compressed representation.
//!
//! The MICRO version of GOBO pairs the storage format with a hardware
//! accelerator that never decompresses: because every G-group weight is
//! one of a few representative values, a matrix–vector product can
//! *accumulate activations per centroid* and multiply by each centroid
//! once —
//!
//! ```text
//! y[r] = Σ_c x[c]·w[r,c]
//!      = Σ_k centroid[k] · ( Σ_{c: idx[r,c]=k} x[c] )  +  Σ_{outliers} x[c]·w[r,c]
//! ```
//!
//! turning `cols` multiplications per output into `2^bits` plus a
//! handful of outlier corrections. [`QuantizedMatrix`] implements that
//! schedule in software, operating straight on the packed indices — no
//! unpacked index copy is kept, so the resident footprint is the
//! compressed layer itself.
//!
//! For *batched* activations the same compressed stream pays off a
//! second way: [`QuantizedMatrix::matmul_blocked`] decodes each weight
//! tile (one `unpack_run` + codebook LUT + outlier patch) exactly once
//! and reuses it across **all** rows of the activation batch, so the
//! per-element decode cost — which dominates low-bit inference — is
//! amortized by the batch size. That is the software analogue of the
//! paper's hardware argument, and it is the kernel the serving tier
//! hands whole coalesced batches to.

use crate::error::QuantError;
use crate::layer::QuantizedLayer;
use crate::packing;

/// Column-block width of the blocked kernel. A decoded tile is
/// `COL_BLOCK` f32s (1 KiB — comfortably L1-resident next to the
/// codebook LUT), and the activation panel the inner loop streams is
/// `batch × COL_BLOCK` f32s: 32 KiB at batch 32, sized to stay resident
/// in L2 while the tile is reused across the whole batch.
const COL_BLOCK: usize = 256;

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

    /// Consumes the wrapper, returning the compressed layer.
    pub fn into_layer(self) -> QuantizedLayer {
        self.layer
    }

    /// `y = W·x` computed on the compressed form: per output row,
    /// activations are bucketed by centroid index and each centroid is
    /// multiplied once; outliers contribute individually.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidConfig`] unless `x.len() == cols`.
    pub fn matvec(&self, x: &[f32]) -> Result<Vec<f32>, QuantError> {
        if x.len() != self.cols {
            return Err(QuantError::InvalidConfig { name: "x.len" });
        }
        let centroids = self.layer.codebook().centroids();
        let k = centroids.len();
        let (outlier_positions, outlier_values) = self.layer.outliers();
        let packed = self.layer.packed_indices();
        let bits = self.layer.bits();
        let mut y = vec![0.0f32; self.rows];
        let mut buckets = vec![0.0f32; k];
        // Per-row scratch for this row's G-group indices, unpacked
        // word-at-a-time straight from the packed stream.
        let mut idx_run = vec![0u8; self.cols];

        let mut o_idx = 0usize; // cursor into the outlier arrays
        let mut g_pos = 0usize; // G-group elements consumed so far
        for (r, y_r) in y.iter_mut().enumerate() {
            buckets.iter_mut().for_each(|b| *b = 0.0);
            let base = r * self.cols;
            // Outlier positions are strictly ascending, so this row's
            // outliers are the next contiguous run of the cursor.
            let o_start = o_idx;
            while o_idx < outlier_positions.len()
                && (outlier_positions[o_idx] as usize) < base + self.cols
            {
                o_idx += 1;
            }
            let g_count = self.cols - (o_idx - o_start);
            packing::unpack_run(packed, bits, g_pos, &mut idx_run[..g_count])?;
            g_pos += g_count;

            let mut outlier_acc = 0.0f32;
            let mut oi = o_start;
            let mut gi = 0usize;
            for (c, &xv) in x.iter().enumerate() {
                let flat = (base + c) as u32;
                if oi < o_idx && outlier_positions[oi] == flat {
                    outlier_acc += xv * outlier_values[oi];
                    oi += 1;
                } else {
                    buckets[idx_run[gi] as usize] += xv;
                    gi += 1;
                }
            }
            let mut acc = outlier_acc;
            for (b, &c) in buckets.iter().zip(centroids) {
                acc += b * c;
            }
            *y_r = acc;
        }
        Ok(y)
    }

    /// Cache-blocked batched `Y = A·Wᵀ` straight on the packed indices,
    /// for row-major `a: (m, cols)` producing `(m, rows)` — the one
    /// FC-layer product, at every batch size including 1.
    ///
    /// For each weight row, each `COL_BLOCK`-wide tile of indices is
    /// unpacked once (word-at-a-time), mapped through the codebook LUT
    /// with outlier values patched in place, and then reused across
    /// **all** `m` activation rows — the decode cost is paid once per
    /// tile instead of once per (tile, batch row). Accumulation per
    /// `(batch row, weight row)` carries a single f32 accumulator
    /// across the column blocks in column order, so the result is
    /// **bit-identical** to decoding the layer and running the dense
    /// `matmul_nt`: the served output of a batch does not depend on how
    /// requests were coalesced. This is the kernel behind the
    /// `gobo.batch_gemm` span.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidConfig`] unless `a.len()` is a
    /// multiple of `cols`.
    pub fn matmul_blocked(&self, a: &[f32]) -> Result<Vec<f32>, QuantError> {
        if self.cols == 0 || !a.len().is_multiple_of(self.cols) {
            return Err(QuantError::InvalidConfig { name: "a.len" });
        }
        let m = a.len() / self.cols;
        let _span =
            gobo_obs::span!("gobo.batch_gemm", rows = self.rows, cols = self.cols, batch = m);
        let centroids = self.layer.codebook().centroids();
        let (outlier_positions, outlier_values) = self.layer.outliers();
        let packed = self.layer.packed_indices();
        let bits = self.layer.bits();

        let block = COL_BLOCK.min(self.cols);
        let mut out = vec![0.0f32; m * self.rows];
        let mut tile = vec![0.0f32; block];
        let mut idx_run = vec![0u8; block];
        let mut acc = vec![0.0f32; m];
        let mut o_idx = 0usize; // cursor into the outlier arrays
        let mut g_pos = 0usize; // G-group elements consumed so far
        for r in 0..self.rows {
            acc.iter_mut().for_each(|v| *v = 0.0);
            let base = r * self.cols;
            let mut cb = 0usize;
            while cb < self.cols {
                let width = block.min(self.cols - cb);
                let start_flat = base + cb;
                // Decode the tile once: outliers in range are the next
                // contiguous run of the (ascending) outlier cursor; the
                // gaps between them are G-group runs from the packed
                // stream, mapped through the centroid LUT.
                let o_start = o_idx;
                while o_idx < outlier_positions.len()
                    && (outlier_positions[o_idx] as usize) < start_flat + width
                {
                    o_idx += 1;
                }
                let g_count = width - (o_idx - o_start);
                packing::unpack_run(packed, bits, g_pos, &mut idx_run[..g_count])?;
                g_pos += g_count;
                let t = &mut tile[..width];
                let mut oi = o_start;
                let mut gi = 0usize;
                for (local, slot) in t.iter_mut().enumerate() {
                    let flat = (start_flat + local) as u32;
                    if oi < o_idx && outlier_positions[oi] == flat {
                        *slot = outlier_values[oi];
                        oi += 1;
                    } else {
                        *slot = centroids[idx_run[gi] as usize];
                        gi += 1;
                    }
                }
                // Reuse the decoded tile across every activation row.
                for (i, acc_i) in acc.iter_mut().enumerate() {
                    let arow = &a[i * self.cols + cb..i * self.cols + cb + width];
                    let mut s = *acc_i;
                    for (xv, wv) in arow.iter().zip(t.iter()) {
                        s += xv * wv;
                    }
                    *acc_i = s;
                }
                cb += width;
            }
            for (i, &v) in acc.iter().enumerate() {
                out[i * self.rows + r] = v;
            }
        }
        Ok(out)
    }

    /// Decodes to a dense row-major weight matrix (for verification and
    /// interop).
    pub fn to_dense(&self) -> Vec<f32> {
        self.layer.decode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{QuantConfig, QuantMethod};

    fn matrix(rows: usize, cols: usize, bits: u8) -> (QuantizedMatrix, Vec<f32>) {
        let n = rows * cols;
        let mut w: Vec<f32> = (0..n)
            .map(|i| ((i as f32) * 0.13).sin() * 0.05 + ((i as f32) * 0.009).cos() * 0.02)
            .collect();
        if n > 64 {
            w[5] = 1.4;
            w[n - 9] = -1.1;
        }
        let layer = QuantizedLayer::encode(&w, &QuantConfig::new(QuantMethod::Gobo, bits).unwrap())
            .unwrap();
        (QuantizedMatrix::new(layer, rows, cols).unwrap(), w)
    }

    fn dense_matvec(w: &[f32], x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        (0..rows).map(|r| (0..cols).map(|c| w[r * cols + c] * x[c]).sum()).collect()
    }

    #[test]
    fn matvec_matches_decoded_dense_product() {
        for bits in [2u8, 3, 4] {
            let (qm, _) = matrix(24, 40, bits);
            let x: Vec<f32> = (0..40).map(|i| (i as f32 * 0.3).cos()).collect();
            let fast = qm.matvec(&x).unwrap();
            let dense = qm.to_dense();
            let reference = dense_matvec(&dense, &x, 24, 40);
            for (a, b) in fast.iter().zip(&reference) {
                assert!((a - b).abs() < 1e-4, "bits {bits}: {a} vs {b}");
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
        let y = qm.matvec(&x).unwrap();
        assert!((y[3] - 10.0).abs() < 0.1, "outlier row got {}", y[3]);
    }

    /// The blocked kernel must agree with decode-then-dense **bit for
    /// bit**: same decoded values, same column-order accumulation. This
    /// is what makes served outputs independent of batch composition.
    #[test]
    fn matmul_blocked_is_bit_identical_to_decoded_dense() {
        for (rows, cols, bits) in [(24, 40, 2u8), (16, 300, 3), (9, 513, 4)] {
            let (qm, _) = matrix(rows, cols, bits);
            let dense = qm.to_dense();
            for m in [1usize, 2, 5, 32] {
                let a: Vec<f32> = (0..m * cols).map(|i| (i as f32 * 0.11).sin()).collect();
                let got = qm.matmul_blocked(&a).unwrap();
                let mut want = Vec::with_capacity(m * rows);
                for row in a.chunks(cols) {
                    want.extend(dense_matvec(&dense, row, rows, cols));
                }
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.to_bits(), w.to_bits(), "{rows}x{cols}@{bits}b m={m}");
                }
            }
        }
    }

    #[test]
    fn shape_validation() {
        let (qm, _) = matrix(10, 10, 3);
        assert!(qm.matvec(&[0.0; 9]).is_err());
        assert!(qm.matmul_blocked(&[0.0; 11]).is_err());
        // An empty batch is a valid zero-row product.
        assert!(qm.matmul_blocked(&[]).unwrap().is_empty());
        let layer = qm.into_layer();
        assert!(QuantizedMatrix::new(layer, 3, 7).is_err());
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let (qm, _) = matrix(6, 18, 3);
        let y = qm.matvec(&[0.0; 18]).unwrap();
        assert!(y.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn accessors() {
        let (qm, _) = matrix(6, 18, 4);
        assert_eq!(qm.rows(), 6);
        assert_eq!(qm.cols(), 18);
        assert_eq!(qm.layer().bits(), 4);
        assert_eq!(qm.to_dense().len(), 6 * 18);
    }
}
