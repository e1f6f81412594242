//! Row-wise reductions: softmax, log-softmax, argmax, sums and means.
//!
//! All functions here view their input as a `(rows, cols)` matrix via
//! [`Shape::as_matrix`](crate::Shape::as_matrix) and reduce along the last
//! axis, which is what attention scores and classifier logits need.

use crate::error::TensorError;
use crate::tensor::Tensor;

impl Tensor {
    /// Numerically stable softmax along the last axis.
    ///
    /// Each row is shifted by its maximum before exponentiation, so inputs
    /// with large magnitudes do not overflow.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] when the last axis has zero
    /// extent, or a rank error for rank-0 tensors.
    ///
    /// # Example
    ///
    /// ```
    /// use gobo_tensor::Tensor;
    /// let x = Tensor::from_vec(vec![0.0, 0.0], &[1, 2])?;
    /// let y = x.softmax()?;
    /// assert!((y.as_slice()[0] - 0.5).abs() < 1e-6);
    /// # Ok::<(), gobo_tensor::TensorError>(())
    /// ```
    pub fn softmax(&self) -> Result<Tensor, TensorError> {
        let (rows, cols) = self.shape().as_matrix()?;
        if cols == 0 {
            return Err(TensorError::EmptyDimension { op: "softmax" });
        }
        let mut out = self.clone();
        let data = out.as_mut_slice();
        for r in 0..rows {
            let row = &mut data[r * cols..(r + 1) * cols];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        Ok(out)
    }

    /// Numerically stable log-softmax along the last axis.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Tensor::softmax`].
    pub fn log_softmax(&self) -> Result<Tensor, TensorError> {
        let (rows, cols) = self.shape().as_matrix()?;
        if cols == 0 {
            return Err(TensorError::EmptyDimension { op: "log_softmax" });
        }
        let mut out = self.clone();
        let data = out.as_mut_slice();
        for r in 0..rows {
            let row = &mut data[r * cols..(r + 1) * cols];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let log_sum = row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln() + max;
            for v in row.iter_mut() {
                *v -= log_sum;
            }
        }
        Ok(out)
    }

    /// Index of the largest element in each row.
    ///
    /// Ties resolve to the first (lowest-index) maximum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] when rows are empty, or a
    /// rank error for rank-0 tensors.
    pub fn argmax_rows(&self) -> Result<Vec<usize>, TensorError> {
        let (rows, cols) = self.shape().as_matrix()?;
        if cols == 0 {
            return Err(TensorError::EmptyDimension { op: "argmax_rows" });
        }
        let data = self.as_slice();
        let mut out = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &data[r * cols..(r + 1) * cols];
            let mut best = 0usize;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    /// Sum over rows, producing one value per column.
    ///
    /// # Errors
    ///
    /// Returns a rank error for rank-0 tensors.
    pub fn sum_cols(&self) -> Result<Tensor, TensorError> {
        let (rows, cols) = self.shape().as_matrix()?;
        let data = self.as_slice();
        let mut sums = vec![0.0f32; cols];
        for r in 0..rows {
            for c in 0..cols {
                sums[c] += data[r * cols + c];
            }
        }
        Tensor::from_vec(sums, &[cols])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, d: &[usize]) -> Tensor {
        Tensor::from_vec(v, d).unwrap()
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = t(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let y = x.softmax().unwrap();
        for r in 0..2 {
            let s: f32 = y.row(r).unwrap().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = t(vec![1.0, 2.0, 3.0], &[1, 3]);
        let y = x.map(|v| v + 100.0);
        let sx = x.softmax().unwrap();
        let sy = y.softmax().unwrap();
        for (a, b) in sx.as_slice().iter().zip(sy.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_survives_large_magnitudes() {
        let x = t(vec![1000.0, 1000.0], &[1, 2]);
        let y = x.softmax().unwrap();
        assert!(y.all_finite());
        assert!((y.as_slice()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let x = t(vec![0.5, -1.5, 2.0, 0.0], &[2, 2]);
        let a = x.log_softmax().unwrap();
        let b = x.softmax().unwrap().map(f32::ln);
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((u - v).abs() < 1e-5);
        }
    }

    #[test]
    fn argmax_rows_first_tie_wins() {
        let x = t(vec![1.0, 3.0, 3.0, 0.0, -1.0, -2.0], &[2, 3]);
        assert_eq!(x.argmax_rows().unwrap(), vec![1, 0]);
    }

    #[test]
    fn row_and_col_sums() {
        let x = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(x.sum_cols().unwrap().as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn empty_rows_are_rejected() {
        let x = Tensor::zeros(&[2, 0]);
        assert!(x.softmax().is_err());
        assert!(x.argmax_rows().is_err());
    }

    #[test]
    fn rank1_treated_as_single_row() {
        let x = t(vec![0.0, 0.0, 0.0, 0.0], &[4]);
        let y = x.softmax().unwrap();
        assert!((y.as_slice()[0] - 0.25).abs() < 1e-6);
        assert_eq!(x.argmax_rows().unwrap(), vec![0]);
    }
}
