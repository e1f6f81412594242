//! The owned, row-major FP32 tensor.

use crate::error::TensorError;
use crate::shape::Shape;

/// An owned, row-major tensor of `f32` values.
///
/// All arithmetic helpers that combine two tensors require identical
/// shapes and return [`TensorError::ShapeMismatch`] otherwise; see
/// [`crate::linalg`] for matrix products.
///
/// # Example
///
/// ```
/// use gobo_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.len(), 6);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ElementCount`] when `data.len()` differs from
    /// the product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if data.len() != shape.len() {
            return Err(TensorError::ElementCount { got: data.len(), expected: shape.len() });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor { shape: Shape::scalar(), data: vec![value] }
    }

    /// Creates a tensor of zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Tensor { shape, data: vec![0.0; len] }
    }

    /// Creates a tensor of ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Tensor { shape, data: vec![value; len] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension sizes, shorthand for `shape().dims()`.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying elements in row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying elements in row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates indexing errors from [`Shape::offset`].
    pub fn get(&self, index: &[usize]) -> Result<f32, TensorError> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates indexing errors from [`Shape::offset`].
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<(), TensorError> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Returns a copy with a new shape over the same elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ElementCount`] when the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor, TensorError> {
        Tensor::from_vec(self.data.clone(), dims)
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Combines two same-shaped tensors element-wise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "zip",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let data = self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect();
        Ok(Tensor { shape: self.shape.clone(), data })
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, |a, b| a + b)
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, |a, b| a - b)
    }

    /// Element-wise product (Hadamard).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, |a, b| a * b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Adds a 1-D bias row to every row of a matrix-like tensor.
    ///
    /// The tensor is viewed as `(rows, cols)` via [`Shape::as_matrix`]; the
    /// bias must have `cols` elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the bias length differs
    /// from the column count, or a rank error for rank-0 tensors.
    pub fn add_bias(&self, bias: &Tensor) -> Result<Tensor, TensorError> {
        let (rows, cols) = self.shape.as_matrix()?;
        if bias.len() != cols {
            return Err(TensorError::ShapeMismatch {
                op: "add_bias",
                lhs: self.dims().to_vec(),
                rhs: bias.dims().to_vec(),
            });
        }
        let mut out = self.clone();
        for r in 0..rows {
            for c in 0..cols {
                out.data[r * cols + c] += bias.data[c];
            }
        }
        Ok(out)
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for tensors that are not rank 2.
    pub fn transpose(&self) -> Result<Tensor, TensorError> {
        if self.shape.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose",
                expected: 2,
                got: self.shape.rank(),
            });
        }
        let (rows, cols) = (self.dims()[0], self.dims()[1]);
        let mut data = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                data[c * rows + r] = self.data[r * cols + c];
            }
        }
        Ok(Tensor { shape: Shape::new(&[cols, rows]), data })
    }

    /// Copies row `row` of a matrix-like tensor into a rank-1 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] when `row` exceeds the row
    /// count, or a rank error for rank-0 tensors.
    pub fn row(&self, row: usize) -> Result<Tensor, TensorError> {
        let (rows, cols) = self.shape.as_matrix()?;
        if row >= rows {
            return Err(TensorError::IndexOutOfBounds { index: row, len: rows });
        }
        let data = self.data[row * cols..(row + 1) * cols].to_vec();
        Ok(Tensor { shape: Shape::new(&[cols]), data })
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements; 0 for empty tensors.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Largest element; `None` for empty tensors.
    pub fn max(&self) -> Option<f32> {
        self.data.iter().copied().reduce(f32::max)
    }

    /// Smallest element; `None` for empty tensors.
    pub fn min(&self) -> Option<f32> {
        self.data.iter().copied().reduce(f32::min)
    }

    /// Returns `true` when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

impl FromIterator<f32> for Tensor {
    /// Collects into a rank-1 tensor.
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        let data: Vec<f32> = iter.into_iter().collect();
        let n = data.len();
        Tensor { shape: Shape::new(&[n]), data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_count() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        assert_eq!(i.get(&[0, 0]).unwrap(), 1.0);
        assert_eq!(i.get(&[0, 1]).unwrap(), 0.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn zip_requires_same_shape() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn add_sub_mul_scale() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[11.0, 22.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[9.0, 18.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[10.0, 40.0]);
        assert_eq!(a.scale(3.0).as_slice(), &[3.0, 6.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.get(&[2, 1]).unwrap(), a.get(&[1, 2]).unwrap());
        assert_eq!(t.transpose().unwrap(), a);
    }

    #[test]
    fn transpose_requires_rank2() {
        assert!(Tensor::zeros(&[2, 2, 2]).transpose().is_err());
    }

    #[test]
    fn add_bias_broadcasts_over_rows() {
        let x = Tensor::zeros(&[2, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let y = x.add_bias(&b).unwrap();
        assert_eq!(y.row(0).unwrap().as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(y.row(1).unwrap().as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn row_extraction_and_bounds() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(a.row(1).unwrap().as_slice(), &[3.0, 4.0]);
        assert!(a.row(2).is_err());
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![-1.0, 4.0, 2.0], &[3]).unwrap();
        assert_eq!(a.sum(), 5.0);
        assert!((a.mean() - 5.0 / 3.0).abs() < 1e-6);
        assert_eq!(a.max(), Some(4.0));
        assert_eq!(a.min(), Some(-1.0));
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut a = Tensor::zeros(&[2]);
        assert!(a.all_finite());
        a.as_mut_slice()[0] = f32::NAN;
        assert!(!a.all_finite());
    }

    #[test]
    fn from_iterator_builds_vector() {
        let t: Tensor = (0..4).map(|x| x as f32).collect();
        assert_eq!(t.dims(), &[4]);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn scalar_tensor() {
        let s = Tensor::scalar(5.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.sum(), 5.0);
        assert_eq!(s.shape().rank(), 0);
    }
}
