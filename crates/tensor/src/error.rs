//! Error type shared by all fallible tensor operations.

use std::fmt;

/// Error returned by fallible tensor operations.
///
/// The `Display` form states what failed and with which shapes, so it can
/// be surfaced directly to a user of the higher-level crates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The number of provided elements does not match the product of the
    /// requested dimensions.
    ElementCount {
        /// Number of elements supplied by the caller.
        got: usize,
        /// Number of elements the shape requires.
        expected: usize,
    },
    /// Two tensors had incompatible shapes for the attempted operation.
    ShapeMismatch {
        /// Name of the operation that failed (e.g. `"matmul_nt"`).
        op: &'static str,
        /// Shape of the left-hand operand.
        lhs: Vec<usize>,
        /// Shape of the right-hand operand.
        rhs: Vec<usize>,
    },
    /// The operation requires a tensor of a particular rank.
    RankMismatch {
        /// Name of the operation that failed.
        op: &'static str,
        /// Rank the operation requires.
        expected: usize,
        /// Rank of the tensor that was supplied.
        got: usize,
    },
    /// An index was out of bounds for the dimension it addresses.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The size of the dimension being indexed.
        len: usize,
    },
    /// A dimension of size zero was supplied where a non-empty extent is
    /// required (e.g. softmax over an empty row).
    EmptyDimension {
        /// Name of the operation that failed.
        op: &'static str,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ElementCount { got, expected } => {
                write!(f, "element count {got} does not match shape requiring {expected}")
            }
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "{op}: incompatible shapes {lhs:?} and {rhs:?}")
            }
            TensorError::RankMismatch { op, expected, got } => {
                write!(f, "{op}: expected rank {expected}, got rank {got}")
            }
            TensorError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for dimension of size {len}")
            }
            TensorError::EmptyDimension { op } => {
                write!(f, "{op}: empty dimension")
            }
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_shapes() {
        let e = TensorError::ShapeMismatch { op: "matmul", lhs: vec![2, 3], rhs: vec![4, 5] };
        let s = e.to_string();
        assert!(s.contains("matmul"));
        assert!(s.contains("[2, 3]"));
        assert!(s.contains("[4, 5]"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }

    #[test]
    fn display_element_count() {
        let e = TensorError::ElementCount { got: 3, expected: 4 };
        assert!(e.to_string().contains('3'));
        assert!(e.to_string().contains('4'));
    }
}
