//! Error type for model construction and inference.

use std::fmt;

use gobo_tensor::TensorError;

/// Error returned by fallible model operations.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A configuration field was zero or inconsistent.
    InvalidConfig {
        /// Name of the offending field.
        name: &'static str,
    },
    /// A named layer was requested that the model does not contain.
    UnknownLayer {
        /// The requested layer name.
        name: String,
    },
    /// A layer the configuration defines was requested from a model that
    /// does not hold its weight: a skeleton whose weight lives in a
    /// compressed archive. Nothing was multiplied by a stand-in.
    AbsentWeight {
        /// The layer whose weight is absent.
        name: String,
    },
    /// A weight tensor's shape disagrees with the configuration.
    WeightShape {
        /// The layer whose weights were malformed.
        layer: String,
        /// Expected dimensions.
        expected: Vec<usize>,
        /// Supplied dimensions.
        got: Vec<usize>,
    },
    /// The input token sequence was invalid (empty, too long, or with
    /// ids outside the vocabulary).
    InvalidInput {
        /// Description of the problem.
        what: &'static str,
    },
    /// An underlying tensor operation failed.
    Tensor(TensorError),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidConfig { name } => {
                write!(f, "invalid model configuration: field `{name}`")
            }
            ModelError::UnknownLayer { name } => write!(f, "unknown layer `{name}`"),
            ModelError::AbsentWeight { name } => {
                write!(f, "layer `{name}` has no FP32 weight in this model (absent, not zero)")
            }
            ModelError::WeightShape { layer, expected, got } => {
                write!(f, "layer `{layer}`: expected shape {expected:?}, got {got:?}")
            }
            ModelError::InvalidInput { what } => write!(f, "invalid input: {what}"),
            ModelError::Tensor(e) => write!(f, "tensor failure: {e}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for ModelError {
    fn from(e: TensorError) -> Self {
        ModelError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ModelError::UnknownLayer { name: "encoder.99.pooler".into() };
        assert!(e.to_string().contains("encoder.99.pooler"));
        let e = ModelError::WeightShape {
            layer: "pooler".into(),
            expected: vec![768, 768],
            got: vec![768, 64],
        };
        assert!(e.to_string().contains("[768, 64]"));
    }

    #[test]
    fn tensor_errors_convert() {
        use std::error::Error;
        let e: ModelError = TensorError::EmptyDimension { op: "softmax" }.into();
        assert!(e.source().is_some());
    }
}
