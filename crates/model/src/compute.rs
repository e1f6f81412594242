//! Pluggable weight-product backends for the forward pass.
//!
//! The encoder's FC layers are pure `activation × weightᵀ` products
//! against *named* weight matrices, so the forward pass can be made
//! generic over how that product is computed: the dense FP32 path
//! multiplies against the tensor the model holds, while a serving
//! engine can route archived layers to a compute-on-compressed kernel
//! that never materializes the dense matrix — `model` may then be a
//! skeleton from which those weights are absent. Everything else about the forward
//! pass (embeddings, attention shape-shuffling, LayerNorms, biases) is
//! shared.
//!
//! The contract a backend must honour: the returned tensor equals
//! `input.matmul_nt(model.weight(name)?)` **bit for bit**. Backends
//! that only match within a tolerance would make served outputs depend
//! on which backend answered, breaking the serve tier's byte-identical
//! parity guarantee. The way to honour it is to feed the same kernel:
//! `matmul_nt` is `gobo_tensor::linalg::gemm_nt` over dense rows, and
//! its module docs fix the summation order every backend inherits.

use gobo_tensor::Tensor;

use crate::error::ModelError;
use crate::weights::TransformerModel;

/// A backend computing `input × W(name)ᵀ` for the forward pass.
pub trait WeightCompute {
    /// Computes `input.matmul_nt(W)` for the named weight, bit-for-bit
    /// equal to the dense product against the FP32 weight.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownLayer`] for unknown names,
    /// [`ModelError::AbsentWeight`] when neither the backend nor
    /// `model` holds the weight, and propagates tensor failures.
    fn matmul_nt(
        &self,
        model: &TransformerModel,
        name: &str,
        input: &Tensor,
    ) -> Result<Tensor, ModelError>;
}

/// The default backend: multiply against the model's dense FP32
/// weights. Over a skeleton it fails with [`ModelError::AbsentWeight`]
/// on the first archived layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct DenseCompute;

impl WeightCompute for DenseCompute {
    fn matmul_nt(
        &self,
        model: &TransformerModel,
        name: &str,
        input: &Tensor,
    ) -> Result<Tensor, ModelError> {
        Ok(input.matmul_nt(model.weight(name)?)?)
    }
}
