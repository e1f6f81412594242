//! Pluggable weight backends for the forward pass.
//!
//! The forward pass reads a quantizable weight two ways — an FC layer
//! as an `activation × weightᵀ` product, an embedding table as a row
//! gather — both through a [`WeightCompute`] backend, by name. Both
//! default to the model's dense FP32 tensor; a serving engine overrides
//! them for the weights it holds packed, never materializing the dense
//! matrix, so `model` may be a skeleton from which those are absent.
//! Everything else (attention shape-shuffling, LayerNorms, biases) is
//! shared.
//!
//! The contract a backend must honour: the returned tensor equals the
//! default's **bit for bit**. Backends that only match within a
//! tolerance would make served outputs depend on which backend
//! answered, breaking the serve tier's byte-identical parity guarantee.
//! The way to honour it is to feed the same kernel: `matmul_nt` is
//! `gobo_tensor::linalg::gemm_nt` over dense rows, and its module docs
//! fix the summation order every backend inherits; a gathered row is
//! the same values copied, in order.

use gobo_tensor::Tensor;

use crate::error::ModelError;
use crate::weights::TransformerModel;

/// A backend for the forward pass's named weights; dense by default.
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
    ) -> Result<Tensor, ModelError> {
        Ok(input.matmul_nt(model.weight(name)?)?)
    }

    /// Rows `ids` of the named table, bit-for-bit equal to gathering
    /// them from the FP32 table.
    ///
    /// # Errors
    ///
    /// As [`WeightCompute::matmul_nt`], plus an id past the last row.
    fn gather_rows(
        &self,
        model: &TransformerModel,
        name: &str,
        ids: &[usize],
    ) -> Result<Tensor, ModelError> {
        Ok(gobo_tensor::embed::gather_rows(model.weight(name)?, ids)?)
    }
}

/// The default backend: every weight is the model's dense FP32 tensor.
/// Over a skeleton it fails with [`ModelError::AbsentWeight`] on the
/// first archived weight.
#[derive(Debug, Clone, Copy, Default)]
pub struct DenseCompute;

impl WeightCompute for DenseCompute {}
