//! Dense FP32 tensors for the GOBO reproduction.
//!
//! This crate is the numeric substrate beneath the transformer models,
//! the autograd engine and the quantization experiments. It provides an
//! owned, row-major, `f32` tensor together with the small set of
//! operations a BERT-style encoder needs:
//!
//! * shaped construction and seeded random fills ([`Tensor`]),
//! * matrix products `A × Wᵀ`, plain and batched per head ([`linalg`]),
//! * row-wise softmax / log-softmax and reductions ([`reduce`]),
//! * layer normalization ([`norm`]),
//! * GELU / tanh / sigmoid activations ([`activation`]),
//! * embedding-row gathering ([`embed`]).
//!
//! The design is deliberately simple — owned buffers, no views, no
//! generic element type — because the paper's workloads only ever touch
//! contiguous FP32 weight matrices, and the quantization algorithms in
//! `gobo-quant` operate on plain `&[f32]` slices exported by
//! [`Tensor::as_slice`].
//!
//! # Example
//!
//! ```
//! use gobo_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul_nt(&b)?;
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! # Ok::<(), gobo_tensor::TensorError>(())
//! ```

#![deny(missing_docs)]

pub mod activation;
pub mod embed;
pub mod error;
pub mod linalg;
pub mod norm;
pub mod reduce;
pub mod rng;
pub mod shape;
pub mod tensor;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;
