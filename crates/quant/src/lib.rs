//! GOBO quantization — the primary contribution of the paper.
//!
//! GOBO compresses a trained FP32 layer in two steps:
//!
//! 1. **Outlier split** ([`outlier`]): fit a Gaussian to the layer's
//!    weights and peel off the few weights (typically <0.1%) whose
//!    log-density falls below a threshold (default **-4**). Outliers are
//!    stored verbatim.
//! 2. **"G" group clustering** ([`gobo`]): initialize `2^bits` centroids
//!    over equal-*population* bins of the sorted remaining weights
//!    ([`init`]), then iterate nearest-centroid reassignment + mean
//!    update while monitoring the **L1** norm, keeping the iterate where
//!    L1 is minimal. Each G weight is stored as a 3- or 4-bit index into
//!    the per-layer codebook.
//!
//! Baselines from the paper's evaluation are implemented alongside:
//! K-Means run to assignment convergence ([`kmeans`]), linear
//! quantization ([`linear`]), and the Q8BERT/Q-BERT-style reference
//! schemes ([`reference`]). GOBO and K-Means share one loop over one
//! sorted view of the G group ([`kernel`]); [`oracle`] states the same
//! spec in its plain form for the tests, and production never calls it.
//!
//! [`layer::QuantizedLayer`] is the bit-exact storage format (packed
//! indices + codebook + outliers) with exact size accounting, and
//! [`layer::QuantizedLayer::decode`] reconstructs an FP32 layer that is
//! plug-in compatible with any FP32 execution engine.
//!
//! # Example
//!
//! ```
//! use gobo_quant::{QuantConfig, QuantMethod};
//! use gobo_quant::layer::QuantizedLayer;
//!
//! // A layer whose weights are Gaussian plus two strong outliers.
//! let mut weights: Vec<f32> = (0..4096).map(|i| ((i * 2654435761u64 as usize) % 1000) as f32 / 5000.0 - 0.1).collect();
//! weights[7] = 2.5;
//! weights[1009] = -2.0;
//!
//! let config = QuantConfig::new(QuantMethod::Gobo, 3)?;
//! let layer = QuantizedLayer::encode(&weights, &config)?;
//! let decoded = layer.decode();
//!
//! assert_eq!(decoded.len(), weights.len());
//! assert_eq!(decoded[7], 2.5); // outliers survive bit-exactly
//! assert!(layer.compression_ratio() > 8.0);
//! # Ok::<(), gobo_quant::QuantError>(())
//! ```

#![deny(missing_docs)]

pub mod codebook;
pub mod compute;
pub mod config;
pub mod container;
pub mod entropy;
pub mod error;
pub mod gobo;
pub mod init;
pub mod kernel;
pub mod kmeans;
pub mod layer;
pub mod linear;
pub mod mixed;
pub mod oracle;
pub mod outlier;
pub mod packing;
pub mod reference;
pub mod report;

/// CRC-32, re-exported from the byte-codec crate that owns it.
pub use gobo_proto::integrity;

pub use codebook::{Codebook, ConvergenceTrace};
pub use compute::QuantizedMatrix;
pub use config::{QuantConfig, QuantMethod};
pub use error::QuantError;
pub use layer::QuantizedLayer;
pub use outlier::{OutlierSplit, DEFAULT_LOG_PDF_THRESHOLD};
pub use report::{CompressionReport, LayerReport};
