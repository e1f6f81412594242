//! Library backing the `gobo` command-line tool.
//!
//! The CLI works on two file formats:
//!
//! * **raw models** (`.gobor`) — FP32 `TransformerModel`s in
//!   `gobo-model`'s [`io`](gobo_model::io) format;
//! * **compressed models** (`.gobom`) — [`gobo::format::CompressedModel`]:
//!   the model configuration, the FP32 auxiliary parameters (biases and
//!   LayerNorms, which GOBO leaves unquantized), and a
//!   [`gobo_quant::container::ModelArchive`] holding every quantized
//!   layer.
//!
//! Everything the binary does is reachable from [`run`], so the whole
//! tool is testable without spawning processes.

#![deny(missing_docs)]

mod chaos_cmd;
mod cluster_cmd;
pub mod cmd;
/// The fixture `gobo chaos` runs on, shared with this crate's tests;
/// not a stable interface.
#[doc(hidden)]
pub mod harness;
mod lint_cmd;
mod obs_cmd;
mod sanitize_cmd;
mod serve_cmd;

pub use cmd::{run, CliError};
