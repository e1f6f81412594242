//! `gobo-serve`: batched quantized-inference serving.
//!
//! GOBO's decoded models are plug-in compatible with any FP32 engine;
//! this crate serves them without decoding them. It loads `.gobom`
//! compressed containers ([`gobo::format::CompressedModel`]), keeps each
//! resident as its container — every archived tensor packed, beside a
//! [`gobo_model::TransformerModel`] holding only what the archive does
//! not — and serves encode requests over HTTP/1.1 with dynamic
//! batching:
//!
//! * [`registry`] — named, *versioned* model cache keyed by
//!   *name/bits*, LRU-evicted under a resident-byte budget, with an
//!   atomic publish/promote/rollback revision lifecycle (in-flight
//!   batches drain on the old revision before it is retired);
//! * [`lifecycle`] — the canary rule: a freshly published revision is
//!   routed a configurable traffic slice, auto-promoted on a clean
//!   latency window, auto-rolled-back on any canary error or p95
//!   regression — judged inside the registry slot that holds it;
//! * [`engine`] — the compute-on-compressed engine: archived FC layers
//!   run the one GEMM kernel (`gemm_nt`) straight on the packed indices,
//!   archived embedding tables decode only the rows a batch looks up;
//! * [`scheduler`] — bounded admission queue, worker pool, fair-share
//!   batching (a free worker takes its share of what is queued for the
//!   oldest model key, up to `max_batch`, at once — no timer),
//!   per-request deadlines that reject (never hang) on overload,
//!   graceful drain;
//! * [`listener`] — the one thread-per-connection TCP accept loop
//!   (blocking accept, woken by a self-connect on stop) with
//!   tracked-socket teardown, shared with the cluster node;
//! * [`http`] — a dependency-free HTTP/1.1 front end on that listener
//!   (`POST /v1/encode`, `GET /v1/models`, `GET /metrics`,
//!   `POST /v1/shutdown`);
//! * [`core`] — the shared registry+scheduler+metrics handle and the
//!   in-process [`Client`] that benchmarks and tests use to bypass the
//!   socket;
//! * [`metrics`] — request/latency/queue-depth/batch-size counters in
//!   Prometheus text format;
//! * [`json`] — the minimal vendored-free JSON codec the front end
//!   speaks.
//!
//! The forward pass is deterministic, so a served response is
//! byte-identical to a direct [`TransformerModel::encode`] call on the
//! decoded container, at every batch size.
//!
//! [`TransformerModel::encode`]: gobo_model::TransformerModel::encode
//!
//! # Quickstart
//!
//! ```
//! use gobo::format::CompressedModel;
//! use gobo::pipeline::{quantize_model, QuantizeOptions};
//! use gobo_model::{config::ModelConfig, TransformerModel};
//! use gobo_serve::{Client, EncodeRequest, ServeCore, ServeOptions};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Quantize a small model and wrap it in a container.
//! let config = ModelConfig::tiny("Demo", 1, 16, 2, 40, 12)?;
//! let model = TransformerModel::new(config, &mut StdRng::seed_from_u64(1))?;
//! let outcome = quantize_model(&model, &QuantizeOptions::gobo(3)?)?;
//! let compressed = CompressedModel::new(&model, outcome.archive);
//!
//! // Serve it in-process.
//! let core = ServeCore::start(ServeOptions::default());
//! let client = Client::new(core.clone());
//! client.register("demo", &compressed)?;
//! let response = client.encode(EncodeRequest::new("demo", vec![1, 2, 3]))?;
//! assert_eq!(response.hidden_dims, [3, 16]);
//! core.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
// Panic-free outside tests: no `.unwrap()` / `.expect()`, panicking
// macro (the assert family via `clippy.toml`) or unchecked index.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_macros
    )
)]

pub mod client;
pub mod core;
pub mod engine;
pub mod error;
pub mod http;
pub mod json;
pub mod lifecycle;
pub mod listener;
pub mod metrics;
pub mod registry;
pub mod scheduler;

pub use crate::core::{Client, ServeCore, ServeOptions};
pub use client::HttpClient;
pub use engine::QuantizedEngine;
pub use error::ServeError;
pub use http::{
    parse_encode_body, parse_request, HttpHandler, HttpOptions, HttpResponse, ParsedRequest,
    Server, ShutdownSignal,
};
pub use lifecycle::{CanaryPolicy, VerdictWindow, WindowVerdict};
pub use listener::Listener;
pub use metrics::Metrics;
pub use registry::{ModelEntry, ModelKey, ModelRegistry, ModelStatus, RegistryConfig, RevState};
pub use scheduler::{EncodeRequest, EncodeResponse, Scheduler, SchedulerConfig};
