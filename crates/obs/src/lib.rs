//! `gobo-obs`: zero-dependency observability for the quant→serve stack.
//!
//! GOBO's claims are distributional — ~0.1% outliers per layer, ~7
//! centroid iterations, layer-by-layer L1 error — and so are serving
//! SLOs (p99, not means). This crate provides the three primitives the
//! rest of the workspace uses to *see* those distributions, with no
//! dependencies beyond `std` and no measurable cost when disabled:
//!
//! * [`trace`] — per-thread span stacks over one lock-guarded event buffer,
//!   recorded by the [`span!`] macro and exportable as Chrome
//!   trace-event JSON (loadable in `chrome://tracing` / Perfetto).
//!   Recording is **off by default**; a disabled span is one relaxed
//!   atomic load.
//! * [`hist`] — fixed log-spaced-bucket latency histograms with atomic
//!   counters: mergeable, revertible, p50/p95/p99 queries, and
//!   Prometheus `_bucket`/`_sum`/`_count` text exposition.
//! * [`json`] — the minimal JSON string/number formatting the two
//!   exporters and the serving front doors share (escaping per RFC 8259;
//!   `f32` tensors as their shortest text, after Ryū).
//!
//! # Example
//!
//! ```
//! use gobo_obs::trace::Session;
//! use gobo_obs::{hist::Histogram, span};
//!
//! let latencies = Histogram::new();
//! let ((), session) = Session::record(|| {
//!     let _span = span!("work.step", item = 3);
//!     latencies.observe(1_250); // e.g. microseconds
//! });
//! assert!(latencies.quantile(0.5) > 0.0);
//! assert!(session.chrome_trace().contains("work.step"));
//! ```

#![deny(missing_docs)]

pub mod hist;
pub mod json;
pub mod trace;

pub use hist::Histogram;
pub use trace::Span;
