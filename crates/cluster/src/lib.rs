//! `gobo-cluster`: the sharded multi-node serving tier.
//!
//! One `gobo-serve` process holds what fits in one memory budget and
//! one socket's accept queue. This crate scales the serving stack
//! horizontally while keeping its defining invariant — a routed
//! response's tensor payload is byte-identical to a direct in-process
//! encode — and adds the two properties a single node cannot have:
//! surviving a node loss, and capping tail latency when a node turns
//! slow rather than dead.
//!
//! * [`ring`] — consistent-hash ring with virtual nodes, keyed on the
//!   model identity `name@bits`; membership changes only remap the
//!   departed member's keys, keeping node registries warm;
//! * [`node`] — a `gobo-proto` protocol listener wrapping an
//!   in-process [`gobo_serve::ServeCore`]: encode, heartbeat (load +
//!   model residency), and graceful drain;
//! * [`router`] — replica selection by health and load, heartbeat
//!   membership with mark-dead/mark-alive, failover on retryable
//!   errors, a per-node pool of persistent connections driven by the
//!   calling thread (no connect, thread or socket teardown per
//!   request), hedged requests (a backup fires after a p95-derived
//!   delay, the first answer wins, the loser's outcome and connection
//!   are dropped), and canary
//!   trials: a designated node receives a configured traffic slice
//!   and is auto-promoted on a clean latency window or auto-demoted on
//!   an attempt failure or p95 regression;
//! * [`metrics`] — `gobo_cluster_*` Prometheus counters and the
//!   route-latency histogram;
//! * [`http`] — the router's HTTP front door, speaking the JSON
//!   dialect of a single node (a routed encode has no `rev`) plus
//!   `GET /v1/cluster` and `POST /v1/canary`.
//!
//! Failpoints: `cluster.route`, `cluster.node.recv`,
//! `cluster.heartbeat` (plus `proto.frame.parse` in the wire layer).
//! Spans: `gobo.cluster.route`, `gobo.cluster.canary`, `gobo.hedge`.

#![deny(missing_docs)]

pub mod http;
pub mod metrics;
pub mod node;
pub mod ring;
pub mod router;

pub use http::RouterServer;
pub use metrics::{ClusterMetrics, NodeHealthSample};
pub use node::ClusterNode;
pub use ring::Ring;
pub use router::{NodeInfo, NodeState, Router, RouterConfig, RouterError};
