//! Cluster-tier Prometheus metrics: routing volume, hedging, and
//! per-node membership health.
//!
//! Rendered separately from the per-node serve metrics — the router is
//! its own process with its own `/metrics` endpoint. Naming follows
//! the workspace rules enforced by `gobo lint`: `gobo_` prefix,
//! counters end in `_total`, histograms in `_us`.

use std::sync::atomic::{AtomicU64, Ordering};

use gobo_obs::hist::FamilyKind::{Counter, Gauge};
use gobo_obs::hist::{escape_label, render_family_header, render_scalars, Histogram};

/// Counters, gauges, and the route-latency histogram of one router.
#[derive(Debug, Default)]
pub struct ClusterMetrics {
    /// Requests routed (one per client request, however many attempts).
    pub requests: AtomicU64,
    /// Requests that ultimately failed.
    pub errors: AtomicU64,
    /// Hedge backups fired after the hedge delay elapsed.
    pub hedge_fires: AtomicU64,
    /// Requests won by a hedge backup rather than the primary.
    pub hedge_wins: AtomicU64,
    /// Failovers to the next replica after a retryable failure.
    pub failovers: AtomicU64,
    /// Connections opened to nodes: one per pool miss or stale-connection
    /// retry, so it stays near the node count however many requests ran.
    pub connects: AtomicU64,
    /// Consistent-hash ring rebuilds (membership/health transitions).
    pub ring_rebuilds: AtomicU64,
    /// Heartbeats sent.
    pub heartbeats: AtomicU64,
    /// Heartbeats that failed or timed out.
    pub heartbeat_failures: AtomicU64,
    /// Healthy→dead transitions.
    pub mark_dead: AtomicU64,
    /// Dead→healthy transitions.
    pub mark_alive: AtomicU64,
    /// Requests routed preferentially to a node under canary trial.
    pub canary_requests: AtomicU64,
    /// Canary trials that ended in promotion (clean window).
    pub canary_promotions: AtomicU64,
    /// Canary trials rolled back (attempt failure or p95 regression).
    pub canary_rollbacks: AtomicU64,
    /// End-to-end route latency of successful requests, microseconds.
    pub route_us: Histogram,
}

/// One row of the per-node health block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeHealthSample {
    /// Logical node id (stable across restarts; not the address).
    pub id: String,
    /// Whether the router currently considers the node healthy.
    pub healthy: bool,
    /// Whether the node reported draining in its last heartbeat ack.
    pub draining: bool,
    /// Queue depth from the last heartbeat ack.
    pub queue_depth: u64,
}

impl ClusterMetrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Renders the Prometheus text exposition. `nodes` supplies the
    /// per-node health block (labelled by logical id, never by
    /// address, so scrapes stay stable across port changes).
    pub fn render(&self, nodes: &[NodeHealthSample]) -> String {
        use std::fmt::Write as _;
        let v = |value: &AtomicU64| value.load(Ordering::Relaxed);
        let healthy = nodes.iter().filter(|n| n.healthy).count() as u64;
        let down = nodes.iter().filter(|n| !n.healthy).count() as u64;
        let draining = nodes.iter().filter(|n| n.draining).count() as u64;
        // One row per scalar family, in exposition order; both
        // `tests/golden/metrics_schema.txt` and the `gobo lint` naming
        // rule read the result.
        #[rustfmt::skip]
        let scalars = [
            (Counter, "gobo_cluster_requests_total", "requests routed", v(&self.requests)),
            (Counter, "gobo_cluster_errors_total", "requests that ultimately failed", v(&self.errors)),
            (Counter, "gobo_cluster_hedge_fires_total", "hedge backups fired after the hedge delay", v(&self.hedge_fires)),
            (Counter, "gobo_cluster_hedge_wins_total", "requests won by a hedge backup", v(&self.hedge_wins)),
            (Counter, "gobo_cluster_failovers_total", "failovers to the next replica after a retryable failure", v(&self.failovers)),
            (Counter, "gobo_cluster_node_connects_total", "connections opened to nodes (pool misses and stale-connection retries)", v(&self.connects)),
            (Counter, "gobo_cluster_ring_rebuilds_total", "consistent-hash ring rebuilds", v(&self.ring_rebuilds)),
            (Counter, "gobo_cluster_heartbeats_total", "heartbeats sent", v(&self.heartbeats)),
            (Counter, "gobo_cluster_heartbeat_failures_total", "heartbeats that failed or timed out", v(&self.heartbeat_failures)),
            (Counter, "gobo_cluster_mark_dead_total", "healthy-to-dead membership transitions", v(&self.mark_dead)),
            (Counter, "gobo_cluster_mark_alive_total", "dead-to-healthy membership transitions", v(&self.mark_alive)),
            (Counter, "gobo_cluster_canary_requests_total", "requests routed preferentially to a node under canary trial", v(&self.canary_requests)),
            (Counter, "gobo_cluster_canary_promotions_total", "canary trials that ended in promotion", v(&self.canary_promotions)),
            (Counter, "gobo_cluster_canary_rollbacks_total", "canary trials rolled back on failure or p95 regression", v(&self.canary_rollbacks)),
            (Gauge, "gobo_cluster_nodes", "cluster members known to the router", nodes.len() as u64),
            (Gauge, "gobo_cluster_nodes_healthy", "members currently marked healthy", healthy),
            (Gauge, "gobo_cluster_node_down", "members currently marked dead", down),
            (Gauge, "gobo_cluster_nodes_draining", "members reporting draining", draining),
        ];
        let mut out = String::with_capacity(2048);
        render_scalars(&scalars, &mut out);

        render_family_header(
            Gauge,
            "gobo_cluster_node_healthy",
            "per-node health (1 healthy, 0 dead)",
            &mut out,
        );
        for node in nodes {
            let _ = writeln!(
                out,
                "gobo_cluster_node_healthy{{node=\"{}\"}} {}",
                escape_label(&node.id),
                u64::from(node.healthy)
            );
        }
        render_family_header(
            Gauge,
            "gobo_cluster_node_queue_depth",
            "per-node queue depth from the last heartbeat",
            &mut out,
        );
        for node in nodes {
            let _ = writeln!(
                out,
                "gobo_cluster_node_queue_depth{{node=\"{}\"}} {}",
                escape_label(&node.id),
                node.queue_depth
            );
        }

        self.route_us.render_prometheus(
            "gobo_cluster_route_us",
            "end-to-end routed request latency (us)",
            &[],
            &mut out,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_all_families_and_labels() {
        let m = ClusterMetrics::new();
        m.requests.fetch_add(10, Ordering::Relaxed);
        m.hedge_fires.fetch_add(2, Ordering::Relaxed);
        m.canary_rollbacks.fetch_add(1, Ordering::Relaxed);
        m.route_us.observe(1500);
        let nodes = vec![
            NodeHealthSample { id: "n1".into(), healthy: true, draining: false, queue_depth: 3 },
            NodeHealthSample { id: "n2".into(), healthy: false, draining: false, queue_depth: 0 },
        ];
        let text = m.render(&nodes);
        assert!(text.contains("gobo_cluster_requests_total 10"), "{text}");
        assert!(text.contains("gobo_cluster_hedge_fires_total 2"), "{text}");
        assert!(text.contains("gobo_cluster_canary_requests_total 0"), "{text}");
        assert!(text.contains("gobo_cluster_canary_rollbacks_total 1"), "{text}");
        assert!(text.contains("gobo_cluster_node_down 1"), "{text}");
        assert!(text.contains("gobo_cluster_node_healthy{node=\"n1\"} 1"), "{text}");
        assert!(text.contains("gobo_cluster_node_healthy{node=\"n2\"} 0"), "{text}");
        assert!(text.contains("gobo_cluster_node_queue_depth{node=\"n1\"} 3"), "{text}");
        assert!(text.contains("gobo_cluster_route_us_count 1"), "{text}");
        // Every TYPE line is gobo_-prefixed (the lint naming rule).
        for line in text.lines().filter(|l| l.starts_with("# TYPE")) {
            assert!(line.contains("gobo_cluster_"), "{line}");
        }
    }
}
