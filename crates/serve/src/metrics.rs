//! Serving metrics: lock-free counters and latency histograms rendered
//! in Prometheus text exposition format at `GET /metrics`.

use std::sync::atomic::{AtomicU64, Ordering};

use gobo_obs::hist::FamilyKind::{Counter, Gauge};
use gobo_obs::hist::{render_family_header, render_scalars, Histogram};

/// Counter/gauge/histogram set shared by the scheduler, registry, and
/// front end.
///
/// All fields are monotone counters except six gauges (`queue_depth`,
/// `queue_depth_peak`, `batch_size_max`, `registry_models`,
/// `registry_bytes`, `registry_draining`) and the two latency
/// [`Histogram`]s — everything is updated with relaxed atomics since no
/// cross-field consistency is required.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Total HTTP requests accepted by the front end (all routes).
    pub http_requests: AtomicU64,
    /// Encode requests submitted (HTTP and in-process clients).
    pub encode_requests: AtomicU64,
    /// Encode requests completed successfully.
    pub encode_ok: AtomicU64,
    /// Requests rejected because the admission queue was full.
    pub rejected_queue_full: AtomicU64,
    /// Requests rejected because their deadline expired in the queue.
    pub rejected_deadline: AtomicU64,
    /// Requests rejected during shutdown.
    pub rejected_shutdown: AtomicU64,
    /// Requests that failed inference (invalid input, unknown model).
    pub encode_failed: AtomicU64,
    /// HTTP requests rejected because their body exceeded the limit.
    pub rejected_body_too_large: AtomicU64,
    /// Panics a worker caught while taking or executing a batch.
    pub worker_panics: AtomicU64,
    /// Times a worker went on after a panic and its backoff (it heals
    /// in place; the name is from when a fresh thread replaced it).
    pub worker_respawns: AtomicU64,
    /// Current admission-queue depth (gauge).
    pub queue_depth: AtomicU64,
    /// High-water mark of the admission queue.
    pub queue_depth_peak: AtomicU64,
    /// Batches executed by workers.
    pub batches: AtomicU64,
    /// Requests carried inside executed batches (Σ batch sizes).
    pub batched_requests: AtomicU64,
    /// Largest batch executed so far.
    pub batch_size_max: AtomicU64,
    /// End-to-end latency of completed encodes, microseconds. Rendered
    /// as the `gobo_serve_latency_us` histogram (its `_sum` series
    /// carries what the old `gobo_latency_us_sum` counter did).
    pub latency_us: Histogram,
    /// Time completed encodes spent queued, microseconds. Rendered as
    /// the `gobo_serve_queue_wait_us` histogram.
    pub queue_wait_us: Histogram,
    /// Models currently resident in the registry (gauge).
    pub registry_models: AtomicU64,
    /// Bytes the registry's models occupy in memory (gauge).
    pub registry_bytes: AtomicU64,
    /// Models evicted from the registry under the byte budget.
    pub registry_evictions: AtomicU64,
    /// Model revisions currently draining — replaced but still pinned
    /// by in-flight batches (gauge).
    pub registry_draining: AtomicU64,
    /// Draining model revisions retired after their refcount drained.
    pub registry_retired: AtomicU64,
    /// Batches routed to a canary revision.
    pub canary_batches: AtomicU64,
    /// Canary batches that failed and fell back to the active revision.
    pub canary_errors: AtomicU64,
    /// Canary revisions promoted to active after a clean window.
    pub canary_promotions: AtomicU64,
    /// Canary revisions rolled back on errors or latency regression.
    pub canary_rollbacks: AtomicU64,
    /// Successful `POST /v1/reload` publishes.
    pub reloads: AtomicU64,
    /// `POST /v1/reload` requests rejected before touching the registry.
    pub reload_rejected: AtomicU64,
}

impl Metrics {
    /// Creates a zeroed metric set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments the queue-depth gauge and tracks its high-water mark.
    pub fn queue_push(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Decrements the queue-depth gauge.
    pub fn queue_pop(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records an executed batch of `size` requests.
    pub fn record_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests.fetch_add(size as u64, Ordering::Relaxed);
        self.batch_size_max.fetch_max(size as u64, Ordering::Relaxed);
    }

    /// Records a completed encode with its end-to-end and queue-wait
    /// latencies.
    pub fn record_encode_ok(&self, latency_us: u64, queue_wait_us: u64) {
        self.encode_ok.fetch_add(1, Ordering::Relaxed);
        self.latency_us.observe(latency_us);
        self.queue_wait_us.observe(queue_wait_us);
    }

    /// Renders the Prometheus text exposition.
    pub fn render(&self) -> String {
        let v = |value: &AtomicU64| value.load(Ordering::Relaxed);
        // One row per scalar family, in exposition order; both
        // `tests/golden/metrics_schema.txt` and the `gobo lint` naming
        // rule read the result.
        #[rustfmt::skip]
        let scalars = [
            (Counter, "gobo_http_requests_total", "HTTP requests accepted by the front end", v(&self.http_requests)),
            (Counter, "gobo_encode_requests_total", "encode requests submitted", v(&self.encode_requests)),
            (Counter, "gobo_encode_ok_total", "encode requests completed successfully", v(&self.encode_ok)),
            (Counter, "gobo_rejected_queue_full_total", "requests rejected at admission (queue full)", v(&self.rejected_queue_full)),
            (Counter, "gobo_rejected_deadline_total", "requests rejected after deadline expiry", v(&self.rejected_deadline)),
            (Counter, "gobo_rejected_shutdown_total", "requests rejected during shutdown", v(&self.rejected_shutdown)),
            (Counter, "gobo_encode_failed_total", "encode requests that failed inference", v(&self.encode_failed)),
            (Counter, "gobo_rejected_body_too_large_total", "HTTP requests rejected for an oversized body", v(&self.rejected_body_too_large)),
            (Counter, "gobo_worker_panics_total", "panics a worker caught while taking or executing a batch", v(&self.worker_panics)),
            (Counter, "gobo_worker_respawns_total", "times a worker went on after a panic, healed in place", v(&self.worker_respawns)),
            (Counter, "gobo_batches_total", "worker batches executed", v(&self.batches)),
            (Counter, "gobo_batched_requests_total", "requests carried in executed batches", v(&self.batched_requests)),
            (Counter, "gobo_registry_evictions_total", "models evicted under the registry byte budget", v(&self.registry_evictions)),
            (Counter, "gobo_registry_retired_total", "draining model revisions retired after their refcount drained", v(&self.registry_retired)),
            (Counter, "gobo_serve_canary_batches_total", "batches routed to a canary revision", v(&self.canary_batches)),
            (Counter, "gobo_serve_canary_errors_total", "canary batches that failed and fell back to the active revision", v(&self.canary_errors)),
            (Counter, "gobo_serve_canary_promotions_total", "canary revisions promoted to active after a clean window", v(&self.canary_promotions)),
            (Counter, "gobo_serve_canary_rollbacks_total", "canary revisions rolled back on errors or latency regression", v(&self.canary_rollbacks)),
            (Counter, "gobo_serve_reloads_total", "successful reload publishes", v(&self.reloads)),
            (Counter, "gobo_serve_reload_rejected_total", "reload requests rejected before touching the registry", v(&self.reload_rejected)),
            (Gauge, "gobo_queue_depth", "current admission queue depth", v(&self.queue_depth)),
            // High-water marks (maintained via fetch_max) are gauges, not
            // counters: they can be reset and never carry rate semantics.
            (Gauge, "gobo_batch_size_max", "largest batch executed", v(&self.batch_size_max)),
            (Gauge, "gobo_queue_depth_peak", "admission queue high-water mark", v(&self.queue_depth_peak)),
            (Gauge, "gobo_registry_models", "models resident in the registry", v(&self.registry_models)),
            (Gauge, "gobo_registry_bytes", "bytes resident in the registry (packed layers + FP32 tensors)", v(&self.registry_bytes)),
            (Gauge, "gobo_registry_draining", "model revisions draining behind in-flight batches", v(&self.registry_draining)),
        ];
        let mut out = String::with_capacity(1600);
        render_scalars(&scalars, &mut out);
        // Batch amortization: average requests carried per executed
        // batch — how many activation rows each packed-block decode was
        // amortized over. Derived at render time from the two counters,
        // so it needs no extra atomic and stays consistent with them.
        let batches = v(&self.batches);
        let batched = v(&self.batched_requests);
        let amortization = if batches == 0 { 0.0 } else { batched as f64 / batches as f64 };
        render_family_header(
            Gauge,
            "gobo_serve_batch_amortization",
            "average requests per executed batch",
            &mut out,
        );
        out.push_str(&format!("gobo_serve_batch_amortization {amortization}\n"));
        self.latency_us.render_prometheus(
            "gobo_serve_latency_us",
            "end-to-end encode latency (us)",
            &[],
            &mut out,
        );
        self.queue_wait_us.render_prometheus(
            "gobo_serve_queue_wait_us",
            "queue-wait time of completed encodes (us)",
            &[],
            &mut out,
        );
        // Sanitizer series appear only when GOBO_SANITIZE is on — an
        // env-dependent debug section, excluded from the golden schema
        // (see tests/observability.rs).
        if gobo_sanitize::enabled() {
            gobo_sanitize::render_prometheus(&mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_reflects_updates() {
        let m = Metrics::new();
        m.http_requests.fetch_add(3, Ordering::Relaxed);
        m.queue_push();
        m.queue_push();
        m.queue_pop();
        m.record_batch(4);
        m.record_batch(7);
        m.record_encode_ok(1500, 300);
        let text = m.render();
        assert!(text.contains("gobo_http_requests_total 3"));
        assert!(text.contains("gobo_queue_depth 1"));
        assert!(text.contains("gobo_queue_depth_peak 2"));
        assert!(text.contains("gobo_batches_total 2"));
        assert!(text.contains("gobo_batched_requests_total 11"));
        assert!(text.contains("gobo_batch_size_max 7"));
        assert!(text.contains("gobo_serve_batch_amortization 5.5"));
        assert!(text.contains("gobo_serve_latency_us_sum 1500"));
        assert!(text.contains("gobo_serve_latency_us_count 1"));
        assert!(text.contains("gobo_serve_queue_wait_us_sum 300"));
        assert!(text.contains("gobo_serve_latency_us_bucket{le=\"2000\"} 1"));
        assert!(text.contains("gobo_serve_latency_us_bucket{le=\"+Inf\"} 1"));
        // Prometheus exposition shape: HELP+TYPE precede every sample.
        assert_eq!(text.matches("# TYPE").count(), text.matches("# HELP").count());
    }

    /// The queue-depth high-water mark must survive racing pushes: a
    /// plain load-compare-store would lose updates, `fetch_max` cannot.
    #[test]
    fn queue_depth_peak_is_exact_under_contention() {
        use std::sync::Arc;
        let m = Arc::new(Metrics::new());
        let threads = 8;
        let per_thread = 1000;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        m.queue_push();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Nothing popped, so the peak equals the final depth exactly.
        assert_eq!(m.queue_depth.load(Ordering::Relaxed), threads * per_thread);
        assert_eq!(m.queue_depth_peak.load(Ordering::Relaxed), threads * per_thread);
    }
}
