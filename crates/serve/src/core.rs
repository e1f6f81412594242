//! The serving core: registry + scheduler + metrics behind one handle,
//! plus the in-process [`Client`] that tests and benchmarks use to
//! bypass the socket entirely.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gobo::format::CompressedModel;

use crate::error::ServeError;
use crate::lifecycle::CanaryPolicy;
use crate::metrics::Metrics;
use crate::registry::{ModelEntry, ModelRegistry, RegistryConfig, RevState};
use crate::scheduler::{EncodeRequest, EncodeResponse, Scheduler, SchedulerConfig};

/// Combined configuration for a serving core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeOptions {
    /// Registry residency limits.
    pub registry: RegistryConfig,
    /// Scheduling and batching parameters.
    pub scheduler: SchedulerConfig,
    /// Canary routing and verdict policy for published revisions.
    pub lifecycle: CanaryPolicy,
}

/// Registry, scheduler, and metrics wired together. The HTTP front end
/// and the in-process [`Client`] are both thin layers over this.
pub struct ServeCore {
    metrics: Arc<Metrics>,
    registry: Arc<ModelRegistry>,
    scheduler: Scheduler,
}

impl ServeCore {
    /// Starts the worker pool and returns the shared core handle.
    pub fn start(options: ServeOptions) -> Arc<ServeCore> {
        let metrics = Arc::new(Metrics::new());
        let registry = Arc::new(ModelRegistry::new(options.registry, Arc::clone(&metrics)));
        let scheduler = Scheduler::start(
            options.scheduler,
            Arc::clone(&registry),
            options.lifecycle,
            Arc::clone(&metrics),
        );
        Arc::new(ServeCore { metrics, registry, scheduler })
    }

    /// The model registry.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// Publishes a new revision of `name` from a `.gobom` file through
    /// the canary lifecycle — the admin path behind `POST /v1/reload`
    /// and `gobo reload`. The container's CRC is validated before the
    /// registry is touched; a rejected reload (unreadable file, corrupt
    /// container, armed `registry.load`/`registry.decode`/
    /// `registry.swap` failpoint) leaves serving untouched and counts
    /// in `gobo_serve_reload_rejected_total`.
    ///
    /// # Errors
    ///
    /// Everything [`ModelRegistry::publish_file`] rejects.
    pub fn reload(
        &self,
        name: &str,
        path: &str,
    ) -> Result<(Arc<ModelEntry>, RevState), ServeError> {
        match self.registry.publish_file(name, path) {
            Ok(published) => {
                self.metrics.reloads.fetch_add(1, Ordering::Relaxed);
                Ok(published)
            }
            Err(e) => {
                self.metrics.reload_rejected.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// The request scheduler.
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// The metric set.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Drains the queue and stops the worker pool (idempotent).
    pub fn shutdown(&self) {
        self.scheduler.shutdown();
    }

    /// The laws the counters obey once nothing is in flight, so call it
    /// after [`ServeCore::shutdown`]:
    ///
    /// * every admitted request was answered exactly once —
    ///   `encode_requests = encode_ok + encode_failed + Σ rejected_*`;
    /// * `batched_requests` is the sum of the batch sizes workers took: a
    ///   request taken in a batch ends as ok, failed, or (expired between
    ///   the take and the forward) a deadline rejection, so the sum lies
    ///   between `ok + failed` and `ok + failed + rejected_deadline` — an
    ///   equality whenever no deadline expired;
    /// * no batch exceeded `max_batch`, and none was empty;
    /// * every caught worker panic was followed by one respawn —
    ///   `worker_respawns = worker_panics` (a drain ends the backoff in
    ///   between at once, so no worker exits owing one);
    /// * the queue is empty, by the gauge and by the queue itself;
    /// * the registry's bytes agree three ways: the `gobo_registry_bytes`
    ///   gauge, [`ModelRegistry::resident_bytes`] and the sum of the
    ///   resident rows of [`ModelRegistry::status`].
    ///
    /// # Errors
    ///
    /// The first law that does not hold, with the numbers that break it.
    pub fn check_counter_laws(&self) -> Result<(), String> {
        let m = &self.metrics;
        let v = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let (ok, failed, expired) = (v(&m.encode_ok), v(&m.encode_failed), v(&m.rejected_deadline));
        let (requests, batched) = (v(&m.encode_requests), v(&m.batched_requests));
        let answered = ok + failed + expired + v(&m.rejected_queue_full) + v(&m.rejected_shutdown);
        let max_batch = self.scheduler.config().max_batch.max(1) as u64;
        let (gauge, total) = (v(&m.registry_bytes), self.registry.resident_bytes() as u64);
        let rows: usize = self.registry.status().iter().map(|s| s.resident_bytes).sum();
        let broken = if requests != answered {
            format!("requests in {requests} != answers out {answered}:\n{}", m.render())
        } else if !(ok + failed..=ok + failed + expired).contains(&batched) {
            format!("batched_requests {batched} vs ok {ok} + failed {failed} (+ up to {expired} expired)")
        } else if v(&m.batches) > batched {
            format!(
                "an empty batch was dispatched: {} batches of {batched} requests",
                v(&m.batches)
            )
        } else if v(&m.batch_size_max) > max_batch {
            format!("batch_size_max {} > max_batch {max_batch}", v(&m.batch_size_max))
        } else if v(&m.worker_respawns) != v(&m.worker_panics) {
            format!(
                "worker_respawns {} != worker_panics {}",
                v(&m.worker_respawns),
                v(&m.worker_panics)
            )
        } else if v(&m.queue_depth) != 0 || self.scheduler.queue_depth() != 0 {
            format!(
                "queue not empty: gauge {}, queue {}",
                v(&m.queue_depth),
                self.scheduler.queue_depth()
            )
        } else if gauge != total || total != rows as u64 {
            format!("registry bytes: gauge {gauge}, registry {total}, Σ status rows {rows}")
        } else {
            return Ok(());
        };
        Err(broken)
    }
}

/// In-process client: same registry, scheduler, and metrics as the
/// HTTP front end, without the socket.
#[derive(Clone)]
pub struct Client {
    core: Arc<ServeCore>,
}

impl Client {
    /// Creates a client over a running core.
    pub fn new(core: Arc<ServeCore>) -> Self {
        Client { core }
    }

    /// Submits a request and waits for its reply.
    ///
    /// # Errors
    ///
    /// Admission rejections, deadline expiry, or inference failures —
    /// see [`crate::scheduler::Scheduler::encode_blocking`].
    pub fn encode(&self, req: EncodeRequest) -> Result<EncodeResponse, ServeError> {
        self.core.scheduler.encode_blocking(req)
    }

    /// Registers an in-memory compressed model under `name`.
    ///
    /// # Errors
    ///
    /// Propagates registry failures.
    pub fn register(
        &self,
        name: &str,
        compressed: CompressedModel,
    ) -> Result<Arc<ModelEntry>, ServeError> {
        self.core.registry.insert(name, compressed)
    }

    /// Resident models, most recently used first.
    pub fn models(&self) -> Vec<Arc<ModelEntry>> {
        self.core.registry.list()
    }

    /// The underlying core handle.
    pub fn core(&self) -> &Arc<ServeCore> {
        &self.core
    }
}
