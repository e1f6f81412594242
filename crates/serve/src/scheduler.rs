//! Request scheduling: bounded admission, worker pool, fair-share
//! batching, deadlines, graceful drain.
//!
//! Requests enter a bounded FIFO admission queue (overflow is
//! *rejected*, never blocked on). A free worker takes at once, in one
//! sweep under the state lock, the oldest live request plus the oldest
//! requests of the same model/bits key, up to
//! `min(max_batch, ⌈R / workers⌉)` where `R` is how many requests are
//! queued for that key at that moment (`share` below). A lone request
//! goes alone; a backlog that built up behind busy workers is split into
//! full and fair batches. The take is one atomic sweep, so there is
//! nothing to own between two lock acquisitions and no per-key claim.
//!
//! The scheduler has no timer: a worker sleeps only after a sweep under
//! the lock found the queue empty, so a push (which notifies after it
//! unlocks) is never missed (`tests/interleave.rs` checks that protocol
//! over every interleaving of up to four submitters and two workers).
//!
//! The batch resolves its model handle from the registry once, then
//! runs the **whole batch as one fused forward** through the
//! compute-on-compressed engine
//! ([`QuantizedEngine::encode_batch`]): archived FC layers execute the
//! one GEMM kernel, which decodes each packed weight block once per
//! batch instead of once per request. The blocked kernel is
//! bit-identical to decode-then-dense, so served outputs are
//! byte-identical to direct in-process [`TransformerModel::encode`]
//! calls at any batch size.
//!
//! [`QuantizedEngine::encode_batch`]: crate::engine::QuantizedEngine::encode_batch
//!
//! Every request carries a deadline; requests that expire while queued
//! are answered with [`ServeError::DeadlineExceeded`] the moment a
//! worker reaches them, and the submitting side additionally enforces
//! the deadline with a receive timeout so callers never hang on an
//! overloaded server.
//!
//! # Self-healing
//!
//! The scheduler is a queue, `workers` threads and one way out. A
//! worker runs `loop { catch_unwind(next_batch + execute_batch) }` for
//! its whole life. A panic anywhere in that — a model bug, an injected
//! `serve.encode` / `serve.batch` failpoint, the sweep itself — fails
//! only what is left of that worker's batch with
//! [`ServeError::WorkerPanic`] (HTTP 500, never a hang) and counts
//! `worker_panics_total`; the worker then **heals in place**:
//! `catch_unwind` has unwound its stack and the workspace's only
//! thread-locals (span stack, sanitizer held-lock list) are RAII
//! guards, so no other thread has to watch it. It waits out a capped
//! exponential backoff (5 ms doubling to 250 ms; a drain ends the wait)
//! that resets when it made progress — answered at least one request,
//! or ran a full second — so a data-dependent panic costs one base
//! delay while a crash loop backs off, then counts
//! `worker_respawns_total` under a `serve.respawn` span and goes on.
//! The pool is exactly `workers` threads from [`Scheduler::start`] to
//! [`Scheduler::shutdown`].
//!
//! Every request leaves through [`answer`], which keeps
//! `ServeCore::check_counter_laws` true at every exit.
//!
//! [`TransformerModel::encode`]: gobo_model::TransformerModel::encode

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;

use gobo_sanitize::{SanCondvar, SanMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gobo_model::batch::EncodeInput;

use crate::error::ServeError;
use crate::lifecycle::CanaryPolicy;
use crate::metrics::Metrics;
use crate::registry::{ModelEntry, ModelKey, ModelRegistry, Resolved};

/// Worker-pool and batching parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Worker threads executing batches.
    pub workers: usize,
    /// Largest batch a worker will take in one sweep: the bound on the
    /// activation panel one forward runs (and on how long the requests
    /// behind it wait for that worker).
    pub max_batch: usize,
    /// Admission-queue capacity; submissions beyond it are rejected
    /// with [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Duration,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: std::thread::available_parallelism().map_or(2, |n| n.get().min(8)),
            max_batch: 8,
            queue_capacity: 256,
            default_deadline: Duration::from_secs(5),
        }
    }
}

/// One inference request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodeRequest {
    /// Registered model name.
    pub model: String,
    /// Optional exact bit width (otherwise the most recently used
    /// registration under `model` serves).
    pub bits: Option<u8>,
    /// Token ids.
    pub ids: Vec<usize>,
    /// Segment ids; may be empty.
    pub type_ids: Vec<usize>,
    /// Per-request deadline; the scheduler default applies when absent.
    pub deadline: Option<Duration>,
}

impl EncodeRequest {
    /// A request for `model` over `ids` with library defaults.
    pub fn new(model: impl Into<String>, ids: Vec<usize>) -> Self {
        EncodeRequest { model: model.into(), bits: None, ids, type_ids: Vec::new(), deadline: None }
    }
}

/// One completed inference.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodeResponse {
    /// The model that served the request.
    pub model: ModelKey,
    /// Revision of the model that served the request — during a canary
    /// rollout this is the revision the batch actually ran on.
    pub rev: u64,
    /// Final hidden states, row-major `hidden_dims`.
    pub hidden: Vec<f32>,
    /// Shape of `hidden`: `(seq_len, hidden)`.
    pub hidden_dims: [usize; 2],
    /// Pooled first-token representation, when the model has a pooler.
    pub pooled: Option<Vec<f32>>,
    /// Size of the batch this request was executed in.
    pub batch_size: usize,
    /// Time spent queued before execution, microseconds: the wait for
    /// a free worker.
    pub queue_us: u64,
    /// Forward-pass time of the fused batch this request rode in,
    /// microseconds (shared by every request in the batch).
    pub compute_us: u64,
}

/// The response as the wire frame — and, field for field, the
/// `/v1/encode` body — carries it: everything but `rev`.
impl From<EncodeResponse> for gobo_proto::frame::EncodeOkFrame {
    fn from(response: EncodeResponse) -> Self {
        let wire = |v: usize| u32::try_from(v).unwrap_or(u32::MAX);
        gobo_proto::frame::EncodeOkFrame {
            model: response.model.name,
            bits: response.model.bits,
            dims: response.hidden_dims.iter().copied().map(wire).collect(),
            hidden: response.hidden,
            pooled: response.pooled,
            batch_size: wire(response.batch_size),
            queue_us: response.queue_us,
            compute_us: response.compute_us,
        }
    }
}

type Reply = Result<EncodeResponse, ServeError>;

struct Pending {
    req: EncodeRequest,
    enqueued: Instant,
    deadline: Instant,
    tx: SyncSender<Reply>,
    /// Who counts the request: the worker's [`answer`] and a blocking
    /// submitter's timeout both swap it, and only the swap that finds
    /// it unset counts — one count a request, whichever side answers.
    claim: Arc<AtomicBool>,
}

struct State {
    queue: VecDeque<Pending>,
    shutdown: bool,
    /// The pool, until [`Scheduler::shutdown`] takes it out to join it.
    workers: Vec<JoinHandle<()>>,
}

struct Shared {
    config: SchedulerConfig,
    registry: Arc<ModelRegistry>,
    /// How a slot's pending canary is routed to and judged.
    canary_policy: CanaryPolicy,
    metrics: Arc<Metrics>,
    /// Poisoning is recovered from, not propagated: a worker that
    /// panicked holding the lock leaves the queue popped-or-not, both
    /// valid, so one panic cannot wedge the whole scheduler.
    state: SanMutex<State>,
    cvar: SanCondvar,
}

/// Smallest delay before a panicked worker goes on.
const RESPAWN_BACKOFF_BASE: Duration = Duration::from_millis(5);
/// Largest delay before a panicked worker goes on.
const RESPAWN_BACKOFF_CAP: Duration = Duration::from_millis(250);
/// A worker that ran this long since its last panic resets its backoff.
const RESPAWN_HEALTHY_AFTER: Duration = Duration::from_secs(1);
/// How far past its deadline a blocking submitter still listens:
/// workers answer every request they take (expired ones included), so
/// this only covers scheduling noise between their reply and our wake.
const REPLY_GRACE: Duration = Duration::from_millis(250);

/// The admission queue and its worker pool.
pub struct Scheduler {
    shared: Arc<Shared>,
}

impl Scheduler {
    /// Starts the worker pool.
    pub fn start(
        config: SchedulerConfig,
        registry: Arc<ModelRegistry>,
        canary_policy: CanaryPolicy,
        metrics: Arc<Metrics>,
    ) -> Self {
        let shared = Arc::new(Shared {
            config,
            registry,
            canary_policy,
            metrics,
            state: SanMutex::new(
                "serve.scheduler.state",
                20,
                State { queue: VecDeque::new(), shutdown: false, workers: Vec::new() },
            ),
            cvar: SanCondvar::new("serve.scheduler.cvar"),
        });
        let workers: Vec<_> =
            (0..config.workers.max(1)).filter_map(|i| spawn_worker(&shared, i)).collect();
        // A pool nobody works for is a pool that is shut: it refuses
        // admission instead of queueing work nobody will take.
        let mut state = shared.state.lock();
        state.shutdown = workers.is_empty();
        state.workers = workers;
        drop(state);
        Scheduler { shared }
    }

    /// The scheduler's configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.shared.config
    }

    /// Admits a request, returning the channel its reply will arrive
    /// on. Rejects immediately — never blocks — when the queue is full
    /// or the scheduler is draining.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] at capacity, [`ServeError::ShuttingDown`]
    /// after [`Scheduler::shutdown`] began.
    pub fn submit(&self, req: EncodeRequest) -> Result<Receiver<Reply>, ServeError> {
        self.admit(req).map(|(rx, _)| rx)
    }

    /// [`Scheduler::submit`], also handing back the request's claim.
    fn admit(&self, req: EncodeRequest) -> Result<(Receiver<Reply>, Arc<AtomicBool>), ServeError> {
        gobo_fault::fail_point!(
            "serve.admission",
            ServeError::Internal("injected admission fault")
        );
        let metrics = &self.shared.metrics;
        metrics.encode_requests.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        let deadline = now + req.deadline.unwrap_or(self.shared.config.default_deadline);
        let (tx, rx) = sync_channel(1);
        let claim = Arc::new(AtomicBool::new(false));
        {
            let mut state = self.shared.state.lock();
            if state.shutdown {
                metrics.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::ShuttingDown);
            }
            if state.queue.len() >= self.shared.config.queue_capacity {
                metrics.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::QueueFull);
            }
            let pending = Pending { req, enqueued: now, deadline, tx, claim: Arc::clone(&claim) };
            state.queue.push_back(pending);
            metrics.queue_push();
        }
        self.shared.cvar.notify_all();
        Ok((rx, claim))
    }

    /// Submits and waits for the reply, enforcing the deadline on the
    /// waiting side as well so the caller cannot hang past it.
    ///
    /// # Errors
    ///
    /// Admission rejections from [`Scheduler::submit`], worker-side
    /// failures, or [`ServeError::DeadlineExceeded`].
    pub fn encode_blocking(&self, req: EncodeRequest) -> Result<EncodeResponse, ServeError> {
        let deadline = req.deadline.unwrap_or(self.shared.config.default_deadline);
        let (rx, claim) = self.admit(req)?;
        let lost = || Err(ServeError::Internal("worker reply lost"));
        match rx.recv_timeout(deadline + REPLY_GRACE) {
            Ok(reply) => reply,
            // ORDERING: AcqRel — the two swaps are read-modify-writes of
            // one location, so exactly one finds it unset at any
            // ordering; the reply itself is published by the channel.
            Err(RecvTimeoutError::Timeout) if claim.swap(true, Ordering::AcqRel) => {
                // The worker claimed first: its reply is counted, and
                // sent right after the claim.
                rx.recv().unwrap_or_else(|_| lost())
            }
            Err(RecvTimeoutError::Timeout) => {
                self.shared.metrics.rejected_deadline.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::DeadlineExceeded)
            }
            Err(RecvTimeoutError::Disconnected) => lost(),
        }
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().queue.len()
    }

    /// Graceful shutdown: stop admitting, let the workers drain the
    /// queue (expired requests rejected, live ones served), join them,
    /// and answer whatever a dead worker left queued with
    /// [`ServeError::ShuttingDown`]. Idempotent: only the call that
    /// took the pool joins it.
    pub fn shutdown(&self) {
        let workers = {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
            std::mem::take(&mut state.workers)
        };
        self.shared.cvar.notify_all();
        if workers.is_empty() {
            return;
        }
        for worker in workers {
            let _ = worker.join();
        }
        let mut state = self.shared.state.lock();
        while let Some(p) = state.queue.pop_front() {
            self.shared.metrics.queue_pop();
            answer(&self.shared, p, Err(ServeError::ShuttingDown));
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn respawn_backoff(strikes: u32) -> Duration {
    RESPAWN_BACKOFF_BASE.saturating_mul(1u32 << strikes.min(8)).min(RESPAWN_BACKOFF_CAP)
}

/// Sleeps out the backoff for `strikes` where a drain ends it at once.
fn back_off(shared: &Shared, strikes: u32) {
    let state = shared.state.lock();
    let _ = shared.cvar.wait_timeout_while(state, respawn_backoff(strikes), |s| !s.shutdown);
}

/// Spawns worker `index`, retrying a spawn the OS refuses under the
/// respawn backoff up to its cap (seven attempts, ≈ 0.6 s in all).
fn spawn_worker(shared: &Arc<Shared>, index: usize) -> Option<JoinHandle<()>> {
    (0..=6).find_map(|strikes| {
        if strikes > 0 {
            back_off(shared, strikes);
        }
        let worker = Arc::clone(shared);
        let name = format!("gobo-serve-worker-{index}");
        std::thread::Builder::new().name(name).spawn(move || worker_main(&worker, index)).ok()
    })
}

/// The one way a request leaves the scheduler. Picks the counter from
/// the reply and counts *before* sending, so the counters lead the
/// reply — unless a blocking submitter gave up at its deadline and won
/// the request's claim first: then it has counted, and this does not.
fn answer(shared: &Shared, p: Pending, reply: Reply) {
    // ORDERING: AcqRel — see `Scheduler::encode_blocking`.
    if !p.claim.swap(true, Ordering::AcqRel) {
        let m = &shared.metrics;
        match &reply {
            Ok(r) => m.record_encode_ok(r.queue_us + r.compute_us, r.queue_us),
            Err(e) => {
                let refused = match e {
                    ServeError::DeadlineExceeded => &m.rejected_deadline,
                    ServeError::ShuttingDown => &m.rejected_shutdown,
                    _ => &m.encode_failed,
                };
                refused.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    let _ = p.tx.send(reply);
}

/// Worker body, for the worker's whole life: take a batch and execute
/// it, both under `catch_unwind`. The batch lives outside that call, so
/// after a panic — in the forward, a failpoint or the sweep — what is
/// left of it is answered [`ServeError::WorkerPanic`], not dropped, and
/// the worker backs off and goes on. Returns once the queue is drained.
fn worker_main(shared: &Shared, index: usize) {
    let mut batch: Vec<Pending> = Vec::new();
    // Consecutive panics without progress, and the progress — requests
    // answered, time run — since the last one.
    let (mut strikes, mut answered, mut since) = (0u32, 0usize, Instant::now());
    loop {
        let mut taken = 0;
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let more = next_batch(shared, &mut batch);
            taken = batch.len();
            execute_batch(shared, &mut batch); // of nothing, when `!more`
            more
        }));
        // `execute_batch` keeps each request in the batch until its
        // reply is computed, so everything removed was answered.
        answered += taken.saturating_sub(batch.len());
        if ran.is_err() {
            shared.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
        }
        // Only a panic leaves anything here; the next sweep starts empty.
        for p in batch.drain(..) {
            answer(shared, p, Err(ServeError::WorkerPanic));
        }
        match ran {
            Ok(true) => continue,
            Ok(false) => return,
            Err(_) => {}
        }
        // Progress means a data-dependent fault: base delay. A panic
        // before anything was answered is a crash loop: one more strike.
        let progressed = answered > 0 || since.elapsed() >= RESPAWN_HEALTHY_AFTER;
        strikes = if progressed { 0 } else { strikes.saturating_add(1) };
        back_off(shared, strikes);
        let _span = gobo_obs::span!("serve.respawn", worker = index, strikes = strikes);
        shared.metrics.worker_respawns.fetch_add(1, Ordering::Relaxed);
        (answered, since) = (0, Instant::now());
    }
}

/// How many of the `queued` requests of one key a worker takes in one
/// sweep: an equal split of what is queued *now* over the pool, capped
/// at `max_batch` (guided self-scheduling). A lone request goes alone,
/// `workers * max_batch` or more go in full batches, and in between
/// every worker that comes back finds a piece left — one worker taking
/// everything would idle the other cores for an oversized forward whose
/// per-token cost stopped falling long before `max_batch`.
fn share(queued: usize, workers: usize, max_batch: usize) -> usize {
    queued.div_ceil(workers.max(1)).min(max_batch.max(1))
}

/// Blocks until the queue holds work, then moves this worker's
/// [`share`] of it into `batch`. Every decision is a [`sweep`] under the
/// lock, repeated after every wake-up: the worker sleeps only out of a
/// sweep that found the queue empty. Returns `false` when shutdown is
/// requested and the queue is drained.
fn next_batch(shared: &Shared, batch: &mut Vec<Pending>) -> bool {
    let mut state = shared.state.lock();
    loop {
        if sweep(shared, &mut state, batch) {
            return true;
        }
        if state.shutdown {
            return false;
        }
        state = shared.cvar.wait_while(state, |s| s.queue.is_empty() && !s.shutdown);
    }
}

/// One atomic sweep of the admission queue: answers expired requests
/// where they sit, then moves the oldest live request into `batch`
/// together with the oldest requests of the same model/bits key,
/// [`share`] of them in all, in arrival order. Returns whether it took
/// a share; `false` means the queue is empty.
fn sweep(shared: &Shared, s: &mut State, batch: &mut Vec<Pending>) -> bool {
    let now = Instant::now();
    let mut i = 0;
    while let Some(p) = s.queue.get(i) {
        if now < p.deadline {
            i += 1;
        } else if let Some(p) = s.queue.remove(i) {
            shared.metrics.queue_pop();
            answer(shared, p, Err(ServeError::DeadlineExceeded));
        }
    }
    let same_key =
        |a: &Pending, b: &Pending| a.req.model == b.req.model && a.req.bits == b.req.bits;
    let Some(oldest) = s.queue.front() else {
        return false;
    };
    let queued = s.queue.iter().filter(|p| same_key(p, oldest)).count();
    let take = share(queued, shared.config.workers, shared.config.max_batch);
    let mut i = 0;
    while batch.len() < take {
        let Some(p) = s.queue.get(i) else { break };
        if batch.first().is_none_or(|oldest| same_key(oldest, p)) {
            batch.extend(s.queue.remove(i));
            shared.metrics.queue_pop();
        } else {
            i += 1;
        }
    }
    // Counted here, on dispatch, before anything can fail, so
    // `batched_requests` is exactly the sum of the batch sizes taken.
    shared.metrics.record_batch(batch.len());
    #[cfg(test)]
    assert!(batch.iter().all(|p| p.req.model != tests::SWEEP_PANICS), "gobo-fault: sweep panic");
    true
}

/// Executes a batch as **one fused forward**. Each request stays in
/// `batch` until its reply is computed and leaves it into [`answer`]:
/// the worker owns `batch`, so if this function panics (including via
/// the `serve.batch` / `serve.encode` failpoints) every unanswered
/// request is still answered.
///
/// Expired and invalid requests are answered individually in a
/// pre-pass, so one bad request never fails its batchmates; the
/// survivors then run through the compute-on-compressed engine in a
/// single [`QuantizedEngine::encode_batch`] call, which amortizes every
/// packed-block decode across the whole batch.
///
/// [`QuantizedEngine::encode_batch`]: crate::engine::QuantizedEngine::encode_batch
fn execute_batch(shared: &Shared, batch: &mut Vec<Pending>) {
    // A batch is one key by construction; its first request names it.
    let Some((model, bits)) = batch.first().map(|p| (p.req.model.clone(), p.req.bits)) else {
        return;
    };
    let model = model.as_str();
    let size = batch.len();
    let _batch_span = gobo_obs::span!("serve.batch", model = model, size = size);
    gobo_fault::fail_point!("serve.batch");
    // One lock for everything this batch needs from the registry: the
    // active revision and, when the slot has a canary on trial, the
    // trial's ticket — which decides whether this batch runs on it.
    let resolved = shared.registry.resolve(model, bits, &shared.canary_policy);
    let Ok(Resolved { active: entry, trial_rev, canary }) = resolved else {
        for p in batch.drain(..) {
            answer(shared, p, Err(ServeError::ModelNotFound { name: model.to_owned() }));
        }
        return;
    };

    // Pre-pass: answer expired or invalid requests individually so the
    // fused forward only sees sequences that will encode cleanly.
    let mut i = 0;
    while let Some(p) = batch.get(i) {
        let refusal = if Instant::now() >= p.deadline {
            Err(ServeError::DeadlineExceeded)
        } else {
            entry
                .engine
                .model()
                .validate_input(&p.req.ids, &p.req.type_ids)
                .map_err(ServeError::Model)
        };
        match refusal {
            Err(e) => answer(shared, batch.remove(i), Err(e)),
            Ok(()) => i += 1,
        }
    }
    if batch.is_empty() {
        return;
    }

    // Per-request encode spans and failpoints fire before the fused
    // forward, preserving the one-firing-per-request fault contract. A
    // panic here fails every request still in the batch.
    for p in batch.iter() {
        let _encode_span = gobo_obs::span!("serve.encode", tokens = p.req.ids.len());
        gobo_fault::fail_point!("serve.encode");
    }

    // The second and last lock: what the batch observed goes back to
    // the trial it was resolved under, named by `trial_rev`, and the
    // registry judges and applies the verdict there. A canary failure
    // (real or injected) is *never* client-visible: the batch
    // transparently re-runs on the active revision and the canary is
    // rolled back.
    let start = Instant::now();
    let report = |canary: bool, ok: bool| {
        let Some(rev) = trial_rev else { return };
        let us = ok.then(|| start.elapsed().as_micros() as u64);
        shared.registry.report(&entry.key, rev, &shared.canary_policy, canary, us);
    };
    let inputs: Vec<EncodeInput<'_>> =
        batch.iter().map(|p| EncodeInput { ids: &p.req.ids, type_ids: &p.req.type_ids }).collect();
    let (result, served) = match canary {
        Some(c) => {
            shared.metrics.canary_batches.fetch_add(1, Ordering::Relaxed);
            let _canary_span = gobo_obs::span!("gobo.canary", model = model, rev = c.rev);
            match canary_encode(&c, &inputs) {
                Ok(outputs) => {
                    report(true, true);
                    (Ok(outputs), c)
                }
                Err(_) => {
                    // Any canary-side error disqualifies the revision
                    // immediately; the active revision absorbs the
                    // batch so the client never observes the failure.
                    shared.metrics.canary_errors.fetch_add(1, Ordering::Relaxed);
                    report(true, false);
                    (entry.engine.encode_batch(&inputs), Arc::clone(&entry))
                }
            }
        }
        None => {
            let result = entry.engine.encode_batch(&inputs);
            // Feeds the baseline, and only while a verdict is pending.
            if result.is_ok() {
                report(false, true);
            }
            (result, Arc::clone(&entry))
        }
    };
    drop(inputs);
    let compute_us = start.elapsed().as_micros() as u64;

    match result {
        Ok(outputs) => {
            for out in outputs {
                let p = batch.remove(0);
                let queue_us = start.duration_since(p.enqueued).as_micros() as u64;
                let reply = match *out.hidden.dims() {
                    [d0, d1] => Ok(EncodeResponse {
                        model: served.key.clone(),
                        rev: served.rev,
                        hidden: out.hidden.into_vec(),
                        hidden_dims: [d0, d1],
                        pooled: out.pooled.map(|t| t.into_vec()),
                        batch_size: size,
                        queue_us,
                        compute_us,
                    }),
                    _ => Err(ServeError::Internal("hidden state is not rank 2")),
                };
                answer(shared, p, reply);
            }
        }
        Err(e) => {
            // Inputs were pre-validated, so this is a model-level
            // failure that applies to the whole fused batch equally.
            for p in batch.drain(..) {
                answer(shared, p, Err(ServeError::Model(e.clone())));
            }
        }
    }
}

/// Runs a batch on the canary revision. The `serve.canary` failpoint
/// injects a canary-side failure, which the caller treats exactly like
/// a real one: roll the revision back and re-run on the active
/// revision — the injected error itself never reaches a client.
fn canary_encode(
    canary: &ModelEntry,
    inputs: &[EncodeInput<'_>],
) -> Result<Vec<gobo_model::forward::EncoderOutput>, gobo_model::ModelError> {
    gobo_fault::fail_point!(
        "serve.canary",
        gobo_model::ModelError::InvalidInput { what: "injected serve.canary fault" }
    );
    canary.engine.encode_batch(inputs)
}

#[cfg(test)]
mod tests {
    use super::{respawn_backoff, share, EncodeRequest, SchedulerConfig};
    use crate::core::{Client, ServeCore, ServeOptions};
    use crate::error::ServeError;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    use std::time::Duration;

    /// Requests for this model make [`super::sweep`] panic once it has
    /// moved them into the worker's batch (test builds only).
    pub(super) const SWEEP_PANICS: &str = "the-sweep-panics";

    /// A panic inside the batching machinery costs what a panic in the
    /// forward costs: the batch the sweep had taken is answered
    /// `WorkerPanic` and counted — not dropped with its reply channels,
    /// "worker reply lost" — the worker heals and serves the next
    /// request, and the laws hold.
    #[test]
    fn a_panic_inside_the_sweep_fails_its_batch_as_worker_panic() {
        gobo_fault::install_panic_silencer();
        let core = ServeCore::start(ServeOptions {
            scheduler: SchedulerConfig { workers: 1, ..SchedulerConfig::default() },
            ..ServeOptions::default()
        });
        let client = Client::new(Arc::clone(&core));
        for _ in 0..3 {
            let reply = client.encode(EncodeRequest::new(SWEEP_PANICS, vec![1]));
            assert!(matches!(reply, Err(ServeError::WorkerPanic)), "{reply:?}");
        }
        let reply = client.encode(EncodeRequest::new("ghost", vec![1]));
        assert!(matches!(reply, Err(ServeError::ModelNotFound { .. })), "{reply:?}");
        core.shutdown();
        core.check_counter_laws().unwrap();
        let m = core.metrics();
        assert_eq!(m.worker_panics.load(Ordering::Relaxed), 3);
        assert_eq!(m.worker_respawns.load(Ordering::Relaxed), 3);
        assert_eq!(m.encode_failed.load(Ordering::Relaxed), 4);
    }

    /// A crash loop doubles the backoff from 5 ms per strike up to the
    /// 250 ms cap and stays there; the clamped shift keeps any strike
    /// count, however large, from overflowing.
    #[test]
    fn respawn_backoff_doubles_per_strike_up_to_the_cap() {
        let backoffs: Vec<Duration> = (0..8).map(respawn_backoff).collect();
        assert_eq!(backoffs, [5, 10, 20, 40, 80, 160, 250, 250].map(Duration::from_millis));
        assert_eq!(respawn_backoff(u32::MAX), Duration::from_millis(250));
    }

    /// The split rule over its whole operating range: a non-empty
    /// backlog always yields a non-empty batch no larger than the
    /// backlog or `max_batch`, and taking shares repeatedly off the
    /// front drains any backlog, oldest first, without skipping or
    /// repeating a request.
    #[test]
    fn share_is_bounded_and_drains_every_backlog_in_arrival_order() {
        for workers in [1usize, 2, 8] {
            for max_batch in [1usize, 8, 32] {
                assert_eq!(share(0, workers, max_batch), 0);
                for queued in 1..=70usize {
                    let first = share(queued, workers, max_batch);
                    assert!(
                        (1..=queued.min(max_batch)).contains(&first),
                        "share({queued}, {workers}, {max_batch}) = {first}"
                    );
                    let mut backlog: std::collections::VecDeque<usize> = (0..queued).collect();
                    let mut drained = Vec::new();
                    let mut sizes = Vec::new();
                    while !backlog.is_empty() {
                        let take = share(backlog.len(), workers, max_batch);
                        assert!(take >= 1, "a non-empty backlog must shrink");
                        drained.extend(backlog.drain(..take));
                        sizes.push(take);
                    }
                    assert_eq!(drained, (0..queued).collect::<Vec<_>>());
                    // Guided self-scheduling: pieces never grow while
                    // nothing new arrives.
                    assert!(sizes.windows(2).all(|w| w[0] >= w[1]), "{sizes:?}");
                }
            }
        }
    }

    /// The three regimes the rule is chosen for.
    #[test]
    fn share_dispatches_alone_splits_evenly_and_saturates() {
        assert_eq!(share(1, 2, 32), 1, "a lone request goes alone");
        assert_eq!(share(1, 8, 8), 1);
        assert_eq!(share(32, 1, 32), 32, "one worker takes the whole backlog up to max_batch");
        assert_eq!(share(32, 2, 32), 16, "two workers halve it");
        assert_eq!(share(64, 2, 32), 32, "workers * max_batch queued: full batches");
        assert_eq!(share(1000, 2, 32), 32);
        // A zero in the config degrades to one, never to a division by
        // zero or an empty batch.
        assert_eq!(share(5, 0, 0), 1);
    }
}
