//! Request scheduling: bounded admission, worker pool, dynamic
//! batching, deadlines, graceful drain.
//!
//! Requests enter a bounded FIFO admission queue (overflow is
//! *rejected*, never blocked on). A pool of worker threads pops the
//! oldest request, **claims** its model/bits key, and coalesces every
//! queued request for that key into one batch, waiting up to
//! [`SchedulerConfig::max_wait`] for stragglers or until
//! [`SchedulerConfig::max_batch`] is reached — re-sweeping the queue
//! after every wake-up so a straggler arriving late in the window still
//! joins. The claim makes coalescing single-owner: without it,
//! concurrent workers raced each other popping the same key and split
//! what should have been one batch into per-worker fragments, capping
//! the observed batch size at roughly the worker count. Unclaimed keys
//! are still served fully in parallel, and a claim is held only for the
//! coalesce window, so singleton traffic keeps the whole pool.
//!
//! The batch resolves its model handle from the registry once, then
//! runs the **whole batch as one fused forward** through the
//! compute-on-compressed engine
//! ([`QuantizedEngine::encode_batch`]): archived FC layers execute the
//! cache-blocked batched GEMM that decodes each packed weight tile once
//! per batch instead of once per request. The blocked kernel is
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
//! Workers run every batch under [`std::panic::catch_unwind`]: a panic
//! mid-batch (a model bug, or an injected `serve.encode` /
//! `serve.batch` failpoint) fails only that batch's requests with
//! [`ServeError::WorkerPanic`] — clients get HTTP 500, never a hang.
//! The panicked worker thread is treated as suspect and exits; a
//! supervisor thread detects the death, counts it in
//! `worker_panics_total`, and respawns the slot under a capped
//! exponential backoff (5 ms doubling to 250 ms). The backoff resets
//! when a worker made progress — answered at least one request, or
//! survived a full second — so a data-dependent panic costs one base
//! delay while a crash-looping worker (dies before answering anything)
//! backs off exponentially. Every respawn records
//! `worker_respawns_total` and a `serve.respawn` span. The pool
//! therefore converges back to its configured size instead of silently
//! shrinking.
//!
//! [`TransformerModel::encode`]: gobo_model::TransformerModel::encode

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;

use gobo_sanitize::{SanCondvar, SanMutex, SanMutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gobo_model::batch::EncodeInput;

use crate::error::ServeError;
use crate::lifecycle::LifecycleController;
use crate::metrics::Metrics;
use crate::registry::{ModelEntry, ModelKey, ModelRegistry};

/// Worker-pool and batching parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Worker threads executing batches.
    pub workers: usize,
    /// Largest batch a worker will coalesce.
    pub max_batch: usize,
    /// How long a worker waits for stragglers after the first request
    /// of a batch.
    pub max_wait: Duration,
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
            max_wait: Duration::from_micros(2000),
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
    /// Time spent queued before execution, microseconds.
    pub queue_us: u64,
    /// Forward-pass time of the fused batch this request rode in,
    /// microseconds (shared by every request in the batch).
    pub compute_us: u64,
}

type Reply = Result<EncodeResponse, ServeError>;

struct Pending {
    req: EncodeRequest,
    enqueued: Instant,
    deadline: Instant,
    tx: SyncSender<Reply>,
}

struct State {
    queue: VecDeque<Pending>,
    /// Model/bits keys currently being coalesced by a worker. A worker
    /// scanning for work skips requests whose key is claimed — the
    /// claiming worker's sweep will batch them — so one key's queued
    /// requests form one batch instead of per-worker fragments.
    claimed: Vec<BatchKey>,
    shutdown: bool,
}

struct Shared {
    config: SchedulerConfig,
    registry: Arc<ModelRegistry>,
    lifecycle: Arc<LifecycleController>,
    metrics: Arc<Metrics>,
    state: SanMutex<State>,
    cvar: SanCondvar,
}

impl Shared {
    /// Locks the scheduler state, recovering from poisoning: a worker
    /// that panicked while holding the lock only ever leaves the queue
    /// in a popped-or-not state, both of which are valid, so the
    /// recovered guard is safe to use and one panic cannot wedge the
    /// whole scheduler.
    fn lock_state(&self) -> SanMutexGuard<'_, State> {
        self.state.lock()
    }
}

/// How a worker thread ended.
enum WorkerExit {
    /// Graceful: shutdown was requested and the queue is drained.
    Shutdown,
    /// The worker caught a panic in batch execution and exited so a
    /// fresh thread can replace it.
    Panicked {
        /// Whether the worker answered at least one request in its
        /// lifetime. A worker that made progress before panicking hit a
        /// data-dependent fault and respawns at base backoff; one that
        /// dies without answering anything is crash-looping and earns
        /// escalating strikes.
        progressed: bool,
    },
}

struct WorkerSlot {
    handle: JoinHandle<WorkerExit>,
    spawned: Instant,
    /// Consecutive short-lived respawns; drives the backoff.
    strikes: u32,
}

/// Supervisor slot state.
enum Slot {
    Running(WorkerSlot),
    /// Dead; respawn no earlier than `at`.
    Pending {
        at: Instant,
        strikes: u32,
    },
    /// Exited for good (graceful shutdown).
    Done,
}

/// Smallest delay before respawning a panicked worker.
const RESPAWN_BACKOFF_BASE: Duration = Duration::from_millis(5);
/// Largest delay between respawn attempts.
const RESPAWN_BACKOFF_CAP: Duration = Duration::from_millis(250);
/// A worker surviving this long resets its backoff.
const RESPAWN_HEALTHY_AFTER: Duration = Duration::from_secs(1);
/// Supervisor poll interval while workers are healthy.
const SUPERVISOR_POLL: Duration = Duration::from_millis(2);

/// The admission queue + worker pool + supervisor.
pub struct Scheduler {
    shared: Arc<Shared>,
    supervisor: SanMutex<Option<JoinHandle<()>>>,
}

impl Scheduler {
    /// Starts the worker pool and its supervisor.
    pub fn start(
        config: SchedulerConfig,
        registry: Arc<ModelRegistry>,
        lifecycle: Arc<LifecycleController>,
        metrics: Arc<Metrics>,
    ) -> Self {
        let shared = Arc::new(Shared {
            config,
            registry,
            lifecycle,
            metrics,
            state: SanMutex::new(
                "serve.scheduler.state",
                20,
                State { queue: VecDeque::new(), claimed: Vec::new(), shutdown: false },
            ),
            cvar: SanCondvar::new("serve.scheduler.cvar"),
        });
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gobo-serve-supervisor".to_owned())
                .spawn(move || supervisor_loop(&shared))
                .ok()
        };
        Scheduler {
            shared,
            supervisor: SanMutex::new("serve.scheduler.supervisor", 14, supervisor),
        }
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
        gobo_fault::fail_point!(
            "serve.admission",
            ServeError::Internal("injected admission fault")
        );
        let metrics = &self.shared.metrics;
        metrics.encode_requests.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        let deadline = now + req.deadline.unwrap_or(self.shared.config.default_deadline);
        let (tx, rx) = sync_channel(1);
        {
            let mut state = self.shared.lock_state();
            if state.shutdown {
                metrics.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::ShuttingDown);
            }
            if state.queue.len() >= self.shared.config.queue_capacity {
                metrics.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::QueueFull);
            }
            state.queue.push_back(Pending { req, enqueued: now, deadline, tx });
            metrics.queue_push();
        }
        self.shared.cvar.notify_all();
        Ok(rx)
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
        let rx = self.submit(req)?;
        // Workers reply to every popped request (including expired
        // ones), so the grace period only covers scheduling noise.
        let grace = self.shared.config.max_wait + Duration::from_millis(250);
        match rx.recv_timeout(deadline + grace) {
            Ok(reply) => reply,
            Err(RecvTimeoutError::Timeout) => {
                self.shared.metrics.rejected_deadline.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::DeadlineExceeded)
            }
            Err(RecvTimeoutError::Disconnected) => Err(ServeError::Internal("worker reply lost")),
        }
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> usize {
        self.shared.lock_state().queue.len()
    }

    /// Begins a graceful shutdown: stop admitting, let workers drain
    /// every queued request (expired ones are rejected, live ones
    /// served), then join the pool via the supervisor. Idempotent.
    pub fn shutdown(&self) {
        self.shared.lock_state().shutdown = true;
        self.shared.cvar.notify_all();
        let handle = self.supervisor.lock().take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn spawn_worker(shared: &Arc<Shared>, index: usize, strikes: u32) -> std::io::Result<WorkerSlot> {
    let shared = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("gobo-serve-worker-{index}"))
        .spawn(move || worker_main(&shared))?;
    Ok(WorkerSlot { handle, spawned: Instant::now(), strikes })
}

fn respawn_backoff(strikes: u32) -> Duration {
    RESPAWN_BACKOFF_BASE.saturating_mul(1u32 << strikes.min(8)).min(RESPAWN_BACKOFF_CAP)
}

/// Owns the worker pool: spawns the configured number of workers, polls
/// for deaths, and respawns panicked slots with a capped exponential
/// backoff. On shutdown it joins every worker, then drains whatever is
/// left in the queue with [`ServeError::ShuttingDown`] so no submitter
/// is ever left hanging — even if every worker died.
fn supervisor_loop(shared: &Arc<Shared>) {
    let mut slots: Vec<Slot> = (0..shared.config.workers.max(1))
        .map(|i| match spawn_worker(shared, i, 0) {
            Ok(slot) => Slot::Running(slot),
            Err(_) => Slot::Pending { at: Instant::now() + RESPAWN_BACKOFF_BASE, strikes: 1 },
        })
        .collect();
    loop {
        let draining = shared.lock_state().shutdown;
        for (i, slot) in slots.iter_mut().enumerate() {
            match slot {
                Slot::Done => {}
                Slot::Running(ws) if draining || ws.handle.is_finished() => {
                    // While draining, block on the worker instead of
                    // polling: it exits once the queue is empty.
                    let Slot::Running(ws) = std::mem::replace(slot, Slot::Done) else {
                        // Guarded by the match arm; nothing to reap.
                        continue;
                    };
                    let lifetime = ws.spawned.elapsed();
                    let exit = match ws.handle.join() {
                        Ok(exit) => exit,
                        Err(_) => {
                            // A panic that escaped catch_unwind (e.g.
                            // inside the batching machinery itself).
                            shared.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
                            WorkerExit::Panicked { progressed: false }
                        }
                    };
                    match exit {
                        WorkerExit::Shutdown => {}
                        WorkerExit::Panicked { progressed } if !draining => {
                            let strikes = if progressed || lifetime >= RESPAWN_HEALTHY_AFTER {
                                0
                            } else {
                                ws.strikes.saturating_add(1)
                            };
                            *slot = Slot::Pending {
                                at: Instant::now() + respawn_backoff(strikes),
                                strikes,
                            };
                        }
                        // Draining: the final queue sweep below answers
                        // anything the dead worker left behind.
                        WorkerExit::Panicked { .. } => {}
                    }
                }
                Slot::Running(_) => {}
                Slot::Pending { .. } if draining => *slot = Slot::Done,
                Slot::Pending { at, strikes } if *at <= Instant::now() => {
                    let _span = gobo_obs::span!("serve.respawn", worker = i, strikes = *strikes);
                    match spawn_worker(shared, i, *strikes) {
                        Ok(ws) => {
                            shared.metrics.worker_respawns.fetch_add(1, Ordering::Relaxed);
                            *slot = Slot::Running(ws);
                        }
                        Err(_) => {
                            let strikes = strikes.saturating_add(1);
                            *slot = Slot::Pending {
                                at: Instant::now() + respawn_backoff(strikes),
                                strikes,
                            };
                        }
                    }
                }
                Slot::Pending { .. } => {}
            }
        }
        if slots.iter().all(|s| matches!(s, Slot::Done)) {
            break;
        }
        std::thread::sleep(SUPERVISOR_POLL);
    }
    // Safety net: if workers died during drain, requests may still be
    // queued. Reject them explicitly rather than dropping the senders.
    let mut state = shared.lock_state();
    while let Some(p) = state.queue.pop_front() {
        shared.metrics.queue_pop();
        shared.metrics.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
        let _ = p.tx.send(Err(ServeError::ShuttingDown));
    }
}

/// Worker body: pull a batch, execute it under `catch_unwind`. A caught
/// panic fails the batch's remaining requests with
/// [`ServeError::WorkerPanic`] and ends this thread — the thread's
/// stack is suspect after an arbitrary panic, so the supervisor
/// replaces it with a fresh one.
fn worker_main(shared: &Shared) -> WorkerExit {
    let mut answered: usize = 0;
    loop {
        let Some((key, mut batch)) = next_batch(shared) else {
            return WorkerExit::Shutdown;
        };
        let before = batch.len();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_batch(shared, &key.0, key.1, &mut batch);
        }));
        if result.is_err() {
            // `execute_batch` keeps each request in the batch until its
            // reply is computed, so everything removed was answered.
            answered += before - batch.len();
            shared.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
            for p in batch.drain(..) {
                shared.metrics.encode_failed.fetch_add(1, Ordering::Relaxed);
                let _ = p.tx.send(Err(ServeError::WorkerPanic));
            }
            return WorkerExit::Panicked { progressed: answered > 0 };
        }
        answered += before;
    }
}

type BatchKey = (String, Option<u8>);

/// Blocks until there is work this worker may take, then pops the
/// oldest live request whose model/bits key no other worker has
/// claimed, claims that key, and coalesces same-key requests up to
/// `max_batch`/`max_wait` — re-sweeping the queue after every wake-up
/// so stragglers arriving late in the window still join the batch. The
/// claim is released (and sleepers notified) before dispatch, so
/// same-key requests beyond `max_batch` are immediately claimable by
/// another worker. Returns `None` when shutdown is requested and the
/// queue is drained.
///
/// A claim can leak only if a worker dies *inside* this function (an
/// allocation failure — `execute_batch` panics are caught after the
/// claim is released). Leaked-key requests are still expiry-rejected by
/// other workers' scans, so they degrade to `DeadlineExceeded` rather
/// than hanging.
fn next_batch(shared: &Shared) -> Option<(BatchKey, Vec<Pending>)> {
    let mut state = shared.lock_state();
    // Find the oldest live request of an unclaimed key, rejecting
    // expired requests in place (claimed or not); sleep when the queue
    // holds nothing for this worker. The scan runs inside the wait
    // predicate, so it re-runs after every wake-up (spurious or not).
    let mut found: Option<Pending> = None;
    state = shared.cvar.wait_while(state, |s| {
        found = pop_oldest_unclaimed(shared, s);
        // Drain fully before honouring shutdown; a non-empty queue here
        // is all claimed keys, and the claim owner's dispatch (or the
        // supervisor's final sweep) wakes us again.
        found.is_none() && !(s.shutdown && s.queue.is_empty())
    });
    let first = found?;

    // Claim the key, then coalesce queued requests for it, waiting up
    // to max_wait for stragglers.
    let key = (first.req.model.clone(), first.req.bits);
    state.claimed.push(key.clone());
    let mut batch = vec![first];
    // The predicate sweeps same-key stragglers into the batch before
    // every wait (and once more on the final, timed-out wake-up), so
    // requests arriving late in the window still join.
    let (next, _timed_out) = shared.cvar.wait_timeout_while(state, shared.config.max_wait, |s| {
        let mut i = 0;
        while i < s.queue.len() && batch.len() < shared.config.max_batch {
            let same_key =
                s.queue.get(i).is_some_and(|p| p.req.model == key.0 && p.req.bits == key.1);
            if same_key {
                if let Some(p) = s.queue.remove(i) {
                    shared.metrics.queue_pop();
                    batch.push(p);
                }
            } else {
                i += 1;
            }
        }
        batch.len() < shared.config.max_batch && !s.shutdown
    });
    let mut state = next;
    state.claimed.retain(|k| k != &key);
    drop(state);
    // Same-key requests left behind (past max_batch, or enqueued after
    // the final sweep) are claimable again — wake the pool.
    shared.cvar.notify_all();
    Some((key, batch))
}

/// One scan of the admission queue: rejects expired requests in
/// place, then pops (and returns) the oldest live request whose
/// model/bits key no other worker has claimed.
fn pop_oldest_unclaimed(shared: &Shared, s: &mut State) -> Option<Pending> {
    let mut i = 0;
    while i < s.queue.len() {
        if s.queue.get(i).is_some_and(|p| Instant::now() >= p.deadline) {
            if let Some(p) = s.queue.remove(i) {
                shared.metrics.queue_pop();
                reject_expired(shared, p);
            }
            continue;
        }
        let is_claimed = s
            .queue
            .get(i)
            .is_some_and(|p| s.claimed.iter().any(|(m, b)| *m == p.req.model && *b == p.req.bits));
        if is_claimed {
            i += 1;
            continue;
        }
        let popped = s.queue.remove(i);
        if popped.is_some() {
            shared.metrics.queue_pop();
        }
        return popped;
    }
    None
}

fn reject_expired(shared: &Shared, p: Pending) {
    // Count before sending so the counter is visible by the time the
    // receiver observes the reply; a failed send means the submitting
    // side gave up (and counted its own timeout), so roll back to keep
    // exactly one count per rejection.
    shared.metrics.rejected_deadline.fetch_add(1, Ordering::Relaxed);
    if p.tx.send(Err(ServeError::DeadlineExceeded)).is_err() {
        shared.metrics.rejected_deadline.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Executes a batch as **one fused forward**. Each request stays in
/// `batch` until its reply is computed — the caller keeps ownership of
/// `batch` so that, if this function panics (including via the
/// `serve.batch` / `serve.encode` failpoints), every unanswered request
/// can still be failed explicitly instead of its reply channel being
/// silently dropped.
///
/// Expired and invalid requests are answered individually in a
/// pre-pass, so one bad request never fails its batchmates; the
/// survivors then run through the compute-on-compressed engine in a
/// single [`QuantizedEngine::encode_batch`] call, which amortizes every
/// packed-tile decode across the whole batch.
///
/// [`QuantizedEngine::encode_batch`]: crate::engine::QuantizedEngine::encode_batch
fn execute_batch(shared: &Shared, model: &str, bits: Option<u8>, batch: &mut Vec<Pending>) {
    let size = batch.len();
    let _batch_span = gobo_obs::span!("serve.batch", model = model, size = size);
    gobo_fault::fail_point!("serve.batch");
    shared.metrics.record_batch(size);
    let entry = match shared.registry.get(model, bits) {
        Ok(entry) => entry,
        Err(_) => {
            for p in batch.drain(..) {
                shared.metrics.encode_failed.fetch_add(1, Ordering::Relaxed);
                let _ = p.tx.send(Err(ServeError::ModelNotFound { name: model.to_owned() }));
            }
            return;
        }
    };

    // Pre-pass: answer expired or invalid requests individually so the
    // fused forward only sees sequences that will encode cleanly.
    let mut i = 0;
    while let Some(p) = batch.get(i) {
        if Instant::now() >= p.deadline {
            let p = batch.remove(i);
            reject_expired(shared, p);
            continue;
        }
        if let Err(e) = entry.engine.model().validate_input(&p.req.ids, &p.req.type_ids) {
            let p = batch.remove(i);
            shared.metrics.encode_failed.fetch_add(1, Ordering::Relaxed);
            let _ = p.tx.send(Err(ServeError::Model(e)));
            continue;
        }
        i += 1;
    }
    if batch.is_empty() {
        return;
    }

    // Per-request encode spans and failpoints fire before the fused
    // forward, preserving the one-firing-per-request fault contract. A
    // panic here fails every request still in the batch (the worker
    // drains them with WorkerPanic) — matching the old sequential path,
    // where the panicking request and everything behind it failed.
    for p in batch.iter() {
        let _encode_span = gobo_obs::span!("serve.encode", tokens = p.req.ids.len());
        gobo_fault::fail_point!("serve.encode");
    }

    // Canary routing: when the slot has a pending revision, the
    // lifecycle controller's ticket decides whether this batch trials
    // it. A canary failure (real or injected) is *never*
    // client-visible: the batch transparently re-runs on the active
    // revision and the canary is rolled back.
    let canary_pending = shared.registry.canary_for(&entry.key);
    let canary = canary_pending.as_ref().filter(|_| shared.lifecycle.should_try_canary()).cloned();

    let start = Instant::now();
    let inputs: Vec<EncodeInput<'_>> =
        batch.iter().map(|p| EncodeInput { ids: &p.req.ids, type_ids: &p.req.type_ids }).collect();
    let (result, served) = match canary {
        Some(c) => {
            shared.metrics.canary_batches.fetch_add(1, Ordering::Relaxed);
            let _canary_span = gobo_obs::span!("gobo.canary", model = model, rev = c.rev);
            match canary_encode(&c, &inputs) {
                Ok(outputs) => {
                    shared.lifecycle.record_canary_ok(&c.key, start.elapsed().as_micros() as u64);
                    (Ok(outputs), c)
                }
                Err(_) => {
                    // Any canary-side error disqualifies the revision
                    // immediately; the active revision absorbs the
                    // batch so the client never observes the failure.
                    shared.metrics.canary_errors.fetch_add(1, Ordering::Relaxed);
                    shared.lifecycle.record_canary_error(&c.key);
                    (entry.engine.encode_batch(&inputs), Arc::clone(&entry))
                }
            }
        }
        None => {
            let result = entry.engine.encode_batch(&inputs);
            if canary_pending.is_some() && result.is_ok() {
                // Feed the baseline only while a verdict is pending.
                shared.lifecycle.record_active(&entry.key, start.elapsed().as_micros() as u64);
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
                let dims = out.hidden.dims().to_vec();
                let &[d0, d1] = dims.as_slice() else {
                    shared.metrics.encode_failed.fetch_add(1, Ordering::Relaxed);
                    let _ = p.tx.send(Err(ServeError::Internal("hidden state is not rank 2")));
                    continue;
                };
                let response = EncodeResponse {
                    model: served.key.clone(),
                    rev: served.rev,
                    hidden: out.hidden.into_vec(),
                    hidden_dims: [d0, d1],
                    pooled: out.pooled.map(|t| t.into_vec()),
                    batch_size: size,
                    queue_us,
                    compute_us,
                };
                // As in `reject_expired`: record before sending so the
                // counters lead the reply, undo if the receiver is gone.
                shared.metrics.record_encode_ok(queue_us + compute_us, queue_us);
                if p.tx.send(Ok(response)).is_err() {
                    shared.metrics.unrecord_encode_ok(queue_us + compute_us, queue_us);
                }
            }
        }
        Err(e) => {
            // Inputs were pre-validated, so this is a model-level
            // failure that applies to the whole fused batch equally.
            for p in batch.drain(..) {
                shared.metrics.encode_failed.fetch_add(1, Ordering::Relaxed);
                let _ = p.tx.send(Err(ServeError::Model(e.clone())));
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
