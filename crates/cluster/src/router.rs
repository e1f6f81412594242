//! The cluster router: consistent-hash sharding, replication, health
//! membership, and hedged requests.
//!
//! Routing is keyed on the model identity `name@bits`, so the same
//! logical model served at several precisions spreads across replicas
//! independently — and a key always lands on the same replica set
//! while membership holds, keeping node registries warm.
//!
//! # Tail latency: hedging plus a passive snitch
//!
//! A request goes to the best replica first (lowest slow-score, then
//! lowest queue depth). If no answer arrives within the hedge delay —
//! configured, or derived from the p95 of the router's own latency
//! histogram — a backup fires to the next replica and the first answer
//! wins; the loser's connection is shut down. Every hedge loss bumps
//! the primary's *slow score*, demoting it in future replica
//! orderings, so a persistently slow node stops being picked first and
//! steady-state latency returns to healthy levels instead of paying
//! the hedge delay forever.
//!
//! # Failure model
//!
//! Transport failures and retryable upstream errors (`queue_full`,
//! `shutting_down`, worker loss) fail over to the next replica;
//! terminal errors (`model_not_found`, `bad_request`,
//! `deadline_exceeded`) return immediately. Health is tracked by
//! heartbeat: `dead_after` consecutive misses mark a node dead (ring
//! rebuild without it), a single success marks it alive again.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;

use gobo_sanitize::{SanMutex, SanRwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gobo_proto::frame::{
    read_frame, write_frame, EncodeErrFrame, EncodeOkFrame, EncodeRequestFrame, Frame,
    HeartbeatAckFrame, MAX_PAYLOAD,
};
use gobo_proto::net::{connect_retry, RetryPolicy};
use gobo_serve::{CanaryPolicy, VerdictWindow, WindowVerdict};

use crate::metrics::{ClusterMetrics, NodeHealthSample};
use crate::ring::Ring;

/// Router tunables.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Replicas per model key.
    pub replication: usize,
    /// Virtual nodes per member on the hash ring.
    pub virtual_nodes: usize,
    /// Interval between heartbeat rounds.
    pub heartbeat_interval: Duration,
    /// Connect/read timeout of one heartbeat probe.
    pub heartbeat_timeout: Duration,
    /// Consecutive heartbeat misses before a node is marked dead.
    pub dead_after: u32,
    /// Fixed hedge delay; `None` derives it per request from the p95
    /// of the router's route-latency histogram.
    pub hedge_after: Option<Duration>,
    /// Canary trial policy: traffic share, window size, and the p95
    /// regression threshold — same semantics as a single node's
    /// in-process canary.
    pub canary: CanaryPolicy,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            replication: 2,
            virtual_nodes: 64,
            heartbeat_interval: Duration::from_millis(500),
            heartbeat_timeout: Duration::from_secs(1),
            dead_after: 3,
            hedge_after: None,
            canary: CanaryPolicy::default(),
        }
    }
}

/// A canary trial in flight: one node receiving a preferential traffic
/// slice while its latency is judged against the rest of the cluster.
struct CanaryTrial {
    /// Identity of this trial. A request captures it when it is fronted
    /// and reports under it, so what it measured can only be judged
    /// with — and can only settle — the trial it ran under.
    id: u64,
    node_id: String,
    trial: VerdictWindow,
}

/// The member list and the ring built from it, under one lock: a ring
/// is always built from, and installed beside, the list it describes.
#[derive(Default)]
struct Membership {
    nodes: Vec<Arc<NodeState>>,
    ring: Ring,
}

/// Saturating cap on a node's slow score (how far hedging can demote
/// it); one win at primary walks it back one step.
const SLOW_SCORE_CAP: u32 = 8;
/// Samples the latency histogram needs before it drives hedge timing.
const HEDGE_MIN_SAMPLES: u64 = 20;
/// Multiplier on the p95 when deriving the hedge delay.
const HEDGE_P95_FACTOR: f64 = 1.5;
/// Lower bound on the derived hedge delay.
const HEDGE_FLOOR: Duration = Duration::from_millis(2);
/// Hedge delay used until the latency histogram has enough samples to
/// derive a p95.
const HEDGE_INITIAL: Duration = Duration::from_millis(50);
/// Overall per-request budget across all attempts.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// Connect timeout of one encode attempt. Connects are not retried: a
/// dead replica should fail over to the next one immediately.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Live state of one member, updated by heartbeats and request
/// outcomes.
#[derive(Debug)]
pub struct NodeState {
    /// Logical id (ring member; stable across address changes).
    pub id: String,
    /// `host:port` of the node's protocol listener.
    pub addr: String,
    healthy: AtomicBool,
    misses: AtomicU32,
    queue_depth: AtomicU32,
    draining: AtomicBool,
    slow_score: AtomicU32,
}

impl NodeState {
    /// Whether the router currently considers this node healthy.
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::Acquire)
    }

    /// Queue depth reported by the node's last heartbeat ack.
    pub fn queue_depth(&self) -> u32 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Current hedging demotion score.
    pub fn slow_score(&self) -> u32 {
        self.slow_score.load(Ordering::Relaxed)
    }

    /// Whether the node reported draining.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }
}

/// A membership snapshot row for `/v1/cluster`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInfo {
    /// Logical id.
    pub id: String,
    /// Protocol address.
    pub addr: String,
    /// Health at snapshot time.
    pub healthy: bool,
    /// Drain state at snapshot time.
    pub draining: bool,
    /// Last reported queue depth.
    pub queue_depth: u32,
    /// Current slow score.
    pub slow_score: u32,
}

/// Routing errors (everything that is not a successful encode).
#[derive(Debug)]
pub enum RouterError {
    /// No replica is available for the key.
    NoReplica(String),
    /// A failpoint injected a routing fault.
    Injected(&'static str),
    /// A node answered with a terminal application error.
    Upstream(EncodeErrFrame),
    /// Every replica failed with a retryable error.
    Exhausted(String),
    /// The request timed out across all attempts.
    Timeout(String),
}

impl RouterError {
    /// Stable machine-readable error code.
    pub fn code(&self) -> &str {
        match self {
            RouterError::NoReplica(_) => "no_healthy_replica",
            RouterError::Injected(_) => "internal",
            RouterError::Upstream(err) => err.code.as_str(),
            RouterError::Exhausted(_) => "all_replicas_failed",
            RouterError::Timeout(_) => "router_timeout",
        }
    }

    /// HTTP status for the router's front door.
    pub fn http_status(&self) -> u16 {
        match self {
            RouterError::NoReplica(_) => 503,
            RouterError::Injected(_) => 500,
            RouterError::Upstream(err) => match err.code.as_str() {
                "model_not_found" => 404,
                "bad_request" | "invalid_input" => 400,
                "body_too_large" => 413,
                "queue_full" => 429,
                "shutting_down" => 503,
                "deadline_exceeded" => 504,
                _ => 500,
            },
            RouterError::Exhausted(_) => 502,
            RouterError::Timeout(_) => 504,
        }
    }
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::NoReplica(key) => write!(f, "no healthy replica for `{key}`"),
            RouterError::Injected(msg) => write!(f, "{msg}"),
            RouterError::Upstream(err) => write!(f, "upstream {}: {}", err.code, err.message),
            RouterError::Exhausted(msg) => write!(f, "all replicas failed: {msg}"),
            RouterError::Timeout(msg) => write!(f, "request timed out: {msg}"),
        }
    }
}

impl std::error::Error for RouterError {}

struct Shared {
    config: RouterConfig,
    membership: SanRwLock<Membership>,
    metrics: ClusterMetrics,
    stop: AtomicBool,
    seq: AtomicU64,
    canary: SanMutex<Option<CanaryTrial>>,
}

/// The consistent-hash router over a set of [`NodeState`] members.
pub struct Router {
    shared: Arc<Shared>,
    heartbeat_thread: SanMutex<Option<JoinHandle<()>>>,
}

enum AttemptError {
    Transport(String),
    App(EncodeErrFrame),
}

/// What an attempt thread sends the routing thread.
enum Leg {
    /// A clone of its connected socket, for cancellation.
    Connected(TcpStream),
    /// Its outcome; nothing follows.
    Done(Result<EncodeOkFrame, AttemptError>),
}

fn is_terminal(code: &str) -> bool {
    matches!(
        code,
        "model_not_found"
            | "bad_request"
            | "invalid_input"
            | "deadline_exceeded"
            | "body_too_large"
    )
}

impl Router {
    /// A router with no members and no heartbeat thread yet.
    pub fn new(config: RouterConfig) -> Router {
        Router {
            shared: Arc::new(Shared {
                config,
                // Documented acquisition order (ranks enforced by
                // gobo-sanitize): canary(50) -> membership(52).
                // ACQUIRES-AFTER: cluster.router.canary
                membership: SanRwLock::new("cluster.router.membership", 52, Membership::default()),
                metrics: ClusterMetrics::new(),
                stop: AtomicBool::new(false),
                seq: AtomicU64::new(1),
                canary: SanMutex::new("cluster.router.canary", 50, None),
            }),
            heartbeat_thread: SanMutex::new("cluster.router.heartbeat", 13, None),
        }
    }

    /// Registers a member under a logical `id` (the ring key; keep it
    /// stable across restarts) at protocol address `addr`, and
    /// rebuilds the ring. New members start healthy — the first failed
    /// heartbeats will demote them if they are not.
    pub fn add_node(&self, id: impl Into<String>, addr: impl Into<String>) {
        let state = Arc::new(NodeState {
            id: id.into(),
            addr: addr.into(),
            healthy: AtomicBool::new(true),
            misses: AtomicU32::new(0),
            queue_depth: AtomicU32::new(0),
            draining: AtomicBool::new(false),
            slow_score: AtomicU32::new(0),
        });
        let mut membership = self.shared.membership.write();
        membership.nodes.retain(|n| n.id != state.id);
        membership.nodes.push(state);
        rebuild_ring(&self.shared, &mut membership);
    }

    /// Starts the heartbeat/membership thread. Idempotent.
    pub fn start(&self) {
        let mut guard = self.heartbeat_thread.lock();
        if guard.is_some() {
            return;
        }
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name("gobo-router-heartbeat".into())
            .spawn(move || heartbeat_loop(&shared));
        if let Ok(handle) = handle {
            *guard = Some(handle);
        }
    }

    /// Stops the heartbeat thread. Idempotent.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Release);
        let handle = self.heartbeat_thread.lock().take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    /// The router's metrics (rendered by [`Router::render_metrics`]).
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.shared.metrics
    }

    /// Prometheus text exposition including the per-node health block.
    pub fn render_metrics(&self) -> String {
        let samples: Vec<NodeHealthSample> = self
            .membership()
            .into_iter()
            .map(|info| NodeHealthSample {
                id: info.id,
                healthy: info.healthy,
                draining: info.draining,
                queue_depth: u64::from(info.queue_depth),
            })
            .collect();
        self.shared.metrics.render(&samples)
    }

    /// Snapshot of the membership, in registration order.
    pub fn membership(&self) -> Vec<NodeInfo> {
        let membership = self.shared.membership.read();
        let rows = membership.nodes.iter().map(|n| NodeInfo {
            id: n.id.clone(),
            addr: n.addr.clone(),
            healthy: n.is_healthy(),
            draining: n.is_draining(),
            queue_depth: n.queue_depth(),
            slow_score: n.slow_score(),
        });
        rows.collect()
    }

    /// The ordered replica set the router would use for `model@bits`
    /// right now: ring replicas filtered to live members, best replica
    /// first (lowest slow score, then lowest reported queue depth).
    pub fn replicas_for(&self, model: &str, bits: Option<u8>) -> Vec<Arc<NodeState>> {
        let key = ring_key(model, bits);
        let membership = self.shared.membership.read();
        let nodes = &membership.nodes;
        let mut ordered: Vec<Arc<NodeState>> = membership
            .ring
            .replicas(&key, self.shared.config.replication)
            .into_iter()
            .filter_map(|id| nodes.iter().find(|n| n.id == id).cloned())
            .filter(|n| n.is_healthy())
            .collect();
        if ordered.is_empty() {
            // Ring and health can disagree for one heartbeat interval;
            // fall back to any healthy member, then to anyone at all —
            // a doomed attempt still beats instant rejection.
            ordered = nodes.iter().filter(|n| n.is_healthy()).cloned().collect();
            if ordered.is_empty() {
                ordered = nodes.clone();
            }
            ordered.truncate(self.shared.config.replication);
        }
        ordered.sort_by_key(|n| (n.slow_score(), n.queue_depth()));
        ordered
    }

    /// Starts a canary trial on `node_id`: the configured traffic
    /// share is routed to it preferentially while its latency is
    /// judged against the rest of the cluster, ending in an automatic
    /// promotion (trial cleared, node trusted) or rollback (trial
    /// cleared, node demoted to last pick). Replaces any trial in
    /// flight. Returns `false`, starting nothing, when the id is not a
    /// member.
    pub fn set_canary(&self, node_id: &str) -> bool {
        if !self.shared.membership.read().nodes.iter().any(|n| n.id == node_id) {
            return false;
        }
        *self.shared.canary.lock() = Some(CanaryTrial {
            id: self.shared.seq.fetch_add(1, Ordering::Relaxed),
            node_id: node_id.to_owned(),
            trial: VerdictWindow::default(),
        });
        true
    }

    /// The node under canary trial right now, if any.
    pub fn canary_node(&self) -> Option<String> {
        self.shared.canary.lock().as_ref().map(|t| t.node_id.clone())
    }

    /// Ends any trial in flight without a verdict (no counter moves,
    /// no demotion).
    pub fn clear_canary(&self) {
        *self.shared.canary.lock() = None;
    }

    /// Takes one of the trial's tickets for this request, if a trial is
    /// in flight, and reorders `ordered` for it. Returns the trial's
    /// identity — what [`Router::report_trial`] must be called with —
    /// and whether this request is a canary attempt.
    ///
    /// On a canary ticket the trial node moves (or is inserted) at the
    /// front — a canary sees its slice of *all* traffic, not only the
    /// keys that happen to hash onto it. On a baseline ticket the
    /// trial node is steered *away* from the primary slot when a
    /// fallback exists, so the comparison window keeps filling even
    /// when the canary would be the natural first pick.
    fn front_canary(&self, ordered: &mut Vec<Arc<NodeState>>) -> Option<(u64, bool)> {
        let policy = &self.shared.config.canary;
        if policy.traffic_pct == 0 {
            return None;
        }
        let mut guard = self.shared.canary.lock();
        let trial = guard.as_mut()?;
        if !trial.trial.take_ticket(policy) {
            if ordered.len() > 1 && ordered.first().is_some_and(|n| n.id == trial.node_id) {
                ordered.swap(0, 1);
            }
            return Some((trial.id, false));
        }
        let node = match ordered.iter().position(|n| n.id == trial.node_id) {
            Some(i) => Some(ordered.remove(i)),
            None => {
                let membership = self.shared.membership.read();
                let mut nodes = membership.nodes.iter();
                nodes.find(|n| n.id == trial.node_id && n.is_healthy()).cloned()
            }
        };
        let fronted = node.is_some();
        if let Some(node) = node {
            ordered.insert(0, node);
        }
        Some((trial.id, fronted))
    }

    /// Reports one routed request to trial `trial_id` — its latency as
    /// a `canary` attempt or as baseline, `None` for a failed canary
    /// attempt — and records, judges and applies in this one critical
    /// section: same rule as a single node's in-process canary. A trial
    /// that was replaced or settled since the request was fronted is
    /// left alone: no sample, no transition, no demotion.
    fn report_trial(&self, trial_id: u64, canary: bool, latency_us: Option<u64>) {
        let mut guard = self.shared.canary.lock();
        let Some(trial) = guard.as_mut().filter(|t| t.id == trial_id) else { return };
        let verdict = trial.trial.record(&self.shared.config.canary, canary, latency_us);
        if verdict == WindowVerdict::Pending {
            return;
        }
        let Some(trial) = guard.take() else { return };
        if verdict == WindowVerdict::Clean {
            self.shared.metrics.canary_promotions.fetch_add(1, Ordering::Relaxed);
        } else {
            self.shared.metrics.canary_rollbacks.fetch_add(1, Ordering::Relaxed);
            // Demote the failed node to last pick; the slow-score
            // walk-back lets it earn its way forward again.
            let membership = self.shared.membership.read();
            if let Some(node) = membership.nodes.iter().find(|n| n.id == trial.node_id) {
                node.slow_score.store(SLOW_SCORE_CAP, Ordering::Relaxed);
            }
        }
    }

    /// The hedge delay the router would use right now: the configured
    /// override, or `HEDGE_P95_FACTOR`× the p95 of observed route
    /// latency (floored), or the initial default before enough
    /// samples exist.
    pub fn hedge_delay(&self) -> Duration {
        if let Some(fixed) = self.shared.config.hedge_after {
            return fixed;
        }
        let hist = &self.shared.metrics.route_us;
        if hist.count() < HEDGE_MIN_SAMPLES {
            return HEDGE_INITIAL;
        }
        let p95_us = hist.quantile(0.95) * HEDGE_P95_FACTOR;
        Duration::from_micros(p95_us as u64).max(HEDGE_FLOOR)
    }

    /// Routes one encode: picks the replica set for `model@bits`,
    /// fires the best replica, hedges to the next after the hedge
    /// delay, fails over on retryable errors, and returns the first
    /// successful answer.
    ///
    /// # Errors
    ///
    /// [`RouterError`] — see the type's docs for the taxonomy.
    pub fn encode(
        &self,
        model: &str,
        bits: Option<u8>,
        ids: &[u32],
        type_ids: &[u32],
        deadline_ms: u64,
    ) -> Result<EncodeOkFrame, RouterError> {
        self.shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
        let result = self.encode_inner(model, bits, ids, type_ids, deadline_ms);
        if result.is_err() {
            self.shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn encode_inner(
        &self,
        model: &str,
        bits: Option<u8>,
        ids: &[u32],
        type_ids: &[u32],
        deadline_ms: u64,
    ) -> Result<EncodeOkFrame, RouterError> {
        gobo_fault::fail_point!(
            "cluster.route",
            RouterError::Injected("injected cluster.route fault")
        );
        let key = ring_key(model, bits);
        let _span = gobo_obs::span!("gobo.cluster.route", key = key);
        let start = Instant::now();
        let mut ordered = self.replicas_for(model, bits);
        if ordered.is_empty() {
            return Err(RouterError::NoReplica(key));
        }
        let trial = self.front_canary(&mut ordered);
        let canary_attempt = matches!(trial, Some((_, true)));
        let _canary_span = if canary_attempt {
            self.shared.metrics.canary_requests.fetch_add(1, Ordering::Relaxed);
            ordered.first().map(|n| gobo_obs::span!("gobo.cluster.canary", node = n.id))
        } else {
            None
        };

        let request = EncodeRequestFrame {
            id: self.shared.seq.fetch_add(1, Ordering::Relaxed),
            model: model.to_owned(),
            bits: bits.unwrap_or(0),
            deadline_ms,
            ids: ids.to_vec(),
            type_ids: type_ids.to_vec(),
        };

        // Each attempt thread reports twice on the one channel: its
        // socket once connected (so a loser can be cancelled by shutting
        // it down), then its outcome.
        let (tx, rx) = mpsc::channel::<(usize, Leg)>();
        let mut streams: Vec<(usize, TcpStream)> = Vec::new();
        let launch = |attempt: usize| {
            let Some(node) = ordered.get(attempt) else { return };
            let addr = node.addr.clone();
            let frame = Frame::EncodeRequest(request.clone());
            let tx = tx.clone();
            std::thread::spawn(move || {
                let result = attempt_once(&addr, &frame, |s| {
                    let _ = tx.send((attempt, Leg::Connected(s)));
                });
                let _ = tx.send((attempt, Leg::Done(result)));
            });
        };

        launch(0);
        let mut launched = 1usize;
        let mut finished = 0usize;
        let hedge_at = start + self.hedge_delay();
        let mut hedge_idx: Option<usize> = None;
        let deadline = start + REQUEST_TIMEOUT;
        let mut last_err: Option<RouterError> = None;
        let mut canary_failed = false;

        let outcome: Result<(usize, EncodeOkFrame), RouterError> = loop {
            let now = Instant::now();
            if now >= deadline {
                break Err(RouterError::Timeout(format!(
                    "no replica answered `{key}` within {REQUEST_TIMEOUT:?}"
                )));
            }
            let wait_until = if launched < ordered.len() && hedge_idx.is_none() {
                hedge_at.min(deadline)
            } else {
                deadline
            };
            let wait = wait_until.saturating_duration_since(now).max(Duration::from_millis(1));
            match rx.recv_timeout(wait) {
                Ok((idx, Leg::Connected(stream))) => streams.push((idx, stream)),
                Ok((idx, Leg::Done(Ok(ok)))) => break Ok((idx, ok)),
                Ok((_, Leg::Done(Err(AttemptError::App(err))))) if is_terminal(&err.code) => {
                    break Err(RouterError::Upstream(err));
                }
                Ok((idx, Leg::Done(Err(err)))) => {
                    finished += 1;
                    if canary_attempt && idx == 0 {
                        // The canary attempt itself failed with a
                        // retryable/transport error: that is the
                        // node's fault, not the client's — roll the
                        // trial back once the request settles.
                        canary_failed = true;
                    }
                    last_err = Some(match err {
                        AttemptError::Transport(msg) => RouterError::Exhausted(msg),
                        AttemptError::App(app) => {
                            RouterError::Exhausted(format!("{}: {}", app.code, app.message))
                        }
                    });
                    if launched < ordered.len() {
                        self.shared.metrics.failovers.fetch_add(1, Ordering::Relaxed);
                        launch(launched);
                        launched += 1;
                    } else if finished >= launched {
                        break Err(last_err.unwrap_or_else(|| {
                            RouterError::Exhausted("no attempt outcome recorded".to_owned())
                        }));
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if launched < ordered.len() && hedge_idx.is_none() && Instant::now() >= hedge_at
                    {
                        let _hedge_span = gobo_obs::span!("gobo.hedge", key = key);
                        self.shared.metrics.hedge_fires.fetch_add(1, Ordering::Relaxed);
                        hedge_idx = Some(launched);
                        launch(launched);
                        launched += 1;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    break Err(last_err.unwrap_or_else(|| {
                        RouterError::Exhausted("all attempts vanished".to_owned())
                    }));
                }
            }
        };

        // Cancel losers: shutting their sockets down unblocks the
        // attempt threads immediately.
        let winner = match &outcome {
            Ok((idx, _)) => Some(*idx),
            Err(_) => None,
        };
        let connected = rx.try_iter().filter_map(|(idx, leg)| match leg {
            Leg::Connected(stream) => Some((idx, stream)),
            Leg::Done(_) => None,
        });
        for (idx, stream) in streams.into_iter().chain(connected) {
            if Some(idx) != winner {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }

        if let (Some((trial_id, _)), true) = (trial, canary_failed) {
            // Roll back even when the whole request later failed: the
            // trial node already proved unreliable.
            self.report_trial(trial_id, true, None);
        }
        let (winner_idx, ok) = outcome?;
        if winner_idx == 0 {
            // Primary won: walk its slow score back one step.
            if let Some(primary) = ordered.first() {
                let _ =
                    primary.slow_score.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                        if v > 0 {
                            Some(v - 1)
                        } else {
                            None
                        }
                    });
            }
        } else {
            // A backup won: demote the primary so it stops being
            // picked first while it stays slow.
            if let Some(primary) = ordered.first() {
                let _ =
                    primary.slow_score.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                        if v < SLOW_SCORE_CAP {
                            Some(v + 1)
                        } else {
                            None
                        }
                    });
            }
            if hedge_idx == Some(winner_idx) {
                self.shared.metrics.hedge_wins.fetch_add(1, Ordering::Relaxed);
            }
        }
        let elapsed_us = start.elapsed().as_micros() as u64;
        if let (Some((trial_id, canary)), false) = (trial, canary_failed) {
            // A hedge win over the canary still charges the full
            // elapsed time to the canary window — a slow canary must
            // not hide behind its backups.
            self.report_trial(trial_id, canary, Some(elapsed_us));
        }
        self.shared.metrics.route_us.observe(elapsed_us);
        Ok(ok)
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn ring_key(model: &str, bits: Option<u8>) -> String {
    format!("{model}@{}b", bits.unwrap_or(0))
}

/// Rebuilds the ring from the member list it sits beside, under that
/// list's write lock, so concurrent rebuilds serialize and the one
/// installed last was built from the newest members and health.
fn rebuild_ring(shared: &Shared, membership: &mut Membership) {
    let id = |n: &Arc<NodeState>| n.id.clone();
    let nodes = &membership.nodes;
    let mut members: Vec<String> =
        nodes.iter().filter(|n| n.is_healthy() && !n.is_draining()).map(id).collect();
    if members.is_empty() {
        // Everything dead or draining: route to all members rather
        // than to nobody.
        members = nodes.iter().map(id).collect();
    }
    membership.ring = Ring::new(&members, shared.config.virtual_nodes);
    shared.metrics.ring_rebuilds.fetch_add(1, Ordering::Relaxed);
}

fn attempt_once(
    addr: &str,
    frame: &Frame,
    register: impl FnOnce(TcpStream),
) -> Result<EncodeOkFrame, AttemptError> {
    gobo_sanitize::blocking_io("cluster.router.attempt_connect");
    let stream = connect_retry(addr, CONNECT_TIMEOUT, &RetryPolicy::none())
        .map_err(|e| AttemptError::Transport(format!("connect {addr}: {e}")))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(REQUEST_TIMEOUT));
    let mut writer = match stream.try_clone() {
        Ok(clone) => clone,
        Err(e) => return Err(AttemptError::Transport(format!("clone {addr}: {e}"))),
    };
    register(match stream.try_clone() {
        Ok(clone) => clone,
        Err(e) => return Err(AttemptError::Transport(format!("clone {addr}: {e}"))),
    });
    use std::io::Write as _;
    write_frame(&mut writer, frame)
        .and_then(|()| writer.flush())
        .map_err(|e| AttemptError::Transport(format!("write {addr}: {e}")))?;
    let mut reader = std::io::BufReader::new(stream);
    match read_frame(&mut reader, MAX_PAYLOAD) {
        Ok(Some(Frame::EncodeResponse(response))) => match response.result {
            Ok(ok) => Ok(ok),
            Err(err) => Err(AttemptError::App(err)),
        },
        Ok(Some(other)) => Err(AttemptError::Transport(format!(
            "unexpected frame kind {} from {addr}",
            other.kind()
        ))),
        Ok(None) => Err(AttemptError::Transport(format!("{addr} closed without answering"))),
        Err(e) => Err(AttemptError::Transport(format!("read {addr}: {e}"))),
    }
}

// ---------------------------------------------------------------------------
// Heartbeats / membership
// ---------------------------------------------------------------------------

fn heartbeat_loop(shared: &Shared) {
    while !shared.stop.load(Ordering::Acquire) {
        // Sleep in short slices so shutdown does not wait a full
        // interval.
        let mut slept = Duration::ZERO;
        while slept < shared.config.heartbeat_interval {
            if shared.stop.load(Ordering::Acquire) {
                return;
            }
            let slice = shared
                .config
                .heartbeat_interval
                .saturating_sub(slept)
                .min(Duration::from_millis(20));
            std::thread::sleep(slice);
            slept += slice;
        }
        let nodes = shared.membership.read().nodes.clone();
        for node in nodes {
            if shared.stop.load(Ordering::Acquire) {
                return;
            }
            heartbeat_node(shared, &node);
        }
    }
}

fn heartbeat_node(shared: &Shared, node: &NodeState) {
    shared.metrics.heartbeats.fetch_add(1, Ordering::Relaxed);
    let seq = shared.seq.fetch_add(1, Ordering::Relaxed);
    match heartbeat_once(&node.addr, seq, shared.config.heartbeat_timeout) {
        Ok(ack) => {
            node.misses.store(0, Ordering::Relaxed);
            node.queue_depth.store(ack.queue_depth, Ordering::Relaxed);
            let was_draining = node.draining.swap(ack.draining, Ordering::AcqRel);
            let was_dead = !node.healthy.swap(true, Ordering::AcqRel);
            if was_dead {
                shared.metrics.mark_alive.fetch_add(1, Ordering::Relaxed);
            }
            if was_dead || was_draining != ack.draining {
                rebuild_ring(shared, &mut shared.membership.write());
            }
        }
        Err(_) => {
            shared.metrics.heartbeat_failures.fetch_add(1, Ordering::Relaxed);
            let misses = node.misses.fetch_add(1, Ordering::Relaxed) + 1;
            if misses >= shared.config.dead_after && node.healthy.swap(false, Ordering::AcqRel) {
                shared.metrics.mark_dead.fetch_add(1, Ordering::Relaxed);
                rebuild_ring(shared, &mut shared.membership.write());
            }
        }
    }
}

fn heartbeat_once(addr: &str, seq: u64, timeout: Duration) -> Result<HeartbeatAckFrame, String> {
    gobo_fault::fail_point!("cluster.heartbeat", "injected cluster.heartbeat fault".to_owned());
    let sockaddr = {
        use std::net::ToSocketAddrs as _;
        addr.to_socket_addrs()
            .map_err(|e| format!("resolve {addr}: {e}"))?
            .next()
            .ok_or_else(|| format!("{addr} resolved to nothing"))?
    };
    gobo_sanitize::blocking_io("cluster.router.heartbeat_connect");
    let stream = TcpStream::connect_timeout(&sockaddr, timeout)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(timeout));
    let mut writer = stream.try_clone().map_err(|e| format!("clone {addr}: {e}"))?;
    write_frame(&mut writer, &Frame::Heartbeat { seq })
        .map_err(|e| format!("write {addr}: {e}"))?;
    let mut reader = std::io::BufReader::new(stream);
    match read_frame(&mut reader, MAX_PAYLOAD) {
        Ok(Some(Frame::HeartbeatAck(ack))) if ack.seq == seq => Ok(ack),
        Ok(Some(Frame::HeartbeatAck(ack))) => {
            Err(format!("{addr} acked seq {} for {seq}", ack.seq))
        }
        Ok(Some(other)) => Err(format!("{addr} answered frame kind {}", other.kind())),
        Ok(None) => Err(format!("{addr} closed without answering")),
        Err(e) => Err(format!("read {addr}: {e}")),
    }
}
