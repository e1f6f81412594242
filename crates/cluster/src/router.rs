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
//! wins; the loser's connection is dropped with its outcome. Every
//! hedge loss bumps the primary's *slow score*, demoting it in future
//! replica orderings, so a persistently slow node stops being picked
//! first and steady-state latency returns to healthy levels instead of
//! paying the hedge delay forever.
//!
//! # Connections: a pool per node, driven by the caller
//!
//! Every member keeps its idle connections (`cluster.router.pool`, a
//! leaf lock held for one `Vec` push or pop). The thread that routes a
//! request checks one out — connecting only on a miss — writes the
//! frame, waits for the first reply byte until the hedge delay runs
//! out, reads the reply under the request deadline and checks the
//! connection back in. Only a connection whose last exchange ended in a
//! whole reply to the very request it carried goes back; a timeout, a
//! transport or frame error, a reply to another request and a hedge
//! loser all close theirs, so a late reply can never reach a later
//! request. Nothing is spawned, cloned or shut down on that path. Only
//! when a hedge fires do the silent primary's connection and the backup
//! leg move to helper threads that report on a channel; a leg that
//! reports after the request settled finds the channel gone, and its
//! connection is dropped with its outcome. A pooled connection the node
//! closed meanwhile (its idle read timeout, a restart) fails before any
//! reply byte; encode is pure, so that one case is retried once on a
//! fresh connection instead of failing over. Heartbeats ride the same
//! pool through the same exchange.
//!
//! # Failure model
//!
//! Transport failures and retryable upstream errors (`queue_full`,
//! `shutting_down`, worker loss) fail over to the next replica;
//! terminal errors (`model_not_found`, `bad_request`,
//! `deadline_exceeded`) return immediately. Health is tracked by
//! heartbeat: `dead_after` consecutive misses mark a node dead (ring
//! rebuild without it), a single success marks it alive again.

use std::io::{self, BufRead as _, BufReader};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError};
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
/// Connect timeout on a pool miss. Connects are not retried: a dead
/// replica should fail over to the next one immediately.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Idle connections kept per node; one checked in beyond that is
/// closed. Concurrency above it still works, it just reconnects.
const POOL_IDLE_MAX: usize = 8;

/// A persistent connection to one node. Replies are read through the
/// buffer and requests written to the socket under it, so the one
/// descriptor is never cloned and closing is dropping.
#[derive(Debug)]
struct Conn {
    stream: BufReader<TcpStream>,
    /// Came out of the pool rather than from a connect: the node may
    /// have closed it since its last reply.
    reused: bool,
}

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
    /// Idle connections, most recently used last. A leaf lock: held for
    /// one push, pop or take, never across I/O or another lock.
    idle: SanMutex<Vec<Conn>>,
}

impl NodeState {
    /// Takes the most recently used idle connection, if there is one.
    fn checkout(&self) -> Option<Conn> {
        self.idle.lock().pop()
    }

    /// Returns a connection whose last exchange ended in a whole reply
    /// to the request it carried — the only state fit for reuse.
    fn checkin(&self, mut conn: Conn) {
        conn.reused = true;
        let mut idle = self.idle.lock();
        if idle.len() < POOL_IDLE_MAX {
            idle.push(conn);
        }
        // One over the cap is closed as `conn` drops, after the guard.
    }

    /// Closes every idle connection (the node was marked dead).
    fn drop_idle(&self) {
        // Two statements: taken under the lock, closed after it.
        let idle = std::mem::take(&mut *self.idle.lock());
        drop(idle);
    }

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
    seq: AtomicU64,
    canary: SanMutex<Option<CanaryTrial>>,
}

/// The consistent-hash router over a set of [`NodeState`] members.
pub struct Router {
    shared: Arc<Shared>,
    /// The heartbeat thread and the sender whose drop stops it.
    heartbeat: SanMutex<Option<(mpsc::Sender<()>, JoinHandle<()>)>>,
}

/// What one request / reply exchange with a node came to.
enum Attempt<T> {
    /// A whole reply that answers the request, and the connection it
    /// came on — in the one state fit for [`NodeState::checkin`].
    Reply(T, Conn),
    /// No reply byte by the time patience ran out. Nothing was consumed,
    /// so the connection is still in step and can be waited on further.
    Silent(Conn),
    /// Connect, transport or frame failure, or a reply to some other
    /// request; the connection is closed.
    Failed(String),
}

/// The node's verdict on an encode, as carried by its response frame.
type EncodeResult = Result<EncodeOkFrame, EncodeErrFrame>;

/// One leg of a request: which replica (index into the ordered replica
/// set) and what its exchange came to.
type Leg = (usize, Attempt<EncodeResult>);

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
                seq: AtomicU64::new(1),
                canary: SanMutex::new("cluster.router.canary", 50, None),
            }),
            heartbeat: SanMutex::new("cluster.router.heartbeat", 13, None),
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
            idle: SanMutex::new("cluster.router.pool", 54, Vec::new()),
        });
        let mut membership = self.shared.membership.write();
        membership.nodes.retain(|n| n.id != state.id);
        membership.nodes.push(state);
        rebuild_ring(&self.shared, &mut membership);
    }

    /// Starts the heartbeat/membership thread. Idempotent.
    pub fn start(&self) {
        let mut guard = self.heartbeat.lock();
        if guard.is_some() {
            return;
        }
        let shared = Arc::clone(&self.shared);
        let (stop, stopped) = mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("gobo-router-heartbeat".into())
            .spawn(move || heartbeat_loop(&shared, &stopped));
        if let Ok(handle) = handle {
            *guard = Some((stop, handle));
        }
    }

    /// Stops the heartbeat thread: dropping the sender ends its wait at
    /// once, whatever is left of the interval. Idempotent.
    pub fn shutdown(&self) {
        let running = self.heartbeat.lock().take();
        if let Some((stop, handle)) = running {
            drop(stop);
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

        let id = self.shared.seq.fetch_add(1, Ordering::Relaxed);
        let request = Arc::new(Frame::EncodeRequest(EncodeRequestFrame {
            id,
            model: model.to_owned(),
            bits: bits.unwrap_or(0),
            deadline_ms,
            ids: ids.to_vec(),
            type_ids: type_ids.to_vec(),
        }));
        let hedge_at = start + self.hedge_delay();
        let deadline = start + REQUEST_TIMEOUT;
        let timed_out = || {
            RouterError::Timeout(format!("no replica answered `{key}` within {REQUEST_TIMEOUT:?}"))
        };

        // Legs run on this thread, one replica after another, until one
        // stays silent past `hedge_at` with a replica left to hedge to.
        // From then on they run on helper threads and report to `race`.
        let mut race: Option<Race> = None;
        let mut rest = ordered.iter().enumerate().peekable();
        let mut launched = 0usize;
        let mut finished = 0usize;
        let mut hedge_idx: Option<usize> = None;
        let mut last_err: Option<String> = None;
        let mut canary_failed = false;

        let outcome: Result<(usize, EncodeOkFrame), RouterError> = loop {
            if Instant::now() >= deadline {
                break Err(timed_out());
            }
            // The next leg to come in: the one still out, or — with
            // nothing out — the next replica, tried right here.
            let (idx, leg) = match &race {
                Some(race) if finished < launched => {
                    match race.legs.recv_timeout(time_left(deadline)) {
                        Ok(leg) => leg,
                        Err(_) => break Err(timed_out()),
                    }
                }
                _ => {
                    let Some((idx, node)) = rest.next() else {
                        break Err(RouterError::Exhausted(
                            last_err.unwrap_or_else(|| "no replica left to try".to_owned()),
                        ));
                    };
                    launched += 1;
                    let patience = if rest.peek().is_some() { hedge_at } else { deadline };
                    let accept = encode_reply(id);
                    (idx, attempt(&self.shared, node, &request, accept, patience, deadline))
                }
            };
            let failure = match leg {
                Attempt::Reply(result, conn) => {
                    if let Some(node) = ordered.get(idx) {
                        node.checkin(conn);
                    }
                    match result {
                        Ok(ok) => break Ok((idx, ok)),
                        Err(err) if is_terminal(&err.code) => {
                            break Err(RouterError::Upstream(err));
                        }
                        Err(err) => format!("{}: {}", err.code, err.message),
                    }
                }
                Attempt::Failed(msg) => msg,
                Attempt::Silent(conn) => {
                    // Silent until `hedge_at` on this thread, with a
                    // replica left: the hedge fires. (Silent until the
                    // deadline — the last replica's leg, or a helper's —
                    // is the request timing out.)
                    let (None, Some(primary), Some((backup_idx, backup))) =
                        (&race, ordered.get(idx), rest.next())
                    else {
                        break Err(timed_out());
                    };
                    let _hedge_span = gobo_obs::span!("gobo.hedge", key = key);
                    self.shared.metrics.hedge_fires.fetch_add(1, Ordering::Relaxed);
                    hedge_idx = Some(backup_idx);
                    let race = race.insert(Race::new(&self.shared, &request, id, deadline));
                    race.launch(idx, primary, Some(conn));
                    race.launch(backup_idx, backup, None);
                    launched += 1;
                    continue;
                }
            };
            // A transport failure or a retryable error from the node:
            // on to the next replica, if there is one.
            finished += 1;
            last_err = Some(failure);
            if canary_attempt && idx == 0 {
                // The canary attempt itself failed: that is the node's
                // fault, not the client's — roll the trial back once the
                // request settles.
                canary_failed = true;
            }
            if rest.peek().is_some() {
                self.shared.metrics.failovers.fetch_add(1, Ordering::Relaxed);
            }
            // Once hedged, the next replica goes to a helper as well;
            // unhedged, the loop tries it on this thread.
            if let (Some(race), Some((next_idx, next))) = (&race, rest.peek()) {
                race.launch(*next_idx, next, None);
                launched += 1;
                rest.next();
            }
        };
        // Whatever leg is still out is a loser: it finds the channel
        // gone when it reports, and its connection drops with its outcome.
        drop(race);

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

/// What is left until `until`, never zero (a socket timeout of zero is
/// an error, and a deadline that just passed still deserves one look).
fn time_left(until: Instant) -> Duration {
    until.saturating_duration_since(Instant::now()).max(Duration::from_millis(1))
}

/// The acceptance test of an encode exchange: the reply must be the
/// response to request `id`, or the connection is out of step.
fn encode_reply(id: u64) -> impl Fn(Frame) -> Option<EncodeResult> + Copy + Send + 'static {
    move |reply| match reply {
        Frame::EncodeResponse(response) if response.id == id => Some(response.result),
        _ => None,
    }
}

/// A hedged request's helper threads and the channel they report on.
struct Race {
    shared: Arc<Shared>,
    request: Arc<Frame>,
    id: u64,
    deadline: Instant,
    report: mpsc::Sender<Leg>,
    legs: mpsc::Receiver<Leg>,
}

impl Race {
    fn new(shared: &Arc<Shared>, request: &Arc<Frame>, id: u64, deadline: Instant) -> Race {
        let (report, legs) = mpsc::channel();
        Race {
            shared: Arc::clone(shared),
            request: Arc::clone(request),
            id,
            deadline,
            report,
            legs,
        }
    }

    /// Runs leg `idx` against `node` on a thread of its own: the rest of
    /// an exchange whose connection stayed `silent` so far, or a whole
    /// one. The thread is not joined — a loser ends with its read, and
    /// joining it would make the request as slow as its slowest leg.
    fn launch(&self, idx: usize, node: &Arc<NodeState>, silent: Option<Conn>) {
        let (shared, request, report) =
            (Arc::clone(&self.shared), Arc::clone(&self.request), self.report.clone());
        let (node, accept, deadline) = (Arc::clone(node), encode_reply(self.id), self.deadline);
        std::thread::spawn(move || {
            let leg = match silent {
                Some(conn) => read_reply(conn, &node.addr, accept, deadline),
                None => attempt(&shared, &node, &request, accept, deadline, deadline),
            };
            let _ = report.send((idx, leg));
        });
    }
}

/// One exchange with `node`, the only one the router has — routed
/// encodes (inline and hedged) and heartbeats all go through it: check
/// a connection out (connect on a miss), write `request`, wait until
/// `patience` for the first reply byte, then read the reply under
/// `deadline` and hand it to `accept`, which returns `None` unless it
/// answers this very request. The caller checks the connection of a
/// [`Attempt::Reply`] back in.
fn attempt<T>(
    shared: &Shared,
    node: &NodeState,
    request: &Frame,
    accept: impl Fn(Frame) -> Option<T>,
    patience: Instant,
    deadline: Instant,
) -> Attempt<T> {
    let mut conn = match node.checkout() {
        Some(conn) => conn,
        None => match connect(shared, &node.addr, deadline) {
            Ok(conn) => conn,
            Err(msg) => return Attempt::Failed(msg),
        },
    };
    loop {
        gobo_sanitize::blocking_io("cluster.router.attempt_exchange");
        let started = write_frame(conn.stream.get_mut(), request)
            .and_then(|()| reply_started(&mut conn.stream, patience));
        match started {
            Ok(true) => return read_reply(conn, &node.addr, accept, deadline),
            Ok(false) => return Attempt::Silent(conn),
            // The node closed this connection while it sat in the pool
            // (its idle read timeout, a restart). No byte of a reply was
            // seen and encode is pure: once more, on a fresh one.
            Err(_) if conn.reused => match connect(shared, &node.addr, deadline) {
                Ok(fresh) => conn = fresh,
                Err(msg) => return Attempt::Failed(msg),
            },
            Err(e) => return Attempt::Failed(format!("{}: {e}", node.addr)),
        }
    }
}

/// The pool's miss path, and the only place the router connects.
fn connect(shared: &Shared, addr: &str, deadline: Instant) -> Result<Conn, String> {
    gobo_sanitize::blocking_io("cluster.router.attempt_connect");
    let timeout = CONNECT_TIMEOUT.min(time_left(deadline));
    let stream = connect_retry(addr, timeout, &RetryPolicy::none())
        .map_err(|e| format!("connect {addr}: {e}"))?;
    shared.metrics.connects.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nodelay(true);
    Ok(Conn { stream: BufReader::new(stream), reused: false })
}

/// Waits until `until` for the first byte of a reply: `Ok(false)` when
/// none came. `fill_buf` consumes nothing, so a wait that timed out
/// leaves the stream exactly where it was. A peer that closed instead
/// of answering is an error.
fn reply_started(stream: &mut BufReader<TcpStream>, until: Instant) -> io::Result<bool> {
    stream.get_ref().set_read_timeout(Some(time_left(until)))?;
    loop {
        match stream.fill_buf() {
            Ok([]) => return Err(io::Error::from(io::ErrorKind::UnexpectedEof)),
            Ok(_) => return Ok(true),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                return Ok(false);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Reads one reply off `conn` under `deadline` and hands it to `accept`.
fn read_reply<T>(
    mut conn: Conn,
    addr: &str,
    accept: impl Fn(Frame) -> Option<T>,
    deadline: Instant,
) -> Attempt<T> {
    let _ = conn.stream.get_ref().set_read_timeout(Some(time_left(deadline)));
    match read_frame(&mut conn.stream, MAX_PAYLOAD) {
        Ok(Some(reply)) => {
            let kind = reply.kind();
            match accept(reply) {
                Some(answer) => Attempt::Reply(answer, conn),
                None => Attempt::Failed(format!(
                    "{addr} answered out of step with the request (frame kind {kind})"
                )),
            }
        }
        Ok(None) => Attempt::Failed(format!("{addr} closed without answering")),
        Err(e) => Attempt::Failed(format!("read {addr}: {e}")),
    }
}

// ---------------------------------------------------------------------------
// Heartbeats / membership
// ---------------------------------------------------------------------------

/// One round of heartbeats per interval until `stopped` reports its
/// sender gone — which ends the wait at once, mid-interval.
fn heartbeat_loop(shared: &Shared, stopped: &mpsc::Receiver<()>) {
    while let Err(RecvTimeoutError::Timeout) =
        stopped.recv_timeout(shared.config.heartbeat_interval)
    {
        let nodes = shared.membership.read().nodes.clone();
        for node in nodes {
            if !matches!(stopped.try_recv(), Err(TryRecvError::Empty)) {
                return;
            }
            heartbeat_node(shared, &node);
        }
    }
}

fn heartbeat_node(shared: &Shared, node: &NodeState) {
    shared.metrics.heartbeats.fetch_add(1, Ordering::Relaxed);
    let seq = shared.seq.fetch_add(1, Ordering::Relaxed);
    match heartbeat_once(shared, node, seq) {
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
                node.drop_idle();
                rebuild_ring(shared, &mut shared.membership.write());
            }
        }
    }
}

/// One heartbeat on a pooled connection: the ack of this very `seq`,
/// within the heartbeat timeout.
fn heartbeat_once(
    shared: &Shared,
    node: &NodeState,
    seq: u64,
) -> Result<HeartbeatAckFrame, String> {
    gobo_fault::fail_point!("cluster.heartbeat", "injected cluster.heartbeat fault".to_owned());
    let timeout = shared.config.heartbeat_timeout;
    let deadline = Instant::now() + timeout;
    let accept = |reply| match reply {
        Frame::HeartbeatAck(ack) if ack.seq == seq => Some(ack),
        _ => None,
    };
    match attempt(shared, node, &Frame::Heartbeat { seq }, accept, deadline, deadline) {
        Attempt::Reply(ack, conn) => {
            node.checkin(conn);
            Ok(ack)
        }
        Attempt::Silent(_) => Err(format!("{} did not ack within {timeout:?}", node.addr)),
        Attempt::Failed(msg) => Err(msg),
    }
}
