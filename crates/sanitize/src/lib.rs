//! `gobo-sanitize`: instrumented synchronization primitives that
//! detect deadlocks before they ship.
//!
//! The serving stack is deeply concurrent — a versioned registry with
//! refcount retirement, a fair-share batching scheduler, hedged
//! cluster routing, canary lifecycle windows — and every one of those
//! features added locks. `gobo_lint::interleave` proves hand-modeled
//! protocols correct, but nothing checked the *real* lock graph. This
//! crate closes that gap with drop-in wrappers over the std
//! primitives:
//!
//! * [`SanMutex`] / [`SanRwLock`] — named, ranked locks. At test time
//!   every acquisition records a `held → acquired` edge into a global
//!   lock-order graph; a cycle (potential deadlock) is reported the
//!   moment the closing edge is attempted, **before** the thread
//!   blocks, with a two-site report naming both acquisition sites.
//! * [`SanCondvar`] — condition variables whose sanctioned entry
//!   points are the predicate forms ([`SanCondvar::wait_while`],
//!   [`SanCondvar::wait_timeout_while`]); a raw wait outside a
//!   predicate loop is itself a report.
//! * [`blocking_io`] — markers placed at accept/read/write/connect
//!   sites; holding any sanitized lock across one is a report.
//! * A watchdog: an acquisition that cannot make progress within the
//!   watchdog window (default 5 s, see [`set_watchdog`]) records a
//!   stall report with the full held-stack instead of hanging CI
//!   silently.
//! * Hold-time and contention histograms per lock, rendered in the
//!   same Prometheus text format and 1-2-5 bucket scheme as
//!   `gobo-obs`.
//!
//! # Cost when disabled
//!
//! Mirroring the `gobo-obs` / `gobo-fault` pattern, every wrapper
//! checks **one relaxed atomic load** and then forwards straight to
//! the std primitive — no allocation, no thread-local access, no
//! extra branches on the guard's hot path. Production builds keep the
//! wrappers permanently; CI turns them on.
//!
//! # Modes
//!
//! The `GOBO_SANITIZE` environment variable (read lazily on first
//! use) selects the mode: unset/`0`/`off` — disabled; `1`/`on`/
//! `record` — record reports for later inspection; `fail` — panic at
//! the detection site so a test suite fails on the offending test.
//! [`enable`] sets the mode programmatically (tests).
//!
//! # Lock names and ranks
//!
//! Locks are named `subsystem.component.lock` (the same dotted-path
//! discipline as spans and failpoints) and carry an explicit rank:
//! the documented acquisition order. Acquiring a lock whose rank is
//! not strictly greater than every lock already held is a
//! rank-inversion report even if no cycle has materialized yet. The
//! `gobo lint --locks` static rule cross-checks declared ranks and
//! `// ACQUIRES-AFTER:` annotations; `LOCKS.md` catalogs both.

#![deny(missing_docs)]

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::Location;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

mod hist;
mod sync;

pub use hist::{HistogramSnapshot, BUCKET_BOUNDS};
pub use sync::{
    SanCondvar, SanMutex, SanMutexGuard, SanRwLock, SanRwLockReadGuard, SanRwLockWriteGuard,
};

/// Environment variable selecting the sanitizer mode.
pub const ENV_VAR: &str = "GOBO_SANITIZE";

/// Environment variable overriding the watchdog window, milliseconds.
pub const ENV_WATCHDOG: &str = "GOBO_SANITIZE_WATCHDOG_MS";

/// Sanitizer operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Wrappers forward to std with no recording (one atomic load).
    Off,
    /// Record reports and statistics for later inspection.
    Record,
    /// Record, and additionally panic at the detection site for
    /// failure-class reports (cycles, condvar misuse, blocking I/O
    /// under a lock) so the offending test fails.
    Fail,
}

const MODE_UNINIT: u8 = 0;
const MODE_OFF: u8 = 1;
const MODE_RECORD: u8 = 2;
const MODE_FAIL: u8 = 3;

static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);
static WATCHDOG_US: AtomicU64 = AtomicU64::new(5_000_000);

/// Current mode; initializes lazily from `GOBO_SANITIZE` on first use.
pub fn mode() -> Mode {
    // ORDERING: Relaxed — the mode is a monotonic configuration flag;
    // report consistency comes from the registry mutex, not this load.
    match MODE.load(Ordering::Relaxed) {
        MODE_UNINIT => init_from_env(),
        MODE_RECORD => Mode::Record,
        MODE_FAIL => Mode::Fail,
        _ => Mode::Off,
    }
}

/// Whether the sanitizer is recording at all.
pub fn enabled() -> bool {
    mode() != Mode::Off
}

#[cold]
fn init_from_env() -> Mode {
    let mode = match std::env::var(ENV_VAR).ok().as_deref() {
        Some("1") | Some("on") | Some("record") => Mode::Record,
        Some("fail") => Mode::Fail,
        _ => Mode::Off,
    };
    if let Some(ms) = std::env::var(ENV_WATCHDOG).ok().and_then(|v| v.parse::<u64>().ok()) {
        // ORDERING: Relaxed — watchdog tuning, read racily by design.
        WATCHDOG_US.store(ms.saturating_mul(1_000), Ordering::Relaxed);
    }
    enable(mode);
    mode
}

/// Sets the sanitizer mode programmatically (overrides the
/// environment; usable from tests before or after first use).
pub fn enable(mode: Mode) {
    let raw = match mode {
        Mode::Off => MODE_OFF,
        Mode::Record => MODE_RECORD,
        Mode::Fail => MODE_FAIL,
    };
    // ORDERING: Relaxed — see `mode`; no data is published via MODE.
    MODE.store(raw, Ordering::Relaxed);
}

/// Sets the watchdog window: an acquisition stalled longer than this
/// records a [`ReportKind::Watchdog`] report (it keeps waiting — the
/// report is the evidence, the hang stays visible).
pub fn set_watchdog(window: Duration) {
    let us = u64::try_from(window.as_micros()).unwrap_or(u64::MAX);
    // ORDERING: Relaxed — watchdog tuning, read racily by design.
    WATCHDOG_US.store(us.max(1), Ordering::Relaxed);
}

pub(crate) fn watchdog() -> Duration {
    // ORDERING: Relaxed — a stale window only shifts when a stall is
    // reported, never whether bookkeeping is correct.
    Duration::from_micros(WATCHDOG_US.load(Ordering::Relaxed))
}

/// What a [`Report`] is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportKind {
    /// A lock-order cycle: two (or more) locks acquired in
    /// conflicting orders on different code paths — a potential
    /// deadlock. The message names both acquisition sites.
    Cycle,
    /// A lock acquired while already holding the same named lock on
    /// this thread (std mutexes are not reentrant).
    Recursive,
    /// A lock acquired whose rank is not strictly above every lock
    /// already held — an undocumented ordering that will become a
    /// cycle the day the opposite path appears.
    RankInversion,
    /// A raw `Condvar::wait`/`wait_timeout` outside a predicate loop;
    /// spurious wakeups make these silently wrong.
    CondvarNoPredicate,
    /// A condvar wait entered while holding *other* sanitized locks —
    /// those stay held for the whole (unbounded) wait.
    CondvarHeldAcross,
    /// Blocking I/O performed while holding a sanitized lock.
    BlockingIoUnderLock,
    /// An acquisition that could not make progress within the
    /// watchdog window (see [`set_watchdog`]).
    Watchdog,
}

impl ReportKind {
    /// Whether this report class fails CI (panics in [`Mode::Fail`]).
    /// Watchdog and rank-inversion reports are evidence, not verdicts.
    pub fn is_failure(self) -> bool {
        matches!(
            self,
            ReportKind::Cycle
                | ReportKind::Recursive
                | ReportKind::CondvarNoPredicate
                | ReportKind::CondvarHeldAcross
                | ReportKind::BlockingIoUnderLock
        )
    }

    /// Stable lowercase label (metrics, rendered reports).
    pub fn label(self) -> &'static str {
        match self {
            ReportKind::Cycle => "cycle",
            ReportKind::Recursive => "recursive",
            ReportKind::RankInversion => "rank_inversion",
            ReportKind::CondvarNoPredicate => "condvar_no_predicate",
            ReportKind::CondvarHeldAcross => "condvar_held_across",
            ReportKind::BlockingIoUnderLock => "blocking_io_under_lock",
            ReportKind::Watchdog => "watchdog",
        }
    }
}

/// One recorded finding.
#[derive(Debug, Clone)]
pub struct Report {
    /// Finding class.
    pub kind: ReportKind,
    /// Human-readable evidence naming every involved site.
    pub message: String,
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.kind.label(), self.message)
    }
}

/// One `held → acquired` edge of the recorded lock-order graph.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Lock already held when the edge was first recorded.
    pub held: String,
    /// Lock acquired while `held` was held.
    pub acquired: String,
    /// Source location where `held` was acquired.
    pub held_site: String,
    /// Source location where `acquired` was acquired.
    pub acquired_site: String,
    /// Name of the thread that first recorded the edge.
    pub thread: String,
    /// How many times this edge was observed.
    pub count: u64,
}

/// Per-lock acquisition statistics.
#[derive(Debug, Clone)]
pub struct LockStats {
    /// Lock name.
    pub name: String,
    /// Declared rank.
    pub rank: u32,
    /// Total acquisitions (mutex locks, rwlock reads and writes).
    pub acquisitions: u64,
    /// Acquisitions that found the lock held (first `try_lock` lost).
    pub contended: u64,
    /// Hold-time distribution, microseconds.
    pub hold_us: HistogramSnapshot,
    /// Time-to-acquire distribution for contended acquisitions,
    /// microseconds.
    pub wait_us: HistogramSnapshot,
}

#[derive(Debug, Clone)]
struct EdgeInfo {
    held_site: String,
    acquired_site: String,
    thread: String,
    count: u64,
}

#[derive(Default)]
struct StatsCell {
    rank: u32,
    acquisitions: u64,
    contended: u64,
    hold_us: hist::Histogram,
    wait_us: hist::Histogram,
}

#[derive(Default)]
struct Registry {
    /// `edges[held][acquired]` — adjacency of the lock-order graph.
    edges: BTreeMap<&'static str, BTreeMap<&'static str, EdgeInfo>>,
    /// Cycles already reported (sorted participant list), so one bad
    /// pair does not flood the report buffer.
    reported_cycles: BTreeSet<String>,
    /// Rank inversions already reported (`held → acquired` pair).
    reported_inversions: BTreeSet<(&'static str, &'static str)>,
    reports: Vec<Report>,
    stats: BTreeMap<&'static str, StatsCell>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn registry_lock() -> MutexGuard<'static, Registry> {
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

/// One entry of a thread's held-lock stack.
#[derive(Clone, Copy)]
pub(crate) struct Held {
    pub(crate) name: &'static str,
    pub(crate) rank: u32,
    pub(crate) site: &'static Location<'static>,
    pub(crate) since: Instant,
}

thread_local! {
    static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
}

fn current_thread_label() -> String {
    let current = std::thread::current();
    match current.name() {
        Some(name) => name.to_owned(),
        None => format!("{:?}", current.id()),
    }
}

fn site_str(site: &Location<'_>) -> String {
    format!("{}:{}:{}", site.file(), site.line(), site.column())
}

/// Records `report`; panics in [`Mode::Fail`] for failure-class kinds.
fn record_report(kind: ReportKind, message: String) {
    let fail = mode() == Mode::Fail && kind.is_failure();
    let rendered = format!("[{}] {}", kind.label(), message);
    registry_lock().reports.push(Report { kind, message });
    if fail {
        panic!("gobo-sanitize fail-mode report: {rendered}");
    }
}

/// Called before an acquisition blocks: records lock-order edges from
/// every held lock, checks recursion, ranks, and cycles.
pub(crate) fn on_acquire_attempt(name: &'static str, rank: u32, site: &'static Location<'static>) {
    let held: Vec<Held> = HELD.with(|h| h.borrow().clone());
    if held.is_empty() {
        return;
    }
    if held.iter().any(|e| e.name == name) {
        record_report(
            ReportKind::Recursive,
            format!(
                "`{name}` acquired at {} while already held by this thread (acquired at {})",
                site_str(site),
                held.iter()
                    .filter(|e| e.name == name)
                    .map(|e| site_str(e.site))
                    .collect::<Vec<_>>()
                    .join(", "),
            ),
        );
        return;
    }
    let thread = current_thread_label();
    let mut pending: Vec<Report> = Vec::new();
    {
        let mut reg = registry_lock();
        for entry in &held {
            if entry.rank >= rank && reg.reported_inversions.insert((entry.name, name)) {
                pending.push(Report {
                    kind: ReportKind::RankInversion,
                    message: format!(
                        "`{name}` (rank {rank}) acquired at {} while holding `{}` (rank {}, acquired at {}) — ranks must strictly increase down the acquisition order",
                        site_str(site),
                        entry.name,
                        entry.rank,
                        site_str(entry.site),
                    ),
                });
            }
            if let Some(report) = add_edge(&mut reg, entry, name, site, &thread) {
                pending.push(report);
            }
        }
        reg.reports.extend(pending.iter().cloned());
    }
    if mode() == Mode::Fail {
        if let Some(failure) = pending.iter().find(|r| r.kind.is_failure()) {
            panic!("gobo-sanitize fail-mode report: {failure}");
        }
    }
}

/// Inserts the `held → acquired` edge and returns a cycle report if
/// the new edge closes a cycle in the order graph.
fn add_edge(
    reg: &mut Registry,
    held: &Held,
    acquired: &'static str,
    site: &'static Location<'static>,
    thread: &str,
) -> Option<Report> {
    let out = reg.edges.entry(held.name).or_default();
    let first_time = match out.get_mut(acquired) {
        Some(info) => {
            info.count = info.count.saturating_add(1);
            false
        }
        None => {
            out.insert(
                acquired,
                EdgeInfo {
                    held_site: site_str(held.site),
                    acquired_site: site_str(site),
                    thread: thread.to_owned(),
                    count: 1,
                },
            );
            true
        }
    };
    if !first_time {
        return None;
    }
    // The new edge `held → acquired` closes a cycle iff `held` is
    // reachable from `acquired` through previously recorded edges.
    let path = find_path(reg, acquired, held.name)?;
    let mut participants: Vec<&str> = path.clone();
    participants.sort_unstable();
    let key = participants.join(" ");
    if !reg.reported_cycles.insert(key) {
        return None;
    }
    // Describe this thread's side, then every edge of the return path.
    let mut message = format!(
        "lock-order cycle: thread `{thread}` acquired `{acquired}` at {} while holding `{}` (acquired at {}); conflicting order already recorded: ",
        site_str(site),
        held.name,
        site_str(held.site),
    );
    let mut legs = Vec::new();
    for pair in path.windows(2) {
        let (from, to) = match (pair.first(), pair.get(1)) {
            (Some(f), Some(t)) => (*f, *t),
            _ => continue,
        };
        if let Some(info) = reg.edges.get(from).and_then(|m| m.get(to)) {
            legs.push(format!(
                "thread `{}` acquired `{to}` at {} while holding `{from}` (acquired at {})",
                info.thread, info.acquired_site, info.held_site,
            ));
        }
    }
    message.push_str(&legs.join("; "));
    Some(Report { kind: ReportKind::Cycle, message })
}

/// Shortest-hop path `from → … → to` through recorded edges, if any.
fn find_path(reg: &Registry, from: &'static str, to: &'static str) -> Option<Vec<&'static str>> {
    let mut parents: BTreeMap<&'static str, &'static str> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(from);
    while let Some(node) = queue.pop_front() {
        if node == to {
            let mut path = vec![node];
            let mut cursor = node;
            while let Some(parent) = parents.get(cursor) {
                path.push(*parent);
                cursor = parent;
            }
            path.reverse();
            return Some(path);
        }
        if let Some(out) = reg.edges.get(node) {
            for next in out.keys() {
                if *next != from && !parents.contains_key(next) {
                    parents.insert(next, node);
                    queue.push_back(next);
                }
            }
        }
    }
    None
}

pub(crate) fn push_held(name: &'static str, rank: u32, site: &'static Location<'static>) {
    HELD.with(|h| h.borrow_mut().push(Held { name, rank, site, since: Instant::now() }));
}

/// Pops the newest held entry for `name` and returns its hold time.
pub(crate) fn pop_held(name: &'static str) -> Option<Duration> {
    HELD.with(|h| {
        let mut held = h.borrow_mut();
        let idx = held.iter().rposition(|e| e.name == name)?;
        Some(held.remove(idx).since.elapsed())
    })
}

pub(crate) fn held_snapshot() -> Vec<(String, String)> {
    HELD.with(|h| h.borrow().iter().map(|e| (e.name.to_owned(), site_str(e.site))).collect())
}

pub(crate) fn record_acquired(name: &'static str, rank: u32, contended: bool, waited: Duration) {
    let mut reg = registry_lock();
    let cell = reg.stats.entry(name).or_default();
    cell.rank = rank;
    cell.acquisitions = cell.acquisitions.saturating_add(1);
    if contended {
        cell.contended = cell.contended.saturating_add(1);
        cell.wait_us.observe(duration_us(waited));
    }
}

pub(crate) fn record_released(name: &'static str, hold: Duration) {
    let mut reg = registry_lock();
    let cell = reg.stats.entry(name).or_default();
    cell.hold_us.observe(duration_us(hold));
}

pub(crate) fn record_watchdog(
    name: &'static str,
    site: &'static Location<'static>,
    stalled: Duration,
) {
    let held = held_snapshot();
    let held_text = if held.is_empty() {
        "no sanitized locks held".to_owned()
    } else {
        held.iter().map(|(n, s)| format!("`{n}` ({s})")).collect::<Vec<_>>().join(", ")
    };
    record_report(
        ReportKind::Watchdog,
        format!(
            "`{name}` not acquired after {:?} at {} (thread `{}`; {held_text})",
            stalled,
            site_str(site),
            current_thread_label(),
        ),
    );
}

pub(crate) fn record_condvar_no_predicate(name: &'static str, site: &'static Location<'static>) {
    record_report(
        ReportKind::CondvarNoPredicate,
        format!(
            "condvar `{name}` raw wait at {} — use `wait_while`/`wait_timeout_while` so the predicate is re-checked after spurious wakeups",
            site_str(site),
        ),
    );
}

pub(crate) fn record_condvar_held_across(
    name: &'static str,
    site: &'static Location<'static>,
    held: &[(String, String)],
) {
    let held_text = held.iter().map(|(n, s)| format!("`{n}` ({s})")).collect::<Vec<_>>().join(", ");
    record_report(
        ReportKind::CondvarHeldAcross,
        format!(
            "condvar `{name}` wait at {} while still holding {held_text} — those locks stay held for the whole wait",
            site_str(site),
        ),
    );
}

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Marks a blocking I/O operation (`accept`, `read`, `write`,
/// `connect`, `fsync`…). Holding any sanitized lock here is a report:
/// the lock would stay held for an unbounded network/disk wait.
#[track_caller]
pub fn blocking_io(what: &str) {
    if mode() == Mode::Off {
        return;
    }
    let held = held_snapshot();
    if held.is_empty() {
        return;
    }
    let site = Location::caller();
    let held_text = held.iter().map(|(n, s)| format!("`{n}` ({s})")).collect::<Vec<_>>().join(", ");
    record_report(
        ReportKind::BlockingIoUnderLock,
        format!("blocking I/O `{what}` at {} while holding {held_text}", site_str(site)),
    );
}

/// Snapshot of every recorded report (oldest first).
pub fn reports() -> Vec<Report> {
    registry_lock().reports.clone()
}

/// Drains and returns every recorded report.
pub fn take_reports() -> Vec<Report> {
    std::mem::take(&mut registry_lock().reports)
}

/// Snapshot of the recorded lock-order graph.
pub fn lock_order_edges() -> Vec<LockEdge> {
    let reg = registry_lock();
    let mut edges = Vec::new();
    for (held, out) in &reg.edges {
        for (acquired, info) in out {
            edges.push(LockEdge {
                held: (*held).to_owned(),
                acquired: (*acquired).to_owned(),
                held_site: info.held_site.clone(),
                acquired_site: info.acquired_site.clone(),
                thread: info.thread.clone(),
                count: info.count,
            });
        }
    }
    edges
}

/// Snapshot of per-lock acquisition statistics, sorted by name.
pub fn lock_stats() -> Vec<LockStats> {
    let reg = registry_lock();
    reg.stats
        .iter()
        .map(|(name, cell)| LockStats {
            name: (*name).to_owned(),
            rank: cell.rank,
            acquisitions: cell.acquisitions,
            contended: cell.contended,
            hold_us: cell.hold_us.snapshot(),
            wait_us: cell.wait_us.snapshot(),
        })
        .collect()
}

/// Clears the recorded graph, statistics, and reports (mode and
/// watchdog are untouched). Held-lock stacks of live threads are
/// per-thread state and survive.
pub fn reset() {
    let mut reg = registry_lock();
    reg.edges.clear();
    reg.reported_cycles.clear();
    reg.reported_inversions.clear();
    reg.reports.clear();
    reg.stats.clear();
}

/// Renders acquisition statistics and report counters in Prometheus
/// text exposition format (`gobo_sanitize_*` series, the same 1-2-5
/// bucket scheme as `gobo-obs` histograms). Appends to `out`.
pub fn render_prometheus(out: &mut String) {
    use std::fmt::Write as _;
    let stats = lock_stats();
    let _ = writeln!(
        out,
        "# HELP gobo_sanitize_lock_acquisitions_total Lock acquisitions observed by gobo-sanitize."
    );
    let _ = writeln!(out, "# TYPE gobo_sanitize_lock_acquisitions_total counter");
    for s in &stats {
        let _ = writeln!(
            out,
            "gobo_sanitize_lock_acquisitions_total{{lock=\"{}\"}} {}",
            s.name, s.acquisitions
        );
    }
    let _ = writeln!(
        out,
        "# HELP gobo_sanitize_lock_contended_total Acquisitions that found the lock already held."
    );
    let _ = writeln!(out, "# TYPE gobo_sanitize_lock_contended_total counter");
    for s in &stats {
        let _ = writeln!(
            out,
            "gobo_sanitize_lock_contended_total{{lock=\"{}\"}} {}",
            s.name, s.contended
        );
    }
    hist::render_family(
        out,
        "gobo_sanitize_lock_hold_us",
        "Lock hold time, microseconds.",
        &stats,
        |s| &s.hold_us,
    );
    hist::render_family(
        out,
        "gobo_sanitize_lock_wait_us",
        "Time to acquire a contended lock, microseconds.",
        &stats,
        |s| &s.wait_us,
    );
    let reports = reports();
    let _ = writeln!(out, "# HELP gobo_sanitize_reports_total Sanitizer reports by kind.");
    let _ = writeln!(out, "# TYPE gobo_sanitize_reports_total counter");
    for kind in [
        ReportKind::Cycle,
        ReportKind::Recursive,
        ReportKind::RankInversion,
        ReportKind::CondvarNoPredicate,
        ReportKind::CondvarHeldAcross,
        ReportKind::BlockingIoUnderLock,
        ReportKind::Watchdog,
    ] {
        let count = reports.iter().filter(|r| r.kind == kind).count();
        let _ = writeln!(out, "gobo_sanitize_reports_total{{kind=\"{}\"}} {count}", kind.label());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_labels_are_stable() {
        assert_eq!(ReportKind::Cycle.label(), "cycle");
        assert!(ReportKind::Cycle.is_failure());
        assert!(!ReportKind::Watchdog.is_failure());
        assert!(!ReportKind::RankInversion.is_failure());
    }

    #[test]
    fn blocking_io_without_locks_is_silent() {
        enable(Mode::Record);
        blocking_io("test.noop");
        assert!(
            reports()
                .iter()
                .all(|r| r.kind != ReportKind::BlockingIoUnderLock
                    || !r.message.contains("test.noop"))
        );
    }
}
