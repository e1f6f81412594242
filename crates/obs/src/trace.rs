//! Span tracing: per-thread span stacks over one lock-guarded event
//! buffer, exported as Chrome trace-event JSON.
//!
//! # Model
//!
//! A [`Span`] is an RAII guard created by the [`span!`](crate::span)
//! macro: entering captures a timestamp and the thread's current stack
//! depth, dropping records one *complete* event (name, optional detail,
//! thread id, depth, start, duration) into a global buffer. Nesting is
//! purely lexical — spans on one thread form a stack, and Chrome's
//! trace viewer reconstructs the flame graph per thread from the time
//! intervals.
//!
//! # Recording cost
//!
//! Tracing is **disabled by default**. A span created while disabled is
//! a single relaxed atomic load and constructs nothing (the detail
//! closure is never called). While enabled, recording one event is two
//! monotonic-clock reads and one lock of the process-wide recording to
//! push the event onto a `Vec` that grows on demand up to the session's
//! capacity. Once it holds that many, further events are counted in
//! [`Session::dropped`] and discarded.
//!
//! # Sessions
//!
//! The buffer and the on/off switch are process-wide, so recording is
//! one [`Session`] at a time: [`Session::record`] takes a process-wide
//! lock, starts on an empty buffer, enables tracing, runs its closure,
//! disables tracing and hands back every event recorded meanwhile.
//! [`Session::chrome_trace`] renders them as a Chrome trace-event JSON
//! array (`ph:"X"` complete events plus `ph:"M"` thread-name metadata).
//! Save it to a file and open it in `chrome://tracing` or
//! <https://ui.perfetto.dev>.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

use gobo_sanitize::SanMutex;

use crate::json;

/// Default event-buffer capacity (events beyond it are dropped).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// What the current session has recorded, plus the thread names every
/// session shares.
struct Recording {
    events: Vec<SpanEvent>,
    /// Events the current session keeps; 0 between sessions.
    capacity: usize,
    dropped: u64,
    /// Thread names, indexed by tid.
    names: Vec<String>,
}

// The innermost lock: spans can be emitted while any serve/cluster lock
// is held, so it ranks above everything.
static BUFFER: SanMutex<Recording> = SanMutex::new(
    "obs.trace.buffer",
    90,
    Recording { events: Vec::new(), capacity: 0, dropped: 0, names: Vec::new() },
);

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name (e.g. `"gobo.cluster"`).
    pub name: &'static str,
    /// Preformatted `key=value` arguments; empty when the span had none.
    pub detail: String,
    /// Small dense per-thread id (assigned on each thread's first span).
    pub tid: u32,
    /// Stack depth at entry (0 = no enclosing span on this thread).
    pub depth: u32,
    /// Microseconds since the process trace epoch at entry.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
}

thread_local! {
    static TID: Cell<u32> = const { Cell::new(u32::MAX) };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// This thread's tid: its index in the name list, taken on its first
/// armed span.
fn current_tid() -> u32 {
    TID.with(|cell| {
        if cell.get() == u32::MAX {
            let name = std::thread::current().name().map(str::to_owned);
            let mut recording = BUFFER.lock();
            let tid = recording.names.len() as u32; // CAST: one per thread, far below u32::MAX
            recording.names.push(name.unwrap_or_else(|| format!("thread-{tid}")));
            cell.set(tid);
        }
        cell.get()
    })
}

/// Turns recording on. Idempotent; the event buffer keeps whatever it
/// already holds.
fn enable() {
    epoch(); // pin the epoch no later than the first enable
             // ORDERING: Release so the pinned epoch above is visible to any
             // thread that observes tracing as enabled.
    ENABLED.store(true, Ordering::Release);
}

/// Turns recording off. Spans currently on the stack still record on
/// drop (their guards were armed at entry); new spans become no-ops.
fn disable() {
    // ORDERING: Release, symmetric with `enable`; a flag flip needs no
    // stronger ordering because span guards re-check nothing else.
    ENABLED.store(false, Ordering::Release);
}

/// Whether spans are currently being recorded.
pub fn is_enabled() -> bool {
    // ORDERING: Relaxed — a racy on/off check; callers tolerate a
    // stale answer for one span either way.
    ENABLED.load(Ordering::Relaxed)
}

/// Everything one traced run recorded.
#[derive(Debug)]
pub struct Session {
    /// The recorded spans, sorted by thread then start time (deeper
    /// spans after their parents).
    pub events: Vec<SpanEvent>,
    /// Spans dropped because the buffer was full.
    pub dropped: u64,
}

impl Session {
    /// Runs `run` with tracing on and returns its result with what it
    /// recorded. Sessions take turns on a process-wide lock, and each
    /// starts on an empty buffer and ends with tracing off, so two
    /// sessions never see each other's spans. Spans from threads outside
    /// any session that run meanwhile are recorded too.
    ///
    /// The lock is a plain `std` mutex, not a sanitized one: a session
    /// may hold it across blocking I/O (`gobo serve --trace-out` holds it
    /// for the server's whole life).
    pub fn record<T>(run: impl FnOnce() -> T) -> (T, Session) {
        record_with_capacity(DEFAULT_CAPACITY, run)
    }

    /// The recorded spans as Chrome trace-event JSON (the array form):
    /// one `ph:"M"` thread-name metadata record per thread followed by
    /// one `ph:"X"` complete event per span.
    pub fn chrome_trace(&self) -> String {
        chrome_trace(&self.events)
    }
}

/// [`Session::record`] keeping at most `capacity` events.
fn record_with_capacity<T>(capacity: usize, run: impl FnOnce() -> T) -> (T, Session) {
    static SESSIONS: Mutex<()> = Mutex::new(());
    /// Turns recording off however `run` ends.
    struct Off;
    impl Drop for Off {
        fn drop(&mut self) {
            disable();
        }
    }
    let _turn = SESSIONS.lock().unwrap_or_else(PoisonError::into_inner);
    {
        // Capacity 0 between sessions keeps `events` empty; only the
        // drop count of stray spans needs clearing.
        let mut recording = BUFFER.lock();
        recording.capacity = capacity;
        recording.dropped = 0;
    }
    enable();
    let off = Off;
    let value = run();
    drop(off);
    let (mut events, dropped) = {
        let mut recording = BUFFER.lock();
        recording.capacity = 0;
        (std::mem::take(&mut recording.events), recording.dropped)
    };
    events.sort_by_key(|e| (e.tid, e.start_us, e.depth));
    (value, Session { events, dropped })
}

/// An RAII span guard: created armed by [`span!`](crate::span) when
/// tracing is enabled, records one event when dropped.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    detail: String,
    tid: u32,
    depth: u32,
    start: Instant,
    armed: bool,
}

impl Span {
    /// Enters a span. `detail` is only evaluated when tracing is
    /// enabled; prefer the [`span!`](crate::span) macro, which builds
    /// the closure from `key = value` arguments.
    pub fn enter(name: &'static str, detail: impl FnOnce() -> String) -> Span {
        if !is_enabled() {
            return Span {
                name,
                detail: String::new(),
                tid: 0,
                depth: 0,
                start: epoch(),
                armed: false,
            };
        }
        let tid = current_tid();
        let depth = DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        Span { name, detail: detail(), tid, depth, start: Instant::now(), armed: true }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        // Derive both endpoints from the epoch before truncating:
        // flooring start and duration independently lets a child span's
        // computed end (start_us + dur_us) overshoot its parent's by a
        // microsecond, breaking nesting containment in exports.
        let start_us = self.start.duration_since(epoch()).as_micros() as u64;
        let end_us = epoch().elapsed().as_micros() as u64;
        let dur_us = end_us.saturating_sub(start_us);
        let event = SpanEvent {
            name: self.name,
            detail: std::mem::take(&mut self.detail),
            tid: self.tid,
            depth: self.depth,
            start_us,
            dur_us,
        };
        let mut recording = BUFFER.lock();
        if recording.events.len() < recording.capacity {
            recording.events.push(event);
        } else {
            recording.dropped += 1;
        }
    }
}

/// Enters a span recording scope timing under `name`, with optional
/// `key = value` arguments (formatted with `Display`, evaluated only
/// when tracing is enabled). Bind the result or the span closes
/// immediately:
///
/// ```
/// # use gobo_obs::span;
/// let _span = span!("gobo.cluster", layer = "encoder.0.attention.query", bits = 3);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::Span::enter($name, String::new)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::trace::Span::enter($name, || {
            let mut detail = String::new();
            $(
                {
                    use std::fmt::Write as _;
                    if !detail.is_empty() {
                        detail.push(' ');
                    }
                    let _ = write!(detail, concat!(stringify!($key), "={}"), $value);
                }
            )+
            detail
        })
    };
}

fn chrome_trace(events: &[SpanEvent]) -> String {
    let mut seen_tids: Vec<u32> = events.iter().map(|e| e.tid).collect();
    seen_tids.sort_unstable();
    seen_tids.dedup();

    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push('[');
    let mut first = true;
    let emit = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push('\n');
    };

    {
        let recording = BUFFER.lock();
        for (tid, name) in (0u32..).zip(&recording.names) {
            if !seen_tids.contains(&tid) {
                continue;
            }
            emit(&mut out, &mut first);
            out.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":{}}}}}",
                json::string(name)
            ));
        }
    }
    for event in events {
        emit(&mut out, &mut first);
        out.push_str(&format!(
            "{{\"name\":{},\"cat\":\"gobo\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{},\"args\":{{\"depth\":{}",
            json::string(event.name),
            event.start_us,
            event.dur_us,
            event.tid,
            event.depth,
        ));
        if !event.detail.is_empty() {
            out.push_str(&format!(",\"detail\":{}", json::string(&event.detail)));
        }
        out.push_str("}}");
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing_and_skip_detail() {
        let mut evaluated = false;
        let ((), session) = Session::record(|| {
            disable();
            let span = Span::enter("test.noop", || {
                evaluated = true;
                String::new()
            });
            assert!(!span.armed);
        });
        assert!(!evaluated, "detail closure ran while disabled");
        assert!(session.events.is_empty());
    }

    #[test]
    fn spans_nest_and_record_depth() {
        let ((), Session { events, .. }) = Session::record(|| {
            let _outer = span!("test.outer", step = 1);
            let _inner = span!("test.inner");
        });
        assert_eq!(events.len(), 2);
        let outer = events.iter().find(|e| e.name == "test.outer").unwrap();
        let inner = events.iter().find(|e| e.name == "test.inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.detail, "step=1");
        // The inner interval is contained in the outer one.
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us);
    }

    #[test]
    fn events_from_other_threads_carry_distinct_tids() {
        let ((main_tid, worker_tid), Session { events, .. }) = Session::record(|| {
            let main_tid = {
                let _span = span!("test.main");
                current_tid()
            };
            let worker = std::thread::Builder::new().name("obs-test-worker".into()).spawn(|| {
                let _span = span!("test.worker");
                current_tid()
            });
            (main_tid, worker.unwrap().join().unwrap())
        });
        assert_ne!(main_tid, worker_tid);
        assert!(events.iter().any(|e| e.name == "test.main" && e.tid == main_tid));
        assert!(events.iter().any(|e| e.name == "test.worker" && e.tid == worker_tid));
    }

    #[test]
    fn full_buffer_drops_instead_of_blocking() {
        let ((), session) = record_with_capacity(4, || {
            for i in 0..10 {
                let _span = span!("test.flood", i = i);
            }
        });
        assert_eq!(session.dropped, 6);
        assert_eq!(session.events.len(), 4);
    }

    /// Two sessions at once, each emitting its own spans for a while:
    /// each gets all of its own spans and none of the other's.
    #[test]
    fn concurrent_sessions_see_only_their_own_spans() {
        let spans = |name: &'static str| {
            let ((), session) = Session::record(|| {
                for _ in 0..20 {
                    let _span = span!(name);
                    std::thread::sleep(std::time::Duration::from_micros(500));
                }
            });
            session.events.into_iter().map(|e| e.name).collect::<Vec<_>>()
        };
        std::thread::scope(|scope| {
            let a = scope.spawn(|| spans("test.session.a"));
            assert_eq!(spans("test.session.b"), ["test.session.b"; 20]);
            assert_eq!(a.join().unwrap(), ["test.session.a"; 20]);
        });
    }

    /// Four threads racing into one session: every span is kept or
    /// counted as dropped, exactly once.
    #[test]
    fn racing_threads_lose_and_duplicate_nothing() {
        let ((), Session { events, dropped }) = record_with_capacity(2_500, || {
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        for i in 0..1_000 {
                            let _span = span!("test.race", i = i);
                        }
                    });
                }
            });
        });
        assert_eq!(events.len(), 2_500);
        assert_eq!(events.len() as u64 + dropped, 4_000);
        let mut pairs: Vec<_> = events.iter().map(|e| (e.tid, e.detail.as_str())).collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), 2_500, "a (tid, detail) pair repeats");
    }

    #[test]
    fn chrome_export_contains_thread_metadata_and_complete_events() {
        let ((), session) = Session::record(|| {
            let _span = span!("test.export", layer = "encoder.0", bits = 3);
        });
        let out = session.chrome_trace();
        assert!(out.starts_with('['));
        assert!(out.trim_end().ends_with(']'));
        assert!(out.contains("\"ph\":\"M\""), "{out}");
        assert!(out.contains("\"ph\":\"X\""), "{out}");
        assert!(out.contains("\"name\":\"test.export\""), "{out}");
        assert!(out.contains("layer=encoder.0 bits=3"), "{out}");
    }
}
