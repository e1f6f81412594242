//! Span tracing: per-thread span stacks over a lock-free event buffer,
//! exported as Chrome trace-event JSON.
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
//! monotonic-clock reads, one `fetch_add` to claim a slot in a
//! fixed-capacity event buffer, and one slot write — no locks on the
//! hot path. When the buffer fills, further events are counted in
//! [`Session::dropped`] and discarded rather than blocking or reallocating.
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

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use gobo_sanitize::SanMutex;

use crate::json;

/// Default event-buffer capacity (events beyond it are dropped).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);
static GENERATION: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

// The obs registries are innermost locks: spans can be emitted while
// any serve/cluster lock is held, so these rank above everything.
fn thread_names() -> &'static SanMutex<Vec<(u32, String)>> {
    static NAMES: OnceLock<SanMutex<Vec<(u32, String)>>> = OnceLock::new();
    NAMES.get_or_init(|| SanMutex::new("obs.trace.names", 90, Vec::new()))
}

fn ring_slot() -> &'static SanMutex<Arc<Ring>> {
    static RING: OnceLock<SanMutex<Arc<Ring>>> = OnceLock::new();
    RING.get_or_init(|| SanMutex::new("obs.trace.ring", 91, Arc::new(Ring::new(0))))
}

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

struct Slot {
    ready: AtomicBool,
    data: std::cell::UnsafeCell<Option<SpanEvent>>,
}

/// Fixed-capacity write-once event buffer. Writers claim slots with one
/// `fetch_add`; a slot is published by its `ready` flag (release store,
/// acquire load), so readers never observe a partially written event.
struct Ring {
    slots: Box<[Slot]>,
    cursor: AtomicUsize,
    dropped: AtomicU64,
}

// SAFETY: each slot is written at most once, by the unique thread that
// claimed its index via `cursor.fetch_add`; readers only dereference a
// slot after `ready` is observed `true` with Acquire ordering, which
// synchronizes with the writer's Release store.
unsafe impl Sync for Ring {}
// SAFETY: moving a Ring between threads moves plain owned data
// (`Box<[Slot]>` plus atomics); the `UnsafeCell` contents are only
// reached through the claim/publish protocol above.
unsafe impl Send for Ring {}

impl Ring {
    fn new(capacity: usize) -> Self {
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || Slot {
            ready: AtomicBool::new(false),
            data: std::cell::UnsafeCell::new(None),
        });
        Ring {
            slots: slots.into_boxed_slice(),
            cursor: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    fn push(&self, event: SpanEvent) {
        // ORDERING: Relaxed suffices for the claim — fetch_add's
        // read-modify-write atomicity alone guarantees a unique index
        // per caller; publication happens via `ready`, not `cursor`.
        let idx = self.cursor.fetch_add(1, Ordering::Relaxed);
        match self.slots.get(idx) {
            Some(slot) => {
                // SAFETY: `idx` was claimed exclusively by this thread.
                unsafe { *slot.data.get() = Some(event) };
                // ORDERING: Release publishes the slot write above;
                // pairs with the Acquire load of `ready` in `collect`.
                slot.ready.store(true, Ordering::Release);
            }
            None => {
                // ORDERING: Relaxed — an independent statistics counter.
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn collect(&self) -> Vec<SpanEvent> {
        // ORDERING: Acquire on `cursor` caps the scan at an index every
        // concurrent writer had already claimed; per-slot visibility is
        // still gated on each slot's own `ready` flag below.
        let end = self.cursor.load(Ordering::Acquire).min(self.slots.len());
        let mut out = Vec::with_capacity(end);
        for slot in &self.slots[..end] {
            // ORDERING: Acquire pairs with the writer's Release store
            // of `ready`, making the slot's data write visible.
            if slot.ready.load(Ordering::Acquire) {
                // SAFETY: `ready` was set after the write completed.
                if let Some(event) = unsafe { (*slot.data.get()).clone() } {
                    out.push(event);
                }
            }
        }
        out
    }
}

thread_local! {
    static TID: Cell<u32> = const { Cell::new(u32::MAX) };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    static CACHED_RING: RefCell<Option<(u64, Arc<Ring>)>> = const { RefCell::new(None) };
}

fn current_tid() -> u32 {
    TID.with(|cell| {
        let tid = cell.get();
        if tid != u32::MAX {
            return tid;
        }
        // ORDERING: Relaxed — fetch_add atomicity alone makes ids
        // unique; nothing else is ordered against assignment.
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        cell.set(tid);
        let name =
            std::thread::current().name().map_or_else(|| format!("thread-{tid}"), str::to_owned);
        thread_names().lock().push((tid, name));
        tid
    })
}

/// Fetches this thread's cached handle to the current event buffer,
/// refreshing it (one mutex lock) only when [`swap_ring`]
/// installed a new generation since the last span on this thread.
fn current_ring() -> Arc<Ring> {
    // ORDERING: Acquire pairs with the Release `GENERATION.fetch_add`
    // in swap_ring so a bumped generation is seen no earlier
    // than the new ring it announces (the mutex in the refresh path
    // then provides the actual handoff).
    let generation = GENERATION.load(Ordering::Acquire);
    CACHED_RING.with(|cell| {
        let mut cached = cell.borrow_mut();
        match cached.as_ref() {
            Some((cached_generation, ring)) if *cached_generation == generation => Arc::clone(ring),
            _ => {
                let ring = Arc::clone(&ring_slot().lock());
                *cached = Some((generation, Arc::clone(&ring)));
                ring
            }
        }
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

/// Installs a fresh, empty event buffer with `capacity` slots and
/// returns the old one. In-flight spans from before the swap may still
/// write to the old buffer.
fn swap_ring(capacity: usize) -> Arc<Ring> {
    let mut slot = ring_slot().lock();
    let old = std::mem::replace(&mut *slot, Arc::new(Ring::new(capacity)));
    // ORDERING: Release pairs with the Acquire generation load in
    // `current_ring`, invalidating thread-local ring caches only after
    // the new ring is installed under the lock.
    GENERATION.fetch_add(1, Ordering::Release);
    old
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

/// [`Session::record`] on a buffer of `capacity` slots.
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
    swap_ring(capacity);
    enable();
    let off = Off;
    let value = run();
    drop(off);
    // Nothing records between sessions, so the buffer left behind is empty.
    let ring = swap_ring(0);
    let mut events = ring.collect();
    events.sort_by_key(|e| (e.tid, e.start_us, e.depth));
    // ORDERING: Relaxed — a statistics read of an independent counter.
    let dropped = ring.dropped.load(Ordering::Relaxed);
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
        current_ring().push(SpanEvent {
            name: self.name,
            detail: std::mem::take(&mut self.detail),
            tid: self.tid,
            depth: self.depth,
            start_us,
            dur_us,
        });
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
        let names = thread_names().lock();
        for &(tid, ref name) in names.iter() {
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
