//! Concurrency audit: exhaustive interleaving checks for the model
//! registry's pin/evict protocol and, further down the file, for the
//! scheduler's push / notify / sweep / sleep protocol and for the reply
//! protocol that counts each request once.
//!
//! The registry protocol (`crates/serve/src/registry.rs`) is: `get` takes
//! the registry mutex, clones the entry `Arc` (the *pin*), and releases
//! the lock; eviction takes the same mutex and removes the entry from
//! the map, dropping the registry's own `Arc`. The decoded weights are
//! freed only when the last `Arc` drops — so a batch holding a pin can
//! never observe freed weights, no matter how the eviction interleaves.
//!
//! These tests model exactly the operations that are atomic in the
//! real implementation — one mutex-guarded lookup-and-clone, one
//! mutex-guarded map removal, one refcount decrement — and let
//! `gobo_lint::interleave` close one to three getters racing an evictor
//! over every reachable state. Invariants proved across all schedules:
//!
//! * **no use-after-free** — a pinned handle never reads freed
//!   weights;
//! * **exactly-one free** — the weights are freed exactly once, after
//!   the last reference (registry or pin) goes away;
//! * **no leak** — once every thread finishes, nothing still holds the
//!   entry and the memory is gone.
//!
//! A deliberately broken variant — an evictor that frees the decoded
//! weights in place instead of deferring to the refcount — proves the
//! explorer actually catches the bug these invariants guard against.

use gobo_lint::interleave::{explore, Explored, Program};

/// The modeled registry slot: what the `Arc` refcount and the entries
/// map hold, plus the bookkeeping the invariants need.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Slot {
    /// `Arc::strong_count` of the entry. The registry's own map
    /// reference counts as 1.
    strong: u32,
    /// Whether the entry is still in the registry's `entries` map.
    resident: bool,
    /// Whether the decoded weights have been dropped.
    freed: bool,
    /// How many times the weights were dropped — must never exceed 1.
    frees: u32,
    /// Set when a pinned reader observed freed weights.
    use_after_free: bool,
}

impl Slot {
    fn new() -> Slot {
        Slot { strong: 1, resident: true, freed: false, frees: 0, use_after_free: false }
    }

    /// One `Arc` reference going away; the last one drops the weights.
    fn drop_ref(&mut self) {
        self.strong -= 1;
        if self.strong == 0 {
            self.freed = true;
            self.frees += 1;
        }
    }
}

/// A worker batch pinning the slot: (1) the mutex-guarded
/// lookup-and-clone in `ModelRegistry::get` — one atomic step because
/// the real code does it under the lock; (2) the encode on the pinned
/// handle, outside any lock; (3) the pin dropping when the batch
/// completes.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Getter {
    pinned: bool,
    encoded: bool,
    done: bool,
}

impl Getter {
    fn new() -> Getter {
        Getter { pinned: false, encoded: false, done: false }
    }
}

impl Program<Slot> for Getter {
    fn step(&mut self, slot: &mut Slot) {
        if !self.pinned {
            // Step 1: lock, look up, clone the Arc. A missing entry
            // ends the thread (the real `get` returns ModelNotFound).
            if slot.resident {
                slot.strong += 1;
                self.pinned = true;
            } else {
                self.done = true;
            }
        } else if !self.encoded {
            // Step 2: encode on the pin — the weights must be live.
            if slot.freed {
                slot.use_after_free = true;
            }
            self.encoded = true;
        } else {
            // Step 3: batch done, pin drops.
            slot.drop_ref();
            self.done = true;
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// The evictor: one mutex-guarded step removing the entry from the
/// map and dropping the registry's reference — `evict_beyond_budget`
/// under the same lock `get` takes. The weights are freed here only
/// when no pin is outstanding.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Evictor {
    done: bool,
}

impl Program<Slot> for Evictor {
    fn step(&mut self, slot: &mut Slot) {
        if slot.resident {
            slot.resident = false;
            slot.drop_ref();
        }
        self.done = true;
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// A broken evictor that frees the decoded weights in place, ignoring
/// outstanding pins — the bug the refcount protocol exists to prevent.
#[derive(Clone, PartialEq, Eq, Hash)]
struct EagerEvictor {
    done: bool,
}

impl Program<Slot> for EagerEvictor {
    fn step(&mut self, slot: &mut Slot) {
        if slot.resident {
            slot.resident = false;
            slot.strong -= 1;
            slot.freed = true;
            slot.frees += 1;
        }
        self.done = true;
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// Shared check for the correct protocol's terminal states.
fn assert_slot_clean(slot: &Slot, schedule: &[usize]) {
    assert!(!slot.use_after_free, "pinned reader saw freed weights in schedule {schedule:?}");
    assert_eq!(slot.frees, 1, "weights freed {} times in schedule {schedule:?}", slot.frees);
    assert_eq!(slot.strong, 0, "leaked references in schedule {schedule:?}");
    assert!(slot.freed, "weights leaked in schedule {schedule:?}");
}

/// Mixed programs so one explorer run can hold getters and an evictor.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Thread {
    Get(Getter),
    Evict(Evictor),
    Eager(EagerEvictor),
}

impl Program<Slot> for Thread {
    fn step(&mut self, slot: &mut Slot) {
        match self {
            Thread::Get(g) => g.step(slot),
            Thread::Evict(e) => e.step(slot),
            Thread::Eager(e) => e.step(slot),
        }
    }

    fn is_done(&self) -> bool {
        match self {
            Thread::Get(g) => g.is_done(),
            Thread::Evict(e) => e.is_done(),
            Thread::Eager(e) => e.is_done(),
        }
    }
}

#[test]
fn interleave_pin_evict_every_schedule_is_safe() {
    // One to three getters racing the evictor. Three are 10 542
    // schedules (fewer than the 10!/(3!3!3!1!) = 16 800 interleavings of
    // 3×3+1 steps: a getter that loses the race to the evictor ends after
    // its single miss step) over 189 states.
    let expected = [(1, 9, 2), (2, 41, 4), (3, 189, 8)];
    for (getters, states, terminals) in expected {
        let mut threads = vec![Thread::Get(Getter::new()); getters];
        threads.push(Thread::Evict(Evictor { done: false }));
        let explored = explore(Slot::new(), threads, assert_slot_clean);
        assert_eq!(explored, Explored { states, terminals }, "{getters} getters");
    }
}

#[test]
fn interleave_explorer_catches_eager_free_bug() {
    // The broken evictor frees under a live pin. The explorer must
    // surface the schedule where the getter reads freed weights —
    // proving these tests would catch a regression that drops weights
    // in place instead of deferring to the refcount: pin, free under the
    // pin, encode on freed weights, unpin.
    let threads = vec![Thread::Get(Getter::new()), Thread::Eager(EagerEvictor { done: false })];
    let mut witnesses = Vec::new();
    explore(Slot::new(), threads, |slot, schedule| {
        if slot.use_after_free {
            witnesses.push(schedule.to_vec());
        }
    });
    assert_eq!(witnesses, [[0, 1, 0, 0]], "explorer failed to find the eager-free use-after-free");
}

// ---------------------------------------------------------------------
// The scheduler's queue protocol (`crates/serve/src/scheduler.rs`).
//
// `Scheduler::submit` pushes under the state lock and calls
// `notify_all` after unlocking; a worker's `next_batch` sweeps the
// queue under the lock, takes its share of whatever is queued at once,
// and sleeps — untimed — only when the sweep found the queue empty, the
// lock being released and the sleeper registered in one atomic step
// (that is what a condition variable's `wait` is). The model has
// exactly those steps: `push`, `notify`, and `sweep → take | sleep`.
// Workers never finish; a schedule ends when every submitter is done
// and every worker is blocked asleep, and that is where the invariants
// are checked:
//
// * **work conservation / no lost wake-up** — no worker is asleep
//   while a request is queued;
// * **exactly once** — every request submitted is in exactly one batch;
// * **batch shape** — every batch is one key, at most `max_batch`
//   long, and each key's requests are dispatched in arrival order.
//
// One to four submitters over two keys against one and two workers,
// each closed over its reachable states — at most 2,455, for four
// submitters and two workers, however many schedules reach them. A
// broken worker that tests the predicate *before* taking the
// lock (peek, then sleep without looking again) must be caught losing a
// wake-up.
// ---------------------------------------------------------------------

const MAX_BATCH: usize = 2;

/// The split rule of `scheduler::share`, restated (it is private, and
/// pinned there by its own table test).
fn share(queued: usize, workers: usize) -> usize {
    queued.div_ceil(workers).min(MAX_BATCH)
}

/// A request: arrival number and model key.
type Queued = (usize, u8);

#[derive(Clone, Default, PartialEq, Eq, Hash)]
struct Sched {
    queue: Vec<Queued>,
    arrivals: usize,
    /// Worker `w` is registered on the condition variable.
    asleep: [bool; 2],
    batches: Vec<Vec<Queued>>,
    workers: usize,
}

#[derive(Clone, PartialEq, Eq, Hash)]
enum SchedThread {
    /// `submit`: push under the lock, then notify outside it.
    Submitter { key: u8, pushed: bool, notified: bool },
    /// `next_batch` in a loop.
    Worker { w: usize },
    /// The bug: the emptiness test runs without the lock, and a worker
    /// that saw an empty queue goes to sleep on that stale answer.
    PeekingWorker { w: usize, saw_empty: bool },
}

/// The sweep under the lock: removes the oldest request's share from
/// the queue as one batch — the oldest request and the oldest requests
/// of its key, `share` of them in all.
fn take(s: &mut Sched) {
    let Some(&(_, key)) = s.queue.first() else { return };
    let want = share(s.queue.iter().filter(|r| r.1 == key).count(), s.workers);
    let mut batch = Vec::new();
    s.queue.retain(|r| {
        let taken = r.1 == key && batch.len() < want;
        if taken {
            batch.push(*r);
        }
        !taken
    });
    s.batches.push(batch);
}

impl Program<Sched> for SchedThread {
    fn step(&mut self, s: &mut Sched) {
        match self {
            SchedThread::Submitter { key, pushed, notified } => {
                if !*pushed {
                    s.queue.push((s.arrivals, *key));
                    s.arrivals += 1;
                    *pushed = true;
                } else {
                    s.asleep = [false; 2]; // notify_all
                    *notified = true;
                }
            }
            SchedThread::Worker { w } => {
                if s.queue.is_empty() {
                    s.asleep[*w] = true;
                } else {
                    take(s);
                }
            }
            SchedThread::PeekingWorker { w, saw_empty } => {
                if *saw_empty {
                    s.asleep[*w] = true;
                    *saw_empty = false;
                } else if s.queue.is_empty() {
                    *saw_empty = true;
                } else {
                    take(s);
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        matches!(self, SchedThread::Submitter { notified: true, .. })
    }

    fn is_blocked(&self, s: &Sched) -> bool {
        match self {
            SchedThread::Submitter { .. } => false,
            SchedThread::Worker { w } | SchedThread::PeekingWorker { w, .. } => s.asleep[*w],
        }
    }
}

fn sched_threads(keys: &[u8], workers: usize, peeking: bool) -> (Sched, Vec<SchedThread>) {
    let mut threads: Vec<SchedThread> = keys
        .iter()
        .map(|&key| SchedThread::Submitter { key, pushed: false, notified: false })
        .collect();
    threads.extend((0..workers).map(|w| match peeking {
        false => SchedThread::Worker { w },
        true => SchedThread::PeekingWorker { w, saw_empty: false },
    }));
    (Sched { workers, ..Sched::default() }, threads)
}

/// Whether a terminal state has a request queued under a sleeping
/// worker — the lost wake-up.
fn stranded(s: &Sched) -> bool {
    !s.queue.is_empty() && s.asleep[..s.workers].iter().any(|&a| a)
}

fn assert_sched_clean(s: &Sched, submitted: usize, schedule: &[usize]) {
    assert!(!stranded(s), "request queued under a sleeping worker in schedule {schedule:?}");
    assert!(s.queue.is_empty(), "requests left queued in schedule {schedule:?}");
    assert!(s.asleep[..s.workers].iter().all(|&a| a), "terminal with a worker awake");
    let mut seen: Vec<usize> = s.batches.iter().flatten().map(|r| r.0).collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..submitted).collect::<Vec<_>>(), "not exactly once in {schedule:?}");
    for batch in &s.batches {
        assert!((1..=MAX_BATCH).contains(&batch.len()), "batch {batch:?} in {schedule:?}");
        assert!(batch.iter().all(|r| r.1 == batch[0].1), "mixed keys {batch:?} in {schedule:?}");
    }
    for key in [0u8, 1] {
        let order: Vec<usize> =
            s.batches.iter().flatten().filter(|r| r.1 == key).map(|r| r.0).collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]), "key {key} out of order in {schedule:?}");
    }
}

/// Every mix of one to four submitters over two keys, against one and
/// two workers, with the states and terminal states each closes over.
const CASES: [(&[u8], usize, Explored); 12] = [
    (&[0], 1, Explored { states: 9, terminals: 1 }),
    (&[0, 0], 1, Explored { states: 44, terminals: 2 }),
    (&[0, 1], 1, Explored { states: 54, terminals: 2 }),
    (&[0, 0, 1], 1, Explored { states: 342, terminals: 6 }),
    (&[0, 0, 0, 0], 1, Explored { states: 939, terminals: 5 }),
    (&[0, 0, 1, 0], 1, Explored { states: 1926, terminals: 12 }),
    (&[0], 2, Explored { states: 17, terminals: 1 }),
    (&[0, 0], 2, Explored { states: 66, terminals: 1 }),
    (&[0, 1], 2, Explored { states: 96, terminals: 2 }),
    (&[0, 0, 1], 2, Explored { states: 460, terminals: 3 }),
    (&[0, 0, 0, 0], 2, Explored { states: 1265, terminals: 3 }),
    (&[0, 0, 1, 0], 2, Explored { states: 2455, terminals: 8 }),
];

#[test]
fn interleave_scheduler_every_reachable_state_conserves_work() {
    for (keys, workers, expected) in CASES {
        let (sched, threads) = sched_threads(keys, workers, false);
        let explored = explore(sched, threads, |s, schedule| {
            assert_sched_clean(s, keys.len(), schedule);
        });
        assert_eq!(explored, expected, "{keys:?} x {workers} workers");
    }
}

#[test]
fn interleave_scheduler_catches_predicate_outside_the_lock() {
    // One submitter, one peeking worker is enough: peek (empty), push,
    // notify (nobody asleep yet), sleep — for ever, with work queued.
    let (sched, threads) = sched_threads(&[0], 1, true);
    let mut witnesses = Vec::new();
    explore(sched, threads, |s, schedule| {
        if stranded(s) {
            witnesses.push(schedule.to_vec());
        }
    });
    assert_eq!(witnesses, [[1, 0, 0, 1]], "the explorer missed the lost wake-up");
}

// ---------------------------------------------------------------------
// The reply protocol of one request (`scheduler::answer` against
// `Scheduler::encode_blocking`).
//
// A worker answers every request it takes, expired ones included; a
// blocking submitter waits for the reply until its deadline (plus a
// grace) runs out and then answers its caller `DeadlineExceeded`
// itself. Each side counts what it answers, and the counter law
// `ServeCore::check_counter_laws` checks — requests in = answers out —
// needs exactly one count a request, whichever side answers. The two
// race for the request's claim (an `AtomicBool` both hold): only the
// side whose swap finds it unset counts, and a submitter that loses the
// claim after its timeout takes the worker's reply with a plain `recv`,
// the worker sending right after its claim.
//
// The steps are the atomic actions: the submitter's `recv_timeout`
// (which returns a reply already in the one-slot channel, or times out —
// the explorer runs it at every point, so the deadline can end at any
// of them), its claim, its count, its `recv` and dropping its receiver;
// the worker's claim, its count and its `send`. The protocol before the
// claim — the submitter counted on timeout and dropped its receiver, the
// worker counted, sent, and took its count back only when the send
// failed — is the mutant the explorer must reject: a worker that sends
// between the submitter's timeout and its drop counts the request a
// second time.
// ---------------------------------------------------------------------

/// One request's reply channel, claim and counters.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
struct ReplyState {
    claimed: bool,
    /// A reply sits in the one-slot channel.
    buffered: bool,
    /// The submitter dropped its receiver: a `send` fails.
    hung_up: bool,
    /// Deadline rejections the submitter counted.
    timeouts: i32,
    /// Answers the worker counted, less the counts it took back.
    answers: i32,
    /// What the caller was handed: `Some(true)` the worker's reply,
    /// `Some(false)` the submitter's `DeadlineExceeded`.
    handed: Option<bool>,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Side {
    Submitter,
    Worker,
}

/// One side of the protocol at program counter `pc` (`DONE` when
/// finished); `claims` picks the claim protocol over the parent's undo.
#[derive(Clone, PartialEq, Eq, Hash)]
struct ReplyThread {
    side: Side,
    claims: bool,
    pc: u8,
}

const DONE: u8 = u8::MAX;

impl Program<ReplyState> for ReplyThread {
    fn step(&mut self, r: &mut ReplyState) {
        self.pc = match (self.side, self.pc) {
            // `recv_timeout`: the reply if one is buffered, else the timeout.
            (Side::Submitter, 0) if r.buffered => {
                (r.buffered, r.handed) = (false, Some(true));
                DONE
            }
            (Side::Submitter, 0) => 1,
            // The claim after the timeout (the parent had none), and the
            // count of the winner.
            (Side::Submitter, 1) if self.claims && std::mem::replace(&mut r.claimed, true) => 3,
            (Side::Submitter, 1) => {
                r.timeouts += 1;
                2
            }
            // The caller gets `DeadlineExceeded`, and the receiver drops.
            (Side::Submitter, 2) => {
                (r.handed, r.hung_up) = (Some(false), true);
                DONE
            }
            // Lost the claim: `recv` the worker's reply (blocks until sent).
            (Side::Submitter, 3) => {
                (r.buffered, r.handed) = (false, Some(true));
                DONE
            }
            (Side::Worker, 0) if self.claims && std::mem::replace(&mut r.claimed, true) => 1,
            (Side::Worker, 0) => {
                r.answers += 1;
                1
            }
            // `send`: into the slot, or an error if the receiver is gone,
            // which the parent answered by taking its count back.
            (Side::Worker, 1) if r.hung_up && !self.claims => 2,
            (Side::Worker, 1) => {
                r.buffered = !r.hung_up;
                DONE
            }
            (Side::Worker, 2) => {
                r.answers -= 1;
                DONE
            }
            (_, pc) => unreachable!("no step at pc {pc}"),
        };
    }

    fn is_done(&self) -> bool {
        self.pc == DONE
    }

    fn is_blocked(&self, r: &ReplyState) -> bool {
        self.side == Side::Submitter && self.pc == 3 && !r.buffered
    }
}

fn reply_threads(claims: bool) -> Vec<ReplyThread> {
    [Side::Submitter, Side::Worker].map(|side| ReplyThread { side, claims, pc: 0 }).to_vec()
}

/// One count a request, and it is the count of what the caller got: a
/// deadline rejection it counted itself, or the worker's counted reply.
fn counted_once(r: &ReplyState) -> bool {
    match r.handed {
        Some(true) => (r.timeouts, r.answers) == (0, 1),
        Some(false) => (r.timeouts, r.answers) == (1, 0),
        None => false,
    }
}

#[test]
fn interleave_reply_every_schedule_counts_once() {
    let explored = explore(ReplyState::default(), reply_threads(true), |r, schedule| {
        assert!(counted_once(r), "counted {} + {} in {schedule:?}", r.timeouts, r.answers);
    });
    // Three ends: the reply arrived in time; the deadline won the claim
    // (the worker's send landing before or after the receiver drops);
    // the worker won it and its reply was taken after the timeout — the
    // same state as the first.
    assert_eq!(explored, Explored { states: 16, terminals: 3 });
}

#[test]
fn interleave_explorer_rejects_the_reply_undo() {
    // The parent protocol: the submitter times out and counts, the
    // worker counts and sends into the still-open channel, and only then
    // does the receiver drop — two counts for one request, and the one
    // terminal state that breaks the law.
    let mut witnesses = Vec::new();
    explore(ReplyState::default(), reply_threads(false), |r, schedule| {
        if !counted_once(r) {
            witnesses.push(schedule.to_vec());
        }
    });
    assert_eq!(witnesses, [[0, 0, 1, 1, 0]], "the explorer missed the double count");
}
