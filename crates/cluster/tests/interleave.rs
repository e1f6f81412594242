//! Concurrency audit: exhaustive interleaving checks for the router's
//! canary trial and, in `mod pool` at the end of the file, for its
//! per-node connection pool (that module's comment has its protocol).
//!
//! The real protocol (`crates/cluster/src/router.rs`) keeps a trial —
//! its identity, its node, its tickets and its verdict window — as one
//! value behind one mutex, `cluster.router.canary`, and touches it in
//! two critical sections per routed request:
//!
//! * `front_canary`, before the request goes out: take a ticket and
//!   capture the trial's **identity**;
//! * `report_trial`, after it came back: if the trial in flight still
//!   has that identity, record the sample (or the failure), judge the
//!   window and — when that completes a verdict — take the trial, count
//!   the transition and demote the node on a rollback, all before the
//!   lock is released. Any other trial is left alone.
//!
//! `set_canary` replaces whatever trial is in flight with a fresh one
//! (new identity, empty window) under the same mutex.
//!
//! The model below has exactly those atomic steps. A routing worker is
//! two steps — front-and-encode (the encode itself is thread-local),
//! then record-judge-apply — and a *replacer* thread calls `set_canary`
//! at every possible point in between. The explorer closes that over
//! every reachable state, which proves, for every schedule:
//!
//! * **a sample names its trial** — no sample, verdict or demotion ever
//!   lands on a trial other than the one the request was fronted under,
//!   so a new trial starts, and stays, free of its predecessor's samples;
//! * **exactly one transition per judged trial** — a trial whose own
//!   requests filled its window (or failed on its node) transitions
//!   once, however the reports race;
//! * **a replaced trial never transitions** — and never demotes its
//!   node: stragglers fronted under it find another identity and drop
//!   what they measured;
//! * **no full window left unjudged** — the verdict is applied in the
//!   step that completes it.
//!
//! The protocol this replaced — record under one lock, apply under
//! another, no trial identity — is kept as the mutant the explorer must
//! reject.

use gobo_lint::interleave::{explore, Explored, Program};

/// Canary window size in the model: two samples fill it.
const WINDOW: u32 = 2;
/// Trials a run can see: the one in flight at the start (identity 1)
/// and the replacer's (identity 2). Index 0 is unused.
const TRIALS: usize = 3;

/// The `Option<CanaryTrial>` behind the mutex.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Trial {
    id: usize,
    samples: u32,
}

/// The modeled router state, plus the bookkeeping the invariants read.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Router {
    trial: Option<Trial>,
    /// Identities handed out so far.
    started: usize,
    /// Per identity: promotions + rollbacks counted.
    transitions: [u32; TRIALS],
    /// Per identity: times the trial's node was demoted.
    demotions: [u32; TRIALS],
    /// Per identity: a request fronted under the trial completed its
    /// window, or failed on its node, while it was still in flight.
    judged: [bool; TRIALS],
    /// Per identity: `set_canary` replaced the trial before a verdict.
    replaced: [bool; TRIALS],
    /// A sample, verdict or demotion landed on a trial other than the
    /// one the request that measured it was fronted under.
    foreign: bool,
}

impl Router {
    /// A router with trial 1 in flight and nothing recorded.
    fn new() -> Router {
        Router {
            trial: Some(Trial { id: 1, samples: 0 }),
            started: 1,
            transitions: [0; TRIALS],
            demotions: [0; TRIALS],
            judged: [false; TRIALS],
            replaced: [false; TRIALS],
            foreign: false,
        }
    }

    /// Takes the trial in flight and counts its transition, as the tail
    /// of `report_trial` does under the mutex.
    fn settle(&mut self, rollback: bool) {
        let Some(trial) = self.trial.take() else { return };
        self.transitions[trial.id] += 1;
        self.demotions[trial.id] += u32::from(rollback);
    }
}

/// A routed request on the canary path. `fails` makes its canary
/// attempt fail, which is an immediate rollback verdict.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Worker {
    fails: bool,
    /// `None` until fronted; then the identity captured, if a trial was
    /// in flight.
    fronted: Option<Option<usize>>,
    done: bool,
}

impl Worker {
    fn new(fails: bool) -> Worker {
        Worker { fails, fronted: None, done: false }
    }
}

impl Program<Router> for Worker {
    fn step(&mut self, router: &mut Router) {
        let Some(fronted) = self.fronted else {
            // Step 1, `front_canary`: capture the identity. The encode
            // that follows touches nothing shared.
            self.fronted = Some(router.trial.as_ref().map(|t| t.id));
            return;
        };
        // Step 2, `report_trial`: record, judge and apply under one
        // lock — but only on the trial this request was fronted under.
        self.done = true;
        let Some(id) = fronted else { return };
        let Some(trial) = router.trial.as_mut().filter(|t| t.id == id) else { return };
        if !self.fails {
            trial.samples += 1;
        }
        if self.fails || trial.samples >= WINDOW {
            router.judged[id] = true;
            router.settle(self.fails);
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// `set_canary` on another node: one step under the canary mutex.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Replacer {
    done: bool,
}

impl Program<Router> for Replacer {
    fn step(&mut self, router: &mut Router) {
        if let Some(old) = &router.trial {
            router.replaced[old.id] = true;
        }
        router.started += 1;
        router.trial = Some(Trial { id: router.started, samples: 0 });
        self.done = true;
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// Mixed programs so one explorer run can hold workers, the replacer
/// and the mutant.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Thread {
    Work(Worker),
    Replace(Replacer),
    SplitLock(SplitLockWorker),
}

impl Program<Router> for Thread {
    fn step(&mut self, router: &mut Router) {
        match self {
            Thread::Work(w) => w.step(router),
            Thread::Replace(r) => r.step(router),
            Thread::SplitLock(w) => w.step(router),
        }
    }

    fn is_done(&self) -> bool {
        match self {
            Thread::Work(w) => w.is_done(),
            Thread::Replace(r) => r.is_done(),
            Thread::SplitLock(w) => w.is_done(),
        }
    }
}

/// What is wrong with a terminal state, if anything.
fn violation(router: &Router) -> Option<String> {
    if router.foreign {
        return Some("a sample or verdict landed on a trial it did not measure".to_owned());
    }
    for id in 1..TRIALS {
        let (transitions, judged) = (router.transitions[id], router.judged[id]);
        if transitions != u32::from(judged) {
            return Some(format!("trial {id}: {transitions} transitions, judged: {judged}"));
        }
        if router.replaced[id] && (transitions > 0 || router.demotions[id] > 0) {
            return Some(format!("trial {id} was replaced and still transitioned or demoted"));
        }
        if router.demotions[id] > transitions {
            return Some(format!("trial {id}: its node was demoted without a rollback"));
        }
    }
    if router.trial.as_ref().is_some_and(|t| t.samples >= WINDOW) {
        return Some("a full window was left unjudged".to_owned());
    }
    None
}

fn assert_trials_clean(router: &Router, schedule: &[usize]) {
    if let Some(what) = violation(router) {
        panic!("{what} in schedule {schedule:?}");
    }
}

/// Two requests whose samples fill a window, one whose canary attempt
/// fails, and `set_canary` racing all of them.
fn threads() -> Vec<Thread> {
    vec![
        Thread::Work(Worker::new(false)),
        Thread::Work(Worker::new(false)),
        Thread::Work(Worker::new(true)),
        Thread::Replace(Replacer { done: false }),
    ]
}

#[test]
fn interleave_canary_verdict_every_schedule_transitions_once() {
    let mut replaced_mid_flight = 0u64;
    let mut both_judged = 0u64;
    let explored = explore(Router::new(), threads(), |router, schedule| {
        assert_trials_clean(router, schedule);
        replaced_mid_flight += u64::from(router.replaced[1]);
        both_judged += u64::from(router.judged[1] && router.judged[2]);
    });
    // 3 workers × 2 steps + 1 replacer step: 7!/(2!2!2!1!) = 630
    // schedules.
    assert_eq!(explored, Explored { states: 254, terminals: 27 });
    // The outcomes are not vacuous: some replace trial 1 before its
    // verdict, and some judge both trials, each exactly once.
    assert!(replaced_mid_flight > 0 && both_judged > 0, "{replaced_mid_flight} {both_judged}");
}

/// The protocol the one-lock trial replaced, kept as the mutant: the
/// sample is recorded under one lock (canary read + window mutex) and
/// the verdict applied under another acquisition (canary write), and
/// neither step knows which trial the request was fronted under — each
/// acts on whatever trial is in flight when it runs.
#[derive(Clone, PartialEq, Eq, Hash)]
struct SplitLockWorker {
    fronted: Option<Option<usize>>,
    /// Outcome of the record step: `Some(rollback)` once decided.
    recorded: Option<Option<bool>>,
    fails: bool,
    done: bool,
}

impl SplitLockWorker {
    fn new(fails: bool) -> SplitLockWorker {
        SplitLockWorker { fronted: None, recorded: None, fails, done: false }
    }
}

impl Program<Router> for SplitLockWorker {
    fn step(&mut self, router: &mut Router) {
        let Some(fronted) = self.fronted else {
            // The identity is captured for the checker only; the mutant
            // never compares it.
            self.fronted = Some(router.trial.as_ref().map(|t| t.id));
            return;
        };
        let Some(decided) = self.recorded else {
            // Record-and-judge, on whatever trial is in flight.
            let mut decided = self.fails.then_some(true);
            if let (Some(trial), false) = (router.trial.as_mut(), self.fails) {
                router.foreign |= fronted != Some(trial.id);
                trial.samples += 1;
                if trial.samples >= WINDOW {
                    router.judged[trial.id] |= fronted == Some(trial.id);
                    decided = Some(false);
                }
            }
            self.recorded = Some(decided);
            return;
        };
        // Apply, under a later acquisition: takes whatever is in flight.
        if let (Some(rollback), Some(trial)) = (decided, router.trial.as_ref()) {
            router.foreign |= fronted != Some(trial.id);
            router.judged[trial.id] |= self.fails && fronted == Some(trial.id);
            router.settle(rollback);
        }
        self.done = true;
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// The explorer must find what the split-lock protocol gets wrong once
/// `set_canary` can run mid-flight: a verdict measured on trial 1 —
/// its window-filling sample, or its failed attempt — applied to
/// trial 2, which then transitions (and has its node demoted) without
/// one sample of its own.
#[test]
fn interleave_explorer_rejects_the_split_lock_protocol() {
    let threads = vec![
        Thread::SplitLock(SplitLockWorker::new(false)),
        Thread::SplitLock(SplitLockWorker::new(false)),
        Thread::SplitLock(SplitLockWorker::new(true)),
        Thread::Replace(Replacer { done: false }),
    ];
    let mut misjudged = 0u64;
    let mut unsampled_demotion = 0u64;
    let explored = explore(Router::new(), threads, |router, _| {
        misjudged += u64::from(violation(router).is_some());
        unsampled_demotion += u64::from(router.demotions[2] > 0 && !router.judged[2]);
    });
    // 3 workers × 3 steps + 1 replacer step: 10!/(3!3!3!1!) = 16 800
    // schedules.
    assert_eq!(explored, Explored { states: 1306, terminals: 115 });
    assert!(misjudged > 0, "explorer failed to find a verdict landing on a replaced trial");
    assert!(unsampled_demotion > 0, "explorer failed to find trial 2 demoted on trial 1's failure");
}

// ---------------------------------------------------------------------
// The router's connection pool (`crates/cluster/src/router.rs`:
// `NodeState::{checkout, checkin, drop_idle}` around `attempt`).
//
// A node's idle connections sit in a `Vec` behind one leaf mutex,
// `cluster.router.pool`. A routed request (or a heartbeat) is, in atomic
// steps: **checkout** — pop under the lock; on a miss, **connect** — a
// new connection nobody else has seen; **exchange** — write the request
// and read the reply, touching nothing but that connection; then either
// **check-in** — push under the lock, or close when the pool is full —
// if the exchange ended in a whole reply to the very request written,
// or **close** for every other ending (silence until the deadline, a
// hedge loser, a transport or frame error, another request's id). The
// heartbeat thread's mark-dead runs `drop_idle` against all of that:
// **take** the whole `Vec` under the lock, then **close** what it took,
// outside it.
//
// Invariants, over every schedule of requests that end every way, with
// mark-dead racing them:
//
// * **one holder** — a connection is held by at most one request, and
//   mark-dead never closes one that is held;
// * **pooled means in step** — a connection enters the pool only in the
//   "answered whole, id matched" state, so whoever checks it out reads
//   the reply to its own request first;
// * **closed is final** — nothing closed is pooled, held or written to;
// * **no leak** — once every thread is done each connection is idle in
//   the pool (at most `POOL_IDLE_MAX` of them) or closed.
//
// The mutant checks a connection in as soon as the request is written,
// before its reply was read — the shortcut a multiplexed socket would
// make legal and a pool must not take: the explorer must find a second
// request holding the connection while the first still reads from it.
// ---------------------------------------------------------------------
mod pool {
    use gobo_lint::interleave::{explore, Explored, Program};

    /// Connections a run can open: the one idle at the start plus one
    /// miss per request.
    const CONNS: usize = 4;
    /// `POOL_IDLE_MAX` in the model: small enough that a check-in meets a
    /// full pool in some schedule.
    const IDLE_MAX: usize = 1;

    #[derive(Clone, Default, PartialEq, Eq, Hash)]
    struct Pool {
        /// Behind the pool lock: idle connection ids, most recent last.
        idle: Vec<usize>,
        opened: usize,
        /// Requests holding connection `c` right now.
        holders: [u8; CONNS],
        /// A request was written on `c` whose reply has not been read
        /// whole: the next reply on `c` belongs to somebody.
        owes_reply: [bool; CONNS],
        closed: [bool; CONNS],
        /// Sticky: what went wrong, if anything did.
        violation: Option<&'static str>,
    }

    impl Pool {
        /// One connection idle in the pool, as after a first request.
        fn warm() -> Pool {
            Pool { idle: vec![0], opened: 1, ..Pool::default() }
        }

        fn flag(&mut self, what: &'static str) {
            self.violation.get_or_insert(what);
        }

        fn hold(&mut self, c: usize) {
            if self.holders[c] > 0 {
                self.flag("a connection is held by two requests at once");
            }
            if self.closed[c] {
                self.flag("a closed connection was handed to a request");
            }
            self.holders[c] += 1;
        }

        fn close(&mut self, c: usize) {
            if self.holders[c] > 0 {
                self.flag("a connection was closed under the request holding it");
            }
            self.closed[c] = true;
        }

        /// `NodeState::checkin`, the pool-lock part and the drop after it.
        fn checkin(&mut self, c: usize) {
            if self.owes_reply[c] {
                self.flag("a connection was pooled with a reply still owed on it");
            }
            if self.closed[c] {
                self.flag("a closed connection was pooled");
            }
            if self.idle.len() < IDLE_MAX {
                self.idle.push(c);
            } else {
                self.close(c);
            }
        }
    }

    #[derive(Clone, Copy, PartialEq, Eq, Hash)]
    enum At {
        Checkout,
        Connect,
        Exchange,
        /// The mutant only: written and pooled, reply still to be read.
        ReadReply,
        Release,
        Done,
    }

    /// One routed request. `answered`: its exchange ends in a whole reply
    /// with its own id; otherwise in any of the endings that close.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct Request {
        answered: bool,
        /// The mutant: pool the connection once the request is written.
        pools_early: bool,
        at: At,
        conn: usize,
    }

    impl Request {
        fn new(answered: bool) -> Request {
            Request { answered, pools_early: false, at: At::Checkout, conn: usize::MAX }
        }
    }

    impl Program<Pool> for Request {
        fn step(&mut self, pool: &mut Pool) {
            match self.at {
                At::Checkout => match pool.idle.pop() {
                    Some(c) => {
                        pool.hold(c);
                        (self.conn, self.at) = (c, At::Exchange);
                    }
                    None => self.at = At::Connect,
                },
                At::Connect => {
                    let c = pool.opened;
                    pool.opened += 1;
                    pool.hold(c);
                    (self.conn, self.at) = (c, At::Exchange);
                }
                At::Exchange if self.pools_early => {
                    pool.owes_reply[self.conn] = true;
                    pool.idle.push(self.conn);
                    self.at = At::ReadReply;
                }
                At::Exchange | At::ReadReply => {
                    if pool.closed[self.conn] {
                        pool.flag("a request was exchanged on a closed connection");
                    }
                    // Written and read in one step: the connection is
                    // this request's alone in between — the invariant.
                    pool.owes_reply[self.conn] = !self.answered;
                    self.at = At::Release;
                }
                At::Release => {
                    pool.holders[self.conn] -= 1;
                    if self.pools_early {
                        // Already in the pool.
                    } else if self.answered {
                        pool.checkin(self.conn);
                    } else {
                        pool.close(self.conn);
                    }
                    self.at = At::Done;
                }
                At::Done => {}
            }
        }

        fn is_done(&self) -> bool {
            self.at == At::Done
        }
    }

    /// `drop_idle` on mark-dead: take under the lock, close outside it.
    #[derive(Clone, Default, PartialEq, Eq, Hash)]
    struct MarkDead {
        taken: Option<Vec<usize>>,
        done: bool,
    }

    impl Program<Pool> for MarkDead {
        fn step(&mut self, pool: &mut Pool) {
            match self.taken.take() {
                None => self.taken = Some(std::mem::take(&mut pool.idle)),
                Some(taken) => {
                    for c in taken {
                        pool.close(c);
                    }
                    self.done = true;
                }
            }
        }

        fn is_done(&self) -> bool {
            self.done
        }
    }

    #[derive(Clone, PartialEq, Eq, Hash)]
    enum Thread {
        Request(Request),
        MarkDead(MarkDead),
    }

    impl Program<Pool> for Thread {
        fn step(&mut self, pool: &mut Pool) {
            match self {
                Thread::Request(r) => r.step(pool),
                Thread::MarkDead(m) => m.step(pool),
            }
        }

        fn is_done(&self) -> bool {
            match self {
                Thread::Request(r) => r.is_done(),
                Thread::MarkDead(m) => m.is_done(),
            }
        }
    }

    /// What is wrong with a terminal state, if anything.
    fn violation(pool: &Pool) -> Option<String> {
        if let Some(what) = pool.violation {
            return Some(what.to_owned());
        }
        if pool.idle.len() > IDLE_MAX {
            return Some(format!("{} idle connections, cap {IDLE_MAX}", pool.idle.len()));
        }
        for c in 0..pool.opened {
            let pooled = pool.idle.iter().filter(|&&i| i == c).count();
            if pool.holders[c] != 0 || pooled + usize::from(pool.closed[c]) != 1 {
                return Some(format!(
                    "connection {c} leaked: {} holders, pooled {pooled}×, closed: {}",
                    pool.holders[c], pool.closed[c]
                ));
            }
        }
        None
    }

    /// Two requests that are answered, one that is not, and mark-dead.
    fn threads() -> Vec<Thread> {
        vec![
            Thread::Request(Request::new(true)),
            Thread::Request(Request::new(true)),
            Thread::Request(Request::new(false)),
            Thread::MarkDead(MarkDead::default()),
        ]
    }

    #[test]
    fn interleave_pool_every_schedule_keeps_one_holder_and_pools_only_in_step() {
        let (mut reused, mut dropped_idle, mut overflowed) = (0u64, 0u64, 0u64);
        let explored = explore(Pool::warm(), threads(), |pool, schedule| {
            assert_eq!(violation(pool), None, "schedule {schedule:?}");
            reused += u64::from(pool.opened < 4);
            dropped_idle += u64::from(pool.closed[0] && pool.opened == 4);
            overflowed += u64::from(
                pool.idle.len() == IDLE_MAX && pool.closed[1..].iter().filter(|&&c| c).count() > 1,
            );
        });
        assert_eq!(explored, Explored { states: 2550, terminals: 54 });
        // Not vacuous: some schedules reuse the warm connection, some
        // lose it to mark-dead first, some check in to a full pool.
        assert!(
            reused > 0 && dropped_idle > 0 && overflowed > 0,
            "{reused} {dropped_idle} {overflowed}"
        );
    }

    /// Pooling a connection once its request is written — before the
    /// reply is read — lets a second request check it out while the first
    /// still holds it (its first read would be the other's reply), and
    /// lets mark-dead close it under the request still reading from it.
    #[test]
    fn interleave_explorer_rejects_pooling_before_the_reply_is_read() {
        let early =
            |answered| Thread::Request(Request { pools_early: true, ..Request::new(answered) });
        let threads = vec![early(true), early(true), Thread::MarkDead(MarkDead::default())];
        let (mut two_holders, mut closed_under_holder) = (0u64, 0u64);
        explore(Pool::warm(), threads, |pool, _| {
            let what = pool.violation.unwrap_or_default();
            two_holders += u64::from(what.contains("two requests"));
            closed_under_holder += u64::from(what.contains("under the request"));
        });
        assert!(two_holders > 0, "explorer failed to find two requests on one connection");
        assert!(closed_under_holder > 0, "explorer failed to find mark-dead closing a held one");
    }
}
