//! Concurrency audit: exhaustive interleaving checks for the router's
//! canary trial.
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
//! at every possible point in between. Invariants proved over every
//! schedule:
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
//! The sleep-set DPOR explorer re-proves the same invariants with the
//! schedule count logged against naive DFS. The protocol this replaced
//! — record under one lock, apply under another, no trial identity —
//! is kept as the mutant the explorer must reject.

use gobo_lint::interleave::{explore_dpor, explore_exhaustive, DporProgram, Footprint, Program};

/// Canary window size in the model: two samples fill it.
const WINDOW: u32 = 2;
/// Trials a run can see: the one in flight at the start (identity 1)
/// and the replacer's (identity 2). Index 0 is unused.
const TRIALS: usize = 3;

/// Abstract variable ids for DPOR footprints. `V_TRIAL` is everything
/// behind the canary mutex, `V_COUNTERS` the promotion/rollback metrics
/// and the node's slow score.
const V_TRIAL: u32 = 0;
const V_COUNTERS: u32 = 1;

/// The `Option<CanaryTrial>` behind the mutex.
#[derive(Clone)]
struct Trial {
    id: usize,
    samples: u32,
}

/// The modeled router state, plus the bookkeeping the invariants read.
#[derive(Clone)]
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
#[derive(Clone)]
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

impl DporProgram<Router> for Worker {
    fn next_footprint(&self) -> Footprint {
        if self.fronted.is_none() {
            Footprint::new(&[V_TRIAL], &[])
        } else {
            Footprint::new(&[V_TRIAL], &[V_TRIAL, V_COUNTERS])
        }
    }
}

/// `set_canary` on another node: one step under the canary mutex.
#[derive(Clone)]
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

impl DporProgram<Router> for Replacer {
    fn next_footprint(&self) -> Footprint {
        Footprint::new(&[V_TRIAL], &[V_TRIAL])
    }
}

/// Mixed programs so one explorer run can hold workers, the replacer
/// and the mutant.
#[derive(Clone)]
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

impl DporProgram<Router> for Thread {
    fn next_footprint(&self) -> Footprint {
        match self {
            Thread::Work(w) => w.next_footprint(),
            Thread::Replace(r) => r.next_footprint(),
            // The mutant is only ever explored exhaustively.
            Thread::SplitLock(_) => Footprint::new(&[V_TRIAL], &[V_TRIAL, V_COUNTERS]),
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
fn threads() -> [Thread; 4] {
    [
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
    let count = explore_exhaustive(&Router::new(), &threads(), |router, schedule| {
        assert_trials_clean(router, schedule);
        replaced_mid_flight += u64::from(router.replaced[1]);
        both_judged += u64::from(router.judged[1] && router.judged[2]);
    });
    // 3 workers × 2 steps + 1 replacer step = 7!/(2!2!2!1!) = 630.
    assert_eq!(count, 630);
    // The schedules are not vacuous: some replace trial 1 before its
    // verdict, and some judge both trials, each exactly once.
    assert!(replaced_mid_flight > 0 && both_judged > 0, "{replaced_mid_flight} {both_judged}");
}

/// The same proof through sleep-set DPOR, with the reduction logged —
/// fronting steps only read the trial, so schedules that differ in
/// their order collapse to one representative.
#[test]
fn interleave_canary_verdict_dpor_matches_naive_invariants() {
    let start = std::time::Instant::now();
    let naive = explore_exhaustive(&Router::new(), &threads(), |router, schedule| {
        assert_trials_clean(router, schedule);
    });
    let naive_elapsed = start.elapsed();
    let start = std::time::Instant::now();
    let stats = explore_dpor(&Router::new(), &threads(), |router, schedule| {
        assert_trials_clean(router, schedule);
    });
    let dpor_elapsed = start.elapsed();
    println!(
        "canary trial: naive {} schedules in {:?}; \
         dpor {} schedules, {} sleep prunes, {} steps in {:?}",
        naive, naive_elapsed, stats.schedules, stats.sleep_prunes, stats.steps, dpor_elapsed
    );
    assert!(
        stats.schedules < naive,
        "DPOR explored {} schedules — no reduction over naive {naive}",
        stats.schedules
    );
}

/// The protocol the one-lock trial replaced, kept as the mutant: the
/// sample is recorded under one lock (canary read + window mutex) and
/// the verdict applied under another acquisition (canary write), and
/// neither step knows which trial the request was fronted under — each
/// acts on whatever trial is in flight when it runs.
#[derive(Clone)]
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
    let threads = [
        Thread::SplitLock(SplitLockWorker::new(false)),
        Thread::SplitLock(SplitLockWorker::new(false)),
        Thread::SplitLock(SplitLockWorker::new(true)),
        Thread::Replace(Replacer { done: false }),
    ];
    let mut misjudged = 0u64;
    let mut unsampled_demotion = 0u64;
    let total = explore_exhaustive(&Router::new(), &threads, |router, _| {
        misjudged += u64::from(violation(router).is_some());
        unsampled_demotion += u64::from(router.demotions[2] > 0 && !router.judged[2]);
    });
    // 3 workers × 3 steps + 1 replacer step = 10!/(3!3!3!1!) = 16800.
    assert_eq!(total, 16_800);
    assert!(misjudged > 0, "explorer failed to find a verdict landing on a replaced trial");
    assert!(unsampled_demotion > 0, "explorer failed to find trial 2 demoted on trial 1's failure");
}
