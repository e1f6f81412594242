//! Concurrency audit: exhaustive interleaving checks for the router's
//! canary verdict-window accounting.
//!
//! The real protocol (`crates/cluster/src/router.rs`) is:
//! `record_trial_sample` takes the canary read lock, then the trial
//! window mutex, and hands one latency sample to the workspace's one
//! window implementation — `gobo_serve::lifecycle::VerdictWindow`, the
//! same record-and-judge step the serve tier's `LifecycleController`
//! runs under its own mutex — which answers `Pending` until the canary
//! window is full. `apply_verdict` takes
//! the canary *write* lock and `Option::take`s the trial; counters
//! move only when the take wins, so two racing verdicts resolve to one
//! transition. A failure path (`route` on canary error) force-applies
//! `Rollback` without recording.
//!
//! These tests model exactly the operations that are atomic in the
//! real implementation — one record-and-judge under both locks, one
//! take-and-count under the write lock — and enumerate every schedule
//! of two sampling workers against a forced-rollback path. Invariants
//! proved across all schedules:
//!
//! * **exactly-one transition** — promotions + rollbacks move exactly
//!   once no matter how verdicts race;
//! * **no ghost trial** — the trial is always gone once any verdict
//!   lands; late appliers see `None` and move nothing;
//! * **full-window verdicts only** — a worker only decides with a
//!   full canary window at record time;
//! * **frozen window** — samples stop counting the moment the trial
//!   is taken.
//!
//! The sleep-set DPOR explorer re-proves the same invariants with the
//! schedule count logged against naive DFS — the 3-thread
//! configuration this crate leans on in CI.

use gobo_lint::interleave::{explore_dpor, explore_exhaustive, DporProgram, Footprint, Program};

/// Canary window size in the model: two samples fill it.
const WINDOW: u32 = 2;

/// Abstract variable ids for DPOR footprints. `TRIAL` is the
/// `Option<CanaryTrial>` behind the canary rwlock, `WINDOW_VAR` the
/// sample vectors behind the trial window mutex, `COUNTERS` the
/// promotion/rollback metrics.
const V_TRIAL: u32 = 0;
const V_WINDOW: u32 = 1;
const V_COUNTERS: u32 = 2;

/// The modeled canary state.
#[derive(Clone)]
struct Canary {
    /// Whether the trial is still in flight (`Some` in the real code).
    trial: bool,
    /// Canary samples recorded into the window.
    samples: u32,
    /// Promotions + rollbacks counted — must end at exactly 1.
    transitions: u32,
    /// Set if any worker decided a verdict with a partial window.
    partial_verdict: bool,
    /// Set if a sample landed after the trial was taken.
    ghost_sample: bool,
}

impl Canary {
    fn new() -> Canary {
        Canary {
            trial: true,
            samples: 0,
            transitions: 0,
            partial_verdict: false,
            ghost_sample: false,
        }
    }
}

/// A routing worker on the canary path: (1) the encode completes —
/// purely local latency measurement, no shared state; (2) the
/// record-and-judge step under canary read + window locks; (3) the
/// apply step under the canary write lock.
#[derive(Clone)]
struct Worker {
    encoded: bool,
    recorded: bool,
    /// Local verdict from the record step (`Some(true)` = decided).
    decided: Option<bool>,
    done: bool,
}

impl Worker {
    fn new() -> Worker {
        Worker { encoded: false, recorded: false, decided: None, done: false }
    }
}

impl Program<Canary> for Worker {
    fn step(&mut self, canary: &mut Canary) {
        if !self.encoded {
            // Step 1: the request finishes; elapsed time is thread-local.
            self.encoded = true;
        } else if !self.recorded {
            // Step 2: record_trial_sample → VerdictWindow::record_canary
            // — push one sample, judge.
            // When the trial is already taken the real code returns
            // Pending without touching the window (the freeze).
            if canary.trial {
                canary.samples += 1;
                if canary.samples >= WINDOW {
                    self.decided = Some(true);
                }
            } else {
                canary.ghost_sample |= self.decided.is_some();
            }
            if self.decided.is_some() && canary.samples < WINDOW {
                canary.partial_verdict = true;
            }
            self.recorded = true;
        } else {
            // Step 3: apply_verdict — only the winning take counts.
            if self.decided.is_some() && canary.trial {
                canary.trial = false;
                canary.transitions += 1;
            }
            self.done = true;
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

impl DporProgram<Canary> for Worker {
    fn next_footprint(&self) -> Footprint {
        if !self.encoded {
            // Local step: independent of everything.
            Footprint::new(&[], &[])
        } else if !self.recorded {
            Footprint::new(&[V_TRIAL, V_WINDOW], &[V_WINDOW])
        } else {
            Footprint::new(&[V_TRIAL], &[V_TRIAL, V_COUNTERS])
        }
    }
}

/// The failure path: `apply_verdict(Rollback)` forced by a canary
/// error, one atomic take-and-count under the canary write lock.
#[derive(Clone)]
struct ForcedRollback {
    done: bool,
}

impl Program<Canary> for ForcedRollback {
    fn step(&mut self, canary: &mut Canary) {
        if canary.trial {
            canary.trial = false;
            canary.transitions += 1;
        }
        self.done = true;
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

impl DporProgram<Canary> for ForcedRollback {
    fn next_footprint(&self) -> Footprint {
        Footprint::new(&[V_TRIAL], &[V_TRIAL, V_COUNTERS])
    }
}

/// Mixed programs so one explorer run can hold workers and the
/// failure path.
#[derive(Clone)]
enum Thread {
    Work(Worker),
    Fail(ForcedRollback),
}

impl Program<Canary> for Thread {
    fn step(&mut self, canary: &mut Canary) {
        match self {
            Thread::Work(w) => w.step(canary),
            Thread::Fail(f) => f.step(canary),
        }
    }

    fn is_done(&self) -> bool {
        match self {
            Thread::Work(w) => w.is_done(),
            Thread::Fail(f) => f.is_done(),
        }
    }
}

impl DporProgram<Canary> for Thread {
    fn next_footprint(&self) -> Footprint {
        match self {
            Thread::Work(w) => w.next_footprint(),
            Thread::Fail(f) => f.next_footprint(),
        }
    }
}

/// Shared terminal-state check.
fn assert_canary_clean(canary: &Canary, schedule: &[usize]) {
    assert_eq!(
        canary.transitions, 1,
        "verdict applied {} times in schedule {schedule:?}",
        canary.transitions
    );
    assert!(!canary.trial, "trial still in flight after all threads finished: {schedule:?}");
    assert!(!canary.partial_verdict, "verdict decided on a partial window in {schedule:?}");
    assert!(!canary.ghost_sample, "sample judged after the trial was taken in {schedule:?}");
    assert!(canary.samples <= WINDOW, "window overfilled in schedule {schedule:?}");
}

fn threads() -> [Thread; 3] {
    [
        Thread::Work(Worker::new()),
        Thread::Work(Worker::new()),
        Thread::Fail(ForcedRollback { done: false }),
    ]
}

#[test]
fn interleave_canary_verdict_every_schedule_transitions_once() {
    let count = explore_exhaustive(&Canary::new(), &threads(), |canary, schedule| {
        assert_canary_clean(canary, schedule);
    });
    // 2 workers × 3 steps + 1 forced rollback = 7!/(3!3!1!) = 140.
    assert_eq!(count, 140);
}

/// The same proof through sleep-set DPOR, with the reduction logged —
/// the purely local encode steps and the already-applied tails
/// collapse to one representative each.
#[test]
fn interleave_canary_verdict_dpor_matches_naive_invariants() {
    let start = std::time::Instant::now();
    let naive = explore_exhaustive(&Canary::new(), &threads(), |canary, schedule| {
        assert_canary_clean(canary, schedule);
    });
    let naive_elapsed = start.elapsed();
    let start = std::time::Instant::now();
    let stats = explore_dpor(&Canary::new(), &threads(), |canary, schedule| {
        assert_canary_clean(canary, schedule);
    });
    let dpor_elapsed = start.elapsed();
    println!(
        "canary verdict window: naive {} schedules in {:?}; \
         dpor {} schedules, {} sleep prunes, {} steps in {:?}",
        naive, naive_elapsed, stats.schedules, stats.sleep_prunes, stats.steps, dpor_elapsed
    );
    assert!(
        stats.schedules < naive,
        "DPOR explored {} schedules — no reduction over naive {naive}",
        stats.schedules
    );
}

/// A broken apply that skips the take-wins check — the double-count
/// bug the `Option::take` protocol exists to prevent. The explorer
/// must surface a schedule where the verdict lands twice.
#[derive(Clone)]
struct DoubleApply {
    recorded: bool,
    done: bool,
}

impl Program<Canary> for DoubleApply {
    fn step(&mut self, canary: &mut Canary) {
        if !self.recorded {
            if canary.trial {
                canary.samples += 1;
            }
            self.recorded = true;
        } else {
            // Bug: counts the transition without checking the trial is
            // still present.
            if canary.samples >= WINDOW {
                canary.trial = false;
                canary.transitions += 1;
            }
            self.done = true;
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

#[test]
fn interleave_explorer_catches_double_apply_bug() {
    #[derive(Clone)]
    enum T {
        Broken(DoubleApply),
    }
    impl Program<Canary> for T {
        fn step(&mut self, canary: &mut Canary) {
            let T::Broken(b) = self;
            b.step(canary);
        }
        fn is_done(&self) -> bool {
            let T::Broken(b) = self;
            b.is_done()
        }
    }
    let threads = [
        T::Broken(DoubleApply { recorded: false, done: false }),
        T::Broken(DoubleApply { recorded: false, done: false }),
    ];
    let mut double_counted = 0u64;
    let total = explore_exhaustive(&Canary::new(), &threads, |canary, _| {
        if canary.transitions > 1 {
            double_counted += 1;
        }
    });
    assert_eq!(total, 6);
    assert!(double_counted > 0, "explorer failed to find the double-apply race");
}
