//! Concurrency audit: exhaustive interleaving checks for the serve
//! scheduler's respawn-backoff accounting
//! (`crates/serve/src/scheduler.rs::worker_main`).
//!
//! The accounting under test: a worker that panics heals in place. The
//! same thread, after its `catch_unwind` returns, bumps `worker_panics`,
//! answers what is left of its batch (every reply goes through the one
//! `answer`, which touches neither counter modelled here), recomputes
//! its strike count and waits out the backoff, then bumps
//! `worker_respawns` and goes on. The four steps are one thread's
//! program order — so a worker is a single scripted thread by
//! construction, not by an argument about a `join()` — but nothing
//! orders them against the metrics scraper or against other workers.
//! Invariants proved across every 2-thread schedule (and seeded samples
//! of 3-thread schedules):
//!
//! * **monotone counters** — `worker_panics` and `worker_respawns`
//!   only ever grow, at every intermediate state;
//! * **respawns never outrun panics** — `respawns <= panics` holds in
//!   every reachable state, and a scraper that loads `respawns`
//!   *before* `panics` can never observe the inversion (the reversed
//!   read order demonstrably can — see
//!   `interleave_respawn_reversed_read_order_is_racy`);
//! * **deterministic strike accounting** — after any schedule, each
//!   worker's strike count and backoff match the scheduler's formula:
//!   strikes reset to 0 iff the worker progressed or ran past the
//!   healthy threshold since its last panic, else `saturating_add(1)`;
//!   backoff is `base << strikes.min(8)`, capped.

use gobo_lint::interleave::{explore_exhaustive, explore_sampled, Program};

/// Mirrors `RESPAWN_BACKOFF_BASE` (5ms) in scheduler.rs.
const BACKOFF_BASE_MS: u64 = 5;
/// Mirrors `RESPAWN_BACKOFF_CAP` (250ms) in scheduler.rs.
const BACKOFF_CAP_MS: u64 = 250;

/// The model of `respawn_backoff`: base << strikes (shift clamped to
/// 8), capped. Must stay in lockstep with scheduler.rs.
fn respawn_backoff_ms(strikes: u32) -> u64 {
    (BACKOFF_BASE_MS << u64::from(strikes.min(8))).min(BACKOFF_CAP_MS)
}

/// Shared state: the two Relaxed metric counters plus each worker's
/// own bookkeeping (strike counts and the backoff history the
/// final-state checks compare against the formula).
#[derive(Clone)]
struct Metrics {
    panics: u64,
    respawns: u64,
    strikes: Vec<u32>,
    backoff_log: Vec<Vec<u64>>,
    /// Set by [`ReversedObserver`] when its (wrong-order) sample shows
    /// `respawns > panics`; lives in shared state so `on_final` can
    /// count the schedules that expose the race.
    inverted_sample: bool,
}

impl Metrics {
    fn new(slots: usize) -> Metrics {
        Metrics {
            panics: 0,
            respawns: 0,
            strikes: vec![0; slots],
            backoff_log: vec![Vec::new(); slots],
            inverted_sample: false,
        }
    }
}

/// One scripted worker panic, as the worker classifies it afterwards.
#[derive(Clone, Copy)]
struct Exit {
    /// The worker answered at least one request since its last panic.
    progressed: bool,
    /// The worker ran for `RESPAWN_HEALTHY_AFTER` since its last panic.
    healthy: bool,
}

impl Exit {
    fn crash() -> Exit {
        Exit { progressed: false, healthy: false }
    }
}

/// Where a worker is within the current panic's four-step lifecycle.
#[derive(Clone, Copy)]
enum LifecycleStep {
    /// `worker_panics.fetch_add(1)` once `catch_unwind` returned.
    CountPanic,
    /// What is left of the batch is answered `WorkerPanic`.
    Drain,
    /// Recompute strikes, wait out the backoff.
    Account,
    /// `worker_respawns.fetch_add(1)`, and on to the next batch.
    Respawn,
}

/// One worker's panic/heal lifecycle, replayed over a script of
/// exits. Each enum step is a single atomic operation (or one the
/// modelled counters cannot see) of the real worker, in its program
/// order; the explorer interleaves them freely against other workers
/// and the observer.
#[derive(Clone)]
struct SlotLifecycle {
    slot: usize,
    exits: Vec<Exit>,
    next_exit: usize,
    at: LifecycleStep,
}

impl SlotLifecycle {
    fn new(slot: usize, exits: Vec<Exit>) -> SlotLifecycle {
        SlotLifecycle { slot, exits, next_exit: 0, at: LifecycleStep::CountPanic }
    }
}

impl Program<Metrics> for SlotLifecycle {
    fn step(&mut self, shared: &mut Metrics) {
        let before = (shared.panics, shared.respawns);
        match self.at {
            LifecycleStep::CountPanic => {
                shared.panics += 1;
                self.at = LifecycleStep::Drain;
            }
            LifecycleStep::Drain => {
                // `answer` per request left — no mutation of the two
                // counters, but a distinct schedule point: the observer
                // may run between the count and the accounting.
                self.at = LifecycleStep::Account;
            }
            LifecycleStep::Account => {
                let exit = self.exits[self.next_exit];
                let strikes = if exit.progressed || exit.healthy {
                    0
                } else {
                    shared.strikes[self.slot].saturating_add(1)
                };
                shared.strikes[self.slot] = strikes;
                shared.backoff_log[self.slot].push(respawn_backoff_ms(strikes));
                self.at = LifecycleStep::Respawn;
            }
            LifecycleStep::Respawn => {
                shared.respawns += 1;
                self.next_exit += 1;
                self.at = LifecycleStep::CountPanic;
            }
        }
        // Intermediate-state invariants, checked in EVERY reachable
        // state: counters are monotone and respawns never outrun
        // panics (a worker counts its respawn only after its panic).
        assert!(shared.panics >= before.0 && shared.respawns >= before.1, "counter went backwards");
        assert!(
            shared.respawns <= shared.panics,
            "respawns {} > panics {} in an intermediate state",
            shared.respawns,
            shared.panics
        );
    }

    fn is_done(&self) -> bool {
        self.next_exit >= self.exits.len()
    }
}

/// The metrics scraper: each sample is two Relaxed loads in the order
/// the renderer must use — `respawns` first, then `panics`. Any
/// lifecycle steps that land between the loads can only *raise*
/// `panics`, so the sampled pair still satisfies the invariant.
#[derive(Clone)]
struct Observer {
    samples: usize,
    pending_respawns: Option<u64>,
    last: (u64, u64),
}

impl Observer {
    fn new(samples: usize) -> Observer {
        Observer { samples, pending_respawns: None, last: (0, 0) }
    }
}

impl Program<Metrics> for Observer {
    fn step(&mut self, shared: &mut Metrics) {
        match self.pending_respawns.take() {
            None => self.pending_respawns = Some(shared.respawns),
            Some(respawns) => {
                let panics = shared.panics;
                assert!(respawns <= panics, "observer saw respawns {respawns} > panics {panics}");
                // Successive samples must be monotone too: a scrape
                // can never report a counter moving backwards.
                assert!(panics >= self.last.0 && respawns >= self.last.1);
                self.last = (panics, respawns);
                self.samples -= 1;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.samples == 0 && self.pending_respawns.is_none()
    }
}

/// The *wrong* read order — `panics` first, then `respawns` — kept to
/// prove the harness detects the race the right order avoids.
#[derive(Clone)]
struct ReversedObserver {
    pending_panics: Option<u64>,
    done: bool,
}

impl ReversedObserver {
    fn new() -> ReversedObserver {
        ReversedObserver { pending_panics: None, done: false }
    }
}

impl Program<Metrics> for ReversedObserver {
    fn step(&mut self, shared: &mut Metrics) {
        match self.pending_panics.take() {
            None => self.pending_panics = Some(shared.panics),
            Some(panics) => {
                if shared.respawns > panics {
                    shared.inverted_sample = true;
                }
                self.done = true;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// Union so heterogeneous threads can share one explorer call.
#[derive(Clone)]
enum Thread {
    Slot(SlotLifecycle),
    Obs(Observer),
    Rev(ReversedObserver),
}

impl Program<Metrics> for Thread {
    fn step(&mut self, shared: &mut Metrics) {
        match self {
            Thread::Slot(s) => s.step(shared),
            Thread::Obs(o) => o.step(shared),
            Thread::Rev(r) => r.step(shared),
        }
    }
    fn is_done(&self) -> bool {
        match self {
            Thread::Slot(s) => s.is_done(),
            Thread::Obs(o) => o.is_done(),
            Thread::Rev(r) => r.is_done(),
        }
    }
}

#[test]
fn interleave_respawn_crash_loop_exhaustive() {
    // One slot crash-looping three times (never progressing, never
    // healthy) against a scraper taking two samples: 12 + 4 steps =
    // C(16,4) = 1820 schedules, all exhaustively enumerated.
    let shared = Metrics::new(1);
    let threads = vec![
        Thread::Slot(SlotLifecycle::new(0, vec![Exit::crash(); 3])),
        Thread::Obs(Observer::new(2)),
    ];
    let schedules = explore_exhaustive(&shared, &threads, |m, schedule| {
        assert_eq!(m.panics, 3, "schedule {schedule:?}");
        assert_eq!(m.respawns, 3, "schedule {schedule:?}");
        // Strikes escalate 1, 2, 3 and backoff doubles from base:
        // 5ms << 1, << 2, << 3.
        assert_eq!(m.strikes[0], 3);
        assert_eq!(m.backoff_log[0], vec![10, 20, 40]);
    });
    assert_eq!(schedules, 1820);
}

#[test]
fn interleave_respawn_strike_reset_exhaustive() {
    // crash, crash, progressed-crash, healthy-crash, crash: strikes
    // must escalate, reset on progress, reset on a healthy lifetime,
    // then restart from 1 — regardless of how the observer interleaves.
    let script = vec![
        Exit::crash(),
        Exit::crash(),
        Exit { progressed: true, healthy: false },
        Exit { progressed: false, healthy: true },
        Exit::crash(),
    ];
    let shared = Metrics::new(1);
    let threads = vec![Thread::Slot(SlotLifecycle::new(0, script)), Thread::Obs(Observer::new(1))];
    explore_exhaustive(&shared, &threads, |m, schedule| {
        assert_eq!((m.panics, m.respawns), (5, 5), "schedule {schedule:?}");
        assert_eq!(m.strikes[0], 1);
        assert_eq!(m.backoff_log[0], vec![10, 20, 5, 5, 10]);
    });
}

#[test]
fn interleave_respawn_backoff_caps_at_limit() {
    // A long crash loop must saturate the cap (5ms << 6 = 320 > 250)
    // and stay there; the shift clamp keeps strikes > 8 from wrapping.
    let shared = Metrics::new(1);
    let threads = vec![
        Thread::Slot(SlotLifecycle::new(0, vec![Exit::crash(); 10])),
        Thread::Obs(Observer::new(1)),
    ];
    explore_exhaustive(&shared, &threads, |m, _| {
        let log = &m.backoff_log[0];
        assert_eq!(&log[..6], &[10, 20, 40, 80, 160, 250]);
        assert!(log[5..].iter().all(|&ms| ms == BACKOFF_CAP_MS));
        // Monotone non-decreasing while crash-looping.
        assert!(log.windows(2).all(|w| w[0] <= w[1]));
    });
    assert_eq!(respawn_backoff_ms(u32::MAX), BACKOFF_CAP_MS);
}

#[test]
fn interleave_respawn_reversed_read_order_is_racy() {
    // Detection power: a scraper loading `panics` BEFORE `respawns`
    // admits schedules where a full lifecycle completes between the
    // two loads, producing respawns > panics in the sample. The
    // explorer must surface at least one such schedule — proving the
    // respawns-first order in `Observer` is load-bearing, not luck.
    let shared = Metrics::new(1);
    let threads = vec![
        Thread::Slot(SlotLifecycle::new(0, vec![Exit::crash(); 2])),
        Thread::Rev(ReversedObserver::new()),
    ];
    let mut inverted_schedules = 0u64;
    let total = explore_exhaustive(&shared, &threads, |m, _| {
        if m.inverted_sample {
            inverted_schedules += 1;
        }
    });
    assert!(
        inverted_schedules > 0,
        "reversed read order must expose respawns > panics in some of the {total} schedules"
    );
    assert!(inverted_schedules < total, "the serial schedules still sample consistently");
}

#[test]
fn interleave_respawn_two_slots_sampled() {
    // Two independently crash-looping slots plus the scraper: 3-thread
    // exhaustion explodes, so draw 2000 seeded schedules. Per-slot
    // strike accounting must stay independent and deterministic.
    let shared = Metrics::new(2);
    let threads = vec![
        Thread::Slot(SlotLifecycle::new(0, vec![Exit::crash(); 3])),
        Thread::Slot(SlotLifecycle::new(
            1,
            vec![Exit::crash(), Exit { progressed: true, healthy: false }, Exit::crash()],
        )),
        Thread::Obs(Observer::new(2)),
    ];
    let samples = explore_sampled(&shared, &threads, 0xB0B0_CAFE, 2000, |m, schedule| {
        assert_eq!((m.panics, m.respawns), (6, 6), "schedule {schedule:?}");
        assert_eq!(m.backoff_log[0], vec![10, 20, 40], "slot 0: {schedule:?}");
        assert_eq!(m.backoff_log[1], vec![10, 5, 10], "slot 1: {schedule:?}");
    });
    assert_eq!(samples, 2000);
}
