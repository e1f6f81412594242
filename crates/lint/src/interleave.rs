//! Deterministic interleaving exploration for small concurrent
//! protocols.
//!
//! A protocol under test is modeled as a set of *thread programs* that
//! mutate cloneable shared state in discrete atomic steps. The explorer
//! enumerates **every** interleaving of those steps (depth-first, with
//! state cloning at each branch point), invoking a caller-supplied
//! check on each terminal state. For thread counts where exhaustive
//! enumeration explodes, a seeded splitmix64 sampler draws random
//! schedules reproducibly.
//!
//! This is a miniature, dependency-free take on shuttle/loom-style
//! model checking: steps are the granularity of atomicity, so shared
//! state should expose exactly the operations that are atomic in the
//! real implementation (for example, one `fetch_add` or one store — not
//! a whole read-modify-write sequence, which must be split across
//! steps to model the race). A thread may also declare itself *blocked*
//! on the shared state ([`Program::is_blocked`]) — asleep on a condition
//! variable, say: it is skipped until another thread's step unblocks
//! it, and a state in which every unfinished thread is blocked is
//! terminal, so lost wake-ups and deadlocks reach the check too.
//!
//! Two enumeration strategies share the same [`Program`] model:
//!
//! * [`explore_exhaustive`] walks every schedule. Branch points snapshot
//!   thread programs behind `Rc` so only the thread that actually steps
//!   is deep-copied (copy-on-write via [`Rc::make_mut`]); unchanged
//!   threads cost one refcount bump per branch.
//! * [`explore_dpor`] adds sleep-set dynamic partial-order reduction
//!   for programs that also declare per-step read/write footprints
//!   ([`DporProgram`]). Schedules that only reorder independent steps
//!   collapse to one representative, which is what lets 3-thread
//!   protocols stay exhaustively checkable inside a CI time cap. Sleep
//!   sets are sound on their own: every Mazurkiewicz trace keeps at
//!   least one representative schedule, and equivalent schedules reach
//!   identical terminal states, so terminal-state invariants lose
//!   nothing.

use std::rc::Rc;

/// One thread of a modeled protocol. `step` executes the thread's next
/// atomic action against the shared state; `is_done` reports whether
/// the thread has finished. Programs are cloned at every branch point,
/// so keep per-thread state small.
pub trait Program<S>: Clone {
    /// Executes the next atomic step. Called only while `!is_done()`
    /// and `!is_blocked(shared)`.
    fn step(&mut self, shared: &mut S);
    /// Whether this thread has no more steps.
    fn is_done(&self) -> bool;
    /// Whether the thread's next step has to wait for another thread —
    /// it sleeps on a condition variable nobody has notified, say. A
    /// blocked thread is not scheduled, and a schedule is complete when
    /// every thread is done *or blocked*, so `on_final` is also shown
    /// the states a protocol can get stuck in (a lost wake-up is one)
    /// and a thread that waits for ever needs no artificial last step.
    /// Never blocked by default.
    fn is_blocked(&self, _shared: &S) -> bool {
        false
    }
}

/// Exhaustively explores every interleaving of `threads` from the
/// initial `shared` state, calling `on_final(final_state, schedule)`
/// at each terminal state. The schedule is the sequence of thread
/// indices stepped, for diagnostics. Returns the number of complete
/// schedules explored.
pub fn explore_exhaustive<S, P>(
    shared: &S,
    threads: &[P],
    mut on_final: impl FnMut(&S, &[usize]),
) -> u64
where
    S: Clone,
    P: Program<S>,
{
    let mut schedule = Vec::new();
    let mut count = 0;
    // Programs go behind Rc so each branch point clones handles, not
    // thread states; only the stepped program is deep-copied.
    let threads: Vec<Rc<P>> = threads.iter().cloned().map(Rc::new).collect();
    dfs(shared, &threads, &mut schedule, &mut on_final, &mut count);
    count
}

fn dfs<S, P>(
    shared: &S,
    threads: &[Rc<P>],
    schedule: &mut Vec<usize>,
    on_final: &mut impl FnMut(&S, &[usize]),
    count: &mut u64,
) where
    S: Clone,
    P: Program<S>,
{
    let mut any_runnable = false;
    for (i, thread) in threads.iter().enumerate() {
        if thread.is_done() || thread.is_blocked(shared) {
            continue;
        }
        any_runnable = true;
        let mut next_shared = shared.clone();
        let mut next_threads = threads.to_vec();
        if let Some(slot) = next_threads.get_mut(i) {
            // make_mut deep-copies exactly this program (its Rc is
            // shared with `threads`); the others stay shared snapshots.
            Rc::make_mut(slot).step(&mut next_shared);
        }
        schedule.push(i);
        dfs(&next_shared, &next_threads, schedule, on_final, count);
        schedule.pop();
    }
    if !any_runnable {
        *count += 1;
        on_final(shared, schedule);
    }
}

/// The read/write footprint of one atomic step over abstract shared
/// variables (caller-chosen `u32` ids). Two steps *conflict* when one
/// writes a variable the other reads or writes; non-conflicting steps
/// commute, so schedules differing only in their order are equivalent.
///
/// Footprints must **over-approximate**: when in doubt, declare the
/// access. One sanctioned refinement: writes that commute exactly from
/// every state (e.g. both sides only `+= 1` a counter) may be modeled
/// as disjoint variables, because order provably cannot change the
/// resulting state.
#[derive(Debug, Clone, Default)]
pub struct Footprint {
    reads: Vec<u32>,
    writes: Vec<u32>,
}

impl Footprint {
    /// Builds a footprint from read and write variable-id sets.
    pub fn new(reads: &[u32], writes: &[u32]) -> Footprint {
        let mut reads = reads.to_vec();
        let mut writes = writes.to_vec();
        reads.sort_unstable();
        reads.dedup();
        writes.sort_unstable();
        writes.dedup();
        Footprint { reads, writes }
    }

    /// Whether the two steps may not commute (write/write or
    /// read/write overlap in either direction).
    pub fn conflicts(&self, other: &Footprint) -> bool {
        overlap(&self.writes, &other.writes)
            || overlap(&self.writes, &other.reads)
            || overlap(&self.reads, &other.writes)
    }
}

/// Merge-walk overlap test on sorted, deduplicated id slices.
fn overlap(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0, 0);
    while let (Some(x), Some(y)) = (a.get(i), b.get(j)) {
        match x.cmp(y) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// A [`Program`] that also declares the footprint of its *next* step,
/// enabling partial-order reduction. The footprint must depend only on
/// the thread's local state (not on the shared state), so that it
/// stays valid while other threads run, and it must read whatever
/// [`Program::is_blocked`] reads, so that a step which unblocks or
/// blocks the thread is seen to conflict with it.
pub trait DporProgram<S>: Program<S> {
    /// Footprint of the step `step` would execute next. Called only
    /// while `!is_done()`.
    fn next_footprint(&self) -> Footprint;
}

/// Counters from one [`explore_dpor`] run, for logging reduction
/// factors against naive DFS.
#[derive(Debug, Clone, Copy, Default)]
pub struct DporStats {
    /// Complete schedules whose terminal state was checked.
    pub schedules: u64,
    /// Enabled transitions skipped because they were in a sleep set
    /// (each skip prunes a whole redundant subtree).
    pub sleep_prunes: u64,
    /// Total steps executed across the explored tree.
    pub steps: u64,
}

/// Exhaustive-up-to-equivalence exploration with sleep-set dynamic
/// partial-order reduction. Explores at least one representative of
/// every Mazurkiewicz trace (so every reachable terminal state is
/// checked) while pruning schedules that only reorder independent
/// steps. Sleep sets track up to 64 threads; extra threads are never
/// slept, which costs pruning but not soundness.
pub fn explore_dpor<S, P>(
    shared: &S,
    threads: &[P],
    mut on_final: impl FnMut(&S, &[usize]),
) -> DporStats
where
    S: Clone,
    P: DporProgram<S>,
{
    let threads: Vec<Rc<P>> = threads.iter().cloned().map(Rc::new).collect();
    let mut stats = DporStats::default();
    let mut schedule = Vec::new();
    dpor_dfs(shared, &threads, 0, &mut schedule, &mut on_final, &mut stats);
    stats
}

fn dpor_dfs<S, P>(
    shared: &S,
    threads: &[Rc<P>],
    sleep: u64,
    schedule: &mut Vec<usize>,
    on_final: &mut impl FnMut(&S, &[usize]),
    stats: &mut DporStats,
) where
    S: Clone,
    P: DporProgram<S>,
{
    let mut sleep = sleep;
    let mut any_runnable = false;
    for (i, thread) in threads.iter().enumerate() {
        if thread.is_done() || thread.is_blocked(shared) {
            continue;
        }
        any_runnable = true;
        if i < 64 && sleep & (1 << i) != 0 {
            // A sibling explored earlier already covers every trace
            // starting with this step: skip the whole subtree.
            stats.sleep_prunes += 1;
            continue;
        }
        let footprint = thread.next_footprint();
        let mut next_shared = shared.clone();
        let mut next_threads = threads.to_vec();
        if let Some(slot) = next_threads.get_mut(i) {
            Rc::make_mut(slot).step(&mut next_shared);
        }
        stats.steps += 1;
        // The child inherits sleepers whose next step is independent
        // of the step just taken; a conflicting sleeper wakes up
        // because its ordering relative to `i` now matters.
        let mut child_sleep = 0u64;
        for (j, sleeper) in threads.iter().enumerate().take(64) {
            if sleep & (1 << j) != 0 && !sleeper.next_footprint().conflicts(&footprint) {
                child_sleep |= 1 << j;
            }
        }
        schedule.push(i);
        dpor_dfs(&next_shared, &next_threads, child_sleep, schedule, on_final, stats);
        schedule.pop();
        // After fully exploring `i` here, later siblings need not
        // re-explore orders where `i` runs first among independents.
        if i < 64 {
            sleep |= 1 << i;
        }
    }
    if !any_runnable {
        stats.schedules += 1;
        on_final(shared, schedule);
    }
}

/// Draws `samples` random schedules (seeded, reproducible) and calls
/// `on_final` on each terminal state. Use when the thread count makes
/// exhaustive enumeration intractable. Returns `samples`.
pub fn explore_sampled<S, P>(
    shared: &S,
    threads: &[P],
    seed: u64,
    samples: u64,
    mut on_final: impl FnMut(&S, &[usize]),
) -> u64
where
    S: Clone,
    P: Program<S>,
{
    let mut rng = SplitMix64::new(seed);
    for _ in 0..samples {
        let mut state = shared.clone();
        let mut live = threads.to_vec();
        let mut schedule = Vec::new();
        loop {
            let runnable: Vec<usize> = live
                .iter()
                .enumerate()
                .filter(|(_, t)| !t.is_done() && !t.is_blocked(&state))
                .map(|(i, _)| i)
                .collect();
            if runnable.is_empty() {
                break;
            }
            let pick = runnable[rng.below(runnable.len() as u64) as usize];
            live[pick].step(&mut state);
            schedule.push(pick);
        }
        on_final(&state, &schedule);
    }
    samples
}

/// splitmix64: tiny, fast, reproducible PRNG (public-domain algorithm
/// by Sebastiano Vigna). Good enough for schedule sampling; not for
/// cryptography.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        // Modulo bias is irrelevant at schedule-sampling scale.
        self.next_u64() % n.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A thread that increments the counter `steps` times, one
    /// fetch_add-style atomic step each.
    #[derive(Clone)]
    struct Inc {
        steps: usize,
    }

    impl Program<u64> for Inc {
        fn step(&mut self, shared: &mut u64) {
            *shared += 1;
            self.steps -= 1;
        }
        fn is_done(&self) -> bool {
            self.steps == 0
        }
    }

    #[test]
    fn exhaustive_counts_all_interleavings() {
        // Two threads of two steps each: C(4, 2) = 6 schedules.
        let count = explore_exhaustive(&0u64, &[Inc { steps: 2 }, Inc { steps: 2 }], |s, _| {
            assert_eq!(*s, 4);
        });
        assert_eq!(count, 6);
        // Three threads of one step each: 3! = 6 schedules.
        let count = explore_exhaustive(
            &0u64,
            &[Inc { steps: 1 }, Inc { steps: 1 }, Inc { steps: 1 }],
            |s, _| {
                assert_eq!(*s, 3);
            },
        );
        assert_eq!(count, 6);
    }

    /// A non-atomic read-modify-write: load in one step, store the
    /// stale value + 1 in the next. The classic lost-update race.
    #[derive(Clone)]
    struct RacyInc {
        loaded: Option<u64>,
        done: bool,
    }

    impl Program<u64> for RacyInc {
        fn step(&mut self, shared: &mut u64) {
            match self.loaded.take() {
                None => self.loaded = Some(*shared),
                Some(v) => {
                    *shared = v + 1;
                    self.done = true;
                }
            }
        }
        fn is_done(&self) -> bool {
            self.done
        }
    }

    #[test]
    fn exhaustive_exploration_finds_the_lost_update() {
        let fresh = || RacyInc { loaded: None, done: false };
        let mut lost = 0;
        let total = explore_exhaustive(&0u64, &[fresh(), fresh()], |s, _| {
            assert!(*s == 1 || *s == 2);
            if *s == 1 {
                lost += 1;
            }
        });
        assert_eq!(total, 6);
        // 4 of the 6 interleavings overlap the two load/store pairs and
        // lose an update — the explorer must surface them.
        assert_eq!(lost, 4);
    }

    #[test]
    fn sampling_is_deterministic_and_covers_schedules() {
        let fresh = || RacyInc { loaded: None, done: false };
        let mut finals_a = Vec::new();
        explore_sampled(&0u64, &[fresh(), fresh()], 42, 64, |s, _| finals_a.push(*s));
        let mut finals_b = Vec::new();
        explore_sampled(&0u64, &[fresh(), fresh()], 42, 64, |s, _| finals_b.push(*s));
        assert_eq!(finals_a, finals_b, "same seed must reproduce the same schedules");
        assert!(finals_a.contains(&1), "sampler should hit the racy schedule");
        assert!(finals_a.contains(&2), "sampler should hit the serial schedule");
    }

    #[test]
    fn splitmix_below_stays_in_range() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(rng.below(3) < 3);
        }
    }

    /// An `Inc` that counts how many times it is deep-copied, to pin
    /// the copy-on-write behavior of the Rc snapshots.
    struct CountedInc {
        steps: usize,
        clones: Rc<std::cell::Cell<u64>>,
    }

    impl Clone for CountedInc {
        fn clone(&self) -> CountedInc {
            self.clones.set(self.clones.get() + 1);
            CountedInc { steps: self.steps, clones: Rc::clone(&self.clones) }
        }
    }

    impl Program<u64> for CountedInc {
        fn step(&mut self, shared: &mut u64) {
            *shared += 1;
            self.steps -= 1;
        }
        fn is_done(&self) -> bool {
            self.steps == 0
        }
    }

    #[test]
    fn rc_snapshots_clone_only_the_stepped_program() {
        let clones = Rc::new(std::cell::Cell::new(0));
        let fresh = || CountedInc { steps: 1, clones: Rc::clone(&clones) };
        let threads = [fresh(), fresh(), fresh()];
        let count = explore_exhaustive(&0u64, &threads, |s, _| assert_eq!(*s, 3));
        assert_eq!(count, 6);
        // 3 clones moving the inputs into Rcs, then exactly one
        // make_mut deep copy per DFS edge: 3 + 6 + 6 = 15 edges.
        // The old DFS cloned every live program at every edge (~45).
        assert_eq!(clones.get(), 3 + 15);
    }

    /// An `Inc` over a 3-slot array where thread `i` only ever touches
    /// slot `i` — fully independent footprints.
    #[derive(Clone)]
    struct SlotInc {
        slot: usize,
        steps: usize,
    }

    impl Program<[u64; 3]> for SlotInc {
        fn step(&mut self, shared: &mut [u64; 3]) {
            if let Some(v) = shared.get_mut(self.slot) {
                *v += 1;
            }
            self.steps -= 1;
        }
        fn is_done(&self) -> bool {
            self.steps == 0
        }
    }

    impl DporProgram<[u64; 3]> for SlotInc {
        fn next_footprint(&self) -> Footprint {
            Footprint::new(&[], &[self.slot as u32])
        }
    }

    #[test]
    fn dpor_collapses_independent_threads_to_one_schedule() {
        let threads = [
            SlotInc { slot: 0, steps: 2 },
            SlotInc { slot: 1, steps: 2 },
            SlotInc { slot: 2, steps: 2 },
        ];
        let naive = explore_exhaustive(&[0u64; 3], &threads, |s, _| assert_eq!(s, &[2, 2, 2]));
        // 6!/(2!2!2!) = 90 naive schedules, all equivalent.
        assert_eq!(naive, 90);
        let stats = explore_dpor(&[0u64; 3], &threads, |s, _| assert_eq!(s, &[2, 2, 2]));
        assert_eq!(stats.schedules, 1, "independent threads need one representative");
        assert!(stats.sleep_prunes > 0);
    }

    impl DporProgram<u64> for RacyInc {
        fn next_footprint(&self) -> Footprint {
            // Both the load and the store touch the one shared counter.
            match self.loaded {
                None => Footprint::new(&[0], &[]),
                Some(_) => Footprint::new(&[], &[0]),
            }
        }
    }

    #[test]
    fn dpor_still_reaches_every_distinct_terminal_state() {
        // Fully conflicting steps: DPOR must not prune away the racy
        // trace. Both terminal values (lost update = 1, serial = 2)
        // must still be observed.
        let fresh = || RacyInc { loaded: None, done: false };
        let mut finals = Vec::new();
        let stats = explore_dpor(&0u64, &[fresh(), fresh()], |s, _| finals.push(*s));
        assert!(stats.schedules <= 6, "DPOR never explores more than naive DFS");
        assert!(finals.contains(&1), "lost-update state pruned — unsound");
        assert!(finals.contains(&2), "serial state pruned — unsound");
    }

    #[test]
    fn footprint_conflicts_are_read_write_aware() {
        let read0 = Footprint::new(&[0], &[]);
        let write0 = Footprint::new(&[], &[0]);
        let write1 = Footprint::new(&[], &[1]);
        assert!(!read0.conflicts(&read0), "read/read never conflicts");
        assert!(read0.conflicts(&write0));
        assert!(write0.conflicts(&read0));
        assert!(write0.conflicts(&write0));
        assert!(!read0.conflicts(&write1));
        assert!(!write0.conflicts(&write1));
    }

    /// A thread parked until `flag` is raised: its one step lowers it
    /// again and counts the wake.
    #[derive(Clone)]
    enum Gate {
        Waiter { woke: bool },
        Raiser { raised: bool },
    }

    impl Program<(bool, u64)> for Gate {
        fn step(&mut self, shared: &mut (bool, u64)) {
            match self {
                Gate::Waiter { woke } => {
                    shared.0 = false;
                    shared.1 += 1;
                    *woke = true;
                }
                Gate::Raiser { raised } => {
                    shared.0 = true;
                    *raised = true;
                }
            }
        }

        fn is_done(&self) -> bool {
            match self {
                Gate::Waiter { woke } => *woke,
                Gate::Raiser { raised } => *raised,
            }
        }

        fn is_blocked(&self, shared: &(bool, u64)) -> bool {
            matches!(self, Gate::Waiter { .. }) && !shared.0
        }
    }

    impl DporProgram<(bool, u64)> for Gate {
        fn next_footprint(&self) -> Footprint {
            Footprint::new(&[0], &[0])
        }
    }

    #[test]
    fn blocked_threads_wait_and_stuck_states_are_reported() {
        let waiter = || Gate::Waiter { woke: false };
        // One raiser, one waiter: the waiter cannot go first, so there
        // is exactly one schedule, in every explorer.
        let threads = [waiter(), Gate::Raiser { raised: false }];
        let mut schedules = Vec::new();
        let count = explore_exhaustive(&(false, 0), &threads, |s, sched| {
            assert_eq!(*s, (false, 1));
            schedules.push(sched.to_vec());
        });
        assert_eq!((count, schedules), (1, vec![vec![1, 0]]));
        let stats = explore_dpor(&(false, 0), &threads, |s, _| assert_eq!(*s, (false, 1)));
        assert_eq!(stats.schedules, 1);
        explore_sampled(&(false, 0), &threads, 7, 16, |s, sched| {
            assert_eq!((*s, sched), ((false, 1), &[1, 0][..]));
        });

        // One raise, two waiters: whoever wakes lowers the flag, and
        // the other is stuck for good — a terminal state with a thread
        // still blocked, which `on_final` must be shown.
        let threads = [waiter(), waiter(), Gate::Raiser { raised: false }];
        let mut stuck = 0;
        let stats = explore_dpor(&(false, 0), &threads, |s, sched| {
            assert_eq!((*s, sched.len()), ((false, 1), 2));
            stuck += 1;
        });
        assert_eq!((stats.schedules, stuck), (2, 2));
    }
}
