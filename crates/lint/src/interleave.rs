//! Deterministic interleaving exploration for small concurrent
//! protocols.
//!
//! A protocol under test is modeled as a set of *thread programs* that
//! mutate shared state in discrete atomic steps. [`explore`] closes the
//! model over its reachable states: breadth first from the initial
//! `(shared, threads)` pair, it steps every runnable thread out of every
//! state it has not seen before, so each edge of the reachable state
//! graph is taken exactly once — asserts inside [`Program::step`] run on
//! all of them — and the caller's check sees each terminal state once,
//! with the shortest schedule that reaches it. Every schedule is a path
//! in that graph, so checking every reachable terminal state checks the
//! outcome of every schedule, and the cost is the number of states, not
//! of schedules: a protocol whose threads all meet on one queue has
//! millions of schedules over a few thousand states.
//!
//! Steps are the granularity of atomicity, so shared state should
//! expose exactly the operations that are atomic in the real
//! implementation (for example, one `fetch_add` or one store — not a
//! whole read-modify-write sequence, which must be split across steps
//! to model the race). A thread may also declare itself *blocked* on
//! the shared state ([`Program::is_blocked`]) — asleep on a condition
//! variable, say: it is skipped until another thread's step unblocks
//! it, and a state in which every unfinished thread is blocked is
//! terminal, so lost wake-ups and deadlocks reach the check too.
//!
//! Two schedules meet when they reach equal shared state *and* equal
//! thread programs, so both are `Eq + Hash`. Whatever a model records
//! only for its checks (a log of batches, say) is part of the state and
//! keeps apart schedules that would otherwise meet: record what the
//! checks read, nothing more.

use std::collections::{HashSet, VecDeque};
use std::hash::Hash;

/// One thread of a modeled protocol. `step` executes the thread's next
/// atomic action against the shared state; `is_done` reports whether
/// the thread has finished. Programs are cloned at every step, so keep
/// per-thread state small.
pub trait Program<S>: Clone {
    /// Executes the next atomic step. Called only while `!is_done()`
    /// and `!is_blocked(shared)`.
    fn step(&mut self, shared: &mut S);
    /// Whether this thread has no more steps.
    fn is_done(&self) -> bool;
    /// Whether the thread's next step has to wait for another thread —
    /// it sleeps on a condition variable nobody has notified, say. A
    /// blocked thread is not scheduled, and a state is terminal when
    /// every thread is done *or blocked*, so the check is also shown
    /// the states a protocol can get stuck in (a lost wake-up is one)
    /// and a thread that waits for ever needs no artificial last step.
    /// Never blocked by default.
    fn is_blocked(&self, _shared: &S) -> bool {
        false
    }
}

/// What one [`explore`] run covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Explored {
    /// Distinct `(shared, threads)` states reached, the initial one
    /// included.
    pub states: usize,
    /// How many of them are terminal: every thread done or blocked.
    pub terminals: usize,
}

/// Closes `threads` running against `shared` over every reachable
/// state and calls `check(state, schedule)` once per terminal state.
/// The schedule is the sequence of thread indices stepped, a shortest
/// one reaching the state — a failing check that prints it names the
/// smallest counterexample.
pub fn explore<S, P>(shared: S, threads: Vec<P>, mut check: impl FnMut(&S, &[usize])) -> Explored
where
    S: Clone + Eq + Hash,
    P: Program<S> + Eq + Hash,
{
    let start = (shared, threads);
    let mut seen = HashSet::from([start.clone()]);
    // `parent[n]` is the state node `n` was first reached from and the
    // thread stepped to get there; breadth-first order makes the chain
    // back to the root a shortest schedule.
    let mut parent = vec![(0, 0)];
    let mut queue = VecDeque::from([(start, 0)]);
    let mut terminals = 0;
    while let Some(((shared, threads), node)) = queue.pop_front() {
        let mut runnable = false;
        for (i, thread) in threads.iter().enumerate() {
            if thread.is_done() || thread.is_blocked(&shared) {
                continue;
            }
            runnable = true;
            let (mut next_shared, mut next_threads) = (shared.clone(), threads.clone());
            next_threads[i].step(&mut next_shared);
            let next = (next_shared, next_threads);
            if !seen.contains(&next) {
                seen.insert(next.clone());
                queue.push_back((next, parent.len()));
                parent.push((node, i));
            }
        }
        if !runnable {
            terminals += 1;
            check(&shared, &schedule_to(&parent, node));
        }
    }
    Explored { states: seen.len(), terminals }
}

/// The thread indices stepped from the initial state to `node`.
fn schedule_to(parent: &[(usize, usize)], mut node: usize) -> Vec<usize> {
    let mut schedule = Vec::new();
    while node != 0 {
        let (from, thread) = parent[node];
        schedule.push(thread);
        node = from;
    }
    schedule.reverse();
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The reference [`explore`] is checked against: walks every
    /// schedule depth first and calls `on_final` at the end of each.
    /// Returns the number of schedules.
    fn explore_exhaustive<S: Clone, P: Program<S>>(
        shared: &S,
        threads: &[P],
        on_final: &mut impl FnMut(&S, &[usize]),
    ) -> u64 {
        fn dfs<S: Clone, P: Program<S>>(
            shared: &S,
            threads: &[P],
            schedule: &mut Vec<usize>,
            on_final: &mut impl FnMut(&S, &[usize]),
        ) -> u64 {
            let mut count = 0;
            for (i, thread) in threads.iter().enumerate() {
                if thread.is_done() || thread.is_blocked(shared) {
                    continue;
                }
                let (mut next_shared, mut next_threads) = (shared.clone(), threads.to_vec());
                next_threads[i].step(&mut next_shared);
                schedule.push(i);
                count += dfs(&next_shared, &next_threads, schedule, on_final);
                schedule.pop();
            }
            if count == 0 {
                on_final(shared, schedule);
                count = 1;
            }
            count
        }
        dfs(shared, threads, &mut Vec::new(), on_final)
    }

    /// For each terminal shared state, the length of the shortest
    /// schedule reaching it — by every schedule, and by [`explore`].
    fn shortest_by_both<S, P>(shared: &S, threads: &[P]) -> [HashMap<S, usize>; 2]
    where
        S: Clone + Eq + Hash,
        P: Program<S> + Eq + Hash,
    {
        let mut shortest = [HashMap::new(), HashMap::new()];
        let mut note = |by: usize, s: &S, schedule: &[usize]| {
            let len = shortest[by].entry(s.clone()).or_insert(usize::MAX);
            *len = (*len).min(schedule.len());
        };
        explore_exhaustive(shared, threads, &mut |s, schedule| note(0, s, schedule));
        explore(shared.clone(), threads.to_vec(), |s, schedule| note(1, s, schedule));
        shortest
    }

    /// A thread that increments the counter `steps` times, one
    /// fetch_add-style atomic step each.
    #[derive(Clone, PartialEq, Eq, Hash)]
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
        // Two threads of two steps each: C(4, 2) = 6 schedules over the
        // 3 × 3 grid of (steps left, steps left), one of them terminal.
        let threads = [Inc { steps: 2 }, Inc { steps: 2 }];
        let count = explore_exhaustive(&0u64, &threads, &mut |s, _| assert_eq!(*s, 4));
        assert_eq!(count, 6);
        let explored = explore(0u64, threads.to_vec(), |s, schedule| {
            assert_eq!((*s, schedule), (4, &[0, 0, 1, 1][..]));
        });
        assert_eq!(explored, Explored { states: 9, terminals: 1 });
        // Three threads of one step each: 3! = 6 schedules, 2³ states.
        let threads = [Inc { steps: 1 }, Inc { steps: 1 }, Inc { steps: 1 }];
        let count = explore_exhaustive(&0u64, &threads, &mut |s, _| assert_eq!(*s, 3));
        assert_eq!(count, 6);
        let explored = explore(0u64, threads.to_vec(), |s, _| assert_eq!(*s, 3));
        assert_eq!(explored, Explored { states: 8, terminals: 1 });
    }

    /// A non-atomic read-modify-write: load in one step, store the
    /// stale value + 1 in the next. The classic lost-update race.
    #[derive(Clone, PartialEq, Eq, Hash)]
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
        let mut finals = Vec::new();
        let explored = explore(0u64, vec![fresh(), fresh()], |s, schedule| {
            finals.push((*s, schedule.to_vec()));
        });
        finals.sort();
        // Both loads before either store lose an update; the witness is
        // the first such schedule in breadth-first order.
        assert_eq!(finals, [(1, vec![0, 1, 0, 1]), (2, vec![0, 0, 1, 1])]);
        assert_eq!(explored.terminals, 2);
    }

    #[test]
    fn explore_reaches_every_terminal_state_the_schedules_reach() {
        let fresh = || RacyInc { loaded: None, done: false };
        let [by_schedule, by_state] = shortest_by_both(&0u64, &[fresh(), fresh(), fresh()]);
        assert_eq!(by_schedule, by_state);
        assert_eq!(by_state.keys().copied().collect::<HashSet<_>>(), HashSet::from([1, 2, 3]));
        let waiter = || Gate::Waiter { woke: false };
        let threads = [waiter(), Gate::Raiser { raised: false }, waiter()];
        let [by_schedule, by_state] = shortest_by_both(&(false, 0), &threads);
        assert_eq!(by_schedule, by_state);
    }

    /// An `Inc` that counts its steps in a cell outside the explored
    /// state, to see which edges were taken.
    #[derive(Clone)]
    struct CountedInc {
        steps: usize,
        stepped: std::rc::Rc<std::cell::Cell<u64>>,
    }

    impl PartialEq for CountedInc {
        fn eq(&self, other: &CountedInc) -> bool {
            self.steps == other.steps
        }
    }

    impl Eq for CountedInc {}

    impl Hash for CountedInc {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            self.steps.hash(state);
        }
    }

    impl Program<u64> for CountedInc {
        fn step(&mut self, shared: &mut u64) {
            self.stepped.set(self.stepped.get() + 1);
            *shared += 1;
            self.steps -= 1;
        }
        fn is_done(&self) -> bool {
            self.steps == 0
        }
    }

    #[test]
    fn every_edge_is_stepped_exactly_once() {
        // Three threads of two steps: a 3 × 3 × 3 grid of 27 states with
        // 3 · 2 · 3 · 3 = 54 edges, against 6!/(2!2!2!) = 90 schedules of
        // 6 steps each.
        let stepped = std::rc::Rc::default();
        let fresh = || CountedInc { steps: 2, stepped: std::rc::Rc::clone(&stepped) };
        let explored = explore(0u64, vec![fresh(), fresh(), fresh()], |s, _| assert_eq!(*s, 6));
        assert_eq!(explored, Explored { states: 27, terminals: 1 });
        assert_eq!(stepped.get(), 54);
    }

    /// A thread parked until `flag` is raised: its one step lowers it
    /// again and counts the wake.
    #[derive(Clone, PartialEq, Eq, Hash)]
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

    #[test]
    fn blocked_threads_wait_and_stuck_states_are_reported() {
        let waiter = || Gate::Waiter { woke: false };
        // One raiser, one waiter: the waiter cannot go first, so there
        // is exactly one schedule.
        let mut schedules = Vec::new();
        let explored =
            explore((false, 0), vec![waiter(), Gate::Raiser { raised: false }], |s, sched| {
                assert_eq!(*s, (false, 1));
                schedules.push(sched.to_vec());
            });
        assert_eq!((explored.states, schedules), (3, vec![vec![1, 0]]));

        // One raise, two waiters: whoever wakes lowers the flag, and
        // the other is stuck for good — a terminal state with a thread
        // still blocked, which the check must be shown.
        let threads = vec![waiter(), waiter(), Gate::Raiser { raised: false }];
        let mut stuck = Vec::new();
        let explored = explore((false, 0), threads, |s, sched| {
            assert_eq!(*s, (false, 1));
            stuck.push(sched.to_vec());
        });
        assert_eq!(explored, Explored { states: 4, terminals: 2 });
        assert_eq!(stuck, [vec![2, 0], vec![2, 1]]);
    }
}
