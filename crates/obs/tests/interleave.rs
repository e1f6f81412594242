//! Concurrency audit: exhaustive interleaving checks for the span
//! ring's reserve/publish protocol (`trace::Ring`).
//!
//! The real ring cannot be single-stepped, so these tests model its
//! atomic operations one explorer-step at a time — exactly the
//! operations that are single atomic instructions in
//! `crates/obs/src/trace.rs::Ring::push`/`collect` — and let
//! `gobo_lint::interleave` close two and three producers (or a producer
//! and a collector) over every reachable state. Invariants proved
//! across all schedules:
//!
//! * **distinct claims** — no two pushes ever write the same slot
//!   (each slot is written at most once);
//! * **no lost events** — published + dropped == pushed;
//! * **publish-after-write** — a `ready` slot always carries its
//!   producer's payload (readers can never observe a torn slot);
//! * **no duplicate collection** — a collector sees each published
//!   event at most once and nothing that was never published.

use gobo_lint::interleave::{explore, Explored, Program};

/// The shared state of the modeled ring: what the atomics + UnsafeCell
/// slots of `trace::Ring` hold, plus bookkeeping the invariants need.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Ring {
    /// `slot.ready` flags.
    ready: Vec<bool>,
    /// `slot.data` payloads (producer id, event id).
    data: Vec<Option<(usize, usize)>>,
    /// How many times each slot was written — must never exceed 1.
    writes: Vec<u32>,
    /// The `cursor` allocation counter.
    cursor: usize,
    /// The `dropped` overflow counter.
    dropped: usize,
    /// What a finished collector saw (stashed in shared state so the
    /// final-state check can inspect it).
    collected: Option<Vec<(usize, usize)>>,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            ready: vec![false; capacity],
            data: vec![None; capacity],
            writes: vec![0; capacity],
            cursor: 0,
            dropped: 0,
            collected: None,
        }
    }

    fn published(&self) -> usize {
        self.ready.iter().filter(|&&r| r).count()
    }
}

/// One producer pushing `events` spans. Each push is the three atomic
/// steps of `Ring::push`: (1) `cursor.fetch_add` claims an index,
/// (2) the unsynchronized slot write, (3) the `ready` Release store —
/// or a single `dropped` increment when the claim is out of bounds.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Producer {
    id: usize,
    events: usize,
    next_event: usize,
    /// In-flight push: claimed index and whether the write happened.
    claimed: Option<(usize, bool)>,
}

impl Producer {
    fn new(id: usize, events: usize) -> Producer {
        Producer { id, events, next_event: 0, claimed: None }
    }
}

impl Program<Ring> for Producer {
    fn step(&mut self, ring: &mut Ring) {
        match self.claimed {
            // Step 1: claim an index (fetch_add is one atomic step).
            None => {
                let idx = ring.cursor;
                ring.cursor += 1;
                if idx < ring.data.len() {
                    self.claimed = Some((idx, false));
                } else {
                    ring.dropped += 1;
                    self.next_event += 1;
                }
            }
            // Step 2: write the slot (exclusive by claim).
            Some((idx, false)) => {
                assert!(ring.data[idx].is_none(), "overwrote a slot another producer filled");
                ring.data[idx] = Some((self.id, self.next_event));
                ring.writes[idx] += 1;
                assert_eq!(ring.writes[idx], 1, "slot {idx} written twice");
                self.claimed = Some((idx, true));
            }
            // Step 3: publish.
            Some((idx, true)) => {
                assert!(!ring.ready[idx], "slot {idx} published twice");
                ring.ready[idx] = true;
                self.claimed = None;
                self.next_event += 1;
            }
        }
    }

    fn is_done(&self) -> bool {
        self.next_event >= self.events && self.claimed.is_none()
    }
}

/// A collector running `Ring::collect` concurrently with producers:
/// loads `cursor` once (Acquire), then reads each slot's `ready` flag
/// and payload, one slot per step.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Collector {
    end: Option<usize>,
    next_slot: usize,
    seen: Vec<(usize, usize)>,
}

impl Collector {
    fn new() -> Collector {
        Collector { end: None, next_slot: 0, seen: Vec::new() }
    }
}

impl Program<Ring> for Collector {
    fn step(&mut self, ring: &mut Ring) {
        match self.end {
            None => self.end = Some(ring.cursor.min(ring.data.len())),
            Some(end) => {
                if self.next_slot < end {
                    let idx = self.next_slot;
                    if ring.ready[idx] {
                        // Publish-after-write: a ready slot must hold
                        // its payload — the Acquire/Release pairing the
                        // real ring relies on.
                        let payload = ring.data[idx]
                            .expect("ready slot with no payload: torn read would be possible");
                        self.seen.push(payload);
                    }
                    self.next_slot += 1;
                }
            }
        }
    }

    fn is_done(&self) -> bool {
        self.end.is_some_and(|end| self.next_slot >= end)
    }
}

fn check_final(ring: &Ring, pushed: usize, schedule: &[usize]) {
    assert_eq!(ring.published() + ring.dropped, pushed, "lost events in schedule {schedule:?}");
    for (idx, &writes) in ring.writes.iter().enumerate() {
        assert!(writes <= 1, "slot {idx} written {writes} times in schedule {schedule:?}");
    }
    // Everything below the final cursor (within capacity) was published
    // exactly once all producers finished.
    for idx in 0..ring.cursor.min(ring.data.len()) {
        assert!(ring.ready[idx], "claimed slot {idx} never published: {schedule:?}");
    }
}

#[test]
fn interleave_ring_two_producers_exhaustive() {
    // 2 producers x 2 events x 3 steps each, C(12,6) = 924 schedules,
    // with capacity for every event: nothing may drop or be lost.
    let explored =
        explore(Ring::new(4), vec![Producer::new(0, 2), Producer::new(1, 2)], |ring, schedule| {
            check_final(ring, 4, schedule);
            assert_eq!(ring.dropped, 0, "capacity 4 fits all 4 events");
        });
    assert_eq!(explored, Explored { states: 139, terminals: 6 });
}

#[test]
fn interleave_ring_overflow_counts_drops_exhaustive() {
    // Capacity 1 for 1+2 events: exactly two pushes must overflow into
    // `dropped` in every schedule — never silently vanish.
    let explored =
        explore(Ring::new(1), vec![Producer::new(0, 1), Producer::new(1, 2)], |ring, schedule| {
            check_final(ring, 3, schedule);
            assert_eq!(ring.dropped, 2, "exactly two events overflow: {schedule:?}");
            assert_eq!(ring.published(), 1);
        });
    assert_eq!(explored, Explored { states: 18, terminals: 2 });
}

#[test]
fn interleave_ring_producer_vs_collector_exhaustive() {
    // One producer racing one collector across every schedule: the
    // collector must never see a torn slot, a duplicate, or an event
    // that was not published.
    let threads = vec![Pc::P(Producer::new(0, 2)), Pc::C(Collector::new())];
    let mut collected = Vec::new();
    let explored = explore(Ring::new(3), threads, |ring, schedule| {
        // The producer ran to completion in every terminal state.
        check_final(ring, 2, schedule);
        // Collector results: no duplicates, all genuinely published.
        let seen = ring.collected.as_deref().unwrap_or(&[]);
        let mut dedup = seen.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seen.len(), "duplicate collection in {schedule:?}");
        for &(producer_id, event) in seen {
            assert_eq!(producer_id, 0);
            assert!(event < 2);
        }
        collected.push(seen.len());
    });
    // Not vacuous: the collector sees nothing, one event or both,
    // depending on where it snapshots `cursor`.
    collected.sort_unstable();
    collected.dedup();
    assert_eq!(collected, [0, 1, 2]);
    assert_eq!(explored, Explored { states: 40, terminals: 5 });
}

/// Producer/collector union so both can run under one explorer call
/// (the explorer requires homogeneous thread programs).
#[derive(Clone, PartialEq, Eq, Hash)]
enum Pc {
    P(Producer),
    C(Collector),
}

impl Program<Ring> for Pc {
    fn step(&mut self, ring: &mut Ring) {
        match self {
            Pc::P(p) => p.step(ring),
            Pc::C(c) => {
                c.step(ring);
                if c.is_done() {
                    ring.collected = Some(c.seen.clone());
                }
            }
        }
    }
    fn is_done(&self) -> bool {
        match self {
            Pc::P(p) => p.is_done(),
            Pc::C(c) => c.is_done(),
        }
    }
}

#[test]
fn interleave_ring_three_producers_exhaustive() {
    // 3 producers x 2 events: 18!/(6!6!6!) ≈ 1.7·10⁷ schedules, a few
    // thousand states.
    let threads = vec![Producer::new(0, 2), Producer::new(1, 2), Producer::new(2, 2)];
    let explored = explore(Ring::new(6), threads, |ring, schedule| {
        check_final(ring, 6, schedule);
        assert_eq!(ring.dropped, 0);
    });
    assert_eq!(explored, Explored { states: 6391, terminals: 90 });
}
