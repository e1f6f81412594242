//! Shared by the serve integration suites: the failpoint guard and the
//! counter-conservation check every scheduler and chaos test ends on.

#![allow(dead_code)] // each suite uses its own subset

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use gobo_serve::ServeCore;

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// `gobo-fault`'s failpoint registry is process-global, so every test
/// that arms a failpoint — or that must not be hit by a neighbour's —
/// serializes on this guard, which resets the registry on entry and on
/// exit (even when the test panics).
pub struct FaultGuard(MutexGuard<'static, ()>);

impl FaultGuard {
    pub fn lock() -> Self {
        gobo_fault::install_panic_silencer();
        let guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        gobo_fault::reset();
        FaultGuard(guard)
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        gobo_fault::reset();
    }
}

/// Drains `core` and asserts the laws its counters obey once nothing is
/// in flight:
///
/// * every admitted request was answered exactly once —
///   `encode_requests = encode_ok + encode_failed + Σ rejected_*`;
/// * `batched_requests` is the sum of the batch sizes workers took: a
///   request taken in a batch ends as ok, failed, or (expired between
///   the take and the forward) a deadline rejection, so the sum lies
///   between `ok + failed` and `ok + failed + rejected_deadline` — an
///   equality whenever no deadline expired;
/// * no batch exceeded `max_batch`, and none was empty;
/// * the queue is empty, by the gauge and by the queue itself.
pub fn shutdown_and_check_counters(core: &ServeCore) {
    core.shutdown();
    let m = core.metrics();
    let v = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
    let (ok, failed, expired) = (v(&m.encode_ok), v(&m.encode_failed), v(&m.rejected_deadline));
    assert_eq!(
        v(&m.encode_requests),
        ok + failed + expired + v(&m.rejected_queue_full) + v(&m.rejected_shutdown),
        "requests in != answers out:\n{}",
        m.render()
    );
    let batched = v(&m.batched_requests);
    assert!(
        (ok + failed..=ok + failed + expired).contains(&batched),
        "batched_requests {batched} vs ok {ok} + failed {failed} (+ up to {expired} expired)"
    );
    assert!(v(&m.batches) <= batched, "an empty batch was dispatched");
    assert!(v(&m.batch_size_max) <= core.scheduler().config().max_batch.max(1) as u64);
    assert_eq!(v(&m.queue_depth), 0, "queue-depth gauge after shutdown");
    assert_eq!(core.scheduler().queue_depth(), 0, "queue after shutdown");
}
