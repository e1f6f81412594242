//! Shared by the serve integration suites: the failpoint guard and the
//! counter-conservation check every scheduler and chaos test ends on.

#![allow(dead_code)] // each suite uses its own subset

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
/// in flight ([`ServeCore::check_counter_laws`]).
pub fn shutdown_and_check_counters(core: &ServeCore) {
    core.shutdown();
    core.check_counter_laws().unwrap();
}
