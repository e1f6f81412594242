//! The wrapper primitives: [`SanMutex`], [`SanRwLock`],
//! [`SanCondvar`] and their guards.
//!
//! Disabled (the default), every method is one relaxed atomic load
//! and a direct call into std. Enabled, an acquisition runs through
//! [`crate::on_acquire_attempt`] *before* it can block — so a
//! lock-order cycle is reported even while the threads involved are
//! wedged — then spins on `try_lock` under the watchdog instead of
//! parking forever.
//!
//! All wrappers recover from poisoning (`PoisonError::into_inner`):
//! the workspace treats a panicking lock holder as the supervised
//! worker's problem, not every reader's.

use std::panic::Location;
use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
    TryLockError, WaitTimeoutResult,
};
use std::time::{Duration, Instant};

use crate::{mode, Mode};

/// Polling interval of the watchdog acquisition loop.
const SPIN_SLEEP: Duration = Duration::from_micros(50);

/// Acquires via `try_once`, spinning under the watchdog. Returns the
/// guard and whether the first attempt lost (contention).
fn spin_acquire<G>(
    name: &'static str,
    site: &'static Location<'static>,
    mut try_once: impl FnMut() -> Option<G>,
) -> (G, bool) {
    if let Some(guard) = try_once() {
        return (guard, false);
    }
    let start = Instant::now();
    let mut reported = false;
    loop {
        if let Some(guard) = try_once() {
            return (guard, true);
        }
        if !reported && start.elapsed() >= crate::watchdog() {
            crate::record_watchdog(name, site, start.elapsed());
            reported = true;
        }
        std::thread::sleep(SPIN_SLEEP);
    }
}

/// A guard's `Option` payload is only `None` after `into_raw` took
/// it, and `into_raw` consumes the guard — so a live guard always
/// holds `Some`. Kept panic-free (the sanitizer denies clippy's
/// panicking lints outside tests like every other locking crate).
#[cold]
fn guard_gone() -> ! {
    std::process::abort()
}

// ---------------------------------------------------------------- Mutex

/// A named, ranked [`Mutex`]. `name` follows the dotted-path
/// discipline (`serve.scheduler.state`); `rank` is the documented
/// acquisition order — a lock may only be acquired while every lock
/// already held has a strictly smaller rank.
#[derive(Debug)]
pub struct SanMutex<T> {
    name: &'static str,
    rank: u32,
    inner: Mutex<T>,
}

impl<T> SanMutex<T> {
    /// Wraps `value`. `const`, so statics work exactly like
    /// `Mutex::new` statics.
    pub const fn new(name: &'static str, rank: u32, value: T) -> Self {
        SanMutex { name, rank, inner: Mutex::new(value) }
    }

    /// The lock's dotted-path name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The lock's declared order rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Acquires the mutex, recovering from poisoning.
    #[track_caller]
    pub fn lock(&self) -> SanMutexGuard<'_, T> {
        if mode() == Mode::Off {
            let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            return SanMutexGuard { lock: self, inner: Some(inner), tracked: false };
        }
        let site = Location::caller();
        crate::on_acquire_attempt(self.name, self.rank, site);
        let start = Instant::now();
        let (inner, contended) = spin_acquire(self.name, site, || match self.inner.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        });
        crate::record_acquired(self.name, self.rank, contended, start.elapsed());
        crate::push_held(self.name, self.rank, site);
        SanMutexGuard { lock: self, inner: Some(inner), tracked: true }
    }

    /// Re-enters bookkeeping after a condvar wait handed the raw
    /// guard back.
    fn rewrap<'a>(
        &'a self,
        inner: MutexGuard<'a, T>,
        tracked: bool,
        site: &'static Location<'static>,
    ) -> SanMutexGuard<'a, T> {
        if tracked {
            crate::on_acquire_attempt(self.name, self.rank, site);
            crate::record_acquired(self.name, self.rank, false, Duration::ZERO);
            crate::push_held(self.name, self.rank, site);
        }
        SanMutexGuard { lock: self, inner: Some(inner), tracked }
    }
}

/// RAII guard for [`SanMutex`]; releases bookkeeping (held stack,
/// hold-time histogram) on drop.
#[derive(Debug)]
pub struct SanMutexGuard<'a, T> {
    lock: &'a SanMutex<T>,
    inner: Option<MutexGuard<'a, T>>,
    tracked: bool,
}

impl<'a, T> SanMutexGuard<'a, T> {
    /// Runs release bookkeeping and returns the raw std guard (used
    /// by [`SanCondvar`], which must hand std the real guard).
    fn into_raw(mut self) -> Option<MutexGuard<'a, T>> {
        if self.tracked {
            if let Some(hold) = crate::pop_held(self.lock.name) {
                crate::record_released(self.lock.name, hold);
            }
        }
        self.inner.take()
    }
}

impl<T> std::ops::Deref for SanMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.inner {
            Some(guard) => guard,
            None => guard_gone(),
        }
    }
}

impl<T> std::ops::DerefMut for SanMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.inner {
            Some(guard) => guard,
            None => guard_gone(),
        }
    }
}

impl<T> Drop for SanMutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() && self.tracked {
            if let Some(hold) = crate::pop_held(self.lock.name) {
                crate::record_released(self.lock.name, hold);
            }
        }
    }
}

// --------------------------------------------------------------- RwLock

/// A named, ranked [`RwLock`]. Reads and writes both participate in
/// lock-order tracking: a read acquisition can deadlock just as well
/// once a writer queues between two readers.
#[derive(Debug)]
pub struct SanRwLock<T> {
    name: &'static str,
    rank: u32,
    inner: RwLock<T>,
}

impl<T> SanRwLock<T> {
    /// Wraps `value` (const, statics-friendly).
    pub const fn new(name: &'static str, rank: u32, value: T) -> Self {
        SanRwLock { name, rank, inner: RwLock::new(value) }
    }

    /// The lock's dotted-path name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The lock's declared order rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Acquires a shared read guard, recovering from poisoning.
    #[track_caller]
    pub fn read(&self) -> SanRwLockReadGuard<'_, T> {
        if mode() == Mode::Off {
            let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
            return SanRwLockReadGuard { lock: self, inner: Some(inner), tracked: false };
        }
        let site = Location::caller();
        crate::on_acquire_attempt(self.name, self.rank, site);
        let start = Instant::now();
        let (inner, contended) = spin_acquire(self.name, site, || match self.inner.try_read() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        });
        crate::record_acquired(self.name, self.rank, contended, start.elapsed());
        crate::push_held(self.name, self.rank, site);
        SanRwLockReadGuard { lock: self, inner: Some(inner), tracked: true }
    }

    /// Acquires the exclusive write guard, recovering from poisoning.
    #[track_caller]
    pub fn write(&self) -> SanRwLockWriteGuard<'_, T> {
        if mode() == Mode::Off {
            let inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
            return SanRwLockWriteGuard { lock: self, inner: Some(inner), tracked: false };
        }
        let site = Location::caller();
        crate::on_acquire_attempt(self.name, self.rank, site);
        let start = Instant::now();
        let (inner, contended) = spin_acquire(self.name, site, || match self.inner.try_write() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        });
        crate::record_acquired(self.name, self.rank, contended, start.elapsed());
        crate::push_held(self.name, self.rank, site);
        SanRwLockWriteGuard { lock: self, inner: Some(inner), tracked: true }
    }
}

/// Shared read guard for [`SanRwLock`].
#[derive(Debug)]
pub struct SanRwLockReadGuard<'a, T> {
    lock: &'a SanRwLock<T>,
    inner: Option<RwLockReadGuard<'a, T>>,
    tracked: bool,
}

impl<T> std::ops::Deref for SanRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.inner {
            Some(guard) => guard,
            None => guard_gone(),
        }
    }
}

impl<T> Drop for SanRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() && self.tracked {
            if let Some(hold) = crate::pop_held(self.lock.name) {
                crate::record_released(self.lock.name, hold);
            }
        }
    }
}

/// Exclusive write guard for [`SanRwLock`].
#[derive(Debug)]
pub struct SanRwLockWriteGuard<'a, T> {
    lock: &'a SanRwLock<T>,
    inner: Option<RwLockWriteGuard<'a, T>>,
    tracked: bool,
}

impl<T> std::ops::Deref for SanRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.inner {
            Some(guard) => guard,
            None => guard_gone(),
        }
    }
}

impl<T> std::ops::DerefMut for SanRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.inner {
            Some(guard) => guard,
            None => guard_gone(),
        }
    }
}

impl<T> Drop for SanRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() && self.tracked {
            if let Some(hold) = crate::pop_held(self.lock.name) {
                crate::record_released(self.lock.name, hold);
            }
        }
    }
}

// -------------------------------------------------------------- Condvar

/// A named [`Condvar`]. The sanctioned entry points are the predicate
/// forms — [`SanCondvar::wait_while`] and
/// [`SanCondvar::wait_timeout_while`] — which re-check the condition
/// after every (possibly spurious) wakeup. The raw [`SanCondvar::wait`]
/// / [`SanCondvar::wait_timeout`] escape hatches exist for call sites
/// that genuinely loop by hand, and each use is a
/// [`crate::ReportKind::CondvarNoPredicate`] report when the
/// sanitizer is on.
#[derive(Debug)]
pub struct SanCondvar {
    name: &'static str,
    inner: Condvar,
}

impl SanCondvar {
    /// Creates the condvar (const, statics-friendly).
    pub const fn new(name: &'static str) -> Self {
        SanCondvar { name, inner: Condvar::new() }
    }

    /// The condvar's dotted-path name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Reports if this thread still holds sanitized locks besides the
    /// mutex it is about to release for the wait.
    fn check_held_across(&self, waited: &'static str, site: &'static Location<'static>) {
        let others: Vec<(String, String)> =
            crate::held_snapshot().into_iter().filter(|(name, _)| name != waited).collect();
        if !others.is_empty() {
            crate::record_condvar_held_across(self.name, site, &others);
        }
    }

    /// Blocks while `condition` returns `true`, releasing the mutex
    /// for the duration of each wait.
    #[track_caller]
    pub fn wait_while<'a, T, F>(
        &self,
        guard: SanMutexGuard<'a, T>,
        condition: F,
    ) -> SanMutexGuard<'a, T>
    where
        F: FnMut(&mut T) -> bool,
    {
        let site = Location::caller();
        let lock = guard.lock;
        let tracked = guard.tracked;
        if tracked {
            self.check_held_across(lock.name, site);
        }
        let Some(raw) = guard.into_raw() else { return lock.lock() };
        let raw = self.inner.wait_while(raw, condition).unwrap_or_else(PoisonError::into_inner);
        lock.rewrap(raw, tracked, site)
    }

    /// Blocks while `condition` returns `true`, up to `timeout` of
    /// total wait time.
    #[track_caller]
    pub fn wait_timeout_while<'a, T, F>(
        &self,
        guard: SanMutexGuard<'a, T>,
        timeout: Duration,
        condition: F,
    ) -> (SanMutexGuard<'a, T>, WaitTimeoutResult)
    where
        F: FnMut(&mut T) -> bool,
    {
        let site = Location::caller();
        let lock = guard.lock;
        let tracked = guard.tracked;
        if tracked {
            self.check_held_across(lock.name, site);
        }
        let Some(raw) = guard.into_raw() else {
            let (raw, result) = timed_out_now(&self.inner, lock);
            return (raw, result);
        };
        let (raw, result) = self
            .inner
            .wait_timeout_while(raw, timeout, condition)
            .unwrap_or_else(PoisonError::into_inner);
        (lock.rewrap(raw, tracked, site), result)
    }

    /// Raw wait without a predicate — reported when the sanitizer is
    /// on; prefer [`SanCondvar::wait_while`].
    #[track_caller]
    pub fn wait<'a, T>(&self, guard: SanMutexGuard<'a, T>) -> SanMutexGuard<'a, T> {
        let site = Location::caller();
        let lock = guard.lock;
        let tracked = guard.tracked;
        if tracked {
            crate::record_condvar_no_predicate(self.name, site);
        }
        let Some(raw) = guard.into_raw() else { return lock.lock() };
        let raw = self.inner.wait(raw).unwrap_or_else(PoisonError::into_inner);
        lock.rewrap(raw, tracked, site)
    }

    /// Raw timed wait without a predicate — reported when the
    /// sanitizer is on; prefer [`SanCondvar::wait_timeout_while`].
    #[track_caller]
    pub fn wait_timeout<'a, T>(
        &self,
        guard: SanMutexGuard<'a, T>,
        timeout: Duration,
    ) -> (SanMutexGuard<'a, T>, WaitTimeoutResult) {
        let site = Location::caller();
        let lock = guard.lock;
        let tracked = guard.tracked;
        if tracked {
            crate::record_condvar_no_predicate(self.name, site);
        }
        let Some(raw) = guard.into_raw() else {
            let (raw, result) = timed_out_now(&self.inner, lock);
            return (raw, result);
        };
        let (raw, result) =
            self.inner.wait_timeout(raw, timeout).unwrap_or_else(PoisonError::into_inner);
        (lock.rewrap(raw, tracked, site), result)
    }
}

/// Fallback for the unreachable guard-already-consumed branch of the
/// timed waits: reacquire and report an immediate timeout.
fn timed_out_now<'a, T>(
    condvar: &Condvar,
    lock: &'a SanMutex<T>,
) -> (SanMutexGuard<'a, T>, WaitTimeoutResult) {
    let guard = lock.lock();
    let Some(raw) = guard.into_raw() else { guard_gone() };
    let (raw, result) =
        condvar.wait_timeout(raw, Duration::from_micros(1)).unwrap_or_else(PoisonError::into_inner);
    (lock.rewrap(raw, true, Location::caller()), result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{enable, Mode};

    #[test]
    fn disabled_roundtrip_is_passthrough() {
        // Off-mode guards must not touch global state.
        let m = SanMutex::new("sanitize.test.passthrough", 1, 7u32);
        enable(Mode::Off);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 8);
        enable(Mode::Record);
    }

    #[test]
    fn rwlock_read_then_write() {
        enable(Mode::Record);
        let l = SanRwLock::new("sanitize.test.rw", 2, vec![1, 2, 3]);
        assert_eq!(l.read().len(), 3);
        l.write().push(4);
        assert_eq!(l.read().len(), 4);
    }

    #[test]
    fn condvar_wait_while_observes_notify() {
        enable(Mode::Record);
        let pair = std::sync::Arc::new((
            SanMutex::new("sanitize.test.cv_state", 3, false),
            SanCondvar::new("sanitize.test.cv"),
        ));
        let waker = std::sync::Arc::clone(&pair);
        let handle = std::thread::spawn(move || {
            let (lock, cv) = &*waker;
            *lock.lock() = true;
            cv.notify_all();
        });
        let (lock, cv) = &*pair;
        let guard = cv.wait_while(lock.lock(), |ready| !*ready);
        assert!(*guard);
        drop(guard);
        handle.join().ok();
    }

    #[test]
    fn raw_wait_is_reported() {
        enable(Mode::Record);
        let lock = SanMutex::new("sanitize.test.raw_cv_state", 4, ());
        let cv = SanCondvar::new("sanitize.test.raw_cv");
        let (_, timed_out) = cv.wait_timeout(lock.lock(), Duration::from_millis(1));
        assert!(timed_out.timed_out());
        let reports = crate::reports();
        assert!(
            reports.iter().any(|r| r.kind == crate::ReportKind::CondvarNoPredicate
                && r.message.contains("sanitize.test.raw_cv")),
            "missing raw-wait report"
        );
    }
}
