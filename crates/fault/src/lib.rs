//! `gobo-fault`: deterministic fault injection for the
//! quantize→store→load→serve pipeline.
//!
//! A decoded GOBO model is supposed to be a bit-faithful replacement for
//! the FP32 original, so the failure modes that matter are the quiet
//! ones — a half-written container, a worker that dies and silently
//! shrinks the pool, a queue that wedges instead of rejecting. This
//! crate exists to *provoke* those failures on demand, so the rest of
//! the stack can prove it degrades instead of lying.
//!
//! # Model
//!
//! Code under test declares **named failpoints** with the
//! [`fail_point!`] macro. Each failpoint is off unless a [`Policy`] is
//! configured for its name; a policy pairs an *action* (return an
//! error, panic, sleep) with a *trigger* (always, every N-th
//! evaluation, seeded pseudo-random probability). All scheduling is
//! deterministic: every-N-th counts evaluations per point, and the
//! probability trigger hashes `(seed, evaluation index)` — the same
//! configuration replays the same fault schedule.
//!
//! # Cost when disabled
//!
//! Mirroring the `gobo-obs` span pattern, a failpoint with no policies
//! configured anywhere in the process is **one relaxed atomic load** —
//! no locks, no map lookup, no allocation — so failpoints can sit on
//! serving hot paths permanently.
//!
//! # Example
//!
//! ```
//! fn decode(data: &[u8]) -> Result<usize, String> {
//!     gobo_fault::fail_point!("doc.decode", "injected decode fault".to_owned());
//!     Ok(data.len())
//! }
//!
//! assert_eq!(decode(b"ok"), Ok(2));
//! gobo_fault::configure_str("doc.decode=error(every=2)").unwrap();
//! assert_eq!(decode(b"ok"), Ok(2)); // 1st evaluation: no fire
//! assert!(decode(b"ok").is_err()); // 2nd evaluation: injected
//! gobo_fault::reset();
//! assert_eq!(decode(b"ok"), Ok(2));
//! ```

#![deny(missing_docs)]
// Panic-free outside tests: no `.unwrap()` / `.expect()`, panicking
// macro (the assert family via `clippy.toml`) or unchecked index.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_macros
    )
)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};
use std::time::Duration;

mod spec;

pub use spec::SpecError;

/// What a fired failpoint does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// The call site returns its own error (the [`fail_point!`] macro's
    /// second argument).
    Error,
    /// The failpoint panics with a `gobo-fault:`-prefixed message,
    /// exercising `catch_unwind` / respawn paths.
    Panic,
    /// The failpoint sleeps for the given duration, then continues
    /// normally — for provoking deadline expiry and queue overload.
    Delay(Duration),
}

/// When a configured failpoint fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire on every evaluation.
    Always,
    /// Fire on every N-th evaluation of the point (1-based: `EveryNth(5)`
    /// fires on evaluations 5, 10, 15, …).
    EveryNth(u64),
    /// Fire with probability `p` per evaluation, decided by hashing
    /// `(seed, evaluation index)` — deterministic for a fixed seed.
    Probability {
        /// Fire probability in `[0, 1]`.
        p: f64,
        /// Hash seed; the same seed replays the same schedule.
        seed: u64,
    },
}

/// A failpoint policy: an action plus the trigger deciding when it
/// applies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Policy {
    /// What happens when the point fires.
    pub action: FaultAction,
    /// When the point fires.
    pub trigger: Trigger,
}

impl Policy {
    /// A policy firing `action` on every evaluation.
    pub fn always(action: FaultAction) -> Self {
        Policy { action, trigger: Trigger::Always }
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.action {
            FaultAction::Error => write!(f, "error")?,
            FaultAction::Panic => write!(f, "panic")?,
            FaultAction::Delay(d) => write!(f, "delay(us={})", d.as_micros())?,
        }
        match self.trigger {
            Trigger::Always => Ok(()),
            Trigger::EveryNth(n) => write!(f, "[every={n}]"),
            Trigger::Probability { p, seed } => write!(f, "[p={p},seed={seed}]"),
        }
    }
}

/// Marker returned by [`fire`] when an `Error`-action failpoint fired;
/// the call site converts it into its own error type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault;

/// Counters for one configured failpoint, from [`snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct FailpointStats {
    /// The failpoint name.
    pub name: String,
    /// Rendered policy (action + trigger).
    pub policy: String,
    /// Times the point was evaluated while configured.
    pub evaluated: u64,
    /// Times the point fired (including panics and delays).
    pub fired: u64,
}

struct Point {
    policy: Policy,
    evaluated: AtomicU64,
    fired: AtomicU64,
}

/// Number of configured points; `fire` is a single relaxed load of this
/// when it is zero.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

fn registry() -> &'static RwLock<HashMap<String, Arc<Point>>> {
    static REGISTRY: OnceLock<RwLock<HashMap<String, Arc<Point>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(HashMap::new()))
}

/// The splitmix64 mixer: the workspace's one cheap deterministic hash,
/// behind [`Trigger::Probability`] and the jitter of `gobo-proto`'s
/// connect retries.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Configures (or replaces) the policy for `name`, resetting its
/// counters.
pub fn configure(name: &str, policy: Policy) {
    let mut map = registry().write().unwrap_or_else(PoisonError::into_inner);
    let point = Arc::new(Point { policy, evaluated: AtomicU64::new(0), fired: AtomicU64::new(0) });
    if map.insert(name.to_owned(), point).is_none() {
        ACTIVE.fetch_add(1, Ordering::Relaxed);
    }
}

/// Removes the policy for `name`; the point goes back to costing one
/// relaxed load (once no points remain configured).
pub fn clear(name: &str) {
    let mut map = registry().write().unwrap_or_else(PoisonError::into_inner);
    if map.remove(name).is_some() {
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Removes every configured policy.
pub fn reset() {
    let mut map = registry().write().unwrap_or_else(PoisonError::into_inner);
    ACTIVE.fetch_sub(map.len(), Ordering::Relaxed);
    map.clear();
}

/// Parses and applies a failpoint spec string:
/// `name=policy[;name=policy...]` where `policy` is one of
///
/// * `off`
/// * `error` / `panic` — fire on every evaluation
/// * `delay(ms=10)` or `delay(us=250)`
/// * any action with a trigger argument: `panic(every=5)`,
///   `error(p=0.01,seed=42)`, `delay(ms=5,every=3)`
///
/// Returns the number of points configured.
///
/// # Errors
///
/// [`SpecError`] describing the first malformed entry; earlier entries
/// in the spec are already applied.
pub fn configure_str(specs: &str) -> Result<usize, SpecError> {
    let mut applied = 0;
    for entry in specs.split(';').map(str::trim).filter(|s| !s.is_empty()) {
        let (name, policy) = spec::parse_entry(entry)?;
        match policy {
            Some(policy) => configure(name, policy),
            None => clear(name),
        }
        applied += 1;
    }
    Ok(applied)
}

/// Environment variable read by [`configure_from_env`].
pub const ENV_VAR: &str = "GOBO_FAILPOINTS";

/// Applies the spec in the `GOBO_FAILPOINTS` environment variable, if
/// set. Returns the number of points configured (0 when unset).
///
/// # Errors
///
/// Propagates [`SpecError`] from [`configure_str`].
pub fn configure_from_env() -> Result<usize, SpecError> {
    match std::env::var(ENV_VAR) {
        Ok(spec) => configure_str(&spec),
        Err(_) => Ok(0),
    }
}

/// Evaluates the failpoint `name`.
///
/// * No policy configured (anywhere): one relaxed atomic load, `None`.
/// * `Delay` action fires: sleeps, then returns `None` (execution
///   continues).
/// * `Error` action fires: returns `Some(InjectedFault)`; the caller
///   maps it to its own error (the [`fail_point!`] macro does this).
/// * `Panic` action fires: panics with a message starting with
///   `gobo-fault: injected panic` (recognized by
///   [`install_panic_silencer`]).
#[inline]
pub fn fire(name: &str) -> Option<InjectedFault> {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return None;
    }
    fire_slow(name)
}

#[cold]
fn fire_slow(name: &str) -> Option<InjectedFault> {
    let point = {
        let map = registry().read().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.get(name)?)
    };
    let n = point.evaluated.fetch_add(1, Ordering::Relaxed) + 1;
    let fires = match point.policy.trigger {
        Trigger::Always => true,
        Trigger::EveryNth(k) => n % k.max(1) == 0,
        Trigger::Probability { p, seed } => {
            let hash = splitmix64(seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            ((hash >> 11) as f64 / (1u64 << 53) as f64) < p
        }
    };
    if !fires {
        return None;
    }
    point.fired.fetch_add(1, Ordering::Relaxed);
    match point.policy.action {
        FaultAction::Error => Some(InjectedFault),
        FaultAction::Delay(d) => {
            std::thread::sleep(d);
            None
        }
        #[allow(clippy::panic, reason = "an injected panic is what the Panic action is for")]
        FaultAction::Panic => panic!("gobo-fault: injected panic at `{name}`"),
    }
}

/// Counters for every configured failpoint, sorted by name.
pub fn snapshot() -> Vec<FailpointStats> {
    let map = registry().read().unwrap_or_else(PoisonError::into_inner);
    let mut stats: Vec<FailpointStats> = map
        .iter()
        .map(|(name, point)| FailpointStats {
            name: name.clone(),
            policy: point.policy.to_string(),
            evaluated: point.evaluated.load(Ordering::Relaxed),
            fired: point.fired.load(Ordering::Relaxed),
        })
        .collect();
    stats.sort_by(|a, b| a.name.cmp(&b.name));
    stats
}

/// Times the failpoint `name` has fired since it was configured (0 when
/// unconfigured).
pub fn fires(name: &str) -> u64 {
    let map = registry().read().unwrap_or_else(PoisonError::into_inner);
    map.get(name).map_or(0, |p| p.fired.load(Ordering::Relaxed))
}

/// Installs a panic hook that suppresses the default backtrace spew for
/// *injected* panics (payloads beginning with `gobo-fault:`) while
/// delegating every real panic to the previously installed hook.
/// Idempotent; safe to call from tests and the CLI alike.
pub fn install_panic_silencer() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .is_some_and(|msg| msg.starts_with("gobo-fault:"));
            if !injected {
                previous(info);
            }
        }));
    });
}

/// Declares a failpoint.
///
/// * `fail_point!("name")` — supports panic and delay actions; an
///   `Error` policy at such a site is ignored (there is nothing to
///   return).
/// * `fail_point!("name", expr)` — additionally supports `Error`
///   policies by returning `Err(expr)` from the enclosing function.
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {
        let _ = $crate::fire($name);
    };
    ($name:expr, $err:expr) => {
        if $crate::fire($name).is_some() {
            return Err($err);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The registry is process-global; serialize tests that touch it.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_point_never_fires() {
        let _g = guard();
        reset();
        for _ in 0..100 {
            assert_eq!(fire("test.disabled"), None);
        }
        assert_eq!(fires("test.disabled"), 0);
    }

    #[test]
    fn every_nth_is_exact() {
        let _g = guard();
        reset();
        configure("test.nth", Policy { action: FaultAction::Error, trigger: Trigger::EveryNth(3) });
        let fired: Vec<bool> = (0..9).map(|_| fire("test.nth").is_some()).collect();
        assert_eq!(fired, vec![false, false, true, false, false, true, false, false, true]);
        assert_eq!(fires("test.nth"), 3);
        reset();
    }

    #[test]
    fn probability_is_deterministic_and_roughly_calibrated() {
        let _g = guard();
        reset();
        let policy = Policy {
            action: FaultAction::Error,
            trigger: Trigger::Probability { p: 0.25, seed: 42 },
        };
        configure("test.prob", policy);
        let run1: Vec<bool> = (0..400).map(|_| fire("test.prob").is_some()).collect();
        // Reconfiguring resets the evaluation counter: same schedule.
        configure("test.prob", policy);
        let run2: Vec<bool> = (0..400).map(|_| fire("test.prob").is_some()).collect();
        assert_eq!(run1, run2);
        let hits = run1.iter().filter(|&&b| b).count();
        assert!((50..=150).contains(&hits), "p=0.25 over 400 draws fired {hits} times");
        reset();
    }

    #[test]
    fn delay_sleeps_then_continues() {
        let _g = guard();
        reset();
        configure("test.delay", Policy::always(FaultAction::Delay(Duration::from_millis(20))));
        let start = std::time::Instant::now();
        assert_eq!(fire("test.delay"), None);
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert_eq!(fires("test.delay"), 1);
        reset();
    }

    #[test]
    fn panic_action_panics_with_marker() {
        let _g = guard();
        reset();
        install_panic_silencer();
        configure("test.panic", Policy::always(FaultAction::Panic));
        let result = std::panic::catch_unwind(|| {
            fire("test.panic");
        });
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.starts_with("gobo-fault: injected panic at `test.panic`"), "{msg}");
        reset();
    }

    #[test]
    fn spec_round_trip() {
        let _g = guard();
        reset();
        let n =
            configure_str("a.b=panic(every=5); c.d=error; e.f=delay(ms=10,p=0.5,seed=7); g.h=off")
                .unwrap();
        assert_eq!(n, 4);
        let stats = snapshot();
        let names: Vec<&str> = stats.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["a.b", "c.d", "e.f"]); // g.h=off clears
        assert_eq!(stats[0].policy, "panic[every=5]");
        assert_eq!(stats[1].policy, "error");
        assert_eq!(stats[2].policy, "delay(us=10000)[p=0.5,seed=7]");
        reset();
        assert!(snapshot().is_empty());
    }

    #[test]
    fn spec_errors_are_reported() {
        let _g = guard();
        assert!(configure_str("no-equals-sign").is_err());
        assert!(configure_str("x=frobnicate").is_err());
        assert!(configure_str("x=error(every=zero)").is_err());
        assert!(configure_str("x=delay").is_err()); // delay needs a duration
        assert!(configure_str("x=error(p=1.5)").is_err());
        reset();
    }

    #[test]
    fn macro_error_form_returns_callers_error() {
        let _g = guard();
        reset();
        fn site() -> Result<u32, &'static str> {
            fail_point!("test.macro", "injected");
            Ok(7)
        }
        assert_eq!(site(), Ok(7));
        configure("test.macro", Policy::always(FaultAction::Error));
        assert_eq!(site(), Err("injected"));
        reset();
        assert_eq!(site(), Ok(7));
    }
}
