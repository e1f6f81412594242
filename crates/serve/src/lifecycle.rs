//! Canary lifecycle controller: routes a traffic slice to a pending
//! revision, judges it against the active baseline, and auto-promotes
//! or auto-rolls-back.
//!
//! The controller owns no threads and takes no locks on the request
//! path beyond one short mutex around the per-slot latency windows. The
//! scheduler calls it at three points:
//!
//! * [`LifecycleController::should_try_canary`] — a ticket counter
//!   spreads the configured traffic share evenly (Bresenham-style)
//!   instead of front-loading it, so a canary sees steady load from the
//!   first second;
//! * [`LifecycleController::record_canary_ok`] /
//!   [`LifecycleController::record_active`] — batch latencies feed a
//!   sliding window per slot; once the canary window fills, its p95 is
//!   compared against the active baseline and the revision is promoted
//!   (clean window) or rolled back (p95 regression beyond the
//!   configured factor);
//! * [`LifecycleController::record_canary_error`] — any canary-side
//!   error (decode/integrity failure, injected fault, panic) rolls the
//!   revision back immediately; the batch itself is transparently
//!   re-run on the active revision, so the client never sees the
//!   failure.
//!
//! Promotion and rollback go through [`crate::registry::ModelRegistry`]
//! and are counted only when the registry actually held the canary —
//! two racing verdicts for one slot resolve to a single lifecycle
//! transition.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gobo_sanitize::{SanMutex, SanMutexGuard};

use crate::metrics::Metrics;
use crate::registry::{ModelKey, ModelRegistry};

/// Canary routing and verdict policy.
///
/// All fields are integers so the policy can ride inside the `Copy +
/// Eq` [`crate::ServeOptions`]; percentages are expressed in whole
/// percent (`p95_factor_pct = 300` means "roll back when the canary p95
/// exceeds 3× the active baseline").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CanaryPolicy {
    /// Share of batches routed to a pending canary, in percent
    /// (0 disables canary traffic; the revision then waits forever,
    /// which is useful for manual promotion).
    pub traffic_pct: u32,
    /// Number of successful canary batches that make up one verdict
    /// window.
    pub window: u32,
    /// Rollback threshold: canary p95 > active p95 × `pct`/100.
    pub p95_factor_pct: u32,
    /// Minimum active-side samples required before the p95 comparison
    /// is trusted; with fewer, a full clean window promotes outright.
    pub min_baseline: u32,
}

impl Default for CanaryPolicy {
    fn default() -> Self {
        CanaryPolicy { traffic_pct: 20, window: 16, p95_factor_pct: 300, min_baseline: 8 }
    }
}

/// Outcome of feeding one canary observation to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CanaryVerdict {
    /// The window is still filling; keep routing canary traffic.
    Pending,
    /// Clean window — the revision was promoted to active.
    Promoted,
    /// Error or latency regression — the revision was rolled back.
    RolledBack,
}

/// What one canary sample did to a [`VerdictWindow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowVerdict {
    /// The canary window is still filling.
    Pending,
    /// Full window without a p95 regression: promote.
    Clean,
    /// Full window whose p95 regressed past the policy: roll back.
    Regressed,
}

/// The one canary verdict window: sliding latency samples of a trial
/// and of the baseline it is judged against. [`LifecycleController`]
/// keeps one per model slot (canary vs. active revision), the cluster
/// router one per trial (canary node vs. the rest); applying the
/// verdict, and discarding the window with it, is the caller's job.
/// Each side holds at most four verdict windows of samples, oldest
/// dropped first, so a trial that never reaches a verdict stays bounded.
#[derive(Debug, Default)]
pub struct VerdictWindow {
    canary_us: Vec<u64>,
    baseline_us: Vec<u64>,
}

impl VerdictWindow {
    /// Records one baseline-side latency.
    pub fn record_baseline(&mut self, policy: &CanaryPolicy, us: u64) {
        push_capped(&mut self.baseline_us, us, policy);
    }

    /// Records one successful canary-side latency and judges the
    /// window: pending until `policy.window` (at least one) canary
    /// samples are held, then the canary p95 against `p95_factor_pct`
    /// of the baseline p95. With fewer than `min_baseline` baseline
    /// samples a full window of successes is the best signal there is.
    pub fn record_canary(&mut self, policy: &CanaryPolicy, us: u64) -> WindowVerdict {
        push_capped(&mut self.canary_us, us, policy);
        if (self.canary_us.len() as u64) < u64::from(policy.window.max(1)) {
            return WindowVerdict::Pending;
        }
        if (self.baseline_us.len() as u64) < u64::from(policy.min_baseline) {
            return WindowVerdict::Clean;
        }
        let threshold =
            p95(&self.baseline_us).max(1).saturating_mul(u64::from(policy.p95_factor_pct)) / 100;
        if p95(&self.canary_us) > threshold {
            WindowVerdict::Regressed
        } else {
            WindowVerdict::Clean
        }
    }
}

/// Shared canary controller; one per [`crate::ServeCore`].
pub struct LifecycleController {
    policy: CanaryPolicy,
    registry: Arc<ModelRegistry>,
    metrics: Arc<Metrics>,
    ticket: AtomicU64,
    windows: SanMutex<HashMap<ModelKey, VerdictWindow>>,
}

impl LifecycleController {
    /// Creates a controller applying `policy` to `registry`.
    pub fn new(policy: CanaryPolicy, registry: Arc<ModelRegistry>, metrics: Arc<Metrics>) -> Self {
        LifecycleController {
            policy,
            registry,
            metrics,
            ticket: AtomicU64::new(0),
            windows: SanMutex::new("serve.lifecycle.windows", 30, HashMap::new()),
        }
    }

    /// The policy this controller was built with.
    pub fn policy(&self) -> CanaryPolicy {
        self.policy
    }

    /// Windows hold plain latency samples; a poisoned lock at worst
    /// loses part of one verdict window, so recover rather than take
    /// the serving path down.
    fn lock_windows(&self) -> SanMutexGuard<'_, HashMap<ModelKey, VerdictWindow>> {
        self.windows.lock()
    }

    /// Consumes one routing ticket and reports whether this batch
    /// should serve from the canary. Tickets spread the `traffic_pct`
    /// share evenly: at 20% every 5th batch is a canary batch, not the
    /// first 20 of every 100. Call only when a canary exists — tickets
    /// consumed with no canary pending would skew the next window.
    pub fn should_try_canary(&self) -> bool {
        let pct = u64::from(self.policy.traffic_pct.min(100));
        if pct == 0 {
            return false;
        }
        let t = self.ticket.fetch_add(1, Ordering::Relaxed);
        (t * pct) % 100 < pct
    }

    /// Drops any window state accumulated for `key`. Called when a new
    /// canary is published into the slot: samples from a previous
    /// trial (one that was rolled back out-of-band through the
    /// registry, or superseded before reaching a verdict) must not
    /// feed the fresh revision's verdict.
    pub fn reset_window(&self, key: &ModelKey) {
        self.lock_windows().remove(key);
    }

    /// Records one active-revision batch latency while a canary is
    /// pending, building the comparison baseline.
    pub fn record_active(&self, key: &ModelKey, micros: u64) {
        self.lock_windows().entry(key.clone()).or_default().record_baseline(&self.policy, micros);
    }

    /// Records one successful canary batch. Returns the verdict: once
    /// `window` canary samples have accumulated, the canary p95 is
    /// judged against the active baseline and the revision is promoted
    /// or rolled back through the registry; otherwise the window keeps
    /// filling.
    pub fn record_canary_ok(&self, key: &ModelKey, micros: u64) -> CanaryVerdict {
        let mut windows = self.lock_windows();
        let verdict = windows.entry(key.clone()).or_default().record_canary(&self.policy, micros);
        if verdict == WindowVerdict::Pending {
            return CanaryVerdict::Pending;
        }
        windows.remove(key);
        drop(windows);
        if verdict == WindowVerdict::Regressed {
            self.do_rollback(key)
        } else {
            self.do_promote(key)
        }
    }

    /// Records a canary-side error. The revision is rolled back
    /// immediately — any decode or integrity failure disqualifies it,
    /// regardless of how the latency window looked.
    pub fn record_canary_error(&self, key: &ModelKey) -> CanaryVerdict {
        self.lock_windows().remove(key);
        self.do_rollback(key)
    }

    fn do_promote(&self, key: &ModelKey) -> CanaryVerdict {
        if self.registry.promote(key).is_some() {
            self.metrics.canary_promotions.fetch_add(1, Ordering::Relaxed);
            CanaryVerdict::Promoted
        } else {
            // Lost a race against another verdict for the same slot.
            CanaryVerdict::Pending
        }
    }

    fn do_rollback(&self, key: &ModelKey) -> CanaryVerdict {
        if self.registry.rollback(key).is_some() {
            self.metrics.canary_rollbacks.fetch_add(1, Ordering::Relaxed);
            CanaryVerdict::RolledBack
        } else {
            CanaryVerdict::Pending
        }
    }
}

/// Appends to a bounded ring of four verdict windows: once full, the
/// oldest sample drops.
fn push_capped(v: &mut Vec<u64>, value: u64, policy: &CanaryPolicy) {
    let cap = (policy.window.max(1) as usize).saturating_mul(4);
    if v.len() >= cap {
        v.remove(0);
    }
    v.push(value);
}

/// p95 by nearest-rank on a sorted copy; 0 for an empty window.
fn p95(samples: &[u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let idx = (sorted.len() * 95 / 100).min(sorted.len() - 1);
    sorted.get(idx).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ModelRegistry, RegistryConfig, RevState};
    use gobo::format::CompressedModel;
    use gobo::pipeline::{quantize_model, QuantizeOptions};
    use gobo_model::{config::ModelConfig, TransformerModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn compressed(seed: u64) -> CompressedModel {
        let config = ModelConfig::tiny("Lc", 1, 16, 2, 40, 12).unwrap();
        let model = TransformerModel::new(config, &mut StdRng::seed_from_u64(seed)).unwrap();
        let outcome = quantize_model(&model, &QuantizeOptions::gobo(3).unwrap()).unwrap();
        CompressedModel::new(&model, outcome.archive)
    }

    fn setup(
        policy: CanaryPolicy,
    ) -> (Arc<ModelRegistry>, Arc<Metrics>, LifecycleController, ModelKey) {
        let metrics = Arc::new(Metrics::new());
        let registry =
            Arc::new(ModelRegistry::new(RegistryConfig::default(), Arc::clone(&metrics)));
        registry.insert("m", &compressed(1)).unwrap();
        let (entry, state) = registry.publish("m", &compressed(2)).unwrap();
        assert_eq!(state, RevState::Canary);
        let key = entry.key.clone();
        let controller =
            LifecycleController::new(policy, Arc::clone(&registry), Arc::clone(&metrics));
        (registry, metrics, controller, key)
    }

    #[test]
    fn ticket_spread_matches_traffic_pct() {
        let (_r, _m, c, _k) = setup(CanaryPolicy { traffic_pct: 20, ..Default::default() });
        let hits = (0..100).filter(|_| c.should_try_canary()).count();
        assert_eq!(hits, 20);
        // And the hits are spread, not front-loaded: no 2 adjacent.
        let c2 = LifecycleController::new(
            CanaryPolicy { traffic_pct: 20, ..Default::default() },
            Arc::clone(&c.registry),
            Arc::clone(&c.metrics),
        );
        let pattern: Vec<bool> = (0..10).map(|_| c2.should_try_canary()).collect();
        assert_eq!(pattern.iter().filter(|&&b| b).count(), 2);
        assert!(!pattern.windows(2).any(|w| w[0] && w[1]), "{pattern:?}");
    }

    #[test]
    fn zero_pct_never_routes() {
        let (_r, _m, c, _k) = setup(CanaryPolicy { traffic_pct: 0, ..Default::default() });
        assert!((0..50).all(|_| !c.should_try_canary()));
    }

    #[test]
    fn clean_window_promotes() {
        let policy = CanaryPolicy { window: 4, min_baseline: 2, ..Default::default() };
        let (registry, metrics, c, key) = setup(policy);
        for _ in 0..8 {
            c.record_active(&key, 100);
        }
        assert_eq!(c.record_canary_ok(&key, 110), CanaryVerdict::Pending);
        assert_eq!(c.record_canary_ok(&key, 105), CanaryVerdict::Pending);
        assert_eq!(c.record_canary_ok(&key, 95), CanaryVerdict::Pending);
        assert_eq!(c.record_canary_ok(&key, 100), CanaryVerdict::Promoted);
        assert_eq!(registry.get("m", None).unwrap().rev, 2);
        assert!(registry.canary_for(&key).is_none());
        assert_eq!(metrics.canary_promotions.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.canary_rollbacks.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn p95_regression_rolls_back() {
        let policy =
            CanaryPolicy { window: 4, min_baseline: 4, p95_factor_pct: 300, ..Default::default() };
        let (registry, metrics, c, key) = setup(policy);
        for _ in 0..8 {
            c.record_active(&key, 100);
        }
        for i in 0..3 {
            assert_eq!(c.record_canary_ok(&key, 400 + i), CanaryVerdict::Pending);
        }
        // 4th sample completes the window; canary p95 ≈ 400 > 3×100.
        assert_eq!(c.record_canary_ok(&key, 400), CanaryVerdict::RolledBack);
        assert_eq!(registry.get("m", None).unwrap().rev, 1, "active must keep serving rev 1");
        assert!(registry.canary_for(&key).is_none());
        assert_eq!(metrics.canary_rollbacks.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn canary_error_rolls_back_immediately() {
        let (registry, metrics, c, key) = setup(CanaryPolicy::default());
        assert_eq!(c.record_canary_error(&key), CanaryVerdict::RolledBack);
        assert!(registry.canary_for(&key).is_none());
        assert_eq!(registry.get("m", None).unwrap().rev, 1);
        assert_eq!(metrics.canary_rollbacks.load(Ordering::Relaxed), 1);
        // A second verdict for the already-resolved slot is a no-op.
        assert_eq!(c.record_canary_error(&key), CanaryVerdict::Pending);
        assert_eq!(metrics.canary_rollbacks.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn thin_baseline_promotes_on_clean_window() {
        let policy = CanaryPolicy { window: 2, min_baseline: 8, ..Default::default() };
        let (registry, _m, c, key) = setup(policy);
        // No active samples at all: a clean window still promotes.
        assert_eq!(c.record_canary_ok(&key, 500), CanaryVerdict::Pending);
        assert_eq!(c.record_canary_ok(&key, 500), CanaryVerdict::Promoted);
        assert_eq!(registry.get("m", None).unwrap().rev, 2);
    }

    /// The window rule by itself, on the cases the controller tests
    /// above do not reach: `(policy, baseline, canary) → verdict of the
    /// last canary sample`, every earlier one being `Pending`.
    #[test]
    fn verdict_window_table() {
        use super::WindowVerdict::{Clean, Pending, Regressed};
        let policy = |window, min_baseline| CanaryPolicy {
            window,
            min_baseline,
            p95_factor_pct: 300,
            ..Default::default()
        };
        type Case = (&'static str, CanaryPolicy, &'static [u64], &'static [u64], WindowVerdict);
        let cases: [Case; 5] = [
            ("exactly at the threshold is clean", policy(2, 2), &[100; 4], &[300, 300], Clean),
            ("one past the threshold regresses", policy(2, 2), &[100; 4], &[301, 301], Regressed),
            ("window = 0 judges on the first sample", policy(0, 1), &[100], &[500], Regressed),
            ("an all-zero baseline p95 counts as 1 us", policy(1, 1), &[0; 4], &[3], Clean),
            // Baseline cap: window 2 keeps the newest 8 samples, so the
            // slow first half is gone and only the fast half judges.
            (
                "baseline keeps only 4 x window samples",
                policy(2, 2),
                &[900, 900, 900, 900, 900, 900, 900, 900, 10, 10, 10, 10, 10, 10, 10, 10],
                &[40, 40],
                Regressed,
            ),
        ];
        for (name, policy, baseline, canary, want) in cases {
            let mut window = VerdictWindow::default();
            for &us in baseline {
                window.record_baseline(&policy, us);
            }
            let (last, filling) = canary.split_last().unwrap();
            for &us in filling {
                assert_eq!(window.record_canary(&policy, us), Pending, "{name}");
            }
            assert_eq!(window.record_canary(&policy, *last), want, "{name}");
        }

        // Canary cap: a window nobody consumes the verdict of (a lost
        // race keeps feeding it) never outgrows 4 x window either.
        let policy = policy(2, 0);
        let mut window = VerdictWindow::default();
        for us in 0..20 {
            window.record_canary(&policy, us);
        }
        assert_eq!(window.canary_us, (12..20).collect::<Vec<u64>>());
    }

    #[test]
    fn p95_nearest_rank() {
        assert_eq!(p95(&[]), 0);
        assert_eq!(p95(&[7]), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(p95(&v), 96); // nearest-rank: index 95 of 0..=99
    }
}
