//! The canary rule both serving tiers share: how a trial's traffic
//! slice is picked and how its samples become a verdict.
//!
//! A trial is one [`VerdictWindow`] — a ticket counter and two sliding
//! latency windows — owned by whatever is on trial: the registry keeps
//! one inside a slot's canary revision ([`crate::registry`]), the
//! cluster router one inside its canary node trial. It is created with
//! the trial and dropped with it, so a sample can only ever be judged
//! with the samples of the trial it measured. The owner calls it at two
//! points, under its own lock:
//!
//! * [`VerdictWindow::take_ticket`] — a ticket counter spreads the
//!   configured traffic share evenly (Bresenham-style) instead of
//!   front-loading it, so a canary sees steady load from the first
//!   second;
//! * [`VerdictWindow::record`] — one finished batch or request: a
//!   baseline latency, a canary latency, or a canary failure. Once the
//!   canary window fills, its p95 is compared against the baseline and
//!   the verdict is [`WindowVerdict::Clean`] (promote) or
//!   [`WindowVerdict::Regressed`] (roll back); any canary-side failure
//!   (decode/integrity failure, injected fault, dead node) is
//!   `Regressed` at once.
//!
//! Applying the verdict — and dropping the trial with it, in the same
//! critical section that recorded the sample — is the owner's job.

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

/// What one sample did to a [`VerdictWindow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowVerdict {
    /// The canary window is still filling.
    Pending,
    /// Full window without a p95 regression: promote.
    Clean,
    /// A canary failure, or a full window whose p95 regressed past the
    /// policy: roll back.
    Regressed,
}

/// The state of one canary trial: its routing tickets and the sliding
/// latency samples of the trial and of the baseline it is judged
/// against. Each side holds at most four verdict windows of samples,
/// oldest dropped first, so a trial that never reaches a verdict stays
/// bounded.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct VerdictWindow {
    tickets: u64,
    canary_us: Vec<u64>,
    baseline_us: Vec<u64>,
}

impl VerdictWindow {
    /// Consumes one routing ticket and reports whether its holder (a
    /// batch, a routed request) trials the canary. Tickets spread the
    /// `traffic_pct` share evenly: at 20% every 5th ticket is a canary
    /// ticket, not the first 20 of every 100; at 0% none is.
    pub fn take_ticket(&mut self, policy: &CanaryPolicy) -> bool {
        let pct = u64::from(policy.traffic_pct.min(100));
        let t = self.tickets;
        self.tickets = t.wrapping_add(1);
        // (t · pct) mod 100, with `t` reduced first so it cannot overflow.
        (t % 100 * pct) % 100 < pct
    }

    /// Records what one ticket's holder observed — `latency_us` is
    /// `None` when it failed — and judges the window.
    ///
    /// A baseline sample only builds the comparison (a baseline failure
    /// says nothing about the canary). A canary failure is `Regressed`
    /// at once, however the window looked. A canary latency is pending
    /// until `policy.window` (at least one) canary samples are held,
    /// then the canary p95 is judged against `p95_factor_pct` of the
    /// baseline p95; with fewer than `min_baseline` baseline samples a
    /// full window of successes is the best signal there is.
    pub fn record(
        &mut self,
        policy: &CanaryPolicy,
        canary: bool,
        latency_us: Option<u64>,
    ) -> WindowVerdict {
        let Some(us) = latency_us else {
            return if canary { WindowVerdict::Regressed } else { WindowVerdict::Pending };
        };
        if !canary {
            push_capped(&mut self.baseline_us, us, policy);
            return WindowVerdict::Pending;
        }
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
    use crate::metrics::Metrics;
    use crate::registry::{ModelKey, ModelRegistry, RegistryConfig, RevState};
    use gobo::format::CompressedModel;
    use gobo::pipeline::{quantize_model, QuantizeOptions};
    use gobo_model::{config::ModelConfig, TransformerModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    fn compressed(seed: u64) -> CompressedModel {
        let config = ModelConfig::tiny("Lc", 1, 16, 2, 40, 12).unwrap();
        let model = TransformerModel::new(config, &mut StdRng::seed_from_u64(seed)).unwrap();
        let outcome = quantize_model(&model, &QuantizeOptions::gobo(3).unwrap()).unwrap();
        CompressedModel::new(&model, outcome.archive)
    }

    /// A registry serving rev 1 of `m` with rev 2 on trial beside it.
    fn setup() -> (ModelRegistry, Arc<Metrics>, ModelKey) {
        let metrics = Arc::new(Metrics::new());
        let registry = ModelRegistry::new(RegistryConfig::default(), Arc::clone(&metrics));
        registry.insert("m", compressed(1)).unwrap();
        let (entry, state) = registry.publish("m", compressed(2)).unwrap();
        assert_eq!((entry.rev, state), (2, RevState::Canary));
        let key = entry.key.clone();
        (registry, metrics, key)
    }

    #[test]
    fn ticket_spread_matches_traffic_pct() {
        let policy = CanaryPolicy { traffic_pct: 20, ..Default::default() };
        let mut trial = VerdictWindow::default();
        let hits = (0..100).filter(|_| trial.take_ticket(&policy)).count();
        assert_eq!(hits, 20);
        // And the hits are spread, not front-loaded: no 2 adjacent.
        let mut trial = VerdictWindow::default();
        let pattern: Vec<bool> = (0..10).map(|_| trial.take_ticket(&policy)).collect();
        assert_eq!(pattern.iter().filter(|&&b| b).count(), 2);
        assert!(!pattern.windows(2).any(|w| w[0] && w[1]), "{pattern:?}");
        // The share holds at every percentage, and reducing the ticket
        // before the multiply keeps it exact past any ticket count.
        for pct in [1, 33, 50, 99, 100, 250] {
            let policy = CanaryPolicy { traffic_pct: pct, ..Default::default() };
            let mut trial =
                VerdictWindow { tickets: (u64::MAX / 100 - 1) * 100, ..Default::default() };
            let hits = (0..100).filter(|_| trial.take_ticket(&policy)).count();
            assert_eq!(hits, pct.min(100) as usize, "pct {pct}");
        }
    }

    #[test]
    fn zero_pct_never_routes() {
        let policy = CanaryPolicy { traffic_pct: 0, ..Default::default() };
        let mut trial = VerdictWindow::default();
        assert!((0..50).all(|_| !trial.take_ticket(&policy)));
        // Through the registry: the canary waits, every batch resolves
        // onto the active revision and still names the trial.
        let (registry, _m, _key) = setup();
        for _ in 0..50 {
            let resolved = registry.resolve("m", None, &policy).unwrap();
            assert_eq!((resolved.active.rev, resolved.trial_rev), (1, Some(2)));
            assert!(resolved.canary.is_none());
        }
    }

    #[test]
    fn clean_window_promotes() {
        use super::WindowVerdict::{Clean, Pending};
        let policy = CanaryPolicy { window: 4, min_baseline: 2, ..Default::default() };
        let (registry, metrics, key) = setup();
        for _ in 0..8 {
            assert_eq!(registry.report(&key, 2, &policy, false, Some(100)), Pending);
        }
        assert_eq!(registry.report(&key, 2, &policy, true, Some(110)), Pending);
        assert_eq!(registry.report(&key, 2, &policy, true, Some(105)), Pending);
        assert_eq!(registry.report(&key, 2, &policy, true, Some(95)), Pending);
        assert_eq!(registry.report(&key, 2, &policy, true, Some(100)), Clean);
        assert_eq!(registry.get("m", None).unwrap().rev, 2);
        assert!(registry.canary_for(&key).is_none());
        assert_eq!(metrics.canary_promotions.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.canary_rollbacks.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn p95_regression_rolls_back() {
        use super::WindowVerdict::{Pending, Regressed};
        let policy =
            CanaryPolicy { window: 4, min_baseline: 4, p95_factor_pct: 300, ..Default::default() };
        let (registry, metrics, key) = setup();
        for _ in 0..8 {
            registry.report(&key, 2, &policy, false, Some(100));
        }
        for i in 0..3 {
            assert_eq!(registry.report(&key, 2, &policy, true, Some(400 + i)), Pending);
        }
        // 4th sample completes the window; canary p95 ≈ 400 > 3×100.
        assert_eq!(registry.report(&key, 2, &policy, true, Some(400)), Regressed);
        assert_eq!(registry.get("m", None).unwrap().rev, 1, "active must keep serving rev 1");
        assert!(registry.canary_for(&key).is_none());
        assert_eq!(metrics.canary_rollbacks.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn canary_error_rolls_back_immediately() {
        let policy = CanaryPolicy::default();
        let (registry, metrics, key) = setup();
        // A failure on the active side says nothing about the canary.
        assert_eq!(registry.report(&key, 2, &policy, false, None), WindowVerdict::Pending);
        assert_eq!(registry.canary_for(&key).unwrap().rev, 2);
        assert_eq!(registry.report(&key, 2, &policy, true, None), WindowVerdict::Regressed);
        assert!(registry.canary_for(&key).is_none());
        assert_eq!(registry.get("m", None).unwrap().rev, 1);
        assert_eq!(metrics.canary_rollbacks.load(Ordering::Relaxed), 1);
        // A second verdict for the already-settled trial is dropped.
        assert_eq!(registry.report(&key, 2, &policy, true, None), WindowVerdict::Pending);
        assert_eq!(metrics.canary_rollbacks.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn thin_baseline_promotes_on_clean_window() {
        let policy = CanaryPolicy { window: 2, min_baseline: 8, ..Default::default() };
        let (registry, _m, key) = setup();
        // No active samples at all: a clean window still promotes.
        assert_eq!(registry.report(&key, 2, &policy, true, Some(500)), WindowVerdict::Pending);
        assert_eq!(registry.report(&key, 2, &policy, true, Some(500)), WindowVerdict::Clean);
        assert_eq!(registry.get("m", None).unwrap().rev, 2);
    }

    /// The window rule by itself, on the cases the registry tests
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
                assert_eq!(window.record(&policy, false, Some(us)), Pending, "{name}");
            }
            let (last, filling) = canary.split_last().unwrap();
            for &us in filling {
                assert_eq!(window.record(&policy, true, Some(us)), Pending, "{name}");
            }
            assert_eq!(window.record(&policy, true, Some(*last)), want, "{name}");
        }

        // Canary cap: a window nobody applies the verdict of never
        // outgrows 4 x window either.
        let policy = policy(2, 0);
        let mut window = VerdictWindow::default();
        for us in 0..20 {
            window.record(&policy, true, Some(us));
        }
        assert_eq!(window.canary_us, (12..20).collect::<Vec<u64>>());
        // Failures: the canary's is a verdict, the baseline's is not,
        // and neither is stored as a sample.
        assert_eq!(window.record(&policy, false, None), Pending);
        assert_eq!(window.record(&policy, true, None), Regressed);
        assert_eq!((window.canary_us.len(), window.baseline_us.len()), (8, 0));
    }

    #[test]
    fn p95_nearest_rank() {
        assert_eq!(p95(&[]), 0);
        assert_eq!(p95(&[7]), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(p95(&v), 96); // nearest-rank: index 95 of 0..=99
    }
}
