//! Internal log-spaced histograms for hold/wait times.
//!
//! [`BUCKET_BOUNDS`] is the workspace's one 1-2-5 bucket scheme: it
//! lives here, in the lower crate, because `gobo-obs` adopts
//! [`SanMutex`](crate::SanMutex) for its span registries and so depends
//! on this crate, and `gobo_obs::hist` re-exports it. Every `_us`
//! histogram in the stack is therefore bucketed alike and directly
//! comparable.

/// Upper bounds (inclusive, `le` semantics) of the finite buckets, a
/// 1-2-5 progression in microseconds from 1 µs to 5 s.
pub const BUCKET_BOUNDS: [u64; 20] = [
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
    200_000, 500_000, 1_000_000, 5_000_000,
];

/// Number of buckets including the terminal `+Inf` bucket.
pub const BUCKETS: usize = BUCKET_BOUNDS.len() + 1;

/// A single-writer log-spaced histogram (updates happen under the
/// sanitizer's own registry lock, so plain integers suffice).
#[derive(Debug, Default)]
pub(crate) struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    pub(crate) fn observe(&mut self, value: u64) {
        let idx = BUCKET_BOUNDS.iter().position(|b| value <= *b).unwrap_or(BUCKET_BOUNDS.len());
        if let Some(slot) = self.counts.get_mut(idx) {
            *slot = slot.saturating_add(1);
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self.counts.to_vec(),
            count: self.count,
            sum: self.sum,
            max: self.max,
        }
    }
}

/// Point-in-time copy of a histogram, shaped for rendering.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) counts; the last entry is `+Inf`.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean observation, zero when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// Renders one histogram family (`# HELP`/`# TYPE` once, then
/// cumulative `_bucket`/`_sum`/`_count` series per lock).
pub(crate) fn render_family(
    out: &mut String,
    name: &str,
    help: &str,
    stats: &[crate::LockStats],
    select: impl Fn(&crate::LockStats) -> &HistogramSnapshot,
) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    for s in stats {
        let snap = select(s);
        let mut cumulative = 0u64;
        for (bucket, bound) in snap.counts.iter().zip(
            BUCKET_BOUNDS.iter().map(|b| b.to_string()).chain(std::iter::once("+Inf".to_owned())),
        ) {
            cumulative = cumulative.saturating_add(*bucket);
            let _ =
                writeln!(out, "{name}_bucket{{lock=\"{}\",le=\"{bound}\"}} {cumulative}", s.name);
        }
        let _ = writeln!(out, "{name}_sum{{lock=\"{}\"}} {}", s.name, snap.sum);
        let _ = writeln!(out, "{name}_count{{lock=\"{}\"}} {}", s.name, snap.count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_routes_to_le_bucket() {
        let mut h = Histogram::default();
        h.observe(1);
        h.observe(3);
        h.observe(10_000_000); // beyond the last bound: +Inf
        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.max, 10_000_000);
        assert_eq!(snap.counts.first().copied(), Some(1)); // le=1
        assert_eq!(snap.counts.get(2).copied(), Some(1)); // le=5
        assert_eq!(snap.counts.last().copied(), Some(1)); // +Inf
    }
}
