//! Slice medians, percentiles that refuse what the sample cannot
//! support, and the completion-aligned closed-loop rate.

/// Median of `values` (mean of the two middle values for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// Smallest sample count that leaves ten samples beyond the
/// `permille` quantile (and ten below it).
pub fn samples_needed(permille: u32) -> usize {
    let tail = permille.min(1000 - permille).max(1) as usize;
    10_000usize.div_ceil(tail)
}

/// Nearest-rank `permille`/1000 quantile of an ascending sample.
/// Refuses (`None`) unless at least ten samples lie beyond it: a p95
/// read off 100 samples is five numbers, not a percentile.
pub fn percentile(sorted: &[u64], permille: u32) -> Option<u64> {
    if sorted.len() < samples_needed(permille) {
        return None;
    }
    let rank = (sorted.len() * permille as usize).div_ceil(1000).max(1);
    sorted.get(rank - 1).copied()
}

/// Rate of one closed-loop slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceRate {
    /// Completions counted.
    pub count: usize,
    /// Span they were counted over, seconds.
    pub span_s: f64,
}

impl SliceRate {
    pub fn per_second(&self) -> f64 {
        if self.span_s > 0.0 {
            self.count as f64 / self.span_s
        } else {
            0.0
        }
    }
}

/// Rate of one closed-loop slice from its ascending completion times
/// (ns from the slice's start): completions counted from the first one
/// to the first at or after the nominal length `slice_ns`. Both ends
/// sit on completions, so a slice that holds five and a half coalesced
/// batches reads as five batches over five batch times, not as five
/// or six over a fixed window; the ramp before the first completion
/// and the drain after the closing one are not counted (the generator
/// keeps sending until the nominal end, so the closing completion is a
/// steady-state one). `None` without two completions.
pub fn closed_rate(done_ns: &[u64], slice_ns: u64) -> Option<SliceRate> {
    let (first, last) = (*done_ns.first()?, done_ns.len() - 1);
    let end = done_ns.iter().position(|&t| t >= slice_ns).unwrap_or(last);
    (end > 0)
        .then(|| SliceRate { count: end, span_s: done_ns[end].saturating_sub(first) as f64 / 1e9 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn slice_median_ignores_one_stalled_slice() {
        // Four quiet slices and one that caught a 700 ms host stall.
        let p50s = [7_100.0, 6_900.0, 745_000.0, 7_000.0, 7_050.0];
        assert_eq!(median(&p50s), Some(7_050.0));
    }

    #[test]
    fn percentile_refuses_without_ten_samples_beyond() {
        let sorted: Vec<u64> = (1..=199).collect();
        assert_eq!(percentile(&sorted, 950), None, "199 samples leave 9.95 beyond p95");
        let sorted: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&sorted, 950), Some(190));
        assert_eq!(percentile(&sorted, 990), None, "p99 needs 1000 samples");
        assert_eq!(percentile(&sorted, 500), Some(100));
        assert_eq!(percentile(&sorted[..19], 500), None, "p50 needs 20 samples");
        assert_eq!(samples_needed(950), 200);
        assert_eq!(samples_needed(990), 1000);
        assert_eq!(samples_needed(500), 20);
    }

    #[test]
    fn closed_rate_aligns_to_completions() {
        // Batches of 4 complete every 300 ms from 300 ms on; the slice
        // is nominally 1 s long and drains two more batches after it.
        let mut done = Vec::new();
        for b in 1..=6u64 {
            for i in 0..4u64 {
                done.push(b * 300_000_000 + i * 1_000);
            }
        }
        let rate = closed_rate(&done, 1_000_000_000).expect("completions");
        // Whole batches over whole batch periods (0.3 s → 1.2 s): 4 per
        // 0.3 s, whatever the nominal window cut through.
        assert_eq!(rate.count, 12);
        assert!((rate.per_second() - 4.0 / 0.3).abs() < 0.01, "rate {}", rate.per_second());
    }

    #[test]
    fn closed_rate_needs_two_completions() {
        assert_eq!(closed_rate(&[], 1_000), None);
        assert_eq!(closed_rate(&[5], 1_000), None);
        // The phase ended before its nominal length: the last
        // completion closes the slice.
        let rate = closed_rate(&[100, 200, 300], 1_000).expect("completions");
        assert_eq!((rate.count, rate.span_s), (2, 200e-9));
    }
}
