//! Fixed-bucket latency histograms with atomic counters.
//!
//! Buckets are log-spaced on a 1–2–5 progression from 1 to 5×10⁶
//! (microsecond-friendly: 1 µs … 5 s) plus a terminal `+Inf` bucket —
//! the same fixed scheme everywhere, so histograms from different
//! workers, shards, or runs [`merge`](Histogram::merge) exactly.
//! Recording is one `fetch_add` per bucket/sum/count; quantiles are
//! answered from a snapshot with linear interpolation inside the
//! selected bucket.
//!
//! [`render_prometheus`](Histogram::render_prometheus) emits the
//! standard `_bucket{le="…"}` / `_sum` / `_count` text-exposition
//! series with cumulative bucket counts and the mandatory `+Inf`
//! terminal bucket. The rest of the text exposition lives here too:
//! [`render_scalars`] writes a tier's counter/gauge table,
//! [`render_family_header`] the `# HELP`/`# TYPE` lines every family
//! starts with, [`escape_label`] label values.

use std::sync::atomic::{AtomicU64, Ordering};

pub use gobo_sanitize::BUCKET_BOUNDS;

/// Number of buckets including the terminal `+Inf` bucket.
pub const BUCKETS: usize = BUCKET_BOUNDS.len() + 1;

/// A mergeable log-spaced histogram of `u64` observations (typically
/// microseconds). All updates are relaxed atomics: observations from
/// any number of threads are safe, and no cross-field consistency is
/// promised while writers are active.
#[derive(Debug)]
pub struct Histogram {
    /// Per-bucket (non-cumulative) observation counts; the last entry
    /// is the `+Inf` bucket.
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    fn bucket_index(value: u64) -> usize {
        BUCKET_BOUNDS.partition_point(|&bound| bound < value)
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        // ORDERING: Relaxed throughout — each field is an independent
        // monotone accumulator; readers only need eventual consistency
        // between bucket/sum/count, never a point-in-time snapshot.
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed); // ORDERING: as above
        self.count.fetch_add(1, Ordering::Relaxed); // ORDERING: as above
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        // ORDERING: Relaxed — a statistics read; no other memory is
        // synchronized through this load.
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        // ORDERING: Relaxed — see `count`.
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean observed value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        self.sum() as f64 / count as f64
    }

    /// Adds every observation of `other` into `self` (the fixed bucket
    /// scheme makes this exact at bucket granularity).
    pub fn merge(&self, other: &Histogram) {
        // ORDERING: Relaxed — merging tolerates tearing against
        // concurrent `observe`s on either side; totals still converge
        // because every increment lands in exactly one accumulator.
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            // ORDERING: as above
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.sum.fetch_add(other.sum(), Ordering::Relaxed); // ORDERING: as above
        self.count.fetch_add(other.count(), Ordering::Relaxed); // ORDERING: as above
    }

    /// Non-cumulative per-bucket counts (last entry is `+Inf`).
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        // ORDERING: Relaxed — per-bucket reads may interleave with
        // writers; Prometheus scrapes are allowed to be approximate.
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) by locating the bucket
    /// holding the target rank and interpolating linearly inside it.
    /// Returns 0 for an empty histogram; observations in the `+Inf`
    /// bucket resolve to the largest finite bound.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let before = cumulative;
            cumulative += count;
            if cumulative >= target {
                let Some(&upper) = BUCKET_BOUNDS.get(i) else {
                    return BUCKET_BOUNDS[BUCKET_BOUNDS.len() - 1] as f64;
                };
                let lower = if i == 0 { 0 } else { BUCKET_BOUNDS[i - 1] };
                let into = (target - before) as f64 / count as f64;
                return lower as f64 + (upper - lower) as f64 * into;
            }
        }
        BUCKET_BOUNDS[BUCKET_BOUNDS.len() - 1] as f64
    }

    /// Appends the Prometheus text exposition of this histogram to
    /// `out`: `# HELP`/`# TYPE` headers, cumulative
    /// `<name>_bucket{le="…"}` series ending with `le="+Inf"`, then
    /// `<name>_sum` and `<name>_count`. `labels` are rendered on every
    /// bucket line (values escaped per the exposition format).
    pub fn render_prometheus(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        out: &mut String,
    ) {
        use std::fmt::Write as _;
        render_family_header(FamilyKind::Histogram, name, help, out);
        let label_prefix: String =
            labels.iter().map(|(k, v)| format!("{k}=\"{}\",", escape_label(v))).collect();
        let counts = self.bucket_counts();
        let mut cumulative = 0u64;
        for (i, &count) in counts.iter().enumerate() {
            cumulative += count;
            let le = match BUCKET_BOUNDS.get(i) {
                Some(bound) => bound.to_string(),
                None => "+Inf".to_owned(),
            };
            let _ = writeln!(out, "{name}_bucket{{{label_prefix}le=\"{le}\"}} {cumulative}");
        }
        let plain_labels = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", label_prefix.trim_end_matches(','))
        };
        let _ = writeln!(out, "{name}_sum{plain_labels} {}", self.sum());
        let _ = writeln!(out, "{name}_count{plain_labels} {}", self.count());
    }
}

/// The Prometheus family kinds this workspace exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyKind {
    /// Monotone counter (`_total`).
    Counter,
    /// Point-in-time value, including high-water marks.
    Gauge,
    /// Bucketed distribution ([`Histogram::render_prometheus`]).
    Histogram,
}

/// Appends the `# HELP` / `# TYPE` header of one metric family — the
/// one place the exposition header is spelled. Samples follow from the
/// caller: [`render_scalars`] for plain values, labelled series or a
/// histogram's buckets otherwise.
pub fn render_family_header(kind: FamilyKind, name: &str, help: &str, out: &mut String) {
    use std::fmt::Write as _;
    let kind = match kind {
        FamilyKind::Counter => "counter",
        FamilyKind::Gauge => "gauge",
        FamilyKind::Histogram => "histogram",
    };
    let _ = write!(out, "# HELP {name} {help}\n# TYPE {name} {kind}\n");
}

/// Appends one unlabelled scalar family per `(kind, name, help, value)`
/// row, in table order. Each serving tier keeps its counters and gauges
/// as one such table, so a new metric is one row.
pub fn render_scalars(rows: &[(FamilyKind, &str, &str, u64)], out: &mut String) {
    use std::fmt::Write as _;
    for &(kind, name, help, value) in rows {
        render_family_header(kind, name, help, out);
        let _ = writeln!(out, "{name} {value}");
    }
}

/// Escapes a Prometheus label value: backslash, double quote, and
/// newline must be backslash-escaped inside the quotes.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_strictly_increasing() {
        for pair in BUCKET_BOUNDS.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn observe_routes_to_le_bucket() {
        let h = Histogram::new();
        h.observe(1); // le="1"
        h.observe(2); // le="2"
        h.observe(3); // le="5"
        h.observe(6_000_000); // +Inf
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[2], 1);
        assert_eq!(counts[BUCKETS - 1], 1);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 6_000_006);
    }

    #[test]
    fn quantiles_bracket_observations() {
        let h = Histogram::new();
        for value in 1..=1000u64 {
            h.observe(value);
        }
        let p50 = h.quantile(0.50);
        let p95 = h.quantile(0.95);
        let p99 = h.quantile(0.99);
        assert!((200.0..=1000.0).contains(&p50), "p50 {p50}");
        assert!((500.0..=2000.0).contains(&p95), "p95 {p95}");
        assert!(p50 <= p95 && p95 <= p99, "p50 {p50} p95 {p95} p99 {p99}");
        assert_eq!(Histogram::new().quantile(0.99), 0.0);
    }

    #[test]
    fn quantile_of_uniform_bucket_interpolates() {
        let h = Histogram::new();
        // 100 observations all in the (500, 1000] bucket.
        for _ in 0..100 {
            h.observe(750);
        }
        let p50 = h.quantile(0.5);
        assert!((500.0..=1000.0).contains(&p50), "p50 {p50}");
        // +Inf-only histograms resolve to the largest finite bound.
        let inf = Histogram::new();
        inf.observe(u64::MAX);
        assert_eq!(inf.quantile(0.5), 5_000_000.0);
    }

    #[test]
    fn merge_is_exact_at_bucket_granularity() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [3u64, 77, 900, 1_000_000] {
            a.observe(v);
        }
        for v in [4u64, 80, 901] {
            b.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 7);
        assert_eq!(a.sum(), 3 + 77 + 900 + 1_000_000 + 4 + 80 + 901);
        let direct = Histogram::new();
        for v in [3u64, 77, 900, 1_000_000, 4, 80, 901] {
            direct.observe(v);
        }
        assert_eq!(a.bucket_counts(), direct.bucket_counts());
    }

    #[test]
    fn prometheus_rendering_is_cumulative_with_inf_terminal() {
        let h = Histogram::new();
        h.observe(1);
        h.observe(3);
        h.observe(10_000_000);
        let mut out = String::new();
        h.render_prometheus("test_latency_us", "test help", &[], &mut out);
        assert!(out.contains("# TYPE test_latency_us histogram"));
        assert!(out.contains("test_latency_us_bucket{le=\"1\"} 1\n"));
        assert!(out.contains("test_latency_us_bucket{le=\"5\"} 2\n"));
        // Cumulative counts never decrease and +Inf equals the total.
        let mut last = 0u64;
        let mut inf = None;
        for line in out.lines() {
            if let Some(rest) = line.strip_prefix("test_latency_us_bucket{") {
                let value: u64 = rest.split_whitespace().last().unwrap().parse().unwrap();
                assert!(value >= last, "bucket series decreased in:\n{out}");
                last = value;
                if rest.starts_with("le=\"+Inf\"") {
                    inf = Some(value);
                }
            }
        }
        assert_eq!(inf, Some(3), "+Inf bucket must equal the count");
        assert!(out.contains("test_latency_us_sum 10000004\n"));
        assert!(out.contains("test_latency_us_count 3\n"));
        // The +Inf line is the last bucket line.
        let bucket_lines: Vec<&str> = out.lines().filter(|l| l.contains("_bucket{")).collect();
        assert!(bucket_lines.last().unwrap().contains("le=\"+Inf\""));
    }

    #[test]
    fn labels_are_rendered_and_escaped() {
        let h = Histogram::new();
        h.observe(7);
        let mut out = String::new();
        h.render_prometheus("test_labeled", "help", &[("model", "bert\"base\\v1\nx")], &mut out);
        assert!(
            out.contains("test_labeled_bucket{model=\"bert\\\"base\\\\v1\\nx\",le=\"10\"} 1"),
            "{out}"
        );
        assert!(out.contains("test_labeled_sum{model=\"bert\\\"base\\\\v1\\nx\"} 7"), "{out}");
        assert_eq!(escape_label("plain"), "plain");
    }

    #[test]
    fn scalars_render_in_table_order() {
        let mut out = String::new();
        render_scalars(
            &[
                (FamilyKind::Counter, "t_requests_total", "requests seen", 3),
                (FamilyKind::Gauge, "t_depth", "queue depth", 0),
            ],
            &mut out,
        );
        assert_eq!(
            out,
            "# HELP t_requests_total requests seen\n# TYPE t_requests_total counter\n\
             t_requests_total 3\n\
             # HELP t_depth queue depth\n# TYPE t_depth gauge\nt_depth 0\n"
        );
    }

    #[test]
    fn concurrent_observers_lose_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.observe(1 + (t * 131 + i * 17) % 5_000);
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        assert_eq!(h.count(), 8000);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 8000);
    }
}
