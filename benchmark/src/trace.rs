//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's files only, *around* calls
//! into the system and from fields the system already returns; spans
//! inside the program are a later change (the ROADMAP stage clock).
//! Everything stays in memory until the run ends, then goes out once
//! as Chrome trace JSON.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use gobo_serve::json::Json;

/// One closed interval of work attributed to a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.http`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Unique, non-zero.
    pub id: u32,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u32,
    /// Shared by every span of one request.
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread-safe span and count sink.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
    next_id: AtomicU32,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
            next_id: AtomicU32::new(1),
        }
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id, so a parent can be named before it ends.
    pub fn next_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a pre-allocated id.
    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span sink poisoned by a panicking generator").push(span);
    }

    /// Records a finished span, returning its id.
    pub fn span(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        req: u64,
    ) -> u32 {
        let id = self.next_id();
        self.push(Span { name, start_ns, end_ns, id, parent, req });
        id
    }

    /// Times `f` as one span.
    pub fn time<T>(&self, name: &'static str, parent: u32, req: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.span(name, self.ns(start), self.ns(Instant::now()), parent, req);
        out
    }

    /// Adds to a count recorded at the same boundary as the spans.
    pub fn count(&self, name: &'static str, n: u64) {
        *self.counts.lock().expect("count sink poisoned").entry(name).or_insert(0) += n;
    }

    pub fn into_parts(self) -> (Vec<Span>, BTreeMap<&'static str, u64>) {
        (
            self.spans.into_inner().expect("span sink poisoned"),
            self.counts.into_inner().expect("count sink poisoned"),
        )
    }
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover (overlapping children are counted once, children
/// are clipped to the parent). Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time per span name, summed, nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += own;
    }
    out
}

/// Share of each request's measured latency that the layer spans under
/// it account for: Σ self time of the descendants of each `root_name`
/// span ÷ that span's duration, as the median over requests. The
/// root's own self time is latency no layer explains.
pub fn closure_share(spans: &[Span], root_name: &str) -> Option<f64> {
    let own = self_times(spans);
    let mut by_req: BTreeMap<u64, (u64, u64)> = BTreeMap::new(); // req -> (root dur, layer self)
    for (s, own) in spans.iter().zip(own) {
        let entry = by_req.entry(s.req).or_insert((0, 0));
        if s.name == root_name && s.parent == 0 {
            entry.0 += s.dur_ns();
        } else {
            entry.1 += own;
        }
    }
    let shares: Vec<f64> = by_req
        .values()
        .filter(|(root, _)| *root > 0)
        .map(|&(root, layers)| layers as f64 / root as f64)
        .collect();
    crate::stats::median(&shares)
}

/// Renders spans as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto). `tid` is the request id folded to a few rows so the
/// viewer stays readable.
pub fn chrome_json(spans: &[Span], counts: &BTreeMap<&'static str, u64>) -> String {
    let events: Vec<Json> = spans
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("name", Json::Str(s.name.to_owned())),
                ("cat", Json::Str(s.name.split('.').next().unwrap_or("").to_owned())),
                ("ph", Json::Str("X".to_owned())),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num((s.req % 8) as f64)),
                (
                    "args",
                    Json::obj(vec![
                        ("id", Json::Num(f64::from(s.id))),
                        ("parent", Json::Num(f64::from(s.parent))),
                        ("req", Json::Num(s.req as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    let counts: Vec<(&str, Json)> =
        counts.iter().map(|(k, v)| (*k, Json::Num(*v as f64))).collect();
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".to_owned())),
        ("counts", Json::obj(counts)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, id: u32, parent: u32) -> Span {
        Span { name, start_ns: start, end_ns: end, id, parent, req: 1 }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span("load.request", 0, 100, 1, 0),
            span("serve.http", 10, 90, 2, 1),
            span("serve.scheduler.queue", 20, 40, 3, 2),
            // Overlaps the queue span and runs past its parent.
            span("serve.engine", 30, 95, 4, 2),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 20, 65]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["serve.http"], 10);
        // 95 of the request's 100 ns sit in layer spans.
        let share = closure_share(&spans, "load.request").unwrap();
        assert!((share - 0.95).abs() < 1e-12, "{share}");
    }

    #[test]
    fn chrome_trace_round_trips_through_the_json_parser() {
        let rec = Recorder::new(Instant::now());
        let root = rec.span("load.request", 1_000, 9_000, 0, 7);
        rec.span("serve.http", 2_000, 8_000, root, 7);
        rec.count("load.sent", 3);
        let (spans, counts) = rec.into_parts();
        let text = chrome_json(&spans, &counts);
        let parsed = gobo_serve::json::parse(&text).unwrap();
        let events = parsed.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("args").and_then(|a| a.get("parent")).and_then(Json::as_f64),
            Some(1.0)
        );
        assert_eq!(
            parsed.get("counts").and_then(|c| c.get("load.sent")).and_then(Json::as_f64),
            Some(3.0)
        );
    }
}
