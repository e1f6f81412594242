//! Observability end-to-end: the `/metrics` exposition is pinned
//! against a golden schema (series names, HELP/TYPE headers, bucket
//! bounds), histogram invariants hold on live data, and the Chrome
//! trace export round-trips the serve JSON parser with cross-thread
//! span nesting intact.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{compressed, request};
use gobo_serve::json::{parse, Json};
use gobo_serve::{Client, ServeCore, ServeOptions, Server};

/// Reduces an exposition to its schema: comment lines verbatim, sample
/// lines stripped of their value (everything after the final space).
/// Series names, label sets, and bucket bounds are all deterministic,
/// so the schema is stable run to run while the values are not.
fn schema_of(exposition: &str) -> String {
    let mut out = String::new();
    for line in exposition.lines() {
        // The gobo-sanitize debug section appears only under
        // GOBO_SANITIZE and its label sets depend on which locks the
        // run exercised — excluded so the golden holds in the
        // sanitize-smoke CI job too.
        if line.contains("gobo_sanitize_") {
            continue;
        }
        if line.starts_with('#') {
            out.push_str(line);
        } else if let Some(idx) = line.rfind(' ') {
            out.push_str(&line[..idx]);
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// Golden-file test for `GET /metrics`. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test -p gobo-serve --test observability`.
#[test]
fn metrics_exposition_matches_golden_schema() {
    let container = compressed(23);
    let core = ServeCore::start(ServeOptions::default());
    let client = Client::new(Arc::clone(&core));
    client.register("demo", container).unwrap();
    let server = Server::bind(Arc::clone(&core), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let serve_thread = std::thread::spawn(move || server.serve_until_shutdown());

    let (status, _) = request(
        addr,
        "POST",
        "/v1/encode",
        "{\"model\":\"demo\",\"ids\":[1,2,3],\"type_ids\":[0,0,0]}",
    );
    assert_eq!(status, 200);
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);

    let schema = schema_of(&metrics);
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics_schema.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &schema).expect("write golden");
    } else {
        let golden = std::fs::read_to_string(golden_path).expect("golden file exists");
        assert_eq!(schema, golden, "metrics schema drifted; run with UPDATE_GOLDEN=1 if intended");
    }

    // Histogram invariants on live data: buckets are cumulative
    // (non-decreasing) and the +Inf bucket equals the count.
    for name in ["gobo_serve_latency_us", "gobo_serve_queue_wait_us"] {
        let buckets: Vec<(String, u64)> = metrics
            .lines()
            .filter_map(|l| l.strip_prefix(&format!("{name}_bucket{{le=\"")))
            .map(|rest| {
                let (le, value) = rest.split_once("\"} ").unwrap();
                (le.to_owned(), value.parse().unwrap())
            })
            .collect();
        assert!(!buckets.is_empty(), "no buckets for {name}:\n{metrics}");
        assert_eq!(buckets.last().unwrap().0, "+Inf", "{name} must end with +Inf");
        for pair in buckets.windows(2) {
            assert!(pair[0].1 <= pair[1].1, "{name} buckets not cumulative: {buckets:?}");
        }
        let count: u64 = metrics
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name}_count ")))
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert_eq!(buckets.last().unwrap().1, count, "{name} +Inf bucket != count");
        assert_eq!(count, 1, "exactly one encode completed");
    }

    let (status, _) = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    serve_thread.join().expect("server thread");
}

/// Spans recorded from multiple threads must export as Chrome trace
/// JSON that (a) parses, (b) keeps each thread's events in monotone
/// begin order, and (c) nests child spans inside their parents.
#[test]
fn chrome_trace_export_round_trips_with_cross_thread_nesting() {
    let work = |i| {
        for j in 0..4 {
            let _outer = gobo_obs::span!("t.outer", worker = i, round = j);
            std::thread::sleep(Duration::from_micros(200));
            let _inner = gobo_obs::span!("t.inner", worker = i);
            std::thread::sleep(Duration::from_micros(100));
        }
    };
    let three_threads =
        || std::thread::scope(|s| (0..3).for_each(|i| drop(s.spawn(move || work(i)))));
    let json = gobo_obs::trace::Session::record(three_threads).1.chrome_trace();

    // (a) The export is valid JSON: an array of metadata + complete
    // events with the trace-event fields present.
    let value = parse(&json).expect("chrome trace must parse");
    let events = value.as_array().expect("top level is an array");
    let mut metadata = 0;
    let mut complete: Vec<(&Json, u64, u64, u64, u64)> = Vec::new(); // (event, tid, ts, dur, depth)
    for event in events {
        match event.get("ph").and_then(Json::as_str) {
            Some("M") => {
                assert_eq!(event.get("name").and_then(Json::as_str), Some("thread_name"));
                metadata += 1;
            }
            Some("X") => {
                let tid = event.get("tid").and_then(Json::as_f64).unwrap() as u64;
                let ts = event.get("ts").and_then(Json::as_f64).unwrap() as u64;
                let dur = event.get("dur").and_then(Json::as_f64).unwrap() as u64;
                let depth =
                    event.get("args").and_then(|a| a.get("depth")).and_then(Json::as_f64).unwrap()
                        as u64;
                // The trace ring is process-global: the sibling test's
                // `http.request` / `serve.*` spans land in it while
                // tracing is on. Count and nest only this test's own.
                let name = event.get("name").and_then(Json::as_str).expect("named event");
                if matches!(name, "t.outer" | "t.inner") {
                    complete.push((event, tid, ts, dur, depth));
                }
            }
            other => panic!("unexpected ph {other:?}"),
        }
    }
    assert!(metadata >= 3, "one thread_name record per worker thread");
    assert_eq!(complete.len(), 3 * 4 * 2, "one event per span");

    // (b) Per-thread begin times are monotone in export order, and
    // (c) every inner span nests inside an outer span on its thread.
    let mut tids: Vec<u64> = complete.iter().map(|c| c.1).collect();
    tids.sort_unstable();
    tids.dedup();
    assert_eq!(tids.len(), 3, "spans came from three distinct threads");
    for &tid in &tids {
        let thread_events: Vec<_> = complete.iter().filter(|c| c.1 == tid).collect();
        for pair in thread_events.windows(2) {
            assert!(pair[0].2 <= pair[1].2, "begin times must be monotone per thread");
        }
        for &&(event, _, ts, dur, depth) in &thread_events {
            if event.get("name").and_then(Json::as_str) == Some("t.inner") {
                assert_eq!(depth, 1);
                let parent = thread_events
                    .iter()
                    .find(|&&&(_, _, pts, pdur, pdepth)| {
                        pdepth == 0 && pts <= ts && ts + dur <= pts + pdur
                    })
                    .unwrap_or_else(|| panic!("inner span at ts={ts} has no enclosing outer"));
                assert_eq!(parent.0.get("name").and_then(Json::as_str), Some("t.outer"));
            }
        }
    }
}
