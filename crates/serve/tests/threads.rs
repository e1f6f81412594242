//! The pool is exactly its workers, before and after faults: starting a
//! core adds `workers` threads and nothing else, a worker that panics
//! heals in place instead of being replaced, and shutdown joins them all.
//!
//! Alone in this file, so alone in its process — `Threads:` counts the
//! whole process, and a neighbouring test's core would show up in it.

mod common;

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::compressed;
use gobo_serve::{Client, EncodeRequest, SchedulerConfig, ServeCore, ServeError, ServeOptions};

/// Threads of this process, from `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a Threads: line")
}

/// Waits, bounded, for something that trails what the test did by a
/// backoff (a respawn) or by the kernel (a joined thread leaves
/// `Threads:` a moment after its `join` returns).
fn settles(what: &str, done: impl Fn() -> bool) {
    let patience = Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(Instant::now() < patience, "{what} did not settle within 5 s");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn the_pool_is_exactly_its_workers_before_and_after_faults() {
    // Fail mode: a lock-order cycle, a raw condvar wait or I/O under a
    // lock anywhere below panics at the site and is recorded.
    gobo_sanitize::enable(gobo_sanitize::Mode::Fail);
    gobo_fault::install_panic_silencer();
    let container = compressed(5);
    let direct = container.decode().unwrap();

    let workers = 2;
    let before = threads();
    let core = ServeCore::start(ServeOptions {
        scheduler: SchedulerConfig { workers, ..SchedulerConfig::default() },
        ..ServeOptions::default()
    });
    assert_eq!(threads(), before + workers, "a core is its workers and no thread more");
    let client = Client::new(Arc::clone(&core));
    client.register("m", container).unwrap();

    // One sequential client: every request is a batch of one, so
    // `every=2` panics exactly every second request.
    gobo_fault::configure_str("serve.encode=panic(every=2)").unwrap();
    let mut panicked = 0;
    for r in 0..50usize {
        match client.encode(EncodeRequest::new("m", vec![1 + r % 30, 2, 3])) {
            Ok(_) => {}
            Err(ServeError::WorkerPanic) => panicked += 1,
            Err(other) => panic!("request {r}: unexpected error {other}"),
        }
    }
    gobo_fault::reset();
    assert_eq!(panicked, 25);
    let m = core.metrics();
    assert_eq!(m.worker_panics.load(Relaxed), 25);
    settles("the last respawn", || m.worker_respawns.load(Relaxed) == 25);
    assert_eq!(threads(), before + workers, "a panicked worker heals in place");

    // A healed worker serves the same bytes as before it panicked.
    let ids = vec![7, 8, 9];
    let response = client.encode(EncodeRequest::new("m", ids.clone())).unwrap();
    let reference = direct.encode(&ids, &[]).unwrap();
    let bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&response.hidden), bits(reference.hidden.as_slice()));
    assert_eq!(bits(&response.pooled.unwrap()), bits(reference.pooled.unwrap().as_slice()));

    core.shutdown();
    core.check_counter_laws().unwrap();
    settles("the joined pool", || threads() == before);
    let reports = gobo_sanitize::reports();
    assert!(reports.is_empty(), "sanitizer reports under fail mode: {reports:?}");
}
