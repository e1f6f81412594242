//! Fault-injection integration tests for the serve stack.
//!
//! `gobo-fault`'s failpoint registry is process-global, so every test
//! here holds `common::FaultGuard`; every test that ran a core ends on
//! the counter laws (`common::shutdown_and_check_counters`).

mod common;

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{compressed, shutdown_and_check_counters, FaultGuard};
use gobo_serve::{
    CanaryPolicy, Client, EncodeRequest, Metrics, ModelRegistry, RegistryConfig, RevState,
    SchedulerConfig, ServeCore, ServeError, ServeOptions,
};

fn start_core(workers: usize) -> Arc<ServeCore> {
    ServeCore::start(ServeOptions {
        registry: RegistryConfig::default(),
        scheduler: SchedulerConfig {
            workers,
            default_deadline: Duration::from_secs(10),
            ..SchedulerConfig::default()
        },
        ..ServeOptions::default()
    })
}

/// A single sequential client means batch size 1, so `every=5` maps
/// exactly onto requests 5, 10, 15, … — the run is fully
/// deterministic: 20% of requests fail as `WorkerPanic`, the rest
/// succeed, nothing hangs, and the pool respawns back to size.
#[test]
fn panic_every_fifth_encode_fails_only_injected_requests() {
    let _guard = FaultGuard::lock();
    let core = start_core(2);
    let client = Client::new(Arc::clone(&core));
    client.register("chaos", compressed(3)).unwrap();
    client.encode(EncodeRequest::new("chaos", vec![1, 2, 3])).unwrap();

    gobo_fault::configure_str("serve.encode=panic(every=5)").unwrap();
    let mut ok = 0usize;
    let mut panicked = 0usize;
    for r in 0..100usize {
        match client.encode(EncodeRequest::new("chaos", vec![1 + r % 30, 2, 3])) {
            Ok(_) => ok += 1,
            Err(ServeError::WorkerPanic) => panicked += 1,
            Err(other) => panic!("request {r}: unexpected error {other}"),
        }
    }
    assert_eq!(ok, 80);
    assert_eq!(panicked, 20);
    assert_eq!(core.metrics().worker_panics.load(Ordering::Relaxed), 20);

    // Respawns trail the panics (by the backoff); wait bounded for
    // the counter, then confirm the pool still serves.
    let deadline = Instant::now() + Duration::from_secs(5);
    while core.metrics().worker_respawns.load(Ordering::Relaxed) == 0 {
        assert!(Instant::now() < deadline, "no worker respawn within 5s");
        std::thread::sleep(Duration::from_millis(5));
    }
    gobo_fault::reset();
    client.encode(EncodeRequest::new("chaos", vec![4, 5, 6])).unwrap();
    shutdown_and_check_counters(&core);
}

/// An armed `serve.admission` failpoint rejects at submit time without
/// touching a worker.
#[test]
fn admission_failpoint_rejects_before_queueing() {
    let _guard = FaultGuard::lock();
    let core = start_core(1);
    let client = Client::new(Arc::clone(&core));
    client.register("chaos", compressed(4)).unwrap();

    gobo_fault::configure_str("serve.admission=error").unwrap();
    let err = client.encode(EncodeRequest::new("chaos", vec![1, 2, 3])).unwrap_err();
    assert_eq!(err.code(), "internal");
    assert!(err.to_string().contains("injected admission fault"), "{err}");

    gobo_fault::reset();
    client.encode(EncodeRequest::new("chaos", vec![1, 2, 3])).unwrap();
    shutdown_and_check_counters(&core);
}

/// `registry.decode=error` turns model registration into a clean
/// `ServeError` instead of a cache entry.
#[test]
fn registry_decode_failpoint_fails_registration() {
    let _guard = FaultGuard::lock();
    let core = start_core(1);
    let client = Client::new(Arc::clone(&core));

    gobo_fault::configure_str("registry.decode=error").unwrap();
    let err = client.register("chaos", compressed(5)).unwrap_err();
    assert_eq!(err.code(), "internal");
    assert_eq!(gobo_fault::fires("registry.decode"), 1);

    gobo_fault::reset();
    client.register("chaos", compressed(5)).unwrap();
    client.encode(EncodeRequest::new("chaos", vec![1, 2, 3])).unwrap();
    shutdown_and_check_counters(&core);
}

/// A `delay` failpoint slows the batch path without failing anything.
#[test]
fn delay_failpoint_slows_but_serves() {
    let _guard = FaultGuard::lock();
    let core = start_core(1);
    let client = Client::new(Arc::clone(&core));
    client.register("chaos", compressed(6)).unwrap();
    client.encode(EncodeRequest::new("chaos", vec![1, 2, 3])).unwrap();

    gobo_fault::configure_str("serve.batch=delay(ms=30)").unwrap();
    let started = Instant::now();
    client.encode(EncodeRequest::new("chaos", vec![1, 2, 3])).unwrap();
    assert!(started.elapsed() >= Duration::from_millis(30));
    shutdown_and_check_counters(&core);
}

/// An armed `registry.swap` failpoint rejects `publish` mid-flight,
/// before the registry mutates: the active revision keeps serving, no
/// canary appears, and the revision counter is not consumed.
#[test]
fn swap_failpoint_rejects_publish_without_mutation() {
    let _guard = FaultGuard::lock();
    let r = ModelRegistry::new(RegistryConfig::default(), Arc::new(Metrics::new()));
    let first = r.insert("m", compressed(11)).unwrap();

    gobo_fault::configure_str("registry.swap=error").unwrap();
    let err = r.publish("m", compressed(12)).unwrap_err();
    assert_eq!(err.code(), "internal");
    assert!(err.to_string().contains("registry.swap"), "{err}");
    assert!(gobo_fault::fires("registry.swap") > 0);

    gobo_fault::reset();
    // Registry untouched: same active rev, no canary, and the next
    // accepted publish still gets the next rev number.
    assert_eq!(r.get("m", None).unwrap().rev, 1);
    assert!(r.canary_for(&first.key).is_none());
    let (entry, state) = r.publish("m", compressed(12)).unwrap();
    assert_eq!(entry.rev, 2);
    assert_eq!(state, RevState::Canary);
}

/// `registry.retire` fires once per retired revision, and retirement
/// happens only after the refcount drains.
#[test]
fn retire_failpoint_fires_once_per_retirement() {
    let _guard = FaultGuard::lock();
    // A zero-delay policy is a pass-through that lets `fires` observe
    // each retirement without changing behaviour.
    gobo_fault::configure_str("registry.retire=delay(ms=0)").unwrap();
    let r = ModelRegistry::new(RegistryConfig::default(), Arc::new(Metrics::new()));
    let first = r.insert("m", compressed(13)).unwrap();
    let (second, _) = r.publish("m", compressed(14)).unwrap();
    let key = first.key.clone();
    drop(first);
    drop(second);
    r.promote(&key).unwrap();
    r.sweep();
    assert_eq!(r.draining_len(), 0);
    assert_eq!(gobo_fault::fires("registry.retire"), 1);
}

/// An injected `serve.canary` error is invisible to clients: the batch
/// transparently re-runs on the active revision (byte-identical to a
/// fault-free response) and the canary is rolled back immediately.
#[test]
fn canary_error_falls_back_and_rolls_back() {
    let _guard = FaultGuard::lock();
    let core = ServeCore::start(ServeOptions {
        scheduler: SchedulerConfig { workers: 1, ..SchedulerConfig::default() },
        // Every batch trials the canary, so the first one decides.
        lifecycle: CanaryPolicy { traffic_pct: 100, ..CanaryPolicy::default() },
        ..ServeOptions::default()
    });
    let client = Client::new(Arc::clone(&core));
    client.register("chaos", compressed(3)).unwrap();
    let baseline = client.encode(EncodeRequest::new("chaos", vec![1, 2, 3])).unwrap();
    assert_eq!(baseline.rev, 1);

    gobo_fault::configure_str("serve.canary=error").unwrap();
    let (entry, state) = core.registry().publish("chaos", compressed(4)).unwrap();
    assert_eq!(state, RevState::Canary);

    let fallback = client.encode(EncodeRequest::new("chaos", vec![1, 2, 3])).unwrap();
    assert_eq!(fallback.rev, 1, "failed canary batch must serve from the active rev");
    assert_eq!(
        fallback.hidden.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
        baseline.hidden.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
        "fallback response must be byte-identical to the active revision"
    );
    assert!(core.registry().canary_for(&entry.key).is_none(), "canary must be rolled back");
    assert_eq!(core.metrics().canary_rollbacks.load(Ordering::Relaxed), 1);
    assert!(core.metrics().canary_errors.load(Ordering::Relaxed) >= 1);

    // The active revision keeps serving cleanly after the rollback.
    gobo_fault::reset();
    for r in 0..10usize {
        let resp = client.encode(EncodeRequest::new("chaos", vec![1 + r % 30, 2, 3])).unwrap();
        assert_eq!(resp.rev, 1);
    }
    shutdown_and_check_counters(&core);
}

/// A slow canary (3x artificial delay via `serve.canary=delay`) is
/// rolled back on the p95 comparison once its verdict window fills —
/// no client request fails in the process.
#[test]
fn slow_canary_rolled_back_on_p95_regression() {
    let _guard = FaultGuard::lock();
    let window = 4u32;
    let core = ServeCore::start(ServeOptions {
        scheduler: SchedulerConfig { workers: 1, ..SchedulerConfig::default() },
        lifecycle: CanaryPolicy { traffic_pct: 50, window, p95_factor_pct: 300, min_baseline: 2 },
        ..ServeOptions::default()
    });
    let client = Client::new(Arc::clone(&core));
    client.register("chaos", compressed(5)).unwrap();
    client.encode(EncodeRequest::new("chaos", vec![1, 2, 3])).unwrap();

    // Tiny model batches run in well under a millisecond; a 20 ms delay
    // dwarfs any plausible 3x baseline.
    gobo_fault::configure_str("serve.canary=delay(ms=20)").unwrap();
    let (entry, _) = core.registry().publish("chaos", compressed(6)).unwrap();

    let mut served = 0usize;
    for r in 0..64usize {
        let resp = client.encode(EncodeRequest::new("chaos", vec![1 + r % 30, 2, 3])).unwrap();
        served += 1;
        if core.registry().canary_for(&entry.key).is_none() {
            break;
        }
        let _ = resp;
    }
    assert!(
        core.registry().canary_for(&entry.key).is_none(),
        "slow canary should be rolled back within {served} requests"
    );
    assert_eq!(core.metrics().canary_rollbacks.load(Ordering::Relaxed), 1);
    assert_eq!(core.metrics().canary_promotions.load(Ordering::Relaxed), 0);
    assert_eq!(core.registry().get("chaos", None).unwrap().rev, 1, "active keeps serving");
    shutdown_and_check_counters(&core);
}

/// A canary that supersedes another is judged on its own batches. With
/// one worker, one sequential client and `traffic_pct: 100` every
/// request is one canary batch, so the run is deterministic: publish a
/// canary, run `window - 1` batches on it, publish its successor, and
/// no verdict may land until `window` batches ran on the *successor* —
/// first through `registry().publish`, then through `ServeCore::reload`.
#[test]
fn superseding_canary_is_judged_on_its_own_samples() {
    let _guard = FaultGuard::lock();
    let window = 8u32;
    let core = ServeCore::start(ServeOptions {
        scheduler: SchedulerConfig { workers: 1, ..SchedulerConfig::default() },
        lifecycle: CanaryPolicy { traffic_pct: 100, window, ..CanaryPolicy::default() },
        ..ServeOptions::default()
    });
    let client = Client::new(Arc::clone(&core));
    let key = client.register("chaos", compressed(20)).unwrap().key.clone();
    let promotions = || core.metrics().canary_promotions.load(Ordering::Relaxed);
    let active_rev = || core.registry().list()[0].rev;
    // `batches` sequential requests, each of which must be served by
    // the canary `rev`.
    let run_on = |rev: u64, batches: u32| {
        for r in 0..batches as usize {
            let resp = client.encode(EncodeRequest::new("chaos", vec![1 + r % 30, 2, 3])).unwrap();
            assert_eq!(resp.rev, rev, "every batch trials the pending canary");
        }
    };
    let dir = std::env::temp_dir().join(format!("gobo-serve-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = |seed: u64| {
        let path = dir.join(format!("rev{seed}.gobom"));
        std::fs::write(&path, compressed(seed).to_bytes()).unwrap();
        path.to_str().unwrap().to_owned()
    };
    // One round on a slot whose active revision is `active`: canaries
    // `active + 1`, then `active + 2` superseding it.
    let round = |how: &str, active: u64, publish: &dyn Fn(u64) -> RevState| {
        let (first, second) = (active + 1, active + 2);
        let settled = promotions();
        assert_eq!(publish(20 + first), RevState::Canary, "{how}");
        run_on(first, window - 1);
        assert_eq!(publish(20 + second), RevState::Canary, "{how}");
        run_on(second, window - 1);
        assert_eq!(
            (promotions(), active_rev(), core.registry().canary_for(&key).map(|c| c.rev)),
            (settled, active, Some(second)),
            "{how}: rev {second} was judged before {window} batches ran on it"
        );
        run_on(second, 1);
        assert_eq!((promotions(), active_rev()), (settled + 1, second), "{how}");
        assert!(core.registry().canary_for(&key).is_none(), "{how}");
    };
    round("publish", 1, &|seed| core.registry().publish("chaos", compressed(seed)).unwrap().1);
    round("reload", 3, &|seed| core.reload("chaos", &file(seed)).unwrap().1);
    assert_eq!(core.metrics().canary_rollbacks.load(Ordering::Relaxed), 0);
    let _ = std::fs::remove_dir_all(&dir);
    shutdown_and_check_counters(&core);
}

/// A panicking worker never takes an unrelated queued batch with it:
/// concurrent requests against a panic-prone pool resolve as either
/// success or `WorkerPanic` — no hangs, no other errors — and the
/// metrics agree with the client-side tally.
#[test]
fn concurrent_load_under_panics_degrades_cleanly() {
    let _guard = FaultGuard::lock();
    let core = start_core(2);
    let client = Client::new(Arc::clone(&core));
    client.register("chaos", compressed(7)).unwrap();
    client.encode(EncodeRequest::new("chaos", vec![1, 2, 3])).unwrap();

    gobo_fault::configure_str("serve.encode=panic(every=7)").unwrap();
    let mut joins = Vec::new();
    for t in 0..4usize {
        let client = client.clone();
        joins.push(std::thread::spawn(move || {
            let mut ok = 0usize;
            let mut panicked = 0usize;
            for r in 0..30usize {
                match client.encode(EncodeRequest::new("chaos", vec![1 + (t + r) % 30, 2])) {
                    Ok(_) => ok += 1,
                    Err(ServeError::WorkerPanic) => panicked += 1,
                    Err(other) => panic!("unexpected error {other}"),
                }
            }
            (ok, panicked)
        }));
    }
    let mut ok = 0usize;
    let mut panicked = 0usize;
    for join in joins {
        let (o, p) = join.join().unwrap();
        ok += o;
        panicked += p;
    }
    assert_eq!(ok + panicked, 120);
    assert!(ok > 0, "some requests must succeed");
    assert!(panicked > 0, "the failpoint must have fired");
    assert!(core.metrics().worker_panics.load(Ordering::Relaxed) > 0, "panics must be counted");
    shutdown_and_check_counters(&core);
}

/// The law at every exit: a submitter that gave up at its deadline has
/// claimed the request and counted it, so whatever the worker answers
/// when it finally gets there — found behind a 400 ms delay, 130 ms
/// after the submitter's 20 ms deadline and 250 ms grace ran out — must
/// not count a second time. Three exits: `ModelNotFound`, expiry in the pre-pass (the
/// armed `serve.encode=panic` behind it then has nothing left to fire
/// on), and `WorkerPanic` out of the forward itself.
#[test]
fn an_answer_nobody_waits_for_is_not_counted_twice() {
    let _guard = FaultGuard::lock();
    let cases = [
        ("ghost", "serve.batch=delay(ms=400)", 0),
        ("chaos", "serve.batch=delay(ms=400);serve.encode=panic", 0),
        // The delay sits behind the pre-pass here, so the request is
        // still live when the forward — on the canary — panics.
        ("chaos", "serve.encode=delay(ms=400);serve.canary=panic", 1),
    ];
    for (model, failpoints, panics) in cases {
        let core = ServeCore::start(ServeOptions {
            scheduler: SchedulerConfig { workers: 1, ..SchedulerConfig::default() },
            lifecycle: CanaryPolicy { traffic_pct: 100, ..CanaryPolicy::default() },
            ..ServeOptions::default()
        });
        let client = Client::new(Arc::clone(&core));
        client.register("chaos", compressed(8)).unwrap();
        core.registry().publish("chaos", compressed(9)).unwrap();

        gobo_fault::configure_str(failpoints).unwrap();
        let mut request = EncodeRequest::new(model, vec![1, 2, 3]);
        request.deadline = Some(Duration::from_millis(20));
        let reply = client.encode(request);
        assert!(matches!(reply, Err(ServeError::DeadlineExceeded)), "{failpoints}: {reply:?}");
        // The drain waits for the worker to come out of its delay and
        // answer the request nobody listens for any more.
        core.shutdown();
        gobo_fault::reset();
        core.check_counter_laws().unwrap_or_else(|broken| panic!("{failpoints}: {broken}"));
        let metrics = core.metrics();
        assert_eq!(metrics.rejected_deadline.load(Ordering::Relaxed), 1, "{failpoints}");
        assert_eq!(metrics.encode_failed.load(Ordering::Relaxed), 0, "{failpoints}");
        assert_eq!(metrics.worker_panics.load(Ordering::Relaxed), panics, "{failpoints}");
    }
}
