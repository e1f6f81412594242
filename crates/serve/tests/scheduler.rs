//! Scheduler behaviour: how a backlog is split into batches, deadline
//! expiry under saturation, admission-control rejection and graceful
//! drain. (Served bytes at every batch size are the differential
//! oracle's, `crates/cli/tests/oracle.rs`.)
//!
//! A free worker takes what is queued at once, so a test that wants a
//! backlog holds the workers itself: [`park_workers`] parks each one
//! inside a `serve.batch=delay` failpoint, the test queues behind them,
//! and what the workers do with that queue when they come back is the
//! assertion. Failpoints are process-global, so every test holds the
//! [`FaultGuard`]; every test ends on the counter laws.

mod common;

use std::sync::atomic::Ordering;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{compressed, compressed_at, shutdown_and_check_counters, FaultGuard};
use gobo_fault::{FaultAction, Policy};
use gobo_serve::{
    Client, EncodeRequest, EncodeResponse, RegistryConfig, SchedulerConfig, ServeCore, ServeError,
    ServeOptions,
};

type Reply = Receiver<Result<EncodeResponse, ServeError>>;

fn core_with(scheduler: SchedulerConfig) -> (Arc<ServeCore>, Client) {
    let core = ServeCore::start(ServeOptions {
        registry: RegistryConfig::default(),
        scheduler,
        ..ServeOptions::default()
    });
    let client = Client::new(Arc::clone(&core));
    client.register("m", compressed(1)).unwrap();
    (core, client)
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// How long [`park_workers`] holds the pool — ample for queueing a few
/// dozen requests behind it; [`queue_behind`] checks that it was.
const HOLD: Duration = Duration::from_millis(300);

/// Parks every one of `core`'s `workers` workers inside a batch for
/// [`HOLD`]: with `serve.batch=delay` armed, a lone plug request is
/// dispatched to an idle worker at once, and the failpoint's fire count
/// says when that worker has gone to sleep in it — so the plugs go in
/// one at a time, each to a worker of its own. The failpoint is then
/// disarmed (a sleeper keeps sleeping), so batches taken after the hold
/// run undelayed. Returns the plugs' reply channels.
fn park_workers(core: &ServeCore, workers: usize) -> Vec<Reply> {
    gobo_fault::configure("serve.batch", Policy::always(FaultAction::Delay(HOLD)));
    let patience = Instant::now() + Duration::from_secs(10);
    let plugs = (1..=workers as u64)
        .map(|parked| {
            let plug = core.scheduler().submit(EncodeRequest::new("m", vec![1])).unwrap();
            while gobo_fault::fires("serve.batch") < parked {
                assert!(Instant::now() < patience, "worker {parked} never took its plug");
                std::thread::yield_now();
            }
            plug
        })
        .collect();
    gobo_fault::clear("serve.batch");
    plugs
}

/// Queues `n` requests for "m" behind parked workers and returns their
/// token ids and reply channels, in submission order.
fn queue_behind(core: &ServeCore, n: usize) -> Vec<(Vec<usize>, Reply)> {
    let queued: Vec<_> = (0..n)
        .map(|i| {
            let ids = vec![1 + i % 7, 2 + i % 3, 3];
            let rx = core.scheduler().submit(EncodeRequest::new("m", ids.clone())).unwrap();
            (ids, rx)
        })
        .collect();
    assert_eq!(core.scheduler().queue_depth(), n, "the hold ended before the backlog was queued");
    queued
}

/// Collects every reply of a gated backlog, checks each against a
/// direct encode on the decoded container bit for bit, and returns the
/// batch sizes in submission order.
fn batch_sizes_checked(queued: Vec<(Vec<usize>, Reply)>) -> Vec<usize> {
    let direct = compressed(1).decode().unwrap();
    queued
        .into_iter()
        .map(|(ids, rx)| {
            let response = rx.recv().unwrap().unwrap();
            let reference = direct.encode(&ids, &[]).unwrap();
            assert_eq!(bits(&response.hidden), bits(reference.hidden.as_slice()));
            assert_eq!(bits(&response.pooled.unwrap()), bits(reference.pooled.unwrap().as_slice()));
            response.batch_size
        })
        .collect()
}

/// `[4, 4, 4, 4, 2, 2]` for batches `[4, 2]`: what requests answered in
/// submission order report when the backlog was cut into those batches,
/// oldest first.
fn per_request(batches: &[usize]) -> Vec<usize> {
    batches.iter().flat_map(|&size| std::iter::repeat_n(size, size)).collect()
}

fn drain_plugs(plugs: Vec<Reply>) {
    for plug in plugs {
        assert_eq!(plug.recv().unwrap().unwrap().batch_size, 1, "a plug was dispatched alone");
    }
}

#[test]
fn coalesces_up_to_max_batch() {
    let _guard = FaultGuard::lock();
    let (core, _client) = core_with(SchedulerConfig {
        workers: 1,
        max_batch: 4,
        queue_capacity: 64,
        default_deadline: Duration::from_secs(10),
    });
    // Six requests queued behind the one worker: it takes `max_batch`
    // of them, oldest first, and comes back for the other two.
    let plugs = park_workers(&core, 1);
    let queued = queue_behind(&core, 6);
    drain_plugs(plugs);
    assert_eq!(batch_sizes_checked(queued), per_request(&[4, 2]));
    let metrics = core.metrics();
    assert_eq!(metrics.batches.load(Ordering::Relaxed), 3);
    assert_eq!(metrics.batched_requests.load(Ordering::Relaxed), 7);
    assert_eq!(metrics.batch_size_max.load(Ordering::Relaxed), 4);
    shutdown_and_check_counters(&core);
}

/// A pipelined window fills `max_batch` exactly. One worker, and all 32
/// submissions queued while it is held: it takes the whole window in
/// one sweep, so all 32 ride one batch — a sweep that fragmented would
/// show up as more batches and a smaller `batch_size_max`. Every reply
/// must still be byte-identical to a direct encode.
#[test]
fn pipelined_window_coalesces_to_max_batch_32() {
    let _guard = FaultGuard::lock();
    let (core, _client) = core_with(SchedulerConfig {
        workers: 1,
        max_batch: 32,
        queue_capacity: 64,
        default_deadline: Duration::from_secs(30),
    });
    let plugs = park_workers(&core, 1);
    let queued = queue_behind(&core, 32);
    drain_plugs(plugs);
    assert_eq!(batch_sizes_checked(queued), per_request(&[32]));
    let metrics = core.metrics();
    assert_eq!(metrics.batch_size_max.load(Ordering::Relaxed), 32);
    assert_eq!(metrics.batches.load(Ordering::Relaxed), 2);
    shutdown_and_check_counters(&core);
}

/// Two workers and the same window of 32: whichever worker comes back
/// takes half of what is queued *then* — 16 of 32, 8 of the 16 left, and
/// so on — so the other always finds a piece waiting instead of one
/// worker computing a 32-row panel while its neighbour idles. Each take
/// is one atomic sweep, so the sequence of sizes does not depend on
/// which worker made it, and the split is invisible in the bytes.
#[test]
fn two_workers_split_a_backlog_into_fair_shares() {
    let _guard = FaultGuard::lock();
    let (core, _client) = core_with(SchedulerConfig {
        workers: 2,
        max_batch: 32,
        queue_capacity: 64,
        default_deadline: Duration::from_secs(30),
    });
    let plugs = park_workers(&core, 2);
    let queued = queue_behind(&core, 32);
    drain_plugs(plugs);
    assert_eq!(batch_sizes_checked(queued), per_request(&[16, 8, 4, 2, 1, 1]));
    let metrics = core.metrics();
    assert_eq!(metrics.batch_size_max.load(Ordering::Relaxed), 16);
    assert_eq!(metrics.batches.load(Ordering::Relaxed), 2 + 6);
    assert_eq!(metrics.batched_requests.load(Ordering::Relaxed), 2 + 32);
    shutdown_and_check_counters(&core);
}

/// One request behind two held workers: the first worker back takes it
/// alone, and the other finds nothing left.
#[test]
fn two_workers_dispatch_a_lone_request_alone() {
    let _guard = FaultGuard::lock();
    let (core, _client) = core_with(SchedulerConfig {
        workers: 2,
        max_batch: 32,
        queue_capacity: 64,
        default_deadline: Duration::from_secs(30),
    });
    let plugs = park_workers(&core, 2);
    let queued = queue_behind(&core, 1);
    drain_plugs(plugs);
    assert_eq!(batch_sizes_checked(queued), [1]);
    shutdown_and_check_counters(&core);
}

/// Two models interleaved in one backlog: a sweep takes the oldest
/// request and only requests of *its* key, sized by that key's own
/// count, and leaves the other key's requests queued in order.
#[test]
fn a_batch_never_mixes_keys() {
    let _guard = FaultGuard::lock();
    let (core, client) = core_with(SchedulerConfig {
        workers: 1,
        max_batch: 8,
        queue_capacity: 64,
        default_deadline: Duration::from_secs(30),
    });
    client.register("other", compressed(2)).unwrap();
    let direct = [compressed(1).decode().unwrap(), compressed(2).decode().unwrap()];
    let plugs = park_workers(&core, 1);
    // m, other, m, other, m — three of one key and two of the other.
    let queued: Vec<_> = (0..5usize)
        .map(|i| {
            let name = ["m", "other"][i % 2];
            let ids = vec![1 + i, 2, 3];
            (i % 2, ids.clone(), core.scheduler().submit(EncodeRequest::new(name, ids)).unwrap())
        })
        .collect();
    drain_plugs(plugs);
    for (which, ids, rx) in queued {
        let response = rx.recv().unwrap().unwrap();
        assert_eq!(response.model.name, ["m", "other"][which]);
        assert_eq!(response.batch_size, [3, 2][which]);
        let reference = direct[which].encode(&ids, &[]).unwrap();
        assert_eq!(bits(&response.hidden), bits(reference.hidden.as_slice()));
    }
    assert_eq!(core.metrics().batches.load(Ordering::Relaxed), 1 + 2);
    shutdown_and_check_counters(&core);
}

/// A lone request is not held: sequential round trips against an idle
/// pool each go alone, and a free worker takes each one at once. The
/// smallest of 20 waits is well under half a millisecond even on a
/// loaded machine; a scheduler that held a request for company would
/// put every one of them at or past the length of its hold.
#[test]
fn zero_wait_executes_singletons() {
    let _guard = FaultGuard::lock();
    let (core, client) = core_with(SchedulerConfig::default());
    let waits: Vec<u64> = (0..20)
        .map(|_| {
            let response = client.encode(EncodeRequest::new("m", vec![1, 2])).unwrap();
            assert_eq!(response.batch_size, 1);
            response.queue_us
        })
        .collect();
    assert!(waits.iter().min().is_some_and(|&w| w < 500), "every request was held: {waits:?} us");
    assert_eq!(core.metrics().batches.load(Ordering::Relaxed), 20);
    shutdown_and_check_counters(&core);
}

#[test]
fn saturated_queue_rejects_and_expires() {
    let _guard = FaultGuard::lock();
    let (core, _client) = core_with(SchedulerConfig {
        workers: 1,
        max_batch: 8,
        queue_capacity: 3,
        default_deadline: Duration::from_secs(10),
    });
    // Hold the single worker so nothing queued below can be reached.
    let plugs = park_workers(&core, 1);

    // Saturate the queue with requests the busy worker cannot reach.
    let mut queued = Vec::new();
    // One of them carries a deadline that expires while it waits.
    let mut doomed = EncodeRequest::new("m", vec![2, 3]);
    doomed.deadline = Some(Duration::from_millis(100));
    queued.push(core.scheduler().submit(doomed).unwrap());
    for _ in 0..2 {
        queued.push(core.scheduler().submit(EncodeRequest::new("m", vec![2, 3])).unwrap());
    }
    // Queue is now at capacity: admission must reject, not block.
    match core.scheduler().submit(EncodeRequest::new("m", vec![4])) {
        Err(ServeError::QueueFull) => {}
        other => panic!("expected QueueFull, got {other:?}"),
    }
    assert!(core.metrics().rejected_queue_full.load(Ordering::Relaxed) >= 1);

    // The worker eventually reaches everything; the doomed request is
    // rejected with DeadlineExceeded, the rest are served.
    drain_plugs(plugs);
    let replies: Vec<_> = queued.into_iter().map(|rx| rx.recv().unwrap()).collect();
    // The worker was held for HOLD, well past the doomed request's
    // 100ms deadline: it must be rejected, not hung or silently
    // dropped, while the live requests still succeed.
    match &replies[0] {
        Err(ServeError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(replies[1].is_ok());
    assert!(replies[2].is_ok());
    assert!(core.metrics().rejected_deadline.load(Ordering::Relaxed) >= 1);
    shutdown_and_check_counters(&core);
}

#[test]
fn zero_deadline_is_rejected_not_hung() {
    let _guard = FaultGuard::lock();
    let (core, client) = core_with(SchedulerConfig {
        workers: 1,
        max_batch: 1,
        queue_capacity: 64,
        default_deadline: Duration::from_secs(10),
    });
    let mut req = EncodeRequest::new("m", vec![1, 2]);
    req.deadline = Some(Duration::ZERO);
    match client.encode(req) {
        Err(ServeError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(core.metrics().rejected_deadline.load(Ordering::Relaxed) >= 1);
    shutdown_and_check_counters(&core);
}

#[test]
fn unknown_model_fails_cleanly() {
    let _guard = FaultGuard::lock();
    let (core, client) = core_with(SchedulerConfig::default());
    match client.encode(EncodeRequest::new("ghost", vec![1])) {
        Err(ServeError::ModelNotFound { name }) => assert_eq!(name, "ghost"),
        other => panic!("expected ModelNotFound, got {other:?}"),
    }
    // Invalid input (out-of-vocabulary id) comes back as a model error.
    match client.encode(EncodeRequest::new("m", vec![9999])) {
        Err(ServeError::Model(_)) => {}
        other => panic!("expected Model error, got {other:?}"),
    }
    shutdown_and_check_counters(&core);
}

#[test]
fn shutdown_drains_queue_and_rejects_new_work() {
    let _guard = FaultGuard::lock();
    let (core, client) = core_with(SchedulerConfig {
        workers: 2,
        max_batch: 4,
        queue_capacity: 128,
        default_deadline: Duration::from_secs(10),
    });
    let rxs: Vec<_> = (0..20)
        .map(|i| core.scheduler().submit(EncodeRequest::new("m", vec![1 + i % 5])).unwrap())
        .collect();
    core.shutdown(); // blocks until the queue is drained
    for rx in rxs {
        rx.recv().unwrap().unwrap();
    }
    match client.encode(EncodeRequest::new("m", vec![1])) {
        Err(ServeError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    assert_eq!(core.metrics().encode_ok.load(Ordering::Relaxed), 20);
    assert_eq!(core.metrics().queue_depth.load(Ordering::Relaxed), 0);
    shutdown_and_check_counters(&core);
}

/// Register two quantizations of one model; requests pin a width via
/// `bits` and are answered by the matching registration.
#[test]
fn bits_pinning_selects_registration() {
    let _guard = FaultGuard::lock();
    let core = ServeCore::start(ServeOptions::default());
    let client = Client::new(Arc::clone(&core));
    for bits in [2u8, 4] {
        client.register("m", compressed_at(3, bits)).unwrap();
    }
    let mut req = EncodeRequest::new("m", vec![1, 2, 3]);
    req.bits = Some(2);
    let low = client.encode(req).unwrap();
    assert_eq!(low.model.bits, 2);
    let mut req = EncodeRequest::new("m", vec![1, 2, 3]);
    req.bits = Some(4);
    let high = client.encode(req).unwrap();
    assert_eq!(high.model.bits, 4);
    // Different widths genuinely produce different hidden states.
    assert_ne!(low.hidden, high.hidden);
    shutdown_and_check_counters(&core);
}
