//! Scheduler behaviour: batch coalescing boundaries, deadline expiry
//! under saturation, admission-control rejection, graceful drain, and
//! byte-identical parity with direct `TransformerModel::encode` calls
//! at every batch size.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use gobo::format::CompressedModel;
use gobo::pipeline::{quantize_model, QuantizeOptions};
use gobo_model::config::ModelConfig;
use gobo_model::TransformerModel;
use gobo_serve::{
    Client, EncodeRequest, RegistryConfig, SchedulerConfig, ServeCore, ServeError, ServeOptions,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn compressed(seed: u64) -> CompressedModel {
    let config = ModelConfig::tiny("Sched", 1, 16, 2, 40, 12).unwrap();
    let model = TransformerModel::new(config, &mut StdRng::seed_from_u64(seed)).unwrap();
    let outcome = quantize_model(&model, &QuantizeOptions::gobo(3).unwrap()).unwrap();
    CompressedModel::new(&model, outcome.archive)
}

fn core_with(scheduler: SchedulerConfig) -> (Arc<ServeCore>, Client) {
    let core = ServeCore::start(ServeOptions {
        registry: RegistryConfig::default(),
        scheduler,
        ..ServeOptions::default()
    });
    let client = Client::new(Arc::clone(&core));
    client.register("m", &compressed(1)).unwrap();
    (core, client)
}

#[test]
fn coalesces_up_to_max_batch() {
    let (core, client) = core_with(SchedulerConfig {
        workers: 1,
        max_batch: 4,
        max_wait: Duration::from_millis(300),
        queue_capacity: 64,
        default_deadline: Duration::from_secs(10),
    });
    // Six quick submissions against one worker with a generous
    // coalescing window: the worker must form batches of at most 4 and
    // at least one multi-request batch.
    let rxs: Vec<_> = (0..6)
        .map(|i| core.scheduler().submit(EncodeRequest::new("m", vec![1 + i % 3, 2, 3])).unwrap())
        .collect();
    let mut sizes = Vec::new();
    for rx in rxs {
        let response = rx.recv().unwrap().unwrap();
        assert!(response.batch_size <= 4, "batch {} exceeds max_batch", response.batch_size);
        sizes.push(response.batch_size);
    }
    assert!(sizes.iter().any(|&s| s > 1), "no coalescing happened: {sizes:?}");
    let metrics = core.metrics();
    assert!(metrics.batches.load(Ordering::Relaxed) >= 2);
    assert_eq!(metrics.batched_requests.load(Ordering::Relaxed), 6);
    assert!(metrics.batch_size_max.load(Ordering::Relaxed) <= 4);
    drop(client);
    core.shutdown();
}

/// A pipelined window fills `max_batch` exactly. One worker and a
/// coalescing window far longer than 32 submissions take: the worker
/// that claims the first request keeps sweeping the queue until the
/// batch is full, so all 32 ride one batch — the regression where
/// coalescing fragmented at 4 would show up as `batch_size_max <= 4`.
/// Every reply must still be byte-identical to a direct encode.
#[test]
fn pipelined_window_coalesces_to_max_batch_32() {
    let container = compressed(1);
    let direct = container.decode().unwrap();
    let (core, client) = core_with(SchedulerConfig {
        workers: 1,
        max_batch: 32,
        max_wait: Duration::from_secs(5),
        queue_capacity: 64,
        default_deadline: Duration::from_secs(30),
    });
    // Submit the whole window before reading any reply.
    let pending: Vec<_> = (0..32usize)
        .map(|i| {
            let ids = vec![1 + i % 7, 2 + i % 3, 3];
            let rx = core.scheduler().submit(EncodeRequest::new("m", ids.clone())).unwrap();
            (ids, rx)
        })
        .collect();
    for (ids, rx) in pending {
        let response = rx.recv().unwrap().unwrap();
        assert_eq!(response.batch_size, 32);
        let reference = direct.encode(&ids, &[]).unwrap();
        let bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&response.hidden), bits(reference.hidden.as_slice()));
        assert_eq!(bits(&response.pooled.unwrap()), bits(reference.pooled.unwrap().as_slice()));
    }
    let metrics = core.metrics();
    assert_eq!(metrics.batch_size_max.load(Ordering::Relaxed), 32);
    assert_eq!(metrics.batches.load(Ordering::Relaxed), 1);
    drop(client);
    core.shutdown();
}

#[test]
fn zero_wait_executes_singletons() {
    let (core, client) = core_with(SchedulerConfig {
        workers: 1,
        max_batch: 8,
        max_wait: Duration::ZERO,
        queue_capacity: 64,
        default_deadline: Duration::from_secs(10),
    });
    // Sequential round trips with max_wait == 0: nothing to coalesce,
    // every batch is size 1.
    for _ in 0..4 {
        let response = client.encode(EncodeRequest::new("m", vec![1, 2])).unwrap();
        assert_eq!(response.batch_size, 1);
    }
    assert_eq!(core.metrics().batches.load(Ordering::Relaxed), 4);
    core.shutdown();
}

#[test]
fn saturated_queue_rejects_and_expires() {
    let (core, client) = core_with(SchedulerConfig {
        workers: 1,
        max_batch: 8,
        max_wait: Duration::from_millis(400),
        queue_capacity: 3,
        default_deadline: Duration::from_secs(10),
    });
    // Occupy the single worker with a *different* model: it pops this
    // request immediately and then coalesce-waits 400ms for more
    // "plug" traffic, so queued "m" requests cannot be absorbed into
    // its batch.
    client.register("plug", &compressed(2)).unwrap();
    let plug = core.scheduler().submit(EncodeRequest::new("plug", vec![1])).unwrap();
    std::thread::sleep(Duration::from_millis(50));

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
    plug.recv().unwrap().unwrap();
    let replies: Vec<_> = queued.into_iter().map(|rx| rx.recv().unwrap()).collect();
    // The worker was pinned on "plug" for ~400ms, well past the doomed
    // request's 100ms deadline: it must be rejected, not hung or
    // silently dropped, while the live requests still succeed.
    match &replies[0] {
        Err(ServeError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(replies[1].is_ok());
    assert!(replies[2].is_ok());
    assert!(core.metrics().rejected_deadline.load(Ordering::Relaxed) >= 1);
    drop(client);
    core.shutdown();
}

#[test]
fn zero_deadline_is_rejected_not_hung() {
    let (core, client) = core_with(SchedulerConfig {
        workers: 1,
        max_batch: 1,
        max_wait: Duration::ZERO,
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
    core.shutdown();
}

#[test]
fn unknown_model_fails_cleanly() {
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
    core.shutdown();
}

#[test]
fn shutdown_drains_queue_and_rejects_new_work() {
    let (core, client) = core_with(SchedulerConfig {
        workers: 2,
        max_batch: 4,
        max_wait: Duration::from_millis(5),
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
}

/// Served outputs must be byte-identical to direct
/// `TransformerModel::encode` calls for the same token ids, at every
/// batch size.
#[test]
fn served_outputs_byte_identical_at_every_batch_size() {
    let container = compressed(7);
    let direct = container.decode().unwrap();
    for max_batch in [1usize, 8, 32] {
        let core = ServeCore::start(ServeOptions {
            registry: RegistryConfig::default(),
            scheduler: SchedulerConfig {
                workers: 2,
                max_batch,
                max_wait: Duration::from_millis(20),
                queue_capacity: 256,
                default_deadline: Duration::from_secs(30),
            },
            ..ServeOptions::default()
        });
        let client = Client::new(Arc::clone(&core));
        client.register("m", &container).unwrap();

        // Concurrent clients so coalescing actually happens.
        let mut joins = Vec::new();
        for t in 0..4usize {
            let client = client.clone();
            joins.push(std::thread::spawn(move || {
                let mut out = Vec::new();
                for i in 0..8usize {
                    let ids = vec![1 + (t + i) % 6, 2 + i % 3, 3];
                    let response = client.encode(EncodeRequest::new("m", ids.clone())).unwrap();
                    out.push((ids, response));
                }
                out
            }));
        }
        for join in joins {
            for (ids, response) in join.join().unwrap() {
                let reference = direct.encode(&ids, &[]).unwrap();
                let ref_hidden = reference.hidden.as_slice();
                assert_eq!(response.hidden.len(), ref_hidden.len());
                for (a, b) in response.hidden.iter().zip(ref_hidden) {
                    assert_eq!(a.to_bits(), b.to_bits(), "max_batch {max_batch}");
                }
                let ref_pooled = reference.pooled.unwrap();
                let got_pooled = response.pooled.unwrap();
                for (a, b) in got_pooled.iter().zip(ref_pooled.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "max_batch {max_batch}");
                }
                assert!(response.batch_size >= 1 && response.batch_size <= max_batch);
            }
        }
        core.shutdown();
    }
}

/// Register two quantizations of one model; requests pin a width via
/// `bits` and are answered by the matching registration.
#[test]
fn bits_pinning_selects_registration() {
    let core = ServeCore::start(ServeOptions::default());
    let client = Client::new(Arc::clone(&core));
    let config = ModelConfig::tiny("Sched", 1, 16, 2, 40, 12).unwrap();
    let model = TransformerModel::new(config, &mut StdRng::seed_from_u64(3)).unwrap();
    for bits in [2u8, 4] {
        let outcome = quantize_model(&model, &QuantizeOptions::gobo(bits).unwrap()).unwrap();
        client.register("m", &CompressedModel::new(&model, outcome.archive)).unwrap();
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
    core.shutdown();
}
