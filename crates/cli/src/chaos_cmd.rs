//! `gobo chaos`: scripted fault scenarios against an in-process server.
//!
//! Each scenario arms deterministic `gobo-fault` failpoints (or
//! corrupts container bytes directly), drives a workload, and checks
//! that the stack *degrades* instead of *failing*: injected faults may
//! fail their own requests, but nothing hangs, nothing takes the
//! process down, and a corrupted model is rejected rather than
//! silently served with wrong weights.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gobo::format::reseal_compressed;
use gobo::pipeline::{quantize_model, QuantizeOptions};
use gobo_model::config::ModelConfig;
use gobo_model::TransformerModel;
use gobo_serve::{
    CanaryPolicy, Client, EncodeRequest, RegistryConfig, SchedulerConfig, ServeCore, ServeOptions,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cmd::{Args, CliError};
use crate::format::CompressedModel;

const ALL_SCENARIOS: [&str; 6] = [
    "worker-panic",
    "corrupt-model",
    "queue-overload",
    "node-kill",
    "network-partition",
    "reload-under-load",
];

/// Outcome of one scenario: pass/fail plus human-readable evidence.
struct Scenario {
    name: &'static str,
    passed: bool,
    lines: Vec<String>,
}

/// `gobo chaos`: run the requested scenarios, report, and exit
/// non-zero if any scenario saw a hang, a process-level crash, or a
/// silently-wrong result.
pub(crate) fn chaos(args: &Args) -> Result<String, CliError> {
    let mut scenarios = args.get_all("scenario");
    if scenarios.is_empty() {
        scenarios = ALL_SCENARIOS.to_vec();
    }
    let requests: usize = args.parse_num("requests", 500)?.max(16);
    let corruptions: usize = args.parse_num("corruptions", 10_000)?.max(1);
    let seed: u64 = args.parse_num("seed", 0)?;
    gobo_fault::install_panic_silencer();
    let mut out = String::new();
    let mut failures = 0usize;
    for name in scenarios {
        gobo_fault::reset();
        let result = match name {
            "worker-panic" => worker_panic(requests, seed),
            "corrupt-model" => corrupt_model(corruptions, seed),
            "queue-overload" => queue_overload(requests, seed),
            "node-kill" => node_kill(requests, seed),
            "network-partition" => network_partition(requests, seed),
            "reload-under-load" => reload_under_load(requests, seed),
            other => {
                return Err(CliError::Usage(format!(
                    "unknown scenario `{other}` (have: {})",
                    ALL_SCENARIOS.join(", ")
                )))
            }
        };
        gobo_fault::reset();
        let mut scenario = result?;
        // With the concurrency sanitizer recording (GOBO_SANITIZE=1),
        // a failure-class report during the scenario — a potential
        // deadlock cycle, condvar misuse, blocking I/O under a lock —
        // fails the scenario even if the workload itself degraded
        // gracefully.
        if gobo_sanitize::enabled() {
            let failures: Vec<_> =
                gobo_sanitize::take_reports().into_iter().filter(|r| r.kind.is_failure()).collect();
            if !failures.is_empty() {
                scenario.passed = false;
                for r in failures {
                    scenario.lines.push(format!("sanitizer: {r}"));
                }
            }
        }
        out.push_str(&format!(
            "scenario {:<14} {}\n",
            scenario.name,
            if scenario.passed { "PASS (degraded, not failed)" } else { "FAIL" }
        ));
        for line in &scenario.lines {
            out.push_str(&format!("  {line}\n"));
        }
        if !scenario.passed {
            failures += 1;
        }
    }
    if failures > 0 {
        Err(CliError::Failed(format!("{out}{failures} chaos scenario(s) FAILED")))
    } else {
        out.push_str("all chaos scenarios passed: faults degraded service, nothing hung or lied");
        Ok(out)
    }
}

/// A small but non-trivial quantized model shared by the scenarios.
fn build_compressed(seed: u64) -> Result<CompressedModel, CliError> {
    let config = ModelConfig::tiny("Chaos", 2, 48, 4, 256, 64)
        .map_err(|e| CliError::Failed(format!("invalid chaos geometry: {e}")))?;
    let model = TransformerModel::new(config, &mut StdRng::seed_from_u64(seed))
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let options = QuantizeOptions::gobo(3).map_err(|e| CliError::Failed(e.to_string()))?;
    let outcome = quantize_model(&model, &options).map_err(|e| CliError::Failed(e.to_string()))?;
    Ok(CompressedModel::new(&model, outcome.archive))
}

/// Workers panic on every 5th `serve.encode`. The run must complete
/// with only panic-hit batches failing (as `worker_panic`), the pool
/// must respawn, and throughput must stay within 2x of fault-free.
fn worker_panic(requests: usize, seed: u64) -> Result<Scenario, CliError> {
    let compressed = build_compressed(seed)?;
    let run = |faulted: bool| -> Result<(usize, Vec<&'static str>, u64, Duration), CliError> {
        let core = ServeCore::start(ServeOptions {
            registry: RegistryConfig::default(),
            scheduler: SchedulerConfig {
                workers: 2,
                // A batch fires `serve.encode` once per request, so a
                // batch of 5 would always hold a whole `every=5` period
                // and every batch would panic. 4 leaves batches between
                // the injected ones to succeed.
                max_batch: 4,
                queue_capacity: requests + 64,
                // Generous deadline: the scenario proves requests fail
                // *fast* via WorkerPanic, not via deadline expiry.
                default_deadline: Duration::from_secs(60),
            },
            ..ServeOptions::default()
        });
        let client = Client::new(Arc::clone(&core));
        client.register("chaos", &compressed).map_err(|e| CliError::Failed(e.to_string()))?;
        client
            .encode(EncodeRequest::new("chaos", vec![1, 2, 3]))
            .map_err(|e| CliError::Failed(e.to_string()))?;
        if faulted {
            gobo_fault::configure_str("serve.encode=panic(every=5)")
                .map_err(|e| CliError::Failed(e.to_string()))?;
        }
        let threads = 8usize;
        let per_thread = requests / threads;
        let started = Instant::now();
        let mut joins = Vec::new();
        for t in 0..threads {
            let client = client.clone();
            joins.push(std::thread::spawn(move || {
                let mut ok = 0usize;
                let mut failed: Vec<&'static str> = Vec::new();
                for r in 0..per_thread {
                    let ids: Vec<usize> = (0..16).map(|k| 1 + (t * 31 + r * 7 + k) % 250).collect();
                    match client.encode(EncodeRequest::new("chaos", ids)) {
                        Ok(_) => ok += 1,
                        Err(e) => failed.push(e.code()),
                    }
                }
                (ok, failed)
            }));
        }
        let mut ok = 0usize;
        let mut failed = Vec::new();
        for join in joins {
            let (o, f) =
                join.join().map_err(|_| CliError::Failed("chaos client panicked".into()))?;
            ok += o;
            failed.extend(f);
        }
        let elapsed = started.elapsed();
        gobo_fault::reset();
        let respawns = core.metrics().worker_respawns.load(Ordering::Relaxed);
        core.shutdown();
        Ok((ok, failed, respawns, elapsed))
    };

    let (base_ok, base_failed, _, base_elapsed) = run(false)?;
    let (ok, failed, respawns, elapsed) = run(true)?;
    let non_injected: Vec<&str> =
        failed.iter().copied().filter(|code| *code != "worker_panic").collect();
    // 2x the fault-free run, plus fixed slack for respawn backoff
    // quantisation on fast baselines.
    let budget = base_elapsed * 2 + Duration::from_millis(500);
    let passed = base_failed.is_empty()
        && ok > 0
        && !failed.is_empty()
        && non_injected.is_empty()
        && respawns > 0
        && elapsed <= budget;
    Ok(Scenario {
        name: "worker-panic",
        passed,
        lines: vec![
            format!(
                "fault-free: {base_ok}/{} ok, {} failed, {:?}",
                base_ok + base_failed.len(),
                base_failed.len(),
                base_elapsed
            ),
            format!(
                "serve.encode=panic(every=5): {ok} ok, {} failed (all worker_panic: {}), {:?}",
                failed.len(),
                non_injected.is_empty(),
                elapsed
            ),
            format!("worker respawns: {respawns} (must be > 0)"),
            format!(
                "throughput budget 2x+slack: {:?} <= {:?}: {}",
                elapsed,
                budget,
                elapsed <= budget
            ),
        ],
    })
}

/// Seeded single-byte corruptions and truncations of a `.gobom` file:
/// every mutation must be rejected or parse to byte-identical content
/// — never panic, never yield different weights. Half of the
/// corruptions are then re-sealed (every CRC covering the flipped byte
/// recomputed), so they get past the checksums and reach the field
/// parsers: those must be rejected or parse *stably* — writing the
/// parse back and reading it again gives the same bytes.
fn corrupt_model(corruptions: usize, seed: u64) -> Result<Scenario, CliError> {
    let compressed = build_compressed(seed)?;
    let reference = compressed.to_bytes();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
    let resealed_runs = corruptions / 2;
    let unsealed_runs = corruptions - resealed_runs;
    // Per half (as flipped, re-sealed): rejected, faithful, wrong.
    let mut tally = [[0usize; 3]; 2];
    let mut panics = 0usize;
    let rewrite = |bytes: &[u8]| {
        catch_unwind(AssertUnwindSafe(|| CompressedModel::from_bytes(bytes).map(|m| m.to_bytes())))
    };
    for run in 0..corruptions {
        let resealed = run >= unsealed_runs;
        let mut bytes = reference.clone();
        let pos = rng.gen_range(0..bytes.len());
        let mask = rng.gen_range(1..=255u8);
        bytes[pos] ^= mask;
        if resealed {
            reseal_compressed(&mut bytes);
        }
        let outcome = match rewrite(&bytes) {
            Err(_) => {
                panics += 1;
                continue;
            }
            Ok(Err(_)) => 0,
            // As flipped, re-encoding to the canonical bytes proves the
            // parse saw exactly the original content.
            Ok(Ok(rewritten)) if !resealed => 1 + usize::from(rewritten != reference),
            // Re-sealed, pad and reserved bytes are sealed in too, so
            // byte equality with the input cannot be asked; a fixed
            // point of parse-then-write can.
            Ok(Ok(rewritten)) => match rewrite(&rewritten) {
                Ok(Ok(twice)) if twice == rewritten => 1,
                _ => 2,
            },
        };
        tally[usize::from(resealed)][outcome] += 1;
    }
    let [[rejected, benign, silent], [resealed_rejected, resealed_stable, resealed_unstable]] =
        tally;
    let mut truncations_ok = true;
    for cut in [0usize, 1, 4, 5, reference.len() / 2, reference.len() - 1] {
        match catch_unwind(AssertUnwindSafe(|| CompressedModel::from_bytes(&reference[..cut]))) {
            Ok(Err(_)) => {}
            Ok(Ok(_)) => truncations_ok = false,
            Err(_) => {
                panics += 1;
                truncations_ok = false;
            }
        }
    }
    // The untouched v2 file still loads and serves.
    let serves = {
        let core = ServeCore::start(ServeOptions::default());
        let client = Client::new(Arc::clone(&core));
        let ok = client.register("intact", &compressed).is_ok()
            && client.encode(EncodeRequest::new("intact", vec![1, 2, 3])).is_ok();
        core.shutdown();
        ok
    };
    let passed = panics == 0 && silent == 0 && resealed_unstable == 0 && truncations_ok && serves;
    Ok(Scenario {
        name: "corrupt-model",
        passed,
        lines: vec![
            format!(
                "{unsealed_runs} single-byte corruptions: {rejected} rejected, {benign} benign, \
                 {silent} silently wrong (must be 0), {panics} panics (must be 0)"
            ),
            format!(
                "{resealed_runs} re-sealed corruptions (past every checksum): \
                 {resealed_rejected} rejected by a field parser, {resealed_stable} parsed stably, \
                 {resealed_unstable} unstable (must be 0)"
            ),
            format!("truncations rejected: {truncations_ok}"),
            format!("intact v2 model still serves: {serves}"),
        ],
    })
}

/// A tiny queue plus slowed batches under concurrent load: every
/// request must resolve as ok, queue_full, or deadline_exceeded — no
/// hangs, no other failures — and the server must serve normally once
/// the fault is cleared.
fn queue_overload(requests: usize, seed: u64) -> Result<Scenario, CliError> {
    let compressed = build_compressed(seed)?;
    let core = ServeCore::start(ServeOptions {
        registry: RegistryConfig::default(),
        scheduler: SchedulerConfig {
            workers: 2,
            queue_capacity: 8,
            default_deadline: Duration::from_millis(250),
            ..SchedulerConfig::default()
        },
        ..ServeOptions::default()
    });
    let client = Client::new(Arc::clone(&core));
    client.register("chaos", &compressed).map_err(|e| CliError::Failed(e.to_string()))?;
    client
        .encode(EncodeRequest::new("chaos", vec![1, 2, 3]))
        .map_err(|e| CliError::Failed(e.to_string()))?;
    gobo_fault::configure_str("serve.batch=delay(ms=20)")
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let total = requests.min(200);
    let threads = 16usize;
    let per_thread = (total / threads).max(1);
    let started = Instant::now();
    let mut joins = Vec::new();
    for t in 0..threads {
        let client = client.clone();
        joins.push(std::thread::spawn(move || {
            let mut codes: Vec<&'static str> = Vec::new();
            for r in 0..per_thread {
                let ids: Vec<usize> = (0..8).map(|k| 1 + (t * 13 + r * 5 + k) % 250).collect();
                codes.push(match client.encode(EncodeRequest::new("chaos", ids)) {
                    Ok(_) => "ok",
                    Err(e) => e.code(),
                });
            }
            codes
        }));
    }
    let mut ok = 0usize;
    let mut shed = 0usize;
    let mut other: Vec<&'static str> = Vec::new();
    for join in joins {
        for code in join.join().map_err(|_| CliError::Failed("chaos client panicked".into()))? {
            match code {
                "ok" => ok += 1,
                "queue_full" | "deadline_exceeded" => shed += 1,
                unexpected => other.push(unexpected),
            }
        }
    }
    let elapsed = started.elapsed();
    gobo_fault::reset();
    let recovered = client.encode(EncodeRequest::new("chaos", vec![1, 2, 3])).is_ok();
    core.shutdown();
    let passed = other.is_empty() && ok > 0 && recovered;
    Ok(Scenario {
        name: "queue-overload",
        passed,
        lines: vec![
            format!(
                "{} requests through an 8-slot queue with serve.batch=delay(ms=20): \
                 {ok} ok, {shed} shed (queue_full/deadline_exceeded), {} unexpected ({:?})",
                per_thread * threads,
                other.len(),
                other
            ),
            format!("elapsed {elapsed:?}, no request hung past its deadline"),
            format!("serves normally after faults cleared: {recovered}"),
        ],
    })
}

/// One in-process cluster member for the cluster scenarios.
struct ChaosNode {
    id: String,
    core: Arc<ServeCore>,
    node: gobo_cluster::ClusterNode,
}

/// Deterministic request patterns paired with their direct-encode
/// reference hiddens, for byte-identity checks against routed replies.
type ReferencePatterns = Vec<(Vec<usize>, Vec<f32>)>;

/// Three nodes serving the same model as "chaos", fronted by a router
/// with RF=2, fast heartbeats (25ms, dead after 2 misses), and a fixed
/// 10ms hedge delay, plus per-pattern direct-encode references for
/// byte-identity checks.
fn build_cluster(
    seed: u64,
) -> Result<(Vec<ChaosNode>, Arc<gobo_cluster::Router>, ReferencePatterns), CliError> {
    let compressed = build_compressed(seed)?;
    let mut nodes = Vec::new();
    for i in 0..3 {
        let core = ServeCore::start(ServeOptions {
            registry: RegistryConfig::default(),
            scheduler: SchedulerConfig {
                workers: 2,
                queue_capacity: 4096,
                ..SchedulerConfig::default()
            },
            ..ServeOptions::default()
        });
        Client::new(Arc::clone(&core))
            .register("chaos", &compressed)
            .map_err(|e| CliError::Failed(e.to_string()))?;
        let node = gobo_cluster::ClusterNode::start(Arc::clone(&core), "127.0.0.1:0")
            .map_err(|e| CliError::Failed(format!("cluster node bind: {e}")))?;
        nodes.push(ChaosNode { id: format!("n{}", i + 1), core, node });
    }
    let config = gobo_cluster::RouterConfig {
        heartbeat_interval: Duration::from_millis(25),
        heartbeat_timeout: Duration::from_millis(250),
        dead_after: 2,
        // Generous fixed hedge: debug-build compute alone can take
        // ~10ms, and a healthy-path hedge storm would drown the
        // signal. The partitioned primary never answers at all, so
        // 25ms still rescues those requests quickly.
        hedge_after: Some(Duration::from_millis(25)),
        ..gobo_cluster::RouterConfig::default()
    };
    let router = Arc::new(gobo_cluster::Router::new(config));
    for n in &nodes {
        router.add_node(n.id.clone(), n.node.local_addr().to_string());
    }
    router.start();
    // Deterministic request patterns with direct-encode references:
    // routed responses must be bit-identical to these, whichever
    // replica answers.
    let reference_client = Client::new(Arc::clone(&nodes[0].core));
    let mut patterns = Vec::new();
    for p in 0..8usize {
        let ids: Vec<usize> = (0..12).map(|k| 1 + (p * 37 + k * 11) % 250).collect();
        let direct = reference_client
            .encode(EncodeRequest::new("chaos", ids.clone()))
            .map_err(|e| CliError::Failed(e.to_string()))?;
        patterns.push((ids, direct.hidden));
    }
    Ok((nodes, router, patterns))
}

/// Drives `total` routed encodes across 4 threads — and goes on past
/// `total` for as long as `hold_open` is set — cycling the reference
/// patterns, and returns `(ok, errors, mismatches)`. The `completed`
/// counter is shared so a caller can trigger faults mid-load.
fn drive_routed(
    router: &Arc<gobo_cluster::Router>,
    patterns: &[(Vec<usize>, Vec<f32>)],
    total: usize,
    completed: &Arc<AtomicUsize>,
    hold_open: &Arc<AtomicBool>,
) -> Result<(usize, Vec<String>, usize), CliError> {
    let threads = 4usize;
    let per_thread = (total / threads).max(1);
    let mut joins = Vec::new();
    for t in 0..threads {
        let router = Arc::clone(router);
        let patterns = patterns.to_vec();
        let completed = Arc::clone(completed);
        let hold_open = Arc::clone(hold_open);
        joins.push(std::thread::spawn(move || {
            let mut ok = 0usize;
            let mut errors: Vec<String> = Vec::new();
            let mut mismatches = 0usize;
            let mut r = 0usize;
            while r < per_thread || hold_open.load(Ordering::Relaxed) {
                let (ids, want) = &patterns[(t * per_thread + r) % patterns.len()];
                let ids_u32: Vec<u32> = ids.iter().map(|&v| v as u32).collect();
                match router.encode("chaos", None, &ids_u32, &[], 0) {
                    Ok(response) => {
                        let identical = response.hidden.len() == want.len()
                            && response
                                .hidden
                                .iter()
                                .zip(want.iter())
                                .all(|(a, b)| a.to_bits() == b.to_bits());
                        if identical {
                            ok += 1;
                        } else {
                            mismatches += 1;
                        }
                    }
                    Err(e) => errors.push(format!("{}: {e}", e.code())),
                }
                completed.fetch_add(1, Ordering::Relaxed);
                r += 1;
            }
            (ok, errors, mismatches)
        }));
    }
    let mut ok = 0usize;
    let mut errors = Vec::new();
    let mut mismatches = 0usize;
    for join in joins {
        let (o, e, m) =
            join.join().map_err(|_| CliError::Failed("chaos cluster client panicked".into()))?;
        ok += o;
        errors.extend(e);
        mismatches += m;
    }
    Ok((ok, errors, mismatches))
}

/// Waits until `predicate` holds on the router, up to 5 seconds.
fn poll_router(
    router: &gobo_cluster::Router,
    predicate: impl Fn(&gobo_cluster::Router) -> bool,
) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if predicate(router) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

/// Kills the primary replica for the model key mid-load (process gone,
/// connections reset). With RF=2 over 3 nodes, every request must
/// still succeed byte-identically: in-flight requests fail over, the
/// heartbeat marks the node dead (`gobo_cluster_node_down 1`), and
/// later requests route straight to the survivors.
fn node_kill(requests: usize, seed: u64) -> Result<Scenario, CliError> {
    let (mut nodes, router, patterns) = build_cluster(seed)?;
    let total = requests.clamp(64, 400);
    let completed = Arc::new(AtomicUsize::new(0));
    let hold_open = Arc::new(AtomicBool::new(true));
    let driver = {
        let router = Arc::clone(&router);
        let patterns = patterns.clone();
        let completed = Arc::clone(&completed);
        let hold_open = Arc::clone(&hold_open);
        std::thread::spawn(move || drive_routed(&router, &patterns, total, &completed, &hold_open))
    };
    // Kill once a third of the nominal load has gone through.
    let patience = Instant::now() + Duration::from_secs(30);
    while completed.load(Ordering::Relaxed) < total / 3 && Instant::now() < patience {
        std::thread::sleep(Duration::from_millis(1));
    }
    // The victim is whoever is first *now*: `replicas_for` re-ranks the
    // replicas by heartbeat-reported queue depth, so a primary picked
    // before the load started need not be the node taking the traffic.
    let victim = {
        let ordered = router.replicas_for("chaos", None);
        let primary = ordered.first().map(|n| n.id.clone()).unwrap_or_default();
        nodes.iter().position(|n| n.id == primary).unwrap_or(0)
    };
    nodes[victim].node.shutdown();
    nodes[victim].core.shutdown();
    let victim_id = nodes[victim].id.clone();
    // The load stays on until the heartbeat has noticed, so requests
    // meet the dead node however fast they are served.
    let marked_dead =
        poll_router(&router, |r| r.membership().iter().filter(|n| !n.healthy).count() == 1);
    hold_open.store(false, Ordering::Relaxed);
    let (ok, errors, mismatches) =
        driver.join().map_err(|_| CliError::Failed("chaos driver panicked".into()))??;
    let sent = completed.load(Ordering::Relaxed);

    let metrics_text = router.render_metrics();
    let node_down = metrics_text.contains("gobo_cluster_node_down 1");
    let m = router.metrics();
    let failovers = m.failovers.load(Ordering::Relaxed);
    let hedge_fires = m.hedge_fires.load(Ordering::Relaxed);
    let mark_dead = m.mark_dead.load(Ordering::Relaxed);
    let rerouted = router.replicas_for("chaos", None).iter().all(|n| n.id != victim_id);
    router.shutdown();

    let passed = errors.is_empty()
        && mismatches == 0
        && ok == sent
        && sent >= total / 4 * 4
        && (failovers + hedge_fires) >= 1
        && marked_dead
        && node_down
        && mark_dead >= 1
        && rerouted;
    Ok(Scenario {
        name: "node-kill",
        passed,
        lines: vec![
            format!(
                "{ok}/{sent} routed encodes ok, {} errors (must be 0), {mismatches} \
                 byte-mismatches (must be 0); primary `{victim_id}` killed mid-load",
                errors.len()
            ),
            format!("failovers {failovers} + hedge fires {hedge_fires} (sum must be >= 1)"),
            format!(
                "heartbeat marked victim dead: {marked_dead}, \
                 gobo_cluster_node_down 1: {node_down}, mark_dead_total {mark_dead}"
            ),
            format!("victim out of the replica set after rebalance: {rerouted}"),
        ],
    })
}

/// Partitions the primary asymmetrically (requests are received but
/// never answered — no resets, just silence). Hedged requests must
/// rescue every in-flight encode, the heartbeat must mark the node
/// dead, and after the partition heals the node must be marked alive
/// and serve again.
fn network_partition(requests: usize, seed: u64) -> Result<Scenario, CliError> {
    let (nodes, router, patterns) = build_cluster(seed)?;
    let total = requests.clamp(64, 400);
    let completed = Arc::new(AtomicUsize::new(0));
    let fixed_load = Arc::new(AtomicBool::new(false));

    let victim = {
        let ordered = router.replicas_for("chaos", None);
        let primary = ordered.first().map(|n| n.id.clone()).unwrap_or_default();
        nodes.iter().position(|n| n.id == primary).unwrap_or(0)
    };
    nodes[victim].node.set_partitioned(true);

    let (ok, errors, mismatches) =
        drive_routed(&router, &patterns, total, &completed, &fixed_load)?;
    let marked_dead =
        poll_router(&router, |r| r.membership().iter().filter(|n| !n.healthy).count() == 1);

    // Heal: the node must rejoin and serve again.
    nodes[victim].node.set_partitioned(false);
    let marked_alive = poll_router(&router, |r| r.membership().iter().all(|n| n.healthy));
    let (ok2, errors2, mismatches2) =
        drive_routed(&router, &patterns, 32, &completed, &fixed_load)?;

    let m = router.metrics();
    let hedge_wins = m.hedge_wins.load(Ordering::Relaxed);
    let mark_dead = m.mark_dead.load(Ordering::Relaxed);
    let mark_alive = m.mark_alive.load(Ordering::Relaxed);
    router.shutdown();

    let passed = errors.is_empty()
        && errors2.is_empty()
        && mismatches + mismatches2 == 0
        && ok + ok2 > 0
        && hedge_wins >= 1
        && marked_dead
        && mark_dead >= 1
        && marked_alive
        && mark_alive >= 1;
    Ok(Scenario {
        name: "network-partition",
        passed,
        lines: vec![
            format!(
                "partitioned: {ok} ok, {} errors (must be 0), {mismatches} byte-mismatches; \
                 hedge wins {hedge_wins} (must be >= 1)",
                errors.len()
            ),
            format!("heartbeat marked partitioned node dead: {marked_dead} (mark_dead_total {mark_dead})"),
            format!(
                "healed: marked alive again {marked_alive} (mark_alive_total {mark_alive}); \
                 {ok2} ok, {} errors after heal",
                errors2.len()
            ),
        ],
    })
}

/// Bit-exact comparison of a served hidden tensor against a reference.
fn bits_match(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Nearest-rank p99 of a latency sample set, microseconds.
fn p99_us(samples: &[u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[(sorted.len() * 99 / 100).min(sorted.len() - 1)]
}

/// Drives `total` encodes of the reference patterns across 4 threads.
/// Every response must be byte-identical to one of the two published
/// revisions; returns `(ok, errors, mismatches, latencies_us)`.
fn drive_lifecycle_load(
    client: &Client,
    patterns: &[Vec<usize>],
    ref_a: &[Vec<f32>],
    ref_b: &[Vec<f32>],
    total: usize,
) -> Result<(usize, Vec<String>, usize, Vec<u64>), CliError> {
    let threads = 4usize;
    let per_thread = (total / threads).max(1);
    let mut joins = Vec::new();
    for t in 0..threads {
        let client = client.clone();
        let patterns = patterns.to_vec();
        let ref_a = ref_a.to_vec();
        let ref_b = ref_b.to_vec();
        joins.push(std::thread::spawn(move || {
            let mut ok = 0usize;
            let mut errors: Vec<String> = Vec::new();
            let mut mismatches = 0usize;
            let mut latencies = Vec::with_capacity(per_thread);
            for r in 0..per_thread {
                let p = (t * per_thread + r) % patterns.len();
                let started = Instant::now();
                match client.encode(EncodeRequest::new("chaos", patterns[p].clone())) {
                    Ok(response) => {
                        latencies.push(started.elapsed().as_micros() as u64);
                        if bits_match(&response.hidden, &ref_a[p])
                            || bits_match(&response.hidden, &ref_b[p])
                        {
                            ok += 1;
                        } else {
                            mismatches += 1;
                        }
                    }
                    Err(e) => errors.push(e.code().to_owned()),
                }
            }
            (ok, errors, mismatches, latencies)
        }));
    }
    let mut ok = 0usize;
    let mut errors = Vec::new();
    let mut mismatches = 0usize;
    let mut latencies = Vec::new();
    for join in joins {
        let (o, e, m, l) =
            join.join().map_err(|_| CliError::Failed("chaos lifecycle client panicked".into()))?;
        ok += o;
        errors.extend(e);
        mismatches += m;
        latencies.extend(l);
    }
    Ok((ok, errors, mismatches, latencies))
}

/// Hot-reload storm under continuous load, in two phases.
///
/// Phase 1: two revisions of the "chaos" slot are published
/// alternately through the CRC-validated `reload` path at least 50
/// times while 4 client threads hammer the slot, with `registry.swap`
/// and `registry.load` failpoints armed probabilistically. Rejected
/// publishes must leave the registry untouched; every client response
/// must be byte-identical to one of the two revisions; after the storm
/// the draining list must drain to empty (no refcount leaks).
///
/// Phase 2: canary auto-rollback. An erroring canary
/// (`serve.canary=error`) must roll back immediately with the failed
/// batches transparently re-run on the active revision; a slow canary
/// (`serve.canary=delay`) must roll back on the p95 comparison; and
/// once rolled back, active-path p99 must return to within 2x the
/// fault-free baseline.
fn reload_under_load(requests: usize, seed: u64) -> Result<Scenario, CliError> {
    let model_a = build_compressed(seed ^ 0xA)?;
    let model_b = build_compressed(seed ^ 0xB)?;

    // On-disk artifacts: reloads go through the CRC-validated path.
    let dir = std::env::temp_dir().join("gobo-chaos-reload");
    std::fs::create_dir_all(&dir)?;
    let path_a = dir.join("a.gobom");
    let path_b = dir.join("b.gobom");
    std::fs::write(&path_a, model_a.to_bytes())?;
    std::fs::write(&path_b, model_b.to_bytes())?;
    let path_a = path_a.to_string_lossy().into_owned();
    let path_b = path_b.to_string_lossy().into_owned();

    // Reference outputs for every pattern from both revisions, served
    // through the same scheduler path the load threads use.
    let patterns: Vec<Vec<usize>> =
        (0..8usize).map(|p| (0..12).map(|k| 1 + (p * 37 + k * 11) % 250).collect()).collect();
    let (ref_a, ref_b) = {
        let core = ServeCore::start(ServeOptions::default());
        let client = Client::new(Arc::clone(&core));
        client.register("a", &model_a).map_err(|e| CliError::Failed(e.to_string()))?;
        client.register("b", &model_b).map_err(|e| CliError::Failed(e.to_string()))?;
        let refs = |name: &str| -> Result<Vec<Vec<f32>>, CliError> {
            patterns
                .iter()
                .map(|ids| {
                    client
                        .encode(EncodeRequest::new(name, ids.clone()))
                        .map(|r| r.hidden)
                        .map_err(|e| CliError::Failed(e.to_string()))
                })
                .collect()
        };
        let a = refs("a")?;
        let b = refs("b")?;
        core.shutdown();
        (a, b)
    };

    let core = ServeCore::start(ServeOptions {
        registry: RegistryConfig::default(),
        scheduler: SchedulerConfig {
            workers: 2,
            queue_capacity: 4096,
            default_deadline: Duration::from_secs(60),
            ..SchedulerConfig::default()
        },
        lifecycle: CanaryPolicy {
            traffic_pct: 50,
            window: 4,
            p95_factor_pct: 300,
            min_baseline: 2,
        },
    });
    let client = Client::new(Arc::clone(&core));
    client.register("chaos", &model_a).map_err(|e| CliError::Failed(e.to_string()))?;
    client
        .encode(EncodeRequest::new("chaos", patterns[0].clone()))
        .map_err(|e| CliError::Failed(e.to_string()))?;

    // ---- Phase 1: publish storm under continuous load ----
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut loaders = Vec::new();
    for t in 0..4usize {
        let client = client.clone();
        let patterns = patterns.clone();
        let ref_a = ref_a.clone();
        let ref_b = ref_b.clone();
        let stop = Arc::clone(&stop);
        loaders.push(std::thread::spawn(move || {
            let mut ok = 0usize;
            let mut errors: Vec<String> = Vec::new();
            let mut mismatches = 0usize;
            let mut r = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let p = (t * 31 + r) % patterns.len();
                r += 1;
                match client.encode(EncodeRequest::new("chaos", patterns[p].clone())) {
                    Ok(response) => {
                        if bits_match(&response.hidden, &ref_a[p])
                            || bits_match(&response.hidden, &ref_b[p])
                        {
                            ok += 1;
                        } else {
                            mismatches += 1;
                        }
                    }
                    Err(e) => errors.push(e.code().to_owned()),
                }
            }
            (ok, errors, mismatches)
        }));
    }

    gobo_fault::configure_str("registry.swap=error(p=0.3,seed=11)")
        .map_err(|e| CliError::Failed(e.to_string()))?;
    gobo_fault::configure_str("registry.load=error(p=0.15,seed=13)")
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut attempts = 0usize;
    let mut published = 0usize;
    let mut rejected = 0usize;
    let mut forced_rollbacks = 0usize;
    let mut verdict_waits = 0usize;
    let mut stuck = 0usize;
    while attempts < 200 && (attempts < 50 || published < 25) {
        attempts += 1;
        let path = if attempts.is_multiple_of(2) { &path_a } else { &path_b };
        match core.reload("chaos", path) {
            Ok((entry, _)) => {
                published += 1;
                let key = entry.key.clone();
                if rng.gen_bool(0.5) {
                    // Operator-style rollback of a pending canary.
                    core.registry().rollback(&key);
                    forced_rollbacks += 1;
                } else {
                    // Let live traffic drive the canary to a verdict.
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while core.registry().canary_for(&key).is_some() && Instant::now() < deadline {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    if core.registry().canary_for(&key).is_some() {
                        stuck += 1;
                        core.registry().rollback(&key);
                    } else {
                        verdict_waits += 1;
                    }
                }
            }
            Err(_) => rejected += 1,
        }
    }
    let swap_fires = gobo_fault::fires("registry.swap");
    gobo_fault::reset();

    stop.store(true, Ordering::Relaxed);
    let mut storm_ok = 0usize;
    let mut storm_errors: Vec<String> = Vec::new();
    let mut storm_mismatches = 0usize;
    for join in loaders {
        let (o, e, m) =
            join.join().map_err(|_| CliError::Failed("chaos lifecycle loader panicked".into()))?;
        storm_ok += o;
        storm_errors.extend(e);
        storm_mismatches += m;
    }

    // Refcount proof: with the load gone, every superseded revision
    // must retire — the draining list drains to empty.
    let drain_deadline = Instant::now() + Duration::from_secs(5);
    loop {
        core.registry().sweep();
        if core.registry().draining_len() == 0 || Instant::now() > drain_deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let drained = core.registry().draining_len() == 0;

    // ---- Phase 2: canary auto-rollback and post-rollback latency ----
    let phase_total = requests.clamp(64, 400);
    let (base_ok, base_errors, base_mismatches, base_lat) =
        drive_lifecycle_load(&client, &patterns, &ref_a, &ref_b, phase_total)?;
    let p99_base = p99_us(&base_lat);

    // (a) An erroring canary rolls back immediately; its batches are
    // transparently re-run on the active revision.
    let rollbacks_before = core.metrics().canary_rollbacks.load(Ordering::Relaxed);
    gobo_fault::configure_str("serve.canary=error").map_err(|e| CliError::Failed(e.to_string()))?;
    let (entry, _) = core.reload("chaos", &path_b).map_err(|e| CliError::Failed(e.to_string()))?;
    let error_key = entry.key.clone();
    let mut error_phase_errors: Vec<String> = Vec::new();
    let mut error_rounds = 0usize;
    while core.registry().canary_for(&error_key).is_some() && error_rounds < 20 {
        error_rounds += 1;
        let (_, e, m, _) = drive_lifecycle_load(&client, &patterns, &ref_a, &ref_b, 16)?;
        error_phase_errors.extend(e);
        if m > 0 {
            error_phase_errors.push(format!("{m} byte-mismatches under erroring canary"));
        }
    }
    gobo_fault::reset();
    let error_rollback = core.metrics().canary_rollbacks.load(Ordering::Relaxed) > rollbacks_before
        && core.registry().canary_for(&error_key).is_none();

    // (b) A slow canary rolls back on the p95 comparison...
    let rollbacks_before_slow = core.metrics().canary_rollbacks.load(Ordering::Relaxed);
    // 250ms dwarfs any debug-build batch compute time, so the canary
    // p95 lands well past the 3x policy factor regardless of batch
    // size.
    gobo_fault::configure_str("serve.canary=delay(ms=250)")
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let (entry, _) = core.reload("chaos", &path_a).map_err(|e| CliError::Failed(e.to_string()))?;
    let slow_key = entry.key.clone();
    let mut slow_phase_errors: Vec<String> = Vec::new();
    let mut slow_rounds = 0usize;
    while core.registry().canary_for(&slow_key).is_some() && slow_rounds < 20 {
        slow_rounds += 1;
        let (_, e, m, _) = drive_lifecycle_load(&client, &patterns, &ref_a, &ref_b, 16)?;
        slow_phase_errors.extend(e);
        if m > 0 {
            slow_phase_errors.push(format!("{m} byte-mismatches under slow canary"));
        }
    }
    let slow_rollback = core.metrics().canary_rollbacks.load(Ordering::Relaxed)
        > rollbacks_before_slow
        && core.registry().canary_for(&slow_key).is_none();

    // ...and with the canary gone the armed delay is unreachable:
    // active-path p99 must return to within 2x the fault-free
    // baseline (plus fixed slack for debug-build scheduler jitter).
    let (after_ok, after_errors, after_mismatches, after_lat) =
        drive_lifecycle_load(&client, &patterns, &ref_a, &ref_b, phase_total)?;
    gobo_fault::reset();
    let p99_after = p99_us(&after_lat);
    let p99_budget = p99_base.saturating_mul(2) + 10_000;
    let p99_ok = p99_after <= p99_budget;

    core.shutdown();

    let passed = storm_errors.is_empty()
        && storm_mismatches == 0
        && storm_ok > 0
        && attempts >= 50
        && published >= 25
        && rejected >= 1
        && swap_fires >= 1
        && stuck == 0
        && drained
        && base_errors.is_empty()
        && base_mismatches == 0
        && base_ok > 0
        && error_phase_errors.is_empty()
        && error_rollback
        && slow_phase_errors.is_empty()
        && slow_rollback
        && after_errors.is_empty()
        && after_mismatches == 0
        && after_ok > 0
        && p99_ok;
    Ok(Scenario {
        name: "reload-under-load",
        passed,
        lines: vec![
            format!(
                "publish storm: {attempts} attempts, {published} published, {rejected} rejected \
                 (registry.swap fired {swap_fires}x), {forced_rollbacks} operator rollbacks, \
                 {verdict_waits} canary verdicts, {stuck} stuck (must be 0)"
            ),
            format!(
                "under load: {storm_ok} ok, {} errors (must be 0), {storm_mismatches} \
                 byte-mismatches (must be 0, every response identical to rev A or rev B)",
                storm_errors.len()
            ),
            format!("draining list empty after storm (no refcount leaks): {drained}"),
            format!(
                "erroring canary rolled back with transparent fallback: {error_rollback}, \
                 {} client errors (must be 0)",
                error_phase_errors.len()
            ),
            format!(
                "slow canary rolled back on p95 regression: {slow_rollback}, \
                 {} client errors (must be 0)",
                slow_phase_errors.len()
            ),
            format!(
                "post-rollback p99 {p99_after}us <= 2x baseline {p99_base}us (+10ms slack): {p99_ok}"
            ),
        ],
    })
}

#[cfg(test)]
mod tests {
    use crate::cmd::run_str;

    /// Only the corruption scenario runs in unit tests: it arms no
    /// global failpoints, so it cannot interfere with other tests
    /// sharing this process.
    #[test]
    fn chaos_corrupt_model_scenario_passes() {
        let msg = run_str(&[
            "chaos",
            "--scenario",
            "corrupt-model",
            "--corruptions",
            "200",
            "--seed",
            "7",
        ])
        .unwrap();
        assert!(msg.contains("corrupt-model"), "{msg}");
        assert!(msg.contains("PASS"), "{msg}");
        assert!(msg.contains("0 silently wrong"), "{msg}");
    }

    #[test]
    fn chaos_rejects_unknown_scenario() {
        let err = run_str(&["chaos", "--scenario", "meteor-strike"]).unwrap_err();
        assert!(err.to_string().contains("unknown scenario"), "{err}");
    }
}
