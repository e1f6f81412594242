//! `gobo chaos`: scripted fault scenarios against an in-process server.
//!
//! Each scenario arms deterministic `gobo-fault` failpoints (or
//! corrupts container bytes directly), drives a workload, and checks
//! that the stack *degrades* instead of *failing*: injected faults may
//! fail their own requests, but nothing hangs, nothing takes the
//! process down, and a corrupted model is rejected rather than
//! silently served with wrong weights.
//!
//! A scenario is a row of [`SCENARIOS`]. Its function only says what is
//! particular to it — the fault, the load's shape, what must hold; the
//! load loop, the model, the reference outputs, the cores and the
//! cluster come from [`crate::harness`], and it reports through a
//! [`Verdict`], which is also what decides PASS.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use gobo::format::{reseal_compressed, CompressedModel};
use gobo::pipeline::QuantizeOptions;
use gobo_serve::{CanaryPolicy, SchedulerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cmd::{failed, Args, CliError};
use crate::harness::{
    build_model, drains, drive, drive_during, primary, routed, served, start_core, two_workers,
    unhealthy, wait_until, Cluster, Load, Patterns, Tally, Verdict, MODEL, QUICK_CANARY,
};

/// What the command line gives every scenario.
struct Knobs {
    requests: usize,
    corruptions: usize,
    seed: u64,
}

/// One row of the table.
struct Scenario {
    /// The `--scenario` value.
    name: &'static str,
    /// What it does and proves — the one sentence the usage error,
    /// README and DESIGN §9 describe it by.
    about: &'static str,
    run: fn(&Knobs, &mut Verdict) -> Result<(), CliError>,
}

const SCENARIOS: [Scenario; 6] = [
    Scenario {
        name: "worker-panic",
        about: "workers panic on every 5th encode: only the hit requests fail (as worker_panic), \
                the pool respawns, and the run stays within 2x of fault-free",
        run: worker_panic,
    },
    Scenario {
        name: "corrupt-model",
        about: "seeded byte flips and truncations of a .gobom, half re-sealed past every \
                checksum: each is rejected or parses to the same content, none panics",
        run: corrupt_model,
    },
    Scenario {
        name: "queue-overload",
        about: "an 8-slot queue behind slowed batches: every request ends ok, queue_full or \
                deadline_exceeded within its deadline, and service resumes with the fault gone",
        run: queue_overload,
    },
    Scenario {
        name: "node-kill",
        about: "the primary of a 3-node RF=2 cluster is killed mid-load: every request still \
                succeeds bit-identically, the heartbeat marks it dead, traffic re-routes",
        run: node_kill,
    },
    Scenario {
        name: "network-partition",
        about: "the primary goes silent (no resets): hedges rescue every request, the \
                heartbeat marks it dead, and once healed it rejoins and serves",
        run: network_partition,
    },
    Scenario {
        name: "reload-under-load",
        about: "a publish storm with registry faults under load, then an erroring and a slow \
                canary: every reply is one revision's bytes, both roll back, p99 recovers",
        run: reload_under_load,
    },
];

/// `gobo chaos`: run the requested scenarios, report, and exit
/// non-zero if any scenario saw a hang, a process-level crash, or a
/// silently-wrong result. Every `--scenario` is looked up before
/// anything runs.
pub(crate) fn chaos(args: &Args) -> Result<String, CliError> {
    let names = args.get_all("scenario");
    let find = |name: &&str| {
        SCENARIOS.iter().find(|row| row.name == *name).ok_or_else(|| {
            let table: String =
                SCENARIOS.iter().map(|row| format!("\n  {}: {}", row.name, row.about)).collect();
            CliError::Usage(format!("unknown scenario `{name}`; the scenarios are:{table}"))
        })
    };
    let rows: Vec<&Scenario> = if names.is_empty() {
        SCENARIOS.iter().collect()
    } else {
        names.iter().map(find).collect::<Result<_, _>>()?
    };
    let knobs = Knobs {
        requests: args.parse_num("requests", 500)?.max(16),
        corruptions: args.parse_num("corruptions", 10_000)?.max(1),
        seed: args.parse_num("seed", 0)?,
    };
    run_rows(&rows, &knobs)
}

fn run_rows(rows: &[&Scenario], knobs: &Knobs) -> Result<String, CliError> {
    gobo_fault::install_panic_silencer();
    // The sanitizer evidence printed below is the scenarios' alone.
    gobo_sanitize::reset();
    let width = SCENARIOS.iter().map(|row| row.name.len()).max().unwrap_or(0);
    let mut out = String::new();
    let mut failures = 0usize;
    for row in rows {
        gobo_fault::reset();
        let mut verdict = Verdict::default();
        let ran = (row.run)(knobs, &mut verdict);
        gobo_fault::reset();
        ran?;
        // With the concurrency sanitizer recording (GOBO_SANITIZE=1),
        // a failure-class report during the scenario — a potential
        // deadlock cycle, condvar misuse, blocking I/O under a lock —
        // fails the scenario even if the workload itself degraded
        // gracefully.
        if gobo_sanitize::enabled() {
            let reports: Vec<String> = gobo_sanitize::take_reports()
                .iter()
                .filter(|r| r.kind.is_failure())
                .map(ToString::to_string)
                .collect();
            let label = "no failure-class sanitizer report";
            verdict.must(label, reports.is_empty(), format!("{reports:?}"));
        }
        let outcome = if verdict.passed() { "PASS (degraded, not failed)" } else { "FAIL" };
        out.push_str(&format!("scenario {:<width$} {outcome}\n{}", row.name, verdict.render()));
        failures += usize::from(!verdict.passed());
    }
    if gobo_sanitize::enabled() {
        out.push_str(&crate::sanitize_cmd::sanitizer_evidence());
    }
    if failures > 0 {
        Err(CliError::Failed(format!("{out}{failures} chaos scenario(s) FAILED")))
    } else {
        out.push_str("all chaos scenarios passed: faults degraded service, nothing hung or lied");
        Ok(out)
    }
}

fn arm(spec: &str) -> Result<(), CliError> {
    gobo_fault::configure_str(spec).map(drop).map_err(failed)
}

fn worker_panic(knobs: &Knobs, verdict: &mut Verdict) -> Result<(), CliError> {
    let model = build_model(knobs.seed, &QuantizeOptions::gobo(3).map_err(failed)?)?;
    let patterns = Patterns::new(&[&model])?;
    let mut run = |who: &str, fault: Option<&str>| -> Result<(Tally, u64), CliError> {
        let scheduler = SchedulerConfig {
            // A batch fires `serve.encode` once per request, so a
            // batch of 5 would always hold a whole `every=5` period
            // and every batch would panic. 4 leaves batches between
            // the injected ones to succeed.
            max_batch: 4,
            queue_capacity: knobs.requests + 64,
            // Generous deadline: the scenario proves requests fail
            // *fast* via WorkerPanic, not via deadline expiry.
            default_deadline: Duration::from_secs(60),
            ..two_workers()
        };
        let client = start_core(&model, scheduler, CanaryPolicy::default())?;
        fault.map_or(Ok(()), arm)?;
        let tally = drive(Load::fixed(8, knobs.requests), &patterns, |ids| served(&client, ids));
        gobo_fault::reset();
        let respawns = client.core().metrics().worker_respawns.load(Ordering::Relaxed);
        verdict.settle(who, client.core());
        Ok((tally, respawns))
    };
    let (base, _) = run("fault-free core", None)?;
    let (hit, respawns) = run("faulted core", Some("serve.encode=panic(every=5)"))?;

    let summary =
        |t: &Tally| format!("{}/{} ok, {} in {:?}", t.ok, t.sent(), t.errors(), t.elapsed);
    verdict.must("fault-free run has no failures", base.failed() == 0, summary(&base));
    verdict.note(format!("serve.encode=panic(every=5): {}", summary(&hit)));
    verdict.must("faulted run still answers", hit.ok > 0, format!("{} ok", hit.ok));
    verdict.must(
        "the fault fails some requests",
        hit.failed() > 0,
        format!("{} failed", hit.failed()),
    );
    let other = hit.failed() - hit.failed_with("worker_panic");
    verdict.must("every failure is worker_panic", other == 0, format!("{other} other"));
    let mismatches = base.mismatches + hit.mismatches;
    verdict.must("no byte-mismatches in either run", mismatches == 0, mismatches);
    verdict.must("workers respawned", respawns > 0, respawns);
    // 2x the fault-free run, plus fixed slack for respawn backoff
    // quantisation on fast baselines.
    let budget = base.elapsed * 2 + Duration::from_millis(500);
    verdict.must(
        "faulted run within 2x fault-free + 500ms",
        hit.elapsed <= budget,
        format!("{:?} <= {budget:?}", hit.elapsed),
    );
    Ok(())
}

/// Half of the corruptions are re-sealed (every CRC covering the
/// flipped byte recomputed), so they get past the checksums and reach
/// the field parsers: those must be rejected or parse *stably* —
/// writing the parse back and reading it again gives the same bytes.
fn corrupt_model(knobs: &Knobs, verdict: &mut Verdict) -> Result<(), CliError> {
    let compressed = build_model(knobs.seed, &QuantizeOptions::gobo(3).map_err(failed)?)?;
    let reference = compressed.to_bytes();
    let mut rng = StdRng::seed_from_u64(knobs.seed ^ 0xC0DE);
    let resealed_runs = knobs.corruptions / 2;
    let unsealed_runs = knobs.corruptions - resealed_runs;
    // Per half (as flipped, re-sealed): rejected, faithful, wrong.
    let mut tally = [[0usize; 3]; 2];
    let mut panics = 0usize;
    let rewrite = |bytes: &[u8]| {
        catch_unwind(AssertUnwindSafe(|| CompressedModel::from_bytes(bytes).map(|m| m.to_bytes())))
    };
    for run in 0..knobs.corruptions {
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
    let cuts = [0usize, 1, 4, 5, reference.len() / 2, reference.len() - 1];
    let mut truncations_rejected = 0usize;
    for cut in cuts {
        match catch_unwind(AssertUnwindSafe(|| CompressedModel::from_bytes(&reference[..cut]))) {
            Ok(Err(_)) => truncations_rejected += 1,
            Ok(Ok(_)) => {}
            Err(_) => panics += 1,
        }
    }
    verdict.must("no parse panics", panics == 0, format!("{panics} panics"));
    verdict.must(
        "a flipped byte never parses to other content",
        silent == 0,
        format!(
            "{silent} silently wrong of {unsealed_runs} single-byte corruptions \
             ({rejected} rejected, {benign} benign)"
        ),
    );
    verdict.must(
        "a re-sealed flip is rejected or parses stably",
        resealed_unstable == 0,
        format!(
            "{resealed_unstable} unstable of {resealed_runs} past every checksum \
             ({resealed_rejected} rejected by a field parser, {resealed_stable} parsed stably)"
        ),
    );
    verdict.must(
        "every truncation is rejected",
        truncations_rejected == cuts.len(),
        format!("{truncations_rejected}/{}", cuts.len()),
    );
    // The untouched v2 file still loads and serves.
    let intact = start_core(&compressed, SchedulerConfig::default(), CanaryPolicy::default());
    verdict.must("the intact model still serves", intact.is_ok(), intact.is_ok());
    if let Ok(client) = intact {
        verdict.settle("serving core", client.core());
    }
    Ok(())
}

fn queue_overload(knobs: &Knobs, verdict: &mut Verdict) -> Result<(), CliError> {
    let model = build_model(knobs.seed, &QuantizeOptions::gobo(3).map_err(failed)?)?;
    let patterns = Patterns::new(&[&model])?;
    let deadline = Duration::from_millis(250);
    let scheduler =
        SchedulerConfig { queue_capacity: 8, default_deadline: deadline, ..two_workers() };
    let client = start_core(&model, scheduler, CanaryPolicy::default())?;
    arm("serve.batch=delay(ms=20)")?;
    let load = Load::fixed(16, knobs.requests.min(200));
    let tally = drive(load, &patterns, |ids| served(&client, ids));
    gobo_fault::reset();

    let shed = tally.failed_with("queue_full") + tally.failed_with("deadline_exceeded");
    verdict.note(format!(
        "{} requests through an 8-slot queue with serve.batch=delay(ms=20): {} ok, {shed} shed",
        tally.sent(),
        tally.ok
    ));
    verdict.must(
        "every failure is queue_full or deadline_exceeded",
        tally.failed() == shed,
        tally.errors(),
    );
    verdict.must("some requests are served", tally.ok > 0, format!("{} ok", tally.ok));
    verdict.must("no byte-mismatches", tally.mismatches == 0, tally.mismatches);
    // A blocking submitter gives up at its deadline plus the
    // scheduler's 250 ms reply grace, so no client thread can take
    // longer than that per request; the second is slack for starting
    // 16 threads on a busy box.
    let per_request = deadline + Duration::from_millis(250);
    let bound = per_request.saturating_mul(load.per_thread.try_into().unwrap_or(u32::MAX))
        + Duration::from_secs(1);
    verdict.must(
        "no request hung past its deadline",
        tally.elapsed <= bound,
        format!("{:?} <= {bound:?} for {} per thread", tally.elapsed, load.per_thread),
    );
    let recovered = served(&client, &[1, 2, 3]);
    verdict.must("serves normally once the fault is cleared", recovered.is_ok(), recovered.is_ok());
    verdict.settle("core", client.core());
    Ok(())
}

fn node_kill(knobs: &Knobs, verdict: &mut Verdict) -> Result<(), CliError> {
    let model = build_model(knobs.seed, &QuantizeOptions::gobo(3).map_err(failed)?)?;
    let patterns = Patterns::new(&[&model])?;
    let mut cluster = Cluster::start(&model)?;
    let total = knobs.requests.clamp(64, 400);
    let completed = AtomicUsize::new(0);
    let load = Load { hold_open: true, completed: Some(&completed), ..Load::fixed(4, total) };
    let (mut victim, mut marked_dead) = (0, false);
    let tally = drive_during(
        load,
        &patterns,
        |ids| routed(&cluster.router, ids),
        || {
            // Kill once a third of the nominal load has gone through.
            wait_until(Duration::from_secs(30), || completed.load(Ordering::Relaxed) >= total / 3);
            victim = primary(&cluster.router, &cluster.members);
            cluster.members[victim].node.shutdown();
            cluster.members[victim].core.shutdown();
            // The load is held open until the heartbeat has noticed, so
            // requests meet the dead node however fast they are served.
            marked_dead = wait_until(Duration::from_secs(5), || unhealthy(&cluster.router) == 1);
        },
    );

    let victim_id = &cluster.members[victim].id;
    let node_down = cluster.router.render_metrics().contains("gobo_cluster_node_down 1");
    let m = cluster.router.metrics();
    let failovers = m.failovers.load(Ordering::Relaxed);
    let hedge_fires = m.hedge_fires.load(Ordering::Relaxed);
    let mark_dead = m.mark_dead.load(Ordering::Relaxed);
    let rerouted = cluster.router.replicas_for(MODEL, None).iter().all(|n| n.id != *victim_id);

    verdict.note(format!("primary `{victim_id}` killed mid-load"));
    verdict.must("no routed encode fails", tally.failed() == 0, tally.errors());
    verdict.must("no byte-mismatches", tally.mismatches == 0, tally.mismatches);
    let sent = tally.sent();
    verdict.must("every routed encode is ok", tally.ok == sent, format!("{}/{sent}", tally.ok));
    verdict.must(
        "the whole nominal load was sent",
        sent >= total / 4 * 4,
        format!("{sent} >= {}", total / 4 * 4),
    );
    verdict.must(
        "a failover or a hedge met the dead node",
        failovers + hedge_fires >= 1,
        format!("failovers {failovers} + hedge fires {hedge_fires}"),
    );
    verdict.must("the heartbeat marked the victim dead", marked_dead, marked_dead);
    verdict.must("/metrics says gobo_cluster_node_down 1", node_down, node_down);
    verdict.must("mark_dead_total counted it", mark_dead >= 1, mark_dead);
    verdict.must("the victim left the replica set", rerouted, rerouted);
    cluster.finish(verdict);
    Ok(())
}

/// The partition is asymmetric: the victim still receives requests and
/// never answers them, so its peers see silence, not resets.
fn network_partition(knobs: &Knobs, verdict: &mut Verdict) -> Result<(), CliError> {
    let model = build_model(knobs.seed, &QuantizeOptions::gobo(3).map_err(failed)?)?;
    let patterns = Patterns::new(&[&model])?;
    let cluster = Cluster::start(&model)?;
    let router = &cluster.router;
    let victim = &cluster.members[primary(router, &cluster.members)];

    victim.node.set_partitioned(true);
    let total = knobs.requests.clamp(64, 400);
    let cut = drive(Load::fixed(4, total), &patterns, |ids| routed(router, ids));
    let marked_dead = wait_until(Duration::from_secs(5), || unhealthy(router) == 1);
    // Heal: the node must rejoin and serve again.
    victim.node.set_partitioned(false);
    let marked_alive = wait_until(Duration::from_secs(5), || unhealthy(router) == 0);
    let healed = drive(Load::fixed(4, 32), &patterns, |ids| routed(router, ids));

    let m = router.metrics();
    let hedge_wins = m.hedge_wins.load(Ordering::Relaxed);
    let mark_dead = m.mark_dead.load(Ordering::Relaxed);
    let mark_alive = m.mark_alive.load(Ordering::Relaxed);
    verdict.note(format!("primary `{}` partitioned", victim.id));
    verdict.must("no routed encode fails while partitioned", cut.failed() == 0, cut.errors());
    verdict.must("no routed encode fails after the heal", healed.failed() == 0, healed.errors());
    let mismatches = cut.mismatches + healed.mismatches;
    verdict.must("no byte-mismatches", mismatches == 0, mismatches);
    verdict.must(
        "routed encodes are answered",
        cut.ok + healed.ok > 0,
        format!("{} ok partitioned, {} ok healed", cut.ok, healed.ok),
    );
    verdict.must("a hedge won against the silent primary", hedge_wins >= 1, hedge_wins);
    verdict.must("the heartbeat marked the victim dead", marked_dead, marked_dead);
    verdict.must("mark_dead_total counted it", mark_dead >= 1, mark_dead);
    verdict.must("the healed node was marked alive again", marked_alive, marked_alive);
    verdict.must("mark_alive_total counted it", mark_alive >= 1, mark_alive);
    cluster.finish(verdict);
    Ok(())
}

/// Reloads go through the CRC-validated file path, so the two
/// revisions live on disk for the scenario's duration — in a
/// per-process directory, so two runs on one host cannot overwrite each
/// other's files mid-storm, removed on the way out, pass or fail.
fn reload_under_load(knobs: &Knobs, verdict: &mut Verdict) -> Result<(), CliError> {
    let dir = std::env::temp_dir().join(format!("gobo-chaos-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let outcome = reload_storm(knobs, verdict, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// Phase 1: two revisions are published alternately at least 50 times
/// while 4 clients hammer the slot, with `registry.swap` and
/// `registry.load` failpoints armed probabilistically; rejected
/// publishes must leave the registry untouched, and afterwards the
/// draining list must empty (no refcount leaks).
///
/// Phase 2: an erroring canary (`serve.canary=error`) must roll back
/// at once with the failed batches transparently re-run on the active
/// revision; a slow canary (`serve.canary=delay`) must roll back on the
/// p95 comparison; and once rolled back, active-path p99 must return to
/// within 2x the fault-free baseline.
fn reload_storm(knobs: &Knobs, verdict: &mut Verdict, dir: &Path) -> Result<(), CliError> {
    let options = QuantizeOptions::gobo(3).map_err(failed)?;
    let model_a = build_model(knobs.seed ^ 0xA, &options)?;
    let model_b = build_model(knobs.seed ^ 0xB, &options)?;
    let patterns = Patterns::new(&[&model_a, &model_b])?;
    let on_disk = |file: &str, model: &CompressedModel| -> Result<String, CliError> {
        let path = dir.join(file);
        std::fs::write(&path, model.to_bytes())?;
        Ok(path.to_string_lossy().into_owned())
    };
    let path_a = on_disk("a.gobom", &model_a)?;
    let path_b = on_disk("b.gobom", &model_b)?;
    let scheduler = SchedulerConfig { default_deadline: Duration::from_secs(60), ..two_workers() };
    let client = start_core(&model_a, scheduler, QUICK_CANARY)?;
    let core = client.core();
    let registry = core.registry();
    let call = |ids: &[usize]| served(&client, ids);

    // ---- Phase 1: publish storm under continuous load ----
    arm("registry.swap=error(p=0.3,seed=11)")?;
    arm("registry.load=error(p=0.15,seed=13)")?;
    let mut rng = StdRng::seed_from_u64(knobs.seed ^ 0x5EED);
    let (mut attempts, mut published, mut rejected) = (0usize, 0usize, 0usize);
    let (mut forced_rollbacks, mut verdict_waits, mut stuck) = (0usize, 0usize, 0usize);
    let mut swap_fires = 0;
    let load = Load { threads: 4, per_thread: 0, hold_open: true, completed: None };
    let storm = drive_during(load, &patterns, call, || {
        while attempts < 200 && (attempts < 50 || published < 25) {
            attempts += 1;
            let path = if attempts.is_multiple_of(2) { &path_a } else { &path_b };
            let Ok((entry, _)) = core.reload(MODEL, path) else {
                rejected += 1;
                continue;
            };
            published += 1;
            if rng.gen_bool(0.5) {
                // Operator-style rollback of a pending canary.
                registry.rollback(&entry.key);
                forced_rollbacks += 1;
            } else if wait_until(Duration::from_secs(10), || {
                registry.canary_for(&entry.key).is_none()
            }) {
                // Live traffic drove the canary to a verdict.
                verdict_waits += 1;
            } else {
                stuck += 1;
                registry.rollback(&entry.key);
            }
        }
        swap_fires = gobo_fault::fires("registry.swap");
        gobo_fault::reset();
    });
    let drained = drains(core);

    // ---- Phase 2: canary auto-rollback and post-rollback latency ----
    let phase = Load::fixed(4, knobs.requests.clamp(64, 400));
    let base = drive(phase, &patterns, call);
    let rollbacks = || core.metrics().canary_rollbacks.load(Ordering::Relaxed);
    // Publishes `path` as a canary with `fault` armed and drives load
    // until the trial ends: did it end in a rollback, and what did the
    // clients see meanwhile?
    let canary_rolls_back = |fault: &str, path: &str| -> Result<(bool, Tally), CliError> {
        let before = rollbacks();
        arm(fault)?;
        let (entry, _) = core.reload(MODEL, path).map_err(failed)?;
        let mut seen = Tally::default();
        let mut rounds = 0usize;
        while registry.canary_for(&entry.key).is_some() && rounds < 20 {
            rounds += 1;
            seen.absorb(drive(Load::fixed(4, 16), &patterns, call));
        }
        Ok((rollbacks() > before && registry.canary_for(&entry.key).is_none(), seen))
    };
    let (error_rollback, under_error) = canary_rolls_back("serve.canary=error", &path_b)?;
    gobo_fault::reset();
    // 250ms dwarfs any debug-build batch compute time, so the canary
    // p95 lands well past the 3x policy factor regardless of batch
    // size.
    let (slow_rollback, under_slow) = canary_rolls_back("serve.canary=delay(ms=250)", &path_a)?;
    // With the canary gone the armed delay is unreachable: active-path
    // p99 must return to within 2x the fault-free baseline (plus fixed
    // slack for debug-build scheduler jitter).
    let after = drive(phase, &patterns, call);
    gobo_fault::reset();
    let p99_budget = base.p99_us().saturating_mul(2) + 10_000;

    verdict.note(format!(
        "publish storm: {forced_rollbacks} operator rollbacks, {verdict_waits} canary verdicts"
    ));
    verdict.clean_load("storm", &storm);
    verdict.must("the storm made >= 50 attempts", attempts >= 50, attempts);
    verdict.must("the storm published >= 25 revisions", published >= 25, published);
    verdict.must("a publish was rejected", rejected >= 1, rejected);
    verdict.must("registry.swap fired", swap_fires >= 1, swap_fires);
    verdict.must("no canary was stuck without a verdict", stuck == 0, stuck);
    verdict.must("draining list empty after the storm", drained, registry.draining_len());
    verdict.clean_load("baseline", &base);
    let unseen = |t: &Tally| t.failed() == 0 && t.mismatches == 0;
    let seen = |t: &Tally| format!("{}, {} byte-mismatches", t.errors(), t.mismatches);
    verdict.must("clients never see the erroring canary", unseen(&under_error), seen(&under_error));
    verdict.must("the erroring canary rolled back", error_rollback, error_rollback);
    verdict.must("clients never see the slow canary fail", unseen(&under_slow), seen(&under_slow));
    verdict.must("the slow canary rolled back on p95", slow_rollback, slow_rollback);
    verdict.clean_load("post-rollback", &after);
    verdict.must(
        "post-rollback p99 within 2x baseline + 10ms",
        after.p99_us() <= p99_budget,
        format!("{}us <= 2 x {}us + 10000us", after.p99_us(), base.p99_us()),
    );
    verdict.settle("core", core);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmd::run_str;

    /// Only the corruption scenario runs in unit tests: it arms no
    /// global failpoints, so it cannot interfere with other tests
    /// sharing this process. The other five run in `tests/chaos.rs`.
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

    /// A bad name is refused before anything runs, wherever it stands:
    /// 4 000 requests through `worker-panic` take many seconds; the
    /// lookup takes none. The usage error lists the table.
    #[test]
    fn chaos_rejects_unknown_scenario() {
        let err = run_str(&["chaos", "--scenario", "meteor-strike"]).unwrap_err();
        assert!(err.to_string().contains("unknown scenario"), "{err}");

        let started = std::time::Instant::now();
        let line = ["chaos", "--requests", "4000", "--scenario", "worker-panic"];
        let err = run_str(&[&line[..], &["--scenario", "meteor-strike"]].concat()).unwrap_err();
        assert!(started.elapsed() < Duration::from_secs(1), "{:?}", started.elapsed());
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        for row in &SCENARIOS {
            assert!(err.to_string().contains(row.about), "{err}");
        }
    }

    #[test]
    fn one_failed_must_fails_the_scenario_and_the_command() {
        let fine = Scenario {
            name: "fine",
            about: "",
            run: |_, verdict| {
                verdict.must("water is wet", true, 1);
                Ok(())
            },
        };
        let broken = Scenario {
            name: "broken",
            about: "",
            run: |_, verdict| {
                verdict.must("the sky is up", true, "up");
                verdict.must("the sky is green", false, "blue");
                verdict.note("looked once".into());
                Ok(())
            },
        };
        let knobs = Knobs { requests: 16, corruptions: 1, seed: 0 };
        let Err(CliError::Failed(report)) = run_rows(&[&fine, &broken], &knobs) else {
            panic!("a failed must has to fail the command")
        };
        let heading = |name, outcome| format!("scenario {name:<17} {outcome}\n");
        assert!(report.contains(&heading("fine", "PASS (degraded, not failed)")), "{report}");
        assert!(report.contains(&heading("broken", "FAIL")), "{report}");
        assert!(report.contains("  [FAIL] the sky is green: blue\n"), "{report}");
        assert!(report.contains("  [ok]   the sky is up: up\n"), "{report}");
        assert!(report.contains("  looked once\n"), "{report}");
        assert!(report.ends_with("1 chaos scenario(s) FAILED"), "{report}");
    }

    /// `USAGE` is a constant, so it cannot be built from the table; this
    /// keeps its scenario list — and the two documents that describe
    /// the scenarios — in step with it.
    #[test]
    fn usage_and_docs_name_exactly_the_tables_scenarios() {
        let usage = crate::cmd::USAGE;
        let listed = usage.split("--scenario ").nth(1).and_then(|rest| rest.split(']').next());
        let listed: Vec<String> =
            listed.unwrap().split('|').map(|name| name.trim().to_owned()).collect();
        let table: Vec<&str> = SCENARIOS.iter().map(|row| row.name).collect();
        assert_eq!(listed, table);
        let readme = include_str!("../../../README.md");
        let design = include_str!("../../../DESIGN.md");
        for name in table {
            assert!(readme.contains(&format!("`{name}`")), "README lacks `{name}`");
            assert!(design.contains(&format!("`{name}`")), "DESIGN lacks `{name}`");
        }
    }
}
