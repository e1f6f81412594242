//! The one harness under `gobo chaos`: a
//! load driver, the fixture every scenario shares (model, request
//! patterns with their reference outputs, serving core, cluster), and
//! the verdict a scenario reports through. The differential oracle
//! (`tests/oracle.rs`) builds its models with the same [`build_model`].

use std::collections::BTreeMap;
use std::fmt::Display;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gobo::format::CompressedModel;
use gobo::pipeline::{quantize_model, QuantizeOptions};
use gobo_cluster::{ClusterNode, Router, RouterConfig};
use gobo_model::config::ModelConfig;
use gobo_model::TransformerModel;
use gobo_serve::{
    CanaryPolicy, Client, EncodeRequest, RegistryConfig, SchedulerConfig, ServeCore, ServeOptions,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cmd::{failed, CliError};

/// What a scenario found. It passes iff every [`Verdict::must`] held,
/// and every `must` prints its label and the value it judged, marked
/// when it failed — so the report cannot claim what was not checked,
/// and a FAIL always names its cause.
#[derive(Default)]
pub(crate) struct Verdict {
    lines: Vec<String>,
    failed: usize,
}

impl Verdict {
    /// A check the scenario's PASS depends on. `label` says what must
    /// be true (and is stable, so tests can pin the set of checks);
    /// `value` is the evidence `held` was computed from.
    pub(crate) fn must(&mut self, label: &str, held: bool, value: impl Display) {
        let mark = if held { "[ok]  " } else { "[FAIL]" };
        self.lines.push(format!("{mark} {label}: {value}"));
        self.failed += usize::from(!held);
    }

    /// Context that decides nothing.
    pub(crate) fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    pub(crate) fn passed(&self) -> bool {
        self.failed == 0
    }

    /// The report lines, indented under the scenario's heading.
    pub(crate) fn render(&self) -> String {
        self.lines.iter().map(|line| format!("  {line}\n")).collect()
    }

    /// The three things every load under a fault that must stay
    /// invisible has to show: no error, no wrong byte, some answers.
    pub(crate) fn clean_load(&mut self, phase: &str, tally: &Tally) {
        self.must(&format!("{phase} load has no errors"), tally.failed() == 0, tally.errors());
        self.must(
            &format!("{phase} load has no byte-mismatches"),
            tally.mismatches == 0,
            tally.mismatches,
        );
        self.must(&format!("{phase} load gets answers"), tally.ok > 0, format!("{} ok", tally.ok));
    }

    /// Shuts `core` down and holds it to what must be true of any core
    /// once nothing is in flight, whatever was done to it: the counter
    /// laws ([`ServeCore::check_counter_laws`]) and an empty draining
    /// list (no revision still pinned — no refcount leak).
    pub(crate) fn settle(&mut self, who: &str, core: &ServeCore) {
        core.shutdown();
        let laws = core.check_counter_laws();
        self.must(
            &format!("{who} counters obey the conservation laws"),
            laws.is_ok(),
            laws.err().unwrap_or_else(|| "all hold".into()),
        );
        let drained = drains(core);
        let left = format!("{} draining", core.registry().draining_len());
        self.must(&format!("{who} draining list is empty"), drained, left);
    }
}

/// Sweeps until no replaced revision is still pinned, for up to 5 s.
/// With the load gone every one must retire: an entry that stays is a
/// refcount leak.
pub(crate) fn drains(core: &ServeCore) -> bool {
    wait_until(Duration::from_secs(5), || {
        core.registry().sweep();
        core.registry().draining_len() == 0
    })
}

/// Polls `condition` every millisecond until it holds or `timeout` has
/// passed; returns whether it held.
pub fn wait_until(timeout: Duration, mut condition: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if condition() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The name every fixture core serves its model under.
pub(crate) const MODEL: &str = "chaos";

/// A small but non-trivial model (2 layers, 48 wide, 256-token
/// vocabulary) with its weights drawn from `seed`, quantized as `options`
/// say.
pub fn build_model(seed: u64, options: &QuantizeOptions) -> Result<CompressedModel, CliError> {
    let config = ModelConfig::tiny("Chaos", 2, 48, 4, 256, 64).map_err(failed)?;
    let model = TransformerModel::new(config, &mut StdRng::seed_from_u64(seed)).map_err(failed)?;
    let outcome = quantize_model(&model, options);
    Ok(CompressedModel::new(&model, outcome.map_err(failed)?.archive))
}

/// Bit-exact comparison of a served hidden tensor against a reference.
pub(crate) fn bits_match(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Deterministic request patterns with the hidden state each must come
/// back as, bit for bit, from every revision a scenario may serve.
pub(crate) struct Patterns {
    ids: Vec<Vec<usize>>,
    /// `references[revision][pattern]`.
    references: Vec<Vec<Vec<f32>>>,
}

impl Patterns {
    /// Eight patterns of twelve ids, with one reference set per model
    /// in `revisions`: the FP32 forward over the decoded container,
    /// which is what a served reply promises to equal.
    pub(crate) fn new(revisions: &[&CompressedModel]) -> Result<Patterns, CliError> {
        let ids: Vec<Vec<usize>> =
            (0..8usize).map(|p| (0..12).map(|k| 1 + (p * 37 + k * 11) % 250).collect()).collect();
        let mut references = Vec::new();
        for model in revisions {
            let decoded = model.decode().map_err(failed)?;
            let reference =
                |ids: &Vec<usize>| decoded.encode(ids, &[]).map(|out| out.hidden.into_vec());
            references.push(ids.iter().map(reference).collect::<Result<_, _>>().map_err(failed)?);
        }
        Ok(Patterns { ids, references })
    }
}

/// Two workers behind a queue no load here fills; scenarios override
/// what they are about.
pub(crate) fn two_workers() -> SchedulerConfig {
    SchedulerConfig { workers: 2, queue_capacity: 4096, ..SchedulerConfig::default() }
}

/// A canary policy that reaches a verdict within a handful of batches.
pub(crate) const QUICK_CANARY: CanaryPolicy =
    CanaryPolicy { traffic_pct: 50, window: 4, p95_factor_pct: 300, min_baseline: 2 };

/// Starts a core serving `model` as [`MODEL`] and proves it with one
/// encode before any fault is armed. The core is `client.core()`.
pub(crate) fn start_core(
    model: &CompressedModel,
    scheduler: SchedulerConfig,
    lifecycle: CanaryPolicy,
) -> Result<Client, CliError> {
    let registry = RegistryConfig::default();
    let client = Client::new(ServeCore::start(ServeOptions { registry, scheduler, lifecycle }));
    client.register(MODEL, model.clone()).map_err(failed)?;
    client.encode(EncodeRequest::new(MODEL, vec![1, 2, 3])).map_err(failed)?;
    Ok(client)
}

/// One in-process encode, as the driver's call.
pub(crate) fn served(client: &Client, ids: &[usize]) -> Result<Vec<f32>, String> {
    match client.encode(EncodeRequest::new(MODEL, ids.to_vec())) {
        Ok(response) => Ok(response.hidden),
        Err(e) => Err(e.code().to_owned()),
    }
}

/// One in-process cluster member.
pub(crate) struct Member {
    pub(crate) id: &'static str,
    pub(crate) core: Arc<ServeCore>,
    pub(crate) node: ClusterNode,
}

/// Three nodes serving the same model behind a router with RF = 2,
/// fast heartbeats (25 ms, dead after 2 misses) and a fixed 25 ms hedge.
pub(crate) struct Cluster {
    pub(crate) members: Vec<Member>,
    pub(crate) router: Router,
}

impl Cluster {
    pub(crate) fn start(model: &CompressedModel) -> Result<Cluster, CliError> {
        let router = Router::new(RouterConfig {
            heartbeat_interval: Duration::from_millis(25),
            heartbeat_timeout: Duration::from_millis(250),
            dead_after: 2,
            // Generous fixed hedge: debug-build compute alone can take
            // ~10ms, and a healthy-path hedge storm would drown the
            // signal. A partitioned primary never answers at all, so
            // 25ms still rescues those requests quickly.
            hedge_after: Some(Duration::from_millis(25)),
            ..RouterConfig::default()
        });
        let mut members = Vec::new();
        for id in ["n1", "n2", "n3"] {
            let core =
                Arc::clone(start_core(model, two_workers(), CanaryPolicy::default())?.core());
            let node = ClusterNode::start(Arc::clone(&core), "127.0.0.1:0")
                .map_err(|e| CliError::Failed(format!("cluster node bind: {e}")))?;
            router.add_node(id, node.local_addr().to_string());
            members.push(Member { id, core, node });
        }
        router.start();
        Ok(Cluster { members, router })
    }

    /// Stops the router and every node, then settles each node's core.
    pub(crate) fn finish(mut self, verdict: &mut Verdict) {
        self.router.shutdown();
        for member in &mut self.members {
            member.node.shutdown();
            verdict.settle(member.id, &member.core);
        }
    }
}

/// The member first in line for [`MODEL`] *now*: `replicas_for` re-ranks
/// the replicas by heartbeat-reported queue depth, so a primary picked
/// before a load started need not be the node taking the traffic.
pub(crate) fn primary(router: &Router, members: &[Member]) -> usize {
    let first = router.replicas_for(MODEL, None).first().map(|n| n.id.clone()).unwrap_or_default();
    members.iter().position(|m| m.id == first).unwrap_or(0)
}

/// How many members the heartbeat currently holds dead.
pub(crate) fn unhealthy(router: &Router) -> usize {
    router.membership().iter().filter(|n| !n.healthy).count()
}

/// One routed encode, as the driver's call.
pub(crate) fn routed(router: &Router, ids: &[usize]) -> Result<Vec<f32>, String> {
    let ids: Vec<u32> = ids.iter().map(|&id| u32::try_from(id).unwrap_or(u32::MAX)).collect();
    match router.encode(MODEL, None, &ids, &[], 0) {
        Ok(response) => Ok(response.hidden),
        Err(e) => Err(e.code().to_owned()),
    }
}

/// The shape of a load.
#[derive(Clone, Copy)]
pub(crate) struct Load<'a> {
    pub(crate) threads: usize,
    /// Requests each thread sends…
    pub(crate) per_thread: usize,
    /// …and whether it keeps sending past them until the driver's
    /// `meanwhile` has returned.
    pub(crate) hold_open: bool,
    /// Bumped after every reply, so a scenario can time a fault by the
    /// load's progress.
    pub(crate) completed: Option<&'a AtomicUsize>,
}

impl Load<'static> {
    /// `total` requests spread over `threads` (at least one each).
    pub(crate) fn fixed(threads: usize, total: usize) -> Self {
        Load { threads, per_thread: (total / threads).max(1), hold_open: false, completed: None }
    }
}

/// What a load saw.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Replies bit-identical to a reference.
    pub(crate) ok: usize,
    /// Replies that were not: the failure that matters.
    pub(crate) mismatches: usize,
    errors: BTreeMap<String, usize>,
    latencies_us: Vec<u64>,
    /// Wall time of the load(s) absorbed.
    pub(crate) elapsed: Duration,
}

impl Tally {
    /// Failed requests by error code.
    pub(crate) fn errors(&self) -> String {
        format!("{:?}", self.errors)
    }

    pub(crate) fn failed(&self) -> usize {
        self.errors.values().sum()
    }

    /// Failed requests whose code is `code`.
    pub(crate) fn failed_with(&self, code: &str) -> usize {
        self.errors.get(code).copied().unwrap_or(0)
    }

    pub(crate) fn sent(&self) -> usize {
        self.ok + self.mismatches + self.failed()
    }

    /// Nearest-rank p99 of the answered requests' latency, microseconds.
    pub(crate) fn p99_us(&self) -> u64 {
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        let Some(last) = sorted.len().checked_sub(1) else { return 0 };
        sorted[(sorted.len() * 99 / 100).min(last)]
    }

    pub(crate) fn absorb(&mut self, other: Tally) {
        self.ok += other.ok;
        self.mismatches += other.mismatches;
        for (code, count) in other.errors {
            *self.errors.entry(code).or_default() += count;
        }
        self.latencies_us.extend(other.latencies_us);
        self.elapsed += other.elapsed;
    }
}

/// [`drive_during`] with nothing happening meanwhile.
pub(crate) fn drive(
    load: Load<'_>,
    patterns: &Patterns,
    call: impl Fn(&[usize]) -> Result<Vec<f32>, String> + Sync,
) -> Tally {
    drive_during(load, patterns, call, || ())
}

/// The one load loop: `load.threads` clients cycle through `patterns`,
/// each sending a pattern's ids through `call` ([`served`], [`routed`])
/// and comparing the reply with that pattern's references bit for bit,
/// while the calling thread runs `meanwhile` — the faults a scenario
/// injects under load. Returns when the clients are done.
pub(crate) fn drive_during(
    load: Load<'_>,
    patterns: &Patterns,
    call: impl Fn(&[usize]) -> Result<Vec<f32>, String> + Sync,
    meanwhile: impl FnOnce(),
) -> Tally {
    let held_open = AtomicBool::new(load.hold_open);
    let client = |thread: usize| {
        let mut tally = Tally::default();
        let mut sent = 0usize;
        while sent < load.per_thread || held_open.load(Ordering::Relaxed) {
            let pattern = (thread * 31 + sent) % patterns.ids.len();
            let started = Instant::now();
            match call(&patterns.ids[pattern]) {
                Ok(hidden) => {
                    let micros = started.elapsed().as_micros();
                    tally.latencies_us.push(u64::try_from(micros).unwrap_or(u64::MAX));
                    if patterns.references.iter().any(|rev| bits_match(&hidden, &rev[pattern])) {
                        tally.ok += 1;
                    } else {
                        tally.mismatches += 1;
                    }
                }
                Err(code) => *tally.errors.entry(code).or_default() += 1,
            }
            if let Some(completed) = load.completed {
                completed.fetch_add(1, Ordering::Relaxed);
            }
            sent += 1;
        }
        tally
    };
    let started = Instant::now();
    let mut total = Tally::default();
    std::thread::scope(|scope| {
        let client = &client;
        let clients: Vec<_> =
            (0..load.threads).map(|thread| scope.spawn(move || client(thread))).collect();
        meanwhile();
        held_open.store(false, Ordering::Relaxed);
        for joined in clients {
            total.absorb(joined.join().expect("a load client panicked"));
        }
    });
    total.elapsed = started.elapsed();
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three patterns whose reference is their ids as floats, and a
    /// stub target that answers with exactly that.
    fn stub() -> (Patterns, impl Fn(&[usize]) -> Vec<f32>) {
        let echo = |ids: &[usize]| ids.iter().map(|&id| id as f32 + 0.5).collect::<Vec<f32>>();
        let ids = vec![vec![1, 2, 3], vec![4, 5], vec![6]];
        let references = vec![ids.iter().map(|ids| echo(ids)).collect()];
        (Patterns { ids, references }, echo)
    }

    #[test]
    fn counts_add_up_and_a_flipped_mantissa_bit_is_a_mismatch() {
        let (patterns, echo) = stub();
        let calls = AtomicUsize::new(0);
        let tally = drive(Load::fixed(4, 100), &patterns, |ids| {
            match calls.fetch_add(1, Ordering::Relaxed) {
                n if n % 5 == 0 => Err("stub_down".to_owned()),
                n if n % 7 == 0 => {
                    let mut hidden = echo(ids);
                    hidden[0] = f32::from_bits(hidden[0].to_bits() ^ 1);
                    Ok(hidden)
                }
                _ => Ok(echo(ids)),
            }
        });
        // Of calls 0..100: 20 multiples of 5; 15 of 7, 3 of them of 35.
        assert_eq!((tally.ok, tally.mismatches, tally.failed()), (68, 12, 20), "{tally:?}");
        assert_eq!(tally.failed_with("stub_down"), 20);
        assert_eq!(tally.sent(), 100);
        assert_eq!(tally.latencies_us.len(), 80, "every answer is timed, right or wrong");
    }

    #[test]
    fn a_held_open_load_outlives_its_nominal_count() {
        let (patterns, echo) = stub();
        let completed = AtomicUsize::new(0);
        let load = Load { hold_open: true, completed: Some(&completed), ..Load::fixed(2, 2) };
        let progress = || completed.load(Ordering::Relaxed);
        let tally = drive_during(
            load,
            &patterns,
            |ids| Ok(echo(ids)),
            || assert!(wait_until(Duration::from_secs(30), || progress() >= 50)),
        );
        assert!(tally.ok >= 50, "{tally:?}");
        assert_eq!(tally.sent(), progress());
    }
}
