//! One run of one workload: set-up, warm-up, rounds of one closed-loop
//! slice and one open-loop slice, metrics.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gobo_serve::ServeCore;

use crate::layers;
use crate::load::{
    closed_phase, http_requests, open_phase, ClientDriver, Driver, HttpDriver, Sample, Schedule,
    Slice, SubmitDriver,
};
use crate::oracle::Oracle;
use crate::setup::{build_stack, idle_publish_ms, Artifact, SetupRun, Stack};
use crate::spec::{
    Kind, Workload, CLOSED_SLICE_SHARE, IDLE_PUBLISHES, MAX_LATE_SLICES, OPEN_SLICE_SHARE,
    PUBLISHES_PER_CLOSED_SLICE, PUBLISHES_PER_OPEN_SLICE, ROUNDS, SETUP_REPEATS, WARM_SHARE,
};
use crate::stats::{closed_rate, median, percentile, samples_needed, SliceRate};
use crate::trace::{chrome_json, closure_share, self_time_by_name, Recorder, Span};

/// One reported number with the raw values behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Per-slice (or per-repeat) values the median was taken over.
    pub slices: Vec<f64>,
    /// Sample count behind each slice value.
    pub samples: Vec<u64>,
}

impl Metric {
    pub fn scalar(name: &str, value: f64, unit: &str) -> Metric {
        Metric { value, ..Metric::of_slices(name, unit, Vec::new(), Vec::new()) }
    }

    /// Median of `slices`, keeping them.
    pub fn of_slices(name: &str, unit: &str, slices: Vec<f64>, samples: Vec<u64>) -> Metric {
        let value = median(&slices).unwrap_or(0.0);
        Metric { name: name.to_owned(), value, unit: unit.to_owned(), slices, samples }
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Receives `.gobom` files, results and traces.
    pub out_dir: PathBuf,
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct RunOutput {
    pub end_to_end: Vec<Metric>,
    /// Filled by the traced run only.
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatched: u64,
    /// `false` when the generator itself ran later than the gap
    /// between one thread's arrivals in more than `MAX_LATE_SLICES`
    /// open-loop slices: the numbers are then not a result.
    pub valid: bool,
    pub max_late_us: Vec<u64>,
}

/// The run's phase lengths for `seconds` of measurement.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub warm: Duration,
    pub closed_slice: Duration,
    pub open_slice: Duration,
}

impl Shape {
    /// An open-loop slice is rounded up to whole arrival ticks, so
    /// every slice of a run holds the same number of arrivals.
    pub fn of(seconds: u64, workload: &Workload) -> Shape {
        let s = seconds as f64;
        let tick_us = workload.open_tick_us;
        let open_ticks = ((s * OPEN_SLICE_SHARE * 1e6) as u64).div_ceil(tick_us);
        Shape {
            warm: Duration::from_secs_f64(s * WARM_SHARE),
            closed_slice: Duration::from_secs_f64(s * CLOSED_SLICE_SHARE),
            open_slice: Duration::from_micros(open_ticks * tick_us),
        }
    }
}

/// Counters read off every core's public `serve::Metrics`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreCounters {
    pub batches: u64,
    pub batched_requests: u64,
    pub batch_size_max: u64,
    pub rejected: u64,
    pub reloads: u64,
    pub canary_batches: u64,
    pub promotions: u64,
    pub rollbacks: u64,
}

impl CoreCounters {
    pub fn read(cores: &[Arc<ServeCore>]) -> CoreCounters {
        let mut c = CoreCounters::default();
        for core in cores {
            let m = core.metrics();
            let get = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
            c.batches += get(&m.batches);
            c.batched_requests += get(&m.batched_requests);
            c.batch_size_max = c.batch_size_max.max(get(&m.batch_size_max));
            c.rejected +=
                get(&m.rejected_queue_full) + get(&m.rejected_deadline) + get(&m.rejected_shutdown);
            c.reloads += get(&m.reloads);
            c.canary_batches += get(&m.canary_batches);
            c.promotions += get(&m.canary_promotions);
            c.rollbacks += get(&m.canary_rollbacks);
        }
        c
    }
}

/// What the traced run hands to the layer measurements.
pub struct LayerContext<'a> {
    pub workload: &'static Workload,
    pub seed: u64,
    pub stack: &'a Stack,
    pub artifacts: &'a [Artifact],
    pub oracles: &'a [Arc<Oracle>],
    pub recorder: &'a Recorder,
    /// Median `quantize_model` wall time over the set-up repeats.
    pub quantize_s: f64,
    /// `ServeCore::reload` wall times: under load on `model-churn`,
    /// idle on the other workloads.
    pub publish_ms: &'a [f64],
    pub draining_peak: u64,
    pub closed: &'a [Sample],
    pub open: &'a [Sample],
    pub closed_wall_s: f64,
    /// Core counters when the measured phases began and ended.
    pub before: CoreCounters,
    pub after: CoreCounters,
    pub router_before: layers::RouterCounters,
}

impl LayerContext<'_> {
    /// Verified-OK samples of both phases.
    pub fn answered(&self) -> impl Iterator<Item = &Sample> {
        self.closed.iter().chain(self.open).filter(|s| s.outcome.ok)
    }
}

fn make_drivers(
    workload: &Workload,
    stack: &Stack,
    oracles: &[Arc<Oracle>],
) -> Result<Vec<Box<dyn Driver>>, String> {
    let mut drivers: Vec<Box<dyn Driver>> = Vec::new();
    for _ in 0..workload.threads {
        drivers.push(match workload.kind {
            Kind::HttpSingle | Kind::ClusterRouted => {
                let addr = stack.http_addr.as_deref().ok_or("stack has no front door")?;
                let layer =
                    if workload.kind == Kind::HttpSingle { "serve.http" } else { "cluster.http" };
                let oracle = Arc::clone(&oracles[0]);
                let requests = http_requests(&oracle);
                Box::new(HttpDriver::connect(addr, oracle, requests, layer)?)
            }
            Kind::InprocBatch => {
                Box::new(SubmitDriver::new(Arc::clone(&stack.cores[0]), Arc::clone(&oracles[0])))
            }
            Kind::ModelChurn => Box::new(ClientDriver::new(Arc::clone(&stack.cores[0]), oracles)),
        });
    }
    Ok(drivers)
}

/// One verified request through the workload's own path: the stack is
/// not "set up" until it has answered correctly once.
fn probe(workload: &Workload, stack: &Stack, oracles: &[Arc<Oracle>]) -> Result<(), String> {
    let mut drivers = make_drivers(workload, stack, oracles)?;
    let driver = drivers.first_mut().ok_or("workload has no generator thread")?;
    for _ in 0..workload.models.len() {
        driver.send(0);
        if !driver.recv().ok {
            return Err(format!("{}: probe request failed or mismatched", workload.name));
        }
    }
    Ok(())
}

/// What the generator tells the `model-churn` publisher when a slice
/// begins.
struct SliceStart {
    at: Instant,
    len: Duration,
    /// Publishes due in the slice, evenly spaced: publish `i` of `n` at
    /// `(2i + 1) / 2n` of `len`.
    publishes: u32,
    /// Whether they count towards `serve.registry.publish.ms.p50`.
    reported: bool,
}

/// The `model-churn` publisher: `ServeCore::reload` from the `.gobom`
/// files, alternating model, at fixed offsets inside every slice the
/// generator announces, until the generator hangs up. Each reload runs
/// on a thread of its own, as a `POST /v1/reload` would on its
/// connection thread; a long-lived publisher thread would instead wake
/// wherever it last slept, and on two cores that is a coin toss
/// between a free core and the busy worker's for the whole run.
struct Publisher {
    slices: Sender<SliceStart>,
    handle: std::thread::JoinHandle<(Vec<f64>, u64)>,
}

impl Publisher {
    fn start(core: Arc<ServeCore>, workload: &'static Workload, paths: Vec<PathBuf>) -> Publisher {
        let (slices, announced) = channel::<SliceStart>();
        let handle = std::thread::spawn(move || {
            let mut publish_ms = Vec::new();
            let mut draining_peak = 0u64;
            let mut n = 0usize;
            for slice in announced {
                for i in 0..slice.publishes {
                    let due = slice.at + slice.len * (2 * i + 1) / (2 * slice.publishes);
                    while Instant::now() < due {
                        draining_peak = draining_peak.max(core.registry().draining_len() as u64);
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    let which = n % paths.len();
                    let (name, path) = (workload.models[which].name, paths[which].clone());
                    let reloader = Arc::clone(&core);
                    let one = std::thread::spawn(move || {
                        let t = Instant::now();
                        reloader.reload(name, path.to_str()?).ok()?;
                        Some(t.elapsed().as_secs_f64() * 1e3)
                    });
                    let published = one.join().expect("a reload thread panicked");
                    if let (Some(ms), true) = (published, slice.reported) {
                        publish_ms.push(ms);
                    }
                    draining_peak = draining_peak.max(core.registry().draining_len() as u64);
                    n += 1;
                }
            }
            (publish_ms, draining_peak)
        });
        Publisher { slices, handle }
    }

    fn announce(&self, slice: SliceStart) {
        // A publisher that has gone shows as "no publish completed
        // under load".
        let _ = self.slices.send(slice);
    }

    /// Duration of every reported publish, ms, and the most revisions
    /// seen draining at once.
    fn finish(self) -> (Vec<f64>, u64) {
        drop(self.slices);
        self.handle.join().expect("the publisher thread panicked")
    }
}

/// Peak resident set of this process, MB, from `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Per-slice percentile of open-loop latency, median over slices.
fn open_percentile(name: &str, open: &[Vec<Sample>], permille: u32) -> Result<Metric, String> {
    let mut values = Vec::with_capacity(open.len());
    let mut counts = Vec::with_capacity(open.len());
    for (round, samples) in open.iter().enumerate() {
        let mut sorted: Vec<u64> = samples.iter().map(Sample::latency_us).collect();
        sorted.sort_unstable();
        let value = percentile(&sorted, permille).ok_or_else(|| {
            format!(
                "{name}: open-loop slice {round} holds {} samples, p{} needs {}; raise --seconds",
                sorted.len(),
                permille / 10,
                samples_needed(permille)
            )
        })?;
        values.push(value as f64);
        counts.push(sorted.len() as u64);
    }
    Ok(Metric::of_slices(name, "us", values, counts))
}

fn settle_registries(cores: &[Arc<ServeCore>]) -> bool {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        for core in cores {
            core.registry().sweep();
        }
        if cores.iter().all(|c| c.registry().draining_len() == 0) {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The measured stack and what building it (repeatedly) cost.
struct SetUp {
    built: SetupRun,
    /// Wall time of every build, seconds.
    setup_s: Vec<f64>,
    /// Median `quantize_model` wall time of the first model, seconds.
    quantize_s: f64,
    oracles: Vec<Arc<Oracle>>,
}

/// Builds the stack `SETUP_REPEATS` times back to back, each on the
/// clock — `build_stack` plus one verified probe request — and keeps
/// the last. (Repeats after the phases read ~30 % slower on this host
/// than repeats in a row, so mixing the two made the median flip
/// between them.) The reference outputs are computed once, after the
/// first build: the benchmark's cost, not the system's, so off the
/// clock.
fn set_up(args: &RunArgs) -> Result<SetUp, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut quantize_s = Vec::with_capacity(SETUP_REPEATS);
    let mut oracles: Vec<Arc<Oracle>> = Vec::new();
    let mut kept: Option<SetupRun> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = kept.take() {
            previous.stack.shutdown();
        }
        let built = build_stack(args.workload, &args.out_dir.join("models"))?;
        if oracles.is_empty() {
            for artifact in &built.artifacts {
                let oracle = Oracle::build(&artifact.spec, &artifact.compressed, args.seed)?;
                oracle.self_test()?;
                oracles.push(Arc::new(oracle));
            }
        }
        let t = Instant::now();
        probe(args.workload, &built.stack, &oracles)?;
        setup_s.push(built.build_s + t.elapsed().as_secs_f64());
        quantize_s.push(built.artifacts[0].quantize_s);
        kept = Some(built);
    }
    Ok(SetUp {
        built: kept.ok_or("no set-up ran")?,
        setup_s,
        quantize_s: median(&quantize_s).unwrap_or(0.0),
        oracles,
    })
}

/// Runs the workload once and computes its metrics.
pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    let workload = args.workload;
    let shape = Shape::of(args.seconds, workload);
    let SetUp { built, setup_s, quantize_s, oracles } = set_up(args)?;
    let stack = &built.stack;

    let churn = workload.kind == Kind::ModelChurn;
    let recorder = Recorder::new(Instant::now());
    let mut drivers = make_drivers(workload, stack, &oracles)?;
    let publisher = churn.then(|| {
        Publisher::start(Arc::clone(&stack.cores[0]), workload, stack.model_paths.clone())
    });
    let announce = |len: Duration, publishes: u32, reported: bool| {
        if let Some(publisher) = &publisher {
            publisher.announce(SliceStart { at: Instant::now(), len, publishes, reported });
        }
    };
    let slice = |round: usize, open: bool| Slice { seed: args.seed, round, open };
    let schedule = Schedule {
        tick_us: workload.open_tick_us,
        burst: workload.open_burst,
        threads: workload.threads,
    };

    // --- Warm-up, then the rounds: closed slice, open slice ---------------
    announce(shape.warm, PUBLISHES_PER_CLOSED_SLICE, false);
    closed_phase(&mut drivers, workload.window, shape.warm, slice(ROUNDS, false), None);
    let before = CoreCounters::read(&stack.cores);
    let router_before = layers::RouterCounters::read(stack.router.as_deref());
    let mut closed: Vec<Vec<Sample>> = Vec::with_capacity(ROUNDS);
    let mut open: Vec<Vec<Sample>> = Vec::with_capacity(ROUNDS);
    let mut closed_wall_s = 0.0;
    for round in 0..ROUNDS {
        // The recorder is live in the closed slices of even rounds
        // only, so the odd ones are an untraced baseline inside the
        // same run (`obs.trace_overhead_pct`).
        let live = args.trace.then_some(&recorder);
        // Publishes run ~40 % slower beside the open loop's sparse
        // arrivals than beside the closed loop's saturating ones; a
        // median over both would sit on the edge between the two
        // populations. The open loop's load is the same on every
        // commit, so its publishes are the ones reported (as
        // `serve.registry.publish.ms.p50`).
        announce(shape.closed_slice, PUBLISHES_PER_CLOSED_SLICE, false);
        let t = Instant::now();
        closed.push(closed_phase(
            &mut drivers,
            workload.window,
            shape.closed_slice,
            slice(round, false),
            live.filter(|_| round % 2 == 0),
        ));
        closed_wall_s += t.elapsed().as_secs_f64();
        announce(shape.open_slice, PUBLISHES_PER_OPEN_SLICE, true);
        open.push(open_phase(&mut drivers, schedule, shape.open_slice, slice(round, true), live));
    }
    let after = CoreCounters::read(&stack.cores);
    let (loaded_publish_ms, draining_peak) = publisher.map(Publisher::finish).unwrap_or_default();
    drop(drivers);
    let settled = settle_registries(&stack.cores);
    // Peak memory of set-up and load; what follows is the benchmark's
    // own apparatus.
    let peak_rss = peak_rss_mb()?;

    // --- publish_ms: idle reloads on a scratch core. What `model-churn`
    // publishes under load is a per-layer number
    // (`serve.registry.publish.ms.p50`): a 17 ms reload beside open-loop
    // traffic on two cores takes 17 or 30 ms by whether the scheduler
    // wakes the worker on its core, and no median of that mix holds
    // still.
    let publish_ms = idle_publish_ms(workload, &stack.model_paths[0], IDLE_PUBLISHES)?;

    // --- What the rounds measured -------------------------------------------
    let closed_slice_ns = shape.closed_slice.as_nanos() as u64;
    let rates: Vec<SliceRate> = closed
        .iter()
        .map(|samples| {
            let done_ok: Vec<u64> =
                samples.iter().filter(|s| s.outcome.ok).map(|s| s.done_ns).collect();
            closed_rate(&done_ok, closed_slice_ns).ok_or_else(|| {
                format!("{}: a closed-loop slice completed < 2 requests", workload.name)
            })
        })
        .collect::<Result<_, _>>()?;
    let throughput = Metric::of_slices(
        "throughput_rps",
        "req/s",
        rates.iter().map(SliceRate::per_second).collect(),
        rates.iter().map(|r| r.count as u64).collect(),
    );
    let p50 = open_percentile("latency_p50_us", &open, 500)?;
    let max_late_us: Vec<u64> =
        open.iter().map(|o| o.iter().map(Sample::late_us).max().unwrap_or(0)).collect();
    let late_slices = max_late_us.iter().filter(|&&l| l > workload.thread_gap_us()).count();
    let valid = late_slices <= MAX_LATE_SLICES && settled;

    let (closed, open) = (closed.concat(), open.concat());
    let attempted = (closed.len() + open.len()) as u64;
    let ok = closed.iter().chain(&open).filter(|s| s.outcome.ok).count() as u64;
    let mismatched = closed.iter().chain(&open).filter(|s| s.outcome.mismatch).count() as u64;
    let failed = attempted - ok;

    if churn && loaded_publish_ms.is_empty() {
        return Err(format!("{}: no publish completed under load", workload.name));
    }
    let resident_bytes: usize = stack.cores.iter().map(|c| c.registry().resident_bytes()).sum();
    let resident_models: usize = stack.cores.iter().map(|c| c.registry().len()).sum();

    // --- Per-layer metrics: the traced run only --------------------------
    let mut per_layer = Vec::new();
    if args.trace {
        let context = LayerContext {
            workload,
            seed: args.seed,
            stack,
            artifacts: &built.artifacts,
            oracles: &oracles,
            recorder: &recorder,
            quantize_s,
            publish_ms: if churn { &loaded_publish_ms } else { &publish_ms },
            draining_peak,
            closed: &closed,
            open: &open,
            closed_wall_s,
            before,
            after,
            router_before,
        };
        per_layer = layers::measure(&context)?;
    }
    let (spans, counts) = recorder.into_parts();
    if args.trace {
        per_layer.extend(trace_metrics(&spans, &rates));
        let write = |name: String, text: String| {
            let path = args.out_dir.join(name);
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
        };
        write(format!("trace-{}.json", workload.name), chrome_json(&spans, &counts))?;
        write(
            format!("layers-{}.txt", workload.name),
            layer_table(workload.name, &per_layer, &spans),
        )?;
    }
    built.stack.shutdown();

    let publish_count = publish_ms.len() as u64;
    let end_to_end = vec![
        Metric::of_slices("setup_s", "s", setup_s, Vec::new()),
        throughput,
        p50,
        Metric::scalar("ok_share", ok as f64 / attempted.max(1) as f64, "ratio"),
        Metric::of_slices("publish_ms", "ms", publish_ms, vec![publish_count]),
        Metric::scalar(
            "resident_mb_per_model",
            resident_bytes as f64 / resident_models.max(1) as f64 / 1e6,
            "MB",
        ),
        Metric::scalar("peak_rss_mb", peak_rss, "MB"),
    ];
    Ok(RunOutput { end_to_end, per_layer, attempted, failed, mismatched, valid, max_late_us })
}

/// The per-layer table written beside the Chrome trace: every metric,
/// then the self time the recorder attributed to each span name.
fn layer_table(workload: &str, per_layer: &[Metric], spans: &[Span]) -> String {
    let mut table = String::new();
    for m in per_layer {
        table.push_str(&format!("{workload} {} {} {}\n", m.name, m.value, m.unit));
    }
    table.push_str("# self time by span name: total ms, spans\n");
    let mut counts = std::collections::BTreeMap::new();
    for s in spans {
        *counts.entry(s.name).or_insert(0u64) += 1;
    }
    for (name, ns) in self_time_by_name(spans) {
        table.push_str(&format!("{workload} {name} {} {}\n", ns as f64 / 1e6, counts[name]));
    }
    table
}

/// `trace.closure_share` and `obs.trace_overhead_pct`. The recorder is
/// live in the closed-loop slices of even rounds and off in those of
/// odd rounds, so the overhead compares like with like inside one run.
fn trace_metrics(spans: &[Span], rates: &[SliceRate]) -> Vec<Metric> {
    let pick = |parity: usize| -> Vec<f64> {
        rates
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == parity)
            .map(|(_, r)| r.per_second())
            .collect()
    };
    let traced = median(&pick(0)).unwrap_or(0.0);
    let untraced = median(&pick(1)).unwrap_or(0.0);
    let overhead = if untraced > 0.0 { (untraced - traced) / untraced * 100.0 } else { 0.0 };
    vec![
        Metric::scalar("obs.trace_overhead_pct", overhead, "%"),
        Metric::scalar(
            "trace.closure_share",
            closure_share(spans, "load.request").unwrap_or(0.0),
            "ratio",
        ),
    ]
}
