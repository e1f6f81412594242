//! Every constant of the benchmark: models, workloads, rates, run
//! shape. Nothing here is derived at run time, so two commits always
//! run the same experiment.

/// Tokens per request.
pub const SEQ_LEN: usize = 8;
/// Seeded id sequences a workload draws its requests from.
pub const POOL: usize = 64;
/// Rounds per run. A round is one closed-loop slice followed by one
/// open-loop slice, so each phase samples the whole run instead of one
/// half of it; every timing metric is the median of its slice values,
/// and a host slow spell shorter than half the run cannot reach it.
pub const ROUNDS: usize = 7;
/// Open-loop slices in which the generator itself may run later than
/// the gap between one thread's arrivals before the run is marked
/// invalid: a median of 7 slice values shrugs off two disturbed ones.
pub const MAX_LATE_SLICES: usize = 2;
/// Run shape as shares of `--seconds`: warm-up, one closed-loop slice,
/// one open-loop slice (`0.05 + 7·0.05 + 7·0.6/7 = 1`).
pub const WARM_SHARE: f64 = 0.05;
pub const CLOSED_SLICE_SHARE: f64 = 0.05;
pub const OPEN_SLICE_SHARE: f64 = 0.6 / ROUNDS as f64;
/// `run_seconds` of `BENCHMARK.json`; `all` and `run` default to it.
pub const DEFAULT_SECONDS: u64 = 28;
/// The stack is built this many times; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 7;
/// Idle `ServeCore::reload` calls behind `publish_ms`, after the rounds.
pub const IDLE_PUBLISHES: usize = 21;
/// `model-churn`: publishes per slice, evenly spaced inside it (one in
/// the middle of a closed-loop slice; at 1/4 and 3/4 of an open-loop
/// one — about one every 1.3 s at the default run length), so every
/// slice of a kind sees the same publishes at the same offsets.
pub const PUBLISHES_PER_CLOSED_SLICE: u32 = 1;
pub const PUBLISHES_PER_OPEN_SLICE: u32 = 2;
/// Requests the layer replay walks through the public functions.
pub const REPLAY_SAMPLES: usize = 200;
/// Wall-time cap of one microbenchmark in the traced run.
pub const MICROBENCH_MS: u64 = 150;
/// Wall time of each machine-calibration loop.
pub const CALIBRATION_MS: u64 = 1000;

/// A synthetic `ModelConfig::tiny` transformer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelSpec {
    /// Registered model name.
    pub name: &'static str,
    pub layers: usize,
    pub hidden: usize,
    pub heads: usize,
    pub vocab: usize,
    pub max_position: usize,
    /// GOBO index width of the FC weights.
    pub bits: u8,
    /// Weight seed: fixed, so `--seed` varies the requests and never
    /// the system under test.
    pub weight_seed: u64,
}

const fn small(name: &'static str, bits: u8, weight_seed: u64) -> ModelSpec {
    ModelSpec {
        name,
        layers: 2,
        hidden: 128,
        heads: 4,
        vocab: 1024,
        max_position: 64,
        bits,
        weight_seed,
    }
}

pub const SMALL: ModelSpec = small("small", 3, 101);
pub const WIDE: ModelSpec = ModelSpec {
    name: "wide",
    layers: 2,
    hidden: 256,
    heads: 4,
    vocab: 1024,
    max_position: 64,
    bits: 3,
    weight_seed: 102,
};
pub const CHURN_A: ModelSpec = small("churn-a", 3, 103);
pub const CHURN_B: ModelSpec = small("churn-b", 4, 104);

/// Which stack a workload stands up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Server::bind` over one core, keep-alive HTTP clients.
    HttpSingle,
    /// `Scheduler::submit` with a window of requests in flight.
    InprocBatch,
    /// Three `ClusterNode`s behind `Router` and `RouterServer`.
    ClusterRouted,
    /// `Client::encode` beside a publisher calling `ServeCore::reload`.
    ModelChurn,
}

/// One workload: its stack, its client shape, its arrival schedule.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Models served; the generator alternates between them.
    pub models: &'static [ModelSpec],
    /// Generator threads, one connection each (never more than nproc).
    pub threads: usize,
    /// Closed loop: requests each thread keeps in flight.
    pub window: usize,
    /// Open loop: microseconds between arrival ticks.
    pub open_tick_us: u64,
    /// Open loop: arrivals per tick, all due at the tick, dealt
    /// round-robin to the threads.
    pub open_burst: usize,
    /// Scheduler workers per core and largest coalesced batch.
    pub workers: Option<usize>,
    pub max_batch: Option<usize>,
    /// Latency limit behind the diagnostic `load.slo_miss_share`.
    pub slo_ms: u64,
}

impl Workload {
    /// Open-loop arrival rate in requests per second.
    pub fn open_rate(&self) -> f64 {
        self.open_burst as f64 * 1e6 / self.open_tick_us as f64
    }

    /// Microseconds between one generator thread's own arrival ticks:
    /// a generator later than this has moved its next arrival.
    pub fn thread_gap_us(&self) -> u64 {
        let threads_per_tick = self.open_burst.min(self.threads).max(1);
        self.open_tick_us * (self.threads / threads_per_tick).max(1) as u64
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "http-single",
        kind: Kind::HttpSingle,
        models: &[SMALL],
        threads: 2,
        window: 1,
        open_tick_us: 10_000,
        open_burst: 1,
        workers: None,
        max_batch: None,
        slo_ms: 25,
    },
    Workload {
        name: "inproc-batch",
        kind: Kind::InprocBatch,
        models: &[WIDE],
        threads: 2,
        window: 16,
        open_tick_us: 200_000,
        open_burst: 16,
        workers: Some(2),
        max_batch: Some(32),
        slo_ms: 400,
    },
    Workload {
        name: "cluster-routed",
        kind: Kind::ClusterRouted,
        models: &[SMALL],
        threads: 2,
        window: 1,
        open_tick_us: 12_500,
        open_burst: 1,
        workers: Some(1),
        max_batch: None,
        slo_ms: 40,
    },
    Workload {
        name: "model-churn",
        kind: Kind::ModelChurn,
        models: &[CHURN_A, CHURN_B],
        threads: 1,
        window: 1,
        open_tick_us: 10_000,
        open_burst: 1,
        workers: None,
        max_batch: None,
        slo_ms: 25,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
