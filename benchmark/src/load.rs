//! The load generator: one process, at most `nproc` threads, one
//! connection each.
//!
//! Closed loop — each thread keeps a fixed number of requests in
//! flight and sends the next when one completes, so a slow system
//! receives less load. Open loop — arrivals follow a fixed schedule
//! whatever the system does; each request is timed **from its due
//! time**, so the wait a stall imposes on later arrivals is counted,
//! and how late the generator itself ran is reported beside it.

use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gobo_serve::{Client, EncodeRequest, EncodeResponse, ServeCore, ServeError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::httpc::{encode_request_bytes, head_field, ResponseReader};
use crate::oracle::Oracle;
use crate::spec::POOL;
use crate::trace::{Recorder, Span};

/// What came back for one request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Answered 200/Ok *and* byte-identical to the reference.
    pub ok: bool,
    /// Answered, but the tensors differ from the reference.
    pub mismatch: bool,
    pub queue_us: u64,
    pub compute_us: u64,
    pub batch: u64,
}

/// One timed request. Times are nanoseconds from the phase start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// When the schedule wanted it sent (closed loop: when it was).
    pub due_ns: u64,
    /// When its connection was free to send it: the previous reply on
    /// this thread had been read.
    pub ready_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub outcome: Outcome,
}

impl Sample {
    /// Latency from the due time, microseconds.
    pub fn latency_us(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns) / 1_000
    }

    /// How late the generator itself was, microseconds: from the
    /// moment the request was both due and sendable to the moment it
    /// was sent. Waiting behind a slow reply on the same connection is
    /// the system's doing and is in `latency_us`, not here.
    pub fn late_us(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns.max(self.ready_ns)) / 1_000
    }
}

/// One generator connection. `send` may only enqueue; `recv` completes
/// the oldest outstanding request.
pub trait Driver: Send {
    fn send(&mut self, idx: usize);
    fn recv(&mut self) -> Outcome;
    /// Span name of the layer this driver's requests enter through.
    fn entry_layer(&self) -> &'static str;
}

fn checked(oracle: &Oracle, idx: usize, reply: Result<EncodeResponse, ServeError>) -> Outcome {
    match reply {
        Ok(r) => {
            let same = oracle.tensors_match(idx, &r.hidden, r.hidden_dims, r.pooled.as_deref());
            Outcome {
                ok: same,
                mismatch: !same,
                queue_us: r.queue_us,
                compute_us: r.compute_us,
                batch: r.batch_size as u64,
            }
        }
        Err(_) => Outcome::default(),
    }
}

/// Keep-alive HTTP connection to `Server` or `RouterServer`.
pub struct HttpDriver {
    stream: Option<TcpStream>,
    reader: ResponseReader,
    requests: Arc<Vec<Vec<u8>>>,
    oracle: Arc<Oracle>,
    pending: VecDeque<usize>,
    layer: &'static str,
}

impl HttpDriver {
    pub fn connect(
        addr: &str,
        oracle: Arc<Oracle>,
        requests: Arc<Vec<Vec<u8>>>,
        layer: &'static str,
    ) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| format!("read timeout: {e}"))?;
        Ok(HttpDriver {
            stream: Some(stream),
            reader: ResponseReader::new(),
            requests,
            oracle,
            pending: VecDeque::new(),
            layer,
        })
    }
}

/// Pre-encoded keep-alive request bytes for every pooled sequence.
pub fn http_requests(oracle: &Oracle) -> Arc<Vec<Vec<u8>>> {
    Arc::new(oracle.pool.iter().map(|e| encode_request_bytes(oracle.model, &e.ids)).collect())
}

impl Driver for HttpDriver {
    fn send(&mut self, idx: usize) {
        self.pending.push_back(idx);
        if let Some(stream) = &mut self.stream {
            if stream.write_all(&self.requests[idx]).is_err() {
                // A dead socket fails this and every later request:
                // reconnecting would hide what the benchmark must count.
                self.stream = None;
            }
        }
    }

    fn recv(&mut self) -> Outcome {
        let Some(idx) = self.pending.pop_front() else {
            return Outcome::default();
        };
        let Some(stream) = &mut self.stream else {
            return Outcome::default();
        };
        match self.reader.read_response(stream) {
            Ok(response) if response.status == 200 => {
                let same = self.oracle.http_body_matches(idx, response.body);
                Outcome {
                    ok: same,
                    mismatch: !same,
                    queue_us: head_field(response.body, "queue_us").unwrap_or(0),
                    compute_us: head_field(response.body, "compute_us").unwrap_or(0),
                    batch: head_field(response.body, "batch_size").unwrap_or(0),
                }
            }
            Ok(_) => Outcome::default(),
            Err(_) => {
                self.stream = None;
                Outcome::default()
            }
        }
    }

    fn entry_layer(&self) -> &'static str {
        self.layer
    }
}

/// `Scheduler::submit` with a window of replies outstanding: no
/// socket, no JSON.
pub struct SubmitDriver {
    core: Arc<ServeCore>,
    requests: Vec<EncodeRequest>,
    oracle: Arc<Oracle>,
    #[allow(clippy::type_complexity)]
    pending: VecDeque<(usize, Option<Receiver<Result<EncodeResponse, ServeError>>>)>,
}

fn encode_requests(oracle: &Oracle) -> Vec<EncodeRequest> {
    oracle.pool.iter().map(|e| EncodeRequest::new(oracle.model, e.ids.clone())).collect()
}

impl SubmitDriver {
    pub fn new(core: Arc<ServeCore>, oracle: Arc<Oracle>) -> Self {
        let requests = encode_requests(&oracle);
        SubmitDriver { core, requests, oracle, pending: VecDeque::new() }
    }
}

impl Driver for SubmitDriver {
    fn send(&mut self, idx: usize) {
        let rx = self.core.scheduler().submit(self.requests[idx].clone()).ok();
        self.pending.push_back((idx, rx));
    }

    fn recv(&mut self) -> Outcome {
        match self.pending.pop_front() {
            Some((idx, Some(rx))) => match rx.recv_timeout(Duration::from_secs(10)) {
                Ok(reply) => checked(&self.oracle, idx, reply),
                Err(_) => Outcome::default(),
            },
            _ => Outcome::default(),
        }
    }

    fn entry_layer(&self) -> &'static str {
        "serve.scheduler"
    }
}

/// Blocking `Client::encode`, alternating between the workload's
/// models request by request.
pub struct ClientDriver {
    client: Client,
    /// Per model: its requests and its oracle.
    models: Vec<(Vec<EncodeRequest>, Arc<Oracle>)>,
    pending: VecDeque<usize>,
    turn: usize,
}

impl ClientDriver {
    pub fn new(core: Arc<ServeCore>, oracles: &[Arc<Oracle>]) -> Self {
        ClientDriver {
            client: Client::new(core),
            models: oracles.iter().map(|o| (encode_requests(o), Arc::clone(o))).collect(),
            pending: VecDeque::new(),
            turn: 0,
        }
    }
}

impl Driver for ClientDriver {
    fn send(&mut self, idx: usize) {
        self.pending.push_back(idx);
    }

    fn recv(&mut self) -> Outcome {
        let Some(idx) = self.pending.pop_front() else {
            return Outcome::default();
        };
        let (requests, oracle) = &self.models[self.turn % self.models.len()];
        self.turn += 1;
        checked(oracle, idx, self.client.encode(requests[idx].clone()))
    }

    fn entry_layer(&self) -> &'static str {
        "serve.scheduler"
    }
}

/// Records one finished request as a span tree: the request, how long
/// it waited to be sent, the layer it entered through, and — from the
/// fields the system returns — queue wait and batch compute inside it.
/// The entry layer's self time is therefore the front-door residual.
fn record_request(
    rec: &Recorder,
    phase_start: Instant,
    entry_layer: &'static str,
    req: u64,
    s: &Sample,
) {
    let base = rec.ns(phase_start);
    let root = rec.next_id();
    rec.push(Span {
        name: "load.request",
        start_ns: base + s.due_ns,
        end_ns: base + s.done_ns,
        id: root,
        parent: 0,
        req,
    });
    if s.sent_ns > s.due_ns {
        // Due but not yet sent: behind a slow reply on its connection,
        // or (`Sample::late_us`) the generator running late.
        rec.span("load.backlog", base + s.due_ns, base + s.sent_ns, root, req);
    }
    let entry = rec.span(entry_layer, base + s.sent_ns, base + s.done_ns, root, req);
    // The system reports durations, not instants: centre queue+compute
    // in the round trip so the residual splits evenly before and after.
    let inner_ns = (s.outcome.queue_us + s.outcome.compute_us) * 1_000;
    let rtt_ns = s.done_ns - s.sent_ns;
    let lead = rtt_ns.saturating_sub(inner_ns) / 2;
    let q0 = base + s.sent_ns + lead;
    let q1 = q0 + s.outcome.queue_us * 1_000;
    if s.outcome.ok {
        rec.span("serve.scheduler.queue", q0, q1, entry, req);
        rec.span("serve.engine", q1, q1 + s.outcome.compute_us * 1_000, entry, req);
    }
    rec.count("load.sent", 1);
    rec.count(if s.outcome.ok { "load.ok" } else { "load.failed" }, 1);
}

/// Which slice of which run a phase is: seeds its generators and
/// keeps its request ids apart from every other slice's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    /// The run's `--seed`.
    pub seed: u64,
    pub round: usize,
    pub open: bool,
}

impl Slice {
    fn ordinal(self) -> u64 {
        self.round as u64 * 2 + u64::from(self.open)
    }

    fn rng(self, thread: usize) -> StdRng {
        let stream = ((self.ordinal() + 1) << 32) ^ ((thread as u64 + 1) << 48);
        StdRng::seed_from_u64(self.seed ^ stream)
    }

    /// Id of this slice's request `n` on generator thread `thread`.
    fn request_id(self, thread: usize, n: u64) -> u64 {
        (self.ordinal() << 48) | ((thread as u64) << 40) | n
    }
}

/// Closed loop for `duration`: every driver keeps `window` requests in
/// flight. Returns the samples of all threads, ordered by completion.
pub fn closed_phase(
    drivers: &mut [Box<dyn Driver>],
    window: usize,
    duration: Duration,
    slice: Slice,
    recorder: Option<&Recorder>,
) -> Vec<Sample> {
    let start = Instant::now();
    let end = start + duration;
    let mut all: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = drivers
            .iter_mut()
            .enumerate()
            .map(|(t, driver)| {
                scope.spawn(move || {
                    let mut rng = slice.rng(t);
                    let mut samples = Vec::new();
                    let mut sent_at: VecDeque<u64> = VecDeque::with_capacity(window);
                    let now_ns = |at: Instant| at.duration_since(start).as_nanos() as u64;
                    for _ in 0..window {
                        driver.send(rng.gen_range(0..POOL));
                        sent_at.push_back(now_ns(Instant::now()));
                    }
                    while let Some(sent_ns) = sent_at.pop_front() {
                        let outcome = driver.recv();
                        let done = Instant::now();
                        let sample = Sample {
                            due_ns: sent_ns,
                            ready_ns: sent_ns,
                            sent_ns,
                            done_ns: now_ns(done),
                            outcome,
                        };
                        if let Some(rec) = recorder {
                            let req = slice.request_id(t, samples.len() as u64);
                            record_request(rec, start, driver.entry_layer(), req, &sample);
                        }
                        samples.push(sample);
                        if done < end {
                            driver.send(rng.gen_range(0..POOL));
                            sent_at.push_back(now_ns(Instant::now()));
                        }
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a closed-loop generator thread panicked"))
            .collect()
    });
    all.sort_by_key(|s| s.done_ns);
    all
}

/// How long before a due time an open-loop generator stops sleeping
/// and spins.
const SPIN: Duration = Duration::from_millis(1);

/// The open-loop arrival schedule: tick `k` is due at `k · tick_us`
/// and carries `burst` arrivals, dealt round-robin to the threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    pub tick_us: u64,
    pub burst: usize,
    pub threads: usize,
}

impl Schedule {
    /// Arrivals thread `t` sends at tick `k`.
    pub fn share(&self, tick: u64, t: usize) -> usize {
        let first = tick as usize * self.burst;
        (first..first + self.burst).filter(|a| a % self.threads == t).count()
    }

    /// Ticks that fall inside `duration`.
    pub fn ticks(&self, duration: Duration) -> u64 {
        (duration.as_micros() as u64).div_ceil(self.tick_us)
    }
}

/// The open loop's view of time, nanoseconds from the phase start.
/// Real in a run, virtual in the tests that inject a stall.
pub struct Clock<'a> {
    pub now_ns: &'a dyn Fn() -> u64,
    pub wait_until_ns: &'a dyn Fn(u64),
}

/// Thread `t`'s open loop: waits for each tick's due time, sends its
/// share, completes it, and times every request from the due time even
/// when it could only be sent late.
pub fn open_thread(
    driver: &mut dyn Driver,
    schedule: Schedule,
    t: usize,
    ticks: u64,
    rng: &mut StdRng,
    clock: Clock<'_>,
    mut on_sample: impl FnMut(&Sample),
) -> Vec<Sample> {
    let Clock { now_ns, wait_until_ns } = clock;
    let mut samples = Vec::new();
    let mut ready_ns = 0u64;
    for tick in 0..ticks {
        let share = schedule.share(tick, t);
        if share == 0 {
            continue;
        }
        let due_ns = tick * schedule.tick_us * 1_000;
        wait_until_ns(due_ns);
        let mut sent = Vec::with_capacity(share);
        for _ in 0..share {
            driver.send(rng.gen_range(0..POOL));
            let sent_ns = now_ns();
            sent.push((ready_ns, sent_ns));
            ready_ns = sent_ns;
        }
        for (ready_ns, sent_ns) in sent {
            let outcome = driver.recv();
            let sample = Sample { due_ns, ready_ns, sent_ns, done_ns: now_ns(), outcome };
            on_sample(&sample);
            samples.push(sample);
        }
        ready_ns = now_ns();
    }
    samples
}

/// Open loop for `duration` on the fixed `schedule`.
pub fn open_phase(
    drivers: &mut [Box<dyn Driver>],
    schedule: Schedule,
    duration: Duration,
    slice: Slice,
    recorder: Option<&Recorder>,
) -> Vec<Sample> {
    let start = Instant::now();
    let ticks = schedule.ticks(duration);
    let mut all: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = drivers
            .iter_mut()
            .enumerate()
            .map(|(t, driver)| {
                scope.spawn(move || {
                    let mut rng = slice.rng(t);
                    let now_ns = || start.elapsed().as_nanos() as u64;
                    let wait_until_ns = |due_ns: u64| {
                        // Sleep to just short of the due time, then
                        // spin: a timer wake-up on this host is 0.1–1 ms
                        // late, and that is the generator's lateness,
                        // not the system's latency. The spin ends before
                        // the request exists, so it takes no core from
                        // the system while a request is in flight.
                        let due = start + Duration::from_nanos(due_ns);
                        if let Some(nap) = due.checked_duration_since(Instant::now() + SPIN) {
                            std::thread::sleep(nap);
                        }
                        while Instant::now() < due {
                            std::hint::spin_loop();
                        }
                    };
                    let layer = driver.entry_layer();
                    let mut n = 0u64;
                    open_thread(
                        driver.as_mut(),
                        schedule,
                        t,
                        ticks,
                        &mut rng,
                        Clock { now_ns: &now_ns, wait_until_ns: &wait_until_ns },
                        |sample| {
                            if let Some(rec) = recorder {
                                record_request(rec, start, layer, slice.request_id(t, n), sample);
                            }
                            n += 1;
                        },
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("an open-loop generator thread panicked"))
            .collect()
    });
    all.sort_by_key(|s| s.due_ns);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Answers in 1 ms on a virtual clock, except one request that
    /// stalls for 50 ms.
    struct Stalling {
        clock: Arc<AtomicU64>,
        served: usize,
        stall_at: usize,
    }

    impl Driver for Stalling {
        fn send(&mut self, _idx: usize) {}
        fn recv(&mut self) -> Outcome {
            let cost = if self.served == self.stall_at { 50_000_000 } else { 1_000_000 };
            self.served += 1;
            self.clock.fetch_add(cost, Ordering::Relaxed);
            Outcome { ok: true, ..Outcome::default() }
        }
        fn entry_layer(&self) -> &'static str {
            "test"
        }
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_queued_behind_it() {
        // 100 req/s on one thread: a tick every 10 ms, 1 ms service.
        let clock = Arc::new(AtomicU64::new(0));
        let mut driver = Stalling { clock: Arc::clone(&clock), served: 0, stall_at: 3 };
        let schedule = Schedule { tick_us: 10_000, burst: 1, threads: 1 };
        let now_ns = || clock.load(Ordering::Relaxed);
        let wait_until_ns = |due: u64| {
            clock.fetch_max(due, Ordering::Relaxed);
        };
        let mut rng = StdRng::seed_from_u64(1);
        let clock = Clock { now_ns: &now_ns, wait_until_ns: &wait_until_ns };
        let samples = open_thread(&mut driver, schedule, 0, 12, &mut rng, clock, |_| {});
        assert_eq!(samples.len(), 12);
        let lat: Vec<u64> = samples.iter().map(Sample::latency_us).collect();
        // Request 3 is due at 30 ms and stalls until 80 ms.
        assert_eq!(lat[3], 50_000);
        // Requests due at 40..70 ms could not be sent until 80 ms and
        // after: a closed loop would report 1 ms for each of them.
        assert_eq!(samples[4].sent_ns - samples[4].due_ns, 40_000_000);
        assert_eq!(lat[4], 41_000);
        assert_eq!(lat[5], 32_000);
        assert_eq!(lat[6], 23_000);
        assert_eq!(lat[7], 14_000);
        // The backlog is gone by the request due at 90 ms.
        assert_eq!(lat[9], 1_000);
        // None of that wait was the generator's own: it sent each
        // request the moment the connection was free.
        assert!(samples.iter().all(|s| s.late_us() == 0));
    }

    #[test]
    fn a_generator_that_oversleeps_is_reported_as_late() {
        // The system answers in 1 ms; the generator's sleep before the
        // request due at 30 ms overshoots by 50 ms.
        let clock = Arc::new(AtomicU64::new(0));
        let mut driver = Stalling { clock: Arc::clone(&clock), served: 0, stall_at: usize::MAX };
        let schedule = Schedule { tick_us: 10_000, burst: 1, threads: 1 };
        let now_ns = || clock.load(Ordering::Relaxed);
        let wait_until_ns = |due: u64| {
            let overshoot = if due == 30_000_000 { 50_000_000 } else { 0 };
            clock.fetch_max(due + overshoot, Ordering::Relaxed);
        };
        let mut rng = StdRng::seed_from_u64(1);
        let clock = Clock { now_ns: &now_ns, wait_until_ns: &wait_until_ns };
        let samples = open_thread(&mut driver, schedule, 0, 6, &mut rng, clock, |_| {});
        let late: Vec<u64> = samples.iter().map(Sample::late_us).collect();
        assert_eq!(late, vec![0, 0, 0, 50_000, 0, 0]);
        // The late send still counts against the request's latency.
        assert_eq!(samples[3].latency_us(), 51_000);
        assert_eq!(samples[4].latency_us(), 42_000);
    }

    #[test]
    fn bursts_are_dealt_round_robin() {
        let s = Schedule { tick_us: 200_000, burst: 16, threads: 2 };
        assert_eq!((s.share(0, 0), s.share(0, 1)), (8, 8));
        let s = Schedule { tick_us: 10_000, burst: 1, threads: 2 };
        assert_eq!((s.share(0, 0), s.share(0, 1)), (1, 0));
        assert_eq!((s.share(1, 0), s.share(1, 1)), (0, 1));
        assert_eq!(s.ticks(Duration::from_millis(2_500)), 250);
    }
}
