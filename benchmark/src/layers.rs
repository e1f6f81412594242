//! Per-layer metrics of the traced run, all measured from outside:
//!
//! * fields the system already returns (`queue_us`, `compute_us`,
//!   `batch_size`; the public atomics of `serve::Metrics` and
//!   `ClusterMetrics`),
//! * residuals of client-observed times,
//! * a *layer replay*: sampled requests walked on one thread through
//!   the public functions in path order, one span each,
//! * a `WeightCompute` wrapper that times each named FC product around
//!   `QuantizedEngine`.
//!
//! A layer that is not on a workload's path reports 0 there: that is
//! its share of that workload's requests.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gobo::format::CompressedModel;
use gobo_cluster::{Ring, Router};
use gobo_memsim::{EnergyModel, InferenceTraffic};
use gobo_model::footprint::Footprint;
use gobo_model::{EncodeInput, ModelError, TransformerModel, WeightCompute};
use gobo_proto::frame::{
    read_frame, write_frame, EncodeOkFrame, EncodeRequestFrame, EncodeResponseFrame, Frame,
    MAX_PAYLOAD,
};
use gobo_quant::{integrity, packing, QuantizedMatrix};
use gobo_serve::json::Json;
use gobo_serve::{parse_encode_body, parse_request, EncodeRequest, HttpClient, QuantizedEngine};
use gobo_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::httpc::{encode_request_body, encode_request_bytes};
use crate::load::{http_requests, Driver, HttpDriver, Sample};
use crate::oracle::{tensor_fields, Expected, Oracle};
use crate::run::{LayerContext, Metric};
use crate::setup::Artifact;
use crate::spec::{Kind, CALIBRATION_MS, MICROBENCH_MS, POOL, REPLAY_SAMPLES, SEQ_LEN};
use crate::stats::{median, percentile, samples_needed};
use crate::trace::{Recorder, Span};

/// Counters read off the router's public `ClusterMetrics`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouterCounters {
    pub requests: u64,
    pub hedge_fires: u64,
    pub hedge_wins: u64,
    pub failovers: u64,
}

impl RouterCounters {
    pub fn read(router: Option<&Router>) -> RouterCounters {
        let Some(router) = router else {
            return RouterCounters::default();
        };
        let m = router.metrics();
        RouterCounters {
            requests: m.requests.load(Ordering::Relaxed),
            hedge_fires: m.hedge_fires.load(Ordering::Relaxed),
            hedge_wins: m.hedge_wins.load(Ordering::Relaxed),
            failovers: m.failovers.load(Ordering::Relaxed),
        }
    }
}

/// Repeats `f` until `budget` is spent (at least five times) and
/// returns the median seconds per call.
fn bench_s<T>(budget: Duration, mut f: impl FnMut() -> T) -> f64 {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < 5 || started.elapsed() < budget {
        let t = Instant::now();
        black_box(f());
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= 100_000 {
            break;
        }
    }
    median(&times).unwrap_or(0.0)
}

fn micro<T>(f: impl FnMut() -> T) -> f64 {
    bench_s(Duration::from_millis(MICROBENCH_MS), f)
}

/// Median of integer samples; 0 when there are none.
fn median_of(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>()).unwrap_or(0.0)
}

// ---------------------------------------------------------------------------
// Machine calibration
// ---------------------------------------------------------------------------

/// Streaming scalar dot product over L1-resident operands: one serial
/// `acc += a·b` chain, the summation order every kernel here is
/// defined by. GMAC/s.
pub fn dot_f32_gmacs(budget: Duration) -> f64 {
    const N: usize = 2048; // 2 × 8 KiB, inside any L1d
    const PASSES: usize = 256;
    let a: Vec<f32> = (0..N).map(|i| (i as f32 * 0.37).sin()).collect();
    let b: Vec<f32> = (0..N).map(|i| (i as f32 * 0.11).cos()).collect();
    let per_call = bench_s(budget, || {
        let mut total = 0.0f32;
        for _ in 0..PASSES {
            let (a, b) = (black_box(&a), black_box(&b));
            let mut acc = 0.0f32;
            for (x, y) in a.iter().zip(b.iter()) {
                acc += x * y;
            }
            total += acc;
        }
        total
    });
    (N * PASSES) as f64 / per_call / 1e9
}

/// `copy_from_slice` between buffers far larger than the last-level
/// cache. GB/s of bytes copied.
pub fn memcpy_gb_per_s(budget: Duration) -> f64 {
    const BYTES: usize = 64 << 20;
    let src = vec![0x5Au8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let per_call = bench_s(budget, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    BYTES as f64 / per_call / 1e9
}

// ---------------------------------------------------------------------------
// FC timing around the engine
// ---------------------------------------------------------------------------

fn fc_group(name: &str) -> usize {
    if name.ends_with(".attention.query")
        || name.ends_with(".attention.key")
        || name.ends_with(".attention.value")
    {
        0
    } else if name.ends_with(".attention.output") {
        1
    } else if name.ends_with(".intermediate") {
        2
    } else if name.ends_with(".output") {
        3
    } else {
        4
    }
}

/// Span name of each FC group of an encoder (Σ over layers); the
/// metric is `model.fc_us.<group>`.
const FC_SPAN_NAMES: [&str; 5] = [
    "model.fc.attention_qkv",
    "model.fc.attention_output",
    "model.fc.intermediate",
    "model.fc.output",
    "model.fc.pooler",
];

/// Times every named FC product on its way into the engine.
struct TimingCompute<'a> {
    inner: &'a QuantizedEngine,
    recorder: &'a Recorder,
    parent: u32,
    req: u64,
    group_ns: RefCell<[u64; 5]>,
}

impl WeightCompute for TimingCompute<'_> {
    fn matmul_nt(
        &self,
        model: &TransformerModel,
        name: &str,
        input: &Tensor,
    ) -> Result<Tensor, ModelError> {
        let group = fc_group(name);
        let start = Instant::now();
        let out = self.inner.matmul_nt(model, name, input);
        let end = Instant::now();
        self.group_ns.borrow_mut()[group] += (end - start).as_nanos() as u64;
        self.recorder.span(
            FC_SPAN_NAMES[group],
            self.recorder.ns(start),
            self.recorder.ns(end),
            self.parent,
            self.req,
        );
        out
    }
}

// ---------------------------------------------------------------------------
// The measurements
// ---------------------------------------------------------------------------

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

fn input_of(expected: &Expected) -> EncodeInput<'_> {
    EncodeInput { ids: &expected.ids, type_ids: &[] }
}

/// Renders an encode response the way the front door does (same
/// `serve::json` calls, same field order).
fn render_response(model: &str, bits: u8, e: &Expected) -> String {
    let mut fields = vec![
        ("model", Json::Str(model.to_owned())),
        ("bits", Json::Num(f64::from(bits))),
        ("rev", Json::Num(1.0)),
        ("batch_size", Json::Num(1.0)),
        ("queue_us", Json::Num(2000.0)),
        ("compute_us", Json::Num(3000.0)),
    ];
    fields.extend(tensor_fields(&e.hidden, e.dims, e.pooled.as_deref()));
    Json::obj(fields).to_string()
}

fn ok_frame(model: &str, bits: u8, e: &Expected) -> Frame {
    Frame::EncodeResponse(EncodeResponseFrame {
        id: 1,
        result: Ok(EncodeOkFrame {
            model: model.to_owned(),
            bits,
            dims: e.dims.iter().map(|&d| d as u32).collect(),
            hidden: e.hidden.clone(),
            pooled: e.pooled.clone(),
            batch_size: 1,
            queue_us: 2000,
            compute_us: 3000,
        }),
    })
}

fn request_frame(model: &str, e: &Expected, id: u64) -> Frame {
    Frame::EncodeRequest(EncodeRequestFrame {
        id,
        model: model.to_owned(),
        bits: 0,
        deadline_ms: 0,
        ids: e.ids.iter().map(|&v| v as u32).collect(),
        type_ids: Vec::new(),
    })
}

/// Every per-layer metric except the two the caller derives from the
/// span set (`trace.closure_share`, `obs.trace_overhead_pct`). On a
/// workload with two models the model-dependent rows describe the
/// first.
pub fn measure(cx: &LayerContext<'_>) -> Result<Vec<Metric>, String> {
    let artifact = &cx.artifacts[0];
    let decoded = Arc::new(artifact.compressed.decode().map_err(err("decode"))?);
    let mut layers = Layers {
        cx,
        artifact,
        oracle: &cx.oracles[0],
        decoded,
        rng: StdRng::seed_from_u64(cx.seed ^ 0x001A_7E55),
        out: Vec::new(),
    };
    let dot_gmacs = layers.machine();
    layers.core_and_memsim();
    layers.kernels(dot_gmacs)?;
    layers.engine_and_model()?;
    layers.codecs()?;
    layers.registry_and_lifecycle();
    layers.scheduler()?;
    layers.front_doors()?;
    layers.load()?;
    Ok(layers.out)
}

/// Cap on one replay loop (it also stops at `REPLAY_SAMPLES`).
const REPLAY_BUDGET: Duration = Duration::from_millis(MICROBENCH_MS * 2);
/// Requests per socket replay: each costs a connect or a full forward.
const SOCKET_SAMPLES: usize = REPLAY_SAMPLES / 4;

struct Layers<'a> {
    cx: &'a LayerContext<'a>,
    /// The workload's first model.
    artifact: &'a Artifact,
    oracle: &'a Oracle,
    decoded: Arc<TransformerModel>,
    rng: StdRng,
    out: Vec<Metric>,
}

impl Layers<'_> {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.out.push(Metric::scalar(name, value, unit));
    }

    /// The ceiling kernels are stated against. Returns the dot rate.
    fn machine(&mut self) -> f64 {
        let budget = Duration::from_millis(CALIBRATION_MS);
        let dot_gmacs = dot_f32_gmacs(budget);
        self.put("machine.dot_f32.gmacs", dot_gmacs, "GMAC/s");
        self.put("machine.memcpy.gb_per_s", memcpy_gb_per_s(budget), "GB/s");
        dot_gmacs
    }

    /// Quantize, serialize, parse, decode; and the paper's headline as
    /// a stated count (computed, not measured).
    fn core_and_memsim(&mut self) {
        let (artifact, quantize_s) = (self.artifact, self.cx.quantize_s);
        let (compressed, bytes) = (&artifact.compressed, &artifact.bytes);
        self.put("core.quantize_model.s", quantize_s, "s");
        self.put(
            "core.quantize_model.mweights_per_s",
            artifact.weights as f64 / 1e6 / quantize_s.max(1e-9),
            "Mweights/s",
        );
        self.put("core.compression_ratio", artifact.compression_ratio, "ratio");
        self.put("core.to_bytes.ms", micro(|| compressed.to_bytes()) * 1e3, "ms");
        let from_bytes_s = micro(|| CompressedModel::from_bytes(bytes));
        self.put("core.from_bytes.ms", from_bytes_s * 1e3, "ms");
        self.put("core.from_bytes.mb_per_s", bytes.len() as f64 / 1e6 / from_bytes_s, "MB/s");
        self.put("core.decode.ms", micro(|| compressed.decode()) * 1e3, "ms");

        let fp32 = InferenceTraffic::fp32(&Footprint::of(self.decoded.config(), SEQ_LEN));
        let gobo = fp32.with_weight_compression(artifact.compression_ratio);
        self.put("memsim.offchip_bytes_per_inference.fp32", fp32.total_bytes(), "B");
        self.put("memsim.offchip_bytes_per_inference.gobo", gobo.total_bytes(), "B");
        self.put("memsim.energy_uj_per_inference.gobo", EnergyModel::default().energy(&gobo), "uJ");
    }

    /// Dense and packed products at the model's widest FC shape.
    fn kernels(&mut self, dot_gmacs: f64) -> Result<(), String> {
        let fc_name = "encoder.0.intermediate";
        let decoded = Arc::clone(&self.decoded);
        let dense_w = decoded.weight(fc_name).map_err(err("weight"))?;
        let (rows, cols) = match dense_w.dims() {
            &[r, c] => (r, c),
            _ => return Err("FC weight is not rank 2".into()),
        };
        let compressed = &self.artifact.compressed;
        let layer = compressed.archive.get(fc_name).ok_or("FC layer missing from the archive")?;
        let matrix = QuantizedMatrix::new(layer.clone(), rows, cols).map_err(err("matrix"))?;
        let panel =
            |r: usize| -> Vec<f32> { (0..r * cols).map(|i| (i as f32 * 0.13).sin()).collect() };
        let gmacs = |r: usize, secs: f64| (r * rows * cols) as f64 / secs / 1e9;
        for r in [8usize, 256] {
            let a = Tensor::from_vec(panel(r), &[r, cols]).map_err(err("panel"))?;
            let s = micro(|| a.matmul_nt(dense_w));
            self.put(&format!("tensor.matmul_nt.gmacs.r{r}"), gmacs(r, s), "GMAC/s");
        }
        let mut blocked = 0.0;
        for r in [8usize, 64, 256] {
            let a = panel(r);
            blocked = gmacs(r, micro(|| matrix.matmul_blocked(&a)));
            self.put(&format!("quant.matmul_blocked.gmacs.r{r}"), blocked, "GMAC/s");
        }
        self.put("quant.matmul_blocked.pct_of_dot.r256", blocked / dot_gmacs * 100.0, "%");
        // Computed from tensor sizes, not measured: packed indices,
        // outlier positions and values, the codebook, one read of the
        // activation panel and one write of the output, per MAC at the
        // workload's 8-row panel.
        let (outlier_pos, outlier_val) = layer.outliers();
        let moved = layer.packed_indices().len()
            + (outlier_pos.len() + outlier_val.len() + layer.codebook().centroids().len()) * 4
            + SEQ_LEN * (cols + rows) * 4;
        self.put(
            "quant.matmul_blocked.bytes_per_mac",
            moved as f64 / (SEQ_LEN * rows * cols) as f64,
            "B/MAC",
        );
        // Tile by tile, as the blocked kernel asks for its index runs.
        let g_count = layer.total() - layer.outlier_count();
        let mut run = vec![0u8; 256];
        let whole_runs = g_count - g_count % run.len();
        let unpack_s = micro(|| {
            for at in (0..whole_runs).step_by(run.len()) {
                let _ = packing::unpack_run(layer.packed_indices(), layer.bits(), at, &mut run);
            }
            run[0]
        });
        self.put("quant.unpack_run.melems_per_s", whole_runs as f64 / 1e6 / unpack_s, "Melem/s");
        let bytes = &self.artifact.bytes;
        let crc_s = micro(|| integrity::crc32(bytes));
        self.put("quant.crc32.mb_per_s", bytes.len() as f64 / 1e6 / crc_s, "MB/s");
        Ok(())
    }

    /// The packed forward at three batch sizes, the dense reference,
    /// and the forward split into its FC groups and everything else.
    fn engine_and_model(&mut self) -> Result<(), String> {
        let (cx, oracle, compressed) = (self.cx, self.oracle, &self.artifact.compressed);
        let decoded = Arc::clone(&self.decoded);
        let build_s = micro(|| QuantizedEngine::new(Arc::clone(&decoded), compressed));
        self.put("serve.engine.build.us", build_s * 1e6, "us");
        let engine =
            QuantizedEngine::new(Arc::clone(&decoded), compressed).map_err(err("engine"))?;
        let batch_of = |n: usize| -> Vec<EncodeInput<'_>> {
            (0..n).map(|i| input_of(&oracle.pool[i % POOL])).collect()
        };
        let mut engine_us = BTreeMap::new();
        for b in [1usize, 8, 32] {
            let inputs = batch_of(b);
            let us = micro(|| engine.encode_batch(&inputs)) * 1e6;
            self.put(&format!("serve.engine.encode_batch.us.b{b}"), us, "us");
            engine_us.insert(b, us);
        }
        let per_token = |b: usize| engine_us[&b] / (b * SEQ_LEN) as f64;
        self.put("serve.engine.us_per_token.b1", per_token(1), "us");
        self.put("serve.engine.us_per_token.b32", per_token(32), "us");
        self.put("serve.engine.amortization", per_token(1) / per_token(32), "ratio");
        let one = batch_of(1);
        let dense_us = micro(|| decoded.encode_batch(&one)) * 1e6;
        self.put("model.encode_batch_dense.us.b1", dense_us, "us");
        self.put("serve.engine.packed_over_dense", engine_us[&1] / dense_us, "ratio");

        let mut forward_ns = Vec::new();
        let mut group_ns: [Vec<u64>; 5] = Default::default();
        let started = Instant::now();
        for n in 0..REPLAY_SAMPLES {
            if n >= 20 && started.elapsed() > REPLAY_BUDGET {
                break;
            }
            let req = replay_req(1, n);
            let expected = &oracle.pool[self.rng.gen_range(0..POOL)];
            let root = cx.recorder.next_id();
            let timing = TimingCompute {
                inner: &engine,
                recorder: cx.recorder,
                parent: root,
                req,
                group_ns: RefCell::new([0; 5]),
            };
            let t0 = Instant::now();
            let outputs = decoded.encode_batch_with(&timing, &[input_of(expected)]);
            let t1 = Instant::now();
            black_box(outputs.map_err(err("forward"))?);
            cx.recorder.push(Span {
                name: "model.forward",
                start_ns: cx.recorder.ns(t0),
                end_ns: cx.recorder.ns(t1),
                id: root,
                parent: 0,
                req,
            });
            forward_ns.push((t1 - t0).as_nanos() as u64);
            for (g, ns) in timing.group_ns.into_inner().into_iter().enumerate() {
                group_ns[g].push(ns);
            }
        }
        let forward_us = median_of(&forward_ns) / 1e3;
        let mut fc_us = 0.0;
        for (span, ns) in FC_SPAN_NAMES.iter().zip(&group_ns) {
            let us = median_of(ns) / 1e3;
            self.put(&span.replacen("model.fc.", "model.fc_us.", 1), us, "us");
            fc_us += us;
        }
        self.put("model.nonfc_us", (forward_us - fc_us).max(0.0), "us");
        self.put(
            "model.fc_share",
            if forward_us > 0.0 { fc_us / forward_us } else { 0.0 },
            "ratio",
        );
        Ok(())
    }

    /// `serve.json`, `serve.http` parsing, `proto`, `cluster.ring`,
    /// `serve.metrics`: pure functions of bytes.
    fn codecs(&mut self) -> Result<(), String> {
        let spec = self.artifact.spec;
        let sample = &self.oracle.pool[0];
        let floats = sample.hidden.len() + sample.pooled.as_ref().map_or(0, Vec::len);
        let render_s = micro(|| render_response(spec.name, spec.bits, sample));
        self.put("serve.json.render.ns_per_float", render_s * 1e9 / floats as f64, "ns");
        let wire = encode_request_bytes(spec.name, &sample.ids);
        let body_at = wire.windows(4).position(|w| w == b"\r\n\r\n").map_or(0, |p| p + 4);
        let body = &wire[body_at..];
        self.put("serve.json.parse_encode_body.us", micro(|| parse_encode_body(body)) * 1e6, "us");
        let parse_s = micro(|| parse_request(&mut BufReader::new(&wire[..]), 4 << 20));
        self.put("serve.http.parse_request.us", parse_s * 1e6, "us");

        let frame = ok_frame(spec.name, spec.bits, sample);
        let mut frame_bytes = Vec::new();
        write_frame(&mut frame_bytes, &frame).map_err(err("write_frame"))?;
        let write_s = micro(|| {
            let mut sink = Vec::with_capacity(frame_bytes.len());
            write_frame(&mut sink, &frame).map(|()| sink)
        });
        self.put("proto.write_frame.us", write_s * 1e6, "us");
        let read_s = micro(|| read_frame(&mut &frame_bytes[..], MAX_PAYLOAD));
        self.put("proto.read_frame.us", read_s * 1e6, "us");
        self.put("proto.frame_bytes", frame_bytes.len() as f64, "B");

        let (ring, key) = (bench_ring(), ring_key(spec.name));
        let ring_s = micro(|| {
            (0..1000).map(|_| black_box(&ring).replicas(black_box(&key), 2).len()).sum::<usize>()
        });
        self.put("cluster.ring.replicas.ns", ring_s * 1e9 / 1000.0, "ns");
        let core = &self.cx.stack.cores[0];
        self.put("serve.metrics.render.us", micro(|| core.metrics().render()) * 1e6, "us");
        Ok(())
    }

    fn registry_and_lifecycle(&mut self) {
        let cx = self.cx;
        let (core, name) = (&cx.stack.cores[0], self.artifact.spec.name);
        let get_s = micro(|| (0..1000).filter(|_| core.registry().get(name, None).is_ok()).count());
        self.put("serve.registry.get.ns", get_s * 1e9 / 1000.0, "ns");
        let path = &cx.stack.model_paths[0];
        let read_parse_s =
            micro(|| std::fs::read(path).map(|b| CompressedModel::from_bytes(&b).is_ok()));
        self.put("serve.registry.publish.read_parse_ms", read_parse_s * 1e3, "ms");
        let compressed = &self.artifact.compressed;
        self.put("serve.registry.publish.decode_ms", micro(|| compressed.decode()) * 1e3, "ms");
        self.put("serve.registry.publish.ms.p50", median(cx.publish_ms).unwrap_or(0.0), "ms");
        let resident: usize = cx.stack.cores.iter().map(|c| c.registry().resident_bytes()).sum();
        let containers: usize =
            cx.artifacts.iter().map(|a| a.bytes.len()).sum::<usize>() * cx.stack.cores.len();
        self.put("serve.registry.resident_bytes", resident as f64, "B");
        self.put(
            "serve.registry.resident_over_container",
            resident as f64 / containers as f64,
            "ratio",
        );
        self.put("serve.registry.draining_peak", cx.draining_peak as f64, "count");

        let (before, after) = (cx.before, cx.after);
        let publishes = after.reloads - before.reloads;
        let promotions = after.promotions - before.promotions;
        self.put(
            "serve.lifecycle.promoted_share",
            if publishes > 0 { promotions as f64 / publishes as f64 } else { 0.0 },
            "ratio",
        );
        self.put("serve.lifecycle.rollbacks", (after.rollbacks - before.rollbacks) as f64, "count");
        self.put(
            "serve.lifecycle.canary_batches",
            (after.canary_batches - before.canary_batches) as f64,
            "count",
        );
    }

    /// What the load phases saw of the scheduler, then the path walk.
    fn scheduler(&mut self) -> Result<(), String> {
        let cx = self.cx;
        let mut queue_us: Vec<u64> = cx.answered().map(|s| s.outcome.queue_us).collect();
        queue_us.sort_unstable();
        for (name, permille) in [("p50", 500), ("p95", 950)] {
            self.put(
                &format!("serve.scheduler.queue_wait_us.{name}"),
                percentile(&queue_us, permille).unwrap_or(0) as f64,
                "us",
            );
        }
        let batches = cx.after.batches - cx.before.batches;
        let batched = cx.after.batched_requests - cx.before.batched_requests;
        self.put(
            "serve.scheduler.batch_size.mean",
            if batches > 0 { batched as f64 / batches as f64 } else { 0.0 },
            "count",
        );
        self.put("serve.scheduler.batch_size.max", cx.after.batch_size_max as f64, "count");
        self.put("serve.scheduler.batches", batches as f64, "count");
        self.put(
            "serve.scheduler.rejected",
            (cx.after.rejected - cx.before.rejected) as f64,
            "count",
        );
        // Every response of a batch carries the batch's compute time,
        // so compute_us ÷ batch_size summed over responses is Σ
        // distinct-batch compute time.
        let busy_us: f64 = cx
            .closed
            .iter()
            .filter(|s| s.outcome.ok && s.outcome.batch > 0)
            .map(|s| s.outcome.compute_us as f64 / s.outcome.batch as f64)
            .sum();
        let workers: usize = cx.stack.cores.iter().map(|c| c.scheduler().config().workers).sum();
        self.put(
            "serve.scheduler.worker_busy_share",
            busy_us / 1e6 / (cx.closed_wall_s * workers.max(1) as f64),
            "ratio",
        );
        let submit_ns = walk_request_path(cx, &mut self.rng)?;
        self.put("serve.scheduler.submit.us", median_of(&submit_ns) / 1e3, "us");
        Ok(())
    }

    /// The HTTP front doors and the cluster hop, where they are on the
    /// workload's path; 0 where they are not.
    fn front_doors(&mut self) -> Result<(), String> {
        let cx = self.cx;
        let mut http_overhead = 0.0;
        let mut http_fresh_extra = 0.0;
        let mut cluster = ClusterLayer::default();
        if matches!(cx.workload.kind, Kind::HttpSingle | Kind::ClusterRouted) {
            let addr = cx.stack.http_addr.as_deref().ok_or("no front door")?;
            let keep_alive_us = keep_alive_rtt_us(cx, addr, &mut self.rng)?;
            let fresh_us = fresh_http_rtt_us(cx, addr, &mut self.rng)?;
            http_fresh_extra = (fresh_us - keep_alive_us).max(0.0);
            if cx.workload.kind == Kind::HttpSingle {
                let residual: Vec<u64> = cx
                    .answered()
                    .map(|s| {
                        ((s.done_ns - s.sent_ns) / 1_000)
                            .saturating_sub(s.outcome.queue_us + s.outcome.compute_us)
                    })
                    .collect();
                http_overhead = median_of(&residual);
            } else {
                cluster = cluster_layer(cx, keep_alive_us, &mut self.rng)?;
            }
        }
        self.put("serve.http.overhead_us.p50", http_overhead, "us");
        self.put("serve.http.fresh_conn_extra_us.p50", http_fresh_extra, "us");
        self.put("cluster.router.encode_us.p50", cluster.encode_us, "us");
        self.put("cluster.router.hop_overhead_us.p50", cluster.hop_overhead_us, "us");
        self.put("cluster.router.hedge_fire_share", cluster.hedge_fire_share, "ratio");
        self.put("cluster.router.hedge_win_share", cluster.hedge_win_share, "ratio");
        self.put("cluster.router.failovers", cluster.failovers, "count");
        self.put("cluster.node.frame_rtt_us.p50", cluster.frame_rtt_us, "us");
        self.put("cluster.node.fresh_conn_extra_us.p50", cluster.fresh_conn_extra_us, "us");
        self.put("cluster.http.overhead_us.p50", cluster.http_overhead_us, "us");
        Ok(())
    }

    /// The generator's own account of the run.
    fn load(&mut self) -> Result<(), String> {
        let cx = self.cx;
        let sent = cx.closed.len() + cx.open.len();
        let ok = cx.answered().count();
        let mismatched = cx.closed.iter().chain(cx.open).filter(|s| s.outcome.mismatch).count();
        self.put("load.sent", sent as f64, "count");
        self.put("load.ok", ok as f64, "count");
        self.put("load.failed", (sent - ok) as f64, "count");
        self.put("load.mismatched", mismatched as f64, "count");
        let max_late = cx.open.iter().map(Sample::late_us).max().unwrap_or(0);
        self.put("load.max_late_us", max_late as f64, "us");
        let slo_us = cx.workload.slo_ms * 1_000;
        let missed = cx.open.iter().filter(|s| !s.outcome.ok || s.latency_us() > slo_us).count();
        self.put("load.slo_miss_share", missed as f64 / cx.open.len().max(1) as f64, "ratio");
        let mut open_us: Vec<u64> = cx.open.iter().map(Sample::latency_us).collect();
        open_us.sort_unstable();
        // The tail is a diagnostic, pooled over the run: on this host
        // it follows the neighbours, not the program.
        for (name, permille) in [("p95", 950), ("p99", 990)] {
            let name = format!("load.latency_{name}_us.pooled");
            let value = percentile(&open_us, permille).ok_or_else(|| {
                let needs = samples_needed(permille);
                format!("{name}: {} open-loop samples, needs {needs}", open_us.len())
            })?;
            self.put(&name, value as f64, "us");
        }
        Ok(())
    }
}

/// The ring of the `cluster-routed` stack: three members, the
/// router's default 64 virtual nodes each.
fn bench_ring() -> Ring {
    let members: Vec<String> = (1..=3).map(|i| format!("n{i}")).collect();
    Ring::new(&members, 64)
}

/// The router's key for a request that names no bit width.
fn ring_key(model: &str) -> String {
    format!("{model}@0b")
}

/// Request id of replay request `n` of replay `kind`; bit 62 keeps
/// these apart from the load phases' ids.
fn replay_req(kind: u64, n: usize) -> u64 {
    (1 << 62) | (kind << 32) | n as u64
}

/// The layer replay: sampled requests walked on one thread through the
/// public functions of the workload's path, in path order, one span
/// each under a `replay.request` root. Returns the `Scheduler::submit`
/// call times in nanoseconds.
fn walk_request_path(cx: &LayerContext<'_>, rng: &mut StdRng) -> Result<Vec<u64>, String> {
    let rec = cx.recorder;
    let spec = &cx.artifacts[0].spec;
    let oracle = &cx.oracles[0];
    let core = &cx.stack.cores[0];
    let http = matches!(cx.workload.kind, Kind::HttpSingle | Kind::ClusterRouted);
    let routed = cx.workload.kind == Kind::ClusterRouted;
    let (ring, key) = (bench_ring(), ring_key(spec.name));
    let mut submit_ns = Vec::new();
    let started = Instant::now();
    for n in 0..REPLAY_SAMPLES {
        if n >= 20 && started.elapsed() > REPLAY_BUDGET {
            break;
        }
        let expected = &oracle.pool[rng.gen_range(0..POOL)];
        let req = replay_req(2, n);
        let root = rec.next_id();
        let t_start = Instant::now();
        let mut request = EncodeRequest::new(spec.name, expected.ids.clone());
        if http {
            let wire = encode_request_bytes(spec.name, &expected.ids);
            let parsed = rec
                .time("serve.http.parse_request", root, req, || {
                    parse_request(&mut BufReader::new(&wire[..]), 4 << 20)
                })
                .map_err(|_| "replay: request did not parse")?
                .ok_or("replay: empty request")?;
            request = rec
                .time("serve.json.parse_encode_body", root, req, || parse_encode_body(&parsed.body))
                .map_err(err("replay body"))?;
        }
        if routed {
            rec.time("cluster.ring.replicas", root, req, || {
                black_box(ring.replicas(&key, 2).len())
            });
            let frame = request_frame(spec.name, expected, n as u64);
            let mut bytes = Vec::new();
            rec.time("proto.write_frame", root, req, || write_frame(&mut bytes, &frame))
                .map_err(err("replay frame"))?;
            rec.time("proto.read_frame", root, req, || read_frame(&mut &bytes[..], MAX_PAYLOAD))
                .map_err(err("replay frame"))?;
        }
        let t0 = Instant::now();
        let rx = core.scheduler().submit(request).map_err(err("submit"))?;
        let t1 = Instant::now();
        let reply = rx.recv_timeout(Duration::from_secs(10)).map_err(err("reply"))?;
        let t2 = Instant::now();
        reply.map_err(err("encode"))?;
        rec.span("serve.scheduler.submit", rec.ns(t0), rec.ns(t1), root, req);
        rec.span("serve.scheduler.wait", rec.ns(t1), rec.ns(t2), root, req);
        submit_ns.push((t1 - t0).as_nanos() as u64);
        if routed {
            let frame = ok_frame(spec.name, spec.bits, expected);
            let mut bytes = Vec::new();
            rec.time("proto.write_frame", root, req, || write_frame(&mut bytes, &frame))
                .map_err(err("replay frame"))?;
            rec.time("proto.read_frame", root, req, || read_frame(&mut &bytes[..], MAX_PAYLOAD))
                .map_err(err("replay frame"))?;
        }
        if http {
            rec.time("serve.json.render", root, req, || {
                black_box(render_response(spec.name, spec.bits, expected).len())
            });
        }
        rec.push(Span {
            name: "replay.request",
            start_ns: rec.ns(t_start),
            end_ns: rec.ns(Instant::now()),
            id: root,
            parent: 0,
            req,
        });
    }
    Ok(submit_ns)
}

/// Sequential keep-alive requests against the idle front door; median
/// round trip in microseconds.
fn keep_alive_rtt_us(cx: &LayerContext<'_>, addr: &str, rng: &mut StdRng) -> Result<f64, String> {
    let oracle = Arc::clone(&cx.oracles[0]);
    let requests = http_requests(&oracle);
    let mut driver = HttpDriver::connect(addr, oracle, requests, "serve.http")?;
    let mut rtt = Vec::with_capacity(SOCKET_SAMPLES);
    for n in 0..SOCKET_SAMPLES {
        let t0 = Instant::now();
        driver.send(rng.gen_range(0..POOL));
        let outcome = driver.recv();
        let t1 = Instant::now();
        if !outcome.ok {
            return Err("replay: keep-alive request failed".into());
        }
        let req = replay_req(3, n);
        cx.recorder.span("replay.http_keep_alive", cx.recorder.ns(t0), cx.recorder.ns(t1), 0, req);
        rtt.push((t1 - t0).as_micros() as u64);
    }
    Ok(median_of(&rtt))
}

/// One request per fresh `Connection: close` socket, through the
/// repo's own `HttpClient`: connect, the listener's accept poll, the
/// connection thread's spawn, the request.
fn fresh_http_rtt_us(cx: &LayerContext<'_>, addr: &str, rng: &mut StdRng) -> Result<f64, String> {
    let oracle = &cx.oracles[0];
    let client = HttpClient::new(addr);
    let mut rtt = Vec::with_capacity(SOCKET_SAMPLES);
    for n in 0..SOCKET_SAMPLES {
        let idx = rng.gen_range(0..POOL);
        let body = encode_request_body(oracle.model, &oracle.pool[idx].ids);
        let t0 = Instant::now();
        let (status, response) = client.encode_raw(&body).map_err(err("fresh request"))?;
        let t1 = Instant::now();
        if status != 200 || !oracle.http_body_matches(idx, response.as_bytes()) {
            return Err("replay: fresh-connection request failed".into());
        }
        let req = replay_req(4, n);
        cx.recorder.span("replay.http_fresh_conn", cx.recorder.ns(t0), cx.recorder.ns(t1), 0, req);
        rtt.push((t1 - t0).as_micros() as u64);
    }
    Ok(median_of(&rtt))
}

#[derive(Debug, Default)]
struct ClusterLayer {
    encode_us: f64,
    hop_overhead_us: f64,
    hedge_fire_share: f64,
    hedge_win_share: f64,
    failovers: f64,
    frame_rtt_us: f64,
    fresh_conn_extra_us: f64,
    http_overhead_us: f64,
}

fn cluster_layer(
    cx: &LayerContext<'_>,
    front_keep_alive_us: f64,
    rng: &mut StdRng,
) -> Result<ClusterLayer, String> {
    let router = cx.stack.router.as_deref().ok_or("cluster workload without a router")?;
    let oracle = &cx.oracles[0];
    // Counters first: the replay below would add to them.
    let now = RouterCounters::read(Some(router));
    let routed = (now.requests - cx.router_before.requests).max(1);
    let fires = now.hedge_fires - cx.router_before.hedge_fires;
    let wins = now.hedge_wins - cx.router_before.hedge_wins;
    let mut layer = ClusterLayer {
        hedge_fire_share: fires as f64 / routed as f64,
        hedge_win_share: if fires > 0 { wins as f64 / fires as f64 } else { 0.0 },
        failovers: (now.failovers - cx.router_before.failovers) as f64,
        ..ClusterLayer::default()
    };

    // In-process Router::encode: ring, connect, frame, node, hedge timer.
    let mut encode_us = Vec::with_capacity(SOCKET_SAMPLES);
    let mut hop_us = Vec::with_capacity(SOCKET_SAMPLES);
    for n in 0..SOCKET_SAMPLES {
        let idx = rng.gen_range(0..POOL);
        let ids: Vec<u32> = oracle.pool[idx].ids.iter().map(|&v| v as u32).collect();
        let t0 = Instant::now();
        let ok = router.encode(oracle.model, None, &ids, &[], 0).map_err(err("router encode"))?;
        let t1 = Instant::now();
        let dims = match ok.dims.as_slice() {
            &[a, b] => [a as usize, b as usize],
            _ => return Err("replay: routed frame is not rank 2".into()),
        };
        if !oracle.tensors_match(idx, &ok.hidden, dims, ok.pooled.as_deref()) {
            return Err("replay: routed frame differs from the reference".into());
        }
        let req = replay_req(5, n);
        cx.recorder.span("cluster.router.encode", cx.recorder.ns(t0), cx.recorder.ns(t1), 0, req);
        let us = (t1 - t0).as_micros() as u64;
        encode_us.push(us);
        hop_us.push(us.saturating_sub(ok.queue_us + ok.compute_us));
    }
    layer.encode_us = median_of(&encode_us);
    layer.hop_overhead_us = median_of(&hop_us);
    layer.http_overhead_us = (front_keep_alive_us - layer.encode_us).max(0.0);

    // Straight to one node: a persistent connection, then fresh ones.
    let node = cx.stack.node_addrs.first().ok_or("cluster workload without nodes")?;
    let exchange = |stream: &mut TcpStream, idx: usize, id: u64| -> Result<(), String> {
        write_frame(stream, &request_frame(oracle.model, &oracle.pool[idx], id))
            .map_err(err("node write"))?;
        match read_frame(stream, MAX_PAYLOAD).map_err(err("node read"))? {
            Some(Frame::EncodeResponse(EncodeResponseFrame { result: Ok(_), .. })) => Ok(()),
            _ => Err("replay: node did not answer the encode".into()),
        }
    };
    let connect = || -> Result<TcpStream, String> {
        let stream = TcpStream::connect(node).map_err(err("node connect"))?;
        stream.set_nodelay(true).map_err(err("nodelay"))?;
        stream.set_read_timeout(Some(Duration::from_secs(10))).map_err(err("timeout"))?;
        Ok(stream)
    };
    let mut persistent = connect()?;
    let mut rtt = Vec::with_capacity(SOCKET_SAMPLES);
    let mut fresh = Vec::with_capacity(SOCKET_SAMPLES);
    for n in 0..SOCKET_SAMPLES {
        let idx = rng.gen_range(0..POOL);
        let t0 = Instant::now();
        exchange(&mut persistent, idx, n as u64)?;
        let t1 = Instant::now();
        let mut stream = connect()?;
        exchange(&mut stream, idx, n as u64)?;
        let t2 = Instant::now();
        let req = replay_req(6, n);
        cx.recorder.span("cluster.node.frame_rtt", cx.recorder.ns(t0), cx.recorder.ns(t1), 0, req);
        cx.recorder.span("cluster.node.fresh_conn", cx.recorder.ns(t1), cx.recorder.ns(t2), 0, req);
        rtt.push((t1 - t0).as_micros() as u64);
        fresh.push((t2 - t1).as_micros() as u64);
    }
    layer.frame_rtt_us = median_of(&rtt);
    layer.fresh_conn_extra_us = (median_of(&fresh) - layer.frame_rtt_us).max(0.0);
    Ok(layer)
}
