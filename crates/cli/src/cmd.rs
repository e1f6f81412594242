//! Command implementations and argument parsing.

use std::fmt;

use gobo::format::CompressedModel;
use gobo::pipeline::{quantize_model, QuantizeOptions};
use gobo_model::config::ModelConfig;
use gobo_model::io::{atomic_write, load_model, save_model};
use gobo_model::TransformerModel;
use gobo_quant::QuantMethod;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Error surfaced by the CLI.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Usage(String),
    /// I/O failure.
    Io(std::io::Error),
    /// Any pipeline failure, pre-rendered.
    Failed(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}\n\n{USAGE}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Failed(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// A pipeline failure, rendered: `.map_err(failed)`.
pub(crate) fn failed(e: impl fmt::Display) -> CliError {
    CliError::Failed(e.to_string())
}

/// The tool's usage text.
pub const USAGE: &str = "\
gobo — post-training quantization for transformer models (GOBO, MICRO 2020)

USAGE:
  gobo demo     --output <model.gobor> [--layers N] [--hidden N] [--seed N]
  gobo quantize --input <model.gobor> --output <model.gobom>
                [--bits N] [--method gobo|kmeans|linear]
                [--embedding-bits N] [--threshold T]
                [--telemetry-out telemetry.json] [--trace-out trace.json]
  gobo inspect  --input <model.gobor|model.gobom>
  gobo decode   --input <model.gobom> --output <model.gobor>
  gobo serve    --model <model.gobom> [--model <more.gobom> ...]
                [--name NAME ...] [--addr HOST:PORT] [--port-file PATH]
                [--workers N] [--max-batch N] [--queue-capacity N]
                [--deadline-ms N] [--max-bytes N] [--max-models N]
                [--failpoints SPEC] [--canary-pct N] [--canary-window N]
                [--canary-p95-factor-pct N] [--canary-min-baseline N]
                [--max-body-bytes N] [--trace-out trace.json]
  gobo reload   --name NAME --path <model.gobom> [--addr HOST:PORT]
  gobo cluster-node   --model <model.gobom> [--model <more.gobom> ...]
                [--name NAME ...] [--addr HOST:PORT] [--port-file PATH]
                [--workers N] [--max-batch N] [--queue-capacity N]
                [--deadline-ms N] [--max-bytes N] [--max-models N]
                [--failpoints SPEC] [--canary-pct N] [--canary-window N]
                [--canary-p95-factor-pct N] [--canary-min-baseline N]
  gobo cluster-router --node [ID=]HOST:PORT [--node ...]
                [--addr HOST:PORT] [--port-file PATH] [--replication N]
                [--virtual-nodes N] [--heartbeat-ms N] [--dead-after N]
                [--hedge-us N] [--failpoints SPEC] [--max-body-bytes N]
  gobo chaos    [--scenario worker-panic|corrupt-model|queue-overload
                 |node-kill|network-partition|reload-under-load]...
                [--requests N] [--corruptions N] [--seed N]
  gobo trace    --out <trace.json> [--layers N] [--hidden N] [--heads N]
                [--bits N] [--seed N]
  gobo telemetry-check --input <telemetry.json>

FORMATS:
  .gobor  raw FP32 model (gobo-model io format)
  .gobom  compressed model (config + FP32 aux + quantized layers)

SERVING:
  `serve` keeps each .gobom compressed in memory (FC layers are never
  decoded; --max-bytes budgets the bytes a model really occupies, not
  its FP32 size), then answers POST /v1/encode with dynamic batching;
  GET /v1/models lists model revisions with lifecycle state and
  resident bytes, GET /metrics is Prometheus text
  (counters, gauges, and latency histograms), POST /v1/shutdown drains
  and exits. `reload` (or POST /v1/reload) publishes a new revision of
  a named model into a running server with zero downtime: the file's
  CRC is validated before the registry is touched, the new revision
  serves a canary slice (--canary-pct, default 20%) of traffic, and it
  is auto-promoted after a clean window (--canary-window batches) or
  auto-rolled-back on any canary error or p95 regression beyond
  --canary-p95-factor-pct of the active baseline; the replaced
  revision drains behind in-flight batches before retiring. Every
  batch, coalesced or single, runs one cache-blocked GEMM directly on
  the packed quantized indices, decoding each block of weight rows once
  per batch. Serving numbers come from the repo's one benchmark,
  `stackbench` (BENCHMARK.json; see benchmark/README.md).

CLUSTER:
  `cluster-node` serves loaded models over the binary cluster protocol
  (encode, heartbeat, drain) instead of HTTP; `cluster-router` fronts
  a set of nodes with consistent-hash sharding keyed on `name@bits`,
  `--replication` replicas per key, heartbeat membership (dead nodes
  leave the ring, recovered nodes rejoin), failover on retryable
  errors, and hedged requests: a backup fires after `--hedge-us` (or a
  p95-derived delay) and the first answer wins. The router speaks the
  same HTTP dialect as `serve`, so clients need no change; its
  `/metrics` exposes `gobo_cluster_*` series and `GET /v1/cluster`
  reports membership.

FAULT INJECTION:
  `chaos` runs scripted fault scenarios against an in-process server
  (workers panicking mid-batch, corrupt models on disk, queue
  overload, killed and partitioned cluster nodes, a reload storm with
  failing canaries) and reports degraded-but-correct vs failed
  behaviour: a scenario passes iff every `[ok]` line of its report
  held, and a `[FAIL]` line names what did not. `--scenario` repeats
  (an unknown name is refused, with the list, before anything runs);
  default is all scenarios. `serve` accepts
  `--failpoints \"name=action(args)[;...]\"` (or the GOBO_FAILPOINTS
  environment variable) to arm deterministic failpoints, e.g.
  `serve.encode=panic(every=5)`, and `--max-body-bytes` to cap request
  bodies (default 4 MiB; larger requests get 413).

OBSERVABILITY:
  `--trace-out` writes Chrome trace-event JSON (chrome://tracing or
  Perfetto); `trace` quantizes a synthetic BERT-base model under
  tracing; `--telemetry-out` writes per-layer quantization telemetry
  (outlier fraction, iterations, final L1, bin occupancy, wall time)
  that `telemetry-check` validates. The concurrency sanitizer runs
  inside any gobo process under GOBO_SANITIZE=1 (record) or =fail
  (panic at the detection site). Under it, `chaos` fails a scenario
  on any failure-class report (potential deadlock cycles, condvar
  misuse, blocking I/O under a lock) and prints, after its scenarios,
  the observed lock-order graph (both acquisition sites per edge),
  per-lock hold/wait statistics and any report.";

/// Minimal flag parser: `--name value` pairs after the subcommand.
pub(crate) struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    pub(crate) fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let key = &args[i];
            if !key.starts_with("--") {
                return Err(CliError::Usage(format!("unexpected argument `{key}`")));
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| CliError::Usage(format!("flag `{key}` needs a value")))?;
            pairs.push((key[2..].to_owned(), value.clone()));
            i += 2;
        }
        Ok(Args { pairs })
    }

    pub(crate) fn get(&self, name: &str) -> Option<&str> {
        self.pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// All values of a repeatable flag, in order of appearance.
    pub(crate) fn get_all(&self, name: &str) -> Vec<&str> {
        self.pairs.iter().filter(|(k, _)| k == name).map(|(_, v)| v.as_str()).collect()
    }

    pub(crate) fn require(&self, name: &str) -> Result<&str, CliError> {
        self.get(name).ok_or_else(|| CliError::Usage(format!("missing required flag --{name}")))
    }

    pub(crate) fn parse_num<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => {
                v.parse().map_err(|_| CliError::Usage(format!("flag --{name}: cannot parse `{v}`")))
            }
        }
    }
}

/// Runs the CLI; returns the text to print on success.
///
/// # Errors
///
/// Returns [`CliError`] for bad usage, I/O failures, or pipeline
/// failures.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let (command, rest) =
        args.split_first().ok_or_else(|| CliError::Usage("no command given".into()))?;
    // `lint` takes boolean flags, which the strict `--flag value`
    // grammar below cannot express; it parses its own arguments.
    if command == "lint" {
        return crate::lint_cmd::lint(rest);
    }
    let args = Args::parse(rest)?;
    match command.as_str() {
        "demo" => demo(&args),
        "quantize" => quantize(&args),
        "inspect" => inspect(&args),
        "decode" => decode(&args),
        "serve" => crate::serve_cmd::serve(&args),
        "reload" => crate::serve_cmd::reload(&args),
        "cluster-node" => crate::cluster_cmd::cluster_node(&args),
        "cluster-router" => crate::cluster_cmd::cluster_router(&args),
        "chaos" => crate::chaos_cmd::chaos(&args),
        "trace" => crate::obs_cmd::trace(&args),
        "telemetry-check" => crate::obs_cmd::telemetry_check(&args),
        "help" | "--help" | "-h" => Ok(USAGE.to_owned()),
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

fn demo(args: &Args) -> Result<String, CliError> {
    let output = args.require("output")?;
    let layers: usize = args.parse_num("layers", 2)?;
    let hidden: usize = args.parse_num("hidden", 48)?;
    let seed: u64 = args.parse_num("seed", 0)?;
    let config = ModelConfig::tiny("Demo", layers, hidden, 4, 256, 64)
        .map_err(|e| CliError::Failed(format!("invalid demo geometry: {e}")))?;
    let model = TransformerModel::new(config, &mut StdRng::seed_from_u64(seed)).map_err(failed)?;
    let bytes = save_model(&model);
    atomic_write(std::path::Path::new(output), &bytes)?;
    Ok(format!("wrote demo model `{output}`: {} ({} bytes)", model.config(), bytes.len()))
}

fn read_raw(path: &str) -> Result<TransformerModel, CliError> {
    let bytes = std::fs::read(path)?;
    load_model(&bytes).map_err(|e| CliError::Failed(format!("{path}: {e}")))
}

fn quantize(args: &Args) -> Result<String, CliError> {
    let input = args.require("input")?;
    let output = args.require("output")?;
    let bits: u8 = args.parse_num("bits", 3)?;
    let method = match args.get("method").unwrap_or("gobo") {
        "gobo" => QuantMethod::Gobo,
        "kmeans" => QuantMethod::KMeans,
        "linear" => QuantMethod::Linear,
        other => return Err(CliError::Usage(format!("unknown method `{other}`"))),
    };
    let threshold: f64 = args.parse_num("threshold", -4.0)?;

    let model = read_raw(input)?;
    let mut options = QuantizeOptions::with_method(method, bits)
        .map_err(failed)?
        .with_outlier_threshold(threshold);
    if let Some(embedding_bits) = args.get("embedding-bits") {
        let eb: u8 = embedding_bits
            .parse()
            .map_err(|_| CliError::Usage("flag --embedding-bits: not a number".into()))?;
        options = options.with_embedding_bits(eb).map_err(failed)?;
    }
    let (outcome, traced) = traced(args, || quantize_model(&model, &options))?;
    let outcome = outcome.map_err(failed)?;
    let mut extras = String::new();
    if let Some(path) = traced {
        extras.push_str(&format!("\nchrome trace written to `{path}`"));
    }
    if let Some(path) = args.get("telemetry-out") {
        std::fs::write(path, outcome.report.telemetry_json())?;
        extras.push_str(&format!("\ntelemetry written to `{path}`"));
    }
    let compressed = CompressedModel::new(&model, outcome.archive);
    let bytes = compressed.to_bytes();
    atomic_write(std::path::Path::new(output), &bytes)?;
    Ok(format!(
        "quantized `{input}` -> `{output}` with {method} at {bits} bits\n\
         quantized layers: {}, weight compression {:.2}x, outliers {:.3}%\n\
         file size: {} bytes{extras}",
        outcome.report.layers.len(),
        outcome.report.compression_ratio(),
        outcome.report.outlier_fraction() * 100.0,
        bytes.len(),
    ))
}

/// Runs `run`, in a trace session when `--trace-out` names a file, and
/// writes the session's Chrome trace there. Returns what `run` returned
/// and the file written, if any.
pub(crate) fn traced<T>(
    args: &Args,
    run: impl FnOnce() -> T,
) -> Result<(T, Option<&str>), CliError> {
    let Some(path) = args.get("trace-out") else { return Ok((run(), None)) };
    let (value, session) = gobo_obs::trace::Session::record(run);
    std::fs::write(path, session.chrome_trace())?;
    Ok((value, Some(path)))
}

fn inspect(args: &Args) -> Result<String, CliError> {
    let input = args.require("input")?;
    let bytes = std::fs::read(input)?;
    // Dispatch on magic.
    if bytes.len() >= 4 && bytes[..4] == *b"GOBM" {
        let compressed = CompressedModel::from_bytes(&bytes)
            .map_err(|e| CliError::Failed(format!("{input}: {e}")))?;
        let mut out = format!(
            "compressed model: {} ({} bytes)\n{:<32} {:>5} {:>10} {:>10} {:>8}\n",
            compressed.skeleton.config(),
            bytes.len(),
            "layer",
            "bits",
            "weights",
            "outliers",
            "CR"
        );
        for (name, layer) in compressed.archive.iter() {
            out.push_str(&format!(
                "{:<32} {:>5} {:>10} {:>10} {:>7.2}x\n",
                name,
                layer.bits(),
                layer.total(),
                layer.outlier_count(),
                layer.compression_ratio(),
            ));
        }
        Ok(out)
    } else if bytes.len() >= 4 && bytes[..4] == *b"GOBm" {
        let model = load_model(&bytes).map_err(|e| CliError::Failed(format!("{input}: {e}")))?;
        let mut out = format!(
            "raw model: {} ({} bytes)\n{:<32} {:>14}\n",
            model.config(),
            bytes.len(),
            "layer",
            "shape"
        );
        for spec in model.fc_layers().iter().chain(&model.embedding_tables()) {
            out.push_str(&format!("{:<32} {:>8} x {}\n", spec.name, spec.rows, spec.cols));
        }
        Ok(out)
    } else {
        Err(CliError::Failed(format!("{input}: not a gobo model file")))
    }
}

fn decode(args: &Args) -> Result<String, CliError> {
    let input = args.require("input")?;
    let output = args.require("output")?;
    let bytes = std::fs::read(input)?;
    let compressed = CompressedModel::from_bytes(&bytes)
        .map_err(|e| CliError::Failed(format!("{input}: {e}")))?;
    let model = compressed.decode().map_err(failed)?;
    let raw = save_model(&model);
    atomic_write(std::path::Path::new(output), &raw)?;
    Ok(format!(
        "decoded `{input}` ({} bytes) -> `{output}` ({} bytes, FP32)",
        bytes.len(),
        raw.len()
    ))
}

/// Helper for tests: runs a command line given as str slices.
pub fn run_str(args: &[&str]) -> Result<String, CliError> {
    let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
    run(&owned)
}

/// What the tests of the long-running verbs share.
#[cfg(test)]
pub(crate) mod testing {
    use std::thread::JoinHandle;

    use gobo_serve::HttpClient;

    use super::{run, run_str, CliError};

    /// `name` under the temp directory of the test suite `suite`.
    pub(crate) fn tmp(suite: &str, name: &str) -> String {
        let dir = std::env::temp_dir().join(suite);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name).to_string_lossy().into_owned()
    }

    /// A one-layer demo model quantized to 3 bits; the `.gobom` path.
    pub(crate) fn demo_gobom(suite: &str) -> String {
        let (raw, packed) = (tmp(suite, "demo.gobor"), tmp(suite, "demo.gobom"));
        run_str(&["demo", "--output", &raw, "--layers", "1", "--hidden", "16"]).unwrap();
        run_str(&["quantize", "--input", &raw, "--output", &packed, "--bits", "3"]).unwrap();
        packed
    }

    /// Runs `verb` on a thread, bound to an ephemeral port it reports
    /// through `--port-file`; returns once that file names the port.
    pub(crate) fn spawn_verb(
        suite: &str,
        tag: &str,
        verb: &[&str],
    ) -> (JoinHandle<Result<String, CliError>>, u16) {
        let port_file = tmp(suite, &format!("{tag}.port"));
        let _ = std::fs::remove_file(&port_file);
        let line: Vec<String> = [verb, &["--addr", "127.0.0.1:0", "--port-file", &port_file]]
            .concat()
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let thread = std::thread::spawn(move || run(&line));
        for _ in 0..200 {
            if let Some(port) =
                std::fs::read_to_string(&port_file).ok().and_then(|text| text.trim().parse().ok())
            {
                return (thread, port);
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!("`{tag}` never wrote its port file");
    }

    /// One `POST` on a fresh connection: (status, body).
    pub(crate) fn post(port: u16, path: &str, body: &str) -> (u16, String) {
        let client = HttpClient::new(format!("127.0.0.1:{port}"));
        client.request("POST", path, body).expect("HTTP exchange")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        testing::tmp("gobo-cli-tests", name)
    }

    #[test]
    fn demo_quantize_inspect_decode_round_trip() {
        let raw = tmp("m.gobor");
        let packed = tmp("m.gobom");
        let restored = tmp("m2.gobor");

        let msg = run_str(&["demo", "--output", &raw, "--layers", "1", "--hidden", "16"]).unwrap();
        assert!(msg.contains("demo model"));

        let msg = run_str(&[
            "quantize", "--input", &raw, "--output", &packed, "--bits", "3", "--method", "gobo",
        ])
        .unwrap();
        assert!(msg.contains("3 bits"), "{msg}");

        let msg = run_str(&["inspect", "--input", &packed]).unwrap();
        assert!(msg.contains("compressed model"));
        assert!(msg.contains("pooler"));

        let msg = run_str(&["decode", "--input", &packed, "--output", &restored]).unwrap();
        assert!(msg.contains("FP32"));

        // The decoded raw file loads and has the same geometry.
        let original = load_model(&std::fs::read(&raw).unwrap()).unwrap();
        let decoded = load_model(&std::fs::read(&restored).unwrap()).unwrap();
        assert_eq!(original.config(), decoded.config());
        // Weights differ (quantized) but are close.
        let a = original.weight("pooler").unwrap();
        let b = decoded.weight("pooler").unwrap();
        assert_ne!(a, b);
        let max_err = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        // Xavier-normal at hidden 16 has std ~0.25; 3-bit error is a
        // fraction of that.
        assert!(max_err < 0.5, "max err {max_err}");
    }

    #[test]
    fn inspect_raw_model() {
        let raw = tmp("inspect.gobor");
        run_str(&["demo", "--output", &raw, "--layers", "1", "--hidden", "16"]).unwrap();
        let msg = run_str(&["inspect", "--input", &raw]).unwrap();
        assert!(msg.contains("raw model"));
        assert!(msg.contains("embeddings.word"));
    }

    #[test]
    fn usage_errors() {
        assert!(matches!(run_str(&[]), Err(CliError::Usage(_))));
        assert!(matches!(run_str(&["frobnicate"]), Err(CliError::Usage(_))));
        assert!(matches!(run_str(&["quantize"]), Err(CliError::Usage(_))));
        assert!(matches!(run_str(&["quantize", "--input"]), Err(CliError::Usage(_))));
        assert!(matches!(run_str(&["demo", "positional"]), Err(CliError::Usage(_))));
        let msg = run_str(&["help"]).unwrap();
        assert!(msg.contains("USAGE"));
    }

    #[test]
    fn quantize_validates_method_and_bits() {
        let raw = tmp("val.gobor");
        run_str(&["demo", "--output", &raw, "--layers", "1", "--hidden", "16"]).unwrap();
        let out = tmp("val.gobom");
        assert!(matches!(
            run_str(&["quantize", "--input", &raw, "--output", &out, "--method", "magic"]),
            Err(CliError::Usage(_))
        ));
        assert!(run_str(&["quantize", "--input", &raw, "--output", &out, "--bits", "9"]).is_err());
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            run_str(&["inspect", "--input", "/nonexistent/path.gobom"]),
            Err(CliError::Io(_))
        ));
    }

    #[test]
    fn embedding_bits_flag_quantizes_embeddings() {
        let raw = tmp("emb.gobor");
        let packed = tmp("emb.gobom");
        run_str(&["demo", "--output", &raw, "--layers", "1", "--hidden", "16"]).unwrap();
        run_str(&[
            "quantize",
            "--input",
            &raw,
            "--output",
            &packed,
            "--bits",
            "3",
            "--embedding-bits",
            "4",
        ])
        .unwrap();
        let msg = run_str(&["inspect", "--input", &packed]).unwrap();
        assert!(msg.contains("embeddings.word"), "{msg}");
    }
}
