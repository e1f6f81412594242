//! The results file every run writes, with its environment stamp, and
//! the reader `compare` uses.

use std::path::Path;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use gobo_serve::json::{parse, Json};

use crate::run::{Metric, RunArgs, RunOutput, Shape};
use crate::spec::{
    Workload, IDLE_PUBLISHES, POOL, PUBLISHES_PER_CLOSED_SLICE, PUBLISHES_PER_OPEN_SLICE, ROUNDS,
    SEQ_LEN, SETUP_REPEATS,
};

/// Schema tag of the results file.
pub const SCHEMA: &str = "stackbench.results.v1";

/// Where and on what a run was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvStamp {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
    pub git_commit: String,
    pub git_dirty: bool,
    pub utc_date: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// Days since 1970-01-01 to `YYYY-MM-DD` (proleptic Gregorian).
pub fn civil_date(days: i64) -> String {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

impl EnvStamp {
    /// Reads the stamp off this machine. Anything unavailable (no git
    /// checkout, no `rustc` on the path) reads `unknown`.
    pub fn capture() -> EnvStamp {
        let unknown = || "unknown".to_owned();
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(unknown);
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| unknown());
        let secs = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
        let status = command_line("git", &["status", "--porcelain"]);
        EnvStamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(unknown),
            git_commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
            git_dirty: status.is_some_and(|s| !s.is_empty()),
            utc_date: civil_date((secs / 86_400) as i64),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("nproc", Json::Num(self.nproc as f64)),
            ("cpu_model", Json::Str(self.cpu_model.clone())),
            ("kernel", Json::Str(self.kernel.clone())),
            ("rustc", Json::Str(self.rustc.clone())),
            ("git_commit", Json::Str(self.git_commit.clone())),
            ("git_dirty", Json::Bool(self.git_dirty)),
            ("utc_date", Json::Str(self.utc_date.clone())),
        ])
    }

    fn from_json(j: &Json) -> Option<EnvStamp> {
        let text = |k: &str| j.get(k).and_then(Json::as_str).map(str::to_owned);
        Some(EnvStamp {
            nproc: j.get("nproc")?.as_usize()?,
            cpu_model: text("cpu_model")?,
            kernel: text("kernel")?,
            rustc: text("rustc")?,
            git_commit: text("git_commit")?,
            git_dirty: matches!(j.get("git_dirty")?, Json::Bool(true)),
            utc_date: text("utc_date")?,
        })
    }
}

/// One results file.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub env: EnvStamp,
    pub attempted: u64,
    pub failed: u64,
    pub mismatched: u64,
    pub valid: bool,
    pub max_late_us: Vec<u64>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn nums(values: impl IntoIterator<Item = f64>) -> Json {
    Json::Arr(values.into_iter().map(Json::Num).collect())
}

fn metric_json(m: &Metric) -> Json {
    Json::obj(vec![
        ("name", Json::Str(m.name.clone())),
        ("value", Json::Num(m.value)),
        ("unit", Json::Str(m.unit.clone())),
        ("slices", nums(m.slices.iter().copied())),
        ("samples", nums(m.samples.iter().map(|&n| n as f64))),
    ])
}

fn metric_from(j: &Json) -> Option<Metric> {
    let floats =
        |k: &str| -> Option<Vec<f64>> { j.get(k)?.as_array()?.iter().map(Json::as_f64).collect() };
    Some(Metric {
        name: j.get("name")?.as_str()?.to_owned(),
        value: j.get("value")?.as_f64()?,
        unit: j.get("unit")?.as_str()?.to_owned(),
        slices: floats("slices")?,
        samples: floats("samples")?.into_iter().map(|v| v as u64).collect(),
    })
}

/// Every constant the run depended on, so a results file explains
/// itself without the source.
fn constants_json(w: &Workload, shape: Shape) -> Json {
    let models: Vec<Json> = w
        .models
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("name", Json::Str(m.name.to_owned())),
                ("layers", Json::Num(m.layers as f64)),
                ("hidden", Json::Num(m.hidden as f64)),
                ("heads", Json::Num(m.heads as f64)),
                ("vocab", Json::Num(m.vocab as f64)),
                ("max_position", Json::Num(m.max_position as f64)),
                ("bits", Json::Num(f64::from(m.bits))),
                ("weight_seed", Json::Num(m.weight_seed as f64)),
            ])
        })
        .collect();
    let whole = |v: Option<usize>| v.map_or(Json::Null, |n| Json::Num(n as f64));
    Json::obj(vec![
        ("models", Json::Arr(models)),
        ("threads", Json::Num(w.threads as f64)),
        ("window", Json::Num(w.window as f64)),
        ("open_tick_us", Json::Num(w.open_tick_us as f64)),
        ("open_burst", Json::Num(w.open_burst as f64)),
        ("open_rate_rps", Json::Num(w.open_rate())),
        ("workers", whole(w.workers)),
        ("max_batch", whole(w.max_batch)),
        ("slo_ms", Json::Num(w.slo_ms as f64)),
        ("seq_len", Json::Num(SEQ_LEN as f64)),
        ("pool", Json::Num(POOL as f64)),
        ("rounds", Json::Num(ROUNDS as f64)),
        ("warm_s", Json::Num(shape.warm.as_secs_f64())),
        ("closed_slice_s", Json::Num(shape.closed_slice.as_secs_f64())),
        ("open_slice_s", Json::Num(shape.open_slice.as_secs_f64())),
        ("setup_repeats", Json::Num(SETUP_REPEATS as f64)),
        ("idle_publishes", Json::Num(IDLE_PUBLISHES as f64)),
        ("publishes_per_closed_slice", Json::Num(f64::from(PUBLISHES_PER_CLOSED_SLICE))),
        ("publishes_per_open_slice", Json::Num(f64::from(PUBLISHES_PER_OPEN_SLICE))),
    ])
}

impl Results {
    pub fn new(args: &RunArgs, out: &RunOutput, env: EnvStamp) -> Results {
        Results {
            workload: args.workload.name.to_owned(),
            seed: args.seed,
            seconds: args.seconds,
            traced: args.trace,
            env,
            attempted: out.attempted,
            failed: out.failed,
            mismatched: out.mismatched,
            valid: out.valid,
            max_late_us: out.max_late_us.clone(),
            end_to_end: out.end_to_end.clone(),
            per_layer: out.per_layer.clone(),
        }
    }

    pub fn to_json(&self, constants: Json) -> Json {
        Json::obj(vec![
            ("schema", Json::Str(SCHEMA.to_owned())),
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds as f64)),
            ("traced", Json::Bool(self.traced)),
            ("env", self.env.to_json()),
            ("constants", constants),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("mismatched", Json::Num(self.mismatched as f64)),
            ("valid", Json::Bool(self.valid)),
            ("max_late_us", nums(self.max_late_us.iter().map(|&v| v as f64))),
            ("end_to_end", Json::Arr(self.end_to_end.iter().map(metric_json).collect())),
            ("per_layer", Json::Arr(self.per_layer.iter().map(metric_json).collect())),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Results, String> {
        if j.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} file"));
        }
        let whole = |k: &str| {
            j.get(k).and_then(Json::as_f64).map(|v| v as u64).ok_or(format!("missing `{k}`"))
        };
        let flag = |k: &str| matches!(j.get(k), Some(Json::Bool(true)));
        let metrics = |k: &str| -> Result<Vec<Metric>, String> {
            j.get(k)
                .and_then(Json::as_array)
                .ok_or(format!("missing `{k}`"))?
                .iter()
                .map(|m| metric_from(m).ok_or(format!("malformed metric in `{k}`")))
                .collect()
        };
        Ok(Results {
            workload: j
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("missing `workload`")?
                .to_owned(),
            seed: whole("seed")?,
            seconds: whole("seconds")?,
            traced: flag("traced"),
            env: j.get("env").and_then(EnvStamp::from_json).ok_or("malformed `env`")?,
            attempted: whole("attempted")?,
            failed: whole("failed")?,
            mismatched: whole("mismatched")?,
            valid: flag("valid"),
            max_late_us: j
                .get("max_late_us")
                .and_then(Json::as_array)
                .ok_or("missing `max_late_us`")?
                .iter()
                .filter_map(Json::as_f64)
                .map(|v| v as u64)
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Writes `results-<workload>.json` (`.trace.json` for the traced
    /// run, so the two do not overwrite each other) into `dir`.
    pub fn write(&self, dir: &Path, workload: &Workload, shape: Shape) -> Result<(), String> {
        let suffix = if self.traced { ".trace" } else { "" };
        let path = dir.join(format!("results-{}{suffix}.json", self.workload));
        let text = self.to_json(constants_json(workload, shape)).to_string();
        std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn read(path: &Path) -> Result<Results, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Results::from_json(&json).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_results() -> Results {
        Results {
            workload: "http-single".into(),
            seed: 11,
            seconds: 20,
            traced: false,
            env: EnvStamp {
                nproc: 2,
                cpu_model: "Test CPU @ 2.0GHz".into(),
                kernel: "6.1.0".into(),
                rustc: "rustc 1.95.0".into(),
                git_commit: "abc123".into(),
                git_dirty: true,
                utc_date: "2026-09-28".into(),
            },
            attempted: 3000,
            failed: 0,
            mismatched: 0,
            valid: true,
            max_late_us: vec![120, 90, 15_000, 80, 75],
            end_to_end: vec![Metric {
                name: "latency_p50_us".into(),
                value: 7050.5,
                unit: "us".into(),
                slices: vec![7100.0, 6900.0, 745_000.0, 7000.0, 7050.5],
                samples: vec![250, 250, 250, 250, 250],
            }],
            per_layer: vec![Metric::scalar("machine.dot_f32.gmacs", 1.37, "GMAC/s")],
        }
    }

    #[test]
    fn results_round_trip_through_the_file_format() {
        let results = sample_results();
        let text = results.to_json(Json::obj(vec![("threads", Json::Num(2.0))])).to_string();
        let back = Results::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, results);
        assert!(text.contains("\"schema\":\"stackbench.results.v1\""));
        assert!(text.contains("\"constants\":{\"threads\":2}"));
    }

    #[test]
    fn a_foreign_file_is_refused() {
        let err = Results::from_json(&parse("{\"schema\":\"other\"}").unwrap()).unwrap_err();
        assert!(err.contains("stackbench.results.v1"));
    }

    #[test]
    fn civil_dates() {
        assert_eq!(civil_date(0), "1970-01-01");
        assert_eq!(civil_date(19_782), "2024-02-29");
        assert_eq!(civil_date(20_724), "2026-09-28");
    }
}
