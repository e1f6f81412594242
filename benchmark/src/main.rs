//! `stackbench`: the repo's one benchmark.
//!
//! ```text
//! stackbench --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! stackbench run --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! stackbench all [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! stackbench compare A B [--bounds BENCHMARK.json]
//! ```
//!
//! A run prints every metric as `workload metric value unit`, writes
//! `results-<workload>.json` (and, traced, a Chrome trace and the
//! per-layer table) into the output directory, and ends its standard
//! output with one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `README.md` in this directory.

mod compare;
mod httpc;
mod layers;
mod load;
mod oracle;
mod results;
mod run;
mod setup;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use gobo_serve::json::Json;

use crate::results::{EnvStamp, Results};
use crate::run::{Metric, RunArgs, RunOutput, Shape};
use crate::spec::{workload, DEFAULT_SECONDS, WORKLOADS};

/// The benchmark's own directory: where cargo says the manifest is
/// when it runs us, else where it was when it built us.
fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Flags of every subcommand, parsed once.
#[derive(Debug, Default)]
struct Flags {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    bounds: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags { seed: 11, seconds: DEFAULT_SECONDS, ..Flags::default() };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => flags.workload = Some(value("--workload")?),
            "--seed" => {
                flags.seed = value("--seed")?.parse().map_err(|_| "--seed: not a whole number")?
            }
            "--seconds" => {
                flags.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds: a whole number from 1 to 60")?
            }
            "--trace" => {
                flags.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: `{other}` is not 0 or 1")),
                }
            }
            "--out" => flags.out = Some(PathBuf::from(value("--out")?)),
            "--bounds" => flags.bounds = Some(PathBuf::from(value("--bounds")?)),
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            other => flags.positional.push(other.to_owned()),
        }
    }
    Ok(flags)
}

fn print_table(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{workload} {} {} {}", m.name, m.value, m.unit);
    }
}

/// The last line of a run's standard output.
fn result_line(out: &RunOutput, traced: bool) -> String {
    let metrics = if traced { &out.per_layer } else { &out.end_to_end };
    let pairs: Vec<(&str, Json)> = metrics
        .iter()
        .map(|m| {
            let entry =
                Json::obj(vec![("value", Json::Num(m.value)), ("unit", Json::Str(m.unit.clone()))]);
            (m.name.as_str(), entry)
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(out.mismatched == 0)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::obj(pairs)),
    ])
    .to_string()
}

fn run_one(flags: &Flags) -> Result<(), String> {
    let name = flags.workload.as_deref().ok_or("--workload is required")?;
    let workload = workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; one of {}", names.join(", "))
    })?;
    let out_dir = flags.out.clone().unwrap_or_else(|| bench_dir().join("out"));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let args =
        RunArgs { workload, seed: flags.seed, seconds: flags.seconds, trace: flags.trace, out_dir };
    let out = run::run(&args)?;
    Results::new(&args, &out, EnvStamp::capture()).write(
        &args.out_dir,
        workload,
        Shape::of(args.seconds, workload),
    )?;
    print_table(workload.name, &out.end_to_end);
    print_table(workload.name, &out.per_layer);
    if !out.valid {
        eprintln!(
            "stackbench: {}: INVALID RUN — the generator ran later than one arrival gap in more \
             than two open-loop slices (max late per slice, us: {:?}) or a registry did not drain",
            workload.name, out.max_late_us
        );
    }
    println!("{}", result_line(&out, flags.trace));
    Ok(())
}

/// Every workload in a fresh child process each, so set-up time and
/// peak memory are per workload.
fn run_all(flags: &Flags) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    for w in &WORKLOADS {
        let mut child = Command::new(&exe);
        child
            .arg("run")
            .args(["--workload", w.name])
            .args(["--seed", &flags.seed.to_string()])
            .args(["--seconds", &flags.seconds.to_string()])
            .args(["--trace", if flags.trace { "1" } else { "0" }]);
        if let Some(out) = &flags.out {
            child.arg("--out").arg(out);
        }
        // `status` waits for the child: nothing is left running.
        let status = child.status().map_err(|e| format!("spawn {}: {e}", w.name))?;
        if !status.success() {
            return Err(format!("{}: run failed ({status})", w.name));
        }
    }
    Ok(())
}

fn run_compare(flags: &Flags) -> Result<bool, String> {
    let [_, a, b] = flags.positional.as_slice() else {
        return Err("usage: stackbench compare A B [--bounds BENCHMARK.json]".into());
    };
    let bounds_path =
        flags.bounds.clone().unwrap_or_else(|| bench_dir().join("..").join("BENCHMARK.json"));
    let bounds = compare::read_bounds(&bounds_path)?;
    let rows = compare::compare_sets(
        &bounds,
        &compare::read_set(&PathBuf::from(a))?,
        &compare::read_set(&PathBuf::from(b))?,
    )?;
    Ok(compare::print_rows(&rows))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome =
        parse_flags(&args).and_then(|flags| match flags.positional.first().map(String::as_str) {
            None | Some("run") => run_one(&flags).map(|()| true),
            Some("all") => run_all(&flags).map(|()| true),
            Some("compare") => run_compare(&flags),
            Some(other) => Err(format!("unknown command `{other}`; run, all or compare")),
        });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("stackbench: {message}");
            ExitCode::from(2)
        }
    }
}
