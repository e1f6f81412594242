//! `gobo serve` and `gobo reload`: the CLI face of `gobo-serve`.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use gobo_serve::json::Json;
use gobo_serve::{
    CanaryPolicy, HttpClient, HttpOptions, RegistryConfig, SchedulerConfig, ServeCore,
    ServeOptions, Server,
};

use crate::cmd::{traced, Args, CliError};

fn scheduler_config(args: &Args) -> Result<SchedulerConfig, CliError> {
    // Unknown flags are ignored, so the removed knob is refused by name.
    if args.get("max-wait-us").is_some() {
        return Err(CliError::Usage(
            "--max-wait-us was removed: batching no longer waits for a configurable window — a \
             free worker takes its share of what is queued (up to --max-batch) at once"
                .into(),
        ));
    }
    let defaults = SchedulerConfig::default();
    Ok(SchedulerConfig {
        workers: args.parse_num("workers", defaults.workers)?,
        max_batch: args.parse_num("max-batch", defaults.max_batch)?,
        queue_capacity: args.parse_num("queue-capacity", defaults.queue_capacity)?,
        default_deadline: Duration::from_millis(
            args.parse_num("deadline-ms", defaults.default_deadline.as_millis() as u64)?,
        ),
    })
}

fn canary_policy(args: &Args) -> Result<CanaryPolicy, CliError> {
    let defaults = CanaryPolicy::default();
    let policy = CanaryPolicy {
        traffic_pct: args.parse_num("canary-pct", defaults.traffic_pct)?,
        window: args.parse_num("canary-window", defaults.window)?,
        p95_factor_pct: args.parse_num("canary-p95-factor-pct", defaults.p95_factor_pct)?,
        min_baseline: args.parse_num("canary-min-baseline", defaults.min_baseline)?,
    };
    if policy.traffic_pct > 100 {
        return Err(CliError::Usage("--canary-pct must be 0..=100".into()));
    }
    Ok(policy)
}

/// Arms failpoints from the environment, then from `--failpoints`
/// (which overrides). Called before any model is loaded, so
/// `registry.load` / `registry.decode` faults cover the startup path.
pub(crate) fn arm_failpoints(args: &Args, who: &str) -> Result<(), CliError> {
    let mut armed = gobo_fault::configure_from_env()
        .map_err(|e| CliError::Usage(format!("{}: {e}", gobo_fault::ENV_VAR)))?;
    if let Some(spec) = args.get("failpoints") {
        armed += gobo_fault::configure_str(spec)
            .map_err(|e| CliError::Usage(format!("--failpoints: {e}")))?;
    }
    if armed > 0 {
        gobo_fault::install_panic_silencer();
        eprintln!("{who}: {armed} failpoint(s) armed");
    }
    Ok(())
}

/// Tells whoever started this process which port it got.
pub(crate) fn write_port_file(args: &Args, local: SocketAddr) -> Result<(), CliError> {
    match args.get("port-file") {
        Some(port_file) => Ok(std::fs::write(port_file, format!("{}\n", local.port()))?),
        None => Ok(()),
    }
}

/// What `serve` and `cluster-node` do before they bind: arm failpoints,
/// start a core from the flags, and load every `--model` under its
/// `--name` (or, past the names given, its file stem). Returns the core
/// and the keys it serves.
pub(crate) fn boot_core(args: &Args, who: &str) -> Result<(Arc<ServeCore>, Vec<String>), CliError> {
    let models = args.get_all("model");
    if models.is_empty() {
        return Err(CliError::Usage(format!("{who} needs at least one --model <file.gobom>")));
    }
    let names = args.get_all("name");
    arm_failpoints(args, who)?;
    let registry_defaults = RegistryConfig::default();
    let core = ServeCore::start(ServeOptions {
        registry: RegistryConfig {
            max_bytes: args.parse_num("max-bytes", registry_defaults.max_bytes)?,
            max_models: args.parse_num("max-models", registry_defaults.max_models)?,
        },
        scheduler: scheduler_config(args)?,
        lifecycle: canary_policy(args)?,
    });
    let mut loaded = Vec::new();
    for (i, path) in models.iter().enumerate() {
        let name = match names.get(i) {
            Some(name) => (*name).to_owned(),
            None => std::path::Path::new(path)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .ok_or_else(|| CliError::Usage(format!("cannot derive a name from `{path}`")))?,
        };
        let entry = core
            .registry()
            .load_file(&name, path)
            .map_err(|e| CliError::Failed(format!("loading `{path}`: {e}")))?;
        loaded.push(entry.key.to_string());
    }
    Ok((core, loaded))
}

/// The HTTP front's options, for `serve` and `cluster-router`.
pub(crate) fn http_options(args: &Args) -> Result<HttpOptions, CliError> {
    Ok(HttpOptions { max_body: args.parse_num("max-body-bytes", HttpOptions::default().max_body)? })
}

/// `gobo serve`: load `.gobom` files, bind, and serve until shutdown.
pub(crate) fn serve(args: &Args) -> Result<String, CliError> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7070");
    let (core, loaded) = boot_core(args, "gobo-serve")?;
    let server = Server::bind_with(core, addr, http_options(args)?)
        .map_err(|e| CliError::Failed(format!("cannot bind `{addr}`: {e}")))?;
    let local = server.local_addr();
    write_port_file(args, local)?;
    let ((), traced) = traced(args, || {
        // `run` only returns its string after the server exits, so the
        // address a caller needs to connect goes to stdout immediately.
        println!("gobo-serve listening on http://{local} (models: {})", loaded.join(", "));
        server.serve_until_shutdown();
    })?;
    let extras = traced.map(|path| format!("; chrome trace written to `{path}`"));
    Ok(format!("gobo-serve on {local} shut down after draining{}", extras.unwrap_or_default()))
}

/// `gobo reload`: publish a new model revision into a running server
/// over `POST /v1/reload`. The server validates the container's CRC
/// before touching its registry, then routes the canary traffic slice
/// to the new revision until it is auto-promoted or auto-rolled-back.
pub(crate) fn reload(args: &Args) -> Result<String, CliError> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7070");
    let name =
        args.get("name").ok_or_else(|| CliError::Usage("reload needs --name <model>".into()))?;
    let path = args
        .get("path")
        .ok_or_else(|| CliError::Usage("reload needs --path <file.gobom>".into()))?;
    // The server reads the file itself, so the path must be absolute
    // (or resolvable in the *server's* working directory). Resolve
    // relative paths client-side to remove the footgun.
    let resolved = std::fs::canonicalize(path)
        .map(|p| p.to_string_lossy().into_owned())
        .unwrap_or_else(|_| path.to_owned());
    let body = Json::obj(vec![("name", Json::Str(name.to_owned())), ("path", Json::Str(resolved))])
        .to_string();
    let client = HttpClient::new(addr);
    let (status, response) = client
        .request("POST", "/v1/reload", &body)
        .map_err(|e| CliError::Failed(format!("reload request to {addr}: {e}")))?;
    if status != 200 {
        return Err(CliError::Failed(format!("reload rejected ({status}): {response}")));
    }
    let value = gobo_serve::json::parse(&response)
        .map_err(|e| CliError::Failed(format!("bad reload response: {e}")))?;
    let state = value.get("status").and_then(Json::as_str).unwrap_or("?").to_owned();
    let rev = value.get("rev").and_then(|v| v.as_usize()).unwrap_or(0);
    let bits = value.get("bits").and_then(|v| v.as_usize()).unwrap_or(0);
    Ok(format!("published {name}@{bits}b@r{rev} on {addr}: {state}"))
}

#[cfg(test)]
mod tests {
    use crate::cmd::run_str;
    use crate::cmd::testing::{demo_gobom, post, spawn_verb};

    #[test]
    fn serve_requires_model_flag() {
        let err = run_str(&["serve"]).unwrap_err();
        assert!(err.to_string().contains("--model"), "{err}");
    }

    /// The parser ignores flags it does not know, so the removed
    /// batching window has to be refused by name — on both commands
    /// that build a scheduler — before anything is loaded or bound.
    #[test]
    fn removed_max_wait_flag_is_a_usage_error() {
        for command in ["serve", "cluster-node"] {
            let err = run_str(&[command, "--model", "/nonexistent.gobom", "--max-wait-us", "0"])
                .unwrap_err();
            assert!(matches!(err, crate::cmd::CliError::Usage(_)), "{command}: {err:?}");
            let text = err.to_string();
            assert!(text.contains("--max-wait-us was removed"), "{command}: {text}");
            assert!(
                text.contains("no longer waits for a configurable window"),
                "{command}: {text}"
            );
        }
    }

    /// End-to-end CLI test: quantize a model to disk, `gobo serve` it on
    /// an ephemeral port, drive one encode over raw HTTP, then shut it
    /// down gracefully — the same flow the CI smoke job scripts.
    #[test]
    fn serve_round_trip_over_http() {
        let suite = "gobo-serve-cli-tests";
        let packed = demo_gobom(suite);
        let (server, port) =
            spawn_verb(suite, "serve", &["serve", "--model", &packed, "--name", "smoke"]);

        let (status, body) = post(port, "/v1/encode", "{\"model\":\"smoke\",\"ids\":[1,2,3]}");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"hidden\""), "{body}");

        let (_, body) = post(port, "/v1/shutdown", "");
        assert!(body.contains("draining"), "{body}");
        let msg = server.join().unwrap().unwrap();
        assert!(msg.contains("shut down after draining"), "{msg}");
    }
}
