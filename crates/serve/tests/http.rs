//! End-to-end HTTP tests: requests against a bound server, encode over
//! the wire, error statuses, metrics exposition, and graceful shutdown
//! via `POST /v1/shutdown`. (The bytes an encode answers with are the
//! differential oracle's, `crates/cli/tests/oracle.rs`.)

mod common;

use std::sync::Arc;

use common::{compressed, request};
use gobo_serve::json::{parse, Json};
use gobo_serve::{Client, ServeCore, ServeOptions, Server};

#[test]
fn http_round_trip_and_graceful_shutdown() {
    let container = compressed(11);
    let core = ServeCore::start(ServeOptions::default());
    let client = Client::new(Arc::clone(&core));
    client.register("demo", container).unwrap();
    let server = Server::bind(Arc::clone(&core), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let serve_thread = std::thread::spawn(move || server.serve_until_shutdown());

    // Model listing.
    let (status, body) = request(addr, "GET", "/v1/models", "");
    assert_eq!(status, 200);
    let listing = parse(&body).unwrap();
    let models = listing.get("models").and_then(Json::as_array).unwrap();
    assert_eq!(models.len(), 1);
    assert_eq!(models[0].get("name").and_then(Json::as_str), Some("demo"));
    assert_eq!(models[0].get("bits").and_then(Json::as_f64), Some(3.0));

    let (status, body) = request(
        addr,
        "POST",
        "/v1/encode",
        "{\"model\":\"demo\",\"ids\":[1,2,3,4],\"type_ids\":[0,0,1,1]}",
    );
    assert_eq!(status, 200, "encode failed: {body}");
    let value = parse(&body).unwrap();
    assert_eq!(value.get("model").and_then(Json::as_str), Some("demo"));
    let dims = value.get("hidden").and_then(|h| h.get("dims")).unwrap();
    assert_eq!(dims.as_usize_array(), Some(vec![4, 16]));

    // Error statuses: unknown model, malformed body, unknown route.
    let (status, body) = request(addr, "POST", "/v1/encode", "{\"model\":\"ghost\",\"ids\":[1]}");
    assert_eq!(status, 404);
    assert_eq!(parse(&body).unwrap().get("error").and_then(Json::as_str), Some("model_not_found"));
    let (status, _) = request(addr, "POST", "/v1/encode", "{\"model\":42}");
    assert_eq!(status, 400);
    let (status, _) = request(addr, "POST", "/v1/encode", "not json at all");
    assert_eq!(status, 400);
    let (status, _) = request(addr, "GET", "/v1/nothing-here", "");
    assert_eq!(status, 404);

    // Metrics: request/batch/queue counters must be live and non-zero.
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for needle in [
        "# TYPE gobo_http_requests_total counter",
        "gobo_encode_ok_total 1",
        "gobo_batch_size_max 1",
        "gobo_registry_models 1",
        "gobo_queue_depth 0",
    ] {
        assert!(metrics.contains(needle), "missing `{needle}` in:\n{metrics}");
    }
    let counter = |name: &str| -> u64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing metric {name}"))
    };
    assert!(counter("gobo_http_requests_total") >= 6);
    assert!(counter("gobo_batches_total") >= 1);
    assert!(counter("gobo_queue_depth_peak") >= 1);

    // Graceful shutdown over HTTP: drain and exit.
    let (status, body) = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    assert_eq!(parse(&body).unwrap().get("status").and_then(Json::as_str), Some("draining"));
    serve_thread.join().expect("server thread panicked");

    // After shutdown the scheduler rejects new work.
    match client.encode(gobo_serve::EncodeRequest::new("demo", vec![1])) {
        Err(gobo_serve::ServeError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
}

/// `POST /v1/reload` publishes a new revision as a canary over the
/// wire, the models listing reports per-revision lifecycle state and
/// resident byte sizes, and a corrupt `.gobom` is rejected with a 500
/// before the registry is touched.
#[test]
fn reload_over_http_publishes_canary_and_models_report_lifecycle() {
    let dir = std::env::temp_dir().join("gobo-http-reload-test");
    std::fs::create_dir_all(&dir).unwrap();
    let good = dir.join("good.gobom");
    std::fs::write(&good, compressed(23).to_bytes()).unwrap();
    let corrupt = dir.join("corrupt.gobom");
    let mut bytes = compressed(23).to_bytes();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff; // payload bit-flip: the CRC check must reject it
    std::fs::write(&corrupt, &bytes).unwrap();

    let core = ServeCore::start(ServeOptions::default());
    let client = Client::new(Arc::clone(&core));
    client.register("demo", compressed(11)).unwrap();
    let server = Server::bind(Arc::clone(&core), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let serve_thread = std::thread::spawn(move || server.serve_until_shutdown());

    // A fresh artifact arrives as revision 2 in the canary state.
    let body = format!("{{\"name\":\"demo\",\"path\":{:?}}}", good.display().to_string());
    let (status, response) = request(addr, "POST", "/v1/reload", &body);
    assert_eq!(status, 200, "reload failed: {response}");
    let value = parse(&response).unwrap();
    assert_eq!(value.get("status").and_then(Json::as_str), Some("canary"));
    assert_eq!(value.get("name").and_then(Json::as_str), Some("demo"));
    assert_eq!(value.get("rev").and_then(Json::as_usize), Some(2));

    // The listing now carries both revisions with state + byte sizes.
    let (status, body) = request(addr, "GET", "/v1/models", "");
    assert_eq!(status, 200);
    let listing = parse(&body).unwrap();
    let models = listing.get("models").and_then(Json::as_array).unwrap();
    assert_eq!(models.len(), 2, "{body}");
    let state_of = |rev: usize| -> String {
        models
            .iter()
            .find(|m| m.get("rev").and_then(Json::as_usize) == Some(rev))
            .and_then(|m| m.get("state").and_then(Json::as_str))
            .unwrap_or_else(|| panic!("no rev {rev} in {body}"))
            .to_owned()
    };
    assert_eq!(state_of(1), "active");
    assert_eq!(state_of(2), "canary");
    for model in models {
        assert_eq!(model.get("name").and_then(Json::as_str), Some("demo"));
        assert!(model.get("resident_bytes").and_then(Json::as_f64).unwrap() > 0.0, "{body}");
        assert!(model.get("compressed_bytes").and_then(Json::as_f64).unwrap() > 0.0, "{body}");
    }

    // A corrupt artifact is refused and the registry stays as it was.
    let body = format!("{{\"name\":\"demo\",\"path\":{:?}}}", corrupt.display().to_string());
    let (status, response) = request(addr, "POST", "/v1/reload", &body);
    assert_eq!(status, 500, "{response}");
    assert_eq!(
        parse(&response).unwrap().get("error").and_then(Json::as_str),
        Some("corrupt_model")
    );
    let (_, body) = request(addr, "GET", "/v1/models", "");
    let listing = parse(&body).unwrap();
    assert_eq!(listing.get("models").and_then(Json::as_array).unwrap().len(), 2, "{body}");

    // Malformed request bodies are 400s, not registry operations.
    let (status, _) = request(addr, "POST", "/v1/reload", "{\"name\":\"demo\"}");
    assert_eq!(status, 400);

    // The admin counters saw one accepted and one rejected reload.
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert!(metrics.contains("gobo_serve_reloads_total 1"), "{metrics}");
    assert!(metrics.contains("gobo_serve_reload_rejected_total 1"), "{metrics}");

    let (status, _) = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    serve_thread.join().unwrap();
}

#[test]
fn request_shutdown_api_stops_server() {
    let core = ServeCore::start(ServeOptions::default());
    let server = Server::bind(Arc::clone(&core), "127.0.0.1:0").unwrap();
    server.request_shutdown();
    server.serve_until_shutdown(); // must return promptly, not hang
}

/// Bodies over the configured cap are refused with `413` before the
/// server reads them, counted in `rejected_body_too_large_total`, and
/// the connection keeps serving within-limit requests.
#[test]
fn oversized_body_rejected_with_413() {
    let core = ServeCore::start(ServeOptions::default());
    let client = Client::new(Arc::clone(&core));
    client.register("demo", compressed(13)).unwrap();
    let server = Server::bind_with(
        Arc::clone(&core),
        "127.0.0.1:0",
        gobo_serve::HttpOptions { max_body: 256 },
    )
    .unwrap();
    let addr = server.local_addr();
    let serve_thread = std::thread::spawn(move || server.serve_until_shutdown());

    let huge = format!("{{\"model\":\"demo\",\"ids\":[{}]}}", vec!["1"; 300].join(","));
    assert!(huge.len() > 256);
    let (status, body) = request(addr, "POST", "/v1/encode", &huge);
    assert_eq!(status, 413);
    assert!(body.contains("body_too_large"), "{body}");

    // A small request on a fresh connection still works.
    let (status, _) = request(addr, "POST", "/v1/encode", "{\"model\":\"demo\",\"ids\":[1,2]}");
    assert_eq!(status, 200);

    let (_, metrics) = request(addr, "GET", "/metrics", "");
    let line = metrics
        .lines()
        .find(|l| l.starts_with("gobo_rejected_body_too_large_total"))
        .expect("missing body-too-large counter");
    assert_eq!(line.split_whitespace().nth(1), Some("1"), "{line}");

    let (status, _) = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    serve_thread.join().unwrap();
}
