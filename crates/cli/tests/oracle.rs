//! The differential oracle for GOBO's promise that a decoded model is an
//! FP32 model, plug-in compatible with any engine: every serving path
//! answers each sequence with the bits of `decode().encode(ids, type_ids)`.
//! A cell of bits × archive × path × batch checks `hidden` and `pooled` of
//! every sequence, the `batch_size` replies report, and its path's proof
//! (the candidate's revision for `canary`, a hedge win per request for
//! `hedged`). A failure names its cell, e.g.
//! `bits=2 emb=4 batch=7 path=hedged: seq 3 hidden[13] 0x3e1c… != 0x3e1d…`.
//! Batches are forced: all paths end in one core whose one worker is parked
//! in a `serve.batch` delay while the table queues, one model name per
//! cell. The failpoint is process-global, so this file is one `#[test]`.

use std::net::SocketAddr;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gobo::pipeline::QuantizeOptions;
use gobo_cli::harness::{build_model, wait_until};
use gobo_cluster::{ClusterNode, Router, RouterConfig, RouterServer};
use gobo_fault::{FaultAction, Policy};
use gobo_model::batch::EncodeInput;
use gobo_model::forward::EncoderOutput;
use gobo_serve::json::{parse, Json};
use gobo_serve::{CanaryPolicy, Client, EncodeRequest, HttpClient, RevState};
use gobo_serve::{RegistryConfig, SchedulerConfig, ServeCore, ServeOptions, Server};

const IN_PROCESS: [&str; 3] = ["engine", "scheduler", "canary"];
const NETWORK: [&str; 4] = ["http", "routed", "routed-http", "hedged"];
/// How long the worker stays parked: ample for queueing the table.
const HOLD: Duration = Duration::from_millis(600);
/// The revision a canary cell's candidate is published as.
const CANDIDATE: u64 = 2;

/// Sequence `k`: batch `b` sends sequences `0..b`.
fn sequence(k: usize) -> (Vec<usize>, Vec<usize>) {
    let ids: Vec<usize> = (0..1 + k % 12).map(|t| (3 * k + 5 * t + 1) % 256).collect();
    let types =
        if k.is_multiple_of(2) { Vec::new() } else { (0..ids.len()).map(|t| t % 2).collect() };
    (ids, types)
}

/// `(hidden, pooled, batch_size, rev)`: what every path's reply comes to.
type Answer = Result<(Vec<f32>, Option<Vec<f32>>, usize, Option<u64>), String>;

fn engine(core: &ServeCore, name: &str, batch: usize) -> Vec<Answer> {
    let seqs: Vec<_> = (0..batch).map(sequence).collect();
    let inputs: Vec<_> = seqs.iter().map(|(ids, type_ids)| EncodeInput { ids, type_ids }).collect();
    let served = core.registry().get(name, None).unwrap().engine.encode_batch(&inputs).unwrap();
    let answer =
        |o: EncoderOutput| Ok((o.hidden.into_vec(), o.pooled.map(|p| p.into_vec()), batch, None));
    served.into_iter().map(answer).collect()
}

fn scheduled(client: &Client, name: &str, k: usize) -> Answer {
    let (ids, type_ids) = sequence(k);
    let request = EncodeRequest { type_ids, ..EncodeRequest::new(name, ids) };
    let r = client.encode(request).map_err(|e| e.to_string())?;
    Ok((r.hidden, r.pooled, r.batch_size, Some(r.rev)))
}

fn post(addr: SocketAddr, body: &str) -> (u16, String) {
    HttpClient::new(addr.to_string()).request("POST", "/v1/encode", body).expect("HTTP exchange")
}

/// Sequence `k` as a `POST /v1/encode`, its answer parsed back.
fn over_http(addr: SocketAddr, name: &str, k: usize) -> Answer {
    let (ids, types) = sequence(k);
    let (status, body) =
        post(addr, &format!(r#"{{"model":"{name}","ids":{ids:?},"type_ids":{types:?}}}"#));
    let value = parse(&body).ok().filter(|_| status == 200).ok_or(format!("{status} {body}"))?;
    let floats = |v: &Json| {
        v.as_array().map(|a| a.iter().filter_map(Json::as_f64).map(|x| x as f32).collect())
    };
    let number = |key| value.get(key).and_then(Json::as_usize);
    let hidden = value.get("hidden").and_then(|h| h.get("data")).and_then(floats);
    let (hidden, batch_size) = (hidden.unwrap_or_default(), number("batch_size").unwrap_or(0));
    Ok((hidden, value.get("pooled").and_then(floats), batch_size, number("rev").map(|r| r as u64)))
}

fn routed(router: &Router, name: &str, k: usize) -> Answer {
    let (ids, types) = sequence(k);
    let wire = |v: Vec<usize>| v.into_iter().map(|x| x as u32).collect::<Vec<u32>>();
    let ok = router.encode(name, None, &wire(ids), &wire(types), 0).map_err(|e| e.to_string())?;
    Ok((ok.hidden, ok.pooled, ok.batch_size as usize, None))
}

/// How an answer of a cell of `path` at `batch` differs from `want`, if
/// it does: the first differing bit pattern, or the batch or revision.
fn difference(path: &str, batch: usize, answer: &Answer, want: &EncoderOutput) -> Option<String> {
    let bits = |what: &str, got: &[f32], want: &[f32]| {
        if got.len() != want.len() {
            return Some(format!("{what} has {} values, want {}", got.len(), want.len()));
        }
        let i = got.iter().zip(want).position(|(g, w)| g.to_bits() != w.to_bits())?;
        Some(format!("{what}[{i}] {:#010x} != {:#010x}", got[i].to_bits(), want[i].to_bits()))
    };
    let Ok((hidden, pooled, size, rev)) = answer else {
        return answer.as_ref().err().map(|e| format!("failed: {e}"));
    };
    let want_pooled = want.pooled.as_ref().map(|t| t.as_slice()).unwrap_or_default();
    bits("hidden", hidden, want.hidden.as_slice())
        .or_else(|| bits("pooled", pooled.as_deref().unwrap_or_default(), want_pooled))
        .or_else(|| (*size != batch).then(|| format!("batch_size {size}")))
        .or_else(|| (path == "canary" && *rev != Some(CANDIDATE)).then(|| format!("rev {rev:?}")))
}

#[test]
fn every_path_serves_the_fp32_forward_of_the_decoded_container() {
    // (label, container, a canary slot's first revision, FP32 references)
    let mut containers = Vec::new();
    for bits in [2u8, 3, 4] {
        let fc = QuantizeOptions::gobo(bits).unwrap();
        for (emb, options) in [("none", fc.clone()), ("4", fc.with_embedding_bits(4).unwrap())] {
            let model = build_model(u64::from(bits), &options).unwrap();
            let decoded = model.decode().unwrap();
            let want = (0..32).map(sequence).map(|(i, t)| decoded.encode(&i, &t).unwrap());
            let base = build_model(u64::from(bits) + 100, &options).unwrap();
            let label = format!("bits={bits} emb={emb}");
            containers.push((label, model, base, want.collect::<Vec<_>>()));
        }
    }

    // One core behind an HTTP server and two node pairs: one unhedged, called
    // directly and through its HTTP front; one hedged past a silent primary.
    let mut scheduler = SchedulerConfig { workers: 1, max_batch: 32, ..Default::default() };
    scheduler.queue_capacity = 1024;
    let core = ServeCore::start(ServeOptions {
        registry: RegistryConfig { max_models: 256, ..RegistryConfig::default() },
        scheduler,
        lifecycle: CanaryPolicy { traffic_pct: 100, ..CanaryPolicy::default() },
    });
    let client = Client::new(Arc::clone(&core));
    let node = || ClusterNode::start(Arc::clone(&core), "127.0.0.1:0").unwrap();
    let pair_router = |hedge_after, pair: &[ClusterNode; 2]| {
        let router =
            Router::new(RouterConfig { hedge_after: Some(hedge_after), ..Default::default() });
        for (i, node) in pair.iter().enumerate() {
            router.add_node(format!("n{i}"), node.local_addr().to_string());
        }
        router
    };
    let server = Server::bind(Arc::clone(&core), "127.0.0.1:0").unwrap();
    let (routed_pair, hedged_pair) = ([node(), node()], [node(), node()]);
    let router = Arc::new(pair_router(Duration::from_secs(5), &routed_pair));
    let front = RouterServer::bind(Arc::clone(&router), "127.0.0.1:0").unwrap();
    let hedged = pair_router(Duration::from_millis(20), &hedged_pair);
    hedged_pair[0].set_partitioned(true);

    // A name per cell; a hedged cell's primary is the partitioned node.
    let in_process = IN_PROCESS.map(|p| (p, &[1, 7, 32][..]));
    let paths: Vec<_> = in_process.into_iter().chain(NETWORK.map(|p| (p, &[1, 7][..]))).collect();
    let mut cells = Vec::new();
    for (label, model, base, want) in &containers {
        for &(path, batches) in &paths {
            for &batch in batches {
                let mut name = format!("{label}/{path}/{batch}");
                if path == "hedged" {
                    let primary =
                        |k| hedged.replicas_for(&format!("{name}/{k}"), None)[0].id == "n0";
                    name = format!("{name}/{}", (0..).find(|&k| primary(k)).unwrap());
                }
                client
                    .register(&name, (if path == "canary" { base } else { model }).clone())
                    .unwrap();
                if path == "canary" {
                    let (entry, state) = core.registry().publish(&name, model.clone()).unwrap();
                    assert_eq!((entry.rev, state), (CANDIDATE, RevState::Canary));
                }
                cells.push((label, path, batch, name, want));
            }
        }
    }
    assert_eq!(cells.len(), 6 * (3 * 3 + 4 * 2), "54 in-process and 48 network cells");
    client.register("plug", containers[0].1.clone()).unwrap();

    // Park the worker and queue the table, a thread per request (not the
    // engine's: one call is one batch).
    gobo_fault::configure("serve.batch", Policy::always(FaultAction::Delay(HOLD)));
    let plug = core.scheduler().submit(EncodeRequest::new("plug", vec![1])).unwrap();
    assert!(wait_until(Duration::from_secs(10), || gobo_fault::fires("serve.batch") == 1));
    let released = Instant::now() + HOLD;
    let queued: usize = cells.iter().filter(|c| c.1 != "engine").map(|c| c.2).sum();
    let (http, routed_http) = (server.local_addr(), front.local_addr());
    let (router, hedged, client) = (&*router, &hedged, &client);
    let answers: Vec<Vec<Answer>> = std::thread::scope(|scope| {
        let mut sent = Vec::new();
        for &(_, path, batch, ref name, _) in &cells {
            let name = name.as_str();
            let ask = move |k| match path {
                "http" => over_http(http, name, k),
                "routed-http" => over_http(routed_http, name, k),
                "routed" => routed(router, name, k),
                "hedged" => routed(hedged, name, k),
                _ => scheduled(client, name, k),
            };
            let batch = if path == "engine" { 0 } else { batch };
            sent.push((0..batch).map(|k| scope.spawn(move || ask(k))).collect::<Vec<_>>());
        }
        let left = released.saturating_duration_since(Instant::now());
        let all_in = wait_until(left, || core.scheduler().queue_depth() == queued);
        gobo_fault::clear("serve.batch");
        assert!(all_in, "the park ended before the table was queued");
        sent.into_iter().map(|cell| cell.into_iter().map(|t| t.join().unwrap()).collect()).collect()
    });
    assert_eq!(plug.recv().unwrap().unwrap().batch_size, 1);

    let mut failures = Vec::new();
    let hedge_wins = hedged.metrics().hedge_wins.load(Relaxed) as usize;
    let hedged_requests: usize = cells.iter().filter(|c| c.1 == "hedged").map(|c| c.2).sum();
    for ((label, path, batch, name, want), answers) in cells.iter().zip(answers) {
        let key = format!("{label} batch={batch} path={path}");
        let answers = if *path == "engine" { engine(&core, name, *batch) } else { answers };
        for (k, answer) in answers.iter().enumerate() {
            let problem = difference(path, *batch, answer, &want[k]);
            failures.extend(problem.map(|p| format!("{key}: seq {k} {p}")));
        }
        if *path == "hedged" && hedge_wins != hedged_requests {
            failures.push(format!("{key}: {hedge_wins} hedge wins for {hedged_requests} requests"));
        }
    }

    // Both front doors refuse alike: the same status and error code.
    for body in [
        r#"{"model":"plug","ids":[1,2],"bits":0}"#,
        r#"{"model":"plug","ids":[1,2],"deadline_ms":0}"#,
        r#"{"model":"no-such-model","ids":[1,2]}"#,
        r#"{"model":"plug","ids":[1,9999]}"#,
        r#"{"model":"plug","ids":[]}"#,
    ] {
        let answer = |addr| {
            let (status, body) = post(addr, body);
            (status, parse(&body).ok().and_then(|v| v.get("error")?.as_str().map(str::to_owned)))
        };
        let (node, router) = (answer(http), answer(routed_http));
        if node != router || node.0 < 400 {
            failures.push(format!("refusal {body}: node {node:?}, router {router:?}"));
        }
    }

    drop((front, server, routed_pair, hedged_pair));
    core.shutdown();
    failures.extend(core.check_counter_laws().err());
    assert!(failures.is_empty(), "{} failures:\n{}", failures.len(), failures.join("\n"));
}
