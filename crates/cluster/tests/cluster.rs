//! End-to-end cluster tests over real TCP: byte-identity of routed
//! responses, failover when a replica dies, hedged rescue of a slow or
//! partitioned primary, drain handling, and the HTTP front door.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gobo::format::CompressedModel;
use gobo::pipeline::{quantize_model, QuantizeOptions};
use gobo_cluster::{ClusterNode, Router, RouterConfig, RouterServer};
use gobo_model::config::ModelConfig;
use gobo_model::TransformerModel;
use gobo_serve::json::{parse, Json};
use gobo_serve::{CanaryPolicy, Client, EncodeRequest, ServeCore, ServeOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn compressed(seed: u64) -> CompressedModel {
    let config = ModelConfig::tiny("Cluster", 1, 16, 2, 40, 12).unwrap();
    let model = TransformerModel::new(config, &mut StdRng::seed_from_u64(seed)).unwrap();
    let outcome = quantize_model(&model, &QuantizeOptions::gobo(3).unwrap()).unwrap();
    CompressedModel::new(&model, outcome.archive)
}

struct TestNode {
    id: String,
    core: Arc<ServeCore>,
    node: ClusterNode,
}

/// Starts `n` nodes, each serving the same container as "demo", and a
/// router over them with fast heartbeats and the given config tweaks.
fn start_cluster(n: usize, mut config: RouterConfig) -> (Vec<TestNode>, Router) {
    let container = compressed(7);
    let mut nodes = Vec::new();
    for i in 0..n {
        let core = ServeCore::start(ServeOptions::default());
        Client::new(Arc::clone(&core)).register("demo", &container).unwrap();
        let node = ClusterNode::start(Arc::clone(&core), "127.0.0.1:0").unwrap();
        nodes.push(TestNode { id: format!("n{}", i + 1), core, node });
    }
    config.heartbeat_interval = Duration::from_millis(25);
    config.heartbeat_timeout = Duration::from_millis(250);
    config.dead_after = 2;
    let router = Router::new(config);
    for node in &nodes {
        router.add_node(node.id.clone(), node.node.local_addr().to_string());
    }
    (nodes, router)
}

fn primary_index(nodes: &[TestNode], router: &Router) -> usize {
    let ordered = router.replicas_for("demo", None);
    let primary = ordered.first().expect("at least one replica");
    nodes.iter().position(|n| n.id == primary.id).expect("primary is a known node")
}

fn assert_bits_identical(routed: &[f32], direct: &[f32]) {
    assert_eq!(routed.len(), direct.len(), "tensor sizes differ");
    for (i, (a, b)) in routed.iter().zip(direct.iter()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "element {i} differs: {a} vs {b}");
    }
}

#[test]
fn routed_encode_is_byte_identical_to_direct() {
    let (nodes, router) = start_cluster(3, RouterConfig::default());
    let direct = Client::new(Arc::clone(&nodes[0].core))
        .encode(EncodeRequest::new("demo", vec![1, 2, 3]))
        .unwrap();

    let ok = router.encode("demo", None, &[1, 2, 3], &[], 0).unwrap();
    assert_eq!(ok.model, "demo");
    assert_eq!(ok.dims, vec![3, 16]);
    assert_bits_identical(&ok.hidden, &direct.hidden);
    match (&ok.pooled, &direct.pooled) {
        (Some(a), Some(b)) => assert_bits_identical(a, b),
        (None, None) => {}
        other => panic!("pooled presence differs: {other:?}"),
    }

    // Replica placement is stable and uses RF distinct members.
    let replicas = router.replicas_for("demo", None);
    assert_eq!(replicas.len(), 2);
    assert_ne!(replicas[0].id, replicas[1].id);
}

#[test]
fn failover_survives_a_killed_replica() {
    let (mut nodes, router) = start_cluster(3, RouterConfig::default());
    let direct = Client::new(Arc::clone(&nodes[0].core))
        .encode(EncodeRequest::new("demo", vec![4, 5]))
        .unwrap();

    let victim = primary_index(&nodes, &router);
    nodes[victim].node.shutdown();
    nodes[victim].core.shutdown();

    // Routing still succeeds via the surviving replica, immediately.
    let ok = router.encode("demo", None, &[4, 5], &[], 0).unwrap();
    assert_bits_identical(&ok.hidden, &direct.hidden);
    let m = router.metrics();
    assert!(
        m.failovers.load(std::sync::atomic::Ordering::Relaxed) >= 1,
        "expected at least one failover"
    );

    // Heartbeats mark the victim dead and the metrics say so.
    router.start();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let down = router.membership().iter().filter(|n| !n.healthy).count();
        if down == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "victim never marked dead");
        std::thread::sleep(Duration::from_millis(10));
    }
    let text = router.render_metrics();
    assert!(text.contains("gobo_cluster_node_down 1"), "{text}");
    assert!(m.mark_dead.load(std::sync::atomic::Ordering::Relaxed) >= 1);

    // Once dead, the victim is out of the replica set entirely.
    for replica in router.replicas_for("demo", None) {
        assert_ne!(replica.id, nodes[victim].id);
    }
    router.shutdown();
}

#[test]
fn hedge_rescues_a_slow_primary_and_demotes_it() {
    let config =
        RouterConfig { hedge_after: Some(Duration::from_millis(10)), ..RouterConfig::default() };
    let (nodes, router) = start_cluster(3, config);
    let direct = Client::new(Arc::clone(&nodes[0].core))
        .encode(EncodeRequest::new("demo", vec![7, 8, 9]))
        .unwrap();

    let slow = primary_index(&nodes, &router);
    nodes[slow].node.set_artificial_delay(Duration::from_millis(150));

    let start = Instant::now();
    let ok = router.encode("demo", None, &[7, 8, 9], &[], 0).unwrap();
    let elapsed = start.elapsed();
    assert_bits_identical(&ok.hidden, &direct.hidden);
    assert!(
        elapsed < Duration::from_millis(120),
        "hedge should beat the 150ms slow primary, took {elapsed:?}"
    );
    let m = router.metrics();
    assert!(m.hedge_fires.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    assert!(m.hedge_wins.load(std::sync::atomic::Ordering::Relaxed) >= 1);

    // The slow node's score rose, demoting it out of the primary slot.
    let ordered = router.replicas_for("demo", None);
    assert_ne!(ordered.first().unwrap().id, nodes[slow].id, "slow node must be demoted");
}

#[test]
fn hedge_rescues_a_partitioned_primary() {
    let config =
        RouterConfig { hedge_after: Some(Duration::from_millis(10)), ..RouterConfig::default() };
    let (nodes, router) = start_cluster(3, config);
    let victim = primary_index(&nodes, &router);
    nodes[victim].node.set_partitioned(true);

    // The partitioned node reads the request but never answers; only
    // the hedge saves this request from the full request timeout.
    let ok = router.encode("demo", None, &[1], &[], 0).unwrap();
    assert_eq!(ok.dims, vec![1, 16]);
    let m = router.metrics();
    assert!(m.hedge_wins.load(std::sync::atomic::Ordering::Relaxed) >= 1);

    nodes[victim].node.set_partitioned(false);
}

#[test]
fn draining_node_fails_over_and_advertises_drain() {
    let (nodes, router) = start_cluster(2, RouterConfig::default());
    let victim = primary_index(&nodes, &router);
    nodes[victim].node.begin_drain();
    assert!(nodes[victim].node.is_draining());

    // `shutting_down` is retryable: the router fails over.
    let ok = router.encode("demo", None, &[2, 3], &[], 0).unwrap();
    assert_eq!(ok.dims, vec![2, 16]);
    assert!(router.metrics().failovers.load(std::sync::atomic::Ordering::Relaxed) >= 1);

    // Heartbeats pick up the drain flag and rebuild the ring.
    router.start();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if router.membership().iter().any(|n| n.draining) {
            break;
        }
        assert!(Instant::now() < deadline, "drain never observed by heartbeat");
        std::thread::sleep(Duration::from_millis(10));
    }
    router.shutdown();
}

#[test]
fn dead_node_is_marked_alive_again_after_recovery() {
    let (nodes, router) = start_cluster(3, RouterConfig::default());
    let victim = primary_index(&nodes, &router);
    nodes[victim].node.set_partitioned(true);
    router.start();

    let deadline = Instant::now() + Duration::from_secs(5);
    while router.membership().iter().all(|n| n.healthy) {
        assert!(Instant::now() < deadline, "partitioned node never marked dead");
        std::thread::sleep(Duration::from_millis(10));
    }

    nodes[victim].node.set_partitioned(false);
    let deadline = Instant::now() + Duration::from_secs(5);
    while router.membership().iter().any(|n| !n.healthy) {
        assert!(Instant::now() < deadline, "healed node never marked alive");
        std::thread::sleep(Duration::from_millis(10));
    }
    let m = router.metrics();
    assert!(m.mark_dead.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    assert!(m.mark_alive.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    router.shutdown();
}

#[test]
fn terminal_errors_return_immediately_without_failover() {
    let (_nodes, router) = start_cluster(2, RouterConfig::default());
    let err = router.encode("nope", None, &[1], &[], 0).unwrap_err();
    assert_eq!(err.code(), "model_not_found");
    assert_eq!(err.http_status(), 404);
    assert_eq!(router.metrics().failovers.load(std::sync::atomic::Ordering::Relaxed), 0);
}

#[test]
fn empty_router_reports_no_replica() {
    let router = Router::new(RouterConfig::default());
    let err = router.encode("demo", None, &[1], &[], 0).unwrap_err();
    assert_eq!(err.code(), "no_healthy_replica");
    assert_eq!(err.http_status(), 503);
}

#[test]
fn injected_route_failpoint_surfaces_as_internal() {
    let (_nodes, router) = start_cluster(1, RouterConfig::default());
    gobo_fault::configure_str("cluster.route=error").unwrap();
    let err = router.encode("demo", None, &[1], &[], 0).unwrap_err();
    gobo_fault::reset();
    assert_eq!(err.code(), "internal");
}

/// A healthy canary node under a trial with a generous regression
/// threshold fills its window and is auto-promoted; every routed
/// response stays byte-identical throughout the trial.
#[test]
fn canary_trial_promotes_a_healthy_node() {
    let config = RouterConfig {
        canary: CanaryPolicy {
            traffic_pct: 50,
            window: 4,
            // Identical tiny nodes on one machine: a generous factor
            // keeps scheduler jitter from failing a healthy canary.
            p95_factor_pct: 10_000,
            min_baseline: 2,
        },
        ..RouterConfig::default()
    };
    let (nodes, router) = start_cluster(3, config);
    let direct = Client::new(Arc::clone(&nodes[0].core))
        .encode(EncodeRequest::new("demo", vec![1, 2, 3]))
        .unwrap();

    assert!(!router.set_canary("ghost"), "unknown ids must not start a trial");
    let trial = (primary_index(&nodes, &router) + 1) % nodes.len();
    assert!(router.set_canary(&nodes[trial].id));
    assert_eq!(router.canary_node().as_deref(), Some(nodes[trial].id.as_str()));

    let mut spins = 0;
    while router.canary_node().is_some() {
        let ok = router.encode("demo", None, &[1, 2, 3], &[], 0).unwrap();
        assert_bits_identical(&ok.hidden, &direct.hidden);
        spins += 1;
        assert!(spins < 200, "trial never reached a verdict");
    }
    let m = router.metrics();
    assert_eq!(m.canary_promotions.load(std::sync::atomic::Ordering::Relaxed), 1);
    assert_eq!(m.canary_rollbacks.load(std::sync::atomic::Ordering::Relaxed), 0);
    assert!(m.canary_requests.load(std::sync::atomic::Ordering::Relaxed) >= 4);
}

/// A slow canary node is rolled back on the p95 comparison and
/// demoted to last pick — while hedged backups keep every client
/// response fast and byte-identical.
#[test]
fn canary_trial_rolls_back_a_slow_node() {
    let config = RouterConfig {
        hedge_after: Some(Duration::from_millis(25)),
        canary: CanaryPolicy { traffic_pct: 50, window: 4, p95_factor_pct: 300, min_baseline: 2 },
        ..RouterConfig::default()
    };
    let (nodes, router) = start_cluster(3, config);
    let direct = Client::new(Arc::clone(&nodes[0].core))
        .encode(EncodeRequest::new("demo", vec![4, 5]))
        .unwrap();

    let trial = (primary_index(&nodes, &router) + 1) % nodes.len();
    nodes[trial].node.set_artificial_delay(Duration::from_millis(100));
    assert!(router.set_canary(&nodes[trial].id));

    let mut spins = 0;
    while router.canary_node().is_some() {
        let ok = router.encode("demo", None, &[4, 5], &[], 0).unwrap();
        assert_bits_identical(&ok.hidden, &direct.hidden);
        spins += 1;
        assert!(spins < 200, "trial never reached a verdict");
    }
    let m = router.metrics();
    assert_eq!(m.canary_rollbacks.load(std::sync::atomic::Ordering::Relaxed), 1);
    assert_eq!(m.canary_promotions.load(std::sync::atomic::Ordering::Relaxed), 0);
    let info = router
        .membership()
        .into_iter()
        .find(|n| n.id == nodes[trial].id)
        .expect("trial node in membership");
    assert!(info.slow_score >= 8, "rolled-back node must be demoted, score {}", info.slow_score);
    assert_ne!(
        router.replicas_for("demo", None).first().unwrap().id,
        nodes[trial].id,
        "rolled-back node must not be the primary pick"
    );
}

/// A canary node that dies mid-trial rolls back on the first failed
/// attempt; the request itself fails over and still succeeds.
#[test]
fn canary_rolls_back_when_the_trial_node_dies() {
    let config = RouterConfig {
        canary: CanaryPolicy { traffic_pct: 100, window: 8, p95_factor_pct: 300, min_baseline: 1 },
        ..RouterConfig::default()
    };
    let (mut nodes, router) = start_cluster(3, config);
    let direct = Client::new(Arc::clone(&nodes[0].core))
        .encode(EncodeRequest::new("demo", vec![6]))
        .unwrap();

    let trial = (primary_index(&nodes, &router) + 1) % nodes.len();
    assert!(router.set_canary(&nodes[trial].id));
    nodes[trial].node.shutdown();
    nodes[trial].core.shutdown();

    let ok = router.encode("demo", None, &[6], &[], 0).unwrap();
    assert_bits_identical(&ok.hidden, &direct.hidden);
    assert_eq!(router.canary_node(), None, "trial must end on the failed attempt");
    let m = router.metrics();
    assert_eq!(m.canary_rollbacks.load(std::sync::atomic::Ordering::Relaxed), 1);
    assert!(m.failovers.load(std::sync::atomic::Ordering::Relaxed) >= 1);
}

/// The ring is rebuilt from two sides at once — `add_node` on several
/// threads, health flips on the heartbeat thread — and whichever
/// rebuild lands last must have been built from the newest member
/// list and health. Asked for more replicas than there are members,
/// `replicas_for` returns the ring's members that are alive, and once
/// a round is quiet that must be every live member.
#[test]
fn ring_matches_membership_after_concurrent_adds_and_health_flips() {
    use std::collections::BTreeSet;
    let node = || {
        let core = ServeCore::start(ServeOptions::default());
        (ClusterNode::start(Arc::clone(&core), "127.0.0.1:0").unwrap(), core)
    };
    let (anchor, _anchor_core) = node();
    let (flapper, _flapper_core) = node();
    let anchor_addr = anchor.local_addr().to_string();
    let router = Router::new(RouterConfig {
        replication: usize::MAX,
        virtual_nodes: 256,
        heartbeat_interval: Duration::from_millis(1),
        heartbeat_timeout: Duration::from_millis(50),
        dead_after: 1,
        ..RouterConfig::default()
    });
    router.add_node("anchor", anchor_addr.clone());
    router.add_node("flapper", flapper.local_addr().to_string());
    router.start();

    for round in 0..10 {
        // A partitioned node reads the heartbeat and never acks it.
        let partitioned = round % 2 == 0;
        flapper.set_partitioned(partitioned);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (router, addr) = (&router, &anchor_addr);
                scope.spawn(move || {
                    for i in 0..3 {
                        router.add_node(format!("m{round}-{t}-{i}"), addr.clone());
                    }
                });
            }
        });
        // Nothing rebuilds the ring again in this round once the adds
        // are in and the heartbeat thread has flipped the flapper, so a
        // ring a stale rebuild overwrote stays wrong until the deadline.
        let expected = 2 + 12 * (round + 1) - usize::from(partitioned);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let live: BTreeSet<String> =
                router.membership().into_iter().filter(|n| n.healthy).map(|n| n.id).collect();
            let on_ring: BTreeSet<String> =
                router.replicas_for("demo", None).iter().map(|n| n.id.clone()).collect();
            if live.len() == expected && live.contains("flapper") != partitioned && on_ring == live
            {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "round {round}: the ring never came to describe its {expected} live members\n \
                 ring: {on_ring:?}\n live: {live:?}"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    router.shutdown();
}

fn http_request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let message = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(message.as_bytes()).expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {raw:?}"));
    let payload = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
    (status, payload)
}

#[test]
fn http_front_speaks_the_node_dialect() {
    let (nodes, router) = start_cluster(3, RouterConfig::default());
    let direct = Client::new(Arc::clone(&nodes[0].core))
        .encode(EncodeRequest::new("demo", vec![1, 2, 3]))
        .unwrap();
    let front = RouterServer::bind(Arc::new(router), "127.0.0.1:0").unwrap();
    let addr = front.local_addr();

    let (status, body) = http_request(
        addr,
        "POST",
        "/v1/encode",
        "{\"model\":\"demo\",\"ids\":[1,2,3],\"type_ids\":[0,0,0]}",
    );
    assert_eq!(status, 200, "{body}");
    let value = parse(&body).unwrap();
    assert_eq!(value.get("model").and_then(Json::as_str), Some("demo"));
    let data = value
        .get("hidden")
        .and_then(|h| h.get("data"))
        .and_then(Json::as_array)
        .expect("hidden.data array");
    assert_eq!(data.len(), direct.hidden.len());
    for (i, (v, want)) in data.iter().zip(direct.hidden.iter()).enumerate() {
        let got = v.as_f64().expect("numeric element") as f32;
        assert_eq!(got.to_bits(), want.to_bits(), "hidden[{i}] differs over HTTP");
    }

    let (status, body) = http_request(addr, "GET", "/v1/cluster", "");
    assert_eq!(status, 200);
    let value = parse(&body).unwrap();
    let members = value.get("nodes").and_then(Json::as_array).expect("nodes array");
    assert_eq!(members.len(), 3);
    assert!(members.iter().all(|n| n.get("healthy") == Some(&Json::Bool(true))));

    let (status, metrics) = http_request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(metrics.contains("gobo_cluster_requests_total"), "{metrics}");
    assert!(metrics.contains("gobo_cluster_canary_requests_total"), "{metrics}");

    // Canary admin: start a trial on a member, see it in the
    // snapshot, and get a 404 for an unknown id.
    let (status, body) = http_request(addr, "POST", "/v1/canary", "{\"node\":\"n2\"}");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"canary\""), "{body}");
    let (_, body) = http_request(addr, "GET", "/v1/cluster", "");
    assert_eq!(parse(&body).unwrap().get("canary").and_then(Json::as_str), Some("n2"), "{body}");
    let (status, body) = http_request(addr, "POST", "/v1/canary", "{\"node\":\"ghost\"}");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("node_not_found"), "{body}");
    let (status, _) = http_request(addr, "POST", "/v1/canary", "{}");
    assert_eq!(status, 400);

    let (status, body) =
        http_request(addr, "POST", "/v1/encode", "{\"model\":\"missing\",\"ids\":[1]}");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("model_not_found"), "{body}");

    let (status, _) = http_request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    front.serve_until_shutdown();
}
