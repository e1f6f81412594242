//! End-to-end cluster tests over real TCP: failover when a replica dies,
//! hedged rescue of a slow or partitioned primary, drain handling, the
//! HTTP front door — and the
//! router's connection pool: one connect per node rather than per
//! request, and no connection reused unless its last exchange ended in
//! a whole reply to the request it carried.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use gobo::format::CompressedModel;
use gobo::pipeline::{quantize_model, QuantizeOptions};
use gobo_cluster::{ClusterNode, Router, RouterConfig, RouterServer};
use gobo_model::config::ModelConfig;
use gobo_model::TransformerModel;
use gobo_proto::frame::{
    read_frame, write_frame, EncodeOkFrame, EncodeResponseFrame, Frame, HeartbeatAckFrame,
    MAX_PAYLOAD, PROTOCOL_VERSION,
};
use gobo_proto::integrity::Crc32;
use gobo_serve::json::{parse, Json};
use gobo_serve::{CanaryPolicy, Client, EncodeRequest, HttpClient, ServeCore, ServeOptions};
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
        Client::new(Arc::clone(&core)).register("demo", container.clone()).unwrap();
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

/// A hedge delay no healthy request reaches: with it, every connect the
/// router makes is a pool miss or a stale retry, never a hedge leg.
const NO_HEDGE: Duration = Duration::from_secs(5);

/// Eight threads of routed encodes over three nodes and three model
/// keys: every response is the bits of `decode().encode()` on the same
/// ids, and the router opened at most one connection per thread and
/// node — not one per request.
#[test]
fn concurrent_routed_load_is_bit_identical_on_pooled_connections() {
    let config = RouterConfig { hedge_after: Some(NO_HEDGE), ..RouterConfig::default() };
    let (nodes, router) = start_cluster(3, config);
    let container = compressed(7);
    let names = ["demo", "demo-b", "demo-c"];
    for node in &nodes {
        for name in &names[1..] {
            Client::new(Arc::clone(&node.core)).register(name, container.clone()).unwrap();
        }
    }
    let reference = container.decode().unwrap();
    let (threads, per_thread) = (8usize, 200usize);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (router, reference) = (&router, &reference);
            scope.spawn(move || {
                for r in 0..per_thread {
                    let len = 1 + (t + r) % 12;
                    let ids: Vec<u32> =
                        (0..len).map(|k| ((t * 7 + r * 3 + k) % 40) as u32).collect();
                    let ok =
                        router.encode(names[(t + r) % names.len()], None, &ids, &[], 0).unwrap();
                    let ids: Vec<usize> = ids.iter().map(|&v| v as usize).collect();
                    let want = reference.encode(&ids, &[]).unwrap();
                    assert_eq!(ok.dims, vec![len as u32, 16]);
                    assert_bits_identical(&ok.hidden, want.hidden.as_slice());
                }
            });
        }
    });
    let m = router.metrics();
    assert_eq!(m.requests.load(Relaxed), (threads * per_thread) as u64);
    assert_eq!(m.errors.load(Relaxed), 0);
    let connects = m.connects.load(Relaxed);
    assert!(
        (1..=(threads * nodes.len()) as u64).contains(&connects),
        "{connects} connects for {} requests",
        threads * per_thread
    );
}

/// A node restarted on the same port between two requests: the pooled
/// connection to its predecessor is dead, which shows before any reply
/// byte — so the request is retried once on a fresh connection to the
/// same node instead of failing over.
#[test]
fn a_stale_pooled_connection_is_retried_on_a_fresh_one() {
    let config = RouterConfig { hedge_after: Some(NO_HEDGE), ..RouterConfig::default() };
    let (mut nodes, router) = start_cluster(2, config);
    let primary = primary_index(&nodes, &router);
    let first = router.encode("demo", None, &[1, 2, 3], &[], 0).unwrap();
    let m = router.metrics();
    assert_eq!(m.connects.load(Relaxed), 1);

    let addr = nodes[primary].node.local_addr().to_string();
    nodes[primary].node.shutdown();
    nodes[primary].node = ClusterNode::start(Arc::clone(&nodes[primary].core), &addr).unwrap();

    let second = router.encode("demo", None, &[1, 2, 3], &[], 0).unwrap();
    assert_bits_identical(&second.hidden, &first.hidden);
    assert_eq!(m.failovers.load(Relaxed), 0, "a stale connection is not a failed replica");
    assert_eq!(m.connects.load(Relaxed), 2, "one connect per incarnation of the node");
}

/// What [`fake_node`] tells the test about one connection.
#[derive(Debug, PartialEq)]
enum FakeEvent {
    /// The peer closed it after the scripted reply.
    ClosedByPeer,
    /// The peer sent another request on it.
    Reused,
}

/// A stand-in for a node that answers the first encode request on each
/// connection with `reply(request id)`, then reports whether the router
/// closed the connection or used it again.
fn fake_node(
    reply: impl Fn(u64) -> EncodeResponseFrame + Send + 'static,
) -> (SocketAddr, mpsc::Receiver<FakeEvent>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (events, seen) = mpsc::channel();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            let Ok(Some(Frame::EncodeRequest(request))) = read_frame(&mut stream, u32::MAX) else {
                continue;
            };
            write_frame(&mut stream, &Frame::EncodeResponse(reply(request.id))).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let event = match read_frame(&mut stream, u32::MAX) {
                Ok(None) => FakeEvent::ClosedByPeer,
                _ => FakeEvent::Reused,
            };
            if events.send(event).is_err() {
                return;
            }
        }
    });
    (addr, seen)
}

/// A reply that carries another request's id means the connection is
/// out of step: it is a transport error, the connection is closed rather
/// than pooled, and the next replica answers.
#[test]
fn a_reply_to_another_request_closes_the_connection_and_fails_over() {
    let (fake, events) = fake_node(|id| EncodeResponseFrame {
        id: id + 1,
        result: Ok(EncodeOkFrame {
            model: "demo".into(),
            bits: 3,
            dims: vec![1, 1],
            hidden: vec![f32::NAN],
            pooled: None,
            batch_size: 1,
            queue_us: 0,
            compute_us: 0,
        }),
    });
    // One real node beside the fake, under the first id that makes the
    // fake the primary for "demo".
    let (nodes, _) = start_cluster(1, RouterConfig::default());
    let router = (0..64)
        .map(|k| {
            let router = Router::new(RouterConfig {
                hedge_after: Some(NO_HEDGE),
                ..RouterConfig::default()
            });
            router.add_node("n1", nodes[0].node.local_addr().to_string());
            router.add_node(format!("fake-{k}"), fake.to_string());
            router
        })
        .find(|router| router.replicas_for("demo", None)[0].id != "n1")
        .expect("some id makes the fake node the primary");
    let direct = Client::new(Arc::clone(&nodes[0].core))
        .encode(EncodeRequest::new("demo", vec![5, 6]))
        .unwrap();

    let ok = router.encode("demo", None, &[5, 6], &[], 0).unwrap();
    assert_bits_identical(&ok.hidden, &direct.hidden);
    assert_eq!(router.metrics().failovers.load(Relaxed), 1);
    assert_eq!(
        events.recv_timeout(Duration::from_secs(5)),
        Ok(FakeEvent::ClosedByPeer),
        "a connection that answered out of step must not be pooled"
    );
}

/// The connection a hedge abandoned on a partitioned primary is never
/// used again: when the partition heals and the old request's reply
/// finally arrives, nobody routes on that connection — the next request
/// to that node opens a new one and gets the answer to its own ids.
#[test]
fn a_hedge_loser_connection_is_never_reused() {
    // Only a partitioned node is meant to be hedged past here, so the
    // delay need not be short — it must outlast any answered request on
    // a loaded machine: a hedged warm-up would connect to the other node
    // too, and on its own helper thread, after the count is read.
    let config =
        RouterConfig { hedge_after: Some(Duration::from_millis(250)), ..RouterConfig::default() };
    let (nodes, router) = start_cluster(2, config);
    let victim = primary_index(&nodes, &router);
    let other = 1 - victim;
    let m = router.metrics();
    // The first encode on a core pays its one-time setup; pay it here.
    for node in &nodes {
        Client::new(Arc::clone(&node.core)).encode(EncodeRequest::new("demo", vec![1])).unwrap();
    }
    // Warm the victim's pool, so the partition meets a pooled connection.
    router.encode("demo", None, &[1], &[], 0).unwrap();
    assert_eq!(m.connects.load(Relaxed), 1);

    // Partitioned, the primary reads the request and never answers: the
    // hedge wins on the other node and the primary's connection is left
    // to the loser's helper thread.
    nodes[victim].node.set_partitioned(true);
    let ok = router.encode("demo", None, &[1, 2], &[], 0).unwrap();
    assert_eq!(ok.dims, vec![2, 16]);
    assert_eq!((m.hedge_wins.load(Relaxed), m.connects.load(Relaxed)), (1, 2));
    // Healed, it answers that two-token request late.
    nodes[victim].node.set_partitioned(false);

    // Now the other node goes silent, so every request ends on the
    // victim — which has no idle connection: the one it had was
    // abandoned, not pooled. Each answer is the answer to its own ids.
    nodes[other].node.set_partitioned(true);
    for (i, len) in [5usize, 3, 7].into_iter().enumerate() {
        let ids: Vec<u32> = (1..=len as u32).collect();
        let ok = router.encode("demo", None, &ids, &[], 0).unwrap();
        assert_eq!(ok.dims, vec![len as u32, 16], "a late reply reached a later request");
        if i == 0 {
            assert_eq!(m.connects.load(Relaxed), 3, "the abandoned connection was pooled");
        }
    }
    nodes[other].node.set_partitioned(false);
}

/// A node killed while it holds a request: the router is parked on that
/// connection with no hedge in sight, sees it close, and fails over at
/// once — on EOF, not on a timeout.
#[test]
fn a_node_killed_mid_request_fails_over_on_eof() {
    let config = RouterConfig { hedge_after: Some(NO_HEDGE), ..RouterConfig::default() };
    let (mut nodes, router) = start_cluster(2, config);
    let direct = Client::new(Arc::clone(&nodes[0].core))
        .encode(EncodeRequest::new("demo", vec![9, 8, 7]))
        .unwrap();
    let victim = primary_index(&nodes, &router);
    router.encode("demo", None, &[1], &[], 0).unwrap();
    let held = Duration::from_secs(2);
    nodes[victim].node.set_artificial_delay(held);

    let m = router.metrics();
    let (ok, elapsed) = std::thread::scope(|scope| {
        let request = scope.spawn(|| {
            let start = Instant::now();
            (router.encode("demo", None, &[9, 8, 7], &[], 0), start.elapsed())
        });
        while m.requests.load(Relaxed) < 2 {
            std::thread::yield_now();
        }
        // The request is counted just before it is written; give the
        // write its few microseconds, then kill the node under it.
        std::thread::sleep(Duration::from_millis(50));
        nodes[victim].node.shutdown();
        request.join().unwrap()
    });
    assert_bits_identical(&ok.unwrap().hidden, &direct.hidden);
    assert!(elapsed < held, "failover waited out the node instead of its EOF: {elapsed:?}");
    assert_eq!((m.failovers.load(Relaxed), m.hedge_fires.load(Relaxed)), (1, 0));
}

/// The node's test knobs act per request, not per connection: a delay
/// set (and cleared) between two requests on the one pooled connection
/// applies to exactly the requests sent while it was set.
#[test]
fn artificial_delay_applies_per_request_on_a_pooled_connection() {
    let config = RouterConfig { hedge_after: Some(NO_HEDGE), ..RouterConfig::default() };
    let (nodes, router) = start_cluster(1, config);
    let delay = Duration::from_millis(120);
    let timed = |delayed: bool| {
        nodes[0].node.set_artificial_delay(if delayed { delay } else { Duration::ZERO });
        let start = Instant::now();
        router.encode("demo", None, &[1, 2], &[], 0).unwrap();
        start.elapsed()
    };
    assert!(timed(false) < delay);
    assert!(timed(true) >= delay);
    assert!(timed(false) < delay);
    assert_eq!(router.metrics().connects.load(Relaxed), 1);
}

/// A mixed-version cluster fails loud: a node refuses a version 1
/// heartbeat — no ack, and the connection closes — while a version 2
/// heartbeat on a fresh connection is acked.
#[test]
fn a_v1_heartbeat_gets_no_ack_and_the_connection_closes() {
    let core = ServeCore::start(ServeOptions::default());
    let node = ClusterNode::start(core, "127.0.0.1:0").unwrap();
    let heartbeat = |version: u8| {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &Frame::Heartbeat { seq: 5 }).unwrap();
        bytes[4] = version;
        let crc_at = bytes.len() - 4;
        let mut crc = Crc32::default();
        crc.update(&bytes[4..6]);
        crc.update(&bytes[10..crc_at]);
        bytes[crc_at..].copy_from_slice(&crc.finish().to_le_bytes());
        let mut stream = TcpStream::connect(node.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(&bytes).unwrap();
        read_frame(&mut stream, MAX_PAYLOAD).unwrap()
    };
    assert!(heartbeat(1).is_none(), "a v1 heartbeat must close the connection unanswered");
    let ack = heartbeat(PROTOCOL_VERSION);
    assert!(matches!(ack, Some(Frame::HeartbeatAck(HeartbeatAckFrame { seq: 5, .. }))), "{ack:?}");
}

fn http_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    HttpClient::new(addr.to_string()).request(method, path, body).expect("HTTP exchange")
}

#[test]
fn http_front_speaks_the_node_dialect() {
    let (_nodes, router) = start_cluster(3, RouterConfig::default());
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
