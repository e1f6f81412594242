//! Uptime: a router under sequential load holds a constant number of
//! threads and descriptors, however many requests went through.
//!
//! Alone in this file, so alone in its process — `Threads:` and
//! `/proc/self/fd` count the whole process, and a neighbouring test's
//! nodes would show up in both.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Duration;

use gobo::format::CompressedModel;
use gobo::pipeline::{quantize_model, QuantizeOptions};
use gobo_cluster::{ClusterNode, Router, RouterConfig};
use gobo_model::config::ModelConfig;
use gobo_model::TransformerModel;
use gobo_serve::{Client, ServeCore, ServeOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(threads, open descriptors)` of this process, from `/proc/self`.
fn threads_and_fds() -> (usize, usize) {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let threads = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a Threads: line");
    (threads, std::fs::read_dir("/proc/self/fd").expect("/proc/self/fd").count())
}

#[test]
fn threads_and_descriptors_are_constant_under_sequential_load() {
    let config = ModelConfig::tiny("Soak", 1, 16, 2, 40, 12).unwrap();
    let model = TransformerModel::new(config, &mut StdRng::seed_from_u64(7)).unwrap();
    let archive = quantize_model(&model, &QuantizeOptions::gobo(3).unwrap()).unwrap().archive;
    let container = CompressedModel::new(&model, archive);
    // No hedge a healthy request could reach: a hedge leg is a thread
    // and a connection of its own, for as long as the slower node takes.
    let router = Router::new(RouterConfig {
        hedge_after: Some(Duration::from_secs(5)),
        ..RouterConfig::default()
    });
    let mut nodes = Vec::new();
    for i in 0..3 {
        let core = ServeCore::start(ServeOptions::default());
        for name in ["a", "b", "c", "d"] {
            Client::new(Arc::clone(&core)).register(name, container.clone()).unwrap();
        }
        let node = ClusterNode::start(Arc::clone(&core), "127.0.0.1:0").unwrap();
        router.add_node(format!("n{}", i + 1), node.local_addr().to_string());
        nodes.push((core, node));
    }
    let route = |count: usize| {
        for r in 0..count {
            let name = ["a", "b", "c", "d"][r % 4];
            let ok = router.encode(name, None, &[1, 2, 3], &[], 0).unwrap();
            assert_eq!(ok.dims, vec![3, 16]);
        }
    };

    route(50);
    let early = threads_and_fds();
    route(1_950);
    assert_eq!(threads_and_fds(), early, "(threads, fds) after 2 000 requests vs after 50");
    let m = router.metrics();
    assert_eq!(m.requests.load(Relaxed), 2_000);
    assert!(m.connects.load(Relaxed) <= nodes.len() as u64, "one connection per node at most");
}
