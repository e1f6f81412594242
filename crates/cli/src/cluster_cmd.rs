//! `gobo cluster-node` and `gobo cluster-router`: the CLI face of
//! `gobo-cluster`.
//!
//! A node is `gobo serve` behind the binary cluster protocol instead
//! of HTTP; a router fronts a set of nodes with consistent-hash
//! sharding, replication, and hedged requests, speaking the same HTTP
//! dialect as a single node — the three-terminal quick-start in the
//! README is exactly these two verbs.

use std::sync::Arc;
use std::time::Duration;

use crate::cmd::{Args, CliError};
use crate::serve_cmd::{arm_failpoints, boot_core, http_options, write_port_file};
use gobo_cluster::{ClusterNode, Router, RouterConfig, RouterServer};

/// `gobo cluster-node`: load `.gobom` files, bind the cluster
/// protocol, serve until drained.
pub(crate) fn cluster_node(args: &Args) -> Result<String, CliError> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7080");
    let (core, loaded) = boot_core(args, "gobo-cluster-node")?;

    let mut node = ClusterNode::start(Arc::clone(&core), addr)
        .map_err(|e| CliError::Failed(format!("cannot bind `{addr}`: {e}")))?;
    let local = node.local_addr();
    write_port_file(args, local)?;
    println!("gobo-cluster-node listening on {local} (models: {})", loaded.join(", "));
    node.wait_drain();
    node.shutdown();
    core.shutdown();
    Ok(format!("gobo-cluster-node on {local} shut down after draining"))
}

/// Parses one `--node` value: `id=host:port` or bare `host:port`
/// (assigned `n1`, `n2`, ... by position).
fn parse_node(value: &str, index: usize) -> (String, String) {
    // `id=host:port` — but a bare IPv6 address also contains no `=`,
    // so only split on the first `=`.
    match value.split_once('=') {
        Some((id, addr)) if !id.is_empty() => (id.to_owned(), addr.to_owned()),
        _ => (format!("n{}", index + 1), value.to_owned()),
    }
}

/// `gobo cluster-router`: front a set of nodes with consistent-hash
/// routing, replication, heartbeat membership, and hedged requests.
pub(crate) fn cluster_router(args: &Args) -> Result<String, CliError> {
    let node_specs = args.get_all("node");
    if node_specs.is_empty() {
        return Err(CliError::Usage(
            "cluster-router needs at least one --node [ID=]HOST:PORT".into(),
        ));
    }
    let addr = args.get("addr").unwrap_or("127.0.0.1:7090");
    arm_failpoints(args, "gobo-cluster-router")?;
    let defaults = RouterConfig::default();
    let hedge_us: u64 = args.parse_num("hedge-us", 0)?;
    let config = RouterConfig {
        replication: args.parse_num("replication", defaults.replication)?.max(1),
        virtual_nodes: args.parse_num("virtual-nodes", defaults.virtual_nodes)?.max(1),
        heartbeat_interval: Duration::from_millis(args.parse_num("heartbeat-ms", 500u64)?.max(1)),
        dead_after: args.parse_num("dead-after", defaults.dead_after)?.max(1),
        // 0 keeps the adaptive p95-derived delay.
        hedge_after: if hedge_us == 0 { None } else { Some(Duration::from_micros(hedge_us)) },
        ..defaults
    };
    let replication = config.replication;

    let router = Arc::new(Router::new(config));
    let mut members = Vec::new();
    for (i, spec) in node_specs.iter().enumerate() {
        let (id, node_addr) = parse_node(spec, i);
        members.push(format!("{id}={node_addr}"));
        router.add_node(id, node_addr);
    }
    router.start();

    let front = RouterServer::bind_with(Arc::clone(&router), addr, http_options(args)?)
        .map_err(|e| CliError::Failed(format!("cannot bind `{addr}`: {e}")))?;
    let local = front.local_addr();
    write_port_file(args, local)?;
    println!(
        "gobo-cluster-router listening on http://{local} (rf={replication}, nodes: {})",
        members.join(", ")
    );
    front.serve_until_shutdown();
    Ok(format!("gobo-cluster-router on {local} shut down"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmd::run_str;
    use crate::cmd::testing::{demo_gobom, post, spawn_verb};

    #[test]
    fn node_spec_parsing() {
        assert_eq!(parse_node("a=1.2.3.4:7080", 0), ("a".into(), "1.2.3.4:7080".into()));
        assert_eq!(parse_node("1.2.3.4:7080", 1), ("n2".into(), "1.2.3.4:7080".into()));
        assert_eq!(parse_node("=1.2.3.4:7080", 2), ("n3".into(), "=1.2.3.4:7080".into()));
    }

    #[test]
    fn cluster_node_requires_model_and_router_requires_node() {
        let err = run_str(&["cluster-node"]).unwrap_err();
        assert!(err.to_string().contains("--model"), "{err}");
        let err = run_str(&["cluster-router"]).unwrap_err();
        assert!(err.to_string().contains("--node"), "{err}");
    }

    /// Full three-terminal flow in one process: two `cluster-node`
    /// verbs, one `cluster-router` verb, one encode over the router's
    /// HTTP door, then shutdown — the CI smoke job's exact shape.
    #[test]
    fn router_and_nodes_round_trip_over_http() {
        use std::net::TcpStream;

        let suite = "gobo-cluster-cli-tests";
        let packed = demo_gobom(suite);
        let node = ["cluster-node", "--model", &packed, "--name", "smoke"];
        let (node_a, port_a) = spawn_verb(suite, "node-a", &node);
        let (node_b, port_b) = spawn_verb(suite, "node-b", &node);
        let (members_a, members_b) =
            (format!("a=127.0.0.1:{port_a}"), format!("b=127.0.0.1:{port_b}"));
        let router =
            ["cluster-router", "--node", &members_a, "--node", &members_b, "--heartbeat-ms", "25"];
        let (router, port) = spawn_verb(suite, "router", &router);

        let (status, body) = post(port, "/v1/encode", "{\"model\":\"smoke\",\"ids\":[1,2,3]}");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"hidden\""), "{body}");

        let (_, body) = post(port, "/v1/shutdown", "");
        assert!(body.contains("draining"), "{body}");
        let msg = router.join().unwrap().unwrap();
        assert!(msg.contains("shut down"), "{msg}");

        // Drain the nodes over the protocol so their verbs return too.
        for (node, port) in [(node_a, port_a), (node_b, port_b)] {
            let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect node");
            let mut writer = stream.try_clone().unwrap();
            gobo_proto::write_frame(&mut writer, &gobo_proto::Frame::Drain).unwrap();
            let mut reader = std::io::BufReader::new(stream);
            let ack = gobo_proto::read_frame(&mut reader, gobo_proto::MAX_PAYLOAD).unwrap();
            assert!(matches!(ack, Some(gobo_proto::Frame::DrainAck)));
            let msg = node.join().unwrap().unwrap();
            assert!(msg.contains("shut down after draining"), "{msg}");
        }
    }
}
