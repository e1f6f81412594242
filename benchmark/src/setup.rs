//! Standing a workload's stack up, in-process on loopback sockets, and
//! timing each stage of doing so.
//!
//! `setup_s` covers what an operator waits for before the first
//! request can be served: model synthesis, `quantize_model`, container
//! `to_bytes`, the file write, `ServeCore::reload` (read, CRC, parse,
//! decode, engine build), listener and cluster start, and one verified
//! probe request.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gobo::format::CompressedModel;
use gobo::pipeline::{quantize_model, QuantizeOptions};
use gobo_cluster::{ClusterNode, Router, RouterConfig, RouterServer};
use gobo_model::config::ModelConfig;
use gobo_model::TransformerModel;
use gobo_serve::{SchedulerConfig, ServeCore, ServeOptions, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::spec::{Kind, ModelSpec, Workload};

/// A quantized model and its serialized container.
pub struct Artifact {
    pub spec: ModelSpec,
    pub compressed: CompressedModel,
    pub bytes: Vec<u8>,
    /// Weights quantized (FC layers; embeddings stay FP32).
    pub weights: usize,
    /// FC compression ratio reported by the quantizer.
    pub compression_ratio: f64,
    /// Wall time of `quantize_model`, seconds.
    pub quantize_s: f64,
}

/// Synthesizes, quantizes and serializes one model.
pub fn build_artifact(spec: &ModelSpec) -> Result<Artifact, String> {
    let config = ModelConfig::tiny(
        spec.name,
        spec.layers,
        spec.hidden,
        spec.heads,
        spec.vocab,
        spec.max_position,
    )
    .map_err(|e| format!("model config: {e}"))?;
    let model = TransformerModel::new(config, &mut StdRng::seed_from_u64(spec.weight_seed))
        .map_err(|e| format!("model synthesis: {e}"))?;
    let options = QuantizeOptions::gobo(spec.bits).map_err(|e| format!("options: {e}"))?;
    let t = Instant::now();
    let outcome = quantize_model(&model, &options).map_err(|e| format!("quantize: {e}"))?;
    let quantize_s = t.elapsed().as_secs_f64();
    let weights = outcome.report.total_weights();
    let compression_ratio = outcome.report.compression_ratio();
    let compressed = CompressedModel::new(&model, outcome.archive);
    let bytes = compressed.to_bytes();
    Ok(Artifact { spec: *spec, compressed, bytes, weights, compression_ratio, quantize_s })
}

/// The running system under test.
pub struct Stack {
    /// Every serve core (one, or one per cluster node).
    pub cores: Vec<Arc<ServeCore>>,
    /// `host:port` of the HTTP front door, when the workload has one.
    pub http_addr: Option<String>,
    /// `host:port` of each cluster node's protocol listener.
    pub node_addrs: Vec<String>,
    pub router: Option<Arc<Router>>,
    /// `.gobom` path per model, in `Workload::models` order.
    pub model_paths: Vec<PathBuf>,
    // Held for their Drop: listeners first, then nodes.
    server: Option<Server>,
    front: Option<RouterServer>,
    nodes: Vec<ClusterNode>,
}

impl Stack {
    /// Stops listeners, nodes, router and every core's worker pool.
    pub fn shutdown(mut self) {
        drop(self.server.take());
        drop(self.front.take());
        for node in &mut self.nodes {
            node.shutdown();
        }
        if let Some(router) = &self.router {
            router.shutdown();
        }
        for core in &self.cores {
            core.shutdown();
        }
    }
}

/// Serve options of a workload: library defaults except where the
/// workload fixes the worker count or the batch limit.
pub fn serve_options(workload: &Workload) -> ServeOptions {
    let defaults = SchedulerConfig::default();
    ServeOptions {
        scheduler: SchedulerConfig {
            workers: workload.workers.unwrap_or(defaults.workers),
            max_batch: workload.max_batch.unwrap_or(defaults.max_batch),
            ..defaults
        },
        ..ServeOptions::default()
    }
}

/// One timed build of the stack.
pub struct SetupRun {
    pub stack: Stack,
    pub artifacts: Vec<Artifact>,
    /// Wall time from first instruction to stack ready, seconds (the
    /// caller adds the probe request).
    pub build_s: f64,
}

fn reload(core: &ServeCore, name: &str, path: &Path) -> Result<(), String> {
    let path = path.to_str().ok_or("model path is not utf-8")?;
    core.reload(name, path).map(drop).map_err(|e| format!("reload {name}: {e}"))
}

/// Builds the workload's stack from nothing: artifacts, files, cores,
/// listeners. `dir` receives the `.gobom` files.
pub fn build_stack(workload: &Workload, dir: &Path) -> Result<SetupRun, String> {
    let started = Instant::now();
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut artifacts = Vec::new();
    let mut model_paths = Vec::new();
    for spec in workload.models {
        let artifact = build_artifact(spec)?;
        let path = dir.join(format!("{}-{}.gobom", workload.name, spec.name));
        std::fs::write(&path, &artifact.bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        model_paths.push(path);
        artifacts.push(artifact);
    }

    let options = serve_options(workload);
    let mut stack = Stack {
        cores: Vec::new(),
        http_addr: None,
        node_addrs: Vec::new(),
        router: None,
        model_paths,
        server: None,
        front: None,
        nodes: Vec::new(),
    };
    let node_count = if workload.kind == Kind::ClusterRouted { 3 } else { 1 };
    for _ in 0..node_count {
        let core = ServeCore::start(options);
        for (spec, path) in workload.models.iter().zip(&stack.model_paths) {
            reload(&core, spec.name, path)?;
        }
        stack.cores.push(core);
    }
    match workload.kind {
        Kind::HttpSingle => {
            let server = Server::bind(Arc::clone(&stack.cores[0]), "127.0.0.1:0")
                .map_err(|e| format!("bind: {e}"))?;
            stack.http_addr = Some(server.local_addr().to_string());
            stack.server = Some(server);
        }
        Kind::ClusterRouted => {
            let router = Arc::new(Router::new(RouterConfig::default()));
            for (i, core) in stack.cores.iter().enumerate() {
                let node = ClusterNode::start(Arc::clone(core), "127.0.0.1:0")
                    .map_err(|e| format!("node bind: {e}"))?;
                let addr = node.local_addr().to_string();
                router.add_node(format!("n{}", i + 1), addr.clone());
                stack.node_addrs.push(addr);
                stack.nodes.push(node);
            }
            router.start();
            let front = RouterServer::bind(Arc::clone(&router), "127.0.0.1:0")
                .map_err(|e| format!("router bind: {e}"))?;
            stack.http_addr = Some(front.local_addr().to_string());
            stack.front = Some(front);
            stack.router = Some(router);
        }
        Kind::InprocBatch | Kind::ModelChurn => {}
    }
    Ok(SetupRun { stack, artifacts, build_s: started.elapsed().as_secs_f64() })
}

/// Idle publishes on a scratch core: `ServeCore::reload` of the
/// workload's first container with nothing else running. The first
/// installs the slot, the rest supersede each other as canaries, so
/// each pays the full read + CRC + parse + decode + engine build.
pub fn idle_publish_ms(workload: &Workload, path: &Path, count: usize) -> Result<Vec<f64>, String> {
    let core = ServeCore::start(serve_options(workload));
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let t = Instant::now();
        reload(&core, workload.models[0].name, path)?;
        out.push(t.elapsed().as_secs_f64() * 1e3);
        // Spread the samples over more of the host's moods than one
        // back-to-back burst would see.
        std::thread::sleep(Duration::from_millis(40));
    }
    core.shutdown();
    Ok(out)
}
