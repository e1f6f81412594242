//! The router's HTTP front door.
//!
//! Speaks the JSON dialect of a single `gobo-serve` node, with the
//! node's own code: the `POST /v1/encode` request is parsed and the
//! response rendered by `gobo_serve::http`, so the serving tier can grow
//! from one process to a cluster without a client change. The bodies
//! agree byte for byte except for `rev`, which the wire protocol
//! (version 2) does not carry back from the node and a routed response
//! therefore lacks. Adds
//! `GET /v1/cluster` (membership snapshot, including any canary trial in
//! flight), `POST /v1/canary` (start a canary trial on a member), and
//! serves the cluster metrics on `GET /metrics`.

use gobo_serve::http::{common_route, encode_body, Front};
use gobo_serve::json::{parse, Json};
use gobo_serve::{parse_encode_body, HttpHandler, HttpResponse, ParsedRequest, ShutdownSignal};

use crate::router::Router;

/// A bound, accepting HTTP front over a [`Router`]; teardown stops the
/// router's heartbeat thread after the listener.
pub type RouterServer = Front<Router>;

impl HttpHandler for Router {
    fn handle(&self, request: &ParsedRequest, signal: &ShutdownSignal) -> HttpResponse {
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/v1/encode") => encode(self, &request.body),
            ("GET", "/v1/cluster") => HttpResponse::json(200, membership_body(self)),
            ("POST", "/v1/canary") => canary(self, &request.body),
            _ => common_route(request, signal, || self.render_metrics()),
        }
    }

    fn stop(&self) {
        self.shutdown();
    }
}

fn encode(router: &Router, body: &[u8]) -> HttpResponse {
    let request = match parse_encode_body(body) {
        Ok(request) => request,
        Err(e) => return e.into(),
    };
    let ids: Vec<u32> = request.ids.iter().map(|&v| v as u32).collect();
    let type_ids: Vec<u32> = request.type_ids.iter().map(|&v| v as u32).collect();
    let deadline_ms = request.deadline.map_or(0, |d| d.as_millis() as u64);
    match router.encode(&request.model, request.bits, &ids, &type_ids, deadline_ms) {
        Ok(ok) => HttpResponse::json(200, encode_body(&ok, None)),
        Err(e) => HttpResponse::error(e.http_status(), e.code(), &e.to_string()),
    }
}

/// `POST /v1/canary` — `{"node": "<id>"}` starts a canary trial on
/// that member; the router then routes its configured traffic share to
/// the node and auto-promotes or auto-rolls-back on the latency
/// verdict.
fn canary(router: &Router, body: &[u8]) -> HttpResponse {
    let bad = |message: &str| HttpResponse::error(400, "bad_request", message);
    let Ok(text) = std::str::from_utf8(body) else { return bad("body not utf-8") };
    let value = match parse(text) {
        Ok(value) => value,
        Err(e) => return bad(&e),
    };
    let Some(node) = value.get("node").and_then(Json::as_str) else {
        return bad("missing string field `node`");
    };
    if !router.set_canary(node) {
        return HttpResponse::error(
            404,
            "node_not_found",
            &format!("`{node}` is not a cluster member"),
        );
    }
    HttpResponse::json(
        200,
        Json::obj(vec![
            ("status", Json::Str("canary".to_owned())),
            ("node", Json::Str(node.to_owned())),
        ])
        .to_string(),
    )
}

fn membership_body(router: &Router) -> String {
    let nodes: Vec<Json> = router
        .membership()
        .into_iter()
        .map(|info| {
            Json::obj(vec![
                ("id", Json::Str(info.id)),
                ("addr", Json::Str(info.addr)),
                ("healthy", Json::Bool(info.healthy)),
                ("draining", Json::Bool(info.draining)),
                ("queue_depth", Json::Num(f64::from(info.queue_depth))),
                ("slow_score", Json::Num(f64::from(info.slow_score))),
            ])
        })
        .collect();
    let canary = match router.canary_node() {
        Some(node) => Json::Str(node),
        None => Json::Null,
    };
    Json::obj(vec![
        ("nodes", Json::Arr(nodes)),
        ("canary", canary),
        ("hedge_delay_us", Json::Num(router.hedge_delay().as_micros() as f64)),
    ])
    .to_string()
}
