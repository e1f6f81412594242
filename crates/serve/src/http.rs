//! Minimal HTTP/1.1 front end over `std::net::TcpListener`.
//!
//! No external HTTP stack: requests are parsed by hand (request line,
//! headers, `Content-Length` body) with HTTP/1.1 keep-alive — a
//! connection serves requests in sequence until the client closes,
//! sends `Connection: close`, or an error forces the server side shut.
//!
//! The transport is split from the routes so the cluster router can
//! reuse it: [`Front`] runs the keep-alive request loop on the crate's
//! one accept loop ([`crate::listener::Listener`] — accept thread,
//! per-connection threads, teardown) and owns the shutdown signal;
//! anything implementing [`HttpHandler`] — a route table plus what to
//! stop on the way out — plugs in behind it. [`Server`] is the front
//! over a [`ServeCore`], with routes:
//!
//! * `POST /v1/encode` — run one sequence through a registered model;
//! * `GET  /v1/models` — list model revisions with lifecycle state
//!   (active/canary/draining/retired/evicted) and resident byte sizes;
//! * `POST /v1/reload` — publish a new model revision from a `.gobom`
//!   file through the canary lifecycle (CRC-validated before the
//!   registry is touched);
//! * `GET  /metrics` — Prometheus text exposition;
//! * `POST /v1/shutdown` — begin graceful shutdown (drain, then exit).
//!
//! Teardown shuts the tracked sockets' read halves down first, so
//! keep-alive connections unblock immediately instead of riding out
//! their read timeout while a response being written still completes.

use std::fmt::{self, Write as _};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use gobo_obs::json::{write_f32_array, write_number, write_string};
use gobo_proto::frame::EncodeOkFrame;
use gobo_sanitize::{SanCondvar, SanMutex};
use std::time::Duration;

use crate::core::ServeCore;
use crate::error::ServeError;
use crate::json::{parse, Json};
use crate::listener::Listener;
use crate::scheduler::EncodeRequest;

/// Largest accepted request line or header line.
const MAX_LINE: usize = 8 << 10;

/// Front-end tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpOptions {
    /// Largest accepted request body in bytes. Requests advertising a
    /// larger `Content-Length` are rejected with `413 Payload Too
    /// Large` *before* the body is read, and counted in the
    /// `rejected_body_too_large` metric.
    pub max_body: usize,
}

impl Default for HttpOptions {
    fn default() -> Self {
        HttpOptions { max_body: 4 << 20 }
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request: answered with 400.
    Bad(String),
    /// Body over [`HttpOptions::max_body`]: answered with 413.
    TooLarge {
        /// The `Content-Length` the request declared.
        declared: usize,
        /// The configured limit it exceeded.
        limit: usize,
    },
}

/// A condition variable a thread can park on until shutdown is asked
/// for. Owned by every [`Front`]; the cluster node drains on one too.
pub struct ShutdownSignal {
    requested: SanMutex<bool>,
    cvar: SanCondvar,
}

impl Default for ShutdownSignal {
    fn default() -> Self {
        Self::new()
    }
}

impl ShutdownSignal {
    /// A fresh, un-signalled instance.
    pub fn new() -> Self {
        ShutdownSignal {
            requested: SanMutex::new("serve.http.shutdown", 10, false),
            cvar: SanCondvar::new("serve.http.shutdown_cvar"),
        }
    }

    /// Marks shutdown as requested and wakes every waiter.
    pub fn request(&self) {
        *self.requested.lock() = true;
        self.cvar.notify_all();
    }

    /// Blocks until [`ShutdownSignal::request`] has been called.
    pub fn wait(&self) {
        let guard = self.cvar.wait_while(self.requested.lock(), |requested| !*requested);
        drop(guard);
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct ParsedRequest {
    /// Request method, e.g. `GET`.
    pub method: String,
    /// Request path, e.g. `/v1/encode`.
    pub path: String,
    /// Raw request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default unless `Connection: close`; inverted for 1.0).
    pub keep_alive: bool,
}

/// A response produced by an [`HttpHandler`].
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// Force-close the connection after this response (the listener
    /// also closes when the *request* asked for it).
    pub close: bool,
}

impl HttpResponse {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        HttpResponse { status, content_type: "application/json", body: body.into(), close: false }
    }

    /// The uniform `{status, error, message}` JSON error response.
    pub fn error(status: u16, code: &str, message: &str) -> Self {
        let body = Json::obj(vec![
            ("status", Json::Num(status as f64)),
            ("error", Json::Str(code.to_owned())),
            ("message", Json::Str(message.to_owned())),
        ]);
        Self::json(status, body.to_string())
    }
}

impl From<ServeError> for HttpResponse {
    fn from(e: ServeError) -> Self {
        Self::error(e.http_status(), e.code(), &e.to_string())
    }
}

/// The application behind a [`Front`]: a route table mapping one parsed
/// request to one response, called from per-connection threads, plus
/// what teardown stops once the listener is down.
pub trait HttpHandler: Send + Sync + 'static {
    /// Handle one request. `signal` is the front's shutdown signal, for
    /// [`common_route`] to raise on `POST /v1/shutdown`.
    fn handle(&self, request: &ParsedRequest, signal: &ShutdownSignal) -> HttpResponse;

    /// Called once per successfully parsed request, before `handle`.
    fn on_request(&self) {}

    /// Called when a request is rejected for an oversized body.
    fn on_reject_too_large(&self) {}

    /// Stops what the front was serving, after the listener has
    /// stopped. Must be idempotent.
    fn stop(&self);
}

/// A bound, accepting HTTP/1.1 front over an [`HttpHandler`]: the
/// shared [`Listener`] accept loop with the keep-alive request loop
/// plugged in per connection. [`Server`] and the cluster's
/// `RouterServer` are this type over their handler. Dropping it tears
/// down gracefully.
pub struct Front<H: HttpHandler> {
    handler: Arc<H>,
    listener: Listener,
    signal: Arc<ShutdownSignal>,
}

/// A bound, accepting HTTP server over a [`ServeCore`].
pub type Server = Front<ServeCore>;

impl<H: HttpHandler> Front<H> {
    /// Binds `addr` (use port 0 for an ephemeral port) with default
    /// [`HttpOptions`] and starts accepting.
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn bind(handler: Arc<H>, addr: &str) -> std::io::Result<Self> {
        Self::bind_with(handler, addr, HttpOptions::default())
    }

    /// Binds `addr` with explicit [`HttpOptions`] and starts accepting.
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn bind_with(handler: Arc<H>, addr: &str, options: HttpOptions) -> std::io::Result<Self> {
        let signal = Arc::new(ShutdownSignal::new());
        let listener = {
            let (handler, signal) = (Arc::clone(&handler), Arc::clone(&signal));
            Listener::spawn(addr, "gobo-http-accept", move |stream| {
                handle_connection(handler.as_ref(), &signal, options, stream);
            })?
        };
        Ok(Front { handler, listener, signal })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Asks the front to shut down, as `POST /v1/shutdown` does.
    pub fn request_shutdown(&self) {
        self.signal.request();
    }

    /// Blocks until shutdown is requested (via
    /// [`Front::request_shutdown`] or `POST /v1/shutdown`), then tears
    /// down gracefully: stop accepting, unblock and join in-flight
    /// connections, then [`HttpHandler::stop`] — for a [`Server`], drain
    /// the scheduler queue and stop the workers.
    pub fn serve_until_shutdown(mut self) {
        self.signal.wait();
        self.teardown();
    }

    /// [`Shutdown::Read`] first, so keep-alive reads unblock while an
    /// in-flight response still finishes. Idempotent.
    fn teardown(&mut self) {
        self.signal.request();
        self.listener.stop(Shutdown::Read);
        self.handler.stop();
    }
}

impl<H: HttpHandler> Drop for Front<H> {
    fn drop(&mut self) {
        self.teardown();
    }
}

fn handle_connection(
    handler: &impl HttpHandler,
    signal: &ShutdownSignal,
    options: HttpOptions,
    stream: TcpStream,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let mut stream = stream;
    // Keep-alive loop: serve requests in arrival order until the peer
    // closes, asks to close, or an error makes the stream unusable.
    loop {
        gobo_sanitize::blocking_io("serve.http.read_request");
        match parse_request(&mut reader, options.max_body) {
            Ok(Some(request)) => {
                handler.on_request();
                let _span =
                    gobo_obs::span!("http.request", method = request.method, path = request.path);
                let mut response = handler.handle(&request, signal);
                response.close = response.close || !request.keep_alive;
                if write_response(&mut stream, &response).is_err() || response.close {
                    break;
                }
            }
            Ok(None) => break, // clean close between requests
            Err(rejected) => {
                let mut response = match rejected {
                    HttpError::TooLarge { declared, limit } => {
                        handler.on_reject_too_large();
                        HttpResponse::error(
                            413,
                            "body_too_large",
                            &format!(
                                "request body of {declared} bytes exceeds the {limit}-byte limit"
                            ),
                        )
                    }
                    HttpError::Bad(msg) => HttpResponse::error(400, "bad_request", &msg),
                };
                response.close = true;
                let _ = write_response(&mut stream, &response);
                break;
            }
        }
    }
    // The listener holds a tracked clone of this socket for
    // teardown, so dropping our handles does not close the TCP
    // connection — shut it down explicitly or the peer never sees EOF.
    let _ = stream.shutdown(Shutdown::Both);
}

/// Parses one HTTP/1.x request from `reader`.
///
/// Returns `Ok(None)` on clean EOF before the first byte of a request
/// (the peer closed between requests).
///
/// # Errors
///
/// [`HttpError::Bad`] for malformed requests and for a body this
/// parser cannot frame — any `Transfer-Encoding`, or two
/// `Content-Length`s that disagree — and [`HttpError::TooLarge`] when
/// the declared `Content-Length` exceeds `max_body`; all three before a
/// body byte is read.
pub fn parse_request<R: BufRead>(
    reader: &mut R,
    max_body: usize,
) -> Result<Option<ParsedRequest>, HttpError> {
    let bad = |msg: String| HttpError::Bad(msg);
    let request_line = match read_line(reader)? {
        Some(line) => line,
        None => return Ok(None),
    };
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line".into()))?.to_owned();
    let path = parts.next().ok_or_else(|| bad("request line missing path".into()))?.to_owned();
    let version = parts.next().ok_or_else(|| bad("request line missing version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(bad(format!("unsupported protocol `{version}`")));
    }
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
    let mut keep_alive = version != "HTTP/1.0";

    let mut content_length = None;
    loop {
        let line =
            read_line(reader)?.ok_or_else(|| bad("connection closed inside headers".into()))?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad(format!("malformed header `{line}`")));
        };
        if name.eq_ignore_ascii_case("content-length") {
            let declared: usize = value
                .trim()
                .parse()
                .map_err(|_| bad(format!("bad content-length `{}`", value.trim())))?;
            // Reject before allocating or reading a single body byte.
            if declared > max_body {
                return Err(HttpError::TooLarge { declared, limit: max_body });
            }
            if content_length.replace(declared).is_some_and(|earlier| earlier != declared) {
                return Err(bad("conflicting content-length headers".into()));
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Served as an empty body, its chunk lines would be parsed
            // as the next request on the connection.
            return Err(bad(format!("transfer-encoding `{}` is not supported", value.trim())));
        } else if name.eq_ignore_ascii_case("connection") {
            let value = value.trim();
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }

    let mut body = vec![0u8; content_length.unwrap_or(0)];
    reader.read_exact(&mut body).map_err(|e| bad(format!("truncated body: {e}")))?;
    Ok(Some(ParsedRequest { method, path, body, keep_alive }))
}

/// Reads one CRLF- (or LF-) terminated line; `None` on clean EOF.
fn read_line<R: BufRead>(reader: &mut R) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    let mut limited = Read::take(reader, MAX_LINE as u64);
    let n = limited
        .read_until(b'\n', &mut line)
        .map_err(|e| HttpError::Bad(format!("read failure: {e}")))?;
    if n == 0 {
        return Ok(None);
    }
    if line.last() != Some(&b'\n') {
        return Err(HttpError::Bad("header line too long".into()));
    }
    while matches!(line.last(), Some(b'\n' | b'\r')) {
        line.pop();
    }
    String::from_utf8(line).map(Some).map_err(|_| HttpError::Bad("header not utf-8".into()))
}

// ---------------------------------------------------------------------------
// Serve-core server: the route handler behind the listener
// ---------------------------------------------------------------------------

/// The routes every front door answers the same way, for a handler to
/// fall through to after its own: `GET /metrics` (the handler's
/// Prometheus text), `POST /v1/shutdown` (raises `signal`, closes the
/// connection), and 404 for anything else.
pub fn common_route(
    request: &ParsedRequest,
    signal: &ShutdownSignal,
    metrics: impl FnOnce() -> String,
) -> HttpResponse {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/metrics") => HttpResponse {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: metrics().into_bytes(),
            close: false,
        },
        ("POST", "/v1/shutdown") => {
            signal.request();
            HttpResponse {
                status: 200,
                content_type: "application/json",
                body: b"{\"status\":\"draining\"}".to_vec(),
                close: true,
            }
        }
        _ => HttpResponse::error(404, "not_found", "no such route"),
    }
}

impl HttpHandler for ServeCore {
    fn handle(&self, request: &ParsedRequest, signal: &ShutdownSignal) -> HttpResponse {
        let served = |body: Result<Vec<u8>, ServeError>| match body {
            Ok(body) => HttpResponse::json(200, body),
            Err(e) => e.into(),
        };
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/v1/encode") => served(encode(self, &request.body)),
            ("GET", "/v1/models") => HttpResponse::json(200, models_body(self)),
            ("POST", "/v1/reload") => served(reload(self, &request.body).map(String::into_bytes)),
            _ => common_route(request, signal, || self.metrics().render()),
        }
    }

    fn on_request(&self) {
        self.metrics().http_requests.fetch_add(1, Ordering::Relaxed);
    }

    fn on_reject_too_large(&self) {
        self.metrics().rejected_body_too_large.fetch_add(1, Ordering::Relaxed);
    }

    fn stop(&self) {
        self.shutdown();
    }
}

/// Parses the `POST /v1/encode` request body into an [`EncodeRequest`].
/// Shared with the cluster router, which speaks the same JSON dialect
/// at its own front door.
///
/// `bits: 0` and `deadline_ms: 0` are refused. The wire frame a routed
/// request travels in spells "absent" as 0, so the router could only
/// forward either as a request without that field, while a node would
/// look up a 0-bit model or time out at once. Refusing both here keeps
/// the two front doors saying the same thing.
///
/// # Errors
///
/// [`ServeError::BadRequest`] describing the first malformed field.
pub fn parse_encode_body(body: &[u8]) -> Result<EncodeRequest, ServeError> {
    let text =
        std::str::from_utf8(body).map_err(|_| ServeError::BadRequest("body not utf-8".into()))?;
    let value = parse(text).map_err(ServeError::BadRequest)?;
    let model = value
        .get("model")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::BadRequest("missing string field `model`".into()))?
        .to_owned();
    let ids = value
        .get("ids")
        .and_then(Json::as_usize_array)
        .ok_or_else(|| ServeError::BadRequest("missing integer array `ids`".into()))?;
    let type_ids = match value.get("type_ids") {
        None | Some(Json::Null) => Vec::new(),
        Some(v) => v
            .as_usize_array()
            .ok_or_else(|| ServeError::BadRequest("`type_ids` must be an integer array".into()))?,
    };
    let bits = match value.get("bits") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_usize()
                .filter(|b| (1..=32).contains(b))
                .ok_or_else(|| ServeError::BadRequest("`bits` must be in 1..=32".into()))?
                as u8,
        ),
    };
    let deadline = match value.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(v) => Some(Duration::from_millis(
            v.as_usize()
                .filter(|&ms| ms > 0)
                .ok_or_else(|| ServeError::BadRequest("`deadline_ms` must be positive".into()))?
                as u64,
        )),
    };
    Ok(EncodeRequest { model, bits, ids, type_ids, deadline })
}

fn encode(core: &ServeCore, body: &[u8]) -> Result<Vec<u8>, ServeError> {
    let request = parse_encode_body(body)?;
    let response = core.scheduler().encode_blocking(request)?;
    let rev = response.rev;
    Ok(encode_body(&response.into(), Some(rev)))
}

/// Renders the `POST /v1/encode` success body, the one both front doors
/// answer with. `rev` is the revision that served the request; the
/// router passes `None`, and the field is left out, because the wire
/// protocol (version 2) does not carry it back from the node.
///
/// The body is written straight into one buffer, with no [`Json`] tree:
/// the scalar fields through the workspace's string and number writers,
/// then `hidden` and `pooled` through
/// [`gobo_obs::json::write_f32_array`], which is also how
/// [`Json::f32_array`] renders — so the body ends with
/// `,"hidden":{"dims":[…],"data":[…]},"pooled":…}` exactly as the same
/// fields built as a [`Json::obj`] would print.
pub fn encode_body(ok: &EncodeOkFrame, rev: Option<u64>) -> Vec<u8> {
    let floats = ok.hidden.len().saturating_add(ok.pooled.as_ref().map_or(0, Vec::len));
    let mut head = String::with_capacity(floats.saturating_mul(12).saturating_add(256));
    // Writing into a `String` cannot fail.
    let _ = write_encode_head(&mut head, ok, rev);
    let mut body = head.into_bytes();
    write_f32_array(&mut body, &ok.hidden);
    body.extend_from_slice(b"},\"pooled\":");
    match &ok.pooled {
        Some(pooled) => write_f32_array(&mut body, pooled),
        None => body.extend_from_slice(b"null"),
    }
    body.push(b'}');
    body
}

/// Writes an encode body up to the opening of `hidden.data`.
fn write_encode_head(out: &mut String, ok: &EncodeOkFrame, rev: Option<u64>) -> fmt::Result {
    out.push_str("{\"model\":");
    write_string(out, &ok.model)?;
    let counts = [
        ("bits", Some(u64::from(ok.bits))),
        ("rev", rev),
        ("batch_size", Some(u64::from(ok.batch_size))),
        ("queue_us", Some(ok.queue_us)),
        ("compute_us", Some(ok.compute_us)),
    ];
    for (key, value) in counts {
        if let Some(value) = value {
            write!(out, ",\"{key}\":")?;
            write_number(out, value as f64)?;
        }
    }
    out.push_str(",\"hidden\":{\"dims\":[");
    for (i, &dim) in ok.dims.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_number(out, f64::from(dim))?;
    }
    out.push_str("],\"data\":");
    Ok(())
}

/// Parses the `POST /v1/reload` body (`{name, path}`) and publishes the
/// file through [`ServeCore::reload`]. The registry validates the
/// container CRC before any state changes, so a corrupt artifact (or an
/// armed `registry.*` failpoint) rejects the reload mid-flight without
/// touching the serving path.
fn reload(core: &ServeCore, body: &[u8]) -> Result<String, ServeError> {
    let text =
        std::str::from_utf8(body).map_err(|_| ServeError::BadRequest("body not utf-8".into()))?;
    let value = parse(text).map_err(ServeError::BadRequest)?;
    let name = value
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::BadRequest("missing string field `name`".into()))?
        .to_owned();
    let path = value
        .get("path")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::BadRequest("missing string field `path`".into()))?
        .to_owned();
    let (entry, state) = core.reload(&name, &path)?;
    Ok(Json::obj(vec![
        ("status", Json::Str(state.as_str().to_owned())),
        ("name", Json::Str(entry.key.name.clone())),
        ("bits", Json::Num(entry.key.bits as f64)),
        ("rev", Json::Num(entry.rev as f64)),
    ])
    .to_string())
}

fn models_body(core: &ServeCore) -> String {
    let models: Vec<Json> = core
        .registry()
        .status()
        .iter()
        .map(|status| {
            Json::obj(vec![
                ("name", Json::Str(status.key.name.clone())),
                ("bits", Json::Num(status.key.bits as f64)),
                ("rev", Json::Num(status.rev as f64)),
                ("state", Json::Str(status.state.as_str().to_owned())),
                ("resident", Json::Bool(status.resident)),
                ("resident_bytes", Json::Num(status.resident_bytes as f64)),
                ("quantized_layers", Json::Num(status.quantized_layers as f64)),
                ("compressed_bytes", Json::Num(status.compressed_bytes as f64)),
            ])
        })
        .collect();
    Json::obj(vec![("models", Json::Arr(models))]).to_string()
}

fn write_response(stream: &mut TcpStream, response: &HttpResponse) -> std::io::Result<()> {
    gobo_sanitize::blocking_io("serve.http.write_response");
    let reason = match response.status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Internal Server Error",
    };
    let connection = if response.close { "close" } else { "keep-alive" };
    // Header and body leave in one write: one syscall, one segment train.
    let mut message = Vec::with_capacity(response.body.len().saturating_add(160));
    write!(
        message,
        "HTTP/1.1 {} {reason}\r\nContent-Type: {}\r\n\
         Content-Length: {}\r\nConnection: {connection}\r\n\r\n",
        response.status,
        response.content_type,
        response.body.len()
    )?;
    message.extend_from_slice(&response.body);
    stream.write_all(&message)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_frame(pooled: bool) -> EncodeOkFrame {
        EncodeOkFrame {
            model: "de\"mo".to_owned(),
            bits: 3,
            dims: vec![2, 3],
            hidden: vec![
                0.1,
                -0.0,
                1e-7,
                2015.0 + 21.0 / 32.0,
                f32::from_bits(0x15ae_43fd),
                f32::MAX,
            ],
            pooled: pooled.then(|| vec![-1.5, -f32::from_bits(0x15ae_43fd), f32::MIN_POSITIVE]),
            batch_size: 2,
            queue_us: 17,
            compute_us: 901,
        }
    }

    /// The tensor fields as a [`Json`] object: how a client that checks
    /// replies (stackbench's `correct` gate among them) builds the tail
    /// every encode body must end with.
    fn tensor_fields(ok: &EncodeOkFrame) -> Vec<(&'static str, Json)> {
        let dims: Vec<usize> = ok.dims.iter().map(|&d| d as usize).collect();
        vec![
            (
                "hidden",
                Json::obj(vec![
                    ("dims", Json::usize_array(&dims)),
                    ("data", Json::f32_array(&ok.hidden)),
                ]),
            ),
            ("pooled", ok.pooled.as_deref().map_or(Json::Null, Json::f32_array)),
        ]
    }

    #[test]
    fn encode_body_is_the_fields_as_one_json_object_ending_in_the_tensors() {
        for pooled in [true, false] {
            let ok = ok_frame(pooled);
            let tail = Json::obj(tensor_fields(&ok)).to_string();
            let tail = format!(",{}", &tail[1..]);
            for rev in [Some(7), None] {
                let body = String::from_utf8(encode_body(&ok, rev)).unwrap();
                assert!(body.ends_with(&tail), "{body}\ndoes not end with\n{tail}");

                let mut fields = vec![("model", Json::from("de\"mo")), ("bits", Json::Num(3.0))];
                fields.extend(rev.map(|rev| ("rev", Json::Num(rev as f64))));
                fields.extend([
                    ("batch_size", Json::Num(2.0)),
                    ("queue_us", Json::Num(17.0)),
                    ("compute_us", Json::Num(901.0)),
                ]);
                fields.extend(tensor_fields(&ok));
                assert_eq!(body, Json::obj(fields).to_string());

                // Parsed as f64 and narrowed, every float is bit-exact.
                let value = parse(&body).unwrap();
                let floats = |v: Option<&Json>| -> Vec<u32> {
                    v.and_then(Json::as_array)
                        .unwrap()
                        .iter()
                        .map(|x| (x.as_f64().unwrap() as f32).to_bits())
                        .collect()
                };
                let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
                assert_eq!(
                    floats(value.get("hidden").and_then(|h| h.get("data"))),
                    bits(&ok.hidden)
                );
                match &ok.pooled {
                    Some(pooled) => assert_eq!(floats(value.get("pooled")), bits(pooled)),
                    None => assert_eq!(value.get("pooled"), Some(&Json::Null)),
                }
            }
        }
    }

    #[test]
    fn the_routed_body_is_the_node_body_without_rev() {
        for pooled in [true, false] {
            let ok = ok_frame(pooled);
            let node = String::from_utf8(encode_body(&ok, Some(42))).unwrap();
            let routed = String::from_utf8(encode_body(&ok, None)).unwrap();
            assert!(node.contains(",\"bits\":3,\"rev\":42,\"batch_size\":2,"), "{node}");
            assert_eq!(node.replacen(",\"rev\":42", "", 1), routed);
        }
    }
}
