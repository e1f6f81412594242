//! A minimal blocking HTTP/1.1 client for the serve front end.
//!
//! Exists for the callers that talk to a [`Server`] over a real socket:
//! `gobo reload`, tests and benchmarks. (The cluster router speaks
//! pooled wire frames to its nodes, not HTTP.)
//! The important behavior is the *retry discipline*: connect-phase
//! failures (refused / reset before any bytes are written) are retried
//! with capped jittered backoff via [`gobo_proto::net::connect_retry`],
//! so a node restart does not drop requests on the floor. Failures
//! after the request has been written are **not** retried here — the
//! request may have executed, and replaying it is a routing-layer
//! decision, not a transport one.
//!
//! [`Server`]: crate::http::Server

use std::io::{BufRead, BufReader, Read, Write};
use std::time::Duration;

use gobo_proto::net::{connect_retry, RetryPolicy};

use crate::error::ServeError;

/// A blocking HTTP/1.1 client with transient-connect retry.
#[derive(Debug, Clone)]
pub struct HttpClient {
    addr: String,
    retry: RetryPolicy,
    connect_timeout: Duration,
    read_timeout: Duration,
}

impl HttpClient {
    /// A client for `addr` (`host:port`) with the default retry policy
    /// (4 attempts, 5 ms base backoff capped at 200 ms).
    pub fn new(addr: impl Into<String>) -> Self {
        HttpClient {
            addr: addr.into(),
            retry: RetryPolicy::default(),
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(30),
        }
    }

    /// Replaces the connect retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The target address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Sends one request and reads the full response. Returns the
    /// status code and body.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the connection cannot be established
    /// (after retries) or dies mid-exchange; [`ServeError::BadRequest`]
    /// when the response is not parseable HTTP.
    pub fn request(
        &self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String), ServeError> {
        // Only the connect is retried: before it succeeds, zero bytes
        // have reached the peer, so a retry cannot duplicate work.
        let mut stream = connect_retry(&self.addr, self.connect_timeout, &self.retry)
            .map_err(|e| ServeError::Io(format!("connect {}: {e}", self.addr)))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(self.read_timeout));
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            self.addr,
            body.len()
        );
        stream
            .write_all(request.as_bytes())
            .map_err(|e| ServeError::Io(format!("write {}: {e}", self.addr)))?;

        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader
            .read_line(&mut status_line)
            .map_err(|e| ServeError::Io(format!("read status: {e}")))?;
        let status: u16 =
            status_line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(
                || ServeError::BadRequest(format!("bad status line `{}`", status_line.trim())),
            )?;

        let mut content_length: Option<usize> = None;
        loop {
            let mut line = String::new();
            let n = reader
                .read_line(&mut line)
                .map_err(|e| ServeError::Io(format!("read headers: {e}")))?;
            if n == 0 || line.trim().is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().ok();
                }
            }
        }

        let response_body = match content_length {
            Some(len) => {
                let mut buf = vec![0u8; len];
                reader
                    .read_exact(&mut buf)
                    .map_err(|e| ServeError::Io(format!("read body: {e}")))?;
                String::from_utf8(buf)
                    .map_err(|_| ServeError::BadRequest("response body not utf-8".into()))?
            }
            None => {
                let mut buf = String::new();
                reader
                    .read_to_string(&mut buf)
                    .map_err(|e| ServeError::Io(format!("read body: {e}")))?;
                buf
            }
        };
        Ok((status, response_body))
    }

    /// `POST /v1/encode` with a raw JSON body.
    ///
    /// # Errors
    ///
    /// See [`HttpClient::request`].
    pub fn encode_raw(&self, json_body: &str) -> Result<(u16, String), ServeError> {
        self.request("POST", "/v1/encode", json_body)
    }

    /// `GET /metrics`.
    ///
    /// # Errors
    ///
    /// See [`HttpClient::request`].
    pub fn metrics(&self) -> Result<String, ServeError> {
        let (status, body) = self.request("GET", "/metrics", "")?;
        if status != 200 {
            return Err(ServeError::Io(format!("/metrics answered {status}")));
        }
        Ok(body)
    }
}
