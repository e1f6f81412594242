//! HTTP/1.1 parser robustness: partial reads (split-at-every-byte, in
//! the style of the container corruption sweep), pipelined requests on
//! one connection, and oversized / garbage request lines. The parser
//! feeds an internet-facing port, so every malformed input must come
//! back as a clean `Err`, never a panic or a silently wrong parse.

mod common;

use std::io::{BufReader, Cursor, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use common::compressed;
use gobo_serve::http::HttpError;
use gobo_serve::{parse_request, Client, HttpClient, ServeCore, ServeOptions, Server};

const MAX_BODY: usize = 4 << 20;

fn parse_str(input: &str) -> Result<Option<gobo_serve::ParsedRequest>, HttpError> {
    let mut reader = Cursor::new(input.as_bytes().to_vec());
    parse_request(&mut reader, MAX_BODY)
}

#[test]
fn parses_a_complete_request() {
    let request = parse_str("POST /v1/encode HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody")
        .unwrap()
        .unwrap();
    assert_eq!(request.method, "POST");
    assert_eq!(request.path, "/v1/encode");
    assert_eq!(request.body, b"body");
    assert!(request.keep_alive, "HTTP/1.1 defaults to keep-alive");
}

#[test]
fn connection_header_controls_keep_alive() {
    let close = parse_str("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap().unwrap();
    assert!(!close.keep_alive);
    let ten = parse_str("GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
    assert!(!ten.keep_alive, "HTTP/1.0 defaults to close");
    let ten_ka = parse_str("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap().unwrap();
    assert!(ten_ka.keep_alive);
}

/// A reader that hands out the input in two reads split at `split`,
/// and refuses to give more than one byte per read after that — the
/// parser must reassemble identically no matter where the boundary
/// falls.
struct SplitReader {
    data: Vec<u8>,
    pos: usize,
    split: usize,
}

impl Read for SplitReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() || buf.is_empty() {
            return Ok(0);
        }
        // First read stops at the split point; afterwards dribble one
        // byte at a time.
        let end =
            if self.pos < self.split { self.split.min(self.data.len()) } else { self.pos + 1 };
        let n = (end - self.pos).min(buf.len());
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[test]
fn split_at_every_byte_parses_identically() {
    let raw = b"POST /v1/encode HTTP/1.1\r\nHost: test\r\nContent-Length: 11\r\nConnection: close\r\n\r\nhello world".to_vec();
    for split in 0..=raw.len() {
        let reader = SplitReader { data: raw.clone(), pos: 0, split };
        let mut buffered = BufReader::with_capacity(3, reader);
        let request = parse_request(&mut buffered, MAX_BODY)
            .unwrap_or_else(|e| {
                panic!(
                    "split={split}: {e:?}",
                    e = match e {
                        HttpError::Bad(m) => m,
                        HttpError::TooLarge { .. } => "too large".into(),
                    }
                )
            })
            .expect("request present");
        assert_eq!(request.method, "POST", "split={split}");
        assert_eq!(request.path, "/v1/encode", "split={split}");
        assert_eq!(request.body, b"hello world", "split={split}");
        assert!(!request.keep_alive, "split={split}");
    }
}

/// A body the parser cannot frame is refused, not guessed at: a
/// `Transfer-Encoding` (served as an empty body, its chunk lines would
/// be parsed as the next request on the connection) and two
/// `Content-Length`s that disagree (the second used to win silently) —
/// wherever the reads split, and before a byte past the headers is read.
#[test]
fn unframeable_bodies_are_rejected_at_every_split() {
    let chunk_lines = "4\r\nbody\r\n0\r\n\r\n";
    for headers in [
        "POST /v1/encode HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n",
        "POST /v1/encode HTTP/1.1\r\ntransfer-encoding: gzip, chunked\r\nContent-Length: 4\r\n\r\n",
        "POST /v1/encode HTTP/1.1\r\nContent-Length: 4\r\nTransfer-Encoding: identity\r\n\r\n",
        "POST /v1/encode HTTP/1.1\r\nContent-Length: 4\r\nHost: t\r\nContent-Length: 19\r\n\r\n",
        "POST /v1/encode HTTP/1.1\r\nContent-Length: 19\r\ncontent-length: 4\r\n\r\n",
    ] {
        let raw = format!("{headers}{chunk_lines}").into_bytes();
        for split in 0..=raw.len() {
            let reader = SplitReader { data: raw.clone(), pos: 0, split };
            let mut buffered = BufReader::with_capacity(3, reader);
            let result = parse_request(&mut buffered, MAX_BODY);
            assert!(matches!(result, Err(HttpError::Bad(_))), "split={split} of {headers:?}");
            // `SplitReader` hands out nothing past `split` at once, so
            // for a split inside the headers this is the parser's doing.
            let read = buffered.get_ref().pos;
            assert!(read <= headers.len().max(split), "split={split}: read {read} of {headers:?}");
        }
    }
    // The same length said twice is one length.
    let twice = "POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody";
    assert_eq!(parse_str(twice).unwrap().unwrap().body, b"body");
}

#[test]
fn pipelined_requests_parse_in_sequence() {
    let raw = concat!(
        "POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc",
        "GET /b HTTP/1.1\r\n\r\n",
        "POST /c HTTP/1.1\r\nContent-Length: 2\r\nConnection: close\r\n\r\nzz",
    );
    let mut reader = Cursor::new(raw.as_bytes().to_vec());
    let first = parse_request(&mut reader, MAX_BODY).unwrap().unwrap();
    assert_eq!((first.path.as_str(), first.body.as_slice()), ("/a", b"abc".as_slice()));
    let second = parse_request(&mut reader, MAX_BODY).unwrap().unwrap();
    assert_eq!(second.method, "GET");
    assert_eq!(second.path, "/b");
    assert!(second.body.is_empty());
    let third = parse_request(&mut reader, MAX_BODY).unwrap().unwrap();
    assert_eq!(third.body, b"zz");
    assert!(!third.keep_alive);
    assert!(parse_request(&mut reader, MAX_BODY).unwrap().is_none(), "clean EOF after pipeline");
}

#[test]
fn garbage_request_lines_are_rejected() {
    for garbage in [
        "GARBAGE\r\n\r\n",
        "GET\r\n\r\n",
        "GET /\r\n\r\n",
        "GET / SMTP/1.0\r\n\r\n",
        "GET / HTTP/2\r\n\r\n",
        "\r\n\r\n",
        "GET / HTTP/1.1\r\nno-colon-header\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
        "GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
    ] {
        let result = parse_str(garbage);
        assert!(matches!(result, Err(HttpError::Bad(_))), "{garbage:?} gave a non-Bad result");
    }
}

#[test]
fn binary_junk_is_rejected_not_panicked() {
    // Every 16-byte slice of a pseudo-random byte stream, followed by
    // a newline so the line terminates.
    let mut x: u32 = 0x243F_6A88;
    for _ in 0..64 {
        let mut junk = Vec::with_capacity(17);
        for _ in 0..16 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            junk.push((x >> 24) as u8);
        }
        junk.push(b'\n');
        let mut reader = Cursor::new(junk.clone());
        let result = parse_request(&mut reader, MAX_BODY);
        assert!(!matches!(result, Ok(Some(_))), "junk {junk:?} parsed as a request");
    }
}

#[test]
fn oversized_request_line_is_rejected() {
    let long_path = "x".repeat(32 << 10);
    let result = parse_str(&format!("GET /{long_path} HTTP/1.1\r\n\r\n"));
    assert!(matches!(result, Err(HttpError::Bad(_))), "{result:?}");
    // Oversized header line, too.
    let long_value = "v".repeat(32 << 10);
    let result = parse_str(&format!("GET / HTTP/1.1\r\nX-Big: {long_value}\r\n\r\n"));
    assert!(matches!(result, Err(HttpError::Bad(_))), "{result:?}");
}

#[test]
fn oversized_body_is_rejected_before_read() {
    let result = parse_str("POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n");
    match result {
        Err(HttpError::TooLarge { declared, limit }) => {
            assert_eq!(declared, 99_999_999);
            assert_eq!(limit, MAX_BODY);
        }
        other => panic!("expected TooLarge, got {other:?}"),
    }
}

#[test]
fn truncated_requests_error_cleanly() {
    let raw = "POST /v1/encode HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
    let result = parse_str(raw);
    assert!(matches!(result, Err(HttpError::Bad(_))), "truncated body: {result:?}");
    // Cut inside the headers at every byte: clean error or clean EOF,
    // never a parsed request and never a panic.
    let full = "GET /x HTTP/1.1\r\nHost: y\r\nConnection: close\r\n\r\n";
    for cut in 0..full.len() {
        let result = parse_str(&full[..cut]);
        assert!(!matches!(result, Ok(Some(_))), "cut={cut} parsed as complete");
    }
}

// ---------------------------------------------------------------------------
// Server-level behavior over a real socket
// ---------------------------------------------------------------------------

#[test]
fn keep_alive_serves_pipelined_requests_on_one_socket() {
    let core = ServeCore::start(ServeOptions::default());
    let client = Client::new(Arc::clone(&core));
    client.register("m", compressed(3)).unwrap();
    let server = Server::bind(Arc::clone(&core), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let body = "{\"model\":\"m\",\"ids\":[1,2,3]}";
    // Three pipelined encodes, the last one closing.
    let mut wire = String::new();
    for i in 0..3 {
        let connection = if i == 2 { "close" } else { "keep-alive" };
        wire.push_str(&format!(
            "POST /v1/encode HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
            body.len()
        ));
    }
    stream.write_all(wire.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let oks = raw.matches("HTTP/1.1 200 OK").count();
    assert_eq!(oks, 3, "expected 3 responses on one connection:\n{raw}");
    let hiddens = raw.matches("\"hidden\"").count();
    assert_eq!(hiddens, 3, "{raw}");

    drop(server);
    core.shutdown();
}

/// Over a real socket a chunked request costs one `400` and the
/// connection: its chunk lines are never answered as a second request.
#[test]
fn a_chunked_request_is_refused_and_the_connection_closed() {
    let core = ServeCore::start(ServeOptions::default());
    let server = Server::bind(Arc::clone(&core), "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let wire = "POST /v1/encode HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n\
                1b\r\n{\"model\":\"m\",\"ids\":[1,2,3]}\r\n0\r\n\r\n";
    stream.write_all(wire.as_bytes()).unwrap();
    let mut raw = String::new();
    // The server closes with our chunk lines unread, which may reset
    // the connection after the response: what arrived is what counts.
    let _ = stream.read_to_string(&mut raw);
    assert!(raw.starts_with("HTTP/1.1 400 Bad Request"), "{raw}");
    assert_eq!(raw.matches("HTTP/1.1 ").count(), 1, "one request, one response:\n{raw}");
    assert!(raw.contains("Connection: close") && raw.contains("bad_request"), "{raw}");
    assert!(raw.contains("transfer-encoding"), "{raw}");

    drop(server);
    core.shutdown();
}

#[test]
fn http_client_retries_connect_until_server_appears() {
    // Reserve a port and free it so the first connect attempts are
    // refused, then bind the server there after a delay.
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = probe.local_addr().unwrap();
    drop(probe);

    let core = ServeCore::start(ServeOptions::default());
    let client = Client::new(Arc::clone(&core));
    client.register("m", compressed(5)).unwrap();
    let server_core = Arc::clone(&core);
    let server_thread = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(60));
        Server::bind(server_core, &addr.to_string()).unwrap()
    });

    let http = HttpClient::new(addr.to_string()).with_retry(gobo_proto::net::RetryPolicy {
        attempts: 30,
        base: Duration::from_millis(10),
        cap: Duration::from_millis(50),
        seed: 11,
    });
    let (status, body) = http.encode_raw("{\"model\":\"m\",\"ids\":[4,5,6]}").unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"hidden\""), "{body}");

    let server = server_thread.join().unwrap();
    drop(server);
    core.shutdown();
}

#[test]
fn http_client_reports_permanent_refusal() {
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = probe.local_addr().unwrap().to_string();
    drop(probe);
    let http = HttpClient::new(addr).with_retry(gobo_proto::net::RetryPolicy {
        attempts: 3,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(2),
        seed: 1,
    });
    let result = http.request("GET", "/metrics", "");
    assert!(result.is_err());
}
