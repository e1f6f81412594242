//! The load generator's HTTP side: pre-encoded request bytes and a
//! keep-alive response reader.
//!
//! `gobo_serve::HttpClient` opens a connection per request; a load
//! generator that did the same would mostly measure `connect`. This
//! reader keeps one socket and survives what a socket does: a response
//! split across reads, or two reads' worth arriving at once.

use std::io::{self, Read};

/// The JSON body of one `POST /v1/encode` request.
pub fn encode_request_body(model: &str, ids: &[usize]) -> String {
    let ids: Vec<String> = ids.iter().map(usize::to_string).collect();
    format!("{{\"model\":\"{model}\",\"ids\":[{}]}}", ids.join(","))
}

/// Pre-encodes one keep-alive `POST /v1/encode` request so the timed
/// loop only writes bytes (the zero-IO trick: the client must not be
/// the bottleneck).
pub fn encode_request_bytes(model: &str, ids: &[usize]) -> Vec<u8> {
    let body = encode_request_body(model, ids);
    format!(
        "POST /v1/encode HTTP/1.1\r\nHost: stackbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One parsed response; `body` borrows the reader's buffer.
#[derive(Debug, PartialEq, Eq)]
pub struct Response<'a> {
    pub status: u16,
    pub body: &'a [u8],
}

/// Buffered reader of `Content-Length`-framed HTTP/1.1 responses.
#[derive(Debug, Default)]
pub struct ResponseReader {
    buf: Vec<u8>,
    /// Bytes of `buf` that belong to the response returned last.
    consumed: usize,
}

/// Largest response accepted (a hidden-256 body is ~50 KiB).
const MAX_RESPONSE: usize = 8 << 20;

impl ResponseReader {
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads exactly one response from `stream`.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when the peer closes mid-response, `InvalidData`
    /// for a malformed head or an oversized body, and whatever the
    /// stream reports.
    pub fn read_response<R: Read>(&mut self, stream: &mut R) -> io::Result<Response<'_>> {
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
        let mut scanned = 0usize;
        let head_end = loop {
            // Resume the terminator search three bytes back so a
            // `\r\n\r\n` split across reads is still found.
            let from = scanned.saturating_sub(3);
            if let Some(pos) = self.buf[from..].windows(4).position(|w| w == b"\r\n\r\n") {
                break from + pos + 4;
            }
            scanned = self.buf.len();
            if scanned > 16 << 10 {
                return Err(bad("response head exceeds 16 KiB"));
            }
            self.fill(stream)?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("head not utf-8"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let length: usize = lines
            .filter_map(|l| l.split_once(':'))
            .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .ok_or_else(|| bad("missing content-length"))?;
        if length > MAX_RESPONSE {
            return Err(bad("response body too large"));
        }
        let total = head_end + length;
        while self.buf.len() < total {
            self.fill(stream)?;
        }
        self.consumed = total;
        Ok(Response { status, body: &self.buf[head_end..total] })
    }

    fn fill<R: Read>(&mut self, stream: &mut R) -> io::Result<()> {
        let old = self.buf.len();
        self.buf.resize(old + (16 << 10), 0);
        let n = loop {
            match stream.read(&mut self.buf[old..]) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                other => break other,
            }
        };
        match n {
            Ok(0) => {
                self.buf.truncate(old);
                Err(io::ErrorKind::UnexpectedEof.into())
            }
            Ok(n) => {
                self.buf.truncate(old + n);
                Ok(())
            }
            Err(e) => {
                self.buf.truncate(old);
                Err(e)
            }
        }
    }
}

/// Reads the unsigned integer after `"key":` in the first bytes of a
/// JSON body (`queue_us`, `compute_us` and `batch_size` precede the
/// tensors, so the scan never walks the float arrays).
pub fn head_field(body: &[u8], key: &str) -> Option<u64> {
    let head = &body[..body.len().min(256)];
    let needle = format!("\"{key}\":");
    let at = head.windows(needle.len()).position(|w| w == needle.as_bytes())? + needle.len();
    let digits = head[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&head[at..at + digits]).ok()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hands out the wire bytes in the given chunk sizes, cycling.
    struct Chunked {
        data: Vec<u8>,
        pos: usize,
        sizes: Vec<usize>,
        turn: usize,
    }

    impl Read for Chunked {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let want = self.sizes[self.turn % self.sizes.len()];
            self.turn += 1;
            let n = want.min(out.len()).min(self.data.len() - self.pos);
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn wire(status: u16, body: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 {status} OK\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    #[test]
    fn reads_responses_split_at_every_granularity() {
        let first = "{\"queue_us\":12,\"hidden\":[1,2,3]}";
        let second = "{\"error\":\"queue_full\"}";
        let mut data = wire(200, first);
        data.extend(wire(429, second));
        for sizes in [vec![1], vec![2, 3], vec![7], vec![64], vec![100_000], vec![1, 500]] {
            let mut stream = Chunked { data: data.clone(), pos: 0, sizes, turn: 0 };
            let mut reader = ResponseReader::new();
            let r = reader.read_response(&mut stream).unwrap();
            assert_eq!((r.status, r.body), (200, first.as_bytes()));
            let r = reader.read_response(&mut stream).unwrap();
            assert_eq!((r.status, r.body), (429, second.as_bytes()));
            let eof = reader.read_response(&mut stream).unwrap_err();
            assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);
        }
    }

    #[test]
    fn truncated_body_is_an_error_not_a_short_response() {
        let mut data = wire(200, "{\"hidden\":[1,2,3]}");
        data.truncate(data.len() - 4);
        let mut stream = Chunked { data, pos: 0, sizes: vec![5], turn: 0 };
        let err = ResponseReader::new().read_response(&mut stream).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn head_fields_are_read_without_parsing_the_body() {
        let body = b"{\"model\":\"small\",\"bits\":3,\"rev\":1,\"batch_size\":2,\
                     \"queue_us\":2031,\"compute_us\":2890,\"hidden\":{}}";
        assert_eq!(head_field(body, "queue_us"), Some(2031));
        assert_eq!(head_field(body, "compute_us"), Some(2890));
        assert_eq!(head_field(body, "batch_size"), Some(2));
        assert_eq!(head_field(body, "absent"), None);
    }

    #[test]
    fn request_bytes_are_what_the_server_parses() {
        let bytes = encode_request_bytes("small", &[1, 22, 333]);
        let mut reader = std::io::BufReader::new(&bytes[..]);
        let parsed = gobo_serve::parse_request(&mut reader, 1 << 20).unwrap().unwrap();
        assert_eq!((parsed.method.as_str(), parsed.path.as_str()), ("POST", "/v1/encode"));
        assert!(parsed.keep_alive);
        let request = gobo_serve::parse_encode_body(&parsed.body).unwrap();
        assert_eq!((request.model.as_str(), request.ids), ("small", vec![1, 22, 333]));
    }
}
