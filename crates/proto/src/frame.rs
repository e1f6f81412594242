//! Frame codec: the binary messages exchanged between router and node.
//!
//! Layout (see the crate docs): `"GOBP"` magic, version byte, kind
//! byte, little-endian payload length, payload, and a trailing CRC-32
//! over `version|kind|payload`. Decoding never panics and never
//! allocates more than the caller's payload cap: every length read
//! from the wire is validated against the bytes actually present
//! before a buffer is reserved.

use std::io::{self, Read, Write};

use gobo_fault::fail_point;
use gobo_quant::integrity::crc32;

/// Protocol version emitted and accepted by this build.
pub const PROTOCOL_VERSION: u8 = 1;

/// Default upper bound on a frame payload (64 MiB) — far above any
/// realistic encode response, low enough that a corrupt length prefix
/// cannot drive an out-of-memory allocation.
pub const MAX_PAYLOAD: u32 = 64 << 20; // ARITH: const 2^26, fits u32

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"GOBP";

const KIND_ENCODE_REQUEST: u8 = 1;
const KIND_ENCODE_RESPONSE: u8 = 2;
const KIND_HEARTBEAT: u8 = 3;
const KIND_HEARTBEAT_ACK: u8 = 4;
const KIND_DRAIN: u8 = 5;
const KIND_DRAIN_ACK: u8 = 6;

/// Errors surfaced by the frame codec.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The bytes on the wire do not form a valid frame (bad magic,
    /// CRC mismatch, truncated or malformed payload).
    Corrupt(String),
    /// The frame declared a payload larger than the caller's limit.
    TooLarge {
        /// Payload length declared by the frame header.
        declared: u32,
        /// The caller-supplied limit that was exceeded.
        limit: u32,
    },
    /// The peer speaks a protocol version this build does not.
    Version(u8),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "proto i/o error: {e}"),
            ProtoError::Corrupt(msg) => write!(f, "corrupt frame: {msg}"),
            ProtoError::TooLarge { declared, limit } => {
                write!(f, "frame payload {declared} bytes exceeds limit {limit}")
            }
            ProtoError::Version(v) => write!(f, "unsupported protocol version {v}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// An encode request routed to a node.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodeRequestFrame {
    /// Router-assigned request id, echoed back in the response.
    pub id: u64,
    /// Model name (registry key without the bits suffix).
    pub model: String,
    /// Requested bit width; `0` means "node default".
    pub bits: u8,
    /// Deadline budget in milliseconds; `0` means "node default".
    pub deadline_ms: u64,
    /// Input token ids.
    pub ids: Vec<u32>,
    /// Segment/type ids; empty means all-zero.
    pub type_ids: Vec<u32>,
}

/// Successful encode payload, mirroring the serve-layer response.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodeOkFrame {
    /// Resolved model name.
    pub model: String,
    /// Resolved bit width.
    pub bits: u8,
    /// Dimensions of `hidden` (row-major).
    pub dims: Vec<u32>,
    /// Hidden-state values, bit-exact relative to a direct encode.
    pub hidden: Vec<f32>,
    /// Pooled representation, when the model produces one.
    pub pooled: Option<Vec<f32>>,
    /// Size of the batch this request was coalesced into.
    pub batch_size: u32,
    /// Microseconds the request waited in the node's queue.
    pub queue_us: u64,
    /// Microseconds of compute on the node.
    pub compute_us: u64,
}

/// Failed encode payload: a stable error code plus human message.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodeErrFrame {
    /// Stable machine-readable code (`model_not_found`, `queue_full`, ...).
    pub code: String,
    /// Human-readable detail.
    pub message: String,
}

/// Response to an [`EncodeRequestFrame`], matched by `id`.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodeResponseFrame {
    /// Echo of the request id.
    pub id: u64,
    /// Outcome of the encode on the node.
    pub result: Result<EncodeOkFrame, EncodeErrFrame>,
}

/// Per-model status carried inside a heartbeat acknowledgement.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelStatusFrame {
    /// Model name.
    pub name: String,
    /// Bit width of this entry.
    pub bits: u8,
    /// Whether the model is resident in the node's LRU.
    pub resident: bool,
    /// Bytes the model occupies in the node's memory (0 when evicted).
    pub resident_bytes: u64,
}

/// A node's answer to a heartbeat: liveness plus load.
#[derive(Debug, Clone, PartialEq)]
pub struct HeartbeatAckFrame {
    /// Echo of the heartbeat sequence number.
    pub seq: u64,
    /// Current scheduler queue depth on the node.
    pub queue_depth: u32,
    /// Whether the node is draining (reject new work soon).
    pub draining: bool,
    /// Models known to the node's registry.
    pub models: Vec<ModelStatusFrame>,
}

/// All protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Router → node: encode this input.
    EncodeRequest(EncodeRequestFrame),
    /// Node → router: outcome of an encode.
    EncodeResponse(EncodeResponseFrame),
    /// Router → node: liveness probe.
    Heartbeat {
        /// Monotonic sequence number, echoed in the ack.
        seq: u64,
    },
    /// Node → router: liveness + load answer.
    HeartbeatAck(HeartbeatAckFrame),
    /// Router → node: stop accepting work, finish what is queued.
    Drain,
    /// Node → router: drain has begun.
    DrainAck,
}

impl Frame {
    /// The wire discriminant for this frame.
    pub fn kind(&self) -> u8 {
        match self {
            Frame::EncodeRequest(_) => KIND_ENCODE_REQUEST,
            Frame::EncodeResponse(_) => KIND_ENCODE_RESPONSE,
            Frame::Heartbeat { .. } => KIND_HEARTBEAT,
            Frame::HeartbeatAck(_) => KIND_HEARTBEAT_ACK,
            Frame::Drain => KIND_DRAIN,
            Frame::DrainAck => KIND_DRAIN_ACK,
        }
    }
}

// ---------------------------------------------------------------------------
// Payload writer
// ---------------------------------------------------------------------------

struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    fn new() -> Self {
        PayloadWriter { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn u32s(&mut self, v: &[u32]) {
        self.u32(v.len() as u32);
        for x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    fn f32s(&mut self, v: &[f32]) {
        self.u32(v.len() as u32);
        for x in v {
            // f32 travels as its exact bit pattern: byte-identity with a
            // direct in-process encode is a cluster invariant.
            self.buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
}

// ---------------------------------------------------------------------------
// Payload reader
// ---------------------------------------------------------------------------

struct PayloadReader<'a> {
    data: &'a [u8],
    pos: usize,
}

fn truncated(what: &str) -> ProtoError {
    ProtoError::Corrupt(format!("truncated payload while reading {what}"))
}

impl<'a> PayloadReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        PayloadReader { data, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).ok_or_else(|| truncated(what))?;
        let slice = self.data.get(self.pos..end).ok_or_else(|| truncated(what))?;
        self.pos = end;
        Ok(slice)
    }

    fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }

    fn u8(&mut self, what: &str) -> Result<u8, ProtoError> {
        let b = self.take(1, what)?;
        b.first().copied().ok_or_else(|| truncated(what))
    }

    fn bool(&mut self, what: &str) -> Result<bool, ProtoError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(ProtoError::Corrupt(format!("invalid boolean {v} while reading {what}"))),
        }
    }

    fn u32(&mut self, what: &str) -> Result<u32, ProtoError> {
        let b = self.take(4, what)?;
        let arr: [u8; 4] = b.try_into().map_err(|_| truncated(what))?;
        Ok(u32::from_le_bytes(arr))
    }

    fn u64(&mut self, what: &str) -> Result<u64, ProtoError> {
        let b = self.take(8, what)?;
        let arr: [u8; 8] = b.try_into().map_err(|_| truncated(what))?;
        Ok(u64::from_le_bytes(arr))
    }

    /// Read a length prefix for elements of `elem_size` bytes, checking
    /// it against the bytes actually remaining so a corrupt length can
    /// never drive a huge allocation.
    fn len_prefix(&mut self, elem_size: usize, what: &str) -> Result<usize, ProtoError> {
        let n = self.u32(what)? as usize;
        let need = n.checked_mul(elem_size).ok_or_else(|| truncated(what))?;
        if need > self.remaining() {
            return Err(ProtoError::Corrupt(format!(
                "declared length {n} for {what} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    fn str(&mut self, what: &str) -> Result<String, ProtoError> {
        let n = self.len_prefix(1, what)?;
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtoError::Corrupt(format!("invalid utf-8 in {what}")))
    }

    fn u32s(&mut self, what: &str) -> Result<Vec<u32>, ProtoError> {
        let n = self.len_prefix(4, what)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u32(what)?);
        }
        Ok(out)
    }

    fn f32s(&mut self, what: &str) -> Result<Vec<f32>, ProtoError> {
        let n = self.len_prefix(4, what)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f32::from_bits(self.u32(what)?));
        }
        Ok(out)
    }

    fn finish(&self) -> Result<(), ProtoError> {
        if self.remaining() != 0 {
            return Err(ProtoError::Corrupt(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Frame encode/decode
// ---------------------------------------------------------------------------

fn encode_payload(frame: &Frame) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    match frame {
        Frame::EncodeRequest(req) => {
            w.u64(req.id);
            w.str(&req.model);
            w.u8(req.bits);
            w.u64(req.deadline_ms);
            w.u32s(&req.ids);
            w.u32s(&req.type_ids);
        }
        Frame::EncodeResponse(resp) => {
            w.u64(resp.id);
            match &resp.result {
                Ok(ok) => {
                    w.u8(1);
                    w.str(&ok.model);
                    w.u8(ok.bits);
                    w.u32s(&ok.dims);
                    w.f32s(&ok.hidden);
                    match &ok.pooled {
                        Some(p) => {
                            w.u8(1);
                            w.f32s(p);
                        }
                        None => w.u8(0),
                    }
                    w.u32(ok.batch_size);
                    w.u64(ok.queue_us);
                    w.u64(ok.compute_us);
                }
                Err(err) => {
                    w.u8(0);
                    w.str(&err.code);
                    w.str(&err.message);
                }
            }
        }
        Frame::Heartbeat { seq } => {
            w.u64(*seq);
        }
        Frame::HeartbeatAck(ack) => {
            w.u64(ack.seq);
            w.u32(ack.queue_depth);
            w.bool(ack.draining);
            w.u32(ack.models.len() as u32);
            for m in &ack.models {
                w.str(&m.name);
                w.u8(m.bits);
                w.bool(m.resident);
                w.u64(m.resident_bytes);
            }
        }
        Frame::Drain | Frame::DrainAck => {}
    }
    w.buf
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<Frame, ProtoError> {
    let mut r = PayloadReader::new(payload);
    let frame = match kind {
        KIND_ENCODE_REQUEST => Frame::EncodeRequest(EncodeRequestFrame {
            id: r.u64("request id")?,
            model: r.str("model name")?,
            bits: r.u8("bits")?,
            deadline_ms: r.u64("deadline")?,
            ids: r.u32s("token ids")?,
            type_ids: r.u32s("type ids")?,
        }),
        KIND_ENCODE_RESPONSE => {
            let id = r.u64("response id")?;
            let ok_flag = r.bool("result flag")?;
            let result = if ok_flag {
                let model = r.str("model name")?;
                let bits = r.u8("bits")?;
                let dims = r.u32s("dims")?;
                let hidden = r.f32s("hidden")?;
                let pooled = if r.bool("pooled flag")? { Some(r.f32s("pooled")?) } else { None };
                Ok(EncodeOkFrame {
                    model,
                    bits,
                    dims,
                    hidden,
                    pooled,
                    batch_size: r.u32("batch size")?,
                    queue_us: r.u64("queue us")?,
                    compute_us: r.u64("compute us")?,
                })
            } else {
                Err(EncodeErrFrame { code: r.str("error code")?, message: r.str("error message")? })
            };
            Frame::EncodeResponse(EncodeResponseFrame { id, result })
        }
        KIND_HEARTBEAT => Frame::Heartbeat { seq: r.u64("heartbeat seq")? },
        KIND_HEARTBEAT_ACK => {
            let seq = r.u64("heartbeat seq")?;
            let queue_depth = r.u32("queue depth")?;
            let draining = r.bool("draining flag")?;
            // A model status is at least 14 bytes on the wire; the
            // cheaper per-byte bound of 1 still blocks absurd lengths.
            let n = r.len_prefix(1, "model list")?;
            let mut models = Vec::new();
            for _ in 0..n {
                models.push(ModelStatusFrame {
                    name: r.str("model name")?,
                    bits: r.u8("bits")?,
                    resident: r.bool("resident flag")?,
                    resident_bytes: r.u64("resident bytes")?,
                });
            }
            Frame::HeartbeatAck(HeartbeatAckFrame { seq, queue_depth, draining, models })
        }
        KIND_DRAIN => Frame::Drain,
        KIND_DRAIN_ACK => Frame::DrainAck,
        other => {
            return Err(ProtoError::Corrupt(format!("unknown frame kind {other}")));
        }
    };
    r.finish()?;
    Ok(frame)
}

/// Serialize one frame to `w`. The write is a single buffered flush so
/// a frame is never interleaved with another writer on the same stream
/// as long as callers hold the stream exclusively.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    let payload = encode_payload(frame);
    let kind = frame.kind();
    let mut out = Vec::with_capacity(payload.len().saturating_add(14));
    out.extend_from_slice(&MAGIC);
    out.push(PROTOCOL_VERSION);
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    // CRC covers version|kind|payload (not the length prefix: a bad
    // length already shows up as truncation or a shifted CRC).
    let mut covered = Vec::with_capacity(payload.len().saturating_add(2));
    covered.push(PROTOCOL_VERSION);
    covered.push(kind);
    covered.extend_from_slice(&payload);
    out.extend_from_slice(&crc32(&covered).to_le_bytes());
    w.write_all(&out)?;
    w.flush()
}

/// Read one frame from `r`.
///
/// Returns `Ok(None)` on a clean EOF at a frame boundary (the peer
/// closed between frames); EOF anywhere inside a frame is
/// [`ProtoError::Corrupt`]. `max_payload` caps the declared payload
/// length before any allocation happens.
pub fn read_frame<R: Read>(r: &mut R, max_payload: u32) -> Result<Option<Frame>, ProtoError> {
    // Read the first magic byte by hand so we can tell "peer closed
    // cleanly" (zero bytes) apart from "frame cut short".
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    let mut magic_rest = [0u8; 3];
    read_exact_frame(r, &mut magic_rest, "magic")?;
    let [m0, m1, m2, m3] = MAGIC;
    if first != [m0] || magic_rest != [m1, m2, m3] {
        return Err(ProtoError::Corrupt("bad frame magic".to_string()));
    }

    let mut header = [0u8; 6];
    read_exact_frame(r, &mut header, "header")?;
    let version = header.first().copied().unwrap_or(0);
    if version != PROTOCOL_VERSION {
        return Err(ProtoError::Version(version));
    }
    let kind = header.get(1).copied().unwrap_or(0);
    let len_bytes: [u8; 4] = header.get(2..6).and_then(|s| s.try_into().ok()).unwrap_or([0; 4]);
    let len = u32::from_le_bytes(len_bytes);
    if len > max_payload {
        return Err(ProtoError::TooLarge { declared: len, limit: max_payload });
    }

    let mut payload = vec![0u8; len as usize];
    read_exact_frame(r, &mut payload, "payload")?;
    let mut crc_bytes = [0u8; 4];
    read_exact_frame(r, &mut crc_bytes, "crc")?;
    let got_crc = u32::from_le_bytes(crc_bytes);

    let mut covered = Vec::with_capacity(payload.len().saturating_add(2));
    covered.push(version);
    covered.push(kind);
    covered.extend_from_slice(&payload);
    let want_crc = crc32(&covered);
    if got_crc != want_crc {
        return Err(ProtoError::Corrupt(format!(
            "crc mismatch: frame says {got_crc:#010x}, computed {want_crc:#010x}"
        )));
    }

    fail_point!(
        "proto.frame.parse",
        ProtoError::Corrupt("injected proto.frame.parse fault".to_string())
    );
    decode_payload(kind, &payload).map(Some)
}

fn read_exact_frame<R: Read>(r: &mut R, buf: &mut [u8], what: &str) -> Result<(), ProtoError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ProtoError::Corrupt(format!("frame truncated while reading {what}"))
        } else {
            ProtoError::Io(e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::EncodeRequest(EncodeRequestFrame {
                id: 42,
                model: "MiniBert".to_string(),
                bits: 3,
                deadline_ms: 5000,
                ids: vec![101, 2023, 2003, 102],
                type_ids: vec![0, 0, 1, 1],
            }),
            Frame::EncodeResponse(EncodeResponseFrame {
                id: 42,
                result: Ok(EncodeOkFrame {
                    model: "MiniBert".to_string(),
                    bits: 3,
                    dims: vec![4, 8],
                    hidden: vec![0.5, -1.25, f32::MIN_POSITIVE, 3.0e-39, -0.0, 1234.5],
                    pooled: Some(vec![0.125, -7.5]),
                    batch_size: 8,
                    queue_us: 1200,
                    compute_us: 3400,
                }),
            }),
            Frame::EncodeResponse(EncodeResponseFrame {
                id: 7,
                result: Err(EncodeErrFrame {
                    code: "queue_full".to_string(),
                    message: "queue at capacity".to_string(),
                }),
            }),
            Frame::Heartbeat { seq: 99 },
            Frame::HeartbeatAck(HeartbeatAckFrame {
                seq: 99,
                queue_depth: 17,
                draining: false,
                models: vec![
                    ModelStatusFrame {
                        name: "MiniBert".to_string(),
                        bits: 3,
                        resident: true,
                        resident_bytes: 1 << 20,
                    },
                    ModelStatusFrame {
                        name: "Tiny".to_string(),
                        bits: 4,
                        resident: false,
                        resident_bytes: 0,
                    },
                ],
            }),
            Frame::Drain,
            Frame::DrainAck,
        ]
    }

    fn encode(frame: &Frame) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, frame).unwrap();
        buf
    }

    #[test]
    fn model_status_wire_layout_is_unchanged_by_the_field_rename() {
        // The heartbeat ack of `sample_frames()` as written before the
        // size field was renamed `resident_bytes`: same bytes, same
        // protocol version.
        const BEFORE_RENAME: &str = "474f42500104390000006300000000000000110000000002000000\
            080000004d696e6942657274030100001000000000000400000054696e7904000000000000000000\
            276e6ae8";
        let before: Vec<u8> = (0..BEFORE_RENAME.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&BEFORE_RENAME[i..i + 2], 16).unwrap())
            .collect();
        let ack = sample_frames().into_iter().find(|f| matches!(f, Frame::HeartbeatAck(_)));
        let ack = ack.unwrap();
        assert_eq!(encode(&ack), before);
        let got = read_frame(&mut Cursor::new(before), MAX_PAYLOAD).unwrap().unwrap();
        assert_eq!(got, ack);
    }

    #[test]
    fn round_trip_all_frames() {
        for frame in sample_frames() {
            let bytes = encode(&frame);
            let mut cur = Cursor::new(bytes);
            let got = read_frame(&mut cur, MAX_PAYLOAD).unwrap().unwrap();
            assert_eq!(got, frame);
        }
    }

    #[test]
    fn f32_round_trip_is_bit_exact() {
        let weird = vec![
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::MIN_POSITIVE / 2.0, // subnormal
            f32::MAX,
        ];
        let frame = Frame::EncodeResponse(EncodeResponseFrame {
            id: 1,
            result: Ok(EncodeOkFrame {
                model: "m".to_string(),
                bits: 3,
                dims: vec![1, weird.len() as u32],
                hidden: weird.clone(),
                pooled: None,
                batch_size: 1,
                queue_us: 0,
                compute_us: 0,
            }),
        });
        let bytes = encode(&frame);
        let got = read_frame(&mut Cursor::new(bytes), MAX_PAYLOAD).unwrap().unwrap();
        match got {
            Frame::EncodeResponse(resp) => {
                let ok = resp.result.unwrap();
                assert_eq!(ok.hidden.len(), weird.len());
                for (a, b) in ok.hidden.iter().zip(weird.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }

    #[test]
    fn clean_eof_is_none() {
        let mut cur = Cursor::new(Vec::<u8>::new());
        assert!(read_frame(&mut cur, MAX_PAYLOAD).unwrap().is_none());
    }

    #[test]
    fn multiple_frames_stream() {
        let mut buf = Vec::new();
        let frames = sample_frames();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut cur = Cursor::new(buf);
        for f in &frames {
            let got = read_frame(&mut cur, MAX_PAYLOAD).unwrap().unwrap();
            assert_eq!(&got, f);
        }
        assert!(read_frame(&mut cur, MAX_PAYLOAD).unwrap().is_none());
    }

    /// Flipping any single byte of an encoded frame must surface an
    /// error — never a panic, never a silently different frame.
    #[test]
    fn corruption_sweep_every_byte() {
        for frame in sample_frames() {
            let bytes = encode(&frame);
            for i in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[i] ^= 0xA5;
                let res = read_frame(&mut Cursor::new(bad), MAX_PAYLOAD);
                assert!(res.is_err(), "byte {i} of {frame:?} flipped but decode returned {res:?}");
            }
        }
    }

    /// Truncating an encoded frame at any interior byte must error
    /// (only a cut at offset 0 is a clean EOF).
    #[test]
    fn truncation_sweep_every_prefix() {
        for frame in sample_frames() {
            let bytes = encode(&frame);
            for cut in 0..bytes.len() {
                let res = read_frame(&mut Cursor::new(bytes[..cut].to_vec()), MAX_PAYLOAD);
                if cut == 0 {
                    assert!(matches!(res, Ok(None)), "cut=0 gave {res:?}");
                } else {
                    assert!(res.is_err(), "cut={cut} of {frame:?} gave {res:?}");
                }
            }
        }
    }

    #[test]
    fn oversized_payload_rejected_before_allocation() {
        let frame = Frame::Heartbeat { seq: 1 };
        let mut bytes = encode(&frame);
        // Rewrite the length prefix to something absurd; the declared
        // length alone must trip the limit.
        bytes[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        let res = read_frame(&mut Cursor::new(bytes), MAX_PAYLOAD);
        assert!(matches!(res, Err(ProtoError::TooLarge { .. })), "{res:?}");
    }

    #[test]
    fn small_payload_cap_applies() {
        let frame = Frame::EncodeRequest(EncodeRequestFrame {
            id: 1,
            model: "m".to_string(),
            bits: 0,
            deadline_ms: 0,
            ids: vec![0; 100],
            type_ids: vec![],
        });
        let bytes = encode(&frame);
        let res = read_frame(&mut Cursor::new(bytes), 16);
        assert!(matches!(res, Err(ProtoError::TooLarge { .. })), "{res:?}");
    }

    #[test]
    fn unknown_version_rejected() {
        let mut bytes = encode(&Frame::Drain);
        bytes[4] = 9; // version byte
                      // Fix up the CRC so only the version check can fire.
        let len = bytes.len();
        let mut covered = vec![bytes[4], bytes[5]];
        covered.extend_from_slice(&bytes[10..len - 4]);
        let crc = crc32(&covered);
        bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
        let res = read_frame(&mut Cursor::new(bytes), MAX_PAYLOAD);
        assert!(matches!(res, Err(ProtoError::Version(9))), "{res:?}");
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut bytes = encode(&Frame::Drain);
        bytes[5] = 200; // kind byte
        let len = bytes.len();
        let mut covered = vec![bytes[4], bytes[5]];
        covered.extend_from_slice(&bytes[10..len - 4]);
        let crc = crc32(&covered);
        bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
        let res = read_frame(&mut Cursor::new(bytes), MAX_PAYLOAD);
        assert!(matches!(res, Err(ProtoError::Corrupt(_))), "{res:?}");
    }

    #[test]
    fn trailing_garbage_in_payload_rejected() {
        // Hand-build a heartbeat with 4 extra payload bytes and a valid
        // CRC: structure decode must still reject it.
        let mut payload = Vec::new();
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.extend_from_slice(&[1, 2, 3, 4]);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(PROTOCOL_VERSION);
        bytes.push(3); // heartbeat
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let mut covered = vec![PROTOCOL_VERSION, 3];
        covered.extend_from_slice(&payload);
        let crc = crc32(&covered);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let res = read_frame(&mut Cursor::new(bytes), MAX_PAYLOAD);
        assert!(matches!(res, Err(ProtoError::Corrupt(_))), "{res:?}");
    }

    /// A reader that returns one byte per read call: read_frame must
    /// reassemble frames across arbitrarily fragmented reads.
    struct OneByteReader {
        data: Vec<u8>,
        pos: usize,
    }

    impl std::io::Read for OneByteReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.data.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn fragmented_reads_reassemble() {
        let mut buf = Vec::new();
        for f in sample_frames() {
            write_frame(&mut buf, &f).unwrap();
        }
        let mut r = OneByteReader { data: buf, pos: 0 };
        for f in sample_frames() {
            let got = read_frame(&mut r, MAX_PAYLOAD).unwrap().unwrap();
            assert_eq!(got, f);
        }
        assert!(read_frame(&mut r, MAX_PAYLOAD).unwrap().is_none());
    }

    #[test]
    fn parse_failpoint_injects_error() {
        gobo_fault::reset();
        gobo_fault::configure_str("proto.frame.parse=error").unwrap();
        let bytes = encode(&Frame::Drain);
        let res = read_frame(&mut Cursor::new(bytes), MAX_PAYLOAD);
        gobo_fault::reset();
        assert!(matches!(res, Err(ProtoError::Corrupt(_))), "{res:?}");
    }
}
