//! Frame codec: the binary messages exchanged between router and node.
//!
//! Layout (see the crate docs): `"GOBP"` magic, version byte, kind
//! byte, little-endian payload length, payload, and a trailing CRC-32
//! over `version|kind|payload`. Payloads are read and written through
//! [`crate::codec`] like every other binary format, so decoding never
//! panics and obeys the count rule: the frame body is capped by the
//! caller's `max_payload` while it is still on the wire, and every
//! length inside it is checked against the bytes actually present
//! before a buffer is reserved.

use std::io::{self, Read, Write};

use gobo_fault::fail_point;

use crate::codec::{put_f32s, put_len32, put_u32, put_u32s, put_u64, ByteReader, CodecError};
use crate::integrity::Crc32;

/// Protocol version emitted and accepted by this build.
pub const PROTOCOL_VERSION: u8 = 2;

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

/// A node's answer to a heartbeat: liveness plus load.
#[derive(Debug, Clone, PartialEq)]
pub struct HeartbeatAckFrame {
    /// Echo of the heartbeat sequence number.
    pub seq: u64,
    /// Current scheduler queue depth on the node.
    pub queue_depth: u32,
    /// Whether the node is draining (reject new work soon).
    pub draining: bool,
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
// Payload encode/decode (through `crate::codec`)
// ---------------------------------------------------------------------------

impl From<CodecError> for ProtoError {
    fn from(e: CodecError) -> Self {
        ProtoError::Corrupt(format!("payload {}", e.what()))
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len32(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn put_counted_u32s(out: &mut Vec<u8>, v: &[u32]) {
    put_len32(out, v.len());
    put_u32s(out, v);
}

fn put_counted_f32s(out: &mut Vec<u8>, v: &[f32]) {
    put_len32(out, v.len());
    put_f32s(out, v);
}

fn encode_payload(out: &mut Vec<u8>, frame: &Frame) {
    match frame {
        Frame::EncodeRequest(req) => {
            put_u64(out, req.id);
            put_str(out, &req.model);
            out.push(req.bits);
            put_u64(out, req.deadline_ms);
            put_counted_u32s(out, &req.ids);
            put_counted_u32s(out, &req.type_ids);
        }
        Frame::EncodeResponse(resp) => {
            put_u64(out, resp.id);
            match &resp.result {
                Ok(ok) => {
                    out.push(1);
                    put_str(out, &ok.model);
                    out.push(ok.bits);
                    put_counted_u32s(out, &ok.dims);
                    put_counted_f32s(out, &ok.hidden);
                    match &ok.pooled {
                        Some(p) => {
                            out.push(1);
                            put_counted_f32s(out, p);
                        }
                        None => out.push(0),
                    }
                    put_u32(out, ok.batch_size);
                    put_u64(out, ok.queue_us);
                    put_u64(out, ok.compute_us);
                }
                Err(err) => {
                    out.push(0);
                    put_str(out, &err.code);
                    put_str(out, &err.message);
                }
            }
        }
        Frame::Heartbeat { seq } => put_u64(out, *seq),
        Frame::HeartbeatAck(ack) => {
            put_u64(out, ack.seq);
            put_u32(out, ack.queue_depth);
            out.push(u8::from(ack.draining));
        }
        Frame::Drain | Frame::DrainAck => {}
    }
}

fn read_bool(r: &mut ByteReader<'_>) -> Result<bool, ProtoError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        v => Err(ProtoError::Corrupt(format!("invalid boolean {v}"))),
    }
}

fn read_str(r: &mut ByteReader<'_>) -> Result<String, ProtoError> {
    let n = r.len32()?;
    Ok(r.utf8(n)?.to_owned())
}

fn read_u32s(r: &mut ByteReader<'_>) -> Result<Vec<u32>, ProtoError> {
    let n = r.len32()?;
    Ok(r.u32s(n)?)
}

fn read_f32s(r: &mut ByteReader<'_>) -> Result<Vec<f32>, ProtoError> {
    let n = r.len32()?;
    Ok(r.f32s(n)?)
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<Frame, ProtoError> {
    let r = &mut ByteReader::new(payload);
    let frame = match kind {
        KIND_ENCODE_REQUEST => Frame::EncodeRequest(EncodeRequestFrame {
            id: r.u64()?,
            model: read_str(r)?,
            bits: r.u8()?,
            deadline_ms: r.u64()?,
            ids: read_u32s(r)?,
            type_ids: read_u32s(r)?,
        }),
        KIND_ENCODE_RESPONSE => {
            let id = r.u64()?;
            let result = if read_bool(r)? {
                Ok(EncodeOkFrame {
                    model: read_str(r)?,
                    bits: r.u8()?,
                    dims: read_u32s(r)?,
                    hidden: read_f32s(r)?,
                    pooled: if read_bool(r)? { Some(read_f32s(r)?) } else { None },
                    batch_size: r.u32()?,
                    queue_us: r.u64()?,
                    compute_us: r.u64()?,
                })
            } else {
                Err(EncodeErrFrame { code: read_str(r)?, message: read_str(r)? })
            };
            Frame::EncodeResponse(EncodeResponseFrame { id, result })
        }
        KIND_HEARTBEAT => Frame::Heartbeat { seq: r.u64()? },
        KIND_HEARTBEAT_ACK => Frame::HeartbeatAck(HeartbeatAckFrame {
            seq: r.u64()?,
            queue_depth: r.u32()?,
            draining: read_bool(r)?,
        }),
        KIND_DRAIN => Frame::Drain,
        KIND_DRAIN_ACK => Frame::DrainAck,
        other => {
            return Err(ProtoError::Corrupt(format!("unknown frame kind {other}")));
        }
    };
    r.finish()?;
    Ok(frame)
}

// ---------------------------------------------------------------------------
// Frame write/read
// ---------------------------------------------------------------------------

/// Bytes of a frame before its payload: magic, version, kind, length.
const HEADER_BYTES: usize = 10;

/// CRC-32 over `version|kind|payload` — not the length prefix between
/// them: a bad length already shows up as truncation or a shifted CRC.
/// Fed incrementally, so no frame is copied to be checksummed.
fn frame_crc(version: u8, kind: u8, payload: &[u8]) -> u32 {
    let mut crc = Crc32::default();
    crc.update(&[version, kind]);
    crc.update(payload);
    crc.finish()
}

/// Serialize one frame to `w`. The write is a single buffered flush so
/// a frame is never interleaved with another writer on the same stream
/// as long as callers hold the stream exclusively.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    let mut payload = Vec::new();
    encode_payload(&mut payload, frame);
    let kind = frame.kind();
    // ARITH: header + CRC of a live in-memory payload, < isize::MAX
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len() + 4);
    out.extend_from_slice(&MAGIC);
    out.push(PROTOCOL_VERSION);
    out.push(kind);
    put_len32(&mut out, payload.len());
    out.extend_from_slice(&payload);
    put_u32(&mut out, frame_crc(PROTOCOL_VERSION, kind, &payload));
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
    let mut fields = ByteReader::new(&header);
    let version = fields.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(ProtoError::Version(version));
    }
    let kind = fields.u8()?;
    let len = fields.u32()?;
    if len > max_payload {
        return Err(ProtoError::TooLarge { declared: len, limit: max_payload });
    }

    // The one reservation the count rule cannot cover — these bytes are
    // still on the wire — is bounded by the caller's cap instead.
    let mut payload = vec![0u8; len as usize];
    read_exact_frame(r, &mut payload, "payload")?;
    let mut crc_bytes = [0u8; 4];
    read_exact_frame(r, &mut crc_bytes, "crc")?;
    let got_crc = u32::from_le_bytes(crc_bytes);
    let want_crc = frame_crc(version, kind, &payload);
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
            Frame::HeartbeatAck(HeartbeatAckFrame { seq: 99, queue_depth: 17, draining: false }),
            Frame::Drain,
            Frame::DrainAck,
        ]
    }

    fn encode(frame: &Frame) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, frame).unwrap();
        buf
    }

    /// Recomputes the CRC of an edited frame, so that only the check
    /// under test can fire.
    fn reseal_frame(bytes: &mut [u8]) {
        let crc_at = bytes.len() - 4;
        let crc = frame_crc(bytes[4], bytes[5], &bytes[HEADER_BYTES..crc_at]);
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
    }

    /// FNV-1a/64 of `bytes`, the digest of every format pin (see
    /// `gobo_quant::container`'s for why not a CRC-32).
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// `bytes` with its version byte set to `version` and the CRC resealed.
    fn restamp(bytes: &[u8], version: u8) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[4] = version;
        reseal_frame(&mut out);
        out
    }

    /// Digests of `sample_frames()` as protocol version 1 wrote them,
    /// computed at the commit before the byte codec was unified
    /// (`ca0882a`). Version 1 is refused now; these keep its bytes as
    /// fixtures.
    const V1_PINS: [u64; 7] = [
        0xe439_b83f_2204_f95e,
        0x32f2_de69_971b_9057,
        0x7d7b_0aed_134e_cc66,
        0x1e73_639e_07fe_654b,
        0xa9b4_c2e2_d957_1c46,
        0x127e_d917_273a_a1df,
        0x5043_2953_e1cc_d1b9,
    ];

    /// The version 1 heartbeat ack of `sample_frames()`, which also
    /// listed two model statuses (`MiniBert`/3 resident at 1 MiB, `Tiny`/4
    /// evicted) after the draining flag.
    const V1_ACK: &str = "474f42500104390000006300000000000000110000000002000000\
        080000004d696e6942657274030100001000000000000400000054696e7904000000000000000000\
        276e6ae8";

    /// Every sample frame as version 1 wrote it: the stored ack, and the
    /// other kinds' current bytes stamped back to version 1 — whose
    /// digests are checked against [`V1_PINS`] in the pin test.
    fn v1_frames() -> Vec<Vec<u8>> {
        sample_frames()
            .iter()
            .map(|frame| match frame {
                Frame::HeartbeatAck(_) => (0..V1_ACK.len())
                    .step_by(2)
                    .map(|i| u8::from_str_radix(&V1_ACK[i..i + 2], 16).unwrap())
                    .collect(),
                _ => restamp(&encode(frame), 1),
            })
            .collect()
    }

    /// Format pin: every frame kind's bytes must not move. Next to each
    /// v2 digest, the frame's v1 bytes must match the v1 pin — so every
    /// kind but the ack (whose model list went) moved only by its
    /// version byte and CRC.
    #[test]
    fn every_frame_kind_is_pinned() {
        const PINS: [(u8, u64); 7] = [
            (1, 0x4ab6_1742_4330_3879),
            (2, 0xcad4_c86e_090d_0d4c),
            (2, 0xd0fc_1935_173f_d50a),
            (3, 0xd61a_94fe_fbf9_f628),
            (4, 0xc3a7_1d5e_585a_0ec8),
            (5, 0xdc16_ee20_1e07_b692),
            (6, 0x6240_ebca_c5b5_a7b4),
        ];
        let frames = sample_frames();
        assert_eq!(frames.len(), PINS.len());
        for ((frame, (kind, pin)), (v1, v1_pin)) in
            frames.iter().zip(PINS).zip(v1_frames().iter().zip(V1_PINS))
        {
            assert_eq!(frame.kind(), kind);
            let got = encode(frame);
            let digest = fnv1a(&got);
            assert_eq!(digest, pin, "kind {kind}: {digest:#018x}");
            assert_eq!(fnv1a(v1), v1_pin, "kind {kind}: v1 bytes");
            if kind != KIND_HEARTBEAT_ACK {
                assert_eq!(restamp(v1, PROTOCOL_VERSION), got, "kind {kind}");
            }
        }
    }

    /// A mixed-version cluster fails loud: every v1 frame is refused by
    /// its version byte, before its payload is read.
    #[test]
    fn v1_frames_are_refused_by_version() {
        for bytes in v1_frames() {
            let res = read_frame(&mut Cursor::new(bytes), MAX_PAYLOAD);
            assert!(matches!(res, Err(ProtoError::Version(1))), "{res:?}");
        }
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
        reseal_frame(&mut bytes); // so only the version check can fire
        let res = read_frame(&mut Cursor::new(bytes), MAX_PAYLOAD);
        assert!(matches!(res, Err(ProtoError::Version(9))), "{res:?}");
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut bytes = encode(&Frame::Drain);
        bytes[5] = 200; // kind byte
        reseal_frame(&mut bytes);
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
        bytes.extend_from_slice(&frame_crc(PROTOCOL_VERSION, 3, &payload).to_le_bytes());
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
