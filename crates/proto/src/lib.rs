//! `gobo-proto`: bytes that cross a boundary.
//!
//! [`codec`] and [`integrity`] are the one byte codec of the workspace —
//! the checked cursor, the length writers and the CRC-32 seal under the
//! layer/archive container, the raw model file, the `.gobom` and the
//! wire frame — with the rule every parser of outside bytes obeys (a
//! declared count is checked against the bytes remaining before anything
//! is reserved). [`frame`] and [`net`] are the versioned wire protocol
//! of the `gobo-cluster` serving tier, that codec's first user. The
//! crate depends only on `gobo-fault` and `bytes` — the format crates
//! depend on it, not the other way round — so router and node, which
//! live in different processes, stay independently testable against the
//! same frame codec.
//!
//! # Frame format
//!
//! Every message is one length-prefixed frame:
//!
//! ```text
//! magic   4 B   "GOBP"
//! version 1 B   currently 2 (other versions are refused)
//! kind    1 B   frame discriminant
//! length  4 B   payload length, little endian
//! payload       kind-specific binary payload
//! crc32   4 B   CRC-32 (IEEE, reflected) over version|kind|payload
//! ```
//!
//! The trailing CRC is [`integrity::Crc32`] — the checksum that also
//! seals `.gobom` containers — so a bit flip anywhere between the
//! version byte and the last payload byte is detected before a single
//! field is interpreted. Decoding is panic-free and bounded: payloads
//! larger than the caller's limit are rejected from the length prefix
//! alone, before any allocation.
//!
//! The [`net`] module carries the client-side connection discipline
//! (capped jittered retry of *transient* connect failures) that the
//! router and the HTTP client share.

#![deny(missing_docs)]

pub mod codec;
pub mod frame;
pub mod integrity;
pub mod net;

pub use frame::{
    read_frame, write_frame, EncodeErrFrame, EncodeOkFrame, EncodeRequestFrame,
    EncodeResponseFrame, Frame, HeartbeatAckFrame, ProtoError, MAX_PAYLOAD, PROTOCOL_VERSION,
};
pub use net::{connect_retry, RetryPolicy};
