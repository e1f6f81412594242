//! Binary container format for compressed layers and whole models.
//!
//! [`QuantizedLayer::to_bytes`] serializes exactly the information the
//! paper's Section IV stores per layer — packed G-group indices, the
//! FP32 reconstruction table, and the FP32 outliers with positions —
//! behind a small self-describing header. [`ModelArchive`] concatenates
//! named layers into one buffer, which is what would actually be
//! streamed from off-chip memory.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! layer   := magic:u32 "GOBq" | version:u8 | method:u8 | bits:u8 | pad:u8
//!          | total:u32 | outliers:u32 | codebook_len:u32
//!          | codebook:[f32; codebook_len]
//!          | outlier_positions:[u32; outliers]
//!          | outlier_values:[f32; outliers]
//!          | packed_indices:[u8; ceil((total-outliers)*bits/8)]
//!          | crc:u32                       (CRC32 of all preceding bytes)
//! archive := magic:u32 "GOBa" | version:u8 | pad:[u8;3] | entries:u32
//!          | header_crc:u32                (CRC32 of the 12 header bytes)
//!          | entry*
//! entry   := name_len:u16 | name:utf8 | layer_len:u32 | layer
//!          | crc:u32                       (CRC32 of the entry's bytes)
//! ```
//!
//! Each layer and each archive entry is sealed with a CRC32
//! ([`crate::integrity`]) verified *before* any field is interpreted,
//! so a bit-flip in `packed_indices` or the codebook cannot decode to
//! silently-wrong weights. Version 2 is the only version read or
//! written: the checksum-less version 1 is rejected as unsupported, so
//! rewriting the version byte cannot switch verification off.
//!
//! The checksum answers *accidental* corruption. A crafted payload
//! seals itself correctly, so the fields behind the seal are read
//! through the workspace's one checked cursor
//! ([`gobo_proto::codec::ByteReader`]) under its count rule: `outliers`
//! and `codebook_len` are checked against the bytes that remain before
//! anything is reserved for them (a 28-byte layer declaring four billion
//! outliers is refused, not allocated for). Writing goes through the
//! same module: its `Vec<u8>` put helpers, one length cast, one `seal`.

// Panic-free outside tests: no `.unwrap()` / `.expect()`, panicking
// macro (the assert family via `clippy.toml`) or unchecked index.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_macros
    )
)]

use std::sync::Arc;

use gobo_proto::codec::{
    put_f32s, put_len16, put_len32, put_u32, put_u32s, reseal, seal, unseal, ByteReader, CodecError,
};

use crate::codebook::{Codebook, ConvergenceTrace};
use crate::config::QuantMethod;
use crate::error::QuantError;
use crate::layer::QuantizedLayer;
use crate::packing;

/// Magic prefix of a serialized layer.
pub const LAYER_MAGIC: u32 = u32::from_le_bytes(*b"GOBq");
/// Magic prefix of a serialized archive.
pub const ARCHIVE_MAGIC: u32 = u32::from_le_bytes(*b"GOBa");
/// The format version: CRC32 per layer and per archive entry.
pub const FORMAT_VERSION: u8 = 2;
/// Bytes of a serialized layer outside its variable-length sections:
/// the 20-byte wire header plus the 4-byte trailing CRC32.
const LAYER_FRAMING_BYTES: usize = 24;
/// Bytes of a serialized archive before its first entry: magic,
/// version, pad, entry count and the header CRC32.
const ARCHIVE_HEADER_BYTES: usize = 16;

fn corrupt(what: &'static str) -> QuantError {
    QuantError::CorruptPayload { what }
}

impl From<CodecError> for QuantError {
    fn from(e: CodecError) -> Self {
        corrupt(e.what())
    }
}

fn method_tag(method: QuantMethod) -> u8 {
    match method {
        QuantMethod::Gobo => 0,
        QuantMethod::KMeans => 1,
        QuantMethod::Linear => 2,
    }
}

fn method_from_tag(tag: u8) -> Result<QuantMethod, QuantError> {
    Ok(match tag {
        0 => QuantMethod::Gobo,
        1 => QuantMethod::KMeans,
        2 => QuantMethod::Linear,
        _ => return Err(corrupt("unknown method tag")),
    })
}

impl QuantizedLayer {
    /// Length of [`QuantizedLayer::to_bytes`]'s output, computed from
    /// the size breakdown without serializing.
    pub fn serialized_bytes(&self) -> usize {
        let sizes = self.size_breakdown();
        [
            LAYER_FRAMING_BYTES,
            sizes.codebook_bytes,
            sizes.outlier_position_bytes,
            sizes.outlier_value_bytes,
            sizes.index_bytes,
        ]
        .iter()
        .sum()
    }

    /// Serializes the layer to the container format (trailing CRC32
    /// over everything preceding it).
    pub fn to_bytes(&self) -> Arc<[u8]> {
        let mut out = Vec::with_capacity(self.serialized_bytes());
        put_u32(&mut out, LAYER_MAGIC);
        out.push(FORMAT_VERSION);
        out.push(method_tag(self.method()));
        out.push(self.bits());
        out.push(0); // padding / reserved
        put_len32(&mut out, self.total());
        put_len32(&mut out, self.outlier_count());
        put_len32(&mut out, self.codebook().len());
        put_f32s(&mut out, self.codebook().centroids());
        let (positions, values) = self.outliers();
        put_u32s(&mut out, positions);
        put_f32s(&mut out, values);
        out.extend_from_slice(self.packed_indices());
        seal(&mut out, 0);
        out.into()
    }

    /// Deserializes a layer from the container format. The payload is
    /// checksum-verified before any field is interpreted, and every
    /// count it declares is checked against the bytes that remain
    /// before anything is reserved for it.
    ///
    /// The convergence trace is a quantization-time artifact and is not
    /// stored; deserialized layers carry an empty trace.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::CorruptPayload`] for wrong magic, unknown
    /// versions, checksum mismatch, truncation, inconsistent counts,
    /// non-finite codebooks, or unsorted outlier positions.
    pub fn from_bytes(data: &[u8]) -> Result<Self, QuantError> {
        gobo_fault::fail_point!(
            "container.layer.parse",
            corrupt("injected container.layer.parse fault")
        );
        let mut r = ByteReader::new(data);
        if r.u32()? != LAYER_MAGIC {
            return Err(corrupt("bad layer magic"));
        }
        if r.u8()? != FORMAT_VERSION {
            return Err(corrupt("unsupported version"));
        }
        let body = unseal(data).map_err(|_| corrupt("layer checksum mismatch"))?;
        let mut r = ByteReader::new(body);
        let _header = r.take(5)?; // magic + version, already checked
        let layer = Self::parse_body(&mut r)?;
        r.finish().map_err(|_| corrupt("trailing bytes after layer"))?;
        Ok(layer)
    }

    /// Parses the layer fields following the magic+version prefix.
    fn parse_body(r: &mut ByteReader<'_>) -> Result<Self, QuantError> {
        let method = method_from_tag(r.u8()?)?;
        let bits = r.u8()?;
        if !(1..=8).contains(&bits) {
            return Err(corrupt("bits out of range"));
        }
        let _pad = r.u8()?;
        let total = r.len32()?;
        let outliers = r.len32()?;
        if outliers > total {
            return Err(corrupt("more outliers than weights"));
        }
        let codebook_len = r.len32()?;
        // ARITH: `bits` is validated to 1..=8 above, so the shift is
        // at most 1 << 8 = 256.
        if codebook_len == 0 || codebook_len > 1 << bits {
            return Err(corrupt("codebook size inconsistent with bits"));
        }
        let centroids = r.f32s(codebook_len)?;
        if !centroids.iter().all(|c| c.is_finite()) {
            return Err(corrupt("non-finite centroid"));
        }
        // Refused rather than left for `Codebook::new` to sort: sorting
        // the table under its indices would give every index a new value.
        if centroids.iter().zip(centroids.iter().skip(1)).any(|(a, b)| a > b) {
            return Err(corrupt("codebook not ascending"));
        }
        let positions = r.u32s(outliers)?;
        if positions.iter().zip(positions.iter().skip(1)).any(|(a, b)| a >= b) {
            return Err(corrupt("outlier positions not ascending"));
        }
        if positions.last().is_some_and(|&p| p as usize >= total) {
            return Err(corrupt("outlier position out of range"));
        }
        let values = r.f32s(outliers)?;
        if !values.iter().all(|v| v.is_finite()) {
            return Err(corrupt("non-finite outlier"));
        }
        let g_count = total - outliers;
        // The packed run is taken before it is unpacked, so the index
        // buffer below is at most 8x the bytes actually present.
        let packed = r.take(packing::packed_len(g_count, bits))?;
        // Validate that every index decodes inside the codebook.
        let assignments = packing::unpack(packed, bits, g_count)?;
        if assignments.iter().any(|&a| a as usize >= codebook_len) {
            return Err(corrupt("index outside codebook"));
        }
        let codebook = Codebook::new(centroids)?;
        Ok(QuantizedLayer::from_parts(
            method,
            bits,
            total,
            codebook,
            Arc::from(packed),
            positions,
            values,
            ConvergenceTrace::default(),
        ))
    }
}

/// A named collection of compressed layers — the whole-model payload.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ModelArchive {
    entries: Vec<(String, QuantizedLayer)>,
}

impl ModelArchive {
    /// Creates an empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a named layer.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidConfig`] for names longer than
    /// `u16::MAX` bytes or duplicated names.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        layer: QuantizedLayer,
    ) -> Result<(), QuantError> {
        let name = name.into();
        if name.len() > u16::MAX as usize {
            return Err(QuantError::InvalidConfig { name: "layer name too long" });
        }
        if self.entries.iter().any(|(n, _)| *n == name) {
            return Err(QuantError::InvalidConfig { name: "duplicate layer name" });
        }
        self.entries.push((name, layer));
        Ok(())
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the archive holds no layers.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks a layer up by name.
    pub fn get(&self, name: &str) -> Option<&QuantizedLayer> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, l)| l)
    }

    /// Iterates `(name, layer)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &QuantizedLayer)> {
        self.entries.iter().map(|(n, l)| (n.as_str(), l))
    }

    /// Length of [`ModelArchive::to_bytes`]'s output, computed from the
    /// layers' size breakdowns without serializing: each entry frames
    /// its layer with a name, a length and a trailing CRC32.
    pub fn serialized_bytes(&self) -> usize {
        let entries: usize = self
            .entries
            .iter()
            .map(|(n, l)| 2 + n.len() + 4 + l.serialized_bytes() + 4) // ARITH: live buffer lengths
            .sum();
        ARCHIVE_HEADER_BYTES + entries // ARITH: sums lengths of live in-memory entries, < isize::MAX
    }

    /// Serializes the archive (a CRC32 seals every entry).
    pub fn to_bytes(&self) -> Arc<[u8]> {
        let mut out = Vec::with_capacity(self.serialized_bytes());
        put_u32(&mut out, ARCHIVE_MAGIC);
        out.push(FORMAT_VERSION);
        out.extend_from_slice(&[0u8; 3]);
        put_len32(&mut out, self.entries.len());
        seal(&mut out, 0);
        for (name, layer) in &self.entries {
            let entry_start = out.len();
            let payload = layer.to_bytes();
            put_len16(&mut out, name.len()); // bounded by `push`
            out.extend_from_slice(name.as_bytes());
            put_len32(&mut out, payload.len());
            out.extend_from_slice(&payload);
            seal(&mut out, entry_start);
        }
        out.into()
    }

    /// Deserializes an archive. The header and every entry are
    /// checksum-verified before the layer payloads are parsed.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::CorruptPayload`] for wrong magic, unknown
    /// versions, entry checksum mismatch, truncation, invalid UTF-8
    /// names, or corrupt layer payloads.
    pub fn from_bytes(data: &[u8]) -> Result<Self, QuantError> {
        gobo_fault::fail_point!(
            "container.archive.parse",
            corrupt("injected container.archive.parse fault")
        );
        let mut r = ByteReader::new(data);
        if r.u32()? != ARCHIVE_MAGIC {
            return Err(corrupt("bad archive magic"));
        }
        if r.u8()? != FORMAT_VERSION {
            return Err(corrupt("unsupported version"));
        }
        let _pad = r.take(3)?;
        let count = r.len32()?;
        r.unseal_since(0).map_err(|_| corrupt("archive header checksum mismatch"))?;
        let mut archive = ModelArchive::new();
        for _ in 0..count {
            let entry_start = r.position();
            let (name, layer_bytes) = entry_fields(&mut r)?;
            r.unseal_since(entry_start).map_err(|_| corrupt("entry checksum mismatch"))?;
            let name = std::str::from_utf8(name).map_err(|_| CodecError::Utf8)?;
            archive.push(name, QuantizedLayer::from_bytes(layer_bytes)?)?;
        }
        r.finish().map_err(|_| corrupt("trailing bytes after archive"))?;
        Ok(archive)
    }
}

/// The name and layer bytes of the archive entry at the cursor.
fn entry_fields<'a>(r: &mut ByteReader<'a>) -> Result<(&'a [u8], &'a [u8]), CodecError> {
    let name_len = r.len16()?;
    let name = r.take(name_len)?;
    let layer_len = r.len32()?;
    Ok((name, r.take(layer_len)?))
}

/// Recomputes every CRC-32 of a serialized archive in place, innermost
/// first (layer, then entry), walking the framing as far as it parses —
/// the fuzzers' door past the seal, so that an edited byte reaches the
/// field parsers instead of dying at a checksum.
pub fn reseal_archive(bytes: &mut [u8]) {
    if let Some(header) = bytes.get_mut(..ARCHIVE_HEADER_BYTES) {
        reseal(header);
    }
    let mut at = ARCHIVE_HEADER_BYTES;
    loop {
        let mut r = ByteReader::new(bytes);
        let Some(Ok((_, layer))) = r.take(at).ok().map(|_| entry_fields(&mut r)) else {
            return;
        };
        let (layer_end, entry_end) = (r.position(), r.position().saturating_add(4));
        for sealed in [layer_end - layer.len()..layer_end, at..entry_end] {
            match bytes.get_mut(sealed) {
                Some(sealed) => reseal(sealed),
                None => return,
            }
        }
        at = entry_end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QuantConfig;
    use crate::integrity::crc32;

    /// FNV-1a/64 of `bytes`: the digest of the format pins. Not the
    /// CRC-32 the formats are sealed with — a CRC over bytes that end in
    /// their own CRC is the constant residue `0x2144DF1C` whatever the
    /// content, so it would pin nothing.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// Format pin: the layer's bytes must not move. Digests computed at
    /// the commit before the byte codec was unified (`ca0882a`).
    #[test]
    fn layer_bytes_are_pinned_at_every_width() {
        const PINS: [u64; 8] = [
            0xcaea_b93f_bb38_1665,
            0x6a3b_a1db_749d_15a8,
            0xa492_1445_e792_5db9,
            0x8b83_ca47_16bc_250a,
            0x2480_a0c1_b237_09d7,
            0x3a08_7367_902e_89a8,
            0x1010_bd66_b00d_a082,
            0x0757_bd6e_8383_4f98,
        ];
        for (bits, pin) in (1u8..=8).zip(PINS) {
            let got = fnv1a(&sample_layer(997, bits).to_bytes());
            assert_eq!(got, pin, "width {bits}: {got:#018x}");
        }
    }

    /// Format pin for the archive framing (same parent commit).
    #[test]
    fn archive_bytes_are_pinned() {
        let mut archive = ModelArchive::new();
        archive.push("encoder.0.attention.query", sample_layer(600, 3)).unwrap();
        archive.push("encoder.0.intermediate", sample_layer(900, 4)).unwrap();
        archive.push("pooler", sample_layer(400, 2)).unwrap();
        assert_eq!(fnv1a(&archive.to_bytes()), 0x852c_5306_f0b1_f168);
        assert_eq!(fnv1a(&ModelArchive::new().to_bytes()), 0x75f9_81e4_7d33_3999);
        // Why the pins are not CRC-32s: sealed bytes always check to the
        // same residue.
        assert_eq!(crc32(&archive.to_bytes()[..16]), 0x2144_DF1C);
        assert_eq!(crc32(&sample_layer(64, 3).to_bytes()), 0x2144_DF1C);
    }

    fn sample_layer(n: usize, bits: u8) -> QuantizedLayer {
        let mut w: Vec<f32> = (0..n)
            .map(|i| ((i as f32) * 0.11).sin() * 0.05 + ((i as f32) * 0.007).cos() * 0.02)
            .collect();
        if n > 50 {
            w[3] = 1.5;
            w[n / 2] = -1.2;
        }
        QuantizedLayer::encode(&w, &QuantConfig::new(QuantMethod::Gobo, bits).unwrap()).unwrap()
    }

    #[test]
    fn layer_round_trip_every_width() {
        for bits in 1u8..=8 {
            let layer = sample_layer(997, bits);
            let restored = QuantizedLayer::from_bytes(&layer.to_bytes()).unwrap();
            assert_eq!(restored.decode(), layer.decode(), "width {bits}");
            assert_eq!(restored.bits(), bits);
            assert_eq!(restored.method(), QuantMethod::Gobo);
            assert_eq!(restored.outlier_count(), layer.outlier_count());
        }
    }

    #[test]
    fn serialized_size_tracks_accounting() {
        let layer = sample_layer(10_000, 3);
        let bytes = layer.to_bytes();
        assert_eq!(bytes.len(), layer.serialized_bytes());
        // The wire format differs from the accounting only by the header
        // representation (12-byte logical header vs 20 bytes + CRC on wire).
        assert_eq!(bytes.len(), layer.compressed_bytes() + 12);
    }

    #[test]
    fn rejects_wrong_magic_and_version() {
        let layer = sample_layer(100, 3);
        let mut bytes = layer.to_bytes().to_vec();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            QuantizedLayer::from_bytes(&bytes),
            Err(QuantError::CorruptPayload { what: "bad layer magic" })
        ));
        let mut bytes = layer.to_bytes().to_vec();
        bytes[4] = 99;
        assert!(matches!(
            QuantizedLayer::from_bytes(&bytes),
            Err(QuantError::CorruptPayload { what: "unsupported version" })
        ));
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let layer = sample_layer(300, 3);
        let bytes = layer.to_bytes();
        for cut in [0usize, 3, 7, 11, 15, bytes.len() / 2, bytes.len() - 1] {
            assert!(QuantizedLayer::from_bytes(&bytes[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn rejects_semantic_corruption() {
        let layer = sample_layer(300, 3);
        // Corrupt the outlier count upward.
        let mut bytes = layer.to_bytes().to_vec();
        bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(QuantizedLayer::from_bytes(&bytes).is_err());
        // Corrupt a centroid to NaN.
        let mut bytes = layer.to_bytes().to_vec();
        bytes[20..24].copy_from_slice(&f32::NAN.to_le_bytes());
        assert!(QuantizedLayer::from_bytes(&bytes).is_err());
    }

    #[test]
    fn archive_round_trip() {
        let mut archive = ModelArchive::new();
        archive.push("encoder.0.attention.query", sample_layer(600, 3)).unwrap();
        archive.push("encoder.0.intermediate", sample_layer(900, 4)).unwrap();
        archive.push("pooler", sample_layer(400, 3)).unwrap();
        let bytes = archive.to_bytes();
        assert_eq!(bytes.len(), archive.serialized_bytes());
        let restored = ModelArchive::from_bytes(&bytes).unwrap();
        assert_eq!(restored.len(), 3);
        for (name, layer) in archive.iter() {
            assert_eq!(restored.get(name).unwrap().decode(), layer.decode());
        }
        // Order preserved.
        let names: Vec<&str> = restored.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["encoder.0.attention.query", "encoder.0.intermediate", "pooler"]);
    }

    #[test]
    fn archive_rejects_duplicates_and_trailing_garbage() {
        let mut archive = ModelArchive::new();
        archive.push("a", sample_layer(100, 3)).unwrap();
        assert!(archive.push("a", sample_layer(100, 3)).is_err());

        let mut bytes = archive.to_bytes().to_vec();
        bytes.push(0);
        assert!(matches!(
            ModelArchive::from_bytes(&bytes),
            Err(QuantError::CorruptPayload { what: "trailing bytes after archive" })
        ));
    }

    #[test]
    fn empty_archive_round_trips() {
        let archive = ModelArchive::new();
        let restored = ModelArchive::from_bytes(&archive.to_bytes()).unwrap();
        assert!(restored.is_empty());
    }

    #[test]
    fn version_1_is_unsupported_and_no_downgrade_skips_the_checksum() {
        let mut archive = ModelArchive::new();
        archive.push("x", sample_layer(90, 3)).unwrap();
        let layer = sample_layer(120, 3).to_bytes().to_vec();
        let archive = archive.to_bytes().to_vec();
        type Parse = fn(&[u8]) -> bool;
        let cases: [(&str, Vec<u8>, Parse); 2] = [
            ("layer", layer, |b| QuantizedLayer::from_bytes(b).is_ok()),
            ("archive", archive, |b| ModelArchive::from_bytes(b).is_ok()),
        ];
        for (what, mut bytes, parses) in cases {
            assert!(parses(&bytes));
            bytes[4] = 1;
            assert!(!parses(&bytes), "{what}: version 1 must be unsupported");
            // A forged version byte must not buy a second, unchecked flip.
            for pos in 5..bytes.len() {
                let mut bad = bytes.clone();
                bad[pos] ^= 0x40;
                assert!(!parses(&bad), "{what}: downgrade + flip at byte {pos} accepted");
            }
        }
        let mut bytes = sample_layer(120, 3).to_bytes().to_vec();
        bytes[4] = 1;
        assert!(matches!(
            QuantizedLayer::from_bytes(&bytes),
            Err(QuantError::CorruptPayload { what: "unsupported version" })
        ));
    }

    #[test]
    fn v2_checksum_catches_every_single_byte_flip() {
        let layer = sample_layer(120, 3);
        let bytes = layer.to_bytes();
        for pos in 0..bytes.len() {
            let mut bad = bytes.to_vec();
            bad[pos] ^= 0x40;
            assert!(QuantizedLayer::from_bytes(&bad).is_err(), "flip at byte {pos} undetected");
        }

        let mut archive = ModelArchive::new();
        archive.push("x", sample_layer(90, 3)).unwrap();
        let bytes = archive.to_bytes();
        for pos in 0..bytes.len() {
            let mut bad = bytes.to_vec();
            bad[pos] ^= 0x40;
            assert!(ModelArchive::from_bytes(&bad).is_err(), "flip at byte {pos} undetected");
        }
    }

    #[test]
    fn v2_rejects_trailing_bytes_after_layer() {
        let layer = sample_layer(64, 3);
        let mut bytes = layer.to_bytes().to_vec();
        // Appending garbage invalidates the trailing CRC position.
        bytes.extend_from_slice(&[1, 2, 3]);
        assert!(QuantizedLayer::from_bytes(&bytes).is_err());
    }
}
