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

use bytes::{BufMut, Bytes, BytesMut};

use crate::codebook::{Codebook, ConvergenceTrace};
use crate::config::QuantMethod;
use crate::error::QuantError;
use crate::integrity::crc32;
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
        _ => return Err(QuantError::CorruptPayload { what: "unknown method tag" }),
    })
}

/// Cursor over a byte slice with checked reads.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], QuantError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(QuantError::CorruptPayload { what: "truncated payload" })?;
        let out = self
            .data
            .get(self.pos..end)
            .ok_or(QuantError::CorruptPayload { what: "truncated payload" })?;
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, QuantError> {
        self.take(1)?
            .first()
            .copied()
            .ok_or(QuantError::CorruptPayload { what: "truncated payload" })
    }

    fn u16(&mut self) -> Result<u16, QuantError> {
        Ok(u16::from_le_bytes(array(self.take(2)?)?))
    }

    fn u32(&mut self) -> Result<u32, QuantError> {
        Ok(u32::from_le_bytes(array(self.take(4)?)?))
    }

    fn f32(&mut self) -> Result<f32, QuantError> {
        Ok(f32::from_le_bytes(array(self.take(4)?)?))
    }

    fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }
}

/// Checked fixed-size conversion for multi-byte reads.
fn array<const N: usize>(bytes: &[u8]) -> Result<[u8; N], QuantError> {
    <[u8; N]>::try_from(bytes).map_err(|_| QuantError::CorruptPayload { what: "truncated payload" })
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
    pub fn to_bytes(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(self.serialized_bytes());
        out.put_u32_le(LAYER_MAGIC);
        out.put_u8(FORMAT_VERSION);
        out.put_u8(method_tag(self.method()));
        out.put_u8(self.bits());
        out.put_u8(0); // padding / reserved
        out.put_u32_le(self.total() as u32);
        out.put_u32_le(self.outlier_count() as u32);
        out.put_u32_le(self.codebook().len() as u32);
        for &c in self.codebook().centroids() {
            out.put_f32_le(c);
        }
        let (positions, values) = self.outliers();
        for &p in positions {
            out.put_u32_le(p);
        }
        for &v in values {
            out.put_f32_le(v);
        }
        out.put_slice(self.packed_indices());
        let crc = crc32(&out);
        out.put_u32_le(crc);
        out.freeze()
    }

    /// Deserializes a layer from the container format. The payload is
    /// checksum-verified before any field is interpreted.
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
            QuantError::CorruptPayload { what: "injected container.layer.parse fault" }
        );
        let mut r = Reader::new(data);
        if r.u32()? != LAYER_MAGIC {
            return Err(QuantError::CorruptPayload { what: "bad layer magic" });
        }
        if r.u8()? != FORMAT_VERSION {
            return Err(QuantError::CorruptPayload { what: "unsupported version" });
        }
        let Some(body_len) = data.len().checked_sub(4).filter(|&n| n >= 5) else {
            return Err(QuantError::CorruptPayload { what: "truncated payload" });
        };
        let (body, tail) = (data.get(..body_len), data.get(body_len..));
        let (Some(body), Some(tail)) = (body, tail) else {
            return Err(QuantError::CorruptPayload { what: "truncated payload" });
        };
        let stored = u32::from_le_bytes(array(tail)?);
        if crc32(body) != stored {
            return Err(QuantError::CorruptPayload { what: "layer checksum mismatch" });
        }
        let mut r = Reader::new(body);
        let _header = r.take(5)?; // magic + version, already checked
        let layer = Self::parse_body(&mut r)?;
        if r.remaining() != 0 {
            return Err(QuantError::CorruptPayload { what: "trailing bytes after layer" });
        }
        Ok(layer)
    }

    /// Parses the layer fields following the magic+version prefix.
    fn parse_body(r: &mut Reader<'_>) -> Result<Self, QuantError> {
        let method = method_from_tag(r.u8()?)?;
        let bits = r.u8()?;
        if !(1..=8).contains(&bits) {
            return Err(QuantError::CorruptPayload { what: "bits out of range" });
        }
        let _pad = r.u8()?;
        let total = r.u32()? as usize;
        let outliers = r.u32()? as usize;
        if outliers > total {
            return Err(QuantError::CorruptPayload { what: "more outliers than weights" });
        }
        let codebook_len = r.u32()? as usize;
        // ARITH: `bits` is validated to 1..=8 above, so the shift is
        // at most 1 << 8 = 256.
        if codebook_len == 0 || codebook_len > 1 << bits {
            return Err(QuantError::CorruptPayload {
                what: "codebook size inconsistent with bits",
            });
        }
        let mut centroids = Vec::with_capacity(codebook_len);
        for _ in 0..codebook_len {
            let c = r.f32()?;
            if !c.is_finite() {
                return Err(QuantError::CorruptPayload { what: "non-finite centroid" });
            }
            centroids.push(c);
        }
        let mut positions = Vec::with_capacity(outliers);
        for _ in 0..outliers {
            positions.push(r.u32()?);
        }
        if positions.iter().zip(positions.iter().skip(1)).any(|(a, b)| a >= b) {
            return Err(QuantError::CorruptPayload { what: "outlier positions not ascending" });
        }
        if positions.last().is_some_and(|&p| p as usize >= total) {
            return Err(QuantError::CorruptPayload { what: "outlier position out of range" });
        }
        let mut values = Vec::with_capacity(outliers);
        for _ in 0..outliers {
            let v = r.f32()?;
            if !v.is_finite() {
                return Err(QuantError::CorruptPayload { what: "non-finite outlier" });
            }
            values.push(v);
        }
        let g_count = total - outliers;
        let packed_len = packing::packed_len(g_count, bits);
        let packed = r.take(packed_len)?;
        // Validate that every index decodes inside the codebook.
        let assignments = packing::unpack(packed, bits, g_count)?;
        if assignments.iter().any(|&a| a as usize >= codebook_len) {
            return Err(QuantError::CorruptPayload { what: "index outside codebook" });
        }
        let codebook = Codebook::new(centroids)?;
        Ok(QuantizedLayer::from_parts(
            method,
            bits,
            total,
            codebook,
            Bytes::copy_from_slice(packed),
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
    pub fn to_bytes(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(self.serialized_bytes());
        out.put_u32_le(ARCHIVE_MAGIC);
        out.put_u8(FORMAT_VERSION);
        out.put_slice(&[0u8; 3]);
        out.put_u32_le(self.entries.len() as u32);
        let header_crc = crc32(&out);
        out.put_u32_le(header_crc);
        for (name, layer) in &self.entries {
            let entry_start = out.len();
            let payload = layer.to_bytes();
            out.put_u16_le(name.len() as u16);
            out.put_slice(name.as_bytes());
            out.put_u32_le(payload.len() as u32);
            out.put_slice(&payload);
            let crc = crc32(out.get(entry_start..).unwrap_or_default());
            out.put_u32_le(crc);
        }
        out.freeze()
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
            QuantError::CorruptPayload { what: "injected container.archive.parse fault" }
        );
        let mut r = Reader::new(data);
        if r.u32()? != ARCHIVE_MAGIC {
            return Err(QuantError::CorruptPayload { what: "bad archive magic" });
        }
        if r.u8()? != FORMAT_VERSION {
            return Err(QuantError::CorruptPayload { what: "unsupported version" });
        }
        let _pad = r.take(3)?;
        let count = r.u32()? as usize;
        if r.u32()? != crc32(data.get(..12).unwrap_or_default()) {
            return Err(QuantError::CorruptPayload { what: "archive header checksum mismatch" });
        }
        let mut archive = ModelArchive::new();
        for _ in 0..count {
            let entry_start = r.pos;
            let name_len = r.u16()? as usize;
            let name = std::str::from_utf8(r.take(name_len)?)
                .map_err(|_| QuantError::CorruptPayload { what: "layer name not utf-8" })?
                .to_owned();
            let layer_len = r.u32()? as usize;
            let layer_bytes = r.take(layer_len)?;
            let entry_end = r.pos;
            let stored = r.u32()?;
            let entry = data.get(entry_start..entry_end).unwrap_or_default();
            if crc32(entry) != stored {
                return Err(QuantError::CorruptPayload { what: "entry checksum mismatch" });
            }
            let layer = QuantizedLayer::from_bytes(layer_bytes)?;
            archive.push(name, layer)?;
        }
        if r.remaining() != 0 {
            return Err(QuantError::CorruptPayload { what: "trailing bytes after archive" });
        }
        Ok(archive)
    }
}

impl FromIterator<(String, QuantizedLayer)> for ModelArchive {
    /// Collects named layers; later duplicates are dropped.
    fn from_iter<I: IntoIterator<Item = (String, QuantizedLayer)>>(iter: I) -> Self {
        let mut archive = ModelArchive::new();
        for (name, layer) in iter {
            let _ = archive.push(name, layer);
        }
        archive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QuantConfig;

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
