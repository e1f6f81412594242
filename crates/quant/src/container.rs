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
//!          | crc:u32                       (v2: CRC32 of all preceding bytes)
//! archive := magic:u32 "GOBa" | version:u8 | pad:[u8;3] | entries:u32
//!          | header_crc:u32                (v2: CRC32 of the 12 header bytes)
//!          | entry*
//! entry   := name_len:u16 | name:utf8 | layer_len:u32 | layer
//!          | crc:u32                       (v2: CRC32 of the entry's bytes)
//! ```
//!
//! Format **v2** seals each layer and each archive entry with a CRC32
//! ([`crate::integrity`]) verified *before* any field is interpreted,
//! so a bit-flip in `packed_indices` or the codebook can no longer
//! decode to silently-wrong weights. Writers always emit v2; v1
//! payloads (no checksum) remain readable but are counted by
//! [`unverified_loads`] and warned about at archive granularity.

use std::sync::atomic::{AtomicU64, Ordering};

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
/// Current format version: CRC32 per layer and per archive entry.
pub const FORMAT_VERSION: u8 = 2;
/// The pre-checksum format, still readable (but unverifiable).
pub const LEGACY_FORMAT_VERSION: u8 = 1;

/// Count of v1 (checksum-less) objects loaded by this process.
static UNVERIFIED: AtomicU64 = AtomicU64::new(0);

/// Number of legacy v1 layers/archives this process has deserialized.
/// v1 payloads carry no checksum, so their integrity cannot be
/// verified; re-encode with a current writer to upgrade them.
pub fn unverified_loads() -> u64 {
    UNVERIFIED.load(Ordering::Relaxed)
}

fn note_unverified(what: &str, warn: bool) {
    UNVERIFIED.fetch_add(1, Ordering::Relaxed);
    if warn {
        eprintln!("gobo-quant: warning: {what} is format v1 (no checksum); integrity unverified");
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
    /// Serializes the layer to the container format (v2: trailing CRC32
    /// over everything preceding it).
    pub fn to_bytes(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(self.compressed_bytes().saturating_add(24));
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

    /// Deserializes a layer from the container format.
    ///
    /// v2 payloads are checksum-verified before any field is
    /// interpreted; v1 payloads parse as before but count toward
    /// [`unverified_loads`].
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
        match r.u8()? {
            LEGACY_FORMAT_VERSION => {
                // v1 historically tolerated trailing bytes; keep that.
                note_unverified("layer", false);
                Self::parse_body(&mut r)
            }
            FORMAT_VERSION => {
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
            _ => Err(QuantError::CorruptPayload { what: "unsupported version" }),
        }
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

    /// Total serialized size in bytes (v2 layout: each entry carries a
    /// trailing CRC32).
    pub fn serialized_bytes(&self) -> usize {
        let entries: usize = self
            .entries
            .iter()
            .map(|(n, l)| 2 + n.len() + 4 + l.to_bytes().len() + 4) // ARITH: live buffer lengths
            .sum();
        16 + entries // ARITH: sums lengths of live in-memory entries, < isize::MAX
    }

    /// Serializes the archive (v2: a CRC32 seals every entry).
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

    /// Deserializes an archive. v2 entries are checksum-verified before
    /// their layer payloads are parsed; v1 archives load with a warning
    /// on stderr and count toward [`unverified_loads`].
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
        let verified = match r.u8()? {
            LEGACY_FORMAT_VERSION => {
                note_unverified("archive", true);
                false
            }
            FORMAT_VERSION => true,
            _ => return Err(QuantError::CorruptPayload { what: "unsupported version" }),
        };
        let _pad = r.take(3)?;
        let count = r.u32()? as usize;
        if verified && r.u32()? != crc32(data.get(..12).unwrap_or_default()) {
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
            if verified {
                let stored = r.u32()?;
                let entry = data.get(entry_start..entry_end).unwrap_or_default();
                if crc32(entry) != stored {
                    return Err(QuantError::CorruptPayload { what: "entry checksum mismatch" });
                }
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
        // The wire format differs from the accounting only by the header
        // representation (12-byte logical header vs 20 bytes on wire).
        let accounted = layer.compressed_bytes();
        assert!(
            (bytes.len() as i64 - accounted as i64).unsigned_abs() < 16,
            "wire {} vs accounted {}",
            bytes.len(),
            accounted
        );
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
    fn legacy_v1_payloads_still_load_and_are_counted() {
        // Nothing writes v1 any more: the fixtures are `sample_layer(300, 4)`
        // and a three-entry archive as the last v1 writer serialized them
        // (the same pair `tests/corruption.rs` checks from outside).
        let layer = sample_layer(300, 4);
        let before = unverified_loads();
        let restored =
            QuantizedLayer::from_bytes(include_bytes!("../tests/fixtures/layer_v1.bin")).unwrap();
        assert_eq!(restored.to_bytes(), layer.to_bytes());

        let restored =
            ModelArchive::from_bytes(include_bytes!("../tests/fixtures/archive_v1.bin")).unwrap();
        assert_eq!(restored.len(), 3);
        assert_eq!(restored.get("pooler").unwrap().decode(), sample_layer(123, 2).decode());
        // 1 standalone layer + 1 archive + 3 layers inside it.
        assert!(unverified_loads() >= before + 5);
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
