//! The byte codec under every binary format in the workspace: the layer
//! and archive container (`gobo-quant`), the raw model file
//! (`gobo-model`), the `.gobom` (`gobo`) and the wire frame
//! ([`crate::frame`]) are all read through [`ByteReader`], written into a
//! `Vec<u8>` through the little-endian put helpers ([`put_u32`],
//! [`put_u64`], [`put_f32`] and their length and bulk forms), and sealed
//! by [`seal`] / [`unseal`].
//!
//! # The count rule
//!
//! A CRC answers *accidental* corruption; a crafted payload seals itself
//! correctly. What bounds a crafted payload is one rule, for every
//! format:
//!
//! > **A count read from input is checked against the bytes actually
//! > remaining — with checked arithmetic — before anything is reserved
//! > for it.**
//!
//! [`ByteReader::counted`] is that check; [`ByteReader::u32s`] and
//! [`ByteReader::f32s`] apply it themselves. A header field that sizes
//! an allocation (the model file's geometry sizes its auxiliary tensors)
//! is a count like any other, and the element count of multi-dimensional
//! data is a checked fold over the dims, never a bare product. On the
//! write side a length is cast in one place ([`put_len16`] /
//! [`put_len32`]) and bounded where the value is created
//! (`ModelArchive::push`, `ModelConfig::validate`).

use crate::integrity::crc32;

/// Why a checked read stopped. Each format maps this into its own error
/// type; it carries no text, so the bulk paths format nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// A read, or a declared count, needs more bytes than remain.
    Truncated,
    /// Bytes remain after the last field.
    Trailing,
    /// A stored CRC-32 disagrees with the bytes it seals.
    Checksum,
    /// A name or string is not valid UTF-8.
    Utf8,
}

impl CodecError {
    /// What went wrong, for the format's own error to carry.
    pub fn what(self) -> &'static str {
        match self {
            CodecError::Truncated => "truncated: a field or declared count exceeds the bytes left",
            CodecError::Trailing => "trailing bytes after the last field",
            CodecError::Checksum => "checksum mismatch",
            CodecError::Utf8 => "string is not utf-8",
        }
    }
}

/// The workspace's one checked little-endian cursor over a byte slice.
/// No read panics, and none reserves memory for bytes that are not
/// there; every failure is [`CodecError::Truncated`] unless stated.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A cursor at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        ByteReader { data, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }

    /// Consumes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        let out = self.data.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        self.take(N)?.try_into().map_err(|_| CodecError::Truncated)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        self.array().map(|[b]| b)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a `u16` length or count (the twin of [`put_len16`]).
    pub fn len16(&mut self) -> Result<usize, CodecError> {
        self.array().map(|b| usize::from(u16::from_le_bytes(b)))
    }

    /// Reads a `u32` length or count (the twin of [`put_len32`]).
    pub fn len32(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u32()?).map_err(|_| CodecError::Truncated)
    }

    /// The count rule: hands `n` back only if `n` elements of at least
    /// `elem_size` bytes each can still be read (and `n * elem_size`
    /// does not overflow), so the caller may reserve for `n` afterwards.
    pub fn counted(&self, n: usize, elem_size: usize) -> Result<usize, CodecError> {
        match n.checked_mul(elem_size) {
            Some(need) if need <= self.remaining() => Ok(n),
            _ => Err(CodecError::Truncated),
        }
    }

    /// Reads `n` little-endian `u32`s in bulk, under the count rule.
    pub fn u32s(&mut self, n: usize) -> Result<Vec<u32>, CodecError> {
        Ok(self.words(n)?.iter().map(|w| u32::from_le_bytes(*w)).collect())
    }

    /// Reads `n` little-endian `f32`s in bulk (exact bit patterns),
    /// under the count rule.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, CodecError> {
        Ok(self.words(n)?.iter().map(|w| f32::from_le_bytes(*w)).collect())
    }

    /// Consumes `n` four-byte words; nothing is reserved until the
    /// bytes are known to be there.
    fn words(&mut self, n: usize) -> Result<&'a [[u8; 4]], CodecError> {
        let bytes = n.checked_mul(4).ok_or(CodecError::Truncated)?;
        Ok(self.take(bytes)?.as_chunks().0)
    }

    /// Consumes `n` bytes as UTF-8 ([`CodecError::Utf8`] if they are not).
    pub fn utf8(&mut self, n: usize) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.take(n)?).map_err(|_| CodecError::Utf8)
    }

    /// Reads a stored CRC-32 and verifies it against every byte from
    /// offset `from` up to the checksum itself ([`CodecError::Checksum`]
    /// on mismatch) — the in-stream form of [`unseal`], for a seal that
    /// is followed by more data.
    pub fn unseal_since(&mut self, from: usize) -> Result<(), CodecError> {
        let covered = self.data.get(from..self.pos).ok_or(CodecError::Truncated)?;
        if self.u32()? != crc32(covered) {
            return Err(CodecError::Checksum);
        }
        Ok(())
    }

    /// Succeeds only when every byte has been consumed
    /// ([`CodecError::Trailing`] otherwise).
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::Trailing);
        }
        Ok(())
    }
}

// Every put helper stays `#[inline]`: the formats write element by
// element through them, an out-of-line call per `f32` made the model
// file's writer several times slower, and inlining also compiles them at
// the calling crate's optimisation level.

/// Appends `v` little-endian.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` little-endian.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends the little-endian bytes of `v`'s exact bit pattern.
#[inline]
pub fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes a length or count as a `u16`. The bound is the caller's
/// invariant, enforced where the value is created; a value past it
/// saturates, so a reader meets a count whose bytes are not there and
/// refuses the file — never a wrapped count that parses as something
/// else.
#[inline]
pub fn put_len16(out: &mut Vec<u8>, len: usize) {
    out.extend_from_slice(&u16::try_from(len).unwrap_or(u16::MAX).to_le_bytes());
}

/// Writes a length or count as a `u32`; see [`put_len16`].
#[inline]
pub fn put_len32(out: &mut Vec<u8>, len: usize) {
    put_u32(out, u32::try_from(len).unwrap_or(u32::MAX));
}

/// Writes `values` as consecutive little-endian `u32`s.
#[inline]
pub fn put_u32s(out: &mut Vec<u8>, values: &[u32]) {
    for &v in values {
        put_u32(out, v);
    }
}

/// Writes `values` as consecutive little-endian `f32`s — exact bit
/// patterns: byte-identity with the in-memory value is an invariant of
/// every format.
#[inline]
pub fn put_f32s(out: &mut Vec<u8>, values: &[f32]) {
    for &v in values {
        put_f32(out, v);
    }
}

/// Seals `out[from..]`: appends the CRC-32 of every byte written since
/// offset `from`.
#[inline]
pub fn seal(out: &mut Vec<u8>, from: usize) {
    let crc = crc32(out.get(from..).unwrap_or_default());
    put_u32(out, crc);
}

/// Verify-then-strip: checks the trailing CRC-32 of `sealed` against
/// everything before it ([`CodecError::Checksum`] on mismatch) and
/// returns that body.
pub fn unseal(sealed: &[u8]) -> Result<&[u8], CodecError> {
    let mut r = ByteReader::new(sealed);
    let body = r.take(sealed.len().checked_sub(4).ok_or(CodecError::Truncated)?)?;
    r.unseal_since(0)?;
    Ok(body)
}

/// Rewrites the trailing CRC-32 of `sealed` to match the bytes before
/// it — what a fuzzer calls after editing a sealed buffer, so that the
/// mutation reaches the field parser instead of dying at the checksum.
/// Buffers shorter than a checksum are left alone.
pub fn reseal(sealed: &mut [u8]) {
    if let Some(body_len) = sealed.len().checked_sub(4) {
        let (body, tail) = sealed.split_at_mut(body_len);
        tail.copy_from_slice(&crc32(body).to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_reads_are_little_endian_and_advance() {
        let mut out = Vec::new();
        out.push(7);
        put_len16(&mut out, 0x0203);
        put_u32(&mut out, 0x0405_0607);
        put_u64(&mut out, 0x0809_0A0B_0C0D_0E0F);
        put_f32(&mut out, -1.5);
        let mut r = ByteReader::new(&out);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.len16(), Ok(0x0203));
        assert_eq!(r.u32(), Ok(0x0405_0607));
        assert_eq!(r.u64(), Ok(0x0809_0A0B_0C0D_0E0F));
        assert_eq!(r.f32s(1), Ok(vec![-1.5]));
        assert_eq!((r.position(), r.remaining()), (out.len(), 0));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn every_read_past_the_end_is_truncated_and_consumes_nothing() {
        let data = [1u8, 2, 3];
        let mut r = ByteReader::new(&data);
        assert_eq!(r.u32(), Err(CodecError::Truncated));
        assert_eq!(r.u64(), Err(CodecError::Truncated));
        assert_eq!(r.f32s(1), Err(CodecError::Truncated));
        assert_eq!(r.take(4), Err(CodecError::Truncated));
        assert_eq!(r.take(usize::MAX), Err(CodecError::Truncated));
        assert_eq!(r.position(), 0);
        assert_eq!(r.len16(), Ok(0x0201));
        assert_eq!(r.len16(), Err(CodecError::Truncated));
        assert_eq!(r.u8(), Ok(3));
        assert_eq!(r.u8(), Err(CodecError::Truncated));
    }

    #[test]
    fn counted_refuses_counts_whose_bytes_are_not_there() {
        let data = [0u8; 16];
        let r = ByteReader::new(&data);
        assert_eq!(r.counted(4, 4), Ok(4));
        assert_eq!(r.counted(16, 1), Ok(16));
        assert_eq!(r.counted(0, 1 << 40), Ok(0));
        assert_eq!(r.counted(5, 4), Err(CodecError::Truncated));
        assert_eq!(r.counted(u32::MAX as usize, 4), Err(CodecError::Truncated));
        // The product overflows `usize`: refused, not wrapped.
        assert_eq!(r.counted(usize::MAX, 8), Err(CodecError::Truncated));
        assert_eq!(r.counted(usize::MAX / 2 + 1, 2), Err(CodecError::Truncated));
    }

    #[test]
    fn bulk_reads_apply_the_count_rule_and_keep_bit_patterns() {
        let floats = [0.5f32, -0.0, f32::NAN, f32::MIN_POSITIVE / 2.0, f32::INFINITY];
        let mut out = Vec::new();
        put_f32s(&mut out, &floats);
        put_u32s(&mut out, &[1, u32::MAX, 0x0102_0304]);
        let mut r = ByteReader::new(&out);
        let got = r.f32s(floats.len()).unwrap();
        for (a, b) in got.iter().zip(&floats) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(r.u32s(3).unwrap(), vec![1, u32::MAX, 0x0102_0304]);
        assert_eq!(r.finish(), Ok(()));
        // A declared count past the end is refused before any reserve,
        // including one whose byte size overflows.
        let mut r = ByteReader::new(&out);
        assert_eq!(r.f32s(9), Err(CodecError::Truncated));
        assert_eq!(r.u32s(u32::MAX as usize), Err(CodecError::Truncated));
        assert_eq!(r.f32s(usize::MAX), Err(CodecError::Truncated));
        assert_eq!(r.position(), 0);
    }

    #[test]
    fn lengths_round_trip_and_saturate_instead_of_wrapping() {
        let mut out = Vec::new();
        put_len16(&mut out, 513);
        put_len32(&mut out, 70_000);
        put_len16(&mut out, usize::from(u16::MAX) + 2);
        put_len32(&mut out, usize::MAX);
        let mut r = ByteReader::new(&out);
        assert_eq!(r.len16(), Ok(513));
        assert_eq!(r.len32(), Ok(70_000));
        assert_eq!(r.len16(), Ok(usize::from(u16::MAX)));
        assert_eq!(r.len32(), Ok(u32::MAX as usize));
    }

    #[test]
    fn utf8_and_finish_report_their_own_errors() {
        let mut r = ByteReader::new(b"ok\xFF\xFEx");
        assert_eq!(r.utf8(2), Ok("ok"));
        assert_eq!(r.utf8(2), Err(CodecError::Utf8));
        assert_eq!(r.finish(), Err(CodecError::Trailing));
        assert_eq!(r.utf8(9), Err(CodecError::Truncated));
    }

    #[test]
    fn seal_unseal_and_reseal_agree() {
        let mut out = b"header".to_vec();
        let from = out.len();
        out.extend_from_slice(b"sealed body");
        seal(&mut out, from);
        // `unseal` covers a whole buffer, `unseal_since` a suffix of one.
        assert_eq!(unseal(&out[from..]), Ok(&b"sealed body"[..]));
        let mut r = ByteReader::new(&out);
        r.take(from + b"sealed body".len()).unwrap();
        assert_eq!(r.unseal_since(from), Ok(()));
        assert_eq!(r.finish(), Ok(()));

        for pos in from..out.len() {
            let mut bad = out[from..].to_vec();
            bad[pos - from] ^= 0x10;
            assert_eq!(unseal(&bad), Err(CodecError::Checksum), "flip at {pos}");
            // Re-sealing an edited body makes it verify again.
            reseal(&mut bad);
            assert!(unseal(&bad).is_ok());
        }
        assert_eq!(unseal(&[1, 2, 3]), Err(CodecError::Truncated));
        let mut short = [1u8, 2, 3];
        reseal(&mut short);
        assert_eq!(short, [1, 2, 3]);
        assert_eq!(unseal(&crc32(b"").to_le_bytes()), Ok(&[][..]));
    }
}
