//! CRC-32: the one checksum that seals every binary format here.
//!
//! A decoded GOBO layer is supposed to be a bit-faithful stand-in for
//! the FP32 original, so a bit-flip inside `packed_indices` or the
//! codebook that still *parses* is the worst failure mode a format
//! has: wrong numbers at full speed. Every serialized layer, archive
//! entry, `.gobom` file and wire frame is therefore sealed with a
//! CRC-32 (IEEE/zlib polynomial, reflected) verified before any field
//! is interpreted ([`crate::codec::seal`] / [`crate::codec::unseal`]).
//! CRC-32 detects all single-bit and single-byte corruptions and any
//! burst up to 32 bits — the *accidental* storage and transport faults.
//! It is not a defence against a crafted payload, which seals itself
//! correctly: that is the count rule's job ([`crate::codec`]).

/// Bytes folded per step of [`Crc32::update`]'s main loop (slicing-by-16).
const LANES: usize = 16;

/// The slicing tables of Kounavis and Berry ("A Systematic Approach to
/// Building High Performance Software-Based CRC Generators", ISCC 2005)
/// for the reflected IEEE polynomial `0xEDB88320`, built at compile
/// time. `SLICES[k][i]` is the CRC register after byte `i` and then `k`
/// zero bytes, so `SLICES[0]` is the classic byte-at-a-time table and
/// the checksum of `LANES` bytes is the XOR of one lookup per byte.
#[allow(
    clippy::indexing_slicing,
    reason = "const evaluation: an out-of-range index is a build error"
)]
const SLICES: [[u32; 256]; LANES] = {
    let mut tables = [[0u32; 256]; LANES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32; // CAST: loop counter below 256
        let mut k = 0;
        while k < LANES {
            // One more byte through the register, bit by bit.
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
                bit += 1;
            }
            tables[k][i] = crc;
            k += 1;
        }
        i += 1;
    }
    tables
};

/// One table lookup. A `u8` index into 256 entries cannot miss, so the
/// compiler drops the bounds check.
#[inline(always)]
fn lookup(table: &[u32; 256], byte: u8) -> u32 {
    table.get(usize::from(byte)).copied().unwrap_or_default()
}

/// An incremental CRC-32 (IEEE, reflected — the zlib/PNG variant):
/// feeding the parts of a message one after another gives the checksum
/// of their concatenation, so a format whose sealed bytes are not
/// contiguous (the wire frame skips its length field) needs no copy.
/// The default value is the checksum of no bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Crc32 {
    /// The checksum of everything fed so far.
    sum: u32,
}

impl Crc32 {
    /// Feeds `data` into the checksum: `LANES` bytes a step, the running
    /// checksum XORed into the first four, then the tail byte by byte.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = !self.sum;
        let (chunks, tail) = data.as_chunks::<LANES>();
        for chunk in chunks {
            let [c0, c1, c2, c3] = crc.to_le_bytes();
            let [b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] = *chunk;
            let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &SLICES;
            crc = lookup(t15, b0 ^ c0)
                ^ lookup(t14, b1 ^ c1)
                ^ lookup(t13, b2 ^ c2)
                ^ lookup(t12, b3 ^ c3)
                ^ lookup(t11, b4)
                ^ lookup(t10, b5)
                ^ lookup(t9, b6)
                ^ lookup(t8, b7)
                ^ lookup(t7, b8)
                ^ lookup(t6, b9)
                ^ lookup(t5, b10)
                ^ lookup(t4, b11)
                ^ lookup(t3, b12)
                ^ lookup(t2, b13)
                ^ lookup(t1, b14)
                ^ lookup(t0, b15);
        }
        let [table, ..] = &SLICES;
        for &byte in tail {
            let [low, ..] = crc.to_le_bytes();
            crc = (crc >> 8) ^ lookup(table, low ^ byte);
        }
        self.sum = !crc;
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        self.sum
    }
}

/// Computes the CRC32 of `data` in one call.
///
/// The golden check value is `crc32(b"123456789") == 0xCBF43926`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::default();
    crc.update(data);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The specification [`Crc32::update`] must equal: one table lookup
    /// per byte.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc = (crc >> 8) ^ SLICES[0][usize::from(crc.to_le_bytes()[0] ^ byte)];
        }
        !crc
    }

    /// `len` bytes of a SplitMix64 stream seeded with `seed`.
    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn matches_the_bytewise_loop_at_every_length_and_offset() {
        let data = random_bytes(1, 128);
        for start in 0..64 {
            for len in 0..=64 {
                let part = &data[start..start + len];
                assert_eq!(crc32(part), bytewise(part), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn matches_the_bytewise_loop_on_random_buffers_up_to_64_kib() {
        for seed in 0..24u64 {
            let r = random_bytes(!seed, 2);
            // Seed 0 takes the whole 64 KiB, the others a random length below it.
            let len =
                if seed == 0 { 1 << 16 } else { usize::from(u16::from_le_bytes([r[0], r[1]])) };
            let data = random_bytes(seed, len);
            assert_eq!(crc32(&data), bytewise(&data), "seed {seed}, len {len}");
        }
    }

    #[test]
    fn golden_check_value() {
        // The canonical CRC32 check value used by every conforming
        // implementation (zlib, PNG, ISO 3309).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    }

    #[test]
    fn detects_every_single_byte_mutation() {
        let data: Vec<u8> = (0..257u32).map(|i| (i.wrapping_mul(151) >> 3) as u8).collect();
        let reference = crc32(&data);
        for pos in 0..data.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = data.clone();
                bad[pos] ^= flip;
                assert_ne!(crc32(&bad), reference, "mutation at {pos} ^ {flip:#x} undetected");
            }
        }
    }

    #[test]
    fn update_in_parts_equals_one_pass_at_every_split() {
        let data: Vec<u8> = (0..97u32).map(|i| (i.wrapping_mul(31) ^ 0x5A) as u8).collect();
        for split in 0..=data.len() {
            let mut crc = Crc32::default();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finish(), bytewise(&data), "split at {split}");
        }
    }
}
