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

/// CRC32 lookup table for the reflected IEEE polynomial `0xEDB88320`,
/// built at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32; // CAST: loop counter below 256
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

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
    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = !self.sum;
        for &byte in data {
            let [low, ..] = crc.to_le_bytes();
            // A `u8` index into 256 entries: the lookup cannot miss.
            let entry = TABLE.get(usize::from(low ^ byte)).copied().unwrap_or_default();
            crc = (crc >> 8) ^ entry;
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
            assert_eq!(crc.finish(), crc32(&data), "split at {split}");
        }
    }
}
