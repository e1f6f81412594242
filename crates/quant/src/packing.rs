//! Bit-packing of centroid indices.
//!
//! G-group weights are stored as `bits`-wide indices (1–8 bits) packed
//! LSB-first into a byte stream. Packing is what turns "3-bit indexes"
//! from bookkeeping into an actual 10.67× raw size reduction.
//!
//! Both directions move a **64-bit word per memory operation**. Packing
//! absorbs values into a u128 bit accumulator and emits a full
//! little-endian u64 each time one fills; unpacking loads a u64 at the
//! byte holding the next element and shifts every whole value out of it
//! before loading again. The byte layout is that of the bytewise
//! formulation preserved in [`crate::oracle`] as the equivalence
//! oracle.

use bytes::{BufMut, Bytes, BytesMut};

use crate::error::QuantError;

/// Packs `bits`-wide values LSB-first into bytes.
///
/// Values must each fit in `bits` bits.
///
/// # Errors
///
/// Returns [`QuantError::UnsupportedBits`] unless `1 <= bits <= 8` and
/// [`QuantError::CorruptPayload`] when a value does not fit in `bits`.
///
/// # Example
///
/// ```
/// use gobo_quant::packing::{pack, unpack};
///
/// let indices = vec![1u8, 7, 3, 0, 5];
/// let packed = pack(&indices, 3)?;
/// assert_eq!(packed.len(), 2); // ⌈5·3/8⌉
/// assert_eq!(unpack(&packed, 3, indices.len())?, indices);
/// # Ok::<(), gobo_quant::QuantError>(())
/// ```
pub fn pack(values: &[u8], bits: u8) -> Result<Bytes, QuantError> {
    if !(1..=8).contains(&bits) {
        return Err(QuantError::UnsupportedBits { bits });
    }
    let mask = mask_for(bits);
    let mut out = BytesMut::with_capacity(packed_len(values.len(), bits));
    // The u128 accumulator always has room for one more value past the
    // 64-bit flush threshold (127 - 64 >= 8 = max width).
    let mut acc: u128 = 0;
    let mut acc_bits: u32 = 0;
    for &v in values {
        if v & !mask != 0 {
            return Err(QuantError::CorruptPayload { what: "value exceeds bit width" });
        }
        acc |= u128::from(v) << acc_bits;
        acc_bits += u32::from(bits);
        if acc_bits >= 64 {
            out.put_u64_le(acc as u64);
            acc >>= 64;
            acc_bits -= 64;
        }
    }
    while acc_bits > 0 {
        out.put_u8((acc & 0xFF) as u8);
        acc >>= 8;
        acc_bits = acc_bits.saturating_sub(8);
    }
    Ok(out.freeze())
}

/// Unpacks `count` `bits`-wide values from an LSB-first byte stream.
///
/// # Errors
///
/// Returns [`QuantError::UnsupportedBits`] unless `1 <= bits <= 8` and
/// [`QuantError::CorruptPayload`] when `packed` is too short for
/// `count` values.
pub fn unpack(packed: &[u8], bits: u8, count: usize) -> Result<Vec<u8>, QuantError> {
    let mut out = vec![0u8; count];
    unpack_run(packed, bits, 0, &mut out)?;
    Ok(out)
}

/// Unpacks `out.len()` `bits`-wide values starting at element `start`
/// of an LSB-first byte stream, without touching earlier elements.
///
/// This is the streaming workhorse behind compute-on-compressed
/// products: a kernel walking a weight matrix tile by tile asks for
/// exactly the index run it needs, at an arbitrary (non-byte-aligned)
/// element offset. Each u64 load yields a word's worth of values: after
/// the sub-byte shift (at most 7 bits) 57 bits of the word are valid,
/// so `57 / bits` whole values are shifted out of it before the next
/// load. The last loads of a stream, with fewer than 8 bytes left, are
/// zero-extended.
///
/// # Errors
///
/// Returns [`QuantError::UnsupportedBits`] unless `1 <= bits <= 8` and
/// [`QuantError::CorruptPayload`] when `packed` is too short for
/// elements `start .. start + out.len()`.
pub fn unpack_run(packed: &[u8], bits: u8, start: usize, out: &mut [u8]) -> Result<(), QuantError> {
    unpack_map(packed, bits, start, out, |index| index)
}

/// [`unpack_run`] with every index looked up in `lut` on its way out:
/// `out[i] = lut[index(start + i)]`, without an intermediate index
/// buffer. This is the tile decode of the compute-on-compressed GEMM.
///
/// # Errors
///
/// As [`unpack_run`].
pub fn unpack_run_lut(
    packed: &[u8],
    bits: u8,
    start: usize,
    lut: &[f32; 256],
    out: &mut [f32],
) -> Result<(), QuantError> {
    unpack_map(packed, bits, start, out, |index| lut[usize::from(index)])
}

fn unpack_map<T>(
    packed: &[u8],
    bits: u8,
    start: usize,
    out: &mut [T],
    map: impl Fn(u8) -> T,
) -> Result<(), QuantError> {
    if !(1..=8).contains(&bits) {
        return Err(QuantError::UnsupportedBits { bits });
    }
    let end = start
        .checked_add(out.len())
        .ok_or(QuantError::CorruptPayload { what: "element range overflow" })?;
    if packed.len() < packed_len(end, bits) {
        return Err(QuantError::CorruptPayload { what: "packed payload too short" });
    }
    match bits {
        1 => unpack_words::<1, T>(packed, start, out, map),
        2 => unpack_words::<2, T>(packed, start, out, map),
        3 => unpack_words::<3, T>(packed, start, out, map),
        4 => unpack_words::<4, T>(packed, start, out, map),
        5 => unpack_words::<5, T>(packed, start, out, map),
        6 => unpack_words::<6, T>(packed, start, out, map),
        7 => unpack_words::<7, T>(packed, start, out, map),
        _ => unpack_words::<8, T>(packed, start, out, map),
    }
    Ok(())
}

/// The unpack loop for one width, so every shift is a constant and the
/// per-word loop unrolls.
fn unpack_words<const BITS: usize, T>(
    packed: &[u8],
    start: usize,
    out: &mut [T],
    map: impl Fn(u8) -> T,
) {
    let mask = (1u64 << BITS) - 1;
    let mut bit = start * BITS;
    for run in out.chunks_mut(57 / BITS) {
        let tail = &packed[bit >> 3..];
        let mut word = match tail.first_chunk::<8>() {
            Some(bytes) => u64::from_le_bytes(*bytes),
            None => {
                let mut bytes = [0u8; 8];
                bytes[..tail.len()].copy_from_slice(tail);
                u64::from_le_bytes(bytes)
            }
        } >> (bit & 7);
        for slot in run.iter_mut() {
            *slot = map((word & mask) as u8);
            word >>= BITS;
        }
        bit += run.len() * BITS;
    }
}

/// Number of bytes needed to pack `count` values of `bits` width.
pub fn packed_len(count: usize, bits: u8) -> usize {
    (count * bits as usize).div_ceil(8)
}

fn mask_for(bits: u8) -> u8 {
    if bits == 8 {
        0xFF
    } else {
        (1u8 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_every_width() {
        for bits in 1u8..=8 {
            let max = if bits == 8 { 255u16 } else { (1u16 << bits) - 1 };
            let values: Vec<u8> = (0..1000u16).map(|i| ((i * 7) % (max + 1)) as u8).collect();
            let packed = pack(&values, bits).unwrap();
            assert_eq!(packed.len(), packed_len(values.len(), bits));
            let unpacked = unpack(&packed, bits, values.len()).unwrap();
            assert_eq!(unpacked, values, "width {bits}");
        }
    }

    #[test]
    fn three_bit_layout_is_lsb_first() {
        // values 0b001, 0b111 → byte 0 = 0b00_111_001 = 0x39.
        let packed = pack(&[1, 7], 3).unwrap();
        assert_eq!(packed[0], 0b0011_1001);
    }

    #[test]
    fn eight_bit_is_identity() {
        let values = vec![0u8, 255, 127, 1];
        let packed = pack(&values, 8).unwrap();
        assert_eq!(&packed[..], &values[..]);
    }

    #[test]
    fn rejects_oversized_values() {
        assert!(matches!(pack(&[8], 3), Err(QuantError::CorruptPayload { .. })));
        assert!(pack(&[7], 3).is_ok());
    }

    #[test]
    fn rejects_bad_widths() {
        assert!(pack(&[0], 0).is_err());
        assert!(pack(&[0], 9).is_err());
        assert!(unpack(&[0], 0, 1).is_err());
        assert!(unpack(&[0], 9, 1).is_err());
    }

    #[test]
    fn unpack_detects_truncation() {
        let packed = pack(&[1, 2, 3, 4, 5], 4).unwrap();
        assert!(unpack(&packed[..1], 4, 5).is_err());
        assert!(unpack(&packed, 4, 5).is_ok());
    }

    #[test]
    fn empty_input_packs_to_empty() {
        let packed = pack(&[], 3).unwrap();
        assert!(packed.is_empty());
        assert_eq!(unpack(&packed, 3, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn unpack_run_matches_full_unpack_at_every_offset() {
        let lut: [f32; 256] = std::array::from_fn(|i| i as f32 * 0.5 - 3.0);
        for bits in 1u8..=8 {
            let max = if bits == 8 { 255u16 } else { (1u16 << bits) - 1 };
            let values: Vec<u8> = (0..300u16).map(|i| ((i * 11) % (max + 1)) as u8).collect();
            let packed = pack(&values, bits).unwrap();
            // Every start: all 64 phases of a word, several times over.
            for start in 0..values.len() {
                for len in [0usize, 1, 5, 64, values.len() - start] {
                    if start + len > values.len() {
                        continue;
                    }
                    let mut out = vec![0u8; len];
                    unpack_run(&packed, bits, start, &mut out).unwrap();
                    assert_eq!(&out[..], &values[start..start + len], "bits {bits} @{start}+{len}");
                    let mut mapped = vec![0.0f32; len];
                    unpack_run_lut(&packed, bits, start, &lut, &mut mapped).unwrap();
                    let want: Vec<f32> = out.iter().map(|&i| lut[usize::from(i)]).collect();
                    assert_eq!(mapped, want, "lut, bits {bits} @{start}+{len}");
                }
            }
        }
    }

    #[test]
    fn unpack_run_detects_truncation() {
        let packed = pack(&[1, 2, 3, 4, 5], 4).unwrap(); // 3 bytes
        let mut out = [0u8; 2];
        assert!(unpack_run(&packed, 4, 5, &mut out).is_err()); // needs a 4th byte
        assert!(unpack_run(&packed, 4, 3, &mut out).is_ok());
        assert!(unpack_run(&packed[..1], 4, 1, &mut out).is_err());
        assert!(unpack_run(&packed, 0, 0, &mut out).is_err()); // bad width
        assert!(unpack_run(&packed, 9, 0, &mut out).is_err());
    }

    #[test]
    fn packed_len_formula() {
        assert_eq!(packed_len(0, 3), 0);
        assert_eq!(packed_len(1, 3), 1);
        assert_eq!(packed_len(8, 3), 3);
        assert_eq!(packed_len(3, 8), 3);
        assert_eq!(packed_len(9, 1), 2);
    }
}
