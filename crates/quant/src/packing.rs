//! Bit-packing of centroid indices.
//!
//! G-group weights are stored as `bits`-wide indices (1–8 bits) packed
//! LSB-first into a byte stream. Packing is what turns "3-bit indexes"
//! from bookkeeping into an actual 10.67× raw size reduction.
//!
//! Packing absorbs values into a u128 bit accumulator and emits a full
//! little-endian u64 each time one fills. Unpacking reads **byte-aligned
//! groups**: eight consecutive `BITS`-bit indices occupy exactly `BITS`
//! bytes, so every group of a run starts at the same sub-byte offset, and
//! a group is one u64 load split by constant shifts. That one loop is
//! under [`unpack`], [`unpack_run`] and the compute-on-compressed row
//! decode (`GroupLut`); outside the test oracle, nothing else in the
//! crate extracts indices from the stream. The byte layout is that of the
//! bytewise formulation preserved in [`crate::oracle`] as the
//! equivalence oracle.

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
        // ARITH: acc_bits < 64 here, so the value lands inside the u128.
        acc |= u128::from(v) << acc_bits;
        acc_bits += u32::from(bits); // ARITH: at most 63 + 8.
        if acc_bits >= 64 {
            out.put_u64_le(acc as u64);
            acc >>= 64;
            acc_bits -= 64;
        }
    }
    while acc_bits > 0 {
        // CAST: masked to the low byte.
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
/// A kernel walking a weight matrix block by block asks for exactly the
/// index run it needs, at an arbitrary (non-byte-aligned) element
/// offset; the run is read in byte-aligned groups of eight (see the
/// [module docs](self)).
///
/// # Errors
///
/// Returns [`QuantError::UnsupportedBits`] unless `1 <= bits <= 8` and
/// [`QuantError::CorruptPayload`] when `packed` is too short for
/// elements `start .. start + out.len()`, or when that range's bit
/// offset does not fit in a `usize`.
pub fn unpack_run(packed: &[u8], bits: u8, start: usize, out: &mut [u8]) -> Result<(), QuantError> {
    if !(1..=8).contains(&bits) {
        return Err(QuantError::UnsupportedBits { bits });
    }
    let end_bit = start
        .checked_add(out.len())
        .and_then(|end| end.checked_mul(usize::from(bits)))
        .ok_or(QuantError::CorruptPayload { what: "element range overflow" })?;
    if packed.len() < end_bit.div_ceil(8) {
        return Err(QuantError::CorruptPayload { what: "packed payload too short" });
    }
    match bits {
        1 => unpack_groups::<1, u8>(packed, start, out, indices::<1>),
        2 => unpack_groups::<2, u8>(packed, start, out, indices::<2>),
        3 => unpack_groups::<3, u8>(packed, start, out, indices::<3>),
        4 => unpack_groups::<4, u8>(packed, start, out, indices::<4>),
        5 => unpack_groups::<5, u8>(packed, start, out, indices::<5>),
        6 => unpack_groups::<6, u8>(packed, start, out, indices::<6>),
        7 => unpack_groups::<7, u8>(packed, start, out, indices::<7>),
        _ => unpack_groups::<8, u8>(packed, start, out, indices::<8>),
    }
    Ok(())
}

/// The eight indices of a phase-shifted group.
#[inline(always)]
fn indices<const BITS: usize>(word: u64) -> [u8; 8] {
    // CAST: `index` is masked to BITS <= 8 bits.
    std::array::from_fn(|i| index::<BITS>(word, i) as u8)
}

/// A codebook laid out for decoding `BITS`-wide indices a group at a
/// time: [`GroupLut::unpack_run`] writes `lut[index]` for every index of
/// a run. Built on the stack once per product from
/// [`Codebook::lut`](crate::codebook::Codebook::lut); never held.
pub(crate) struct GroupLut<const BITS: usize> {
    /// The codebook by index, read eight times a group (`BITS > 4`).
    single: [f32; 256],
    /// For `BITS <= 4`, entry `lo | hi << BITS` is `[lut[lo], lut[hi]]`:
    /// a group is four `2·BITS`-bit codes, so four lookups.
    pairs: [[f32; 2]; 256],
}

impl<const BITS: usize> GroupLut<BITS> {
    pub(crate) fn new(lut: &[f32; 256]) -> Self {
        let mut pairs = [[0.0; 2]; 256];
        if BITS <= 4 {
            // ARITH: 2·BITS <= 8, so the codes are exactly the 256 entries
            // (or fewer).
            let codes = 1usize << (2 * BITS);
            for (code, pair) in pairs.iter_mut().enumerate().take(codes) {
                *pair = [lut[code & mask::<BITS>()], lut[code >> BITS]];
            }
        }
        GroupLut { single: *lut, pairs }
    }

    /// `out[i] = lut[index(start + i)]`.
    ///
    /// The caller has checked that `packed` holds every element of
    /// `start .. start + out.len()`: a run past the payload's end panics
    /// or decodes the zero-extension, it is not reported.
    pub(crate) fn unpack_run(&self, packed: &[u8], start: usize, out: &mut [f32]) {
        unpack_groups::<BITS, f32>(packed, start, out, |word| self.group(word));
    }

    /// The eight codebook values of a phase-shifted group.
    #[inline(always)]
    fn group(&self, word: u64) -> [f32; 8] {
        if BITS > 4 {
            return std::array::from_fn(|i| self.single[index::<BITS>(word, i)]);
        }
        let mut group = [0.0; 8];
        for (j, pair) in group.as_chunks_mut::<2>().0.iter_mut().enumerate() {
            // ARITH: j < 4 and BITS <= 4, so the shift is below 32.
            let code = (word >> (2 * BITS * j)) & ((1 << (2 * BITS)) - 1);
            *pair = self.pairs[code as usize];
        }
        group
    }
}

/// The one bit-extraction loop: element `start + i` of the stream goes
/// through `group` into `out[i]`, eight at a time. Eight `BITS`-bit
/// indices span exactly `BITS` bytes, so every group of the run starts
/// at the run's phase, `start·BITS mod 8`: a group is one u64 load at a
/// byte boundary shifted right by the phase (`8·BITS + 7 <= 64` bits, so
/// it fits), and `group` splits its low `8·BITS` bits with constant
/// shifts. A load with fewer than 8 bytes left is zero-extended.
///
/// The caller has checked that `start·BITS` does not overflow and that
/// `packed` holds `start .. start + out.len()`.
#[inline(always)]
fn unpack_groups<const BITS: usize, T: Copy>(
    packed: &[u8],
    start: usize,
    out: &mut [T],
    group: impl Fn(u64) -> [T; 8],
) {
    // ARITH: start·BITS <= 8 × packed.len() by the caller's check.
    let bit = start * BITS;
    let phase = bit % 8;
    let mut bytes = &packed[bit / 8..];
    let (whole, rest) = out.as_chunks_mut::<8>();
    for g in whole {
        *g = group(load(bytes) >> phase);
        // The group ended inside the payload, so `BITS` bytes remain.
        bytes = &bytes[BITS..];
    }
    if !rest.is_empty() {
        let n = rest.len();
        rest.copy_from_slice(&group(load(bytes) >> phase)[..n]);
    }
}

/// The little-endian u64 at the head of `bytes`, zero-extended past
/// their end.
#[inline(always)]
fn load(bytes: &[u8]) -> u64 {
    match bytes.first_chunk::<8>() {
        Some(head) => u64::from_le_bytes(*head),
        None => {
            let mut head = [0u8; 8];
            head[..bytes.len()].copy_from_slice(bytes);
            u64::from_le_bytes(head)
        }
    }
}

/// Index `i` (< 8) of a phase-shifted group.
#[inline(always)]
fn index<const BITS: usize>(word: u64, i: usize) -> usize {
    // ARITH: i < 8 and BITS <= 8, so the shift is below 64.
    ((word >> (i * BITS)) as usize) & mask::<BITS>()
}

const fn mask<const BITS: usize>() -> usize {
    // ARITH: BITS <= 8.
    (1 << BITS) - 1
}

/// Number of bytes needed to pack `count` values of `bits` width.
///
/// Saturates: a count whose bit length overflows a `usize` needs more
/// bytes than any payload holds.
pub fn packed_len(count: usize, bits: u8) -> usize {
    count.saturating_mul(usize::from(bits)).div_ceil(8)
}

fn mask_for(bits: u8) -> u8 {
    if bits == 8 {
        0xFF
    } else {
        // ARITH: bits < 8 here.
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

    /// Every start (all eight group phases, many times over) and run
    /// lengths on both sides of a whole group, through both outputs of
    /// the one loop: indices and codebook values.
    fn unpack_run_matches_full_unpack<const BITS: usize>() {
        let bits = BITS as u8;
        let lut: [f32; 256] = std::array::from_fn(|i| i as f32 * 0.5 - 3.0);
        let table = GroupLut::<BITS>::new(&lut);
        let max = if bits == 8 { 255u16 } else { (1u16 << bits) - 1 };
        let values: Vec<u8> = (0..300u16).map(|i| ((i * 11) % (max + 1)) as u8).collect();
        let packed = pack(&values, bits).unwrap();
        for start in 0..values.len() {
            for len in [0usize, 1, 5, 8, 9, 64, values.len() - start] {
                if start + len > values.len() {
                    continue;
                }
                let mut out = vec![0u8; len];
                unpack_run(&packed, bits, start, &mut out).unwrap();
                assert_eq!(&out[..], &values[start..start + len], "bits {bits} @{start}+{len}");
                let mut mapped = vec![0.0f32; len];
                table.unpack_run(&packed, start, &mut mapped);
                let want: Vec<f32> = out.iter().map(|&i| lut[usize::from(i)]).collect();
                assert_eq!(mapped, want, "lut, bits {bits} @{start}+{len}");
            }
        }
    }

    #[test]
    fn unpack_run_matches_full_unpack_at_every_offset() {
        unpack_run_matches_full_unpack::<1>();
        unpack_run_matches_full_unpack::<2>();
        unpack_run_matches_full_unpack::<3>();
        unpack_run_matches_full_unpack::<4>();
        unpack_run_matches_full_unpack::<5>();
        unpack_run_matches_full_unpack::<6>();
        unpack_run_matches_full_unpack::<7>();
        unpack_run_matches_full_unpack::<8>();
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

    /// A start whose bit offset overflows a `usize` is corrupt, in the
    /// release build (where the product would wrap to a small offset
    /// inside the payload) as in the debug one.
    #[test]
    fn unpack_run_rejects_overflowing_start() {
        for bits in 1u8..=8 {
            let max = if bits == 8 { 255u16 } else { (1u16 << bits) - 1 };
            let values: Vec<u8> = (0..64u16).map(|i| (i % (max + 1)) as u8).collect();
            let packed = pack(&values, bits).unwrap();
            // The first start whose bit offset overflows (there is none at
            // one bit), and one where `start + len` itself overflows.
            let first_overflowing = (usize::MAX / usize::from(bits)).checked_add(1);
            for start in first_overflowing.into_iter().chain([usize::MAX - 1]) {
                let mut out = [0u8; 4];
                assert!(
                    matches!(
                        unpack_run(&packed, bits, start, &mut out),
                        Err(QuantError::CorruptPayload { .. })
                    ),
                    "bits {bits} start {start}"
                );
            }
        }
    }

    #[test]
    fn packed_len_formula() {
        assert_eq!(packed_len(0, 3), 0);
        assert_eq!(packed_len(1, 3), 1);
        assert_eq!(packed_len(8, 3), 3);
        assert_eq!(packed_len(3, 8), 3);
        assert_eq!(packed_len(9, 1), 2);
        assert_eq!(packed_len(usize::MAX, 3), usize::MAX.div_ceil(8));
    }
}
