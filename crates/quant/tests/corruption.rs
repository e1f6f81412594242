//! Corruption-resistance tests for the v2 container format.
//!
//! The property under test: an arbitrary single-byte mutation or
//! truncation of a serialized layer or archive must be *rejected or
//! harmless* — parsing never panics, and an `Ok` parse must see
//! exactly the original content (re-encoding to canonical v2 bytes
//! reproduces the uncorrupted input). GOBO's decoded model is a
//! drop-in FP32 replacement, so silently-wrong weights are strictly
//! worse than a load failure.

use std::panic::{catch_unwind, AssertUnwindSafe};

use gobo_proto::codec::reseal;
use gobo_quant::container::{reseal_archive, ModelArchive};
use gobo_quant::integrity::crc32;
use gobo_quant::layer::QuantizedLayer;
use gobo_quant::packing;
use gobo_quant::{QuantConfig, QuantError, QuantMethod};
use proptest::prelude::*;

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

fn sample_archive() -> ModelArchive {
    let mut archive = ModelArchive::new();
    archive.push("encoder.0.attention.query", sample_layer(700, 3)).unwrap();
    archive.push("encoder.0.attention.key", sample_layer(350, 4)).unwrap();
    archive.push("pooler", sample_layer(123, 2)).unwrap();
    archive
}

/// Applies one mutation and classifies the parse. Returns an error
/// string describing the violation, if any.
fn check_layer_mutation(reference: &[u8], pos: usize, mask: u8) -> Result<(), String> {
    let mut bytes = reference.to_vec();
    bytes[pos] ^= mask;
    let outcome =
        catch_unwind(AssertUnwindSafe(|| QuantizedLayer::from_bytes(&bytes).map(|l| l.to_bytes())));
    match outcome {
        Err(_) => Err(format!("panic at byte {pos} mask {mask:#04x}")),
        Ok(Err(_)) => Ok(()),
        Ok(Ok(reencoded)) if reencoded.as_slice() == reference => Ok(()),
        Ok(Ok(_)) => Err(format!("silently different parse at byte {pos} mask {mask:#04x}")),
    }
}

fn check_archive_mutation(reference: &[u8], pos: usize, mask: u8) -> Result<(), String> {
    let mut bytes = reference.to_vec();
    bytes[pos] ^= mask;
    let outcome =
        catch_unwind(AssertUnwindSafe(|| ModelArchive::from_bytes(&bytes).map(|a| a.to_bytes())));
    match outcome {
        Err(_) => Err(format!("panic at byte {pos} mask {mask:#04x}")),
        Ok(Err(_)) => Ok(()),
        Ok(Ok(reencoded)) if reencoded.as_slice() == reference => Ok(()),
        Ok(Ok(_)) => Err(format!("silently different parse at byte {pos} mask {mask:#04x}")),
    }
}

proptest! {
    #[test]
    fn layer_single_byte_mutations_never_lie(
        // n stays above 2^bits + outliers so every width quantizes.
        n in 300usize..800,
        bits in 1u8..=8,
        pos_seed in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let reference = sample_layer(n, bits).to_bytes();
        let pos = (pos_seed % reference.len() as u64) as usize;
        if let Err(violation) = check_layer_mutation(&reference, pos, mask) {
            prop_assert!(false, "{}", violation);
        }
    }

    #[test]
    fn archive_single_byte_mutations_never_lie(pos_seed in any::<u64>(), mask in 1u8..=255) {
        let reference = sample_archive().to_bytes();
        let pos = (pos_seed % reference.len() as u64) as usize;
        if let Err(violation) = check_archive_mutation(&reference, pos, mask) {
            prop_assert!(false, "{}", violation);
        }
    }

    #[test]
    fn layer_truncations_always_rejected(n in 300usize..700, bits in 1u8..=8, cut_seed in any::<u64>()) {
        let reference = sample_layer(n, bits).to_bytes();
        let cut = (cut_seed % reference.len() as u64) as usize;
        let outcome = catch_unwind(AssertUnwindSafe(|| QuantizedLayer::from_bytes(&reference[..cut])));
        match outcome {
            Err(_) => prop_assert!(false, "panic on truncation to {} bytes", cut),
            Ok(parsed) => prop_assert!(parsed.is_err(), "truncation to {} bytes accepted", cut),
        }
    }
}

/// Exhaustive sweep on one representative layer and archive: every
/// byte position, three masks each. Complements the randomized
/// proptests with full positional coverage.
#[test]
fn exhaustive_single_byte_sweep() {
    let layer = sample_layer(257, 3).to_bytes();
    let archive = sample_archive().to_bytes();
    for pos in 0..layer.len() {
        for mask in [0x01u8, 0x40, 0xFF] {
            if let Err(violation) = check_layer_mutation(&layer, pos, mask) {
                panic!("layer: {violation}");
            }
        }
    }
    for pos in 0..archive.len() {
        for mask in [0x01u8, 0x40, 0xFF] {
            if let Err(violation) = check_archive_mutation(&archive, pos, mask) {
                panic!("archive: {violation}");
            }
        }
    }
}

/// Every truncation of an archive is rejected without a panic.
#[test]
fn archive_truncations_always_rejected() {
    let reference = sample_archive().to_bytes();
    for cut in 0..reference.len() {
        let outcome =
            catch_unwind(AssertUnwindSafe(|| ModelArchive::from_bytes(&reference[..cut])));
        match outcome {
            Err(_) => panic!("panic on truncation to {cut} bytes"),
            Ok(parsed) => assert!(parsed.is_err(), "truncation to {cut} bytes accepted"),
        }
    }
}

/// Two centroids swapped behind a fresh seal: every checksum holds and
/// every index would decode to a different value if the parser sorted
/// the table back under them. The table must be refused as stored.
#[test]
fn a_resealed_codebook_that_does_not_ascend_is_refused() {
    const CENTROIDS_AT: usize = 20; // the wire header; f32 centroids follow
    let refused = QuantError::CorruptPayload { what: "codebook not ascending" };

    let intact = sample_layer(700, 3).to_bytes();
    let mut layer = intact.to_vec();
    let (first, second) = layer[CENTROIDS_AT..CENTROIDS_AT + 8].split_at_mut(4);
    assert_ne!(first, second, "the sample's first two centroids differ");
    first.swap_with_slice(second);
    reseal(&mut layer);
    assert_eq!(QuantizedLayer::from_bytes(&layer).unwrap_err(), refused);

    // The same layer as the first entry of an archive.
    let mut archive = sample_archive().to_bytes().to_vec();
    let at = archive.windows(intact.len()).position(|w| w == &intact[..]).expect("first entry");
    archive[at..at + layer.len()].copy_from_slice(&layer);
    reseal_archive(&mut archive);
    assert_eq!(ModelArchive::from_bytes(&archive).unwrap_err(), refused);
}

/// A sealed 3-bit layer of `indices` over `centroids` with no outliers,
/// written field by field in the container's layout.
fn raw_layer(centroids: &[f32], indices: &[u8]) -> Vec<u8> {
    // Magic, version, method, bits = 3 and padding, from a real layer.
    let mut out = sample_layer(64, 3).to_bytes()[..8].to_vec();
    for len in [indices.len(), 0, centroids.len()] {
        out.extend_from_slice(&u32::try_from(len).unwrap().to_le_bytes());
    }
    for c in centroids {
        out.extend_from_slice(&c.to_le_bytes());
    }
    out.extend_from_slice(&packing::pack(indices, 3).unwrap());
    out.extend_from_slice(&[0; 4]);
    reseal(&mut out);
    out
}

/// A short codebook (5 of 8 centroids) leaves 3-bit indices that point
/// past it. One such index behind a fresh seal is refused, whichever
/// run of the index check it falls in, alone and as an archive entry.
#[test]
fn a_resealed_index_outside_a_short_codebook_is_refused() {
    let refused = QuantError::CorruptPayload { what: "index outside codebook" };
    let five = [-0.2f32, -0.1, 0.0, 0.1, 0.2];
    let indices: Vec<u8> = (0..700).map(|i| (i % 5) as u8).collect();
    let intact = raw_layer(&five, &indices);
    let layer = QuantizedLayer::from_bytes(&intact).unwrap();
    assert_eq!(layer.codebook().len(), 5);
    assert_eq!(layer.to_bytes(), intact, "a short codebook round-trips");

    let mut archive = ModelArchive::new();
    archive.push("encoder.0.attention.query", layer).unwrap();
    archive.push("pooler", sample_layer(123, 2)).unwrap();
    let archive = archive.to_bytes();
    let at = archive.windows(intact.len()).position(|w| w == &intact[..]).expect("first entry");

    for (position, bad) in [(0, 5u8), (255, 7), (256, 6), (699, 5)] {
        let mut pointed_past = indices.clone();
        pointed_past[position] = bad;
        let corrupt = raw_layer(&five, &pointed_past);
        assert_eq!(corrupt.len(), intact.len());
        assert_eq!(QuantizedLayer::from_bytes(&corrupt).unwrap_err(), refused, "index {position}");

        let mut archive = archive.clone();
        archive[at..at + corrupt.len()].copy_from_slice(&corrupt);
        reseal_archive(&mut archive);
        assert_eq!(ModelArchive::from_bytes(&archive).unwrap_err(), refused, "entry {position}");
    }
}

/// A full codebook (2^bits centroids) holds every index: a layer whose
/// indices are all the largest one parses and round-trips.
#[test]
fn a_full_codebook_accepts_its_largest_index() {
    let eight: Vec<f32> = (0..8u8).map(|c| f32::from(c) * 0.1 - 0.35).collect();
    let bytes = raw_layer(&eight, &[7; 700]);
    let layer = QuantizedLayer::from_bytes(&bytes).unwrap();
    assert_eq!(layer.decode(), vec![eight[7]; 700]);
    assert_eq!(layer.to_bytes(), bytes, "round-trip is byte-stable");
}

/// The trailing CRC in a v2 layer is the IEEE CRC-32 of everything
/// before it, matches the canonical check value, and round-trips.
#[test]
fn crc_round_trip_golden() {
    // CRC-32 (IEEE 802.3, reflected 0xEDB88320) check value.
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);

    let bytes = sample_layer(200, 3).to_bytes();
    let body_len = bytes.len() - 4;
    let stored = u32::from_le_bytes(bytes[body_len..].try_into().unwrap());
    assert_eq!(stored, crc32(&bytes[..body_len]), "trailing CRC covers the serialized body");
    let restored = QuantizedLayer::from_bytes(&bytes).unwrap();
    assert_eq!(restored.to_bytes(), bytes, "round-trip is byte-stable");

    let archive_bytes = sample_archive().to_bytes();
    let restored = ModelArchive::from_bytes(&archive_bytes).unwrap();
    assert_eq!(restored.to_bytes(), archive_bytes, "archive round-trip is byte-stable");
}
