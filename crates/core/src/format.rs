//! The compressed-model file format (`.gobom`).
//!
//! ```text
//! file := magic:u32 "GOBM" | version:u8 | pad:[u8;3]
//!       | skeleton_len:u32 | skeleton (gobo-model io format: config,
//!             aux tensors, and the weights the archive does not carry)
//!       | archive_len:u32 | archive (gobo-quant container format)
//!       | crc:u32            (CRC32 of every preceding byte)
//! ```
//!
//! The trailing CRC32 seals the whole file (on top of the per-layer and
//! per-entry checksums inside the archive), so any single-byte
//! corruption of a `.gobom` on disk is rejected before a single weight
//! is interpreted. Framing, seal and section lengths go through
//! [`gobo_proto::codec`] like the two formats nested inside; what
//! answers a *crafted*, correctly sealed file is that module's count
//! rule, applied by each section's own parser.
//!
//! Every quantizable weight lives on exactly one side. The skeleton is
//! a [`TransformerModel`] that *holds* the config, the FP32 auxiliary
//! parameters (biases, LayerNorms) and only those weights the archive
//! does not cover (e.g. embeddings when only FC weights were
//! quantized); an archived weight is absent from it, not zeroed. The
//! archive carries the compressed weights.

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

use std::collections::BTreeSet;

use gobo_model::io::{load_model_partial, save_model, save_model_len};
use gobo_model::{ModelError, TransformerModel};
use gobo_proto::codec::{put_len32, put_u32, reseal, seal, unseal, ByteReader, CodecError};
use gobo_quant::container::{reseal_archive, ModelArchive};
use gobo_quant::QuantError;
use gobo_tensor::Tensor;

/// Magic prefix of a compressed model file.
pub const COMPRESSED_MAGIC: u32 = u32::from_le_bytes(*b"GOBM");
/// Compressed-model format version: whole-file trailing CRC32.
pub const COMPRESSED_FORMAT_VERSION: u8 = 2;
/// Bytes of a `.gobom` outside its two sections: magic (4), version
/// (1), pad (3), the two section lengths (4 each) and the trailing
/// CRC32 (4).
const FRAMING_BYTES: usize = 20;

/// Error raised by compressed-model (de)serialization.
#[derive(Debug)]
pub enum FormatError {
    /// The payload was structurally invalid.
    Corrupt(&'static str),
    /// A model-side failure (shapes, config).
    Model(ModelError),
    /// A quantization-container failure.
    Quant(QuantError),
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::Corrupt(what) => write!(f, "corrupt compressed model: {what}"),
            FormatError::Model(e) => write!(f, "model failure: {e}"),
            FormatError::Quant(e) => write!(f, "container failure: {e}"),
        }
    }
}

impl std::error::Error for FormatError {}

impl From<CodecError> for FormatError {
    fn from(e: CodecError) -> Self {
        FormatError::Corrupt(e.what())
    }
}

impl From<ModelError> for FormatError {
    fn from(e: ModelError) -> Self {
        FormatError::Model(e)
    }
}

impl From<QuantError> for FormatError {
    fn from(e: QuantError) -> Self {
        FormatError::Quant(e)
    }
}

/// A compressed model: configuration + FP32 auxiliary parameters +
/// quantized layers.
#[derive(Debug, Clone)]
pub struct CompressedModel {
    /// Skeleton model holding the configuration, the auxiliary (bias /
    /// LayerNorm) parameters and the weights the archive does not
    /// carry. Archived weights are absent from it.
    pub skeleton: TransformerModel,
    /// The quantized layers, named as in the skeleton.
    pub archive: ModelArchive,
}

impl CompressedModel {
    /// Builds the compressed form of `model` from its quantization
    /// archive: the skeleton keeps config + aux and gives up every
    /// archived weight.
    ///
    /// Layers missing from the archive (e.g. embeddings when only FC
    /// weights were quantized) keep their FP32 values in the skeleton.
    pub fn new(model: &TransformerModel, archive: ModelArchive) -> Self {
        let mut skeleton = model.clone();
        for (name, _) in archive.iter() {
            skeleton.remove_weight(name);
        }
        CompressedModel { skeleton, archive }
    }

    /// Reconstructs the FP32 model: skeleton + decoded archive layers.
    /// This is the reference the served bytes are checked against; the
    /// server itself never calls it.
    ///
    /// # Errors
    ///
    /// Propagates archive entries the configuration does not define or
    /// whose element count disagrees with it (a hand-built container;
    /// [`CompressedModel::from_bytes`] refuses both).
    pub fn decode(&self) -> Result<TransformerModel, FormatError> {
        let mut model = self.skeleton.clone();
        for (name, layer) in self.archive.iter() {
            let dims = model.weight_dims(name)?;
            let tensor = Tensor::from_vec(layer.decode(), &dims).map_err(ModelError::from)?;
            model.set_weight(name, tensor)?;
        }
        Ok(model)
    }

    /// Serializes the compressed model, sealed by a trailing CRC32.
    pub fn to_bytes(&self) -> Vec<u8> {
        let archive = self.archive.to_bytes();
        let raw = save_model(&self.skeleton);
        // ARITH: lengths of live in-memory buffers
        let mut out = Vec::with_capacity(raw.len() + archive.len() + FRAMING_BYTES);
        put_u32(&mut out, COMPRESSED_MAGIC);
        out.push(COMPRESSED_FORMAT_VERSION);
        out.extend_from_slice(&[0u8; 3]);
        put_len32(&mut out, raw.len());
        out.extend_from_slice(&raw);
        put_len32(&mut out, archive.len());
        out.extend_from_slice(&archive);
        seal(&mut out, 0);
        out
    }

    /// Deserializes a compressed model. The file is rejected on
    /// checksum mismatch before any field past the version byte is
    /// interpreted.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::Corrupt`] for structural problems —
    /// including a weight supplied by neither or by both sides, and an
    /// archive entry the configuration does not define or of another
    /// element count than it prescribes — and propagates model/container
    /// failures.
    pub fn from_bytes(data: &[u8]) -> Result<Self, FormatError> {
        let mut r = ByteReader::new(data);
        if r.u32()? != COMPRESSED_MAGIC {
            return Err(FormatError::Corrupt("bad magic"));
        }
        if r.u8()? != COMPRESSED_FORMAT_VERSION {
            return Err(FormatError::Corrupt("unsupported version"));
        }
        let mut r = ByteReader::new(unseal(data)?);
        let _header = r.take(8)?; // magic + version (already checked) + pad
        let raw_len = r.len32()?;
        let skeleton = load_model_partial(r.take(raw_len)?)?;
        let archive_len = r.len32()?;
        let archive = ModelArchive::from_bytes(r.take(archive_len)?)?;
        r.finish()?;
        // Every quantizable weight must come from exactly one side.
        let held: BTreeSet<&str> = skeleton.iter().map(|(name, _)| name).collect();
        for spec in skeleton.fc_layers().iter().chain(&skeleton.embedding_tables()) {
            match (held.contains(spec.name.as_str()), archive.get(&spec.name).is_some()) {
                (false, false) => {
                    return Err(FormatError::Corrupt("weight missing from skeleton and archive"))
                }
                (true, true) => {
                    return Err(FormatError::Corrupt("weight in both skeleton and archive"))
                }
                _ => {}
            }
        }
        for (name, layer) in archive.iter() {
            let Ok([rows, cols]) = skeleton.weight_dims(name) else {
                return Err(FormatError::Corrupt(
                    "archive entry the configuration does not define",
                ));
            };
            if rows.checked_mul(cols) != Some(layer.total()) {
                return Err(FormatError::Corrupt("archive entry of the wrong size"));
            }
        }
        Ok(CompressedModel { skeleton, archive })
    }

    /// Length of [`CompressedModel::to_bytes`]'s output, computed from
    /// tensor shapes and layer size breakdowns without serializing.
    pub fn serialized_bytes(&self) -> usize {
        // ARITH: lengths of live in-memory buffers
        FRAMING_BYTES + save_model_len(&self.skeleton) + self.archive.serialized_bytes()
    }
}

/// Recomputes every CRC-32 that covers an edit to a serialized `.gobom`
/// in place, innermost first (layer, archive entry, file), walking the
/// framing as far as it parses. `gobo chaos` and the parser fuzz tests
/// call it so that a mutation reaches the field parsers instead of
/// dying at a checksum.
pub fn reseal_compressed(bytes: &mut [u8]) {
    let mut r = ByteReader::new(bytes);
    let archive = (|| {
        r.take(8).ok()?;
        let raw_len = r.len32().ok()?;
        r.take(raw_len).ok()?;
        let archive_len = r.len32().ok()?;
        Some(r.position()..r.position().checked_add(archive_len)?)
    })();
    if let Some(archive) = archive.and_then(|range| bytes.get_mut(range)) {
        reseal_archive(archive);
    }
    reseal(bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{quantize_model, QuantizeOptions};
    use gobo_model::config::ModelConfig;
    use gobo_quant::container::ModelArchive;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// FNV-1a/64 of `bytes`, the digest of every format pin (see
    /// `gobo_quant::container`'s for why not a CRC-32).
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// Format pin: the `.gobom`'s bytes must not move. Digest computed
    /// at the commit before the byte codec was unified (`ca0882a`).
    #[test]
    fn gobom_bytes_are_pinned() {
        let (_, compressed) = quantized();
        assert_eq!(fnv1a(&compressed.to_bytes()), 0xdcb9_52d6_0790_f838);
    }

    fn quantized() -> (TransformerModel, CompressedModel) {
        let config = ModelConfig::tiny("CliFmt", 2, 24, 2, 40, 12).unwrap();
        let model = TransformerModel::new(config, &mut StdRng::seed_from_u64(5)).unwrap();
        let outcome = quantize_model(&model, &QuantizeOptions::gobo(3).unwrap()).unwrap();
        let compressed = CompressedModel::new(&model, outcome.archive);
        (outcome.model, compressed)
    }

    #[test]
    fn round_trip_matches_pipeline_decode() {
        let (decoded_by_pipeline, compressed) = quantized();
        let bytes = compressed.to_bytes();
        let restored = CompressedModel::from_bytes(&bytes).unwrap();
        let decoded = restored.decode().unwrap();
        // Same weights as the pipeline's decoded model…
        for spec in decoded.fc_layers() {
            assert_eq!(
                decoded.weight(&spec.name).unwrap(),
                decoded_by_pipeline.weight(&spec.name).unwrap(),
                "{}",
                spec.name
            );
        }
        // …and identical forward behaviour.
        let a = decoded.encode(&[1, 2, 3], &[]).unwrap();
        let b = decoded_by_pipeline.encode(&[1, 2, 3], &[]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unquantized_tables_survive_in_skeleton() {
        let (_, compressed) = quantized();
        // Embeddings were not quantized: the skeleton keeps them FP32.
        let word = compressed.skeleton.weight("embeddings.word").unwrap();
        assert!(word.as_slice().iter().any(|&v| v != 0.0));
        // FC weights live in the archive only.
        assert_eq!(
            compressed.skeleton.weight("pooler"),
            Err(ModelError::AbsentWeight { name: "pooler".into() })
        );
    }

    #[test]
    fn skeleton_forward_fails_loudly_naming_the_absent_layer() {
        let (_, compressed) = quantized();
        let err = compressed.skeleton.encode(&[1, 2, 3], &[]).unwrap_err();
        assert_eq!(err, ModelError::AbsentWeight { name: "encoder.0.attention.query".into() });
        let input = gobo_model::batch::EncodeInput { ids: &[1, 2, 3], type_ids: &[] };
        let err = compressed.skeleton.encode_batch(&[input]).unwrap_err();
        assert_eq!(err, ModelError::AbsentWeight { name: "encoder.0.attention.query".into() });
    }

    /// Frames a hand-edited skeleton and archive, as a buggy or hostile
    /// writer would (valid CRC, wrong weight ownership or shape).
    fn reframed(skeleton: TransformerModel, archive: ModelArchive) -> Vec<u8> {
        CompressedModel { skeleton, archive }.to_bytes()
    }

    #[test]
    fn rejects_weight_on_both_sides_and_on_neither() {
        let (decoded, compressed) = quantized();
        let (skeleton, archive) = (&compressed.skeleton, &compressed.archive);
        let mut both = skeleton.clone();
        both.set_weight("pooler", decoded.weight("pooler").unwrap().clone()).unwrap();
        let mut neither = skeleton.clone();
        neither.remove_weight("embeddings.position").unwrap();
        // The archive plus the pooler's layer once more, under `name`.
        let plus = |name: &str| {
            let mut out = archive.clone();
            out.push(name, archive.get("pooler").unwrap().clone()).unwrap();
            out
        };
        for (bytes, want) in [
            (reframed(both, archive.clone()), "weight in both skeleton and archive"),
            (
                reframed(neither.clone(), archive.clone()),
                "weight missing from skeleton and archive",
            ),
            (
                reframed(skeleton.clone(), plus("encoder.9.output")),
                "archive entry the configuration does not define",
            ),
            (reframed(neither, plus("embeddings.position")), "archive entry of the wrong size"),
        ] {
            let refusal = CompressedModel::from_bytes(&bytes).err().map(|e| e.to_string());
            assert_eq!(refusal, Some(format!("corrupt compressed model: {want}")));
        }
    }

    #[test]
    fn serialized_bytes_is_computed_not_serialized() {
        let config = ModelConfig::tiny("Sizes", 2, 24, 2, 40, 12).unwrap();
        let model = TransformerModel::new(config, &mut StdRng::seed_from_u64(9)).unwrap();
        for bits in [2u8, 3, 4] {
            let fc_only = QuantizeOptions::gobo(bits).unwrap();
            let with_embeddings = fc_only.clone().with_embedding_bits(4).unwrap();
            for options in [fc_only, with_embeddings] {
                let archive = quantize_model(&model, &options).unwrap().archive;
                for (name, layer) in archive.iter() {
                    assert_eq!(layer.serialized_bytes(), layer.to_bytes().len(), "{name}");
                }
                assert_eq!(archive.serialized_bytes(), archive.to_bytes().len());
                let compressed = CompressedModel::new(&model, archive);
                assert_eq!(compressed.serialized_bytes(), compressed.to_bytes().len());
            }
        }
    }

    #[test]
    fn compression_is_real() {
        let (_, compressed) = quantized();
        let raw = gobo_model::io::save_model(&compressed.decode().unwrap()).len();
        let packed = compressed.serialized_bytes();
        // Embeddings stay FP32 in this configuration, but the FC
        // weights shrink ~10x, so the file must be clearly smaller.
        assert!((packed as f64) < raw as f64 * 0.8, "packed {packed} vs raw {raw}");
    }

    #[test]
    fn rejects_corruption() {
        let (_, compressed) = quantized();
        let bytes = compressed.to_bytes();
        let mut bad = bytes.clone();
        bad[0] ^= 1;
        assert!(CompressedModel::from_bytes(&bad).is_err());
        let mut bad = bytes.clone();
        bad[4] = 7;
        assert!(CompressedModel::from_bytes(&bad).is_err());
        assert!(CompressedModel::from_bytes(&bytes[..bytes.len() / 2]).is_err());
        let mut bad = bytes;
        bad.push(0);
        assert!(CompressedModel::from_bytes(&bad).is_err());
    }

    #[test]
    fn v2_checksum_catches_single_byte_flips() {
        let (_, compressed) = quantized();
        let bytes = compressed.to_bytes();
        // Sample positions across the whole file (header, skeleton,
        // archive, trailing CRC itself).
        for pos in (0..bytes.len()).step_by(bytes.len() / 64 + 1) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(CompressedModel::from_bytes(&bad).is_err(), "flip at byte {pos} undetected");
        }
    }

    #[test]
    fn version_1_is_unsupported_and_no_downgrade_skips_the_checksum() {
        let (_, compressed) = quantized();
        let mut bytes = compressed.to_bytes();
        bytes[4] = 1;
        assert!(matches!(
            CompressedModel::from_bytes(&bytes),
            Err(FormatError::Corrupt("unsupported version"))
        ));
        // A forged version byte must not buy a second, unchecked flip.
        for pos in (5..bytes.len()).step_by(bytes.len() / 64 + 1) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(CompressedModel::from_bytes(&bad).is_err(), "flip at byte {pos} accepted");
        }
    }
}
