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
//! is interpreted.
//!
//! Every quantizable weight lives on exactly one side. The skeleton is
//! a [`TransformerModel`] that *holds* the config, the FP32 auxiliary
//! parameters (biases, LayerNorms) and only those weights the archive
//! does not cover (e.g. embeddings when only FC weights were
//! quantized); an archived weight is absent from it, not zeroed. The
//! archive carries the compressed weights.

use std::collections::BTreeSet;

use gobo_model::io::{load_model_partial, save_model, save_model_len};
use gobo_model::{ModelError, TransformerModel};
use gobo_quant::container::ModelArchive;
use gobo_quant::QuantError;
use gobo_tensor::Tensor;

/// Magic prefix of a compressed model file.
pub const COMPRESSED_MAGIC: u32 = u32::from_le_bytes(*b"GOBM");
/// Compressed-model format version: whole-file trailing CRC32.
pub const COMPRESSED_FORMAT_VERSION: u8 = 2;
/// Bytes of a `.gobom` outside its two sections: magic, version, pad,
/// the two section lengths and the trailing CRC32.
const FRAMING_BYTES: usize = 4 + 1 + 3 + 4 + 4 + 4;

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
    /// As [`CompressedModel::decode_layers`].
    pub fn decode(&self) -> Result<TransformerModel, FormatError> {
        self.decode_layers(|_| true)
    }

    /// The skeleton plus the archived layers whose name `wanted`
    /// accepts, decoded to FP32; every other archived weight stays
    /// absent.
    ///
    /// # Errors
    ///
    /// Propagates wanted archive entries the configuration does not
    /// define or whose element count disagrees with it.
    pub fn decode_layers(
        &self,
        wanted: impl Fn(&str) -> bool,
    ) -> Result<TransformerModel, FormatError> {
        let mut model = self.skeleton.clone();
        for (name, layer) in self.archive.iter().filter(|(name, _)| wanted(name)) {
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
        let mut out = Vec::with_capacity(raw.len() + archive.len() + FRAMING_BYTES);
        out.extend_from_slice(&COMPRESSED_MAGIC.to_le_bytes());
        out.push(COMPRESSED_FORMAT_VERSION);
        out.extend_from_slice(&[0u8; 3]);
        out.extend_from_slice(&(raw.len() as u32).to_le_bytes());
        out.extend_from_slice(&raw);
        out.extend_from_slice(&(archive.len() as u32).to_le_bytes());
        out.extend_from_slice(&archive);
        let crc = gobo_quant::integrity::crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Deserializes a compressed model. The file is rejected on
    /// checksum mismatch before any field past the version byte is
    /// interpreted.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::Corrupt`] for structural problems —
    /// including a weight supplied by neither or by both sides — and
    /// propagates model/container failures.
    pub fn from_bytes(data: &[u8]) -> Result<Self, FormatError> {
        if data.len() < 5 {
            return Err(FormatError::Corrupt("truncated file"));
        }
        let magic = u32::from_le_bytes(data[..4].try_into().expect("4 bytes"));
        if magic != COMPRESSED_MAGIC {
            return Err(FormatError::Corrupt("bad magic"));
        }
        if data[4] != COMPRESSED_FORMAT_VERSION {
            return Err(FormatError::Corrupt("unsupported version"));
        }
        let Some(body_len) = data.len().checked_sub(4).filter(|&n| n >= 5) else {
            return Err(FormatError::Corrupt("truncated file"));
        };
        let stored = u32::from_le_bytes(data[body_len..].try_into().expect("4 bytes"));
        if gobo_quant::integrity::crc32(&data[..body_len]) != stored {
            return Err(FormatError::Corrupt("file checksum mismatch"));
        }
        let data = &data[..body_len];
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], FormatError> {
            let end = pos
                .checked_add(n)
                .filter(|&e| e <= data.len())
                .ok_or(FormatError::Corrupt("truncated file"))?;
            let out = &data[*pos..end];
            *pos = end;
            Ok(out)
        };
        let mut pos = 5usize; // magic + version, already checked
        let _pad = take(&mut pos, 3)?;
        let raw_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
        let skeleton = load_model_partial(take(&mut pos, raw_len)?)?;
        let archive_len =
            u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
        let archive = ModelArchive::from_bytes(take(&mut pos, archive_len)?)?;
        if pos != data.len() {
            return Err(FormatError::Corrupt("trailing bytes"));
        }
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
        Ok(CompressedModel { skeleton, archive })
    }

    /// Length of [`CompressedModel::to_bytes`]'s output, computed from
    /// tensor shapes and layer size breakdowns without serializing.
    pub fn serialized_bytes(&self) -> usize {
        FRAMING_BYTES + save_model_len(&self.skeleton) + self.archive.serialized_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{quantize_model, QuantizeOptions};
    use gobo_model::config::ModelConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    /// Re-frames `compressed` with a hand-edited skeleton, as a buggy
    /// or hostile writer would (valid CRC, wrong weight ownership).
    fn reframed(compressed: &CompressedModel, skeleton: TransformerModel) -> Vec<u8> {
        CompressedModel { skeleton, archive: compressed.archive.clone() }.to_bytes()
    }

    #[test]
    fn rejects_weight_on_both_sides_and_on_neither() {
        let (decoded, compressed) = quantized();
        let mut both = compressed.skeleton.clone();
        both.set_weight("pooler", decoded.weight("pooler").unwrap().clone()).unwrap();
        assert!(matches!(
            CompressedModel::from_bytes(&reframed(&compressed, both)),
            Err(FormatError::Corrupt("weight in both skeleton and archive"))
        ));
        let mut neither = compressed.skeleton.clone();
        neither.remove_weight("embeddings.position").unwrap();
        assert!(matches!(
            CompressedModel::from_bytes(&reframed(&compressed, neither)),
            Err(FormatError::Corrupt("weight missing from skeleton and archive"))
        ));
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
