//! The compressed-model file format (`.gobom`).
//!
//! ```text
//! file := magic:u32 "GOBM" | version:u8 | pad:[u8;3]
//!       | raw_config_model_len:u32 | raw_config_model (gobo-model io format,
//!             carrying config + aux tensors + placeholder weights of length 0? —
//!             see below)
//!       | archive_len:u32 | archive (gobo-quant container format)
//!       | crc:u32            (v2: CRC32 of every preceding byte)
//! ```
//!
//! Format **v2** seals the whole file with a trailing CRC32 (on top of
//! the per-layer and per-entry checksums inside the archive), so any
//! single-byte corruption of a `.gobom` on disk is rejected before a
//! single weight is interpreted. v1 files (no checksum) still load,
//! with a warning on stderr.
//!
//! To avoid duplicating tensor serialization, the "configuration and
//! auxiliary parameters" section is a *partial* raw model in
//! `gobo-model::io` format: it carries the config, the FP32 auxiliary
//! parameters (biases, LayerNorms), and only those quantizable weights
//! the archive does NOT cover (e.g. embeddings when only FC weights
//! were quantized). The archive carries the compressed weights.

use gobo_model::io::{load_model_partial, save_model_with};
use gobo_model::{ModelError, TransformerModel};
use gobo_quant::container::ModelArchive;
use gobo_quant::QuantError;
use gobo_tensor::Tensor;

/// Magic prefix of a compressed model file.
pub const COMPRESSED_MAGIC: u32 = u32::from_le_bytes(*b"GOBM");
/// Current compressed-model format version: whole-file trailing CRC32.
pub const COMPRESSED_FORMAT_VERSION: u8 = 2;
/// The pre-checksum compressed-model format, still readable.
pub const COMPRESSED_LEGACY_VERSION: u8 = 1;

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
    /// Skeleton model carrying the configuration and the auxiliary
    /// (bias / LayerNorm) parameters; its quantizable weights are
    /// placeholders.
    pub skeleton: TransformerModel,
    /// The quantized layers, named as in the skeleton.
    pub archive: ModelArchive,
}

impl CompressedModel {
    /// Builds the compressed form of `model` from its quantization
    /// archive: the skeleton keeps config + aux, with archived weights
    /// zeroed (they are not serialized; see [`CompressedModel::to_bytes`]).
    ///
    /// Layers missing from the archive (e.g. embeddings when only FC
    /// weights were quantized) keep their FP32 values in the skeleton.
    pub fn new(model: &TransformerModel, archive: ModelArchive) -> Self {
        let mut skeleton = model.clone();
        for (name, _) in archive.iter() {
            if let Ok(t) = skeleton.weight(name) {
                let dims = t.dims().to_vec();
                skeleton.set_weight(name, Tensor::zeros(&dims)).expect("same shape");
            }
        }
        CompressedModel { skeleton, archive }
    }

    /// Reconstructs the FP32 model: skeleton + decoded archive layers.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches between archive entries and the
    /// skeleton.
    pub fn decode(&self) -> Result<TransformerModel, FormatError> {
        let mut model = self.skeleton.clone();
        for (name, layer) in self.archive.iter() {
            let dims = model.weight(name)?.dims().to_vec();
            let tensor = Tensor::from_vec(layer.decode(), &dims).map_err(ModelError::from)?;
            model.set_weight(name, tensor)?;
        }
        Ok(model)
    }

    /// Serializes the compressed model (v2: whole-file trailing CRC32).
    /// Weights present in the archive are omitted from the skeleton
    /// section entirely.
    pub fn to_bytes(&self) -> Vec<u8> {
        let archive = self.archive.to_bytes();
        let raw = save_model_with(&self.skeleton, |name| self.archive.get(name).is_none());
        let mut out = Vec::with_capacity(raw.len() + archive.len() + 20);
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

    /// Deserializes a compressed model. v2 files are rejected on
    /// checksum mismatch before any field past the version byte is
    /// interpreted; v1 files load with a warning on stderr.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::Corrupt`] for structural problems and
    /// propagates model/container failures.
    pub fn from_bytes(data: &[u8]) -> Result<Self, FormatError> {
        if data.len() < 5 {
            return Err(FormatError::Corrupt("truncated file"));
        }
        let magic = u32::from_le_bytes(data[..4].try_into().expect("4 bytes"));
        if magic != COMPRESSED_MAGIC {
            return Err(FormatError::Corrupt("bad magic"));
        }
        let data = match data[4] {
            COMPRESSED_LEGACY_VERSION => {
                eprintln!(
                    "gobo: warning: compressed model is format v1 (no checksum); \
                     integrity unverified"
                );
                data
            }
            COMPRESSED_FORMAT_VERSION => {
                let Some(body_len) = data.len().checked_sub(4).filter(|&n| n >= 5) else {
                    return Err(FormatError::Corrupt("truncated file"));
                };
                let stored = u32::from_le_bytes(data[body_len..].try_into().expect("4 bytes"));
                if gobo_quant::integrity::crc32(&data[..body_len]) != stored {
                    return Err(FormatError::Corrupt("file checksum mismatch"));
                }
                &data[..body_len]
            }
            _ => return Err(FormatError::Corrupt("unsupported version")),
        };
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
        let (skeleton, provided) = load_model_partial(take(&mut pos, raw_len)?)?;
        let archive_len =
            u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
        let archive = ModelArchive::from_bytes(take(&mut pos, archive_len)?)?;
        if pos != data.len() {
            return Err(FormatError::Corrupt("trailing bytes"));
        }
        // Every quantizable weight must come from exactly one side.
        for spec in skeleton.fc_layers().iter().chain(&skeleton.embedding_tables()) {
            let in_skeleton = provided.contains(&spec.name);
            let in_archive = archive.get(&spec.name).is_some();
            if !in_skeleton && !in_archive {
                return Err(FormatError::Corrupt("weight missing from skeleton and archive"));
            }
        }
        Ok(CompressedModel { skeleton, archive })
    }

    /// Total serialized size in bytes.
    pub fn serialized_bytes(&self) -> usize {
        self.to_bytes().len()
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
        // FC weights are zeroed placeholders.
        let pooler = compressed.skeleton.weight("pooler").unwrap();
        assert!(pooler.as_slice().iter().all(|&v| v == 0.0));
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
    fn legacy_v1_file_still_loads() {
        // `quantized()` as the last v1 writer serialized it.
        let (_, compressed) = quantized();
        let v1 = include_bytes!("../tests/fixtures/model_v1.gobom");
        let restored = CompressedModel::from_bytes(v1).unwrap();
        assert_eq!(restored.to_bytes(), compressed.to_bytes());
        let decoded = restored.decode().unwrap();
        let reference = compressed.decode().unwrap();
        for spec in reference.fc_layers() {
            assert_eq!(decoded.weight(&spec.name).unwrap(), reference.weight(&spec.name).unwrap());
        }
    }
}
