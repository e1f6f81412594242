//! Raw-model file format: an FP32 `TransformerModel` on disk.
//!
//! The reproduction cannot depend on external serialization formats,
//! so this is a small, self-describing little-endian binary layout:
//!
//! ```text
//! file   := magic:u32 "GOBm" | version:u8 | flags:u8 (bit0 = pooler) | pad:[u8;2]
//!         | name_len:u16 | name:utf8
//!         | encoder_layers:u32 | hidden:u32 | intermediate:u32 | heads:u32
//!         | vocab:u32 | max_position:u32 | type_vocab:u32
//!         | tensor_count:u32 | tensor*
//! tensor := name_len:u16 | name:utf8 | rank:u8 | dims:[u32; rank] | data:[f32]
//! ```
//!
//! Both the quantizable weights the model holds and the auxiliary
//! parameters (biases, LayerNorm) are stored, so a round trip
//! reproduces the model exactly — including which weights are absent.
//!
//! The file carries no checksum (inside a `.gobom` the file's CRC
//! covers it): it is read raw through the workspace's one checked cursor
//! ([`gobo_proto::codec::ByteReader`]) under its count rule. Two fields
//! size allocations and are treated as counts: the **geometry** — a file
//! carries every auxiliary tensor its header declares, so their bytes
//! must remain before the skeleton that allocates them is built — and a
//! tensor's **dims**, whose element count is a checked fold.

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

use gobo_proto::codec::{put_f32s, put_len16, put_len32, put_u32, ByteReader, CodecError};
use gobo_tensor::Tensor;

use crate::config::ModelConfig;
use crate::error::ModelError;
use crate::weights::TransformerModel;

/// Magic prefix of a raw model file.
pub const MODEL_MAGIC: u32 = u32::from_le_bytes(*b"GOBm");
/// Current raw-model format version.
pub const MODEL_FORMAT_VERSION: u8 = 1;

/// Bytes of the smallest stored auxiliary tensor besides its data: the
/// name's length prefix, the shortest auxiliary name (`pooler.bias`),
/// the rank byte and one dim.
const MIN_AUX_FRAMING_BYTES: usize = 18;

/// A lower bound on the bytes the auxiliary tensors of `config` occupy
/// in a file — each tensor's framing plus four per parameter — or
/// `None` when that overflows: a header no file can honour.
fn min_aux_bytes(config: &ModelConfig) -> Option<usize> {
    let (layers, h) = (config.encoder_layers, config.hidden);
    // Per encoder layer ten tensors: two LayerNorms (gain and bias, 4h),
    // the four attention biases and the output bias (5h), the
    // intermediate bias. Outside the layers, tensors of width h: the
    // embedding LayerNorm's two and the pooler bias.
    let per_layer = h.checked_mul(9)?.checked_add(config.intermediate)?;
    let outside = if config.has_pooler { 3 } else { 2 };
    let tensors = layers.checked_mul(10)?.checked_add(outside)?;
    let params = layers.checked_mul(per_layer)?.checked_add(h.checked_mul(outside)?)?;
    tensors.checked_mul(MIN_AUX_FRAMING_BYTES)?.checked_add(params.checked_mul(4)?)
}

fn invalid(what: &'static str) -> ModelError {
    ModelError::InvalidInput { what }
}

impl From<CodecError> for ModelError {
    fn from(e: CodecError) -> Self {
        invalid(e.what())
    }
}

fn read_name(r: &mut ByteReader<'_>) -> Result<String, ModelError> {
    let len = r.len16()?;
    Ok(r.utf8(len)?.to_owned())
}

/// Names are bounded where they are created: the model's by
/// [`ModelConfig::validate`], tensor names by the naming convention.
fn put_name(out: &mut Vec<u8>, s: &str) {
    put_len16(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn put_tensor(out: &mut Vec<u8>, name: &str, tensor: &Tensor) {
    put_name(out, name);
    out.push(u8::try_from(tensor.shape().rank()).unwrap_or(u8::MAX));
    for &d in tensor.dims() {
        put_len32(out, d);
    }
    put_f32s(out, tensor.as_slice());
}

fn read_tensor(r: &mut ByteReader<'_>) -> Result<(String, Tensor), ModelError> {
    let name = read_name(r)?;
    let rank = usize::from(r.u8()?);
    if rank > 4 {
        return Err(invalid("tensor rank too large"));
    }
    let dims = (0..rank).map(|_| r.len32()).collect::<Result<Vec<_>, _>>()?;
    // A checked fold, never `.product()`: four dims of 65 536 overflow.
    let len = dims
        .iter()
        .try_fold(1usize, |len, &d| len.checked_mul(d))
        .ok_or(invalid("tensor too large for this platform"))?;
    let data = r.f32s(len)?;
    if !data.iter().all(|v| v.is_finite()) {
        return Err(invalid("non-finite weight in model file"));
    }
    Ok((name, Tensor::from_vec(data, &dims)?))
}

/// Serializes a model to the raw format: the quantizable weights it
/// holds plus every auxiliary parameter. A skeleton therefore writes
/// only what its archive does not carry.
pub fn save_model(model: &TransformerModel) -> Vec<u8> {
    let mut out = Vec::with_capacity(save_model_len(model));
    write_model(model, &mut out);
    out
}

/// Appends [`save_model`]'s bytes (exactly [`save_model_len`] of them)
/// to `out`, so a container can write the model straight into its own
/// buffer.
pub fn write_model(model: &TransformerModel, out: &mut Vec<u8>) {
    let config = model.config();
    put_u32(out, MODEL_MAGIC);
    out.push(MODEL_FORMAT_VERSION);
    out.push(u8::from(config.has_pooler));
    out.extend_from_slice(&[0u8; 2]);
    put_name(out, &config.name);
    for v in [
        config.encoder_layers,
        config.hidden,
        config.intermediate,
        config.heads,
        config.vocab,
        config.max_position,
        config.type_vocab,
    ] {
        put_len32(out, v);
    }
    let aux = aux_entries(model);
    // ARITH: counts of live in-memory tensors
    put_len32(out, model.iter().count() + aux.len());
    for (name, tensor) in model.iter() {
        put_tensor(out, name, tensor);
    }
    for (name, tensor) in aux {
        put_tensor(out, &name, tensor);
    }
}

/// Length of [`save_model`]'s output, computed from the tensor shapes
/// without serializing anything.
pub fn save_model_len(model: &TransformerModel) -> usize {
    // magic + version + flags + pad, name, seven u32 config fields,
    // tensor count.
    // ARITH: here and below, lengths of live in-memory buffers.
    let header = 8 + 2 + model.config().name.len() + 7 * 4 + 4;
    // ARITH: live buffer lengths
    let tensor = |name: &str, t: &Tensor| 2 + name.len() + 1 + 4 * t.shape().rank() + 4 * t.len();
    let weights: usize = model.iter().map(|(name, t)| tensor(name, t)).sum();
    let aux: usize = aux_entries(model).iter().map(|(name, t)| tensor(name, t)).sum();
    header + weights + aux // ARITH: live buffer lengths
}

/// Enumerates the auxiliary parameters by the naming convention.
fn aux_entries(model: &TransformerModel) -> Vec<(String, &Tensor)> {
    let config = model.config();
    let mut names = vec!["embeddings.ln.gamma".to_owned(), "embeddings.ln.beta".to_owned()];
    for e in 0..config.encoder_layers {
        for ln in ["attention.ln", "output.ln"] {
            names.push(format!("encoder.{e}.{ln}.gamma"));
            names.push(format!("encoder.{e}.{ln}.beta"));
        }
    }
    for spec in model.fc_layers() {
        names.push(format!("{}.bias", spec.name));
    }
    names.into_iter().filter_map(|n| model.aux(&n).ok().map(|t| (n.clone(), t))).collect()
}

/// Deserializes a model from the raw format, requiring every
/// quantizable weight to be present.
///
/// # Errors
///
/// Returns [`ModelError::InvalidInput`] for wrong magic/version,
/// truncation, malformed or missing tensors, and shape errors when a
/// stored tensor disagrees with the configuration.
pub fn load_model(data: &[u8]) -> Result<TransformerModel, ModelError> {
    let model = load_model_partial(data)?;
    // ARITH: counts of live layer specs
    let expected = model.fc_layers().len() + model.embedding_tables().len();
    if model.iter().count() < expected {
        return Err(invalid("model file missing weight tensors"));
    }
    Ok(model)
}

/// Deserializes a possibly partial model: a skeleton of the stored
/// configuration holding exactly the tensors the file supplies.
/// Weights absent from the file stay absent; callers own them in some
/// other form (e.g. a quantized archive).
///
/// # Errors
///
/// Same structural conditions as [`load_model`], minus the
/// completeness check.
pub fn load_model_partial(data: &[u8]) -> Result<TransformerModel, ModelError> {
    gobo_fault::fail_point!("model.io.load", invalid("injected model.io.load fault"));
    let mut r = ByteReader::new(data);
    if r.u32()? != MODEL_MAGIC {
        return Err(invalid("bad model magic"));
    }
    if r.u8()? != MODEL_FORMAT_VERSION {
        return Err(invalid("unsupported model version"));
    }
    let has_pooler = r.u8()? != 0;
    let _pad = r.take(2)?;
    let config = ModelConfig {
        name: read_name(&mut r)?,
        encoder_layers: r.len32()?,
        hidden: r.len32()?,
        intermediate: r.len32()?,
        heads: r.len32()?,
        vocab: r.len32()?,
        max_position: r.len32()?,
        type_vocab: r.len32()?,
        has_pooler,
    };
    let count = r.len32()?;
    // The geometry is a count like any other: a file carries every
    // auxiliary tensor its header declares (`save_model` always writes
    // them), so their bytes must be there before the skeleton — which
    // allocates them — is built.
    let aux_bytes = min_aux_bytes(&config).ok_or(invalid("model geometry too large"))?;
    r.counted(aux_bytes, 1)?;
    let mut model = TransformerModel::skeleton(config)?;
    let mut seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for _ in 0..count {
        let (tname, tensor) = read_tensor(&mut r)?;
        if !seen.insert(tname.clone()) {
            return Err(invalid("duplicate tensor in model file"));
        }
        if tname.ends_with(".bias") || tname.contains(".ln.") {
            model.set_aux(&tname, tensor)?;
        } else {
            model.set_weight(&tname, tensor)?;
        }
    }
    r.finish()?;
    Ok(model)
}

/// Writes `bytes` to `path` atomically: the data goes to a sibling
/// temporary file, is fsynced, and is renamed over the target, so a
/// crash or power cut mid-write leaves either the old file or the new
/// file — never a torn half of both. Model and container artifacts are
/// the unit that crosses machine boundaries; partial writes are exactly
/// where silent corruption enters, so every CLI write path uses this.
///
/// # Errors
///
/// Propagates I/O failures; the temporary file is removed on error.
pub fn atomic_write(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    gobo_fault::fail_point!(
        "model.io.write",
        std::io::Error::other("injected model.io.write fault")
    );
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other("atomic_write target has no file name"))?;
    let mut tmp_name = file_name.to_owned();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let write = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)
    })();
    if let Err(e) = write {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    // Persist the rename itself; failures here are non-fatal (the data
    // is durable, only the directory entry might replay after a crash).
    if let Some(d) = dir {
        if let Ok(dir_file) = std::fs::File::open(d) {
            let _ = dir_file.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// FNV-1a/64 of `bytes`, the digest of every format pin (see
    /// `gobo_quant::container`'s for why not a CRC-32).
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// Format pin: the raw model file's bytes must not move. Digests
    /// computed at the commit before the byte codec was unified
    /// (`ca0882a`).
    #[test]
    fn model_file_bytes_are_pinned() {
        assert_eq!(fnv1a(&save_model(&model())), 0x8331_bb98_8548_78f1);
        let mut partial = model();
        partial.remove_weight("pooler").unwrap();
        partial.remove_weight("embeddings.word").unwrap();
        assert_eq!(fnv1a(&save_model(&partial)), 0x05f3_b197_f5ec_b1d0);
    }

    fn model() -> TransformerModel {
        let config = ModelConfig::tiny("IoTest", 2, 24, 2, 40, 12).unwrap();
        TransformerModel::new(config, &mut StdRng::seed_from_u64(3)).unwrap()
    }

    #[test]
    fn min_aux_bytes_is_a_lower_bound_that_counts_every_aux_tensor() {
        let mut no_pooler = ModelConfig::tiny("NoPooler", 3, 24, 2, 40, 12).unwrap();
        no_pooler.has_pooler = false;
        no_pooler.intermediate = 50;
        for config in [model().config().clone(), no_pooler] {
            let skeleton = TransformerModel::skeleton(config.clone()).unwrap();
            let aux = aux_entries(&skeleton);
            let exact: usize = aux.iter().map(|(_, t)| MIN_AUX_FRAMING_BYTES + 4 * t.len()).sum();
            assert_eq!(min_aux_bytes(&config), Some(exact), "{config}");
            assert_eq!(skeleton.resident_bytes(), exact - MIN_AUX_FRAMING_BYTES * aux.len());
            assert!(aux.iter().all(|(name, _)| 2 + name.len() + 1 + 4 >= MIN_AUX_FRAMING_BYTES));
        }
        let mut huge = ModelConfig::bert_base();
        huge.encoder_layers = usize::MAX / 2;
        assert_eq!(min_aux_bytes(&huge), None);
    }

    #[test]
    fn round_trip_is_exact() {
        let m = model();
        let bytes = save_model(&m);
        let restored = load_model(&bytes).unwrap();
        assert_eq!(restored, m);
    }

    #[test]
    fn partial_round_trip_keeps_absent_weights_absent() {
        let mut m = model();
        m.remove_weight("pooler").unwrap();
        m.remove_weight("embeddings.word").unwrap();
        let bytes = save_model(&m);
        assert_eq!(bytes.len(), save_model_len(&m));
        assert_eq!(save_model(&model()).len(), save_model_len(&model()));
        let restored = load_model_partial(&bytes).unwrap();
        assert_eq!(restored, m);
        assert!(matches!(restored.weight("pooler"), Err(ModelError::AbsentWeight { .. })));
        // The complete loader refuses a file that lacks weights.
        assert!(load_model(&bytes).is_err());
    }

    #[test]
    fn round_trip_preserves_forward_pass() {
        let m = model();
        let restored = load_model(&save_model(&m)).unwrap();
        let a = m.encode(&[1, 2, 3], &[]).unwrap();
        let b = restored.encode(&[1, 2, 3], &[]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_corruption() {
        let bytes = save_model(&model());
        // Magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(load_model(&bad).is_err());
        // Version.
        let mut bad = bytes.clone();
        bad[4] = 9;
        assert!(load_model(&bad).is_err());
        // Truncations at many offsets.
        for cut in [0usize, 5, 10, 40, bytes.len() / 2, bytes.len() - 1] {
            assert!(load_model(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Trailing bytes.
        let mut bad = bytes.clone();
        bad.push(7);
        assert!(load_model(&bad).is_err());
    }

    #[test]
    fn rejects_nan_weights() {
        let m = model();
        let mut bytes = save_model(&m);
        // The final tensor's f32 data runs to the end of the file, so
        // the last 4 bytes are exactly one float — overwrite it.
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&f32::NAN.to_le_bytes());
        assert!(load_model(&bytes).is_err());
    }

    #[test]
    fn modified_weights_survive_round_trip() {
        let mut m = model();
        let dims = m.weight("pooler").unwrap().dims().to_vec();
        m.set_weight("pooler", Tensor::full(&dims, 0.25)).unwrap();
        let restored = load_model(&save_model(&m)).unwrap();
        assert_eq!(restored.weight("pooler").unwrap().as_slice()[0], 0.25);
    }
}
