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

use gobo_tensor::Tensor;

use crate::config::ModelConfig;
use crate::error::ModelError;
use crate::weights::TransformerModel;

/// Magic prefix of a raw model file.
pub const MODEL_MAGIC: u32 = u32::from_le_bytes(*b"GOBm");
/// Current raw-model format version.
pub const MODEL_FORMAT_VERSION: u8 = 1;

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ModelError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(ModelError::InvalidInput { what: "truncated model file" })?;
        let out = self
            .data
            .get(self.pos..end)
            .ok_or(ModelError::InvalidInput { what: "truncated model file" })?;
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, ModelError> {
        self.take(1)?
            .first()
            .copied()
            .ok_or(ModelError::InvalidInput { what: "truncated model file" })
    }

    fn u16(&mut self) -> Result<u16, ModelError> {
        Ok(u16::from_le_bytes(array(self.take(2)?)?))
    }

    fn u32(&mut self) -> Result<u32, ModelError> {
        Ok(u32::from_le_bytes(array(self.take(4)?)?))
    }

    fn string(&mut self) -> Result<String, ModelError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ModelError::InvalidInput { what: "non-utf8 name in model file" })
    }
}

/// Checked fixed-size conversion for multi-byte reads.
fn array<const N: usize>(bytes: &[u8]) -> Result<[u8; N], ModelError> {
    <[u8; N]>::try_from(bytes)
        .map_err(|_| ModelError::InvalidInput { what: "truncated model file" })
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_tensor(out: &mut Vec<u8>, name: &str, tensor: &Tensor) {
    put_string(out, name);
    out.push(tensor.shape().rank() as u8);
    for &d in tensor.dims() {
        out.extend_from_slice(&(d as u32).to_le_bytes());
    }
    for &v in tensor.as_slice() {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn read_tensor(r: &mut Reader<'_>) -> Result<(String, Tensor), ModelError> {
    let name = r.string()?;
    let rank = r.u8()? as usize;
    if rank > 4 {
        return Err(ModelError::InvalidInput { what: "tensor rank too large" });
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        dims.push(r.u32()? as usize);
    }
    let len: usize = dims.iter().product();
    let raw = r.take(len * 4)?;
    let mut data = Vec::with_capacity(len);
    for chunk in raw.chunks_exact(4) {
        let v = f32::from_le_bytes(array(chunk)?);
        if !v.is_finite() {
            return Err(ModelError::InvalidInput { what: "non-finite weight in model file" });
        }
        data.push(v);
    }
    let tensor = Tensor::from_vec(data, &dims)?;
    Ok((name, tensor))
}

/// Serializes a model to the raw format: the quantizable weights it
/// holds plus every auxiliary parameter. A skeleton therefore writes
/// only what its archive does not carry.
pub fn save_model(model: &TransformerModel) -> Vec<u8> {
    let config = model.config();
    let mut out = Vec::with_capacity(save_model_len(model));
    out.extend_from_slice(&MODEL_MAGIC.to_le_bytes());
    out.push(MODEL_FORMAT_VERSION);
    out.push(u8::from(config.has_pooler));
    out.extend_from_slice(&[0u8; 2]);
    put_string(&mut out, &config.name);
    for v in [
        config.encoder_layers,
        config.hidden,
        config.intermediate,
        config.heads,
        config.vocab,
        config.max_position,
        config.type_vocab,
    ] {
        out.extend_from_slice(&(v as u32).to_le_bytes());
    }
    let aux = aux_entries(model);
    out.extend_from_slice(&((model.iter().count() + aux.len()) as u32).to_le_bytes());
    for (name, tensor) in model.iter() {
        put_tensor(&mut out, name, tensor);
    }
    for (name, tensor) in aux {
        put_tensor(&mut out, &name, tensor);
    }
    out
}

/// Length of [`save_model`]'s output, computed from the tensor shapes
/// without serializing anything.
pub fn save_model_len(model: &TransformerModel) -> usize {
    // magic + version + flags + pad, name, seven u32 config fields,
    // tensor count.
    let header = 8 + 2 + model.config().name.len() + 7 * 4 + 4;
    let tensor = |name: &str, t: &Tensor| 2 + name.len() + 1 + 4 * t.shape().rank() + 4 * t.len();
    let weights: usize = model.iter().map(|(name, t)| tensor(name, t)).sum();
    let aux: usize = aux_entries(model).iter().map(|(name, t)| tensor(name, t)).sum();
    header + weights + aux
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
    let expected = model.fc_layers().len() + model.embedding_tables().len();
    if model.iter().count() < expected {
        return Err(ModelError::InvalidInput { what: "model file missing weight tensors" });
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
    gobo_fault::fail_point!(
        "model.io.load",
        ModelError::InvalidInput { what: "injected model.io.load fault" }
    );
    let mut r = Reader { data, pos: 0 };
    if r.u32()? != MODEL_MAGIC {
        return Err(ModelError::InvalidInput { what: "bad model magic" });
    }
    if r.u8()? != MODEL_FORMAT_VERSION {
        return Err(ModelError::InvalidInput { what: "unsupported model version" });
    }
    let has_pooler = r.u8()? != 0;
    let _pad = r.take(2)?;
    let name = r.string()?;
    let encoder_layers = r.u32()? as usize;
    let hidden = r.u32()? as usize;
    let intermediate = r.u32()? as usize;
    let heads = r.u32()? as usize;
    let vocab = r.u32()? as usize;
    let max_position = r.u32()? as usize;
    let type_vocab = r.u32()? as usize;
    let mut model = TransformerModel::skeleton(ModelConfig {
        name,
        encoder_layers,
        hidden,
        intermediate,
        heads,
        vocab,
        max_position,
        type_vocab,
        has_pooler,
    })?;
    let count = r.u32()? as usize;
    let mut seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for _ in 0..count {
        let (tname, tensor) = read_tensor(&mut r)?;
        if !seen.insert(tname.clone()) {
            return Err(ModelError::InvalidInput { what: "duplicate tensor in model file" });
        }
        if tname.ends_with(".bias") || tname.contains(".ln.") {
            model.set_aux(&tname, tensor)?;
        } else {
            model.set_weight(&tname, tensor)?;
        }
    }
    if r.pos != data.len() {
        return Err(ModelError::InvalidInput { what: "trailing bytes in model file" });
    }
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

    fn model() -> TransformerModel {
        let config = ModelConfig::tiny("IoTest", 2, 24, 2, 40, 12).unwrap();
        TransformerModel::new(config, &mut StdRng::seed_from_u64(3)).unwrap()
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
