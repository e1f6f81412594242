//! A trainable BERT-style encoder expressed on the autograd tape.
//!
//! Parameter names match the `gobo-model` convention exactly
//! (`encoder.<i>.attention.query`, `…​.bias`, `…​.ln.gamma`,
//! `embeddings.word`, `pooler`), so a trained [`crate::ParamSet`]
//! transfers into an inference `TransformerModel` by name, where the
//! quantization pipeline picks it up.

use gobo_tensor::norm::LAYER_NORM_EPS;
use gobo_tensor::rng::{randn, xavier_normal};
use gobo_tensor::Tensor;
use rand::Rng;

use crate::error::TrainError;
use crate::params::{BoundParams, ParamSet};
use crate::tape::{Graph, VarId};

/// Geometry of a trainable encoder (a structural subset of
/// `gobo-model`'s `ModelConfig`, duplicated here so the training crate
/// stays independent of the model crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderDims {
    /// Number of encoder layers.
    pub layers: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Attention heads (`hidden % heads == 0`).
    pub heads: usize,
    /// Intermediate FC width.
    pub intermediate: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Maximum sequence length.
    pub max_position: usize,
    /// Token-type vocabulary (0 disables segment embeddings).
    pub type_vocab: usize,
}

impl EncoderDims {
    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::InvalidHyperparameter`] naming the first
    /// inconsistent field.
    pub fn validate(&self) -> Result<(), TrainError> {
        if self.layers == 0 {
            return Err(TrainError::InvalidHyperparameter { name: "layers" });
        }
        if self.hidden == 0 || self.heads == 0 || !self.hidden.is_multiple_of(self.heads) {
            return Err(TrainError::InvalidHyperparameter { name: "heads" });
        }
        if self.intermediate == 0 {
            return Err(TrainError::InvalidHyperparameter { name: "intermediate" });
        }
        if self.vocab == 0 {
            return Err(TrainError::InvalidHyperparameter { name: "vocab" });
        }
        if self.max_position == 0 {
            return Err(TrainError::InvalidHyperparameter { name: "max_position" });
        }
        Ok(())
    }
}

/// Initializes a full encoder parameter set with `gobo-model`-compatible
/// names: Xavier-normal FC weights (Gaussian-shaped, as trained BERT
/// layers are — Figure 1b), `N(0, 0.02²)` embeddings, zero biases,
/// unit LayerNorm gains.
///
/// # Errors
///
/// Propagates [`EncoderDims::validate`] failures.
pub fn init_encoder_params(dims: &EncoderDims, rng: &mut impl Rng) -> Result<ParamSet, TrainError> {
    dims.validate()?;
    let mut p = ParamSet::new();
    let h = dims.hidden;
    p.insert("embeddings.word", randn(rng, &[dims.vocab, h], 0.0, 0.02));
    p.insert("embeddings.position", randn(rng, &[dims.max_position, h], 0.0, 0.02));
    if dims.type_vocab > 0 {
        p.insert("embeddings.token_type", randn(rng, &[dims.type_vocab, h], 0.0, 0.02));
    }
    p.insert("embeddings.ln.gamma", Tensor::ones(&[h]));
    p.insert("embeddings.ln.beta", Tensor::zeros(&[h]));
    for e in 0..dims.layers {
        let mut fc = |name: String, rows: usize, cols: usize| {
            p.insert(name.clone(), xavier_normal(rng, rows, cols));
            p.insert(format!("{name}.bias"), Tensor::zeros(&[rows]));
        };
        fc(format!("encoder.{e}.attention.query"), h, h);
        fc(format!("encoder.{e}.attention.key"), h, h);
        fc(format!("encoder.{e}.attention.value"), h, h);
        fc(format!("encoder.{e}.attention.output"), h, h);
        fc(format!("encoder.{e}.intermediate"), dims.intermediate, h);
        fc(format!("encoder.{e}.output"), h, dims.intermediate);
        p.insert(format!("encoder.{e}.attention.ln.gamma"), Tensor::ones(&[h]));
        p.insert(format!("encoder.{e}.attention.ln.beta"), Tensor::zeros(&[h]));
        p.insert(format!("encoder.{e}.output.ln.gamma"), Tensor::ones(&[h]));
        p.insert(format!("encoder.{e}.output.ln.beta"), Tensor::zeros(&[h]));
    }
    p.insert("pooler", xavier_normal(rng, h, h));
    p.insert("pooler.bias", Tensor::zeros(&[h]));
    Ok(p)
}

/// Output variables of an encoder forward pass on the tape.
#[derive(Debug, Clone, Copy)]
pub struct EncoderVars {
    /// Final hidden states, `(seq_len, hidden)`.
    pub hidden: VarId,
    /// Pooled first-token representation, `(1, hidden)`.
    pub pooled: VarId,
}

/// Builds the full encoder forward pass on `graph` from bound
/// parameters, mirroring `gobo-model`'s inference pass op for op.
///
/// # Errors
///
/// Propagates tape errors (shape mismatches, out-of-vocabulary ids,
/// missing parameters).
pub fn encoder_forward(
    graph: &mut Graph,
    bound: &BoundParams,
    dims: &EncoderDims,
    ids: &[usize],
    type_ids: &[usize],
) -> Result<EncoderVars, TrainError> {
    let word = bound.var("embeddings.word")?;
    let mut x = graph.embedding(word, ids)?;
    let positions: Vec<usize> = (0..ids.len()).collect();
    let pos_table = bound.var("embeddings.position")?;
    let pos = graph.embedding(pos_table, &positions)?;
    x = graph.add(x, pos)?;
    if dims.type_vocab > 0 {
        let zeros;
        let types: &[usize] = if type_ids.is_empty() {
            zeros = vec![0usize; ids.len()];
            &zeros
        } else {
            type_ids
        };
        let tt_table = bound.var("embeddings.token_type")?;
        let tt = graph.embedding(tt_table, types)?;
        x = graph.add(x, tt)?;
    }
    let gamma = bound.var("embeddings.ln.gamma")?;
    let beta = bound.var("embeddings.ln.beta")?;
    x = graph.layer_norm(x, gamma, beta, LAYER_NORM_EPS)?;

    for e in 0..dims.layers {
        x = encoder_layer(graph, bound, dims, e, x)?;
    }

    let first = graph.row(x, 0)?;
    let pw = bound.var("pooler")?;
    let pb = bound.var("pooler.bias")?;
    let z = graph.matmul_nt(first, pw)?;
    let z = graph.add_bias(z, pb)?;
    let pooled = graph.tanh(z);
    Ok(EncoderVars { hidden: x, pooled })
}

fn encoder_layer(
    graph: &mut Graph,
    bound: &BoundParams,
    dims: &EncoderDims,
    e: usize,
    x: VarId,
) -> Result<VarId, TrainError> {
    let fc = |graph: &mut Graph, name: &str, input: VarId| -> Result<VarId, TrainError> {
        let w = bound.var(&format!("encoder.{e}.{name}"))?;
        let b = bound.var(&format!("encoder.{e}.{name}.bias"))?;
        let y = graph.matmul_nt(input, w)?;
        graph.add_bias(y, b)
    };

    let q = fc(graph, "attention.query", x)?;
    let k = fc(graph, "attention.key", x)?;
    let v = fc(graph, "attention.value", x)?;
    let qh = graph.split_heads(q, dims.heads)?;
    let kh = graph.split_heads(k, dims.heads)?;
    let vh = graph.split_heads(v, dims.heads)?;
    let scores = graph.batch_matmul_nt(qh, kh)?;
    let head_dim = dims.hidden / dims.heads;
    let scores = graph.scale(scores, 1.0 / (head_dim as f32).sqrt());
    let probs = graph.softmax(scores)?;
    let vt = graph.transpose_batched(vh)?;
    let ctx = graph.batch_matmul_nt(probs, vt)?;
    let merged = graph.merge_heads(ctx)?;
    let attn = fc(graph, "attention.output", merged)?;
    let res = graph.add(x, attn)?;
    let g1 = bound.var(&format!("encoder.{e}.attention.ln.gamma"))?;
    let b1 = bound.var(&format!("encoder.{e}.attention.ln.beta"))?;
    let x = graph.layer_norm(res, g1, b1, LAYER_NORM_EPS)?;

    let inter = fc(graph, "intermediate", x)?;
    let inter = graph.gelu(inter);
    let out = fc(graph, "output", inter)?;
    let res = graph.add(x, out)?;
    let g2 = bound.var(&format!("encoder.{e}.output.ln.gamma"))?;
    let b2 = bound.var(&format!("encoder.{e}.output.ln.beta"))?;
    graph.layer_norm(res, g2, b2, LAYER_NORM_EPS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dims() -> EncoderDims {
        EncoderDims {
            layers: 1,
            hidden: 16,
            heads: 2,
            intermediate: 32,
            vocab: 12,
            max_position: 8,
            type_vocab: 2,
        }
    }

    #[test]
    fn init_creates_model_compatible_names() {
        let p = init_encoder_params(&dims(), &mut StdRng::seed_from_u64(1)).unwrap();
        for name in [
            "embeddings.word",
            "embeddings.position",
            "embeddings.token_type",
            "embeddings.ln.gamma",
            "encoder.0.attention.query",
            "encoder.0.attention.query.bias",
            "encoder.0.attention.ln.beta",
            "encoder.0.intermediate",
            "encoder.0.output",
            "encoder.0.output.ln.gamma",
            "pooler",
            "pooler.bias",
        ] {
            assert!(p.get(name).is_ok(), "missing {name}");
        }
    }

    #[test]
    fn validates_dims() {
        let mut d = dims();
        d.heads = 3; // 16 % 3 != 0
        assert!(init_encoder_params(&d, &mut StdRng::seed_from_u64(1)).is_err());
        let mut d = dims();
        d.layers = 0;
        assert!(d.validate().is_err());
        let mut d = dims();
        d.vocab = 0;
        assert!(d.validate().is_err());
    }

    #[test]
    fn forward_produces_finite_pooled_output() {
        let d = dims();
        let p = init_encoder_params(&d, &mut StdRng::seed_from_u64(2)).unwrap();
        let mut g = Graph::new();
        let bound = BoundParams::bind(&mut g, &p);
        let out = encoder_forward(&mut g, &bound, &d, &[1, 2, 3], &[]).unwrap();
        assert_eq!(g.value(out.hidden).dims(), &[3, 16]);
        assert_eq!(g.value(out.pooled).dims(), &[1, 16]);
        assert!(g.value(out.pooled).all_finite());
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let d = dims();
        let p = init_encoder_params(&d, &mut StdRng::seed_from_u64(3)).unwrap();
        let mut g = Graph::new();
        let bound = BoundParams::bind(&mut g, &p);
        let out = encoder_forward(&mut g, &bound, &d, &[1, 2, 3, 4], &[0, 0, 1, 1]).unwrap();
        let loss = g.mean(out.pooled).unwrap();
        let grads = g.backward(loss).unwrap();
        let named: Vec<&str> = bound.named_gradients(&grads).map(|(n, _)| n).collect();
        // Everything except the unused tail of the embedding tables must
        // receive gradient; in particular every FC weight and LayerNorm.
        for name in [
            "embeddings.word",
            "embeddings.position",
            "embeddings.token_type",
            "encoder.0.attention.query",
            "encoder.0.attention.key",
            "encoder.0.attention.value",
            "encoder.0.attention.output",
            "encoder.0.intermediate",
            "encoder.0.output",
            "encoder.0.attention.ln.gamma",
            "encoder.0.output.ln.beta",
            "pooler",
            "pooler.bias",
        ] {
            assert!(named.contains(&name), "no gradient for {name}");
        }
    }

    #[test]
    fn one_epoch_reduces_loss_on_toy_classification() {
        // Classify whether the first token is < vocab/2, from the pooled
        // output through a small head. A single encoder layer must be
        // able to learn this quickly.
        let d = dims();
        let mut rng = StdRng::seed_from_u64(4);
        let mut params = init_encoder_params(&d, &mut rng).unwrap();
        params.insert("head", xavier_normal(&mut rng, 2, d.hidden));
        params.insert("head.bias", Tensor::zeros(&[2]));
        let mut adam = Adam::new(5e-3).unwrap();

        let examples: Vec<(Vec<usize>, usize)> = (0..24)
            .map(|i| {
                let first = i % d.vocab;
                (
                    vec![first, (i * 5) % d.vocab, (i * 3) % d.vocab],
                    usize::from(first < d.vocab / 2),
                )
            })
            .collect();

        let epoch_loss = |params: &ParamSet| -> f32 {
            examples
                .iter()
                .map(|(ids, label)| {
                    let mut g = Graph::new();
                    let bound = BoundParams::bind(&mut g, params);
                    let out = encoder_forward(&mut g, &bound, &d, ids, &[]).unwrap();
                    let hw = bound.var("head").unwrap();
                    let hb = bound.var("head.bias").unwrap();
                    let logits = g.matmul_nt(out.pooled, hw).unwrap();
                    let logits = g.add_bias(logits, hb).unwrap();
                    let loss = g.cross_entropy(logits, &[*label]).unwrap();
                    g.value(loss).as_slice()[0]
                })
                .sum::<f32>()
                / examples.len() as f32
        };

        let before = epoch_loss(&params);
        for _ in 0..3 {
            for (ids, label) in &examples {
                let mut g = Graph::new();
                let bound = BoundParams::bind(&mut g, &params);
                let out = encoder_forward(&mut g, &bound, &d, ids, &[]).unwrap();
                let hw = bound.var("head").unwrap();
                let hb = bound.var("head.bias").unwrap();
                let logits = g.matmul_nt(out.pooled, hw).unwrap();
                let logits = g.add_bias(logits, hb).unwrap();
                let loss = g.cross_entropy(logits, &[*label]).unwrap();
                let grads = g.backward(loss).unwrap();
                adam.step(&mut params, bound.named_gradients(&grads)).unwrap();
            }
        }
        let after = epoch_loss(&params);
        assert!(after < before * 0.8, "loss {before} -> {after}");
    }
}
