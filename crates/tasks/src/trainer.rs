//! Fine-tuning loop for the tiny encoders.

use gobo_train::layers::{encoder_forward, init_encoder_params, EncoderDims};
use gobo_train::params::BoundParams;
use gobo_train::{Adam, Graph, ParamSet};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::data::{Example, Label, TaskKind};
use crate::error::TaskError;
use crate::heads::init_head;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainerOptions {
    /// Number of passes over the dataset.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// RNG seed (initialization and shuffling).
    pub seed: u64,
}

impl Default for TrainerOptions {
    fn default() -> Self {
        TrainerOptions { epochs: 5, learning_rate: 3e-4, seed: 0 }
    }
}

/// A trained encoder + task head, ready for export and evaluation.
#[derive(Debug, Clone)]
pub struct TrainedModel {
    /// All trained parameters (encoder + `head.*`).
    pub params: ParamSet,
    /// The encoder geometry.
    pub dims: EncoderDims,
    /// The task the head was trained for.
    pub kind: TaskKind,
    /// Mean training loss of the final epoch.
    pub final_loss: f32,
}

/// Trains a tiny encoder with a task head on a synthetic dataset.
///
/// # Errors
///
/// Returns [`TaskError::EmptyDataset`] for an empty dataset,
/// [`TaskError::LabelKindMismatch`] when an example's label does not
/// match `kind`, and propagates training failures.
pub fn train(
    kind: TaskKind,
    dims: &EncoderDims,
    dataset: &[Example],
    options: &TrainerOptions,
) -> Result<TrainedModel, TaskError> {
    if dataset.is_empty() {
        return Err(TaskError::EmptyDataset);
    }
    check_labels(kind, dataset)?;
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut params = init_encoder_params(dims, &mut rng)?;
    init_head(kind, dims.hidden, &mut params, &mut rng);
    let mut adam = Adam::new(options.learning_rate)?.with_clip_norm(1.0)?;

    let mut order: Vec<usize> = (0..dataset.len()).collect();
    let mut final_loss = f32::INFINITY;
    for _ in 0..options.epochs.max(1) {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f32;
        for &i in &order {
            let example = &dataset[i];
            let mut graph = Graph::new();
            let bound = BoundParams::bind(&mut graph, &params);
            let loss = example_loss(kind, dims, &mut graph, &bound, example)?;
            epoch_loss += graph.value(loss).as_slice()[0];
            let grads = graph.backward(loss)?;
            adam.step(&mut params, bound.named_gradients(&grads))?;
        }
        final_loss = epoch_loss / dataset.len() as f32;
    }
    Ok(TrainedModel { params, dims: *dims, kind, final_loss })
}

/// Computes the mean loss of a parameter set over a dataset without
/// updating anything — the tests' measure of whether training learned.
///
/// # Errors
///
/// Same conditions as [`train`].
#[cfg(test)]
fn evaluate_loss(
    kind: TaskKind,
    dims: &EncoderDims,
    params: &ParamSet,
    dataset: &[Example],
) -> Result<f32, TaskError> {
    if dataset.is_empty() {
        return Err(TaskError::EmptyDataset);
    }
    check_labels(kind, dataset)?;
    let mut total = 0.0f32;
    for example in dataset {
        let mut graph = Graph::new();
        let bound = BoundParams::bind(&mut graph, params);
        let loss = example_loss(kind, dims, &mut graph, &bound, example)?;
        total += graph.value(loss).as_slice()[0];
    }
    Ok(total / dataset.len() as f32)
}

fn check_labels(kind: TaskKind, dataset: &[Example]) -> Result<(), TaskError> {
    let ok = dataset.iter().all(|e| {
        matches!(
            (kind, &e.label),
            (TaskKind::Nli, Label::Class(_))
                | (TaskKind::Sts, Label::Score(_))
                | (TaskKind::Span, Label::Span { .. })
        )
    });
    if ok {
        Ok(())
    } else {
        Err(TaskError::LabelKindMismatch)
    }
}

/// Builds the forward pass + loss for one example on the tape.
fn example_loss(
    kind: TaskKind,
    dims: &EncoderDims,
    graph: &mut Graph,
    bound: &BoundParams,
    example: &Example,
) -> Result<gobo_train::VarId, TaskError> {
    let out = encoder_forward(graph, bound, dims, &example.ids, &example.type_ids)?;
    let loss = match (kind, &example.label) {
        (TaskKind::Nli, Label::Class(c)) => {
            let w = bound.var("head.classifier")?;
            let b = bound.var("head.classifier.bias")?;
            let logits = graph.matmul_nt(out.pooled, w)?;
            let logits = graph.add_bias(logits, b)?;
            graph.cross_entropy(logits, &[*c])?
        }
        (TaskKind::Sts, Label::Score(s)) => {
            let w = bound.var("head.regressor")?;
            let b = bound.var("head.regressor.bias")?;
            let pred = graph.matmul_nt(out.pooled, w)?;
            let pred = graph.add_bias(pred, b)?;
            // Train against the score normalized to [0, 1].
            let target = graph.constant(
                gobo_tensor::Tensor::from_vec(vec![s / 5.0], &[1, 1])
                    .map_err(gobo_train::TrainError::from)?,
            );
            graph.mse(pred, target)?
        }
        (TaskKind::Span, Label::Span { start, end }) => {
            let ws = bound.var("head.span_start")?;
            let bs = bound.var("head.span_start.bias")?;
            let we = bound.var("head.span_end")?;
            let be = bound.var("head.span_end.bias")?;
            let seq = example.ids.len();
            let s_logits = graph.matmul_nt(out.hidden, ws)?;
            let s_logits = graph.add_bias(s_logits, bs)?;
            let s_logits = graph.reshape(s_logits, &[1, seq])?;
            let e_logits = graph.matmul_nt(out.hidden, we)?;
            let e_logits = graph.add_bias(e_logits, be)?;
            let e_logits = graph.reshape(e_logits, &[1, seq])?;
            let ls = graph.cross_entropy(s_logits, &[*start])?;
            let le = graph.cross_entropy(e_logits, &[*end])?;
            let sum = graph.add(ls, le)?;
            graph.scale(sum, 0.5)
        }
        _ => return Err(TaskError::LabelKindMismatch),
    };
    Ok(loss)
}

/// The standard tiny geometry used across the accuracy experiments: a
/// 2-layer, 48-wide encoder (heads of 12, mirroring BERT's ratio).
pub fn tiny_dims(vocab: usize, max_position: usize) -> EncoderDims {
    EncoderDims {
        layers: 2,
        hidden: 48,
        heads: 4,
        intermediate: 192,
        vocab,
        max_position,
        type_vocab: 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{nli, span, sts, TaskSpec};

    fn spec() -> TaskSpec {
        TaskSpec::small(62)
    }

    fn dims(spec: &TaskSpec) -> EncoderDims {
        EncoderDims {
            layers: 1,
            hidden: 24,
            heads: 2,
            intermediate: 48,
            vocab: spec.vocab,
            max_position: 16,
            type_vocab: 2,
        }
    }

    #[test]
    fn training_reduces_nli_loss() {
        let s = spec();
        let d = dims(&s);
        let data = nli(&s, 48, &mut StdRng::seed_from_u64(1)).unwrap();
        let init = {
            let mut rng = StdRng::seed_from_u64(0);
            let mut p = init_encoder_params(&d, &mut rng).unwrap();
            init_head(TaskKind::Nli, d.hidden, &mut p, &mut rng);
            evaluate_loss(TaskKind::Nli, &d, &p, &data).unwrap()
        };
        let trained = train(
            TaskKind::Nli,
            &d,
            &data,
            &TrainerOptions { epochs: 3, learning_rate: 3e-4, seed: 0 },
        )
        .unwrap();
        let after = evaluate_loss(TaskKind::Nli, &d, &trained.params, &data).unwrap();
        assert!(after < init * 0.9, "loss {init} -> {after}");
        assert!(trained.final_loss.is_finite());
    }

    #[test]
    fn training_reduces_sts_loss() {
        let s = spec();
        let d = dims(&s);
        let data = sts(&s, 36, &mut StdRng::seed_from_u64(2)).unwrap();
        let trained = train(
            TaskKind::Sts,
            &d,
            &data,
            &TrainerOptions { epochs: 3, learning_rate: 3e-4, seed: 0 },
        )
        .unwrap();
        let after = evaluate_loss(TaskKind::Sts, &d, &trained.params, &data).unwrap();
        // MSE on [0,1]-normalized targets for a random guesser is ~0.1+;
        // two epochs should be well under that.
        assert!(after < 0.1, "sts loss {after}");
    }

    #[test]
    fn training_reduces_span_loss() {
        let s = spec();
        let d = dims(&s);
        let data = span(&s, 36, &mut StdRng::seed_from_u64(3)).unwrap();
        let init = {
            let mut rng = StdRng::seed_from_u64(0);
            let mut p = init_encoder_params(&d, &mut rng).unwrap();
            init_head(TaskKind::Span, d.hidden, &mut p, &mut rng);
            evaluate_loss(TaskKind::Span, &d, &p, &data).unwrap()
        };
        let trained = train(
            TaskKind::Span,
            &d,
            &data,
            &TrainerOptions { epochs: 3, learning_rate: 3e-4, seed: 0 },
        )
        .unwrap();
        let after = evaluate_loss(TaskKind::Span, &d, &trained.params, &data).unwrap();
        assert!(after < init, "loss {init} -> {after}");
    }

    #[test]
    fn rejects_mismatched_labels() {
        let s = spec();
        let d = dims(&s);
        let data = nli(&s, 6, &mut StdRng::seed_from_u64(4)).unwrap();
        assert!(matches!(
            train(TaskKind::Sts, &d, &data, &TrainerOptions::default()),
            Err(TaskError::LabelKindMismatch)
        ));
        assert!(matches!(
            train(TaskKind::Nli, &d, &[], &TrainerOptions::default()),
            Err(TaskError::EmptyDataset)
        ));
    }

    #[test]
    fn tiny_dims_are_valid() {
        assert!(tiny_dims(62, 16).validate().is_ok());
    }
}
