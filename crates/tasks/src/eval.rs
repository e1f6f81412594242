//! Inference-side evaluation of (possibly quantized) models.
//!
//! This is the measurement loop behind every accuracy column in the
//! paper's tables: run the FP32-decoded model over a task's dataset and
//! report the task metric. Encodes run in fused batches of
//! [`EVAL_BATCH`] sequences — the batched forward is bitwise identical
//! to encoding each example alone, so scores are unchanged while the
//! per-layer work is amortized exactly as in the serving tier.

use gobo_model::batch::EncodeInput;
use gobo_model::forward::EncoderOutput;
use gobo_model::TransformerModel;
use gobo_tensor::Tensor;

use crate::data::{Example, TaskKind};
use crate::error::TaskError;
use crate::heads::HeadWeights;
use crate::metrics;

/// A task metric value with its name.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskScore {
    /// The task that was evaluated.
    pub kind: TaskKind,
    /// Metric name (`accuracy`, `spearman`, `f1`).
    pub metric: &'static str,
    /// Metric value in `[0, 1]` (Spearman may be negative for broken
    /// models).
    pub value: f64,
}

/// Evaluates a model + head over a dataset, dispatching on the head's
/// task kind.
///
/// # Errors
///
/// Returns [`TaskError::EmptyDataset`] for empty datasets,
/// [`TaskError::LabelKindMismatch`] for label/kind disagreements, and
/// propagates inference failures.
pub fn evaluate(
    model: &TransformerModel,
    head: &HeadWeights,
    dataset: &[Example],
) -> Result<TaskScore, TaskError> {
    if dataset.is_empty() {
        return Err(TaskError::EmptyDataset);
    }
    let outputs = encode_all(model, dataset)?;
    match head {
        HeadWeights::Classifier { weight, bias } => {
            let mut preds = Vec::with_capacity(dataset.len());
            let mut gold = Vec::with_capacity(dataset.len());
            for (ex, out) in dataset.iter().zip(&outputs) {
                gold.push(ex.label.as_class()?);
                preds.push(classify(model, weight, bias, out)?);
            }
            Ok(TaskScore {
                kind: TaskKind::Nli,
                metric: "accuracy",
                value: metrics::accuracy(&preds, &gold)?,
            })
        }
        HeadWeights::Regressor { weight, bias } => {
            let mut preds = Vec::with_capacity(dataset.len());
            let mut gold = Vec::with_capacity(dataset.len());
            for (ex, out) in dataset.iter().zip(&outputs) {
                gold.push(ex.label.as_score()?);
                preds.push(regress(model, weight, bias, out)?);
            }
            Ok(TaskScore {
                kind: TaskKind::Sts,
                metric: "spearman",
                value: metrics::spearman(&preds, &gold)?,
            })
        }
        HeadWeights::Span { start_weight, start_bias, end_weight, end_bias } => {
            let mut preds = Vec::with_capacity(dataset.len());
            let mut gold = Vec::with_capacity(dataset.len());
            for (ex, out) in dataset.iter().zip(&outputs) {
                gold.push(ex.label.as_span()?);
                preds.push(extract_span(start_weight, start_bias, end_weight, end_bias, out)?);
            }
            Ok(TaskScore {
                kind: TaskKind::Span,
                metric: "f1",
                value: metrics::mean_span_f1(&preds, &gold)?,
            })
        }
    }
}

/// Sequences per fused forward during evaluation: large enough to
/// amortize each layer's weight traversal, small enough that the
/// stacked activation panel of even long sequences stays modest.
const EVAL_BATCH: usize = 32;

/// Encodes the whole dataset in [`EVAL_BATCH`]-sized fused batches.
fn encode_all(
    model: &TransformerModel,
    dataset: &[Example],
) -> Result<Vec<EncoderOutput>, TaskError> {
    let mut outputs = Vec::with_capacity(dataset.len());
    for chunk in dataset.chunks(EVAL_BATCH) {
        let inputs: Vec<EncodeInput<'_>> =
            chunk.iter().map(|ex| EncodeInput { ids: &ex.ids, type_ids: &ex.type_ids }).collect();
        outputs.extend(model.encode_batch(&inputs)?);
    }
    Ok(outputs)
}

fn pooled(model: &TransformerModel, out: &EncoderOutput) -> Result<Tensor, TaskError> {
    let hidden = model.config().hidden;
    let pooled = out
        .pooled
        .as_ref()
        .ok_or(gobo_model::ModelError::InvalidInput { what: "model has no pooler" })?;
    Ok(pooled.reshape(&[1, hidden]).map_err(gobo_model::ModelError::from)?)
}

fn classify(
    model: &TransformerModel,
    weight: &Tensor,
    bias: &Tensor,
    out: &EncoderOutput,
) -> Result<usize, TaskError> {
    let p = pooled(model, out)?;
    let logits =
        p.matmul_nt(weight).and_then(|l| l.add_bias(bias)).map_err(gobo_model::ModelError::from)?;
    Ok(logits.argmax_rows().map_err(gobo_model::ModelError::from)?[0])
}

fn regress(
    model: &TransformerModel,
    weight: &Tensor,
    bias: &Tensor,
    out: &EncoderOutput,
) -> Result<f32, TaskError> {
    let p = pooled(model, out)?;
    let pred =
        p.matmul_nt(weight).and_then(|l| l.add_bias(bias)).map_err(gobo_model::ModelError::from)?;
    Ok(pred.as_slice()[0] * 5.0)
}

fn extract_span(
    start_weight: &Tensor,
    start_bias: &Tensor,
    end_weight: &Tensor,
    end_bias: &Tensor,
    out: &EncoderOutput,
) -> Result<(usize, usize), TaskError> {
    let score = |w: &Tensor, b: &Tensor| -> Result<Vec<f32>, TaskError> {
        let logits = out
            .hidden
            .matmul_nt(w)
            .and_then(|l| l.add_bias(b))
            .map_err(gobo_model::ModelError::from)?;
        Ok(logits.into_vec())
    };
    let start_scores = score(start_weight, start_bias)?;
    let end_scores = score(end_weight, end_bias)?;
    let start = argmax(&start_scores);
    // End is constrained to start at or after the predicted start.
    let end = start + argmax(&end_scores[start..]);
    Ok((start, end))
}

fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in xs.iter().enumerate() {
        if v > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{nli, span, sts, TaskSpec};
    use crate::export::to_transformer_model;
    use crate::heads::HeadWeights;
    use crate::trainer::{train, TrainerOptions};
    use gobo_train::layers::EncoderDims;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec() -> TaskSpec {
        TaskSpec::small(62)
    }

    fn dims(s: &TaskSpec) -> EncoderDims {
        EncoderDims {
            layers: 1,
            hidden: 24,
            heads: 2,
            intermediate: 48,
            vocab: s.vocab,
            max_position: 16,
            type_vocab: 2,
        }
    }

    #[test]
    fn trained_nli_beats_chance() {
        let s = spec();
        let d = dims(&s);
        let mut rng = StdRng::seed_from_u64(10);
        let train_data = nli(&s, 150, &mut rng).unwrap();
        let trained = train(
            TaskKind::Nli,
            &d,
            &train_data,
            &TrainerOptions { epochs: 5, learning_rate: 3e-4, seed: 1 },
        )
        .unwrap();
        let model = to_transformer_model("TinyNLI", &d, &trained.params).unwrap();
        let head = HeadWeights::extract(TaskKind::Nli, &trained.params).unwrap();
        // Unit tests check pipeline consistency on the training set; the
        // generalizing reference models live in the (release-mode)
        // experiment harness with larger data and width.
        let score = evaluate(&model, &head, &train_data).unwrap();
        assert_eq!(score.metric, "accuracy");
        assert!(score.value > 0.55, "train accuracy {} should beat 3-way chance", score.value);
    }

    #[test]
    fn trained_sts_correlates() {
        let s = spec();
        let d = dims(&s);
        let mut rng = StdRng::seed_from_u64(11);
        let train_data = sts(&s, 150, &mut rng).unwrap();
        let trained = train(
            TaskKind::Sts,
            &d,
            &train_data,
            &TrainerOptions { epochs: 5, learning_rate: 3e-4, seed: 2 },
        )
        .unwrap();
        let model = to_transformer_model("TinySTS", &d, &trained.params).unwrap();
        let head = HeadWeights::extract(TaskKind::Sts, &trained.params).unwrap();
        let score = evaluate(&model, &head, &train_data).unwrap();
        assert_eq!(score.metric, "spearman");
        assert!(score.value > 0.6, "train spearman {}", score.value);
    }

    #[test]
    fn trained_span_finds_answers() {
        let s = spec();
        let d = dims(&s);
        let mut rng = StdRng::seed_from_u64(12);
        let train_data = span(&s, 150, &mut rng).unwrap();
        let trained = train(
            TaskKind::Span,
            &d,
            &train_data,
            &TrainerOptions { epochs: 5, learning_rate: 3e-4, seed: 3 },
        )
        .unwrap();
        let model = to_transformer_model("TinySpan", &d, &trained.params).unwrap();
        let head = HeadWeights::extract(TaskKind::Span, &trained.params).unwrap();
        let score = evaluate(&model, &head, &train_data).unwrap();
        assert_eq!(score.metric, "f1");
        // Random spans on a ~13-token sequence score ≈ 0.1; learning the
        // copy-match rule should do far better.
        assert!(score.value > 0.45, "train f1 {}", score.value);
    }

    #[test]
    fn label_mismatch_detected() {
        let s = spec();
        let d = dims(&s);
        let mut rng = StdRng::seed_from_u64(13);
        let data = nli(&s, 9, &mut rng).unwrap();
        let trained = train(
            TaskKind::Nli,
            &d,
            &data,
            &TrainerOptions { epochs: 1, learning_rate: 3e-4, seed: 0 },
        )
        .unwrap();
        let model = to_transformer_model("Tiny", &d, &trained.params).unwrap();
        let head = HeadWeights::extract(TaskKind::Nli, &trained.params).unwrap();
        let sts_data = sts(&s, 6, &mut rng).unwrap();
        assert!(matches!(evaluate(&model, &head, &sts_data), Err(TaskError::LabelKindMismatch)));
        assert!(matches!(evaluate(&model, &head, &[]), Err(TaskError::EmptyDataset)));
    }
}
