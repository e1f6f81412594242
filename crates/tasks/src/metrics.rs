//! Task metrics: accuracy, Spearman, span F1.

use crate::error::TaskError;

/// Fraction of exact matches between predictions and gold classes.
///
/// # Errors
///
/// Returns [`TaskError::EmptyDataset`] for empty inputs and
/// [`TaskError::InvalidParameter`] when lengths differ.
pub fn accuracy(predictions: &[usize], gold: &[usize]) -> Result<f64, TaskError> {
    if predictions.is_empty() {
        return Err(TaskError::EmptyDataset);
    }
    if predictions.len() != gold.len() {
        return Err(TaskError::InvalidParameter { name: "predictions" });
    }
    let hits = predictions.iter().zip(gold).filter(|(p, g)| p == g).count();
    Ok(hits as f64 / predictions.len() as f64)
}

/// Spearman rank correlation between predicted and gold scores (the
/// STS-B metric), as a percentage-like fraction in `[-1, 1]`.
///
/// # Errors
///
/// Propagates [`gobo_stats::spearman`] failures.
pub fn spearman(predictions: &[f32], gold: &[f32]) -> Result<f64, TaskError> {
    Ok(gobo_stats::spearman(predictions, gold)?)
}

/// Token-overlap F1 of one predicted span against the gold span
/// (inclusive bounds), as used by SQuAD.
pub fn span_f1(pred: (usize, usize), gold: (usize, usize)) -> f64 {
    let (ps, pe) = (pred.0.min(pred.1), pred.0.max(pred.1));
    let (gs, ge) = gold;
    let overlap_start = ps.max(gs);
    let overlap_end = pe.min(ge);
    if overlap_end < overlap_start {
        return 0.0;
    }
    let overlap = (overlap_end - overlap_start + 1) as f64;
    let pred_len = (pe - ps + 1) as f64;
    let gold_len = (ge - gs + 1) as f64;
    let precision = overlap / pred_len;
    let recall = overlap / gold_len;
    2.0 * precision * recall / (precision + recall)
}

/// Mean [`span_f1`] over a dataset.
///
/// # Errors
///
/// Returns [`TaskError::EmptyDataset`] for empty inputs and
/// [`TaskError::InvalidParameter`] when lengths differ.
pub fn mean_span_f1(preds: &[(usize, usize)], gold: &[(usize, usize)]) -> Result<f64, TaskError> {
    if preds.is_empty() {
        return Err(TaskError::EmptyDataset);
    }
    if preds.len() != gold.len() {
        return Err(TaskError::InvalidParameter { name: "predictions" });
    }
    Ok(preds.iter().zip(gold).map(|(&p, &g)| span_f1(p, g)).sum::<f64>() / preds.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[0, 1, 2], &[0, 1, 1]).unwrap(), 2.0 / 3.0);
        assert_eq!(accuracy(&[1], &[1]).unwrap(), 1.0);
        assert!(accuracy(&[], &[]).is_err());
        assert!(accuracy(&[1], &[1, 2]).is_err());
    }

    #[test]
    fn spearman_delegates() {
        let r = spearman(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]).unwrap();
        assert!((r - 1.0).abs() < 1e-9);
    }

    #[test]
    fn span_f1_exact_match_is_one() {
        assert_eq!(span_f1((3, 5), (3, 5)), 1.0);
    }

    #[test]
    fn span_f1_disjoint_is_zero() {
        assert_eq!(span_f1((0, 2), (5, 7)), 0.0);
    }

    #[test]
    fn span_f1_partial_overlap() {
        // pred [2,4], gold [3,6]: overlap 2, P=2/3, R=2/4 → F1 = 4/7.
        let f1 = span_f1((2, 4), (3, 6));
        assert!((f1 - 4.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn span_f1_handles_inverted_prediction() {
        // A confused model may emit end < start; we normalize.
        assert_eq!(span_f1((5, 3), (3, 5)), 1.0);
    }

    #[test]
    fn mean_span_f1_averages() {
        let preds = [(0, 1), (4, 4)];
        let gold = [(0, 1), (9, 9)];
        assert_eq!(mean_span_f1(&preds, &gold).unwrap(), 0.5);
        assert!(mean_span_f1(&[], &[]).is_err());
        assert!(mean_span_f1(&[(0, 0)], &[]).is_err());
    }
}
