//! Linear-quantization baseline for the G group.
//!
//! Representative values are `2^bits` equidistant levels spanning the
//! G-group range, ignoring the weight distribution entirely. The paper's
//! Table IV shows this collapses accuracy at low bit widths (e.g. 52%
//! error at 3 bits on MNLI), motivating GOBO's distribution-aware
//! selection.

use crate::codebook::ConvergenceTrace;
use crate::error::QuantError;
use crate::gobo::Clustering;
use crate::init;

/// Quantizes G-group values to equidistant levels.
///
/// No iteration is involved; the trace contains the single resulting
/// L1/L2 point so linear quantization plots alongside the iterative
/// policies in Figure 2. Levels and norms are folds in the values'
/// order, so a layer passes its G group in input order.
///
/// # Errors
///
/// Propagates initialization errors ([`QuantError::TooFewValues`],
/// [`QuantError::EmptyLayer`], [`QuantError::InvalidConfig`]).
pub fn quantize_g<'a>(
    values: impl IntoIterator<Item = &'a f32, IntoIter: Clone>,
    clusters: usize,
) -> Result<Clustering, QuantError> {
    let values = values.into_iter();
    let codebook = init::linear(values.clone(), clusters)?;
    let assignments = codebook.assign(values.clone());
    let trace = ConvergenceTrace {
        l1: vec![codebook.l1_norm(values.clone(), &assignments)],
        l2: vec![codebook.l2_norm(values, &assignments)],
        selected_iteration: 0,
    };
    Ok(Clustering { codebook, assignments, trace })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gobo;

    fn peaked(n: usize) -> Vec<f32> {
        // Strongly non-uniform: most mass near zero, sparse tails — the
        // regime where linear quantization wastes its levels.
        (0..n)
            .map(|i| {
                let t = (i as f32 / n as f32) * 6.0 - 3.0;
                0.05 * t.tanh() + 0.002 * t
            })
            .collect()
    }

    #[test]
    fn levels_span_range() {
        let values = [-0.5f32, -0.1, 0.0, 0.2, 0.7];
        let c = quantize_g(&values, 4).unwrap();
        let cs = c.codebook.centroids();
        assert_eq!(cs[0], -0.5);
        assert_eq!(cs[3], 0.7);
    }

    #[test]
    fn quantization_error_bounded_by_half_step() {
        let values = peaked(1000);
        let c = quantize_g(&values, 8).unwrap();
        let cs = c.codebook.centroids();
        let step = cs[1] - cs[0];
        let decoded = c.codebook.decode(&c.assignments).unwrap();
        for (&v, &d) in values.iter().zip(&decoded) {
            assert!((v - d).abs() <= step / 2.0 + 1e-6);
        }
    }

    #[test]
    fn worse_than_gobo_on_peaked_distributions() {
        let values = peaked(10_000);
        let lin = quantize_g(&values, 8).unwrap();
        let gob = gobo::quantize_g(&values, 8, 100).unwrap();
        assert!(
            gob.mean_abs_error(&values) < lin.mean_abs_error(&values),
            "gobo {} vs linear {}",
            gob.mean_abs_error(&values),
            lin.mean_abs_error(&values)
        );
    }

    #[test]
    fn trace_has_single_point() {
        let values = peaked(100);
        let c = quantize_g(&values, 4).unwrap();
        assert_eq!(c.trace.iterations(), 1);
        assert_eq!(c.trace.selected_iteration, 0);
    }

    #[test]
    fn propagates_init_errors() {
        assert!(quantize_g(&[], 4).is_err());
        assert!(quantize_g(&[1.0], 0).is_err());
        // Fewer values than levels is fine for positional levels.
        assert!(quantize_g(&[1.0, 2.0], 4).is_ok());
    }
}
