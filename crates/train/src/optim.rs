//! Optimizers over named parameter sets.

use std::collections::BTreeMap;

use gobo_tensor::Tensor;

use crate::error::TrainError;
use crate::params::ParamSet;

/// Adam with optional global-norm gradient clipping — the de-facto
/// transformer fine-tuning optimizer.
///
/// # Example
///
/// ```
/// use gobo_tensor::Tensor;
/// use gobo_train::{Adam, ParamSet};
///
/// let mut params = ParamSet::new();
/// params.insert("w", Tensor::from_vec(vec![1.0], &[1])?);
/// let mut adam = Adam::new(0.1)?;
/// // Gradient of f(w) = w² at w=1 is 2: one step moves w toward 0.
/// let grad = Tensor::from_vec(vec![2.0], &[1])?;
/// adam.step(&mut params, [("w", &grad)].into_iter())?;
/// assert!(params.get("w")?.as_slice()[0] < 1.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    learning_rate: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    clip_norm: Option<f32>,
    step_count: u64,
    first_moment: BTreeMap<String, Tensor>,
    second_moment: BTreeMap<String, Tensor>,
}

impl Adam {
    /// Creates Adam with the standard moments (β₁ 0.9, β₂ 0.999).
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::InvalidHyperparameter`] for a non-positive
    /// or non-finite learning rate.
    pub fn new(learning_rate: f32) -> Result<Self, TrainError> {
        if !(learning_rate.is_finite() && learning_rate > 0.0) {
            return Err(TrainError::InvalidHyperparameter { name: "learning_rate" });
        }
        Ok(Adam {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip_norm: None,
            step_count: 0,
            first_moment: BTreeMap::new(),
            second_moment: BTreeMap::new(),
        })
    }

    /// Enables global-norm gradient clipping.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::InvalidHyperparameter`] for a non-positive
    /// or non-finite bound.
    pub fn with_clip_norm(mut self, max_norm: f32) -> Result<Self, TrainError> {
        if !(max_norm.is_finite() && max_norm > 0.0) {
            return Err(TrainError::InvalidHyperparameter { name: "clip_norm" });
        }
        self.clip_norm = Some(max_norm);
        Ok(self)
    }

    /// Applies one update from `(name, gradient)` pairs.
    ///
    /// Parameters without a gradient this step keep their value (their
    /// moment estimates are not decayed either, matching "lazy" Adam
    /// semantics for sparse updates such as embedding tables).
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::UnknownParameter`] when a gradient names a
    /// parameter the set does not contain, and propagates shape
    /// mismatches as [`TrainError::Tensor`].
    pub fn step<'a, I>(&mut self, params: &mut ParamSet, grads: I) -> Result<(), TrainError>
    where
        I: Iterator<Item = (&'a str, &'a Tensor)>,
    {
        self.step_count += 1;
        let t = self.step_count as i32;
        let bias1 = 1.0 - self.beta1.powi(t);
        let bias2 = 1.0 - self.beta2.powi(t);

        let collected: Vec<(&str, &Tensor)> = grads.collect();
        let scale = match self.clip_norm {
            Some(max) => {
                let norm = collected
                    .iter()
                    .flat_map(|(_, g)| g.as_slice())
                    .map(|&v| f64::from(v) * f64::from(v))
                    .sum::<f64>()
                    .sqrt() as f32;
                if norm > max {
                    max / norm
                } else {
                    1.0
                }
            }
            None => 1.0,
        };

        for (name, grad) in collected {
            let value = params.get_mut(name)?;
            if value.dims() != grad.dims() {
                return Err(gobo_tensor::TensorError::ShapeMismatch {
                    op: "adam_step",
                    lhs: value.dims().to_vec(),
                    rhs: grad.dims().to_vec(),
                }
                .into());
            }
            let m = self
                .first_moment
                .entry(name.to_owned())
                .or_insert_with(|| Tensor::zeros(grad.dims()));
            let v = self
                .second_moment
                .entry(name.to_owned())
                .or_insert_with(|| Tensor::zeros(grad.dims()));
            let lr = self.learning_rate;
            let (b1, b2, eps) = (self.beta1, self.beta2, self.eps);
            let pv = value.as_mut_slice();
            let ms = m.as_mut_slice();
            let vs = v.as_mut_slice();
            for i in 0..pv.len() {
                let g = grad.as_slice()[i] * scale;
                ms[i] = b1 * ms[i] + (1.0 - b1) * g;
                vs[i] = b2 * vs[i] + (1.0 - b2) * g * g;
                let m_hat = ms[i] / bias1;
                let v_hat = vs[i] / bias2;
                pv[i] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_param(v: f32) -> ParamSet {
        let mut p = ParamSet::new();
        p.insert("w", Tensor::from_vec(vec![v], &[1]).unwrap());
        p
    }

    #[test]
    fn minimizes_quadratic() {
        // f(w) = (w - 3)², gradient 2(w - 3).
        let mut params = scalar_param(0.0);
        let mut adam = Adam::new(0.1).unwrap();
        for _ in 0..500 {
            let w = params.get("w").unwrap().as_slice()[0];
            let grad = Tensor::from_vec(vec![2.0 * (w - 3.0)], &[1]).unwrap();
            adam.step(&mut params, [("w", &grad)].into_iter()).unwrap();
        }
        let w = params.get("w").unwrap().as_slice()[0];
        assert!((w - 3.0).abs() < 0.05, "converged to {w}");
    }

    #[test]
    fn first_step_magnitude_is_learning_rate() {
        // With bias correction, |Δw| of the first step ≈ lr regardless
        // of gradient scale.
        for g0 in [0.001f32, 1.0, 1000.0] {
            let mut params = scalar_param(0.0);
            let mut adam = Adam::new(0.01).unwrap();
            let grad = Tensor::from_vec(vec![g0], &[1]).unwrap();
            adam.step(&mut params, [("w", &grad)].into_iter()).unwrap();
            let w = params.get("w").unwrap().as_slice()[0];
            assert!((w.abs() - 0.01).abs() < 1e-4, "step {w} for gradient {g0}");
        }
    }

    #[test]
    fn clipping_bounds_update() {
        let mut a = scalar_param(0.0);
        let mut b = scalar_param(0.0);
        let huge = Tensor::from_vec(vec![1e6], &[1]).unwrap();
        let mut unclipped = Adam::new(0.1).unwrap();
        let mut clipped = Adam::new(0.1).unwrap().with_clip_norm(1.0).unwrap();
        unclipped.step(&mut a, [("w", &huge)].into_iter()).unwrap();
        clipped.step(&mut b, [("w", &huge)].into_iter()).unwrap();
        // Both move by ≈ lr on the first step (sign step), but the
        // clipped one must have seen a gradient of magnitude 1.
        assert_eq!(clipped.step_count, 1);
        assert!(b.get("w").unwrap().as_slice()[0].abs() <= 0.11);
        assert!(a.get("w").unwrap().all_finite());
    }

    #[test]
    fn validates_hyperparameters() {
        assert!(Adam::new(0.0).is_err());
        assert!(Adam::new(-1.0).is_err());
        assert!(Adam::new(f32::NAN).is_err());
        assert!(Adam::new(0.1).unwrap().with_clip_norm(0.0).is_err());
    }

    #[test]
    fn unknown_parameter_rejected() {
        let mut params = scalar_param(0.0);
        let mut adam = Adam::new(0.1).unwrap();
        let g = Tensor::ones(&[1]);
        assert!(adam.step(&mut params, [("nope", &g)].into_iter()).is_err());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut params = scalar_param(0.0);
        let mut adam = Adam::new(0.1).unwrap();
        let g = Tensor::ones(&[2]);
        assert!(matches!(
            adam.step(&mut params, [("w", &g)].into_iter()),
            Err(TrainError::Tensor(_))
        ));
    }

    #[test]
    fn multi_param_step_updates_all() {
        let mut params = ParamSet::new();
        params.insert("a", Tensor::zeros(&[2]));
        params.insert("b", Tensor::zeros(&[3]));
        let ga = Tensor::ones(&[2]);
        let gb = Tensor::full(&[3], -1.0);
        let mut adam = Adam::new(0.05).unwrap();
        adam.step(&mut params, [("a", &ga), ("b", &gb)].into_iter()).unwrap();
        assert!(params.get("a").unwrap().as_slice().iter().all(|&v| v < 0.0));
        assert!(params.get("b").unwrap().as_slice().iter().all(|&v| v > 0.0));
    }
}
