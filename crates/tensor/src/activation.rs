//! Scalar activation functions and their derivatives.
//!
//! BERT uses GELU in the intermediate FC and tanh in the pooler. The
//! derivatives live here too so `gobo-train` can backpropagate through
//! them without duplicating the math.

use crate::tensor::Tensor;

/// Gaussian Error Linear Unit using the tanh approximation from the BERT
/// reference implementation:
/// `0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`.
pub fn gelu(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044715 * x * x * x)).tanh())
}

/// Derivative of [`gelu`] with respect to its input.
pub fn gelu_grad(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    let x3 = x * x * x;
    let inner = SQRT_2_OVER_PI * (x + 0.044715 * x3);
    let t = inner.tanh();
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * SQRT_2_OVER_PI * (1.0 + 3.0 * 0.044715 * x * x)
}

/// Rectified linear unit.
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Derivative of [`relu`]; the subgradient at 0 is taken as 0.
pub fn relu_grad(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Logistic sigmoid `1 / (1 + e^{-x})`.
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Derivative of `tanh` with respect to its input.
pub fn tanh_grad(x: f32) -> f32 {
    let t = x.tanh();
    1.0 - t * t
}

impl Tensor {
    /// Applies [`gelu`] element-wise.
    pub fn gelu(&self) -> Tensor {
        self.map(gelu)
    }

    /// Applies [`relu`] element-wise.
    pub fn relu(&self) -> Tensor {
        self.map(relu)
    }

    /// Applies `tanh` element-wise.
    pub fn tanh(&self) -> Tensor {
        self.map(f32::tanh)
    }

    /// Applies [`sigmoid`] element-wise.
    pub fn sigmoid(&self) -> Tensor {
        self.map(sigmoid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff(f: impl Fn(f32) -> f32, x: f32) -> f32 {
        let h = 1e-3;
        (f(x + h) - f(x - h)) / (2.0 * h)
    }

    #[test]
    fn gelu_known_values() {
        assert_eq!(gelu(0.0), 0.0);
        // GELU(x) → x for large positive x, → 0 for large negative x.
        assert!((gelu(10.0) - 10.0).abs() < 1e-3);
        assert!(gelu(-10.0).abs() < 1e-3);
        // Reference value: gelu(1.0) ≈ 0.8412.
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-3.0f32, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0] {
            let analytic = gelu_grad(x);
            let numeric = finite_diff(gelu, x);
            assert!((analytic - numeric).abs() < 1e-2, "x={x}: {analytic} vs {numeric}");
        }
    }

    #[test]
    fn relu_and_grad() {
        assert_eq!(relu(-2.0), 0.0);
        assert_eq!(relu(2.0), 2.0);
        assert_eq!(relu_grad(-1.0), 0.0);
        assert_eq!(relu_grad(1.0), 1.0);
    }

    #[test]
    fn sigmoid_symmetry_and_grad() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-6);
        for &x in &[-2.0f32, 0.0, 2.0] {
            let s = sigmoid(x);
            assert!((s * (1.0 - s) - finite_diff(sigmoid, x)).abs() < 1e-3);
        }
    }

    #[test]
    fn tanh_grad_matches_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.5, 2.0] {
            assert!((tanh_grad(x) - finite_diff(f32::tanh, x)).abs() < 1e-3);
        }
    }

    #[test]
    fn tensor_wrappers_apply_elementwise() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 1.0], &[3]).unwrap();
        assert_eq!(x.relu().as_slice(), &[0.0, 0.0, 1.0]);
        let g = x.gelu();
        assert_eq!(g.as_slice()[1], 0.0);
        assert!(g.as_slice()[0] < 0.0 && g.as_slice()[2] > 0.0);
        assert!((x.sigmoid().as_slice()[1] - 0.5).abs() < 1e-6);
        assert!((x.tanh().as_slice()[2] - 1.0f32.tanh()).abs() < 1e-6);
    }
}
