//! The autograd tape.
//!
//! A [`Graph`] records forward operations as append-only nodes; each
//! node stores its operands, its computed value, and whether any
//! gradient flows through it. [`Graph::backward`] seeds the scalar loss
//! with gradient 1 and walks the tape in reverse, accumulating
//! gradients into every node that requires them.

use gobo_tensor::activation::{gelu_grad, relu_grad, tanh_grad};
use gobo_tensor::embed::{gather_rows, scatter_add_rows};
use gobo_tensor::linalg::{merge_heads, split_heads, transpose_batched};
use gobo_tensor::norm::row_moments;
use gobo_tensor::{Tensor, TensorError};

use crate::error::TrainError;

/// Handle to a variable recorded on a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(usize);

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    Add(VarId, VarId),
    Sub(VarId, VarId),
    Mul(VarId, VarId),
    Scale(VarId, f32),
    AddBias(VarId, VarId),
    MatMulNT(VarId, VarId),
    BatchMatMulNT(VarId, VarId),
    TransposeBatched(VarId),
    SplitHeads(VarId),
    MergeHeads(VarId, usize),
    Gelu(VarId),
    Tanh(VarId),
    Relu(VarId),
    Softmax(VarId),
    LayerNorm { x: VarId, gamma: VarId, beta: VarId, eps: f32 },
    Embedding { table: VarId, ids: Vec<usize> },
    Row(VarId, usize),
    Reshape(VarId),
    Mean(VarId),
    CrossEntropy { logits: VarId, targets: Vec<usize> },
    Mse { pred: VarId, target: VarId },
}

#[derive(Debug, Clone)]
struct Node {
    op: Op,
    value: Tensor,
    requires_grad: bool,
}

/// Gradients produced by [`Graph::backward`], indexed by [`VarId`].
#[derive(Debug, Clone)]
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// The gradient of the loss with respect to `var`, if any flowed.
    pub fn get(&self, var: VarId) -> Option<&Tensor> {
        self.grads.get(var.0).and_then(|g| g.as_ref())
    }
}

/// A reverse-mode autograd tape.
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Graph { nodes: Vec::new() }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Records a trainable leaf (gradients will be computed).
    pub fn parameter(&mut self, value: Tensor) -> VarId {
        self.push(Op::Leaf, value, true)
    }

    /// Records a constant leaf (no gradient).
    pub fn constant(&mut self, value: Tensor) -> VarId {
        self.push(Op::Leaf, value, false)
    }

    /// The forward value of a variable.
    ///
    /// # Panics
    ///
    /// Panics when `var` does not belong to this graph (ids are only
    /// produced by this graph's methods, so that is a caller bug).
    pub fn value(&self, var: VarId) -> &Tensor {
        &self.nodes[var.0].value
    }

    fn push(&mut self, op: Op, value: Tensor, requires_grad: bool) -> VarId {
        self.nodes.push(Node { op, value, requires_grad });
        VarId(self.nodes.len() - 1)
    }

    fn needs(&self, var: VarId) -> bool {
        self.nodes[var.0].requires_grad
    }

    fn val(&self, var: VarId) -> &Tensor {
        &self.nodes[var.0].value
    }

    // --- forward ops ------------------------------------------------------

    /// Element-wise sum of two same-shaped variables.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches as [`TrainError::Tensor`].
    pub fn add(&mut self, a: VarId, b: VarId) -> Result<VarId, TrainError> {
        let value = self.val(a).add(self.val(b))?;
        let rg = self.needs(a) || self.needs(b);
        Ok(self.push(Op::Add(a, b), value, rg))
    }

    /// Element-wise difference `a - b`.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches as [`TrainError::Tensor`].
    pub fn sub(&mut self, a: VarId, b: VarId) -> Result<VarId, TrainError> {
        let value = self.val(a).sub(self.val(b))?;
        let rg = self.needs(a) || self.needs(b);
        Ok(self.push(Op::Sub(a, b), value, rg))
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches as [`TrainError::Tensor`].
    pub fn mul(&mut self, a: VarId, b: VarId) -> Result<VarId, TrainError> {
        let value = self.val(a).mul(self.val(b))?;
        let rg = self.needs(a) || self.needs(b);
        Ok(self.push(Op::Mul(a, b), value, rg))
    }

    /// Multiplies every element by a constant.
    pub fn scale(&mut self, a: VarId, s: f32) -> VarId {
        let value = self.val(a).scale(s);
        let rg = self.needs(a);
        self.push(Op::Scale(a, s), value, rg)
    }

    /// Adds a bias row to every row of a matrix-like variable.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches as [`TrainError::Tensor`].
    pub fn add_bias(&mut self, a: VarId, bias: VarId) -> Result<VarId, TrainError> {
        let value = self.val(a).add_bias(self.val(bias))?;
        let rg = self.needs(a) || self.needs(bias);
        Ok(self.push(Op::AddBias(a, bias), value, rg))
    }

    /// `a × wᵀ` for `a: (m, k)` and `w: (n, k)` — the FC-layer product.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches as [`TrainError::Tensor`].
    pub fn matmul_nt(&mut self, a: VarId, w: VarId) -> Result<VarId, TrainError> {
        let value = self.val(a).matmul_nt(self.val(w))?;
        let rg = self.needs(a) || self.needs(w);
        Ok(self.push(Op::MatMulNT(a, w), value, rg))
    }

    /// `a × bᵀ` per batch for `a: (h, m, k)` and `b: (h, n, k)` — the
    /// attention products.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches as [`TrainError::Tensor`].
    pub fn batch_matmul_nt(&mut self, a: VarId, b: VarId) -> Result<VarId, TrainError> {
        let value = self.val(a).batch_matmul_nt(self.val(b))?;
        let rg = self.needs(a) || self.needs(b);
        Ok(self.push(Op::BatchMatMulNT(a, b), value, rg))
    }

    /// Transposes the last two axes of a rank-3 variable.
    ///
    /// # Errors
    ///
    /// Propagates rank mismatches as [`TrainError::Tensor`].
    pub fn transpose_batched(&mut self, a: VarId) -> Result<VarId, TrainError> {
        let value = transpose_batched(self.val(a))?;
        let rg = self.needs(a);
        Ok(self.push(Op::TransposeBatched(a), value, rg))
    }

    /// Splits `(rows, heads·hd)` into `(heads, rows, hd)`.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches as [`TrainError::Tensor`].
    pub fn split_heads(&mut self, a: VarId, heads: usize) -> Result<VarId, TrainError> {
        let value = split_heads(self.val(a), heads)?;
        let rg = self.needs(a);
        Ok(self.push(Op::SplitHeads(a), value, rg))
    }

    /// Merges `(heads, rows, hd)` back into `(rows, heads·hd)`.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches as [`TrainError::Tensor`].
    pub fn merge_heads(&mut self, a: VarId) -> Result<VarId, TrainError> {
        let heads = self.val(a).dims().first().copied().ok_or(TensorError::RankMismatch {
            op: "merge_heads",
            expected: 3,
            got: 0,
        })?;
        let value = merge_heads(self.val(a))?;
        let rg = self.needs(a);
        Ok(self.push(Op::MergeHeads(a, heads), value, rg))
    }

    /// GELU activation.
    pub fn gelu(&mut self, a: VarId) -> VarId {
        let value = self.val(a).gelu();
        let rg = self.needs(a);
        self.push(Op::Gelu(a), value, rg)
    }

    /// tanh activation.
    pub fn tanh(&mut self, a: VarId) -> VarId {
        let value = self.val(a).tanh();
        let rg = self.needs(a);
        self.push(Op::Tanh(a), value, rg)
    }

    /// ReLU activation.
    pub fn relu(&mut self, a: VarId) -> VarId {
        let value = self.val(a).relu();
        let rg = self.needs(a);
        self.push(Op::Relu(a), value, rg)
    }

    /// Row-wise softmax.
    ///
    /// # Errors
    ///
    /// Propagates empty-row errors as [`TrainError::Tensor`].
    pub fn softmax(&mut self, a: VarId) -> Result<VarId, TrainError> {
        let value = self.val(a).softmax()?;
        let rg = self.needs(a);
        Ok(self.push(Op::Softmax(a), value, rg))
    }

    /// Layer normalization with learned `gamma`/`beta`.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches as [`TrainError::Tensor`].
    pub fn layer_norm(
        &mut self,
        x: VarId,
        gamma: VarId,
        beta: VarId,
        eps: f32,
    ) -> Result<VarId, TrainError> {
        let value = self.val(x).layer_norm(self.val(gamma), self.val(beta), eps)?;
        let rg = self.needs(x) || self.needs(gamma) || self.needs(beta);
        Ok(self.push(Op::LayerNorm { x, gamma, beta, eps }, value, rg))
    }

    /// Gathers rows of an embedding table by token id.
    ///
    /// # Errors
    ///
    /// Propagates out-of-vocabulary errors as [`TrainError::Tensor`].
    pub fn embedding(&mut self, table: VarId, ids: &[usize]) -> Result<VarId, TrainError> {
        let value = gather_rows(self.val(table), ids)?;
        let rg = self.needs(table);
        Ok(self.push(Op::Embedding { table, ids: ids.to_vec() }, value, rg))
    }

    /// Extracts row `row` of a matrix-like variable as a `(1, cols)`
    /// matrix (used for the pooler's first-token pick).
    ///
    /// # Errors
    ///
    /// Propagates out-of-bounds errors as [`TrainError::Tensor`].
    pub fn row(&mut self, a: VarId, row: usize) -> Result<VarId, TrainError> {
        let r = self.val(a).row(row)?;
        let cols = r.len();
        let value = r.reshape(&[1, cols])?;
        let rg = self.needs(a);
        Ok(self.push(Op::Row(a, row), value, rg))
    }

    /// Reshapes a variable (same element count).
    ///
    /// # Errors
    ///
    /// Propagates element-count mismatches as [`TrainError::Tensor`].
    pub fn reshape(&mut self, a: VarId, dims: &[usize]) -> Result<VarId, TrainError> {
        let value = self.val(a).reshape(dims)?;
        let rg = self.needs(a);
        Ok(self.push(Op::Reshape(a), value, rg))
    }

    /// Mean of all elements, as a scalar variable.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Tensor`] for empty variables.
    pub fn mean(&mut self, a: VarId) -> Result<VarId, TrainError> {
        if self.val(a).is_empty() {
            return Err(TensorError::EmptyDimension { op: "mean" }.into());
        }
        let value = Tensor::scalar(self.val(a).mean());
        let rg = self.needs(a);
        Ok(self.push(Op::Mean(a), value, rg))
    }

    /// Mean cross-entropy of logits `(rows, classes)` against integer
    /// targets, as a scalar variable.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::TargetMismatch`] /
    /// [`TrainError::ClassOutOfRange`] for malformed targets.
    pub fn cross_entropy(&mut self, logits: VarId, targets: &[usize]) -> Result<VarId, TrainError> {
        let (rows, classes) = self.val(logits).shape().as_matrix()?;
        if targets.len() != rows {
            return Err(TrainError::TargetMismatch { rows, targets: targets.len() });
        }
        if let Some(&bad) = targets.iter().find(|&&t| t >= classes) {
            return Err(TrainError::ClassOutOfRange { class: bad, classes });
        }
        let log_probs = self.val(logits).log_softmax()?;
        let nll = -targets
            .iter()
            .enumerate()
            .map(|(r, &t)| log_probs.as_slice()[r * classes + t])
            .sum::<f32>()
            / rows as f32;
        let rg = self.needs(logits);
        Ok(self.push(
            Op::CrossEntropy { logits, targets: targets.to_vec() },
            Tensor::scalar(nll),
            rg,
        ))
    }

    /// Mean squared error between two same-shaped variables, as a
    /// scalar variable.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches as [`TrainError::Tensor`].
    pub fn mse(&mut self, pred: VarId, target: VarId) -> Result<VarId, TrainError> {
        let diff = self.val(pred).sub(self.val(target))?;
        let value = Tensor::scalar(diff.map(|d| d * d).mean());
        let rg = self.needs(pred) || self.needs(target);
        Ok(self.push(Op::Mse { pred, target }, value, rg))
    }

    // --- backward -----------------------------------------------------------

    /// Computes gradients of a scalar `loss` with respect to every
    /// recorded variable that requires them.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::NonScalarLoss`] unless `loss` holds exactly
    /// one element, and [`TrainError::UnknownVar`] for foreign ids.
    pub fn backward(&self, loss: VarId) -> Result<Gradients, TrainError> {
        let idx = loss.0;
        if idx >= self.nodes.len() {
            return Err(TrainError::UnknownVar { index: idx });
        }
        if self.nodes[idx].value.len() != 1 {
            return Err(TrainError::NonScalarLoss { elements: self.nodes[idx].value.len() });
        }
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        let seed_dims = self.nodes[idx].value.dims().to_vec();
        grads[idx] = Some(Tensor::ones(&seed_dims));

        for i in (0..=idx).rev() {
            if !self.nodes[i].requires_grad {
                continue;
            }
            let Some(dy) = grads[i].clone() else { continue };
            self.backprop_node(i, &dy, &mut grads)?;
        }
        Ok(Gradients { grads })
    }

    /// Propagates `dy` from node `i` into its operands.
    fn backprop_node(
        &self,
        i: usize,
        dy: &Tensor,
        grads: &mut [Option<Tensor>],
    ) -> Result<(), TrainError> {
        let node = &self.nodes[i];
        match &node.op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                self.accumulate(grads, *a, dy.clone())?;
                self.accumulate(grads, *b, dy.clone())?;
            }
            Op::Sub(a, b) => {
                self.accumulate(grads, *a, dy.clone())?;
                self.accumulate(grads, *b, dy.scale(-1.0))?;
            }
            Op::Mul(a, b) => {
                self.accumulate(grads, *a, dy.mul(self.val(*b))?)?;
                self.accumulate(grads, *b, dy.mul(self.val(*a))?)?;
            }
            Op::Scale(a, s) => {
                self.accumulate(grads, *a, dy.scale(*s))?;
            }
            Op::AddBias(a, bias) => {
                self.accumulate(grads, *a, dy.clone())?;
                self.accumulate(grads, *bias, dy.sum_cols()?)?;
            }
            Op::MatMulNT(a, w) => {
                // y = a·wᵀ ⇒ da = dy·w, dw = dyᵀ·a, each a product
                // against a transpose.
                let (at, wt) = (self.val(*a).transpose()?, self.val(*w).transpose()?);
                self.accumulate(grads, *a, dy.matmul_nt(&wt)?)?;
                self.accumulate(grads, *w, dy.transpose()?.matmul_nt(&at)?)?;
            }
            Op::BatchMatMulNT(a, b) => {
                // y = A·Bᵀ ⇒ dA = dy·B, dB = dyᵀ·A per batch, as above.
                let (at, bt) = (transpose_batched(self.val(*a))?, transpose_batched(self.val(*b))?);
                self.accumulate(grads, *a, dy.batch_matmul_nt(&bt)?)?;
                self.accumulate(grads, *b, transpose_batched(dy)?.batch_matmul_nt(&at)?)?;
            }
            Op::TransposeBatched(a) => {
                self.accumulate(grads, *a, transpose_batched(dy)?)?;
            }
            Op::SplitHeads(a) => {
                self.accumulate(grads, *a, merge_heads(dy)?)?;
            }
            Op::MergeHeads(a, heads) => {
                self.accumulate(grads, *a, split_heads(dy, *heads)?)?;
            }
            Op::Gelu(a) => {
                let dx = self.val(*a).map(gelu_grad).mul(dy)?;
                self.accumulate(grads, *a, dx)?;
            }
            Op::Tanh(a) => {
                let dx = self.val(*a).map(tanh_grad).mul(dy)?;
                self.accumulate(grads, *a, dx)?;
            }
            Op::Relu(a) => {
                let dx = self.val(*a).map(relu_grad).mul(dy)?;
                self.accumulate(grads, *a, dx)?;
            }
            Op::Softmax(a) => {
                // dx = y ⊙ (dy − ⟨dy, y⟩_row)
                let y = &node.value;
                let (rows, cols) = y.shape().as_matrix()?;
                let mut dx = dy.mul(y)?;
                let data = dx.as_mut_slice();
                let yv = y.as_slice();
                let dyv = dy.as_slice();
                for r in 0..rows {
                    let dot: f32 = (0..cols).map(|c| dyv[r * cols + c] * yv[r * cols + c]).sum();
                    for c in 0..cols {
                        data[r * cols + c] -= dot * yv[r * cols + c];
                    }
                }
                self.accumulate(grads, *a, dx)?;
            }
            Op::LayerNorm { x, gamma, beta, eps } => {
                let xv = self.val(*x);
                let (rows, cols) = xv.shape().as_matrix()?;
                let g = self.val(*gamma).as_slice();
                let moments = row_moments(xv)?;
                let xs = xv.as_slice();
                let dyv = dy.as_slice();
                let mut dx = Tensor::zeros(xv.dims());
                let mut dgamma = vec![0.0f32; cols];
                let mut dbeta = vec![0.0f32; cols];
                for r in 0..rows {
                    let m = moments[r];
                    let inv = 1.0 / (m.var + eps).sqrt();
                    // Row-level sums for the dx formula.
                    let mut sum_dyg = 0.0f32;
                    let mut sum_dyg_xhat = 0.0f32;
                    for c in 0..cols {
                        let xhat = (xs[r * cols + c] - m.mean) * inv;
                        let dyg = dyv[r * cols + c] * g[c];
                        sum_dyg += dyg;
                        sum_dyg_xhat += dyg * xhat;
                        dgamma[c] += dyv[r * cols + c] * xhat;
                        dbeta[c] += dyv[r * cols + c];
                    }
                    let n = cols as f32;
                    let dxs = dx.as_mut_slice();
                    for c in 0..cols {
                        let xhat = (xs[r * cols + c] - m.mean) * inv;
                        let dyg = dyv[r * cols + c] * g[c];
                        dxs[r * cols + c] = inv * (dyg - sum_dyg / n - xhat * sum_dyg_xhat / n);
                    }
                }
                self.accumulate(grads, *x, dx)?;
                self.accumulate(grads, *gamma, Tensor::from_vec(dgamma, &[cols])?)?;
                self.accumulate(grads, *beta, Tensor::from_vec(dbeta, &[cols])?)?;
            }
            Op::Embedding { table, ids } => {
                let vocab = self.val(*table).dims()[0];
                self.accumulate(grads, *table, scatter_add_rows(dy, ids, vocab)?)?;
            }
            Op::Row(a, row) => {
                let src = self.val(*a);
                let (rows, cols) = src.shape().as_matrix()?;
                let mut dx = Tensor::zeros(&[rows, cols]);
                let dxs = dx.as_mut_slice();
                dxs[row * cols..(row + 1) * cols].copy_from_slice(dy.as_slice());
                let dx = dx.reshape(src.dims())?;
                self.accumulate(grads, *a, dx)?;
            }
            Op::Reshape(a) => {
                let dx = dy.reshape(self.val(*a).dims())?;
                self.accumulate(grads, *a, dx)?;
            }
            Op::Mean(a) => {
                let n = self.val(*a).len() as f32;
                let up = dy.as_slice()[0];
                let dx = Tensor::full(self.val(*a).dims(), up / n);
                self.accumulate(grads, *a, dx)?;
            }
            Op::CrossEntropy { logits, targets } => {
                let up = dy.as_slice()[0];
                let probs = self.val(*logits).softmax()?;
                let (rows, cols) = probs.shape().as_matrix()?;
                let mut dx = probs;
                let data = dx.as_mut_slice();
                for (r, &t) in targets.iter().enumerate() {
                    data[r * cols + t] -= 1.0;
                }
                let dx = dx.scale(up / rows as f32);
                self.accumulate(grads, *logits, dx)?;
            }
            Op::Mse { pred, target } => {
                let up = dy.as_slice()[0];
                let n = self.val(*pred).len() as f32;
                let diff = self.val(*pred).sub(self.val(*target))?;
                let dpred = diff.scale(2.0 * up / n);
                self.accumulate(grads, *pred, dpred.clone())?;
                self.accumulate(grads, *target, dpred.scale(-1.0))?;
            }
        }
        Ok(())
    }

    fn accumulate(
        &self,
        grads: &mut [Option<Tensor>],
        var: VarId,
        delta: Tensor,
    ) -> Result<(), TrainError> {
        if !self.nodes[var.0].requires_grad {
            return Ok(());
        }
        match &mut grads[var.0] {
            Some(existing) => *existing = existing.add(&delta)?,
            slot @ None => *slot = Some(delta),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerically differentiates `loss(params)` with respect to one
    /// element of one parameter.
    fn finite_diff(
        build: &dyn Fn(&mut Graph, &[Tensor]) -> VarId,
        params: &[Tensor],
        which: usize,
        elem: usize,
    ) -> f32 {
        let h = 1e-3;
        let eval = |delta: f32| {
            let mut bumped: Vec<Tensor> = params.to_vec();
            bumped[which].as_mut_slice()[elem] += delta;
            let mut g = Graph::new();
            let loss = build(&mut g, &bumped);
            g.value(loss).as_slice()[0]
        };
        (eval(h) - eval(-h)) / (2.0 * h)
    }

    /// Checks analytic gradients of every parameter element against
    /// finite differences.
    fn grad_check(build: &dyn Fn(&mut Graph, &[Tensor]) -> VarId, params: &[Tensor], tol: f32) {
        let mut g = Graph::new();
        let loss = build(&mut g, params);
        let grads = g.backward(loss).unwrap();
        // Parameters are the first `params.len()` recorded vars in every
        // builder below.
        for (which, p) in params.iter().enumerate() {
            let analytic = grads.get(VarId(which)).expect("gradient exists");
            for elem in 0..p.len() {
                let numeric = finite_diff(build, params, which, elem);
                let a = analytic.as_slice()[elem];
                assert!(
                    (a - numeric).abs() < tol + 0.05 * numeric.abs(),
                    "param {which} elem {elem}: analytic {a} vs numeric {numeric}"
                );
            }
        }
    }

    fn t(v: Vec<f32>, d: &[usize]) -> Tensor {
        Tensor::from_vec(v, d).unwrap()
    }

    /// `mean(y ⊙ c)` for a fixed `c` whose elements differ, so the
    /// upstream gradient of `y` is not uniform and a product rule that
    /// swaps or transposes an operand shows.
    fn weighted_mean(g: &mut Graph, y: VarId) -> VarId {
        let (n, dims) = (g.value(y).len(), g.value(y).dims().to_vec());
        let c = g.constant(t((0..n).map(|i| (i * 7 % 11) as f32 * 0.3 - 1.4).collect(), &dims));
        let y = g.mul(y, c).unwrap();
        g.mean(y).unwrap()
    }

    #[test]
    fn matmul_nt_gradients() {
        let params = vec![
            t(vec![0.5, -0.3, 0.2, 0.8, -0.1, 0.4], &[2, 3]), // a
            t(vec![0.1, 0.7, -0.2, 0.3, -0.4, 0.6], &[2, 3]), // w
        ];
        grad_check(
            &|g, p| {
                let a = g.parameter(p[0].clone());
                let w = g.parameter(p[1].clone());
                let y = g.matmul_nt(a, w).unwrap();
                weighted_mean(g, y)
            },
            &params,
            1e-3,
        );
    }

    #[test]
    fn batch_matmul_nt_gradients() {
        // Non-square in every axis: (2, 3, 5) × (2, 4, 5)ᵀ.
        let params = vec![
            t((0..30).map(|i| ((i * 5 % 13) as f32 - 6.0) * 0.1).collect(), &[2, 3, 5]), // a
            t((0..40).map(|i| ((i * 3 % 17) as f32 - 8.0) * 0.07).collect(), &[2, 4, 5]), // b
        ];
        grad_check(
            &|g, p| {
                let a = g.parameter(p[0].clone());
                let b = g.parameter(p[1].clone());
                let y = g.batch_matmul_nt(a, b).unwrap();
                weighted_mean(g, y)
            },
            &params,
            1e-3,
        );
    }

    #[test]
    fn bias_and_activation_gradients() {
        let params = vec![t(vec![0.5, -0.3, 0.2, 0.8], &[2, 2]), t(vec![0.1, -0.2], &[2])];
        grad_check(
            &|g, p| {
                let a = g.parameter(p[0].clone());
                let b = g.parameter(p[1].clone());
                let y = g.add_bias(a, b).unwrap();
                let y = g.gelu(y);
                let y = g.tanh(y);
                g.mean(y).unwrap()
            },
            &params,
            2e-3,
        );
    }

    #[test]
    fn softmax_gradients() {
        let params = vec![t(vec![0.5, -0.3, 0.2, 0.8, 0.0, -0.5], &[2, 3])];
        grad_check(
            &|g, p| {
                let a = g.parameter(p[0].clone());
                let y = g.softmax(a).unwrap();
                // Non-uniform weighting so gradients are non-trivial.
                let w = g.constant(t(vec![1.0, 2.0, 3.0, 0.5, 1.5, 2.5], &[2, 3]));
                let y = g.mul(y, w).unwrap();
                g.mean(y).unwrap()
            },
            &params,
            1e-3,
        );
    }

    #[test]
    fn layer_norm_gradients() {
        let params = vec![
            t(vec![0.5, -0.3, 0.2, 0.9, 1.4, -0.8], &[2, 3]),
            t(vec![1.2, 0.8, 1.0], &[3]),
            t(vec![0.0, 0.1, -0.1], &[3]),
        ];
        grad_check(
            &|g, p| {
                let x = g.parameter(p[0].clone());
                let gamma = g.parameter(p[1].clone());
                let beta = g.parameter(p[2].clone());
                let y = g.layer_norm(x, gamma, beta, 1e-5).unwrap();
                let w = g.constant(t(vec![1.0, -2.0, 0.5, 2.0, 1.0, -1.0], &[2, 3]));
                let y = g.mul(y, w).unwrap();
                g.mean(y).unwrap()
            },
            &params,
            3e-3,
        );
    }

    #[test]
    fn embedding_gradients() {
        let params = vec![t(vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6], &[3, 2])];
        grad_check(
            &|g, p| {
                let table = g.parameter(p[0].clone());
                let y = g.embedding(table, &[2, 0, 2]).unwrap();
                let w = g.constant(t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]));
                let y = g.mul(y, w).unwrap();
                g.mean(y).unwrap()
            },
            &params,
            1e-3,
        );
    }

    #[test]
    fn cross_entropy_gradients() {
        let params = vec![t(vec![0.5, -0.3, 0.2, 0.8, 0.0, -0.5], &[2, 3])];
        grad_check(
            &|g, p| {
                let logits = g.parameter(p[0].clone());
                g.cross_entropy(logits, &[2, 0]).unwrap()
            },
            &params,
            1e-3,
        );
    }

    #[test]
    fn mse_gradients() {
        let params = vec![t(vec![0.5, -0.3, 0.2], &[3])];
        grad_check(
            &|g, p| {
                let pred = g.parameter(p[0].clone());
                let target = g.constant(t(vec![1.0, 0.0, -1.0], &[3]));
                g.mse(pred, target).unwrap()
            },
            &params,
            1e-3,
        );
    }

    #[test]
    fn attention_block_gradients() {
        // Full scaled-dot-product attention with head split/merge.
        let params = vec![
            t((0..12).map(|i| 0.1 * i as f32 - 0.5).collect(), &[3, 4]), // x (seq=3, hidden=4)
            t((0..16).map(|i| 0.05 * i as f32 - 0.4).collect(), &[4, 4]), // wq
            t((0..16).map(|i| 0.03 * (i as f32) - 0.2).collect(), &[4, 4]), // wk
            t((0..16).map(|i| -0.04 * (i as f32) + 0.3).collect(), &[4, 4]), // wv
        ];
        grad_check(
            &|g, p| {
                let x = g.parameter(p[0].clone());
                let wq = g.parameter(p[1].clone());
                let wk = g.parameter(p[2].clone());
                let wv = g.parameter(p[3].clone());
                let q = g.matmul_nt(x, wq).unwrap();
                let k = g.matmul_nt(x, wk).unwrap();
                let v = g.matmul_nt(x, wv).unwrap();
                let qh = g.split_heads(q, 2).unwrap();
                let kh = g.split_heads(k, 2).unwrap();
                let vh = g.split_heads(v, 2).unwrap();
                let scores = g.batch_matmul_nt(qh, kh).unwrap();
                let scores = g.scale(scores, 1.0 / (2.0f32).sqrt());
                let probs = g.softmax(scores).unwrap();
                let vt = g.transpose_batched(vh).unwrap();
                let ctx = g.batch_matmul_nt(probs, vt).unwrap();
                let merged = g.merge_heads(ctx).unwrap();
                weighted_mean(g, merged)
            },
            &params,
            3e-3,
        );
    }

    #[test]
    fn residual_reuse_accumulates_gradients() {
        // x used twice (residual): gradient must be the sum of both paths.
        let params = vec![t(vec![0.3, -0.2], &[1, 2])];
        grad_check(
            &|g, p| {
                let x = g.parameter(p[0].clone());
                let y = g.gelu(x);
                let z = g.add(x, y).unwrap();
                g.mean(z).unwrap()
            },
            &params,
            1e-3,
        );
    }

    #[test]
    fn constants_get_no_gradient() {
        let mut g = Graph::new();
        let c = g.constant(t(vec![1.0, 2.0], &[2]));
        let p = g.parameter(t(vec![3.0, 4.0], &[2]));
        let y = g.mul(c, p).unwrap();
        let loss = g.mean(y).unwrap();
        let grads = g.backward(loss).unwrap();
        assert!(grads.get(c).is_none());
        assert!(grads.get(p).is_some());
    }

    #[test]
    fn backward_requires_scalar() {
        let mut g = Graph::new();
        let p = g.parameter(t(vec![1.0, 2.0], &[2]));
        assert!(matches!(g.backward(p), Err(TrainError::NonScalarLoss { elements: 2 })));
    }

    #[test]
    fn cross_entropy_validates_targets() {
        let mut g = Graph::new();
        let logits = g.parameter(t(vec![0.0; 6], &[2, 3]));
        assert!(matches!(g.cross_entropy(logits, &[0]), Err(TrainError::TargetMismatch { .. })));
        assert!(matches!(
            g.cross_entropy(logits, &[0, 5]),
            Err(TrainError::ClassOutOfRange { class: 5, classes: 3 })
        ));
    }

    #[test]
    fn row_gradient_lands_in_right_row() {
        let mut g = Graph::new();
        let p = g.parameter(t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let r = g.row(p, 1).unwrap();
        let loss = g.mean(r).unwrap();
        let grads = g.backward(loss).unwrap();
        assert_eq!(grads.get(p).unwrap().as_slice(), &[0.0, 0.0, 0.5, 0.5]);
    }

    #[test]
    fn unknown_var_rejected() {
        let g = Graph::new();
        assert!(matches!(g.backward(VarId(3)), Err(TrainError::UnknownVar { index: 3 })));
    }
}
