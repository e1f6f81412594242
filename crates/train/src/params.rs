//! Named parameter storage shared between training steps.
//!
//! Each training step builds a fresh [`crate::Graph`], loads parameters
//! from a [`ParamSet`], and writes updated values back after the
//! optimizer step. Names follow the `gobo-model` convention
//! (`encoder.0.attention.query`, `pooler.bias`, …) so trained weights
//! export directly into an inference `TransformerModel`.

use std::collections::BTreeMap;

use gobo_tensor::Tensor;

use crate::error::TrainError;
use crate::tape::{Gradients, Graph, VarId};

/// An ordered map of named trainable tensors.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParamSet {
    params: BTreeMap<String, Tensor>,
}

impl ParamSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces a parameter, returning the previous value.
    pub fn insert(&mut self, name: impl Into<String>, value: Tensor) -> Option<Tensor> {
        self.params.insert(name.into(), value)
    }

    /// Borrows a parameter.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::UnknownParameter`] for unknown names.
    pub fn get(&self, name: &str) -> Result<&Tensor, TrainError> {
        self.params.get(name).ok_or_else(|| TrainError::UnknownParameter { name: name.into() })
    }

    /// Mutably borrows a parameter.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::UnknownParameter`] for unknown names.
    pub fn get_mut(&mut self, name: &str) -> Result<&mut Tensor, TrainError> {
        self.params.get_mut(name).ok_or_else(|| TrainError::UnknownParameter { name: name.into() })
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Returns `true` when the set holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Iterates `(name, tensor)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.params.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl FromIterator<(String, Tensor)> for ParamSet {
    fn from_iter<I: IntoIterator<Item = (String, Tensor)>>(iter: I) -> Self {
        ParamSet { params: iter.into_iter().collect() }
    }
}

/// Binds a [`ParamSet`] to one [`Graph`], remembering which [`VarId`]
/// each named parameter received so gradients can be read back by
/// name.
#[derive(Debug)]
pub struct BoundParams {
    vars: BTreeMap<String, VarId>,
}

impl BoundParams {
    /// Records every parameter of `set` on `graph` as a trainable leaf.
    pub fn bind(graph: &mut Graph, set: &ParamSet) -> Self {
        let mut vars = BTreeMap::new();
        for (name, tensor) in set.iter() {
            vars.insert(name.to_owned(), graph.parameter(tensor.clone()));
        }
        BoundParams { vars }
    }

    /// The graph variable bound to `name`.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::UnknownParameter`] for unknown names.
    pub fn var(&self, name: &str) -> Result<VarId, TrainError> {
        self.vars
            .get(name)
            .copied()
            .ok_or_else(|| TrainError::UnknownParameter { name: name.into() })
    }

    /// Extracts `(name, gradient)` pairs for every bound parameter that
    /// received a gradient.
    pub fn named_gradients<'a>(
        &'a self,
        grads: &'a Gradients,
    ) -> impl Iterator<Item = (&'a str, &'a Tensor)> {
        self.vars.iter().filter_map(|(name, &var)| grads.get(var).map(|g| (name.as_str(), g)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_iterate() {
        let mut p = ParamSet::new();
        assert!(p.is_empty());
        p.insert("b", Tensor::zeros(&[2]));
        p.insert("a", Tensor::ones(&[3]));
        assert_eq!(p.len(), 2);
        assert!(p.get("a").is_ok());
        assert!(p.get("missing").is_err());
        // Name-ordered iteration.
        let names: Vec<&str> = p.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn bind_and_read_gradients_by_name() {
        let mut set = ParamSet::new();
        set.insert("w", Tensor::from_vec(vec![2.0, 3.0], &[2]).unwrap());
        set.insert("frozen_like", Tensor::ones(&[1]));

        let mut g = Graph::new();
        let bound = BoundParams::bind(&mut g, &set);
        let w = bound.var("w").unwrap();
        let loss = {
            let sq = g.mul(w, w).unwrap();
            g.mean(sq).unwrap()
        };
        let grads = g.backward(loss).unwrap();
        let named: std::collections::BTreeMap<&str, &Tensor> =
            bound.named_gradients(&grads).collect();
        // d/dw mean(w²) = 2w/n = w.
        assert_eq!(named["w"].as_slice(), &[2.0, 3.0]);
        assert!(!named.contains_key("frozen_like"));
        assert!(bound.var("missing").is_err());
    }

    #[test]
    fn from_iterator_collects() {
        let p: ParamSet = vec![("x".to_owned(), Tensor::zeros(&[1]))].into_iter().collect();
        assert_eq!(p.len(), 1);
    }
}
