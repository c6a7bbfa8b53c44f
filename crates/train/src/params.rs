//! Named parameter storage with gradients and Adam state.
//!
//! Parameters are named `"{module}/{tensor}"` — e.g.
//! `"layer1.expert3/w1"` — so checkpoint shards can address whole modules
//! (the PEC unit) by prefix. The optimizer moments live beside each value,
//! because the paper's checkpoints save (and PEC selectively *skips*)
//! optimizer states as well as weights.

use crate::tensor::Matrix;
use std::collections::HashMap;

/// One named parameter tensor with gradient and Adam state.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Full name, `"{module}/{tensor}"`.
    pub name: String,
    /// Current weights.
    pub value: Matrix,
    /// Gradient accumulator.
    pub grad: Matrix,
    /// Adam first moment.
    pub m: Matrix,
    /// Adam second moment.
    pub v: Matrix,
    /// Adam step count of *this tensor* (bias correction must roll back
    /// together with the moments when PEC restores an old expert).
    pub steps: u64,
}

/// Ordered, name-indexed parameter collection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParamStore {
    params: Vec<Param>,
    index: HashMap<String, usize>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter initialised to `value`.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) {
        let name = name.into();
        assert!(
            !self.index.contains_key(&name),
            "duplicate parameter {name}"
        );
        let grad = Matrix::zeros(value.rows(), value.cols());
        let m = grad.clone();
        let v = grad.clone();
        self.index.insert(name.clone(), self.params.len());
        self.params.push(Param {
            name,
            value,
            grad,
            m,
            v,
            steps: 0,
        });
    }

    fn idx(&self, name: &str) -> usize {
        *self
            .index
            .get(name)
            .unwrap_or_else(|| panic!("unknown parameter {name}"))
    }

    /// Immutable parameter value.
    pub fn value(&self, name: &str) -> &Matrix {
        &self.params[self.idx(name)].value
    }

    /// Mutable parameter value.
    pub fn value_mut(&mut self, name: &str) -> &mut Matrix {
        let i = self.idx(name);
        &mut self.params[i].value
    }

    /// Immutable gradient.
    pub fn grad(&self, name: &str) -> &Matrix {
        &self.params[self.idx(name)].grad
    }

    /// Mutable gradient.
    pub fn grad_mut(&mut self, name: &str) -> &mut Matrix {
        let i = self.idx(name);
        &mut self.params[i].grad
    }

    /// All parameters in registration order.
    pub fn params(&self) -> &[Param] {
        &self.params
    }

    /// All parameters, mutably.
    pub fn params_mut(&mut self) -> &mut [Param] {
        &mut self.params
    }

    /// Parameter count (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total scalar parameter count.
    pub fn scalar_count(&self) -> u64 {
        self.params.iter().map(|p| p.value.len() as u64).sum()
    }

    /// Zeroes every gradient.
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad.fill_zero();
        }
    }

    /// Module names (unique prefixes before `/`), in first-seen order.
    pub fn module_names(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for p in &self.params {
            let module = module_of(&p.name);
            if seen.last().map(String::as_str) != Some(module) && !seen.iter().any(|s| s == module)
            {
                seen.push(module.to_string());
            }
        }
        seen
    }

    /// Parameters belonging to a module.
    pub fn module_params(&self, module: &str) -> Vec<&Param> {
        self.params
            .iter()
            .filter(|p| module_of(&p.name) == module)
            .collect()
    }

    /// Rebuilds the name index (after deserialization).
    pub fn rebuild_index(&mut self) {
        self.index = self
            .params
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.clone(), i))
            .collect();
    }
}

/// The module prefix of a parameter name.
pub fn module_of(param_name: &str) -> &str {
    param_name.split('/').next().unwrap_or(param_name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ParamStore {
        let mut s = ParamStore::new();
        s.add("embedding/tok", Matrix::zeros(4, 2));
        s.add("layer0.mix/w", Matrix::zeros(2, 2));
        s.add("layer1.expert0/w1", Matrix::zeros(2, 4));
        s.add("layer1.expert0/b1", Matrix::zeros(1, 4));
        s
    }

    #[test]
    fn add_and_lookup() {
        let s = store();
        assert_eq!(s.len(), 4);
        assert_eq!(s.value("layer0.mix/w").rows(), 2);
        assert_eq!(s.scalar_count(), 8 + 4 + 8 + 4);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter")]
    fn duplicate_rejected() {
        let mut s = store();
        s.add("embedding/tok", Matrix::zeros(1, 1));
    }

    #[test]
    #[should_panic(expected = "unknown parameter")]
    fn unknown_lookup_panics() {
        store().value("nope");
    }

    #[test]
    fn module_grouping() {
        let s = store();
        assert_eq!(
            s.module_names(),
            vec!["embedding", "layer0.mix", "layer1.expert0"]
        );
        assert_eq!(s.module_params("layer1.expert0").len(), 2);
        assert_eq!(module_of("layer1.expert0/w1"), "layer1.expert0");
    }

    #[test]
    fn zero_grads_clears() {
        let mut s = store();
        s.grad_mut("embedding/tok").data_mut()[0] = 5.0;
        s.zero_grads();
        assert_eq!(s.grad("embedding/tok").data()[0], 0.0);
    }

    #[test]
    fn rebuild_index_after_clone_of_params() {
        let s = store();
        let mut copy = ParamStore {
            params: s.params.clone(),
            index: HashMap::new(),
        };
        copy.rebuild_index();
        assert_eq!(copy.value("layer0.mix/w"), s.value("layer0.mix/w"));
    }
}
