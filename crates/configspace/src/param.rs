//! Hyperparameter kinds.

use crate::value::ParamValue;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One tunable parameter: a name and the list of values it may take.
///
/// The paper's spaces are built entirely from
/// [`Hyperparameter::ordinal_ints`] (ordered divisor lists). Either kind
/// encodes a value as its position in the list, so an encoded
/// configuration is the digit vector of its flat index in the space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Hyperparameter {
    /// Ordered discrete values (`CSH.OrdinalHyperparameter`).
    Ordinal {
        /// Parameter name.
        name: String,
        /// Ordered value sequence.
        sequence: Vec<ParamValue>,
    },
    /// Unordered discrete choices (`CSH.CategoricalHyperparameter`).
    Categorical {
        /// Parameter name.
        name: String,
        /// Choice set.
        choices: Vec<ParamValue>,
    },
}

impl Hyperparameter {
    /// Ordinal over integer values — the paper's tiling-factor parameter.
    pub fn ordinal_ints(name: impl Into<String>, seq: &[i64]) -> Hyperparameter {
        assert!(!seq.is_empty(), "ordinal sequence must be non-empty");
        Hyperparameter::Ordinal {
            name: name.into(),
            sequence: seq.iter().map(|&v| ParamValue::Int(v)).collect(),
        }
    }

    /// Categorical over string choices.
    pub fn categorical_strs(name: impl Into<String>, choices: &[&str]) -> Hyperparameter {
        assert!(!choices.is_empty(), "choices must be non-empty");
        Hyperparameter::Categorical {
            name: name.into(),
            choices: choices.iter().map(|&c| ParamValue::from(c)).collect(),
        }
    }

    /// Parameter name.
    pub fn name(&self) -> &str {
        match self {
            Hyperparameter::Ordinal { name, .. } | Hyperparameter::Categorical { name, .. } => name,
        }
    }

    /// The values, in index order.
    pub fn values(&self) -> &[ParamValue] {
        match self {
            Hyperparameter::Ordinal { sequence: v, .. }
            | Hyperparameter::Categorical { choices: v, .. } => v,
        }
    }

    /// Number of values.
    pub fn cardinality(&self) -> usize {
        self.values().len()
    }

    /// Value at an index.
    ///
    /// # Panics
    /// On an out-of-range index.
    pub fn value_at(&self, index: usize) -> ParamValue {
        self.values()[index].clone()
    }

    /// Index of a value, if present.
    pub fn index_of(&self, value: &ParamValue) -> Option<usize> {
        self.values().iter().position(|v| v == value)
    }

    /// Uniformly sample a value.
    pub fn sample(&self, rng: &mut impl Rng) -> ParamValue {
        self.value_at(rng.gen_range(0..self.cardinality()))
    }

    /// [`Hyperparameter::sample`] in encoded form: the same draw, and the
    /// result equals `encode(&sample(rng))` for a parameter whose values
    /// are distinct (which [`crate::ConfigSpace::add`] enforces).
    pub fn sample_encoded(&self, rng: &mut impl Rng) -> f64 {
        rng.gen_range(0..self.cardinality()) as f64
    }

    /// Default value (the first), used for inactive or missing parameters.
    pub fn default_value(&self) -> ParamValue {
        self.value_at(0)
    }

    /// Encode a value to a float for surrogate models: its index (NaN for
    /// a value the parameter lacks).
    ///
    /// Ordinals encode as their *rank*, the BO-relevant metric: the
    /// paper's divisor lists are order-meaningful but wildly non-uniform
    /// in magnitude.
    pub fn encode(&self, value: &ParamValue) -> f64 {
        self.index_of(value).map_or(f64::NAN, |i| i as f64)
    }

    /// The index an encoded value stands for (`None` for NaN, fractions
    /// and out-of-range values).
    pub(crate) fn encoded_index(&self, x: f64) -> Option<usize> {
        // `as` saturates and sends NaN to 0; the round trip fails for
        // those, for negatives and for fractions.
        let i = x as usize;
        (i < self.cardinality() && i as f64 == x).then_some(i)
    }

    /// Inverse of [`Hyperparameter::encode`] for values of this parameter.
    ///
    /// # Panics
    /// If `x` does not encode a value of this parameter.
    pub fn decode(&self, x: f64) -> ParamValue {
        let index = self
            .encoded_index(x)
            .unwrap_or_else(|| panic!("{x} does not encode a value of `{}`", self.name()));
        self.value_at(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn ordinal_roundtrip() {
        let p = Hyperparameter::ordinal_ints("P0", &[1, 2, 4, 8]);
        assert_eq!(p.cardinality(), 4);
        assert_eq!(p.value_at(2), ParamValue::Int(4));
        assert_eq!(p.index_of(&ParamValue::Int(8)), Some(3));
        assert_eq!(p.index_of(&ParamValue::Int(3)), None);
        assert_eq!(p.encode(&ParamValue::Int(8)), 3.0);
        assert_eq!(p.default_value(), ParamValue::Int(1));
    }

    #[test]
    fn sampling_covers_choices() {
        let p = Hyperparameter::ordinal_ints("P", &[10, 20, 30]);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen = [false; 3];
        for _ in 0..100 {
            let v = p.sample(&mut rng);
            seen[p.index_of(&v).expect("valid")] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
