//! Hyperparameter kinds.

use crate::value::ParamValue;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One tunable parameter.
///
/// The paper's spaces are built entirely from
/// [`Hyperparameter::ordinal_ints`] (ordered divisor lists); the remaining
/// kinds exist because ytopt/ConfigSpace support them and the generic BO
/// framework (`ytopt-bo`) is not restricted to the paper's kernels.
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
    /// Uniform integer range, inclusive on both ends.
    UniformInt {
        /// Parameter name.
        name: String,
        /// Lower bound (inclusive).
        lo: i64,
        /// Upper bound (inclusive).
        hi: i64,
    },
    /// Uniform float range.
    UniformFloat {
        /// Parameter name.
        name: String,
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
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
            Hyperparameter::Ordinal { name, .. }
            | Hyperparameter::Categorical { name, .. }
            | Hyperparameter::UniformInt { name, .. }
            | Hyperparameter::UniformFloat { name, .. } => name,
        }
    }

    /// Number of discrete choices (`None` for continuous parameters).
    pub fn cardinality(&self) -> Option<u128> {
        match self {
            Hyperparameter::Ordinal { sequence, .. } => Some(sequence.len() as u128),
            Hyperparameter::Categorical { choices, .. } => Some(choices.len() as u128),
            Hyperparameter::UniformInt { lo, hi, .. } => Some((hi - lo + 1) as u128),
            Hyperparameter::UniformFloat { .. } => None,
        }
    }

    /// Value at a discrete index.
    ///
    /// # Panics
    /// On continuous parameters or out-of-range indices.
    pub fn value_at(&self, index: usize) -> ParamValue {
        match self {
            Hyperparameter::Ordinal { sequence, .. } => sequence[index].clone(),
            Hyperparameter::Categorical { choices, .. } => choices[index].clone(),
            Hyperparameter::UniformInt { lo, hi, .. } => {
                let v = lo + index as i64;
                assert!(v <= *hi, "index {index} out of range");
                ParamValue::Int(v)
            }
            Hyperparameter::UniformFloat { name, .. } => {
                panic!("`{name}` is continuous; no discrete index")
            }
        }
    }

    /// Discrete index of a value, if present.
    pub fn index_of(&self, value: &ParamValue) -> Option<usize> {
        match self {
            Hyperparameter::Ordinal { sequence, .. } => sequence.iter().position(|v| v == value),
            Hyperparameter::Categorical { choices, .. } => choices.iter().position(|v| v == value),
            Hyperparameter::UniformInt { lo, hi, .. } => {
                let v = value.as_int()?;
                (v >= *lo && v <= *hi).then(|| (v - lo) as usize)
            }
            Hyperparameter::UniformFloat { .. } => None,
        }
    }

    /// Uniformly sample a value.
    pub fn sample(&self, rng: &mut impl Rng) -> ParamValue {
        match self {
            Hyperparameter::Ordinal { sequence, .. } => {
                sequence[rng.gen_range(0..sequence.len())].clone()
            }
            Hyperparameter::Categorical { choices, .. } => {
                choices[rng.gen_range(0..choices.len())].clone()
            }
            Hyperparameter::UniformInt { lo, hi, .. } => ParamValue::Int(rng.gen_range(*lo..=*hi)),
            Hyperparameter::UniformFloat { lo, hi, .. } => {
                ParamValue::Float(rng.gen_range(*lo..*hi))
            }
        }
    }

    /// [`Hyperparameter::sample`] in encoded form: the same draws, and the
    /// result equals `encode(&sample(rng))` for a parameter whose values
    /// are distinct (which [`crate::ConfigSpace::add`] enforces).
    pub fn sample_encoded(&self, rng: &mut impl Rng) -> f64 {
        match self {
            Hyperparameter::Ordinal { sequence, .. } => rng.gen_range(0..sequence.len()) as f64,
            Hyperparameter::Categorical { choices, .. } => rng.gen_range(0..choices.len()) as f64,
            Hyperparameter::UniformInt { lo, hi, .. } => rng.gen_range(*lo..=*hi) as f64,
            Hyperparameter::UniformFloat { lo, hi, .. } => rng.gen_range(*lo..*hi),
        }
    }

    /// Default value (first choice / lower bound), used for inactive or
    /// missing parameters.
    pub fn default_value(&self) -> ParamValue {
        match self {
            Hyperparameter::Ordinal { sequence, .. } => sequence[0].clone(),
            Hyperparameter::Categorical { choices, .. } => choices[0].clone(),
            Hyperparameter::UniformInt { lo, .. } => ParamValue::Int(*lo),
            Hyperparameter::UniformFloat { lo, .. } => ParamValue::Float(*lo),
        }
    }

    /// Encode a value to a float for surrogate models.
    ///
    /// Ordinals encode as their *rank* (the BO-relevant metric: the
    /// paper's divisor lists are order-meaningful but wildly non-uniform
    /// in magnitude); categoricals as their index; numeric kinds as the
    /// raw value.
    pub fn encode(&self, value: &ParamValue) -> f64 {
        match self {
            Hyperparameter::Ordinal { .. } | Hyperparameter::Categorical { .. } => {
                self.index_of(value).map(|i| i as f64).unwrap_or(f64::NAN)
            }
            Hyperparameter::UniformInt { .. } => value.as_int().unwrap_or(0) as f64,
            Hyperparameter::UniformFloat { .. } => value.as_float().unwrap_or(f64::NAN),
        }
    }

    /// Encoded form of the value at a discrete index:
    /// `encode(&value_at(index))` without building the value.
    ///
    /// # Panics
    /// On continuous parameters.
    pub fn encoded_at(&self, index: usize) -> f64 {
        match self {
            Hyperparameter::Ordinal { .. } | Hyperparameter::Categorical { .. } => index as f64,
            Hyperparameter::UniformInt { lo, .. } => (lo + index as i64) as f64,
            Hyperparameter::UniformFloat { name, .. } => {
                panic!("`{name}` is continuous; no discrete index")
            }
        }
    }

    /// The discrete index an encoded value stands for (`None` for NaN,
    /// fractions, out-of-range values and continuous parameters).
    pub(crate) fn encoded_index(&self, x: f64) -> Option<usize> {
        let (x, len) = match self {
            Hyperparameter::Ordinal { sequence, .. } => (x, sequence.len()),
            Hyperparameter::Categorical { choices, .. } => (x, choices.len()),
            Hyperparameter::UniformInt { lo, hi, .. } => (x - *lo as f64, (hi - lo + 1) as usize),
            Hyperparameter::UniformFloat { .. } => return None,
        };
        (x >= 0.0 && x < len as f64 && x.fract() == 0.0).then_some(x as usize)
    }

    /// Inverse of [`Hyperparameter::encode`] for values of this parameter.
    ///
    /// # Panics
    /// If `x` does not encode a value of an ordinal/categorical parameter.
    pub fn decode(&self, x: f64) -> ParamValue {
        match self {
            Hyperparameter::Ordinal { name, .. } | Hyperparameter::Categorical { name, .. } => {
                let index = self
                    .encoded_index(x)
                    .unwrap_or_else(|| panic!("{x} does not encode a value of `{name}`"));
                self.value_at(index)
            }
            Hyperparameter::UniformInt { .. } => ParamValue::Int(x as i64),
            Hyperparameter::UniformFloat { .. } => ParamValue::Float(x),
        }
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
        assert_eq!(p.cardinality(), Some(4));
        assert_eq!(p.value_at(2), ParamValue::Int(4));
        assert_eq!(p.index_of(&ParamValue::Int(8)), Some(3));
        assert_eq!(p.index_of(&ParamValue::Int(3)), None);
        assert_eq!(p.encode(&ParamValue::Int(8)), 3.0);
        assert_eq!(p.default_value(), ParamValue::Int(1));
    }

    #[test]
    fn uniform_int_bounds() {
        let p = Hyperparameter::UniformInt {
            name: "n".into(),
            lo: 5,
            hi: 9,
        };
        assert_eq!(p.cardinality(), Some(5));
        assert_eq!(p.value_at(0), ParamValue::Int(5));
        assert_eq!(p.value_at(4), ParamValue::Int(9));
        assert_eq!(p.index_of(&ParamValue::Int(7)), Some(2));
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..50 {
            let v = p.sample(&mut rng).as_int().expect("int");
            assert!((5..=9).contains(&v));
        }
    }

    #[test]
    fn continuous_has_no_cardinality() {
        let p = Hyperparameter::UniformFloat {
            name: "x".into(),
            lo: 0.0,
            hi: 1.0,
        };
        assert_eq!(p.cardinality(), None);
        let mut rng = SmallRng::seed_from_u64(2);
        let v = p.sample(&mut rng).as_float().expect("float");
        assert!((0.0..1.0).contains(&v));
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
