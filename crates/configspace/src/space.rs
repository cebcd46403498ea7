//! Configuration spaces: ordered parameter sets with sampling,
//! enumeration, encoding and neighbourhoods.

use crate::config::Configuration;
use crate::param::Hyperparameter;
use crate::value::ParamValue;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// An ordered set of hyperparameters — the `cs` object of the paper's
/// ConfigSpace snippets.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ConfigSpace {
    params: Vec<Hyperparameter>,
}

impl ConfigSpace {
    /// Empty space.
    pub fn new() -> ConfigSpace {
        ConfigSpace { params: Vec::new() }
    }

    /// Add one parameter (`cs.add_hyperparameter`).
    ///
    /// # Panics
    /// On duplicate names, and on an ordinal or categorical parameter
    /// that lists a value twice (or a NaN): `value_at` and `index_of`
    /// must be inverses, or `size` over-counts and two encodings name
    /// one configuration.
    pub fn add(&mut self, p: Hyperparameter) -> &mut Self {
        assert!(
            self.params.iter().all(|q| q.name() != p.name()),
            "duplicate parameter `{}`",
            p.name()
        );
        if let Hyperparameter::Ordinal {
            sequence: values, ..
        }
        | Hyperparameter::Categorical {
            choices: values, ..
        } = &p
        {
            for (i, v) in values.iter().enumerate() {
                assert!(
                    p.index_of(v) == Some(i),
                    "duplicate value `{v}` in parameter `{}`",
                    p.name()
                );
            }
        }
        self.params.push(p);
        self
    }

    /// Add several parameters (`cs.add_hyperparameters([...])`).
    pub fn add_all(&mut self, ps: impl IntoIterator<Item = Hyperparameter>) -> &mut Self {
        for p in ps {
            self.add(p);
        }
        self
    }

    /// Parameters in insertion order.
    pub fn params(&self) -> &[Hyperparameter] {
        &self.params
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are defined.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Look up a parameter by name.
    pub fn get(&self, name: &str) -> Option<&Hyperparameter> {
        self.params.iter().find(|p| p.name() == name)
    }

    /// Total number of configurations (`None` if any parameter is
    /// continuous). Reproduces the paper's Table 1 cardinalities.
    pub fn size(&self) -> Option<u128> {
        self.params
            .iter()
            .map(|p| p.cardinality())
            .try_fold(1u128, |acc, c| c.map(|c| acc * c))
    }

    /// Uniform random configuration.
    pub fn sample(&self, rng: &mut impl Rng) -> Configuration {
        Configuration::new(
            self.params.iter().map(|p| p.name().to_string()).collect(),
            self.params.iter().map(|p| p.sample(rng)).collect(),
        )
    }

    /// [`ConfigSpace::sample`] in encoded form: appends
    /// `encode(&sample(rng))` to `out` from the same draws in the same
    /// order, without building a configuration.
    pub fn sample_encoded(&self, rng: &mut impl Rng, out: &mut Vec<f64>) {
        out.extend(self.params.iter().map(|p| p.sample_encoded(rng)));
    }

    /// Configuration at a mixed-radix flat index over the discrete grid
    /// (row-major: the *last* parameter varies fastest, matching
    /// AutoTVM's `ConfigSpace.get(i)` convention).
    ///
    /// # Panics
    /// If the space is continuous or `index` is out of range.
    pub fn at(&self, index: u128) -> Configuration {
        let size = self
            .size()
            .expect("grid enumeration needs a discrete space");
        assert!(index < size, "index {index} out of range (size {size})");
        let mut rem = index;
        let mut values = vec![ParamValue::Int(0); self.params.len()];
        for (d, p) in self.params.iter().enumerate().rev() {
            let card = p.cardinality().expect("discrete");
            values[d] = p.value_at((rem % card) as usize);
            rem /= card;
        }
        Configuration::new(
            self.params.iter().map(|p| p.name().to_string()).collect(),
            values,
        )
    }

    /// Flat index of a configuration (inverse of [`ConfigSpace::at`]).
    pub fn index_of(&self, config: &Configuration) -> Option<u128> {
        let mut idx = 0u128;
        for p in &self.params {
            let card = p.cardinality()?;
            let v = config.get(p.name())?;
            let i = p.index_of(v)? as u128;
            idx = idx * card + i;
        }
        Some(idx)
    }

    /// Lazy row-major enumeration of the whole grid.
    pub fn grid(&self) -> GridIter<'_> {
        GridIter {
            space: self,
            next: 0,
            size: self
                .size()
                .expect("grid enumeration needs a discrete space"),
        }
    }

    /// Encode a configuration into a numeric feature vector for surrogate
    /// models (ordinal rank / categorical index / raw numeric).
    pub fn encode(&self, config: &Configuration) -> Vec<f64> {
        self.params
            .iter()
            .map(|p| {
                config
                    .get(p.name())
                    .map(|v| p.encode(v))
                    .unwrap_or(f64::NAN)
            })
            .collect()
    }

    /// Inverse of [`ConfigSpace::encode`] on this space's configurations.
    ///
    /// # Panics
    /// If `row` is not the encoding of a configuration of this space.
    pub fn decode(&self, row: &[f64]) -> Configuration {
        assert_eq!(row.len(), self.params.len(), "row width");
        Configuration::new(
            self.params.iter().map(|p| p.name().to_string()).collect(),
            self.params
                .iter()
                .zip(row)
                .map(|(p, &x)| p.decode(x))
                .collect(),
        )
    }

    /// The whole grid in encoded form, row-major in one vector: row `i`
    /// (`len()` values) is `encode(&at(i))`.
    ///
    /// # Panics
    /// If the space is continuous.
    pub fn grid_encoded(&self) -> Vec<f64> {
        let size = self
            .size()
            .expect("grid enumeration needs a discrete space");
        let size = usize::try_from(size).expect("grid too large to materialise");
        let cards: Vec<usize> = self
            .params
            .iter()
            .map(|p| p.cardinality().expect("discrete") as usize)
            .collect();
        let mut digits = vec![0usize; cards.len()];
        let mut out = Vec::with_capacity(size * cards.len());
        for _ in 0..size {
            out.extend(
                self.params
                    .iter()
                    .zip(&digits)
                    .map(|(p, &i)| p.encoded_at(i)),
            );
            // Mixed-radix increment, last parameter fastest.
            for (digit, &card) in digits.iter_mut().zip(&cards).rev() {
                *digit += 1;
                if *digit < card {
                    break;
                }
                *digit = 0;
            }
        }
        out
    }

    /// Random neighbour: pick one parameter, move its ordinal rank by ±1
    /// (or resample a categorical/continuous parameter). The local-move
    /// operator used by GA mutation and simulated-annealing proposals.
    pub fn neighbor(&self, config: &Configuration, rng: &mut impl Rng) -> Configuration {
        assert!(!self.params.is_empty(), "empty space has no neighbours");
        let mut out = config.clone();
        let d = rng.gen_range(0..self.params.len());
        let p = &self.params[d];
        let new_val = match p {
            Hyperparameter::Ordinal { sequence, .. } => {
                let cur = p.index_of(&out.values[d]);
                sequence[step_rank(cur, sequence.len(), rng)].clone()
            }
            other => other.sample(rng),
        };
        out.values[d] = new_val;
        out
    }

    /// [`ConfigSpace::neighbor`] in encoded form: for `row = encode(&c)`,
    /// appends `encode(&neighbor(&c, rng))` to `out` from the same draws in
    /// the same order (a NaN in `row` is a value the parameter does not
    /// have, whose rank `neighbor` draws before moving it).
    pub fn neighbor_encoded(&self, row: &[f64], rng: &mut impl Rng, out: &mut Vec<f64>) {
        assert!(!self.params.is_empty(), "empty space has no neighbours");
        assert_eq!(row.len(), self.params.len(), "row width");
        let d = rng.gen_range(0..self.params.len());
        let p = &self.params[d];
        let moved = match p {
            Hyperparameter::Ordinal { sequence, .. } => {
                step_rank(p.encoded_index(row[d]), sequence.len(), rng) as f64
            }
            other => other.sample_encoded(rng),
        };
        let start = out.len();
        out.extend_from_slice(row);
        out[start + d] = moved;
    }

    /// The configuration with every parameter at its default.
    pub fn default_configuration(&self) -> Configuration {
        Configuration::new(
            self.params.iter().map(|p| p.name().to_string()).collect(),
            self.params.iter().map(|p| p.default_value()).collect(),
        )
    }

    /// Check that a configuration assigns a legal value to every
    /// parameter of this space.
    pub fn validate(&self, config: &Configuration) -> bool {
        config.len() == self.params.len()
            && self.params.iter().all(|p| {
                config
                    .get(p.name())
                    .map(|v| match p {
                        Hyperparameter::UniformFloat { lo, hi, .. } => {
                            v.as_float().map(|x| x >= *lo && x <= *hi).unwrap_or(false)
                        }
                        _ => p.index_of(v).is_some(),
                    })
                    .unwrap_or(false)
            })
    }
}

/// One ±1 move from rank `cur` in a sequence of `len` values: away from
/// an end, else a fair coin; an unknown rank is drawn first.
fn step_rank(cur: Option<usize>, len: usize, rng: &mut impl Rng) -> usize {
    let cur = cur.unwrap_or_else(|| rng.gen_range(0..len));
    if cur == 0 {
        1.min(len - 1)
    } else if cur == len - 1 || rng.gen_bool(0.5) {
        cur - 1
    } else {
        cur + 1
    }
}

/// Lazy iterator over all configurations of a discrete space, in
/// row-major (grid) order.
pub struct GridIter<'a> {
    space: &'a ConfigSpace,
    next: u128,
    size: u128,
}

impl<'a> Iterator for GridIter<'a> {
    type Item = Configuration;

    fn next(&mut self) -> Option<Configuration> {
        if self.next >= self.size {
            return None;
        }
        let c = self.space.at(self.next);
        self.next += 1;
        Some(c)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.size - self.next).min(usize::MAX as u128) as usize;
        (rem, Some(rem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn space() -> ConfigSpace {
        let mut cs = ConfigSpace::new();
        cs.add(Hyperparameter::ordinal_ints("P0", &[1, 2, 4]));
        cs.add(Hyperparameter::ordinal_ints("P1", &[10, 20]));
        cs
    }

    #[test]
    fn size_multiplies() {
        assert_eq!(space().size(), Some(6));
        let mut cs = space();
        cs.add(Hyperparameter::UniformFloat {
            name: "x".into(),
            lo: 0.0,
            hi: 1.0,
        });
        assert_eq!(cs.size(), None);
    }

    #[test]
    fn at_and_index_roundtrip() {
        let cs = space();
        for i in 0..6u128 {
            let c = cs.at(i);
            assert_eq!(cs.index_of(&c), Some(i));
        }
        // Row-major: last param fastest.
        assert_eq!(cs.at(0).ints(), vec![1, 10]);
        assert_eq!(cs.at(1).ints(), vec![1, 20]);
        assert_eq!(cs.at(2).ints(), vec![2, 10]);
        assert_eq!(cs.at(5).ints(), vec![4, 20]);
    }

    #[test]
    fn grid_enumerates_all_distinct() {
        let cs = space();
        let all: Vec<_> = cs.grid().collect();
        assert_eq!(all.len(), 6);
        let mut keys: Vec<_> = all.iter().map(|c| c.key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 6);
    }

    #[test]
    fn sample_is_valid() {
        let cs = space();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..50 {
            let c = cs.sample(&mut rng);
            assert!(cs.validate(&c));
        }
    }

    #[test]
    fn encode_uses_ordinal_rank() {
        let cs = space();
        let c = cs.at(5); // P0=4 (rank 2), P1=20 (rank 1)
        assert_eq!(cs.encode(&c), vec![2.0, 1.0]);
    }

    #[test]
    fn neighbor_moves_one_param_one_rank() {
        let cs = space();
        let mut rng = SmallRng::seed_from_u64(7);
        let c = cs.at(2); // P0=2 (rank 1), P1=10 (rank 0)
        for _ in 0..40 {
            let n = cs.neighbor(&c, &mut rng);
            assert!(cs.validate(&n));
            let d: Vec<i64> = cs
                .encode(&c)
                .iter()
                .zip(cs.encode(&n).iter())
                .map(|(a, b)| (a - b).abs() as i64)
                .collect();
            let moved: i64 = d.iter().sum();
            assert!(moved <= 1, "neighbor moved more than one rank: {d:?}");
        }
    }

    #[test]
    #[should_panic(expected = "duplicate parameter")]
    fn duplicate_rejected() {
        let mut cs = space();
        cs.add(Hyperparameter::ordinal_ints("P0", &[1]));
    }

    #[test]
    fn default_configuration_valid() {
        let cs = space();
        let d = cs.default_configuration();
        assert!(cs.validate(&d));
        assert_eq!(d.ints(), vec![1, 10]);
    }

    #[test]
    fn validate_rejects_foreign_values() {
        let cs = space();
        let mut c = cs.at(0);
        c.values[0] = ParamValue::Int(3); // not in [1,2,4]
        assert!(!cs.validate(&c));
    }

    #[test]
    #[should_panic(expected = "duplicate value `4` in parameter `P2`")]
    fn duplicate_value_rejected() {
        // `index_of` finds the first 4, so `at` and `index_of` would stop
        // being inverses and `size` would count one configuration twice.
        let mut cs = space();
        cs.add(Hyperparameter::ordinal_ints("P2", &[1, 4, 2, 4]));
    }

    #[test]
    #[should_panic(expected = "duplicate value `b` in parameter `C`")]
    fn duplicate_choice_rejected() {
        let mut cs = space();
        cs.add(Hyperparameter::categorical_strs("C", &["a", "b", "b"]));
    }

    /// One parameter of each kind; without the float, a discrete space.
    fn mixed_space(continuous: bool) -> ConfigSpace {
        let mut cs = ConfigSpace::new();
        cs.add(Hyperparameter::ordinal_ints("tile", &[1, 2, 4, 8, 16]));
        cs.add(Hyperparameter::categorical_strs(
            "order",
            &["ijk", "ikj", "kij"],
        ));
        cs.add(Hyperparameter::UniformInt {
            name: "unroll".into(),
            lo: -2,
            hi: 5,
        });
        cs.add(Hyperparameter::ordinal_ints("one", &[7]));
        if continuous {
            cs.add(Hyperparameter::UniformFloat {
                name: "alpha".into(),
                lo: 0.5,
                hi: 2.0,
            });
        }
        cs
    }

    fn bits(row: &[f64]) -> Vec<u64> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn decode_inverts_encode() {
        let mut rng = SmallRng::seed_from_u64(11);
        for cs in [mixed_space(true), mixed_space(false), space()] {
            for _ in 0..200 {
                let c = cs.sample(&mut rng);
                assert_eq!(cs.decode(&cs.encode(&c)), c);
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not encode a value of `tile`")]
    fn decode_rejects_rows_from_outside_the_space() {
        mixed_space(false).decode(&[5.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn encoded_sample_is_the_encoded_sample_from_the_same_draws() {
        for cs in [mixed_space(true), mixed_space(false), space()] {
            let mut rng = SmallRng::seed_from_u64(23);
            for _ in 0..300 {
                let mut twin = rng.clone();
                let expected = cs.encode(&cs.sample(&mut twin));
                let mut row = vec![-1.0];
                cs.sample_encoded(&mut rng, &mut row);
                assert_eq!(row[0], -1.0, "appends");
                assert_eq!(bits(&row[1..]), bits(&expected));
                assert_eq!(rng.gen::<u64>(), twin.gen::<u64>(), "same RNG state");
            }
        }
    }

    #[test]
    fn encoded_neighbor_is_the_encoded_neighbor_from_the_same_draws() {
        for cs in [mixed_space(true), mixed_space(false), space()] {
            let mut rng = SmallRng::seed_from_u64(37);
            for round in 0..400 {
                let mut c = cs.sample(&mut rng);
                if round % 4 == 0 {
                    // A value the parameter does not have: `encode` says
                    // NaN, and a move of that parameter first draws a rank.
                    c.values[0] = ParamValue::Int(3);
                }
                let mut twin = rng.clone();
                let expected = cs.encode(&cs.neighbor(&c, &mut twin));
                let mut row = Vec::new();
                cs.neighbor_encoded(&cs.encode(&c), &mut rng, &mut row);
                assert_eq!(bits(&row), bits(&expected), "{c}");
                assert_eq!(rng.gen::<u64>(), twin.gen::<u64>(), "same RNG state");
            }
        }
    }

    #[test]
    fn encoded_grid_rows_are_the_encoded_grid_points() {
        for cs in [mixed_space(false), space(), ConfigSpace::new()] {
            let grid = cs.grid_encoded();
            let size = cs.size().expect("discrete") as usize;
            assert_eq!(grid.len(), size * cs.len());
            for i in 0..size {
                let row = &grid[i * cs.len()..(i + 1) * cs.len()];
                assert_eq!(bits(row), bits(&cs.encode(&cs.at(i as u128))), "row {i}");
            }
        }
    }
}
