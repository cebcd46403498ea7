//! Configuration spaces: ordered parameter sets with sampling,
//! enumeration, encoding and neighbourhoods.

use crate::config::Configuration;
use crate::param::Hyperparameter;
use crate::value::ParamValue;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// An ordered set of hyperparameters — the `cs` object of the paper's
/// ConfigSpace snippets.
///
/// A point of the space is its flat index ([`ConfigSpace::at`] /
/// [`ConfigSpace::index_of`]), a mixed-radix number whose digits are the
/// indices of its values; its encoded row ([`ConfigSpace::encode`]) is that
/// digit vector.
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
    /// On duplicate names, and on a parameter that lists a value twice
    /// (or a NaN): `value_at` and `index_of` must be inverses, or `size`
    /// over-counts and two encodings name one configuration.
    pub fn add(&mut self, p: Hyperparameter) -> &mut Self {
        assert!(
            self.params.iter().all(|q| q.name() != p.name()),
            "duplicate parameter `{}`",
            p.name()
        );
        for (i, v) in p.values().iter().enumerate() {
            assert!(
                p.index_of(v) == Some(i),
                "duplicate value `{v}` in parameter `{}`",
                p.name()
            );
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

    /// Total number of configurations (`None` if there are more than a
    /// `u128` holds). Reproduces the paper's Table 1 cardinalities.
    pub fn size(&self) -> Option<u128> {
        self.params
            .iter()
            .try_fold(1u128, |acc, p| acc.checked_mul(p.cardinality() as u128))
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

    /// Configuration at a mixed-radix flat index over the grid (row-major:
    /// the *last* parameter varies fastest, matching AutoTVM's
    /// `ConfigSpace.get(i)` convention).
    ///
    /// # Panics
    /// If `index` is out of range.
    pub fn at(&self, index: u128) -> Configuration {
        let mut rem = index;
        let mut values = vec![ParamValue::Int(0); self.params.len()];
        for (value, p) in values.iter_mut().zip(&self.params).rev() {
            let card = p.cardinality() as u128;
            *value = p.value_at((rem % card) as usize);
            rem /= card;
        }
        assert!(
            rem == 0,
            "index {index} out of range (size {:?})",
            self.size()
        );
        Configuration::new(
            self.params.iter().map(|p| p.name().to_string()).collect(),
            values,
        )
    }

    /// Flat index of a configuration (inverse of [`ConfigSpace::at`]):
    /// `None` unless it names this space's parameters in order, each with
    /// one of its values, so no configuration from outside the space has
    /// one.
    pub fn index_of(&self, config: &Configuration) -> Option<u128> {
        let names = self.params.iter().map(|p| p.name());
        if !names.eq(config.names.iter().map(String::as_str)) {
            return None;
        }
        self.flat_index(
            self.params
                .iter()
                .zip(&config.values)
                .map(|(p, v)| p.index_of(v)),
        )
    }

    /// [`ConfigSpace::index_of`] of the configuration `row` encodes
    /// (`None` if it encodes none of this space's).
    pub fn index_of_encoded(&self, row: &[f64]) -> Option<u128> {
        assert_eq!(row.len(), self.params.len(), "row width");
        self.flat_index(
            self.params
                .iter()
                .zip(row)
                .map(|(p, &x)| p.encoded_index(x)),
        )
    }

    /// The mixed-radix number of one digit per parameter (`None` if a digit
    /// is missing or the number does not fit a `u128`).
    fn flat_index(&self, digits: impl Iterator<Item = Option<usize>>) -> Option<u128> {
        self.params
            .iter()
            .zip(digits)
            .try_fold(0u128, |idx, (p, d)| {
                idx.checked_mul(p.cardinality() as u128)?
                    .checked_add(d? as u128)
            })
    }

    /// Lazy row-major enumeration of the whole grid: [`ConfigSpace::at`]
    /// of every index.
    pub fn grid(&self) -> impl Iterator<Item = Configuration> + '_ {
        (0..self.size().unwrap_or(u128::MAX)).map(|i| self.at(i))
    }

    /// Encode a configuration into a numeric feature vector for surrogate
    /// models: each parameter's value index, NaN where the configuration
    /// lacks the parameter or the value.
    pub fn encode(&self, config: &Configuration) -> Vec<f64> {
        self.params
            .iter()
            .map(|p| config.get(p.name()).map_or(f64::NAN, |v| p.encode(v)))
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
    /// (`len()` values) is `encode(&at(i))`, the digits of `i`.
    ///
    /// # Panics
    /// If the grid has more rows than a `usize` counts.
    pub fn grid_encoded(&self) -> Vec<f64> {
        let size = self.size().and_then(|s| usize::try_from(s).ok());
        let size = size.expect("grid too large to materialise");
        let mut digits = vec![0usize; self.params.len()];
        let mut out = Vec::with_capacity(size * digits.len());
        for _ in 0..size {
            out.extend(digits.iter().map(|&d| d as f64));
            // Mixed-radix increment, last parameter fastest.
            for (digit, p) in digits.iter_mut().zip(&self.params).rev() {
                *digit += 1;
                if *digit < p.cardinality() {
                    break;
                }
                *digit = 0;
            }
        }
        out
    }

    /// Random neighbour: pick one parameter, move its ordinal rank by ±1
    /// (or resample a categorical parameter). The local-move operator used
    /// by GA mutation and simulated-annealing proposals.
    pub fn neighbor(&self, config: &Configuration, rng: &mut impl Rng) -> Configuration {
        assert!(!self.params.is_empty(), "empty space has no neighbours");
        let mut out = config.clone();
        let d = rng.gen_range(0..self.params.len());
        let p = &self.params[d];
        out.values[d] = match p {
            Hyperparameter::Ordinal { .. } => {
                p.value_at(step_rank(p.index_of(&out.values[d]), p.cardinality(), rng))
            }
            Hyperparameter::Categorical { .. } => p.sample(rng),
        };
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
            Hyperparameter::Ordinal { .. } => {
                step_rank(p.encoded_index(row[d]), p.cardinality(), rng) as f64
            }
            Hyperparameter::Categorical { .. } => p.sample_encoded(rng),
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
                    .is_some_and(|v| p.index_of(v).is_some())
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

/// A set of flat indices ([`ConfigSpace::index_of`]): what a tuner has
/// proposed or been told.
pub type IndexSet = HashSet<u128, BuildHasherDefault<IndexHasher>>;

/// [`IndexSet`]'s hasher: one multiply, where std's SipHash would cost more
/// than the probe it serves (an ask tests every point of a 57 600-point
/// grid).
#[derive(Debug, Default)]
pub struct IndexHasher(u64);

impl Hasher for IndexHasher {
    /// Not reached from an [`IndexSet`], whose keys hash by `write_u128`.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u128(u128::from(self.0) << 8 | u128::from(b));
        }
    }

    fn write_u128(&mut self, i: u128) {
        self.0 = (i as u64 ^ (i >> 64) as u64).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    /// The product's high bits depend on every bit of the index; rotate
    /// them down to where the table picks its bucket.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
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
        // 256¹⁷ = 2¹³⁶ points: more than a `u128` counts, but the first
        // 2¹²⁸ still have their flat index.
        let mut cs = ConfigSpace::new();
        for i in 0..17 {
            let values: Vec<i64> = (0..256).collect();
            cs.add(Hyperparameter::ordinal_ints(format!("P{i}"), &values));
        }
        assert_eq!(cs.size(), None);
        let last = cs.at(u128::MAX);
        assert_eq!(cs.index_of(&last), Some(u128::MAX));
        assert_eq!(cs.index_of_encoded(&cs.encode(&last)), Some(u128::MAX));
        let mut past = last;
        past.values[0] = ParamValue::Int(1);
        assert_eq!(cs.index_of(&past), None);
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

    /// Both kinds, negative values and a one-value parameter.
    fn mixed_space() -> ConfigSpace {
        let mut cs = ConfigSpace::new();
        cs.add(Hyperparameter::ordinal_ints("tile", &[1, 2, 4, 8, 16]));
        cs.add(Hyperparameter::categorical_strs(
            "order",
            &["ijk", "ikj", "kij"],
        ));
        cs.add(Hyperparameter::ordinal_ints(
            "unroll",
            &(-2..=5).collect::<Vec<i64>>(),
        ));
        cs.add(Hyperparameter::ordinal_ints("one", &[7]));
        cs
    }

    fn bits(row: &[f64]) -> Vec<u64> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn decode_inverts_encode() {
        let mut rng = SmallRng::seed_from_u64(11);
        for cs in [mixed_space(), space()] {
            for _ in 0..200 {
                let c = cs.sample(&mut rng);
                assert_eq!(cs.decode(&cs.encode(&c)), c);
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not encode a value of `tile`")]
    fn decode_rejects_rows_from_outside_the_space() {
        mixed_space().decode(&[5.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn encoded_sample_is_the_encoded_sample_from_the_same_draws() {
        for cs in [mixed_space(), space()] {
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
        for cs in [mixed_space(), space()] {
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
    fn indices_of_rows_and_configurations_are_the_grid_positions() {
        let cs = mixed_space();
        for (i, row) in cs.grid_encoded().chunks_exact(cs.len()).enumerate() {
            assert_eq!(cs.index_of_encoded(row), Some(i as u128));
            assert_eq!(cs.index_of(&cs.at(i as u128)), Some(i as u128));
        }
        // No index for what no point of the space is: a value or a rank it
        // lacks, a parameter too many, or its parameters in another order.
        assert_eq!(cs.index_of_encoded(&[5.0, 0.0, 0.0, 0.0]), None);
        assert_eq!(cs.index_of_encoded(&[0.0, 0.0, 8.0, 0.0]), None);
        assert_eq!(cs.index_of_encoded(&[0.0, 0.0, 0.5, 0.0]), None);
        assert_eq!(cs.index_of_encoded(&[0.0, f64::NAN, 0.0, 0.0]), None);
        let mut c = cs.at(7);
        c.values[2] = ParamValue::Int(-3);
        assert_eq!(cs.index_of(&c), None);
        let mut c = cs.at(7);
        c.names.swap(0, 1);
        c.values.swap(0, 1);
        assert_eq!(cs.index_of(&c), None);
        let mut c = cs.at(7);
        c.names.push("alpha".into());
        c.values.push(ParamValue::Float(0.5));
        assert_eq!(cs.index_of(&c), None);
    }

    #[test]
    fn encoded_grid_rows_are_the_encoded_grid_points() {
        for cs in [mixed_space(), space(), ConfigSpace::new()] {
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
