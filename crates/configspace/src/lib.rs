#![warn(missing_docs)]
//! # configspace — hyperparameter configuration spaces
//!
//! A Rust equivalent of the Python `ConfigSpace` package as used by ytopt
//! (and by this repo's `ytopt-bo` crate). The paper defines each tunable
//! tiling factor as an `OrdinalHyperparameter` over the divisors of the
//! matrix extents; this crate reproduces that surface:
//!
//! * [`Hyperparameter`] — an ordinal or categorical parameter: a list of
//!   values, each encoded as its index,
//! * [`ConfigSpace`] — an ordered set of parameters with sampling,
//!   cardinality ([`ConfigSpace::size`], reproducing the paper's Table 1
//!   numbers), grid enumeration, neighbour generation and numeric
//!   encoding for surrogate models. A point's identity is its flat index
//!   ([`ConfigSpace::index_of`]); an encoded row is that index's digits,
//! * [`IndexSet`] — a set of flat indices, the tuners' one record of the
//!   points they have proposed or been told,
//! * [`Configuration`] — one point of the space, serializable for
//!   performance-database records.
//!
//! ```
//! use configspace::{ConfigSpace, Hyperparameter};
//! let mut cs = ConfigSpace::new();
//! cs.add(Hyperparameter::ordinal_ints("P0", &[1, 2, 4, 8]));
//! cs.add(Hyperparameter::ordinal_ints("P1", &[1, 2, 4]));
//! assert_eq!(cs.size(), Some(12));
//! ```

pub mod config;
pub mod param;
pub mod space;
pub mod value;

pub use config::Configuration;
pub use param::Hyperparameter;
pub use space::{ConfigSpace, IndexSet};
pub use value::ParamValue;
