//! Tuning-space construction for the PolyBench molds.
//!
//! Two modes exist. [`SpaceMode::Paper`] reproduces the paper's §4 spaces
//! exactly: each split factor is an ordinal hyperparameter over "the
//! common factors of each matrix rank", and [`space_for`] reproduces
//! Table 1's cardinalities. [`SpaceMode::Aggressive`] grows the frontier:
//! non-divisor tile sizes (guarded tail iterations), the degenerate
//! `tile == extent` / `tile > extent` edges, the illegal factor 0, and —
//! for the TE matmul kernels — loop-order, fuse, vectorize, parallel and
//! unroll knobs that are *not* all legal or race-free. The static
//! analyzer (prelint + bounds/race checks) is the gatekeeper that prunes
//! the wild region before anything compiles or runs.

use crate::datasets::{
    factorization_n, gemm_dims, mm2_dims, mm3_dims, syrk_dims, trmm_dims, KernelName, ProblemSize,
};
use crate::divisors::{aggressive_tiles, divisors};
use configspace::{ConfigSpace, Configuration, Hyperparameter};

/// Which region of schedule space a kernel's `ConfigSpace` spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SpaceMode {
    /// The paper's divisor-only spaces (Table 1 cardinalities); every
    /// configuration instantiates and is race-free by construction.
    #[default]
    Paper,
    /// Divisors plus non-divisor/overshooting/zero tiles and scheduling
    /// knobs; a sizable fraction of configurations is statically denied.
    Aggressive,
}

impl SpaceMode {
    /// Parse from the lowercase names used on bench CLIs.
    pub fn parse(s: &str) -> Option<SpaceMode> {
        match s {
            "paper" => Some(SpaceMode::Paper),
            "aggressive" => Some(SpaceMode::Aggressive),
            _ => None,
        }
    }
}

impl std::fmt::Display for SpaceMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SpaceMode::Paper => "paper",
            SpaceMode::Aggressive => "aggressive",
        })
    }
}

/// Names of the aggressive scheduling knobs (beyond tile factors). The
/// first value of each knob reproduces the paper-mode schedule, so any
/// paper configuration embeds into the aggressive space via
/// [`embed_config`].
pub const KNOB_NAMES: [&str; 5] = ["ORDER", "FUSE", "VEC", "PAR", "UNROLL"];

/// Tile-factor value list for one axis under a mode.
fn tiles(n: usize, mode: SpaceMode) -> Vec<i64> {
    match mode {
        SpaceMode::Paper => divisors(n as u64),
        SpaceMode::Aggressive => aggressive_tiles(n as u64),
    }
}

/// The scheduling knobs added to the TE matmul kernels in aggressive
/// mode. Neutral (paper-equivalent) value first in every list:
/// * `ORDER`: loop order — 0 `yo,xo,k,yi,xi` (paper), 1 `xo,yo,k,xi,yi`,
///   2 `yo,xo,yi,xi,k` (reduction innermost).
/// * `FUSE`: 0 none, 1 fuse the two outermost tile loops (always
///   adjacent), 2 fuse `y.outer` with the reduction axis — only adjacent
///   under `ORDER == 1`, otherwise denied by `TIR-FUSE-ILLEGAL`.
/// * `VEC`: vector lanes on the innermost column axis; 0 disables.
///   Lanes exceeding the column tile are denied by `TIR-VEC-OVER` where
///   the vector loop survives lowering (`ORDER` 0, or 1 with the row
///   loop unrolled or of one trip); elsewhere it runs serial, unmasked.
/// * `PAR`: 0 parallel outermost (paper), 1 serial, 2 parallel the
///   reduction axis — a write-write race the analyzer denies.
/// * `UNROLL`: 0 none, 1 unroll the inner row loop.
fn matmul_knobs() -> Vec<Hyperparameter> {
    vec![
        Hyperparameter::ordinal_ints("ORDER", &[0, 1, 2]),
        Hyperparameter::ordinal_ints("FUSE", &[0, 1, 2]),
        Hyperparameter::ordinal_ints("VEC", &[0, 2, 4, 8, 64]),
        Hyperparameter::ordinal_ints("PAR", &[0, 1, 2]),
        Hyperparameter::ordinal_ints("UNROLL", &[0, 1]),
    ]
}

/// Tuning space for a kernel at a problem size under a [`SpaceMode`].
///
/// Paper mode:
/// * `3mm`: six ordinals `P0..P5`. Following the paper's ConfigSpace
///   listing, `P0`/`P3` range over the divisors of `M`, `P1`/`P5` over the
///   divisors of `N`, and `P2`/`P4` over the divisors of `P`
///   (large: 16·18·30·16·30·18 = 74,649,600; extralarge:
///   20·21·36·20·36·21 = 228,614,400 — Table 1).
/// * `lu`, `cholesky`: two ordinals (`tile_y`, `tile_x`) over the divisors
///   of `N` (large: 20² = 400; extralarge: 24² = 576 — Table 1).
/// * `gemm` / `2mm` (extensions): the analogous divisor spaces.
///
/// Aggressive mode keeps the same tile parameters over
/// [`aggressive_tiles`] value lists (a strict superset of the divisors)
/// and, for the TE matmul kernels (`gemm`, `2mm`, `3mm`), adds the
/// [`matmul_knobs`]; `syrk` gains the `PAR` knob (its reduction loop can
/// be — unsoundly — parallelized).
pub fn space_for_mode(kernel: KernelName, size: ProblemSize, mode: SpaceMode) -> ConfigSpace {
    let mut cs = ConfigSpace::new();
    match kernel {
        KernelName::Mm3 => {
            let d = mm3_dims(size);
            let (dm, dn, dp) = (tiles(d.m, mode), tiles(d.n, mode), tiles(d.p, mode));
            cs.add(Hyperparameter::ordinal_ints("P0", &dm));
            cs.add(Hyperparameter::ordinal_ints("P1", &dn));
            cs.add(Hyperparameter::ordinal_ints("P2", &dp));
            cs.add(Hyperparameter::ordinal_ints("P3", &dm));
            cs.add(Hyperparameter::ordinal_ints("P4", &dp));
            cs.add(Hyperparameter::ordinal_ints("P5", &dn));
            if mode == SpaceMode::Aggressive {
                cs.add_all(matmul_knobs());
            }
        }
        KernelName::Lu | KernelName::Cholesky => {
            let n = factorization_n(size);
            let dn = tiles(n, mode);
            cs.add(Hyperparameter::ordinal_ints("P0", &dn));
            cs.add(Hyperparameter::ordinal_ints("P1", &dn));
        }
        KernelName::Gemm => {
            let (ni, nj, _) = gemm_dims(size);
            cs.add(Hyperparameter::ordinal_ints("P0", &tiles(ni, mode)));
            cs.add(Hyperparameter::ordinal_ints("P1", &tiles(nj, mode)));
            if mode == SpaceMode::Aggressive {
                cs.add_all(matmul_knobs());
            }
        }
        KernelName::Syrk => {
            let (_, n) = syrk_dims(size);
            let dn = tiles(n, mode);
            cs.add(Hyperparameter::ordinal_ints("P0", &dn));
            cs.add(Hyperparameter::ordinal_ints("P1", &dn));
            if mode == SpaceMode::Aggressive {
                cs.add(Hyperparameter::ordinal_ints("PAR", &[0, 1, 2]));
            }
        }
        KernelName::Trmm => {
            let (m, n) = trmm_dims(size);
            cs.add(Hyperparameter::ordinal_ints("P0", &tiles(m, mode)));
            cs.add(Hyperparameter::ordinal_ints("P1", &tiles(n, mode)));
        }
        KernelName::Mm2 => {
            let (ni, nj, _, nl) = mm2_dims(size);
            cs.add(Hyperparameter::ordinal_ints("P0", &tiles(ni, mode)));
            cs.add(Hyperparameter::ordinal_ints("P1", &tiles(nj, mode)));
            cs.add(Hyperparameter::ordinal_ints("P2", &tiles(ni, mode)));
            cs.add(Hyperparameter::ordinal_ints("P3", &tiles(nl, mode)));
            if mode == SpaceMode::Aggressive {
                cs.add_all(matmul_knobs());
            }
        }
    }
    cs
}

/// The paper's tuning space — [`space_for_mode`] with [`SpaceMode::Paper`].
pub fn space_for(kernel: KernelName, size: ProblemSize) -> ConfigSpace {
    space_for_mode(kernel, size, SpaceMode::Paper)
}

/// Embed a configuration from a narrower space into `space`: parameters
/// present in `config` keep their values, parameters `config` lacks (the
/// aggressive knobs) take their first — neutral — value. The result
/// instantiates to the same schedule as `config` did in its own space.
pub fn embed_config(space: &ConfigSpace, config: &Configuration) -> Configuration {
    let names: Vec<String> = space
        .params()
        .iter()
        .map(|p| p.name().to_string())
        .collect();
    let values = space
        .params()
        .iter()
        .map(|p| match config.get(p.name()) {
            Some(v) => v.clone(),
            None => p.value_at(0),
        })
        .collect();
    Configuration::new(names, values)
}

/// The rows of the paper's Table 1: `(kernel, size, cardinality)`.
pub fn table1() -> Vec<(KernelName, ProblemSize, u128)> {
    let mut rows = Vec::new();
    for kernel in KernelName::paper_kernels() {
        for size in [ProblemSize::Large, ProblemSize::ExtraLarge] {
            let sz = space_for(kernel, size)
                .size()
                .expect("paper spaces are discrete");
            rows.push((kernel, size, sz));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_cardinalities_match_paper() {
        let expect = [
            (KernelName::Mm3, ProblemSize::Large, 74_649_600u128),
            (KernelName::Mm3, ProblemSize::ExtraLarge, 228_614_400),
            (KernelName::Cholesky, ProblemSize::Large, 400),
            (KernelName::Cholesky, ProblemSize::ExtraLarge, 576),
            (KernelName::Lu, ProblemSize::Large, 400),
            (KernelName::Lu, ProblemSize::ExtraLarge, 576),
        ];
        for (k, s, expected) in expect {
            let got = space_for(k, s).size().expect("discrete");
            assert_eq!(got, expected, "{k} {s}");
        }
    }

    #[test]
    fn table1_helper_covers_all_rows() {
        let rows = table1();
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().any(|&(_, _, sz)| sz == 228_614_400));
    }

    #[test]
    fn mm3_xl_p0_matches_paper_listing() {
        let cs = space_for(KernelName::Mm3, ProblemSize::ExtraLarge);
        let p0 = cs.get("P0").expect("P0");
        assert_eq!(p0.cardinality(), 20);
        assert_eq!(p0.value_at(0).as_int(), Some(1), "sequence starts at 1");
        assert_eq!(p0.value_at(19).as_int(), Some(2000));
        let p2 = cs.get("P2").expect("P2");
        assert_eq!(p2.cardinality(), 36);
    }

    #[test]
    fn paper_best_configs_are_in_space() {
        // Fig. 5: LU large best 400x50; Fig. 7: LU xl best 40x32;
        // Fig. 9: Cholesky large 125x50; Fig. 11: Cholesky xl 80x32.
        use configspace::ParamValue;
        let inspace = |k, s, ty: i64, tx: i64| {
            let cs = space_for(k, s);
            cs.get("P0")
                .unwrap()
                .index_of(&ParamValue::Int(ty))
                .is_some()
                && cs
                    .get("P1")
                    .unwrap()
                    .index_of(&ParamValue::Int(tx))
                    .is_some()
        };
        assert!(inspace(KernelName::Lu, ProblemSize::Large, 400, 50));
        assert!(inspace(KernelName::Lu, ProblemSize::ExtraLarge, 40, 32));
        assert!(inspace(KernelName::Cholesky, ProblemSize::Large, 125, 50));
        assert!(inspace(
            KernelName::Cholesky,
            ProblemSize::ExtraLarge,
            80,
            32
        ));
    }

    #[test]
    fn extension_spaces_are_discrete() {
        for k in [KernelName::Gemm, KernelName::Mm2] {
            for s in [ProblemSize::Mini, ProblemSize::Large] {
                assert!(space_for(k, s).size().is_some());
            }
        }
    }

    #[test]
    fn aggressive_space_is_strict_superset() {
        // Every paper parameter value stays addressable in the aggressive
        // space (same name, value present), and the aggressive space is
        // strictly larger — for all seven kernels at both a test size and
        // a paper size.
        for kernel in KernelName::all() {
            for size in [ProblemSize::Mini, ProblemSize::Large] {
                let paper = space_for_mode(kernel, size, SpaceMode::Paper);
                let agg = space_for_mode(kernel, size, SpaceMode::Aggressive);
                for p in paper.params() {
                    let ap = agg
                        .get(p.name())
                        .unwrap_or_else(|| panic!("{kernel} {size}: missing {}", p.name()));
                    for v in p.values() {
                        assert!(
                            ap.index_of(v).is_some(),
                            "{kernel} {size}: paper value {v:?} of {} absent",
                            p.name()
                        );
                    }
                }
                let (ps, ags) = (paper.size().unwrap(), agg.size().unwrap());
                assert!(ags > ps, "{kernel} {size}: {ags} !> {ps}");
            }
        }
    }

    #[test]
    fn aggressive_knobs_are_neutral_first() {
        let cs = space_for_mode(KernelName::Gemm, ProblemSize::Mini, SpaceMode::Aggressive);
        for knob in KNOB_NAMES {
            let p = cs.get(knob).unwrap_or_else(|| panic!("missing {knob}"));
            let first = p.value_at(0).as_int().expect("int knob");
            assert_eq!(first, 0, "{knob} must default to the paper schedule");
        }
    }

    #[test]
    fn embed_config_preserves_paper_values() {
        let paper = space_for_mode(KernelName::Gemm, ProblemSize::Mini, SpaceMode::Paper);
        let agg = space_for_mode(KernelName::Gemm, ProblemSize::Mini, SpaceMode::Aggressive);
        let cfg = paper.default_configuration();
        let embedded = embed_config(&agg, &cfg);
        assert!(agg.validate(&embedded), "embedded config must be in space");
        assert_eq!(embedded.int("P0"), cfg.int("P0"));
        assert_eq!(embedded.int("P1"), cfg.int("P1"));
        for knob in KNOB_NAMES {
            assert_eq!(embedded.int(knob), 0, "{knob} neutral");
        }
    }

    #[test]
    fn gemm_mini_aggressive_fits_full_grid() {
        // The BO full-grid acquisition ranking kicks in below 2^16
        // configurations; keep the flagship aggressive space inside it.
        let cs = space_for_mode(KernelName::Gemm, ProblemSize::Mini, SpaceMode::Aggressive);
        let sz = cs.size().expect("discrete");
        assert!(sz <= 1 << 16, "gemm mini aggressive space too big: {sz}");
        assert_eq!(sz, 12 * 11 * 3 * 3 * 5 * 3 * 2);
    }

    #[test]
    fn space_mode_parse_roundtrip() {
        for m in [SpaceMode::Paper, SpaceMode::Aggressive] {
            assert_eq!(SpaceMode::parse(&m.to_string()), Some(m));
        }
        assert_eq!(SpaceMode::parse("wild"), None);
        assert_eq!(SpaceMode::default(), SpaceMode::Paper);
    }
}
