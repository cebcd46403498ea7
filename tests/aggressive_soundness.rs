//! Differential soundness of the *aggressive* schedule spaces, through
//! the shared harness (`common::oracle::check_verdict`).
//!
//! The aggressive spaces deliberately contain illegal schedules — zero
//! tiles, over-wide vectorization, non-adjacent fuses, racy parallel
//! annotations — and the static analyzer is the only thing keeping them
//! away from the engines. This suite closes the loop in both directions:
//!
//! * every **admitted** `(kernel, config)` pair must run bit-identically
//!   on every engine at every thread budget without any `ExecError`;
//! * every **denied** pair must be confirmed by a concrete oracle: a
//!   `TIR-TRIP-ZERO` / `TIR-FUSE-ILLEGAL` prelint denial by the
//!   instantiation panic it predicts, a `TIR-VEC-OVER` denial by masked
//!   vector lanes in the lowered function, and a race denial by
//!   exhaustive enumeration of the denied loop's iterations.
//!
//! Each kernel must contribute at least one denial and one admission, so
//! neither side of the verdict is ever vacuous.

mod common;

use common::oracle::check_verdict;
use configspace::{Configuration, ParamValue};
use polybench::molds::{mold_for, mold_for_mode};
use polybench::spaces::embed_config;
use polybench::{KernelName, ProblemSize, SpaceMode};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Sampled sweep over every kernel's aggressive space, anchored by two
/// deterministic corners so each kernel contributes at least one denial
/// (the all-zero-tile grid corner) and one admission (the embedded paper
/// default) regardless of what the sampler draws. Every kernel and every
/// sample is visited; the test fails once, at the end, with the list of
/// every case whose verdict did not hold up.
#[test]
fn aggressive_configs_are_sound_on_all_four_engines() {
    let mut rng = SmallRng::seed_from_u64(0xA99);
    let mut failing = Vec::new();
    for kernel in KernelName::all() {
        let mold = mold_for_mode(kernel, ProblemSize::Mini, SpaceMode::Aggressive);
        let space = mold.space();
        let paper = mold_for(kernel, ProblemSize::Mini);
        let embedded = embed_config(space, &paper.space().default_configuration());
        let zero = space.grid().next().expect("non-empty space");
        let mut cases = vec![
            ("zero-tile corner".to_string(), zero),
            ("embedded paper default".to_string(), embedded),
        ];
        cases.extend((0..10).map(|i| (format!("sample {i}"), space.sample(&mut rng))));
        let mut admits = 0;
        for (nth, (label, config)) in cases.iter().enumerate() {
            let verdict = check_verdict(&*mold, config);
            let admitted = verdict.denials.is_empty();
            admits += admitted as usize;
            let corner_wrong = (nth == 0 && admitted) || (nth == 1 && !admitted);
            if corner_wrong || !verdict.failures.is_empty() {
                failing.push(format!("{} / {config} ({label}): {verdict:?}", mold.name()));
            }
        }
        if admits == 0 || admits == cases.len() {
            let n = cases.len();
            failing.push(format!("{}: {admits} of {n} admitted", mold.name()));
        }
    }
    assert!(
        failing.is_empty(),
        "{} failing cases:\n{}",
        failing.len(),
        failing.join("\n")
    );
}

/// All three oracle kinds, pinned on gemm with hand-picked configs so
/// each denial class is exercised deterministically (the sampled sweep
/// above may or may not draw them for any one kernel).
#[test]
fn gemm_denials_are_confirmed_by_every_oracle_kind() {
    let mold = mold_for_mode(KernelName::Gemm, ProblemSize::Mini, SpaceMode::Aggressive);
    let names: Vec<String> = ["P0", "P1", "ORDER", "FUSE", "VEC", "PAR", "UNROLL"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let cfg =
        |vals: [i64; 7]| Configuration::new(names.clone(), vals.map(ParamValue::Int).to_vec());
    for (label, config, denial) in [
        // VEC wider than the x tile: instantiable, lanes provably masked.
        (
            "over-wide vector",
            cfg([4, 5, 0, 0, 64, 0, 0]),
            "TIR-VEC-OVER",
        ),
        // Parallel reduction: clean prelint, denied by the race analysis,
        // confirmed by exhaustive enumeration of the parallel iterations.
        ("parallel reduction", cfg([4, 5, 0, 0, 0, 2, 0]), "TIR-RACE"),
        // Zero tile and non-adjacent fuse: the predicted instantiation
        // failures must actually occur.
        ("zero tile", cfg([0, 5, 0, 0, 0, 0, 0]), "TIR-TRIP-ZERO"),
        (
            "illegal fuse",
            cfg([4, 5, 0, 2, 0, 0, 0]),
            "TIR-FUSE-ILLEGAL",
        ),
    ] {
        let verdict = check_verdict(&*mold, &config);
        assert!(verdict.failures.is_empty(), "{label}: {verdict:?}");
        assert!(
            verdict.denials.iter().any(|d| d.starts_with(denial)),
            "{label}: {verdict:?}"
        );
        // Races are the analyzer's job, not the prelint's.
        assert_eq!(
            mold.prelint(&config).is_empty(),
            denial == "TIR-RACE",
            "{label}"
        );
    }
}
