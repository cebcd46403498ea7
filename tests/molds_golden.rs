//! What the seven code molds produce, pinned.
//!
//! One line of `tests/pins/molds.txt` per kernel × {mini, small} ×
//! {paper, aggressive} holds:
//!
//! - `name` and the space size;
//! - `lowered`: an FNV-1a of the printed lowered function of the baseline
//!   configuration and of the first 3 prelint-clean seeded draws (the
//!   printer writes variable names, not ids, so the text is stable across
//!   processes);
//! - `args` / `reference`: FNV-1a of the shapes and `f64` bits of
//!   `init_args` and of `reference_args` (a pure input folds one marker);
//! - `prelint`: the codes of 20 seeded draws counted by code, and an
//!   FNV-1a of every draw's codes and text in draw order.
//!
//! A refactor of the molds (how a kernel is looked up, built or given its
//! arrays) is held to it: no lowered function, array or prelint verdict
//! moves.

mod common;

use common::pins;
use polybench::molds::{mold_for_mode, CodeMold};
use polybench::{KernelName, ProblemSize, SpaceMode};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use tvm_runtime::NDArray;
use tvm_tir::analyze::Severity;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn array(&mut self, a: &NDArray) {
        self.u64(a.shape().len() as u64);
        for &d in a.shape() {
            self.u64(d as u64);
        }
        for v in a.as_f64() {
            self.u64(v.to_bits());
        }
    }
}

/// Fold the printed baseline and the first 3 prelint-clean seeded draws.
fn lowered(mold: &dyn CodeMold) -> u64 {
    let mut rng = SmallRng::seed_from_u64(0x301D);
    let draws = std::iter::repeat_with(|| mold.space().sample(&mut rng))
        .take(1000)
        .filter(|c| mold.prelint(c).iter().all(|d| d.severity != Severity::Deny))
        .take(3);
    let mut h = Fnv::new();
    for config in std::iter::once(mold.baseline_configuration()).chain(draws) {
        h.bytes(config.key().as_bytes());
        h.bytes(mold.instantiate(&config).to_string().as_bytes());
        h.bytes(&[0]);
    }
    h.0
}

/// Count the prelint codes of 20 seeded draws, and fold every draw's
/// codes and text in order.
fn prelint(mold: &dyn CodeMold) -> String {
    let mut rng = SmallRng::seed_from_u64(0x9E17);
    let (mut counts, mut h) = (BTreeMap::new(), Fnv::new());
    for _ in 0..20 {
        for d in mold.prelint(&mold.space().sample(&mut rng)) {
            *counts.entry(d.code).or_insert(0) += 1;
            h.bytes(d.code.as_bytes());
            h.bytes(d.to_string().as_bytes());
        }
        h.bytes(&[0]);
    }
    let counts: Vec<String> = counts.iter().map(|(c, n)| format!("{c}={n}")).collect();
    format!("[{}] {:#018x}", counts.join(","), h.0)
}

fn line(kernel: KernelName, size: ProblemSize, mode: SpaceMode) -> String {
    let mold = mold_for_mode(kernel, size, mode);
    assert_eq!((mold.size(), mold.mode()), (size, mode), "{kernel}");
    let mut args = Fnv::new();
    for a in mold.init_args() {
        args.array(&a);
    }
    let mut reference = Fnv::new();
    for a in mold.reference_args() {
        match a {
            Some(a) => reference.array(&a),
            None => reference.bytes(&[0xff]),
        }
    }
    format!(
        "{kernel}.{size}.{mode:?} name {} space {} lowered {:#018x} args {:#018x} \
         reference {:#018x} prelint {}\n",
        mold.name(),
        mold.space().size().expect("mold spaces are finite"),
        lowered(mold.as_ref()),
        args.0,
        reference.0,
        prelint(mold.as_ref()),
    )
}

#[test]
fn the_molds_produce_the_recorded_functions_and_arrays() {
    let mut got = String::new();
    for kernel in KernelName::all() {
        for size in [ProblemSize::Mini, ProblemSize::Small] {
            for mode in [SpaceMode::Paper, SpaceMode::Aggressive] {
                got += &line(kernel, size, mode);
            }
        }
    }
    pins::check("molds", &got);
}
