//! What `tvm_tir`'s analyses say about the seven kernels' lowered
//! functions, pinned.
//!
//! For each kernel, over the paper space at mini (200 draws), small and
//! medium (40) and large (20) and the aggressive space at mini (200), a
//! seeded sample of prelint-clean configurations is instantiated. One line
//! per (kernel, mode, size) of `tests/pins/analysis.txt` holds:
//!
//! - `functions`: how many were instantiated;
//! - `diag`: `analyze::check`'s diagnostics counted by (code, severity),
//!   then an FNV-1a fold of their rendered text;
//! - `proven` / `proven_opt`: the parallel loops `race_free_parallel_vars`
//!   proves on the function and on its `tvm_tir::optimize`d form, a count
//!   and an FNV-1a of their names in walk order (variable ids are process
//!   counters, names are not);
//! - `features`: an FNV-1a of every `analysis::analyze` feature — loop
//!   bounds, strides, buffer sizes, selectivity, flops and iterations;
//! - `what_if`: with each loop in turn made parallel, the race check's
//!   findings and the loops the proof accepts, a count of each and an
//!   FNV-1a of the findings' text. No kernel parallelizes a loop whose
//!   outer loops shift a written buffer's accesses apart (lu's `j` under
//!   `k`), so only this field holds that part of the check.
//!
//! A refactor of the access analysis (strides, the race check) is held
//! to it: no verdict, proof or cost-model feature moves. Every race
//! denial it counts carries a witness that holds on the function.

mod common;

use common::{oracle, pins};
use polybench::molds::mold_for_mode;
use polybench::{KernelName, ProblemSize, SpaceMode};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use tvm_tir::analysis::analyze;
use tvm_tir::analyze::deps::{check_parallel_deps, race_free_parallel_vars};
use tvm_tir::analyze::{check, Severity};
use tvm_tir::stmt::{ForKind, Stmt};
use tvm_tir::PrimFunc;

/// The corpus: (mode, size, draws).
const CORPUS: [(SpaceMode, ProblemSize, usize); 5] = [
    (SpaceMode::Paper, ProblemSize::Mini, 200),
    (SpaceMode::Paper, ProblemSize::Small, 40),
    (SpaceMode::Paper, ProblemSize::Medium, 40),
    (SpaceMode::Paper, ProblemSize::Large, 20),
    (SpaceMode::Aggressive, ProblemSize::Mini, 200),
];

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
}

/// Count and fold the names of the parallel loops of `func` in `proven`,
/// in walk order.
fn proven_loops(func: &PrimFunc, count: &mut usize, names: &mut Fnv) {
    let proven = race_free_parallel_vars(func);
    func.body.walk(&mut |s| {
        if let Stmt::For {
            var,
            kind: ForKind::Parallel,
            ..
        } = s
        {
            if proven.contains(&var.id) {
                *count += 1;
                names.bytes(var.name.as_bytes());
                names.bytes(&[0]);
            }
        }
    });
}

fn fold_features(func: &PrimFunc, h: &mut Fnv) {
    for f in analyze(func) {
        h.u64(f.loops.len() as u64);
        for l in &f.loops {
            h.u64(l.min as u64);
            h.u64(l.extent as u64);
        }
        h.u64(f.raw_iterations.to_bits());
        h.u64(f.guard_selectivity.to_bits());
        h.u64(f.flops_per_iter.to_bits());
        h.u64(f.iterations().to_bits());
        h.u64(f.reads.len() as u64);
        for a in f.reads.iter().chain([&f.write]) {
            h.u64(a.buffer_numel as u64);
            h.u64(a.elem_bytes as u64);
            for &s in &a.strides {
                h.u64(s as u64);
            }
        }
    }
}

/// `stmt` with the loop `n` counts down to, in walk order, made parallel.
fn parallel_at(stmt: &Stmt, n: &mut usize) -> Stmt {
    match stmt {
        Stmt::For {
            var,
            min,
            extent,
            kind,
            body,
        } => {
            let kind = if *n == 0 { ForKind::Parallel } else { *kind };
            *n = n.wrapping_sub(1);
            Stmt::For {
                var: var.clone(),
                min: *min,
                extent: *extent,
                kind,
                body: Box::new(parallel_at(body, n)),
            }
        }
        Stmt::IfThenElse { cond, then, else_ } => Stmt::IfThenElse {
            cond: cond.clone(),
            then: Box::new(parallel_at(then, n)),
            else_: else_.as_ref().map(|e| Box::new(parallel_at(e, n))),
        },
        Stmt::Seq(items) => Stmt::Seq(items.iter().map(|s| parallel_at(s, n)).collect()),
        other => other.clone(),
    }
}

/// One pin line: what the analyses say about `funcs`.
fn line(name: &str, funcs: &[PrimFunc]) -> String {
    let mut by_code: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    let (mut text, mut features) = (Fnv::new(), Fnv::new());
    let (mut proven, mut proven_names) = (0, Fnv::new());
    let (mut proven_opt, mut proven_opt_names) = (0, Fnv::new());
    let (mut what_if, mut what_if_proven, mut what_if_text) = (0, 0, Fnv::new());
    for func in funcs {
        let mut loops = 0;
        func.body
            .walk(&mut |s| loops += matches!(s, Stmt::For { .. }) as usize);
        for mut n in 0..loops {
            let body = parallel_at(&func.body, &mut n);
            let func = PrimFunc {
                body,
                ..func.clone()
            };
            let mut found = Vec::new();
            check_parallel_deps(&func, &mut found);
            for d in &found {
                what_if_text.bytes(d.to_string().as_bytes());
                what_if_text.bytes(&[0]);
            }
            what_if += found.len();
            what_if_proven += race_free_parallel_vars(&func).len();
        }
        let report = check(func);
        let unwitnessed = oracle::unwitnessed_races(func, &report);
        assert!(unwitnessed.is_empty(), "{name}: {unwitnessed:?}");
        for d in report.diagnostics {
            *by_code.entry((d.code, d.severity.label())).or_default() += 1;
            text.bytes(d.to_string().as_bytes());
            text.bytes(&[0]);
        }
        proven_loops(func, &mut proven, &mut proven_names);
        match tvm_tir::optimize(func) {
            Ok(opt) => proven_loops(&opt, &mut proven_opt, &mut proven_opt_names),
            Err(_) => proven_opt_names.bytes(&[0xff]),
        }
        fold_features(func, &mut features);
    }
    let counts: Vec<String> = (by_code.iter())
        .map(|((code, sev), n)| format!("{code}/{sev}={n}"))
        .collect();
    format!(
        "{name} functions {} diag [{}] {:#018x} proven {proven} {:#018x} \
         proven_opt {proven_opt} {:#018x} features {:#018x} \
         what_if {what_if} {what_if_proven} {:#018x}\n",
        funcs.len(),
        counts.join(","),
        text.0,
        proven_names.0,
        proven_opt_names.0,
        features.0,
        what_if_text.0,
    )
}

#[test]
fn analyses_of_the_kernels_are_the_recorded_ones() {
    let mut got = String::new();
    for kernel in KernelName::all() {
        for (mode, size, draws) in CORPUS {
            let mold = mold_for_mode(kernel, size, mode);
            let mut rng = SmallRng::seed_from_u64(0x7E57);
            let funcs: Vec<PrimFunc> = (0..draws)
                .map(|_| mold.space().sample(&mut rng))
                .filter(|c| mold.prelint(c).iter().all(|d| d.severity != Severity::Deny))
                .map(|c| mold.instantiate(&c))
                .collect();
            got += &line(&format!("{kernel}.{mode:?}.{size}"), &funcs);
        }
    }
    pins::check("analysis", &got);
}
