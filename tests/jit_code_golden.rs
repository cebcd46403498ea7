//! The machine code the x86-64 JIT emits for the seven kernels, pinned.
//!
//! For each kernel at mini, over both space modes, a seeded sample of
//! admitted configurations (prelint clean, analyzer not rejecting) is
//! compiled with `compile_optimized` and jitted on the SSE2 and on the
//! scalar tier — the two tiers every x86-64 host emits alike. One line per
//! (kernel, mode, tier) holds the functions compiled, the functions
//! jitted, the bytes emitted and an FNV-1a fold of every function's
//! `jit_code()`: `tests/pins/jit_code.txt`. A planner or template refactor
//! that must not move machine code is held to it byte for byte; a change
//! that moves code on purpose re-records it (`tests/common/pins.rs`).
//!
//! The corpus is not vacuous: it holds chain-jammed loops (`jammed-chain`)
//! and register-tiled packed sites, which the axpy jam and the tiled
//! microkernels tally, on the SSE2 tier.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

mod common;

use common::pins;
use polybench::molds::mold_for_mode;
use polybench::{KernelName, ProblemSize, SpaceMode};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt::Write;
use std::sync::Arc;
use tvm_runtime::codegen::X86Backend;
use tvm_runtime::{compile_optimized, scalar_backend, CodegenBackend};
use tvm_tir::analyze::Severity;

/// Configurations drawn per kernel and mode, admitted or not.
const DRAWS: usize = 40;

fn fold(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn emitted_machine_code_is_the_recorded_one() {
    let tiers: [(&str, Arc<dyn CodegenBackend>); 2] = [
        ("sse2", Arc::new(X86Backend::sse2_only())),
        ("scalar", scalar_backend()),
    ];
    let (mut chains, mut tiled) = (0, 0);
    let mut got = String::new();
    for kernel in KernelName::all() {
        for mode in [SpaceMode::Paper, SpaceMode::Aggressive] {
            let mold = mold_for_mode(kernel, ProblemSize::Mini, mode);
            let mut rng = SmallRng::seed_from_u64(0x717);
            let admitted: Vec<_> = (0..DRAWS)
                .map(|_| mold.space().sample(&mut rng))
                .filter(|c| mold.prelint(c).iter().all(|d| d.severity != Severity::Deny))
                .map(|c| mold.instantiate(&c))
                .filter(|f| !tvm_tir::analyze::check(f).is_rejected())
                .map(|f| compile_optimized(&f).expect("optimized compile"))
                .collect();
            for (tier, backend) in &tiers {
                let (mut jitted, mut bytes) = (0, 0);
                let mut hash = 0xcbf2_9ce4_8422_2325u64;
                for cf in &admitted {
                    let Ok(native) = backend.jit_compile(cf) else {
                        fold(&mut hash, &[0xff]);
                        continue;
                    };
                    let code = native.jit_code();
                    fold(&mut hash, &(code.len() as u64).to_le_bytes());
                    fold(&mut hash, code);
                    jitted += 1;
                    bytes += code.len();
                    if *tier == "sse2" {
                        let report = native.jit_simd_report().expect("report");
                        chains += report
                            .scalar_reasons
                            .get("jammed-chain")
                            .copied()
                            .unwrap_or(0);
                        tiled += report.tiled_loops;
                    }
                }
                let n = admitted.len();
                writeln!(
                    got,
                    "{kernel}.{mode:?}.{tier} functions {n} jitted {jitted} bytes {bytes} fnv {hash:#018x}"
                )
                .unwrap();
            }
        }
    }
    assert!(
        chains > 0 && tiled > 0,
        "jammed-chain {chains}, tiled {tiled}"
    );
    pins::check("jit_code", &got);
}
