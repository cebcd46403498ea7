//! Golden trajectories of the BO search on its *sampled* path.
//!
//! `tests/bo_golden.rs` pins lu-large, a 400-point space the optimizer
//! ranks exhaustively. 3mm-extralarge has 228 614 400 points, so every
//! model-based ask there draws 1 024 distinct samples plus 64 neighbours
//! of the incumbent, and about a third of its trials are static rejects
//! that `tell` turns into penalties: the RNG draw order, the dedupe
//! decisions, the penalty scale, the constant-liar batch and the
//! first-minimum tie-break all show in which configuration comes next.
//!
//! Recorded at commit d93c262 (the parent of the encoded-space ask), the
//! way `bo_golden`'s were: a throw-away test there ran
//! `tune` / `tune_parallel` over `YtoptTuner::new(space, 9)` on
//! `MoldEvaluator::simulated(3mm-extralarge, swing_cpu_core())` for 40
//! trials (`batch` 1 and 4) and printed (configuration key, runtime `f64`
//! bits or `None` for a reject), linked against the `rand` stand-in of
//! `benchmark/standins/` like every offline build of this repository.

use tvm_autotune::prelude::*;

const SEQUENTIAL: [(&str, Option<u64>); 40] = [
    (
        "P0=250;P1=400;P2=100;P3=80;P4=15;P5=20;",
        Some(0x40362852abc6c3ca),
    ),
    ("P0=80;P1=800;P2=15;P3=80;P4=40;P5=200;", None),
    (
        "P0=20;P1=10;P2=2400;P3=50;P4=96;P5=64;",
        Some(0x4037c6d528333b94),
    ),
    ("P0=200;P1=1600;P2=480;P3=10;P4=24;P5=100;", None),
    (
        "P0=400;P1=40;P2=200;P3=2;P4=75;P5=80;",
        Some(0x405208ee3363d720),
    ),
    (
        "P0=250;P1=200;P2=15;P3=1;P4=60;P5=2;",
        Some(0x405e0255a10ee338),
    ),
    ("P0=5;P1=32;P2=48;P3=100;P4=300;P5=400;", None),
    (
        "P0=250;P1=20;P2=80;P3=16;P4=2;P5=2;",
        Some(0x404e97ec0a456781),
    ),
    ("P0=10;P1=800;P2=100;P3=200;P4=800;P5=4;", None),
    (
        "P0=1000;P1=2;P2=150;P3=500;P4=15;P5=160;",
        Some(0x404a7bc385cf121f),
    ),
    ("P0=25;P1=32;P2=2400;P3=200;P4=5;P5=2;", None),
    (
        "P0=2000;P1=4;P2=8;P3=80;P4=3;P5=20;",
        Some(0x4041883bdff51961),
    ),
    ("P0=25;P1=320;P2=2400;P3=40;P4=20;P5=25;", None),
    (
        "P0=125;P1=160;P2=2400;P3=1;P4=60;P5=25;",
        Some(0x405422907c66d0ed),
    ),
    (
        "P0=50;P1=40;P2=2400;P3=20;P4=80;P5=20;",
        Some(0x40389d18d951f53d),
    ),
    ("P0=40;P1=320;P2=50;P3=125;P4=30;P5=800;", None),
    (
        "P0=80;P1=100;P2=100;P3=4;P4=32;P5=800;",
        Some(0x4044d64e6198240e),
    ),
    (
        "P0=4;P1=10;P2=60;P3=5;P4=480;P5=1600;",
        Some(0x4042a12bed64183e),
    ),
    (
        "P0=1000;P1=80;P2=32;P3=2000;P4=480;P5=1600;",
        Some(0x40345be6a9e1f7d1),
    ),
    ("P0=500;P1=10;P2=3;P3=125;P4=10;P5=1600;", None),
    (
        "P0=2000;P1=4;P2=5;P3=20;P4=96;P5=2;",
        Some(0x40527d2e93ea90cb),
    ),
    (
        "P0=2000;P1=80;P2=1;P3=10;P4=150;P5=8;",
        Some(0x403d7d42fb9aa925),
    ),
    (
        "P0=2000;P1=5;P2=3;P3=20;P4=15;P5=16;",
        Some(0x4041591485cad88d),
    ),
    (
        "P0=500;P1=400;P2=3;P3=5;P4=1;P5=160;",
        Some(0x4041cfcdb74db4d2),
    ),
    (
        "P0=400;P1=5;P2=6;P3=1000;P4=8;P5=800;",
        Some(0x403b5f42f51331e2),
    ),
    ("P0=80;P1=8;P2=400;P3=125;P4=10;P5=1600;", None),
    (
        "P0=125;P1=1;P2=300;P3=1;P4=2;P5=400;",
        Some(0x405b944cb92e6da8),
    ),
    ("P0=200;P1=5;P2=75;P3=20;P4=1;P5=1600;", None),
    (
        "P0=200;P1=5;P2=3;P3=2;P4=1;P5=160;",
        Some(0x405398152dd23b9f),
    ),
    ("P0=2;P1=800;P2=240;P3=25;P4=1;P5=2;", None),
    (
        "P0=1;P1=5;P2=6;P3=1;P4=200;P5=32;",
        Some(0x40585409b6215932),
    ),
    (
        "P0=2;P1=100;P2=2400;P3=16;P4=3;P5=5;",
        Some(0x4041c14d22578ff2),
    ),
    ("P0=2;P1=1600;P2=400;P3=40;P4=20;P5=1;", None),
    (
        "P0=100;P1=50;P2=800;P3=500;P4=20;P5=1;",
        Some(0x40503d73bf9782b0),
    ),
    (
        "P0=50;P1=40;P2=2400;P3=4;P4=300;P5=1;",
        Some(0x4055fcf6a24ff83f),
    ),
    (
        "P0=250;P1=1600;P2=1;P3=4;P4=40;P5=1;",
        Some(0x4054ddf5d8ac0446),
    ),
    ("P0=5;P1=800;P2=30;P3=100;P4=75;P5=1;", None),
    ("P0=8;P1=1600;P2=8;P3=2000;P4=40;P5=32;", None),
    ("P0=8;P1=1600;P2=5;P3=16;P4=2400;P5=8;", None),
    (
        "P0=5;P1=400;P2=400;P3=20;P4=2400;P5=8;",
        Some(0x403cce2542ed3e06),
    ),
];
const PARALLEL_BATCH_4: [(&str, Option<u64>); 40] = [
    (
        "P0=250;P1=400;P2=100;P3=80;P4=15;P5=20;",
        Some(0x40362852abc6c3ca),
    ),
    ("P0=80;P1=800;P2=15;P3=80;P4=40;P5=200;", None),
    (
        "P0=20;P1=10;P2=2400;P3=50;P4=96;P5=64;",
        Some(0x4037c6d528333b94),
    ),
    ("P0=200;P1=1600;P2=480;P3=10;P4=24;P5=100;", None),
    (
        "P0=400;P1=40;P2=200;P3=2;P4=75;P5=80;",
        Some(0x405208ee3363d720),
    ),
    (
        "P0=250;P1=200;P2=15;P3=1;P4=60;P5=2;",
        Some(0x405e0255a10ee338),
    ),
    ("P0=5;P1=32;P2=48;P3=100;P4=300;P5=400;", None),
    (
        "P0=250;P1=20;P2=80;P3=16;P4=2;P5=2;",
        Some(0x404e97ec0a456781),
    ),
    ("P0=10;P1=800;P2=100;P3=200;P4=800;P5=4;", None),
    (
        "P0=1000;P1=2;P2=150;P3=500;P4=15;P5=160;",
        Some(0x404a7bc385cf121f),
    ),
    ("P0=100;P1=320;P2=60;P3=250;P4=480;P5=25;", None),
    (
        "P0=8;P1=20;P2=120;P3=100;P4=300;P5=10;",
        Some(0x4039baf9b147183a),
    ),
    (
        "P0=10;P1=10;P2=15;P3=2;P4=480;P5=160;",
        Some(0x4052e6f90d8b57db),
    ),
    ("P0=200;P1=160;P2=24;P3=250;P4=40;P5=25;", None),
    ("P0=80;P1=5;P2=8;P3=500;P4=120;P5=8;", None),
    (
        "P0=500;P1=100;P2=60;P3=400;P4=480;P5=1600;",
        Some(0x4033ecba4e284874),
    ),
    (
        "P0=2;P1=8;P2=4;P3=16;P4=800;P5=160;",
        Some(0x403a3e270dc4377f),
    ),
    (
        "P0=2;P1=4;P2=480;P3=500;P4=800;P5=5;",
        Some(0x404526800d9a0012),
    ),
    (
        "P0=20;P1=10;P2=6;P3=125;P4=480;P5=80;",
        Some(0x403796da7cbaac6a),
    ),
    (
        "P0=1;P1=5;P2=6;P3=4;P4=150;P5=200;",
        Some(0x4049400767cfffbd),
    ),
    ("P0=100;P1=1;P2=1;P3=500;P4=100;P5=400;", None),
    (
        "P0=25;P1=4;P2=8;P3=25;P4=480;P5=16;",
        Some(0x4041dba013db7ce5),
    ),
    ("P0=20;P1=5;P2=5;P3=500;P4=100;P5=800;", None),
    ("P0=500;P1=8;P2=4;P3=125;P4=200;P5=4;", None),
    (
        "P0=500;P1=320;P2=1200;P3=250;P4=24;P5=2;",
        Some(0x404c6baeaa190502),
    ),
    (
        "P0=50;P1=10;P2=3;P3=5;P4=480;P5=1;",
        Some(0x4054c0c528f747d3),
    ),
    (
        "P0=500;P1=20;P2=2400;P3=40;P4=96;P5=4;",
        Some(0x40439bd72e35ebad),
    ),
    (
        "P0=1000;P1=8;P2=60;P3=80;P4=80;P5=4;",
        Some(0x4043c64a7181fe30),
    ),
    (
        "P0=1000;P1=5;P2=3;P3=2000;P4=240;P5=320;",
        Some(0x403d41bd600f1b54),
    ),
    (
        "P0=250;P1=10;P2=4;P3=20;P4=160;P5=2;",
        Some(0x404f12cc7e8eca7b),
    ),
    ("P0=1000;P1=64;P2=1;P3=125;P4=40;P5=16;", None),
    ("P0=500;P1=400;P2=4;P3=125;P4=480;P5=8;", None),
    (
        "P0=2000;P1=1600;P2=160;P3=5;P4=800;P5=5;",
        Some(0x4046ed90e8041f20),
    ),
    ("P0=250;P1=80;P2=4;P3=2000;P4=400;P5=10;", None),
    ("P0=8;P1=320;P2=4;P3=1000;P4=800;P5=400;", None),
    (
        "P0=2000;P1=1600;P2=600;P3=500;P4=2400;P5=5;",
        Some(0x4040ca4574df6515),
    ),
    ("P0=4;P1=800;P2=60;P3=1;P4=800;P5=400;", None),
    (
        "P0=50;P1=200;P2=480;P3=1000;P4=80;P5=800;",
        Some(0x4032f71403e295e1),
    ),
    ("P0=8;P1=2;P2=5;P3=2000;P4=800;P5=50;", None),
    ("P0=2;P1=2;P2=10;P3=1000;P4=10;P5=800;", None),
];

fn evaluator() -> MoldEvaluator {
    MoldEvaluator::simulated(
        mold_for(KernelName::Mm3, ProblemSize::ExtraLarge),
        SimDevice::new(GpuSpec::swing_cpu_core()),
    )
}

fn assert_follows(label: &str, result: &TuningResult, golden: &[(&str, Option<u64>)]) {
    assert_eq!(result.len(), golden.len(), "{label}");
    for (trial, (key, bits)) in result.trials.iter().zip(golden) {
        assert_eq!(
            (
                trial.config.key().as_str(),
                trial.runtime_s.map(f64::to_bits)
            ),
            (*key, *bits),
            "{label}, trial {}",
            trial.index,
        );
    }
}

#[test]
fn tune_follows_the_recorded_sampled_run() {
    let ev = evaluator();
    let opts = TuneOptions {
        max_evals: 40,
        batch: 1,
        max_process_s: None,
    };
    let result = tune(&mut YtoptTuner::new(ev.space().clone(), 9), &ev, opts);
    assert_follows("tune, batch 1", &result, &SEQUENTIAL);
}

#[test]
fn tune_parallel_follows_the_recorded_constant_liar_run() {
    let ev = evaluator();
    let opts = TuneOptions {
        max_evals: 40,
        batch: 4,
        max_process_s: None,
    };
    let result = tune_parallel(&mut YtoptTuner::new(ev.space().clone(), 9), &ev, opts);
    assert_follows("tune_parallel, batch 4", &result, &PARALLEL_BATCH_4);
}
