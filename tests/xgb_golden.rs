//! Golden trajectories of the AutoTVM-XGB tuner on both proposal paths.
//!
//! 3mm-mini (57 600 points, the `service-mixed` tenant's space) is under the
//! grid limit, so every model-based refill ranks the whole grid; the runs of
//! neighbouring configurations below are tied predictions kept in grid
//! order. 2mm-extralarge (571 536 points) anneals instead; its second refill
//! finds nothing predicted within 5 % of the best, so the tuner stops at 27.
//!
//! Recorded at the parent of the encoded-space proposer: `tune_parallel` over
//! `XgbTuner::new(space, 9)` on `SimDevice::new(GpuSpec::a100())`, 40
//! evaluations in batches of 4, printed as (configuration key, runtime
//! `f64` bits or `None` for a reject).

use tvm_autotune::prelude::*;

#[rustfmt::skip]
const GRID_3MM_MINI: [(&str, Option<u64>); 40] = [
    ("P0=5;P1=8;P2=24;P3=2;P4=2;P5=8;", Some(0x3f104ce2beb7b207)),
    ("P0=5;P1=2;P2=2;P3=5;P4=6;P5=8;", None),
    ("P0=20;P1=1;P2=4;P3=10;P4=12;P5=1;", None),
    ("P0=10;P1=16;P2=4;P3=20;P4=1;P5=4;", None),
    ("P0=1;P1=16;P2=4;P3=20;P4=6;P5=16;", None),
    ("P0=2;P1=8;P2=8;P3=10;P4=24;P5=1;", None),
    ("P0=5;P1=2;P2=2;P3=1;P4=8;P5=1;", Some(0x3f106aeccb1dcef0)),
    ("P0=20;P1=4;P2=8;P3=10;P4=2;P5=8;", Some(0x3f108a9e7eae4219)),
    ("P0=5;P1=1;P2=4;P3=1;P4=2;P5=1;", Some(0x3f107e5981e3f12a)),
    ("P0=10;P1=16;P2=2;P3=5;P4=8;P5=2;", None),
    ("P0=20;P1=4;P2=8;P3=2;P4=2;P5=1;", Some(0x3f105c593bbd3744)),
    ("P0=10;P1=4;P2=3;P3=20;P4=8;P5=1;", Some(0x3f1076bf823102f8)),
    ("P0=4;P1=16;P2=4;P3=1;P4=24;P5=1;", None),
    ("P0=4;P1=8;P2=12;P3=5;P4=3;P5=4;", None),
    ("P0=2;P1=4;P2=3;P3=20;P4=1;P5=16;", None),
    ("P0=10;P1=8;P2=8;P3=20;P4=12;P5=1;", Some(0x3f10297b18239b63)),
    ("P0=5;P1=8;P2=1;P3=1;P4=12;P5=1;", Some(0x3f10193f0167a5a6)),
    ("P0=5;P1=8;P2=1;P3=1;P4=24;P5=1;", Some(0x3f10730a1f0c71a8)),
    ("P0=5;P1=8;P2=1;P3=2;P4=12;P5=1;", Some(0x3f10903b73d217c7)),
    ("P0=5;P1=8;P2=1;P3=2;P4=24;P5=1;", Some(0x3f107c64d2b33165)),
    ("P0=5;P1=8;P2=1;P3=4;P4=12;P5=1;", Some(0x3f109334c96fe865)),
    ("P0=5;P1=8;P2=1;P3=4;P4=24;P5=1;", Some(0x3f103aae0a343565)),
    ("P0=5;P1=8;P2=2;P3=1;P4=12;P5=1;", Some(0x3f10497ce5b7b21f)),
    ("P0=5;P1=8;P2=2;P3=1;P4=24;P5=1;", Some(0x3f108a58c9cbe556)),
    ("P0=5;P1=8;P2=2;P3=2;P4=12;P5=1;", Some(0x3f10352e4dcfcf47)),
    ("P0=5;P1=8;P2=2;P3=2;P4=24;P5=1;", Some(0x3f1053813456a886)),
    ("P0=5;P1=8;P2=2;P3=4;P4=12;P5=1;", Some(0x3f1054d5562ec4dd)),
    ("P0=5;P1=8;P2=2;P3=4;P4=24;P5=1;", Some(0x3f1011bc06df19a7)),
    ("P0=5;P1=8;P2=3;P3=1;P4=12;P5=1;", Some(0x3f100dc564895ab3)),
    ("P0=5;P1=8;P2=3;P3=1;P4=24;P5=1;", Some(0x3f1095f3faff980d)),
    ("P0=5;P1=8;P2=3;P3=2;P4=12;P5=1;", Some(0x3f103979a931d233)),
    ("P0=5;P1=8;P2=3;P3=2;P4=24;P5=1;", Some(0x3f1039aefb1168b0)),
    ("P0=10;P1=4;P2=24;P3=20;P4=24;P5=1;", Some(0x3f0ff30d6018ba13)),
    ("P0=10;P1=4;P2=8;P3=20;P4=24;P5=1;", Some(0x3f1059c8abb195a6)),
    ("P0=10;P1=4;P2=12;P3=20;P4=24;P5=1;", Some(0x3f101337b7a08838)),
    ("P0=10;P1=4;P2=24;P3=20;P4=2;P5=1;", Some(0x3f10252547c09791)),
    ("P0=10;P1=4;P2=24;P3=20;P4=8;P5=1;", Some(0x3f102ba83901b205)),
    ("P0=10;P1=4;P2=24;P3=20;P4=12;P5=1;", Some(0x3f100accdb537661)),
    ("P0=10;P1=4;P2=24;P3=20;P4=3;P5=1;", Some(0x3f1058256a12eea6)),
    ("P0=10;P1=4;P2=24;P3=20;P4=4;P5=1;", Some(0x3f1070849c5e296e)),
];
#[rustfmt::skip]
const ANNEAL_2MM_EXTRALARGE: [(&str, Option<u64>); 27] = [
    ("P0=64;P1=100;P2=4;P3=60;", Some(0x3fbfcf2b13c0789a)),
    ("P0=400;P1=900;P2=400;P3=25;", Some(0x3ff1cb3da7fffd5c)),
    ("P0=5;P1=180;P2=20;P3=40;", Some(0x3fb32fea995d4bd4)),
    ("P0=10;P1=6;P2=320;P3=1200;", Some(0x3fe08cfc639375e6)),
    ("P0=200;P1=20;P2=800;P3=20;", Some(0x3ff55c34d292b53a)),
    ("P0=8;P1=225;P2=64;P3=12;", Some(0x3fb631dce38b0160)),
    ("P0=64;P1=24;P2=5;P3=6;", Some(0x3fef07bf5169f81d)),
    ("P0=25;P1=5;P2=800;P3=5;", Some(0x4016304f66143786)),
    ("P0=32;P1=5;P2=20;P3=25;", Some(0x3fd30120e12ba4a7)),
    ("P0=64;P1=72;P2=50;P3=120;", Some(0x3f938c85c591f906)),
    ("P0=25;P1=72;P2=1600;P3=10;", Some(0x4005a84fe4ea0eaa)),
    ("P0=400;P1=75;P2=800;P3=16;", Some(0x400005a0ab9ca2c1)),
    ("P0=32;P1=24;P2=320;P3=400;", Some(0x3fc1e4a9d74f0236)),
    ("P0=1;P1=60;P2=80;P3=16;", Some(0x3fdcf90d6d4bc762)),
    ("P0=8;P1=72;P2=64;P3=8;", Some(0x3fc4157ec63d05b2)),
    ("P0=320;P1=25;P2=200;P3=150;", Some(0x3ff25e8c52f90195)),
    ("P0=64;P1=900;P2=80;P3=480;", Some(0x3fc12ac562e04154)),
    ("P0=40;P1=360;P2=160;P3=600;", Some(0x3fc44c7230f7de33)),
    ("P0=1;P1=360;P2=64;P3=600;", Some(0x3fc2e66fe5455d4f)),
    ("P0=100;P1=225;P2=64;P3=600;", Some(0x3fc93ca6d828996e)),
    ("P0=8;P1=1800;P2=2;P3=400;", Some(0x3fb476e8d60792a3)),
    ("P0=1;P1=75;P2=50;P3=96;", Some(0x3fd591118b092155)),
    ("P0=25;P1=900;P2=40;P3=150;", Some(0x3faf24a3da3fed76)),
    ("P0=80;P1=72;P2=32;P3=200;", Some(0x3f915fc1ca9243e8)),
    ("P0=50;P1=72;P2=5;P3=120;", Some(0x3fb00c06c6fab66b)),
    ("P0=50;P1=72;P2=40;P3=300;", Some(0x3fc03cf5f44e8c6f)),
    ("P0=32;P1=360;P2=320;P3=480;", Some(0x3fc5a9da28d47516)),
];

fn assert_follows(kernel: KernelName, size: ProblemSize, golden: &[(&str, Option<u64>)]) {
    let ev = MoldEvaluator::simulated(mold_for(kernel, size), SimDevice::new(GpuSpec::a100()));
    let opts = TuneOptions {
        max_evals: 40,
        batch: 4,
        max_process_s: None,
    };
    let result = tune_parallel(&mut XgbTuner::new(ev.space().clone(), 9), &ev, opts);
    let label = format!("{kernel}-{size}");
    assert_eq!(result.len(), golden.len(), "{label}");
    for (trial, (key, bits)) in result.trials.iter().zip(golden) {
        let got = (trial.config.key(), trial.runtime_s.map(f64::to_bits));
        assert_eq!(
            got,
            (key.to_string(), *bits),
            "{label}, trial {}",
            trial.index
        );
    }
}

#[test]
fn the_grid_path_follows_the_recorded_run() {
    assert_follows(KernelName::Mm3, ProblemSize::Mini, &GRID_3MM_MINI);
}

#[test]
fn the_anneal_path_follows_the_recorded_run() {
    assert_follows(
        KernelName::Mm2,
        ProblemSize::ExtraLarge,
        &ANNEAL_2MM_EXTRALARGE,
    );
}
