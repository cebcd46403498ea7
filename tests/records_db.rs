//! Integration: persistence of tuning results (AutoTVM-style JSON-lines
//! records and the ytopt-style performance database) round-tripped
//! through real tuning runs.

use tvm_autotune::autotvm::record::{load, pick_best, save, TuningRecord};
use tvm_autotune::bo::PerformanceDatabase;
use tvm_autotune::prelude::*;

fn tmpdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tvm-autotune-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn autotvm_records_roundtrip_real_run() {
    let mold = mold_for(KernelName::Cholesky, ProblemSize::Large);
    let ev = MoldEvaluator::simulated(mold, SimDevice::new(GpuSpec::swing_cpu_core()));
    let workload = ev.workload();
    let mut tuner = YtoptTuner::new(ev.space().clone(), 9);
    let res = tune(
        &mut tuner,
        &ev,
        TuneOptions {
            max_evals: 12,
            batch: 1,
            max_process_s: None,
        },
    );

    let recs = TuningRecord::from_result(&workload, &res);
    assert_eq!(recs.len(), 12);

    let path = tmpdir().join("records.jsonl");
    let _ = std::fs::remove_file(&path);
    save(&path, &recs).expect("save");
    let back = load(&path).expect("load");
    assert_eq!(back, recs);

    let best = pick_best(&back, &workload).expect("best");
    assert_eq!(
        best.runtime_s,
        res.best().expect("ran").runtime_s,
        "picked best must agree with the in-memory result"
    );
    // The best configuration must still be valid in the space.
    assert!(ev.space().validate(&best.config));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn performance_database_roundtrip_real_run() {
    let mold = mold_for(KernelName::Lu, ProblemSize::Large);
    let ev = MoldEvaluator::simulated(mold, SimDevice::new(GpuSpec::swing_cpu_core()));
    let res = tune(
        &mut YtoptTuner::new(ev.space().clone(), 0),
        &ev,
        TuneOptions {
            max_evals: 10,
            batch: 1,
            max_process_s: None,
        },
    );
    let db = res.to_database("lu-large");
    assert_eq!(db.len(), 10);

    let dir = tmpdir();
    let jpath = dir.join("db.json");
    let cpath = dir.join("results.csv");
    db.save_json(&jpath).expect("json");
    db.save_csv(&cpath).expect("csv");

    let back = PerformanceDatabase::load_json(&jpath).expect("load");
    assert_eq!(back.records, db.records);
    assert_eq!(
        back.best().expect("best").runtime_s,
        db.best().expect("best").runtime_s
    );

    let csv = std::fs::read_to_string(&cpath).expect("read csv");
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 11, "header + 10 rows");
    assert!(lines[0].starts_with("P0,P1,objective"));
    let _ = std::fs::remove_file(&jpath);
    let _ = std::fs::remove_file(&cpath);
}
