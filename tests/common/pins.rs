//! Recorded values, kept as data: `tests/pins/<name>.txt`, one
//! `key value` line each.
//!
//! [`check`] writes what a test observed to
//! `$CARGO_TARGET_TMPDIR/pins/<name>.txt` (`target/tmp/pins/`) and then
//! compares it with the pins file line by line. Re-recording on purpose
//! is `cargo test -q --no-fail-fast`, then
//! `cp target/tmp/pins/*.txt tests/pins/`; the diff of `tests/pins/` is
//! what moved.

use std::fs;
use std::path::Path;
use tvm_autotune::prelude::TuningResult;

/// Write `got` for re-recording, then fail unless it is the pins file
/// `name` exactly. A missing pins file fails too.
pub fn check(name: &str, got: &str) {
    let observed = Path::new(env!("CARGO_TARGET_TMPDIR")).join("pins");
    fs::create_dir_all(&observed).expect("create the observed-pins directory");
    fs::write(observed.join(format!("{name}.txt")), got).expect("write the observed pins");
    compare(name, &read(name), got);
}

/// The pins file `name`.
pub fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/pins")
        .join(format!("{name}.txt"));
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Fail on every changed, missing or extra line of `got` against `want`,
/// naming each by its line number.
pub fn compare(name: &str, want: &str, got: &str) {
    let (want, got): (Vec<_>, Vec<_>) = (want.lines().collect(), got.lines().collect());
    let differences: Vec<String> = (0..want.len().max(got.len()))
        .filter(|&i| want.get(i) != got.get(i))
        .map(|i| {
            let line = |l: Option<&&str>| l.map_or("nothing".to_string(), |l| format!("`{l}`"));
            format!(
                "  line {}: observed {}, wanted {}",
                i + 1,
                line(got.get(i)),
                line(want.get(i))
            )
        })
        .collect();
    assert!(
        differences.is_empty(),
        "tests/pins/{name}.txt: {} of {} lines differ\n{}",
        differences.len(),
        want.len().max(got.len()),
        differences.join("\n")
    );
}

/// One `<trial index> <config key> <runtime bits as 0x…|reject>` line
/// per trial.
pub fn trajectory(result: &TuningResult) -> String {
    result
        .trials
        .iter()
        .map(|t| {
            let runtime = t
                .runtime_s
                .map_or("reject".to_string(), |r| format!("{:#018x}", r.to_bits()));
            format!("{} {} {runtime}\n", t.index, t.config.key())
        })
        .collect()
}
