//! Crash-consistent trial journal: an append-only JSONL log shared by the
//! trial loop (`autotvm::driver`) and the tuning service.
//!
//! **The durability contract: written after each trial, durable before
//! the tuner is told.** Every completed evaluation is serialized as one
//! JSON line and handed to the file the moment it is measured
//! ([`TrialJournal::stage`]); the file is `fdatasync`'d once per wave —
//! the proposals between one `next_batch` and the `update` that answers
//! it — immediately before that `update` ([`TrialJournal::commit`]). A
//! process crash (`kill -9`, worker panic) therefore loses at most the
//! trial in flight: the staged lines are in the page cache. A machine
//! crash loses at most the wave in flight; the tuner has been told
//! nothing about that wave, so resume proposes the same configurations
//! and re-measures the lost suffix, exactly as it does for an in-flight
//! trial. A caller who wants per-trial durability asks for batches of
//! one, or uses [`TrialJournal::append`] (`stage` + `commit`).
//!
//! [`TrialJournal::load`] tolerates a torn final line — the signature of
//! a crash mid-write — by dropping it; corruption anywhere *before* the
//! tail is a hard error, because it means the file was edited, not
//! interrupted.
//!
//! Resume works by *replaying the tape*: the driver runs its normal
//! propose loop, and as long as journal records remain, each
//! proposal is satisfied from the journal instead of being evaluated
//! (after verifying the proposed configuration matches the recorded
//! one). Because every tuner is a deterministic function of (seed,
//! history), the continued run's remaining trajectory is identical to an
//! uninterrupted run's.

use crate::fault::MeasureError;
use configspace::Configuration;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// One journaled trial — a row of the paper's performance database:
/// failures keep their error class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialRecord {
    /// 0-based evaluation index within the run.
    pub index: usize,
    /// The evaluated configuration.
    pub config: Configuration,
    /// Measured runtime, seconds (`None` on failure).
    pub runtime_s: Option<f64>,
    /// Failure class, if the trial failed.
    #[serde(default)]
    pub error: Option<MeasureError>,
    /// Process time this evaluation consumed (including harness retries
    /// and timeout charges).
    pub eval_process_s: f64,
    /// Cumulative process time when the trial finished.
    pub elapsed_s: f64,
    /// Fingerprint of the compile/optimization pipeline that produced
    /// this measurement (`None` for compiler-independent evaluators, and
    /// for journals written before the field existed). Resume refuses to
    /// replay a record whose fingerprint differs from the current one.
    #[serde(default)]
    pub pipeline: Option<String>,
}

/// An open, append-only journal file.
pub struct TrialJournal {
    file: File,
    written: usize,
    /// Syncs issued through this handle.
    syncs: usize,
    /// Staged records are waiting for a sync.
    dirty: bool,
    /// Serialization buffer, reused across records.
    line: Vec<u8>,
}

/// Serialize `record` as one JSON line into `buf` and hand it to `file`
/// in a single write.
fn write_line(file: &mut File, buf: &mut Vec<u8>, record: &TrialRecord) -> std::io::Result<()> {
    buf.clear();
    serde_json::to_writer(&mut *buf, record)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    buf.push(b'\n');
    file.write_all(buf)
}

/// Replace the file at `path` crash-safely: `write` fills a fresh temp
/// file beside it (`path` + `.tmp`), which is synced, renamed over
/// `path`, and made durable by a sync of the parent directory. A crash
/// at any point leaves the old file or the complete new one under
/// `path`, never a torn one.
pub fn replace_durable(
    path: &Path,
    write: impl FnOnce(&mut File) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = File::create(&tmp)?;
    write(&mut file)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(())
}

/// Best-effort fsync of `path`'s parent directory, making renames and
/// file creations durable (POSIX requires the directory sync; platforms
/// that cannot open a directory just skip it).
fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
}

impl TrialJournal {
    /// Start a fresh journal at `path`, truncating any existing file.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<TrialJournal> {
        let path = path.as_ref();
        let file = File::create(path)?;
        // The records' own syncs do not cover the directory entry: without
        // this a machine crash can keep the trials and lose the file.
        sync_parent_dir(path);
        Ok(TrialJournal::over(file))
    }

    /// A handle over an open journal file.
    fn over(file: File) -> TrialJournal {
        TrialJournal {
            file,
            written: 0,
            syncs: 0,
            dirty: false,
            line: Vec::new(),
        }
    }

    /// Open `path` for appending, first loading every intact record
    /// already present (empty when the file does not exist yet).
    ///
    /// An intact journal is opened in append mode untouched. Only when a
    /// torn tail (crash mid-write) is detected is the intact prefix
    /// rewritten, through [`replace_durable`], so already-durable trials
    /// can never be lost to a crash during the repair itself.
    pub fn open_resume(
        path: impl AsRef<Path>,
    ) -> std::io::Result<(TrialJournal, Vec<TrialRecord>)> {
        let path = path.as_ref();
        let (existing, torn_tail) = TrialJournal::load_file_with_tail(path)?;
        if torn_tail {
            replace_durable(path, |file| {
                let mut buf = Vec::new();
                existing
                    .iter()
                    .try_for_each(|rec| write_line(file, &mut buf, rec))
            })?;
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok((TrialJournal::over(file), existing))
    }

    /// Write one record to the file without syncing it: when this
    /// returns `Ok` the trial survives a crash of the process, and the
    /// next [`TrialJournal::commit`] makes it survive a crash of the
    /// machine.
    pub fn stage(&mut self, record: &TrialRecord) -> std::io::Result<()> {
        write_line(&mut self.file, &mut self.line, record)?;
        self.dirty = true;
        self.written += 1;
        Ok(())
    }

    /// Make every staged record durable: one `fdatasync` if anything was
    /// staged since the last sync, no syscall otherwise.
    pub fn commit(&mut self) -> std::io::Result<()> {
        if self.dirty {
            self.file.sync_data()?;
            self.syncs += 1;
            self.dirty = false;
        }
        Ok(())
    }

    /// Append one record durably: [`TrialJournal::stage`] +
    /// [`TrialJournal::commit`]. When this returns `Ok`, the trial
    /// survives a machine crash.
    pub fn append(&mut self, record: &TrialRecord) -> std::io::Result<()> {
        self.stage(record)?;
        self.commit()
    }

    /// Records written through this handle (staged or appended).
    pub fn written(&self) -> usize {
        self.written
    }

    /// Syncs issued through this handle: one per [`TrialJournal::commit`]
    /// that had something to sync.
    pub fn syncs(&self) -> usize {
        self.syncs
    }

    /// Load every intact record from `path`. A missing file is an empty
    /// journal; a malformed *final* line (torn write) is dropped;
    /// malformed earlier lines are an error.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Vec<TrialRecord>> {
        Ok(TrialJournal::load_file_with_tail(path)?.0)
    }

    /// Load one journal file, reporting whether its tail is torn: a
    /// malformed final line (dropped), or an intact final record (kept)
    /// that was cut before its newline and would fuse with the next
    /// write.
    fn load_file_with_tail(path: impl AsRef<Path>) -> std::io::Result<(Vec<TrialRecord>, bool)> {
        let path = path.as_ref();
        if !path.exists() {
            return Ok((Vec::new(), false));
        }
        let text = std::fs::read_to_string(path)?;
        let lines: Vec<&str> = text.lines().collect();
        let mut out = Vec::with_capacity(lines.len());
        for (i, line) in lines.iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<TrialRecord>(line) {
                Ok(rec) => out.push(rec),
                Err(e) => {
                    let tail_is_blank = lines[i + 1..].iter().all(|l| l.trim().is_empty());
                    if tail_is_blank {
                        // Torn final line: the crash we are designed for.
                        return Ok((out, true));
                    }
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("journal {path:?} corrupt at line {}: {e}", i + 1),
                    ));
                }
            }
        }
        Ok((out, !text.is_empty() && !text.ends_with('\n')))
    }
}

impl Drop for TrialJournal {
    /// A forgotten `commit` degrades to a late sync, never to silent loss.
    fn drop(&mut self) {
        if self.dirty {
            let _ = self.file.sync_data();
        }
    }
}

/// Error for a resume whose journal was written by a different
/// compile/optimization pipeline than the one now running: replaying
/// those costs would silently mix measurements from two engines.
pub fn pipeline_mismatch_error(
    index: usize,
    recorded: &Option<String>,
    current: &Option<String>,
) -> std::io::Error {
    let show = |p: &Option<String>| p.clone().unwrap_or_else(|| "<none>".into());
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!(
            "journal record {index} was measured under pipeline {}, but the current engine is {} \
             (stale costs are not replayable; delete the journal or rerun under the original \
             pipeline)",
            show(recorded),
            show(current)
        ),
    )
}

/// Error for a resume whose journal disagrees with the tuner's proposals
/// (different seed, options, or evaluator than the original run).
pub fn divergence_error(index: usize, expected: &str, proposed: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!(
            "journal diverges at trial {index}: journal has {expected}, tuner proposed {proposed} \
             (resume requires the same seed, options and evaluator as the original run)"
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use configspace::ParamValue;

    fn rec(i: usize, rt: Option<f64>, err: Option<MeasureError>) -> TrialRecord {
        TrialRecord {
            index: i,
            config: Configuration::new(vec!["P0".into()], vec![ParamValue::Int(i as i64 + 1)]),
            runtime_s: rt,
            error: err,
            eval_process_s: 0.5,
            elapsed_s: i as f64,
            pipeline: Some("vm/test".into()),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ytopt-bo-journal-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    #[test]
    fn append_load_roundtrip() {
        let path = tmp("roundtrip.jsonl");
        let mut j = TrialJournal::create(&path).expect("create");
        let a = rec(0, Some(1.5), None);
        let b = rec(1, None, Some(MeasureError::Transient("net".into())));
        j.append(&a).expect("append");
        j.append(&b).expect("append");
        assert_eq!(j.written(), 2);
        let back = TrialJournal::load(&path).expect("load");
        assert_eq!(back, vec![a, b]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_empty() {
        let path = tmp("does-not-exist.jsonl");
        let _ = std::fs::remove_file(&path);
        assert!(TrialJournal::load(&path).expect("load").is_empty());
    }

    #[test]
    fn torn_tail_is_dropped() {
        let path = tmp("torn.jsonl");
        let mut j = TrialJournal::create(&path).expect("create");
        let a = rec(0, Some(1.0), None);
        j.append(&a).expect("append");
        drop(j);
        // Simulate a crash mid-append: half a JSON object, no newline.
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        write!(f, "{{\"index\":1,\"conf").expect("write");
        drop(f);
        let back = TrialJournal::load(&path).expect("load tolerates torn tail");
        assert_eq!(back, vec![a.clone()]);
        // Resuming rewrites the intact prefix only.
        let (j2, loaded) = TrialJournal::open_resume(&path).expect("resume");
        drop(j2);
        assert_eq!(loaded, vec![a.clone()]);
        assert_eq!(TrialJournal::load(&path).expect("reload"), vec![a]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mid_file_corruption_is_an_error() {
        let path = tmp("corrupt.jsonl");
        let mut j = TrialJournal::create(&path).expect("create");
        j.append(&rec(0, Some(1.0), None)).expect("append");
        j.append(&rec(1, Some(2.0), None)).expect("append");
        drop(j);
        let text = std::fs::read_to_string(&path).expect("read");
        let mangled = text.replacen("\"index\":0", "\"index\":garbage", 1);
        std::fs::write(&path, mangled).expect("write");
        assert!(TrialJournal::load(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn create_truncates() {
        let path = tmp("truncate.jsonl");
        let mut j = TrialJournal::create(&path).expect("create");
        j.append(&rec(0, Some(1.0), None)).expect("append");
        drop(j);
        let j2 = TrialJournal::create(&path).expect("recreate");
        drop(j2);
        assert!(TrialJournal::load(&path).expect("load").is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn staged_records_are_synced_by_commit_only() {
        let path = tmp("stage-commit.jsonl");
        let mut j = TrialJournal::create(&path).expect("create");
        j.commit().expect("nothing to sync");
        assert_eq!(j.syncs(), 0);
        let records: Vec<TrialRecord> = (0..5).map(|i| rec(i, Some(i as f64), None)).collect();
        for r in &records[..3] {
            j.stage(r).expect("stage");
        }
        assert_eq!((j.written(), j.syncs()), (3, 0));
        // Written, not yet durable: the bytes are already in the file.
        assert_eq!(TrialJournal::load(&path).expect("load"), records[..3]);
        j.commit().expect("commit");
        j.commit().expect("clean commit is free");
        assert_eq!(j.syncs(), 1);
        // `append` alone is durable on return.
        j.append(&records[3]).expect("append");
        j.append(&records[4]).expect("append");
        assert_eq!((j.written(), j.syncs()), (5, 3));
        drop(j);
        assert_eq!(TrialJournal::load(&path).expect("load"), records);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn staged_waves_leave_the_files_per_record_appends_leave() {
        let records: Vec<TrialRecord> = (0..14).map(|i| rec(i, Some(i as f64), None)).collect();
        let staged = tmp("waves-staged.jsonl");
        let mut j = TrialJournal::create(&staged).expect("create");
        for wave in records.chunks(4) {
            for r in wave {
                j.stage(r).expect("stage");
            }
            j.commit().expect("commit");
        }
        assert_eq!(j.syncs(), 4, "one sync per wave");
        drop(j);

        let appended = tmp("waves-appended.jsonl");
        let mut j = TrialJournal::create(&appended).expect("create");
        for r in &records {
            j.append(r).expect("append");
        }
        drop(j);

        assert_eq!(
            std::fs::read(&staged).expect("read staged"),
            std::fs::read(&appended).expect("read appended")
        );
        assert_eq!(TrialJournal::load(&staged).expect("load"), records);
        let _ = std::fs::remove_file(&staged);
        let _ = std::fs::remove_file(&appended);
    }

    #[test]
    fn record_cut_before_its_newline_is_kept_and_reterminated() {
        let path = tmp("unterminated.jsonl");
        let records: Vec<TrialRecord> = (0..3).map(|i| rec(i, Some(i as f64), None)).collect();
        let mut j = TrialJournal::create(&path).expect("create");
        j.append(&records[0]).expect("append");
        j.append(&records[1]).expect("append");
        drop(j);
        // The crash cut the second record's newline off: the record is
        // intact, but the next write would fuse with it.
        let two = std::fs::read(&path).expect("read");
        std::fs::write(&path, &two[..two.len() - 1]).expect("truncate");
        assert_eq!(TrialJournal::load(&path).expect("load"), records[..2]);
        let (mut j, loaded) = TrialJournal::open_resume(&path).expect("resume");
        assert_eq!(loaded, records[..2]);
        j.append(&records[2]).expect("append");
        drop(j);
        assert_eq!(TrialJournal::load(&path).expect("load"), records);
        let whole = std::fs::read(&path).expect("read");
        assert_eq!(whole[..two.len()], two[..], "the newline is back");
        let _ = std::fs::remove_file(&path);
    }
}
