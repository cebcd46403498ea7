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
//!
//! ## Rotation and compaction
//!
//! Long-lived service sessions append indefinitely; a single journal file
//! would grow without bound and make the torn-tail scan ever more
//! expensive. A journal opened with a [`RotationPolicy`] *rotates*: once
//! the active file holds `max_records_per_segment` records it is renamed
//! to `<path>.seg<N>` (higher `N` = newer) and a fresh active file is
//! started. Loading reads the archived segments in order, then the active
//! file, and replay sees one seamless tape — rotation is invisible to
//! resume. A torn tail is only ever possible in the active segment
//! (archives are synced whole before the rename, whatever part of a wave
//! they hold); a malformed line inside an archive is a hard error.
//!
//! When the archive count exceeds [`RotationPolicy::compact_after_segments`]
//! the archives are *compacted*: merged into the oldest segment via an
//! atomic temp-file rename, then the now-redundant segment files are
//! removed. A crash between the rename and the removals leaves duplicate
//! records on disk; loading repairs this deterministically by skipping
//! records whose index was already seen (indices are strictly increasing
//! within a run), and [`TrialJournal::open_resume_rotating`] deletes the
//! fully-redundant files it finds.

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

/// Size/compaction policy for a rotating journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RotationPolicy {
    /// Records per segment before the active file is rolled into an
    /// archive (must be ≥ 1).
    pub max_records_per_segment: usize,
    /// Once more than this many archived segments exist they are merged
    /// into one (0 disables compaction).
    pub compact_after_segments: usize,
}

impl Default for RotationPolicy {
    fn default() -> Self {
        RotationPolicy {
            max_records_per_segment: 256,
            compact_after_segments: 4,
        }
    }
}

/// An open, append-only journal file (optionally rotating).
pub struct TrialJournal {
    file: File,
    path: PathBuf,
    written: usize,
    /// Syncs of the active file issued through this handle.
    syncs: usize,
    /// Staged records are waiting for a sync.
    dirty: bool,
    rotation: Option<RotationPolicy>,
    /// Records currently in the active segment file.
    active_records: usize,
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

/// Write `records` to a fresh file at `path` and sync it: the temp-file
/// half of an atomic replace (the caller renames it into place).
fn write_file_durable(path: &Path, records: &[TrialRecord]) -> std::io::Result<()> {
    let mut file = File::create(path)?;
    let mut buf = Vec::new();
    for rec in records {
        write_line(&mut file, &mut buf, rec)?;
    }
    file.sync_all()
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

/// Archived segment paths for `path`, sorted oldest (lowest `N`) first.
fn segment_paths(path: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let parent = match path.parent() {
        Some(p) if p.as_os_str().is_empty() => PathBuf::from("."),
        Some(p) => p.to_path_buf(),
        None => PathBuf::from("."),
    };
    let base = match path.file_name() {
        Some(name) => name.to_string_lossy().to_string(),
        None => return Ok(Vec::new()),
    };
    let prefix = format!("{base}.seg");
    let mut out = Vec::new();
    if !parent.exists() {
        return Ok(out);
    }
    for entry in std::fs::read_dir(&parent)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().to_string();
        if let Some(n) = name.strip_prefix(&prefix) {
            if let Ok(n) = n.parse::<u64>() {
                out.push((n, entry.path()));
            }
        }
    }
    out.sort_by_key(|(n, _)| *n);
    Ok(out)
}

impl TrialJournal {
    /// Start a fresh journal at `path`, truncating any existing file.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<TrialJournal> {
        TrialJournal::create_inner(path.as_ref(), None)
    }

    /// Start a fresh *rotating* journal at `path`: any existing active
    /// file, archived segments, and stale compaction temp are removed.
    pub fn create_rotating(
        path: impl AsRef<Path>,
        policy: RotationPolicy,
    ) -> std::io::Result<TrialJournal> {
        assert!(
            policy.max_records_per_segment >= 1,
            "rotation needs at least one record per segment"
        );
        let path = path.as_ref();
        for (_, seg) in segment_paths(path)? {
            std::fs::remove_file(seg)?;
        }
        let _ = std::fs::remove_file(compact_tmp(path));
        TrialJournal::create_inner(path, Some(policy))
    }

    fn create_inner(
        path: &Path,
        rotation: Option<RotationPolicy>,
    ) -> std::io::Result<TrialJournal> {
        let file = File::create(path)?;
        // The records' own syncs do not cover the directory entry: without
        // this a machine crash can keep the trials and lose the file.
        sync_parent_dir(path);
        Ok(TrialJournal::over(file, path, rotation, 0))
    }

    /// A handle over an open active file holding `active_records` records.
    fn over(
        file: File,
        path: &Path,
        rotation: Option<RotationPolicy>,
        active_records: usize,
    ) -> TrialJournal {
        TrialJournal {
            file,
            path: path.to_path_buf(),
            written: 0,
            syncs: 0,
            dirty: false,
            rotation,
            active_records,
            line: Vec::new(),
        }
    }

    /// Open `path` for appending, first loading every intact record
    /// already present (empty when the file does not exist yet).
    ///
    /// An intact journal is opened in append mode untouched. Only when a
    /// torn tail (crash mid-write) is detected is the intact prefix
    /// rewritten — to a temp file that is synced once and atomically
    /// renamed over the original, so already-durable trials can never be
    /// lost to a crash during the repair itself.
    pub fn open_resume(
        path: impl AsRef<Path>,
    ) -> std::io::Result<(TrialJournal, Vec<TrialRecord>)> {
        TrialJournal::open_resume_inner(path.as_ref(), None)
    }

    /// [`TrialJournal::open_resume`] for a rotating journal: loads the
    /// archived segments (oldest first) followed by the active file,
    /// repairs a torn active tail, finishes any compaction that was
    /// interrupted mid-cleanup, and appends to the active segment.
    pub fn open_resume_rotating(
        path: impl AsRef<Path>,
        policy: RotationPolicy,
    ) -> std::io::Result<(TrialJournal, Vec<TrialRecord>)> {
        assert!(
            policy.max_records_per_segment >= 1,
            "rotation needs at least one record per segment"
        );
        TrialJournal::open_resume_inner(path.as_ref(), Some(policy))
    }

    fn open_resume_inner(
        path: &Path,
        rotation: Option<RotationPolicy>,
    ) -> std::io::Result<(TrialJournal, Vec<TrialRecord>)> {
        // A stale compaction temp means the crash happened before the
        // atomic rename: the archives are untouched, drop the temp.
        let _ = std::fs::remove_file(compact_tmp(path));
        let mut existing: Vec<TrialRecord> = Vec::new();
        for (_, seg) in segment_paths(path)? {
            let (records, torn) = TrialJournal::load_file_with_tail(&seg)?;
            if torn {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "archived journal segment {seg:?} has a torn tail; segments are rotated \
                         whole, so this file was edited or truncated externally"
                    ),
                ));
            }
            let before = existing.len();
            append_deduped(&mut existing, records);
            if existing.len() == before && before > 0 {
                // Every record was already seen: this segment is a
                // leftover of an interrupted compaction. Finish the
                // cleanup it never got to.
                std::fs::remove_file(&seg)?;
                sync_parent_dir(path);
            }
        }
        let (active, torn_tail) = TrialJournal::load_file_with_tail(path)?;
        if torn_tail {
            let mut tmp_name = path.to_path_buf().into_os_string();
            tmp_name.push(".repair");
            let tmp = PathBuf::from(tmp_name);
            write_file_durable(&tmp, &active)?;
            std::fs::rename(&tmp, path)?;
            sync_parent_dir(path);
        }
        let active_records = active.len();
        append_deduped(&mut existing, active);
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok((
            TrialJournal::over(file, path, rotation, active_records),
            existing,
        ))
    }

    /// Write one record to the file without syncing it: when this
    /// returns `Ok` the trial survives a crash of the process, and the
    /// next [`TrialJournal::commit`] makes it survive a crash of the
    /// machine. Rotating journals roll the active segment once it reaches
    /// the policy's record cap — the archive is synced whole by the roll.
    pub fn stage(&mut self, record: &TrialRecord) -> std::io::Result<()> {
        write_line(&mut self.file, &mut self.line, record)?;
        self.dirty = true;
        self.written += 1;
        self.active_records += 1;
        if let Some(policy) = self.rotation {
            if self.active_records >= policy.max_records_per_segment {
                self.roll(policy)?;
            }
        }
        Ok(())
    }

    /// Make every staged record durable: one `fdatasync` if anything was
    /// staged since the last sync, no syscall otherwise.
    pub fn commit(&mut self) -> std::io::Result<()> {
        if self.dirty {
            self.file.sync_data()?;
            self.synced();
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

    fn synced(&mut self) {
        self.syncs += 1;
        self.dirty = false;
    }

    /// Rotate: sync the active file, archive it as the next segment and
    /// start a fresh active file, compacting archives when they pile up.
    fn roll(&mut self, policy: RotationPolicy) -> std::io::Result<()> {
        self.file.sync_all()?;
        self.synced();
        let segments = segment_paths(&self.path)?;
        let next = segments.last().map(|(n, _)| n + 1).unwrap_or(1);
        let seg_path = PathBuf::from(format!("{}.seg{next}", self.path.display()));
        std::fs::rename(&self.path, &seg_path)?;
        self.file = File::create(&self.path)?;
        // One directory sync covers the archive's new name and the fresh
        // active file's entry.
        sync_parent_dir(&self.path);
        self.active_records = 0;
        if policy.compact_after_segments > 0 && segments.len() + 1 > policy.compact_after_segments {
            self.compact_archives()?;
        }
        Ok(())
    }

    /// Merge every archived segment into the oldest one (atomic rename),
    /// then delete the now-redundant segment files. Crash-safe: an
    /// interrupted cleanup leaves duplicates that loading skips by index
    /// and the next `open_resume_rotating` deletes.
    fn compact_archives(&mut self) -> std::io::Result<()> {
        let segments = segment_paths(&self.path)?;
        if segments.len() < 2 {
            return Ok(());
        }
        let tmp = compact_tmp(&self.path);
        let mut all: Vec<TrialRecord> = Vec::new();
        for (_, seg) in &segments {
            let (records, torn) = TrialJournal::load_file_with_tail(seg)?;
            if torn {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("archived journal segment {seg:?} has a torn tail"),
                ));
            }
            append_deduped(&mut all, records);
        }
        write_file_durable(&tmp, &all)?;
        let (oldest, rest) = segments.split_first().expect("len >= 2");
        std::fs::rename(&tmp, &oldest.1)?;
        sync_parent_dir(&self.path);
        for (_, seg) in rest {
            std::fs::remove_file(seg)?;
        }
        sync_parent_dir(&self.path);
        Ok(())
    }

    /// Records written through this handle (staged or appended).
    pub fn written(&self) -> usize {
        self.written
    }

    /// Syncs of the active file issued through this handle: one per
    /// [`TrialJournal::commit`] that had something to sync, one per roll.
    pub fn syncs(&self) -> usize {
        self.syncs
    }

    /// The journal's (active-segment) path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of archived segment files currently on disk.
    pub fn archived_segments(&self) -> std::io::Result<usize> {
        Ok(segment_paths(&self.path)?.len())
    }

    /// Load every intact record from `path`: archived segments (oldest
    /// first) when the journal rotated, then the active file. A missing
    /// file is an empty journal; a malformed *final* line of the active
    /// file (torn write) is dropped; malformed earlier lines — and any
    /// malformed line in an archive — are an error. Records whose index
    /// was already seen (interrupted compaction) are skipped.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Vec<TrialRecord>> {
        let path = path.as_ref();
        let mut out: Vec<TrialRecord> = Vec::new();
        for (_, seg) in segment_paths(path)? {
            let (records, torn) = TrialJournal::load_file_with_tail(&seg)?;
            if torn {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("archived journal segment {seg:?} has a torn tail"),
                ));
            }
            append_deduped(&mut out, records);
        }
        let (active, _) = TrialJournal::load_file_with_tail(path)?;
        append_deduped(&mut out, active);
        Ok(out)
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

/// Path of the compaction temp file for `path`.
fn compact_tmp(path: &Path) -> PathBuf {
    let mut name = path.to_path_buf().into_os_string();
    name.push(".compact");
    PathBuf::from(name)
}

/// Append `records` to `out`, skipping records whose index was already
/// accumulated — the deterministic repair for duplicates left by an
/// interrupted compaction (indices are strictly increasing in a run).
fn append_deduped(out: &mut Vec<TrialRecord>, records: Vec<TrialRecord>) {
    let mut next = out.last().map(|r| r.index + 1).unwrap_or(0);
    for rec in records {
        if rec.index >= next {
            next = rec.index + 1;
            out.push(rec);
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

    /// Remove a journal plus any rotation debris.
    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
        if let Ok(segs) = segment_paths(path) {
            for (_, seg) in segs {
                let _ = std::fs::remove_file(seg);
            }
        }
        let _ = std::fs::remove_file(compact_tmp(path));
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
    fn rotation_splits_segments_and_load_sees_one_tape() {
        let path = tmp("rotating.jsonl");
        cleanup(&path);
        let policy = RotationPolicy {
            max_records_per_segment: 3,
            compact_after_segments: 0,
        };
        let mut j = TrialJournal::create_rotating(&path, policy).expect("create");
        let records: Vec<TrialRecord> = (0..8).map(|i| rec(i, Some(i as f64), None)).collect();
        for r in &records {
            j.append(r).expect("append");
        }
        // 8 records at 3/segment: two archived segments + 2 in the active.
        assert_eq!(j.archived_segments().expect("segments"), 2);
        drop(j);
        assert_eq!(TrialJournal::load(&path).expect("load"), records);
        cleanup(&path);
    }

    #[test]
    fn rotating_resume_with_torn_active_tail() {
        let path = tmp("rotating-torn.jsonl");
        cleanup(&path);
        let policy = RotationPolicy {
            max_records_per_segment: 2,
            compact_after_segments: 0,
        };
        let mut j = TrialJournal::create_rotating(&path, policy).expect("create");
        let records: Vec<TrialRecord> = (0..5).map(|i| rec(i, Some(i as f64), None)).collect();
        for r in &records {
            j.append(r).expect("append");
        }
        drop(j);
        // Crash mid-append into the active segment.
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        write!(f, "{{\"index\":5,\"conf").expect("write");
        drop(f);
        let (mut j2, loaded) = TrialJournal::open_resume_rotating(&path, policy).expect("resume");
        assert_eq!(loaded, records, "torn tail dropped, archives intact");
        // Appending continues the tape and keeps rotating.
        let more = rec(5, Some(5.0), None);
        j2.append(&more).expect("append");
        drop(j2);
        let mut want = records;
        want.push(more);
        assert_eq!(TrialJournal::load(&path).expect("load"), want);
        cleanup(&path);
    }

    #[test]
    fn torn_archive_segment_is_an_error() {
        let path = tmp("rotating-torn-archive.jsonl");
        cleanup(&path);
        let policy = RotationPolicy {
            max_records_per_segment: 2,
            compact_after_segments: 0,
        };
        let mut j = TrialJournal::create_rotating(&path, policy).expect("create");
        for i in 0..4 {
            j.append(&rec(i, Some(1.0), None)).expect("append");
        }
        drop(j);
        let seg1 = PathBuf::from(format!("{}.seg1", path.display()));
        let mut f = OpenOptions::new().append(true).open(&seg1).expect("open");
        write!(f, "{{\"torn\":").expect("write");
        drop(f);
        assert!(TrialJournal::load(&path).is_err());
        assert!(TrialJournal::open_resume_rotating(&path, policy).is_err());
        cleanup(&path);
    }

    #[test]
    fn compaction_merges_archives() {
        let path = tmp("compacting.jsonl");
        cleanup(&path);
        let policy = RotationPolicy {
            max_records_per_segment: 2,
            compact_after_segments: 3,
        };
        let mut j = TrialJournal::create_rotating(&path, policy).expect("create");
        let records: Vec<TrialRecord> = (0..16).map(|i| rec(i, Some(i as f64), None)).collect();
        for r in &records {
            j.append(r).expect("append");
        }
        // Without compaction 16 records at 2/segment would leave 8
        // archives; compaction keeps the count at or below the threshold.
        assert!(
            j.archived_segments().expect("segments") <= policy.compact_after_segments,
            "archives must be compacted"
        );
        drop(j);
        assert_eq!(TrialJournal::load(&path).expect("load"), records);
        cleanup(&path);
    }

    /// Six records at two per segment (seg1..seg3, empty active file),
    /// then `seg1` rewritten to hold `records[..merged]` while the old
    /// `seg2`/`seg3` linger: what a compaction that crashed between its
    /// rename and its removals leaves behind.
    fn interrupted_compaction(name: &str, merged: usize) -> (PathBuf, Vec<TrialRecord>) {
        let path = tmp(name);
        cleanup(&path);
        let policy = RotationPolicy {
            max_records_per_segment: 2,
            compact_after_segments: 0,
        };
        let mut j = TrialJournal::create_rotating(&path, policy).expect("create");
        let records: Vec<TrialRecord> = (0..6).map(|i| rec(i, Some(i as f64), None)).collect();
        for r in &records {
            j.append(r).expect("append");
        }
        drop(j);
        let seg1 = PathBuf::from(format!("{}.seg1", path.display()));
        let mut m = TrialJournal::create(&seg1).expect("rewrite seg1");
        for r in &records[..merged] {
            m.append(r).expect("append");
        }
        (path, records)
    }

    /// Load and resume both see `records`; resume leaves `segments_left`
    /// archives behind.
    fn assert_compaction_repaired(path: &Path, records: &[TrialRecord], segments_left: usize) {
        let policy = RotationPolicy {
            max_records_per_segment: 2,
            compact_after_segments: 0,
        };
        assert_eq!(
            TrialJournal::load(path).expect("load skips duplicates"),
            records
        );
        let (j, loaded) = TrialJournal::open_resume_rotating(path, policy).expect("resume repairs");
        drop(j);
        assert_eq!(loaded, records);
        let segs = segment_paths(path).expect("segments");
        assert_eq!(segs.len(), segments_left, "redundant archives: {segs:?}");
        assert_eq!(TrialJournal::load(path).expect("reload"), records);
        cleanup(path);
    }

    #[test]
    fn interrupted_compaction_cleanup_is_repaired_on_load_and_resume() {
        // `compact_archives` merges *every* archive into the oldest, so
        // seg1 holds all six records and both seg2 and seg3 are redundant.
        let (path, records) = interrupted_compaction("compact-interrupted.jsonl", 6);
        assert_compaction_repaired(&path, &records, 1);
    }

    #[test]
    fn partially_merged_archive_keeps_the_segment_it_does_not_cover() {
        // seg1 = records 0..4 duplicates seg2 (2..4) but not seg3 (4..6):
        // only seg2 may go.
        let (path, records) = interrupted_compaction("compact-partial.jsonl", 4);
        assert_compaction_repaired(&path, &records, 2);
    }

    /// Every file of the journal at `path` (archives oldest first, then
    /// the active file) as `(suffix, bytes)`.
    fn files(path: &Path) -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = segment_paths(path)
            .expect("segments")
            .into_iter()
            .map(|(n, seg)| (format!("seg{n}"), std::fs::read(seg).expect("read segment")))
            .collect();
        out.push(("active".into(), std::fs::read(path).expect("read active")));
        out
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
        // (cap, compact_after, syncs): a roll syncs the archive whole, so
        // a wave that ends on a roll needs no sync of its own.
        for (cap, compact_after, syncs) in [(3, 0, 7), (6, 0, 5), (3, 2, 7), (100, 0, 4)] {
            let policy = RotationPolicy {
                max_records_per_segment: cap,
                compact_after_segments: compact_after,
            };
            let staged = tmp(&format!("waves-staged-{cap}-{compact_after}.jsonl"));
            let mut j = TrialJournal::create_rotating(&staged, policy).expect("create");
            for wave in records.chunks(4) {
                for r in wave {
                    j.stage(r).expect("stage");
                }
                j.commit().expect("commit");
            }
            assert_eq!(j.syncs(), syncs, "cap {cap}");
            drop(j);

            let appended = tmp(&format!("waves-appended-{cap}-{compact_after}.jsonl"));
            let mut j = TrialJournal::create_rotating(&appended, policy).expect("create");
            for r in &records {
                j.append(r).expect("append");
            }
            drop(j);

            assert_eq!(files(&staged), files(&appended), "cap {cap}");
            assert_eq!(TrialJournal::load(&staged).expect("load"), records);
            cleanup(&staged);
            cleanup(&appended);
        }
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

    #[test]
    fn rotating_journal_survives_roll_boundary_resume_exactly() {
        // The regression the service relies on: killing a session right
        // at a rotation boundary and resuming must reproduce the full
        // tape, byte-for-byte equal records.
        let path = tmp("boundary.jsonl");
        cleanup(&path);
        let policy = RotationPolicy {
            max_records_per_segment: 3,
            compact_after_segments: 0,
        };
        let mut j = TrialJournal::create_rotating(&path, policy).expect("create");
        let records: Vec<TrialRecord> = (0..6).map(|i| rec(i, Some(i as f64), None)).collect();
        for r in &records[..3] {
            j.append(r).expect("append");
        }
        // The third append rolled the segment; "kill" the process here.
        assert_eq!(j.archived_segments().expect("segments"), 1);
        drop(j);
        let (mut j2, loaded) = TrialJournal::open_resume_rotating(&path, policy).expect("resume");
        assert_eq!(loaded, records[..3].to_vec());
        for r in &records[3..] {
            j2.append(r).expect("append");
        }
        drop(j2);
        assert_eq!(TrialJournal::load(&path).expect("load"), records);
        cleanup(&path);
    }
}
