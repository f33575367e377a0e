//! The durable sweep journal: each completed cell's full report, appended
//! to a directory as it finishes, so a killed sweep resumes instead of
//! restarting.
//!
//! A big study is hours of compute; a SIGKILL (OOM killer, preempted CI
//! runner, an operator's ctrl-C) one cell before the end used to discard
//! all of it. With `--journal DIR` each completed cell is published to
//! `DIR` the moment it finishes — atomically, via
//! `crate::durable::atomic_write`, so a kill mid-write leaves a staging
//! file that every reader ignores, never a torn entry. Re-running the
//! identical command resumes: the sweep loads every valid journaled cell,
//! re-runs only the remainder, and produces a study document
//! **byte-identical** to an uninterrupted run (CI kills a release sweep
//! mid-flight and byte-compares exactly this).
//!
//! # Entry format (`cell-{key:016x}.smtj`)
//!
//! One file per cell, named by the cell's 64-bit identity [`journal_key`].
//! The payload is the workspace's checksummed little-endian binary framing
//! ([`smt_stats::binio`]):
//!
//! ```text
//! magic    8 bytes  "SMT1JRNL"
//! version  u32      1
//! key      u64      must equal the key in the file name
//! report   SimReport::write_bin (lossless binary report)
//! trailer  u64      FNV-1a checksum of everything above
//! ```
//!
//! The journaled report is the *lossless* binary form — the JSON report is
//! a rendering with rounded percentages, so resuming from JSON could not
//! be byte-identical.
//!
//! # Keying
//!
//! [`journal_key`] folds together the machine/workload
//! [`config_fingerprint`](smt_core::checkpoint::config_fingerprint) (which
//! deliberately excludes the fork axes) with the study tag, the cell's
//! fork-axis coordinates (fetch/issue policy, ablation, window) and the
//! cycle/warmup lengths — everything that defines the cell's result. A
//! journal directory can therefore be shared between *different* sweeps:
//! a cell is only ever resumed into a sweep that would have produced the
//! identical bytes. Failed cells are **not** journaled — deterministic
//! failures re-fail on resume, so the resumed document still reports them.
//!
//! # Robustness
//!
//! A journal entry that cannot be read or validated (torn rename, bit rot,
//! an older format version) is treated as missing: the cell re-runs and
//! the incident is recorded as a `journal_read_failed` degradation. A
//! store that fails even after retries degrades too
//! (`journal_write_failed`) — the result stays in the document, it is just
//! not durable. Neither ever aborts the sweep or changes a cell's bytes.

use std::io;
use std::path::{Path, PathBuf};

use smt_core::SimReport;
use smt_stats::binio::{invalid, BinReader, BinWriter};

/// Magic bytes opening every journal entry.
pub const JOURNAL_MAGIC: [u8; 8] = *b"SMT1JRNL";

/// Current journal entry format version. Readers reject other versions
/// (the entry is re-run, not misparsed).
pub const JOURNAL_FORMAT_VERSION: u32 = 1;

/// The 64-bit identity of one cell's result: the config fingerprint (which
/// covers machine geometry, workload images and seed but deliberately not
/// the fork axes) folded with the study tag, the fork-axis coordinates
/// (`parts`) and the cycle counts (`nums`) through the workspace FNV-1a.
pub fn journal_key(config_fingerprint: u64, parts: &[&str], nums: &[u64]) -> u64 {
    let mut w = BinWriter::new(io::sink());
    let fold = |r: io::Result<()>| r.expect("writing to io::sink cannot fail");
    fold(w.u64(config_fingerprint));
    fold(w.len(parts.len()));
    for p in parts {
        fold(w.str(p));
    }
    fold(w.len(nums.len()));
    for &n in nums {
        fold(w.u64(n));
    }
    w.checksum()
}

/// A sweep journal directory: one atomically-published entry per
/// completed cell.
#[derive(Debug, Clone)]
pub struct Journal {
    dir: PathBuf,
}

impl Journal {
    /// Opens (creating if needed) the journal directory, sweeping out any
    /// staging files a SIGKILLed predecessor left mid-write (best-effort —
    /// readers ignore staging names anyway, this just keeps the directory
    /// tidy).
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the directory cannot be created —
    /// the caller asked for durability, so an unusable journal fails the
    /// sweep up front rather than silently running without one.
    pub fn open(dir: &Path) -> io::Result<Journal> {
        crate::durable::retry_io(|| std::fs::create_dir_all(dir))?;
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                if crate::durable::is_staging_name(&entry.file_name().to_string_lossy()) {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        Ok(Journal {
            dir: dir.to_path_buf(),
        })
    }

    /// The entry file for a cell key.
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("cell-{key:016x}.smtj"))
    }

    /// Loads the journaled report for `key`. `Ok(None)` means no entry
    /// exists (the cell must run); `Err` is any reason an existing entry
    /// cannot be trusted — the caller records a degradation and re-runs
    /// the cell. `probe_key` names the cell for fault injection.
    pub fn load(&self, key: u64, probe_key: u64) -> Result<Option<SimReport>, String> {
        let path = self.entry_path(key);
        let bytes = match crate::durable::read_file(&path, "journal-read", probe_key) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("read failed: {e}")),
        };
        parse_entry(&bytes, key)
            .map(Some)
            .map_err(|e| e.to_string())
    }

    /// Atomically publishes `report` as the entry for `key`, retrying
    /// transient I/O. `probe_key` names the cell for fault injection.
    ///
    /// # Errors
    ///
    /// Returns the underlying error after retries; the caller records a
    /// `journal_write_failed` degradation and keeps the in-memory result.
    pub fn store(&self, key: u64, probe_key: u64, report: &SimReport) -> io::Result<()> {
        let mut bytes = Vec::new();
        let mut w = BinWriter::new(&mut bytes);
        w.bytes(&JOURNAL_MAGIC)?;
        w.u32(JOURNAL_FORMAT_VERSION)?;
        w.u64(key)?;
        report.write_bin(&mut w)?;
        w.finish()?;
        crate::durable::atomic_write(&self.entry_path(key), &bytes, "journal-store", probe_key)
    }
}

/// Validates and decodes one entry's bytes for the expected `key`.
fn parse_entry(bytes: &[u8], key: u64) -> io::Result<SimReport> {
    let mut r = BinReader::new(bytes);
    let mut magic = [0u8; 8];
    r.bytes(&mut magic)?;
    if magic != JOURNAL_MAGIC {
        return Err(invalid("bad journal entry magic"));
    }
    let version = r.u32()?;
    if version != JOURNAL_FORMAT_VERSION {
        return Err(invalid(format!(
            "unsupported journal entry version {version} \
             (this build reads version {JOURNAL_FORMAT_VERSION})"
        )));
    }
    let stored_key = r.u64()?;
    if stored_key != key {
        return Err(invalid(format!(
            "journal entry key {stored_key:016x} does not match file key {key:016x}"
        )));
    }
    let report = SimReport::read_bin(&mut r)?;
    r.finish()?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> SimReport {
        let images = crate::study::resolve_mix("mixed4", 42).unwrap();
        crate::warmup::canonical_config_for(&images, 42, smt_core::FetchPartition::new(2, 8))
            .build()
            .run(80)
    }

    fn tmp_journal(tag: &str) -> (PathBuf, Journal) {
        let dir =
            std::env::temp_dir().join(format!("smt-exp-journal-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let journal = Journal::open(&dir).unwrap();
        (dir, journal)
    }

    #[test]
    fn keys_separate_every_axis() {
        let base = journal_key(1, &["issue", "rr", "oldest"], &[100, 50]);
        assert_eq!(base, journal_key(1, &["issue", "rr", "oldest"], &[100, 50]));
        for other in [
            journal_key(2, &["issue", "rr", "oldest"], &[100, 50]),
            journal_key(1, &["issue", "icount", "oldest"], &[100, 50]),
            journal_key(1, &["ablation", "rr", "oldest"], &[100, 50]),
            journal_key(1, &["issue", "rr", "oldest"], &[100, 60]),
            journal_key(1, &["issue", "rr"], &[100, 50]),
            // Length prefixes keep adjacent strings from gluing together.
            journal_key(1, &["issue", "rrold", "est"], &[100, 50]),
        ] {
            assert_ne!(base, other);
        }
    }

    #[test]
    fn round_trip_preserves_the_report_losslessly() {
        let (dir, journal) = tmp_journal("roundtrip");
        let report = tiny_report();
        let key = journal_key(9, &["issue", "ICOUNT", "OLDEST_FIRST"], &[80, 0]);
        assert_eq!(journal.load(key, 0).unwrap(), None, "empty journal");
        journal.store(key, 0, &report).unwrap();
        let back = journal.load(key, 0).unwrap().expect("stored entry");
        assert_eq!(back, report);
        assert_eq!(back.to_json().render(), report.to_json().render());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_sweeps_a_dead_predecessors_staging_files() {
        let (dir, journal) = tmp_journal("sweep");
        let key = journal_key(5, &["issue", "RR", "OLDEST_FIRST"], &[80, 0]);
        journal.store(key, 0, &tiny_report()).unwrap();
        let stale = dir.join(".cell-dead.smtj.tmp.99999");
        std::fs::write(&stale, b"torn").unwrap();
        let reopened = Journal::open(&dir).unwrap();
        assert!(!stale.exists(), "stale staging file survived open");
        assert!(
            reopened.load(key, 0).unwrap().is_some(),
            "published entries survive the sweep"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rot_and_mismatch_are_typed_never_trusted() {
        let (dir, journal) = tmp_journal("rot");
        let report = tiny_report();
        let key = journal_key(3, &["issue", "RR", "OLDEST_FIRST"], &[80, 0]);
        journal.store(key, 0, &report).unwrap();
        let pristine = std::fs::read(journal.entry_path(key)).unwrap();

        // A payload bit flip fails the checksum (or a bounds check).
        let mut flipped = pristine.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        std::fs::write(journal.entry_path(key), &flipped).unwrap();
        assert!(journal.load(key, 0).is_err(), "bit rot must not be trusted");

        // Truncation (a torn non-atomic write would look like this).
        let torn = &pristine[..pristine.len() / 2];
        std::fs::write(journal.entry_path(key), torn).unwrap();
        assert!(journal.load(key, 0).is_err());

        // A valid entry under the wrong file name is a key mismatch.
        let other = journal_key(4, &["issue", "RR", "OLDEST_FIRST"], &[80, 0]);
        std::fs::write(journal.entry_path(other), &pristine).unwrap();
        let err = journal.load(other, 0).unwrap_err();
        assert!(err.contains("does not match"), "{err}");

        // A future format version is refused, not misparsed.
        let mut future = pristine.clone();
        future[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(journal.entry_path(key), &future).unwrap();
        let err = journal.load(key, 0).unwrap_err();
        assert!(err.contains("version"), "{err}");

        // Repair and the entry serves again.
        std::fs::write(journal.entry_path(key), &pristine).unwrap();
        assert_eq!(journal.load(key, 0).unwrap(), Some(report));
        std::fs::remove_dir_all(&dir).ok();
    }
}
