//! Durable file I/O for the sweep's cache and journal: bounded-backoff
//! retries for transient errors, and atomic (temp-file + rename)
//! publication so a reader never observes a torn write.
//!
//! The checkpoint cache and the result journal are written *while* a sweep
//! runs and read by *later* invocations — including an `smt_exp` process
//! resuming after its predecessor was SIGKILLed mid-write. Two disciplines
//! keep that safe:
//!
//! * **Retry transient errors.** `EINTR`-class failures
//!   ([`io::ErrorKind::Interrupted`], [`WouldBlock`](io::ErrorKind::WouldBlock),
//!   [`TimedOut`](io::ErrorKind::TimedOut)) get a few retries with a short
//!   doubling backoff; anything else (or exhausted retries) surfaces
//!   unchanged for the caller to degrade on.
//! * **Publish atomically.** Files appear under their final name only via
//!   `rename(2)`, which is atomic on POSIX filesystems: a crash mid-write
//!   leaves a stale `.tmp` file (ignored by every reader), never a
//!   half-written cache or journal entry under the real name.
//!
//! Each helper takes an injection `site`/`probe` pair: with the
//! `fault-inject` feature the retried operation first consults
//! [`smt_stats::faults`], so tests can make exactly the Nth write at a
//! chosen site fail transiently (proving the retry absorbs it) or hard
//! (proving the typed degradation surfaces). Without the feature the pair
//! compiles to nothing.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Total attempts per operation (one initial try + retries).
const ATTEMPTS: u32 = 4;

/// First backoff; doubles per retry (2 ms, 4 ms, 8 ms).
const FIRST_BACKOFF: Duration = Duration::from_millis(2);

fn transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Runs `op` up to [`ATTEMPTS`] times, sleeping a doubling backoff between
/// attempts, retrying only [`transient`] error kinds. The last error — or
/// the first non-transient one — is returned unchanged.
pub(crate) fn retry_io<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut backoff = FIRST_BACKOFF;
    let mut attempt = 1;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if transient(&e) && attempt < ATTEMPTS => {
                std::thread::sleep(backoff);
                backoff *= 2;
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// The probe consulted inside every retried operation. A no-op without the
/// `fault-inject` feature.
fn probe(site: &str, key: u64) -> io::Result<()> {
    #[cfg(feature = "fault-inject")]
    smt_stats::faults::io_point(site, key)?;
    #[cfg(not(feature = "fault-inject"))]
    let _ = (site, key);
    Ok(())
}

/// The temp-file sibling a write is staged under before its rename, unique
/// to this write: the process id keeps concurrent *processes* apart, and a
/// process-wide counter keeps concurrent *workers* apart. Two workers do
/// store one path when two spellings of a mix name one machine (path
/// aliases like `a.elf` and `./a.elf`): their cells share a journal entry
/// and their warmups a cache entry, and each must publish whole bytes.
fn staging_path(path: &Path) -> PathBuf {
    static WRITES: AtomicU64 = AtomicU64::new(0);
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let write = WRITES.fetch_add(1, Ordering::Relaxed);
    path.with_file_name(format!(".{name}.tmp.{}.{write}", std::process::id()))
}

/// Whether a directory entry is a staging file left by [`atomic_write`]
/// (possibly by a killed predecessor process). Readers skip these.
pub(crate) fn is_staging_name(name: &str) -> bool {
    name.starts_with('.') && name.contains(".tmp.")
}

/// Writes `bytes` to `path` atomically: create the parent, stage the
/// content under a temp name, `rename` into place. Every step retries
/// transient errors; the staging file is best-effort removed if the
/// rename fails. `site`/`probe_key` name the fault-injection point for the
/// content write.
pub(crate) fn atomic_write(
    path: &Path,
    bytes: &[u8],
    site: &str,
    probe_key: u64,
) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            retry_io(|| std::fs::create_dir_all(parent))?;
        }
    }
    let staging = staging_path(path);
    retry_io(|| {
        probe(site, probe_key)?;
        std::fs::write(&staging, bytes)
    })?;
    retry_io(|| std::fs::rename(&staging, path)).inspect_err(|_| {
        let _ = std::fs::remove_file(&staging);
    })
}

/// Reads `path` with transient-error retries and the `site` fault probe.
/// `NotFound` is not transient and surfaces immediately — callers treat it
/// as "no entry", not an error. With the `fault-inject` feature an armed
/// corruption fault at the same site flips one byte of the returned
/// buffer, exercising the caller's validation path.
pub(crate) fn read_file(path: &Path, site: &str, probe_key: u64) -> io::Result<Vec<u8>> {
    #[allow(unused_mut)]
    let mut bytes = retry_io(|| {
        probe(site, probe_key)?;
        std::fs::read(path)
    })?;
    #[cfg(feature = "fault-inject")]
    smt_stats::faults::corrupt_point(site, probe_key, &mut bytes);
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("smt-exp-durable-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn retry_absorbs_transient_errors_within_budget() {
        let tries = AtomicU32::new(0);
        let out = retry_io(|| {
            if tries.fetch_add(1, Ordering::Relaxed) < 3 {
                Err(io::Error::new(io::ErrorKind::Interrupted, "flaky"))
            } else {
                Ok(7)
            }
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(tries.load(Ordering::Relaxed), 4, "3 transient + 1 success");
    }

    #[test]
    fn retry_gives_up_on_hard_and_exhausted_errors() {
        let tries = AtomicU32::new(0);
        let out: io::Result<()> = retry_io(|| {
            tries.fetch_add(1, Ordering::Relaxed);
            Err(io::Error::other("hard"))
        });
        assert!(out.is_err());
        assert_eq!(tries.load(Ordering::Relaxed), 1, "hard errors never retry");

        let tries = AtomicU32::new(0);
        let out: io::Result<()> = retry_io(|| {
            tries.fetch_add(1, Ordering::Relaxed);
            Err(io::Error::new(io::ErrorKind::TimedOut, "always"))
        });
        assert_eq!(out.unwrap_err().kind(), io::ErrorKind::TimedOut);
        assert_eq!(tries.load(Ordering::Relaxed), ATTEMPTS);
    }

    #[test]
    fn atomic_write_round_trips_and_leaves_no_staging_files() {
        let dir = tmp_dir("atomic");
        let path = dir.join("nested").join("entry.bin");
        atomic_write(&path, b"payload", "test-write", 0).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"payload");
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| is_staging_name(n))
            .collect();
        assert!(leftovers.is_empty(), "staging files leaked: {leftovers:?}");
        // Overwrites are atomic too.
        atomic_write(&path, b"replaced", "test-write", 0).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"replaced");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_writes_of_one_path_all_publish() {
        let dir = tmp_dir("concurrent");
        let path = dir.join("entry.bin");
        let payload = vec![0xA5u8; 16 << 10];
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..200 {
                        atomic_write(&path, &payload, "test-write", 0).unwrap();
                    }
                });
            }
        });
        assert!(std::fs::read(&path).unwrap() == payload, "torn entry");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["entry.bin"], "staging files leaked");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn staging_names_are_recognized() {
        let staged = staging_path(Path::new("/x/cell-00ff.smtj"));
        let name = staged.file_name().unwrap().to_string_lossy().into_owned();
        assert!(is_staging_name(&name), "{name}");
        assert_ne!(staged, staging_path(Path::new("/x/cell-00ff.smtj")));
        assert!(!is_staging_name("cell-00ff.smtj"));
        assert!(!is_staging_name("warm-00ff.ckpt"));
    }

    #[test]
    fn read_file_surfaces_not_found_immediately() {
        let missing = tmp_dir("missing").join("nope.bin");
        let err = read_file(&missing, "test-read", 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }
}
