//! Typed per-cell failures and graceful-degradation records.
//!
//! Before this module a broken cell — a panic inside the simulator, an
//! unreadable `riscv:` workload file, a checkpoint that no longer
//! matches its machine — aborted the whole sweep, discarding every healthy
//! cell's work. The sweep runners now contain such faults: a failing cell
//! becomes a [`CellError`] in the study's `failed_cells` list and every
//! other cell's result stays **byte-identical** to a fault-free run.
//!
//! Non-fatal trouble — a corrupt checkpoint-cache entry that forced a
//! recompute, a journal entry that could not be written — is *degradation*,
//! not failure: the affected cell still produces its exact result, only
//! slower or less durably. Those events are recorded as [`Degradation`]
//! entries in the study's `degraded_cells` list (replacing the former
//! fire-and-forget `eprintln!` warnings), so an operator can see from the
//! result document alone that a sweep limped.

use std::fmt;

use smt_stats::json::Json;

/// Why a cell failed, as a stable machine-readable category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellErrorKind {
    /// The cell's simulation panicked; the panic was caught at the
    /// scheduler boundary and the message preserved.
    Panic,
    /// The cell's workload could not be built — an unreadable or malformed
    /// `riscv:` file, typically.
    Workload,
    /// A warmed-state checkpoint the cell depends on could not be produced
    /// or restored.
    Checkpoint,
    /// An I/O operation on the cell's behalf failed even after retries.
    Io,
}

impl CellErrorKind {
    /// The stable tag written to the JSON document.
    pub fn tag(self) -> &'static str {
        match self {
            CellErrorKind::Panic => "panic",
            CellErrorKind::Workload => "workload",
            CellErrorKind::Checkpoint => "checkpoint",
            CellErrorKind::Io => "io",
        }
    }
}

/// One contained cell failure: a category plus the underlying message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError {
    /// The failure category.
    pub kind: CellErrorKind,
    /// Human-readable detail (panic message, loader error, I/O error).
    pub message: String,
}

impl CellError {
    /// A caught-panic failure.
    pub fn panic(message: impl Into<String>) -> CellError {
        CellError {
            kind: CellErrorKind::Panic,
            message: message.into(),
        }
    }

    /// A workload-construction failure.
    pub fn workload(message: impl Into<String>) -> CellError {
        CellError {
            kind: CellErrorKind::Workload,
            message: message.into(),
        }
    }

    /// A checkpoint produce/restore failure.
    pub fn checkpoint(message: impl Into<String>) -> CellError {
        CellError {
            kind: CellErrorKind::Checkpoint,
            message: message.into(),
        }
    }

    /// A post-retry I/O failure.
    pub fn io(message: impl Into<String>) -> CellError {
        CellError {
            kind: CellErrorKind::Io,
            message: message.into(),
        }
    }

    /// The `{"kind": ..., "message": ...}` fragment embedded in a
    /// `failed_cells` entry.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("kind", Json::from(self.kind.tag())),
            ("message", Json::from(self.message.clone())),
        ])
    }
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.tag(), self.message)
    }
}

impl std::error::Error for CellError {}

/// Why a sweep degraded (kept its exact results, but lost speed or
/// durability), as a stable machine-readable reason tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// A `--checkpoint-dir` cache entry could not be read; the warmup was
    /// recomputed.
    CheckpointCacheRead,
    /// A `--checkpoint-dir` cache entry existed but failed validation
    /// (bad magic, checksum, fingerprint or cycle count); the warmup was
    /// recomputed.
    CheckpointCacheInvalid,
    /// A freshly computed checkpoint could not be written back to the
    /// `--checkpoint-dir` cache; the sweep continued uncached.
    CheckpointCacheWrite,
    /// A `--journal` entry existed but could not be read or failed
    /// validation; the cell was re-run.
    JournalRead,
    /// A completed cell's result could not be appended to the `--journal`
    /// directory; the result is in the document but not durable.
    JournalWrite,
}

impl DegradeReason {
    /// The stable tag written to the JSON document.
    pub fn tag(self) -> &'static str {
        match self {
            DegradeReason::CheckpointCacheRead => "checkpoint_cache_read_failed",
            DegradeReason::CheckpointCacheInvalid => "checkpoint_cache_invalid",
            DegradeReason::CheckpointCacheWrite => "checkpoint_cache_write_failed",
            DegradeReason::JournalRead => "journal_read_failed",
            DegradeReason::JournalWrite => "journal_write_failed",
        }
    }
}

/// One graceful-degradation event: which artifact degraded, why, and the
/// underlying detail. Collected in deterministic order and written to the
/// study document's `degraded_cells` list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// What degraded — a cell label, or a warmup's label followed by its
    /// cache entry's file name.
    pub key: String,
    /// The stable reason category.
    pub reason: DegradeReason,
    /// Human-readable detail (the I/O or validation error).
    pub detail: String,
}

impl Degradation {
    /// One `degraded_cells` entry.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("key", Json::from(self.key.clone())),
            ("reason", Json::from(self.reason.tag())),
            ("detail", Json::from(self.detail.clone())),
        ])
    }
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]: {}", self.key, self.reason.tag(), self.detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_stable_and_distinct() {
        let kinds = [
            CellErrorKind::Panic,
            CellErrorKind::Workload,
            CellErrorKind::Checkpoint,
            CellErrorKind::Io,
        ];
        let tags: Vec<&str> = kinds.iter().map(|k| k.tag()).collect();
        assert_eq!(tags, ["panic", "workload", "checkpoint", "io"]);
        let reasons = [
            DegradeReason::CheckpointCacheRead,
            DegradeReason::CheckpointCacheInvalid,
            DegradeReason::CheckpointCacheWrite,
            DegradeReason::JournalRead,
            DegradeReason::JournalWrite,
        ];
        let mut tags: Vec<&str> = reasons.iter().map(|r| r.tag()).collect();
        let n = tags.len();
        tags.dedup();
        assert_eq!(tags.len(), n, "reason tags must be distinct");
    }

    #[test]
    fn json_fragments_carry_kind_and_message() {
        let e = CellError::workload("no such file: a.elf");
        let doc = e.to_json();
        assert_eq!(
            doc.get("kind").and_then(Json::as_str),
            Some("workload"),
            "{doc:?}"
        );
        assert_eq!(
            doc.get("message").and_then(Json::as_str),
            Some("no such file: a.elf")
        );
        assert_eq!(e.to_string(), "workload: no such file: a.elf");

        let d = Degradation {
            key: "cell-0000000000000001.smtj".to_string(),
            reason: DegradeReason::JournalRead,
            detail: "bad magic".to_string(),
        };
        let doc = d.to_json();
        assert_eq!(
            doc.get("reason").and_then(Json::as_str),
            Some("journal_read_failed")
        );
        assert!(d.to_string().contains("journal_read_failed"));
    }
}
