//! Warmed-state checkpoints: the versioned binary format behind
//! [`Simulator::save_checkpoint`] / [`Simulator::restore_checkpoint`].
//!
//! A checkpoint captures the *complete deterministic state* of a
//! simulator — everything that influences future cycles — so that a
//! restored machine is bit-equivalent to one that simulated straight
//! through. The paper's methodology wants every (fetch policy × issue
//! policy × ablation) cell measured from the same warmed machine;
//! checkpoints let a study pay for each warmup once and fork it across
//! the whole cross-product (see the `smt-experiments` crate).
//!
//! # Format specification (version 3)
//!
//! All integers are little-endian. The whole stream (header included) is
//! covered by a running FNV-1a checksum whose 8-byte value trails the
//! payload (`smt_stats::binio`); a reader verifies it before trusting
//! anything it decoded.
//!
//! **Header** (20 bytes):
//!
//! | bytes | field                                                      |
//! |-------|------------------------------------------------------------|
//! | 8     | magic `b"SMT1CKPT"`                                        |
//! | 4     | format version (`u32`, currently [`FORMAT_VERSION`])       |
//! | 8     | config fingerprint (`u64`, [`config_fingerprint`])         |
//!
//! **Per-crate sections**, in fixed order. Each structure's bytes are its
//! `smt_stats::persist!` field list, declared next to the structure in the
//! owning crate, so layout knowledge stays where the state lives and one
//! list drives both save and restore:
//!
//! 1. `smt-core` machine: cycle / measurement-window base / sequence
//!    counter, the instruction slab (hot + cold records and the free
//!    list), both physical register files (free lists and scoreboard
//!    records), fetch/issue/prediction/squash statistics.
//! 2. Per-thread state: fetch PC, stall/miss gates, wrong-path flag, ROB,
//!    wrong-path salt, commit counters, rename map, and the thread's
//!    `smt-workload` oracle section (PC, executed count,
//!    per-branch/per-memory counters, return stack).
//! 3. `smt-mem`: statistics, cache tag/LRU/dirty arrays, TLBs (per-thread
//!    last slots, packed page/thread keys and their LRU stamps),
//!    bank/bus reservations, MSHRs (one per outstanding miss: line, side,
//!    completion cycle, waiter list), scheduled delay-only TLB walks,
//!    undrained completions, request-id counter.
//! 4. `smt-branch`: BTB entries, PHT counters, return address stacks,
//!    per-thread global histories, predictor statistics.
//!
//! **Trailer** (8 bytes): the FNV-1a checksum of every preceding byte.
//!
//! Variable-length lists are length-prefixed; readers re-validate every
//! length, index and enum discriminant against the configuration, so a
//! corrupt or adversarial stream produces a typed [`CheckpointError`],
//! never a panic.
//!
//! What is recountable from the slab, the ROBs and the register
//! scoreboard is not stored: the live ICOUNT/BRCOUNT/MISSCOUNT counters,
//! front-end lengths, unresolved control lists, instruction-queue
//! occupancy, the ready set, the wakeup lists, the writeback calendar and
//! the pending loads (a waiting load's record holds its request id), and
//! the oracle's loop phases and stride offsets (functions of its
//! counters). Restore rebuilds them in one walk over each ROB, which also
//! refuses a machine the pipeline could not have produced: a record in
//! another thread's ROB, registers out of range or not conserved, and the
//! like.
//!
//! # Versioning rules
//!
//! The format version is bumped whenever any section's byte layout
//! changes — including a change to [`smt_isa::Opcode::code`] numbering or
//! to a crate's internal structure that feeds a section. Readers accept
//! exactly their own version ([`CheckpointError::UnsupportedVersion`]
//! otherwise); checkpoints are warm-start caches, cheap to regenerate, so
//! no cross-version migration is attempted. Version 2 replaced version
//! 1's front-end queue, open-addressed TLB tables and separate miss
//! completion and fill lists; version 3 dropped version 2's scheduler
//! bookkeeping (counters, ready set, calendar, pending-load table, wakeup
//! lists), oracle loop phases and stride offsets, and `smt-mem`'s
//! earliest-walk cycle, giving the layout above.
//!
//! # The config fingerprint
//!
//! [`config_fingerprint`] hashes the *state-shaping* configuration: the
//! workload (program identities and seed), fetch partition, memory and
//! predictor geometry, queue/register/unit sizing and front-end timing.
//! It deliberately **excludes the fork axes** — fetch policy, issue
//! policy, ablation set and warmup length — so one warmed checkpoint can
//! be restored under any policy/ablation combination of the same machine.
//! A mismatch means the checkpoint describes a different machine and
//! restoration is refused ([`CheckpointError::ConfigMismatch`]).
//!
//! The hashed bytes are `SimConfig`'s `persist!` field list, declared in
//! this module, which reaches `MemConfig`, `CacheParams` and
//! `PredictorConfig` through the lists declared next to them in
//! `smt-mem` and `smt-branch`. The fork axes are that list's skip set, so
//! a new configuration field does not compile until it is hashed or
//! named a fork axis. Field order is byte order: moving a field moves
//! every fingerprint, which orphans existing `--checkpoint-dir` entries
//! and journal keys (`tests/riscv_e2e.rs` pins the values).
//!
//! The workload is the entry count, then per entry its name followed by
//! what pins its instructions: nothing more for a
//! [`WorkloadSpec::Benchmark`] (regenerated from name, seed and slot), the
//! entry PC and the instruction/branch/memory counts for a
//! [`WorkloadSpec::Program`], the image fingerprint for a
//! [`WorkloadSpec::Elf`] or [`WorkloadSpec::Trace`]. One tag rule: when
//! every entry is a benchmark, or every entry is a program, the entries are
//! written as they are; any other list prefixes each entry with a kind
//! byte (0 benchmark, 1 program, 2 ELF, 3 trace). The two untagged shapes
//! are the encodings synthetic-only machines had before mixed backends
//! existed, so their checkpoints and journal keys still resolve.
//!
//! [`Simulator::save_checkpoint`]: crate::Simulator::save_checkpoint
//! [`Simulator::restore_checkpoint`]: crate::Simulator::restore_checkpoint
//! [`WorkloadSpec::Benchmark`]: crate::WorkloadSpec::Benchmark
//! [`WorkloadSpec::Program`]: crate::WorkloadSpec::Program
//! [`WorkloadSpec::Elf`]: crate::WorkloadSpec::Elf
//! [`WorkloadSpec::Trace`]: crate::WorkloadSpec::Trace

use std::fmt;
use std::io;

use smt_stats::binio::BinWriter;
use smt_stats::{persist, Persist};

use crate::config::SimConfig;

/// Magic bytes opening every checkpoint stream.
pub const MAGIC: [u8; 8] = *b"SMT1CKPT";

/// Current checkpoint format version (see the module docs for the
/// versioning rules).
pub const FORMAT_VERSION: u32 = 3;

/// Why a checkpoint could not be written or restored.
///
/// Restoration never panics on bad input: every malformed stream —
/// truncated, bit-flipped, wrong-machine or future-versioned — maps to
/// one of these variants, and callers (e.g. `smt_exp --checkpoint-dir`)
/// can fall back to a cold warmup.
#[derive(Debug)]
pub enum CheckpointError {
    /// An underlying I/O failure (reading or writing the stream).
    Io(io::Error),
    /// The stream does not start with [`MAGIC`] — not a checkpoint.
    BadMagic,
    /// The stream's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The header fingerprint does not match the restoring configuration:
    /// the checkpoint was taken on a differently-shaped machine.
    ConfigMismatch {
        /// Fingerprint of the restoring configuration.
        expected: u64,
        /// Fingerprint found in the header.
        found: u64,
    },
    /// The stream decoded inconsistently (invalid lengths, indices, enum
    /// codes, or a checksum mismatch) — corrupt data.
    Corrupt(String),
    /// The stream ended before the format said it should.
    Truncated,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion { found } => write!(
                f,
                "unsupported checkpoint format version {found} (this build reads {FORMAT_VERSION})"
            ),
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint was taken on a different machine \
                 (config fingerprint {found:#018x}, expected {expected:#018x})"
            ),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CheckpointError::Truncated => write!(f, "truncated checkpoint"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    /// Classifies low-level read errors: an unexpected end of stream is a
    /// truncation, decode-layer `InvalidData` is corruption, anything
    /// else stays an I/O error.
    fn from(e: io::Error) -> CheckpointError {
        match e.kind() {
            io::ErrorKind::UnexpectedEof => CheckpointError::Truncated,
            io::ErrorKind::InvalidData => CheckpointError::Corrupt(e.to_string()),
            _ => CheckpointError::Io(e),
        }
    }
}

/// Fingerprint of the state-shaping configuration: the FNV-1a of its
/// `persist!` field list (see the module docs for exactly what is covered
/// and why the fork axes — fetch/issue policies, ablations, warmup length
/// — are excluded).
pub fn config_fingerprint(cfg: &SimConfig) -> u64 {
    let mut w = BinWriter::new(io::sink());
    w.erased(|w| cfg.save(w))
        .expect("writing to a sink cannot fail");
    w.checksum()
}

// The machine's identity, in byte order. The fork axes are skipped: one
// warmed checkpoint restores under any of them. A new field does not
// compile until it is listed (it shapes the machine) or skipped (it is a
// fork axis); left out silently, it would alias two different machines
// onto one `--checkpoint-dir` entry and one journal key.
persist! {
    SimConfig {
        workloads via workload_identity, seed, partition, mem, predictor, iq_entries,
        extra_phys_regs, int_units, ldst_units, fp_units, decode_width, commit_width,
        frontend_depth, decode_cycles, misfetch_penalty,
    } skip { fetch, issue, warmup_cycles, ablations }
}

/// The workload's identity bytes, by the tag rule in the module docs.
mod workload_identity {
    use std::io::{self, Read, Write};

    use smt_stats::binio::{invalid, BinReader, BinWriter};

    use crate::config::WorkloadSpec;

    pub(super) fn save(
        workloads: &[WorkloadSpec],
        w: &mut BinWriter<&mut dyn Write>,
    ) -> io::Result<()> {
        let untagged = workloads
            .iter()
            .all(|s| matches!(s, WorkloadSpec::Benchmark(_)))
            || workloads
                .iter()
                .all(|s| matches!(s, WorkloadSpec::Program(_)));
        w.len(workloads.len())?;
        for spec in workloads {
            if !untagged {
                w.u8(match spec {
                    WorkloadSpec::Benchmark(_) => 0,
                    WorkloadSpec::Program(_) => 1,
                    WorkloadSpec::Elf(_) => 2,
                    WorkloadSpec::Trace(_) => 3,
                })?;
            }
            w.str(spec.name())?;
            match spec {
                WorkloadSpec::Benchmark(_) => {}
                WorkloadSpec::Program(p) => {
                    w.u64(p.entry())?;
                    w.len(p.len())?;
                    w.len(p.branch_count())?;
                    w.len(p.mem_count())?;
                }
                WorkloadSpec::Elf(img) => w.u64(img.fingerprint())?,
                WorkloadSpec::Trace(t) => w.u64(t.fingerprint())?,
            }
        }
        Ok(())
    }

    /// A configuration is hashed, never read back.
    pub(super) fn restore(
        _: &mut [WorkloadSpec],
        _: &mut BinReader<&mut dyn Read>,
    ) -> io::Result<()> {
        Err(invalid("a workload list is not decoded from a stream"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FetchPartition, RoundRobin, SpecLast};
    use smt_workload::Benchmark;

    fn base() -> SimConfig {
        SimConfig::new().with_benchmarks(vec![Benchmark::Espresso, Benchmark::Eqntott], 11)
    }

    #[test]
    fn fingerprint_ignores_fork_axes() {
        let fp = config_fingerprint(&base());
        assert_eq!(
            fp,
            config_fingerprint(
                &base()
                    .with_fetch(Box::new(RoundRobin))
                    .with_issue(Box::new(SpecLast))
                    .with_warmup(10_000)
                    .with_ablations(crate::Ablations::all())
            ),
            "policies, warmup and ablations are fork axes"
        );
    }

    #[test]
    fn fingerprint_covers_state_shaping_config() {
        let fp = config_fingerprint(&base());
        assert_ne!(fp, config_fingerprint(&base().with_seed(12)));
        assert_ne!(
            fp,
            config_fingerprint(&base().with_partition(FetchPartition::new(4, 4)))
        );
        assert_ne!(
            fp,
            config_fingerprint(
                &base().with_benchmarks(vec![Benchmark::Espresso, Benchmark::Alvinn], 11)
            )
        );
        let mut small_iq = base();
        small_iq.iq_entries = 8;
        assert_ne!(fp, config_fingerprint(&small_iq));
        let mut tiny_btb = base();
        tiny_btb.predictor.btb_entries = 16;
        assert_ne!(fp, config_fingerprint(&tiny_btb));
        let mut slow_mem = base();
        slow_mem.mem.l3.latency_to_next = 200;
        assert_ne!(fp, config_fingerprint(&slow_mem));
    }

    #[test]
    fn io_errors_classify_into_typed_variants() {
        let eof = io::Error::new(io::ErrorKind::UnexpectedEof, "eof");
        assert!(matches!(
            CheckpointError::from(eof),
            CheckpointError::Truncated
        ));
        let bad = smt_stats::binio::invalid("bad byte");
        assert!(matches!(
            CheckpointError::from(bad),
            CheckpointError::Corrupt(_)
        ));
        let other = io::Error::new(io::ErrorKind::PermissionDenied, "nope");
        assert!(matches!(
            CheckpointError::from(other),
            CheckpointError::Io(_)
        ));
        // Display strings are stable enough to grep in logs.
        assert!(CheckpointError::BadMagic.to_string().contains("magic"));
        assert!(CheckpointError::UnsupportedVersion { found: 99 }
            .to_string()
            .contains("99"));
    }
}
