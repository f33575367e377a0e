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
//! # Format specification (version 1)
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
//!    list), both physical register files (free lists, scoreboard records
//!    with inline wakeup lists, spill lists), the age-sorted ready set,
//!    instruction-queue occupancy, the writeback calendar ring, the
//!    pending-load table, fetch/issue/prediction/squash statistics.
//! 2. Per-thread state: fetch PC, stall/miss gates, live
//!    ICOUNT/BRCOUNT/MISSCOUNT counters, front-end queue, unresolved
//!    control list, ROB, wrong-path salt, commit counters, rename map,
//!    and the thread's `smt-workload` oracle section (PC, executed count,
//!    per-branch/per-memory counters, stride state, return stack).
//! 3. `smt-mem`: statistics, cache tag/LRU/dirty arrays, TLBs (including
//!    the last-translation filters), bank/bus reservations, MSHRs with
//!    waiter lists, scheduled completions/fills/TLB walks, request-id
//!    counter.
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
//! # Versioning rules
//!
//! The format version is bumped whenever any section's byte layout
//! changes — including a change to [`smt_isa::Opcode::code`] numbering or
//! to a crate's internal structure that feeds a section. Readers accept
//! exactly their own version ([`CheckpointError::UnsupportedVersion`]
//! otherwise); checkpoints are warm-start caches, cheap to regenerate, so
//! no cross-version migration is attempted.
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

use std::fmt;
use std::io;

use smt_branch::PredictorConfig;
use smt_mem::{CacheParams, MemConfig};
use smt_stats::binio::BinWriter;

use crate::config::{SimConfig, WorkloadSpec};

/// Magic bytes opening every checkpoint stream.
pub const MAGIC: [u8; 8] = *b"SMT1CKPT";

/// Current checkpoint format version (see the module docs for the
/// versioning rules).
pub const FORMAT_VERSION: u32 = 1;

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

/// Fingerprint of the state-shaping configuration (see the module docs
/// for exactly what is covered and why the fork axes — fetch/issue
/// policies, ablations, warmup length — are excluded).
///
/// Every configuration struct is destructured without `..`: a new field
/// does not compile until it either enters the hash or is bound to `_`
/// below as a fork axis. Left out silently, it would alias two different
/// machines onto one `--checkpoint-dir` entry and one journal key.
pub fn config_fingerprint(cfg: &SimConfig) -> u64 {
    let SimConfig {
        workloads,
        seed,
        // The fork axes: one warmed checkpoint restores under any of them.
        fetch: _,
        issue: _,
        warmup_cycles: _,
        ablations: _,
        partition,
        mem,
        predictor,
        iq_entries,
        extra_phys_regs,
        int_units,
        ldst_units,
        fp_units,
        decode_width,
        commit_width,
        frontend_depth,
        decode_cycles,
        misfetch_penalty,
        // An implementation granularity, not part of the machine: every
        // value produces bit-identical results (`tests/block_rename.rs`).
        fetch_block_chunk: _,
    } = cfg;
    let MemConfig {
        icache,
        dcache,
        l2,
        l3,
        itlb_entries,
        dtlb_entries,
        page_bytes,
        mshrs,
        infinite_bandwidth,
        perfect_icache,
    } = mem;
    let PredictorConfig {
        btb_entries,
        btb_assoc,
        pht_entries,
        ras_entries,
        thread_tagged_btb,
        per_thread_ras,
    } = predictor;
    let mut w = BinWriter::new(Vec::new());
    let r: io::Result<()> = (|| {
        // Workload identity, by the tag rule in the module docs.
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
        w.u64(*seed)?;
        w.u8(partition.threads_per_cycle)?;
        w.u8(partition.insts_per_thread)?;
        for level in [icache, dcache, l2, l3] {
            let CacheParams {
                size_bytes,
                assoc,
                line_bytes,
                banks,
                accesses_per_cycle,
                cycles_per_access,
                transfer_cycles,
                fill_cycles,
                latency_to_next,
            } = level;
            w.len(*size_bytes)?;
            w.len(*assoc)?;
            w.len(*line_bytes)?;
            w.len(*banks)?;
            w.u32(*accesses_per_cycle)?;
            w.u64(*cycles_per_access)?;
            w.u64(*transfer_cycles)?;
            w.u64(*fill_cycles)?;
            w.u64(*latency_to_next)?;
        }
        w.len(*itlb_entries)?;
        w.len(*dtlb_entries)?;
        w.u64(*page_bytes)?;
        w.len(*mshrs)?;
        w.bool(*infinite_bandwidth)?;
        w.bool(*perfect_icache)?;
        w.len(*btb_entries)?;
        w.len(*btb_assoc)?;
        w.len(*pht_entries)?;
        w.len(*ras_entries)?;
        w.bool(*thread_tagged_btb)?;
        w.bool(*per_thread_ras)?;
        w.len(*iq_entries)?;
        w.len(*extra_phys_regs)?;
        w.len(*int_units)?;
        w.len(*ldst_units)?;
        w.len(*fp_units)?;
        w.len(*decode_width)?;
        w.len(*commit_width)?;
        w.len(*frontend_depth)?;
        w.u64(*decode_cycles)?;
        w.u64(*misfetch_penalty)
    })();
    r.expect("writing to a Vec cannot fail");
    w.checksum()
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
