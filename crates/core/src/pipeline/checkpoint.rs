//! Checkpoint save/restore for the whole machine: the header of the
//! format specified in [`crate::checkpoint`], then the machine's state as
//! one [`Persist`] field list — the `smt-core` structures listed here and
//! in [`super::slab`] and [`crate::regfile`], the memory hierarchy,
//! predictor and instruction sources through their own crates' lists.
//!
//! Save serializes from a `&Simulator`; restore builds a **fresh**
//! simulator from the configuration and only then overwrites its state,
//! so a failed restore (truncated, corrupt, wrong machine) never leaks a
//! half-written machine — the partially restored simulator is dropped
//! with the error. The checksum trailer is verified before the simulator
//! is returned.

use std::io::{self, Read, Write};

use smt_stats::binio::{BinReader, BinWriter};
use smt_stats::{persist, Persist};

use crate::checkpoint::{config_fingerprint, CheckpointError, FORMAT_VERSION, MAGIC};
use crate::config::SimConfig;

use super::slab::opcode;
use super::{ExecEvent, ReadyEntry, Simulator, Thread};

// The machine's checkpoint payload, in section order (see the format spec
// in `crate::checkpoint`): core machine state, per-thread state (each with
// its instruction source), the memory hierarchy, the branch predictor.
// Everything skipped is configuration, derived from it, or per-cycle
// scratch; the provenance flag is deliberately never carried
// (`mark_restored_from_checkpoint`).
persist! {
    Simulator {
        cycle, stats_base_cycle, next_seq, insts, regs, ready_q, iq_len, exec_done, pending_loads,
        stats, threads, mem, bp,
    } skip {
        cfg, frontend_limit, iq_limit, restored_from_checkpoint, fetch_rank_scratch,
        issue_rank_scratch, loss_scratch, completion_scratch, woken_scratch,
    } check Simulator::validate
}
persist! { ReadyEntry { seq, opt_until, iref, op via opcode, ti } }
persist! { ExecEvent { seq, inst } }
persist! {
    Thread {
        fetch_pc, stall_until, icache_req, in_flight, outstanding_misses, wrong_path, frontend,
        unresolved_ctrl, rob, wp_salt, committed, committed_base, map, source,
    } skip { id }
}

impl Simulator {
    /// Serializes the machine's complete deterministic state as a
    /// checkpoint (header, per-crate sections and checksum trailer; see
    /// [`crate::checkpoint`] for the format). A simulator restored from
    /// these bytes via [`restore_checkpoint`](Simulator::restore_checkpoint)
    /// is bit-equivalent to this one: running both produces byte-identical
    /// reports.
    pub fn save_checkpoint<W: Write>(&self, out: &mut W) -> io::Result<()> {
        let mut w = BinWriter::new(out as &mut dyn Write);
        w.bytes(&MAGIC)?;
        w.u32(FORMAT_VERSION)?;
        w.u64(config_fingerprint(&self.cfg))?;
        self.save(&mut w)?;
        w.finish()
    }

    /// Rebuilds a simulator from a checkpoint written by
    /// [`save_checkpoint`](Simulator::save_checkpoint).
    ///
    /// `cfg` may differ from the saving configuration **only in the fork
    /// axes** — fetch policy, issue policy, ablation set and warmup length
    /// (see [`crate::checkpoint::config_fingerprint`]); any other
    /// difference is refused with [`CheckpointError::ConfigMismatch`]. The
    /// restored machine is bit-equivalent to the saved one: continuing it
    /// produces byte-identical reports to a simulator that ran straight
    /// through under `cfg`. In particular the restore itself does **not**
    /// set the report's `restored_from_checkpoint` provenance flag — that
    /// is the caller's statement to make, via
    /// [`mark_restored_from_checkpoint`](Simulator::mark_restored_from_checkpoint).
    ///
    /// Malformed input — truncated, bit-flipped (the trailing checksum is
    /// verified), version-skewed or from a differently-shaped machine —
    /// yields a typed [`CheckpointError`], never a panic, and never a
    /// partially-restored simulator.
    ///
    /// # Panics
    ///
    /// Panics only where [`SimConfig::build`] does: on a degenerate
    /// configuration (no threads, zero-width structures).
    pub fn restore_checkpoint<R: Read>(
        cfg: SimConfig,
        input: &mut R,
    ) -> Result<Simulator, CheckpointError> {
        let mut r = BinReader::new(input as &mut dyn Read);
        let mut magic = [0u8; 8];
        r.bytes(&mut magic)?;
        if magic != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        let expected = config_fingerprint(&cfg);
        let found = r.u64()?;
        if found != expected {
            return Err(CheckpointError::ConfigMismatch { expected, found });
        }
        let mut sim = cfg.build();
        sim.restore(&mut r)?;
        // Only now is the stream known to be intact end to end.
        r.finish()?;
        Ok(sim)
    }

    /// Rejects restored handles that name no slab slot and rename maps that
    /// name no register: the cross-structure facts no one field list sees.
    fn validate(&self) -> io::Result<()> {
        let slab = &self.insts;
        for file in &self.regs {
            file.waiters().try_for_each(|c| slab.check_ref(c.slot()))?;
        }
        self.ready_q
            .iter()
            .try_for_each(|e| slab.check_ref(e.iref))?;
        self.exec_done
            .iter()
            .flatten()
            .try_for_each(|e| slab.check_ref(e.inst.slot()))?;
        self.pending_loads
            .loads()
            .try_for_each(|l| slab.check_ref(l.slot()))?;
        for t in self.threads.iter() {
            t.frontend
                .iter()
                .try_for_each(|&(i, _)| slab.check_ref(i))?;
            t.rob.iter().try_for_each(|&i| slab.check_ref(i))?;
            t.map.validate(&self.regs)?;
        }
        Ok(())
    }

    /// Forks a measurement cell off a warmed checkpoint — the one place the
    /// fork sequence is written:
    /// [`restore_checkpoint`](Simulator::restore_checkpoint) under `cfg`,
    /// [`mark_restored_from_checkpoint`](Simulator::mark_restored_from_checkpoint),
    /// then [`reset_stats`](Simulator::reset_stats), so the machine comes
    /// back with its provenance flag set and a fresh measurement window
    /// open at the checkpoint's cycle. The bytes are fully consumed: a
    /// caller may drop the buffer before the measured run.
    ///
    /// # Errors
    ///
    /// Whatever [`restore_checkpoint`](Simulator::restore_checkpoint)
    /// refuses.
    pub fn fork_checkpoint(
        cfg: SimConfig,
        mut checkpoint: &[u8],
    ) -> Result<Simulator, CheckpointError> {
        let mut sim = Simulator::restore_checkpoint(cfg, &mut checkpoint)?;
        sim.mark_restored_from_checkpoint();
        sim.reset_stats();
        Ok(sim)
    }

    /// Marks this simulator's report as restored-from-checkpoint
    /// provenance (the `restored_from_checkpoint` report field/JSON key).
    ///
    /// Deliberately **not** set by
    /// [`restore_checkpoint`](Simulator::restore_checkpoint) itself:
    /// restoration must be bit-invisible, and whether a warm start came
    /// from a checkpoint is a fact about the *experiment pipeline*, which
    /// is therefore the layer that states it.
    pub fn mark_restored_from_checkpoint(&mut self) {
        self.restored_from_checkpoint = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_workload::Benchmark;

    fn cfg() -> SimConfig {
        SimConfig::new().with_benchmarks(vec![Benchmark::Espresso, Benchmark::Eqntott], 11)
    }

    fn checkpoint_of(sim: &Simulator) -> Vec<u8> {
        let mut bytes = Vec::new();
        sim.save_checkpoint(&mut bytes).expect("vec write");
        bytes
    }

    #[test]
    fn roundtrip_is_bit_equivalent_mid_run() {
        // Checkpoint at an odd, mid-flight cycle — instructions in every
        // pipeline stage, misses outstanding — and compare continuing the
        // original against continuing the restored copy.
        let mut sim = cfg().build();
        for _ in 0..1_237 {
            sim.step_cycle();
        }
        let bytes = checkpoint_of(&sim);
        let mut restored = Simulator::restore_checkpoint(cfg(), &mut bytes.as_slice())
            .expect("restore must succeed");
        assert_eq!(restored.cycle(), sim.cycle());
        let a = sim.run(2_000);
        let b = restored.run(2_000);
        assert_eq!(
            a.to_json().render(),
            b.to_json().render(),
            "restored simulator diverged from the original"
        );
    }

    #[test]
    fn restore_into_different_fork_axis_succeeds() {
        let mut sim = cfg().build();
        for _ in 0..500 {
            sim.step_cycle();
        }
        let bytes = checkpoint_of(&sim);
        let forked = cfg()
            .with_fetch(Box::new(crate::policy::RoundRobin))
            .with_ablation(crate::Ablation::PerfectICache);
        let mut restored = Simulator::restore_checkpoint(forked, &mut bytes.as_slice())
            .expect("fork axes must not invalidate the fingerprint");
        let report = restored.run(500);
        assert_eq!(report.fetch_policy, "RR");
        assert!(report.total_committed() > 0);
    }

    #[test]
    fn restore_rejects_wrong_machine() {
        let sim = cfg().build();
        let bytes = checkpoint_of(&sim);
        let other = cfg().with_seed(99);
        match Simulator::restore_checkpoint(other, &mut bytes.as_slice()) {
            Err(CheckpointError::ConfigMismatch { .. }) => {}
            Err(e) => panic!("expected ConfigMismatch, got {e}"),
            Ok(_) => panic!("expected ConfigMismatch, restore succeeded"),
        }
    }

    #[test]
    fn restore_rejects_bad_magic_and_version() {
        let sim = cfg().build();
        let mut bytes = checkpoint_of(&sim);
        let mut garbled = bytes.clone();
        garbled[0] ^= 0xff;
        assert!(matches!(
            Simulator::restore_checkpoint(cfg(), &mut garbled.as_slice()),
            Err(CheckpointError::BadMagic)
        ));
        // Bump the version field (bytes 8..12).
        bytes[8] = bytes[8].wrapping_add(1);
        assert!(matches!(
            Simulator::restore_checkpoint(cfg(), &mut bytes.as_slice()),
            Err(CheckpointError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn corruption_and_truncation_yield_typed_errors_never_panics() {
        let mut sim = cfg().build();
        for _ in 0..300 {
            sim.step_cycle();
        }
        let bytes = checkpoint_of(&sim);
        // Flip one bit in every region of the stream (sampled stride keeps
        // the test fast); each must surface as a typed error.
        let mut offset = 20; // past magic + version (exercised above)
        while offset < bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[offset] ^= 0x10;
            match Simulator::restore_checkpoint(cfg(), &mut corrupt.as_slice()) {
                Ok(_) => panic!("bit flip at byte {offset} went undetected"),
                Err(
                    CheckpointError::Corrupt(_)
                    | CheckpointError::Truncated
                    | CheckpointError::ConfigMismatch { .. },
                ) => {}
                Err(e) => panic!("unexpected error kind for bit flip at {offset}: {e}"),
            }
            offset += 97;
        }
        // Truncation at every region boundary.
        for cut in [bytes.len() - 1, bytes.len() / 2, 21] {
            let mut short = bytes.clone();
            short.truncate(cut);
            match Simulator::restore_checkpoint(cfg(), &mut short.as_slice()) {
                Err(CheckpointError::Truncated | CheckpointError::Corrupt(_)) => {}
                Err(e) => panic!("truncation at {cut} mishandled: {e}"),
                Ok(_) => panic!("truncation at {cut} went undetected"),
            }
        }
    }

    #[test]
    fn restore_does_not_set_the_provenance_flag() {
        let mut sim = cfg().build();
        for _ in 0..100 {
            sim.step_cycle();
        }
        let bytes = checkpoint_of(&sim);
        let mut restored =
            Simulator::restore_checkpoint(cfg(), &mut bytes.as_slice()).expect("restore");
        assert!(
            !restored.report().restored_from_checkpoint,
            "restore itself must stay bit-invisible"
        );
        restored.mark_restored_from_checkpoint();
        assert!(restored.report().restored_from_checkpoint);
    }
}
