//! Checkpoint save/restore for the whole machine: the `smt-core` sections
//! of the format specified in [`crate::checkpoint`], plus the calls into
//! each state-owning crate's `save_state`/`restore_state` hook.
//!
//! Save serializes from a `&Simulator`; restore builds a **fresh**
//! simulator from the configuration and only then overwrites its state,
//! so a failed restore (truncated, corrupt, wrong machine) never leaks a
//! half-written machine — the partially restored simulator is dropped
//! with the error. The checksum trailer is verified before the simulator
//! is returned.

use std::io::{Read, Write};

use smt_stats::binio::{invalid, BinReader, BinWriter};
use smt_stats::Counters;

use crate::checkpoint::{config_fingerprint, CheckpointError, FORMAT_VERSION, MAGIC};
use crate::config::SimConfig;

use super::slab::{GenRef, InstRef, InstSlab, PendingLoads};
use super::{ExecEvent, PipelineStats, ReadyEntry, Simulator, EXEC_RING};

use smt_isa::Opcode;
use smt_mem::ReqId;

impl Simulator {
    /// Serializes the machine's complete deterministic state as a
    /// checkpoint (header, per-crate sections and checksum trailer; see
    /// [`crate::checkpoint`] for the format). A simulator restored from
    /// these bytes via [`restore_checkpoint`](Simulator::restore_checkpoint)
    /// is bit-equivalent to this one: running both produces byte-identical
    /// reports.
    pub fn save_checkpoint<W: Write>(&self, out: &mut W) -> std::io::Result<()> {
        // The stream is coerced to `&mut dyn Write` up front so the
        // object-safe `WorkloadSource::save_state` hook can write each
        // thread's section through the same writer — one running checksum
        // covers the whole stream, and the byte layout is unchanged.
        let mut w = BinWriter::new(out as &mut dyn Write);
        w.bytes(&MAGIC)?;
        w.u32(FORMAT_VERSION)?;
        w.u64(config_fingerprint(&self.cfg))?;

        // Section 1: core machine state.
        w.u64(self.cycle)?;
        w.u64(self.stats_base_cycle)?;
        w.u64(self.next_seq)?;
        self.insts.save_state(&mut w)?;
        self.regs[0].save_state(&mut w)?;
        self.regs[1].save_state(&mut w)?;
        w.len(self.ready_q.len())?;
        for e in &self.ready_q {
            w.u64(e.seq)?;
            w.u64(e.opt_until)?;
            w.u32(e.iref.raw())?;
            w.u8(e.op.code())?;
            w.u8(e.ti)?;
        }
        w.len(self.iq_len[0])?;
        w.len(self.iq_len[1])?;
        for bucket in &self.exec_done {
            w.len(bucket.len())?;
            for ev in bucket {
                w.u64(ev.seq)?;
                w.u32(ev.inst.slot().raw())?;
                w.u32(ev.inst.generation())?;
            }
        }
        self.pending_loads.save_state(&mut w)?;
        self.stats.write_bin(&mut w)?;

        // Section 2: per-thread state (including each oracle).
        w.len(self.threads.len())?;
        for t in &self.threads {
            w.u64(t.fetch_pc)?;
            w.u64(t.stall_until)?;
            match t.icache_req {
                None => w.bool(false)?,
                Some(req) => {
                    w.bool(true)?;
                    w.u64(req.0)?;
                }
            }
            w.u32(t.in_flight)?;
            w.u32(t.outstanding_misses)?;
            w.bool(t.wrong_path)?;
            w.len(t.frontend.len())?;
            for &(iref, ready_at) in &t.frontend {
                w.u32(iref.raw())?;
                w.u64(ready_at)?;
            }
            w.len(t.unresolved_ctrl.len())?;
            for &seq in &t.unresolved_ctrl {
                w.u64(seq)?;
            }
            w.len(t.rob.len())?;
            for iref in &t.rob {
                w.u32(iref.raw())?;
            }
            w.u64(t.wp_salt)?;
            w.u64(t.committed)?;
            w.u64(t.committed_base)?;
            t.map.save_state(&mut w)?;
            t.source.save_state(&mut w)?;
        }

        // Sections 3 and 4: the memory hierarchy and branch predictor
        // serialize themselves.
        self.mem.save_state(&mut w)?;
        self.bp.save_state(&mut w)?;
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
        // Mirrors the save side: the stream is read as `&mut dyn Read` so
        // each thread's `WorkloadSource::restore_state` hook can consume
        // its section through the shared reader/checksum.
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

        // Section 1: core machine state.
        sim.cycle = r.u64()?;
        sim.stats_base_cycle = r.u64()?;
        sim.next_seq = r.u64()?;
        sim.insts = InstSlab::restore_state(&mut r)?;
        let slab_len = sim.insts.hot.len();
        let read_iref = |r: &mut BinReader<&mut dyn Read>| -> std::io::Result<InstRef> {
            let i = r.u32()?;
            if (i as usize) < slab_len {
                Ok(InstRef::from_raw(i))
            } else {
                Err(invalid(format!("instruction handle {i} outside the slab")))
            }
        };
        let read_genref = |r: &mut BinReader<&mut dyn Read>| -> std::io::Result<GenRef> {
            let slot = r.u32()?;
            // NULL placeholders carry slot 0 even in an empty slab.
            if slot as usize >= slab_len.max(1) {
                return Err(invalid(format!("event handle {slot} outside the slab")));
            }
            let gen = r.u32()?;
            Ok(GenRef::from_parts(InstRef::from_raw(slot), gen))
        };
        sim.regs[0].restore_state(&mut r, slab_len)?;
        sim.regs[1].restore_state(&mut r, slab_len)?;
        let n_ready = r.len()?;
        sim.ready_q.clear();
        for _ in 0..n_ready {
            let seq = r.u64()?;
            let opt_until = r.u64()?;
            let iref = read_iref(&mut r)?;
            let op_code = r.u8()?;
            let op = Opcode::from_code(op_code)
                .ok_or_else(|| invalid(format!("invalid opcode code {op_code}")))?;
            let ti = r.u8()?;
            sim.ready_q.push(ReadyEntry {
                seq,
                opt_until,
                iref,
                op,
                ti,
            });
        }
        sim.iq_len = [r.len()?, r.len()?];
        for bucket in &mut sim.exec_done {
            bucket.clear();
        }
        for b in 0..EXEC_RING {
            let n = r.len()?;
            for _ in 0..n {
                let seq = r.u64()?;
                let inst = read_genref(&mut r)?;
                sim.exec_done[b].push(ExecEvent { seq, inst });
            }
        }
        sim.pending_loads = PendingLoads::restore_state(&mut r, slab_len)?;
        sim.stats = PipelineStats::read_bin(&mut r)?;

        // Section 2: per-thread state.
        let n_threads = r.len()?;
        if n_threads != sim.threads.len() {
            return Err(CheckpointError::Corrupt(format!(
                "checkpoint has {n_threads} threads, configuration expects {}",
                sim.threads.len()
            )));
        }
        let phys = smt_isa::LOGICAL_REGS * sim.threads.len() + sim.cfg.extra_phys_regs;
        for t in &mut sim.threads {
            t.fetch_pc = r.u64()?;
            t.stall_until = r.u64()?;
            t.icache_req = if r.bool()? {
                Some(ReqId(r.u64()?))
            } else {
                None
            };
            t.in_flight = r.u32()?;
            t.outstanding_misses = r.u32()?;
            t.wrong_path = r.bool()?;
            let n = r.len()?;
            t.frontend.clear();
            for _ in 0..n {
                let iref = read_iref(&mut r)?;
                let ready_at = r.u64()?;
                t.frontend.push_back((iref, ready_at));
            }
            let n = r.len()?;
            t.unresolved_ctrl.clear();
            for _ in 0..n {
                t.unresolved_ctrl.push(r.u64()?);
            }
            let n = r.len()?;
            t.rob.clear();
            for _ in 0..n {
                t.rob.push_back(read_iref(&mut r)?);
            }
            t.wp_salt = r.u64()?;
            t.committed = r.u64()?;
            t.committed_base = r.u64()?;
            t.map.restore_state(&mut r, [phys, phys])?;
            t.source.restore_state(&mut r)?;
        }

        // Sections 3 and 4.
        sim.mem.restore_state(&mut r)?;
        sim.bp.restore_state(&mut r)?;

        // Only now is the stream known to be intact end to end.
        r.finish()?;
        Ok(sim)
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
