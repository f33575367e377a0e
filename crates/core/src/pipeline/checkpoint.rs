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

use smt_isa::LOGICAL_REGS;
use smt_mem::ReqId;
use smt_stats::binio::{invalid, BinReader, BinWriter};
use smt_stats::{persist, Persist};

use crate::checkpoint::{config_fingerprint, CheckpointError, FORMAT_VERSION, MAGIC};
use crate::config::SimConfig;

use super::slab::{preg_class, preg_index, InstState, LREG_NONE, PREG_NONE};
use super::{ExecEvent, ReadyEntry, Simulator, Thread, EXEC_RING};

// The machine's checkpoint payload, in section order (see the format spec
// in `crate::checkpoint`): core machine state, per-thread state (each with
// its instruction source), the memory hierarchy, the branch predictor.
// Everything skipped is configuration, derived from it, per-cycle scratch,
// or scheduler bookkeeping that `Simulator::recount` rebuilds from the
// slab, the ROBs and the register scoreboard; the provenance flag is
// deliberately never carried (`mark_restored_from_checkpoint`).
persist! {
    Simulator {
        cycle, stats_base_cycle, next_seq, insts, regs, stats, threads, mem, bp,
    } skip {
        cfg, frontend_limit, iq_limit, ready_q, iq_len, exec_done, pending_loads,
        restored_from_checkpoint, fetch_rank_scratch, issue_rank_scratch, loss_scratch,
        completion_scratch, woken_scratch,
    } check Simulator::recount
}
persist! {
    Thread {
        fetch_pc, stall_until, icache_req, wrong_path, rob, wp_salt, committed, committed_base,
        map, source,
    } skip { id, in_flight, outstanding_misses, frontend_len, unresolved_ctrl }
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

    /// Rebuilds the scheduler bookkeeping a checkpoint leaves out — each
    /// thread's ICOUNT, MISSCOUNT, front-end length and unresolved control
    /// list, the IQ occupancy, the ready set, the wakeup lists, the
    /// writeback calendar and the pending loads — in one walk over each
    /// thread's ROB, on the freshly built machine restore fills (whose
    /// bookkeeping is empty). Generation-dead artifacts (the events,
    /// pending loads and waiters of squashed instructions) are not rebuilt:
    /// they were inert.
    ///
    /// The walk visits every live record, so it is also where restore
    /// refuses what the pipeline could not have produced and would later
    /// trip over: a slot held twice or leaked, a record in another thread's
    /// ROB, sequence numbers that do not rise, a register outside its file,
    /// a renamed record behind a decoding one, a writeback outside the
    /// calendar, an outstanding-operand count that disagrees with the
    /// scoreboard, wrong-path records anywhere but behind the one
    /// unresolved mispredicted branch, a wait on a request the memory
    /// hierarchy never issued, a rename chain that does not end in the
    /// map, or registers that are not conserved.
    fn recount(&mut self) -> io::Result<()> {
        self.insts
            .check_held(self.threads.iter().flat_map(|t| t.rob.iter()))?;
        let (cycle, next_seq) = (self.cycle, self.next_seq);
        let pht_entries = self.cfg.predictor.pht_entries;
        let mut held: [Vec<u16>; 2] = Default::default();
        for (ti, t) in self.threads.iter_mut().enumerate() {
            let corrupt = |what: &str| Err(invalid(format!("thread {ti}: {what}")));
            // The last destination renamed for each logical register: the
            // next renaming of that register must name it as its previous
            // mapping, and the map must hold the last one.
            let mut last_dest = [[PREG_NONE; LOGICAL_REGS]; 2];
            let mut prev_seq = None;
            // Fetch leaves the correct path only at a mispredicted branch,
            // and that branch's resolution squashes everything since.
            let mut diverged = false;
            for &iref in &t.rob {
                let h = self.insts.hot[iref.index()];
                let (tag, state) = (self.insts.tag(iref), h.state());
                if usize::from(h.ti) != ti || prev_seq >= Some(h.seq) || h.seq >= next_seq {
                    return corrupt("a record is out of place in its ROB");
                }
                prev_seq = Some(h.seq);
                let pregs = [h.dest_phys, h.prev_phys, h.srcs_phys[0], h.srcs_phys[1]];
                let in_file = |p: u16| usize::from(preg_index(p)) < self.regs[preg_class(p)].size();
                if !pregs.iter().all(|&p| p == PREG_NONE || in_file(p)) {
                    return corrupt("a record names a register outside its file");
                }
                if h.wrong_path() != diverged {
                    return corrupt("a wrong-path record outside a mispredict's shadow");
                }
                if h.op.is_control() && state != InstState::Done {
                    t.unresolved_ctrl.push(h.seq);
                    let c = &self.insts.cold[iref.index()];
                    let trains = !h.wrong_path() && h.op.is_cond_branch();
                    if trains && c.pht_index as usize >= pht_entries {
                        return corrupt("a branch trains a counter outside the PHT");
                    }
                    // Fetch resumes where the source still stands.
                    if h.mispredict() && c.next_pc != t.source.pc() {
                        return corrupt("a mispredicted branch resumes off its source's path");
                    }
                    diverged |= h.mispredict();
                }
                if state == InstState::Decoding {
                    t.frontend_len += 1;
                    t.in_flight += 1;
                    continue;
                } else if t.frontend_len > 0 {
                    return corrupt("a renamed record sits behind a decoding one");
                }
                if h.dest_log != LREG_NONE {
                    let class = usize::from(h.dest_log >> 7);
                    let last = &mut last_dest[class][usize::from(h.dest_log & 0x7f)];
                    if preg_class(h.dest_phys) != class
                        || preg_class(h.prev_phys) != class
                        || *last != PREG_NONE && *last != h.prev_phys
                    {
                        return corrupt("a rename chain is broken");
                    }
                    *last = h.dest_phys;
                    held[class].push(preg_index(h.prev_phys));
                }
                match state {
                    InstState::Decoding | InstState::Done => {}
                    InstState::Queued => {
                        t.in_flight += 1;
                        self.iq_len[h.op.queue().index()] += 1;
                        let (mut pending, mut opt_until) = (0, 0);
                        for &s in h.srcs_phys.iter().filter(|&&s| s != PREG_NONE) {
                            match self.regs[preg_class(s)].check_or_wait(preg_index(s), tag) {
                                Some(opt) => opt_until = opt_until.max(opt),
                                None => pending += 1,
                            }
                        }
                        if pending != h.pending_srcs {
                            return corrupt("an operand count disagrees with the scoreboard");
                        }
                        if pending == 0 {
                            let (seq, op, ti) = (h.seq, h.op, h.ti);
                            self.ready_q.push(ReadyEntry {
                                seq,
                                opt_until,
                                iref,
                                op,
                                ti,
                            });
                        }
                    }
                    InstState::Executing => {
                        if h.when <= cycle || h.when - cycle >= EXEC_RING as u64 {
                            return corrupt("a writeback falls outside the calendar");
                        }
                        let event = ExecEvent {
                            seq: h.seq,
                            inst: tag,
                        };
                        self.exec_done[h.when as usize % EXEC_RING].push(event);
                    }
                    InstState::WaitingMem => {
                        if !self.mem.is_outstanding(ReqId(h.when)) {
                            return corrupt("a load waits on a request never issued");
                        }
                        t.outstanding_misses += 1;
                        self.pending_loads.push((ReqId(h.when), tag));
                    }
                }
            }
            if diverged != t.wrong_path || !t.wrong_path && t.fetch_pc != t.source.pc() {
                return corrupt("its fetch state disagrees with its ROB");
            }
            if t.icache_req
                .is_some_and(|req| !self.mem.is_outstanding(req))
            {
                return corrupt("fetch waits on a request never issued");
            }
            for ((class, last), mapped) in last_dest.iter().enumerate().zip(t.map.physical()) {
                if last
                    .iter()
                    .zip(mapped)
                    .any(|(&d, &p)| d != PREG_NONE && preg_index(d) != p)
                {
                    return corrupt("a rename chain does not end in the map");
                }
                held[class].extend_from_slice(mapped);
            }
        }
        for (file, held) in self.regs.iter().zip(&held) {
            file.check_conserved(held)?;
        }
        self.ready_q.sort_unstable_by_key(|e| e.seq);
        self.pending_loads.sort_unstable_by_key(|&(req, _)| req);
        match self.pending_loads.windows(2).find(|w| w[0].0 == w[1].0) {
            Some(w) => Err(invalid(format!("two loads wait on request {:?}", w[0].0))),
            None => Ok(()),
        }
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
    use std::collections::BTreeSet;

    use super::super::slab::{GenRef, HotInst, InstRef};
    use super::*;
    use crate::WorkloadSpec;
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

    /// The first record, in thread and ROB order, that `pick` accepts.
    fn record(sim: &mut Simulator, pick: impl Fn(&HotInst) -> bool) -> &mut HotInst {
        let slot = sim
            .threads
            .iter()
            .flat_map(|t| &t.rob)
            .find(|i| pick(&sim.insts.hot[i.index()]))
            .expect("the machine holds such a record")
            .index();
        &mut sim.insts.hot[slot]
    }

    #[test]
    fn hostile_records_are_typed_errors() {
        // A machine mid-flight (at cycle 290 it holds records in every
        // state and a front end behind renamed work), damaged before the
        // save in a way the pipeline could not have produced and would trip
        // over later.
        type Damage = fn(&mut Simulator);
        let hostile = |damage: Damage| {
            let mut sim = cfg().build();
            for _ in 0..290 {
                sim.step_cycle();
            }
            damage(&mut sim);
            Simulator::restore_checkpoint(cfg(), &mut checkpoint_of(&sim).as_slice())
        };
        hostile(|_| {}).expect("an undamaged machine restores");
        let cases: [(&str, Damage); 16] = [
            ("a record of thread 200", |sim| {
                record(sim, |_| true).ti = 200
            }),
            ("sequence numbers that do not rise", |sim| {
                let (first, second) = (sim.threads[0].rob[0], sim.threads[0].rob[1]);
                sim.insts.hot[second.index()].seq = sim.insts.hot[first.index()].seq;
            }),
            ("a destination outside its file", |sim| {
                let h = record(sim, |h| h.dest_phys != PREG_NONE);
                h.dest_phys |= 0x7ffe;
            }),
            ("a logical source outside its file", |sim| {
                record(sim, |h| h.srcs_log[0] != LREG_NONE).srcs_log[0] |= 0x7f;
            }),
            ("a decoding record below a renamed one", |sim| {
                // Swap the front end's head with the renamed record before
                // it, sequence numbers included.
                let t = sim
                    .threads
                    .iter_mut()
                    .find(|t| t.frontend_len > 0 && t.rob.len() > t.frontend_len)
                    .expect("a thread with a front end behind renamed work");
                let head = t.rob.len() - t.frontend_len;
                t.rob.swap(head - 1, head);
                let (a, b) = (t.rob[head - 1].index(), t.rob[head].index());
                let seq = sim.insts.hot[a].seq;
                sim.insts.hot[a].seq = sim.insts.hot[b].seq;
                sim.insts.hot[b].seq = seq;
            }),
            ("a writeback outside the calendar", |sim| {
                let cycle = sim.cycle;
                record(sim, |h| h.state() == InstState::Executing).when = cycle;
            }),
            ("an operand count the scoreboard disagrees with", |sim| {
                record(sim, |h| h.state() == InstState::Queued).pending_srcs += 1;
            }),
            ("a register both free and mapped", |sim| {
                let mapped = sim.threads[0].map.physical()[0][5];
                sim.regs[0].release(mapped);
            }),
            ("a register neither free nor held", |sim| {
                sim.regs[1].alloc();
            }),
            ("a slot held by two ROBs", |sim| {
                let slot = sim.threads[0].rob[0];
                sim.threads[1].rob.push_front(slot);
            }),
            ("a destination off its rename chain", |sim| {
                record(sim, |h| h.dest_phys != PREG_NONE).dest_phys ^= 1;
            }),
            ("a previous mapping another record holds", |sim| {
                record(sim, |h| h.prev_phys != PREG_NONE).prev_phys ^= 1;
            }),
            ("a wrong-path flag with no mispredicted branch", |sim| {
                let t = sim.threads.iter_mut().find(|t| !t.wrong_path).unwrap();
                t.wrong_path = true;
            }),
            ("a load waiting on a request never issued", |sim| {
                record(sim, |h| h.state() == InstState::WaitingMem).when = 1 << 40;
            }),
            ("fetch waiting on a request never issued", |sim| {
                sim.threads[0].icache_req = Some(ReqId(1 << 40));
            }),
            ("correct-path fetch off its source's path", |sim| {
                let t = sim.threads.iter_mut().find(|t| !t.wrong_path).unwrap();
                t.fetch_pc += 4;
            }),
        ];
        for (what, damage) in cases {
            match hostile(damage) {
                Err(CheckpointError::Corrupt(_)) => {}
                Err(e) => panic!("{what}: unexpected error {e}"),
                Ok(_) => panic!("{what}: restore succeeded"),
            }
        }
    }

    /// The scheduler's bookkeeping, with generation-dead artifacts (the
    /// events, pending loads and waiters of squashed instructions) left out
    /// and every order nothing observes normalised away. Handles are given
    /// as slot indices: a live handle's generation is its slot's.
    #[derive(Debug, PartialEq)]
    struct Bookkeeping {
        /// The ready set, in order: `(seq, opt_until, slot, opcode, thread)`.
        ready: Vec<(u64, u64, usize, u8, u8)>,
        iq_len: [usize; 2],
        /// Per thread: ICOUNT, MISSCOUNT, front-end length and the
        /// unresolved control instructions.
        threads: Vec<(u32, u32, usize, Vec<u64>)>,
        /// Per calendar bucket, the live events as a set of `(seq, slot)`.
        calendar: Vec<BTreeSet<(u64, usize)>>,
        /// The live pending loads as `(request id, slot)`, by request id.
        pending: Vec<(u64, usize)>,
        /// Per register of both files, its live waiters' slots as a
        /// multiset (sorted).
        waiters: Vec<Vec<usize>>,
    }

    fn bookkeeping(sim: &Simulator) -> Bookkeeping {
        let live = |tag: GenRef| sim.insts.live(tag).map(InstRef::index);
        let mut pending: Vec<_> = sim
            .pending_load_entries()
            .filter_map(|(req, tag)| Some((req.0, live(tag)?)))
            .collect();
        pending.sort_unstable();
        Bookkeeping {
            ready: sim
                .ready_q
                .iter()
                .map(|e| (e.seq, e.opt_until, e.iref.index(), e.op.code(), e.ti))
                .collect(),
            iq_len: sim.iq_len,
            threads: sim
                .threads
                .iter()
                .map(|t| {
                    let ctrl = t.unresolved_ctrl.clone();
                    (t.in_flight, t.outstanding_misses, t.frontend_len, ctrl)
                })
                .collect(),
            calendar: sim
                .exec_done
                .iter()
                .map(|bucket| {
                    bucket
                        .iter()
                        .filter_map(|e| Some((e.seq, live(e.inst)?)))
                        .collect()
                })
                .collect(),
            pending,
            waiters: sim
                .regs
                .iter()
                .flat_map(|file| (0..file.size() as u16).map(move |p| (file, p)))
                .map(|(file, p)| {
                    let mut slots: Vec<_> = file.waiters_of(p).filter_map(live).collect();
                    slots.sort_unstable();
                    slots
                })
                .collect(),
        }
    }

    #[test]
    fn restore_reproduces_the_scheduler_bookkeeping() {
        use smt_workload::Benchmark::*;
        let loops = smt_workload::RiscvImage::load(std::path::Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../testdata/riscv/loops.elf"
        )))
        .expect("checked-in ELF must load");
        let benchmarks = |mix: Vec<Benchmark>| mix.into_iter().map(WorkloadSpec::Benchmark);
        let mixes: [Vec<WorkloadSpec>; 3] = [
            benchmarks(smt_workload::standard_mix()).collect(),
            benchmarks(vec![
                Espresso, Eqntott, Xlisp, Compress, Espresso, Eqntott, Xlisp, Compress,
            ])
            .collect(),
            std::iter::once(WorkloadSpec::Elf(std::sync::Arc::new(loops)))
                .chain(benchmarks(vec![Espresso, Alvinn]))
                .collect(),
        ];
        type Issue = fn() -> Box<dyn crate::IssuePolicy>;
        let issue: [Issue; 2] = [
            || Box::new(crate::policy::OldestFirst),
            || Box::new(crate::policy::OptLast),
        ];
        let (mut restores, mut pending, mut waiters) = (0, 0, 0);
        for workloads in &mixes {
            for policy in issue {
                let cfg = || {
                    SimConfig::new()
                        .with_workloads(workloads.clone())
                        .with_issue(policy())
                };
                let mut sim = cfg().build();
                for point in 0..4 {
                    for _ in 0..300 + 97 * point {
                        sim.step_cycle();
                    }
                    let bytes = checkpoint_of(&sim);
                    let restored = Simulator::restore_checkpoint(cfg(), &mut bytes.as_slice())
                        .expect("restore must succeed");
                    let live = bookkeeping(&sim);
                    assert_eq!(
                        bookkeeping(&restored),
                        live,
                        "bookkeeping differs after a restore at cycle {}",
                        sim.cycle()
                    );
                    restores += 1;
                    pending += live.pending.len();
                    waiters += live.waiters.iter().map(Vec::len).sum::<usize>();
                }
            }
        }
        assert!(restores >= 20);
        assert!(
            pending > 0 && waiters > 0,
            "no checkpoint caught a load on a miss or a waiting consumer"
        );
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
