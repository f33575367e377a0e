//! The event-driven wakeup scheduler: miss-completion delivery, writeback,
//! branch resolution and squash.
//!
//! This module is why the hot loop does no per-cycle ROB scans:
//!
//! * **Miss completions** arrive from `smt-mem` as [`Completion`] events
//!   (scheduled when the miss started, delivered the cycle the data
//!   returns) and are matched to waiting loads through the
//!   [`PendingLoads`](super::slab::PendingLoads) table — one array index
//!   per completion — or to blocked fetch units.
//! * **Writeback** drains one bucket of the `exec_done` calendar ring per
//!   cycle — every instruction scheduled its own writeback into its
//!   completion cycle's bucket when it issued (so events must land within
//!   `EXEC_RING - 1` cycles, comfortably above the longest functional-unit
//!   latency) — processing the bucket in `seq` order, which is exactly the
//!   oldest-first order the scan-based simulator produced by sorting, so
//!   mispredict squashes observe the identical resolution order.
//! * **Wakeup** drains each completing destination register's consumer
//!   list ([`PhysRegFile::set_ready`]): every waiting consumer decrements
//!   its outstanding-operand count and enters its class's ready queue the
//!   moment the count reaches zero — entering exactly once, never polled.
//!
//! Events for squashed instructions go stale rather than being hunted down:
//! freeing a slab slot bumps its generation, so a stale completion,
//! writeback event, or wakeup-list entry simply fails its
//! [`InstSlab::live`](super::slab::InstSlab::live) check and is dropped.
//!
//! [`PhysRegFile::set_ready`]: crate::regfile::PhysRegFile::set_ready
//! [`Completion`]: smt_mem::Completion

use smt_isa::Opcode;

use crate::regfile::Consumer;

use super::slab::{preg_class, preg_index, InstState, PREG_NONE};
use super::{ExecEvent, GenRef, ReadyEntry, Simulator};

impl Simulator {
    // ---- phase 1: miss completions -----------------------------------

    /// Consumes the memory hierarchy's scheduled completion events:
    /// D-side completions move their load from [`InstState::WaitingMem`] to
    /// executing (writing back this very cycle); I-side completions unblock
    /// the fetch unit that was waiting on the line.
    pub(super) fn drain_completions(&mut self) {
        let cycle = self.cycle;
        let mut comps = std::mem::take(&mut self.completion_scratch);
        comps.clear();
        self.mem.drain_completions_into(&mut comps);
        for done in &comps {
            if let Some(tag) = self.pending_loads.remove(done.req) {
                if let Some(iref) = self.insts.live(tag) {
                    let h = &mut self.insts.hot[iref.index()];
                    if h.state() == InstState::WaitingMem {
                        h.set_state(InstState::Executing);
                        h.when = cycle;
                        let seq = h.seq;
                        self.threads[usize::from(h.ti)].outstanding_misses -= 1;
                        // Completions drain before writeback, so scheduling
                        // into the current cycle's bucket is still in time.
                        self.schedule_writeback(cycle, seq, tag);
                    }
                }
            } else {
                for t in &mut self.threads {
                    if t.icache_req == Some(done.req) {
                        t.icache_req = None;
                    }
                }
            }
        }
        self.completion_scratch = comps;
    }

    // ---- phase 2: writeback / branch resolution ----------------------

    /// Schedules instruction `(seq, inst)`'s writeback for `done_at` by
    /// dropping it into the calendar ring bucket for that cycle.
    pub(super) fn schedule_writeback(&mut self, done_at: u64, seq: u64, inst: GenRef) {
        // Hard assert: a latency past the ring horizon would wrap into a
        // nearer bucket and silently write back (and commit) early in
        // release builds. Latencies come from `smt-isa`, which this module
        // cannot see change, so fail loudly rather than corrupt results.
        assert!(
            done_at.saturating_sub(self.cycle) < super::EXEC_RING as u64,
            "writeback at {done_at} scheduled beyond the calendar horizon \
             (cycle {}, ring {})",
            self.cycle,
            super::EXEC_RING
        );
        self.exec_done[done_at as usize % super::EXEC_RING].push(ExecEvent { seq, inst });
    }

    /// Drains the writeback events due this cycle. The bucket is processed
    /// in `seq` order (global age order, exactly the order the scan-based
    /// simulator produced by sorting finished instructions) — an older
    /// mispredict squashes younger work before that work can act, and the
    /// younger instructions' events then fail their slab lookup here.
    /// Wakeups are batched bucket-wide: every completing destination's
    /// drained consumer list accumulates into one pooled scratch array and
    /// is delivered in a single [`wake_consumers`](Simulator::wake_consumers)
    /// pass after the event loop. This is result-neutral against the
    /// per-event drain:
    ///
    /// * a consumer's last outstanding operand decides its wake in both
    ///   schemes, and all of its sources' `(by_load, ready_at)` records are
    ///   final before any wake runs, so `opt_until` comes out identical;
    /// * a consumer squashed by a later (younger-seq-resolved) event in the
    ///   same bucket dies on its generation check here instead of being
    ///   inserted-then-retained out of the ready queue — same end state;
    /// * the ready queue is kept sorted by unique `seq`, so insertion
    ///   order cannot be observed.
    pub(super) fn writeback(&mut self) {
        let cycle = self.cycle;
        let slot = cycle as usize % super::EXEC_RING;
        let mut bucket = std::mem::take(&mut self.exec_done[slot]);
        if bucket.len() > 1 {
            bucket.sort_unstable_by_key(|e| e.seq);
        }
        let mut woken = std::mem::take(&mut self.woken_scratch);
        woken.clear();
        for &ExecEvent { seq, inst } in &bucket {
            let Some(iref) = self.insts.live(inst) else {
                continue; // squashed after scheduling this writeback
            };
            let h = &mut self.insts.hot[iref.index()];
            debug_assert_eq!(h.seq, seq);
            debug_assert_eq!(
                (h.state(), h.when),
                (InstState::Executing, cycle),
                "stale writeback event for a live instruction"
            );
            h.set_state(InstState::Done);
            let ti = usize::from(h.ti);
            let op = h.op;
            let dest = h.dest_phys;
            let wrong_path = h.wrong_path();
            let is_ctrl = op.is_control();
            if is_ctrl {
                self.threads[ti].resolve_ctrl(seq);
            }
            if dest != PREG_NONE {
                self.regs[preg_class(dest)].set_ready(
                    preg_index(dest),
                    cycle,
                    op.is_load(),
                    &mut woken,
                );
            }
            if is_ctrl && !wrong_path {
                self.resolve_branch(ti, iref);
            }
        }
        self.wake_consumers(&woken);
        woken.clear();
        self.woken_scratch = woken;
        // Hand the (drained) bucket's allocation back to the ring.
        bucket.clear();
        self.exec_done[slot] = bucket;
    }

    /// Delivers one register's drained wakeup list: each live consumer
    /// loses one outstanding operand and joins its class's ready queue when
    /// none remain. Stale entries (squashed consumers) fail the slab lookup
    /// and are dropped.
    fn wake_consumers(&mut self, woken: &[Consumer]) {
        for &tag in woken {
            let Some(iref) = self.insts.live(tag) else {
                continue; // consumer was squashed while waiting
            };
            let inst = &mut self.insts.hot[iref.index()];
            debug_assert_eq!(
                inst.state(),
                InstState::Queued,
                "a waiting consumer can only be in a queue"
            );
            debug_assert!(inst.pending_srcs > 0, "woken with no outstanding operands");
            inst.pending_srcs -= 1;
            if inst.pending_srcs == 0 {
                let e = ReadyEntry {
                    seq: inst.seq,
                    opt_until: super::opt_until_of(&self.regs, &inst.srcs_phys),
                    iref,
                    op: inst.op,
                    ti: inst.ti,
                };
                super::insert_ready(&mut self.ready_q, e);
            }
        }
    }

    fn resolve_branch(&mut self, ti: usize, iref: super::InstRef) {
        let (seq, op, mispredict) = {
            let h = &self.insts.hot[iref.index()];
            (h.seq, h.op, h.mispredict())
        };
        // The packed resolution payload, written at fetch for every
        // correct-path control instruction (the only callers here).
        let c = self.insts.cold[iref.index()];
        let id = self.threads[ti].id;
        // Under the perfect-branch-prediction ablation the predictor was
        // never consulted, so it is not trained either (the synthesized
        // predictions carry placeholder PHT/history fields); the
        // direction-accuracy ratio still records the (always correct)
        // resolution so reports stay meaningful.
        let train = !self
            .cfg
            .ablations
            .contains(crate::Ablation::PerfectBranchPrediction);
        match op {
            Opcode::CondBranch => {
                self.stats
                    .cond_pred
                    .record(c.pred_taken() == c.outcome_taken());
                if train {
                    self.bp
                        .resolve_cond(id, c.pc, c.pht_index, c.outcome_taken(), c.next_pc);
                }
            }
            Opcode::Jump | Opcode::JumpInd | Opcode::Call => {
                if train {
                    self.bp.resolve_uncond(id, c.pc, op, c.next_pc);
                }
            }
            Opcode::Return => {}
            other => unreachable!("{other} is not control"),
        }
        if mispredict {
            self.stats.squashes += 1;
            self.squash_after(ti, seq);
            if op == Opcode::CondBranch {
                self.bp
                    .repair_history(id, c.history_before, c.outcome_taken());
            } else {
                self.bp.restore_history(id, c.history_before);
            }
            let t = &mut self.threads[ti];
            t.wrong_path = false;
            t.fetch_pc = c.next_pc;
            t.stall_until = self.cycle + 1;
            t.icache_req = None;
        }
    }

    /// Removes every instruction of thread `ti` younger than `seq`, undoing
    /// their renames youngest-first, releasing their registers, and rolling
    /// the scheduler state back: live counters, queue occupancy and ready
    /// queues. Stale wakeup-list entries, writeback events and pending-load
    /// completions are left to die on lookup (freeing the slab slot bumps
    /// its generation).
    fn squash_after(&mut self, ti: usize, seq: u64) {
        let t = &mut self.threads[ti];
        while let Some(&back) = t.rob.back() {
            let h = self.insts.hot[back.index()];
            if h.seq <= seq {
                break;
            }
            t.rob.pop_back();
            if h.dest_phys != PREG_NONE {
                if h.prev_phys != PREG_NONE {
                    t.map.redefine(
                        super::slab::lreg_unpack(h.dest_log),
                        preg_index(h.prev_phys),
                    );
                }
                // Releasing also drops the register's wakeup list: every
                // listed consumer is younger and dying in this same squash.
                self.regs[preg_class(h.dest_phys)].release(preg_index(h.dest_phys));
            }
            match h.state() {
                InstState::Decoding => t.in_flight -= 1,
                InstState::Queued => {
                    t.in_flight -= 1;
                    self.iq_len[h.op.queue().index()] -= 1;
                }
                InstState::WaitingMem => t.outstanding_misses -= 1,
                InstState::Executing | InstState::Done => {}
            }
            self.stats.squashed_insts += 1;
            self.insts.free(back);
        }
        // The squashed tail takes all younger unresolved branches with it.
        t.squash_ctrl_after(seq);
        // Everything still in the front end is younger than any resolvable
        // branch (rename is in order), so the whole front end died above.
        t.frontend_len = 0;
        let ti8 = ti as u8;
        self.ready_q.retain(|e| e.ti != ti8 || e.seq <= seq);
    }
}
