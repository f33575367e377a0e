//! Issue: the [`IssuePolicy`](crate::IssuePolicy) ranks the ready set onto
//! the functional units.
//!
//! The candidates come straight off the age-sorted ready set — every
//! entry is a live, Queued instruction whose operands are all available
//! (the wakeup scheduler put it there exactly once), so no readiness is
//! re-checked here. Each [`ReadyEntry`] caches the opcode and the
//! load-speculation bound, so ranking and functional-unit matching touch
//! no instruction record at all; only instructions that actually win a
//! unit are looked up (one slab index through their cached
//! [`InstRef`](super::slab::InstRef)) to take their state transition.
//!
//! Ranking sorts on `(policy key, seq, …)`; sequence numbers are globally
//! unique, so the order — and therefore every downstream counter — is
//! identical to the scan-based simulator's, which built the same set by
//! polling the instruction queues. Pure-age policies
//! ([`IssuePolicy::age_is_priority`](crate::IssuePolicy::age_is_priority),
//! i.e. the default OLDEST_FIRST) take a fast path that issues straight
//! off the ready set: ranking by age would reproduce its order exactly,
//! so no candidate is built and no key computed. Every other policy is
//! asked for one [`IssuePolicy::priority`](crate::IssuePolicy::priority)
//! per ready entry.
//!
//! [`ReadyEntry`]: super::ReadyEntry

use smt_isa::FuKind;
use smt_mem::AccessResult;

use crate::config::MAX_THREADS;
use crate::policy::IssueCandidate;

use super::slab::InstState;
use super::Simulator;

/// Ready-set tombstone for issued entries (sequence numbers never reach
/// `u64::MAX`), swept after the winner loop — no allocation.
const ISSUED: u64 = u64::MAX;

/// Functional units still available this cycle.
struct UnitBudget {
    int_left: usize,
    ldst_left: usize,
    fp_left: usize,
}

impl UnitBudget {
    fn exhausted(&self) -> bool {
        self.int_left == 0 && self.fp_left == 0
    }
}

impl Simulator {
    // ---- phase 4: issue ----------------------------------------------

    pub(super) fn issue(&mut self) {
        let mut budget = UnitBudget {
            int_left: self.cfg.int_units,
            ldst_left: self.cfg.ldst_units,
            fp_left: self.cfg.fp_units,
        };

        if self.cfg.issue.age_is_priority() {
            // Fast path: the ready set is already in issue order.
            let mut issued_any = false;
            for qi in 0..self.ready_q.len() {
                if budget.exhausted() {
                    break;
                }
                issued_any |= self.issue_slot(qi, &mut budget);
            }
            if issued_any {
                self.ready_q.retain(|e| e.seq != ISSUED);
            }
            return;
        }

        let cycle = self.cycle;
        // Oldest unresolved branch per thread marks younger work
        // speculative (maintained incrementally; the sorted list's front
        // is its minimum).
        let mut oldest_branch = [None; MAX_THREADS];
        for (ti, t) in self.threads.iter().enumerate() {
            oldest_branch[ti] = t.unresolved_ctrl.first().copied();
        }

        // Rank the age-sorted ready set by policy key, tie-broken by age.
        // Age-keyed policies produce an already-sorted array, so the sort
        // below is then a single O(n) ascending-run check.
        let mut ranked = std::mem::take(&mut self.issue_rank_scratch);
        ranked.clear();
        for (qi, e) in self.ready_q.iter().enumerate() {
            debug_assert!(
                {
                    let i = &self.insts.hot[e.iref.index()];
                    i.seq == e.seq
                        && i.state() == InstState::Queued
                        && i.srcs_phys.iter().all(|&s| {
                            s == super::PREG_NONE
                                || self.regs[super::slab::preg_class(s)]
                                    .is_ready(super::slab::preg_index(s))
                        })
                        && e.opt_until == super::opt_until_of(&self.regs, &i.srcs_phys)
                },
                "ready set holds a stale or not-ready instruction"
            );
            let cand = IssueCandidate {
                age: e.seq,
                // Thread ids are the thread indexes by construction.
                thread: smt_isa::ThreadId(e.ti),
                queue: e.op.queue(),
                is_branch: e.op.is_control(),
                speculative: oldest_branch[usize::from(e.ti)].is_some_and(|b| e.seq > b),
                // One compare replaces the per-cycle scoreboard probes: the
                // entry cached its load-speculation window bound on creation.
                optimistic: cycle <= e.opt_until,
            };
            ranked.push((self.cfg.issue.priority(&cand), e.seq, qi as u32));
        }
        ranked.sort_unstable();

        let mut issued_any = false;
        for &(_, _, qi) in &ranked {
            if budget.exhausted() {
                break;
            }
            issued_any |= self.issue_slot(qi as usize, &mut budget);
        }
        self.issue_rank_scratch = ranked;
        // Sweep issued entries out of the ready set; bank-conflict bounces
        // were never tombstoned and stay ready for next cycle. (Retain
        // preserves order, so the set stays age-sorted.)
        if issued_any {
            self.ready_q.retain(|e| e.seq != ISSUED);
        }
    }

    /// Tries to issue the ready-set entry at `qi`: claims a functional
    /// unit of the right kind, performs the D-cache access for memory
    /// operations, schedules the writeback event and tombstones the entry.
    /// Returns whether the entry was tombstoned (issued or sent to wait on
    /// a miss); bank-conflict bounces spend their unit but stay ready.
    #[inline]
    fn issue_slot(&mut self, qi: usize, budget: &mut UnitBudget) -> bool {
        let e = self.ready_q[qi];
        let op = e.op;
        match op.fu_kind() {
            FuKind::IntAlu if budget.int_left > 0 => budget.int_left -= 1,
            FuKind::LdSt if budget.int_left > 0 && budget.ldst_left > 0 => {
                budget.int_left -= 1;
                budget.ldst_left -= 1;
            }
            FuKind::Fp if budget.fp_left > 0 => budget.fp_left -= 1,
            _ => return false, // no unit of the right kind left this cycle
        }
        let cycle = self.cycle;
        let ti = usize::from(e.ti);
        let iref = e.iref;
        debug_assert_eq!(self.insts.hot[iref.index()].seq, e.seq);
        debug_assert_eq!(self.insts.hot[iref.index()].state(), InstState::Queued);
        debug_assert_eq!(self.insts.hot[iref.index()].pending_srcs, 0);
        let (state, when) = if op.is_mem() {
            let id = self.threads[ti].id;
            let addr = self.insts.hot[iref.index()].mem_addr;
            match self.mem.dcache_access(id, addr, op.is_store()) {
                AccessResult::Hit => (InstState::Executing, cycle + 1),
                AccessResult::Miss(req) => {
                    if op.is_load() {
                        // Request ids rise, so the list stays sorted.
                        self.pending_loads.push((req, self.insts.tag(iref)));
                        (InstState::WaitingMem, req.0)
                    } else {
                        // Stores retire into the write buffer; the miss
                        // traffic still occupies the hierarchy.
                        (InstState::Executing, cycle + 1)
                    }
                }
                AccessResult::BankConflict => {
                    // The issue slot is spent but the access must retry:
                    // the instruction stays Queued and therefore stays
                    // in its ready queue for next cycle.
                    self.stats.issue.bank_conflicts += 1;
                    return false;
                }
            }
        } else {
            (InstState::Executing, cycle + u64::from(op.latency().max(1)))
        };
        // Leaving the instruction queue: schedule the writeback event
        // (a WaitingMem load schedules it on miss completion instead).
        if state == InstState::Executing {
            self.schedule_writeback(when, e.seq, self.insts.tag(iref));
        } else {
            self.threads[ti].outstanding_misses += 1;
        }
        self.iq_len[op.queue().index()] -= 1;
        self.ready_q[qi].seq = ISSUED;
        self.threads[ti].in_flight -= 1;
        let i = &mut self.insts.hot[iref.index()];
        i.set_state(state);
        i.when = when;
        if i.wrong_path() {
            self.stats.issue.wrong_path += 1;
        } else {
            self.stats.issue.issued += 1;
        }
        true
    }
}
