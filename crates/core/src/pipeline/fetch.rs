//! Fetch: the [`FetchPolicy`](crate::FetchPolicy) picks which threads fill
//! the 8-wide fetch bandwidth under the active
//! [`FetchPartition`](crate::FetchPartition).
//!
//! Each fetchable thread gets one [`ThreadFetchView`] and one
//! [`FetchPolicy::priority`](crate::FetchPolicy::priority) call per cycle.
//! The policy counters a view carries (ICOUNT / BRCOUNT / MISSCOUNT) are
//! the live values the scheduler maintains at state transitions — ranking
//! reads them in O(1) instead of recounting the ROBs every cycle. Wrong-path fetch streams contend for I-cache banks and
//! ports exactly like correct-path ones; the
//! `wrong_path_fetch_conflicts` counter records how often they were turned
//! away.

use smt_isa::{Addr, Opcode, Outcome, StaticInst, INST_BYTES};
use smt_mem::AccessResult;
use smt_workload::WorkloadSource;

use crate::ablation::Ablation;
use crate::policy::{FetchPartition, ThreadFetchView};
use smt_branch::Prediction;

use super::slab::{lreg_pack, ColdInst, HotInst, PREG_NONE};
use super::Simulator;

/// Why a fetch slot could not be filled this cycle (candidate loss causes,
/// settled against the actually-unused slots at end of cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum LossCause {
    Icache,
    Bank,
    Fragmentation,
    FrontendFull,
    NoThread,
}

impl Simulator {
    // ---- phase 5b: fetch ---------------------------------------------

    pub(super) fn fetch(&mut self) {
        let cycle = self.cycle;
        let n = self.threads.len();
        let tpc = usize::from(self.cfg.partition.threads_per_cycle);
        let ipt = u32::from(self.cfg.partition.insts_per_thread);
        // Rank every fetchable thread by its policy key, tie-broken by the
        // rotating thread order, then sort.
        let n64 = n as u64;
        let rot_base = cycle % n64;
        let mut ranked = std::mem::take(&mut self.fetch_rank_scratch);
        ranked.clear();
        for (ti, t) in self.threads.iter().enumerate() {
            let fetchable = t.icache_req.is_none()
                && t.stall_until <= cycle
                && t.frontend.len() < self.frontend_limit;
            if !fetchable {
                continue;
            }
            // `rotating_rank(cycle, id, n)` with the `cycle % n` hoisted
            // out of the loop (thread + n - base < 2n, so one conditional
            // subtraction replaces the second modulo).
            let mut rotation = u64::from(t.id.0) + n64 - rot_base;
            if rotation >= n64 {
                rotation -= n64;
            }
            debug_assert_eq!(rotation, crate::policy::rotating_rank(cycle, t.id, n as u8));
            let view = ThreadFetchView {
                thread: t.id,
                thread_count: n as u8,
                in_flight: t.in_flight,
                unresolved_branches: t.unresolved_ctrl.len() as u32,
                outstanding_misses: t.outstanding_misses,
            };
            ranked.push((self.cfg.fetch.priority(cycle, &view), rotation, ti));
        }
        ranked.sort_unstable();

        // As in the paper, the fetch unit takes the highest-priority
        // threads whose fetch blocks sit in distinct, currently-available
        // I-cache banks: a thread whose bank is busy is passed over in
        // favour of the next-ranked thread rather than wasting the slot.
        //
        // This pre-selection arbitration is the single counting point for
        // `wrong_path_fetch_conflicts`: a wrong-path thread passed over
        // here lost its fetch opportunity to bank/port contention exactly
        // once this cycle. (The `BankConflict` arm inside `fetch_block`
        // can only be MSHR exhaustion once this check has passed, which is
        // a different resource and deliberately not counted.)
        //
        // Loss accounting: blockages only *candidate* slots for loss while
        // fetching, because a slot one thread could not fill may still be
        // filled by the next selected thread. At the end of the cycle the
        // genuinely unused slots are attributed to the recorded causes
        // proportionally (see below), so fetched + wrong-path + losses
        // always sums to the 8-slot budget.
        let exempt_wrong_path = self
            .cfg
            .ablations
            .contains(Ablation::ExemptWrongPathFromBankArbitration);
        let mut total_left = FetchPartition::TOTAL_WIDTH;
        let mut selected = 0usize;
        let mut losses = std::mem::take(&mut self.loss_scratch);
        losses.clear();
        for &(_, _, ti) in &ranked {
            if selected == tpc || total_left == 0 {
                break;
            }
            let exempt = exempt_wrong_path && self.threads[ti].wrong_path;
            if !exempt && !self.mem.icache_bank_free(self.threads[ti].fetch_pc) {
                if self.threads[ti].wrong_path {
                    self.stats.fetch.wrong_path_fetch_conflicts += 1;
                }
                continue;
            }
            selected += 1;
            let cap = ipt.min(total_left);
            total_left -= self.fetch_block(ti, cap, !exempt, &mut losses);
        }
        self.fetch_rank_scratch = ranked;
        if selected < tpc {
            losses.push((LossCause::NoThread, ipt * (tpc - selected) as u32));
        }
        // Attribute the genuinely unused slots to the candidate causes
        // *proportionally to their candidate amounts* (the cumulative-floor
        // scheme keeps the charged total exact). Charging strictly in order
        // of occurrence let an early overshooting candidate absorb the whole
        // budget and silently drop later genuine causes.
        let unused = u64::from(total_left);
        let total: u64 = losses.iter().map(|&(_, a)| u64::from(a)).sum();
        if unused > 0 && total > 0 {
            // Whenever T × I covers the 8-wide bandwidth (all four paper
            // schemes) the candidates cover the unused slots exactly or
            // overshoot; a narrower custom partition can undershoot, in
            // which case the uncoverable remainder stays unattributed
            // (as before) rather than inflating any bucket.
            let pool = unused.min(total);
            let mut prefix = 0u64;
            let mut charged_so_far = 0u64;
            for &(cause, amount) in &losses {
                prefix += u64::from(amount);
                let cumulative = prefix * pool / total;
                let charged = cumulative - charged_so_far;
                charged_so_far = cumulative;
                match cause {
                    LossCause::Icache => self.stats.fetch.lost_icache += charged,
                    LossCause::Bank => self.stats.fetch.lost_bank_conflict += charged,
                    LossCause::Fragmentation => self.stats.fetch.lost_fragmentation += charged,
                    LossCause::FrontendFull => self.stats.fetch.lost_frontend_full += charged,
                    LossCause::NoThread => self.stats.fetch.lost_no_thread += charged,
                }
            }
        }
        self.loss_scratch = losses;
    }

    /// Fetches one thread's block of up to `cap` instructions; returns how
    /// many were fetched, recording candidate slot losses in `losses`.
    /// With `arbitrate: false` (the wrong-path exemption ablation) the
    /// I-cache access neither checks nor consumes bank/port resources.
    ///
    /// The PC run is streamed through the oracle/predictor in one pass and
    /// each decoded [`HotInst`] is written straight into its slab slot
    /// ([`alloc`](super::slab::InstSlab::alloc), one instruction at a
    /// time). The live ICOUNT (`in_flight`), sequence and fetch counters
    /// are updated once per block with the net delta.
    fn fetch_block(
        &mut self,
        ti: usize,
        cap: u32,
        arbitrate: bool,
        losses: &mut Vec<(LossCause, u32)>,
    ) -> u32 {
        // Power-of-two line size: line membership is a shift, not a
        // division, on this per-instruction loop.
        let line_shift = (self.cfg.mem.icache.line_bytes as u64).trailing_zeros();
        let block_pc = self.threads[ti].fetch_pc;
        let id = self.threads[ti].id;
        match self.mem.icache_fetch_with(id, block_pc, arbitrate) {
            AccessResult::BankConflict => {
                // MSHR pressure (bank/port availability was arbitrated
                // before selection): yield the fetch slot for a cycle so
                // thread selection rotates instead of re-picking a thread
                // that cannot start its access. Not a bank/port conflict,
                // so `wrong_path_fetch_conflicts` is not counted here —
                // the pre-selection check is the single counting point.
                self.threads[ti].stall_until = self.cycle + 1;
                losses.push((LossCause::Bank, cap));
                return 0;
            }
            AccessResult::Miss(req) => {
                self.threads[ti].icache_req = Some(req);
                losses.push((LossCause::Icache, cap));
                return 0;
            }
            AccessResult::Hit => {}
        }
        let line = block_pc >> line_shift;
        let cycle = self.cycle;
        let frontend_limit = self.frontend_limit;
        let decode_cycles = self.cfg.decode_cycles;
        let misfetch_penalty = self.cfg.misfetch_penalty;
        let perfect_bp = self
            .cfg
            .ablations
            .contains(Ablation::PerfectBranchPrediction);
        let insts = &mut self.insts;
        let bp = &mut self.bp;
        let t = &mut self.threads[ti];
        let mut seq = self.next_seq;
        let mut misfetches = 0u64;
        let mut wrong_ct = 0u64;
        let mut fetched = 0u32;
        while fetched < cap {
            if t.frontend.len() >= frontend_limit {
                losses.push((LossCause::FrontendFull, cap - fetched));
                break;
            }
            let pc = t.fetch_pc;
            if pc >> line_shift != line {
                losses.push((LossCause::Fragmentation, cap - fetched));
                break;
            }

            // ---- fetch one instruction at `pc` -----------------------
            let wrong_path = t.wrong_path;
            let (inst, outcome) = if wrong_path {
                (t.source.wrong_inst_at(pc), None)
            } else {
                debug_assert_eq!(t.source.pc(), pc, "fetch left the source's path");
                let (inst, outcome) = t.source.step();
                (inst, Some(outcome))
            };

            let mut mem_addr = 0;
            if inst.op.is_mem() {
                mem_addr = match outcome {
                    Some(o) => o.mem_addr,
                    None => {
                        t.wp_salt = t.wp_salt.wrapping_add(1);
                        t.source.wrong_mem_addr(pc, t.wp_salt ^ cycle)
                    }
                };
            }

            let mut pred = None;
            let mut mispredict = false;
            let mut end_block = false;
            let mut misfetch = false;
            let mut next_fetch = pc + INST_BYTES;

            if inst.op.is_control() {
                // Perfect-branch-prediction ablation: synthesize an
                // oracle-perfect prediction instead of consulting the
                // predictor — `classify_prediction` then always agrees
                // with the outcome, so no mispredicts, no misfetches, and
                // the wrong-path machinery never engages. (Fetch cannot be
                // on the wrong path under this ablation, so `outcome` is
                // present.)
                let p = match outcome {
                    Some(actual) if perfect_bp => Prediction::perfect(actual.taken, actual.next_pc),
                    _ => bp.predict(id, pc, inst.op),
                };
                pred = Some(p);
                match outcome {
                    Some(actual) => {
                        let (goes_wrong, nf, ends, misses) =
                            classify_prediction(&p, &actual, inst.op, pc, t.source.as_ref(), inst);
                        mispredict = goes_wrong;
                        next_fetch = nf;
                        end_block = ends;
                        misfetch = misses;
                        if goes_wrong {
                            t.wrong_path = true;
                        }
                    }
                    None => {
                        // Wrong path: simply follow the prediction.
                        if p.taken {
                            match p.target {
                                Some(tgt) => {
                                    next_fetch = tgt;
                                    end_block = true;
                                }
                                None => {
                                    misfetch = true;
                                    next_fetch = t.source.wrong_taken_target(inst, pc);
                                }
                            }
                        }
                    }
                }
            }

            if misfetch {
                misfetches += 1;
                t.stall_until = cycle + 1 + misfetch_penalty;
                end_block = true;
            }

            if wrong_path {
                wrong_ct += 1;
            }

            let iref = insts.alloc(HotInst {
                gen: 0, // overwritten with the slot's generation
                seq,
                when: cycle + decode_cycles,
                mem_addr,
                dest_phys: PREG_NONE,
                prev_phys: PREG_NONE,
                srcs_phys: [PREG_NONE, PREG_NONE],
                flags: HotInst::initial_flags(wrong_path, mispredict),
                op: inst.op,
                ti: ti as u8,
                pending_srcs: 0,
                dest_log: lreg_pack(inst.dest),
                srcs_log: [lreg_pack(inst.srcs[0]), lreg_pack(inst.srcs[1])],
            });
            // Only correct-path control instructions are ever resolved
            // against a cold record; everything else skips the array
            // entirely.
            if let (Some(o), Some(p)) = (&outcome, &pred) {
                insts.cold[iref.index()] = ColdInst::for_control(pc, p, o);
            }
            t.rob.push_back(iref);
            t.frontend.push_back((iref, cycle + decode_cycles));
            if inst.op.is_control() {
                // Fetch order is age order: appending keeps the list
                // sorted.
                t.unresolved_ctrl.push(seq);
            }
            seq += 1;
            t.fetch_pc = next_fetch;
            // ---- end of one instruction ------------------------------

            fetched += 1;
            if end_block {
                if fetched < cap {
                    losses.push((LossCause::Fragmentation, cap - fetched));
                }
                break;
            }
        }
        // Net per-block counter deltas: one update per fetch block.
        t.in_flight += fetched;
        self.next_seq = seq;
        self.stats.fetch.misfetches += misfetches;
        self.stats.fetch.wrong_path += wrong_ct;
        self.stats.fetch.fetched += u64::from(fetched) - wrong_ct;
        fetched
    }
}

/// Compares one correct-path control prediction against its architectural
/// outcome. Returns `(mispredict, next_fetch_pc, end_block, misfetch)`.
fn classify_prediction(
    p: &Prediction,
    actual: &Outcome,
    op: Opcode,
    pc: Addr,
    source: &dyn WorkloadSource,
    inst: StaticInst,
) -> (bool, Addr, bool, bool) {
    let fallthrough = pc + INST_BYTES;
    if op.is_cond_branch() {
        if p.taken != actual.taken {
            // Wrong direction: fetch follows the predicted (wrong) path.
            if p.taken {
                match p.target {
                    Some(tgt) => (true, tgt, true, false),
                    // Misfetch on the wrong path: decode computes the
                    // (wrong-path) taken target.
                    None => (true, source.wrong_taken_target(inst, pc), true, true),
                }
            } else {
                (true, fallthrough, false, false)
            }
        } else if actual.taken {
            match p.target {
                Some(tgt) if tgt == actual.next_pc => (false, tgt, true, false),
                // Stale BTB target: fetch goes to the wrong place.
                Some(tgt) => (true, tgt, true, false),
                // Direction right, no target: stall until decode computes it.
                None => (false, actual.next_pc, true, true),
            }
        } else {
            (false, fallthrough, false, false)
        }
    } else {
        // Unconditional control: always taken; only the target can be wrong.
        match p.target {
            Some(tgt) if tgt == actual.next_pc => (false, tgt, true, false),
            Some(tgt) => (true, tgt, true, false),
            None => (false, actual.next_pc, true, true),
        }
    }
}
