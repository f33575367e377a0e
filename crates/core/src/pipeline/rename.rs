//! Rename/dispatch: decoded instructions claim renaming registers and
//! instruction-queue slots, and register themselves with the wakeup
//! scheduler.
//!
//! Dispatch is where an instruction's scheduling fate is decided exactly
//! once: each source operand is looked up in the rename map; sources whose
//! physical register is not yet ready add the instruction to that
//! register's wakeup list, and an instruction with no outstanding sources
//! goes straight onto its class's ready queue. Either way it is never
//! polled again.
//!
//! The whole stage works off the packed hot record: logical registers were
//! re-encoded into single bytes at fetch ([`slab::lreg_pack`]), so rename
//! never touches the cold array.
//!
//! [`slab::lreg_pack`]: super::slab::lreg_pack

use super::slab::{lreg_unpack, preg_pack, InstState, LREG_NONE};
use super::{ReadyEntry, Simulator};

impl Simulator {
    // ---- phase 5a: rename / dispatch ---------------------------------

    /// Dispatches up to `decode_width` decode-ready front-end heads,
    /// rotating the starting thread each cycle. Each source operand is
    /// looked up in the thread's rename map and probed with
    /// [`check_or_wait`](crate::regfile::PhysRegFile::check_or_wait),
    /// which either answers with the register's load-speculation window
    /// end or registers the instruction on its wakeup list — one record
    /// lookup for both halves.
    pub(super) fn rename(&mut self) {
        let cycle = self.cycle;
        let mut budget = self.cfg.decode_width;
        let n = self.threads.len();
        let start = self.cycle as usize % n;
        let iq_limit = self.iq_limit;
        // Split every field the dispatch loop touches once, so the inner
        // loop works entirely off locals the compiler can keep in
        // registers.
        let threads = &mut self.threads;
        let insts = &mut self.insts;
        let regs = &mut self.regs;
        let ready_q = &mut self.ready_q;
        let iq_len = &mut self.iq_len;
        for k in 0..n {
            if budget == 0 {
                break;
            }
            let ti = (start + k) % n;
            let t = &mut threads[ti];
            while budget > 0 && t.frontend_len > 0 {
                // The front end is the ROB's tail; its head is ready once
                // decode finishes (`when`, set at fetch).
                let iref = t.rob[t.rob.len() - t.frontend_len];
                let hot = &insts.hot[iref.index()];
                debug_assert_eq!(
                    hot.state(),
                    InstState::Decoding,
                    "front-end instruction must be decoding"
                );
                if hot.when > cycle {
                    break;
                }
                let class = hot.op.queue();
                if iq_len[class.index()] >= iq_limit {
                    break; // IQ full: dispatch stalls, fetch feels back-pressure
                }
                let dest_log = hot.dest_log;
                if dest_log != LREG_NONE {
                    let d = lreg_unpack(dest_log);
                    if regs[d.class().index()].free_count() == 0 {
                        break; // out of renaming registers
                    }
                }
                // Sources read the map before the destination redefines it.
                // A source that is not ready registers this instruction on
                // the producer's wakeup list on the spot; readiness is
                // monotone for live instructions, so the count can only
                // fall from here.
                let srcs_log = hot.srcs_log;
                let seq = hot.seq;
                let tag = insts.tag(iref);
                let mut srcs_phys = [super::PREG_NONE; 2];
                let mut pending: u8 = 0;
                let mut opt_until = 0u64;
                for (si, &s) in srcs_log.iter().enumerate() {
                    if s != LREG_NONE {
                        let r = lreg_unpack(s);
                        let p = t.map.lookup(r);
                        srcs_phys[si] = preg_pack(r.class(), p);
                        match regs[r.class().index()].check_or_wait(p, tag) {
                            Some(opt) => opt_until = opt_until.max(opt),
                            None => pending += 1,
                        }
                    }
                }
                let hot = &mut insts.hot[iref.index()];
                hot.srcs_phys = srcs_phys;
                if dest_log != LREG_NONE {
                    let d = lreg_unpack(dest_log);
                    let ci = d.class().index();
                    let p = regs[ci].alloc().expect("free count checked above");
                    let prev = t.map.redefine(d, p);
                    hot.dest_phys = preg_pack(d.class(), p);
                    hot.prev_phys = preg_pack(d.class(), prev);
                }
                hot.pending_srcs = pending;
                hot.set_state(InstState::Queued);
                let op = hot.op;
                t.frontend_len -= 1;
                iq_len[class.index()] += 1;
                if pending == 0 {
                    // All operands already available: ready from dispatch.
                    debug_assert_eq!(opt_until, super::opt_until_of(regs, &srcs_phys));
                    let e = ReadyEntry {
                        seq,
                        opt_until,
                        iref,
                        op,
                        ti: ti as u8,
                    };
                    super::insert_ready(ready_q, e);
                }
                budget -= 1;
            }
        }
    }
}
