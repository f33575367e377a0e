//! In-order commit: per-thread retirement from the ROB head.

use super::slab::{preg_class, preg_index, InstState, PREG_NONE};
use super::Simulator;

impl Simulator {
    // ---- phase 3: in-order commit ------------------------------------

    /// Retires up to `commit_width` completed instructions across all
    /// threads, rotating the starting thread each cycle for fairness.
    /// Committing a renaming instruction frees the physical register its
    /// destination previously mapped to — by then every consumer of that
    /// old mapping has itself committed, so no wakeup list can reference
    /// it. Retirement moves a 4-byte slab handle and recycles the slot
    /// with [`free`](super::slab::InstSlab::free), the call squash uses;
    /// the instruction record itself is never copied.
    pub(super) fn commit(&mut self) {
        let mut budget = self.cfg.commit_width;
        let n = self.threads.len();
        let start = self.cycle as usize % n;
        for k in 0..n {
            if budget == 0 {
                break;
            }
            let t = &mut self.threads[(start + k) % n];
            while budget > 0 {
                let Some(&head) = t.rob.front() else {
                    break;
                };
                let h = &self.insts.hot[head.index()];
                if h.state() != InstState::Done {
                    break;
                }
                debug_assert!(
                    !h.wrong_path(),
                    "wrong-path instruction survived to the ROB head"
                );
                let prev = h.prev_phys;
                t.rob.pop_front();
                if prev != PREG_NONE {
                    self.regs[preg_class(prev)].release(preg_index(prev));
                }
                self.insts.free(head);
                t.committed += 1;
                budget -= 1;
            }
        }
    }
}
