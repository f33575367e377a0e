//! Per-class physical register files and per-thread rename maps.
//!
//! The machine renames each [`RegClass`] into its own physical register
//! file, sized `32 × contexts + extra` exactly as in the paper (Section 2:
//! 356 physical registers for 8 contexts and 100 renaming registers).
//! Running out of renaming registers stalls rename — one of the structural
//! bottlenecks the ICOUNT fetch policy exists to relieve.
//!
//! Beyond the free list and scoreboard, every physical register carries a
//! **consumer wakeup list**: the event-driven scheduler registers each
//! dispatched instruction on the registers it still waits for, and
//! [`set_ready`](PhysRegFile::set_ready) hands the drained list back to the
//! pipeline so consumers are woken exactly once — no per-cycle readiness
//! polling anywhere.

use smt_isa::{Reg, RegClass, LOGICAL_REGS};
use smt_stats::binio::invalid;
use smt_stats::persist;

/// A dispatched instruction waiting on a register: an 8-byte
/// generation-authenticated slab handle
/// ([`GenRef`](crate::pipeline::slab::GenRef)). Entries may go stale when
/// the instruction is squashed; the pipeline skips them on wakeup (freeing
/// a slab slot bumps its generation, so the lookup fails).
pub(crate) type Consumer = crate::pipeline::slab::GenRef;

/// How many consumers one register's record stores inline. Dependence
/// chains in a renamed window rarely hang more than a couple of readers
/// off one physical register; the rare overflow spills to a shared
/// side list.
const INLINE_WAITERS: usize = 3;

/// One physical register's complete record — scoreboard state plus the
/// wakeup list — packed into 40 bytes so the rename path's
/// readiness-check-then-register sequence and the writeback path's
/// set-ready-then-drain sequence each touch one cache line.
#[derive(Debug, Clone, Copy)]
struct RegState {
    /// Cycle at which the register last became ready.
    ready_at: u64,
    /// The first [`INLINE_WAITERS`] waiting consumers, in registration
    /// order.
    inline: [Consumer; INLINE_WAITERS],
    /// Number of waiting consumers (inline plus spilled).
    waiting: u16,
    ready: bool,
    /// Whether the last writer was a load (drives OPT_LAST tagging).
    by_load: bool,
}

/// One class's physical register file: a free list and the per-register
/// records. Wakeup lists live inline in the records; the rare register
/// with more than [`INLINE_WAITERS`] consumers spills the excess to
/// `spill`, keyed by register, in registration order.
#[derive(Debug, Clone)]
pub(crate) struct PhysRegFile {
    free: Vec<u16>,
    state: Box<[RegState]>,
    /// Overflow consumers as `(register, consumer)` pairs in registration
    /// order. Kept tiny (usually empty): scanned only when a register's
    /// `waiting` exceeds its inline capacity.
    spill: Vec<(u16, Consumer)>,
}

impl PhysRegFile {
    pub(crate) fn new(total: usize) -> PhysRegFile {
        assert!(
            total >= LOGICAL_REGS,
            "physical file smaller than one context's logical file"
        );
        PhysRegFile {
            // Allocate low indices first: pop from the back for O(1).
            free: (0..total as u16).rev().collect(),
            state: vec![
                RegState {
                    ready_at: 0,
                    inline: [Consumer::NULL; INLINE_WAITERS],
                    waiting: 0,
                    ready: true,
                    by_load: false,
                };
                total
            ]
            .into(),
            spill: Vec::new(),
        }
    }

    pub(crate) fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Preallocates the spill list for `n` waiter registrations. The
    /// pipeline reserves its hard bound (two source operands per
    /// in-flight instruction, so `2 × slab capacity`) once at
    /// construction, making the steady-state cycle path allocation-free
    /// even when dependence chains overflow the inline slots; checkpoint
    /// restore only `clear()`s the vector, so forked machines keep the
    /// capacity.
    pub(crate) fn reserve_waiters(&mut self, n: usize) {
        self.spill.reserve(n);
    }

    /// Allocates a not-ready register, or `None` when the file is exhausted.
    pub(crate) fn alloc(&mut self) -> Option<u16> {
        let p = self.free.pop()?;
        let s = &mut self.state[p as usize];
        s.ready = false;
        s.by_load = false;
        debug_assert_eq!(s.waiting, 0, "freed register {p} carried stale waiters");
        Some(p)
    }

    /// Returns a register to the free list (commit of the previous mapping,
    /// or squash of the instruction that allocated it). Any waiters still
    /// listed belong to squashed consumers and are dropped, not woken.
    pub(crate) fn release(&mut self, p: u16) {
        debug_assert!(
            !self.free.contains(&p),
            "double free of physical register {p}"
        );
        let s = &mut self.state[p as usize];
        s.ready = true;
        if usize::from(s.waiting) > INLINE_WAITERS {
            self.spill.retain(|&(r, _)| r != p);
        }
        s.waiting = 0;
        self.free.push(p);
    }

    /// The fused dispatch-time source check: if `p` is ready, returns its
    /// load-speculation window end
    /// ([`opt_window_end`](PhysRegFile::opt_window_end)); otherwise
    /// registers `consumer` on `p`'s wakeup list, after any consumers
    /// already there, and returns `None`. One record lookup serves both
    /// halves. Rename calls it once per source operand; a ready register
    /// never un-readies while referenced, so consumers of ready registers
    /// never wait.
    #[inline]
    pub(crate) fn check_or_wait(&mut self, p: u16, consumer: Consumer) -> Option<u64> {
        let s = &mut self.state[p as usize];
        if s.ready {
            return Some(if s.by_load { s.ready_at + 1 } else { 0 });
        }
        let n = usize::from(s.waiting);
        if n < INLINE_WAITERS {
            s.inline[n] = consumer;
        } else {
            self.spill.push((p, consumer));
        }
        s.waiting += 1;
        None
    }

    /// Marks a register's value available as of `cycle` and appends the
    /// consumers waiting on it to `out`, in registration (dispatch) order.
    /// The caller decrements each consumer's outstanding-operand count and
    /// moves newly-complete ones to a ready queue.
    pub(crate) fn set_ready(&mut self, p: u16, cycle: u64, by_load: bool, out: &mut Vec<Consumer>) {
        let s = &mut self.state[p as usize];
        s.ready = true;
        s.by_load = by_load;
        s.ready_at = cycle;
        let n = usize::from(s.waiting);
        if n > 0 {
            out.extend_from_slice(&s.inline[..n.min(INLINE_WAITERS)]);
            s.waiting = 0;
            if n > INLINE_WAITERS {
                // Spilled tail, still in registration order (`retain`
                // preserves order for the remaining registers).
                out.extend(
                    self.spill
                        .iter()
                        .filter(|&&(r, _)| r == p)
                        .map(|&(_, consumer)| consumer),
                );
                self.spill.retain(|&(r, _)| r != p);
            }
        }
    }

    pub(crate) fn is_ready(&self, p: u16) -> bool {
        self.state[p as usize].ready
    }

    /// The last cycle at which a consumer of `p` still counts as
    /// optimistically issued (`0` when `p` was not written by a load): a
    /// consumer issuing at `cycle` rides the load-hit-speculation window
    /// exactly when `cycle <= opt_window_end(p)`. A register's
    /// `(by_load, ready_at)` pair is immutable from the moment it becomes
    /// ready until it is released — and no live consumer outlives the
    /// release — so ready instructions can cache this bound instead of
    /// re-reading the scoreboard every cycle.
    pub(crate) fn opt_window_end(&self, p: u16) -> u64 {
        let s = &self.state[p as usize];
        if s.by_load && s.ready {
            s.ready_at + 1
        } else {
            0
        }
    }

    /// Number of physical registers in this file.
    pub(crate) fn size(&self) -> usize {
        self.state.len()
    }

    /// Every consumer on a wakeup list: the live inline waiters, then the
    /// spilled ones. Inline slots past `waiting` are placeholders.
    pub(crate) fn waiters(&self) -> impl Iterator<Item = Consumer> + '_ {
        let inline = self
            .state
            .iter()
            .flat_map(|s| &s.inline[..usize::from(s.waiting).min(INLINE_WAITERS)]);
        inline.copied().chain(self.spill.iter().map(|&(_, c)| c))
    }

    /// Rejects a restored free or spill list that names a register outside
    /// the file, or a free list that names one twice.
    fn validate(&self) -> std::io::Result<()> {
        let mut seen = vec![false; self.state.len()];
        for &p in &self.free {
            let idx = usize::from(p);
            if idx >= seen.len() || std::mem::replace(&mut seen[idx], true) {
                return Err(invalid(format!("invalid free-list register {p}")));
            }
        }
        match self
            .spill
            .iter()
            .find(|&&(p, _)| usize::from(p) >= seen.len())
        {
            Some((p, _)) => Err(invalid(format!("spilled waiter names register {p}"))),
            None => Ok(()),
        }
    }
}

// Checkpoint sections: the free list, every register record (including its
// inline wakeup list) and the spill list; then each thread's rename map.
persist! { PhysRegFile { free, state, spill } check PhysRegFile::validate }
persist! { RegState { ready_at, inline, waiting, ready, by_load } }
persist! { RenameMap { map } }

/// One thread's rename maps, one per register class.
#[derive(Debug, Clone)]
pub(crate) struct RenameMap {
    map: [[u16; LOGICAL_REGS]; 2],
}

impl RenameMap {
    /// Builds the identity-free initial map by allocating one physical
    /// register per logical register from each class's file. The initial
    /// mappings are ready (architectural state exists at start).
    pub(crate) fn new(files: &mut [PhysRegFile; 2]) -> RenameMap {
        let mut map = [[0u16; LOGICAL_REGS]; 2];
        let mut woken = Vec::new();
        for class in RegClass::ALL {
            for slot in map[class.index()].iter_mut() {
                let p = files[class.index()]
                    .alloc()
                    .expect("physical file must cover the architectural state");
                files[class.index()].set_ready(p, 0, false, &mut woken);
                debug_assert!(woken.is_empty(), "no consumers exist before rename");
                *slot = p;
            }
        }
        RenameMap { map }
    }

    /// Current physical register holding logical register `r`.
    pub(crate) fn lookup(&self, r: Reg) -> u16 {
        self.map[r.class().index()][r.index()]
    }

    /// Points logical register `r` at physical register `p`, returning the
    /// previous mapping (freed when the renaming instruction commits, or
    /// restored if it squashes).
    pub(crate) fn redefine(&mut self, r: Reg, p: u16) -> u16 {
        std::mem::replace(&mut self.map[r.class().index()][r.index()], p)
    }

    /// Rejects a restored map that names a register outside its class's
    /// file.
    pub(crate) fn validate(&self, files: &[PhysRegFile; 2]) -> std::io::Result<()> {
        for (class, file) in self.map.iter().zip(files) {
            if let Some(p) = class.iter().find(|&&p| usize::from(p) >= file.size()) {
                return Err(invalid(format!(
                    "rename map names physical register {p} of a {}-register file",
                    file.size()
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_release_roundtrip() {
        let mut f = PhysRegFile::new(40);
        assert_eq!(f.free_count(), 40);
        let p = f.alloc().unwrap();
        assert!(!f.is_ready(p));
        assert_eq!(f.free_count(), 39);
        let mut woken = Vec::new();
        f.set_ready(p, 5, true, &mut woken);
        assert!(woken.is_empty());
        assert!(f.is_ready(p));
        // Written by a load at cycle 5: consumers issuing at cycle <= 6
        // still ride the load-hit-speculation window.
        assert_eq!(f.opt_window_end(p), 6);
        f.release(p);
        assert_eq!(f.free_count(), 40);
        let q = f.alloc().unwrap();
        f.set_ready(q, 9, false, &mut woken);
        assert_eq!(f.opt_window_end(q), 0, "non-load writers open no window");
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut f = PhysRegFile::new(LOGICAL_REGS);
        for _ in 0..LOGICAL_REGS {
            assert!(f.alloc().is_some());
        }
        assert!(f.alloc().is_none());
    }

    #[test]
    fn waiters_drain_once_in_dispatch_order() {
        let mut f = PhysRegFile::new(40);
        let p = f.alloc().unwrap();
        let (a, b) = (Consumer::synthetic(7, 2), Consumer::synthetic(9, 0));
        assert_eq!(f.check_or_wait(p, a), None);
        assert_eq!(f.check_or_wait(p, b), None);
        let mut woken = Vec::new();
        f.set_ready(p, 3, false, &mut woken);
        assert_eq!(woken, vec![a, b]);
        // Drained: a second query sees nothing (and appends after what the
        // caller's scratch already holds).
        f.set_ready(p, 3, false, &mut woken);
        assert_eq!(woken.len(), 2);
    }

    #[test]
    fn release_drops_stale_waiters_without_waking() {
        let mut f = PhysRegFile::new(40);
        let p = f.alloc().unwrap();
        assert_eq!(f.check_or_wait(p, Consumer::synthetic(11, 0)), None);
        // Squash path: the register dies with its (also-dead) consumers.
        f.release(p);
        let q = f.alloc().unwrap();
        assert_eq!(q, p, "free list is LIFO");
        let mut woken = Vec::new();
        f.set_ready(q, 1, false, &mut woken);
        assert!(woken.is_empty(), "stale waiters leaked");
    }

    #[test]
    fn rename_map_tracks_redefinitions() {
        let mut files = [PhysRegFile::new(64), PhysRegFile::new(64)];
        let mut m = RenameMap::new(&mut files);
        let r3 = Reg::int(3);
        let old = m.lookup(r3);
        let fresh = files[0].alloc().unwrap();
        let prev = m.redefine(r3, fresh);
        assert_eq!(prev, old);
        assert_eq!(m.lookup(r3), fresh);
        // FP namespace is independent.
        assert_ne!(m.lookup(Reg::fp(3)), fresh);
    }
}
