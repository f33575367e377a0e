//! Branch-prediction structures for the SMT simulator.
//!
//! The paper's fetch unit uses a decoupled branch target buffer (BTB) and
//! pattern history table (PHT) in the style of Calder & Grunwald, with the
//! PHT indexed by the XOR of low PC bits and a global history register
//! (McFarling's gshare), plus a 12-entry per-context return address stack:
//!
//! * 256-entry, 4-way set-associative BTB, with a **thread id in every
//!   entry** to avoid predicting phantom branches for other threads,
//! * 2K x 2-bit PHT,
//! * 12-entry return stack per context.
//!
//! The predictor is a passive structure: the pipeline decides when to
//! predict and when to update (correct-path resolution), and owns
//! speculative-history recovery by snapshotting the history register into
//! each in-flight branch.
//!
//! # Examples
//!
//! ```
//! use smt_branch::{BranchPredictor, PredictorConfig};
//! use smt_isa::{Opcode, ThreadId};
//!
//! let mut bp = BranchPredictor::new(PredictorConfig::default(), 8);
//! let t = ThreadId(0);
//! // Train a conditional branch at 0x1000 to be taken to 0x2000.
//! for _ in 0..4 {
//!     let p = bp.predict(t, 0x1000, Opcode::CondBranch);
//!     bp.resolve_cond(t, 0x1000, p.pht_index, true, 0x2000);
//! }
//! let p = bp.predict(t, 0x1000, Opcode::CondBranch);
//! assert!(p.taken);
//! assert_eq!(p.target, Some(0x2000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use smt_isa::{Addr, Opcode, ThreadId};
use smt_stats::binio::invalid;
use smt_stats::persist;

/// Configuration of the branch prediction hardware.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictorConfig {
    /// Total BTB entries (default 256, as in the paper).
    pub btb_entries: usize,
    /// BTB associativity (default 4-way).
    pub btb_assoc: usize,
    /// PHT entries, each a 2-bit counter (default 2048).
    pub pht_entries: usize,
    /// Return-address-stack entries per context (default 12).
    pub ras_entries: usize,
    /// Whether BTB entries carry a thread id (paper: yes). Disabling this
    /// is an ablation that re-introduces cross-thread phantom hits.
    pub thread_tagged_btb: bool,
    /// Whether each context has a private RAS (paper: yes). Disabling
    /// shares one stack among all contexts — an ablation.
    pub per_thread_ras: bool,
}

impl Default for PredictorConfig {
    fn default() -> PredictorConfig {
        PredictorConfig {
            btb_entries: 256,
            btb_assoc: 4,
            pht_entries: 2048,
            ras_entries: 12,
            thread_tagged_btb: true,
            per_thread_ras: true,
        }
    }
}

impl PredictorConfig {
    /// Number of history bits (= log2 of PHT entries).
    pub fn history_bits(&self) -> u32 {
        self.pht_entries.trailing_zeros()
    }
}

smt_stats::counters! {
    /// Prediction-unit activity counters.
    ///
    /// Accumulated by [`BranchPredictor::predict`]; cleared by
    /// [`BranchPredictor::reset_stats`] (e.g. at the end of a warmup window)
    /// without touching the BTB, PHT, RAS or history state, so measurement
    /// windows start with trained tables but clean counters.
    pub struct PredictorStats {
        /// Control-instruction predictions made (all kinds).
        pub predictions: u64,
        /// BTB lookups performed (taken conditionals and non-return jumps).
        pub btb_lookups: u64,
        /// BTB lookups that produced a target.
        pub btb_hits: u64,
        /// Return predictions attempted via the RAS.
        pub ras_predictions: u64,
        /// Return predictions that found the stack empty (misfetch at fetch).
        pub ras_underflows: u64,
    }
}

impl PredictorStats {
    /// Fraction of BTB lookups that hit (0.0 when none were made).
    pub fn btb_hit_rate(&self) -> f64 {
        if self.btb_lookups == 0 {
            0.0
        } else {
            self.btb_hits as f64 / self.btb_lookups as f64
        }
    }
}

/// The outcome of consulting the predictor for one control instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction (always `true` for unconditional control).
    pub taken: bool,
    /// Predicted target, if one was available (BTB/RAS hit). A
    /// predicted-taken control instruction with `target == None` is a
    /// *misfetch*: the fetch unit cannot redirect until decode computes
    /// the target.
    pub target: Option<Addr>,
    /// PHT index used for a conditional prediction (for the later update).
    pub pht_index: u32,
    /// Global history value *before* this prediction's speculative update,
    /// so the pipeline can restore it on a squash.
    pub history_before: u16,
}

impl Prediction {
    /// An oracle-perfect prediction for a control instruction whose
    /// architectural outcome is `(taken, next_pc)`: correct direction,
    /// correct target, no predictor state consulted (the
    /// perfect-branch-prediction ablation). The PHT index and history
    /// snapshot are zero — a perfect prediction never mispredicts, so they
    /// are never used for repair, and the predictor that would consume them
    /// is never trained.
    pub fn perfect(taken: bool, next_pc: Addr) -> Prediction {
        Prediction {
            taken,
            target: Some(next_pc),
            pht_index: 0,
            history_before: 0,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct BtbEntry {
    valid: bool,
    tag: u64,
    thread: u8,
    target: Addr,
    lru: u8,
}

/// Branch target buffer: set-associative, thread-tagged, true-LRU per set.
#[derive(Debug, Clone)]
pub struct Btb {
    sets: usize,
    assoc: usize,
    thread_tagged: bool,
    entries: Box<[BtbEntry]>,
}

impl Btb {
    /// Creates a BTB with `entries` total entries and the given associativity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power-of-two multiple of `assoc`.
    pub fn new(entries: usize, assoc: usize, thread_tagged: bool) -> Btb {
        assert!(
            assoc > 0 && entries.is_multiple_of(assoc),
            "entries must be a multiple of assoc"
        );
        let sets = entries / assoc;
        assert!(
            sets.is_power_of_two(),
            "BTB set count must be a power of two"
        );
        Btb {
            sets,
            assoc,
            thread_tagged,
            entries: vec![BtbEntry::default(); entries].into(),
        }
    }

    #[inline]
    fn set_index(&self, pc: Addr) -> usize {
        ((pc >> 2) as usize) & (self.sets - 1)
    }

    #[inline]
    fn tag(&self, pc: Addr) -> u64 {
        // Set count is a power of two (asserted at construction): shift,
        // not divide, on the per-prediction hot path.
        (pc >> 2) >> self.sets.trailing_zeros()
    }

    /// The base index of `pc`'s set and the way holding `thread`'s entry
    /// for `pc`, if any: the one tag search behind lookups, inserts and
    /// probes.
    #[inline]
    fn find(&self, thread: ThreadId, pc: Addr) -> (usize, Option<usize>) {
        let base = self.set_index(pc) * self.assoc;
        let tag = self.tag(pc);
        let way = (0..self.assoc).find(|&way| {
            let e = &self.entries[base + way];
            e.valid && e.tag == tag && (!self.thread_tagged || e.thread == thread.0)
        });
        (base, way)
    }

    /// Promotes `way` of the set at `base` to most recently used.
    #[inline]
    fn touch(&mut self, base: usize, way: usize) {
        let hit_lru = self.entries[base + way].lru;
        for e in &mut self.entries[base..base + self.assoc] {
            if e.valid && e.lru < hit_lru {
                e.lru += 1;
            }
        }
        self.entries[base + way].lru = 0;
    }

    /// Looks up a target for `pc` fetched by `thread`. Updates LRU on hit.
    pub fn lookup(&mut self, thread: ThreadId, pc: Addr) -> Option<Addr> {
        let (base, way) = self.find(thread, pc);
        let way = way?;
        self.touch(base, way);
        Some(self.entries[base + way].target)
    }

    /// Inserts (or refreshes) a target for `pc`, evicting the LRU way.
    pub fn insert(&mut self, thread: ThreadId, pc: Addr, target: Addr) {
        let (base, way) = self.find(thread, pc);
        // Refresh in place on a tag match.
        if let Some(way) = way {
            self.touch(base, way);
            self.entries[base + way].target = target;
            return;
        }
        // Miss: pick an invalid way, else the LRU way.
        let victim = (0..self.assoc)
            .find(|&way| !self.entries[base + way].valid)
            .unwrap_or_else(|| {
                (0..self.assoc)
                    .max_by_key(|&way| self.entries[base + way].lru)
                    .expect("associativity is positive")
            });
        let max_lru = self.assoc as u8 - 1;
        for e in &mut self.entries[base..base + self.assoc] {
            if e.valid {
                e.lru = e.lru.saturating_add(1).min(max_lru);
            }
        }
        self.entries[base + victim] = BtbEntry {
            valid: true,
            tag: self.tag(pc),
            thread: thread.0,
            target,
            lru: 0,
        };
    }
}

/// Pattern history table of 2-bit saturating counters.
#[derive(Debug, Clone)]
pub struct Pht {
    counters: Box<[u8]>,
}

impl Pht {
    /// Creates a PHT with `entries` counters, initialized weakly-taken.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Pht {
        assert!(
            entries.is_power_of_two(),
            "PHT entries must be a power of two"
        );
        Pht {
            counters: vec![2; entries].into(),
        }
    }

    /// Predicted direction for the given index.
    #[inline]
    pub fn predict(&self, index: u32) -> bool {
        self.counters[index as usize] >= 2
    }

    /// Trains the counter at `index` with the actual direction.
    #[inline]
    pub fn update(&mut self, index: u32, taken: bool) {
        let c = &mut self.counters[index as usize];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether the table is empty (never true for a constructed PHT).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

/// A fixed-capacity circular return-address stack.
///
/// Overflow silently overwrites the oldest entry; underflow returns `None`.
/// Wrong-path pushes and pops corrupt the stack exactly as they would in
/// hardware without checkpoint repair.
#[derive(Debug, Clone)]
pub struct Ras {
    slots: Box<[Addr]>,
    top: usize,
    depth: usize,
}

impl Ras {
    /// Creates an empty stack with `capacity` slots.
    pub fn new(capacity: usize) -> Ras {
        assert!(capacity > 0, "RAS capacity must be positive");
        Ras {
            slots: vec![0; capacity].into(),
            top: 0,
            depth: 0,
        }
    }

    /// Pushes a return address (called at fetch of a subroutine call).
    pub fn push(&mut self, addr: Addr) {
        self.top = (self.top + 1) % self.slots.len();
        self.slots[self.top] = addr;
        self.depth = (self.depth + 1).min(self.slots.len());
    }

    /// Pops the predicted return address (called at fetch of a return).
    pub fn pop(&mut self) -> Option<Addr> {
        if self.depth == 0 {
            return None;
        }
        let addr = self.slots[self.top];
        self.top = (self.top + self.slots.len() - 1) % self.slots.len();
        self.depth -= 1;
        Some(addr)
    }
}

/// The complete branch prediction unit: BTB + PHT + per-context RAS and
/// per-context speculative global history.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    cfg: PredictorConfig,
    btb: Btb,
    pht: Pht,
    ras: Box<[Ras]>,
    history: Box<[u16]>,
    history_mask: u16,
    stats: PredictorStats,
}

impl BranchPredictor {
    /// Creates a predictor for `threads` hardware contexts.
    pub fn new(cfg: PredictorConfig, threads: usize) -> BranchPredictor {
        let btb = Btb::new(cfg.btb_entries, cfg.btb_assoc, cfg.thread_tagged_btb);
        let pht = Pht::new(cfg.pht_entries);
        let ras_count = if cfg.per_thread_ras { threads } else { 1 };
        let ras = (0..ras_count.max(1))
            .map(|_| Ras::new(cfg.ras_entries))
            .collect();
        let history_mask = ((1u32 << cfg.history_bits()) - 1) as u16;
        BranchPredictor {
            cfg,
            btb,
            pht,
            ras,
            history: vec![0; threads].into(),
            history_mask,
            stats: PredictorStats::default(),
        }
    }

    /// The configuration this predictor was built with.
    pub fn config(&self) -> &PredictorConfig {
        &self.cfg
    }

    /// Accumulated prediction-unit counters.
    pub fn stats(&self) -> &PredictorStats {
        &self.stats
    }

    /// Clears the activity counters (e.g. at the end of a warmup window).
    /// The BTB, PHT, return stacks and global histories are preserved.
    pub fn reset_stats(&mut self) {
        self.stats = PredictorStats::default();
    }

    #[inline]
    fn pht_index(&self, thread: ThreadId, pc: Addr) -> u32 {
        let h = self.history[thread.index()] as u64;
        (((pc >> 2) ^ h) as u32) & (self.cfg.pht_entries as u32 - 1)
    }

    #[inline]
    fn ras_index(&self, thread: ThreadId) -> usize {
        if self.cfg.per_thread_ras {
            thread.index()
        } else {
            0
        }
    }

    /// Predicts one control instruction fetched by `thread` at `pc`.
    ///
    /// Conditional branches speculatively update the thread's global
    /// history; calls push the RAS and returns pop it (speculatively, so
    /// wrong-path activity corrupts them, as in hardware).
    pub fn predict(&mut self, thread: ThreadId, pc: Addr, op: Opcode) -> Prediction {
        let history_before = self.history[thread.index()];
        self.stats.predictions += 1;
        match op {
            Opcode::CondBranch => {
                let idx = self.pht_index(thread, pc);
                let taken = self.pht.predict(idx);
                let target = if taken {
                    let t = self.btb.lookup(thread, pc);
                    self.stats.btb_lookups += 1;
                    self.stats.btb_hits += u64::from(t.is_some());
                    t
                } else {
                    None
                };
                // Speculative history update.
                let h = &mut self.history[thread.index()];
                *h = ((*h << 1) | u16::from(taken)) & self.history_mask;
                Prediction {
                    taken,
                    target,
                    pht_index: idx,
                    history_before,
                }
            }
            Opcode::Jump | Opcode::JumpInd => {
                let target = self.btb.lookup(thread, pc);
                self.stats.btb_lookups += 1;
                self.stats.btb_hits += u64::from(target.is_some());
                Prediction {
                    taken: true,
                    target,
                    pht_index: 0,
                    history_before,
                }
            }
            Opcode::Call => {
                let target = self.btb.lookup(thread, pc);
                self.stats.btb_lookups += 1;
                self.stats.btb_hits += u64::from(target.is_some());
                let ras = self.ras_index(thread);
                self.ras[ras].push(pc + smt_isa::INST_BYTES);
                Prediction {
                    taken: true,
                    target,
                    pht_index: 0,
                    history_before,
                }
            }
            Opcode::Return => {
                let ras = self.ras_index(thread);
                let target = self.ras[ras].pop();
                self.stats.ras_predictions += 1;
                self.stats.ras_underflows += u64::from(target.is_none());
                Prediction {
                    taken: true,
                    target,
                    pht_index: 0,
                    history_before,
                }
            }
            other => panic!("predict called on non-control opcode {other}"),
        }
    }

    /// Trains the PHT/BTB after a *correct-path* conditional branch
    /// resolves. `pht_index` must be the index returned at prediction time.
    pub fn resolve_cond(
        &mut self,
        thread: ThreadId,
        pc: Addr,
        pht_index: u32,
        taken: bool,
        target: Addr,
    ) {
        self.pht.update(pht_index, taken);
        if taken {
            self.btb.insert(thread, pc, target);
        }
    }

    /// Trains the BTB after a correct-path unconditional control
    /// instruction (jump, indirect jump, call) resolves. Returns are
    /// predicted solely by the RAS and never stored in the BTB.
    pub fn resolve_uncond(&mut self, thread: ThreadId, pc: Addr, op: Opcode, target: Addr) {
        match op {
            Opcode::Jump | Opcode::JumpInd | Opcode::Call => self.btb.insert(thread, pc, target),
            Opcode::Return => {}
            other => panic!("resolve_uncond called on {other}"),
        }
    }

    /// Restores a thread's speculative global history (mispredict recovery).
    pub fn restore_history(&mut self, thread: ThreadId, history: u16) {
        self.history[thread.index()] = history;
    }

    /// Repairs a thread's speculative global history after a resolved
    /// mispredict by reconstructing it from the pre-prediction snapshot and
    /// the actual direction.
    pub fn repair_history(&mut self, thread: ThreadId, history_before: u16, actual_taken: bool) {
        let h = ((history_before << 1) | u16::from(actual_taken)) & self.history_mask;
        self.history[thread.index()] = h;
    }

    /// Current global history register value for a thread.
    pub fn history(&self, thread: ThreadId) -> u16 {
        self.history[thread.index()]
    }
}

// The predictor's complete deterministic state, as the `smt-branch` section
// of a simulator checkpoint: BTB entries, PHT counters, every RAS, the
// per-thread global histories and the prediction statistics. The
// configuration is covered by the checkpoint header's fingerprint, so
// restore targets a predictor freshly built from it.
persist! { BranchPredictor { btb, pht, ras, history, stats } skip { cfg, history_mask } }
// The configuration's identity bytes, hashed into the checkpoint header's
// fingerprint (`smt_core::checkpoint::config_fingerprint`), never stored.
persist! {
    PredictorConfig {
        btb_entries, btb_assoc, pht_entries, ras_entries, thread_tagged_btb, per_thread_ras,
    }
}
persist! { Btb { entries } skip { sets, assoc, thread_tagged } }
persist! { BtbEntry { valid, tag, thread, target, lru } }
persist! { Pht { counters } check Pht::validate }
persist! { Ras { slots, top, depth } check Ras::validate }

impl Pht {
    fn validate(&self) -> std::io::Result<()> {
        match self.counters.iter().find(|&&c| c > 3) {
            Some(c) => Err(invalid(format!("PHT counter value {c} out of 2-bit range"))),
            None => Ok(()),
        }
    }
}

impl Ras {
    fn validate(&self) -> std::io::Result<()> {
        if self.top >= self.slots.len() || self.depth > self.slots.len() {
            return Err(invalid(format!(
                "RAS pointers (top {}, depth {}) out of range for {} slots",
                self.top,
                self.depth,
                self.slots.len()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Ras {
        /// Current number of valid entries.
        fn depth(&self) -> usize {
            self.depth
        }
    }

    impl BranchPredictor {
        /// Probes the BTB without updating LRU state.
        fn btb_would_hit(&self, thread: ThreadId, pc: Addr) -> bool {
            self.btb.find(thread, pc).1.is_some()
        }

        /// Current RAS depth for a thread.
        fn ras_depth(&self, thread: ThreadId) -> usize {
            self.ras[self.ras_index(thread)].depth()
        }
    }

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    fn predictor() -> BranchPredictor {
        BranchPredictor::new(PredictorConfig::default(), 8)
    }

    #[test]
    fn default_config_matches_paper() {
        let cfg = PredictorConfig::default();
        assert_eq!(cfg.btb_entries, 256);
        assert_eq!(cfg.btb_assoc, 4);
        assert_eq!(cfg.pht_entries, 2048);
        assert_eq!(cfg.ras_entries, 12);
        assert!(cfg.thread_tagged_btb);
        assert_eq!(cfg.history_bits(), 11);
    }

    #[test]
    fn pht_counters_saturate() {
        let mut pht = Pht::new(16);
        for _ in 0..10 {
            pht.update(3, true);
        }
        assert!(pht.predict(3));
        for _ in 0..10 {
            pht.update(3, false);
        }
        assert!(!pht.predict(3));
        // One taken from strongly-not-taken is still not-taken (hysteresis).
        pht.update(3, true);
        assert!(!pht.predict(3));
        pht.update(3, true);
        assert!(pht.predict(3));
    }

    #[test]
    fn btb_learns_and_thread_tags_isolate() {
        let mut bp = predictor();
        for _ in 0..3 {
            let p = bp.predict(T0, 0x4000, Opcode::CondBranch);
            bp.resolve_cond(T0, 0x4000, p.pht_index, true, 0x9000);
        }
        let p = bp.predict(T0, 0x4000, Opcode::CondBranch);
        assert_eq!(p.target, Some(0x9000));
        // Another thread at the same PC must not see thread 0's entry.
        assert!(!bp.btb_would_hit(T1, 0x4000));
        let p1 = bp.predict(T1, 0x4000, Opcode::CondBranch);
        assert_eq!(
            p1.target, None,
            "thread-tagged BTB must not leak across threads"
        );
    }

    #[test]
    fn untagged_btb_leaks_across_threads() {
        let cfg = PredictorConfig {
            thread_tagged_btb: false,
            ..PredictorConfig::default()
        };
        let mut bp = BranchPredictor::new(cfg, 8);
        bp.resolve_uncond(T0, 0x4000, Opcode::Jump, 0x9000);
        assert!(bp.btb_would_hit(T1, 0x4000));
    }

    #[test]
    fn btb_lru_evicts_oldest() {
        // 8 sets with assoc 4; five distinct tags in one set force an eviction.
        let mut btb = Btb::new(32, 4, true);
        let set_stride = 8 * 4; // sets * INST_BYTES
        let pcs: Vec<Addr> = (0..5)
            .map(|i| 0x1000 + i as u64 * set_stride as u64)
            .collect();
        for &pc in &pcs {
            btb.insert(T0, pc, pc + 0x100);
        }
        // The first-inserted entry is LRU and must be gone.
        assert_eq!(btb.lookup(T0, pcs[0]), None);
        for &pc in &pcs[1..] {
            assert_eq!(btb.lookup(T0, pc), Some(pc + 0x100));
        }
    }

    #[test]
    fn btb_refresh_updates_target() {
        let mut btb = Btb::new(32, 4, true);
        btb.insert(T0, 0x100, 0x200);
        btb.insert(T0, 0x100, 0x300);
        assert_eq!(btb.lookup(T0, 0x100), Some(0x300));
    }

    #[test]
    fn ras_predicts_call_return_pairs() {
        let mut bp = predictor();
        bp.predict(T0, 0x1000, Opcode::Call);
        bp.predict(T0, 0x2000, Opcode::Call);
        let p = bp.predict(T0, 0x3000, Opcode::Return);
        assert_eq!(p.target, Some(0x2000 + smt_isa::INST_BYTES));
        let p = bp.predict(T0, 0x3004, Opcode::Return);
        assert_eq!(p.target, Some(0x1000 + smt_isa::INST_BYTES));
        // Underflow: no prediction available.
        let p = bp.predict(T0, 0x3008, Opcode::Return);
        assert_eq!(p.target, None);
    }

    #[test]
    fn ras_overflow_wraps() {
        let mut ras = Ras::new(2);
        ras.push(0x10);
        ras.push(0x20);
        ras.push(0x30); // overwrites 0x10
        assert_eq!(ras.pop(), Some(0x30));
        assert_eq!(ras.pop(), Some(0x20));
        // The overwritten slot yields stale data in hardware; our model
        // reports stack-empty instead, which the pipeline treats as an
        // unpredicted return.
        assert_eq!(ras.depth(), 0);
    }

    #[test]
    fn per_thread_ras_is_private() {
        let mut bp = predictor();
        bp.predict(T0, 0x1000, Opcode::Call);
        assert_eq!(bp.ras_depth(T0), 1);
        assert_eq!(bp.ras_depth(T1), 0);
        let p = bp.predict(T1, 0x2000, Opcode::Return);
        assert_eq!(p.target, None);
    }

    #[test]
    fn shared_ras_ablation_interferes() {
        let cfg = PredictorConfig {
            per_thread_ras: false,
            ..PredictorConfig::default()
        };
        let mut bp = BranchPredictor::new(cfg, 8);
        bp.predict(T0, 0x1000, Opcode::Call);
        // Thread 1 steals thread 0's return address.
        let p = bp.predict(T1, 0x2000, Opcode::Return);
        assert_eq!(p.target, Some(0x1000 + smt_isa::INST_BYTES));
    }

    #[test]
    fn history_snapshot_and_repair() {
        let mut bp = predictor();
        let h0 = bp.history(T0);
        let p = bp.predict(T0, 0x1000, Opcode::CondBranch);
        assert_eq!(p.history_before, h0);
        assert_ne!(
            bp.history(T0),
            h0,
            "weakly-taken init predicts taken, shifting in a 1"
        );
        // Mispredict: repair with the actual (not-taken) direction.
        bp.repair_history(T0, p.history_before, false);
        assert_eq!(bp.history(T0), (h0 << 1) & ((1 << 11) - 1));
        bp.restore_history(T0, h0);
        assert_eq!(bp.history(T0), h0);
    }

    #[test]
    fn history_affects_pht_index() {
        let mut bp = predictor();
        let i1 = bp.pht_index(T0, 0x1000);
        bp.predict(T0, 0x1000, Opcode::CondBranch); // shifts history
        let i2 = bp.pht_index(T0, 0x1000);
        assert_ne!(i1, i2, "gshare index must depend on global history");
    }

    #[test]
    #[should_panic(expected = "non-control")]
    fn predicting_non_control_panics() {
        let mut bp = predictor();
        bp.predict(T0, 0x1000, Opcode::IntAlu);
    }

    #[test]
    fn stats_count_and_reset_preserves_tables() {
        let mut bp = predictor();
        for _ in 0..3 {
            let p = bp.predict(T0, 0x4000, Opcode::CondBranch);
            bp.resolve_cond(T0, 0x4000, p.pht_index, true, 0x9000);
        }
        bp.predict(T0, 0x1000, Opcode::Call);
        let p = bp.predict(T0, 0x2000, Opcode::Return);
        assert!(p.target.is_some());
        let p = bp.predict(T0, 0x2004, Opcode::Return);
        assert!(p.target.is_none(), "second pop underflows");
        let s = *bp.stats();
        assert_eq!(s.predictions, 6);
        assert!(s.btb_lookups >= 1 && s.btb_hits >= 1);
        assert_eq!(s.ras_predictions, 2);
        assert_eq!(s.ras_underflows, 1);
        assert!(s.btb_hit_rate() > 0.0);

        bp.reset_stats();
        assert_eq!(*bp.stats(), PredictorStats::default());
        // Trained state survives: the taken branch still predicts its target.
        let p = bp.predict(T0, 0x4000, Opcode::CondBranch);
        assert_eq!(p.target, Some(0x9000), "reset_stats must not clear the BTB");
    }

    #[test]
    fn jumps_train_btb_returns_do_not() {
        let mut bp = predictor();
        bp.resolve_uncond(T0, 0x100, Opcode::JumpInd, 0x5000);
        assert!(bp.btb_would_hit(T0, 0x100));
        bp.resolve_uncond(T0, 0x200, Opcode::Return, 0x6000);
        assert!(!bp.btb_would_hit(T0, 0x200));
    }

    #[test]
    fn perfect_prediction_carries_the_outcome() {
        let p = Prediction::perfect(true, 0x7000);
        assert!(p.taken);
        assert_eq!(p.target, Some(0x7000), "never a misfetch");
        let p = Prediction::perfect(false, 0x104);
        assert!(!p.taken);
    }
}
