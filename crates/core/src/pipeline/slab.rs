//! Data-oriented storage for in-flight instructions: a generation-indexed
//! slab of packed records, split hot/cold.
//!
//! The PR-3 scheduler removed the per-cycle ROB *scans*; this module
//! removes the per-instruction *cache misses* that remained. Three ideas:
//!
//! * **One slab, 4-byte handles.** Every in-flight instruction lives in a
//!   single [`InstSlab`] shared by all threads, addressed by a 4-byte
//!   [`InstRef`]. Per-thread ROB order (whose un-renamed tail is the
//!   front end), the ready set and every scheduler artifact store these
//!   refs instead of re-deriving `(thread, seq, stable position)`
//!   triples: commit and squash move
//!   4-byte handles, not ~100-byte structs, and a lookup is one array
//!   index. Freed slots go on a free list and are reused, so the slab's
//!   footprint is the in-flight high-water mark, not the instruction
//!   count.
//! * **Generation authentication.** Scheduler artifacts (wakeup-list
//!   entries, calendar events, pending-load completions) can outlive a
//!   squashed instruction. Each slot carries a generation counter, bumped
//!   on free; artifacts carry a [`GenRef`] — ref plus the generation
//!   observed at creation — and [`InstSlab::live`] refuses a stale pair.
//!   This replaces the PR-3 scheme (u64 sequence number + stable-position
//!   arithmetic, 24–32 bytes per artifact) with an 8-byte token and one
//!   compare.
//! * **Hot/cold split.** [`HotInst`] packs everything the steady-state
//!   rename/issue/wakeup/commit path touches into 48 bytes (slot
//!   generation included) — physical registers as sentinel-encoded
//!   `u16`s, state and path flags folded into one byte, logical registers
//!   re-encoded into single bytes — so one instruction is one cache-line
//!   fraction, not two lines. [`ColdInst`] keeps the 24-byte
//!   branch-resolution payload, written only for correct-path control
//!   instructions and touched only when one resolves.
//!
//! The module also houses [`PendingLoads`], the `ReqId`-indexed
//! open-addressed table for outstanding D-cache misses: request ids are dense and monotonic, so a
//! miss completion resolves with one masked array index and one compare
//! instead of a hash probe.

use std::io::{self, Read, Write};

use smt_branch::Prediction;
use smt_isa::{Addr, Opcode, Outcome, Reg, RegClass};
use smt_mem::ReqId;
use smt_stats::binio::{invalid, BinReader, BinWriter};
use smt_stats::{persist, Persist};

const COLD_PRED_TAKEN: u8 = 1 << 0;
const COLD_OUTCOME_TAKEN: u8 = 1 << 1;

/// A 4-byte handle to one slab slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct InstRef(u32);

impl InstRef {
    /// The slot index this handle names.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// An authenticated handle: the slot plus the generation observed when the
/// artifact was created. Stale artifacts (their instruction squashed, the
/// slot possibly reused) fail [`InstSlab::live`] and are dropped, exactly
/// as stale sequence numbers failed `Thread::locate` before.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct GenRef {
    iref: InstRef,
    gen: u32,
}

impl GenRef {
    /// A placeholder handle for empty storage slots (never dereferenced:
    /// slot 0's generation-0 tag is only ever compared after a length
    /// check).
    pub(crate) const NULL: GenRef = GenRef {
        iref: InstRef(0),
        gen: 0,
    };

    /// A synthetic handle for unit tests outside this module (e.g. the
    /// register-file wakeup-list tests, which never resolve their
    /// consumers against a slab).
    #[cfg(test)]
    pub(crate) fn synthetic(slot: u32, gen: u32) -> GenRef {
        GenRef {
            iref: InstRef(slot),
            gen,
        }
    }

    /// The slot handle (checkpoint restore validation).
    #[inline]
    pub(crate) fn slot(self) -> InstRef {
        self.iref
    }
}

/// Sentinel for "no physical register" in the packed `u16` encoding.
pub(crate) const PREG_NONE: u16 = u16::MAX;

/// Packs a `(RegClass, phys)` pair into one `u16`: bit 15 is the class,
/// the low 15 bits the register index. [`PREG_NONE`] is reserved (the
/// physical files are far smaller than 2^15 − 1 registers).
#[inline]
pub(crate) fn preg_pack(class: RegClass, p: u16) -> u16 {
    debug_assert!(p < 0x7fff, "physical register index overflows packing");
    ((class.index() as u16) << 15) | p
}

/// The class index (0 = int, 1 = fp) of a packed physical register.
#[inline]
pub(crate) fn preg_class(v: u16) -> usize {
    (v >> 15) as usize
}

/// The register index of a packed physical register.
#[inline]
pub(crate) fn preg_index(v: u16) -> u16 {
    v & 0x7fff
}

/// Sentinel for "no logical register" in the packed `u8` encoding.
pub(crate) const LREG_NONE: u8 = u8::MAX;

/// Packs a logical register into one byte: bit 7 is the class, the low
/// bits the index (0..32).
#[inline]
pub(crate) fn lreg_pack(r: Option<Reg>) -> u8 {
    match r {
        None => LREG_NONE,
        Some(r) => ((r.class().index() as u8) << 7) | r.index() as u8,
    }
}

/// Decodes a packed logical register ([`lreg_pack`]); must not be
/// [`LREG_NONE`].
#[inline]
pub(crate) fn lreg_unpack(v: u8) -> Reg {
    debug_assert_ne!(v, LREG_NONE);
    if v & 0x80 == 0 {
        Reg::int(v)
    } else {
        Reg::fp(v & 0x7f)
    }
}

/// Lifecycle of one in-flight instruction (3 bits of [`HotInst::flags`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InstState {
    /// In the front end (decode/rename pipe: the thread's ROB tail);
    /// enters a queue once [`HotInst::when`] (decode-done cycle) has
    /// passed.
    Decoding = 0,
    /// In an instruction queue, waiting for operands and a functional unit.
    Queued = 1,
    /// Issued; result written back at [`HotInst::when`].
    Executing = 2,
    /// A load waiting on an outstanding D-cache miss.
    WaitingMem = 3,
    /// Executed; awaiting in-order retirement.
    Done = 4,
}

const STATE_MASK: u8 = 0b0000_0111;
const FLAG_WRONG_PATH: u8 = 0b0000_1000;
const FLAG_MISPREDICT: u8 = 0b0001_0000;

/// The packed hot record: everything the steady-state cycle path touches,
/// in 48 bytes (including the slot's generation, so artifact
/// authentication and the subsequent field reads share one cache line).
/// Cold payload lives in the parallel [`ColdInst`] array.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct HotInst {
    /// The slot's generation, owned by the slab (callers never write it):
    /// bumped on free so outstanding [`GenRef`]s go stale.
    pub(crate) gen: u32,
    /// Global fetch order; never reused (the issue policies' age key).
    pub(crate) seq: u64,
    /// Decode-done cycle while `Decoding`; writeback cycle while
    /// `Executing`; meaningless otherwise.
    pub(crate) when: u64,
    /// Effective address for memory instructions (synthesized on the wrong
    /// path).
    pub(crate) mem_addr: Addr,
    /// Packed destination physical register ([`preg_pack`] / [`PREG_NONE`]).
    pub(crate) dest_phys: u16,
    /// Packed previous mapping of the destination (freed at commit,
    /// restored at squash).
    pub(crate) prev_phys: u16,
    /// Packed renamed sources.
    pub(crate) srcs_phys: [u16; 2],
    /// State (bits 0–2), wrong-path (bit 3) and mispredict (bit 4) flags.
    pub(crate) flags: u8,
    /// Instruction class (functional unit, queue, latency).
    pub(crate) op: Opcode,
    /// Owning thread index.
    pub(crate) ti: u8,
    /// Source operands still outstanding; while non-zero the instruction
    /// sits only in wakeup lists.
    pub(crate) pending_srcs: u8,
    /// Packed logical destination ([`lreg_pack`]): rename and squash never
    /// touch the cold record.
    pub(crate) dest_log: u8,
    /// Packed logical sources.
    pub(crate) srcs_log: [u8; 2],
}

impl HotInst {
    #[inline]
    pub(crate) fn state(&self) -> InstState {
        match self.flags & STATE_MASK {
            0 => InstState::Decoding,
            1 => InstState::Queued,
            2 => InstState::Executing,
            3 => InstState::WaitingMem,
            _ => InstState::Done,
        }
    }

    #[inline]
    pub(crate) fn set_state(&mut self, s: InstState) {
        self.flags = (self.flags & !STATE_MASK) | s as u8;
    }

    #[inline]
    pub(crate) fn wrong_path(&self) -> bool {
        self.flags & FLAG_WRONG_PATH != 0
    }

    #[inline]
    pub(crate) fn mispredict(&self) -> bool {
        self.flags & FLAG_MISPREDICT != 0
    }

    /// The initial flag byte for a freshly fetched (Decoding) instruction.
    #[inline]
    pub(crate) fn initial_flags(wrong_path: bool, mispredict: bool) -> u8 {
        InstState::Decoding as u8
            | if wrong_path { FLAG_WRONG_PATH } else { 0 }
            | if mispredict { FLAG_MISPREDICT } else { 0 }
    }

    fn validate(&self) -> io::Result<()> {
        let flags = self.flags;
        if flags & STATE_MASK > InstState::Done as u8
            || flags & !(STATE_MASK | FLAG_WRONG_PATH | FLAG_MISPREDICT) != 0
        {
            return Err(invalid(format!(
                "invalid instruction flag byte {flags:#04x}"
            )));
        }
        Ok(())
    }
}

/// The cold record: the branch-resolution payload, packed to 24 bytes and
/// written **only for correct-path control instructions** — the only ones
/// ever resolved against it. Everything else the pipeline needs after
/// fetch lives in the hot record, so ~85% of fetched instructions never
/// touch this array at all.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ColdInst {
    /// Fetch PC.
    pub(crate) pc: Addr,
    /// The architectural next PC (`Outcome::next_pc`).
    pub(crate) next_pc: Addr,
    /// PHT index snapshot for predictor training.
    pub(crate) pht_index: u32,
    /// Global-history snapshot for mispredict repair.
    pub(crate) history_before: u16,
    /// Direction bits: predicted taken, target present, outcome taken.
    cflags: u8,
}

impl ColdInst {
    /// Packs the resolution payload of a correct-path control instruction.
    #[inline]
    pub(crate) fn for_control(pc: Addr, pred: &Prediction, outcome: &Outcome) -> ColdInst {
        ColdInst {
            pc,
            next_pc: outcome.next_pc,
            pht_index: pred.pht_index,
            history_before: pred.history_before,
            cflags: (pred.taken as u8 * COLD_PRED_TAKEN)
                | (outcome.taken as u8 * COLD_OUTCOME_TAKEN),
        }
    }

    /// The predicted direction.
    #[inline]
    pub(crate) fn pred_taken(&self) -> bool {
        self.cflags & COLD_PRED_TAKEN != 0
    }

    /// The architectural direction.
    #[inline]
    pub(crate) fn outcome_taken(&self) -> bool {
        self.cflags & COLD_OUTCOME_TAKEN != 0
    }

    fn validate(&self) -> io::Result<()> {
        if self.cflags & !(COLD_PRED_TAKEN | COLD_OUTCOME_TAKEN) != 0 {
            return Err(invalid(format!(
                "invalid cold flag byte {:#04x}",
                self.cflags
            )));
        }
        Ok(())
    }
}

/// The generation-indexed slab holding every in-flight instruction.
#[derive(Debug)]
pub(crate) struct InstSlab {
    /// Packed hot records, indexed by [`InstRef`]; each record carries its
    /// slot's generation.
    pub(crate) hot: Vec<HotInst>,
    /// Parallel cold records (branch-resolution payload; written only for
    /// correct-path control instructions).
    pub(crate) cold: Vec<ColdInst>,
    /// Reusable slots (LIFO, so the hottest lines are reused first).
    free: Vec<u32>,
}

impl InstSlab {
    /// An empty slab with room for `capacity` in-flight instructions
    /// before the first growth.
    pub(crate) fn with_capacity(capacity: usize) -> InstSlab {
        InstSlab {
            hot: Vec::with_capacity(capacity),
            cold: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
        }
    }

    /// Number of live (allocated) instructions (test observability; the
    /// pipeline itself never needs a census).
    #[cfg(test)]
    pub(crate) fn live_count(&self) -> usize {
        self.hot.len() - self.free.len()
    }

    /// Allocates a slot for `hot` (its `gen` field is overwritten with the
    /// slot's), reusing the most recently freed slot if any. The cold
    /// record is **not** written — callers that need one (correct-path
    /// control instructions) store it through
    /// [`cold`](InstSlab::cold) afterwards; everyone else skips the array
    /// entirely. Fetch allocates every instruction here, one at a time.
    #[inline]
    pub(crate) fn alloc(&mut self, mut hot: HotInst) -> InstRef {
        match self.free.pop() {
            Some(i) => {
                hot.gen = self.hot[i as usize].gen;
                self.hot[i as usize] = hot;
                InstRef(i)
            }
            None => {
                let i = self.hot.len() as u32;
                hot.gen = 0;
                self.hot.push(hot);
                self.cold.push(ColdInst::default());
                InstRef(i)
            }
        }
    }

    /// Frees a slot (commit or squash): bumps its generation so every
    /// outstanding [`GenRef`] to it goes stale, and recycles the index.
    pub(crate) fn free(&mut self, r: InstRef) {
        let h = &mut self.hot[r.index()];
        h.gen = h.gen.wrapping_add(1);
        self.free.push(r.0);
    }

    /// An authenticated handle to a currently-live slot.
    #[inline]
    pub(crate) fn tag(&self, r: InstRef) -> GenRef {
        GenRef {
            iref: r,
            gen: self.hot[r.index()].gen,
        }
    }

    /// Resolves an authenticated handle, or `None` when the instruction is
    /// gone (committed or squashed; the slot's generation moved on).
    #[inline]
    pub(crate) fn live(&self, t: GenRef) -> Option<InstRef> {
        (self.hot[t.iref.index()].gen == t.gen).then_some(t.iref)
    }

    /// Rejects a restored handle that names no slot.
    pub(crate) fn check_ref(&self, r: InstRef) -> io::Result<()> {
        if r.index() < self.hot.len() {
            Ok(())
        } else {
            Err(invalid(format!(
                "instruction handle {} outside the slab",
                r.0
            )))
        }
    }

    /// Rejects a restored free list that names a slot outside the slab, or
    /// one slot twice.
    fn validate(&self) -> io::Result<()> {
        let mut seen = vec![false; self.hot.len()];
        for &i in &self.free {
            let idx = i as usize;
            if idx >= seen.len() || std::mem::replace(&mut seen[idx], true) {
                return Err(invalid(format!("invalid free-list slot {i}")));
            }
        }
        Ok(())
    }
}

/// The slab's checkpoint section: every slot's hot record, every slot's
/// cold record, then the free list. The cold array parallels the hot one,
/// so it carries no length of its own — the one layout a field list cannot
/// say.
impl Persist for InstSlab {
    fn save(&self, w: &mut BinWriter<&mut dyn Write>) -> io::Result<()> {
        self.hot.save(w)?;
        ColdInst::save_slice(&self.cold, w)?;
        self.free.save(w)
    }

    fn restore(&mut self, r: &mut BinReader<&mut dyn Read>) -> io::Result<()> {
        self.hot.restore(r)?;
        self.cold.clear();
        self.cold.resize(self.hot.len(), ColdInst::default());
        ColdInst::restore_slice(&mut self.cold, r)?;
        self.free.restore(r)?;
        self.validate()
    }
}

persist! { InstRef { 0 } }
persist! { GenRef { iref, gen } }
persist! {
    HotInst {
        gen, seq, when, mem_addr, dest_phys, prev_phys, srcs_phys, flags, op via opcode, ti,
        pending_srcs, dest_log, srcs_log,
    } check HotInst::validate
}
persist! { ColdInst { pc, next_pc, pht_index, history_before, cflags } check ColdInst::validate }

/// [`Opcode`]'s checkpoint codec: its [`Opcode::code`] byte.
pub(crate) mod opcode {
    use std::io::{self, Read, Write};

    use smt_isa::Opcode;
    use smt_stats::binio::{invalid, BinReader, BinWriter};

    pub(crate) fn save(op: &Opcode, w: &mut BinWriter<&mut dyn Write>) -> io::Result<()> {
        w.u8(op.code())
    }

    pub(crate) fn restore(op: &mut Opcode, r: &mut BinReader<&mut dyn Read>) -> io::Result<()> {
        let code = r.u8()?;
        *op = Opcode::from_code(code)
            .ok_or_else(|| invalid(format!("invalid opcode code {code}")))?;
        Ok(())
    }
}

/// Outstanding D-cache-miss loads, keyed by [`ReqId`] in an open-addressed
/// power-of-two table: request ids are issued densely and monotonically by
/// `smt-mem`, and the live window (oldest outstanding to newest) is small,
/// so `req & mask` almost never collides — a completion lookup is one
/// array index plus one compare. On the rare collision (the live window
/// outgrew the table) the table doubles and re-places its live entries.
#[derive(Debug)]
pub(crate) struct PendingLoads {
    slots: Vec<PendingSlot>,
    mask: u64,
    len: usize,
}

#[derive(Debug, Clone, Copy)]
struct PendingSlot {
    /// The raw request id, or `EMPTY`.
    req: u64,
    /// The waiting load.
    load: GenRef,
}

const EMPTY: u64 = u64::MAX;

impl PendingLoads {
    /// An empty table with `capacity` (rounded up to a power of two) slots.
    pub(crate) fn with_capacity(capacity: usize) -> PendingLoads {
        let cap = capacity.next_power_of_two().max(8);
        PendingLoads {
            slots: vec![
                PendingSlot {
                    req: EMPTY,
                    load: GenRef {
                        iref: InstRef(0),
                        gen: 0,
                    },
                };
                cap
            ],
            mask: cap as u64 - 1,
            len: 0,
        }
    }

    /// Number of outstanding entries (test observability).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Records the load waiting on `req`. Request ids are unique, so `req`
    /// is never already present.
    pub(crate) fn insert(&mut self, req: ReqId, load: GenRef) {
        loop {
            let idx = (req.0 & self.mask) as usize;
            if self.slots[idx].req == EMPTY {
                self.slots[idx] = PendingSlot { req: req.0, load };
                self.len += 1;
                return;
            }
            debug_assert_ne!(self.slots[idx].req, req.0, "request ids are unique");
            self.grow();
        }
    }

    /// Removes and returns the load waiting on `req`, if one is recorded.
    #[inline]
    pub(crate) fn remove(&mut self, req: ReqId) -> Option<GenRef> {
        let idx = (req.0 & self.mask) as usize;
        let slot = self.slots[idx];
        if slot.req != req.0 {
            return None; // not a pending load (e.g. an I-side completion)
        }
        self.slots[idx].req = EMPTY;
        self.len -= 1;
        Some(slot.load)
    }

    /// Every outstanding load.
    pub(crate) fn loads(&self) -> impl Iterator<Item = GenRef> + '_ {
        self.slots.iter().filter(|s| s.req != EMPTY).map(|s| s.load)
    }

    /// Doubles the table and re-places the live entries (their home slot
    /// depends on the mask).
    fn grow(&mut self) {
        let old = std::mem::replace(
            &mut self.slots,
            vec![
                PendingSlot {
                    req: EMPTY,
                    load: GenRef {
                        iref: InstRef(0),
                        gen: 0,
                    },
                };
                (self.mask as usize + 1) * 2
            ],
        );
        self.mask = self.slots.len() as u64 - 1;
        for s in old {
            if s.req != EMPTY {
                let idx = (s.req & self.mask) as usize;
                debug_assert_eq!(self.slots[idx].req, EMPTY, "doubling separates the window");
                self.slots[idx] = s;
            }
        }
    }
}

/// The table's checkpoint section: its capacity, then the live entries in
/// slot order. Slot order is deterministic for a given logical content and
/// capacity, so identical state produces identical bytes; restore
/// re-inserts each entry into a table of the saved capacity, so the slot
/// layout — and thus any later checkpoint — reproduces exactly.
impl Persist for PendingLoads {
    fn save(&self, w: &mut BinWriter<&mut dyn Write>) -> io::Result<()> {
        w.len(self.slots.len())?;
        w.len(self.len)?;
        for s in self.slots.iter().filter(|s| s.req != EMPTY) {
            (s.req, s.load).save(w)?;
        }
        Ok(())
    }

    fn restore(&mut self, r: &mut BinReader<&mut dyn Read>) -> io::Result<()> {
        let cap = r.len()?;
        if !cap.is_power_of_two() || cap > 1 << 24 {
            return Err(invalid(format!(
                "invalid pending-load table capacity {cap}"
            )));
        }
        let n = r.len()?;
        if n > cap {
            return Err(invalid(format!(
                "{n} pending loads exceed table capacity {cap}"
            )));
        }
        *self = PendingLoads::with_capacity(cap);
        for _ in 0..n {
            let (req, load) = <(u64, GenRef)>::decode(r)?;
            // `insert` assumes unique ids: a repeated one would double the
            // table forever.
            if req == EMPTY || self.slots[(req & self.mask) as usize].req == req {
                return Err(invalid(format!(
                    "empty-sentinel or repeated pending-load request id {req:#x}"
                )));
            }
            self.insert(ReqId(req), load);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot(seq: u64) -> HotInst {
        HotInst {
            gen: 0,
            seq,
            when: 0,
            mem_addr: 0,
            dest_phys: PREG_NONE,
            prev_phys: PREG_NONE,
            srcs_phys: [PREG_NONE, PREG_NONE],
            flags: HotInst::initial_flags(false, false),
            op: Opcode::IntAlu,
            ti: 0,
            pending_srcs: 0,
            dest_log: LREG_NONE,
            srcs_log: [LREG_NONE, LREG_NONE],
        }
    }

    #[test]
    fn hot_record_is_one_packed_line_fraction() {
        assert_eq!(std::mem::size_of::<HotInst>(), 48, "hot record grew");
        assert_eq!(std::mem::size_of::<ColdInst>(), 24, "cold record grew");
        assert_eq!(std::mem::size_of::<InstRef>(), 4);
        assert_eq!(std::mem::size_of::<GenRef>(), 8);
    }

    #[test]
    fn state_and_flags_pack_into_one_byte() {
        let mut h = hot(1);
        assert_eq!(h.state(), InstState::Decoding);
        assert!(!h.wrong_path() && !h.mispredict());
        for s in [
            InstState::Queued,
            InstState::Executing,
            InstState::WaitingMem,
            InstState::Done,
            InstState::Decoding,
        ] {
            h.set_state(s);
            assert_eq!(h.state(), s);
        }
        let h2 = HotInst {
            flags: HotInst::initial_flags(true, true),
            ..h
        };
        assert!(h2.wrong_path() && h2.mispredict());
        assert_eq!(h2.state(), InstState::Decoding);
    }

    #[test]
    fn preg_packing_roundtrips() {
        for (class, p) in [
            (RegClass::Int, 0u16),
            (RegClass::Fp, 355),
            (RegClass::Int, 0x7ffe),
        ] {
            let v = preg_pack(class, p);
            assert_ne!(v, PREG_NONE);
            assert_eq!(preg_class(v), class.index());
            assert_eq!(preg_index(v), p);
        }
    }

    #[test]
    fn lreg_packing_roundtrips() {
        assert_eq!(lreg_pack(None), LREG_NONE);
        for i in 0..32 {
            for r in [Reg::int(i), Reg::fp(i)] {
                let v = lreg_pack(Some(r));
                assert_ne!(v, LREG_NONE);
                assert_eq!(lreg_unpack(v), r);
            }
        }
    }

    #[test]
    fn slab_reuses_slots_and_stales_old_refs() {
        let mut slab = InstSlab::with_capacity(4);
        let a = slab.alloc(hot(1));
        let tag_a = slab.tag(a);
        assert_eq!(slab.live(tag_a), Some(a));
        assert_eq!(slab.live_count(), 1);

        slab.free(a);
        assert_eq!(slab.live(tag_a), None, "freed slot must stale its refs");
        assert_eq!(slab.live_count(), 0);

        // LIFO reuse: the same slot comes back with a new generation.
        let b = slab.alloc(hot(2));
        assert_eq!(b.index(), a.index());
        assert_eq!(slab.live(tag_a), None, "old tag stays stale after reuse");
        assert_eq!(slab.live(slab.tag(b)), Some(b));
        assert_eq!(slab.hot[b.index()].seq, 2);
    }

    #[test]
    fn slab_generation_wraparound_is_safe() {
        // Drive one slot's generation across the u32 wrap boundary: tags
        // taken on the generations adjacent to the wrap must stay stale
        // through it, and fresh tags must keep authenticating. (A tag only
        // ever collides again after exactly 2^32 reuses of its slot, which
        // would take over 4 billion simulated cycles while an artifact's
        // lifetime is bounded by the calendar ring and register lifetimes.)
        let mut slab = InstSlab::with_capacity(1);
        let r = slab.alloc(hot(0));
        slab.free(r);
        // Fast-forward the generation to just before the wrap.
        slab.hot[r.index()].gen = u32::MAX - 1;
        let r2 = slab.alloc(hot(1));
        assert_eq!(r2.index(), r.index());
        let pre_wrap = slab.tag(r2); // gen u32::MAX - 1
        slab.free(r2); // -> u32::MAX
        let r3 = slab.alloc(hot(2));
        let at_max = slab.tag(r3); // gen u32::MAX
        assert_eq!(slab.live(pre_wrap), None, "freed tag is stale");
        assert_eq!(slab.live(at_max), Some(r3));
        slab.free(r3); // u32::MAX -> 0 (wrap)
        let r4 = slab.alloc(hot(3));
        assert_eq!(slab.hot[r4.index()].gen, 0, "generation wrapped");
        assert_eq!(slab.live(pre_wrap), None, "pre-wrap tag stays stale");
        assert_eq!(slab.live(at_max), None, "wrap-boundary tag stays stale");
        assert_eq!(slab.live(slab.tag(r4)), Some(r4));
        assert_eq!(slab.hot[r4.index()].seq, 3);
    }

    #[test]
    fn pending_loads_insert_remove_roundtrip() {
        let mut slab = InstSlab::with_capacity(2);
        let a = slab.alloc(hot(1));
        let b = slab.alloc(hot(2));
        let mut p = PendingLoads::with_capacity(8);
        p.insert(ReqId(3), slab.tag(a));
        p.insert(ReqId(11), slab.tag(b)); // 11 & 7 == 3: forces a grow
        assert_eq!(p.len(), 2);
        assert_eq!(p.remove(ReqId(3)), Some(slab.tag(a)));
        assert_eq!(p.remove(ReqId(3)), None, "removal is once-only");
        assert_eq!(p.remove(ReqId(11)), Some(slab.tag(b)));
        assert_eq!(p.len(), 0);
        // Unknown requests (e.g. I-side completions) resolve to None.
        assert_eq!(p.remove(ReqId(999)), None);
    }

    #[test]
    fn pending_loads_survive_many_colliding_windows() {
        let mut slab = InstSlab::with_capacity(1);
        let a = slab.alloc(hot(1));
        let tag = slab.tag(a);
        let mut p = PendingLoads::with_capacity(8);
        // Monotonic request ids with a sliding live window, as the memory
        // hierarchy produces them.
        for base in 0..1000u64 {
            for k in 0..4 {
                p.insert(ReqId(base * 4 + k), tag);
            }
            for k in 0..4 {
                assert_eq!(p.remove(ReqId(base * 4 + k)), Some(tag));
            }
        }
        assert_eq!(p.len(), 0);
    }
}
