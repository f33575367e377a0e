//! The memory subsystem of the SMT simulator.
//!
//! Implements the cache hierarchy of Table 2 of Tullsen et al., ISCA 1996:
//!
//! | level | size  | assoc | line | banks | xfer | acc/cyc | fill | lat. to next |
//! |-------|-------|-------|------|-------|------|---------|------|--------------|
//! | I$    | 32 KB | DM    | 64 B | 8     | 1    | 1-4     | 2    | 6            |
//! | D$    | 32 KB | DM    | 64 B | 8     | 1    | 4       | 2    | 6            |
//! | L2    | 256 KB| 4-way | 64 B | 8     | 1    | 1       | 2    | 12           |
//! | L3    | 2 MB  | DM    | 64 B | 1     | 4    | 1/4     | 8    | 62           |
//!
//! Caches are lockup-free (MSHRs with secondary-miss merging), banked with
//! per-cycle port limits, and connected by buses with occupancy, so the
//! "memory throughput" concern of the paper (Section 7) is modeled: requests
//! experience queueing delays at busy banks and buses even though latencies
//! are fixed. TLB misses cost two full memory accesses and consume no
//! execution resources.
//!
//! Misses are **scheduled completion events**, not polled state: starting
//! a miss computes its data-return cycle up front (reserving bank and bus
//! occupancy along the way), and [`MemoryHierarchy::begin_cycle`] delivers
//! each [`Completion`] on exactly that cycle. The earliest due cycle of
//! every event class (line fills, delay-only TLB walks, miss completions)
//! is tracked, so an event-free cycle costs four counter resets and three
//! compares — nothing is rescanned. The pipeline consumes the events each
//! cycle:
//!
//! ```
//! use smt_mem::{MemConfig, MemoryHierarchy, AccessResult};
//! use smt_isa::ThreadId;
//!
//! let mut mem = MemoryHierarchy::new(MemConfig::default());
//! mem.begin_cycle(0);
//! match mem.dcache_access(ThreadId(0), 0x1_0000, false) {
//!     AccessResult::Hit => {}
//!     AccessResult::Miss(req) => {
//!         // `req`'s Completion event arrives via
//!         // `drain_completions_into` on the cycle the data returns.
//!         let _ = req;
//!     }
//!     AccessResult::BankConflict => { /* retry next cycle */ }
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{Read, Write};

use smt_isa::{Addr, ThreadId};
use smt_stats::binio::{invalid, BinReader, BinWriter};
use smt_stats::{persist, Persist};

/// Parameters of one cache level (one row of Table 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (1 = direct mapped).
    pub assoc: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Number of single-ported banks (line-interleaved).
    pub banks: usize,
    /// Maximum accesses started per cycle across all banks.
    pub accesses_per_cycle: u32,
    /// For slow arrays: minimum cycles between successive accesses to the
    /// same bank (L3: 4, i.e. 1/4 access per cycle).
    pub cycles_per_access: u64,
    /// Bus transfer time to the next level, in cycles.
    pub transfer_cycles: u64,
    /// Cycles a fill occupies the bank.
    pub fill_cycles: u64,
    /// Latency to retrieve data from the *next* level on a miss here.
    pub latency_to_next: u64,
}

impl CacheParams {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.assoc)
    }

    /// The bank index servicing `addr` (line-interleaved). Line size and
    /// bank count are powers of two (the bank mask below already assumes
    /// so), so the line number is a shift, not a division — this runs on
    /// every cache access the pipeline makes.
    pub fn bank_of(&self, addr: Addr) -> usize {
        ((addr >> self.line_bytes.trailing_zeros()) as usize) & (self.banks - 1)
    }

    /// The aligned line address containing `addr`.
    pub fn line_of(&self, addr: Addr) -> Addr {
        addr & !(self.line_bytes as u64 - 1)
    }
}

/// Configuration of the entire memory subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemConfig {
    /// Instruction cache parameters.
    pub icache: CacheParams,
    /// Data cache parameters.
    pub dcache: CacheParams,
    /// Unified second-level cache.
    pub l2: CacheParams,
    /// Unified third-level cache.
    pub l3: CacheParams,
    /// Instruction TLB entries (fully associative, LRU).
    pub itlb_entries: usize,
    /// Data TLB entries.
    pub dtlb_entries: usize,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Number of MSHRs (outstanding primary misses) per L1 cache.
    pub mshrs: usize,
    /// When set, bank/bus/port contention is disabled: every access sees
    /// only raw latencies (the "infinite bandwidth" ablation of Section 7).
    pub infinite_bandwidth: bool,
    /// When set, every instruction fetch hits in one cycle: no I-cache
    /// misses, no I-TLB walks, and no I-side bank/port conflicts (the
    /// "perfect I-cache" ablation used to isolate cold-start fetch
    /// behaviour). The data side is unaffected.
    pub perfect_icache: bool,
}

impl Default for MemConfig {
    fn default() -> MemConfig {
        MemConfig {
            icache: CacheParams {
                size_bytes: 32 * 1024,
                assoc: 1,
                line_bytes: 64,
                banks: 8,
                accesses_per_cycle: 4,
                cycles_per_access: 1,
                transfer_cycles: 1,
                fill_cycles: 2,
                latency_to_next: 6,
            },
            dcache: CacheParams {
                size_bytes: 32 * 1024,
                assoc: 1,
                line_bytes: 64,
                banks: 8,
                accesses_per_cycle: 4,
                cycles_per_access: 1,
                transfer_cycles: 1,
                fill_cycles: 2,
                latency_to_next: 6,
            },
            l2: CacheParams {
                size_bytes: 256 * 1024,
                assoc: 4,
                line_bytes: 64,
                banks: 8,
                accesses_per_cycle: 1,
                cycles_per_access: 1,
                transfer_cycles: 1,
                fill_cycles: 2,
                latency_to_next: 12,
            },
            l3: CacheParams {
                size_bytes: 2 * 1024 * 1024,
                assoc: 1,
                line_bytes: 64,
                banks: 1,
                accesses_per_cycle: 1,
                cycles_per_access: 4,
                transfer_cycles: 4,
                fill_cycles: 8,
                latency_to_next: 62,
            },
            itlb_entries: 64,
            dtlb_entries: 128,
            page_bytes: 8 * 1024,
            mshrs: 8,
            infinite_bandwidth: false,
            perfect_icache: false,
        }
    }
}

/// Identifier of an outstanding miss request, returned on completion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(pub u64);

/// Result of a cache access attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// Data available at the level's hit latency.
    Hit,
    /// Miss: data will arrive later, as a [`Completion`] delivered through
    /// [`MemoryHierarchy::drain_completions_into`].
    Miss(ReqId),
    /// The bank (or the cache's per-cycle port budget) is busy this cycle;
    /// the access did not happen and must be retried.
    BankConflict,
}

smt_stats::counters! {
    /// Hit/miss counters for one cache or TLB level.
    pub struct LevelStats {
        /// Number of accesses (lookups) at this level.
        pub accesses: u64,
        /// Number of those that missed.
        pub misses: u64,
    }
}

impl LevelStats {
    /// Miss rate in percent (0 when no accesses).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64 * 100.0
        }
    }
}

smt_stats::counters! {
    /// Statistics for the whole memory subsystem.
    pub struct MemStats {
        /// I-cache lookups.
        pub icache: LevelStats,
        /// D-cache lookups.
        pub dcache: LevelStats,
        /// L2 lookups (from both I and D sides).
        pub l2: LevelStats,
        /// L3 lookups.
        pub l3: LevelStats,
        /// Instruction TLB lookups.
        pub itlb: LevelStats,
        /// Data TLB lookups.
        pub dtlb: LevelStats,
        /// Dirty lines written back.
        pub writebacks: u64,
        /// D-cache accesses rejected for bank/port conflicts.
        pub bank_conflicts: u64,
        /// Secondary misses merged into an outstanding MSHR.
        pub mshr_merges: u64,
    }
}

/// One tag-array line, packed to 8 bytes: the tag is stored truncated to
/// 32 bits, which is exact for any address below 2^(32 + tag shift) —
/// ≥ 2^47 for every level here, far beyond the simulator's synthetic
/// address space (debug builds assert it). Halving the line doubles how
/// many sets fit in one host cache line on the per-fetch probe path.
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u32,
    valid: bool,
    dirty: bool,
    lru: u8,
}

/// A set-associative (or direct-mapped) tag array with true LRU.
///
/// Line size and set count are powers of two, so set/tag extraction is
/// shift-and-mask (precomputed at construction) — no division on the
/// per-access hot path.
#[derive(Debug, Clone)]
struct TagArray {
    sets: usize,
    assoc: usize,
    line_shift: u32,
    tag_shift: u32,
    lines: Box<[Line]>,
}

impl TagArray {
    fn new(p: &CacheParams) -> TagArray {
        let sets = p.sets();
        assert!(
            sets.is_power_of_two(),
            "cache set count must be a power of two"
        );
        assert!(
            p.line_bytes.is_power_of_two(),
            "cache line size must be a power of two"
        );
        let line_shift = p.line_bytes.trailing_zeros();
        TagArray {
            sets,
            assoc: p.assoc,
            line_shift,
            tag_shift: line_shift + sets.trailing_zeros(),
            lines: vec![Line::default(); sets * p.assoc].into(),
        }
    }

    #[inline]
    fn set_of(&self, addr: Addr) -> usize {
        ((addr >> self.line_shift) as usize) & (self.sets - 1)
    }

    #[inline]
    fn tag_of(&self, addr: Addr) -> u32 {
        debug_assert!(
            addr >> self.tag_shift <= u64::from(u32::MAX),
            "address beyond the packed 32-bit tag range"
        );
        (addr >> self.tag_shift) as u32
    }

    /// Access for read/write; returns true on hit and updates LRU/dirty.
    fn access(&mut self, addr: Addr, write: bool) -> bool {
        let base = self.set_of(addr) * self.assoc;
        let tag = self.tag_of(addr);
        for w in 0..self.assoc {
            if self.lines[base + w].valid && self.lines[base + w].tag == tag {
                let hit_lru = self.lines[base + w].lru;
                for v in 0..self.assoc {
                    let l = &mut self.lines[base + v];
                    if l.valid && l.lru < hit_lru {
                        l.lru += 1;
                    }
                }
                let l = &mut self.lines[base + w];
                l.lru = 0;
                l.dirty |= write;
                return true;
            }
        }
        false
    }

    /// Install the line containing `addr`; returns the evicted dirty line
    /// address, if any.
    fn install(&mut self, addr: Addr, dirty: bool) -> Option<Addr> {
        let set = self.set_of(addr);
        let base = set * self.assoc;
        let tag = self.tag_of(addr);
        // Already present (e.g. a racing fill): just refresh.
        for w in 0..self.assoc {
            if self.lines[base + w].valid && self.lines[base + w].tag == tag {
                self.lines[base + w].dirty |= dirty;
                return None;
            }
        }
        let victim = (0..self.assoc)
            .find(|&w| !self.lines[base + w].valid)
            .unwrap_or_else(|| {
                (0..self.assoc)
                    .max_by_key(|&w| self.lines[base + w].lru)
                    .expect("assoc > 0")
            });
        let evicted = &self.lines[base + victim];
        let wb = if evicted.valid && evicted.dirty {
            Some((u64::from(evicted.tag) << self.tag_shift) | ((set as u64) << self.line_shift))
        } else {
            None
        };
        for w in 0..self.assoc {
            let l = &mut self.lines[base + w];
            if l.valid {
                l.lru = l.lru.saturating_add(1).min(self.assoc as u8 - 1);
            }
        }
        self.lines[base + victim] = Line {
            tag,
            valid: true,
            dirty,
            lru: 0,
        };
        wb
    }
}

/// A fully-associative, LRU, thread-tagged TLB.
///
/// Recency is tracked with unique monotonic use-stamps instead of a
/// physically ordered list: a hit bumps one stamp (O(1), on the pipeline's
/// per-access hot path), and eviction — only on a miss with a full TLB —
/// scans for the minimum stamp, which is exactly the least-recently-used
/// entry an ordered list would evict. Stamps are unique, so the victim is
/// deterministic.
///
/// Storage is a small open-addressed table (linear probing over
/// `(thread, vpn)` keys) fronted by a **per-thread last-translation
/// cache**: memory access streams are page-local, so most lookups match
/// the thread's previous page and resolve to a direct stamp write in the
/// remembered slot — no hashing, no probing. The filter stores the slot
/// index, so LRU stamps stay exact.
#[derive(Debug, Clone, Copy, Default)]
struct TlbEntry {
    /// Occupied-slot marker. Deletion compacts the probe chain
    /// (backward-shift), so an unoccupied slot always terminates a probe —
    /// no tombstones.
    live: bool,
    thread: u8,
    vpn: u64,
    stamp: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct TlbFilter {
    vpn: u64,
    slot: u32,
}

#[derive(Debug, Clone)]
struct Tlb {
    slots: Box<[TlbEntry]>,
    mask: usize,
    /// Per-thread last translation: slot of the thread's previous page.
    last: [Option<TlbFilter>; MAX_TLB_THREADS],
    len: usize,
    capacity: usize,
    page_shift: u32,
    tick: u64,
}

/// The per-thread filter covers the whole `ThreadId` (u8) range, so no
/// caller-visible precondition narrows the public API; only the handful
/// of entries belonging to live contexts are ever touched.
const MAX_TLB_THREADS: usize = 256;

impl Tlb {
    fn new(capacity: usize, page_bytes: u64) -> Tlb {
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        // 2x capacity keeps linear probes short; never smaller than 8.
        let table = (capacity * 2).next_power_of_two().max(8);
        Tlb {
            slots: vec![TlbEntry::default(); table].into(),
            mask: table - 1,
            last: [None; MAX_TLB_THREADS],
            len: 0,
            capacity,
            page_shift: page_bytes.trailing_zeros(),
            tick: 0,
        }
    }

    #[inline]
    fn home(&self, thread: u8, vpn: u64) -> usize {
        // FxHash-style mix of the (thread, vpn) key.
        let h = (vpn ^ (u64::from(thread) << 57)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h >> 32) as usize & self.mask
    }

    /// Returns true on hit; on miss the translation is installed (the miss
    /// *penalty* is charged by the hierarchy).
    fn access(&mut self, thread: ThreadId, addr: Addr) -> bool {
        let vpn = addr >> self.page_shift;
        self.tick += 1;
        // Fast path: same page as this thread's previous access, and the
        // remembered slot still holds it (eviction invalidates lazily).
        if let Some(f) = self.last[usize::from(thread.0)] {
            let s = &mut self.slots[f.slot as usize];
            if f.vpn == vpn && s.live && s.vpn == vpn && s.thread == thread.0 {
                s.stamp = self.tick;
                return true;
            }
        }
        // Probe the open-addressed table (chains are compact: the first
        // unoccupied slot proves the key absent).
        let mut i = self.home(thread.0, vpn);
        while self.slots[i].live {
            let s = &mut self.slots[i];
            if s.thread == thread.0 && s.vpn == vpn {
                s.stamp = self.tick;
                self.last[usize::from(thread.0)] = Some(TlbFilter {
                    vpn,
                    slot: i as u32,
                });
                return true;
            }
            i = (i + 1) & self.mask;
        }
        // Miss: evict the LRU entry when full (unique stamps make the
        // victim deterministic), then install.
        if self.len == self.capacity {
            let victim = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.live)
                .min_by_key(|(_, s)| s.stamp)
                .map(|(i, _)| i)
                .expect("full TLB is non-empty");
            self.remove_slot(victim);
            self.len -= 1;
            // Compaction may have shifted entries into this key's chain;
            // re-find its terminating unoccupied slot.
            i = self.home(thread.0, vpn);
            while self.slots[i].live {
                debug_assert!(self.slots[i].thread != thread.0 || self.slots[i].vpn != vpn);
                i = (i + 1) & self.mask;
            }
        }
        self.slots[i] = TlbEntry {
            live: true,
            thread: thread.0,
            vpn,
            stamp: self.tick,
        };
        self.len += 1;
        self.last[usize::from(thread.0)] = Some(TlbFilter {
            vpn,
            slot: i as u32,
        });
        false
    }

    /// Removes the entry at `i`, compacting the probe chain behind it
    /// (backward-shift deletion): every follower that cannot reach its
    /// home slot without passing the hole moves into it. Per-thread
    /// last-translation filters may now point at moved slots; they
    /// re-validate against the stored key, so stale ones simply miss.
    fn remove_slot(&mut self, mut i: usize) {
        self.slots[i] = TlbEntry::default();
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            let e = self.slots[j];
            if !e.live {
                return;
            }
            let home = self.home(e.thread, e.vpn);
            // `e` may fill the hole if its home lies outside (i, j]
            // cyclically — i.e. probing from `home` reaches `i` no later
            // than `j`.
            if (j.wrapping_sub(home) & self.mask) >= (j.wrapping_sub(i) & self.mask) {
                self.slots[i] = e;
                self.slots[j] = TlbEntry::default();
                i = j;
            }
        }
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Side {
    #[default]
    Instr,
    Data,
}

#[derive(Debug, Default)]
struct Mshr {
    line: Addr,
    side: Side,
    complete_at: u64,
    waiters: Vec<ReqId>,
}

/// One completed miss request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Completion {
    /// The request id returned by the original access.
    pub req: ReqId,
    /// Cycle at which the data became available.
    pub at_cycle: u64,
}

/// The full memory hierarchy: L1 I/D, L2, L3, TLBs, buses and MSHRs.
#[derive(Debug)]
pub struct MemoryHierarchy {
    cfg: MemConfig,
    icache: TagArray,
    dcache: TagArray,
    l2: TagArray,
    l3: TagArray,
    itlb: Tlb,
    dtlb: Tlb,
    stats: MemStats,

    // Per-cycle port accounting (reset by `begin_cycle`).
    cycle: u64,
    i_ports_used: u32,
    d_ports_used: u32,
    i_banks_used: u64, // bitmask over banks
    d_banks_used: u64,

    // Resource reservations (next free cycle).
    l2_bank_free: Box<[u64]>,
    l3_bank_free: Box<[u64]>,
    bus_l1i_free: u64,
    bus_l1d_free: u64,
    bus_l2_free: u64,
    bus_mem_free: u64,

    mshrs: Vec<Mshr>,
    /// Recycled MSHR waiter-list buffers: an MSHR's list is handed back
    /// when its completion drains, so steady-state misses allocate
    /// nothing.
    waiter_pool: Vec<Vec<ReqId>>,
    completions: BinaryHeap<Reverse<(u64, u64)>>, // (cycle, mshr key)
    pending_fills: Vec<(u64, Side, Addr)>,        // (cycle, side, line)
    delay_only: Vec<(u64, ReqId)>,                // TLB walks on tag hits
    ready: Vec<Completion>,
    next_req: u64,
    /// Earliest cycle any pending fill lands (`u64::MAX` when none): lets
    /// `begin_cycle` skip the fill list entirely on event-free cycles.
    next_fill_at: u64,
    /// Earliest cycle any delay-only walk retires (`u64::MAX` when none).
    next_delay_at: u64,
}

impl MemoryHierarchy {
    /// Builds the hierarchy from a configuration.
    pub fn new(cfg: MemConfig) -> MemoryHierarchy {
        let icache = TagArray::new(&cfg.icache);
        let dcache = TagArray::new(&cfg.dcache);
        let l2 = TagArray::new(&cfg.l2);
        let l3 = TagArray::new(&cfg.l3);
        let itlb = Tlb::new(cfg.itlb_entries, cfg.page_bytes);
        let dtlb = Tlb::new(cfg.dtlb_entries, cfg.page_bytes);
        let l2_banks = cfg.l2.banks;
        let l3_banks = cfg.l3.banks;
        MemoryHierarchy {
            cfg,
            icache,
            dcache,
            l2,
            l3,
            itlb,
            dtlb,
            stats: MemStats::default(),
            cycle: 0,
            i_ports_used: 0,
            d_ports_used: 0,
            i_banks_used: 0,
            d_banks_used: 0,
            l2_bank_free: vec![0; l2_banks].into(),
            l3_bank_free: vec![0; l3_banks].into(),
            bus_l1i_free: 0,
            bus_l1d_free: 0,
            bus_l2_free: 0,
            bus_mem_free: 0,
            // Event lists are pre-sized past any plausible steady-state
            // high-water mark so the warmed cycle path never grows them
            // (`crates/core/tests/alloc_guard.rs` pins this).
            mshrs: Vec::with_capacity(64),
            waiter_pool: Vec::with_capacity(64),
            completions: BinaryHeap::with_capacity(128),
            pending_fills: Vec::with_capacity(128),
            delay_only: Vec::with_capacity(256),
            ready: Vec::with_capacity(128),
            next_req: 0,
            next_fill_at: u64::MAX,
            next_delay_at: u64::MAX,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Clears statistics (e.g. at the end of a warmup window). Cache and
    /// TLB contents are preserved.
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
    }

    /// Starts a new cycle: resets port budgets and retires due events.
    ///
    /// Event-driven: each event class (fills, delay-only TLB walks, miss
    /// completions) was scheduled with its due cycle when it was created,
    /// and the earliest due cycle of each class is tracked — on the common
    /// event-free cycle this resets four counters and does nothing else.
    #[inline]
    pub fn begin_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
        self.i_ports_used = 0;
        self.d_ports_used = 0;
        self.i_banks_used = 0;
        self.d_banks_used = 0;

        // Install fills that land this cycle.
        if cycle >= self.next_fill_at {
            let mut i = 0;
            while i < self.pending_fills.len() {
                if self.pending_fills[i].0 <= cycle {
                    let (_, side, line) = self.pending_fills.swap_remove(i);
                    self.install_chain(side, line);
                } else {
                    i += 1;
                }
            }
            self.next_fill_at = self
                .pending_fills
                .iter()
                .map(|&(t, _, _)| t)
                .min()
                .unwrap_or(u64::MAX);
        }

        // Retire finished TLB walks that did not need a line fill.
        if cycle >= self.next_delay_at {
            let mut i = 0;
            while i < self.delay_only.len() {
                if self.delay_only[i].0 <= cycle {
                    let (t, req) = self.delay_only.swap_remove(i);
                    self.ready.push(Completion { req, at_cycle: t });
                } else {
                    i += 1;
                }
            }
            self.next_delay_at = self
                .delay_only
                .iter()
                .map(|&(t, _)| t)
                .min()
                .unwrap_or(u64::MAX);
        }

        // Collect completed misses.
        while let Some(&Reverse((t, key))) = self.completions.peek() {
            if t > cycle {
                break;
            }
            self.completions.pop();
            if let Some(pos) = self
                .mshrs
                .iter()
                .position(|m| m.complete_at == t && key == Self::mshr_key(m))
            {
                let mut m = self.mshrs.swap_remove(pos);
                for &req in &m.waiters {
                    self.ready.push(Completion { req, at_cycle: t });
                }
                m.waiters.clear();
                self.waiter_pool.push(m.waiters);
            }
        }
    }

    /// The earliest future cycle at which any scheduled event (fill,
    /// delay-only walk, or miss completion) falls due, if one exists.
    /// Purely observational — useful for tests and idle-cycle diagnostics.
    pub fn next_event_cycle(&self) -> Option<u64> {
        let heap_next = self.completions.peek().map(|&Reverse((t, _))| t);
        [Some(self.next_fill_at), Some(self.next_delay_at), heap_next]
            .into_iter()
            .flatten()
            .filter(|&t| t != u64::MAX)
            .min()
    }

    fn mshr_key(m: &Mshr) -> u64 {
        m.line
            ^ match m.side {
                Side::Instr => 0x8000_0000_0000_0000,
                Side::Data => 0,
            }
    }

    fn install_chain(&mut self, side: Side, line: Addr) {
        // Fill L1; a dirty eviction consumes downstream bus bandwidth.
        let wb = match side {
            Side::Instr => self.icache.install(line, false),
            Side::Data => self.dcache.install(line, false),
        };
        if let Some(_dirty_line) = wb {
            self.stats.writebacks += 1;
            if !self.cfg.infinite_bandwidth {
                let bus = match side {
                    Side::Instr => &mut self.bus_l1i_free,
                    Side::Data => &mut self.bus_l1d_free,
                };
                *bus = (*bus).max(self.cycle) + self.cfg.dcache.transfer_cycles;
            }
        }
        // Fill outer levels (simple inclusive fill on the miss path).
        if let Some(_wb2) = self.l2.install(line, false) {
            self.stats.writebacks += 1;
            if !self.cfg.infinite_bandwidth {
                self.bus_l2_free = self.bus_l2_free.max(self.cycle) + self.cfg.l2.transfer_cycles;
            }
        }
        if let Some(_wb3) = self.l3.install(line, false) {
            self.stats.writebacks += 1;
            if !self.cfg.infinite_bandwidth {
                self.bus_mem_free = self.bus_mem_free.max(self.cycle) + self.cfg.l3.transfer_cycles;
            }
        }
    }

    /// Computes the data-return time for a miss that leaves L1 at `cycle`,
    /// reserving bus/bank occupancy along the way.
    fn service_miss(&mut self, side: Side, line: Addr, start: u64) -> u64 {
        let inf = self.cfg.infinite_bandwidth;
        let l1 = match side {
            Side::Instr => &self.cfg.icache,
            Side::Data => &self.cfg.dcache,
        };
        // L1 -> L2 request+data uses the L1 bus and the fixed level latency.
        let mut t = start;
        if !inf {
            let bus = match side {
                Side::Instr => &mut self.bus_l1i_free,
                Side::Data => &mut self.bus_l1d_free,
            };
            t = t.max(*bus);
            *bus = t + l1.transfer_cycles;
        }
        t += l1.latency_to_next;

        // L2 access: bank reservation.
        self.stats.l2.accesses += 1;
        if !inf {
            let b = self.cfg.l2.bank_of(line);
            t = t.max(self.l2_bank_free[b]);
            self.l2_bank_free[b] = t + self.cfg.l2.cycles_per_access;
        }
        let l2_hit = self.l2.access(line, false);
        if l2_hit {
            return t + 1; // data starts back after the array access
        }
        self.stats.l2.misses += 1;

        // L2 -> L3.
        if !inf {
            t = t.max(self.bus_l2_free);
            self.bus_l2_free = t + self.cfg.l2.transfer_cycles;
        }
        t += self.cfg.l2.latency_to_next;
        self.stats.l3.accesses += 1;
        if !inf {
            let b = self.cfg.l3.bank_of(line);
            t = t.max(self.l3_bank_free[b]);
            self.l3_bank_free[b] = t + self.cfg.l3.cycles_per_access;
        }
        let l3_hit = self.l3.access(line, false);
        if l3_hit {
            return t + 1;
        }
        self.stats.l3.misses += 1;

        // L3 -> memory.
        if !inf {
            t = t.max(self.bus_mem_free);
            self.bus_mem_free = t + self.cfg.l3.transfer_cycles;
        }
        t += self.cfg.l3.latency_to_next;
        t + 1
    }

    /// Total latency of one full memory access (L1 miss all the way to
    /// memory), used for the TLB miss penalty: the paper charges TLB misses
    /// two of these.
    pub fn full_memory_latency(&self) -> u64 {
        self.cfg.dcache.latency_to_next + self.cfg.l2.latency_to_next + self.cfg.l3.latency_to_next
    }

    fn start_miss(&mut self, side: Side, line: Addr, extra_delay: u64) -> Option<ReqId> {
        let req = ReqId(self.next_req);
        // Merge with an outstanding miss for the same line.
        if let Some(m) = self
            .mshrs
            .iter_mut()
            .find(|m| m.side == side && m.line == line)
        {
            m.waiters.push(req);
            self.next_req += 1;
            self.stats.mshr_merges += 1;
            return Some(req);
        }
        if self.mshrs.len() >= self.cfg.mshrs && !self.cfg.infinite_bandwidth {
            // All MSHRs busy: structural stall, caller must retry.
            return None;
        }
        let start = self.cycle + 1 + extra_delay;
        let complete_at = self.service_miss(side, line, start);
        let mut waiters = self.waiter_pool.pop().unwrap_or_default();
        waiters.push(req);
        let m = Mshr {
            line,
            side,
            complete_at,
            waiters,
        };
        self.completions
            .push(Reverse((complete_at, Self::mshr_key(&m))));
        self.pending_fills.push((complete_at, side, line));
        self.next_fill_at = self.next_fill_at.min(complete_at);
        self.mshrs.push(m);
        self.next_req += 1;
        Some(req)
    }

    /// Instruction fetch access for one thread's fetch block at `addr`.
    ///
    /// On a miss the thread should stop fetching until the returned request
    /// completes. Returns `BankConflict` when the I-cache ports or the
    /// target bank are exhausted this cycle.
    #[inline]
    pub fn icache_fetch(&mut self, thread: ThreadId, addr: Addr) -> AccessResult {
        self.icache_fetch_with(thread, addr, true)
    }

    /// [`icache_fetch`](MemoryHierarchy::icache_fetch) with explicit
    /// bank/port arbitration control. With `arbitrate: false` the access
    /// neither checks nor consumes I-side ports and banks — the hook behind
    /// the wrong-path bank-arbitration-exemption ablation. Misses and TLB
    /// walks still behave normally.
    #[inline]
    pub fn icache_fetch_with(
        &mut self,
        thread: ThreadId,
        addr: Addr,
        arbitrate: bool,
    ) -> AccessResult {
        if self.cfg.perfect_icache {
            self.stats.icache.accesses += 1;
            return AccessResult::Hit;
        }

        // ITLB.
        self.stats.itlb.accesses += 1;
        let tlb_extra = if self.itlb.access(thread, addr) {
            0
        } else {
            self.stats.itlb.misses += 1;
            2 * self.full_memory_latency()
        };

        let p = &self.cfg.icache;
        let bank = p.bank_of(addr) as u64;
        if arbitrate && !self.cfg.infinite_bandwidth {
            if self.i_ports_used >= p.accesses_per_cycle || self.i_banks_used & (1 << bank) != 0 {
                return AccessResult::BankConflict;
            }
            self.i_ports_used += 1;
            self.i_banks_used |= 1 << bank;
        }

        self.stats.icache.accesses += 1;
        let line = p.line_of(addr);
        let tag_hit = self.icache.access(addr, false);
        if tag_hit && tlb_extra == 0 {
            return AccessResult::Hit;
        }
        if !tag_hit {
            self.stats.icache.misses += 1;
            match self.start_miss(Side::Instr, line, tlb_extra) {
                Some(req) => AccessResult::Miss(req),
                None => AccessResult::BankConflict,
            }
        } else {
            // Line present but translation missing: pay the page-walk delay
            // without generating downstream traffic.
            let req = ReqId(self.next_req);
            self.next_req += 1;
            let due = self.cycle + 1 + tlb_extra;
            self.delay_only.push((due, req));
            self.next_delay_at = self.next_delay_at.min(due);
            AccessResult::Miss(req)
        }
    }

    /// Whether the I-cache bank for `addr` is still free this cycle.
    #[inline]
    pub fn icache_bank_free(&self, addr: Addr) -> bool {
        if self.cfg.infinite_bandwidth || self.cfg.perfect_icache {
            return true;
        }
        let bank = self.cfg.icache.bank_of(addr) as u64;
        self.i_banks_used & (1 << bank) == 0
            && self.i_ports_used < self.cfg.icache.accesses_per_cycle
    }

    /// Data access (load or store) at `addr`.
    ///
    /// Returns `Hit` (1-cycle latency), `Miss` (poll completions), or
    /// `BankConflict` (port/bank exhausted — for loads this squashes
    /// optimistically issued dependents, per Section 2 of the paper).
    #[inline]
    pub fn dcache_access(&mut self, thread: ThreadId, addr: Addr, write: bool) -> AccessResult {
        let p = &self.cfg.dcache;
        let bank = p.bank_of(addr) as u64;
        if !self.cfg.infinite_bandwidth {
            if self.d_ports_used >= p.accesses_per_cycle || self.d_banks_used & (1 << bank) != 0 {
                self.stats.bank_conflicts += 1;
                return AccessResult::BankConflict;
            }
            self.d_ports_used += 1;
            self.d_banks_used |= 1 << bank;
        }

        // DTLB.
        self.stats.dtlb.accesses += 1;
        let tlb_extra = if self.dtlb.access(thread, addr) {
            0
        } else {
            self.stats.dtlb.misses += 1;
            2 * self.full_memory_latency()
        };

        self.stats.dcache.accesses += 1;
        let line = p.line_of(addr);
        let tag_hit = self.dcache.access(addr, write);
        if tag_hit && tlb_extra == 0 {
            return AccessResult::Hit;
        }
        if !tag_hit {
            self.stats.dcache.misses += 1;
            match self.start_miss(Side::Data, line, tlb_extra) {
                Some(req) => AccessResult::Miss(req),
                None => AccessResult::BankConflict,
            }
        } else {
            let req = ReqId(self.next_req);
            self.next_req += 1;
            let due = self.cycle + 1 + tlb_extra;
            self.delay_only.push((due, req));
            self.next_delay_at = self.next_delay_at.min(due);
            AccessResult::Miss(req)
        }
    }

    /// Drains all ready miss completions into `out` (appended, preserving
    /// arrival order); allocation-free when the caller reuses the buffer
    /// every cycle.
    #[inline]
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        out.append(&mut self.ready);
    }
}

// The hierarchy's complete deterministic state, as the `smt-mem` section of
// a simulator checkpoint: statistics, tag arrays, TLBs (including the
// last-translation filters), port and bank/bus reservations, MSHRs with
// their waiter lists, scheduled completions/fills/TLB walks and the
// request-id counter. The configuration is covered by the checkpoint
// header's fingerprint, so restore targets a hierarchy freshly built from
// it; the waiter pool is recycled storage, not state.
persist! {
    MemoryHierarchy {
        stats, icache, dcache, l2, l3, itlb, dtlb, cycle, i_ports_used, d_ports_used, i_banks_used,
        d_banks_used, l2_bank_free, l3_bank_free, bus_l1i_free, bus_l1d_free, bus_l2_free,
        bus_mem_free, mshrs, completions, pending_fills, delay_only, ready, next_req, next_fill_at,
        next_delay_at,
    } skip { cfg, waiter_pool }
}
// The configuration's identity bytes, hashed into the checkpoint header's
// fingerprint (`smt_core::checkpoint::config_fingerprint`), never stored.
persist! {
    MemConfig {
        icache, dcache, l2, l3, itlb_entries, dtlb_entries, page_bytes, mshrs, infinite_bandwidth,
        perfect_icache,
    }
}
persist! {
    CacheParams {
        size_bytes, assoc, line_bytes, banks, accesses_per_cycle, cycles_per_access,
        transfer_cycles, fill_cycles, latency_to_next,
    }
}
persist! { TagArray { lines } skip { sets, assoc, line_shift, tag_shift } }
persist! { Line { tag, valid, dirty, lru } }
persist! { Tlb { slots, last, len, tick } skip { mask, capacity, page_shift } check Tlb::validate }
persist! { TlbEntry { live, thread, vpn, stamp } }
persist! { TlbFilter { vpn, slot } }
persist! { Mshr { line, side, complete_at, waiters } }
persist! { Completion { req, at_cycle } }
persist! { ReqId { 0 } }

impl Tlb {
    fn validate(&self) -> std::io::Result<()> {
        if self.len > self.capacity {
            return Err(invalid(format!(
                "TLB population {} exceeds capacity {}",
                self.len, self.capacity
            )));
        }
        match self
            .last
            .iter()
            .flatten()
            .find(|f| f.slot as usize >= self.slots.len())
        {
            Some(f) => Err(invalid(format!("TLB filter slot {} out of range", f.slot))),
            None => Ok(()),
        }
    }
}

impl Persist for Side {
    fn save(&self, w: &mut BinWriter<&mut dyn Write>) -> std::io::Result<()> {
        w.u8(match self {
            Side::Instr => 0,
            Side::Data => 1,
        })
    }
    fn restore(&mut self, r: &mut BinReader<&mut dyn Read>) -> std::io::Result<()> {
        *self = match r.u8()? {
            0 => Side::Instr,
            1 => Side::Data,
            other => return Err(invalid(format!("invalid cache side code {other}"))),
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(MemConfig::default())
    }

    fn drain_until(m: &mut MemoryHierarchy, req: ReqId, limit: u64) -> u64 {
        for c in 1..limit {
            m.begin_cycle(c);
            let mut done = Vec::new();
            m.drain_completions_into(&mut done);
            if done.iter().any(|d| d.req == req) {
                return c;
            }
        }
        panic!("request {req:?} never completed within {limit} cycles");
    }

    #[test]
    fn default_config_matches_table2() {
        let c = MemConfig::default();
        assert_eq!(c.icache.size_bytes, 32 * 1024);
        assert_eq!(c.icache.assoc, 1);
        assert_eq!(c.dcache.banks, 8);
        assert_eq!(c.l2.size_bytes, 256 * 1024);
        assert_eq!(c.l2.assoc, 4);
        assert_eq!(c.l3.size_bytes, 2 * 1024 * 1024);
        assert_eq!(c.l3.cycles_per_access, 4);
        assert_eq!(c.icache.latency_to_next, 6);
        assert_eq!(c.l2.latency_to_next, 12);
        assert_eq!(c.l3.latency_to_next, 62);
        assert_eq!(c.icache.sets(), 512);
        assert_eq!(c.l2.sets(), 1024);
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut m = mem();
        // Warm the TLB for the page (first touch pays the page walk).
        m.begin_cycle(0);
        let AccessResult::Miss(warm) = m.dcache_access(T0, 0x10_0000, false) else {
            panic!("cold access must miss")
        };
        let warmed = drain_until(&mut m, warm, 2000);
        // A different line in the same (now-translated) page: pure cache miss.
        m.begin_cycle(warmed + 1);
        let AccessResult::Miss(req) = m.dcache_access(T0, 0x10_0040, false) else {
            panic!("expected miss")
        };
        let done = drain_until(&mut m, req, 2000) - (warmed + 1);
        // Cold miss goes all the way to memory: 6 + 12 + 62 plus access
        // costs; it must take at least 80 cycles and not be absurdly long.
        assert!(done >= 80, "cold miss completed too fast: {done}");
        assert!(done < 200, "cold miss too slow: {done}");
        m.begin_cycle(warmed + done + 2);
        assert_eq!(m.dcache_access(T0, 0x10_0040, false), AccessResult::Hit);
        // Same line, different word, next cycle (same bank): still a hit.
        m.begin_cycle(warmed + done + 3);
        assert_eq!(m.dcache_access(T0, 0x10_0048, false), AccessResult::Hit);
    }

    #[test]
    fn l2_hit_is_much_faster_than_memory() {
        let mut m = mem();
        m.begin_cycle(0);
        let AccessResult::Miss(r1) = m.dcache_access(T0, 0x20_0000, false) else {
            panic!("expected miss")
        };
        let t1 = drain_until(&mut m, r1, 1000);
        // Evict from tiny L1 by touching a conflicting line (same set).
        let conflict = 0x20_0000 + 32 * 1024;
        m.begin_cycle(t1 + 1);
        let AccessResult::Miss(r2) = m.dcache_access(T0, conflict, false) else {
            panic!("expected miss")
        };
        let t2 = drain_until(&mut m, r2, 2000);
        // Original line now misses L1 but hits L2.
        m.begin_cycle(t2 + 1);
        let AccessResult::Miss(r3) = m.dcache_access(T0, 0x20_0000, false) else {
            panic!("expected L1 miss")
        };
        let t3 = drain_until(&mut m, r3, 2000);
        let l2_latency = t3 - (t2 + 1);
        assert!(
            l2_latency < 20,
            "L2 hit should be ~7-10 cycles, got {l2_latency}"
        );
    }

    #[test]
    fn dcache_port_limit_is_four_per_cycle() {
        let mut m = mem();
        m.begin_cycle(0);
        let mut ok = 0;
        // 8 accesses to 8 distinct banks: only 4 ports available.
        for b in 0..8u64 {
            match m.dcache_access(T0, 0x40_0000 + b * 64, false) {
                AccessResult::BankConflict => {}
                _ => ok += 1,
            }
        }
        assert_eq!(ok, 4);
        // Next cycle the ports are free again.
        m.begin_cycle(1);
        assert!(!matches!(
            m.dcache_access(T0, 0x50_0000, false),
            AccessResult::BankConflict
        ));
    }

    #[test]
    fn same_bank_conflicts_within_cycle() {
        let mut m = mem();
        m.begin_cycle(0);
        let a = 0x60_0000;
        let same_bank = a + 8 * 64; // 8 banks * 64B line => same bank, different line
        let _ = m.dcache_access(T0, a, false);
        assert_eq!(
            m.dcache_access(T0, same_bank, false),
            AccessResult::BankConflict
        );
        assert!(m.stats().bank_conflicts >= 1);
    }

    #[test]
    fn infinite_bandwidth_removes_conflicts() {
        let mut m = MemoryHierarchy::new(MemConfig {
            infinite_bandwidth: true,
            ..MemConfig::default()
        });
        m.begin_cycle(0);
        for b in 0..16u64 {
            assert!(!matches!(
                m.dcache_access(T0, 0x40_0000 + b * 64, false),
                AccessResult::BankConflict
            ));
        }
    }

    #[test]
    fn mshr_merges_secondary_misses() {
        let mut m = mem();
        m.begin_cycle(0);
        let AccessResult::Miss(r1) = m.dcache_access(T0, 0x70_0000, false) else {
            panic!("expected miss")
        };
        // Same line one cycle later (same-cycle would be a bank conflict):
        // merges into the outstanding MSHR.
        m.begin_cycle(1);
        let AccessResult::Miss(r2) = m.dcache_access(T0, 0x70_0008, false) else {
            panic!("expected merged miss")
        };
        assert_eq!(m.stats().mshr_merges, 1);
        // Both complete at the same cycle.
        let mut done = Vec::new();
        for c in 1..1000 {
            m.begin_cycle(c);
            m.drain_completions_into(&mut done);
            if done.len() == 2 {
                break;
            }
        }
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].at_cycle, done[1].at_cycle);
        assert!(done.iter().any(|d| d.req == r1));
        assert!(done.iter().any(|d| d.req == r2));
    }

    #[test]
    fn icache_separate_from_dcache() {
        let mut m = mem();
        m.begin_cycle(0);
        let AccessResult::Miss(req) = m.icache_fetch(T0, 0x1000) else {
            panic!("cold I-fetch must miss")
        };
        let done = drain_until(&mut m, req, 1000);
        m.begin_cycle(done + 1);
        assert_eq!(m.icache_fetch(T0, 0x1000), AccessResult::Hit);
        assert_eq!(m.stats().icache.misses, 1);
        assert_eq!(m.stats().dcache.accesses, 0);
    }

    #[test]
    fn perfect_icache_always_hits_without_ports() {
        let mut m = MemoryHierarchy::new(MemConfig {
            perfect_icache: true,
            ..MemConfig::default()
        });
        m.begin_cycle(0);
        // Cold fetches, many in one cycle, same bank: all hit, no conflicts.
        for i in 0..16u64 {
            assert_eq!(m.icache_fetch(T0, 0x1000 + i * 8 * 64), AccessResult::Hit);
        }
        assert!(m.icache_bank_free(0x1000));
        assert_eq!(m.stats().icache.misses, 0);
        assert_eq!(m.stats().itlb.accesses, 0, "perfect I-side skips the ITLB");
        // The data side is unaffected: a cold D-access still misses.
        assert!(matches!(
            m.dcache_access(T0, 0x1000, false),
            AccessResult::Miss(_)
        ));
    }

    #[test]
    fn unarbitrated_fetch_skips_ports_and_banks() {
        let mut m = mem();
        m.begin_cycle(0);
        // Saturate the I-side: 4 ports.
        let mut started = 0;
        for b in 0..8u64 {
            if !matches!(m.icache_fetch(T0, b * 64), AccessResult::BankConflict) {
                started += 1;
            }
        }
        assert_eq!(started, 4);
        // An arbitrated access is now rejected; an unarbitrated one is not,
        // and it does not consume the budget either.
        assert_eq!(
            m.icache_fetch_with(T0, 8 * 64, true),
            AccessResult::BankConflict
        );
        assert!(matches!(
            m.icache_fetch_with(T0, 9 * 64, false),
            AccessResult::Miss(_)
        ));
        assert!(!m.icache_bank_free(4 * 64), "ports stay exhausted");
    }

    #[test]
    fn tlb_miss_charges_two_memory_accesses() {
        let mut m = mem();
        m.begin_cycle(0);
        // First access: TLB miss + cold cache miss.
        let AccessResult::Miss(r1) = m.dcache_access(T0, 0x100_0000, false) else {
            panic!()
        };
        let t1 = drain_until(&mut m, r1, 2000);
        assert!(
            t1 >= 2 * m.full_memory_latency(),
            "TLB miss must cost at least two full memory accesses, got {t1}"
        );
        assert_eq!(m.stats().dtlb.misses, 1);
        // Same page again: TLB hit; different line: ordinary cache miss.
        m.begin_cycle(t1 + 1);
        let AccessResult::Miss(r2) = m.dcache_access(T0, 0x100_0000 + 64, false) else {
            panic!()
        };
        let t2 = drain_until(&mut m, r2, 2000);
        assert!(t2 - t1 < 2 * m.full_memory_latency());
        assert_eq!(m.stats().dtlb.misses, 1, "second access must hit the TLB");
    }

    #[test]
    fn writebacks_counted_on_dirty_eviction() {
        let mut m = mem();
        // Write a line (write-allocate), then evict it with a conflicting line.
        m.begin_cycle(0);
        let AccessResult::Miss(r1) = m.dcache_access(T0, 0x30_0000, true) else {
            panic!()
        };
        let t1 = drain_until(&mut m, r1, 2000);
        m.begin_cycle(t1 + 1);
        // Dirty the line now that it is resident.
        assert_eq!(m.dcache_access(T0, 0x30_0000, true), AccessResult::Hit);
        m.begin_cycle(t1 + 2);
        let AccessResult::Miss(r2) = m.dcache_access(T0, 0x30_0000 + 32 * 1024, false) else {
            panic!()
        };
        let _ = drain_until(&mut m, r2, 3000);
        assert!(
            m.stats().writebacks >= 1,
            "dirty eviction must count a writeback"
        );
    }

    #[test]
    fn level_stats_miss_rate() {
        let s = LevelStats {
            accesses: 200,
            misses: 5,
        };
        assert_eq!(s.miss_rate(), 2.5);
        assert_eq!(LevelStats::default().miss_rate(), 0.0);
    }

    #[test]
    fn next_event_cycle_tracks_scheduled_events() {
        let mut m = mem();
        m.begin_cycle(0);
        assert_eq!(m.next_event_cycle(), None, "fresh hierarchy is idle");
        let AccessResult::Miss(req) = m.dcache_access(T0, 0x10_0000, false) else {
            panic!("cold access must miss")
        };
        let due = m
            .next_event_cycle()
            .expect("an outstanding miss schedules events");
        assert!(due > 0, "events are scheduled in the future");
        let done = drain_until(&mut m, req, 2000);
        assert!(done >= due, "completion cannot precede the earliest event");
        // Once the completion and its line fill have been consumed the
        // hierarchy is idle again.
        m.begin_cycle(done + 1);
        assert_eq!(m.next_event_cycle(), None, "all events drained");
    }

    #[test]
    fn reset_stats_preserves_contents() {
        let mut m = mem();
        m.begin_cycle(0);
        let AccessResult::Miss(req) = m.dcache_access(T0, 0x10_0000, false) else {
            panic!()
        };
        let done = drain_until(&mut m, req, 1000);
        m.reset_stats();
        assert_eq!(m.stats().dcache.accesses, 0);
        m.begin_cycle(done + 1);
        assert_eq!(m.dcache_access(T0, 0x10_0000, false), AccessResult::Hit);
    }

    #[test]
    fn bank_mapping_is_line_interleaved() {
        let p = MemConfig::default().dcache;
        assert_eq!(p.bank_of(0), 0);
        assert_eq!(p.bank_of(63), 0);
        assert_eq!(p.bank_of(64), 1);
        assert_eq!(p.bank_of(64 * 8), 0);
        assert_eq!(p.line_of(0x12345), 0x12345 & !63);
    }

    #[test]
    fn l3_bank_reservation_throttles() {
        let mut m = mem();
        // Two cold misses to different L3 lines close in time: the second
        // must queue behind the first at the single L3 bank.
        m.begin_cycle(0);
        let AccessResult::Miss(r1) = m.dcache_access(T0, 0x800_0000, false) else {
            panic!()
        };
        // Different L1 bank (line + 64) so both accesses start this cycle.
        let AccessResult::Miss(r2) = m.dcache_access(T0, 0x900_0040, false) else {
            panic!()
        };
        let t1 = drain_until(&mut m, r1, 4000);
        let t2 = drain_until(&mut m, r2, 4000);
        assert!(
            t2 > t1,
            "second miss must queue behind the first in L3/memory"
        );
    }
}
