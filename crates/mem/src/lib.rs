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
//! The I-cache and the D-cache are one L1 model: every per-side piece of
//! state (tag array, TLB, port and bank budget, L1 bus) is a two-element
//! array indexed by side, instruction side first, and all four access
//! entry points ([`MemoryHierarchy::icache_fetch`],
//! [`icache_fetch_with`](MemoryHierarchy::icache_fetch_with),
//! [`icache_bank_free`](MemoryHierarchy::icache_bank_free) and
//! [`dcache_access`](MemoryHierarchy::dcache_access)) share one path:
//! arbitrate for a port and the bank, translate, look up the tags, then
//! hit, miss, or pay a delay-only page walk. An access that bounces on a
//! busy port or bank touches no TLB or cache state.
//!
//! **Write-back model.** Only data accesses write, and every fill installs
//! a clean line at every level (a store miss's too: its line is dirtied
//! only by a later store hit), so only L1 data evictions write back (the
//! writeback occupies the L1 data bus). L2 and L3 lines are never dirty
//! and the memory bus never carries a writeback: a known fidelity gap,
//! kept because closing it changes every result.
//!
//! Misses are **scheduled completion events**, not polled state: starting
//! a miss computes its data-return cycle up front (reserving bank and bus
//! occupancy along the way) and records it in the miss's MSHR, the one
//! record of an outstanding miss. On exactly that cycle
//! [`MemoryHierarchy::begin_cycle`] fills the line and delivers a
//! [`Completion`] to every request merged into the MSHR. An event-free
//! cycle costs two port-budget resets, one compare per outstanding miss
//! and one compare for the delay-only TLB walks. The pipeline consumes
//! the events each cycle:
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
    /// Page size in bytes: a power of two, at least 256.
    pub page_bytes: u64,
    /// Number of MSHRs (outstanding primary misses), one pool shared by
    /// the I-cache and the D-cache: a primary miss on either side finds
    /// every MSHR busy once this many misses of both sides together are
    /// outstanding, and bounces as [`AccessResult::BankConflict`].
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
    ///
    /// An L1 access that misses while every MSHR is busy counts an access
    /// and a miss (and its TLB lookup), then bounces and is retried; each
    /// retry counts again, so under MSHR pressure the L1 miss rate counts
    /// retries, not distinct accesses.
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
        /// Dirty lines written back. Only L1 data evictions write back:
        /// fills install clean lines, so L2 and L3 are never dirty.
        pub writebacks: u64,
        /// D-cache accesses rejected for bank/port conflicts. A D-cache
        /// miss bounced by a full MSHR file is not counted here: it counts
        /// in `dcache` (an access and a miss) on every retry instead.
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

    /// The way of the set at `base` holding `tag`, if any.
    #[inline]
    fn way_of(&self, base: usize, tag: u32) -> Option<usize> {
        (0..self.assoc).find(|&w| {
            let l = self.lines[base + w];
            l.valid && l.tag == tag
        })
    }

    /// Access for read/write; returns true on hit and updates LRU/dirty.
    fn access(&mut self, addr: Addr, write: bool) -> bool {
        let base = self.set_of(addr) * self.assoc;
        let Some(w) = self.way_of(base, self.tag_of(addr)) else {
            return false;
        };
        let hit_lru = self.lines[base + w].lru;
        for l in &mut self.lines[base..base + self.assoc] {
            if l.valid && l.lru < hit_lru {
                l.lru += 1;
            }
        }
        let l = &mut self.lines[base + w];
        l.lru = 0;
        l.dirty |= write;
        true
    }

    /// Installs the line containing `addr`, clean; returns whether the
    /// evicted line was dirty. Only [`access`](TagArray::access) with
    /// `write` dirties a line.
    fn install(&mut self, addr: Addr) -> bool {
        let base = self.set_of(addr) * self.assoc;
        let tag = self.tag_of(addr);
        // Already present (e.g. a racing fill): nothing to do.
        if self.way_of(base, tag).is_some() {
            return false;
        }
        let set = &mut self.lines[base..base + self.assoc];
        let victim = set.iter().position(|l| !l.valid).unwrap_or_else(|| {
            (0..set.len())
                .max_by_key(|&w| set[w].lru)
                .expect("assoc > 0")
        });
        let dirty = set[victim].valid && set[victim].dirty;
        let max_lru = set.len() as u8 - 1;
        for l in set.iter_mut().filter(|l| l.valid) {
            l.lru = l.lru.saturating_add(1).min(max_lru);
        }
        set[victim] = Line {
            tag,
            valid: true,
            dirty: false,
            lru: 0,
        };
        dirty
    }
}

/// A fully-associative, LRU, thread-tagged TLB.
///
/// One array of packed `vpn << 8 | thread` keys, searched linearly, with a
/// parallel array of use-stamps. Recency is tracked with unique monotonic
/// stamps instead of a physically ordered list: a hit bumps one stamp, and
/// eviction — only on a miss with a full TLB — replaces the entry with the
/// minimum stamp, which is exactly the least-recently-used entry an
/// ordered list would evict. Stamps are unique, so the victim is
/// deterministic. Keys only grow until the TLB is full and are then
/// replaced in place, so every slot below the key count is live.
///
/// In front of the search sits a **per-thread last slot**: memory access
/// streams are page-local, so most lookups match the key in the slot of
/// the thread's previous translation and resolve to one compare and one
/// stamp write. A slot whose entry was since replaced simply fails the
/// compare.
#[derive(Debug, Clone)]
struct Tlb {
    /// Per-thread slot of the thread's previous translation.
    last: [Option<u32>; MAX_TLB_THREADS],
    keys: Vec<u64>,
    stamps: Vec<u64>,
    capacity: usize,
    page_shift: u32,
    tick: u64,
}

/// The per-thread last slots cover the whole `ThreadId` (u8) range, so no
/// caller-visible precondition narrows the public API; only the handful
/// of entries belonging to live contexts are ever touched.
const MAX_TLB_THREADS: usize = 256;

impl Tlb {
    fn new(capacity: usize, page_bytes: u64) -> Tlb {
        // A page of at least 2^8 bytes leaves the page number 56 bits, so
        // it packs beside the 8-bit thread id without losing a bit.
        assert!(
            page_bytes.is_power_of_two() && page_bytes >= 256,
            "page size must be a power of two of at least 256 bytes"
        );
        Tlb {
            last: [None; MAX_TLB_THREADS],
            keys: Vec::with_capacity(capacity),
            stamps: Vec::with_capacity(capacity),
            capacity,
            page_shift: page_bytes.trailing_zeros(),
            tick: 0,
        }
    }

    /// Returns true on hit; on miss the translation is installed (the miss
    /// *penalty* is charged by the hierarchy).
    fn access(&mut self, thread: ThreadId, addr: Addr) -> bool {
        let key = (addr >> self.page_shift) << 8 | u64::from(thread.0);
        self.tick += 1;
        let last = &mut self.last[usize::from(thread.0)];
        let hit = match *last {
            Some(s) if self.keys[s as usize] == key => Some(s as usize),
            _ => self.keys.iter().position(|&k| k == key),
        };
        let slot = match hit {
            Some(s) => s,
            None if self.keys.len() < self.capacity => {
                self.keys.push(key);
                self.stamps.push(0);
                self.keys.len() - 1
            }
            None => {
                let victim = (0..self.stamps.len())
                    .min_by_key(|&i| self.stamps[i])
                    .expect("full TLB is non-empty");
                self.keys[victim] = key;
                victim
            }
        };
        self.stamps[slot] = self.tick;
        *last = Some(slot as u32);
        hit.is_some()
    }
}

/// An L1 side. Its discriminant indexes every per-side array of
/// [`MemoryHierarchy`], instruction side first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Side {
    #[default]
    Instr = 0,
    Data = 1,
}

impl Side {
    /// This side's cache and TLB counters.
    fn stats(self, s: &mut MemStats) -> (&mut LevelStats, &mut LevelStats) {
        match self {
            Side::Instr => (&mut s.icache, &mut s.itlb),
            Side::Data => (&mut s.dcache, &mut s.dtlb),
        }
    }
}

impl MemConfig {
    /// The L1 parameters of `side`.
    fn l1_params(&self, side: Side) -> &CacheParams {
        match side {
            Side::Instr => &self.icache,
            Side::Data => &self.dcache,
        }
    }
}

/// Initial capacity of a fresh MSHR waiter list. The default machine
/// merges at most 48 requests into one miss under every shipped policy
/// pair, so a recycled list never grows in the steady state
/// (`crates/core/tests/alloc_guard.rs` pins this).
const MSHR_WAITERS: usize = 64;

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
///
/// Both L1 sides run one model: their tag arrays, TLBs, port and bank
/// budgets and L1 buses are two-element arrays indexed by side, and
/// every access goes through one private access path.
#[derive(Debug)]
pub struct MemoryHierarchy {
    cfg: MemConfig,
    l1: [TagArray; 2],
    l2: TagArray,
    l3: TagArray,
    tlb: [Tlb; 2],
    stats: MemStats,

    // Per-cycle port accounting (reset by `begin_cycle`).
    cycle: u64,
    ports_used: [u32; 2],
    banks_used: [u64; 2], // bitmask over banks

    // Resource reservations (next free cycle).
    l2_bank_free: Box<[u64]>,
    l3_bank_free: Box<[u64]>,
    bus_l1_free: [u64; 2],
    bus_l2_free: u64,
    bus_mem_free: u64,

    /// Outstanding primary misses: the only record of a miss, from its
    /// start to the cycle it fills its line and answers its waiters.
    mshrs: Vec<Mshr>,
    /// Recycled MSHR waiter-list buffers: an MSHR's list is handed back
    /// when its miss completes, so steady-state misses allocate nothing.
    waiter_pool: Vec<Vec<ReqId>>,
    delay_only: Vec<(u64, ReqId)>, // TLB walks on tag hits
    ready: Vec<Completion>,
    next_req: u64,
    /// Earliest cycle any delay-only walk retires (`u64::MAX` when none).
    next_delay_at: u64,
}

impl MemoryHierarchy {
    /// Builds the hierarchy from a configuration.
    pub fn new(cfg: MemConfig) -> MemoryHierarchy {
        MemoryHierarchy {
            l1: [TagArray::new(&cfg.icache), TagArray::new(&cfg.dcache)],
            l2: TagArray::new(&cfg.l2),
            l3: TagArray::new(&cfg.l3),
            tlb: [
                Tlb::new(cfg.itlb_entries, cfg.page_bytes),
                Tlb::new(cfg.dtlb_entries, cfg.page_bytes),
            ],
            stats: MemStats::default(),
            cycle: 0,
            ports_used: [0; 2],
            banks_used: [0; 2],
            l2_bank_free: vec![0; cfg.l2.banks].into(),
            l3_bank_free: vec![0; cfg.l3.banks].into(),
            bus_l1_free: [0; 2],
            bus_l2_free: 0,
            bus_mem_free: 0,
            // Event lists are pre-sized past any plausible steady-state
            // high-water mark so the warmed cycle path never grows them
            // (`crates/core/tests/alloc_guard.rs` pins this).
            mshrs: Vec::with_capacity(64),
            waiter_pool: Vec::with_capacity(64),
            delay_only: Vec::with_capacity(256),
            ready: Vec::with_capacity(128),
            next_req: 0,
            next_delay_at: u64::MAX,
            cfg,
        }
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
    /// Event-driven: every miss and delay-only TLB walk was scheduled with
    /// its due cycle when it started. The MSHR list is scanned once (one
    /// compare per outstanding miss) and the walks only once the earliest
    /// is due, so an event-free cycle resets the port budgets and makes
    /// those compares.
    #[inline]
    pub fn begin_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
        self.ports_used = [0; 2];
        self.banks_used = [0; 2];

        // Fill the lines of misses that complete this cycle, moving their
        // MSHRs behind `live`. The swap leaves the survivors in the order a
        // `swap_remove` scan would, and lines fill in scan order.
        let mut live = self.mshrs.len();
        let mut i = 0;
        while i < live {
            let m = &self.mshrs[i];
            if m.complete_at <= cycle {
                let (side, line) = (m.side, m.line);
                live -= 1;
                self.mshrs.swap(i, live);
                self.install_chain(side, line);
            } else {
                i += 1;
            }
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

        // Answer the finished misses' waiters: by completion cycle, then
        // the data side first, then by line (the order every pinned result
        // was produced in).
        if live < self.mshrs.len() {
            self.mshrs[live..]
                .sort_unstable_by_key(|m| (m.complete_at, m.side == Side::Instr, m.line));
            for mut m in self.mshrs.drain(live..) {
                let at_cycle = m.complete_at;
                self.ready
                    .extend(m.waiters.drain(..).map(|req| Completion { req, at_cycle }));
                self.waiter_pool.push(m.waiters);
            }
        }
    }

    fn install_chain(&mut self, side: Side, line: Addr) {
        // Fill L1. Only data lines are ever written, so only a data
        // eviction can be dirty; its writeback occupies the L1 bus.
        if self.l1[side as usize].install(line) {
            self.stats.writebacks += 1;
            if !self.cfg.infinite_bandwidth {
                let bus = &mut self.bus_l1_free[side as usize];
                *bus = (*bus).max(self.cycle) + self.cfg.l1_params(side).transfer_cycles;
            }
        }
        // Fill outer levels (simple inclusive fill on the miss path).
        // Fills install clean, so these evictions never write back.
        self.l2.install(line);
        self.l3.install(line);
    }

    /// Computes the data-return time for a miss that leaves L1 at `cycle`,
    /// reserving bus/bank occupancy along the way.
    fn service_miss(&mut self, side: Side, line: Addr, start: u64) -> u64 {
        let inf = self.cfg.infinite_bandwidth;
        let l1 = self.cfg.l1_params(side);
        // L1 -> L2 request+data uses the L1 bus and the fixed level latency.
        let mut t = start;
        if !inf {
            let bus = &mut self.bus_l1_free[side as usize];
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
        let mut waiters = self
            .waiter_pool
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(MSHR_WAITERS));
        waiters.push(req);
        self.mshrs.push(Mshr {
            line,
            side,
            complete_at,
            waiters,
        });
        self.next_req += 1;
        Some(req)
    }

    /// Whether `side` still has a port, and the bank holding `addr`, free
    /// this cycle.
    #[inline]
    fn port_free(&self, side: Side, addr: Addr) -> bool {
        let p = self.cfg.l1_params(side);
        self.ports_used[side as usize] < p.accesses_per_cycle
            && self.banks_used[side as usize] & (1 << p.bank_of(addr)) == 0
    }

    /// The one L1 access path, for either side. In order: arbitrate for a
    /// port and the bank (when `arbitrate` is set and bandwidth is finite),
    /// look up the TLB, look up the tags, and answer with a hit, a miss, or
    /// a delay-only page walk (a tag hit whose translation missed). An
    /// access bounced at arbitration touches no TLB or cache state; only a
    /// data-side one counts in `bank_conflicts`. A miss that finds every
    /// MSHR busy bounces too, after its TLB and tag lookups were counted.
    #[inline]
    fn l1_access(
        &mut self,
        side: Side,
        thread: ThreadId,
        addr: Addr,
        write: bool,
        arbitrate: bool,
    ) -> AccessResult {
        let s = side as usize;
        if arbitrate && !self.cfg.infinite_bandwidth {
            if !self.port_free(side, addr) {
                if side == Side::Data {
                    self.stats.bank_conflicts += 1;
                }
                return AccessResult::BankConflict;
            }
            self.ports_used[s] += 1;
            self.banks_used[s] |= 1 << self.cfg.l1_params(side).bank_of(addr);
        }

        let walk = 2 * self.full_memory_latency();
        let (cache, tlb) = side.stats(&mut self.stats);
        tlb.accesses += 1;
        let tlb_extra = if self.tlb[s].access(thread, addr) {
            0
        } else {
            tlb.misses += 1;
            walk
        };

        cache.accesses += 1;
        if !self.l1[s].access(addr, write) {
            cache.misses += 1;
            let line = self.cfg.l1_params(side).line_of(addr);
            return match self.start_miss(side, line, tlb_extra) {
                Some(req) => AccessResult::Miss(req),
                None => AccessResult::BankConflict,
            };
        }
        if tlb_extra == 0 {
            return AccessResult::Hit;
        }
        // Line present but translation missing: pay the page-walk delay
        // without generating downstream traffic.
        let req = ReqId(self.next_req);
        self.next_req += 1;
        let due = self.cycle + 1 + tlb_extra;
        self.delay_only.push((due, req));
        self.next_delay_at = self.next_delay_at.min(due);
        AccessResult::Miss(req)
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
        self.l1_access(Side::Instr, thread, addr, false, arbitrate)
    }

    /// Whether the I-cache bank for `addr` is still free this cycle.
    #[inline]
    pub fn icache_bank_free(&self, addr: Addr) -> bool {
        self.cfg.infinite_bandwidth || self.cfg.perfect_icache || self.port_free(Side::Instr, addr)
    }

    /// Data access (load or store) at `addr`.
    ///
    /// Returns `Hit` (1-cycle latency), `Miss` (poll completions), or
    /// `BankConflict` (port/bank exhausted — for loads this squashes
    /// optimistically issued dependents, per Section 2 of the paper).
    #[inline]
    pub fn dcache_access(&mut self, thread: ThreadId, addr: Addr, write: bool) -> AccessResult {
        self.l1_access(Side::Data, thread, addr, write, true)
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
// per-thread last slots), port and bank/bus reservations, MSHRs (each an
// outstanding miss: line, side, completion cycle and waiter list), the
// scheduled delay-only TLB walks, answered-but-undrained completions and
// the request-id counter. The configuration is covered by the checkpoint
// header's fingerprint, so restore targets a hierarchy freshly built from
// it; the waiter pool is recycled storage, not state.
persist! {
    MemoryHierarchy {
        stats, l1, l2, l3, tlb, cycle, ports_used, banks_used, l2_bank_free, l3_bank_free,
        bus_l1_free, bus_l2_free, bus_mem_free, mshrs, delay_only, ready, next_req, next_delay_at,
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
persist! { Tlb { last, keys, stamps, tick } skip { capacity, page_shift } check Tlb::validate }
persist! { Mshr { line, side, complete_at, waiters } }
persist! { Completion { req, at_cycle } }
persist! { ReqId { 0 } }

impl Tlb {
    fn validate(&self) -> std::io::Result<()> {
        let len = self.keys.len();
        if len > self.capacity {
            return Err(invalid(format!(
                "TLB population {len} exceeds capacity {}",
                self.capacity
            )));
        }
        if self.stamps.len() != len {
            return Err(invalid(format!(
                "TLB has {len} keys but {} stamps",
                self.stamps.len()
            )));
        }
        match self.last.iter().flatten().find(|&&s| s as usize >= len) {
            Some(s) => Err(invalid(format!("TLB last slot {s} out of range"))),
            None => Ok(()),
        }
    }
}

impl Persist for Side {
    fn save(&self, w: &mut BinWriter<&mut dyn Write>) -> std::io::Result<()> {
        w.u8(*self as u8)
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
    fn a_bounced_access_touches_no_tlb_or_cache_state() {
        for side in [Side::Instr, Side::Data] {
            let mut m = mem();
            m.begin_cycle(0);
            let access = |m: &mut MemoryHierarchy, addr| match side {
                Side::Instr => m.icache_fetch(T0, addr),
                Side::Data => m.dcache_access(T0, addr, true),
            };
            let _ = access(&mut m, 0x10_0000);
            let stats = *m.stats();
            let contents = format!("{:?}", (&m.l1, &m.tlb));
            // Same bank, another page: the TLB would miss if it were asked.
            let busy = 0x10_0000 + 4 * 8 * 1024;
            assert_eq!(access(&mut m, busy), AccessResult::BankConflict);
            let s = m.stats();
            let bounces = u64::from(side == Side::Data);
            assert_eq!(s.bank_conflicts, stats.bank_conflicts + bounces, "{side:?}");
            assert_eq!(
                *s,
                MemStats {
                    bank_conflicts: s.bank_conflicts,
                    ..stats
                }
            );
            assert_eq!(format!("{:?}", (&m.l1, &m.tlb)), contents, "{side:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least 256 bytes")]
    fn pages_too_small_to_pack_beside_a_thread_id_are_refused() {
        let _ = MemoryHierarchy::new(MemConfig {
            page_bytes: 128,
            ..MemConfig::default()
        });
    }

    #[test]
    fn hostile_tlb_checkpoints_are_typed_errors() {
        let cfg = MemConfig {
            dtlb_entries: 4,
            ..MemConfig::default()
        };
        // A warmed hierarchy with one field of its data TLB damaged.
        type Damage = fn(&mut Tlb);
        let hostile = |damage: Damage| {
            let mut m = MemoryHierarchy::new(cfg.clone());
            for (c, page) in (0..6u64).enumerate() {
                m.begin_cycle(c as u64);
                let _ = m.dcache_access(T0, page * 8 * 1024, false);
            }
            damage(&mut m.tlb[Side::Data as usize]);
            let mut bytes = Vec::new();
            m.save(&mut BinWriter::new(&mut bytes as &mut dyn Write))
                .expect("vec write");
            let mut fresh = MemoryHierarchy::new(cfg.clone());
            fresh.restore(&mut BinReader::new(&mut &bytes[..] as &mut dyn Read))
        };
        hostile(|_| {}).expect("an undamaged TLB restores");
        let cases: [(&str, Damage); 4] = [
            ("more keys than capacity", |t| {
                t.keys.push(u64::MAX);
                t.stamps.push(u64::MAX);
            }),
            ("fewer stamps than keys", |t| {
                t.stamps.pop();
            }),
            ("more stamps than keys", |t| t.stamps.push(0)),
            ("a last slot past the keys", |t| {
                t.last[1] = Some(t.keys.len() as u32);
            }),
        ];
        for (what, damage) in cases {
            let err = hostile(damage).expect_err(what);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
        }
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
