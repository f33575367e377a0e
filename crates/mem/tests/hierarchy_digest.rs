//! A standalone behaviour digest of the memory hierarchy.
//!
//! The simulator's goldens reach `smt-mem` only through the pipeline on
//! the default machine. This test drives the public API directly with
//! seeded random access streams over several configurations and folds
//! everything observable into two FNV-1a digests per configuration:
//!
//! * the **behaviour** digest: every [`AccessResult`], every drained
//!   [`Completion`] in drain order, and the final [`MemStats`] — what the
//!   hierarchy answers and when;
//! * the **state** digest: the hierarchy's checkpoint bytes every 97
//!   cycles — what it keeps.
//!
//! A change to how state is stored may move only the state literals; a
//! change in any answer moves a behaviour literal.
//!
//! The streams follow the pipeline's contract: an arbitrated instruction
//! fetch is made only after [`MemoryHierarchy::icache_bank_free`] said yes
//! for that address in the same cycle. Unarbitrated fetches and data
//! accesses are unrestricted. Four threads read and write over a few
//! regions that collide in the direct-mapped L1 sets, plus a scatter of
//! far pages, so every stream produces hits, misses, MSHR merges, MSHR
//! exhaustion, bank bounces, TLB walks and dirty evictions.

use std::io::Write;

use smt_isa::{Addr, ThreadId};
use smt_mem::{AccessResult, Completion, MemConfig, MemStats, MemoryHierarchy};
use smt_stats::binio::{fnv1a, BinWriter, FNV_OFFSET};
use smt_stats::{Counters, Persist};

/// Cycles simulated per configuration.
const CYCLES: u64 = 5_000;
/// Checkpoint bytes are folded every this many cycles.
const SAVE_EVERY: u64 = 97;

/// SplitMix64: the random source of the access streams.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// An address for `thread`: mostly one of its 16 hot lines, sometimes
    /// a line 32 or 64 KB above one (same L1 set, another tag: conflict
    /// evictions), now and then one of 64 far pages (TLB capacity
    /// pressure with four threads).
    fn addr(&mut self, thread: ThreadId) -> Addr {
        let hot = u64::from(thread.0) * 8 * 1024 + self.below(16) * 64 + self.below(8) * 8;
        match self.below(64) {
            0 => 0x100_0000 + self.below(64) * 8 * 1024 + self.below(4) * 64,
            1..=4 => hot + (1 + self.below(2)) * 32 * 1024,
            _ => hot,
        }
    }
}

fn fold_u64(h: u64, v: u64) -> u64 {
    fnv1a(h, &v.to_le_bytes())
}

fn fold_result(h: u64, r: AccessResult) -> u64 {
    match r {
        AccessResult::Hit => fold_u64(h, 1),
        AccessResult::Miss(req) => fold_u64(fold_u64(h, 2), req.0),
        AccessResult::BankConflict => fold_u64(h, 3),
    }
}

fn fold_completion(h: u64, c: Completion) -> u64 {
    fold_u64(fold_u64(h, c.req.0), c.at_cycle)
}

fn fold_stats(mut h: u64, s: &MemStats) -> u64 {
    s.walk("mem", &mut |_, v| h = fold_u64(h, v));
    h
}

fn fold_state(h: u64, mem: &MemoryHierarchy) -> u64 {
    let mut bytes = Vec::new();
    mem.save(&mut BinWriter::new(&mut bytes as &mut dyn Write))
        .expect("in-memory save");
    fnv1a(h, &bytes)
}

/// One seeded stream's two digests, the final statistics, and how many
/// data accesses bounced on a full MSHR file rather than on a busy bank.
struct Run {
    behaviour: u64,
    state: u64,
    stats: MemStats,
    mshr_full: u64,
}

/// Runs one seeded stream over `cfg`.
fn run(cfg: MemConfig, seed: u64) -> Run {
    let mut mem = MemoryHierarchy::new(cfg);
    let mut rng = Rng(seed);
    let mut done = Vec::new();
    let mut h = FNV_OFFSET;
    let mut state = FNV_OFFSET;
    let mut mshr_full = 0;
    for cycle in 0..CYCLES {
        mem.begin_cycle(cycle);
        done.clear();
        mem.drain_completions_into(&mut done);
        for &c in &done {
            h = fold_completion(h, c);
        }
        for _ in 0..rng.below(6) {
            let thread = ThreadId(rng.below(4) as u8);
            let addr = rng.addr(thread);
            let bounced = mem.stats().bank_conflicts;
            let r = match rng.below(8) {
                0..=2 => mem.dcache_access(thread, addr, false),
                3 | 4 => mem.dcache_access(thread, addr, true),
                5 => mem.icache_fetch_with(thread, addr, false),
                arbitrated => {
                    if !mem.icache_bank_free(addr) {
                        h = fold_u64(h, 4);
                        continue;
                    }
                    if arbitrated == 6 {
                        mem.icache_fetch(thread, addr)
                    } else {
                        mem.icache_fetch_with(thread, addr, true)
                    }
                }
            };
            if r == AccessResult::BankConflict && mem.stats().bank_conflicts == bounced {
                mshr_full += 1;
            }
            h = fold_result(h, r);
        }
        if cycle % SAVE_EVERY == 0 {
            state = fold_state(state, &mem);
        }
    }
    Run {
        behaviour: fold_stats(h, mem.stats()),
        state,
        stats: *mem.stats(),
        mshr_full,
    }
}

/// The configurations the digests cover, each with its pinned
/// `(behaviour, state)` literals.
fn cases() -> Vec<(&'static str, MemConfig, (u64, u64))> {
    let two_way = {
        let mut c = MemConfig::default();
        for p in [&mut c.icache, &mut c.dcache] {
            p.assoc = 2;
            p.banks = 2;
            p.accesses_per_cycle = 2;
        }
        c
    };
    vec![
        (
            "default",
            MemConfig::default(),
            (0x62bb_22e7_6e97_0dce, 0x1f83_eada_e2bd_0ca2),
        ),
        (
            "two_way",
            two_way,
            (0x71f8_3d0b_99b8_91f4, 0x8d3e_af82_938a_a60a),
        ),
        (
            "small_tlb",
            MemConfig {
                itlb_entries: 2,
                dtlb_entries: 2,
                mshrs: 2,
                ..MemConfig::default()
            },
            (0x7bb4_b4dd_58b8_8166, 0x5a1b_fce5_aa5f_b60a),
        ),
        (
            "infinite_bandwidth",
            MemConfig {
                infinite_bandwidth: true,
                ..MemConfig::default()
            },
            (0xa278_cb19_4746_c17c, 0x69ad_18a3_d29b_585d),
        ),
        (
            "perfect_icache",
            MemConfig {
                perfect_icache: true,
                ..MemConfig::default()
            },
            (0xbae9_7334_8f27_c8f5, 0x20ef_2a97_2643_4608),
        ),
    ]
}

#[test]
fn random_streams_match_the_pinned_digests() {
    let mut wrong = Vec::new();
    for (name, cfg, pinned) in cases() {
        let Run {
            behaviour, state, ..
        } = run(cfg, 42);
        if behaviour != pinned.0 {
            wrong.push(format!("{name} behaviour: {behaviour:#018x}"));
        }
        if state != pinned.1 {
            wrong.push(format!("{name} state: {state:#018x}"));
        }
    }
    assert!(wrong.is_empty(), "digest moved: {}", wrong.join(", "));
}

/// The streams reach what the digest claims to cover: a digest over
/// streams that never miss, merge or bounce would pin nothing.
#[test]
fn streams_reach_every_event_class() {
    for (name, cfg, _) in cases() {
        let perfect_icache = cfg.perfect_icache;
        let Run {
            stats: s,
            mshr_full,
            ..
        } = run(cfg, 42);
        let partial = |l: smt_mem::LevelStats| l.misses > 0 && l.misses < l.accesses;
        assert!(partial(s.dcache) && partial(s.dtlb), "{name}: data side");
        assert!(partial(s.l2) && s.mshr_merges > 0, "{name}: outer levels");
        assert!(s.writebacks > 0, "{name}: dirty evictions");
        if perfect_icache {
            assert_eq!((s.icache.misses, s.itlb.accesses), (0, 0), "{name}");
        } else {
            assert!(
                partial(s.icache) && partial(s.itlb),
                "{name}: instruction side"
            );
        }
        if name == "default" || name == "small_tlb" {
            assert!(s.bank_conflicts > 0 && mshr_full > 0, "{name}: bounces");
        }
    }
}
