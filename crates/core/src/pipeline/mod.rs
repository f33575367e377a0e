//! The cycle-level SMT pipeline, built around an **event-driven scheduler**
//! over **data-oriented state**.
//!
//! Eight logical stages on the paper's machine collapse here into five
//! simulated phases per cycle, processed oldest-work-first so data flows
//! one cycle per stage without double-stepping:
//!
//! 1. **completions** — drain finished cache misses (I-side unblocks fetch,
//!    D-side wakes waiting loads), delivered by `smt-mem` as scheduled
//!    events rather than discovered by polling,
//! 2. **writeback** — finished instructions make their results available;
//!    correct-path branches resolve, train the predictor, and squash on a
//!    mispredict,
//! 3. **commit** — per-thread in-order retirement, freeing renaming
//!    registers,
//! 4. **issue** — the [`IssuePolicy`](crate::IssuePolicy) orders the ready
//!    set onto the 6 integer (4 load/store-capable) and 3 FP units;
//!    loads/stores arbitrate for D-cache banks,
//! 5. **rename/dispatch** then **fetch** — the front end: decoded
//!    instructions claim renaming registers and queue slots, and the
//!    [`FetchPolicy`](crate::FetchPolicy) picks which threads fill the
//!    8-wide fetch bandwidth under the active
//!    [`FetchPartition`](crate::FetchPartition).
//!
//! # The event-driven scheduler
//!
//! Nothing in the hot loop re-scans the ROBs. Three structures carry all
//! scheduling state forward:
//!
//! * **Wakeup lists** (`smt-core::regfile`): a dispatched instruction whose
//!   operands are not all ready registers itself on each outstanding
//!   physical register; writeback drains the list and decrements the
//!   consumer's outstanding-operand count.
//! * **The ready set** (`ready_q`, kept sorted by age): an instruction
//!   enters exactly once — at dispatch when every operand is already ready,
//!   or when its last operand's writeback wakes it — and leaves when
//!   issued. The [`IssuePolicy`](crate::IssuePolicy) therefore ranks only
//!   genuinely-ready instructions, and age-keyed policies see a pre-sorted
//!   candidate array.
//! * **Writeback events** (`exec_done`, a calendar ring over the next
//!   [`EXEC_RING`] cycles): issue schedules each instruction's writeback
//!   into the bucket of its completion cycle; the writeback phase drains
//!   exactly one bucket per cycle instead of scanning for
//!   `done_at <= cycle`.
//!
//! # Data-oriented state (PR 5)
//!
//! All in-flight instructions live in one generation-indexed
//! [`InstSlab`](slab::InstSlab): packed 48-byte hot records in one array,
//! cold report/resolution payload in a parallel array, 4-byte
//! [`InstRef`](slab::InstRef) handles everywhere else. Per-thread ROBs
//! (whose un-renamed tails are the front ends), the ready set, wakeup
//! lists, calendar events and pending-load completions all store refs
//! into the slab; stale artifacts die on a generation compare
//! ([`slab::GenRef`]). Outstanding D-miss loads are a short list of
//! `(request id, load)` pairs, sorted because `smt-mem` issues request
//! ids in increasing order: issue appends, a completion binary-searches.
//! Every per-cycle structure is pooled or reused in place — the warmed
//! steady state performs **zero heap allocations per cycle** (pinned by
//! `tests/alloc_guard.rs` in this crate).
//!
//! Per-thread policy counters (ICOUNT / BRCOUNT / MISSCOUNT) are maintained
//! incrementally at the same transitions, so fetch ranking reads them in
//! O(1). All of this bookkeeping is a function of the slab, the ROBs and
//! the register scoreboard, so a checkpoint carries none of it: restore
//! recounts it in one walk over the ROBs. The stage phases live in sibling
//! modules ([`fetch`], [`rename`], [`issue`], [`commit`], [`scheduler`]);
//! this module owns the machine state and the cycle driver.
//!
//! Fetch follows *predicted* paths: the per-thread oracle supplies the
//! correct path, the predictor supplies choices, and any disagreement sends
//! the thread down a synthesized wrong path until the offending branch
//! resolves and squashes it — so wrong-path instructions consume fetch
//! slots, rename registers, queue entries and functional units exactly as
//! the paper requires.

mod checkpoint;
mod commit;
mod fetch;
mod issue;
mod rename;
mod scheduler;
pub(crate) mod slab;

use std::collections::VecDeque;
use std::sync::Arc;

use smt_branch::BranchPredictor;
use smt_isa::{Addr, ThreadId};
use smt_mem::{MemoryHierarchy, ReqId};
use smt_stats::{counters, Ratio};
use smt_workload::{Program, SyntheticSource, WorkloadSource};

use crate::config::{SimConfig, WorkloadSpec};
use crate::regfile::{PhysRegFile, RenameMap};
use crate::report::{FetchBreakdown, IssueBreakdown, SimReport, ThreadReport};

use slab::{GenRef, InstRef, InstSlab, PREG_NONE};

/// One ready instruction, parked in the age-sorted ready set until issued.
///
/// Carries everything ranking needs — the slab handle, the static opcode
/// and the load-speculation window bound — so building issue candidates
/// touches neither the slab nor the register scoreboard; the slab is
/// consulted only for instructions that actually win a functional unit.
#[derive(Debug, Clone, Copy)]
struct ReadyEntry {
    /// Global age (the issue policies' `age` field).
    seq: u64,
    /// Last cycle at which this instruction still issues on a load-hit
    /// assumption (the OPT_LAST tag): the maximum
    /// [`opt_window_end`](crate::regfile::PhysRegFile::opt_window_end)
    /// over its sources, cached at entry creation — source scoreboard
    /// state is immutable while a consumer is ready (see that method).
    opt_until: u64,
    /// The instruction's slab slot. Ready entries are removed eagerly on
    /// squash, so (unlike wakeup/calendar artifacts) they never go stale
    /// and need no generation.
    iref: InstRef,
    /// The instruction's opcode (functional-unit kind, queue, latency).
    op: smt_isa::Opcode,
    /// Owning thread index.
    ti: u8,
}

/// One scheduled writeback: the completion event for an issued (or
/// miss-completed) instruction, parked in its due cycle's calendar bucket.
/// `seq` orders the bucket (global age order) and the tagged ref fails its
/// slab lookup if the instruction was squashed after scheduling.
#[derive(Debug, Clone, Copy)]
struct ExecEvent {
    seq: u64,
    inst: GenRef,
}

/// Size of the writeback calendar ring: a power of two comfortably above
/// the longest result latency (30 cycles, `FpDivDouble`), so every
/// scheduled writeback lands in an empty-or-current bucket.
const EXEC_RING: usize = 64;

/// Inserts into the age-sorted ready set. Entries usually belong at or
/// near the tail (readiness correlates with age), so the binary search
/// plus short memmove is cheap.
fn insert_ready(ready_q: &mut Vec<ReadyEntry>, e: ReadyEntry) {
    // Dispatch inserts are usually the youngest instruction in the set:
    // check the tail before paying for a binary search.
    if ready_q.last().is_none_or(|l| l.seq < e.seq) {
        ready_q.push(e);
    } else {
        let at = ready_q.partition_point(|r| r.seq < e.seq);
        ready_q.insert(at, e);
    }
}

/// The [`ReadyEntry::opt_until`] bound for an instruction with the given
/// packed (and all-ready) sources.
fn opt_until_of(regs: &[PhysRegFile; 2], srcs: &[u16; 2]) -> u64 {
    let mut end = 0;
    for &s in srcs {
        if s != PREG_NONE {
            end = end.max(regs[slab::preg_class(s)].opt_window_end(slab::preg_index(s)));
        }
    }
    end
}

/// One hardware context.
///
/// `repr(C)` pins the field order: the members the every-cycle fetch
/// ranking reads (PC, stall/miss gates, the live policy counters, and the
/// unresolved-control list whose length is BRCOUNT) lead the struct, so
/// building a [`ThreadFetchView`](crate::policy::ThreadFetchView) touches
/// the first cache line instead of sampling a ~400-byte struct at random
/// offsets.
#[repr(C)]
struct Thread {
    fetch_pc: Addr,
    /// Fetch suppressed until this cycle (misfetch/redirect penalties).
    stall_until: u64,
    /// Outstanding I-cache miss blocking fetch.
    icache_req: Option<ReqId>,
    /// Live ICOUNT counter: instructions in decode, rename and the queues
    /// (fetched but not yet issued). Incremented at fetch, decremented at
    /// issue and squash — never recomputed by scanning.
    in_flight: u32,
    /// Live MISSCOUNT counter: loads waiting on outstanding D-misses.
    outstanding_misses: u32,
    /// Fetch has diverged from the correct path.
    wrong_path: bool,
    id: ThreadId,
    /// Instructions still in the front end (fetched, not yet renamed):
    /// the ROB's youngest `frontend_len` entries, all
    /// [`Decoding`](slab::InstState::Decoding). Rename is in order, so
    /// the front end is always the ROB's tail and its head is
    /// `rob[rob.len() - frontend_len]`.
    frontend_len: usize,
    /// Sequence numbers of fetched control instructions not yet executed
    /// (state before [`slab::InstState::Done`]) — BRCOUNT is its size, and
    /// its front is the speculation boundary the issue policies consult.
    /// Always sorted: fetch appends monotonically increasing sequence
    /// numbers, writeback removes by binary search, and squash truncates
    /// the (youngest) tail.
    unresolved_ctrl: Vec<u64>,
    /// All in-flight instructions in fetch order (the per-thread ROB) —
    /// 4-byte slab handles; commit pops the front, squash pops the back.
    rob: VecDeque<InstRef>,
    /// Salt for wrong-path address synthesis.
    wp_salt: u64,
    committed: u64,
    /// `committed` snapshot at the last `reset_stats` (reports measure the
    /// window since then).
    committed_base: u64,
    map: RenameMap,
    /// The thread's instruction source: correct-path stream, wrong-path
    /// synthesis and checkpoint codec, behind the pluggable
    /// [`WorkloadSource`] trait (synthetic oracle, RISC-V execution or
    /// trace replay — fetch never names a concrete backend).
    source: Box<dyn WorkloadSource>,
}

/// Initial capacity of a thread's unresolved-control list and of the
/// wakeup drain buffer. On the standard, int8 and fp8 mixes under every
/// shipped policy pair the warmed high-water marks are 17 unresolved
/// control instructions per thread and 28 wakeups per cycle, so neither
/// grows in the steady state (`tests/alloc_guard.rs` in this crate pins
/// it). The proven bounds (one entry per slab slot, two per slot for
/// wakeups) would cost ~40 KB per machine and measurably raise a study's
/// peak RSS; past this capacity a list grows once, it does not fail.
const STEADY_STATE_LIST: usize = 64;

impl Thread {
    /// Removes one resolved control instruction from the unresolved list
    /// (no-op if absent, e.g. removed by an earlier squash).
    fn resolve_ctrl(&mut self, seq: u64) {
        if let Ok(i) = self.unresolved_ctrl.binary_search(&seq) {
            self.unresolved_ctrl.remove(i);
        }
    }

    /// Drops every unresolved control instruction younger than `seq`
    /// (squash: the tail, since the list is sorted by age).
    fn squash_ctrl_after(&mut self, seq: u64) {
        let keep = self.unresolved_ctrl.partition_point(|&s| s <= seq);
        self.unresolved_ctrl.truncate(keep);
    }
}

counters! {
    /// The pipeline's own measurement-window counters: zeroed together by
    /// [`Simulator::reset_stats`] and stored as one checkpoint section in
    /// this order. (`smt-mem` and `smt-branch` keep theirs.)
    struct PipelineStats {
        fetch: FetchBreakdown,
        issue: IssueBreakdown,
        /// Conditional-branch direction prediction accuracy.
        cond_pred: Ratio,
        /// Mispredictions that triggered a squash (any control kind).
        squashes: u64,
        /// Instructions flushed by squashes.
        squashed_insts: u64,
    }
}

/// The simulator: a configured machine plus its architectural state.
///
/// Built by [`SimConfig::build`]; driven by [`Simulator::run`].
pub struct Simulator {
    cfg: SimConfig,
    /// Effective per-thread front-end capacity: `cfg.frontend_depth`, or
    /// `usize::MAX` under the `InfiniteFrontendQueues` ablation.
    frontend_limit: usize,
    /// Effective per-class instruction-queue capacity: `cfg.iq_entries`,
    /// or `usize::MAX` under the `InfiniteFrontendQueues` ablation.
    iq_limit: usize,
    cycle: u64,
    /// Cycle at which the current measurement window opened (the last
    /// `reset_stats`; 0 if statistics were never reset).
    stats_base_cycle: u64,
    next_seq: u64,
    threads: Box<[Thread]>,
    /// Every in-flight instruction, across all threads (see [`slab`]).
    insts: InstSlab,
    regs: [PhysRegFile; 2],
    /// The ready set: Queued instructions whose operands are all
    /// available. Instructions enter exactly once (see module docs) and
    /// leave when issued. Kept sorted by age (seq): entries arrive near
    /// the tail, and an age-ordered ready set means the default
    /// OLDEST_FIRST ranking is built pre-sorted, which the sort detects
    /// in O(n).
    ready_q: Vec<ReadyEntry>,
    /// Instruction-queue occupancy per class: Queued instructions whether
    /// or not their operands are ready (dispatch back-pressure).
    iq_len: [usize; 2],
    /// Scheduled writebacks, as a calendar ring: bucket `c % EXEC_RING`
    /// holds the [`ExecEvent`]s due at cycle `c`. Every event is scheduled
    /// at most [`EXEC_RING`]` - 1` cycles ahead (the longest
    /// functional-unit latency is 30; memory misses schedule on
    /// completion), so push and drain are O(1) with no heap discipline.
    /// Events for squashed instructions go stale and are skipped when
    /// their bucket drains (the slot generation moved on).
    exec_done: [Vec<ExecEvent>; EXEC_RING],
    mem: MemoryHierarchy,
    bp: BranchPredictor,
    /// Outstanding D-miss loads as `(request, load)` pairs, sorted by
    /// request id: `smt-mem` issues ids in increasing order, so issue
    /// appends and a completion binary-searches and removes. Entries of
    /// squashed loads go stale and leave when their miss completes.
    pending_loads: Vec<(ReqId, GenRef)>,
    stats: PipelineStats,
    /// Provenance marker copied into [`SimReport`]: set only by
    /// [`mark_restored_from_checkpoint`](Simulator::mark_restored_from_checkpoint),
    /// never serialized and never restored (restoring must reproduce a
    /// straight-through simulator bit for bit).
    restored_from_checkpoint: bool,
    /// Reused sort buffer for fetch ranking (allocation-free hot loop).
    fetch_rank_scratch: Vec<(i64, u64, usize)>,
    /// Reused sort buffer for issue ranking:
    /// `(policy key, seq, index in the ready set)`.
    issue_rank_scratch: Vec<(i64, u64, u32)>,
    /// Reused fetch slot-loss accumulator.
    loss_scratch: Vec<(fetch::LossCause, u32)>,
    /// Reused miss-completion drain buffer.
    completion_scratch: Vec<smt_mem::Completion>,
    /// Reused wakeup drain buffer (filled by `PhysRegFile::set_ready`).
    woken_scratch: Vec<crate::regfile::Consumer>,
}

/// Per-phase wall-clock accumulators behind the `phase-timing` feature
/// (memory begin-cycle, completions, writeback, commit, issue, rename,
/// fetch) — see "Profiling the hot loop" in the crate docs.
#[cfg(feature = "phase-timing")]
pub static PHASE_NS: [std::sync::atomic::AtomicU64; 7] = [
    std::sync::atomic::AtomicU64::new(0),
    std::sync::atomic::AtomicU64::new(0),
    std::sync::atomic::AtomicU64::new(0),
    std::sync::atomic::AtomicU64::new(0),
    std::sync::atomic::AtomicU64::new(0),
    std::sync::atomic::AtomicU64::new(0),
    std::sync::atomic::AtomicU64::new(0),
];

impl Simulator {
    /// Builds the machine described by `cfg`. Prefer [`SimConfig::build`].
    pub(crate) fn new(cfg: SimConfig) -> Simulator {
        let threads = cfg.threads();
        let synthetic = |program: Arc<Program>, i: usize| -> Box<dyn WorkloadSource> {
            Box::new(SyntheticSource::new(
                program,
                cfg.seed ^ (i as u64).wrapping_mul(0x9e37),
            ))
        };
        let sources: Vec<Box<dyn WorkloadSource>> = cfg
            .workloads
            .iter()
            .enumerate()
            .map(|(i, spec)| match spec {
                WorkloadSpec::Benchmark(b) => {
                    synthetic(Arc::new(b.generate(cfg.seed, i as u32)), i)
                }
                WorkloadSpec::Program(p) => synthetic(p.clone(), i),
                WorkloadSpec::Elf(img) => Box::new(smt_workload::RiscvSource::new(img.clone())),
                WorkloadSpec::Trace(t) => Box::new(smt_workload::TraceSource::new(t.clone())),
            })
            .collect();
        let phys = smt_isa::LOGICAL_REGS * threads + cfg.extra_phys_regs;
        let mut regs = [PhysRegFile::new(phys), PhysRegFile::new(phys)];
        let bp = BranchPredictor::new(cfg.predictor.clone(), threads);
        // Ablations that live in other crates are applied here, once, so
        // the hot paths stay branch-free where possible: a perfect I-cache
        // is a memory-hierarchy property, and infinite front-end queues
        // become sentinel capacities.
        let mut mem_cfg = cfg.mem.clone();
        if cfg.ablations.contains(crate::Ablation::PerfectICache) {
            mem_cfg.perfect_icache = true;
        }
        let mem = MemoryHierarchy::new(mem_cfg);
        let (frontend_limit, iq_limit) = if cfg
            .ablations
            .contains(crate::Ablation::InfiniteFrontendQueues)
        {
            (usize::MAX, usize::MAX)
        } else {
            (cfg.frontend_depth, cfg.iq_entries)
        };
        // Generous initial slab capacity: a bounded machine's in-flight
        // population stays well under this, so the steady state never
        // grows the slab, nor a per-thread ROB sized to it
        // (`tests/alloc_guard.rs` in this crate pins it under every
        // shipped policy pair).
        let slab_capacity = 64 * sources.len().max(8);
        let thread_state: Box<[Thread]> = sources
            .into_iter()
            .enumerate()
            .map(|(i, source)| Thread {
                fetch_pc: source.pc(),
                stall_until: 0,
                icache_req: None,
                in_flight: 0,
                outstanding_misses: 0,
                wrong_path: false,
                id: ThreadId(i as u8),
                unresolved_ctrl: Vec::with_capacity(STEADY_STATE_LIST),
                frontend_len: 0,
                rob: VecDeque::with_capacity(slab_capacity),
                wp_salt: 0,
                committed: 0,
                committed_base: 0,
                map: RenameMap::new(&mut regs),
                source,
            })
            .collect();
        // Spilled wakeup entries are bounded by two source registrations
        // per in-flight instruction; reserving that bound up front keeps
        // the cycle path allocation-free even on workloads whose
        // dependence chains overflow the inline waiter slots (the
        // trace-replay allocation guard pins this).
        for f in &mut regs {
            f.reserve_waiters(2 * slab_capacity);
        }
        Simulator {
            cfg,
            frontend_limit,
            iq_limit,
            cycle: 0,
            stats_base_cycle: 0,
            next_seq: 0,
            threads: thread_state,
            insts: InstSlab::with_capacity(slab_capacity),
            regs,
            ready_q: Vec::with_capacity(256),
            iq_len: [0, 0],
            exec_done: std::array::from_fn(|_| Vec::with_capacity(128)),
            mem,
            bp,
            pending_loads: Vec::with_capacity(256),
            stats: PipelineStats::default(),
            restored_from_checkpoint: false,
            fetch_rank_scratch: Vec::new(),
            issue_rank_scratch: Vec::new(),
            loss_scratch: Vec::new(),
            completion_scratch: Vec::new(),
            woken_scratch: Vec::with_capacity(STEADY_STATE_LIST),
        }
    }

    /// Number of hardware contexts.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Simulates `cycles` further cycles and returns the report for the
    /// current measurement window.
    ///
    /// If the configuration carries a warmup window
    /// ([`SimConfig::with_warmup`]) and nothing has been simulated yet, the
    /// warmup cycles are simulated first and [`reset_stats`] is called
    /// before the measured cycles begin, so the report covers exactly
    /// `cycles` warmed-up cycles.
    ///
    /// [`reset_stats`]: Simulator::reset_stats
    pub fn run(&mut self, cycles: u64) -> SimReport {
        if self.cycle == 0 && self.cfg.warmup_cycles > 0 {
            for _ in 0..self.cfg.warmup_cycles {
                self.step_cycle();
            }
            self.reset_stats();
        }
        for _ in 0..cycles {
            self.step_cycle();
        }
        self.report()
    }

    /// Opens a fresh measurement window: zeroes every statistic — fetch
    /// slot-loss accounting, issue counters, branch-prediction ratios and
    /// predictor activity, squash counts, and the memory-hierarchy stats —
    /// while leaving all architectural and microarchitectural state (ROBs,
    /// rename maps, wakeup lists, scheduled events, in-flight misses,
    /// cache/TLB contents, BTB/PHT/RAS, oracle positions) untouched.
    /// Subsequent [`report`](Simulator::report) calls cover only the window
    /// since this call.
    pub fn reset_stats(&mut self) {
        self.stats_base_cycle = self.cycle;
        for t in &mut self.threads {
            t.committed_base = t.committed;
        }
        self.stats = PipelineStats::default();
        self.mem.reset_stats();
        self.bp.reset_stats();
    }

    /// Every recorded pending load, as `(request, load)` pairs.
    #[cfg(test)]
    fn pending_load_entries(&self) -> impl Iterator<Item = (ReqId, GenRef)> + '_ {
        self.pending_loads.iter().copied()
    }

    /// Correct-path instructions committed since construction, across all
    /// threads — unaffected by [`reset_stats`](Simulator::reset_stats)
    /// (which only re-bases what reports show). Lets tests verify that
    /// statistics resets leave architectural progress untouched.
    pub fn lifetime_committed(&self) -> u64 {
        self.threads.iter().map(|t| t.committed).sum()
    }

    /// Advances the machine by one cycle.
    pub fn step_cycle(&mut self) {
        #[cfg(feature = "phase-timing")]
        let mut t = std::time::Instant::now();
        #[cfg(feature = "phase-timing")]
        let mut lap = |i: usize| {
            let now = std::time::Instant::now();
            PHASE_NS[i].fetch_add(
                (now - t).as_nanos() as u64,
                std::sync::atomic::Ordering::Relaxed,
            );
            t = now;
        };
        #[cfg(not(feature = "phase-timing"))]
        let lap = |_i: usize| {};
        self.cycle += 1;
        self.mem.begin_cycle(self.cycle);
        lap(0);
        self.drain_completions();
        lap(1);
        self.writeback();
        lap(2);
        self.commit();
        lap(3);
        self.issue();
        lap(4);
        self.rename();
        lap(5);
        self.fetch();
        lap(6);
    }

    /// The report for the current measurement window (everything since the
    /// last [`reset_stats`](Simulator::reset_stats), or since construction).
    pub fn report(&self) -> SimReport {
        let window = self.cycle - self.stats_base_cycle;
        SimReport {
            cycles: window,
            warmup_cycles: self.stats_base_cycle,
            restored_from_checkpoint: self.restored_from_checkpoint,
            fetch_policy: self.cfg.fetch.name().to_string(),
            issue_policy: self.cfg.issue.name().to_string(),
            ablations: self
                .cfg
                .ablations
                .iter()
                .map(|a| a.name().to_string())
                .collect(),
            partition: self.cfg.partition,
            threads: self
                .threads
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let committed = t.committed - t.committed_base;
                    ThreadReport {
                        thread: i,
                        benchmark: t.source.name().to_string(),
                        committed,
                        ipc: if window == 0 {
                            0.0
                        } else {
                            committed as f64 / window as f64
                        },
                    }
                })
                .collect(),
            fetch: self.stats.fetch,
            issue: self.stats.issue,
            cond_prediction: self.stats.cond_pred,
            pred: *self.bp.stats(),
            squashes: self.stats.squashes,
            squashed_insts: self.stats.squashed_insts,
            mem: *self.mem.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::slab::InstState;
    use super::*;
    use crate::policy::{FetchPartition, RoundRobin};
    use smt_workload::Benchmark;

    fn tiny_config() -> SimConfig {
        SimConfig::new().with_benchmarks(vec![Benchmark::Espresso, Benchmark::Eqntott], 11)
    }

    #[test]
    fn simulator_makes_forward_progress() {
        let mut sim = tiny_config().build();
        let report = sim.run(3_000);
        assert_eq!(report.cycles, 3_000);
        assert!(report.total_committed() > 1_000, "IPC collapsed: {report}");
        for t in &report.threads {
            assert!(t.committed > 0, "thread {} starved: {report}", t.thread);
        }
    }

    #[test]
    fn committed_stream_matches_oracle_prefix() {
        // Every committed instruction must be a correct-path instruction:
        // replaying the oracle must yield exactly the committed count.
        let mut sim = tiny_config().build();
        let report = sim.run(2_000);
        // The oracle inside the simulator has stepped exactly
        // committed + in-flight correct-path instructions.
        for (ti, t) in sim.threads.iter().enumerate() {
            let in_flight_correct = t
                .rob
                .iter()
                .filter(|r| !sim.insts.hot[r.index()].wrong_path())
                .count() as u64;
            assert_eq!(
                t.source.executed(),
                report.threads[ti].committed + in_flight_correct,
                "oracle/commit divergence on thread {ti}"
            );
        }
    }

    #[test]
    fn squashes_happen_and_recover() {
        let mut sim = tiny_config().build();
        let report = sim.run(4_000);
        assert!(
            report.squashes > 0,
            "branchy workloads must mispredict sometimes"
        );
        assert!(report.cond_prediction.total > 0);
        // Prediction accuracy should be sane (predictor learns loops).
        assert!(
            report.cond_prediction.percent() > 55.0,
            "suspiciously poor prediction: {}",
            report.cond_prediction
        );
    }

    #[test]
    fn wrong_path_work_is_fetched_but_never_committed() {
        let mut sim = tiny_config().build();
        let report = sim.run(4_000);
        assert!(
            report.fetch.wrong_path > 0,
            "mispredicts must fetch wrong-path work"
        );
        // Total commits never exceed correct-path fetches.
        assert!(report.total_committed() <= report.fetch.fetched);
    }

    #[test]
    fn physical_registers_are_conserved() {
        let mut sim = tiny_config().build();
        let _ = sim.run(2_500);
        for (ci, rf) in sim.regs.iter().enumerate() {
            let live_dests: usize = sim
                .threads
                .iter()
                .flat_map(|t| t.rob.iter())
                .filter(|r| {
                    let d = sim.insts.hot[r.index()].dest_phys;
                    d != PREG_NONE && slab::preg_class(d) == ci
                })
                .count();
            let mapped = smt_isa::LOGICAL_REGS * sim.threads.len();
            let total = mapped + sim.cfg.extra_phys_regs;
            assert_eq!(
                rf.free_count() + live_dests + mapped,
                total,
                "register leak in class {ci}"
            );
        }
    }

    #[test]
    fn slab_population_matches_rob_contents() {
        // Every ROB entry is a live slab slot; the slab holds nothing else.
        let mut sim = tiny_config().build();
        let _ = sim.run(2_500);
        let rob_total: usize = sim.threads.iter().map(|t| t.rob.len()).sum();
        assert_eq!(sim.insts.live_count(), rob_total, "slab leaked slots");
        let mut seen = BTreeSet::new();
        for t in &sim.threads {
            for r in &t.rob {
                assert!(seen.insert(r.index()), "two ROB entries share a slot");
                assert_eq!(
                    sim.insts.live(sim.insts.tag(*r)),
                    Some(*r),
                    "ROB entry's slot is not live"
                );
            }
        }
    }

    #[test]
    fn round_robin_partitions_run_too() {
        for partition in FetchPartition::all_schemes() {
            let mut sim = tiny_config()
                .with_fetch(Box::new(RoundRobin))
                .with_partition(partition)
                .build();
            let report = sim.run(1_500);
            assert!(
                report.total_committed() > 300,
                "{partition} stalled: {report}"
            );
        }
    }

    // The fetched + wrong_path + Σ lost_* == 8·cycles invariant lives in
    // `tests/fetch_accounting.rs` as a property test over every partition
    // scheme × mix × seed × window × ablation set.

    /// A wrong-path thread passed over at pre-selection bank arbitration is
    /// counted exactly once — the single counting point for
    /// `wrong_path_fetch_conflicts` (the `fetch_block` bank-conflict arm
    /// used to double as a second one).
    #[test]
    fn conflicting_wrong_path_fetch_counted_exactly_once() {
        let mut sim = tiny_config().build();
        // At cycle 1 the rotation tie-break ranks thread 1 first; both
        // threads' fetch blocks sit in I-cache bank 0, and thread 0 is on
        // the wrong path.
        sim.cycle = 1;
        sim.mem.begin_cycle(1);
        sim.threads[0].fetch_pc = 0x0;
        sim.threads[1].fetch_pc = 0x200; // (0x200 >> 6) & 7 == 0: same bank
        sim.threads[0].wrong_path = true;
        sim.fetch();
        assert_eq!(
            sim.stats.fetch.wrong_path_fetch_conflicts, 1,
            "one wrong-path thread turned away once must count once"
        );
    }

    /// MSHR exhaustion inside `fetch_block` is a structural stall, not
    /// bank/port contention: it must not count toward
    /// `wrong_path_fetch_conflicts` (it used to, double-counting the
    /// thread-cycle relative to the pre-selection arbitration point).
    #[test]
    fn mshr_exhaustion_is_not_a_wrong_path_bank_conflict() {
        let mut cfg = tiny_config();
        cfg.mem.mshrs = 1;
        let mut sim = cfg.build();
        sim.cycle = 2; // rotation ranks thread 0 first
        sim.mem.begin_cycle(2);
        // A data miss takes the one MSHR, so every fetch miss is rejected
        // for MSHR pressure.
        let data_miss = sim.mem.dcache_access(ThreadId(1), 0x4000_0000, false);
        assert!(matches!(data_miss, smt_mem::AccessResult::Miss(_)));
        sim.threads[0].wrong_path = true;
        sim.fetch();
        assert_eq!(
            sim.stats.fetch.wrong_path_fetch_conflicts, 0,
            "MSHR-full rejection is not bank/port contention"
        );
        assert!(
            sim.stats.fetch.lost_bank_conflict > 0,
            "the lost slots are still charged to the bank bucket"
        );
    }

    /// Under the wrong-path exemption ablation the same conflicting setup
    /// records no conflict at all: the wrong-path thread is never turned
    /// away.
    #[test]
    fn exempt_wrong_path_never_records_conflicts() {
        let mut cfg = tiny_config();
        cfg.ablations = crate::Ablations::only(crate::Ablation::ExemptWrongPathFromBankArbitration);
        let mut sim = cfg.build();
        sim.cycle = 1;
        sim.mem.begin_cycle(1);
        sim.threads[0].fetch_pc = 0x0;
        sim.threads[1].fetch_pc = 0x200;
        sim.threads[0].wrong_path = true;
        sim.fetch();
        assert_eq!(sim.stats.fetch.wrong_path_fetch_conflicts, 0);
        // The exempt thread actually started its access (it was selected,
        // not passed over): both threads progressed to an I-cache access.
        assert_eq!(sim.mem.stats().icache.accesses, 2);
    }

    #[test]
    fn scheduler_counters_match_rob_rescan() {
        // The event-driven scheduler maintains the policy counters and
        // queue occupancy incrementally; a brute-force ROB rescan (what the
        // scan-based simulator recomputed every cycle) must agree at every
        // observation point.
        let mut sim = tiny_config().build();
        for _ in 0..60 {
            for _ in 0..25 {
                sim.step_cycle();
            }
            let mut iq_len = [0usize; 2];
            for t in &sim.threads {
                let mut in_flight = 0u32;
                let mut misses = 0u32;
                let mut unresolved = Vec::new();
                for r in &t.rob {
                    let h = &sim.insts.hot[r.index()];
                    match h.state() {
                        InstState::Decoding => in_flight += 1,
                        InstState::Queued => {
                            in_flight += 1;
                            iq_len[h.op.queue().index()] += 1;
                        }
                        InstState::WaitingMem => misses += 1,
                        _ => {}
                    }
                    if h.op.is_control() && h.state() != InstState::Done {
                        // ROB order is age order, so this stays sorted.
                        unresolved.push(h.seq);
                    }
                }
                assert_eq!(t.in_flight, in_flight, "ICOUNT drifted");
                assert_eq!(t.outstanding_misses, misses, "MISSCOUNT drifted");
                assert_eq!(t.unresolved_ctrl, unresolved, "BRCOUNT set drifted");
            }
            assert_eq!(sim.iq_len, iq_len, "IQ occupancy drifted");
            // Every ready-set entry is a live, Queued instruction with no
            // outstanding operands, appears exactly once, and the set is
            // age-sorted.
            let mut seen = BTreeSet::new();
            let mut prev_seq = None;
            for e in &sim.ready_q {
                assert!(seen.insert(e.seq), "duplicate ready entry {}", e.seq);
                assert!(prev_seq < Some(e.seq), "ready set lost its age order");
                prev_seq = Some(e.seq);
                let inst = &sim.insts.hot[e.iref.index()];
                assert_eq!(inst.seq, e.seq, "ready entry names a recycled slot");
                assert_eq!(usize::from(e.ti), usize::from(inst.ti));
                assert_eq!(inst.state(), InstState::Queued);
                assert_eq!(inst.pending_srcs, 0);
                assert_eq!(inst.op, e.op, "cached opcode drifted");
                assert_eq!(
                    e.opt_until,
                    opt_until_of(&sim.regs, &inst.srcs_phys),
                    "cached load-speculation window drifted"
                );
                for &s in &inst.srcs_phys {
                    assert!(
                        s == PREG_NONE
                            || sim.regs[slab::preg_class(s)].is_ready(slab::preg_index(s))
                    );
                }
            }
        }
    }

    #[test]
    fn reset_stats_preserves_architectural_state() {
        // Simulating W+M cycles straight through and simulating W cycles of
        // warmup (stats discarded) followed by M measured cycles must leave
        // the machine in the identical architectural state: same lifetime
        // commit counts, because reset_stats only re-bases the counters.
        const WARM: u64 = 1_000;
        const MEASURE: u64 = 2_000;
        let mut cold = tiny_config().build();
        let cold_report = cold.run(WARM + MEASURE);
        let mut warm = tiny_config().with_warmup(WARM).build();
        let warm_report = warm.run(MEASURE);

        assert_eq!(
            cold.lifetime_committed(),
            warm.lifetime_committed(),
            "reset_stats disturbed architectural state"
        );
        assert_eq!(cold_report.total_committed(), cold.lifetime_committed());
        assert_eq!(warm_report.warmup_cycles, WARM);
        assert_eq!(warm_report.cycles, MEASURE);
        assert_eq!(cold_report.warmup_cycles, 0);
        // The measured window reports only post-warmup commits.
        assert!(warm_report.total_committed() < warm.lifetime_committed());
        // (Post-reset slot-accounting balance is covered by the property
        // test in `tests/fetch_accounting.rs`.)
    }

    #[test]
    fn mid_run_reset_stats_rebase_reports() {
        let mut sim = tiny_config().build();
        let _ = sim.run(1_500);
        sim.reset_stats();
        let r = sim.report();
        assert_eq!(r.cycles, 0);
        assert_eq!(r.total_committed(), 0);
        assert_eq!(r.fetch, FetchBreakdown::default());
        assert_eq!(r.squashes, 0);
        let r = sim.run(500);
        assert_eq!(r.cycles, 500);
        assert_eq!(r.warmup_cycles, 1_500);
        assert!(r.total_committed() > 0);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let run = || tiny_config().build().run(2_000);
        let a = run();
        let b = run();
        assert_eq!(a.total_committed(), b.total_committed());
        assert_eq!(a.fetch, b.fetch);
        assert_eq!(a.squashes, b.squashes);
    }
}
