//! The policy-driven SMT simulator core — the public API of the system.
//!
//! This crate reproduces the machine of Tullsen, Eggers, Emer, Levy, Lo and
//! Stamm, *"Exploiting Choice: Instruction Fetch and Issue on an
//! Implementable Simultaneous Multithreading Processor"* (ISCA 1996). The
//! paper's contribution is *choice*: each cycle the processor chooses which
//! threads to fetch from and which instructions to issue. Both choices are
//! first-class objects here:
//!
//! * [`FetchPolicy`] ranks hardware contexts for fetch each cycle. Shipped:
//!   [`RoundRobin`], [`ICount`], [`BrCount`], [`MissCount`].
//! * [`IssuePolicy`] orders ready instructions for issue. Shipped:
//!   [`OldestFirst`], [`OptLast`], [`SpecLast`], [`BranchFirst`].
//! * [`FetchPartition`] is the `T.I` partitioning scheme (1.8, 2.4, 2.8,
//!   4.2) dividing the 8-instruction fetch bandwidth among threads.
//!
//! [`SimConfig`] bundles policies with the machine description (Table-2
//! caches via `smt-mem`, the Section-2 predictor via `smt-branch`,
//! per-class register files and queues) and a workload (one
//! [`WorkloadSpec`] per hardware context), and builds a [`Simulator`]
//! whose [`run`](Simulator::run) returns a [`SimReport`] built on
//! `smt-stats`.
//!
//! Adding a policy requires implementing one trait — no simulator internals:
//!
//! ```
//! use smt_core::{FetchPolicy, SimConfig, ThreadFetchView};
//! use smt_workload::Benchmark;
//!
//! /// Fetch from whichever thread has the fewest outstanding D-misses,
//! /// breaking ties toward fewer in-flight instructions.
//! struct MissThenICount;
//!
//! impl FetchPolicy for MissThenICount {
//!     fn name(&self) -> &str {
//!         "MISS_THEN_ICOUNT"
//!     }
//!     fn priority(&self, _cycle: u64, view: &ThreadFetchView) -> i64 {
//!         i64::from(view.outstanding_misses) * 1000 + i64::from(view.in_flight)
//!     }
//! }
//!
//! let report = SimConfig::new()
//!     .with_benchmarks(vec![Benchmark::Espresso, Benchmark::Alvinn], 42)
//!     .with_fetch(Box::new(MissThenICount))
//!     .build()
//!     .run(1_000);
//! assert_eq!(report.fetch_policy, "MISS_THEN_ICOUNT");
//! assert!(report.total_committed() > 0);
//! ```
//!
//! # The event-driven scheduler
//!
//! The simulator's hot loop is event-driven, not scan-based: no phase of
//! [`Simulator::step_cycle`] walks the reorder buffers. Three structures
//! carry scheduling state forward between cycles:
//!
//! * **Register wakeup lists** — every physical register carries the list
//!   of dispatched instructions waiting on it; the writeback that produces
//!   the value drains the list and decrements each consumer's
//!   outstanding-operand count.
//! * **The ready set** — an instruction enters exactly once (at dispatch
//!   when its operands are all available, or when its last operand's
//!   writeback wakes it) and leaves when issued, so an [`IssuePolicy`]
//!   ranks only genuinely-ready instructions. The set is kept in age
//!   order, which makes the default OLDEST_FIRST ranking a no-op sort.
//! * **Writeback events** — issue schedules each instruction's completion
//!   into a calendar ring; the writeback phase drains one bucket per
//!   cycle. Cache-miss completions arrive from `smt-mem` the same way, as
//!   events scheduled when the miss began.
//!
//! The per-thread ICOUNT/BRCOUNT/MISSCOUNT counters the fetch policies
//! read are maintained incrementally at the same state transitions.
//! Policies are consulted in one batched call per cycle
//! ([`FetchPolicy::priority_batch`], [`IssuePolicy::priority_batch`]), so
//! boxed policies cost one dynamic dispatch per cycle, not per candidate.
//! The pipeline stages live in dedicated modules under `pipeline/`
//! (`fetch`, `rename`, `issue`, `commit`, `scheduler`), with the wakeup
//! machinery in `scheduler` and the cycle driver in `pipeline` itself.
//! A golden-equivalence suite (`tests/golden.rs` at the workspace root)
//! pins the scheduler's output byte-for-byte to the scan-based
//! implementation it replaced.
//!
//! # Profiling the hot loop
//!
//! 1. **Per-phase wall clock** — the `phase-timing` feature accumulates
//!    the cycle driver's seven phases (memory begin-cycle, miss
//!    completions, writeback, commit, issue, rename, fetch) into the
//!    counters `pipeline_phase_ns()` reads. `benchmark/run.sh --traced`
//!    builds with it and reports each phase's share of a measured window
//!    as `core.phase.*_share`. The probes cost ~15% of throughput (two
//!    `clock_gettime`s per phase), so the feature is compiled out of
//!    normal builds; treat the shares as accurate and the absolute total
//!    as inflated.
//!
//! 2. **Sampling profilers** — the release profile ships
//!    `debug = "line-tables-only"`, so `perf` / flamegraphs attribute the
//!    fully-inlined hot loop back to source lines with no rebuild:
//!
//!    ```text
//!    perf record --call-graph dwarf -F 999 -- target/release/smt_exp \
//!        --fetch icount --partition 2.8 --cycles 400000
//!    perf report --no-children
//!    ```
//!
//! What the steady-state profile should look like (warmed
//! `hotloop_standard`, one traced run on a shared 2-CPU host): the seven
//! phases split roughly fetch ≈ rename (~22–23% each) > issue (~20%) >
//! writeback (~17%) > commit (~11%) > memory events (~6%), with **zero
//! heap allocations per cycle** (pinned by this crate's
//! `tests/alloc_guard.rs` — a counting global allocator over a warmed
//! 5k-cycle window). Fetch and rename lead because they do the
//! per-instruction work: fetch steps the instruction source and the
//! predictor and allocates one slab slot per instruction, and rename
//! probes one scoreboard record per source operand
//! (`PhysRegFile::check_or_wait`). Leaf components are cheap (oracle
//! step and a predictor lookup are each a few nanoseconds); the cycle cost
//! is dominated by cache traffic over the pipeline's own state, which is
//! why the data layout (packed 48-byte hot records, 4-byte slab handles,
//! inline wakeup lists) is the performance-critical part. A profile
//! showing a *function* hotspot — a hash probe, an allocator frame, a
//! `memmove` — is a regression signal, not background noise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablation;
pub mod checkpoint;
mod config;
pub mod fleet;
mod pipeline;
mod policy;
mod regfile;
mod report;

pub use ablation::{Ablation, Ablations};
pub use checkpoint::CheckpointError;
pub use config::{SimConfig, WorkloadSpec, MAX_THREADS};
pub use fleet::{FleetCell, SimFleet};
pub use pipeline::Simulator;
pub use policy::{
    fetch_policy_by_name, issue_policy_by_name, rotating_rank, BrCount, BranchFirst,
    FetchPartition, FetchPolicy, ICount, IssueCandidate, IssuePolicy, MissCount, OldestFirst,
    OptLast, RoundRobin, SpecLast, ThreadFetchView,
};
pub use report::{ConcatError, FetchBreakdown, IssueBreakdown, SimReport, ThreadReport};

/// Per-phase wall-clock nanoseconds accumulated by the cycle driver since
/// process start, in phase order: memory begin-cycle, miss completions,
/// writeback, commit, issue, rename, fetch. Only available with the
/// `phase-timing` feature (see "Profiling the hot loop" in the crate
/// docs); the probes cost ~15% of throughput, so they are compiled out by
/// default.
#[cfg(feature = "phase-timing")]
pub fn pipeline_phase_ns() -> [u64; 7] {
    let mut out = [0; 7];
    for (o, a) in out.iter_mut().zip(pipeline::PHASE_NS.iter()) {
        *o = a.load(std::sync::atomic::Ordering::Relaxed);
    }
    out
}
