//! `smt` — a policy-driven simulator for the ISCA 1996 paper *"Exploiting
//! Choice: Instruction Fetch and Issue on an Implementable Simultaneous
//! Multithreading Processor"* (Tullsen, Eggers, Emer, Levy, Lo, Stamm).
//!
//! This crate is a facade: it re-exports the public API of [`smt_core`]
//! (the pipeline, the policy traits and the configuration builder) together
//! with the workload vocabulary from [`smt_workload`], so downstream users
//! depend on one crate. The underlying crates remain usable individually:
//!
//! | crate | role |
//! |-------|------|
//! | `smt-isa` | opcodes, registers, Table-1 latencies |
//! | `smt-mem` | banked, lockup-free cache hierarchy (Table 2) |
//! | `smt-branch` | thread-tagged BTB, gshare PHT, per-context RAS |
//! | `smt-workload` | synthetic SPEC92-style programs + correct-path oracle |
//! | `smt-stats` | counters, series, text tables |
//! | `smt-core` | the cycle-level pipeline and the policy traits |
//!
//! # Running the headline experiment
//!
//! The paper's central result is that feedback-driven fetch (ICOUNT)
//! outperforms round-robin at the same fetch partition:
//!
//! ```
//! use smt::{standard_mix, FetchPartition, RoundRobin, SimConfig};
//!
//! let icount = SimConfig::new()
//!     .with_benchmarks(standard_mix(), 42)
//!     .build()
//!     .run(2_000);
//! let rr = SimConfig::new()
//!     .with_benchmarks(standard_mix(), 42)
//!     .with_fetch(Box::new(RoundRobin))
//!     .with_partition(FetchPartition::new(2, 8))
//!     .build()
//!     .run(2_000);
//! // Both machines make progress; over longer windows ICOUNT.2.8 wins
//! // (see tests/headline.rs for the full-length assertion).
//! assert!(icount.total_committed() > 0 && rr.total_committed() > 0);
//! ```
//!
//! # Measuring properly
//!
//! Cold-start cache effects depress short measurements. For absolute
//! numbers, open the measurement window after a warmup:
//!
//! ```
//! use smt::{standard_mix, SimConfig};
//!
//! let report = SimConfig::new()
//!     .with_benchmarks(standard_mix(), 42)
//!     .with_warmup(1_000) // simulated, then excluded from the stats
//!     .build()
//!     .run(1_000);
//! assert_eq!(report.warmup_cycles, 1_000);
//! assert_eq!(report.cycles, 1_000);
//! ```
//!
//! The `smt-experiments` crate (binary `smt_exp`) is the standard sweep
//! harness: the Section-4 fetch matrix, the Section-5 issue-policy study,
//! and versioned machine-readable JSON output.
//!
//! # Extending the simulator
//!
//! New fetch or issue heuristics implement [`FetchPolicy`] or
//! [`IssuePolicy`] and plug in through [`SimConfig`]; see the trait
//! documentation and `ROADMAP.md` ("Adding a new fetch policy").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use smt_core::{
    fetch_policy_by_name, issue_policy_by_name, Ablation, Ablations, BrCount, BranchFirst,
    CheckpointError, ConcatError, FetchBreakdown, FetchPartition, FetchPolicy, FleetCell, ICount,
    IssueBreakdown, IssueCandidate, IssuePolicy, MissCount, OldestFirst, OptLast, RoundRobin,
    SimConfig, SimFleet, SimReport, Simulator, SpecLast, ThreadFetchView, ThreadReport,
    WorkloadSpec, MAX_THREADS,
};
pub use smt_workload::{
    standard_mix, Benchmark, Program, RiscvImage, RiscvSource, TraceImage, TraceSource,
    WorkloadSource, Xlen,
};

/// The underlying crates, re-exported for direct access to cache, predictor
/// and statistics configuration types.
pub mod crates {
    pub use smt_branch;
    pub use smt_isa;
    pub use smt_mem;
    pub use smt_stats;
    pub use smt_workload;
}
