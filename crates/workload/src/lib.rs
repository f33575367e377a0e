//! Synthetic multiprogrammed workload for the SMT simulator.
//!
//! The paper runs unmodified Alpha binaries of seven SPEC92 benchmarks plus
//! TeX under an emulation-based simulator. This crate substitutes a
//! *synthetic program generator*: each benchmark becomes a parameter set
//! (instruction mix, basic-block geometry, branch-bias distribution,
//! dependency-distance model, code footprint, data-region behaviour) from
//! which a deterministic program image is generated — a real control-flow
//! graph laid out in a virtual address space, with per-branch behaviour
//! models and per-memory-instruction address generators.
//!
//! Because the image is real code at real addresses, everything the paper's
//! evaluation depends on is exercised faithfully: fetch-block fragmentation
//! (branches and line boundaries end fetch blocks), BTB/PHT/RAS pressure,
//! I-cache and D-cache locality and inter-thread conflict behaviour, and
//! wrong-path fetch down mispredicted directions.
//!
//! A [`SyntheticSource`] executes one such program's correct path
//! architecturally (next PC, branch outcomes, effective addresses) so the
//! pipeline can mark divergence points, and synthesizes the wrong-path
//! instructions and addresses fetched past them.
//!
//! # Workload backends
//!
//! The pipeline consumes instruction streams through the
//! [`WorkloadSource`] trait, so synthetic programs are one backend among
//! several rather than a baked-in assumption. Three backends ship:
//!
//! * [`SyntheticSource`] — the correct-path oracle of a generated
//!   [`Program`] (the default, and the only path the paper's committed
//!   study goldens use).
//! * [`RiscvSource`] ([`riscv`] module) — functionally executes a real
//!   rv64i/rv32i binary loaded from an ELF (or flat) image
//!   ([`RiscvImage`]); each `step` decodes and retires one instruction
//!   architecturally.
//! * [`TraceSource`] ([`trace`] module) — replays a recorded `SMT1TRCE`
//!   trace ([`TraceImage`]) as a pure cursor walk, no decode and no
//!   allocation on the steady-state path; the format is specified in the
//!   [`trace`] module docs.
//!
//! ## Writing a new backend
//!
//! Implement [`WorkloadSource`] on the backend's state type itself, as
//! each shipped backend does: one type holds the image handle and the
//! cursor, with no adapter forwarding to an inner executor. The contract,
//! in pipeline terms:
//!
//! 1. `step` retires the next correct-path instruction and returns its
//!    static form plus the architectural outcome (next PC, branch
//!    direction, effective address). It must be deterministic and
//!    endless — on program exit, emit a control-flow op that redirects to
//!    the entry point and keep going (see how [`RiscvSource`] models
//!    `ecall` as exit-and-restart).
//! 2. `pc`/`executed` expose the cursor the fetch engine and reports
//!    read.
//! 3. The `wrong_*` hooks synthesize *wrong-path* behaviour — what the
//!    machine fetches past a mispredicted branch before resolution. They
//!    must be pure functions of `(pc, salt)` so runs reproduce exactly.
//! 4. The `Persist` supertrait serializes the cursor for warmed-state
//!    checkpoints: one `smt_stats::persist!` list of the mutable fields,
//!    with the image `skip`ped (it travels as a config fingerprint, not
//!    checkpoint payload). State that is a function of the stored fields
//!    is `skip`ped too and rebuilt by the list's `check` hook, as
//!    [`SyntheticSource`] rebuilds its loop phases and stride offsets
//!    from its execution counts.
//!
//! Then give the config layer a handle: `smt-core`'s `WorkloadSpec` enum
//! names each backend's image type, `SimConfig::with_workloads` installs
//! a per-thread list, and the checkpoint fingerprint must tag the new
//! kind so stale checkpoints are rejected (see `smt-core`'s checkpoint
//! module). The `riscv:`/`trace:` custom-mix entries in `smt-experiments`
//! show the last mile: a path-based spec string resolved at sweep start.
//!
//! # Examples
//!
//! ```
//! use smt_workload::{Benchmark, SyntheticSource, WorkloadSource};
//! use std::sync::Arc;
//!
//! let program = Arc::new(Benchmark::Espresso.generate(42, 0));
//! let mut source = SyntheticSource::new(program, 7);
//! for _ in 0..1000 {
//!     let (inst, outcome) = source.step();
//!     assert_eq!(outcome.next_pc, source.pc());
//!     let _ = inst.op;
//! }
//! assert_eq!(source.name(), "espresso");
//! assert_eq!(source.executed(), 1000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen;
mod oracle;
mod profiles;
mod program;
pub mod riscv;
mod source;
pub mod trace;

pub use gen::{PatternSpec, ProfileParams, RegionSpec};
pub use oracle::SyntheticSource;
pub use profiles::{standard_mix, Benchmark};
pub use program::{BranchBehavior, BranchModel, MemModel, MemPattern, Program, Region};
pub use riscv::{RiscvImage, RiscvSource, Xlen};
pub use source::WorkloadSource;
pub use trace::{TraceImage, TraceSource};

/// A fast, high-quality 64-bit mixing function (SplitMix64 finalizer).
///
/// All "random" dynamic behaviour in the workload — branch outcomes,
/// random-pattern addresses, wrong-path synthesis — is a pure function of
/// mixed counters, so simulations are exactly reproducible.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(1), mix64(1));
        assert_ne!(mix64(1), mix64(2));
        // Low bits of sequential inputs should decorrelate.
        let a = mix64(100) & 0xffff;
        let b = mix64(101) & 0xffff;
        assert_ne!(a, b);
    }
}
