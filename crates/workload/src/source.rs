//! The pluggable instruction-source abstraction: [`WorkloadSource`].
//!
//! The pipeline's front end consumes one *correct-path* instruction stream
//! per hardware context and, once fetch has diverged down a mispredicted
//! path, synthesizes plausible *wrong-path* instructions and addresses
//! until the offending branch resolves. Both halves — stepping the correct
//! path and synthesizing the wrong one — plus its checkpoint codec are
//! what a workload backend owes the simulator, and this trait is exactly
//! that contract. `smt-core` holds a `Box<dyn WorkloadSource>` per thread
//! and never names a concrete backend.
//!
//! Three backends ship with the crate:
//!
//! * [`SyntheticSource`](crate::SyntheticSource) — the correct-path oracle
//!   of a generated [`Program`](crate::Program) and its wrong-path
//!   synthesis,
//! * [`RiscvSource`](crate::riscv::RiscvSource) — functional execution of a
//!   real rv32i/rv64i binary image,
//! * [`TraceSource`](crate::trace::TraceSource) — allocation-free replay of
//!   a recorded instruction stream.
//!
//! See the crate docs for the "writing a workload backend" how-to.

use std::io::{Read, Write};

use smt_isa::{Addr, Outcome, StaticInst};
use smt_stats::binio::{BinReader, BinWriter};
use smt_stats::Persist;

/// One hardware context's instruction source: the correct-path stream, the
/// wrong-path synthesis rules, and (through [`Persist`]) the checkpoint
/// codec.
///
/// # Contract
///
/// * [`step`](WorkloadSource::step) must yield `(instruction, outcome)`
///   pairs **forever** (finite programs restart), and the outcome's
///   `next_pc` must equal [`pc`](WorkloadSource::pc) before the next
///   `step` call — fetch debug-asserts that it never leaves the source's
///   path.
/// * Every method must be **deterministic**: a pure function of the
///   source's construction parameters and the calls made so far. Two
///   identically-built sources receiving identical call sequences must
///   return identical values — simulator determinism, golden tests and
///   checkpoint bit-equivalence all rest on this.
/// * The `wrong_*` methods are consulted only while fetch is off the
///   correct path; they must not disturb the correct-path state.
/// * The [`Persist`] codec carries the source's complete mutable state as
///   this thread's `smt-workload` section of a simulator checkpoint
///   (construction-derived state is rebuilt from the configuration, which
///   the checkpoint header fingerprints; declare it `skip`). Restore
///   targets a freshly built source and must validate every decoded length
///   and address, returning [`std::io::ErrorKind::InvalidData`] errors
///   rather than panicking.
pub trait WorkloadSource: Persist + Send {
    /// Thread label shown in reports (the `benchmark` field).
    fn name(&self) -> &str;

    /// The PC of the next correct-path instruction.
    fn pc(&self) -> Addr;

    /// Number of correct-path instructions executed so far.
    fn executed(&self) -> u64;

    /// Executes the next correct-path instruction and returns it together
    /// with its architectural outcome.
    fn step(&mut self) -> (StaticInst, Outcome);

    /// The instruction fetched from `pc` on the wrong path: the real image
    /// instruction when `pc` lands in code, otherwise harmless filler.
    fn wrong_inst_at(&self, pc: Addr) -> StaticInst;

    /// A synthesized effective address for a wrong-path memory instruction
    /// at `pc` (`salt` decorrelates repeated fetches of the same PC), so
    /// wrong-path loads pollute the cache plausibly.
    fn wrong_mem_addr(&self, pc: Addr, salt: u64) -> Addr;

    /// The statically-known taken target used when decode must compute a
    /// target on the wrong path (no architectural outcome exists to
    /// consult) for the control instruction `inst` fetched at `pc`.
    fn wrong_taken_target(&self, inst: StaticInst, pc: Addr) -> Addr;
}

/// A thread's source is saved and restored through its backend's codec.
impl Persist for Box<dyn WorkloadSource> {
    fn save(&self, w: &mut BinWriter<&mut dyn Write>) -> std::io::Result<()> {
        (**self).save(w)
    }
    fn restore(&mut self, r: &mut BinReader<&mut dyn Read>) -> std::io::Result<()> {
        (**self).restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Benchmark, SyntheticSource};
    use std::sync::Arc;

    fn source() -> Box<dyn WorkloadSource> {
        Box::new(SyntheticSource::new(
            Arc::new(Benchmark::Espresso.generate(42, 0)),
            7,
        ))
    }

    #[test]
    fn synthetic_state_round_trips_through_dyn_streams() {
        let mut s = source();
        for _ in 0..1_234 {
            s.step();
        }
        let mut bytes = Vec::new();
        {
            let mut w = BinWriter::new(&mut bytes as &mut dyn Write);
            s.save(&mut w).expect("vec write");
        }
        let mut restored = source();
        let mut slice: &[u8] = &bytes;
        let mut r = BinReader::new(&mut slice as &mut dyn Read);
        restored.restore(&mut r).expect("restore");
        assert_eq!(restored.pc(), s.pc());
        assert_eq!(restored.executed(), s.executed());
        for _ in 0..1_000 {
            assert_eq!(restored.step(), s.step());
        }
    }
}
