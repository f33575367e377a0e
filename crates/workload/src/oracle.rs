//! The synthetic backend: [`SyntheticSource`], the correct-path oracle of
//! a generated [`Program`] and its wrong-path synthesis.
//!
//! The source executes one thread's program architecturally: it walks the
//! correct path, resolving every branch direction, indirect target, return
//! address and effective address from the program's side tables. The
//! pipeline consumes this stream at fetch time through [`WorkloadSource`],
//! compares it against its own predictions, and uses the divergence to
//! drive wrong-path fetch and squash.
//!
//! Once fetch has left the correct path, the source supplies plausible
//! instructions and addresses instead: real image bytes when the wrong-path
//! PC still lands in code, harmless filler otherwise.

use std::sync::Arc;

use crate::mix64;
use crate::program::{BranchBehavior, MemPattern, Program};
use crate::WorkloadSource;
use smt_isa::{Addr, Opcode, Outcome, Reg, StaticInst, INST_BYTES};
use smt_stats::binio::invalid;
use smt_stats::persist;

/// Maximum modeled call depth; deeper calls recycle the oldest frame, which
/// matches what a bounded synthetic CFG can produce anyway.
const MAX_CALL_DEPTH: usize = 64;

/// The synthetic-CFG backend: the architectural executor of one generated
/// [`Program`] for one hardware context.
///
/// `step` yields `(instruction, outcome)` pairs forever — generated programs
/// restart from their entry when the last block is reached, so the oracle
/// never runs dry.
#[derive(Debug, Clone)]
pub struct SyntheticSource {
    program: Arc<Program>,
    seed: u64,
    pc: Addr,
    executed: u64,
    branch_execs: Box<[u32]>,
    /// Per-branch loop phase (`execs % trip`, maintained incrementally):
    /// loop back-edges resolve with a compare instead of a variable-divisor
    /// `%`, which costs tens of host cycles on every executed branch.
    /// Derived from `branch_execs` on restore, never stored.
    loop_phase: Box<[u32]>,
    mem_execs: Box<[u64]>,
    /// Per-memory-model stride state `(offset, step)` with
    /// `offset == (n · stride) % span` maintained incrementally (`step` is
    /// `stride % span`, precomputed): strided address generation needs no
    /// division either. Derived from `mem_execs` on restore, never stored.
    stride_state: Box<[(u64, u64)]>,
    ret_stack: Vec<Addr>,
}

// One thread's `smt-workload` section of a simulator checkpoint: PC,
// executed count, per-branch and per-memory-model counters and the modeled
// return stack. The program and seed are regenerated from the
// configuration (covered by the checkpoint header's fingerprint), so
// restore targets a source freshly built from them; the loop phases and
// stride offsets are functions of the counters, recounted on restore.
persist! {
    SyntheticSource {
        pc, executed, branch_execs, mem_execs, ret_stack,
    } skip { program, seed, loop_phase, stride_state } check SyntheticSource::recount
}

impl SyntheticSource {
    /// Creates the source at the program's entry point. `seed` drives all
    /// probabilistic behaviour (Bernoulli branches, random address
    /// patterns), so equal seeds replay identical dynamic streams.
    pub fn new(program: Arc<Program>, seed: u64) -> SyntheticSource {
        let branch_execs = vec![0; program.branch_count()].into();
        let loop_phase = vec![0; program.branch_count()].into();
        let mem_execs = vec![0; program.mem_count()].into();
        let stride_state = vec![(0, 0); program.mem_count()].into();
        let pc = program.entry();
        let mut source = SyntheticSource {
            program,
            seed,
            pc,
            executed: 0,
            branch_execs,
            loop_phase,
            mem_execs,
            stride_state,
            ret_stack: Vec::with_capacity(MAX_CALL_DEPTH),
        };
        source.derive_running_state();
        source
    }

    /// Sets each loop phase and stride state from its execution count,
    /// exactly as the hot path's running values reach it: construction
    /// starts them at count zero, and restore recounts them rather than
    /// store a second copy of the counters.
    fn derive_running_state(&mut self) {
        for meta in 0..self.loop_phase.len() {
            if let BranchBehavior::Loop { trip } = self.program.branch_model(meta as u32).behavior {
                self.loop_phase[meta] = self.branch_execs[meta] % trip.max(1);
            }
        }
        for meta in 0..self.stride_state.len() {
            if let MemPattern::Stride { region, stride } =
                self.program.mem_model(meta as u32).pattern
            {
                let span = (self.program.regions()[region as usize].size & !7).max(8);
                let step = u64::from(stride) % span;
                let n = u128::from(self.mem_execs[meta]);
                self.stride_state[meta] = ((n * u128::from(step) % u128::from(span)) as u64, step);
            }
        }
    }

    /// Derives the loop phases and stride states from the restored
    /// execution counts and rejects restored state this source's program
    /// cannot reach.
    fn recount(&mut self) -> std::io::Result<()> {
        self.derive_running_state();
        if self.program.inst_at(self.pc).is_none() {
            return Err(invalid(format!(
                "oracle PC {:#x} points outside the program image",
                self.pc
            )));
        }
        if self.ret_stack.len() > MAX_CALL_DEPTH {
            return Err(invalid(format!(
                "return stack depth {} exceeds the modeled maximum of {MAX_CALL_DEPTH}",
                self.ret_stack.len()
            )));
        }
        Ok(())
    }

    fn control_outcome(&mut self, pc: Addr, inst: &StaticInst) -> Outcome {
        if inst.op == Opcode::Return {
            let next_pc = self.ret_stack.pop().unwrap_or_else(|| self.program.entry());
            return Outcome {
                next_pc,
                taken: true,
                mem_addr: 0,
            };
        }
        let model = self.program.branch_model(inst.meta);
        let execs = &mut self.branch_execs[inst.meta as usize];
        let n = *execs;
        *execs = execs.wrapping_add(1);
        match inst.op {
            Opcode::CondBranch => {
                let taken = match model.behavior {
                    BranchBehavior::Loop { trip } => {
                        // `phase == n % trip`, maintained without dividing.
                        let phase = &mut self.loop_phase[inst.meta as usize];
                        debug_assert_eq!(*phase, n % trip);
                        let taken = *phase != trip - 1;
                        *phase += 1;
                        if *phase == trip {
                            *phase = 0;
                        }
                        taken
                    }
                    BranchBehavior::Bernoulli { taken_milli } => {
                        let h = mix64(self.seed ^ (u64::from(inst.meta) << 32) ^ u64::from(n));
                        h % 1000 < u64::from(taken_milli)
                    }
                };
                let next_pc = if taken {
                    model.taken_target
                } else {
                    pc + INST_BYTES
                };
                Outcome {
                    next_pc,
                    taken,
                    mem_addr: 0,
                }
            }
            Opcode::Jump => Outcome {
                next_pc: model.taken_target,
                taken: true,
                mem_addr: 0,
            },
            Opcode::Call => {
                if self.ret_stack.len() == MAX_CALL_DEPTH {
                    self.ret_stack.remove(0);
                }
                self.ret_stack.push(pc + INST_BYTES);
                Outcome {
                    next_pc: model.taken_target,
                    taken: true,
                    mem_addr: 0,
                }
            }
            Opcode::JumpInd => {
                let h = mix64(self.seed ^ (u64::from(inst.meta) << 24) ^ u64::from(n) ^ 0x1d);
                let next_pc = model.targets[(h % model.targets.len() as u64) as usize];
                Outcome {
                    next_pc,
                    taken: true,
                    mem_addr: 0,
                }
            }
            other => unreachable!("{other} is not a control opcode"),
        }
    }

    fn mem_addr(&mut self, inst: &StaticInst) -> Addr {
        let model = self.program.mem_model(inst.meta);
        let n = self.mem_execs[inst.meta as usize];
        self.mem_execs[inst.meta as usize] = n.wrapping_add(1);
        match model.pattern {
            MemPattern::Stride { region, stride: _ } => {
                let r = self.program.regions()[region as usize];
                let span = (r.size & !7).max(8);
                // `offset == (n · stride) % span` without the division:
                // `step < span`, so one conditional subtraction per
                // execution keeps the running offset exact.
                let (offset, step) = &mut self.stride_state[inst.meta as usize];
                let addr = (r.base + *offset) & !7;
                *offset += *step;
                if *offset >= span {
                    *offset -= span;
                }
                addr
            }
            MemPattern::Random { region } => {
                let r = self.program.regions()[region as usize];
                let slots = (r.size / 8).max(1);
                let h = mix64(self.seed ^ (u64::from(inst.meta) << 16) ^ n);
                r.base + (h % slots) * 8
            }
        }
    }
}

impl WorkloadSource for SyntheticSource {
    fn name(&self) -> &str {
        self.program.name()
    }

    fn pc(&self) -> Addr {
        self.pc
    }

    fn executed(&self) -> u64 {
        self.executed
    }

    fn step(&mut self) -> (StaticInst, Outcome) {
        let pc = self.pc;
        let inst = self
            .program
            .inst_at(pc)
            .expect("oracle PC always points into the code image");
        let outcome = if inst.op.is_control() {
            self.control_outcome(pc, &inst)
        } else if inst.op.is_mem() {
            Outcome {
                next_pc: pc + INST_BYTES,
                taken: false,
                mem_addr: self.mem_addr(&inst),
            }
        } else {
            Outcome::fallthrough(pc)
        };
        self.pc = outcome.next_pc;
        self.executed += 1;
        (inst, outcome)
    }

    /// The real image instruction when `pc` is in code, otherwise an
    /// integer ALU filler.
    fn wrong_inst_at(&self, pc: Addr) -> StaticInst {
        self.program.inst_at(pc).unwrap_or_else(|| {
            StaticInst::op3(Opcode::IntAlu, Reg::int(1), Reg::int(2), Reg::int(3))
        })
    }

    /// Pseudo-random within one of the program's regions.
    fn wrong_mem_addr(&self, pc: Addr, salt: u64) -> Addr {
        let regions = self.program.regions();
        let h = mix64(pc ^ salt.rotate_left(17));
        let r = regions[(h % regions.len() as u64) as usize];
        r.base + (mix64(h) % (r.size / 8).max(1)) * 8
    }

    /// Control instructions with a branch model have a statically-known
    /// taken target (indirect jumps use their first modeled target);
    /// returns and modelless instructions fall through.
    fn wrong_taken_target(&self, inst: StaticInst, pc: Addr) -> Addr {
        if inst.op.is_control() && inst.op != Opcode::Return && inst.meta != smt_isa::NO_META {
            let model = self.program.branch_model(inst.meta);
            if let Some(&t) = model.targets.first() {
                if inst.op == Opcode::JumpInd {
                    return t;
                }
            }
            model.taken_target
        } else {
            pc + INST_BYTES
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::Benchmark;

    fn oracle() -> SyntheticSource {
        SyntheticSource::new(Arc::new(Benchmark::Espresso.generate(42, 0)), 7)
    }

    #[test]
    fn oracle_runs_forever_and_stays_in_code() {
        let mut o = oracle();
        let program = o.program.clone();
        for _ in 0..20_000 {
            let (inst, out) = o.step();
            assert!(program.contains(out.next_pc), "next PC must stay in code");
            if inst.op.is_mem() {
                assert!(
                    program.regions().iter().any(|r| r.contains(out.mem_addr)),
                    "effective addresses must land in a data region"
                );
            }
        }
        assert_eq!(o.executed(), 20_000);
    }

    #[test]
    fn oracle_is_deterministic() {
        let mut a = oracle();
        let mut b = oracle();
        for _ in 0..5_000 {
            let (ia, oa) = a.step();
            let (ib, ob) = b.step();
            assert_eq!(ia, ib);
            assert_eq!(oa, ob);
        }
    }

    #[test]
    fn loop_branches_follow_trip_counts() {
        use crate::program::{BranchModel, Region};
        // Hand-built two-instruction loop: body; branch back (trip 3).
        let program = Program {
            name: "loop".into(),
            code_base: 0x1000,
            code: vec![
                StaticInst::op3(Opcode::IntAlu, Reg::int(1), Reg::int(2), Reg::int(3)),
                StaticInst {
                    op: Opcode::CondBranch,
                    dest: None,
                    srcs: [None, None],
                    meta: 0,
                },
                StaticInst::op0(Opcode::Jump).with_meta(1),
            ],
            branches: vec![
                BranchModel {
                    behavior: BranchBehavior::Loop { trip: 3 },
                    taken_target: 0x1000,
                    targets: vec![],
                },
                BranchModel {
                    behavior: BranchBehavior::Bernoulli { taken_milli: 1000 },
                    taken_target: 0x1000,
                    targets: vec![],
                },
            ],
            mems: vec![],
            regions: vec![Region {
                base: 0x10_0000,
                size: 4096,
            }],
            entry: 0x1000,
        };
        assert_eq!(program.validate(), Ok(()));
        let mut o = SyntheticSource::new(Arc::new(program), 0);
        let mut directions = Vec::new();
        for _ in 0..20 {
            let (inst, out) = o.step();
            if inst.op == Opcode::CondBranch {
                directions.push(out.taken);
            }
        }
        // Trip 3: taken, taken, not-taken, repeating.
        assert_eq!(&directions[..6], &[true, true, false, true, true, false]);
    }

    #[test]
    fn restore_derives_loop_phases_and_stride_offsets() {
        // Damage every loop phase and stride offset before the save: each
        // is a function of its execution count, so a restored source must
        // recount it rather than trust the stream, and then step exactly as
        // an undamaged twin does.
        use smt_stats::binio::{BinReader, BinWriter};
        use smt_stats::Persist;
        let mut o = oracle();
        for _ in 0..10_000 {
            o.step();
        }
        let mut twin = o.clone();
        o.loop_phase.iter_mut().for_each(|p| *p += 1);
        o.stride_state.iter_mut().for_each(|s| s.0 += 8);
        let mut bytes = Vec::new();
        o.save(&mut BinWriter::new(&mut bytes as &mut dyn std::io::Write))
            .expect("vec write");
        let mut restored = SyntheticSource::new(o.program.clone(), 7);
        restored
            .restore(&mut BinReader::new(
                &mut &bytes[..] as &mut dyn std::io::Read,
            ))
            .expect("restore");
        let mut diverged = 0;
        for _ in 0..200_000 {
            diverged += usize::from(restored.step() != twin.step());
        }
        assert_eq!(diverged, 0, "the restored oracle left its twin's stream");
    }

    #[test]
    fn call_return_pairs_balance() {
        let mut o = oracle();
        let mut depth = 0i64;
        for _ in 0..50_000 {
            let (inst, out) = o.step();
            match inst.op {
                Opcode::Call => depth += 1,
                Opcode::Return => {
                    depth -= 1;
                    assert!(o.program.contains(out.next_pc));
                }
                _ => {}
            }
        }
        assert!(depth >= 0, "returns must never outnumber calls");
        assert!(depth < MAX_CALL_DEPTH as i64);
    }

    #[test]
    fn wrong_path_synthesis_is_safe() {
        let o = oracle();
        let program = &o.program;
        // Off-image PC yields filler.
        let filler = o.wrong_inst_at(0xdead_0000);
        assert_eq!(filler.op, Opcode::IntAlu);
        // In-image PC yields the real instruction.
        let real = o.wrong_inst_at(program.entry());
        assert_eq!(Some(real), program.inst_at(program.entry()));
        // Synthesized addresses land in a region.
        for salt in 0..64 {
            let a = o.wrong_mem_addr(program.entry(), salt);
            assert!(program.regions().iter().any(|r| r.contains(a)));
        }
    }
}
