//! The generated program image: code, side tables, and data regions.

use smt_isa::{Addr, StaticInst, INST_BYTES};

/// A contiguous data region of the program's address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Base address (8-byte aligned).
    pub base: Addr,
    /// Size in bytes.
    pub size: u64,
}

impl Region {
    /// Whether `addr` falls inside the region.
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && addr < self.base + self.size
    }
}

/// Address-generation behaviour of one static memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemPattern {
    /// Sequential walk through the region with the given byte stride
    /// (array streaming); wraps at the region end.
    Stride {
        /// Region index into [`Program::regions`].
        region: u16,
        /// Stride in bytes between successive executions.
        stride: u32,
    },
    /// Uniformly random 8-byte-aligned addresses within the region
    /// (pointer chasing / hash tables).
    Random {
        /// Region index into [`Program::regions`].
        region: u16,
    },
}

/// Side-table entry for a memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemModel {
    /// How successive executions generate addresses.
    pub pattern: MemPattern,
}

/// Direction behaviour of one static conditional branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchBehavior {
    /// A loop back-edge: taken `trip - 1` times, then not-taken, repeating.
    Loop {
        /// Loop trip count (>= 1).
        trip: u32,
    },
    /// Taken with probability `taken_milli / 1000` on each execution,
    /// decided by a per-execution hash (uncorrelated).
    Bernoulli {
        /// Taken probability in thousandths.
        taken_milli: u16,
    },
}

/// Side-table entry for a control instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchModel {
    /// Direction model (meaningful for conditional branches only).
    pub behavior: BranchBehavior,
    /// Taken target (conditional branches, jumps, calls).
    pub taken_target: Addr,
    /// Candidate targets for indirect jumps (empty otherwise).
    pub targets: Vec<Addr>,
}

/// A complete generated program: code image plus behaviour side tables.
///
/// The image is immutable after generation; per-thread dynamic state
/// (branch execution counts, call stacks) lives in
/// [`SyntheticSource`](crate::SyntheticSource).
#[derive(Debug, Clone)]
pub struct Program {
    pub(crate) name: String,
    pub(crate) code_base: Addr,
    pub(crate) code: Vec<StaticInst>,
    pub(crate) branches: Vec<BranchModel>,
    pub(crate) mems: Vec<MemModel>,
    pub(crate) regions: Vec<Region>,
    pub(crate) entry: Addr,
}

impl Program {
    /// The benchmark name this program was generated from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// First instruction executed.
    pub fn entry(&self) -> Addr {
        self.entry
    }

    /// Base address of the code image.
    pub fn code_base(&self) -> Addr {
        self.code_base
    }

    /// Code footprint in bytes.
    pub fn code_bytes(&self) -> u64 {
        self.code.len() as u64 * INST_BYTES
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program has no instructions (never true for generated
    /// programs).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Whether `pc` points into the code image.
    pub fn contains(&self, pc: Addr) -> bool {
        pc >= self.code_base
            && pc < self.code_base + self.code_bytes()
            && (pc - self.code_base).is_multiple_of(INST_BYTES)
    }

    /// The instruction at `pc`, if `pc` is a valid code address.
    #[inline]
    pub fn inst_at(&self, pc: Addr) -> Option<StaticInst> {
        if !self.contains(pc) {
            return None;
        }
        Some(self.code[((pc - self.code_base) / INST_BYTES) as usize])
    }

    /// Branch side-table entry `meta`.
    ///
    /// # Panics
    ///
    /// Panics if `meta` is out of range.
    pub fn branch_model(&self, meta: u32) -> &BranchModel {
        &self.branches[meta as usize]
    }

    /// Memory side-table entry `meta`.
    ///
    /// # Panics
    ///
    /// Panics if `meta` is out of range.
    pub fn mem_model(&self, meta: u32) -> &MemModel {
        &self.mems[meta as usize]
    }

    /// The program's data regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Number of branch side-table entries.
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }

    /// Number of memory side-table entries.
    pub fn mem_count(&self) -> usize {
        self.mems.len()
    }

    /// Validates internal consistency; called by the generator and useful
    /// in property tests.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.code.is_empty() {
            return Err("empty code image".into());
        }
        if !self.contains(self.entry) {
            return Err("entry point outside code image".into());
        }
        for (i, inst) in self.code.iter().enumerate() {
            let pc = self.code_base + i as u64 * INST_BYTES;
            if inst.op.is_control() && !matches!(inst.op, smt_isa::Opcode::Return) {
                if inst.meta == smt_isa::NO_META {
                    return Err(format!(
                        "control instruction at {pc:#x} lacks a branch model"
                    ));
                }
                let model = self
                    .branches
                    .get(inst.meta as usize)
                    .ok_or_else(|| format!("branch meta out of range at {pc:#x}"))?;
                if matches!(model.behavior, BranchBehavior::Loop { trip: 0 }) {
                    return Err(format!("loop branch at {pc:#x} has a zero trip count"));
                }
                if matches!(inst.op, smt_isa::Opcode::JumpInd) {
                    if model.targets.is_empty() {
                        return Err(format!("indirect jump at {pc:#x} has no targets"));
                    }
                    for &t in &model.targets {
                        if !self.contains(t) {
                            return Err(format!("indirect target {t:#x} outside code"));
                        }
                    }
                } else if !self.contains(model.taken_target) {
                    return Err(format!(
                        "branch at {pc:#x} targets {:#x} outside code",
                        model.taken_target
                    ));
                }
            }
            if inst.op.is_mem() {
                if inst.meta == smt_isa::NO_META {
                    return Err(format!("memory instruction at {pc:#x} lacks a mem model"));
                }
                let model = self
                    .mems
                    .get(inst.meta as usize)
                    .ok_or_else(|| format!("mem meta out of range at {pc:#x}"))?;
                let region = match model.pattern {
                    MemPattern::Stride { region, .. } | MemPattern::Random { region } => region,
                };
                if region as usize >= self.regions.len() {
                    return Err(format!("mem region index out of range at {pc:#x}"));
                }
            }
        }
        for r in &self.regions {
            if r.size == 0 {
                return Err("zero-sized region".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_isa::{Opcode, Reg};

    impl Program {
        /// Histogram of instruction classes: `(opcode, count)` pairs sorted
        /// by descending count, to validate generated mixes.
        pub(crate) fn class_histogram(&self) -> Vec<(Opcode, usize)> {
            use std::collections::HashMap;
            let mut counts: HashMap<Opcode, usize> = HashMap::new();
            for inst in &self.code {
                *counts.entry(inst.op).or_default() += 1;
            }
            let mut v: Vec<_> = counts.into_iter().collect();
            v.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
            v
        }
    }

    fn tiny_program() -> Program {
        // entry: alu; cmp; br -4 (loop); ret-ish jump back
        let code = vec![
            StaticInst::op3(Opcode::IntAlu, Reg::int(1), Reg::int(2), Reg::int(3)),
            StaticInst::op2(Opcode::Compare, Reg::int(4), Reg::int(1)),
            StaticInst::op0(Opcode::CondBranch).with_meta(0),
            StaticInst::op0(Opcode::Jump).with_meta(1),
        ];
        Program {
            name: "tiny".into(),
            code_base: 0x1000,
            code,
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
        }
    }

    #[test]
    fn inst_lookup_roundtrips() {
        let p = tiny_program();
        assert!(p.contains(0x1000));
        assert!(p.contains(0x100c));
        assert!(!p.contains(0x1010));
        assert!(!p.contains(0x0ffc));
        assert!(!p.contains(0x1002), "misaligned PCs are not code");
        assert_eq!(p.inst_at(0x1008).unwrap().op, Opcode::CondBranch);
        assert_eq!(p.inst_at(0x2000), None);
        assert_eq!(p.len(), 4);
        assert_eq!(p.code_bytes(), 16);
    }

    #[test]
    fn validate_accepts_consistent_program() {
        assert_eq!(tiny_program().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_target() {
        let mut p = tiny_program();
        p.branches[0].taken_target = 0x9999_0000;
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_missing_meta() {
        let mut p = tiny_program();
        p.code[2] = StaticInst::op0(Opcode::CondBranch); // meta stripped
        assert!(p.validate().is_err());
    }

    #[test]
    fn region_contains() {
        let r = Region {
            base: 0x100,
            size: 0x10,
        };
        assert!(r.contains(0x100));
        assert!(r.contains(0x10f));
        assert!(!r.contains(0x110));
        assert!(!r.contains(0xff));
    }

    #[test]
    fn class_histogram_counts() {
        let p = tiny_program();
        let h = p.class_histogram();
        let total: usize = h.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 4);
        assert!(h.iter().any(|&(op, c)| op == Opcode::CondBranch && c == 1));
    }
}
