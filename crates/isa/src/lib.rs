//! Instruction-set model for the SMT simulator.
//!
//! This crate defines the architectural vocabulary shared by the workload
//! generator and the pipeline model: instruction classes, register
//! identifiers, and the instruction latencies of Table 1 of Tullsen et al.,
//! ISCA 1996 ("Exploiting Choice"), which are themselves derived from the
//! Alpha 21164.
//!
//! The ISA is a generic 32-register RISC: 32 integer and 32 floating-point
//! logical registers per hardware context, 4-byte fixed-width instructions.
//! Instruction *semantics* are intentionally not modeled (this is a
//! performance simulator); what matters is each instruction's register
//! dependences, its latency class, the functional unit it occupies, and —
//! for control and memory instructions — the side information supplied by
//! the workload oracle.
//!
//! # Examples
//!
//! ```
//! use smt_isa::{Opcode, RegClass, Reg, StaticInst};
//!
//! let add = StaticInst::op3(Opcode::IntAlu, Reg::int(3), Reg::int(1), Reg::int(2));
//! assert_eq!(add.op.latency(), 1);
//! assert!(add.op.fu_kind().is_integer());
//!
//! let div = StaticInst::op2(Opcode::FpDivDouble, Reg::fp(0), Reg::fp(1));
//! assert_eq!(div.op.latency(), 30);
//! assert_eq!(div.dest.unwrap().class(), RegClass::Fp);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod riscv;

use std::fmt;

/// A virtual (and, in this simulator, also physical) memory address.
///
/// Addresses are plain `u64`s rather than a newtype because the memory
/// hierarchy and workload generator perform pervasive arithmetic on them;
/// the type alias documents intent without ceremony.
pub type Addr = u64;

/// Size of one instruction in bytes (fixed-width RISC encoding).
pub const INST_BYTES: u64 = 4;

/// Number of architectural (logical) registers per class per context.
pub const LOGICAL_REGS: usize = 32;

/// Register class: integer or floating point.
///
/// The two classes rename into disjoint physical register files and issue
/// out of separate instruction queues, exactly as in the paper's machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegClass {
    /// Integer register file / integer instruction queue.
    Int,
    /// Floating-point register file / FP instruction queue.
    Fp,
}

impl RegClass {
    /// Both register classes, in a fixed order convenient for per-class arrays.
    pub const ALL: [RegClass; 2] = [RegClass::Int, RegClass::Fp];

    /// Index of this class into per-class arrays (`Int == 0`, `Fp == 1`).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            RegClass::Int => 0,
            RegClass::Fp => 1,
        }
    }
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegClass::Int => write!(f, "int"),
            RegClass::Fp => write!(f, "fp"),
        }
    }
}

/// A logical (architectural) register: a class plus an index in `0..32`.
///
/// Register `r31`/`f31` is *not* special-cased as a zero register; the
/// workload generator simply never uses it as a destination for
/// dependence-carrying values it cares about.
///
/// Internally a biased `NonZeroU8` (class in bit 7, index below, plus
/// one), so `Option<Reg>` occupies a single byte and [`StaticInst`] packs
/// into 8 — a third off every program image the fetch stage streams
/// through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(std::num::NonZeroU8);

impl Reg {
    /// Creates an integer register.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 32`.
    #[inline]
    pub fn int(idx: u8) -> Reg {
        assert!(
            (idx as usize) < LOGICAL_REGS,
            "integer register index out of range"
        );
        Reg(std::num::NonZeroU8::new(idx + 1).expect("idx + 1 > 0"))
    }

    /// Creates a floating-point register.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 32`.
    #[inline]
    pub fn fp(idx: u8) -> Reg {
        assert!(
            (idx as usize) < LOGICAL_REGS,
            "fp register index out of range"
        );
        Reg(std::num::NonZeroU8::new((idx | 0x80) + 1).expect("nonzero by construction"))
    }

    /// The register's class.
    #[inline]
    pub fn class(self) -> RegClass {
        if (self.0.get() - 1) & 0x80 == 0 {
            RegClass::Int
        } else {
            RegClass::Fp
        }
    }

    /// The register's index within its class (`0..32`).
    #[inline]
    pub fn index(self) -> usize {
        ((self.0.get() - 1) & 0x7f) as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class() {
            RegClass::Int => write!(f, "r{}", self.index()),
            RegClass::Fp => write!(f, "f{}", self.index()),
        }
    }
}

/// The functional-unit class an instruction occupies at issue.
///
/// The paper's machine has 6 integer units, 4 of which can also execute
/// loads and stores, and 3 floating-point units (peak issue bandwidth 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuKind {
    /// Any of the 6 integer units.
    IntAlu,
    /// One of the 4 integer units with load/store capability.
    LdSt,
    /// One of the 3 floating-point units.
    Fp,
}

impl FuKind {
    /// Whether this unit class is one of the integer units (including the
    /// load/store-capable ones).
    #[inline]
    pub fn is_integer(self) -> bool {
        matches!(self, FuKind::IntAlu | FuKind::LdSt)
    }
}

/// Instruction class, with latencies from Table 1 of the paper.
///
/// | Class                  | Latency |
/// |------------------------|---------|
/// | integer multiply       | 8, 16   |
/// | conditional move       | 2       |
/// | compare                | 0       |
/// | all other integer      | 1       |
/// | FP divide              | 17, 30  |
/// | all other FP           | 4       |
/// | load (cache hit)       | 1       |
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Simple integer ALU operation (add, sub, logical, shift): latency 1.
    #[default]
    IntAlu,
    /// 32-bit integer multiply: latency 8.
    IntMul,
    /// 64-bit integer multiply: latency 16.
    IntMulLong,
    /// Conditional move: latency 2.
    CondMove,
    /// Compare, producing a condition value: latency 0 (same-cycle bypass).
    Compare,
    /// Floating-point add/sub/mul/convert: latency 4.
    FpOp,
    /// Single-precision FP divide: latency 17.
    FpDivSingle,
    /// Double-precision FP divide: latency 30.
    FpDivDouble,
    /// Load; latency 1 on a D-cache hit, otherwise determined by the
    /// memory hierarchy.
    Load,
    /// Floating-point load (writes an FP register; executes on a load/store
    /// unit and waits in the integer queue, as all memory operations do).
    FpLoad,
    /// Store; occupies a load/store unit, no destination register.
    Store,
    /// Floating-point store.
    FpStore,
    /// Conditional branch (direction predicted by the PHT, target by the BTB).
    CondBranch,
    /// Unconditional direct jump.
    Jump,
    /// Indirect jump (target predicted by the BTB).
    JumpInd,
    /// Subroutine call (pushes the return address onto the RAS).
    Call,
    /// Subroutine return (target predicted by the RAS).
    Return,
}

impl Opcode {
    /// Every opcode, in the order of [`Opcode::code`]: `ALL[op.code()]`
    /// is `op`, which is what [`Opcode::from_code`] relies on.
    pub const ALL: [Opcode; 17] = [
        Opcode::IntAlu,
        Opcode::IntMul,
        Opcode::IntMulLong,
        Opcode::CondMove,
        Opcode::Compare,
        Opcode::FpOp,
        Opcode::FpDivSingle,
        Opcode::FpDivDouble,
        Opcode::Load,
        Opcode::FpLoad,
        Opcode::Store,
        Opcode::FpStore,
        Opcode::CondBranch,
        Opcode::Jump,
        Opcode::JumpInd,
        Opcode::Call,
        Opcode::Return,
    ];

    /// A stable numeric code for serialization (checkpoints). Codes are
    /// dense indices into [`Opcode::ALL`]; changing an existing code is a
    /// checkpoint-format break and must bump the checkpoint format version.
    #[inline]
    pub fn code(self) -> u8 {
        match self {
            Opcode::IntAlu => 0,
            Opcode::IntMul => 1,
            Opcode::IntMulLong => 2,
            Opcode::CondMove => 3,
            Opcode::Compare => 4,
            Opcode::FpOp => 5,
            Opcode::FpDivSingle => 6,
            Opcode::FpDivDouble => 7,
            Opcode::Load => 8,
            Opcode::FpLoad => 9,
            Opcode::Store => 10,
            Opcode::FpStore => 11,
            Opcode::CondBranch => 12,
            Opcode::Jump => 13,
            Opcode::JumpInd => 14,
            Opcode::Call => 15,
            Opcode::Return => 16,
        }
    }

    /// Decodes a numeric code written by [`Opcode::code`]; `None` for any
    /// byte outside the defined range (a corrupt checkpoint, not a panic).
    #[inline]
    pub fn from_code(code: u8) -> Option<Opcode> {
        Opcode::ALL.get(usize::from(code)).copied()
    }

    /// Result latency in cycles (Table 1). For loads this is the *cache hit*
    /// latency; misses are determined dynamically by the memory hierarchy.
    ///
    /// A latency of 0 (compare) means a dependent instruction can issue in
    /// the *same* cycle via a same-cycle bypass.
    #[inline]
    pub fn latency(self) -> u32 {
        match self {
            Opcode::IntAlu => 1,
            Opcode::IntMul => 8,
            Opcode::IntMulLong => 16,
            Opcode::CondMove => 2,
            Opcode::Compare => 0,
            Opcode::FpOp => 4,
            Opcode::FpDivSingle => 17,
            Opcode::FpDivDouble => 30,
            Opcode::Load | Opcode::FpLoad => 1,
            Opcode::Store | Opcode::FpStore => 1,
            Opcode::CondBranch | Opcode::Jump | Opcode::JumpInd | Opcode::Call | Opcode::Return => {
                1
            }
        }
    }

    /// The functional-unit class this instruction occupies.
    #[inline]
    pub fn fu_kind(self) -> FuKind {
        match self {
            Opcode::Load | Opcode::FpLoad | Opcode::Store | Opcode::FpStore => FuKind::LdSt,
            Opcode::FpOp | Opcode::FpDivSingle | Opcode::FpDivDouble => FuKind::Fp,
            _ => FuKind::IntAlu,
        }
    }

    /// The instruction queue this instruction waits in.
    ///
    /// As in the paper's machine (and the 21164/PA-8000 lineage), *all*
    /// memory operations — including FP loads and stores — wait in the
    /// integer queue, because address generation is an integer operation.
    #[inline]
    pub fn queue(self) -> RegClass {
        match self {
            Opcode::FpOp | Opcode::FpDivSingle | Opcode::FpDivDouble => RegClass::Fp,
            _ => RegClass::Int,
        }
    }

    /// Whether this is any control-transfer instruction.
    #[inline]
    pub fn is_control(self) -> bool {
        matches!(
            self,
            Opcode::CondBranch | Opcode::Jump | Opcode::JumpInd | Opcode::Call | Opcode::Return
        )
    }

    /// Whether this is a *conditional* branch.
    #[inline]
    pub fn is_cond_branch(self) -> bool {
        matches!(self, Opcode::CondBranch)
    }

    /// Whether this instruction reads memory.
    #[inline]
    pub fn is_load(self) -> bool {
        matches!(self, Opcode::Load | Opcode::FpLoad)
    }

    /// Whether this instruction writes memory.
    #[inline]
    pub fn is_store(self) -> bool {
        matches!(self, Opcode::Store | Opcode::FpStore)
    }

    /// Whether this instruction accesses memory at all.
    #[inline]
    pub fn is_mem(self) -> bool {
        self.is_load() || self.is_store()
    }

    /// Whether control transfers away unconditionally (ends a fetch block
    /// regardless of prediction).
    #[inline]
    pub fn is_uncond_control(self) -> bool {
        matches!(
            self,
            Opcode::Jump | Opcode::JumpInd | Opcode::Call | Opcode::Return
        )
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Opcode::IntAlu => "alu",
            Opcode::IntMul => "mull",
            Opcode::IntMulLong => "mulq",
            Opcode::CondMove => "cmov",
            Opcode::Compare => "cmp",
            Opcode::FpOp => "fpop",
            Opcode::FpDivSingle => "divs",
            Opcode::FpDivDouble => "divt",
            Opcode::Load => "ldq",
            Opcode::FpLoad => "ldt",
            Opcode::Store => "stq",
            Opcode::FpStore => "stt",
            Opcode::CondBranch => "br",
            Opcode::Jump => "jmp",
            Opcode::JumpInd => "jmpi",
            Opcode::Call => "call",
            Opcode::Return => "ret",
        };
        f.write_str(s)
    }
}

/// Sentinel value for [`StaticInst::meta`] meaning "no side-table entry".
pub const NO_META: u32 = u32::MAX;

/// A static (program-image) instruction.
///
/// `meta` indexes into the owning program's side tables: for control
/// instructions it identifies the branch-behaviour entry, for memory
/// instructions the memory-reference-behaviour entry. Side tables are owned
/// by the workload crate; this crate only reserves the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticInst {
    /// Instruction class.
    pub op: Opcode,
    /// Destination register, if the instruction writes one.
    pub dest: Option<Reg>,
    /// Up to two source registers.
    pub srcs: [Option<Reg>; 2],
    /// Side-table index ([`NO_META`] when absent).
    pub meta: u32,
}

impl StaticInst {
    /// A no-destination, no-source instruction of class `op`.
    pub fn op0(op: Opcode) -> StaticInst {
        StaticInst {
            op,
            dest: None,
            srcs: [None, None],
            meta: NO_META,
        }
    }

    /// `dest <- op src` (one source).
    pub fn op2(op: Opcode, dest: Reg, src: Reg) -> StaticInst {
        StaticInst {
            op,
            dest: Some(dest),
            srcs: [Some(src), None],
            meta: NO_META,
        }
    }

    /// `dest <- src1 op src2`.
    pub fn op3(op: Opcode, dest: Reg, src1: Reg, src2: Reg) -> StaticInst {
        StaticInst {
            op,
            dest: Some(dest),
            srcs: [Some(src1), Some(src2)],
            meta: NO_META,
        }
    }

    /// Attaches a side-table index, builder style.
    pub fn with_meta(mut self, meta: u32) -> StaticInst {
        self.meta = meta;
        self
    }

    /// Iterates over the instruction's present source registers.
    pub fn sources(&self) -> impl Iterator<Item = Reg> + '_ {
        self.srcs.iter().flatten().copied()
    }
}

/// A hardware context (thread slot) identifier.
///
/// The paper's machine supports up to 8 hardware contexts; we allow any
/// small count and validate at simulator construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub u8);

impl ThreadId {
    /// The context index as a `usize`, for array indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Architectural outcome of one correct-path dynamic instruction, as
/// supplied by the workload oracle at fetch time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Address of the next correct-path instruction.
    pub next_pc: Addr,
    /// For conditional branches: whether the branch is taken.
    pub taken: bool,
    /// For memory instructions: the effective address.
    pub mem_addr: Addr,
}

impl Outcome {
    /// A fall-through outcome for a non-control, non-memory instruction at `pc`.
    pub fn fallthrough(pc: Addr) -> Outcome {
        Outcome {
            next_pc: pc + INST_BYTES,
            taken: false,
            mem_addr: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_latencies_match_paper() {
        assert_eq!(Opcode::IntMul.latency(), 8);
        assert_eq!(Opcode::IntMulLong.latency(), 16);
        assert_eq!(Opcode::CondMove.latency(), 2);
        assert_eq!(Opcode::Compare.latency(), 0);
        assert_eq!(Opcode::IntAlu.latency(), 1);
        assert_eq!(Opcode::FpDivSingle.latency(), 17);
        assert_eq!(Opcode::FpDivDouble.latency(), 30);
        assert_eq!(Opcode::FpOp.latency(), 4);
        assert_eq!(Opcode::Load.latency(), 1);
        assert_eq!(Opcode::FpLoad.latency(), 1);
    }

    #[test]
    fn memory_ops_use_ldst_units_and_int_queue() {
        for op in [Opcode::Load, Opcode::FpLoad, Opcode::Store, Opcode::FpStore] {
            assert_eq!(op.fu_kind(), FuKind::LdSt);
            assert!(op.fu_kind().is_integer());
            assert_eq!(op.queue(), RegClass::Int);
            assert!(op.is_mem());
        }
        assert!(Opcode::Load.is_load() && !Opcode::Load.is_store());
        assert!(Opcode::Store.is_store() && !Opcode::Store.is_load());
    }

    #[test]
    fn fp_ops_use_fp_units_and_fp_queue() {
        for op in [Opcode::FpOp, Opcode::FpDivSingle, Opcode::FpDivDouble] {
            assert_eq!(op.fu_kind(), FuKind::Fp);
            assert!(!op.fu_kind().is_integer());
            assert_eq!(op.queue(), RegClass::Fp);
        }
    }

    #[test]
    fn control_classification() {
        assert!(Opcode::CondBranch.is_control());
        assert!(Opcode::CondBranch.is_cond_branch());
        assert!(!Opcode::CondBranch.is_uncond_control());
        for op in [Opcode::Jump, Opcode::JumpInd, Opcode::Call, Opcode::Return] {
            assert!(op.is_control());
            assert!(op.is_uncond_control());
            assert!(!op.is_cond_branch());
        }
        assert!(!Opcode::IntAlu.is_control());
    }

    #[test]
    fn reg_encoding_roundtrips() {
        for i in 0..32u8 {
            let r = Reg::int(i);
            assert_eq!(r.class(), RegClass::Int);
            assert_eq!(r.index(), i as usize);
            let f = Reg::fp(i);
            assert_eq!(f.class(), RegClass::Fp);
            assert_eq!(f.index(), i as usize);
            assert_ne!(r, f);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_index_out_of_range_panics() {
        let _ = Reg::int(32);
    }

    #[test]
    fn reg_display() {
        assert_eq!(Reg::int(5).to_string(), "r5");
        assert_eq!(Reg::fp(31).to_string(), "f31");
        assert_eq!(RegClass::Int.to_string(), "int");
    }

    #[test]
    fn static_inst_is_packed() {
        // `Reg`'s NonZeroU8 niche makes Option<Reg> one byte, so the whole
        // static instruction is 8 — the code-image footprint the fetch
        // stage streams through every cycle.
        assert_eq!(std::mem::size_of::<Option<Reg>>(), 1);
        assert_eq!(std::mem::size_of::<StaticInst>(), 8);
    }

    #[test]
    fn static_inst_builders() {
        let i = StaticInst::op3(Opcode::IntAlu, Reg::int(1), Reg::int(2), Reg::int(3));
        assert_eq!(i.dest, Some(Reg::int(1)));
        assert_eq!(i.sources().count(), 2);
        assert_eq!(i.meta, NO_META);

        let b = StaticInst::op0(Opcode::CondBranch).with_meta(7);
        assert_eq!(b.meta, 7);
        assert_eq!(b.sources().count(), 0);
    }

    #[test]
    fn outcome_fallthrough_advances_one_instruction() {
        let o = Outcome::fallthrough(0x1000);
        assert_eq!(o.next_pc, 0x1000 + INST_BYTES);
        assert!(!o.taken);
    }

    #[test]
    fn class_indices_are_stable() {
        assert_eq!(RegClass::Int.index(), 0);
        assert_eq!(RegClass::Fp.index(), 1);
        assert_eq!(RegClass::ALL[0], RegClass::Int);
    }

    #[test]
    fn opcode_codes_roundtrip_and_are_dense() {
        for (i, op) in Opcode::ALL.iter().enumerate() {
            assert_eq!(usize::from(op.code()), i, "ALL order must match code()");
            assert_eq!(Opcode::from_code(op.code()), Some(*op));
        }
        assert_eq!(Opcode::from_code(Opcode::ALL.len() as u8), None);
        assert_eq!(Opcode::from_code(u8::MAX), None);
    }

    #[test]
    fn thread_id_ordering_and_index() {
        assert!(ThreadId(0) < ThreadId(3));
        assert_eq!(ThreadId(5).index(), 5);
        assert_eq!(ThreadId(2).to_string(), "t2");
    }
}
