//! RISC-V (rv64i + M) instruction decoding and the mapping onto the
//! simulator's [`StaticInst`] classes.
//!
//! The decoder is deliberately *pure*: [`decode`] turns one 32-bit
//! instruction word into an [`RvInst`] (operation, registers, immediate)
//! with no machine state involved, and [`RvInst::static_inst`] maps that
//! onto the timing-model opcode classes ([`Opcode`]) the pipeline
//! schedules by. Functional execution (register file, memory, next-PC
//! resolution) lives in `smt-workload::riscv`, which consumes both.
//!
//! Only the 4-byte base encodings are handled — the compressed (C)
//! extension is not decoded, so images must be built for `rv64i`
//! (optionally with M); a 2-byte-aligned compressed word decodes as
//! [`RvOp::Illegal`]. This matches the checked-in `testdata/riscv/`
//! programs, which the bundled assembler emits without compression.
//!
//! # Operation families
//!
//! [`RvOp`] names operation *families*, not mnemonics. [`RvOp::Alu`]
//! covers the register (OP), immediate (OP-IMM), word (OP-32) and
//! word-immediate (OP-IMM-32) forms of the 18 [`AluOp`]s — the 10 of the
//! base ISA and the 8 of the M extension — and `AluOp::of` is the one
//! `funct3`/`funct7` table all four opcodes decode through.
//! [`RvOp::Branch`] covers the six [`Cond`]itions, and [`RvOp::Load`] and
//! [`RvOp::Store`] every width. The executor computes every arithmetic
//! form with the one ALU, [`AluOp::eval`].
//!
//! # Class mapping
//!
//! | [`RvOp`] | [`Opcode`] |
//! |---|---|
//! | `Branch` | `CondBranch` |
//! | `Jal`/`Jalr` writing a link register (`x1`/`x5`) | `Call` |
//! | other `Jal` | `Jump` |
//! | `Jalr x0` through a link register (a return) | `Return` |
//! | other `Jalr` | `JumpInd` |
//! | `Load`, `Store` | `Load`, `Store` |
//! | `Alu` | `IntMul` for `mul[w]`, `IntMulLong` for `mulh*`/`div*`/`rem*`, else `IntAlu` |
//! | `Ecall`/`Ebreak` | `Jump` (modeled as a program restart) |
//! | `Lui`, `Auipc`, `Fence` | `IntAlu` |
//! | `Illegal` | `IntAlu` filler writing `x1` from `x2`, `x3` |
//!
//! The operands are the decoded `rd`, `rs1` and `rs2`; [`decode`] leaves
//! a field the encoding lacks at `x0`. Register `x0` is hardwired zero,
//! so it maps to *no* operand ([`None`] — always ready, never written);
//! `x1..x31` map to [`Reg::int`] of the same index.

use crate::{Opcode, Reg, StaticInst, NO_META};

/// One decoded RISC-V operation family (rv64i base + M extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RvOp {
    /// `lui`: `rd = imm`.
    Lui,
    /// `auipc`: `rd = pc + imm`.
    Auipc,
    /// `jal`: `rd = pc + 4`, jump to `pc + imm`.
    Jal,
    /// `jalr`: `rd = pc + 4`, jump to `(rs1 + imm) & !1`.
    Jalr,
    /// A conditional branch to `pc + imm`.
    Branch(Cond),
    /// A load of `bytes` (1, 2, 4 or 8) from `rs1 + imm`, sign-extended
    /// when `signed`.
    Load {
        /// Access width in bytes.
        bytes: u8,
        /// Whether the loaded value is sign-extended (`lb`/`lh`/`lw`/`ld`).
        signed: bool,
    },
    /// A store of the low `bytes` (1, 2, 4 or 8) of `rs2` to `rs1 + imm`.
    Store {
        /// Access width in bytes.
        bytes: u8,
    },
    /// `rd = f(rs1, b)`, with `b` the immediate when `imm` and `rs2`
    /// otherwise; `word` marks the rv64 `*w` forms, which compute on the
    /// low 32 bits and sign-extend the result.
    Alu {
        /// The operation.
        f: AluOp,
        /// Immediate (OP-IMM, OP-IMM-32) rather than register operand.
        imm: bool,
        /// A 32-bit word form (OP-32, OP-IMM-32).
        word: bool,
    },
    /// `fence`: no architectural effect in a single-hart model.
    Fence,
    /// `ecall`: modeled as a program restart.
    Ecall,
    /// `ebreak`: modeled as a program restart.
    Ebreak,
    /// Anything this decoder does not handle (including compressed words).
    Illegal,
}

/// A branch comparison (the BRANCH opcode's `funct3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // the variants are the mnemonics without their `b`
pub enum Cond {
    Eq,
    Ne,
    Lt,
    Ge,
    Ltu,
    Geu,
}

impl Cond {
    /// Whether the branch is taken for register values `a` (`rs1`) and
    /// `b` (`rs2`).
    pub fn holds(self, a: u64, b: u64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => (a as i64) < (b as i64),
            Cond::Ge => (a as i64) >= (b as i64),
            Cond::Ltu => a < b,
            Cond::Geu => a >= b,
        }
    }
}

/// An arithmetic operation: the 10 of the base ISA and the 8 of the M
/// extension, each in every form its opcodes define (see [`RvOp::Alu`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // the variants are the register-form mnemonics
pub enum AluOp {
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
    Mul,
    Mulh,
    Mulhsu,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
}

impl AluOp {
    /// The operation a `(funct3, funct7)` pair selects in the OP opcode
    /// (`funct7` 0x00 base, 0x20 `sub`/`sra`, 0x01 M extension); the
    /// other arithmetic opcodes reuse the table and refuse what they lack
    /// (see [`decode`]).
    pub(crate) fn of(funct3: u32, funct7: u32) -> Option<AluOp> {
        use AluOp::*;
        const BASE: [AluOp; 8] = [Add, Sll, Slt, Sltu, Xor, Srl, Or, And];
        const M: [AluOp; 8] = [Mul, Mulh, Mulhsu, Mulhu, Div, Divu, Rem, Remu];
        let f3 = (funct3 & 7) as usize;
        match (funct7, f3) {
            (0x00, _) => Some(BASE[f3]),
            (0x20, 0) => Some(Sub),
            (0x20, 5) => Some(Sra),
            (0x01, _) => Some(M[f3]),
            _ => None,
        }
    }

    /// Whether the opcode of this form has the operation: the immediate
    /// forms have no `sub` and no M extension, the word forms only
    /// add/sub, the shifts and mul/div/rem, the word-immediate forms only
    /// add and the shifts.
    fn has_form(self, imm: bool, word: bool) -> bool {
        use AluOp::*;
        match (imm, word) {
            (false, false) => true,
            (true, false) => matches!(self, Add | Sll | Slt | Sltu | Xor | Srl | Sra | Or | And),
            (false, true) => !matches!(self, Slt | Sltu | Xor | Or | And | Mulh | Mulhsu | Mulhu),
            (true, true) => matches!(self, Add | Sll | Srl | Sra),
        }
    }

    /// The timing class: `IntMul` for `mul`, `IntMulLong` for the other M
    /// operations, `IntAlu` for the base ISA.
    pub(crate) fn class(self) -> Opcode {
        use AluOp::*;
        match self {
            Mul => Opcode::IntMul,
            Mulh | Mulhsu | Mulhu | Div | Divu | Rem | Remu => Opcode::IntMulLong,
            _ => Opcode::IntAlu,
        }
    }

    /// The one ALU: `a op b` on XLEN = 64 register values. With `narrow`
    /// it computes on the low 32 bits instead (signed operations read
    /// them sign-extended, unsigned ones zero-extended, shift amounts are
    /// 5 bits) and sign-extends the 32-bit result — the rule of the rv64
    /// `*w` forms. `mulh*` have no word form (see `has_form`), so they
    /// always return bits 64..128 of the product. Division follows the spec: by zero gives all ones
    /// (`rem*`: the dividend), and `INT_MIN / -1` gives `INT_MIN`
    /// (`rem`: 0).
    pub fn eval(self, a: u64, b: u64, narrow: bool) -> u64 {
        use AluOp::*;
        let s = |x: u64| if narrow { x as i32 as i64 } else { x as i64 };
        let u = |x: u64| if narrow { x as u32 as u64 } else { x };
        let sh = (b & if narrow { 31 } else { 63 }) as u32;
        let v = match self {
            Add => a.wrapping_add(b),
            Sub => a.wrapping_sub(b),
            Sll => a << sh,
            Slt => u64::from(s(a) < s(b)),
            Sltu => u64::from(u(a) < u(b)),
            Xor => a ^ b,
            Srl => u(a) >> sh,
            Sra => (s(a) >> sh) as u64,
            Or => a | b,
            And => a & b,
            Mul => a.wrapping_mul(b),
            Mulh => ((i128::from(s(a)) * i128::from(s(b))) >> 64) as u64,
            Mulhsu => ((i128::from(s(a)) * i128::from(u(b))) >> 64) as u64,
            Mulhu => ((u128::from(u(a)) * u128::from(u(b))) >> 64) as u64,
            Div => match s(b) {
                0 => u64::MAX,
                d => s(a).wrapping_div(d) as u64,
            },
            Divu => u(a).checked_div(u(b)).unwrap_or(u64::MAX),
            Rem => match s(b) {
                0 => a,
                d => s(a).wrapping_rem(d) as u64,
            },
            Remu => match u(b) {
                0 => a,
                d => u(a) % d,
            },
        };
        if narrow {
            v as i32 as i64 as u64
        } else {
            v
        }
    }
}

/// One decoded instruction: operation, register numbers and the
/// sign-extended immediate. Fields not present in the encoding's format
/// are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RvInst {
    /// The decoded operation.
    pub op: RvOp,
    /// Destination register number (`x0..x31`; 0 means "discard").
    pub rd: u8,
    /// First source register number.
    pub rs1: u8,
    /// Second source register number.
    pub rs2: u8,
    /// Sign-extended immediate (shift amounts are the raw shamt field).
    pub imm: i64,
}

/// `x1` (`ra`) and `x5` (`t0`), the standard link registers: `jal`/`jalr`
/// writing one of these is a call, and `jalr x0` through one is a return.
fn is_link(reg: u8) -> bool {
    reg == 1 || reg == 5
}

impl RvInst {
    /// Whether this operation redirects the PC.
    pub fn is_control(&self) -> bool {
        matches!(
            self.op,
            RvOp::Jal | RvOp::Jalr | RvOp::Branch(_) | RvOp::Ecall | RvOp::Ebreak
        )
    }

    /// The statically-known target of a PC-relative control instruction
    /// (`jal` and the conditional branches) fetched at `pc`, `None` for
    /// everything else (indirect or not control).
    pub fn rel_target(&self, pc: u64) -> Option<u64> {
        match self.op {
            RvOp::Jal | RvOp::Branch(_) => Some(pc.wrapping_add(self.imm as u64)),
            _ => None,
        }
    }

    /// Maps the decoded operation onto the simulator's timing classes (see
    /// the module docs for the full table). The operands are `rd`, `rs1`
    /// and `rs2` as decoded: a field the format lacks is `x0`, which maps
    /// to no operand. `meta` is always [`NO_META`]: real code needs no
    /// synthetic branch/memory model — targets and addresses come from
    /// execution.
    pub fn static_inst(&self) -> StaticInst {
        let op = match self.op {
            RvOp::Branch(_) => Opcode::CondBranch,
            RvOp::Jal | RvOp::Jalr if is_link(self.rd) => Opcode::Call,
            RvOp::Jal => Opcode::Jump,
            RvOp::Jalr if self.rd == 0 && is_link(self.rs1) => Opcode::Return,
            RvOp::Jalr => Opcode::JumpInd,
            RvOp::Load { .. } => Opcode::Load,
            RvOp::Store { .. } => Opcode::Store,
            RvOp::Alu { f, .. } => f.class(),
            // Exit requests restart the program: an unconditional jump
            // back to the entry point, resolved by the executor.
            RvOp::Ecall | RvOp::Ebreak => Opcode::Jump,
            RvOp::Lui | RvOp::Auipc | RvOp::Fence => Opcode::IntAlu,
            // Filler matching the synthetic wrong-path convention: a
            // plausible ALU op with benign dependences.
            RvOp::Illegal => {
                return StaticInst {
                    op: Opcode::IntAlu,
                    dest: Some(Reg::int(1)),
                    srcs: [Some(Reg::int(2)), Some(Reg::int(3))],
                    meta: NO_META,
                }
            }
        };
        let reg = |r: u8| (r != 0).then(|| Reg::int(r));
        StaticInst {
            op,
            dest: reg(self.rd),
            srcs: [reg(self.rs1), reg(self.rs2)],
            meta: NO_META,
        }
    }
}

/// Field extraction helpers (bit positions from the RISC-V spec).
fn rd(w: u32) -> u8 {
    ((w >> 7) & 0x1f) as u8
}
fn rs1(w: u32) -> u8 {
    ((w >> 15) & 0x1f) as u8
}
fn rs2(w: u32) -> u8 {
    ((w >> 20) & 0x1f) as u8
}
fn funct3(w: u32) -> u32 {
    (w >> 12) & 0x7
}
fn funct7(w: u32) -> u32 {
    w >> 25
}
fn imm_i(w: u32) -> i64 {
    (w as i32 >> 20) as i64
}
fn imm_s(w: u32) -> i64 {
    (((w & 0xfe00_0000) as i32 >> 20) | ((w >> 7) & 0x1f) as i32) as i64
}
fn imm_b(w: u32) -> i64 {
    let imm = (((w & 0x8000_0000) as i32 >> 19) as u32)
        | ((w & 0x80) << 4)
        | ((w >> 20) & 0x7e0)
        | ((w >> 7) & 0x1e);
    imm as i32 as i64
}
fn imm_u(w: u32) -> i64 {
    (w & 0xffff_f000) as i32 as i64
}
fn imm_j(w: u32) -> i64 {
    let imm = (((w & 0x8000_0000) as i32 >> 11) as u32)
        | (w & 0xf_f000)
        | ((w >> 9) & 0x800)
        | ((w >> 20) & 0x7fe);
    imm as i32 as i64
}

/// Decodes one 32-bit instruction word. Never fails: unhandled encodings
/// (including compressed 16-bit parcels) come back as [`RvOp::Illegal`].
pub fn decode(w: u32) -> RvInst {
    let illegal = RvInst {
        op: RvOp::Illegal,
        rd: 0,
        rs1: 0,
        rs2: 0,
        imm: 0,
    };
    if w & 0x3 != 0x3 {
        return illegal; // compressed or malformed parcel
    }
    let f3 = funct3(w);
    let (op, rd, rs1, rs2, imm) = match w & 0x7f {
        0x37 => (RvOp::Lui, rd(w), 0, 0, imm_u(w)),
        0x17 => (RvOp::Auipc, rd(w), 0, 0, imm_u(w)),
        0x6f => (RvOp::Jal, rd(w), 0, 0, imm_j(w)),
        0x67 if f3 == 0 => (RvOp::Jalr, rd(w), rs1(w), 0, imm_i(w)),
        0x63 => {
            let cond = match f3 {
                0 => Cond::Eq,
                1 => Cond::Ne,
                4 => Cond::Lt,
                5 => Cond::Ge,
                6 => Cond::Ltu,
                7 => Cond::Geu,
                _ => return illegal,
            };
            (RvOp::Branch(cond), 0, rs1(w), rs2(w), imm_b(w))
        }
        // funct3 = log2(width), plus 4 for the zero-extending forms.
        0x03 if f3 != 7 => {
            let op = RvOp::Load {
                bytes: 1 << (f3 & 3),
                signed: f3 & 4 == 0,
            };
            (op, rd(w), rs1(w), 0, imm_i(w))
        }
        0x23 if f3 < 4 => (RvOp::Store { bytes: 1 << f3 }, 0, rs1(w), rs2(w), imm_s(w)),
        // OP-IMM (0x13), OP-IMM-32 (0x1b), OP (0x33), OP-32 (0x3b): bit 5
        // separates register from immediate operands, bit 3 the word forms.
        0x13 | 0x1b | 0x33 | 0x3b => {
            let imm = w & 0x20 == 0;
            let word = w & 0x08 != 0;
            let shift = f3 == 1 || f3 == 5;
            // An immediate's top bits are funct7 only for the shifts, and
            // the rv64 shift amount is 6 bits wide (funct6 + shamt[5]).
            let funct7 = match (imm, shift) {
                (true, false) => 0,
                (true, true) if !word => funct7(w) & !1,
                _ => funct7(w),
            };
            let f = match AluOp::of(f3, funct7) {
                Some(f) if f.has_form(imm, word) => f,
                _ => return illegal,
            };
            let (rs2, imm_val) = match (imm, shift) {
                (false, _) => (rs2(w), 0),
                (true, true) => (0, i64::from((w >> 20) & if word { 0x1f } else { 0x3f })),
                (true, false) => (0, imm_i(w)),
            };
            (RvOp::Alu { f, imm, word }, rd(w), rs1(w), rs2, imm_val)
        }
        0x0f => (RvOp::Fence, 0, 0, 0, 0),
        0x73 => match w {
            0x0000_0073 => (RvOp::Ecall, 0, 0, 0, 0),
            0x0010_0073 => (RvOp::Ebreak, 0, 0, 0, 0),
            _ => return illegal, // CSR space: not modeled
        },
        _ => return illegal,
    };
    RvInst {
        op,
        rd,
        rs1,
        rs2,
        imm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alu(f: AluOp, imm: bool) -> RvOp {
        RvOp::Alu {
            f,
            imm,
            word: false,
        }
    }

    #[test]
    fn decodes_the_base_alu_forms() {
        // addi x5, x6, -3
        let i = decode(0xffd3_0293);
        assert_eq!(
            (i.op, i.rd, i.rs1, i.imm),
            (alu(AluOp::Add, true), 5, 6, -3)
        );
        // add x3, x1, x2
        let i = decode(0x0020_81b3);
        assert_eq!(
            (i.op, i.rd, i.rs1, i.rs2),
            (alu(AluOp::Add, false), 3, 1, 2)
        );
        // sub x3, x1, x2
        let i = decode(0x4020_81b3);
        assert_eq!(i.op, alu(AluOp::Sub, false));
        // lui x7, 0x12345
        let i = decode(0x1234_53b7);
        assert_eq!((i.op, i.rd, i.imm), (RvOp::Lui, 7, 0x1234_5000));
        // slli x5, x5, 3
        let i = decode(0x0032_9293);
        assert_eq!((i.op, i.rd, i.rs1, i.imm), (alu(AluOp::Sll, true), 5, 5, 3));
        // mul x10, x11, x12
        let i = decode(0x02c5_8533);
        assert_eq!(
            (i.op, i.rd, i.rs1, i.rs2),
            (alu(AluOp::Mul, false), 10, 11, 12)
        );
    }

    #[test]
    fn decodes_memory_and_control_with_signed_offsets() {
        // lw x8, -8(x2)
        let i = decode(0xff81_2403);
        assert_eq!(
            (i.op, i.rd, i.rs1, i.imm),
            (
                RvOp::Load {
                    bytes: 4,
                    signed: true
                },
                8,
                2,
                -8
            )
        );
        // sd x9, 16(x2)
        let i = decode(0x0091_3823);
        assert_eq!(
            (i.op, i.rs1, i.rs2, i.imm),
            (RvOp::Store { bytes: 8 }, 2, 9, 16)
        );
        // beq x1, x2, -16  (B-immediate sign extension)
        let i = decode(0xfe20_88e3);
        assert_eq!(
            (i.op, i.rs1, i.rs2, i.imm),
            (RvOp::Branch(Cond::Eq), 1, 2, -16)
        );
        assert_eq!(i.rel_target(0x100), Some(0xf0));
        // jal x1, +2048 (J-immediate bit shuffle: imm[11] lives in bit 20)
        let i = decode(0x0010_00ef);
        assert_eq!((i.op, i.rd), (RvOp::Jal, 1));
        assert_eq!(i.imm, 0x800);
        // jalr x0, 0(x1)  — a return
        let i = decode(0x0000_8067);
        assert_eq!((i.op, i.rd, i.rs1), (RvOp::Jalr, 0, 1));
        assert_eq!(i.static_inst().op, Opcode::Return);
    }

    #[test]
    fn class_mapping_follows_the_table() {
        // jal x1 → Call (link register), jal x0 → Jump.
        assert_eq!(decode(0x0000_00ef).static_inst().op, Opcode::Call);
        assert_eq!(decode(0x0000_006f).static_inst().op, Opcode::Jump);
        // Branches are CondBranch with no destination.
        let b = decode(0xfe20_88e3).static_inst();
        assert_eq!((b.op, b.dest), (Opcode::CondBranch, None));
        // Loads write rd and read rs1; x0 operands vanish.
        let l = decode(0xff81_2403).static_inst();
        assert_eq!(l.op, Opcode::Load);
        assert_eq!(l.dest, Some(Reg::int(8)));
        assert_eq!(l.srcs, [Some(Reg::int(2)), None]);
        // addi x5, x0, 1: the x0 source is no dependency at all.
        let z = decode(0x0010_0293).static_inst();
        assert_eq!(z.srcs, [None, None]);
        // div → long-latency class; ecall → restart jump.
        assert_eq!(decode(0x02c5_c533).static_inst().op, Opcode::IntMulLong);
        assert_eq!(decode(0x0000_0073).static_inst().op, Opcode::Jump);
    }

    #[test]
    fn unhandled_words_are_illegal_fillers() {
        for w in [0x0000_0000, 0xffff_ffff, 0x0000_0001, 0x8000_0002] {
            let i = decode(w);
            assert_eq!(i.op, RvOp::Illegal);
            assert_eq!(i.static_inst().op, Opcode::IntAlu);
        }
        // CSR instructions are outside the modeled subset.
        assert_eq!(decode(0x3020_2573).op, RvOp::Illegal);
    }
}
