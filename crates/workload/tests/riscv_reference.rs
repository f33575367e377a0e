//! Per-instruction reference vectors for the RISC-V executor.
//!
//! Every rv64i/rv64im form (the register, immediate and word forms of each
//! ALU and M-extension operation, every load and store width, every
//! branch, `lui`, `auipc`, `jal` and `jalr`) runs on a [`RiscvSource`]
//! over a tiny flat image built by the encoder below. The destination
//! register is read back through the effective address of a following
//! `sd x0, 0(rd)`, so the test needs no access to the register file.
//!
//! The expected values are literals taken from the RISC-V unprivileged
//! specification, never computed by the executor. The operands are the
//! riscv-tests edge cases: 0, ±1, `INT_MIN`/`INT_MAX` at both widths,
//! shift amounts 0/31/32/63, division by zero and `INT_MIN / -1`.

use std::sync::Arc;

use smt_isa::{Opcode, Outcome, StaticInst};
use smt_workload::riscv::FLAT_BASE;
use smt_workload::{RiscvImage, RiscvSource, WorkloadSource};

const MIN64: u64 = 0x8000_0000_0000_0000;
const MAX64: u64 = 0x7fff_ffff_ffff_ffff;
const M1: u64 = u64::MAX;
/// `INT32_MIN` as an rv64 register holds it (sign-extended).
const MIN32: u64 = 0xffff_ffff_8000_0000;
/// Bit-pattern operands for the logical operations.
const HI: u64 = 0xff00_ff00_ff00_ff00;
const LO: u64 = 0x0ff0_0ff0_0ff0_0ff0;

// ---- encoder (RISC-V unprivileged spec, "RV32I Base Integer ISA") ------

fn r_type(opcode: u32, f3: u32, f7: u32, rd: u32, rs1: u32, rs2: u32) -> u32 {
    f7 << 25 | rs2 << 20 | rs1 << 15 | f3 << 12 | rd << 7 | opcode
}

fn i_type(opcode: u32, f3: u32, rd: u32, rs1: u32, imm: i32) -> u32 {
    (imm as u32) << 20 | rs1 << 15 | f3 << 12 | rd << 7 | opcode
}

fn s_type(f3: u32, rs1: u32, rs2: u32, imm: i32) -> u32 {
    let imm = imm as u32;
    ((imm >> 5) & 0x7f) << 25 | rs2 << 20 | rs1 << 15 | f3 << 12 | (imm & 0x1f) << 7 | 0x23
}

fn b_type(f3: u32, rs1: u32, rs2: u32, imm: i32) -> u32 {
    let i = imm as u32;
    ((i >> 12) & 1) << 31
        | ((i >> 5) & 0x3f) << 25
        | rs2 << 20
        | rs1 << 15
        | f3 << 12
        | ((i >> 1) & 0xf) << 8
        | ((i >> 11) & 1) << 7
        | 0x63
}

fn u_type(opcode: u32, rd: u32, imm20: u32) -> u32 {
    imm20 << 12 | rd << 7 | opcode
}

fn j_type(rd: u32, imm: i32) -> u32 {
    let i = imm as u32;
    ((i >> 20) & 1) << 31
        | ((i >> 1) & 0x3ff) << 21
        | ((i >> 11) & 1) << 20
        | ((i >> 12) & 0xff) << 12
        | rd << 7
        | 0x6f
}

/// `(major opcode, funct3, funct7)` of a register-register mnemonic.
fn reg_op(name: &str) -> (u32, u32, u32) {
    match name {
        "add" => (0x33, 0, 0x00),
        "sub" => (0x33, 0, 0x20),
        "sll" => (0x33, 1, 0x00),
        "slt" => (0x33, 2, 0x00),
        "sltu" => (0x33, 3, 0x00),
        "xor" => (0x33, 4, 0x00),
        "srl" => (0x33, 5, 0x00),
        "sra" => (0x33, 5, 0x20),
        "or" => (0x33, 6, 0x00),
        "and" => (0x33, 7, 0x00),
        "mul" => (0x33, 0, 0x01),
        "mulh" => (0x33, 1, 0x01),
        "mulhsu" => (0x33, 2, 0x01),
        "mulhu" => (0x33, 3, 0x01),
        "div" => (0x33, 4, 0x01),
        "divu" => (0x33, 5, 0x01),
        "rem" => (0x33, 6, 0x01),
        "remu" => (0x33, 7, 0x01),
        "addw" => (0x3b, 0, 0x00),
        "subw" => (0x3b, 0, 0x20),
        "sllw" => (0x3b, 1, 0x00),
        "srlw" => (0x3b, 5, 0x00),
        "sraw" => (0x3b, 5, 0x20),
        "mulw" => (0x3b, 0, 0x01),
        "divw" => (0x3b, 4, 0x01),
        "divuw" => (0x3b, 5, 0x01),
        "remw" => (0x3b, 6, 0x01),
        "remuw" => (0x3b, 7, 0x01),
        _ => panic!("no register form {name}"),
    }
}

/// `(major opcode, funct3, high immediate bits)` of a register-immediate
/// mnemonic; the high bits select the arithmetic right shift.
fn imm_op(name: &str) -> (u32, u32, i32) {
    match name {
        "addi" => (0x13, 0, 0),
        "slti" => (0x13, 2, 0),
        "sltiu" => (0x13, 3, 0),
        "xori" => (0x13, 4, 0),
        "ori" => (0x13, 6, 0),
        "andi" => (0x13, 7, 0),
        "slli" => (0x13, 1, 0),
        "srli" => (0x13, 5, 0),
        "srai" => (0x13, 5, 0x400),
        "addiw" => (0x1b, 0, 0),
        "slliw" => (0x1b, 1, 0),
        "srliw" => (0x1b, 5, 0),
        "sraiw" => (0x1b, 5, 0x400),
        _ => panic!("no immediate form {name}"),
    }
}

fn load_f3(name: &str) -> u32 {
    ["lb", "lh", "lw", "ld", "lbu", "lhu", "lwu"]
        .iter()
        .position(|&n| n == name)
        .unwrap_or_else(|| panic!("no load {name}")) as u32
}

fn branch_f3(name: &str) -> u32 {
    match name {
        "beq" => 0,
        "bne" => 1,
        "blt" => 4,
        "bge" => 5,
        "bltu" => 6,
        "bgeu" => 7,
        _ => panic!("no branch {name}"),
    }
}

// ---- harness -----------------------------------------------------------

/// Image offset of the operand pool: `a` at `DATA`, `b` at `DATA + 8`.
const DATA: u32 = 0x100;
/// Address of the operand pool (flat images load at [`FLAT_BASE`]).
const POOL: u64 = FLAT_BASE + DATA as u64;
/// Address of the first body instruction, after the three setup words.
const BODY: u64 = FLAT_BASE + 12;

/// Runs `body` with `x1 = a`, `x2 = b` and `x31 = FLAT_BASE`, and returns
/// the first `steps` body steps. The setup is `auipc x31, 0` followed by
/// two `ld`s from the operand pool.
fn run(a: u64, b: u64, body: &[u32], steps: usize) -> Vec<(StaticInst, Outcome)> {
    let mut words = vec![
        u_type(0x17, 31, 0),
        i_type(0x03, 3, 1, 31, DATA as i32),
        i_type(0x03, 3, 2, 31, DATA as i32 + 8),
    ];
    words.extend_from_slice(body);
    assert!(words.len() * 4 <= DATA as usize, "body overruns the pool");
    let mut bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    bytes.resize(DATA as usize, 0);
    bytes.extend_from_slice(&a.to_le_bytes());
    bytes.extend_from_slice(&b.to_le_bytes());
    bytes.extend_from_slice(&[0; 16]);
    let image = RiscvImage::from_flat("vector", &bytes).expect("valid image");
    let mut s = RiscvSource::new(Arc::new(image));
    for _ in 0..3 {
        s.step();
    }
    (0..steps).map(|_| s.step()).collect()
}

/// `sd x0, 0(x3)`: exposes `x3` as an effective address.
fn show_x3() -> u32 {
    s_type(3, 3, 0, 0)
}

/// The value `inst` leaves in `x3`, given `x1 = a` and `x2 = b`.
fn x3_after(a: u64, b: u64, inst: u32) -> u64 {
    let out = run(a, b, &[inst, show_x3()], 2);
    assert_eq!(out[1].0.op, Opcode::Store, "the probe store did not run");
    out[1].1.mem_addr
}

fn check_reg(rows: &[(&str, u64, u64, u64)]) {
    for &(name, a, b, want) in rows {
        let (opcode, f3, f7) = reg_op(name);
        let got = x3_after(a, b, r_type(opcode, f3, f7, 3, 1, 2));
        assert_eq!(
            got, want,
            "{name} {a:#x}, {b:#x}: got {got:#x}, want {want:#x}"
        );
    }
}

fn check_imm(rows: &[(&str, u64, i32, u64)]) {
    for &(name, a, imm, want) in rows {
        let (opcode, f3, hi) = imm_op(name);
        let got = x3_after(a, 0, i_type(opcode, f3, 3, 1, imm | hi));
        assert_eq!(
            got, want,
            "{name} {a:#x}, {imm}: got {got:#x}, want {want:#x}"
        );
    }
}

// ---- rv64 ---------------------------------------------------------------

#[test]
fn rv64_register_forms_match_the_spec() {
    check_reg(&[
        ("add", 0, 0, 0),
        ("add", 1, 1, 2),
        ("add", 3, 7, 10),
        ("add", M1, 1, 0),
        ("add", MAX64, 1, MIN64),
        ("add", MIN64, M1, MAX64),
        ("add", 0x7fff_ffff, 1, 0x8000_0000),
        ("sub", 0, 0, 0),
        ("sub", 1, 1, 0),
        ("sub", 0, 1, M1),
        ("sub", 3, 7, 0xffff_ffff_ffff_fffc),
        ("sub", MIN64, 1, MAX64),
        ("sub", MAX64, M1, MIN64),
        ("sll", 1, 0, 1),
        ("sll", 1, 31, 0x8000_0000),
        ("sll", 1, 32, 0x1_0000_0000),
        ("sll", 1, 63, MIN64),
        ("sll", 1, 64, 1),
        ("sll", 3, 62, 0xc000_0000_0000_0000),
        ("sll", M1, 63, MIN64),
        ("slt", 0, 0, 0),
        ("slt", 0, 1, 1),
        ("slt", 1, 0, 0),
        ("slt", M1, 0, 1),
        ("slt", 0, M1, 0),
        ("slt", MIN64, MAX64, 1),
        ("slt", MAX64, MIN64, 0),
        ("slt", MIN64, MIN64, 0),
        ("slt", MIN32, 0x7fff_ffff, 1),
        ("sltu", 0, 0, 0),
        ("sltu", 0, 1, 1),
        ("sltu", 1, 0, 0),
        ("sltu", M1, 0, 0),
        ("sltu", 0, M1, 1),
        ("sltu", MIN64, MAX64, 0),
        ("sltu", MAX64, MIN64, 1),
        ("sltu", 0x8000_0000, MIN32, 1),
        ("xor", HI, LO, 0xf0f0_f0f0_f0f0_f0f0),
        ("xor", M1, 0, M1),
        ("xor", M1, M1, 0),
        ("or", HI, LO, 0xfff0_fff0_fff0_fff0),
        ("or", 0, 0, 0),
        ("and", HI, LO, 0x0f00_0f00_0f00_0f00),
        ("and", M1, MIN64, MIN64),
        ("srl", MIN64, 0, MIN64),
        ("srl", MIN64, 1, 0x4000_0000_0000_0000),
        ("srl", MIN64, 31, 0x1_0000_0000),
        ("srl", MIN64, 32, 0x8000_0000),
        ("srl", MIN64, 63, 1),
        ("srl", M1, 63, 1),
        ("srl", M1, 64, M1),
        ("sra", MIN64, 0, MIN64),
        ("sra", MIN64, 1, 0xc000_0000_0000_0000),
        ("sra", MIN64, 31, 0xffff_ffff_0000_0000),
        ("sra", MIN64, 32, MIN32),
        ("sra", MIN64, 63, M1),
        ("sra", MAX64, 63, 0),
        ("sra", MAX64, 1, 0x3fff_ffff_ffff_ffff),
        ("sra", M1, 64, M1),
    ]);
}

#[test]
fn rv64_m_extension_matches_the_spec() {
    check_reg(&[
        ("mul", 0, 0, 0),
        ("mul", 3, 7, 21),
        ("mul", M1, M1, 1),
        ("mul", M1, 1, M1),
        ("mul", MIN64, M1, MIN64),
        ("mul", 0x1_0000_0000, 0x1_0000_0000, 0),
        ("mul", 0x7fff_ffff, 0x7fff_ffff, 0x3fff_ffff_0000_0001),
        ("mulh", 0, 0, 0),
        ("mulh", M1, M1, 0),
        ("mulh", M1, 1, M1),
        ("mulh", MIN64, 1, M1),
        ("mulh", MIN64, MIN64, 0x4000_0000_0000_0000),
        ("mulh", MAX64, MAX64, 0x3fff_ffff_ffff_ffff),
        ("mulh", MIN64, MAX64, 0xc000_0000_0000_0000),
        ("mulhsu", M1, M1, M1),
        ("mulhsu", 1, M1, 0),
        ("mulhsu", MIN64, M1, MIN64),
        ("mulhsu", MIN64, MIN64, 0xc000_0000_0000_0000),
        ("mulhsu", 2, MIN64, 1),
        ("mulhu", M1, M1, 0xffff_ffff_ffff_fffe),
        ("mulhu", MIN64, MIN64, 0x4000_0000_0000_0000),
        ("mulhu", M1, 1, 0),
        ("mulhu", M1, 2, 1),
        ("div", 20, 6, 3),
        ("div", (-20i64) as u64, 6, (-3i64) as u64),
        ("div", 20, (-6i64) as u64, (-3i64) as u64),
        ("div", (-20i64) as u64, (-6i64) as u64, 3),
        ("div", MIN64, 1, MIN64),
        ("div", MIN64, M1, MIN64),
        ("div", MIN64, 0, M1),
        ("div", 0, 0, M1),
        ("div", 1, 0, M1),
        ("divu", 20, 6, 3),
        ("divu", (-20i64) as u64, 6, 0x2aaa_aaaa_aaaa_aaa7),
        ("divu", MIN64, 1, MIN64),
        ("divu", MIN64, M1, 0),
        ("divu", M1, M1, 1),
        ("divu", MIN64, 0, M1),
        ("divu", 0, 0, M1),
        ("rem", 20, 6, 2),
        ("rem", (-20i64) as u64, 6, (-2i64) as u64),
        ("rem", 20, (-6i64) as u64, 2),
        ("rem", (-20i64) as u64, (-6i64) as u64, (-2i64) as u64),
        ("rem", MIN64, 1, 0),
        ("rem", MIN64, M1, 0),
        ("rem", MIN64, 0, MIN64),
        ("rem", 1, 0, 1),
        ("rem", 0, 0, 0),
        ("remu", 20, 6, 2),
        ("remu", (-20i64) as u64, 6, 2),
        ("remu", MIN64, 1, 0),
        ("remu", MIN64, M1, MIN64),
        ("remu", M1, 0, M1),
        ("remu", 0, 0, 0),
    ]);
}

#[test]
fn rv64_word_register_forms_match_the_spec() {
    check_reg(&[
        ("addw", 0, 0, 0),
        ("addw", 3, 7, 10),
        ("addw", 0x7fff_ffff, 1, MIN32),
        ("addw", 0xffff_ffff, 1, 0),
        ("addw", M1, 1, 0),
        ("addw", 0x1_0000_0000, 5, 5),
        ("addw", MIN32, M1, 0x7fff_ffff),
        ("subw", 0, 1, M1),
        ("subw", MIN32, 1, 0x7fff_ffff),
        ("subw", 0x7fff_ffff, M1, MIN32),
        ("subw", 0x1_0000_0003, 7, 0xffff_ffff_ffff_fffc),
        ("sllw", 1, 0, 1),
        ("sllw", 1, 31, MIN32),
        ("sllw", 1, 32, 1),
        ("sllw", 1, 63, MIN32),
        ("sllw", 0xffff_ffff, 1, 0xffff_ffff_ffff_fffe),
        ("sllw", 0x1_0000_0001, 4, 0x10),
        ("srlw", MIN32, 0, MIN32),
        ("srlw", MIN32, 1, 0x4000_0000),
        ("srlw", MIN32, 31, 1),
        ("srlw", MIN32, 32, MIN32),
        ("srlw", M1, 4, 0x0fff_ffff),
        ("srlw", 0x1_2345_6780, 4, 0x0234_5678),
        ("sraw", 0x8000_0000, 0, MIN32),
        ("sraw", 0x8000_0000, 1, 0xffff_ffff_c000_0000),
        ("sraw", 0x8000_0000, 31, M1),
        ("sraw", 0x8000_0000, 32, MIN32),
        ("sraw", 0x7fff_ffff, 31, 0),
        ("sraw", 0x1_7fff_ffff, 4, 0x07ff_ffff),
        ("mulw", 3, 7, 21),
        ("mulw", 0x7fff_ffff, 2, 0xffff_ffff_ffff_fffe),
        ("mulw", 0x1_0000_0000, 5, 0),
        ("mulw", 0x8000_0000, M1, MIN32),
        ("mulw", 0x1_0000, 0x1_0000, 0),
        ("divw", 20, 6, 3),
        ("divw", (-20i64) as u64, 6, (-3i64) as u64),
        ("divw", MIN32, M1, MIN32),
        ("divw", 0x8000_0000, 1, MIN32),
        ("divw", 5, 0, M1),
        ("divw", 0x1_0000_0014, 6, 3),
        ("divw", 20, 0x1_0000_0000, M1),
        ("divuw", 20, 6, 3),
        ("divuw", 0xffff_ffff, 2, 0x7fff_ffff),
        ("divuw", MIN32, 1, MIN32),
        ("divuw", M1, M1, 1),
        ("divuw", 5, 0, M1),
        ("divuw", 0x8000_0000, 0x1_0000_0002, 0x4000_0000),
        ("remw", 20, 6, 2),
        ("remw", (-20i64) as u64, 6, (-2i64) as u64),
        ("remw", MIN32, M1, 0),
        ("remw", 0x8000_0000, 0, MIN32),
        ("remw", 0x1_0000_0007, 0x1_0000_0000, 7),
        ("remuw", 20, 6, 2),
        ("remuw", 0xffff_ffff, 0x10, 0xf),
        ("remuw", 0x8000_0000, 7, 2),
        ("remuw", 0x8000_0000, 0, MIN32),
        ("remuw", M1, 0x1_0000_0000, M1),
    ]);
}

#[test]
fn rv64_immediate_forms_match_the_spec() {
    check_imm(&[
        ("addi", 0, 0, 0),
        ("addi", 1, 1, 2),
        ("addi", 0, -1, M1),
        ("addi", 0, 2047, 0x7ff),
        ("addi", 0, -2048, 0xffff_ffff_ffff_f800),
        ("addi", MAX64, 1, MIN64),
        ("addi", 0x7fff_ffff, 1, 0x8000_0000),
        ("slti", 0, 1, 1),
        ("slti", 0, 0, 0),
        ("slti", M1, 0, 1),
        ("slti", 0, -1, 0),
        ("slti", MIN64, -2048, 1),
        ("slti", MAX64, 2047, 0),
        ("slti", 0xffff_ffff_ffff_f7ff, -2048, 1),
        ("sltiu", 0, 1, 1),
        ("sltiu", 0, -1, 1),
        ("sltiu", M1, -1, 0),
        ("sltiu", 0xffff_ffff_ffff_fffe, -1, 1),
        ("sltiu", 1, 0, 0),
        ("sltiu", 0x7ff, 2047, 0),
        ("sltiu", 0x7fe, 2047, 1),
        ("xori", 0x00ff_00ff, 0x0f0, 0x00ff_000f),
        ("xori", 0, -1, M1),
        ("xori", M1, -1, 0),
        ("xori", 0x1234, -2048, 0xffff_ffff_ffff_ea34),
        ("ori", 0xff00_0000_0000_0000, 0x0f, 0xff00_0000_0000_000f),
        ("ori", 0, -2048, 0xffff_ffff_ffff_f800),
        ("ori", 1, 0x7fe, 0x7ff),
        ("andi", M1, 0x7ff, 0x7ff),
        ("andi", M1, -2048, 0xffff_ffff_ffff_f800),
        ("andi", 0x1234_5678, 0xf0, 0x70),
        ("andi", MIN64, -1, MIN64),
        ("slli", 1, 0, 1),
        ("slli", 1, 31, 0x8000_0000),
        ("slli", 1, 32, 0x1_0000_0000),
        ("slli", 1, 63, MIN64),
        ("slli", M1, 32, 0xffff_ffff_0000_0000),
        ("srli", MIN64, 0, MIN64),
        ("srli", MIN64, 31, 0x1_0000_0000),
        ("srli", MIN64, 32, 0x8000_0000),
        ("srli", MIN64, 63, 1),
        ("srli", M1, 1, MAX64),
        ("srai", MIN64, 0, MIN64),
        ("srai", MIN64, 31, 0xffff_ffff_0000_0000),
        ("srai", MIN64, 32, MIN32),
        ("srai", MIN64, 63, M1),
        ("srai", MAX64, 63, 0),
        ("srai", 0x8000_0000, 31, 1),
    ]);
}

#[test]
fn rv64_word_immediate_forms_match_the_spec() {
    check_imm(&[
        ("addiw", 0, 0, 0),
        ("addiw", 0x7fff_ffff, 1, MIN32),
        ("addiw", 0, -1, M1),
        ("addiw", 0x1_0000_0000, 0, 0),
        ("addiw", 0xffff_ffff, 1, 0),
        ("addiw", 0x7ff, -2048, M1),
        ("addiw", 0x1_8000_0000, 0, MIN32),
        ("slliw", 1, 0, 1),
        ("slliw", 1, 31, MIN32),
        ("slliw", 3, 31, MIN32),
        ("slliw", 0xffff_ffff_0000_0001, 4, 0x10),
        ("srliw", MIN32, 0, MIN32),
        ("srliw", 0x8000_0000, 1, 0x4000_0000),
        ("srliw", 0x8000_0000, 31, 1),
        ("srliw", M1, 0, M1),
        ("srliw", M1, 4, 0x0fff_ffff),
        ("sraiw", 0x8000_0000, 0, MIN32),
        ("sraiw", 0x8000_0000, 1, 0xffff_ffff_c000_0000),
        ("sraiw", 0x8000_0000, 31, M1),
        ("sraiw", 0x7fff_ffff, 31, 0),
        ("sraiw", 0x1_7fff_ffff, 4, 0x07ff_ffff),
    ]);
}

/// The memory operand the load and store vectors work on; its bytes, low
/// address first, are `81 80 03 ff 02 80 01 7f`.
const PATTERN: u64 = 0x7f01_8002_ff03_8081;

#[test]
fn loads_match_the_spec_at_every_width() {
    // (mnemonic, base register, offset, result). x31 holds FLAT_BASE;
    // x1 holds the address just past the pattern, so its offsets are
    // negative.
    let rows: &[(&str, u32, i32, u64)] = &[
        ("lb", 31, 0, 0xffff_ffff_ffff_ff81),
        ("lb", 31, 2, 0x03),
        ("lb", 1, -1, 0x7f),
        ("lbu", 31, 0, 0x81),
        ("lbu", 1, -5, 0xff),
        ("lh", 31, 0, 0xffff_ffff_ffff_8081),
        ("lh", 31, 2, 0xffff_ffff_ffff_ff03),
        ("lh", 1, -2, 0x7f01),
        ("lhu", 31, 0, 0x8081),
        ("lhu", 1, -2, 0x7f01),
        ("lw", 31, 0, 0xffff_ffff_ff03_8081),
        ("lw", 1, -4, 0x7f01_8002),
        ("lwu", 31, 0, 0xff03_8081),
        ("lwu", 1, -4, 0x7f01_8002),
        ("ld", 31, 0, PATTERN),
        ("ld", 1, -8, PATTERN),
    ];
    let end = POOL + 16;
    for &(name, base, off, want) in rows {
        let off = if base == 31 {
            off + DATA as i32 + 8
        } else {
            off
        };
        let inst = i_type(0x03, load_f3(name), 3, base, off);
        let out = run(end, PATTERN, &[inst, show_x3()], 2);
        let at = if base == 31 { FLAT_BASE } else { end }.wrapping_add(off as u64);
        assert_eq!(out[0].1.mem_addr, at, "{name} {off}(x{base}) address");
        assert_eq!(out[1].1.mem_addr, want, "{name} {off}(x{base})");
    }
}

#[test]
fn stores_match_the_spec_at_every_width() {
    // `s* x1, DATA+8+k(x31)` writes a = 0x1122_3344_5566_7788 over the
    // pattern; `ld x3, DATA+8(x31)` reads the doubleword back.
    let a = 0x1122_3344_5566_7788;
    let rows: &[(&str, i32, u64)] = &[
        ("sb", 0, 0x7f01_8002_ff03_8088),
        ("sb", 7, 0x8801_8002_ff03_8081),
        ("sh", 0, 0x7f01_8002_ff03_7788),
        ("sh", 6, 0x7788_8002_ff03_8081),
        ("sw", 0, 0x7f01_8002_5566_7788),
        ("sw", 4, 0x5566_7788_ff03_8081),
        ("sd", 0, a),
    ];
    let slot = DATA as i32 + 8;
    for &(name, k, want) in rows {
        let f3 = ["sb", "sh", "sw", "sd"]
            .iter()
            .position(|&n| n == name)
            .unwrap() as u32;
        let body = [
            s_type(f3, 31, 1, slot + k),
            i_type(0x03, 3, 3, 31, slot),
            show_x3(),
        ];
        let out = run(a, PATTERN, &body, 3);
        assert_eq!(out[0].0.op, Opcode::Store);
        assert_eq!(out[0].1.mem_addr, POOL + 8 + k as u64, "{name} address");
        assert_eq!(out[2].1.mem_addr, want, "{name} at byte {k}");
    }
    // A negative S-immediate: `sd x1, -8(x2)` with x2 just past the slot.
    let body = [s_type(3, 2, 1, -8), i_type(0x03, 3, 3, 31, slot), show_x3()];
    let out = run(a, POOL + 16, &body, 3);
    assert_eq!(out[0].1.mem_addr, POOL + 8);
    assert_eq!(out[2].1.mem_addr, a);
}

#[test]
fn branches_match_the_spec() {
    let rows: &[(&str, u64, u64, bool)] = &[
        ("beq", 0, 0, true),
        ("beq", 1, 1, true),
        ("beq", M1, M1, true),
        ("beq", 0, 1, false),
        ("beq", 1, 0, false),
        ("beq", M1, 1, false),
        ("beq", MIN32, 0x8000_0000, false),
        ("bne", 0, 0, false),
        ("bne", M1, M1, false),
        ("bne", 0, 1, true),
        ("bne", MIN32, 0x8000_0000, true),
        ("blt", 0, 1, true),
        ("blt", 1, 0, false),
        ("blt", M1, 1, true),
        ("blt", 1, M1, false),
        ("blt", (-2i64) as u64, M1, true),
        ("blt", M1, (-2i64) as u64, false),
        ("blt", 1, 1, false),
        ("blt", MIN64, MAX64, true),
        ("blt", MAX64, MIN64, false),
        ("bge", 0, 1, false),
        ("bge", 1, 0, true),
        ("bge", M1, 1, false),
        ("bge", 1, M1, true),
        ("bge", 1, 1, true),
        ("bge", MIN64, MAX64, false),
        ("bge", MAX64, MIN64, true),
        ("bltu", 0, 1, true),
        ("bltu", 1, 0, false),
        ("bltu", M1, 1, false),
        ("bltu", 1, M1, true),
        ("bltu", 1, 1, false),
        ("bltu", MIN64, MAX64, false),
        ("bltu", MAX64, MIN64, true),
        ("bltu", 0x8000_0000, MIN32, true),
        ("bgeu", 0, 1, false),
        ("bgeu", 1, 0, true),
        ("bgeu", M1, 1, true),
        ("bgeu", 1, M1, false),
        ("bgeu", 1, 1, true),
        ("bgeu", MIN64, MAX64, true),
        ("bgeu", 0x8000_0000, MIN32, false),
    ];
    for &(name, a, b, taken) in rows {
        for off in [16, -4096, 4094] {
            let out = run(a, b, &[b_type(branch_f3(name), 1, 2, off)], 1);
            let (inst, o) = out[0];
            assert_eq!(inst.op, Opcode::CondBranch);
            let next = if taken {
                BODY.wrapping_add(off as u64)
            } else {
                BODY + 4
            };
            assert_eq!((o.taken, o.next_pc), (taken, next), "{name} {a:#x}, {b:#x}");
        }
    }
}

#[test]
fn upper_immediates_match_the_spec() {
    // (major opcode, imm20, result); auipc runs at BODY.
    let rows: &[(u32, u32, u64)] = &[
        (0x37, 0x12345, 0x1234_5000),
        (0x37, 0x80000, MIN32),
        (0x37, 0xfffff, 0xffff_ffff_ffff_f000),
        (0x37, 0, 0),
        (0x17, 0, BODY),
        (0x17, 1, BODY + 0x1000),
        (0x17, 0xfffff, BODY - 0x1000),
        (0x17, 0x80000, 0xffff_ffff_8000_100c),
    ];
    for &(opcode, imm20, want) in rows {
        let got = x3_after(0, 0, u_type(opcode, 3, imm20));
        assert_eq!(got, want, "{opcode:#x} {imm20:#x}");
    }
}

#[test]
fn jumps_link_and_redirect_per_the_spec() {
    // jal x3, +8 over an illegal word onto the probe.
    let out = run(0, 0, &[j_type(3, 8), 0, show_x3()], 2);
    assert_eq!((out[0].1.taken, out[0].1.next_pc), (true, BODY + 8));
    assert_eq!(out[1].1.mem_addr, BODY + 4);
    // A backward jal: j +8; probe; jal x3, -4 (back onto the probe).
    let out = run(0, 0, &[j_type(0, 8), show_x3(), j_type(3, -4)], 3);
    assert_eq!(out[0].0.op, Opcode::Jump);
    assert_eq!(out[1].1.next_pc, BODY + 4);
    assert_eq!(out[2].1.mem_addr, BODY + 12);
    // jalr x3, off(x1) onto the probe at BODY + 8: plain, with the low bit
    // of the sum cleared, and with a negative offset.
    for (a, off) in [(BODY, 8), (BODY + 1, 8), (BODY + 20, -12)] {
        let out = run(a, 0, &[i_type(0x67, 0, 3, 1, off), 0, show_x3()], 2);
        assert_eq!(out[0].0.op, Opcode::JumpInd);
        assert_eq!((out[0].1.taken, out[0].1.next_pc), (true, BODY + 8));
        assert_eq!(out[1].1.mem_addr, BODY + 4, "jalr {off}({a:#x})");
    }
    // jalr x1, 8(x1): the target uses x1 before the link overwrites it.
    let probe_x1 = s_type(3, 1, 0, 0);
    let out = run(BODY, 0, &[i_type(0x67, 0, 1, 1, 8), 0, probe_x1], 2);
    assert_eq!(out[0].0.op, Opcode::Call);
    assert_eq!(out[0].1.next_pc, BODY + 8);
    assert_eq!(out[1].1.mem_addr, BODY + 4);
}

// ---- rv64 differential digest --------------------------------------------

/// SplitMix64: the random source of the digest programs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u32 {
        (self.next() % n) as u32
    }

    fn reg(&mut self) -> u32 {
        1 + self.below(31)
    }
}

const REG_FORMS: [&str; 28] = [
    "add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and", "mul", "mulh", "mulhsu",
    "mulhu", "div", "divu", "rem", "remu", "addw", "subw", "sllw", "srlw", "sraw", "mulw", "divw",
    "divuw", "remw", "remuw",
];

const IMM_FORMS: [&str; 13] = [
    "addi", "slti", "sltiu", "xori", "ori", "andi", "slli", "srli", "srai", "addiw", "slliw",
    "srliw", "sraiw",
];

/// A random rv64im program over every encoding family. Each instruction
/// that writes `rd` is followed by `sd x0, 0(rd)`, so its result shows up
/// as an effective address. Control transfers go forward, the last word
/// jumps back to the entry (or, on odd seeds, restarts the program through
/// `ecall` or `ebreak`), and 64 random words that never execute trail the program for
/// the wrong-path decoder.
fn random_program(seed: u64) -> Vec<u32> {
    const LEN: usize = 360;
    // A forward offset from word `at` that stays inside the program.
    let fwd = |r: &mut Rng, at: usize| 4 * (1 + r.below((LEN - at).clamp(1, 16) as u64) as i32);
    let mut r = Rng(seed);
    let mut words = Vec::new();
    while words.len() < LEN {
        let rd = r.reg();
        let inst = match r.below(32) {
            0..=9 => {
                let (opcode, f3, f7) = reg_op(REG_FORMS[r.below(28) as usize]);
                r_type(opcode, f3, f7, rd, r.reg(), r.reg())
            }
            10..=16 => {
                let name = IMM_FORMS[r.below(13) as usize];
                let (opcode, f3, hi) = imm_op(name);
                let imm = match name {
                    "slli" | "srli" | "srai" => r.below(64) as i32,
                    "slliw" | "srliw" | "sraiw" => r.below(32) as i32,
                    _ => r.below(4096) as i32 - 2048,
                };
                i_type(opcode, f3, rd, r.reg(), imm | hi)
            }
            17..=19 => i_type(0x03, r.below(7), rd, r.reg(), r.below(4096) as i32 - 2048),
            20..=21 => {
                let off = r.below(4096) as i32 - 2048;
                words.push(s_type(r.below(4), r.reg(), r.reg(), off));
                continue;
            }
            22..=24 => {
                let off = fwd(&mut r, words.len());
                words.push(b_type(
                    [0, 1, 4, 5, 6, 7][r.below(6) as usize],
                    r.reg(),
                    r.reg(),
                    off,
                ));
                continue;
            }
            25..=26 => u_type([0x37, 0x17][r.below(2) as usize], rd, r.below(1 << 20)),
            27 => j_type([0, 1, 5, rd][r.below(4) as usize], fwd(&mut r, words.len())),
            28..=29 => {
                // auipc t, 0; jalr rd, off(t): a forward indirect jump.
                let t = r.reg();
                words.push(u_type(0x17, t, 0));
                let rd = [0, 1, 5, rd][r.below(4) as usize];
                i_type(0x67, 0, rd, t, 4 + fwd(&mut r, words.len()))
            }
            _ => {
                words.push(0x0000_000f); // fence
                continue;
            }
        };
        words.push(inst);
        words.push(s_type(3, inst >> 7 & 0x1f, 0, 0));
    }
    let end = words.len();
    words.push(match seed % 4 {
        1 => 0x0000_0073, // ecall
        3 => 0x0010_0073, // ebreak
        _ => j_type(0, -(end as i32) * 4),
    });
    words.extend((0..64).map(|_| r.next() as u32));
    words
}

fn fold(h: u64, inst: StaticInst, o: Outcome) -> u64 {
    let reg = |r: Option<smt_isa::Reg>| r.map_or(0, |r| r.index() as u8 + 1);
    let mut b = vec![
        inst.op as u8,
        reg(inst.dest),
        reg(inst.srcs[0]),
        reg(inst.srcs[1]),
        u8::from(o.taken),
    ];
    b.extend_from_slice(&inst.meta.to_le_bytes());
    b.extend_from_slice(&o.next_pc.to_le_bytes());
    b.extend_from_slice(&o.mem_addr.to_le_bytes());
    smt_stats::binio::fnv1a(h, &b)
}

/// 64 seeded random programs, 2 000 steps each on rv64: every step's
/// class and outcome, then the wrong-path decode of every image word,
/// folded into one FNV-1a digest. Any change in what an rv64 form
/// computes, or in how a word decodes, moves the pinned literal.
#[test]
fn rv64_random_programs_match_the_pinned_digest() {
    let mut h = smt_stats::binio::FNV_OFFSET;
    for seed in 0..64 {
        let words = random_program(seed);
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let image = RiscvImage::from_flat("random", &bytes).expect("valid image");
        let mut s = RiscvSource::new(Arc::new(image));
        for _ in 0..2_000 {
            let (inst, o) = s.step();
            h = fold(h, inst, o);
        }
        for pc in (0..words.len() as u64).map(|i| FLAT_BASE + 4 * i) {
            let inst = s.wrong_inst_at(pc);
            let o = Outcome {
                next_pc: s.wrong_taken_target(inst, pc),
                taken: false,
                mem_addr: 0,
            };
            h = fold(h, inst, o);
        }
    }
    assert_eq!(h, 0xc68f_2967_4c94_c4de, "rv64 digest {h:#018x}");
}
