//! Real-binary workload backend: loads rv64i ELF images and functionally
//! executes them to drive fetch with a real correct-path instruction
//! stream.
//!
//! [`RiscvImage`] is the loaded, immutable program: the pristine initial
//! memory contents and entry point. [`RiscvSource`] is one thread's
//! mutable execution state over an image — integer register file, a flat
//! memory arena (loaded segments plus a zeroed heap/stack pad) and the
//! PC — implementing [`WorkloadSource`] so the
//! pipeline consumes it exactly like the synthetic oracle.
//!
//! # Execution model
//!
//! * Instructions are decoded by [`smt_isa::riscv`] and executed with
//!   full architectural semantics, one match arm per operation family.
//!   Every arithmetic form goes through the one ALU,
//!   [`AluOp::eval`](smt_isa::riscv::AluOp::eval): its second operand is
//!   `rs2` or the immediate, and it runs `narrow` (on the low 32 bits,
//!   sign-extending the result) for the `*w` forms. That covers the
//!   M-extension division edge cases. A load sign-extends by shifting.
//! * The source must yield instructions forever, so program exit restarts
//!   it: `ecall`/`ebreak` (and any undecodable word the PC wanders into)
//!   are modeled as an unconditional [`Opcode::Jump`] back to the entry
//!   point, and the register file and memory arena are reset to their
//!   pristine load-time state — a deterministic loop over the whole
//!   program, with no steady-state allocation (the reset is a `memcpy`).
//! * Memory accesses wrap into the arena (`addr mod arena-size` relative
//!   to the load base), so a wild pointer can never panic the simulator;
//!   the *architectural* effective address is still what the pipeline's
//!   cache model sees.
//!
//! # Wrong-path synthesis
//!
//! Wrong-path queries decode the **pristine image**, not live memory:
//! fetch down a mispredicted path sees the real instructions at those
//! addresses, target-less taken branches resolve to their statically
//! decoded targets, and synthesized wrong-path load addresses are hashed
//! into the arena. Using the pristine bytes (rather than the current
//! memory state) keeps executed runs and trace replays byte-identical —
//! the recorded trace embeds the same image (see [`crate::trace`]).

use std::sync::Arc;

use smt_isa::riscv::{decode, RvOp};
use smt_isa::{Addr, Opcode, Outcome, StaticInst, INST_BYTES};
use smt_stats::binio::{fnv1a, invalid, FNV_OFFSET};
use smt_stats::persist;

use crate::mix64;
use crate::source::WorkloadSource;

/// Load address and entry point of an image built by
/// [`RiscvImage::from_flat`].
pub const FLAT_BASE: Addr = 0x1000;

/// Zeroed heap/stack pad appended after the loaded image: the stack
/// pointer starts at the top of this pad.
const ARENA_PAD: usize = 64 * 1024;

/// Hard cap on the memory arena; images whose loaded span would exceed it
/// are refused at load time (they could not be checkpointed sensibly).
const ARENA_MAX: usize = 8 * 1024 * 1024;

/// One loaded RISC-V program: immutable, shareable across threads (each
/// [`RiscvSource`] gets its own mutable arena copy).
#[derive(Debug)]
pub struct RiscvImage {
    name: String,
    entry: Addr,
    /// Lowest loaded virtual address (page-aligned down); the arena maps
    /// `[base, base + image.len() + ARENA_PAD)`.
    base: Addr,
    /// Pristine initial memory: loaded segments with zero-fill (`.bss`).
    image: Vec<u8>,
}

impl RiscvImage {
    /// Reads and loads an ELF image file (see
    /// [`from_elf`](RiscvImage::from_elf)); the file stem becomes the
    /// report name.
    pub fn load(path: &std::path::Path) -> Result<RiscvImage, String> {
        let bytes =
            std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("riscv");
        Self::from_elf(name, &bytes)
    }

    /// Builds an image from raw rv64 code: the bytes are mapped at
    /// [`FLAT_BASE`], which is also the entry point.
    pub fn from_flat(name: &str, bytes: &[u8]) -> Result<RiscvImage, String> {
        if bytes.is_empty() {
            return Err(format!("{name}: empty image"));
        }
        if bytes.len() > ARENA_MAX {
            return Err(format!("{name}: image exceeds the {ARENA_MAX}-byte cap"));
        }
        Ok(RiscvImage {
            name: name.to_string(),
            entry: FLAT_BASE,
            base: FLAT_BASE,
            image: bytes.to_vec(),
        })
    }

    /// Parses a little-endian ELF64 RISC-V image and maps its `PT_LOAD`
    /// segments.
    pub fn from_elf(name: &str, bytes: &[u8]) -> Result<RiscvImage, String> {
        let u16_at = |off: usize| -> Result<u64, String> {
            let b = bytes
                .get(off..off + 2)
                .ok_or_else(|| format!("{name}: truncated ELF header"))?;
            Ok(u64::from(u16::from_le_bytes([b[0], b[1]])))
        };
        let u32_at = |off: usize| -> Result<u64, String> {
            let b = bytes
                .get(off..off + 4)
                .ok_or_else(|| format!("{name}: truncated ELF header"))?;
            Ok(u64::from(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
        };
        let u64_at = |off: usize| -> Result<u64, String> {
            let b = bytes
                .get(off..off + 8)
                .ok_or_else(|| format!("{name}: truncated ELF header"))?;
            Ok(u64::from_le_bytes([
                b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
            ]))
        };
        if !bytes.starts_with(b"\x7fELF") {
            return Err(format!("{name}: not an ELF image"));
        }
        match bytes.get(4) {
            Some(2) => {}
            Some(1) => return Err(format!("{name}: only ELF64 (rv64) images are supported")),
            _ => return Err(format!("{name}: unknown ELF class")),
        }
        if bytes.get(5) != Some(&1) {
            return Err(format!("{name}: only little-endian ELF is supported"));
        }
        let machine = u16_at(18)?;
        if machine != 243 {
            return Err(format!("{name}: ELF machine {machine} is not RISC-V (243)"));
        }
        let (entry, phoff, phentsize, phnum) = (u64_at(24)?, u64_at(32)?, u16_at(54)?, u16_at(56)?);
        // Collect PT_LOAD segments.
        let mut segs: Vec<(u64, u64, u64, u64)> = Vec::new(); // (vaddr, memsz, offset, filesz)
        for i in 0..phnum {
            let ph = usize::try_from(phoff + i * phentsize)
                .map_err(|_| format!("{name}: program header offset overflow"))?;
            let p_type = u32_at(ph)?;
            if p_type != 1 {
                continue;
            }
            let (offset, vaddr, filesz, memsz) = (
                u64_at(ph + 8)?,
                u64_at(ph + 16)?,
                u64_at(ph + 32)?,
                u64_at(ph + 40)?,
            );
            if filesz > memsz {
                return Err(format!("{name}: segment filesz exceeds memsz"));
            }
            segs.push((vaddr, memsz, offset, filesz));
        }
        if segs.is_empty() {
            return Err(format!("{name}: no PT_LOAD segments"));
        }
        let base = segs.iter().map(|s| s.0).min().unwrap() & !0xfff;
        let top = segs
            .iter()
            .map(|&(vaddr, memsz, _, _)| vaddr.checked_add(memsz))
            .collect::<Option<Vec<_>>>()
            .and_then(|tops| tops.into_iter().max())
            .ok_or_else(|| format!("{name}: segment address overflow"))?;
        let span = usize::try_from(top - base).map_err(|_| format!("{name}: image too large"))?;
        if span == 0 || span > ARENA_MAX {
            return Err(format!(
                "{name}: loaded span {span} outside (0, {ARENA_MAX}]"
            ));
        }
        let mut image = vec![0u8; span];
        for (vaddr, _, offset, filesz) in segs {
            let file = usize::try_from(offset)
                .ok()
                .zip(usize::try_from(filesz).ok())
                .and_then(|(o, n)| bytes.get(o..o + n))
                .ok_or_else(|| format!("{name}: segment data outside the file"))?;
            let dst = usize::try_from(vaddr - base).map_err(|_| format!("{name}: bad vaddr"))?;
            image
                .get_mut(dst..dst + file.len())
                .ok_or_else(|| format!("{name}: segment outside the image span"))?
                .copy_from_slice(file);
        }
        if entry < base || entry >= top {
            return Err(format!("{name}: entry {entry:#x} outside the loaded image"));
        }
        Ok(RiscvImage {
            name: name.to_string(),
            entry,
            base,
            image,
        })
    }

    /// Report label for threads running this image.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Entry point.
    pub fn entry(&self) -> Addr {
        self.entry
    }

    /// Lowest mapped address.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// The pristine initial memory contents (loaded segments + `.bss`).
    pub fn image_bytes(&self) -> &[u8] {
        &self.image
    }

    /// Total arena size a source built from this image will use.
    pub fn arena_len(&self) -> usize {
        self.image.len() + ARENA_PAD
    }

    /// FNV-1a hash of the identity-shaping fields, used by the checkpoint
    /// config fingerprint to pin "same image".
    pub fn fingerprint(&self) -> u64 {
        // The byte 64 stands where the image's XLEN was hashed when rv32
        // images were also loaded; keeping it keeps every image
        // fingerprint, and so every checkpoint and journal key, unchanged.
        [
            self.name.as_bytes(),
            &self.entry.to_le_bytes(),
            &self.base.to_le_bytes(),
            &[64],
            &self.image,
        ]
        .into_iter()
        .fold(FNV_OFFSET, fnv1a)
    }
}

// ---- shared wrong-path synthesis over a pristine image -----------------
//
// Used verbatim by both `RiscvSource` and `TraceSource` so an executed run
// and its trace replay synthesize identical wrong paths.

/// The wrong-path instruction at `pc`: the decoded pristine-image word
/// when `pc` lands in it, otherwise the synthetic filler convention.
pub(crate) fn wrong_inst_at(image: &[u8], base: Addr, pc: Addr) -> StaticInst {
    match image_word(image, base, pc) {
        Some(w) => decode(w).static_inst(),
        None => decode(0).static_inst(), // Illegal → IntAlu filler
    }
}

/// A synthesized wrong-path effective address, hashed into the arena.
pub(crate) fn wrong_mem_addr(base: Addr, arena_len: usize, pc: Addr, salt: u64) -> Addr {
    let h = mix64(pc ^ salt.rotate_left(17));
    base + (mix64(h) % (arena_len as u64 / 8).max(1)) * 8
}

/// The statically-known taken target for a wrong-path control transfer at
/// `pc`: the decoded PC-relative target when there is one, the entry point
/// for indirect/exit transfers, fallthrough otherwise.
pub(crate) fn wrong_taken_target(image: &[u8], base: Addr, entry: Addr, pc: Addr) -> Addr {
    let rv = match image_word(image, base, pc) {
        Some(w) => decode(w),
        None => return pc + INST_BYTES,
    };
    if let Some(t) = rv.rel_target(pc) {
        return t;
    }
    match rv.op {
        RvOp::Jalr | RvOp::Ecall | RvOp::Ebreak => entry,
        _ => pc + INST_BYTES,
    }
}

/// The 32-bit word at `pc` in the pristine image, if fully inside it.
fn image_word(image: &[u8], base: Addr, pc: Addr) -> Option<u32> {
    let off = usize::try_from(pc.checked_sub(base)?).ok()?;
    let b = image.get(off..off + 4)?;
    Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// One thread's functional execution state over a [`RiscvImage`].
pub struct RiscvSource {
    image: Arc<RiscvImage>,
    /// Integer register file (`x0` is kept zero by construction).
    regs: [u64; 32],
    pc: Addr,
    executed: u64,
    /// Mutable memory: pristine image followed by the zeroed pad.
    arena: Box<[u8]>,
}

// The checkpoint section: the image is rebuilt from the configuration.
persist! { RiscvSource { pc, executed, regs, arena } skip { image } check RiscvSource::validate }

impl RiscvSource {
    /// Creates the execution state at the image's entry point: registers
    /// zero except the stack pointer (`x2`, parked near the arena top),
    /// memory equal to the pristine image plus a zeroed pad.
    pub fn new(image: Arc<RiscvImage>) -> RiscvSource {
        let mut arena = vec![0u8; image.arena_len()].into_boxed_slice();
        arena[..image.image.len()].copy_from_slice(&image.image);
        let mut s = RiscvSource {
            pc: image.entry,
            executed: 0,
            regs: [0; 32],
            arena,
            image,
        };
        s.reset_regs();
        s
    }

    /// The image this source executes.
    pub fn image(&self) -> &Arc<RiscvImage> {
        &self.image
    }

    fn sp_init(&self) -> u64 {
        (self.image.base + self.arena.len() as u64 - 16) & !0xf
    }

    fn reset_regs(&mut self) {
        self.regs = [0; 32];
        self.regs[2] = self.sp_init();
    }

    fn validate(&self) -> std::io::Result<()> {
        if self.regs[0] != 0 {
            return Err(invalid("checkpoint carries a non-zero x0"));
        }
        Ok(())
    }

    /// Program restart: pristine memory, fresh registers, PC at entry.
    /// A `memcpy` + fill — no allocation, so the trace-free execution
    /// path stays allocation-free in the steady state too.
    fn restart(&mut self) {
        let n = self.image.image.len();
        self.arena[..n].copy_from_slice(&self.image.image);
        self.arena[n..].fill(0);
        self.reset_regs();
        self.pc = self.image.entry;
    }

    fn rx(&self, r: u8) -> u64 {
        self.regs[r as usize]
    }

    fn wr(&mut self, r: u8, val: u64) {
        if r != 0 {
            self.regs[r as usize] = val;
        }
    }

    fn arena_index(&self, addr: Addr) -> usize {
        (addr.wrapping_sub(self.image.base) % self.arena.len() as u64) as usize
    }

    /// Little-endian load of `size` bytes (wrapping into the arena).
    fn load(&self, addr: Addr, size: usize) -> u64 {
        let mut v = 0u64;
        for i in 0..size {
            let b = self.arena[self.arena_index(addr.wrapping_add(i as u64))];
            v |= u64::from(b) << (8 * i);
        }
        v
    }

    fn store(&mut self, addr: Addr, size: usize, val: u64) {
        for i in 0..size {
            let at = self.arena_index(addr.wrapping_add(i as u64));
            self.arena[at] = (val >> (8 * i)) as u8;
        }
    }

    /// Executes one instruction; returns `(static class, outcome)` and
    /// advances the state. See the module docs for the restart model.
    fn exec(&mut self) -> (StaticInst, Outcome) {
        let pc = self.pc;
        let word =
            image_word(&self.arena, self.image.base, pc).unwrap_or_else(|| self.load(pc, 4) as u32);
        let rv = decode(word);
        if matches!(rv.op, RvOp::Ecall | RvOp::Ebreak | RvOp::Illegal) {
            // Exit (or a wild PC): restart as an unconditional jump back
            // to the entry point.
            self.restart();
            return (
                StaticInst::op0(Opcode::Jump),
                Outcome {
                    next_pc: self.image.entry,
                    taken: true,
                    mem_addr: 0,
                },
            );
        }
        let mut next = pc.wrapping_add(INST_BYTES);
        let mut taken = false;
        let mut mem_addr = 0u64;
        let link = pc.wrapping_add(INST_BYTES);
        let imm = rv.imm as u64;
        let (a, b) = (self.rx(rv.rs1), self.rx(rv.rs2));
        match rv.op {
            RvOp::Lui => self.wr(rv.rd, imm),
            RvOp::Auipc => self.wr(rv.rd, pc.wrapping_add(imm)),
            RvOp::Jal => {
                self.wr(rv.rd, link);
                next = pc.wrapping_add(imm);
                taken = true;
            }
            RvOp::Jalr => {
                next = a.wrapping_add(imm) & !1;
                self.wr(rv.rd, link);
                taken = true;
            }
            RvOp::Branch(cond) => {
                taken = cond.holds(a, b);
                if taken {
                    next = pc.wrapping_add(imm);
                }
            }
            RvOp::Load { bytes, signed } => {
                mem_addr = a.wrapping_add(imm);
                let v = self.load(mem_addr, bytes.into());
                let pad = 64 - 8 * u32::from(bytes);
                let v = if signed {
                    ((v << pad) as i64 >> pad) as u64
                } else {
                    v
                };
                self.wr(rv.rd, v);
            }
            RvOp::Store { bytes } => {
                mem_addr = a.wrapping_add(imm);
                self.store(mem_addr, bytes.into(), b);
            }
            RvOp::Alu {
                f,
                imm: is_imm,
                word,
            } => {
                let b = if is_imm { imm } else { b };
                self.wr(rv.rd, f.eval(a, b, word));
            }
            RvOp::Fence => {}
            RvOp::Ecall | RvOp::Ebreak | RvOp::Illegal => unreachable!("handled above"),
        }
        self.pc = next;
        (
            rv.static_inst(),
            Outcome {
                next_pc: next,
                taken,
                mem_addr,
            },
        )
    }
}

impl WorkloadSource for RiscvSource {
    fn name(&self) -> &str {
        &self.image.name
    }

    fn pc(&self) -> Addr {
        self.pc
    }

    fn executed(&self) -> u64 {
        self.executed
    }

    fn step(&mut self) -> (StaticInst, Outcome) {
        let r = self.exec();
        self.executed += 1;
        r
    }

    fn wrong_inst_at(&self, pc: Addr) -> StaticInst {
        wrong_inst_at(&self.image.image, self.image.base, pc)
    }

    fn wrong_mem_addr(&self, pc: Addr, salt: u64) -> Addr {
        wrong_mem_addr(self.image.base, self.arena.len(), pc, salt)
    }

    fn wrong_taken_target(&self, _inst: StaticInst, pc: Addr) -> Addr {
        wrong_taken_target(&self.image.image, self.image.base, self.image.entry, pc)
    }
}

#[cfg(test)]
mod tests {
    use std::io::{Read, Write};

    use smt_stats::binio::{BinReader, BinWriter};
    use smt_stats::Persist;

    use super::*;

    /// Hand-assembled rv64i loop:
    /// ```text
    /// entry: addi x5, x0, 0        # i = 0
    ///        addi x6, x0, 10       # n = 10
    /// loop:  addi x5, x5, 1
    ///        sw   x5, 256(x0)      # spill to a fixed slot... (x0 base)
    ///        lw   x7, 256(x0)
    ///        blt  x5, x6, loop     # 10 iterations
    ///        ecall                 # restart
    /// ```
    fn loop_image() -> Arc<RiscvImage> {
        let words: [u32; 7] = [
            0x0000_0293, // addi x5, x0, 0
            0x00a0_0313, // addi x6, x0, 10
            0x0012_8293, // addi x5, x5, 1
            0x1050_2023, // sw x5, 256(x0)
            0x1000_2383, // lw x7, 256(x0)
            0xfe62_cae3, // blt x5, x6, -12
            0x0000_0073, // ecall
        ];
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        Arc::new(RiscvImage::from_flat("loop10", &bytes).expect("valid image"))
    }

    #[test]
    fn executes_the_loop_and_restarts_forever() {
        let mut s = RiscvSource::new(loop_image());
        let entry = s.image().entry();
        let mut restarts = 0;
        for _ in 0..500 {
            let pc = s.pc();
            let (inst, out) = s.step();
            if inst.op == Opcode::Jump && out.next_pc == entry && pc != entry {
                restarts += 1;
            }
            assert_eq!(s.pc(), out.next_pc, "source PC must track the outcome");
        }
        assert!(restarts > 5, "the program must loop through ecall restarts");
        assert_eq!(s.executed(), 500);
    }

    #[test]
    fn branch_outcomes_are_architectural() {
        let mut s = RiscvSource::new(loop_image());
        let mut taken = 0;
        let mut not_taken = 0;
        for _ in 0..200 {
            let (inst, out) = s.step();
            if inst.op == Opcode::CondBranch {
                if out.taken {
                    taken += 1;
                } else {
                    not_taken += 1;
                }
            }
        }
        // blt runs 10 times per program run: 9 taken, 1 fallthrough.
        assert!(taken > not_taken * 5, "{taken} taken vs {not_taken}");
        assert!(not_taken > 0);
    }

    #[test]
    fn execution_is_deterministic() {
        let mut a = RiscvSource::new(loop_image());
        let mut b = RiscvSource::new(loop_image());
        for _ in 0..1_000 {
            assert_eq!(a.step(), b.step());
        }
    }

    #[test]
    fn state_round_trips_through_dyn_streams() {
        let mut s = RiscvSource::new(loop_image());
        for _ in 0..137 {
            s.step();
        }
        let mut bytes = Vec::new();
        {
            let mut w = BinWriter::new(&mut bytes as &mut dyn Write);
            s.save(&mut w).expect("vec write");
        }
        let mut restored = RiscvSource::new(loop_image());
        let mut slice: &[u8] = &bytes;
        let mut r = BinReader::new(&mut slice as &mut dyn Read);
        restored.restore(&mut r).expect("restore");
        for _ in 0..300 {
            assert_eq!(restored.step(), s.step());
        }
    }

    #[test]
    fn wrong_path_synthesis_is_deterministic_and_in_arena() {
        let s = RiscvSource::new(loop_image());
        let base = s.image().base();
        let len = s.image().arena_len() as u64;
        for salt in 0..64 {
            let a = s.wrong_mem_addr(base + 8, salt);
            assert!(a >= base && a < base + len, "{a:#x} escaped the arena");
        }
        // In-image wrong-path PCs decode the real instruction.
        let inst = s.wrong_inst_at(base);
        assert_eq!(inst.op, Opcode::IntAlu); // addi
                                             // The branch's wrong-path target is its decoded target.
        let t = s.wrong_taken_target(inst, base + 20);
        assert_eq!(t, base + 8, "blt target must decode statically");
        // Off-image PCs give filler and fallthrough.
        assert_eq!(s.wrong_inst_at(0xdead_0000).op, Opcode::IntAlu);
        assert_eq!(
            s.wrong_taken_target(inst, 0xdead_0000),
            0xdead_0000 + INST_BYTES
        );
    }

    #[test]
    fn elf_loader_round_trips_a_minimal_image() {
        // Minimal ELF64: one PT_LOAD covering the loop body at 0x10000.
        let code: Vec<u8> = [0x0000_0293u32, 0x0000_0073]
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        let mut elf = Vec::new();
        elf.extend_from_slice(b"\x7fELF\x02\x01\x01\x00");
        elf.extend_from_slice(&[0u8; 8]);
        elf.extend_from_slice(&2u16.to_le_bytes()); // e_type EXEC
        elf.extend_from_slice(&243u16.to_le_bytes()); // e_machine RISC-V
        elf.extend_from_slice(&1u32.to_le_bytes()); // e_version
        elf.extend_from_slice(&0x10000u64.to_le_bytes()); // e_entry
        elf.extend_from_slice(&64u64.to_le_bytes()); // e_phoff
        elf.extend_from_slice(&0u64.to_le_bytes()); // e_shoff
        elf.extend_from_slice(&0u32.to_le_bytes()); // e_flags
        elf.extend_from_slice(&64u16.to_le_bytes()); // e_ehsize
        elf.extend_from_slice(&56u16.to_le_bytes()); // e_phentsize
        elf.extend_from_slice(&1u16.to_le_bytes()); // e_phnum
        elf.extend_from_slice(&[0u8; 6]); // shentsize/shnum/shstrndx
        assert_eq!(elf.len(), 64);
        // PT_LOAD: offset 120, vaddr 0x10000, filesz = code, memsz = code + bss.
        elf.extend_from_slice(&1u32.to_le_bytes()); // p_type
        elf.extend_from_slice(&5u32.to_le_bytes()); // p_flags R+X
        elf.extend_from_slice(&120u64.to_le_bytes()); // p_offset
        elf.extend_from_slice(&0x10000u64.to_le_bytes()); // p_vaddr
        elf.extend_from_slice(&0x10000u64.to_le_bytes()); // p_paddr
        elf.extend_from_slice(&(code.len() as u64).to_le_bytes()); // p_filesz
        elf.extend_from_slice(&(code.len() as u64 + 64).to_le_bytes()); // p_memsz
        elf.extend_from_slice(&0x1000u64.to_le_bytes()); // p_align
        assert_eq!(elf.len(), 120);
        elf.extend_from_slice(&code);
        let img = RiscvImage::from_elf("mini", &elf).expect("valid ELF");
        assert_eq!(img.entry(), 0x10000);
        assert_eq!(img.image_bytes().len(), code.len() + 64);
        assert_eq!(&img.image_bytes()[..8], &code[..8]);
        // And it executes.
        let mut s = RiscvSource::new(Arc::new(img));
        let (inst, _) = s.step();
        assert_eq!(inst.op, Opcode::IntAlu);
        let (inst, out) = s.step(); // ecall → restart
        assert_eq!(inst.op, Opcode::Jump);
        assert_eq!(out.next_pc, 0x10000);
    }

    #[test]
    fn loader_refuses_malformed_images() {
        assert!(RiscvImage::from_flat("e", &[]).is_err());
        assert!(RiscvImage::from_elf("e", b"\x7fELFxx").is_err());
        // Non-RISC-V machine is refused.
        let mut elf = Vec::new();
        elf.extend_from_slice(b"\x7fELF\x02\x01\x01\x00");
        elf.extend_from_slice(&[0u8; 8]);
        elf.extend_from_slice(&2u16.to_le_bytes());
        elf.extend_from_slice(&62u16.to_le_bytes()); // x86-64
        elf.resize(64, 0);
        let err = RiscvImage::from_elf("e", &elf).unwrap_err();
        assert!(err.contains("not RISC-V"), "{err}");
        // An ELF32 (rv32) header is refused by its class byte.
        elf[4] = 1;
        elf[18..20].copy_from_slice(&243u16.to_le_bytes());
        let err = RiscvImage::from_elf("e", &elf).unwrap_err();
        assert!(
            err.contains("only ELF64 (rv64) images are supported"),
            "{err}"
        );
        // A file of raw code words is no ELF image: `load` has no flat
        // fallback.
        let words: Vec<u8> = [0x0000_0293u32, 0x0000_0073]
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        let path = std::env::temp_dir().join(format!("smt-raw-{}.bin", std::process::id()));
        std::fs::write(&path, &words).unwrap();
        let err = RiscvImage::load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("not an ELF image"), "{err}");
    }
}
