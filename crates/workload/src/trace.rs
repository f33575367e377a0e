//! Trace record/replay: capture a decoded correct-path stream once, replay
//! it allocation-free.
//!
//! Functional execution ([`crate::riscv`]) decodes and executes every
//! correct-path instruction. For sweeps that run the same workload across
//! many configurations, that work can be paid once: [`TraceImage::record`]
//! drives a fresh [`RiscvSource`] for N steps and captures the decoded
//! stream, and [`TraceSource`] replays it as a cursor over the preloaded
//! step array — zero steady-state heap allocations, no decode, no
//! architectural state.
//!
//! A trace is **self-contained**: besides the step stream it embeds the
//! pristine code image, load base, entry point and arena size of the
//! source it was recorded from, so wrong-path synthesis (which decodes the
//! pristine image — see [`crate::riscv`]) behaves *byte-identically*
//! between an executed run and its replay. The same workload under the
//! same simulator configuration therefore produces the same report either
//! way, and a CI step asserts exactly that.
//!
//! When a replay exhausts the recorded stream it synthesizes a restart:
//! an unconditional [`Opcode::Jump`] whose outcome returns to the trace's
//! start PC, after which the cursor wraps to the beginning — mirroring how
//! the executing source restarts its program on exit.
//!
//! # Trace file format (`SMT1TRCE`, version 1)
//!
//! Serialized through [`smt_stats::binio`] (little-endian, FNV-1a
//! checksum trailer; see that module for primitive encodings):
//!
//! | field | encoding |
//! |---|---|
//! | magic | 8 raw bytes `SMT1TRCE` |
//! | version | `u32` (this version: 1) |
//! | name | `len` + UTF-8 bytes (thread label in reports) |
//! | xlen | `u8`: always 64 (rv64); any other value is refused |
//! | start PC | `u64` (first recorded step's PC = image entry) |
//! | entry | `u64` (wrong-path target for indirect/exit transfers) |
//! | base | `u64` (lowest mapped address of the pristine image) |
//! | arena len | `len` (memory size of the recorded source) |
//! | image | `len` + raw bytes (pristine initial memory) |
//! | steps | `len`, then per step: |
//! | — op | `u8` ([`Opcode::code`]) |
//! | — dest, src0, src1 | `u8` each: 0 = none, else integer register index + 1 |
//! | — next PC | `u64` |
//! | — flags | `u8`: bit 0 = taken, bit 1 = has memory address |
//! | — mem addr | `u64`, present only when flag bit 1 is set |
//! | checksum | `u64` FNV-1a trailer ([`BinWriter::finish`]) |
//!
//! Register operands are integer-class only (the recording source is a
//! RISC-V integer-ISA executor); codes ≥ 33 are rejected on read.

use std::io::{self, Read, Write};
use std::sync::Arc;

use smt_isa::{Addr, Opcode, Outcome, Reg, StaticInst, NO_META};
use smt_stats::binio::{fnv1a, invalid, BinReader, BinWriter, FNV_OFFSET};
use smt_stats::persist;

use crate::riscv::{self, RiscvImage, RiscvSource};
use crate::source::WorkloadSource;

/// Magic bytes opening a trace file.
pub const TRACE_MAGIC: [u8; 8] = *b"SMT1TRCE";

/// Trace format version written by [`TraceImage::write_to`].
pub const TRACE_VERSION: u32 = 1;

/// One recorded correct-path step: the decoded instruction and its
/// architectural outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TraceStep {
    inst: StaticInst,
    out: Outcome,
}

/// A recorded correct-path stream plus everything wrong-path synthesis
/// needs — immutable, shareable across threads (each [`TraceSource`] is
/// just a cursor).
pub struct TraceImage {
    name: String,
    start_pc: Addr,
    entry: Addr,
    base: Addr,
    arena_len: usize,
    image: Vec<u8>,
    steps: Vec<TraceStep>,
}

impl TraceImage {
    /// Records `steps` correct-path instructions from a fresh
    /// [`RiscvSource`] over `image`. The trace starts at the image's
    /// entry point, exactly where an executing source starts, so a
    /// replayed thread is indistinguishable from an executed one for the
    /// recorded window.
    pub fn record(image: &Arc<RiscvImage>, steps: usize) -> Result<TraceImage, String> {
        if steps == 0 {
            return Err(format!("{}: cannot record an empty trace", image.name()));
        }
        let mut src = RiscvSource::new(image.clone());
        let mut recorded = Vec::with_capacity(steps);
        for _ in 0..steps {
            let (inst, out) = src.step();
            recorded.push(TraceStep { inst, out });
        }
        Ok(TraceImage {
            name: image.name().to_string(),
            start_pc: image.entry(),
            entry: image.entry(),
            base: image.base(),
            arena_len: image.arena_len(),
            image: image.image_bytes().to_vec(),
            steps: recorded,
        })
    }

    /// Report label for threads replaying this trace.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of recorded steps before the replay wraps.
    pub fn steps(&self) -> usize {
        self.steps.len()
    }

    /// Serializes the trace (see the module docs for the format).
    pub fn write_to<W: Write>(&self, out: W) -> io::Result<()> {
        let mut w = BinWriter::new(out);
        w.bytes(&TRACE_MAGIC)?;
        w.u32(TRACE_VERSION)?;
        w.str(&self.name)?;
        w.u8(64)?; // xlen
        w.u64(self.start_pc)?;
        w.u64(self.entry)?;
        w.u64(self.base)?;
        w.len(self.arena_len)?;
        w.len(self.image.len())?;
        w.bytes(&self.image)?;
        w.len(self.steps.len())?;
        for s in &self.steps {
            w.u8(s.inst.op.code())?;
            w.u8(reg_code(s.inst.dest))?;
            w.u8(reg_code(s.inst.srcs[0]))?;
            w.u8(reg_code(s.inst.srcs[1]))?;
            w.u64(s.out.next_pc)?;
            let has_mem = s.out.mem_addr != 0;
            w.u8(u8::from(s.out.taken) | (u8::from(has_mem) << 1))?;
            if has_mem {
                w.u64(s.out.mem_addr)?;
            }
        }
        w.finish()
    }

    /// Deserializes a trace written by [`write_to`](TraceImage::write_to),
    /// verifying the magic, version, field validity and the checksum
    /// trailer.
    pub fn read_from<R: Read>(input: R) -> io::Result<TraceImage> {
        let mut r = BinReader::new(input);
        let mut magic = [0u8; 8];
        r.bytes(&mut magic)?;
        if magic != TRACE_MAGIC {
            return Err(invalid("not a trace file (bad magic)"));
        }
        let version = r.u32()?;
        if version != TRACE_VERSION {
            return Err(invalid(format!(
                "trace format version {version} is not supported (expected {TRACE_VERSION})"
            )));
        }
        let name = r.string(4096, "trace name")?;
        let xlen = r.u8()?;
        if xlen != 64 {
            return Err(invalid(format!(
                "trace xlen {xlen} is not supported (only 64)"
            )));
        }
        let start_pc = r.u64()?;
        let entry = r.u64()?;
        let base = r.u64()?;
        let arena_len = r.len()?;
        let image_len = r.len()?;
        if image_len > arena_len {
            return Err(invalid("trace image larger than its arena"));
        }
        let mut image = vec![0u8; image_len.min(1 << 24)];
        if image.len() != image_len {
            return Err(invalid("trace image is implausibly large"));
        }
        r.bytes(&mut image)?;
        let n = r.len()?;
        if n == 0 {
            return Err(invalid("trace has no steps"));
        }
        let mut steps = Vec::new();
        for _ in 0..n {
            let op = Opcode::from_code(r.u8()?)
                .ok_or_else(|| invalid("unknown opcode in trace step"))?;
            let dest = reg_from_code(r.u8()?)?;
            let src0 = reg_from_code(r.u8()?)?;
            let src1 = reg_from_code(r.u8()?)?;
            let next_pc = r.u64()?;
            let flags = r.u8()?;
            if flags & !0x3 != 0 {
                return Err(invalid(format!("unknown step flags {flags:#04x}")));
            }
            let mem_addr = if flags & 0x2 != 0 { r.u64()? } else { 0 };
            steps.push(TraceStep {
                inst: StaticInst {
                    op,
                    dest,
                    srcs: [src0, src1],
                    meta: NO_META,
                },
                out: Outcome {
                    next_pc,
                    taken: flags & 0x1 != 0,
                    mem_addr,
                },
            });
        }
        r.finish()?;
        Ok(TraceImage {
            name,
            start_pc,
            entry,
            base,
            arena_len,
            image,
            steps,
        })
    }

    /// Loads a trace file written by [`write_to`](TraceImage::write_to).
    pub fn load(path: &std::path::Path) -> Result<TraceImage, String> {
        let file = std::fs::File::open(path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        Self::read_from(io::BufReader::new(file))
            .map_err(|e| format!("cannot parse {}: {e}", path.display()))
    }

    /// FNV-1a hash of the identity-shaping fields, used by the checkpoint
    /// config fingerprint to pin "same trace".
    pub fn fingerprint(&self) -> u64 {
        [
            self.name.as_bytes(),
            &self.start_pc.to_le_bytes(),
            &self.base.to_le_bytes(),
            &(self.steps.len() as u64).to_le_bytes(),
            &self.image,
        ]
        .into_iter()
        .fold(FNV_OFFSET, fnv1a)
    }
}

/// Serializes an optional integer register: 0 for none, index + 1 else.
fn reg_code(r: Option<Reg>) -> u8 {
    match r {
        None => 0,
        Some(reg) => reg.index() as u8 + 1,
    }
}

fn reg_from_code(code: u8) -> io::Result<Option<Reg>> {
    match code {
        0 => Ok(None),
        1..=32 => Ok(Some(Reg::int(code - 1))),
        other => Err(invalid(format!("register code {other} out of range"))),
    }
}

/// One thread's replay cursor over a [`TraceImage`].
///
/// `step` is an array read plus a cursor bump — no decode, no memory
/// arena, no allocation — which is what makes trace replay the cheap way
/// to drive many-configuration sweeps over a real workload.
pub struct TraceSource {
    trace: Arc<TraceImage>,
    cursor: usize,
    pc: Addr,
    executed: u64,
}

// The checkpoint section: the trace is reloaded from the configuration.
persist! { TraceSource { pc, executed, cursor } skip { trace } check TraceSource::validate }

impl TraceSource {
    /// Creates a replay cursor at the start of the trace.
    pub fn new(trace: Arc<TraceImage>) -> TraceSource {
        TraceSource {
            pc: trace.start_pc,
            cursor: 0,
            executed: 0,
            trace,
        }
    }

    /// The trace this source replays.
    pub fn trace(&self) -> &Arc<TraceImage> {
        &self.trace
    }

    fn validate(&self) -> io::Result<()> {
        if self.cursor > self.trace.steps.len() {
            return Err(invalid(format!(
                "checkpoint cursor {} beyond the trace's {} steps",
                self.cursor,
                self.trace.steps.len()
            )));
        }
        Ok(())
    }
}

impl WorkloadSource for TraceSource {
    fn name(&self) -> &str {
        &self.trace.name
    }

    fn pc(&self) -> Addr {
        self.pc
    }

    fn executed(&self) -> u64 {
        self.executed
    }

    fn step(&mut self) -> (StaticInst, Outcome) {
        let (inst, out) = if self.cursor < self.trace.steps.len() {
            let s = self.trace.steps[self.cursor];
            self.cursor += 1;
            (s.inst, s.out)
        } else {
            // Recorded stream exhausted: synthesize the same restart jump
            // an executing source would take on program exit, and wrap.
            self.cursor = 0;
            (
                StaticInst::op0(Opcode::Jump),
                Outcome {
                    next_pc: self.trace.start_pc,
                    taken: true,
                    mem_addr: 0,
                },
            )
        };
        self.pc = out.next_pc;
        self.executed += 1;
        (inst, out)
    }

    fn wrong_inst_at(&self, pc: Addr) -> StaticInst {
        riscv::wrong_inst_at(&self.trace.image, self.trace.base, pc)
    }

    fn wrong_mem_addr(&self, pc: Addr, salt: u64) -> Addr {
        riscv::wrong_mem_addr(self.trace.base, self.trace.arena_len, pc, salt)
    }

    fn wrong_taken_target(&self, _inst: StaticInst, pc: Addr) -> Addr {
        riscv::wrong_taken_target(&self.trace.image, self.trace.base, self.trace.entry, pc)
    }
}

#[cfg(test)]
mod tests {
    use smt_stats::Persist;

    use super::*;

    fn loop_image() -> Arc<RiscvImage> {
        // Same loop program the riscv module tests use.
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
    fn replay_matches_execution_step_for_step() {
        let image = loop_image();
        let trace = Arc::new(TraceImage::record(&image, 400).expect("record"));
        let mut executed = RiscvSource::new(image);
        let mut replayed = TraceSource::new(trace);
        for i in 0..400 {
            assert_eq!(replayed.step(), executed.step(), "step {i}");
            assert_eq!(replayed.pc(), executed.pc(), "pc after step {i}");
        }
    }

    #[test]
    fn wrong_path_synthesis_matches_the_executing_source() {
        let image = loop_image();
        let trace = Arc::new(TraceImage::record(&image, 100).expect("record"));
        let executed = RiscvSource::new(image.clone());
        let replayed = TraceSource::new(trace);
        let base = image.base();
        for off in (0..64).step_by(4) {
            let pc = base + off;
            assert_eq!(replayed.wrong_inst_at(pc), executed.wrong_inst_at(pc));
            assert_eq!(
                replayed.wrong_mem_addr(pc, off ^ 0x5a),
                executed.wrong_mem_addr(pc, off ^ 0x5a)
            );
            let filler = executed.wrong_inst_at(pc);
            assert_eq!(
                replayed.wrong_taken_target(filler, pc),
                executed.wrong_taken_target(filler, pc)
            );
        }
    }

    #[test]
    fn exhausted_replay_wraps_with_a_restart_jump() {
        let image = loop_image();
        let trace = Arc::new(TraceImage::record(&image, 10).expect("record"));
        let mut s = TraceSource::new(trace.clone());
        for _ in 0..10 {
            s.step();
        }
        let (inst, out) = s.step();
        assert_eq!(inst.op, Opcode::Jump);
        assert!(out.taken);
        assert_eq!(out.next_pc, image.entry());
        // The cursor wrapped: the next steps replay the trace from the top.
        let mut fresh = TraceSource::new(trace);
        for i in 0..10 {
            assert_eq!(s.step(), fresh.step(), "wrapped step {i}");
        }
    }

    #[test]
    fn trace_files_round_trip() {
        let image = loop_image();
        let trace = TraceImage::record(&image, 256).expect("record");
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).expect("vec write");
        let loaded = TraceImage::read_from(&bytes[..]).expect("read back");
        assert_eq!(loaded.name(), trace.name());
        assert_eq!(loaded.steps(), trace.steps());
        assert_eq!(loaded.fingerprint(), trace.fingerprint());
        let mut a = TraceSource::new(Arc::new(trace));
        let mut b = TraceSource::new(Arc::new(loaded));
        for _ in 0..300 {
            assert_eq!(a.step(), b.step());
        }
    }

    #[test]
    fn corrupt_trace_files_are_rejected() {
        let image = loop_image();
        let trace = TraceImage::record(&image, 16).expect("record");
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).expect("vec write");
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(TraceImage::read_from(&bad[..]).is_err());
        // Any payload bit flip fails the checksum (or an earlier check).
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(TraceImage::read_from(&flipped[..]).is_err());
        // Truncation is an error.
        assert!(TraceImage::read_from(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn replay_state_round_trips_through_dyn_streams() {
        let image = loop_image();
        let trace = Arc::new(TraceImage::record(&image, 200).expect("record"));
        let mut s = TraceSource::new(trace.clone());
        for _ in 0..73 {
            s.step();
        }
        let mut bytes = Vec::new();
        {
            let mut w = BinWriter::new(&mut bytes as &mut dyn Write);
            s.save(&mut w).expect("vec write");
        }
        let mut restored = TraceSource::new(trace);
        let mut slice: &[u8] = &bytes;
        let mut r = BinReader::new(&mut slice as &mut dyn Read);
        restored.restore(&mut r).expect("restore");
        for _ in 0..200 {
            assert_eq!(restored.step(), s.step());
        }
    }
}
