//! Deterministic synthetic program generator.
//!
//! A [`ProfileParams`] describes one benchmark as a parameter set:
//! basic-block geometry, instruction mix, branch behaviour, dependency
//! distances, callee functions and data regions. [`ProfileParams::generate`]
//! turns it into a concrete [`Program`] image laid out in a per-slot address
//! window, so different hardware contexts running the same benchmark get
//! distinct (but statistically identical) images.
//!
//! Generation is a pure function of `(params, seed, slot)`; no global state
//! and no `std` RNG is involved, so simulations are exactly reproducible.

use crate::mix64;
use crate::program::{BranchBehavior, BranchModel, MemModel, MemPattern, Program, Region};
use smt_isa::{Opcode, Reg, StaticInst, INST_BYTES, NO_META};

/// Address-generation style of memory instructions bound to a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternSpec {
    /// Sequential streaming with the given byte stride (array walks).
    Stride(u32),
    /// Uniformly random 8-byte-aligned addresses (pointer chasing, hashing).
    Random,
}

/// One data region of a benchmark's address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionSpec {
    /// Region size in bytes (rounded up to 4 KB at layout time).
    pub size: u64,
    /// How memory instructions bound to this region generate addresses.
    pub pattern: PatternSpec,
    /// Relative probability that a memory instruction binds to this region.
    pub weight: u16,
}

/// The full parameter set describing one synthetic benchmark.
///
/// All probabilities are expressed in thousandths (`_milli`) so the whole
/// description is integral and hashable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileParams {
    /// Benchmark name, used in reports.
    pub name: &'static str,
    /// Number of basic blocks in the main body.
    pub blocks: usize,
    /// Inclusive range of non-control instructions per block (min >= 2).
    pub block_len: (usize, usize),
    /// Fraction of body instructions that are loads.
    pub load_milli: u16,
    /// Fraction of body instructions that are stores.
    pub store_milli: u16,
    /// Fraction of register-computing instructions that are floating point.
    pub fp_milli: u16,
    /// Fraction of integer ALU instructions that are multiplies.
    pub int_mul_milli: u16,
    /// Fraction of FP instructions that are divides.
    pub fp_div_milli: u16,
    /// Fraction of block terminators that are loop back-edges.
    pub loop_milli: u16,
    /// Fraction of block terminators that are subroutine calls.
    pub call_milli: u16,
    /// Fraction of block terminators that are unconditional jumps.
    pub jump_milli: u16,
    /// Fraction of block terminators that are indirect jumps.
    pub indirect_milli: u16,
    /// Inclusive range of loop trip counts.
    pub trip: (u32, u32),
    /// Taken bias of forward conditional branches, in thousandths.
    pub taken_milli: u16,
    /// Average register dependency distance (larger = more ILP).
    pub dep_window: usize,
    /// Number of small callee functions appended after the main body.
    pub functions: usize,
    /// Data regions and their access patterns.
    pub regions: Vec<RegionSpec>,
}

/// Counter-based deterministic RNG over [`mix64`].
struct Rng {
    state: u64,
    ctr: u64,
}

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng {
            state: mix64(seed),
            ctr: 0,
        }
    }

    fn next(&mut self) -> u64 {
        self.ctr = self.ctr.wrapping_add(1);
        mix64(self.state ^ self.ctr.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Uniform draw in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.next() % (hi - lo + 1)
    }

    /// Bernoulli draw with probability `p_milli / 1000`.
    fn milli(&mut self, p_milli: u16) -> bool {
        self.next() % 1000 < u64::from(p_milli)
    }
}

/// Planned terminator of one main-body block.
#[derive(Debug, Clone, Copy)]
enum Term {
    /// Loop back-edge to `back` blocks earlier, with the given trip count.
    Loop { back: usize, trip: u32 },
    /// Call to callee function `func`.
    Call { func: usize },
    /// Unconditional jump `skip` blocks forward.
    Jump { skip: usize },
    /// Indirect jump to a small set of forward blocks.
    Indirect,
    /// Forward conditional branch skipping `skip` blocks when taken.
    Fwd { skip: usize },
    /// The final block jumps back to the entry, looping the program forever.
    Restart,
}

#[derive(Debug, Clone, Copy)]
struct BlockPlan {
    body: usize,
    term: Term,
}

/// Register-sequence state used to thread dependences through the code.
struct RegSeq {
    int_seq: i64,
    fp_seq: i64,
}

impl RegSeq {
    fn new() -> RegSeq {
        // Start deep enough that "distance back" indexing never needs care.
        RegSeq {
            int_seq: 1 << 20,
            fp_seq: 1 << 20,
        }
    }

    /// Registers r1..r24 rotate as destinations; r25+ are left quiet so
    /// calls/returns can use a stable link register.
    fn int_at(&self, pos: i64) -> Reg {
        Reg::int((1 + pos.rem_euclid(24)) as u8)
    }

    fn fp_at(&self, pos: i64) -> Reg {
        Reg::fp((1 + pos.rem_euclid(24)) as u8)
    }

    fn next_int(&mut self) -> Reg {
        self.int_seq += 1;
        self.int_at(self.int_seq)
    }

    fn next_fp(&mut self) -> Reg {
        self.fp_seq += 1;
        self.fp_at(self.fp_seq)
    }

    fn int_back(&self, dist: u64) -> Reg {
        self.int_at(self.int_seq - dist as i64)
    }

    fn fp_back(&self, dist: u64) -> Reg {
        self.fp_at(self.fp_seq - dist as i64)
    }
}

/// The link register written by calls and read by returns.
const LINK_REG: u8 = 26;

impl ProfileParams {
    /// Generates the program image for hardware-context slot `slot`.
    ///
    /// The same `(seed, slot)` pair always yields the identical image;
    /// different slots get images of identical statistics at disjoint,
    /// set-decorrelated addresses.
    pub fn generate(&self, seed: u64, slot: u32) -> Program {
        assert!(self.blocks >= 2, "need at least two basic blocks");
        assert!(
            self.block_len.0 >= 2,
            "blocks need room for a compare before the branch"
        );
        assert!(!self.regions.is_empty(), "need at least one data region");
        assert!(self.dep_window >= 1, "dependency window must be at least 1");
        assert!(self.trip.0 >= 1, "loop trip counts must be at least 1");

        let mut rng = Rng::new(seed ^ (u64::from(slot) << 32) ^ hash_name(self.name));

        // Per-slot address window, jittered by a few cache lines so slots do
        // not alias into identical I/D-cache sets.
        let window = 0x0800_0000u64;
        let code_base = u64::from(slot) * window + 0x0001_0000 + (rng.next() % 256) * 64;

        // ---- Pass 1: plan block shapes so all start addresses are known. --
        let plans = self.plan_blocks(&mut rng);
        let func_plans: Vec<usize> = (0..self.functions)
            .map(|_| self.draw_body_len(&mut rng))
            .collect();

        let mut starts = Vec::with_capacity(self.blocks);
        let mut pc = code_base;
        for p in &plans {
            starts.push(pc);
            pc += (p.body as u64 + 1) * INST_BYTES;
        }
        let mut func_starts = Vec::with_capacity(self.functions);
        for body in &func_plans {
            func_starts.push(pc);
            pc += (*body as u64 + 1) * INST_BYTES;
        }

        // ---- Data regions, laid out past the code. ----------------------
        let mut regions = Vec::with_capacity(self.regions.len());
        let mut data_base = u64::from(slot) * window + 0x0400_0000 + (rng.next() % 512) * 64;
        for spec in &self.regions {
            let size = spec.size.next_multiple_of(4096);
            regions.push(Region {
                base: data_base,
                size,
            });
            data_base += size + 4096;
        }
        let weight_total: u64 = self.regions.iter().map(|r| u64::from(r.weight)).sum();
        assert!(weight_total > 0, "region weights must not all be zero");

        // ---- Pass 2: emit instructions and side tables. -----------------
        let mut code = Vec::new();
        let mut branches: Vec<BranchModel> = Vec::new();
        let mut mems: Vec<MemModel> = Vec::new();
        let mut seq = RegSeq::new();

        let emit_mem = |rng: &mut Rng, mems: &mut Vec<MemModel>, seq: &mut RegSeq| {
            let mut pick = rng.next() % weight_total;
            let mut region = 0usize;
            for (i, spec) in self.regions.iter().enumerate() {
                if pick < u64::from(spec.weight) {
                    region = i;
                    break;
                }
                pick -= u64::from(spec.weight);
            }
            let pattern = match self.regions[region].pattern {
                PatternSpec::Stride(stride) => MemPattern::Stride {
                    region: region as u16,
                    stride,
                },
                PatternSpec::Random => MemPattern::Random {
                    region: region as u16,
                },
            };
            let meta = mems.len() as u32;
            mems.push(MemModel { pattern });
            let addr_reg = seq.int_back(1 + rng.next() % self.dep_window as u64);
            (meta, addr_reg)
        };

        let emit_body = |rng: &mut Rng,
                         code: &mut Vec<StaticInst>,
                         mems: &mut Vec<MemModel>,
                         seq: &mut RegSeq,
                         n: usize,
                         cmp_last: bool|
         -> Option<Reg> {
            let plain = if cmp_last { n - 1 } else { n };
            for _ in 0..plain {
                let d1 = 1 + rng.next() % self.dep_window as u64;
                let d2 = 1 + rng.next() % self.dep_window as u64;
                let r = rng.next() % 1000;
                let is_fp = rng.milli(self.fp_milli);
                let inst = if r < u64::from(self.load_milli) {
                    let (meta, addr) = emit_mem(rng, mems, seq);
                    let op = if is_fp { Opcode::FpLoad } else { Opcode::Load };
                    let dest = if is_fp { seq.next_fp() } else { seq.next_int() };
                    StaticInst::op2(op, dest, addr).with_meta(meta)
                } else if r < u64::from(self.load_milli + self.store_milli) {
                    let (meta, addr) = emit_mem(rng, mems, seq);
                    let (op, value) = if is_fp {
                        (Opcode::FpStore, seq.fp_back(d1))
                    } else {
                        (Opcode::Store, seq.int_back(d1))
                    };
                    StaticInst {
                        op,
                        dest: None,
                        srcs: [Some(value), Some(addr)],
                        meta,
                    }
                } else if is_fp {
                    let op = if rng.milli(self.fp_div_milli) {
                        if rng.milli(500) {
                            Opcode::FpDivSingle
                        } else {
                            Opcode::FpDivDouble
                        }
                    } else {
                        Opcode::FpOp
                    };
                    let s1 = seq.fp_back(d1);
                    let s2 = seq.fp_back(d2);
                    StaticInst::op3(op, seq.next_fp(), s1, s2)
                } else {
                    let op = if rng.milli(self.int_mul_milli) {
                        if rng.milli(700) {
                            Opcode::IntMul
                        } else {
                            Opcode::IntMulLong
                        }
                    } else if rng.milli(60) {
                        Opcode::CondMove
                    } else {
                        Opcode::IntAlu
                    };
                    let s1 = seq.int_back(d1);
                    let s2 = seq.int_back(d2);
                    StaticInst::op3(op, seq.next_int(), s1, s2)
                };
                code.push(inst);
            }
            if cmp_last {
                let d = 1 + rng.next() % self.dep_window as u64;
                let src = seq.int_back(d);
                let dest = seq.next_int();
                code.push(StaticInst::op2(Opcode::Compare, dest, src));
                Some(dest)
            } else {
                None
            }
        };

        for (i, plan) in plans.iter().enumerate() {
            let cmp_last = matches!(plan.term, Term::Loop { .. } | Term::Fwd { .. });
            let cmp = emit_body(
                &mut rng, &mut code, &mut mems, &mut seq, plan.body, cmp_last,
            );
            let term = match plan.term {
                Term::Loop { back, trip } => {
                    let meta = branches.len() as u32;
                    branches.push(BranchModel {
                        behavior: BranchBehavior::Loop { trip },
                        taken_target: starts[i.saturating_sub(back)],
                        targets: vec![],
                    });
                    StaticInst {
                        op: Opcode::CondBranch,
                        dest: None,
                        srcs: [cmp, None],
                        meta,
                    }
                }
                Term::Fwd { skip } => {
                    // Real branch populations are bimodal: most static
                    // branches are strongly biased one way (and thus very
                    // predictable); only a minority behave like coin flips
                    // shaped by the profile's `taken_milli`.
                    let bias = {
                        let r = rng.next() % 1000;
                        if r < 380 {
                            20 + (rng.next() % 90) as u16
                        } else if r < 760 {
                            890 + (rng.next() % 90) as u16
                        } else {
                            self.taken_milli
                        }
                    };
                    let meta = branches.len() as u32;
                    branches.push(BranchModel {
                        behavior: BranchBehavior::Bernoulli { taken_milli: bias },
                        taken_target: starts[(i + skip).min(self.blocks - 1)],
                        targets: vec![],
                    });
                    StaticInst {
                        op: Opcode::CondBranch,
                        dest: None,
                        srcs: [cmp, None],
                        meta,
                    }
                }
                Term::Call { func } => {
                    let meta = branches.len() as u32;
                    branches.push(BranchModel {
                        behavior: BranchBehavior::Bernoulli { taken_milli: 1000 },
                        taken_target: func_starts[func],
                        targets: vec![],
                    });
                    StaticInst {
                        op: Opcode::Call,
                        dest: Some(Reg::int(LINK_REG)),
                        srcs: [None, None],
                        meta,
                    }
                }
                Term::Jump { skip } => {
                    let meta = branches.len() as u32;
                    branches.push(BranchModel {
                        behavior: BranchBehavior::Bernoulli { taken_milli: 1000 },
                        taken_target: starts[(i + skip).min(self.blocks - 1)],
                        targets: vec![],
                    });
                    StaticInst::op0(Opcode::Jump).with_meta(meta)
                }
                Term::Indirect => {
                    let mut targets: Vec<_> = (0..2 + rng.next() % 3)
                        .map(|d| starts[(i + 1 + d as usize).min(self.blocks - 1)])
                        .collect();
                    targets.dedup();
                    let meta = branches.len() as u32;
                    branches.push(BranchModel {
                        behavior: BranchBehavior::Bernoulli { taken_milli: 1000 },
                        taken_target: targets[0],
                        targets,
                    });
                    StaticInst::op0(Opcode::JumpInd).with_meta(meta)
                }
                Term::Restart => {
                    let meta = branches.len() as u32;
                    branches.push(BranchModel {
                        behavior: BranchBehavior::Bernoulli { taken_milli: 1000 },
                        taken_target: starts[0],
                        targets: vec![],
                    });
                    StaticInst::op0(Opcode::Jump).with_meta(meta)
                }
            };
            code.push(term);
        }

        for body in &func_plans {
            emit_body(&mut rng, &mut code, &mut mems, &mut seq, *body, false);
            code.push(StaticInst {
                op: Opcode::Return,
                dest: None,
                srcs: [Some(Reg::int(LINK_REG)), None],
                meta: NO_META,
            });
        }

        let program = Program {
            name: self.name.to_string(),
            code_base,
            code,
            branches,
            mems,
            regions,
            entry: code_base,
        };
        debug_assert_eq!(program.validate(), Ok(()));
        program
    }

    fn draw_body_len(&self, rng: &mut Rng) -> usize {
        rng.range(self.block_len.0 as u64, self.block_len.1 as u64) as usize
    }

    fn plan_blocks(&self, rng: &mut Rng) -> Vec<BlockPlan> {
        (0..self.blocks)
            .map(|i| {
                let body = self.draw_body_len(rng);
                let term = if i == self.blocks - 1 {
                    Term::Restart
                } else {
                    let r = rng.next() % 1000;
                    let lp = u64::from(self.loop_milli);
                    let call = lp + u64::from(self.call_milli);
                    let jmp = call + u64::from(self.jump_milli);
                    let ind = jmp + u64::from(self.indirect_milli);
                    if r < lp {
                        // Mostly tight single-block loops (the back-edge
                        // targets its own block, so the loop cannot be
                        // escaped mid-body) — these are the hot inner loops
                        // that give real programs their I-cache locality.
                        // A minority span a few blocks and behave like
                        // loosely-structured outer loops.
                        let back = if rng.milli(750) {
                            0
                        } else {
                            (1 + rng.next() as usize % 3).min(i.max(1))
                        };
                        Term::Loop {
                            back,
                            trip: rng.range(u64::from(self.trip.0), u64::from(self.trip.1)) as u32,
                        }
                    } else if r < call && self.functions > 0 {
                        Term::Call {
                            func: rng.next() as usize % self.functions,
                        }
                    } else if r < jmp {
                        Term::Jump {
                            skip: 1 + rng.next() as usize % 2,
                        }
                    } else if r < ind {
                        Term::Indirect
                    } else {
                        Term::Fwd {
                            skip: 1 + rng.next() as usize % 3,
                        }
                    }
                };
                BlockPlan { body, term }
            })
            .collect()
    }
}

// Not FNV-1a: the multiplier is 0x1000_0000_01b3, not the FNV prime
// 0x100_0000_01b3. It seeds every synthetic program behind the goldens.
fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> ProfileParams {
        ProfileParams {
            name: "unit",
            blocks: 40,
            block_len: (3, 8),
            load_milli: 200,
            store_milli: 100,
            fp_milli: 0,
            int_mul_milli: 20,
            fp_div_milli: 0,
            loop_milli: 250,
            call_milli: 100,
            jump_milli: 50,
            indirect_milli: 30,
            trip: (2, 16),
            taken_milli: 400,
            dep_window: 6,
            functions: 3,
            regions: vec![
                RegionSpec {
                    size: 64 * 1024,
                    pattern: PatternSpec::Stride(8),
                    weight: 3,
                },
                RegionSpec {
                    size: 256 * 1024,
                    pattern: PatternSpec::Random,
                    weight: 1,
                },
            ],
        }
    }

    #[test]
    fn generated_program_validates() {
        let p = small_params().generate(1, 0);
        assert_eq!(p.validate(), Ok(()));
        assert!(p.len() > 40 * 4);
        assert!(p.branch_count() > 0);
        assert!(p.mem_count() > 0);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_params().generate(7, 2);
        let b = small_params().generate(7, 2);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.code_base(), b.code_base());
        assert_eq!(a.inst_at(a.entry()), b.inst_at(b.entry()));
    }

    #[test]
    fn slots_get_disjoint_address_windows() {
        let a = small_params().generate(7, 0);
        let b = small_params().generate(7, 1);
        assert!(a.code_base() + a.code_bytes() <= b.code_base());
        let a_end = a.regions().iter().map(|r| r.base + r.size).max().unwrap();
        assert!(
            a_end <= b.code_base(),
            "slot 0 data must not overlap slot 1 code"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = small_params().generate(1, 0);
        let b = small_params().generate(2, 0);
        // Same geometry parameters, but the drawn shapes should diverge.
        assert!(a.len() != b.len() || a.code_base() != b.code_base());
    }
}
