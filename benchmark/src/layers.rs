//! The traced run: one traced trial of the workload plus a probe of every
//! layer, each timed from outside around public calls.
//!
//! Every traced run reports every per-layer metric. A probe takes its
//! input from the workload where the workload has one (the hot-loop mix,
//! the sweep's cells) and from a fixed reference input otherwise (the
//! checked-in ELFs, a 12-cell fork set), so no time ever reads as a
//! placeholder zero.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use smt_branch::BranchPredictor;
use smt_core::{
    fetch_policy_by_name, FetchPartition, FleetCell, SimConfig, SimFleet, SimReport, Simulator,
    WorkloadSpec,
};
use smt_experiments::journal::Journal;
use smt_experiments::study::{resolve_mix, MixImages};
use smt_experiments::warmup::{canonical_config_for, fork_cell, try_fork_cell, warm_checkpoint};
use smt_isa::{Addr, Opcode, Outcome, StaticInst, ThreadId};
use smt_mem::{AccessResult, MemoryHierarchy};
use smt_stats::binio::{BinReader, BinWriter};
use smt_stats::json::Json;
use smt_workload::{
    RiscvImage, RiscvSource, SyntheticSource, TraceImage, TraceSource, WorkloadSource,
};

use crate::measure::{fnv1a, median, median_ns, percentile, timed, Metric};
use crate::replica::{ablation_replica, issue_replica, Mode};
use crate::spans::{self_ns_by_name, Tracer};
use crate::workloads::{
    hot_config, hot_setup, report_digest, run_sweeps, study_mixes, sweep_configs, Kind, Scale,
    SweepDirs, Sweeps, Workload, IMAGE_SEED, JOBS, PAPER_IPC, STUDY_MIXES,
};

/// Cycles per `core.step_cycle` span.
const BATCH_CYCLES: u64 = 1024;

/// What the untraced build measured on this workload and seed: the
/// baseline of `trace.overhead_pct` and of the cross-build digest check.
pub struct Untraced {
    pub wall_s: f64,
    pub digests: Vec<(String, u64)>,
}

/// Everything a traced run produced.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Traced {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    fn put_exact(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::exact(name, value, unit));
    }

    /// Counts one checked operation, failed unless `ok`.
    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(why());
        }
    }
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole * 100.0
    }
}

/// The seven phase accumulators of the cycle driver, zero in a build
/// without the probes (which `main` refuses to trace with).
fn phase_ns() -> [u64; 7] {
    #[cfg(feature = "traced")]
    return smt_core::pipeline_phase_ns();
    #[cfg(not(feature = "traced"))]
    [0; 7]
}

/// One hot-loop trial under the tracer: the untraced protocol, with the
/// measured window stepped in `BATCH_CYCLES` spans.
struct HotProbe {
    images: MixImages,
    sim: Simulator,
    report: SimReport,
    wall_ns: f64,
    /// Nanoseconds per cycle of each batch.
    cycle_ns: Vec<f64>,
    phase_ns: [u64; 7],
}

fn hot_section(t: &mut Tracer, mix: &str, seed: u64, scale: &Scale) -> Result<HotProbe, String> {
    t.next_trace();
    let trial = t.enter("hot_trial");
    let (images, mut sim) = t.scope("setup", || hot_setup(mix, seed, scale.hot_warmup))?;
    let phases_before = phase_ns();
    let measure = t.enter("measure");
    let start = Instant::now();
    let mut cycle_ns = Vec::new();
    let mut remaining = scale.hot_cycles;
    while remaining > 0 {
        let n = remaining.min(BATCH_CYCLES);
        let batch = Instant::now();
        t.scope("step_batch", || {
            for _ in 0..n {
                sim.step_cycle();
            }
        });
        cycle_ns.push(batch.elapsed().as_nanos() as f64 / n as f64);
        remaining -= n;
    }
    let report = sim.report();
    let wall_ns = start.elapsed().as_nanos() as f64;
    t.exit(measure);
    t.exit(trial);
    let phases_after = phase_ns();
    Ok(HotProbe {
        images,
        sim,
        report,
        wall_ns,
        cycle_ns,
        phase_ns: std::array::from_fn(|i| phases_after[i] - phases_before[i]),
    })
}

/// The workload sources exactly as `Simulator` builds them for `images`.
fn sources(images: &MixImages, seed: u64) -> Vec<Box<dyn WorkloadSource>> {
    let synthetic =
        |program: &Arc<smt_workload::Program>, slot: usize| -> Box<dyn WorkloadSource> {
            Box::new(SyntheticSource::new(
                program.clone(),
                seed ^ (slot as u64).wrapping_mul(0x9e37),
            ))
        };
    match images {
        MixImages::Programs(programs) => programs
            .iter()
            .enumerate()
            .map(|(i, p)| synthetic(p, i))
            .collect(),
        MixImages::Workloads(specs) => specs
            .iter()
            .enumerate()
            .map(|(i, spec)| match spec {
                WorkloadSpec::Benchmark(b) => synthetic(&Arc::new(b.generate(seed, i as u32)), i),
                WorkloadSpec::Program(p) => synthetic(p, i),
                WorkloadSpec::Elf(image) => {
                    Box::new(RiscvSource::new(image.clone())) as Box<dyn WorkloadSource>
                }
                WorkloadSpec::Trace(trace) => Box::new(TraceSource::new(trace.clone())),
            })
            .collect(),
    }
}

/// One recorded correct-path step.
#[derive(Clone, Copy)]
struct Step {
    pc: Addr,
    inst: StaticInst,
    out: Outcome,
}

/// Steps every source `insts` times, returning the streams and the
/// nanoseconds per `step` call.
fn record_streams(srcs: &mut [Box<dyn WorkloadSource>], insts: usize) -> (Vec<Vec<Step>>, f64) {
    let mut streams = Vec::with_capacity(srcs.len());
    let start = Instant::now();
    for src in srcs.iter_mut() {
        let mut stream = Vec::with_capacity(insts);
        for _ in 0..insts {
            let pc = src.pc();
            let (inst, out) = src.step();
            stream.push(Step { pc, inst, out });
        }
        streams.push(stream);
    }
    let ns = start.elapsed().as_nanos() as f64;
    (streams, ns / (srcs.len() * insts).max(1) as f64)
}

/// Replays per-thread address lists into a fresh hierarchy, `per_cycle`
/// accesses a cycle round-robin over the threads, with `begin_cycle` and a
/// completion drain every cycle. A bounced access retries next cycle.
/// Returns (elapsed ns, access calls, cycles).
fn replay_mem(
    cfg: &smt_mem::MemConfig,
    lists: &[Vec<(Addr, bool)>],
    per_cycle: usize,
    access: impl Fn(&mut MemoryHierarchy, ThreadId, Addr, bool) -> AccessResult,
) -> (f64, u64, u64) {
    let mut mem = MemoryHierarchy::new(cfg.clone());
    let mut cursor = vec![0usize; lists.len()];
    let mut left: usize = lists.iter().map(Vec::len).sum();
    let mut done = Vec::new();
    let (mut calls, mut cycle, mut turn) = (0u64, 0u64, 0usize);
    let start = Instant::now();
    while left > 0 {
        cycle += 1;
        mem.begin_cycle(cycle);
        let mut issued = 0;
        let mut tried = 0;
        while issued < per_cycle && tried < lists.len() {
            let th = turn % lists.len();
            turn += 1;
            tried += 1;
            let Some(&(addr, write)) = lists[th].get(cursor[th]) else {
                continue;
            };
            calls += 1;
            issued += 1;
            if access(&mut mem, ThreadId(th as u8), addr, write) != AccessResult::BankConflict {
                cursor[th] += 1;
                left -= 1;
            }
        }
        mem.drain_completions_into(&mut done);
        done.clear();
    }
    black_box(mem.stats());
    (start.elapsed().as_nanos() as f64, calls, cycle)
}

/// Leaf costs of the hot loop, replayed from the workload's own streams.
struct Leaves {
    step_ns: f64,
    wrong_inst_ns: f64,
    dcache_ns: f64,
    icache_ns: f64,
    idle_cycle_ns: f64,
    branch_ns: f64,
}

fn leaf_replays(t: &mut Tracer, hot: &HotProbe, seed: u64, scale: &Scale) -> Leaves {
    let span = t.enter("leaf_replays");
    let mut srcs = sources(&hot.images, seed);
    let (streams, step_ns) = t.scope("workload.step", || {
        record_streams(&mut srcs, scale.replay_insts)
    });

    let wrong_inst_ns = t.scope("workload.wrong_inst", || {
        let start = Instant::now();
        let mut n = 0u64;
        for (src, stream) in srcs.iter().zip(&streams) {
            for s in stream {
                black_box(src.wrong_inst_at(s.pc));
                n += 1;
            }
        }
        start.elapsed().as_nanos() as f64 / n.max(1) as f64
    });

    let machine = hot_config(&hot.images, seed);
    let mem_cfg = &machine.mem;
    let idle_cycle_ns = t.scope("mem.begin_cycle_idle", || {
        let mut mem = MemoryHierarchy::new(mem_cfg.clone());
        let mut done = Vec::new();
        let cycles = (scale.replay_insts as u64 * 4).max(1);
        let start = Instant::now();
        for c in 1..=cycles {
            mem.begin_cycle(c);
            mem.drain_completions_into(&mut done);
        }
        black_box(&done);
        start.elapsed().as_nanos() as f64 / cycles as f64
    });
    // Busy time of an access path: the replay minus what its cycles would
    // have cost event-free.
    let per_access = |(ns, calls, cycles): (f64, u64, u64)| {
        (ns - cycles as f64 * idle_cycle_ns).max(0.0) / calls.max(1) as f64
    };
    let data: Vec<Vec<(Addr, bool)>> = streams
        .iter()
        .map(|s| {
            s.iter()
                .filter(|x| x.inst.op.is_mem())
                .map(|x| (x.out.mem_addr, x.inst.op.is_store()))
                .collect()
        })
        .collect();
    let dcache_ns = t.scope("mem.dcache_access", || {
        per_access(replay_mem(mem_cfg, &data, 4, |m, th, a, w| {
            m.dcache_access(th, a, w)
        }))
    });
    // A fetch block starts wherever the stream leaves the previous
    // instruction's fall-through or crosses an I-cache line.
    let line = mem_cfg.icache.line_bytes as Addr;
    let blocks: Vec<Vec<(Addr, bool)>> = streams
        .iter()
        .map(|s| {
            let mut prev: Option<Addr> = None;
            s.iter()
                .filter(|x| {
                    let starts =
                        prev.is_none_or(|p| x.pc != p + smt_isa::INST_BYTES || x.pc % line == 0);
                    prev = Some(x.pc);
                    starts
                })
                .map(|x| (x.pc, false))
                .collect()
        })
        .collect();
    let icache_ns = t.scope("mem.icache_fetch", || {
        per_access(replay_mem(mem_cfg, &blocks, 2, |m, th, a, _| {
            m.icache_fetch(th, a)
        }))
    });

    let branch_ns = t.scope("branch.predict_resolve", || {
        let mut bp = BranchPredictor::new(machine.predictor.clone(), streams.len());
        let mut n = 0u64;
        let start = Instant::now();
        for i in 0..scale.replay_insts {
            for (th, stream) in streams.iter().enumerate() {
                let s = stream[i];
                if !s.inst.op.is_control() {
                    continue;
                }
                let thread = ThreadId(th as u8);
                let p = bp.predict(thread, s.pc, s.inst.op);
                if s.inst.op == Opcode::CondBranch {
                    bp.resolve_cond(thread, s.pc, p.pht_index, s.out.taken, s.out.next_pc);
                } else {
                    bp.resolve_uncond(thread, s.pc, s.inst.op, s.out.next_pc);
                }
                n += 1;
            }
        }
        black_box(bp.stats());
        start.elapsed().as_nanos() as f64 / n.max(1) as f64
    });
    t.exit(span);
    Leaves {
        step_ns,
        wrong_inst_ns,
        dcache_ns,
        icache_ns,
        idle_cycle_ns,
        branch_ns,
    }
}

/// Host-time metrics of `smt-core`, `smt-mem`, `smt-branch` and
/// `smt-workload` from the hot-loop trial and its replays.
fn core_metrics(
    out: &mut Traced,
    hot: &HotProbe,
    leaves: &Leaves,
    seed: u64,
) -> Result<(), String> {
    let r = &hot.report;
    let committed = r.total_committed().max(1) as f64;
    out.put("core.step_cycle_ns_p50", median(&hot.cycle_ns), "ns");
    out.put(
        "core.step_cycle_ns_p95",
        percentile(&hot.cycle_ns, 95.0),
        "ns",
    );
    let host_ns_per_inst = hot.wall_ns / committed;
    out.put("core.host_ns_per_inst", host_ns_per_inst, "ns");
    let leaf_ns = leaves.dcache_ns * (r.mem.dcache.accesses + r.mem.bank_conflicts) as f64
        + leaves.icache_ns * r.mem.icache.accesses as f64
        + leaves.idle_cycle_ns * r.cycles as f64
        + leaves.branch_ns * r.pred.predictions as f64
        + leaves.step_ns * r.fetch.fetched as f64;
    out.put(
        "core.pipeline_self_ns_per_inst",
        host_ns_per_inst - leaf_ns / committed,
        "ns",
    );
    let phase_total: u64 = hot.phase_ns.iter().sum();
    for (name, ns) in [
        "core.phase.mem_begin_share",
        "core.phase.miss_completion_share",
        "core.phase.writeback_share",
        "core.phase.commit_share",
        "core.phase.issue_share",
        "core.phase.rename_share",
        "core.phase.fetch_share",
    ]
    .into_iter()
    .zip(hot.phase_ns)
    {
        out.put(name, ns as f64 / phase_total.max(1) as f64, "share");
    }

    let config = || hot_config(&hot.images, seed);
    out.put(
        "core.build_us",
        median_ns(5, || drop(black_box(config().build()))) / 1e3,
        "us",
    );
    let mut checkpoint = Vec::new();
    let save_ns = median_ns(5, || {
        checkpoint.clear();
        hot.sim.save_checkpoint(&mut checkpoint).expect("Vec write");
    });
    out.put("core.checkpoint_save_us", save_ns / 1e3, "us");
    let mut restored = Ok(());
    let restore_ns = median_ns(5, || {
        restored = Simulator::restore_checkpoint(config(), &mut &checkpoint[..]).map(drop);
    });
    restored.map_err(|e| format!("checkpoint restore probe: {e}"))?;
    out.put("core.checkpoint_restore_us", restore_ns / 1e3, "us");
    out.put_exact("core.checkpoint_bytes", checkpoint.len() as f64, "B");

    out.put(
        "core.report_us",
        median_ns(21, || drop(black_box(hot.sim.report()))) / 1e3,
        "us",
    );
    out.put(
        "core.report_to_json_us",
        median_ns(21, || drop(black_box(r.to_json().render()))) / 1e3,
        "us",
    );
    let mut bin = Vec::new();
    let write_ns = median_ns(21, || {
        bin.clear();
        let mut w = BinWriter::new(&mut bin);
        r.write_bin(&mut w)
            .and_then(|()| w.finish())
            .expect("Vec write");
    });
    out.put("core.report_write_bin_us", write_ns / 1e3, "us");
    let mut round_trip = true;
    let read_ns = median_ns(21, || {
        let mut reader = BinReader::new(&bin[..]);
        let back = SimReport::read_bin(&mut reader).and_then(|b| reader.finish().map(|()| b));
        round_trip &= back.is_ok_and(|b| b == *r);
    });
    out.put("core.report_read_bin_us", read_ns / 1e3, "us");
    out.check(round_trip, || {
        "report write_bin/read_bin did not round-trip".to_string()
    });

    out.put("mem.dcache_access_ns", leaves.dcache_ns, "ns");
    out.put("mem.icache_fetch_ns", leaves.icache_ns, "ns");
    out.put("mem.begin_cycle_idle_ns", leaves.idle_cycle_ns, "ns");
    out.put("branch.predict_resolve_ns", leaves.branch_ns, "ns");
    out.put("workload.step_ns", leaves.step_ns, "ns");
    out.put("workload.wrong_inst_ns", leaves.wrong_inst_ns, "ns");
    Ok(())
}

/// Simulated counters summed over reports, for the exact metrics.
#[derive(Default)]
struct Totals {
    cycles: u64,
    committed: u64,
    fetch: [u64; 7],
    issued: u64,
    issue_wrong_path: u64,
    issue_bank_conflicts: u64,
    squashes: u64,
    squashed_insts: u64,
    cond: (u64, u64),
    btb: (u64, u64),
    levels: [(u64, u64); 5],
    mshr_merges: u64,
    mem_bank_conflicts: u64,
    writebacks: u64,
}

impl Totals {
    fn of<'a>(reports: impl Iterator<Item = &'a SimReport>) -> Totals {
        let mut t = Totals::default();
        for r in reports {
            t.cycles += r.cycles;
            t.committed += r.total_committed();
            let f = &r.fetch;
            for (sum, v) in t.fetch.iter_mut().zip([
                f.fetched,
                f.wrong_path,
                f.lost_icache,
                f.lost_bank_conflict,
                f.lost_fragmentation,
                f.lost_frontend_full,
                f.lost_no_thread,
            ]) {
                *sum += v;
            }
            t.issued += r.issue.issued;
            t.issue_wrong_path += r.issue.wrong_path;
            t.issue_bank_conflicts += r.issue.bank_conflicts;
            t.squashes += r.squashes;
            t.squashed_insts += r.squashed_insts;
            t.cond.0 += r.cond_prediction.hits;
            t.cond.1 += r.cond_prediction.total;
            t.btb.0 += r.pred.btb_hits;
            t.btb.1 += r.pred.btb_lookups;
            let m = &r.mem;
            for (sum, level) in t
                .levels
                .iter_mut()
                .zip([m.icache, m.dcache, m.l2, m.l3, m.dtlb])
            {
                sum.0 += level.misses;
                sum.1 += level.accesses;
            }
            t.mshr_merges += m.mshr_merges;
            t.mem_bank_conflicts += m.bank_conflicts;
            t.writebacks += m.writebacks;
        }
        t
    }

    fn ipc(&self) -> f64 {
        self.committed as f64 / self.cycles.max(1) as f64
    }
}

/// The exact (simulated) metrics: they repeat bit for bit on one seed.
fn exact_metrics(out: &mut Traced, t: &Totals) {
    let per_kinst = |x: u64| x as f64 / t.committed.max(1) as f64 * 1e3;
    out.put_exact("core.ipc", t.ipc(), "inst/cycle");
    let slots: u64 = t.fetch.iter().sum();
    for (name, v) in [
        "core.fetch.useful_pct",
        "core.fetch.wrong_path_pct",
        "core.fetch.lost_icache_pct",
        "core.fetch.lost_bank_conflict_pct",
        "core.fetch.lost_fragmentation_pct",
        "core.fetch.lost_frontend_full_pct",
        "core.fetch.lost_no_thread_pct",
    ]
    .into_iter()
    .zip(t.fetch)
    {
        out.put_exact(name, pct(v as f64, slots as f64), "%");
    }
    out.put_exact(
        "core.issue.wrong_path_pct",
        pct(
            t.issue_wrong_path as f64,
            (t.issued + t.issue_wrong_path) as f64,
        ),
        "%",
    );
    out.put_exact(
        "core.issue.bank_conflicts_per_kinst",
        per_kinst(t.issue_bank_conflicts),
        "1/kinst",
    );
    out.put_exact(
        "core.squashed_insts_per_kinst",
        per_kinst(t.squashed_insts),
        "1/kinst",
    );
    for (name, (misses, accesses)) in [
        "mem.icache_miss_pct",
        "mem.dcache_miss_pct",
        "mem.l2_miss_pct",
        "mem.l3_miss_pct",
        "mem.dtlb_miss_pct",
    ]
    .into_iter()
    .zip(t.levels)
    {
        out.put_exact(name, pct(misses as f64, accesses as f64), "%");
    }
    out.put_exact(
        "mem.mshr_merges_per_kinst",
        per_kinst(t.mshr_merges),
        "1/kinst",
    );
    out.put_exact(
        "mem.bank_conflicts_per_kinst",
        per_kinst(t.mem_bank_conflicts),
        "1/kinst",
    );
    out.put_exact(
        "mem.writebacks_per_kinst",
        per_kinst(t.writebacks),
        "1/kinst",
    );
    out.put_exact(
        "branch.cond_hit_pct",
        pct(t.cond.0 as f64, t.cond.1 as f64),
        "%",
    );
    out.put_exact(
        "branch.btb_hit_pct",
        pct(t.btb.0 as f64, t.btb.1 as f64),
        "%",
    );
    out.put_exact(
        "branch.squashes_per_kinst",
        per_kinst(t.squashes),
        "1/kinst",
    );
}

/// Probes on the checked-in ELFs: `riscv::decode`, trace record, trace
/// load and trace replay. The same input in every traced run.
fn elf_probes(
    out: &mut Traced,
    t: &mut Tracer,
    repo_root: &Path,
    tmp: &Path,
    scale: &Scale,
) -> Result<(), String> {
    let span = t.enter("elf_probes");
    let mut images = Vec::new();
    for stem in ["loops", "memsum", "gcd"] {
        let path = repo_root.join("testdata/riscv").join(format!("{stem}.elf"));
        images.push(Arc::new(RiscvImage::load(&path)?));
    }
    let decode_ns = t.scope("isa.riscv_decode", || {
        let words: Vec<u32> = images
            .iter()
            .flat_map(|im| im.image_bytes().chunks_exact(4))
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        let passes = (scale.replay_insts * 8 / words.len().max(1)).max(1);
        let start = Instant::now();
        for _ in 0..passes {
            for &w in &words {
                black_box(smt_isa::riscv::decode(black_box(w)));
            }
        }
        start.elapsed().as_nanos() as f64 / (passes * words.len()).max(1) as f64
    });
    out.put("isa.riscv_decode_ns", decode_ns, "ns");

    let (traces, record_s) = timed(|| {
        images
            .iter()
            .map(|im| TraceImage::record(im, scale.replay_insts))
            .collect::<Result<Vec<_>, _>>()
    });
    let traces = traces?;
    out.put("workload.trace_record_ms", record_s * 1e3, "ms");
    std::fs::create_dir_all(tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let mut load_s = 0.0;
    let mut loaded = Vec::new();
    for (i, trace) in traces.iter().enumerate() {
        let path = tmp.join(format!("probe-{i}.trace"));
        let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        trace
            .write_to(std::io::BufWriter::new(file))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let (back, s) = timed(|| TraceImage::load(&path));
        load_s += s;
        loaded.push(Arc::new(back?));
    }
    out.put("workload.trace_load_ms", load_s * 1e3, "ms");
    let mut replay: Vec<Box<dyn WorkloadSource>> = loaded
        .iter()
        .map(|tr| Box::new(TraceSource::new(tr.clone())) as Box<dyn WorkloadSource>)
        .collect();
    let (replayed, trace_step_ns) = record_streams(&mut replay, scale.replay_insts);
    out.put("workload.trace_step_ns", trace_step_ns, "ns");
    // Replay must reproduce execution step for step.
    let mut executed: Vec<Box<dyn WorkloadSource>> = images
        .iter()
        .map(|im| Box::new(RiscvSource::new(im.clone())) as Box<dyn WorkloadSource>)
        .collect();
    let (expected, _) = record_streams(&mut executed, scale.replay_insts);
    let same = replayed.iter().zip(&expected).all(|(a, b)| {
        a.iter()
            .zip(b)
            .all(|(x, y)| (x.pc, x.inst, x.out) == (y.pc, y.inst, y.out))
    });
    out.check(same, || {
        "trace replay diverged from ELF execution".to_string()
    });
    t.exit(span);
    Ok(())
}

/// `smt-stats` probes: JSON render/parse of the sweep document, the
/// work-stealing scheduler over empty items, and checksummed binary I/O.
fn stats_probes(
    out: &mut Traced,
    t: &mut Tracer,
    document: &str,
    scale: &Scale,
) -> Result<(), String> {
    let span = t.enter("stats_probes");
    let mut parsed = Json::parse(document);
    let parse_ns = median_ns(3, || parsed = Json::parse(black_box(document)));
    let parsed = parsed.map_err(|e| format!("study document does not parse: {e}"))?;
    out.put("stats.json_parse_ms", parse_ns / 1e6, "ms");
    let mut rendered = String::new();
    let render_ns = median_ns(3, || rendered = parsed.render());
    out.put("stats.json_render_ms", render_ns / 1e6, "ms");
    out.check(rendered == document, || {
        "JSON parse/render did not round-trip".to_string()
    });

    let items = scale.replay_insts * 5;
    let sched_ns = median_ns(3, || {
        black_box(smt_stats::sched::work_steal_map(items, JOBS, |i| i as u64));
    });
    out.put("stats.sched_item_ns", sched_ns / items as f64, "ns");

    let words = scale.replay_insts as u64 * 25;
    let mut buf = Vec::with_capacity(words as usize * 8 + 8);
    let mut ok = true;
    let io_ns = median_ns(3, || {
        buf.clear();
        let mut w = BinWriter::new(&mut buf);
        for i in 0..words {
            w.u64(i).expect("Vec write");
        }
        w.finish().expect("Vec write");
        let mut r = BinReader::new(&buf[..]);
        let mut sum = 0u64;
        for _ in 0..words {
            sum = sum.wrapping_add(r.u64().unwrap_or(u64::MAX));
        }
        ok &= r.finish().is_ok() && sum == words * (words - 1) / 2;
    });
    out.put(
        "stats.binio_mb_s",
        (words * 16) as f64 / 1e6 / (io_ns / 1e9),
        "MB/s",
    );
    out.check(ok, || "binio write/read did not round-trip".to_string());
    t.exit(span);
    Ok(())
}

/// Twelve forked cells — {rr, icount} × the three study mixes × two seeds,
/// OLDEST_FIRST, 2.8 — run once through `SimFleet` and once through
/// `work_steal_map` + `fork_cell`, both on `JOBS` workers.
fn fork_set_probes(out: &mut Traced, t: &mut Tracer, scale: &Scale) -> Result<(), String> {
    let span = t.enter("fork_set_probes");
    let partition = FetchPartition::new(2, 8);
    let mut keys = Vec::new();
    for mix in STUDY_MIXES {
        for seed in [42u64, 1337] {
            let images = resolve_mix(mix, seed)?;
            let warm = warm_checkpoint(&images, mix, seed, partition, scale.study_warmup, None);
            keys.push((images, seed, warm.checkpoint));
        }
    }
    let cell = |i: usize| -> (SimConfig, Arc<Vec<u8>>) {
        let (images, seed, checkpoint) = &keys[i / 2];
        let fetch = fetch_policy_by_name(["rr", "icount"][i % 2]).expect("shipped policy");
        (
            canonical_config_for(images, *seed, partition).with_fetch(fetch),
            checkpoint.clone(),
        )
    };
    let cells = keys.len() * 2;
    let kips = |reports: &[SimReport], s: f64| {
        reports.iter().map(SimReport::total_committed).sum::<u64>() as f64 / s / 1e3
    };
    let (fleet_reports, fleet_s) = t.scope("core.fleet", || {
        let mut fleet = SimFleet::new().with_jobs(JOBS);
        for i in 0..cells {
            let (cfg, checkpoint) = cell(i);
            fleet.push(FleetCell::forked(cfg, checkpoint, scale.study_cycles));
        }
        timed(|| fleet.run())
    });
    out.put("core.fleet_kips", kips(&fleet_reports, fleet_s), "kinst/s");
    let (fork_reports, fork_s) = t.scope("experiments.fork_path", || {
        timed(|| {
            smt_stats::sched::work_steal_map(cells, JOBS, |i| {
                let (cfg, checkpoint) = cell(i);
                fork_cell(cfg, &checkpoint, scale.study_cycles)
            })
        })
    });
    out.put(
        "experiments.fork_path_kips",
        kips(&fork_reports, fork_s),
        "kinst/s",
    );
    out.check(fleet_reports == fork_reports, || {
        "SimFleet and fork_cell reports differ".to_string()
    });
    t.exit(span);
    Ok(())
}

/// Single-call probes of the sweep layer on the hot-loop images: fork
/// set-up, journal store/load and the warm-checkpoint cache.
fn sweep_call_probes(
    out: &mut Traced,
    t: &mut Tracer,
    hot: &HotProbe,
    mix: &str,
    scale: &Scale,
    tmp: &Path,
) -> Result<(), String> {
    let span = t.enter("sweep_call_probes");
    let partition = FetchPartition::new(2, 8);
    let cache = tmp.join("probe-warm");
    let mut miss = Vec::new();
    for _ in 0..3 {
        SweepDirs::fresh(&cache)?;
        let (warm, s) = timed(|| {
            warm_checkpoint(
                &hot.images,
                mix,
                IMAGE_SEED,
                partition,
                scale.study_warmup,
                Some(&cache),
            )
        });
        out.check(warm.computed && warm.degradations.is_empty(), || {
            "warm-checkpoint cache miss did not compute cleanly".to_string()
        });
        miss.push(s * 1e3);
    }
    out.put("experiments.warm_cache_miss_ms", median(&miss), "ms");
    let mut hit = None;
    let hit_ns = median_ns(5, || {
        hit = Some(warm_checkpoint(
            &hot.images,
            mix,
            IMAGE_SEED,
            partition,
            scale.study_warmup,
            Some(&cache),
        ));
    });
    let hit = hit.expect("probed above");
    out.check(!hit.computed && hit.degradations.is_empty(), || {
        "warm-checkpoint cache hit recomputed".to_string()
    });
    out.put("experiments.warm_cache_hit_us", hit_ns / 1e3, "us");

    let mut forked = Ok(());
    let fork_ns = median_ns(11, || {
        let cfg = canonical_config_for(&hot.images, IMAGE_SEED, partition);
        forked = try_fork_cell(cfg, &hit.checkpoint, 0).map(drop);
    });
    forked.map_err(|e| format!("fork probe: {e}"))?;
    out.put("experiments.fork_setup_us", fork_ns / 1e3, "us");

    let journal =
        Journal::open(&tmp.join("probe-journal")).map_err(|e| format!("probe journal: {e}"))?;
    let mut key = 0u64;
    let mut stored = true;
    let store_ns = median_ns(21, || {
        key += 1;
        stored &= journal.store(key, key, &hot.report).is_ok();
    });
    out.put("experiments.journal_store_us", store_ns / 1e3, "us");
    let mut key = 0u64;
    let mut loaded = true;
    let load_ns = median_ns(21, || {
        key += 1;
        loaded &= journal
            .load(key, key)
            .is_ok_and(|r| r.as_ref() == Some(&hot.report));
    });
    out.put("experiments.journal_load_us", load_ns / 1e3, "us");
    out.check(stored && loaded, || {
        "journal store/load did not round-trip".to_string()
    });
    t.exit(span);
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The sweep section: the traced trial on `JOBS` workers, the same sweep
/// on one worker, and the single-threaded replica — cold into fresh
/// directories, or resumed from one populated pair. Returns the trial.
fn sweep_section(
    out: &mut Traced,
    t: &mut Tracer,
    mixes: &[String],
    mode: Mode,
    scale: &Scale,
    tmp: &Path,
) -> Result<Sweeps, String> {
    let span = t.enter("sweep_section");
    let dirs = SweepDirs::fresh(&tmp.join("trial"))?;
    let cfgs = sweep_configs(mixes, scale, &dirs, JOBS);
    let cells = cfgs.0.cell_count() + cfgs.1.cell_count();
    let (solo_dirs, replica_dirs) = match mode {
        Mode::Cold => (
            SweepDirs::fresh(&tmp.join("solo"))?,
            SweepDirs::fresh(&tmp.join("replica"))?,
        ),
        Mode::Resume => {
            let populate = t.scope("populate", || run_sweeps(&cfgs))?;
            out.check(populate.bad_cells(cells) == 0, || {
                "cold populate lost cells".to_string()
            });
            (dirs.clone(), dirs.clone())
        }
    };
    t.next_trace();
    let trial = t.scope("sweep_trial", || run_sweeps(&cfgs))?;
    let solo_cfgs = sweep_configs(mixes, scale, &solo_dirs, 1);
    let solo = t.scope("sweep_solo", || run_sweeps(&solo_cfgs))?;
    let replica_cfgs = sweep_configs(mixes, scale, &replica_dirs, 1);
    let first_span = t.spans().len();
    let (issue, issue_doc) = issue_replica(t, &replica_cfgs.0, mode)?;
    let (_, ablation_doc) = ablation_replica(t, &replica_cfgs.1, mode)?;
    let replica_spans = &t.spans()[first_span..];
    let replica_ns: u64 = replica_spans
        .iter()
        .filter(|s| s.name.ends_with("_replica"))
        .map(|s| s.duration_ns())
        .sum();

    let bad = trial.bad_cells(cells) + solo.bad_cells(cells);
    out.attempted += cells as u64;
    if bad > 0 {
        out.failed += bad as u64;
        out.failures
            .push(format!("{bad} failed, degraded or missing sweep cell(s)"));
    }
    out.check(trial.same_documents(&solo), || {
        format!("jobs={JOBS} and jobs=1 sweep documents differ")
    });
    out.check(
        issue_doc == solo.issue_doc && ablation_doc == solo.ablation_doc,
        || "replica documents differ from run_study's".to_string(),
    );
    if mode == Mode::Resume {
        out.check(
            trial.issue.journal_loaded + trial.ablation.journal_loaded == cells,
            || "resumed trial re-simulated cells".to_string(),
        );
    }

    let solo_ns = solo.wall_s * 1e9;
    let own = self_ns_by_name(replica_spans);
    for (metric, name) in [
        ("experiments.span.image_load_pct", "image_load"),
        ("experiments.span.warmup_pct", "warmup"),
        ("experiments.span.checkpoint_save_pct", "checkpoint_save"),
        ("experiments.span.fork_restore_pct", "fork_restore"),
        ("experiments.span.measure_pct", "measure"),
        ("experiments.span.journal_store_pct", "journal_store"),
        ("experiments.span.journal_load_pct", "journal_load"),
        ("experiments.span.render_pct", "render"),
    ] {
        out.put(
            metric,
            pct(own.get(name).copied().unwrap_or(0) as f64, solo_ns),
            "%",
        );
    }
    out.put(
        "experiments.driver_overhead_pct",
        pct(solo_ns - replica_ns as f64, solo_ns),
        "%",
    );
    out.put(
        "experiments.parallel_speedup",
        solo.wall_s / trial.wall_s,
        "x",
    );
    out.put("experiments.issue_wall_s", trial.issue_wall_s, "s");
    out.put(
        "experiments.ablation_wall_s",
        trial.wall_s - trial.issue_wall_s,
        "s",
    );
    out.put_exact("experiments.cells", cells as f64, "count");
    out.put_exact(
        "experiments.warmups_performed",
        (trial.issue.warmups_performed + trial.ablation.warmups_performed) as f64,
        "count",
    );
    out.put_exact(
        "experiments.journal_resumed_cells",
        (trial.issue.journal_loaded + trial.ablation.journal_loaded) as f64,
        "count",
    );
    out.put_exact(
        "experiments.checkpoint_dir_mib",
        dir_bytes(&dirs.checkpoints) as f64 / (1 << 20) as f64,
        "MiB",
    );
    out.put_exact(
        "experiments.journal_kib",
        dir_bytes(&dirs.journal) as f64 / 1024.0,
        "KiB",
    );
    // Mean warmed ICOUNT.2.8 over RR.2.8, on the issue sweep's
    // OLDEST_FIRST cells (identical in the replica, checked above).
    let mean_ipc = |fetch: &str| {
        let ipcs: Vec<f64> = issue
            .cells
            .iter()
            .filter(|c| c.fetch == fetch && c.issue == smt_experiments::study::BASELINE_ISSUE)
            .map(|c| c.report.total_ipc())
            .collect();
        ipcs.iter().sum::<f64>() / ipcs.len().max(1) as f64
    };
    out.put_exact(
        "core.icount_rr_gap_pct",
        pct(mean_ipc("ICOUNT") - mean_ipc("RR"), mean_ipc("RR")),
        "%",
    );
    t.exit(span);
    Ok(trial)
}

/// Runs the traced trial and every layer probe for one workload.
pub fn traced_run(
    w: &Workload,
    seed: u64,
    scale: &Scale,
    repo_root: &Path,
    tmp: &Path,
    untraced: &Untraced,
) -> Result<(Traced, Tracer), String> {
    let mut out = Traced {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let mut t = Tracer::new();

    // Hot-loop probes run on the workload's own mix; the sweeps probe the
    // first mix they cover.
    let hot = hot_section(&mut t, &w.mix, seed, scale)?;
    let leaves = leaf_replays(&mut t, &hot, seed, scale);
    core_metrics(&mut out, &hot, &leaves, seed)?;
    out.put(
        "workload.image_build_ms",
        median_ns(3, || drop(black_box(resolve_mix(&w.mix, IMAGE_SEED)))) / 1e6,
        "ms",
    );

    let (mixes, mode) = match w.kind {
        Kind::Hot => (vec![w.mix.clone()], Mode::Cold),
        Kind::StudyCold => (study_mixes(), Mode::Cold),
        Kind::StudyResume => (study_mixes(), Mode::Resume),
    };
    let trial = sweep_section(&mut out, &mut t, &mixes, mode, scale, tmp)?;
    stats_probes(&mut out, &mut t, &trial.issue_doc, scale)?;
    sweep_call_probes(&mut out, &mut t, &hot, &w.mix, scale, tmp)?;
    fork_set_probes(&mut out, &mut t, scale)?;
    elf_probes(&mut out, &mut t, repo_root, tmp, scale)?;

    // The workload's own trial: outputs must match the untraced build's,
    // and its wall against the untraced median is the tracing overhead.
    let (trial_wall_s, totals, digests) = match w.kind {
        Kind::Hot => (
            hot.wall_ns / 1e9,
            Totals::of(std::iter::once(&hot.report)),
            vec![("report_digest", report_digest(&hot.report))],
        ),
        Kind::StudyCold | Kind::StudyResume => (
            trial.wall_s,
            Totals::of(trial.reports()),
            vec![
                ("issue_doc_digest", fnv1a(trial.issue_doc.as_bytes())),
                ("ablation_doc_digest", fnv1a(trial.ablation_doc.as_bytes())),
            ],
        ),
    };
    for (name, digest) in digests {
        let expected = untraced
            .digests
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, d)| d);
        out.check(expected == Some(digest), || {
            format!("traced {name} {digest:#018x} differs from the untraced build's {expected:x?}")
        });
    }
    exact_metrics(&mut out, &totals);
    // The accuracy figure needs the paper's machine on the standard mix
    // at the hot-loop horizon; other mixes have no reference result.
    let reference_ipc = if w.mix == "standard" {
        hot.report.total_ipc()
    } else {
        hot_section(&mut t, "standard", seed, scale)?
            .report
            .total_ipc()
    };
    out.put_exact(
        "core.paper_ipc_err_pct",
        (reference_ipc - PAPER_IPC).abs() / PAPER_IPC * 100.0,
        "%",
    );
    out.put(
        "trace.overhead_pct",
        pct(trial_wall_s - untraced.wall_s, untraced.wall_s),
        "%",
    );
    out.put("trace.spans", t.spans().len() as f64, "count");
    Ok((out, t))
}
