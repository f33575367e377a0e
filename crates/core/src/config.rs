//! Simulator configuration: the public builder that wires every crate
//! together.
//!
//! [`SimConfig`] carries the machine description (fetch/issue policies,
//! fetch partition, queue and register-file sizes, cache and predictor
//! configurations) plus the workload, and [`SimConfig::build`] produces a
//! runnable [`Simulator`]. All fields are public: anything can be swapped,
//! including user-defined policies — see the `FetchPolicy` trait.

use std::sync::Arc;

use smt_branch::PredictorConfig;
use smt_mem::MemConfig;
use smt_workload::{standard_mix, Benchmark, Program, RiscvImage, TraceImage};

use crate::ablation::{Ablation, Ablations};
use crate::pipeline::Simulator;
use crate::policy::{FetchPartition, FetchPolicy, ICount, IssuePolicy, OldestFirst};

/// Maximum number of hardware contexts supported.
pub const MAX_THREADS: usize = 32;

/// One hardware context's instruction source: which workload backend the
/// thread runs. The variants mirror the `smt-workload` backends — the
/// synthetic generator (by benchmark profile or pre-generated image), a
/// functionally executed RISC-V binary, or a recorded trace replayed
/// allocation-free. [`SimConfig::workloads`] holds one per context.
#[derive(Clone)]
pub enum WorkloadSpec {
    /// Synthetic program generated at build time from the benchmark
    /// profile, the configuration seed and the context's slot.
    Benchmark(Benchmark),
    /// A pre-generated synthetic program image, shared rather than
    /// regenerated (a sweep generates each mix once per seed).
    Program(Arc<Program>),
    /// A loaded rv32i/rv64i binary, decoded and functionally executed.
    Elf(Arc<RiscvImage>),
    /// A recorded instruction trace, replayed without execution.
    Trace(Arc<TraceImage>),
}

impl WorkloadSpec {
    /// The thread label this workload produces in reports.
    pub fn name(&self) -> &str {
        match self {
            WorkloadSpec::Benchmark(b) => b.name(),
            WorkloadSpec::Program(p) => p.name(),
            WorkloadSpec::Elf(img) => img.name(),
            WorkloadSpec::Trace(t) => t.name(),
        }
    }
}

impl std::fmt::Debug for WorkloadSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self {
            WorkloadSpec::Benchmark(_) => "benchmark",
            WorkloadSpec::Program(_) => "program",
            WorkloadSpec::Elf(_) => "elf",
            WorkloadSpec::Trace(_) => "trace",
        };
        write!(f, "{kind}:{}", self.name())
    }
}

/// Complete description of one simulation: machine plus workload.
///
/// Defaults reproduce the paper's final machine: ICOUNT.2.8 fetch,
/// OLDEST_FIRST issue, 32-entry per-class instruction queues, 100 renaming
/// registers per class, 6 integer units (4 load/store capable), 3 FP units,
/// the Table-2 memory hierarchy and the Section-2 branch predictor, running
/// the standard 8-thread mix.
pub struct SimConfig {
    /// The workload, one entry per hardware context: its length is the
    /// thread count, and each entry's [`WorkloadSpec::name`] is that
    /// thread's label in reports. Backends mix freely — e.g. a real ELF on
    /// thread 0 next to synthetic threads.
    pub workloads: Vec<WorkloadSpec>,
    /// Master seed for program generation and all stochastic behaviour.
    pub seed: u64,
    /// Fetch policy ranking threads each cycle.
    pub fetch: Box<dyn FetchPolicy>,
    /// Issue policy ordering ready instructions each cycle.
    pub issue: Box<dyn IssuePolicy>,
    /// Fetch partitioning scheme (`T.I`).
    pub partition: FetchPartition,
    /// Memory hierarchy parameters (Table 2).
    pub mem: MemConfig,
    /// Branch predictor parameters.
    pub predictor: PredictorConfig,
    /// Entries per instruction queue (one queue per register class).
    pub iq_entries: usize,
    /// Renaming registers per class beyond the architectural
    /// `32 × contexts`.
    pub extra_phys_regs: usize,
    /// Total integer functional units.
    pub int_units: usize,
    /// How many of the integer units can execute loads/stores.
    pub ldst_units: usize,
    /// Floating-point functional units.
    pub fp_units: usize,
    /// Instructions renamed/dispatched per cycle.
    pub decode_width: usize,
    /// Instructions committed per cycle across all threads.
    pub commit_width: usize,
    /// Per-thread front-end buffer capacity (fetched, not yet renamed).
    pub frontend_depth: usize,
    /// Front-end depth in cycles between fetch and queue insertion
    /// (decode + rename; the paper adds two stages over the 21164).
    pub decode_cycles: u64,
    /// Cycles fetch stalls after a misfetch (taken branch without a target
    /// until decode computes it).
    pub misfetch_penalty: u64,
    /// Cycles simulated before the measurement window opens. The first call
    /// to [`Simulator::run`] simulates this many cycles, then calls
    /// [`Simulator::reset_stats`] so caches, predictor tables and queues are
    /// warm but every reported counter starts from zero. `0` (the default)
    /// measures from the cold start.
    pub warmup_cycles: u64,
    /// Mechanism ablations (Section-4-style attribution switches). Empty by
    /// default: no mechanism is disabled and every hook is inert — see the
    /// [`Ablations`] docs for what each switch removes.
    pub ablations: Ablations,
}

impl SimConfig {
    /// The paper's final machine running the standard 8-thread mix.
    pub fn new() -> SimConfig {
        // Table 2 leaves the MSHR count open; 8 outstanding misses per
        // cycle-80 memory latency would cap miss bandwidth far below what
        // eight contexts generate, so the default machine carries 16.
        let mem = MemConfig {
            mshrs: 16,
            ..MemConfig::default()
        };
        SimConfig {
            workloads: standard_mix()
                .into_iter()
                .map(WorkloadSpec::Benchmark)
                .collect(),
            seed: 42,
            fetch: Box::new(ICount),
            issue: Box::new(OldestFirst),
            partition: FetchPartition::default(),
            mem,
            predictor: PredictorConfig::default(),
            iq_entries: 32,
            extra_phys_regs: 100,
            int_units: 6,
            ldst_units: 4,
            fp_units: 3,
            decode_width: 8,
            commit_width: 12,
            frontend_depth: 8,
            decode_cycles: 2,
            misfetch_penalty: 2,
            warmup_cycles: 0,
            ablations: Ablations::none(),
        }
    }

    /// Sets the warmup window: cycles simulated (and then discarded from the
    /// statistics) before measurement begins. See
    /// [`Simulator::reset_stats`].
    pub fn with_warmup(mut self, cycles: u64) -> SimConfig {
        self.warmup_cycles = cycles;
        self
    }

    /// Replaces the ablation set (see [`Ablations`]).
    pub fn with_ablations(mut self, ablations: Ablations) -> SimConfig {
        self.ablations = ablations;
        self
    }

    /// Adds one ablation to the active set.
    pub fn with_ablation(mut self, ablation: Ablation) -> SimConfig {
        self.ablations = self.ablations.with(ablation);
        self
    }

    /// Replaces the fetch policy.
    pub fn with_fetch(mut self, fetch: Box<dyn FetchPolicy>) -> SimConfig {
        self.fetch = fetch;
        self
    }

    /// Replaces the issue policy.
    pub fn with_issue(mut self, issue: Box<dyn IssuePolicy>) -> SimConfig {
        self.issue = issue;
        self
    }

    /// Replaces the fetch partition.
    pub fn with_partition(mut self, partition: FetchPartition) -> SimConfig {
        self.partition = partition;
        self
    }

    /// Replaces the workload with one synthetic benchmark per hardware
    /// context, and the generation seed.
    pub fn with_benchmarks(self, benchmarks: Vec<Benchmark>, seed: u64) -> SimConfig {
        let workloads = benchmarks.into_iter().map(WorkloadSpec::Benchmark);
        self.with_workloads(workloads.collect()).with_seed(seed)
    }

    /// Replaces the workload, one source per hardware context: any
    /// combination of synthetic, ELF-backed and trace-replay threads.
    pub fn with_workloads(mut self, workloads: Vec<WorkloadSpec>) -> SimConfig {
        self.workloads = workloads;
        self
    }

    /// Replaces the master seed (oracle stochasticity, and program
    /// generation for [`WorkloadSpec::Benchmark`] entries).
    pub fn with_seed(mut self, seed: u64) -> SimConfig {
        self.seed = seed;
        self
    }

    /// Number of hardware contexts this configuration describes.
    pub fn threads(&self) -> usize {
        self.workloads.len()
    }

    /// Builds the simulator, generating program images as needed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no threads, more than
    /// [`MAX_THREADS`], or zero-width structures: queues, units, TLBs, or
    /// MSHRs on a finite-bandwidth memory), or if `mem.perfect_icache` is
    /// set directly instead of through [`Ablation::PerfectICache`].
    pub fn build(self) -> Simulator {
        let threads = self.threads();
        assert!(threads > 0, "at least one hardware context is required");
        assert!(
            threads <= MAX_THREADS,
            "at most {MAX_THREADS} hardware contexts supported"
        );
        assert!(self.iq_entries > 0 && self.decode_width > 0 && self.commit_width > 0);
        assert!(
            self.ldst_units <= self.int_units,
            "load/store units are a subset of int units"
        );
        assert!(self.frontend_depth > 0 && self.int_units > 0 && self.fp_units > 0);
        // An empty TLB has no entry to evict on its first miss, and with no
        // MSHR every cache miss bounces as a bank conflict forever (the
        // infinite-bandwidth machine ignores the MSHR limit).
        assert!(self.mem.itlb_entries > 0, "mem.itlb_entries must be > 0");
        assert!(self.mem.dtlb_entries > 0, "mem.dtlb_entries must be > 0");
        assert!(
            self.mem.mshrs > 0 || self.mem.infinite_bandwidth,
            "mem.mshrs must be > 0 unless mem.infinite_bandwidth is set"
        );
        // One spelling of a perfect I-cache, so the report's `ablations`
        // always lists it: the simulator sets the field from the ablation.
        assert!(
            !self.mem.perfect_icache,
            "set Ablation::PerfectICache, not mem.perfect_icache"
        );
        Simulator::new(self)
    }
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig::new()
    }
}

impl std::fmt::Debug for SimConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimConfig")
            .field("workloads", &self.workloads)
            .field("seed", &self.seed)
            .field("fetch", &self.fetch.name())
            .field("issue", &self.issue.name())
            .field("partition", &self.partition)
            .field("iq_entries", &self.iq_entries)
            .field("extra_phys_regs", &self.extra_phys_regs)
            .field("ablations", &self.ablations.to_string())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_machine() {
        let c = SimConfig::new();
        assert_eq!(c.threads(), 8);
        assert_eq!(c.partition, FetchPartition::new(2, 8));
        assert_eq!(c.fetch.name(), "ICOUNT");
        assert_eq!(c.issue.name(), "OLDEST_FIRST");
        assert_eq!(c.iq_entries, 32);
        assert_eq!(c.extra_phys_regs, 100);
        assert_eq!(c.int_units, 6);
        assert_eq!(c.ldst_units, 4);
        assert_eq!(c.fp_units, 3);
    }

    #[test]
    fn builder_methods_chain() {
        let c = SimConfig::new()
            .with_fetch(Box::new(crate::policy::RoundRobin))
            .with_partition(FetchPartition::new(1, 8))
            .with_warmup(5_000)
            .with_benchmarks(vec![Benchmark::Espresso, Benchmark::Tomcatv], 7);
        assert_eq!(c.fetch.name(), "RR");
        assert_eq!(c.partition.to_string(), "1.8");
        assert_eq!(c.threads(), 2);
        assert_eq!(c.seed, 7);
        assert_eq!(c.warmup_cycles, 5_000);
    }

    fn with_mem(edit: fn(&mut MemConfig)) -> SimConfig {
        let mut c = SimConfig::new().with_benchmarks(vec![Benchmark::Espresso], 7);
        edit(&mut c.mem);
        c
    }

    #[test]
    #[should_panic(expected = "mem.mshrs must be > 0")]
    fn build_refuses_a_machine_without_mshrs() {
        with_mem(|m| m.mshrs = 0).build();
    }

    #[test]
    #[should_panic(expected = "mem.itlb_entries must be > 0")]
    fn build_refuses_an_empty_itlb() {
        with_mem(|m| m.itlb_entries = 0).build();
    }

    #[test]
    #[should_panic(expected = "mem.dtlb_entries must be > 0")]
    fn build_refuses_an_empty_dtlb() {
        with_mem(|m| m.dtlb_entries = 0).build();
    }

    #[test]
    #[should_panic(expected = "Ablation::PerfectICache")]
    fn build_refuses_a_perfect_icache_outside_the_ablations() {
        with_mem(|m| m.perfect_icache = true).build();
    }

    /// Infinite bandwidth ignores the MSHR limit, so zero MSHRs still run.
    #[test]
    fn infinite_bandwidth_runs_without_mshrs() {
        let mut sim = with_mem(|m| {
            m.mshrs = 0;
            m.infinite_bandwidth = true;
        })
        .build();
        assert!(sim.run(2_000).total_committed() > 0);
    }

    #[test]
    fn ablations_default_empty_and_chain() {
        assert!(SimConfig::new().ablations.is_empty());
        let c = SimConfig::new()
            .with_ablation(Ablation::PerfectICache)
            .with_ablation(Ablation::InfiniteFrontendQueues);
        assert!(c.ablations.contains(Ablation::PerfectICache));
        assert!(c.ablations.contains(Ablation::InfiniteFrontendQueues));
        assert!(!c.ablations.contains(Ablation::PerfectBranchPrediction));
        let c = SimConfig::new().with_ablations(Ablations::all());
        assert_eq!(c.ablations, Ablations::all());
        assert!(format!("{c:?}").contains("perfect_icache"));
    }

    /// Every workload installer replaces the whole list: the last one wins
    /// in `threads()`, in `Debug`, in the report's thread labels, and an
    /// empty last list is refused at build time.
    #[test]
    fn the_last_workload_installer_wins() {
        fn mixed() -> Vec<WorkloadSpec> {
            vec![
                WorkloadSpec::Program(Arc::new(Benchmark::Xlisp.generate(3, 0))),
                WorkloadSpec::Benchmark(Benchmark::Alvinn),
            ]
        }
        fn pair() -> Vec<Benchmark> {
            vec![Benchmark::Espresso, Benchmark::Tomcatv]
        }
        type Install = fn(SimConfig) -> SimConfig;
        let cases: [(Install, &[&str]); 6] = [
            (
                |c| c.with_workloads(mixed()).with_benchmarks(pair(), 7),
                &["benchmark:espresso", "benchmark:tomcatv"],
            ),
            (
                |c| c.with_benchmarks(pair(), 7).with_workloads(mixed()),
                &["program:xlisp", "benchmark:alvinn"],
            ),
            (
                |c| {
                    c.with_workloads(mixed())
                        .with_workloads(mixed()[..1].to_vec())
                },
                &["program:xlisp"],
            ),
            (|c| c.with_benchmarks(pair(), 7).with_workloads(vec![]), &[]),
            (
                |c| c.with_workloads(mixed()).with_benchmarks(vec![], 7),
                &[],
            ),
            (|c| c.with_workloads(vec![]), &[]),
        ];
        for (install, expected) in cases {
            let cfg = install(SimConfig::new());
            let debug = format!("{cfg:?}");
            assert!(
                debug.contains(&format!("workloads: [{}]", expected.join(", "))),
                "{expected:?} not installed: {debug}"
            );
            assert_eq!(cfg.threads(), expected.len(), "{debug}");
            if expected.is_empty() {
                let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cfg.build()));
                let message = built.err().expect("an empty workload must not build");
                let message = message.downcast_ref::<&str>().copied().unwrap_or_default();
                assert!(message.contains("at least one hardware context"), "{debug}");
                continue;
            }
            let report = cfg.build().run(50);
            let labels: Vec<&str> = report.threads.iter().map(|t| &*t.benchmark).collect();
            let names: Vec<&str> = expected
                .iter()
                .map(|e| e.split_once(':').unwrap().1)
                .collect();
            assert_eq!(labels, names, "{debug}");
        }
    }
}
