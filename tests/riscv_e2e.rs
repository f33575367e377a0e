//! End-to-end tests for the real-binary workload path: the checked-in
//! rv64i ELF images in `testdata/riscv/` run through the full pipeline
//! under both ICOUNT and RR, reports are pinned deterministic across
//! runs, and a recorded trace replays to a byte-identical report.
//!
//! CI runs this file in release mode as the record/replay gate.

use std::path::PathBuf;
use std::sync::Arc;

use smt::{
    Benchmark, FetchPartition, RiscvImage, RoundRobin, SimConfig, SimReport, TraceImage,
    WorkloadSpec,
};
use smt_experiments::study::resolve_mix;
use smt_experiments::warmup::canonical_config_for;

fn elf_path(stem: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("testdata/riscv")
        .join(format!("{stem}.elf"))
}

fn elf(stem: &str) -> Arc<RiscvImage> {
    Arc::new(RiscvImage::load(&elf_path(stem)).expect("checked-in ELF must load"))
}

fn json(report: &SimReport) -> String {
    report.to_json().render_pretty()
}

/// Four real-binary threads: each checked-in program plus a second copy
/// of `loops`, so one image is shared across two contexts.
fn real_workloads() -> Vec<WorkloadSpec> {
    let loops = elf("loops");
    vec![
        WorkloadSpec::Elf(loops.clone()),
        WorkloadSpec::Elf(elf("memsum")),
        WorkloadSpec::Elf(elf("gcd")),
        WorkloadSpec::Elf(loops),
    ]
}

#[test]
fn elf_workload_runs_under_icount_and_rr() {
    for (label, fetch) in [("ICOUNT", None), ("RR", Some(()))] {
        let mut cfg = SimConfig::new().with_workloads(real_workloads());
        if fetch.is_some() {
            cfg = cfg.with_fetch(Box::new(RoundRobin));
        }
        let report = cfg.build().run(3_000);
        assert_eq!(report.cycles, 3_000);
        assert!(
            report.total_committed() > 1_000,
            "{label}: IPC collapsed on the real workload: {report}"
        );
        for t in &report.threads {
            assert!(t.committed > 0, "{label}: thread {} starved", t.thread);
        }
        // Thread labels come from the image names.
        assert_eq!(report.threads[0].benchmark, "loops");
        assert_eq!(report.threads[1].benchmark, "memsum");
        assert_eq!(report.threads[2].benchmark, "gcd");
    }
}

#[test]
fn elf_reports_are_deterministic_across_runs() {
    let run = |partition| {
        json(
            &SimConfig::new()
                .with_workloads(real_workloads())
                .with_partition(partition)
                .build()
                .run(2_500),
        )
    };
    // Everything — images reloaded from disk, fresh simulators — must
    // reproduce the exact report bytes, run after run.
    assert_eq!(
        run(FetchPartition::new(2, 8)),
        run(FetchPartition::new(2, 8))
    );
    assert_eq!(
        run(FetchPartition::new(1, 8)),
        run(FetchPartition::new(1, 8))
    );
}

#[test]
fn trace_replay_report_is_byte_identical_to_execution() {
    // Record generously: fetch consumes correct-path instructions at most
    // TOTAL_WIDTH per cycle, so 8 × cycles steps can never be exhausted
    // (wrapping mid-run would diverge from the still-executing source).
    let cycles = 2_000u64;
    let steps = (cycles as usize) * 8 + 64;
    let executed: Vec<WorkloadSpec> = real_workloads();
    let replayed: Vec<WorkloadSpec> = executed
        .iter()
        .map(|spec| match spec {
            WorkloadSpec::Elf(img) => WorkloadSpec::Trace(Arc::new(
                TraceImage::record(img, steps).expect("record trace"),
            )),
            other => other.clone(),
        })
        .collect();
    let run = |workloads| {
        json(
            &SimConfig::new()
                .with_workloads(workloads)
                .build()
                .run(cycles),
        )
    };
    let from_execution = run(executed);
    let from_replay = run(replayed);
    assert_eq!(
        from_execution, from_replay,
        "replaying a recorded trace must reproduce the executed report exactly"
    );
}

#[test]
fn trace_files_survive_disk_and_replay_identically() {
    let img = elf("memsum");
    let trace = TraceImage::record(&img, 4_096).expect("record");
    let dir = std::env::temp_dir().join("smt_riscv_e2e");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("memsum.trace");
    let mut bytes = Vec::new();
    trace.write_to(&mut bytes).expect("serialize");
    std::fs::write(&path, &bytes).expect("write trace");
    let loaded = Arc::new(TraceImage::load(&path).expect("load trace"));
    let run = |t: Arc<TraceImage>| {
        json(
            &SimConfig::new()
                .with_workloads(vec![
                    WorkloadSpec::Trace(t),
                    WorkloadSpec::Benchmark(Benchmark::Espresso),
                ])
                .build()
                .run(1_500),
        )
    };
    assert_eq!(run(Arc::new(trace)), run(loaded));
    std::fs::remove_file(&path).ok();
}

#[test]
fn elf_threads_mix_with_synthetic_threads() {
    let report = SimConfig::new()
        .with_workloads(vec![
            WorkloadSpec::Elf(elf("gcd")),
            WorkloadSpec::Benchmark(Benchmark::Espresso),
            WorkloadSpec::Benchmark(Benchmark::Tomcatv),
        ])
        .build()
        .run(3_000);
    assert_eq!(report.threads.len(), 3);
    assert_eq!(report.threads[0].benchmark, "gcd");
    assert_eq!(report.threads[1].benchmark, "espresso");
    for t in &report.threads {
        assert!(t.committed > 0, "thread {} starved: {report}", t.thread);
    }
}

#[test]
fn synthetic_only_configs_ignore_the_workloads_field() {
    // `with_benchmarks` is shorthand for a workloads list of benchmarks:
    // same benchmarks + seed => same report.
    let a = json(
        &SimConfig::new()
            .with_benchmarks(vec![Benchmark::Espresso, Benchmark::Eqntott], 42)
            .build()
            .run(2_000),
    );
    let b = json(
        &SimConfig::new()
            .with_workloads(vec![
                WorkloadSpec::Benchmark(Benchmark::Espresso),
                WorkloadSpec::Benchmark(Benchmark::Eqntott),
            ])
            .with_seed(42)
            .build()
            .run(2_000),
    );
    assert_eq!(
        a, b,
        "a workloads list of benchmarks must behave exactly like with_benchmarks"
    );
}

/// Image, trace and config fingerprints name every `--checkpoint-dir`
/// entry and journal key of a `riscv:`/`trace:` mix, so their values are
/// an on-disk format: a build that moves one orphans every existing cache
/// and journal.
#[test]
fn image_trace_and_config_fingerprints_are_pinned() {
    let loops = elf("loops");
    assert_eq!(loops.fingerprint(), 0xfd61_c686_aeb5_0212);
    let trace = TraceImage::record(&loops, 256).expect("record trace");
    assert_eq!(trace.fingerprint(), 0xfda9_0ada_df28_4219);
    let fingerprint = smt_core::checkpoint::config_fingerprint;
    let mix = SimConfig::new().with_workloads(vec![
        WorkloadSpec::Elf(loops.clone()),
        WorkloadSpec::Elf(elf("memsum")),
        WorkloadSpec::Elf(elf("gcd")),
    ]);
    assert_eq!(fingerprint(&mix), 0x7620_5619_4930_6391);

    // One pin per workload encoding: the untagged all-benchmark list (the
    // default machine), the untagged all-program list (a named mix), and
    // the kind-tagged encoding of a list that mixes backends.
    assert_eq!(fingerprint(&SimConfig::new()), 0x8d53_7edc_4c01_0d80);
    let canonical = |mix: &str| {
        let images = resolve_mix(mix, 42).expect("mix resolves");
        canonical_config_for(&images, 42, FetchPartition::new(2, 8))
    };
    assert_eq!(fingerprint(&canonical("mixed4")), 0x4fbe_0616_e788_9267);
    let mixed = SimConfig::new().with_workloads(vec![
        WorkloadSpec::Elf(loops),
        WorkloadSpec::Program(Arc::new(Benchmark::Espresso.generate(42, 1))),
        WorkloadSpec::Benchmark(Benchmark::Alvinn),
    ]);
    assert_eq!(fingerprint(&mixed), 0x40b2_3903_da26_4dde);
    // A custom mix of benchmark names is an all-program list, so it takes
    // the untagged encoding of a named mix.
    assert_eq!(
        fingerprint(&canonical("espresso+alvinn")),
        0x6b33_9bfa_64da_4ca8
    );
}

/// The fingerprint of a machine whose every identity field is off its
/// default and differs from its same-typed neighbours (the paired bools
/// differ from each other, so one of each pair keeps its default): a swap
/// of two such fields in the encoder, or a field that stops reaching it,
/// moves this literal where the default-valued pins above would not.
#[test]
fn every_config_identity_field_reaches_the_fingerprint() {
    use smt_branch::PredictorConfig;
    use smt_mem::{CacheParams, MemConfig};

    let level = |base: usize| CacheParams {
        size_bytes: base + 1,
        assoc: base + 2,
        line_bytes: base + 3,
        banks: base + 4,
        accesses_per_cycle: base as u32 + 5,
        cycles_per_access: base as u64 + 6,
        transfer_cycles: base as u64 + 7,
        fill_cycles: base as u64 + 8,
        latency_to_next: base as u64 + 9,
    };
    let loops = elf("loops");
    let mut cfg = SimConfig::new()
        .with_workloads(vec![
            WorkloadSpec::Trace(Arc::new(TraceImage::record(&loops, 256).expect("record"))),
            WorkloadSpec::Program(Arc::new(Benchmark::Espresso.generate(42, 1))),
            WorkloadSpec::Elf(loops),
            WorkloadSpec::Benchmark(Benchmark::Alvinn),
        ])
        .with_seed(0x5eed)
        .with_partition(FetchPartition::new(4, 2));
    cfg.mem = MemConfig {
        icache: level(100),
        dcache: level(200),
        l2: level(300),
        l3: level(400),
        itlb_entries: 501,
        dtlb_entries: 502,
        page_bytes: 503,
        mshrs: 504,
        infinite_bandwidth: true,
        perfect_icache: false,
    };
    cfg.predictor = PredictorConfig {
        btb_entries: 601,
        btb_assoc: 602,
        pht_entries: 603,
        ras_entries: 604,
        thread_tagged_btb: false,
        per_thread_ras: true,
    };
    cfg.iq_entries = 701;
    cfg.extra_phys_regs = 702;
    cfg.int_units = 703;
    cfg.ldst_units = 704;
    cfg.fp_units = 705;
    cfg.decode_width = 706;
    cfg.commit_width = 707;
    cfg.frontend_depth = 708;
    cfg.decode_cycles = 709;
    cfg.misfetch_penalty = 710;
    assert_eq!(
        smt_core::checkpoint::config_fingerprint(&cfg),
        0x0f42_c4b0_ec67_4f34
    );
}
