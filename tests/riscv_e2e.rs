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
    // An empty `workloads` list must leave the legacy paths bit-exact:
    // same benchmarks + seed => same report as the with_benchmarks path.
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
    let mix = SimConfig::new().with_workloads(vec![
        WorkloadSpec::Elf(loops),
        WorkloadSpec::Elf(elf("memsum")),
        WorkloadSpec::Elf(elf("gcd")),
    ]);
    assert_eq!(
        smt_core::checkpoint::config_fingerprint(&mix),
        0x7620_5619_4930_6391
    );
}
