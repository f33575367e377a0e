//! Literal pins of the byte streams the `smt_stats::counters!` tables and
//! `smt_stats::persist!` field lists feed: the lossless report stream the
//! sweep journal stores (`SimReport::write_bin`), whole-machine checkpoints
//! (`Simulator::save_checkpoint`, one per kind of instruction source) and
//! the rendered report JSON.
//!
//! Round-trip tests cannot see two same-typed fields swapped consistently
//! in a writer and its reader — and a journal entry or `--checkpoint-dir`
//! file written before such a swap would afterwards be misread with a
//! valid checksum. The report-stream and JSON literals were computed at
//! the commit before the tables existed and pass there too; the
//! checkpoint literals were re-pinned when checkpoint format version 2
//! changed the machine's state layout. ROADMAP.md, "Adding a counter" and
//! "Adding checkpointed state", says what to do when they move.

use std::sync::Arc;

use smt::crates::smt_stats::binio::BinWriter;
use smt::{Benchmark, RiscvImage, SimConfig, TraceImage, WorkloadSpec};

mod common;
use common::pin;

const LAYOUT_CHANGED: &str = "on-disk layout changed: bump `FORMAT_VERSION` and \
                              `JOURNAL_FORMAT_VERSION`, then re-pin";
const CHECKPOINT_CHANGED: &str = "checkpoint layout changed: bump `FORMAT_VERSION`, then re-pin";
const JSON_CHANGED: &str = "report JSON changed: regenerate `tests/golden/*` and \
                            `crates/experiments/tests/golden/*`, then re-pin";

#[test]
fn report_stream_checkpoint_and_json_bytes_are_pinned() {
    let mut sim = SimConfig::new().with_warmup(700).build();
    let r = sim.run(1_300);

    let mut report = Vec::new();
    let mut w = BinWriter::new(&mut report);
    r.write_bin(&mut w).expect("vec write");
    w.finish().expect("vec write");
    pin(
        "SimReport::write_bin",
        &report,
        672,
        0xcf2a_4396_c46b_bf90,
        LAYOUT_CHANGED,
    );

    let mut checkpoint = Vec::new();
    sim.save_checkpoint(&mut checkpoint).expect("vec write");
    pin(
        "Simulator::save_checkpoint",
        &checkpoint,
        372_574,
        0x95f5_d216_96dd_dd7c,
        CHECKPOINT_CHANGED,
    );

    let json = r.to_json().render();
    pin(
        "SimReport::to_json",
        json.as_bytes(),
        1_396,
        0x4727_f057_0920_25bc,
        JSON_CHANGED,
    );
}

/// The instruction-source sections of a checkpoint, which the default
/// machine above does not have: two ELF executors (registers and memory
/// arena), a trace replay cursor and a synthetic oracle, side by side.
#[test]
fn backend_checkpoint_sections_are_pinned() {
    let elf = |stem: &str| {
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("testdata/riscv")
            .join(format!("{stem}.elf"));
        Arc::new(RiscvImage::load(&path).expect("checked-in ELF must load"))
    };
    let trace = Arc::new(TraceImage::record(&elf("memsum"), 5_000).expect("record"));
    let mut sim = SimConfig::new()
        .with_workloads(vec![
            WorkloadSpec::Elf(elf("loops")),
            WorkloadSpec::Trace(trace),
            WorkloadSpec::Elf(elf("gcd")),
            WorkloadSpec::Benchmark(Benchmark::Espresso),
        ])
        .build();
    for _ in 0..771 {
        sim.step_cycle();
    }
    let mut checkpoint = Vec::new();
    sim.save_checkpoint(&mut checkpoint).expect("vec write");
    pin(
        "Simulator::save_checkpoint (ELF, trace and synthetic sources)",
        &checkpoint,
        448_646,
        0xb095_1ea0_101c_6ce3,
        CHECKPOINT_CHANGED,
    );
}
