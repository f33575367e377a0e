//! End-to-end checkpoint determinism: a simulator restored from a
//! checkpoint must be bit-equivalent to the one that wrote it — running
//! both yields byte-for-byte identical `SimReport` JSON — across workload
//! mixes × seeds × partitions × a non-empty ablation set, with the
//! checkpoint taken at odd mid-run cycles (instructions in every pipeline
//! stage, misses outstanding). The warmup-sharing layer in
//! `smt-experiments` is built entirely on this property.

use smt::{Ablation, FetchPartition, SimConfig, Simulator};
use smt_experiments::study::mix_by_name;

mod common;
use common::pin;

fn config(
    mix: &str,
    seed: u64,
    partition: FetchPartition,
    ablation: Option<Ablation>,
) -> SimConfig {
    let mut cfg = SimConfig::new()
        .with_benchmarks(mix_by_name(mix).expect("known mix"), seed)
        .with_partition(partition);
    if let Some(a) = ablation {
        cfg = cfg.with_ablation(a);
    }
    cfg
}

fn checkpoint_of(sim: &Simulator) -> Vec<u8> {
    let mut bytes = Vec::new();
    sim.save_checkpoint(&mut bytes).expect("vec write");
    bytes
}

#[test]
fn restore_matches_straight_through_across_the_matrix() {
    // Every axis the studies sweep, with a non-empty ablation in most
    // cells; 771 is a deliberately odd checkpoint cycle.
    let cases: [(&str, u64, FetchPartition, Option<Ablation>); 4] = [
        ("mixed4", 42, FetchPartition::new(2, 8), None),
        (
            "int8",
            1337,
            FetchPartition::new(2, 2),
            Some(Ablation::PerfectICache),
        ),
        (
            "fp8",
            7,
            FetchPartition::new(4, 4),
            Some(Ablation::ExemptWrongPathFromBankArbitration),
        ),
        (
            "standard",
            42,
            FetchPartition::new(2, 8),
            Some(Ablation::InfiniteFrontendQueues),
        ),
    ];
    for (mix, seed, partition, ablation) in cases {
        let mut sim = config(mix, seed, partition, ablation).build();
        for _ in 0..771 {
            sim.step_cycle();
        }
        let bytes = checkpoint_of(&sim);
        let mut restored =
            Simulator::restore_checkpoint(config(mix, seed, partition, ablation), &mut &bytes[..])
                .expect("restore must succeed");
        let a = sim.run(900).to_json().render();
        let b = restored.run(900).to_json().render();
        assert_eq!(
            a, b,
            "restored run diverged from straight-through for \
             {mix}/seed {seed}/{partition}/{ablation:?}"
        );
    }
}

#[test]
fn restore_preserves_an_open_measurement_window() {
    // A checkpoint taken mid-measurement-window (statistics re-based at a
    // non-zero cycle, then advanced) must restore the open window too.
    let partition = FetchPartition::new(2, 8);
    let mut sim = config("mixed4", 42, partition, None).build();
    for _ in 0..500 {
        sim.step_cycle();
    }
    sim.reset_stats();
    for _ in 0..333 {
        sim.step_cycle();
    }
    let bytes = checkpoint_of(&sim);
    let mut restored =
        Simulator::restore_checkpoint(config("mixed4", 42, partition, None), &mut &bytes[..])
            .expect("restore must succeed");
    let a = sim.run(400).to_json().render();
    let b = restored.run(400).to_json().render();
    assert_eq!(a, b, "open measurement window lost across the round trip");
}

#[test]
fn checkpoints_are_deterministic_bytes() {
    // Same machine, same cycle → identical checkpoint bytes; and a restore
    // re-checkpoints to the identical stream (the restored machine is not
    // just behaviourally equivalent but structurally reproduced).
    let partition = FetchPartition::new(2, 8);
    let mk = || {
        let mut sim = config("int8", 7, partition, None).build();
        for _ in 0..451 {
            sim.step_cycle();
        }
        sim
    };
    let first = checkpoint_of(&mk());
    let second = checkpoint_of(&mk());
    assert_eq!(first, second, "checkpoint bytes are not deterministic");
    let restored =
        Simulator::restore_checkpoint(config("int8", 7, partition, None), &mut &first[..])
            .expect("restore must succeed");
    assert_eq!(
        checkpoint_of(&restored),
        first,
        "re-checkpointing a restored machine diverged"
    );
}

#[test]
fn checkpoints_never_observe_a_partial_fetch_block() {
    // Checkpoints are taken between `step_cycle` calls, so no half-fetched
    // block or half-renamed group can be in one. Pinned from the outside:
    // the mixed4 checkpoint at an odd cycle, and the report of its
    // continuation both straight through and restored. The literals were
    // read when the front end still had a block-granular slab path; it
    // wrote these bytes, and so did the per-instruction path.
    let cfg = || config("mixed4", 42, FetchPartition::new(2, 8), None);
    let mut sim = cfg().build();
    for _ in 0..771 {
        sim.step_cycle();
    }
    let bytes = checkpoint_of(&sim);
    pin(
        "the mixed4 checkpoint at cycle 771",
        &bytes,
        334_862,
        0x4beb_0cbf_20d2_7e16,
        "checkpoint bytes changed",
    );
    let mut restored =
        Simulator::restore_checkpoint(cfg(), &mut &bytes[..]).expect("restore must succeed");
    for (how, sim) in [("straight through", &mut sim), ("restored", &mut restored)] {
        let json = sim.run(600).to_json().render();
        pin(
            &format!("the 600-cycle continuation report ({how})"),
            json.as_bytes(),
            1_082,
            0x86d4_4b0f_77fd_6836,
            "simulated behaviour changed",
        );
    }
}

#[test]
fn elf_and_trace_backends_round_trip_through_checkpoints() {
    // The workload-source trait's save/restore hooks must round-trip the
    // non-synthetic backends too: an ELF-backed simulator (registers +
    // memory arena) and a trace-backed one (replay cursor) both restore
    // bit-equivalent to straight-through, exactly like the synthetic
    // matrix above.
    use smt::{RiscvImage, TraceImage, WorkloadSpec};
    use std::sync::Arc;

    let elf = |stem: &str| {
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("testdata/riscv")
            .join(format!("{stem}.elf"));
        Arc::new(RiscvImage::load(&path).expect("checked-in ELF must load"))
    };
    let trace = Arc::new(TraceImage::record(&elf("memsum"), 20_000).expect("record"));
    let workloads = || -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::Elf(elf("loops")),
            WorkloadSpec::Trace(trace.clone()),
            WorkloadSpec::Elf(elf("gcd")),
            WorkloadSpec::Benchmark(smt::Benchmark::Espresso),
        ]
    };
    let cfg = || SimConfig::new().with_workloads(workloads());
    let mut sim = cfg().build();
    for _ in 0..771 {
        sim.step_cycle();
    }
    let bytes = checkpoint_of(&sim);
    let mut restored = Simulator::restore_checkpoint(cfg(), &mut &bytes[..])
        .expect("elf/trace checkpoint must restore");
    let a = sim.run(900).to_json().render();
    let b = restored.run(900).to_json().render();
    assert_eq!(a, b, "elf/trace restore diverged from straight-through");
    // Determinism of the bytes themselves, as for synthetic workloads.
    let mut again = cfg().build();
    for _ in 0..771 {
        again.step_cycle();
    }
    assert_eq!(
        checkpoint_of(&again),
        bytes,
        "elf/trace checkpoint bytes are not deterministic"
    );
    // A different image is refused by the config fingerprint.
    let swapped = SimConfig::new().with_workloads(vec![
        WorkloadSpec::Elf(elf("memsum")),
        WorkloadSpec::Trace(trace.clone()),
        WorkloadSpec::Elf(elf("gcd")),
        WorkloadSpec::Benchmark(smt::Benchmark::Espresso),
    ]);
    assert!(matches!(
        Simulator::restore_checkpoint(swapped, &mut &bytes[..]),
        Err(smt::CheckpointError::ConfigMismatch { .. })
    ));
}

#[test]
fn corrupt_checkpoints_fail_with_typed_errors_end_to_end() {
    use smt::CheckpointError;
    let sim = config("mixed4", 42, FetchPartition::new(2, 8), None).build();
    let bytes = checkpoint_of(&sim);
    // Truncation at an arbitrary boundary.
    match Simulator::restore_checkpoint(
        config("mixed4", 42, FetchPartition::new(2, 8), None),
        &mut &bytes[..bytes.len() - 3],
    ) {
        Err(CheckpointError::Truncated | CheckpointError::Corrupt(_)) => {}
        Err(other) => panic!("unexpected error for truncation: {other}"),
        Ok(_) => panic!("truncated checkpoint must not restore"),
    }
    // A different machine (other seed) is refused by fingerprint.
    assert!(matches!(
        Simulator::restore_checkpoint(
            config("mixed4", 43, FetchPartition::new(2, 8), None),
            &mut &bytes[..],
        ),
        Err(CheckpointError::ConfigMismatch { .. })
    ));
}
