//! `SimReport::concat` is exact: for any split point `k`, the report of
//! `run(k)` concatenated with the report of (`reset_stats`; `run(n - k)`)
//! renders the same JSON and the same `write_bin` bytes as one `run(n)` —
//! also when the second half runs on a machine restored from a checkpoint
//! taken at `k`. The sweep engine in `smt-experiments` emits every cold
//! ablation cell this way, so this is the property its byte-identical
//! documents rest on.

use std::path::PathBuf;
use std::sync::Arc;

use smt::crates::smt_stats::binio::BinWriter;
use smt::{Ablation, RiscvImage, RoundRobin, SimConfig, SimReport, Simulator, WorkloadSpec};
use smt_experiments::study::mix_by_name;

/// Measured cycles of every case.
const CYCLES: u64 = 2_000;
/// Split points: both degenerate ends, one cycle in from each, mid-run.
const SPLITS: [u64; 5] = [0, 1, 777, CYCLES - 1, CYCLES];

fn bin(report: &SimReport) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut w = BinWriter::new(&mut bytes);
    report.write_bin(&mut w).expect("vec write");
    w.finish().expect("vec write");
    bytes
}

fn elf(stem: &str) -> WorkloadSpec {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("testdata/riscv")
        .join(format!("{stem}.elf"));
    WorkloadSpec::Elf(Arc::new(
        RiscvImage::load(&path).expect("checked-in ELF must load"),
    ))
}

/// The golden configurations (behind a warmup, as `tests/golden.rs` runs
/// them), the three-ELF mix under RR, and each single ablation cold.
fn cases() -> Vec<(String, Box<dyn Fn() -> SimConfig>)> {
    let mut cases: Vec<(String, Box<dyn Fn() -> SimConfig>)> = Vec::new();
    for mix in ["standard", "int8", "fp8"] {
        for seed in [42, 1337] {
            cases.push((
                format!("{mix}/s{seed}"),
                Box::new(move || {
                    SimConfig::new()
                        .with_benchmarks(mix_by_name(mix).expect("named mix"), seed)
                        .with_warmup(500)
                }),
            ));
        }
    }
    cases.push((
        "riscv3/rr".into(),
        Box::new(|| {
            SimConfig::new()
                .with_workloads(vec![elf("loops"), elf("memsum"), elf("gcd")])
                .with_fetch(Box::new(RoundRobin))
        }),
    ));
    for ablation in Ablation::ALL {
        cases.push((
            ablation.name().to_string(),
            Box::new(move || {
                SimConfig::new()
                    .with_benchmarks(mix_by_name("standard").expect("named mix"), 42)
                    .with_ablation(ablation)
            }),
        ));
    }
    cases
}

#[test]
fn concatenated_halves_equal_the_whole_window() {
    for (label, config) in cases() {
        let whole = config().build().run(CYCLES);
        for k in SPLITS {
            for through_checkpoint in [false, true] {
                let mut sim = config().build();
                let first = sim.run(k);
                if through_checkpoint {
                    let mut bytes = Vec::new();
                    sim.save_checkpoint(&mut bytes).expect("vec write");
                    sim = Simulator::restore_checkpoint(config(), &mut &bytes[..])
                        .expect("restore must succeed");
                }
                sim.reset_stats();
                let second = sim.run(CYCLES - k);
                assert_eq!(second.warmup_cycles, first.warmup_cycles + k);
                let joined = first.concat(&second).expect("adjacent windows");
                let what = format!("{label}, k={k}, through_checkpoint={through_checkpoint}");
                assert_eq!(
                    joined.to_json().render(),
                    whole.to_json().render(),
                    "{what}"
                );
                assert_eq!(bin(&joined), bin(&whole), "{what}");
            }
        }
    }
}
