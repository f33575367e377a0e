//! Fleet differential-equivalence tests: a cell run through [`SimFleet`]
//! is the cell run on its own, and these tests pin it three ways over the
//! golden matrix (standard/int8/fp8 × seeds 42/1337):
//!
//! 1. against N independent sequential `Simulator` runs, byte-for-byte on
//!    `SimReport::to_json()`,
//! 2. against the checked-in `tests/golden/` files themselves — the same
//!    bytes every pre-fleet PR pinned, so the fleet is anchored to the
//!    full historical trajectory, not just to today's simulator,
//! 3. for checkpoint-seeded fleets, against the `fork_cell` sequence the
//!    experiment sweeps use, provenance flag included.
//!
//! The worker count is swept too: it may not leak into any report, nor
//! into the order they come back in.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use smt::{FleetCell, SimConfig, SimFleet};
use smt_core::FetchPartition;
use smt_experiments::study::{mix_by_name, MixImages};
use smt_experiments::warmup::{canonical_config_for, compute_checkpoint_under, fork_cell};

/// The golden matrix (kept in lockstep with `tests/golden.rs`).
const MIXES: [&str; 3] = ["standard", "int8", "fp8"];
const SEEDS: [u64; 2] = [42, 1337];
const CYCLES: u64 = 3_000;
const WARMUP: u64 = 1_000;

fn golden_config(mix: &str, seed: u64) -> SimConfig {
    let benchmarks = mix_by_name(mix).expect("golden mixes are predefined");
    SimConfig::new()
        .with_benchmarks(benchmarks, seed)
        .with_warmup(WARMUP)
}

fn golden_text(mix: &str, seed: u64) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(format!("{mix}_seed{seed}.json"));
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()))
}

/// One fleet over the full golden matrix, byte-identical to both fresh
/// sequential runs and the checked-in goldens across worker counts —
/// with the push order rotated per worker count, so a report that came
/// back out of push order would land on the wrong cell's expectation.
#[test]
fn fleet_matches_sequential_runs_and_checked_in_goldens() {
    assert!(
        SimFleet::new().run().is_empty(),
        "an empty fleet reports nothing"
    );

    let matrix: Vec<(&str, u64)> = MIXES
        .iter()
        .flat_map(|&mix| SEEDS.iter().map(move |&seed| (mix, seed)))
        .collect();
    let sequential: Vec<String> = matrix
        .iter()
        .map(|&(mix, seed)| {
            golden_config(mix, seed)
                .build()
                .run(CYCLES)
                .to_json()
                .render_pretty()
        })
        .collect();

    for jobs in [1, 2, 6] {
        let order: Vec<usize> = (0..matrix.len())
            .map(|k| (k + jobs) % matrix.len())
            .collect();
        let mut fleet = SimFleet::new().with_jobs(jobs);
        for &i in &order {
            let (mix, seed) = matrix[i];
            fleet.push(FleetCell::cold(golden_config(mix, seed), CYCLES));
        }
        let reports = fleet.run();
        assert_eq!(reports.len(), matrix.len());

        for (report, &i) in reports.iter().zip(&order) {
            let (mix, seed) = matrix[i];
            let text = report.to_json().render_pretty();
            assert_eq!(
                text, sequential[i],
                "fleet cell diverged from its sequential run for mix={mix} \
                 seed={seed} (jobs={jobs})"
            );
            assert_eq!(
                text,
                golden_text(mix, seed),
                "fleet cell diverged from the checked-in golden for mix={mix} \
                 seed={seed} (jobs={jobs})"
            );
        }
    }
}

/// Checkpoint-seeded fleets: every cell forked off a shared warmed
/// checkpoint must be byte-identical to the sequential `fork_cell`
/// sequence the experiment sweeps use — including the provenance flag.
#[test]
fn checkpoint_seeded_fleet_matches_sequential_forks() {
    let partition = FetchPartition::new(2, 8);
    let images = |mix: &str, seed: u64| {
        MixImages::Programs(
            mix_by_name(mix)
                .expect("golden mixes are predefined")
                .iter()
                .enumerate()
                .map(|(slot, b)| Arc::new(b.generate(seed, slot as u32)))
                .collect(),
        )
    };

    // One warm checkpoint per (mix, seed) key; both fetch policies fork it.
    let mut cells = Vec::new();
    for mix in MIXES {
        for seed in SEEDS {
            let canonical = canonical_config_for(&images(mix, seed), seed, partition);
            let ckpt = Arc::new(compute_checkpoint_under(canonical, 400));
            for fetch in ["icount", "rr"] {
                cells.push((mix, seed, fetch, ckpt.clone()));
            }
        }
    }
    let cfg = |mix: &str, seed: u64, fetch: &str| {
        canonical_config_for(&images(mix, seed), seed, partition)
            .with_fetch(smt_core::fetch_policy_by_name(fetch).expect("shipped policy"))
    };
    let sequential: Vec<String> = cells
        .iter()
        .map(|(mix, seed, fetch, ckpt)| {
            fork_cell(cfg(mix, *seed, fetch), ckpt, 700)
                .to_json()
                .render_pretty()
        })
        .collect();

    for jobs in [1, 2, 6] {
        let mut fleet = SimFleet::new().with_jobs(jobs);
        for (mix, seed, fetch, ckpt) in &cells {
            fleet.push(FleetCell::forked(cfg(mix, *seed, fetch), ckpt.clone(), 700));
        }
        let reports = fleet.run();
        assert_eq!(reports.len(), sequential.len());
        for (i, (report, expect)) in reports.iter().zip(&sequential).enumerate() {
            assert!(
                report.restored_from_checkpoint,
                "cell {i} lost provenance (jobs={jobs})"
            );
            assert_eq!(
                &report.to_json().render_pretty(),
                expect,
                "forked fleet cell {i} diverged from the sequential fork (jobs={jobs})"
            );
        }
    }
}
