//! The fault-injection property suite (requires `--features fault-inject`).
//!
//! Drives deterministic faults — panics, transient and hard I/O errors,
//! corruption — into chosen cells of real sweeps via
//! [`smt_stats::faults`], and asserts the containment contract the crate
//! documents:
//!
//! * the sweep **always terminates** and returns `Ok`;
//! * exactly the injected cells appear as typed `failed_cells` entries;
//! * every healthy cell's report is **bit-exact** against a fault-free
//!   run, across worker counts 1/2/8;
//! * recoverable incidents (transient I/O, torn cache/journal entries)
//!   degrade on the record without changing any result bytes.
//!
//! The fault registry is process-global, so every test serializes on one
//! lock and clears the registry on entry and exit.

#![cfg(feature = "fault-inject")]

use std::sync::Mutex;

use smt_core::FetchPartition;
use smt_experiments::fault::{CellErrorKind, DegradeReason};
use smt_experiments::study::{run_study, Study, StudyConfig};
use smt_stats::faults::{arm, clear, remaining_shots, FaultKind};

static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the panic hook silenced (injected panics are expected;
/// their default-hook backtraces would bury real failures in noise).
fn quiet<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// An 8-cell sweep: 2 fetch × 2 issue × 2 partitions × 1 mix × 1 seed.
fn tiny(jobs: usize) -> StudyConfig {
    StudyConfig {
        fetch_policies: vec!["rr".into(), "icount".into()],
        issue_policies: vec!["oldest".into(), "spec_last".into()],
        partitions: vec![FetchPartition::new(2, 2), FetchPartition::new(2, 8)],
        mixes: vec!["mixed4".into()],
        seeds: vec![42],
        cycles: 400,
        warmup: 100,
        jobs,
        ..StudyConfig::default()
    }
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("smt-exp-fi-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Asserts every non-failed cell of `study` is bit-exact against the
/// fault-free `reference` (matched by matrix coordinates).
fn assert_healthy_cells_bit_exact(study: &Study, reference: &Study) {
    let failed: Vec<_> = study
        .failed
        .iter()
        .map(|f| (f.fetch.clone(), f.issue.clone(), f.partition, f.seed))
        .collect();
    let mut healthy = study.cells.iter();
    for r in &reference.cells {
        if failed.contains(&(r.fetch.clone(), r.issue.clone(), r.partition, r.seed)) {
            continue;
        }
        let c = healthy.next().expect("healthy cell missing from the sweep");
        assert_eq!(
            (&c.fetch, &c.issue, c.partition, c.seed),
            (&r.fetch, &r.issue, r.partition, r.seed),
            "healthy cells out of order"
        );
        assert_eq!(c.report, r.report, "a fault perturbed a healthy cell");
    }
    assert!(healthy.next().is_none(), "unexpected extra cell");
}

#[test]
fn injected_panics_fail_exactly_those_cells_across_worker_counts() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    clear();
    let reference = run_study(&tiny(1)).unwrap();
    let injected: [u64; 3] = [0, 3, 7];
    for jobs in [1, 2, 8] {
        for &i in &injected {
            arm("cell", Some(i), FaultKind::Panic, 1);
        }
        let study = quiet(|| run_study(&tiny(jobs))).unwrap();
        assert_eq!(remaining_shots(), 0, "every armed fault must fire");
        assert_eq!(
            study.failed.len(),
            injected.len(),
            "jobs={jobs}: exactly the injected cells must fail"
        );
        for f in &study.failed {
            assert_eq!(f.error.kind, CellErrorKind::Panic);
            assert!(
                f.error.message.contains("injected panic at cell#"),
                "jobs={jobs}: panic payload lost: {}",
                f.error.message
            );
        }
        assert_eq!(study.cells.len(), reference.cells.len() - injected.len());
        assert_healthy_cells_bit_exact(&study, &reference);
        // The document stays well-formed and carries the failures.
        let doc = study.to_json().render_pretty();
        let back = smt_stats::json::Json::parse(&doc).unwrap();
        let failed = back
            .get("failed_cells")
            .and_then(smt_stats::json::Json::as_array)
            .unwrap();
        assert_eq!(failed.len(), injected.len());
        clear();
    }
}

#[test]
fn transient_journal_io_is_absorbed_by_retries() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    clear();
    let dir = tmp_dir("journal-transient");
    let reference = run_study(&tiny(1)).unwrap().to_json().render_pretty();
    // Two transient failures on journal stores — under the retry budget
    // of four attempts — must be invisible: no degradation, no failure,
    // identical bytes, every entry durable.
    arm("journal-store", None, FaultKind::IoTransient, 2);
    let cfg = StudyConfig {
        journal: Some(dir.clone()),
        ..tiny(1)
    };
    let study = run_study(&cfg).unwrap();
    assert_eq!(remaining_shots(), 0);
    assert!(study.failed.is_empty());
    assert!(study.degraded.is_empty(), "{:?}", study.degraded);
    assert_eq!(study.to_json().render_pretty(), reference);
    let resumed = run_study(&cfg).unwrap();
    assert_eq!(
        resumed.journal_loaded,
        cfg.cell_count(),
        "a transiently-failing store must still end up durable"
    );
    clear();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hard_journal_store_failures_degrade_without_losing_the_result() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    clear();
    let dir = tmp_dir("journal-hard");
    let reference = run_study(&tiny(1)).unwrap();
    // A single hard store failure (hard errors are not retried, so one
    // shot fails one store outright): the cell's result stays in the
    // document, the incident is on the record, and only that one entry
    // is missing from the journal.
    arm("journal-store", None, FaultKind::Io, 1);
    let cfg = StudyConfig {
        journal: Some(dir.clone()),
        ..tiny(1)
    };
    let study = run_study(&cfg).unwrap();
    assert_eq!(
        remaining_shots(),
        0,
        "the one hard fault fires once; a retry would have healed it"
    );
    clear();
    assert!(study.failed.is_empty());
    assert_eq!(study.degraded.len(), 1);
    assert_eq!(study.degraded[0].reason, DegradeReason::JournalWrite);
    assert!(study.degraded[0].detail.contains("result not durable"));
    assert_eq!(study.cells.len(), cfg.cell_count());
    for (a, b) in reference.cells.iter().zip(study.cells.iter()) {
        assert_eq!(a.report, b.report);
    }
    let resumed = run_study(&cfg).unwrap();
    assert_eq!(resumed.journal_loaded, cfg.cell_count() - 1);
    assert_eq!(
        resumed.to_json().render_pretty(),
        reference.to_json().render_pretty(),
        "resuming around the lost entry changed bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journal_read_corruption_degrades_and_reruns_the_cell() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    clear();
    let dir = tmp_dir("journal-rot");
    let cfg = StudyConfig {
        journal: Some(dir.clone()),
        ..tiny(1)
    };
    let first = run_study(&cfg).unwrap();
    // One corrupted read during the resume prescan: the checksum catches
    // it, the cell re-runs, and the incident is recorded.
    arm("journal-read", None, FaultKind::Corrupt, 1);
    let resumed = run_study(&cfg).unwrap();
    assert_eq!(remaining_shots(), 0);
    clear();
    assert!(resumed.failed.is_empty());
    assert_eq!(resumed.journal_loaded, cfg.cell_count() - 1);
    assert_eq!(resumed.degraded.len(), 1);
    assert_eq!(resumed.degraded[0].reason, DegradeReason::JournalRead);
    assert!(resumed.degraded[0].detail.contains("cell re-run"));
    for (a, b) in first.cells.iter().zip(resumed.cells.iter()) {
        assert_eq!(a.report, b.report, "re-run produced different bytes");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_cache_faults_fall_back_to_recomputation() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    clear();
    let dir = tmp_dir("cache");
    let cfg = StudyConfig {
        checkpoint_dir: Some(dir.clone()),
        ..tiny(1)
    };
    let reference = run_study(&cfg).unwrap();
    assert!(reference.warmups_performed > 0, "cold cache computes");
    // A hard read failure on one cached entry: degrade, recompute that
    // warmup, serve the rest from the cache, identical results.
    arm("cache-read", None, FaultKind::Io, 1);
    let read_fail = run_study(&cfg).unwrap();
    assert_eq!(remaining_shots(), 0);
    assert_eq!(read_fail.degraded.len(), 1);
    assert_eq!(
        read_fail.degraded[0].reason,
        DegradeReason::CheckpointCacheRead
    );
    assert_eq!(read_fail.warmups_performed, 1);
    for (a, b) in reference.cells.iter().zip(read_fail.cells.iter()) {
        assert_eq!(a.report, b.report);
    }
    // Corruption on a cached entry: the fingerprint/checksum validation
    // rejects it and the warmup recomputes.
    arm("cache-read", None, FaultKind::Corrupt, 1);
    let corrupt = run_study(&cfg).unwrap();
    assert_eq!(remaining_shots(), 0);
    assert_eq!(corrupt.degraded.len(), 1);
    assert_eq!(
        corrupt.degraded[0].reason,
        DegradeReason::CheckpointCacheInvalid
    );
    for (a, b) in reference.cells.iter().zip(corrupt.cells.iter()) {
        assert_eq!(a.report, b.report);
    }
    // A hard write failure on a fresh cache: the sweep continues uncached
    // for that key and says so.
    let fresh = tmp_dir("cache-fresh");
    arm("cache-write", None, FaultKind::Io, 1);
    let write_fail = run_study(&StudyConfig {
        checkpoint_dir: Some(fresh.clone()),
        ..tiny(1)
    })
    .unwrap();
    assert_eq!(remaining_shots(), 0);
    clear();
    assert_eq!(write_fail.degraded.len(), 1);
    assert_eq!(
        write_fail.degraded[0].reason,
        DegradeReason::CheckpointCacheWrite
    );
    assert!(write_fail.degraded[0].detail.contains("uncached"));
    for (a, b) in reference.cells.iter().zip(write_fail.cells.iter()) {
        assert_eq!(a.report, b.report);
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&fresh).ok();
}

#[test]
fn ablation_sweep_contains_injected_panics_too() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    clear();
    use smt_experiments::ablation::{run_ablation_study, AblationStudyConfig};
    let cfg = AblationStudyConfig {
        fetch_policies: vec!["rr".into(), "icount".into()],
        ablations: vec!["perfect_icache".into()],
        partitions: vec![FetchPartition::new(2, 8)],
        mixes: vec!["mixed4".into()],
        seeds: vec![42],
        cycles: 400,
        warmup: 200,
        jobs: 2,
        ..AblationStudyConfig::default()
    };
    let reference = run_ablation_study(&cfg).unwrap();
    arm("cell", Some(2), FaultKind::Panic, 1);
    let study = quiet(|| run_ablation_study(&cfg)).unwrap();
    assert_eq!(remaining_shots(), 0);
    clear();
    assert_eq!(study.failed.len(), 1);
    assert_eq!(study.failed[0].error.kind, CellErrorKind::Panic);
    assert_eq!(study.cells.len(), reference.cells.len() - 1);
    // Every surviving cell is bit-exact against its fault-free twin.
    let mut healthy = study.cells.iter();
    for r in &reference.cells {
        let f = &study.failed[0];
        if r.ablation == f.ablation
            && r.fetch == f.fetch
            && r.partition == f.partition
            && r.window == f.window
            && r.seed == f.seed
        {
            continue;
        }
        assert_eq!(healthy.next().unwrap().report, r.report);
    }
}

#[test]
fn a_panic_at_one_spelling_of_a_machine_fails_that_plan_only() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    clear();
    // `mixed4` spelled twice: plans 0..8 and 8..16 are one machine's
    // cells, simulated once per cell key. Whichever spelling's plan is
    // armed fails alone; its alias is simulated by the other member and
    // stays bit-exact.
    let cfg = |jobs| StudyConfig {
        mixes: vec!["mixed4".into(), "espresso+xlisp+alvinn+tomcatv".into()],
        ..tiny(jobs)
    };
    let reference = run_study(&cfg(1)).unwrap();
    assert_eq!(reference.cells.len(), 16);
    for jobs in [1, 2, 8] {
        for armed in [3usize, 11] {
            arm("cell", Some(armed as u64), FaultKind::Panic, 1);
            let study = quiet(|| run_study(&cfg(jobs))).unwrap();
            assert_eq!(remaining_shots(), 0, "the armed fault must fire");
            clear();
            let r = &reference.cells[armed];
            let failed: Vec<_> = study
                .failed
                .iter()
                .map(|f| (f.error.kind, &f.mix, &f.fetch, &f.issue, f.partition))
                .collect();
            assert_eq!(
                failed,
                [(
                    CellErrorKind::Panic,
                    &r.mix,
                    &r.fetch,
                    &r.issue,
                    r.partition
                )],
                "jobs={jobs}, armed={armed}: exactly the armed plan fails"
            );
            let mut healthy = study.cells.iter();
            for (i, r) in reference.cells.iter().enumerate() {
                if i == armed {
                    continue;
                }
                let c = healthy.next().expect("healthy cell missing");
                assert_eq!(c.mix, r.mix);
                assert_eq!(c.report, r.report, "jobs={jobs}: cell {i} perturbed");
            }
            assert!(healthy.next().is_none());
        }
    }
}
