//! Golden sweep documents: the pretty-rendered result document of a tiny
//! sweep in each mode, and the sorted `cell-*.smtj` names it leaves in a
//! journal directory, pinned **byte-for-byte** against the files under
//! `tests/golden/`.
//!
//! The issue and ablation fixtures were generated by the two hand-written
//! drivers that predate the shared sweep engine (`sweep.rs`), immediately
//! before it replaced them, and the engine passed without regenerating —
//! cell order, journal keys, failed-cell framing and every report byte are
//! the contract a journal directory written by an older build resumes
//! under. Each sweep carries one deliberately unloadable mix so the
//! `failed_cells` framing is pinned too. The matrix fixture was generated
//! after the engine landed (its document gained `failed_cells` and
//! `degraded_cells`).
//!
//! Regenerate (only for an *intentional* schema or semantics change) with:
//!
//! ```text
//! SMT_GOLDEN_UPDATE=1 cargo test -p smt-experiments --test sweep_golden
//! ```

use std::fs;
use std::path::{Path, PathBuf};

use smt_core::FetchPartition;
use smt_experiments::ablation::{run_ablation_study, AblationStudyConfig};
use smt_experiments::study::{run_study, StudyConfig};
use smt_experiments::{matrix_to_json, run_matrix, ExpConfig};

const BAD_MIX: &str = "riscv:/nonexistent/nope.elf";

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

/// Compares `text` with the checked-in fixture (or, under
/// `SMT_GOLDEN_UPDATE=1`, rewrites it).
fn check_golden(name: &str, text: &str) {
    let path = golden_path(name);
    if std::env::var_os("SMT_GOLDEN_UPDATE").is_some() {
        fs::write(&path, text).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with SMT_GOLDEN_UPDATE=1",
            path.display()
        )
    });
    assert!(
        golden == text,
        "{name} diverged from the checked-in golden ({} vs {} bytes)",
        text.len(),
        golden.len()
    );
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smt-exp-golden-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

/// The sorted entry names of a journal directory, one per line.
fn journal_names(dir: &Path) -> String {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names.join("\n") + "\n"
}

#[test]
fn issue_sweep_matches_the_pre_engine_driver() {
    let dir = fresh_dir("issue");
    let study = run_study(&StudyConfig {
        fetch_policies: vec!["rr".into(), "icount".into()],
        issue_policies: vec!["oldest".into(), "spec_last".into()],
        partitions: vec![FetchPartition::new(2, 8)],
        mixes: vec!["mixed4".into(), BAD_MIX.into()],
        seeds: vec![42],
        cycles: 600,
        warmup: 200,
        jobs: 2,
        journal: Some(dir.clone()),
        ..StudyConfig::default()
    })
    .unwrap();
    assert_eq!((study.cells.len(), study.failed.len()), (4, 4));
    check_golden("issue_sweep.json", &study.to_json().render_pretty());
    check_golden("issue_sweep.journal.txt", &journal_names(&dir));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn ablation_sweep_matches_the_pre_engine_driver() {
    let dir = fresh_dir("ablation");
    let study = run_ablation_study(&AblationStudyConfig {
        fetch_policies: vec!["rr".into(), "icount".into()],
        ablations: vec!["perfect_icache".into()],
        partitions: vec![FetchPartition::new(2, 8)],
        mixes: vec!["mixed4".into(), BAD_MIX.into()],
        seeds: vec![42],
        cycles: 500,
        warmup: 200,
        jobs: 2,
        journal: Some(dir.clone()),
        ..AblationStudyConfig::default()
    })
    .unwrap();
    assert_eq!((study.cells.len(), study.failed.len()), (8, 8));
    check_golden("ablation_sweep.json", &study.to_json().render_pretty());
    check_golden("ablation_sweep.journal.txt", &journal_names(&dir));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn matrix_sweep_matches_its_golden() {
    let dir = fresh_dir("matrix");
    let cfg = ExpConfig {
        fetch_policies: vec!["rr".into(), "icount".into()],
        partitions: vec![FetchPartition::new(2, 8), FetchPartition::new(1, 8)],
        threads: 4,
        cycles: 600,
        warmup: 200,
        jobs: 2,
        journal: Some(dir.clone()),
        ..ExpConfig::default()
    };
    let matrix = run_matrix(&cfg).unwrap();
    assert_eq!((matrix.reports.len(), matrix.failed.len()), (4, 0));
    check_golden(
        "matrix_sweep.json",
        &matrix_to_json(&cfg, &matrix).render_pretty(),
    );
    check_golden("matrix_sweep.journal.txt", &journal_names(&dir));
    fs::remove_dir_all(&dir).ok();
}
