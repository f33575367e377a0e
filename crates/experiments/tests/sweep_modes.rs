//! The operational contract of the shared sweep engine, checked once per
//! mode: every property below runs over the same table of {matrix, issue
//! study, ablation study}, so a mode is one row — not a copy of the suite.
//!
//! * worker count (`jobs` 1/2/8) never changes a document byte;
//! * a `--journal` sweep resumes — fully, partially, around a bit-rotted
//!   entry — to the byte-identical document, and keys of different sweep
//!   shapes or modes never collide in a shared directory;
//! * an unloadable workload file fails only its own cells;
//! * an axis that lists an entry twice is refused before any cell runs;
//! * a `--checkpoint-dir` repeat sweep performs zero warmups, also when
//!   the mix string is longer than a file name may be;
//! * two spellings of one machine (`a.elf`, `./a.elf`) share its cache
//!   and journal entries without an incident under any worker count;
//! * each mode's document equals a reference built cell by cell from the
//!   public one-cell calls (`compute_checkpoint_under` over
//!   `canonical_config_for`, then `fork_cell`; or a straight run), with
//!   no engine in between.
//!
//! The ablation row has three properties of its own, because its engine
//! path simulates a cold cell and its warm twin over one trajectory: any
//! journal split of the pairs resumes to the same document, the
//! `--checkpoint-dir` holds the entries separate warmups write, and a
//! sweep whose windows do not overlap (`cycles < warmup`) still equals
//! its reference.

use std::path::{Path, PathBuf};

use smt_core::checkpoint::config_fingerprint;
use smt_core::{
    fetch_policy_by_name, issue_policy_by_name, Ablation, Ablations, FetchPartition, SimConfig,
    SimReport, WorkloadSpec,
};
use smt_experiments::ablation::{
    run_ablation_study, AblationCell, AblationStudy, AblationStudyConfig, Window,
};
use smt_experiments::fault::{CellError, CellErrorKind, Degradation, DegradeReason};
use smt_experiments::journal::journal_key;
use smt_experiments::study::{resolve_mix, run_study, MixImages, Study, StudyCell, StudyConfig};
use smt_experiments::warmup::{canonical_config_for, compute_checkpoint_under, fork_cell};
use smt_experiments::{
    generate_programs, matrix_to_json, parse_cli, run_matrix, ExpConfig, Matrix,
};
use smt_stats::json::Json;
use smt_stats::TextTable;

const BAD_MIX: &str = "riscv:/nonexistent/nope.elf";

/// What a test varies about a mode's tiny sweep.
#[derive(Default)]
struct Knobs {
    /// Worker threads (0 → the tiny sweeps' default of 2).
    jobs: usize,
    journal: Option<PathBuf>,
    checkpoint_dir: Option<PathBuf>,
    /// Added to the measured length, to change the sweep's shape.
    extra_cycles: u64,
    /// A second mix next to `mixed4` (study modes only).
    extra_mix: Option<String>,
}

/// What every mode's result boils down to.
struct Run {
    doc: String,
    reports: Vec<SimReport>,
    /// (mix, error) per failed cell.
    failed: Vec<(String, CellError)>,
    degraded: Vec<Degradation>,
    warmups_performed: usize,
    journal_loaded: usize,
}

struct Mode {
    name: &'static str,
    /// Cells of the tiny sweep (without an extra mix).
    cells: usize,
    /// Warmups the tiny sweep simulates on a cold cache.
    cold_cache_warmups: usize,
    /// Whether the mode takes `--mixes` (and so file workloads).
    takes_mixes: bool,
    run: fn(&Knobs) -> Run,
    /// The tiny sweep's document, built without the engine.
    reference: fn() -> String,
}

const MODES: [Mode; 3] = [
    Mode {
        name: "matrix",
        cells: 4,
        cold_cache_warmups: 0,
        takes_mixes: false,
        run: run_tiny_matrix,
        reference: reference_matrix,
    },
    Mode {
        name: "issue",
        cells: 12,
        cold_cache_warmups: 3,
        takes_mixes: true,
        run: run_tiny_issue,
        reference: reference_issue,
    },
    Mode {
        name: "ablation",
        cells: 36,
        cold_cache_warmups: 18,
        takes_mixes: true,
        run: run_tiny_ablation,
        reference: reference_ablation,
    },
];

fn jobs_of(k: &Knobs) -> usize {
    if k.jobs == 0 {
        2
    } else {
        k.jobs
    }
}

fn mixes_of(k: &Knobs) -> Vec<String> {
    let mut mixes = vec!["mixed4".to_string()];
    mixes.extend(k.extra_mix.clone());
    mixes
}

fn tiny_matrix(k: &Knobs) -> ExpConfig {
    ExpConfig {
        fetch_policies: vec!["rr".into(), "icount".into()],
        partitions: vec![FetchPartition::new(2, 8), FetchPartition::new(1, 8)],
        threads: 4,
        cycles: 400 + k.extra_cycles,
        warmup: 150,
        jobs: jobs_of(k),
        journal: k.journal.clone(),
        ..ExpConfig::default()
    }
}

fn run_tiny_matrix(k: &Knobs) -> Run {
    let cfg = tiny_matrix(k);
    let matrix = run_matrix(&cfg).unwrap();
    Run {
        doc: matrix_to_json(&cfg, &matrix).render_pretty(),
        failed: matrix
            .failed
            .iter()
            .map(|f| (f.mix.clone(), f.error.clone()))
            .collect(),
        reports: matrix.reports,
        degraded: matrix.degraded,
        warmups_performed: 0,
        journal_loaded: matrix.journal_loaded,
    }
}

fn tiny_issue(k: &Knobs) -> StudyConfig {
    StudyConfig {
        fetch_policies: vec!["rr".into(), "icount".into()],
        issue_policies: vec!["oldest".into(), "spec_last".into()],
        mixes: mixes_of(k),
        seeds: vec![42],
        cycles: 600 + k.extra_cycles,
        warmup: 200,
        jobs: jobs_of(k),
        checkpoint_dir: k.checkpoint_dir.clone(),
        journal: k.journal.clone(),
        ..StudyConfig::default()
    }
}

fn run_tiny_issue(k: &Knobs) -> Run {
    let study = run_study(&tiny_issue(k)).unwrap();
    Run {
        doc: study.to_json().render_pretty(),
        reports: study.cells.iter().map(|c| c.report.clone()).collect(),
        failed: study
            .failed
            .iter()
            .map(|f| (f.mix.clone(), f.error.clone()))
            .collect(),
        degraded: study.degraded,
        warmups_performed: study.warmups_performed,
        journal_loaded: study.journal_loaded,
    }
}

fn tiny_ablation(k: &Knobs) -> AblationStudyConfig {
    AblationStudyConfig {
        fetch_policies: vec!["rr".into(), "icount".into()],
        ablations: vec![
            "perfect_icache".into(),
            "exempt_wrong_path_bank_arbitration".into(),
        ],
        mixes: mixes_of(k),
        seeds: vec![42],
        cycles: 500 + k.extra_cycles,
        warmup: 200,
        jobs: jobs_of(k),
        checkpoint_dir: k.checkpoint_dir.clone(),
        journal: k.journal.clone(),
        ..AblationStudyConfig::default()
    }
}

fn run_tiny_ablation(k: &Knobs) -> Run {
    run_ablation(&tiny_ablation(k))
}

fn run_ablation(cfg: &AblationStudyConfig) -> Run {
    let study = run_ablation_study(cfg).unwrap();
    Run {
        doc: study.to_json().render_pretty(),
        reports: study.cells.iter().map(|c| c.report.clone()).collect(),
        failed: study
            .failed
            .iter()
            .map(|f| (f.mix.clone(), f.error.clone()))
            .collect(),
        degraded: study.degraded,
        warmups_performed: study.warmups_performed,
        journal_loaded: study.journal_loaded,
    }
}

/// The matrix document from the pre-engine `run_cell` chain, cell by cell.
fn reference_matrix() -> String {
    let cfg = tiny_matrix(&Knobs::default());
    let programs: Vec<WorkloadSpec> = generate_programs(&cfg)
        .into_iter()
        .map(WorkloadSpec::Program)
        .collect();
    let mut reports = Vec::new();
    for &partition in &cfg.partitions {
        for fetch in &cfg.fetch_policies {
            reports.push(
                SimConfig::new()
                    .with_workloads(programs.clone())
                    .with_seed(cfg.seed)
                    .with_fetch(fetch_policy_by_name(fetch).unwrap())
                    .with_issue(issue_policy_by_name(&cfg.issue_policy).unwrap())
                    .with_partition(partition)
                    .with_warmup(cfg.warmup)
                    .build()
                    .run(cfg.cycles),
            );
        }
    }
    let matrix = Matrix {
        table: TextTable::new(),
        reports,
        failed: Vec::new(),
        degraded: Vec::new(),
        journal_loaded: 0,
    };
    matrix_to_json(&cfg, &matrix).render_pretty()
}

/// The issue document with every cell forked by hand off a per-cell
/// canonical warmup — the "cold" path the sweeps once had a knob for.
fn reference_issue() -> String {
    let cfg = tiny_issue(&Knobs::default());
    let mut cells = Vec::new();
    for mix in &cfg.mixes {
        for &seed in &cfg.seeds {
            let images = resolve_mix(mix, seed).unwrap();
            for &partition in &cfg.partitions {
                for fetch in &cfg.fetch_policies {
                    for issue in &cfg.issue_policies {
                        let checkpoint = compute_checkpoint_under(
                            canonical_config_for(&images, seed, partition),
                            cfg.warmup,
                        );
                        let cell = images
                            .apply(SimConfig::new())
                            .with_seed(seed)
                            .with_fetch(fetch_policy_by_name(fetch).unwrap())
                            .with_issue(issue_policy_by_name(issue).unwrap())
                            .with_partition(partition);
                        let report = fork_cell(cell, &checkpoint, cfg.cycles);
                        cells.push(StudyCell {
                            fetch: report.fetch_policy.clone(),
                            issue: report.issue_policy.clone(),
                            partition,
                            mix: mix.clone(),
                            seed,
                            report,
                        });
                    }
                }
            }
        }
    }
    let study = Study {
        config: cfg,
        cells,
        failed: Vec::new(),
        degraded: Vec::new(),
        warmups_performed: 0,
        journal_loaded: 0,
    };
    study.to_json().render_pretty()
}

/// One cell of an ablation sweep as a from-outside reference sees it.
struct AblationSite<'a> {
    images: &'a MixImages,
    mix: &'a str,
    seed: u64,
    partition: FetchPartition,
    fetch: &'a str,
    window: Window,
    ablation: Option<Ablation>,
}

impl AblationSite<'_> {
    fn label(&self) -> &'static str {
        self.ablation.map_or("baseline", |a| a.name())
    }

    fn config(&self) -> SimConfig {
        self.images
            .apply(SimConfig::new())
            .with_seed(self.seed)
            .with_fetch(fetch_policy_by_name(self.fetch).unwrap())
            .with_partition(self.partition)
            .with_ablations(self.ablation.map_or(Ablations::none(), Ablations::only))
    }
}

/// Walks an ablation sweep's cells in the engine's plan order.
fn each_ablation_site(cfg: &AblationStudyConfig, mut visit: impl FnMut(&AblationSite)) {
    let mut axis = vec![None];
    axis.extend(cfg.ablations.iter().map(|a| Ablation::by_name(a)));
    for mix in &cfg.mixes {
        for &seed in &cfg.seeds {
            let images = resolve_mix(mix, seed).unwrap();
            for &partition in &cfg.partitions {
                for fetch in &cfg.fetch_policies {
                    for window in Window::ALL {
                        for &ablation in &axis {
                            visit(&AblationSite {
                                images: &images,
                                mix,
                                seed,
                                partition,
                                fetch,
                                window,
                                ablation,
                            });
                        }
                    }
                }
            }
        }
    }
}

/// The ablation document by hand: cold cells straight through, warm cells
/// forked off a warmup of their own configuration.
fn reference_ablation() -> String {
    reference_ablation_of(tiny_ablation(&Knobs::default()))
}

fn reference_ablation_of(cfg: AblationStudyConfig) -> String {
    let mut cells = Vec::new();
    each_ablation_site(&cfg, |site| {
        let report = match site.window {
            Window::Cold => site.config().build().run(cfg.cycles),
            Window::Warm => fork_cell(
                site.config(),
                &compute_checkpoint_under(site.config(), cfg.warmup),
                cfg.cycles,
            ),
        };
        assert_eq!(
            report.restored_from_checkpoint,
            site.window == Window::Warm,
            "only warm cells carry the provenance flag"
        );
        cells.push(AblationCell {
            ablation: site.ablation.map(|a| a.name().to_string()),
            fetch: report.fetch_policy.clone(),
            partition: site.partition,
            mix: site.mix.to_string(),
            seed: site.seed,
            window: site.window,
            report,
        });
    });
    let study = AblationStudy {
        config: cfg,
        cells,
        failed: Vec::new(),
        degraded: Vec::new(),
        warmups_performed: 0,
        journal_loaded: 0,
    };
    study.to_json().render_pretty()
}

fn tmp_dir(tag: &str, mode: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("smt-exp-modes-{tag}-{mode}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn entries(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    paths.sort();
    paths
}

#[test]
fn worker_count_never_leaks_into_a_document() {
    // The scheduler-determinism property: the work-stealing queue may
    // reorder *execution* but never results, oversubscribed or not.
    for mode in &MODES {
        let run = |jobs| {
            (mode.run)(&Knobs {
                jobs,
                ..Knobs::default()
            })
        };
        let reference = run(1);
        assert_eq!(reference.reports.len(), mode.cells, "{}", mode.name);
        assert!(reference.failed.is_empty() && reference.degraded.is_empty());
        for jobs in [2, 8] {
            assert_eq!(
                run(jobs).doc,
                reference.doc,
                "{}: jobs={jobs} perturbed the document bytes",
                mode.name
            );
        }
    }
}

#[test]
fn every_mode_matches_its_hand_built_reference() {
    for mode in &MODES {
        let run = (mode.run)(&Knobs::default());
        assert_eq!(
            run.warmups_performed, mode.cold_cache_warmups,
            "{}: one warmup per shared key or warm cell",
            mode.name
        );
        assert_eq!(
            run.doc,
            (mode.reference)(),
            "{}: the engine changed the document",
            mode.name
        );
    }
}

/// Two cells at the same coordinates share one journal key and one
/// checkpoint-cache entry, and two workers publishing one file lose
/// renames nondeterministically — so every mode refuses a repeated axis
/// entry (policies by canonical name) before it touches the journal.
#[test]
fn a_repeated_axis_entry_is_refused_in_every_mode() {
    let journal = tmp_dir("repeat", "all");
    let k = Knobs {
        journal: Some(journal.clone()),
        ..Knobs::default()
    };
    fn twice(a: &str, b: &str) -> Vec<String> {
        vec![a.to_string(), b.to_string()]
    }
    let matrix = |edit: fn(&mut ExpConfig)| {
        let mut cfg = tiny_matrix(&k);
        edit(&mut cfg);
        run_matrix(&cfg).map(drop)
    };
    let issue = |edit: fn(&mut StudyConfig)| {
        let mut cfg = tiny_issue(&k);
        edit(&mut cfg);
        run_study(&cfg).map(drop)
    };
    let ablation = |edit: fn(&mut AblationStudyConfig)| {
        let mut cfg = tiny_ablation(&k);
        edit(&mut cfg);
        run_ablation_study(&cfg).map(drop)
    };
    let cases = [
        (
            "matrix: fetch axis lists 'RR'",
            matrix(|c| c.fetch_policies = twice("rr", "RR")),
        ),
        (
            "matrix: partition axis lists '2.8'",
            matrix(|c| c.partitions.insert(0, FetchPartition::new(2, 8))),
        ),
        (
            "issue: issue axis lists 'OLDEST_FIRST'",
            issue(|c| c.issue_policies = twice("oldest", "OLDEST")),
        ),
        (
            "issue: mix axis lists 'mixed4'",
            issue(|c| c.mixes = twice("mixed4", "mixed4")),
        ),
        (
            "issue: partition axis lists '2.8'",
            issue(|c| c.partitions.insert(0, FetchPartition::new(2, 8))),
        ),
        (
            "ablation: seed axis lists '1'",
            ablation(|c| c.seeds = vec![1, 1]),
        ),
        (
            "ablation: fetch axis lists 'ICOUNT'",
            ablation(|c| c.fetch_policies = twice("icount", "icount")),
        ),
        (
            "ablation: ablation axis lists 'perfect_icache'",
            ablation(|c| c.ablations = twice("perfect_icache", "perfect_icache")),
        ),
    ];
    for (case, result) in cases {
        let (_, expect) = case.split_once(": ").unwrap();
        let err = result.expect_err(case);
        assert!(err.contains(expect), "{case}: got '{err}'");
    }
    assert!(!journal.exists(), "a refused sweep opened its journal");

    // The CLI refuses at parse time, in all three modes.
    for (args, expect) in [
        (
            "--study ablation --mixes mixed4 --seeds 1,1 --fetch icount",
            "seed axis lists '1'",
        ),
        ("--study issue --fetch rr,RR", "fetch axis lists 'RR'"),
        ("--partition 2.8,2.8", "partition axis lists '2.8'"),
    ] {
        let args: Vec<String> = args.split(' ').map(str::to_string).collect();
        let err = parse_cli(&args).expect_err(expect);
        assert!(err.contains(expect), "'{err}' lacks '{expect}'");
    }
}

/// A JSON number is an `f64`, exact only up to 2^53: a larger seed would
/// print as a neighbour while journal keys and cache names use the exact
/// value, so two distinct machines would share one reported seed. Every
/// mode refuses such a seed, and keeps 2^53 itself.
#[test]
fn a_seed_above_2_pow_53_is_refused_in_every_mode() {
    const EXACT: u64 = 1 << 53;
    let k = Knobs::default();
    let validate = |seed: u64| {
        let mut matrix = tiny_matrix(&k);
        matrix.seed = seed;
        let mut issue = tiny_issue(&k);
        issue.seeds = vec![42, seed];
        let mut ablation = tiny_ablation(&k);
        ablation.seeds = vec![seed];
        [
            ("matrix", matrix.validate()),
            ("issue", issue.validate()),
            ("ablation", ablation.validate()),
        ]
    };
    for (mode, result) in validate(EXACT) {
        assert_eq!(result, Ok(()), "{mode}: 2^53 is exact");
    }
    for seed in [EXACT + 1, u64::MAX] {
        for (mode, result) in validate(seed) {
            let err = result.expect_err(mode);
            let expect = format!("seed {seed} is above 2^53");
            assert!(err.contains(&expect), "{mode}: got '{err}'");
        }
    }

    // The CLI refuses at parse time, in all three modes.
    for args in [
        "--seed 9007199254740993",
        "--study issue --mixes mixed4 --seeds 9007199254740992,9007199254740993",
        "--study ablation --mixes mixed4 --seeds 9007199254740993",
    ] {
        let args: Vec<String> = args.split(' ').map(str::to_string).collect();
        let err = parse_cli(&args).expect_err("an inexact seed parsed");
        assert!(
            err.contains("seed 9007199254740993 is above 2^53"),
            "got '{err}'"
        );
    }
}

#[test]
fn journal_resume_is_byte_identical_and_reuses_entries() {
    for mode in &MODES {
        let dir = tmp_dir("journal", mode.name);
        let journaled = || {
            (mode.run)(&Knobs {
                journal: Some(dir.clone()),
                ..Knobs::default()
            })
        };
        // A journaled sweep changes nothing about the results …
        let reference = (mode.run)(&Knobs::default()).doc;
        let first = journaled();
        assert_eq!(first.journal_loaded, 0, "{}", mode.name);
        assert!(first.degraded.is_empty());
        assert_eq!(first.doc, reference);
        // … publishes one entry per cell …
        assert_eq!(entries(&dir).len(), mode.cells, "{}", mode.name);
        // … and a full re-run resumes every cell, byte-identical, with no
        // warmups at all.
        let resumed = journaled();
        assert_eq!(resumed.journal_loaded, mode.cells, "{}", mode.name);
        assert_eq!(resumed.warmups_performed, 0, "{}", mode.name);
        assert!(resumed.degraded.is_empty());
        assert_eq!(resumed.doc, reference);
        // A *partial* journal (as a SIGKILL mid-sweep leaves behind)
        // resumes what it has and re-runs the rest — still byte-identical,
        // whichever entries are missing.
        let all = entries(&dir);
        let every_other: Vec<&PathBuf> = all.iter().step_by(2).collect();
        let first_half: Vec<&PathBuf> = all.iter().take(all.len() / 2).collect();
        for missing in [every_other, first_half] {
            for path in &missing {
                std::fs::remove_file(path).unwrap();
            }
            let partial = journaled();
            assert_eq!(
                partial.journal_loaded,
                mode.cells - missing.len(),
                "{}",
                mode.name
            );
            assert!(partial.degraded.is_empty());
            assert_eq!(partial.doc, reference, "{}", mode.name);
            assert_eq!(entries(&dir).len(), mode.cells, "re-run cells re-published");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn corrupt_journal_entries_degrade_and_rerun() {
    for mode in &MODES {
        let dir = tmp_dir("journal-rot", mode.name);
        let journaled = || {
            (mode.run)(&Knobs {
                journal: Some(dir.clone()),
                ..Knobs::default()
            })
        };
        let first = journaled();
        // Bit-rot one entry; the resumed sweep must not trust it.
        let victim = &entries(&dir)[0];
        let mut bytes = std::fs::read(victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(victim, &bytes).unwrap();
        let resumed = journaled();
        assert_eq!(resumed.journal_loaded, mode.cells - 1, "{}", mode.name);
        assert_eq!(resumed.degraded.len(), 1, "{}", mode.name);
        assert_eq!(resumed.degraded[0].reason, DegradeReason::JournalRead);
        assert!(resumed.degraded[0].detail.contains("cell re-run"));
        // The re-run cell reproduced the identical result.
        assert_eq!(first.reports, resumed.reports, "{}", mode.name);
        assert!(resumed.failed.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn journal_keys_do_not_collide_across_sweep_shapes_or_modes() {
    // All three modes, each in two shapes differing only in measured
    // length, share ONE journal directory without poisoning each other:
    // the mode tag and the cycle counts are part of every key.
    let dir = tmp_dir("journal-shapes", "all");
    let run = |mode: &Mode, extra_cycles| {
        (mode.run)(&Knobs {
            journal: Some(dir.clone()),
            extra_cycles,
            ..Knobs::default()
        })
    };
    for mode in &MODES {
        for extra_cycles in [0, 100] {
            assert_eq!(
                run(mode, extra_cycles).journal_loaded,
                0,
                "{}: resumed a foreign sweep's entries",
                mode.name
            );
        }
    }
    // Every population coexists; re-running any sweep resumes it fully.
    let total: usize = MODES.iter().map(|m| 2 * m.cells).sum();
    assert_eq!(entries(&dir).len(), total);
    for mode in &MODES {
        for extra_cycles in [0, 100] {
            assert_eq!(run(mode, extra_cycles).journal_loaded, mode.cells);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unloadable_workloads_fail_their_cells_only() {
    // A mix naming a file that does not exist must not abort the sweep:
    // its cells become typed `workload` failures and every other cell is
    // byte-identical to a sweep without the bad mix.
    for mode in MODES.iter().filter(|m| m.takes_mixes) {
        let run = (mode.run)(&Knobs {
            extra_mix: Some(BAD_MIX.to_string()),
            ..Knobs::default()
        });
        assert_eq!(run.failed.len(), mode.cells, "{}", mode.name);
        for (mix, error) in &run.failed {
            assert_eq!(error.kind, CellErrorKind::Workload);
            assert_eq!(mix, BAD_MIX);
            assert!(error.message.contains("nope.elf"), "{}", error.message);
        }
        let reference = (mode.run)(&Knobs::default());
        assert_eq!(
            run.reports, reference.reports,
            "{}: a failing mix perturbed a healthy cell",
            mode.name
        );
        // The document carries the failures and still parses.
        let back = Json::parse(&run.doc).unwrap();
        let failed = back.get("failed_cells").and_then(Json::as_array).unwrap();
        assert_eq!(failed.len(), mode.cells);
        assert_eq!(
            failed[0]
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("workload")
        );
    }
}

#[test]
fn checkpoint_dir_serves_repeat_sweeps_from_disk() {
    for mode in &MODES {
        let dir = tmp_dir("cache", mode.name);
        let cached = || {
            (mode.run)(&Knobs {
                checkpoint_dir: Some(dir.clone()),
                ..Knobs::default()
            })
        };
        let first = cached();
        assert_eq!(
            first.warmups_performed, mode.cold_cache_warmups,
            "{}: a cold cache computes every warmup",
            mode.name
        );
        assert!(first.degraded.is_empty(), "{:?}", first.degraded);
        let second = cached();
        assert_eq!(
            second.warmups_performed, 0,
            "{}: cache must serve",
            mode.name
        );
        assert_eq!(first.doc, second.doc, "{}", mode.name);
        assert_eq!(first.doc, (mode.run)(&Knobs::default()).doc);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn cache_entry_names_stay_under_the_file_name_limit() {
    // An absolute three-ELF mix and a 32-thread benchmark mix are each
    // longer than a file name may be (255 bytes); cache entries must
    // still be written — and found again.
    let elf = |stem: &str| {
        let pad = "./".repeat(50);
        format!(
            "riscv:{}/../../testdata/riscv/{pad}{stem}.elf",
            env!("CARGO_MANIFEST_DIR")
        )
    };
    let elves = format!("{}+{}+{}", elf("loops"), elf("memsum"), elf("gcd"));
    let benchmarks = ["espresso+compress"; 16].join("+");
    for mix in [elves, benchmarks] {
        assert!(mix.len() > 255);
        for mode in MODES.iter().filter(|m| m.takes_mixes) {
            let dir = tmp_dir("cache-long", mode.name);
            let cached = || {
                (mode.run)(&Knobs {
                    checkpoint_dir: Some(dir.clone()),
                    extra_mix: Some(mix.clone()),
                    ..Knobs::default()
                })
            };
            let first = cached();
            assert_eq!(first.warmups_performed, 2 * mode.cold_cache_warmups);
            assert_eq!(entries(&dir).len(), first.warmups_performed);
            assert!(first.failed.is_empty());
            assert!(
                first.degraded.is_empty(),
                "{}: {:?}",
                mode.name,
                first.degraded
            );
            let second = cached();
            assert_eq!(second.warmups_performed, 0, "{}", mode.name);
            assert!(second.degraded.is_empty(), "{:?}", second.degraded);
            assert_eq!(first.doc, second.doc);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn two_spellings_of_one_machine_share_cache_and_journal_entries() {
    // `a.elf` and `./a.elf` load the same image, so the two mixes are one
    // machine with one warm cache entry and one journal entry per cell
    // coordinate. The engine warms each machine once and simulates each
    // cell once, with or without a cache or journal to share through, so
    // no two workers ever store one entry.
    let spell = |dir: &str| {
        format!(
            "riscv:{}/../../testdata/riscv/{dir}loops.elf+espresso",
            env!("CARGO_MANIFEST_DIR")
        )
    };
    let mut docs = Vec::new();
    for jobs in [1, 2, 8] {
        let dir = tmp_dir(&format!("spellings-{jobs}"), "issue");
        let cfg = StudyConfig {
            mixes: vec![spell(""), spell("./")],
            jobs,
            checkpoint_dir: Some(dir.join("cache")),
            journal: Some(dir.join("journal")),
            ..tiny_issue(&Knobs::default())
        };
        let first = run_study(&cfg).unwrap();
        assert!(first.failed.is_empty(), "jobs={jobs}: {:?}", first.failed);
        assert!(
            first.degraded.is_empty(),
            "jobs={jobs}: {:?}",
            first.degraded
        );
        let (a, b) = first.cells.split_at(first.cells.len() / 2);
        assert!(
            a.iter().zip(b).all(|(a, b)| a.report == b.report),
            "jobs={jobs}: the two spellings measured different machines"
        );
        let keys = cfg.seeds.len() * cfg.partitions.len();
        assert_eq!(entries(&dir.join("cache")).len(), keys, "jobs={jobs}");
        assert_eq!(entries(&dir.join("journal")).len(), a.len(), "jobs={jobs}");
        let doc = first.to_json().render_pretty();
        let bare = run_study(&StudyConfig {
            checkpoint_dir: None,
            journal: None,
            ..cfg.clone()
        })
        .unwrap();
        assert_eq!(
            bare.warmups_performed, keys,
            "jobs={jobs}: one warmup per machine"
        );
        assert_eq!(bare.to_json().render_pretty(), doc, "jobs={jobs}");

        let resumed = run_study(&cfg).unwrap();
        assert_eq!(resumed.journal_loaded, resumed.cells.len(), "jobs={jobs}");
        assert!(resumed.degraded.is_empty(), "{:?}", resumed.degraded);
        assert_eq!(resumed.to_json().render_pretty(), doc, "jobs={jobs}");
        let cached = run_study(&StudyConfig {
            journal: None,
            ..cfg.clone()
        })
        .unwrap();
        assert_eq!(cached.warmups_performed, 0, "jobs={jobs}: cache must serve");
        assert!(cached.degraded.is_empty(), "{:?}", cached.degraded);
        assert_eq!(cached.to_json().render_pretty(), doc, "jobs={jobs}");
        docs.push(doc);
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(
        docs.windows(2).all(|w| w[0] == w[1]),
        "jobs leaked into a document"
    );
}

#[test]
fn any_journal_split_of_the_ablation_pairs_resumes_to_the_same_document() {
    // The engine runs a cold cell and its warm twin as one unit only when
    // both still need simulating; whatever a kill left of a pair — the
    // cold cell (journaled before the unit runs on), the warm cell, or
    // neither — the resumed document is the uninterrupted one.
    let dir = tmp_dir("journal-pairs", "ablation");
    let cfg = tiny_ablation(&Knobs {
        journal: Some(dir.clone()),
        ..Knobs::default()
    });
    // Each cell's entry, from outside, in plan order: within a fetch
    // policy's group the cold cells come first, their warm twins one
    // ablation axis later.
    let mut sites: Vec<(Window, usize, PathBuf)> = Vec::new();
    let axis = 1 + cfg.ablations.len();
    each_ablation_site(&cfg, |site| {
        let fingerprint = config_fingerprint(&canonical_config_for(
            site.images,
            site.seed,
            site.partition,
        ));
        let key = journal_key(
            fingerprint,
            &[
                "ablation-study",
                site.fetch,
                site.window.name(),
                site.label(),
            ],
            &[cfg.cycles, cfg.warmup],
        );
        let i = sites.len();
        let pair = i / (2 * axis) * axis + i % axis;
        sites.push((site.window, pair, dir.join(format!("cell-{key:016x}.smtj"))));
    });
    let reference = run_tiny_ablation(&Knobs::default()).doc;
    let full = run_ablation(&cfg);
    assert_eq!(full.doc, reference);
    let mut expected: Vec<PathBuf> = sites.iter().map(|(_, _, path)| path.clone()).collect();
    expected.sort();
    assert_eq!(entries(&dir), expected, "entry names moved");

    type Lost = fn(Window, usize) -> bool;
    let splits: [(&str, Lost); 3] = [
        ("only the cold cells survive", |w, _| w == Window::Warm),
        ("only the warm cells survive", |w, _| w == Window::Cold),
        ("one member of some pairs survives", |w, pair| {
            match pair % 3 {
                0 => w == Window::Cold,
                1 => w == Window::Warm,
                _ => false,
            }
        }),
    ];
    for (what, lost) in splits {
        let mut missing = 0;
        for (window, pair, path) in &sites {
            if lost(*window, *pair) {
                std::fs::remove_file(path).unwrap();
                missing += 1;
            }
        }
        assert!(missing > 0, "{what}");
        let resumed = run_ablation(&cfg);
        assert_eq!(resumed.journal_loaded, sites.len() - missing, "{what}");
        assert!(
            resumed.degraded.is_empty(),
            "{what}: {:?}",
            resumed.degraded
        );
        assert_eq!(resumed.doc, reference, "{what}");
        assert_eq!(entries(&dir), expected, "{what}: re-run cells re-published");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn paired_ablation_sweep_caches_the_checkpoints_separate_warmups_write() {
    // A cold-cache sweep takes each warm cell's checkpoint out of the
    // trajectory it shares with the cold twin; the cache must hold what a
    // warmup of the cell alone writes — same names, same bytes — so caches
    // move freely between builds.
    let dir = tmp_dir("cache-bytes", "ablation");
    let cfg = tiny_ablation(&Knobs {
        checkpoint_dir: Some(dir.clone()),
        ..Knobs::default()
    });
    let mut expected: Vec<(PathBuf, Vec<u8>)> = Vec::new();
    each_ablation_site(&cfg, |site| {
        if site.window == Window::Warm {
            let parts = [
                "ablation-study",
                site.fetch,
                site.window.name(),
                site.label(),
            ];
            let fingerprint = config_fingerprint(&site.config());
            let key = journal_key(fingerprint, &parts, &[cfg.warmup]);
            let name = format!("warm-{key:016x}.ckpt");
            let bytes = compute_checkpoint_under(site.config(), cfg.warmup);
            expected.push((dir.join(name), bytes));
        }
    });
    expected.sort();
    assert_eq!(run_ablation(&cfg).warmups_performed, expected.len());
    let written: Vec<(PathBuf, Vec<u8>)> = entries(&dir)
        .into_iter()
        .map(|path| {
            let bytes = std::fs::read(&path).unwrap();
            (path, bytes)
        })
        .collect();
    assert!(
        written == expected,
        "cache entries differ from lone warmups'"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ablation_windows_that_do_not_overlap_match_the_reference() {
    // `cycles < warmup`: the warm window starts after the cold one ends,
    // so there is no shared stretch and every cell runs on its own;
    // `cycles == warmup` is the shortest shape that still pairs.
    let tiny = tiny_ablation(&Knobs::default());
    for cycles in [tiny.warmup - 50, tiny.warmup] {
        let cfg = AblationStudyConfig {
            cycles,
            ..tiny.clone()
        };
        assert_eq!(
            run_ablation(&cfg).doc,
            reference_ablation_of(cfg),
            "cycles={cycles}"
        );
    }
}

#[test]
fn a_megabyte_of_study_documents_parses_back() {
    // `Json::parse` once validated the whole remaining input per string
    // character, so a document this size took minutes instead of
    // milliseconds.
    let doc = Json::parse(&run_tiny_issue(&Knobs::default()).doc).unwrap();
    let copies = (1 << 20) / doc.render().len() + 1;
    let big = Json::array((0..copies).map(|_| doc.clone()));
    let text = big.render_pretty();
    assert!(text.len() >= 1 << 20);
    let started = std::time::Instant::now();
    assert_eq!(Json::parse(&text).unwrap(), big);
    assert!(
        started.elapsed() < std::time::Duration::from_secs(20),
        "parsing {} bytes took {:?}",
        text.len(),
        started.elapsed()
    );
}
