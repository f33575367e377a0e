//! Experiment harness for the fetch/issue policy studies.
//!
//! This crate drives `smt-core` the way the paper's Sections 4 and 5 do,
//! and is the repo's standard experiment entry point:
//!
//! * **Matrix mode** (Section 4): sweep fetch policies × partitions over a
//!   fixed multiprogrammed mix and tabulate total throughput —
//!   [`run_matrix`].
//! * **Study mode** (Section 5): sweep issue policies × fetch policies ×
//!   partitions over several workload mixes and seeds, behind a warmup
//!   window — [`study::run_study`].
//! * **Ablation mode** (Section-4-style attribution): run every mechanism
//!   [`Ablation`](smt_core::Ablation) against the un-ablated baseline
//!   across fetch policies × partitions × mixes × seeds × {cold, warm}
//!   windows — [`ablation::run_ablation_study`] — quantifying the paper's
//!   ~2% wrong-path-fetch claim and the ICOUNT-vs-RR gap decomposition.
//!
//! The `smt_exp` binary is a thin CLI over all three ([`parse_cli`]).
//!
//! # One sweep engine
//!
//! The three modes differ only in their axes. Each mode's driver
//! enumerates its cells into an ordered list of *plans* — the cell's
//! workload key (mix, seed), partition and journal-key parts (from which
//! its journal entry, cache entry and incident label all derive), how it
//! reaches its measurement window, and a lazy
//! `Fn(&MixImages) -> SimConfig` for its machine — and hands the list to
//! the crate-private engine (`sweep.rs`), which does everything
//! operational exactly once: resolve workload images per (mix, seed),
//! identify each plan's machine by its config fingerprint, open and
//! prescan the `--journal`, pre-warm the shared checkpoints in parallel,
//! run every remaining cell across OS threads behind per-cell fault
//! containment, store each result, and merge failures and degradations
//! in a deterministic order. Sharing is per machine identity, not per
//! mix string: two spellings of one machine (`int8` and its eight
//! benchmark names) warm once and simulate each cell once, and each
//! spelling still gets its own cells in the document. A new sweep (a hardware axis, a throttling
//! policy) is a new plan builder, not a new driver.
//!
//! A plan warms in one of three ways ([`warmup`] has the checkpoint
//! mechanics):
//!
//! * **none** — the cell runs straight through (matrix cells, behind
//!   `SimConfig::with_warmup`; the ablation study's cold windows);
//! * **shared canonical key** — the issue study's warmup trajectory
//!   depends only on the machine and workload identity, not on the policy
//!   axes being compared, so each machine (its canonical config
//!   fingerprint, however its mix is spelled) is warmed **once** under a
//!   canonical configuration and the checkpoint forked across the whole
//!   fetch × issue cross-product;
//! * **own configuration** — an ablation changes the machine being warmed,
//!   so each warm-window ablation cell warms under its own fetch policy and
//!   ablation set. Such a checkpoint is forked once, so it is computed
//!   inside the cell's unit of work and freed right after the fork rather
//!   than held for the sweep's lifetime.
//!
//! The unit of work is a cell — or a **cold/warm pair**. The ablation
//! study's cold window (`0..cycles`) and warm window
//! (`warmup..warmup+cycles`) of one configuration lie on one trajectory,
//! so when both cells still need simulating the engine steps it once:
//! warm `0..warmup` and take the warm cell's checkpoint there (the same
//! bytes, cache entry and `warmups_performed` count as a lone warmup),
//! fork it and run to `cycles`, emit the cold cell as the concatenation of
//! the two windows ([`SimReport::concat`](smt_core::SimReport::concat)),
//! then let the fork finish the warm window. With the defaults that is
//! 30 000 stepped cycles per pair instead of 50 000, and every document,
//! journal entry and cache entry keeps its bytes. A journal-served cell,
//! a cache-served checkpoint, an unloadable image or `cycles < warmup`
//! leave the two cells running on their own.
//!
//! `--checkpoint-dir` caches either kind of checkpoint on disk across
//! invocations, named like journal entries by the warmed machine's
//! identity ([`warmup`] has the rule), and the `checkpoint-write` /
//! `checkpoint-verify` subcommands perform a cross-process save/restore
//! round trip for CI.
//!
//! # Examples
//!
//! Run a miniature Section-5 study and inspect the qualitative result
//! (issue policy moves IPC far less than fetch policy does):
//!
//! ```
//! use smt_experiments::study::{run_study, StudyConfig};
//!
//! let study = run_study(&StudyConfig {
//!     fetch_policies: vec!["rr".into(), "icount".into()],
//!     issue_policies: vec!["oldest".into(), "spec_last".into()],
//!     partitions: vec![smt_core::FetchPartition::new(2, 8)],
//!     mixes: vec!["mixed4".into()],
//!     seeds: vec![42],
//!     cycles: 400,
//!     warmup: 100,
//!     ..StudyConfig::default()
//! })
//! .unwrap();
//! assert_eq!(study.cells.len(), 4);
//! let json = study.to_json().render();
//! assert!(json.contains("\"schema_version\""));
//! ```
//!
//! # JSON schema (version 4)
//!
//! `smt_exp --study issue --json out.json` writes one pretty-rendered JSON
//! object ([`study::Study::to_json`]); `--json` in matrix mode writes the
//! analogous `"smt-exp-matrix"` document ([`matrix_to_json`]): no `study`
//! or `summary`; `config` carries `issue_policy: str` and `threads: u64`
//! in place of `issue_policies` and `mixes`; a cell is `{fetch, issue,
//! partition, total_ipc, report}`; and — like every sweep document since
//! the matrix joined the shared engine — it has `failed_cells` (`{fetch,
//! issue, partition, error}`) and `degraded_cells`. Consumers should accept
//! unknown fields and check `schema_version`. Version 2 added the ablation-study
//! document below and the optional per-report `ablations` field; version 3
//! added the optional per-report `restored_from_checkpoint` flag (present
//! and `true` exactly when the cell was forked off a warmed-state
//! checkpoint — every issue-study cell and every warm-window ablation
//! cell); version 4 added the
//! always-present `failed_cells` and `degraded_cells` lists (both empty on
//! a fault-free run). Version-1/2/3 documents are otherwise
//! forward-compatible.
//!
//! ```text
//! {
//!   "schema_version": 4,                // bumped on breaking changes
//!   "kind": "smt-exp-study",            // or "smt-exp-matrix"
//!   "study": "issue",                   // study mode only
//!   "config": {
//!     "cycles": u64, "warmup_cycles": u64,
//!     "fetch_policies": [str], "issue_policies": [str],
//!     "partitions": ["T.I"], "mixes": [str], "seeds": [u64]
//!   },                                   // a mix is a named mix or a
//!                                       // custom 'riscv:PATH+trace:PATH+
//!                                       // <benchmark>' workload list,
//!                                       // carried verbatim (no schema
//!                                       // change)
//!   "cells": [{
//!     "fetch": str, "issue": str, "partition": "T.I",
//!     "mix": str, "seed": u64,
//!     "total_ipc": f64,
//!     "delta_vs_oldest": f64 | null,    // vs the OLDEST_FIRST cell with
//!                                       // the same fetch/partition/mix/seed
//!     "report": { ... }                 // SimReport::to_json(): scheme,
//!                                       // cycles, warmup_cycles, threads[],
//!                                       // fetch/issue/branch/mem breakdowns,
//!                                       // plus "ablations": [str] when any
//!                                       // ablation was active and
//!                                       // "restored_from_checkpoint": true
//!                                       // when the cell forked a warmed
//!                                       // checkpoint
//!   }],
//!   "failed_cells": [{                  // contained cell faults (v4);
//!     "fetch": str, "issue": str,       // empty on a fault-free run
//!     "partition": "T.I", "mix": str, "seed": u64,
//!     "error": {"kind": "panic" | "workload" | "checkpoint" | "io",
//!               "message": str}
//!   }],
//!   "degraded_cells": [{                // recovered incidents (v4):
//!     "key": str,                       // the affected cell/warmup
//!     "reason": "checkpoint_cache_read_failed"
//!             | "checkpoint_cache_invalid"
//!             | "checkpoint_cache_write_failed"
//!             | "journal_read_failed" | "journal_write_failed",
//!     "detail": str                     // what happened + the fallback
//!   }],
//!   "summary": {
//!     "baseline_issue": "OLDEST_FIRST",
//!     "issue_policies": [{"issue": str, "mean_ipc": f64,
//!                         "mean_delta_vs_oldest": f64}],
//!     "fetch_policies": [{"fetch": str, "mean_ipc": f64}],
//!     "issue_ipc_spread": f64,          // max-min of issue-policy means
//!     "fetch_ipc_spread": f64           // max-min of fetch-policy means
//!   }
//! }
//! ```
//!
//! `smt_exp --study ablation --json out.json` writes the ablation document
//! ([`ablation::AblationStudy::to_json`]):
//!
//! ```text
//! {
//!   "schema_version": 4,
//!   "kind": "smt-exp-study",
//!   "study": "ablation",
//!   "config": {
//!     "cycles": u64, "warmup_cycles": u64,   // warm-window warmup
//!     "fetch_policies": [str], "ablations": [str],
//!     "partitions": ["T.I"], "mixes": [str], "seeds": [u64],
//!     "windows": ["cold", "warm"]
//!   },
//!   "cells": [{
//!     "ablation": str | null,           // null = un-ablated baseline
//!     "fetch": str, "partition": "T.I", "mix": str, "seed": u64,
//!     "window": "cold" | "warm",
//!     "total_ipc": f64,
//!     "delta_vs_baseline": f64,         // vs the null-ablation cell with
//!                                       // the same fetch/partition/mix/
//!                                       // seed/window (0.0 for baselines)
//!     "loss_shift": {                   // ablation − baseline, in slots
//!       "lost_icache": i64, "lost_frontend_full": i64,
//!       "wrong_path_fetch_conflicts": i64
//!     },
//!     "report": { ... }
//!   }],
//!   "failed_cells": [{                  // as in the issue document, plus
//!     "ablation": str | null,           // the cell's ablation and window
//!     "fetch": str, "partition": "T.I", "mix": str, "seed": u64,
//!     "window": "cold" | "warm",
//!     "error": {"kind": str, "message": str}
//!   }],
//!   "degraded_cells": [{ "key": str, "reason": str, "detail": str }],
//!   "summary": {
//!     "ablations": [{"ablation": str, "window": str, "mean_ipc": f64,
//!                    "mean_baseline_ipc": f64, "mean_delta_ipc": f64,
//!                    "mean_loss_shift": { ... }}],
//!     "wrong_path_claim": {             // the paper's ~2% claim
//!       "paper_claim_pct": 2.0, "window": "warm", "mix": "standard",
//!       "measured_delta_pct": f64 | null
//!     },
//!     "gap_decomposition": {            // ICOUNT − RR mean-IPC gaps
//!       "fetch_hi": "ICOUNT", "fetch_lo": "RR",
//!       "cold_gap_baseline": f64 | null,
//!       "warm_gap_baseline": f64 | null,
//!       "cold_gap_perfect_icache": f64 | null,
//!       "warm_gap_infinite_frontend_queues": f64 | null
//!     }
//!   }
//! }
//! ```
//!
//! # Operational robustness
//!
//! A sweep is a long-running fleet of independent cells, and the harness
//! treats it that way ([`fault`], [`journal`]):
//!
//! * **Per-cell fault isolation.** Every cell (and every shared warmup),
//!   in all three modes, runs behind `catch_unwind` at the scheduler
//!   boundary. A panic, an unloadable `riscv:`/`trace:` workload file, a
//!   checkpoint mismatch or a post-retry I/O failure becomes a typed entry
//!   in the document's
//!   `failed_cells` list — tagged `panic` / `workload` / `checkpoint` /
//!   `io` — while every other cell's result stays byte-identical to a
//!   fault-free run. `smt_exp` exits nonzero when any cell failed.
//! * **A durable, resumable journal.** `--journal DIR` atomically
//!   publishes each completed cell's lossless binary report to `DIR` the
//!   moment it finishes (entry format: [`journal`]). Re-running the
//!   identical command after a SIGKILL resumes from the valid entries and
//!   produces a document **byte-identical** to an uninterrupted run — CI
//!   pins exactly this with a kill-and-resume step.
//! * **Graceful degradation, on the record.** Transient I/O on the
//!   `--checkpoint-dir` cache and the journal is retried with bounded
//!   backoff; anything that still fails (unreadable cache entry, torn or
//!   bit-rotted journal entry, failed store) falls back — recompute the
//!   warmup, re-run the cell, keep the in-memory result — and is reported
//!   as a reason-tagged entry in `degraded_cells` instead of an
//!   `eprintln!` lost to a log. Degradation never changes result bytes,
//!   and the list's order follows one rule whatever the worker count:
//!   journal-read incidents in cell order, then shared-warmup incidents in
//!   first-needed key order, then each cell's own incidents (checkpoint
//!   cache, then journal write) in cell order.
//! * **A fault-injection harness.** The `fault-inject` cargo feature
//!   (never enabled in release artifacts) arms deterministic panics, I/O
//!   errors and corruption at the named probe sites
//!   (`smt_stats::faults`); the property suite drives it to assert the
//!   sweep always terminates, reports exactly the injected failures and
//!   leaves healthy cells bit-exact, across worker counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub(crate) mod durable;
pub mod fault;
pub mod journal;
pub mod study;
pub(crate) mod sweep;
pub mod warmup;

use std::path::PathBuf;
use std::sync::Arc;

use smt_core::{fetch_policy_by_name, issue_policy_by_name, FetchPartition, SimConfig, SimReport};
use smt_stats::json::Json;
use smt_stats::TextTable;
use smt_workload::{standard_mix, Benchmark, Program};

use crate::ablation::AblationStudyConfig;
use crate::fault::Degradation;
use crate::study::{FailedStudyCell, MixImages, StudyConfig, STUDY_MIXES};
use crate::sweep::{CellPlan, Sweep, Warm};
use crate::warmup::CheckpointCliConfig;

/// One experiment sweep: which policies and partitions to run, on what
/// workload, for how long.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Fetch policies to sweep (shipped-policy names).
    pub fetch_policies: Vec<String>,
    /// Issue policy (one per sweep; issue is a study-mode axis).
    pub issue_policy: String,
    /// Partitions to sweep.
    pub partitions: Vec<FetchPartition>,
    /// Number of hardware contexts (cycles through the standard mix).
    pub threads: usize,
    /// Measured cycles per simulation.
    pub cycles: u64,
    /// Warmup cycles excluded from statistics (0 = cold-start measurement).
    pub warmup: u64,
    /// Workload generation seed.
    pub seed: u64,
    /// Print the full per-run report instead of just the summary table.
    pub verbose: bool,
    /// Write the machine-readable result document here.
    pub json: Option<String>,
    /// Worker threads for the sweep; `0` means one per available core.
    pub jobs: usize,
    /// Durable result journal directory (`--journal`, see [`journal`]).
    pub journal: Option<PathBuf>,
}

impl Default for ExpConfig {
    fn default() -> ExpConfig {
        ExpConfig {
            fetch_policies: vec![
                "rr".to_string(),
                "icount".to_string(),
                "brcount".to_string(),
                "misscount".to_string(),
            ],
            issue_policy: "oldest".to_string(),
            partitions: vec![FetchPartition::new(2, 8)],
            threads: 8,
            cycles: 20_000,
            warmup: 0,
            seed: 42,
            verbose: false,
            json: None,
            jobs: 0,
            journal: None,
        }
    }
}

impl ExpConfig {
    /// Checks the thread count, the policy names, the seed, and that
    /// neither swept axis is empty or lists an entry twice (see
    /// [`StudyConfig::validate`]).
    ///
    /// # Errors
    ///
    /// Returns a usage-style message naming the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=smt_core::MAX_THREADS).contains(&self.threads) {
            return Err(format!("--threads must be 1..={}", smt_core::MAX_THREADS));
        }
        study::distinct_policies("fetch", &self.fetch_policies, study::fetch_name)?;
        study::issue_name(&self.issue_policy)?;
        if self.fetch_policies.is_empty() || self.partitions.is_empty() {
            return Err("matrix sweep axes must all be non-empty".to_string());
        }
        study::reject_repeats("partition", &self.partitions)?;
        study::reject_inexact_seeds(&[self.seed])
    }
}

/// The workload for `threads` contexts: the standard mix, cycled.
pub fn mix_for(threads: usize) -> Vec<Benchmark> {
    let mix = standard_mix();
    (0..threads).map(|i| mix[i % mix.len()]).collect()
}

/// Generates the sweep's program images once. Every cell of a sweep runs
/// the identical workload, so images are generated here and shared
/// (`Arc`-cloned) across cells instead of being regenerated per run.
pub fn generate_programs(cfg: &ExpConfig) -> Vec<Arc<Program>> {
    mix_for(cfg.threads)
        .iter()
        .enumerate()
        .map(|(slot, b)| Arc::new(b.generate(cfg.seed, slot as u32)))
        .collect()
}

/// Results of one matrix sweep.
#[derive(Debug, Clone)]
pub struct Matrix {
    /// The Section-4-style throughput table: one row per partition, one
    /// column per fetch policy, cells in IPC (`failed` for a contained
    /// cell fault).
    pub table: TextTable,
    /// One report per *completed* cell, in (partition, fetch) order.
    pub reports: Vec<SimReport>,
    /// Cells whose fault was contained, in the same order; their `mix`
    /// names the cycled standard mix.
    pub failed: Vec<FailedStudyCell>,
    /// Journal incidents survived along the way (see [`fault`]).
    pub degraded: Vec<Degradation>,
    /// Cells resumed from the `--journal` directory instead of re-run.
    pub journal_loaded: usize,
}

/// Runs the full sweep on the shared sweep engine (`sweep.rs`): one plan
/// per (partition, fetch policy) cell, each run straight through behind
/// [`ExpConfig::warmup`] on the sweep's shared images — in parallel,
/// fault-contained and, with [`ExpConfig::journal`], crash-resumable like
/// the study modes.
///
/// # Errors
///
/// Returns the [`ExpConfig::validate`] message, or the open error when
/// the requested journal directory cannot be created.
pub fn run_matrix(cfg: &ExpConfig) -> Result<Matrix, String> {
    cfg.validate()?;
    let mix = format!("standard-{}t", cfg.threads);
    let (mix, issue, seed) = (mix.as_str(), cfg.issue_policy.as_str(), cfg.seed);
    let mut plans = Vec::new();
    for &partition in &cfg.partitions {
        for fetch in &cfg.fetch_policies {
            plans.push(CellPlan {
                mix,
                seed,
                partition,
                key_parts: vec!["matrix", fetch, issue],
                warm: Warm::None,
                config: Box::new(move |images| {
                    images
                        .apply(SimConfig::new())
                        .with_seed(seed)
                        .with_fetch(fetch_policy_by_name(fetch).expect("validated"))
                        .with_issue(issue_policy_by_name(issue).expect("validated"))
                        .with_partition(partition)
                        .with_warmup(cfg.warmup)
                }),
            });
        }
    }
    let sweep = Sweep {
        images: [((mix, seed), Ok(MixImages::Programs(generate_programs(cfg))))].into(),
        cycles: cfg.cycles,
        warmup: cfg.warmup,
        jobs: cfg.jobs,
        checkpoint_dir: None,
        journal: cfg.journal.as_deref(),
        plans,
    };
    let outcome = sweep::run(&sweep)?;

    let mut table = TextTable::new();
    let mut header = vec!["partition".to_string()];
    header.extend(cfg.fetch_policies.iter().map(|p| p.to_uppercase()));
    table.header(header);
    let mut reports = Vec::new();
    let mut failed = Vec::new();
    let mut results = outcome.cells.into_iter();
    for &partition in &cfg.partitions {
        let mut row = vec![partition.to_string()];
        for (fetch, result) in cfg.fetch_policies.iter().zip(&mut results) {
            match result {
                Ok(report) => {
                    row.push(format!("{:.2}", report.total_ipc()));
                    reports.push(report);
                }
                Err(error) => {
                    row.push("failed".to_string());
                    failed.push(FailedStudyCell {
                        fetch: study::fetch_name(fetch).expect("validated"),
                        issue: study::issue_name(issue).expect("validated"),
                        partition,
                        mix: mix.to_string(),
                        seed,
                        error,
                    });
                }
            }
        }
        table.row(row);
    }
    Ok(Matrix {
        table,
        reports,
        failed,
        degraded: outcome.degraded,
        journal_loaded: outcome.journal_loaded,
    })
}

/// The machine-readable document for a matrix run (`kind:
/// "smt-exp-matrix"`, same schema conventions as the study document).
pub fn matrix_to_json(cfg: &ExpConfig, matrix: &Matrix) -> Json {
    let config = sweep::config_json(
        cfg.cycles,
        cfg.warmup,
        &cfg.fetch_policies,
        ("issue_policy", Json::from(cfg.issue_policy.as_str())),
        &cfg.partitions,
        ("threads", Json::from(cfg.threads)),
        &[cfg.seed],
    );
    let coordinates = |fetch: &str, issue: &str, partition: FetchPartition| {
        vec![
            ("fetch", Json::from(fetch)),
            ("issue", Json::from(issue)),
            ("partition", Json::from(partition.to_string())),
        ]
    };
    let cells = Json::array(matrix.reports.iter().map(|r| {
        let mut cell = coordinates(&r.fetch_policy, &r.issue_policy, r.partition);
        cell.extend([
            ("total_ipc", Json::from(r.total_ipc())),
            ("report", r.to_json()),
        ]);
        Json::object(cell)
    }));
    let failed = Json::array(matrix.failed.iter().map(|f| {
        let mut cell = coordinates(&f.fetch, &f.issue, f.partition);
        cell.push(("error", f.error.to_json()));
        Json::object(cell)
    }));
    sweep::document(None, config, cells, failed, &matrix.degraded)
}

/// What the CLI asked for: a Section-4 matrix, the Section-5 issue study,
/// or the mechanism-ablation study.
#[derive(Debug, Clone)]
pub enum Command {
    /// Fetch-policy × partition sweep on one mix ([`run_matrix`]).
    Matrix(ExpConfig),
    /// Issue × fetch × partition × mix × seed sweep
    /// ([`study::run_study`]).
    Study {
        /// The sweep to run.
        cfg: StudyConfig,
        /// Where `--json` asked the result document to be written.
        json: Option<String>,
    },
    /// Ablation × fetch × partition × mix × seed × window sweep
    /// ([`ablation::run_ablation_study`]).
    Ablation {
        /// The sweep to run.
        cfg: AblationStudyConfig,
        /// Where `--json` asked the result document to be written.
        json: Option<String>,
    },
    /// `smt_exp checkpoint-write`: write one canonical warmed checkpoint
    /// to a file ([`warmup::run_checkpoint_write`]).
    CheckpointWrite(CheckpointCliConfig),
    /// `smt_exp checkpoint-verify`: restore a checkpoint file (written by
    /// any process) and verify bit-equivalence against a straight-through
    /// run ([`warmup::run_checkpoint_verify`]).
    CheckpointVerify(CheckpointCliConfig),
}

/// Parses a numeric flag value.
fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} expects a number"))
}

/// Parses one `T.I` partition.
fn partition(value: &str) -> Result<FetchPartition, String> {
    FetchPartition::parse(value).ok_or_else(|| format!("bad partition '{value}' (expected T.I)"))
}

/// Parses a comma-separated name list, every entry passing `check`; the
/// value `all` stands for the list `all`.
fn name_list(
    value: &str,
    all: Vec<String>,
    check: impl Fn(&str) -> Result<(), String>,
) -> Result<Vec<String>, String> {
    if value.eq_ignore_ascii_case("all") {
        return Ok(all);
    }
    value
        .split(',')
        .map(|name| check(name).map(|()| name.to_string()))
        .collect()
}

/// Parses the flags of the `checkpoint-write` / `checkpoint-verify`
/// subcommands (everything after the subcommand name).
fn parse_checkpoint_cli(args: &[String]) -> Result<CheckpointCliConfig, String> {
    let mut cfg = CheckpointCliConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--mix" => {
                let v = value("--mix")?;
                study::validate_mix(&v)?;
                cfg.mix = v;
            }
            "--seed" => cfg.seed = number(arg, &value(arg)?)?,
            "--partition" => cfg.partition = partition(&value(arg)?)?,
            "--warmup" => cfg.warmup = number(arg, &value(arg)?)?,
            "--cycles" => cfg.cycles = number(arg, &value(arg)?)?,
            "--path" => cfg.path = value("--path")?,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if cfg.path.is_empty() {
        return Err("checkpoint subcommands require --path FILE".to_string());
    }
    Ok(cfg)
}

/// Parses CLI arguments (everything after the program name) into a
/// [`Command`].
///
/// # Errors
///
/// Returns a usage-style message on unknown flags, bad values or unknown
/// policy/mix names. `--help` returns [`USAGE`] as the error message.
pub fn parse_cli(args: &[String]) -> Result<Command, String> {
    match args.first().map(String::as_str) {
        Some("checkpoint-write") => {
            return parse_checkpoint_cli(&args[1..]).map(Command::CheckpointWrite)
        }
        Some("checkpoint-verify") => {
            return parse_checkpoint_cli(&args[1..]).map(Command::CheckpointVerify)
        }
        _ => {}
    }

    let mut exp = ExpConfig::default();
    let mut study_kind: Option<String> = None;
    let mut issue_list: Option<Vec<String>> = None;
    let mut seeds: Option<Vec<u64>> = None;
    let mut mixes: Option<Vec<String>> = None;
    let mut warmup: Option<u64> = None;
    let mut ablations: Option<Vec<String>> = None;
    let mut checkpoint_dir: Option<PathBuf> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--study" => {
                let v = value("--study")?;
                if v != "issue" && v != "ablation" {
                    return Err(format!("unknown study '{v}' (known: issue, ablation)"));
                }
                study_kind = Some(v);
            }
            "--ablations" => {
                let all = AblationStudyConfig::default().ablations;
                ablations = Some(name_list(&value(arg)?, all, ablation::check_ablation)?);
            }
            "--fetch" => {
                let all = ExpConfig::default().fetch_policies;
                exp.fetch_policies =
                    name_list(&value(arg)?, all, |name| study::fetch_name(name).map(drop))?;
            }
            "--issue" => {
                let all = StudyConfig::default().issue_policies;
                let list = name_list(&value(arg)?, all, |name| study::issue_name(name).map(drop))?;
                exp.issue_policy = list[0].clone();
                issue_list = Some(list);
            }
            "--partition" => {
                let v = value(arg)?;
                exp.partitions = if v.eq_ignore_ascii_case("all") {
                    FetchPartition::all_schemes().to_vec()
                } else {
                    v.split(',').map(partition).collect::<Result<_, _>>()?
                };
            }
            "--mixes" => {
                let all = STUDY_MIXES.iter().map(|s| s.to_string()).collect();
                mixes = Some(name_list(&value(arg)?, all, study::validate_mix)?);
            }
            "--threads" => exp.threads = number(arg, &value(arg)?)?,
            "--cycles" => exp.cycles = number(arg, &value(arg)?)?,
            "--warmup" => warmup = Some(number(arg, &value(arg)?)?),
            "--seed" => exp.seed = number(arg, &value(arg)?)?,
            "--seeds" => {
                let parsed: Result<Vec<u64>, _> = value(arg)?.split(',').map(str::parse).collect();
                seeds = Some(
                    parsed.map_err(|_| "--seeds expects comma-separated numbers".to_string())?,
                );
            }
            "--jobs" => exp.jobs = number(arg, &value(arg)?)?,
            "--json" => exp.json = Some(value("--json")?),
            "--checkpoint-dir" => checkpoint_dir = Some(PathBuf::from(value(arg)?)),
            "--journal" => exp.journal = Some(PathBuf::from(value(arg)?)),
            "--verbose" | "-v" => exp.verbose = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }

    if let Some(w) = warmup {
        exp.warmup = w;
    }
    let Some(kind) = study_kind else {
        // Reject study-only flags so a forgotten '--study issue' fails
        // loudly instead of silently running a different experiment.
        for (given, flag) in [
            (mixes.is_some(), "--mixes"),
            (seeds.is_some(), "--seeds"),
            (ablations.is_some(), "--ablations"),
            (checkpoint_dir.is_some(), "--checkpoint-dir"),
        ] {
            if given {
                return Err(format!("{flag} requires a --study mode"));
            }
        }
        if issue_list.as_ref().is_some_and(|l| l.len() > 1) {
            return Err("matrix mode takes a single --issue policy; \
                 use --study issue to sweep issue policies"
                .to_string());
        }
        exp.validate()?;
        return Ok(Command::Matrix(exp));
    };

    // Matrix-only flags have no effect in study mode; reject them rather
    // than yield results the user did not ask for.
    let given = |flag: &str| args.iter().any(|a| a == flag);
    if given("--threads") {
        return Err("--threads applies to matrix mode; study thread counts \
             come from --mixes"
            .to_string());
    }
    if exp.verbose {
        return Err("--verbose applies to matrix mode only".to_string());
    }
    if kind == "issue" && ablations.is_some() {
        return Err("--ablations requires --study ablation".to_string());
    }
    // The ablation study fixes the issue policy (Section 5 showed it is
    // not a sensitive axis).
    if kind == "ablation" && given("--issue") {
        return Err("--issue applies to matrix mode and --study issue; \
             the ablation study runs OLDEST_FIRST"
            .to_string());
    }
    // Both studies default the axes they share identically, so the common
    // settings are resolved once, as a `StudyConfig`.
    let defaults = StudyConfig::default();
    let cfg = StudyConfig {
        fetch_policies: if given("--fetch") {
            exp.fetch_policies
        } else {
            defaults.fetch_policies
        },
        issue_policies: issue_list.unwrap_or(defaults.issue_policies),
        partitions: if given("--partition") {
            exp.partitions
        } else {
            defaults.partitions
        },
        mixes: mixes.unwrap_or(defaults.mixes),
        seeds: seeds.unwrap_or_else(|| {
            if given("--seed") {
                vec![exp.seed]
            } else {
                defaults.seeds
            }
        }),
        cycles: exp.cycles,
        warmup: warmup.unwrap_or(defaults.warmup),
        jobs: exp.jobs,
        checkpoint_dir,
        journal: exp.journal,
    };
    if kind == "issue" {
        cfg.validate()?;
        return Ok(Command::Study {
            cfg,
            json: exp.json,
        });
    }
    let ablations = ablations.unwrap_or_else(|| AblationStudyConfig::default().ablations);
    let cfg = AblationStudyConfig::over(cfg, ablations);
    cfg.validate()?;
    Ok(Command::Ablation {
        cfg,
        json: exp.json,
    })
}

/// CLI usage text.
pub const USAGE: &str = "\
usage: smt_exp [--fetch rr,icount,brcount,misscount|all] [--issue oldest|opt_last|spec_last|branch_first]
               [--partition T.I[,T.I...]|all] [--threads N] [--cycles N] [--warmup N]
               [--seed N] [--verbose] [--jobs N] [--journal DIR] [--json PATH]
       smt_exp --study issue [--fetch LIST] [--issue LIST|all] [--partition LIST|all]
               [--mixes MIX[,MIX...]|all] [--seeds N,N,...] [--cycles N]
               [--warmup N] [--jobs N] [--checkpoint-dir DIR] [--journal DIR]
               [--json PATH]
       smt_exp --study ablation [--fetch LIST] [--ablations LIST|all] [--partition LIST|all]
               [--mixes LIST|all] [--seeds N,N,...] [--cycles N] [--warmup N]
               [--jobs N] [--checkpoint-dir DIR] [--journal DIR] [--json PATH]
       smt_exp checkpoint-write --path FILE [--mix NAME] [--seed N] [--partition T.I]
               [--warmup N]
       smt_exp checkpoint-verify --path FILE [--mix NAME] [--seed N] [--partition T.I]
               [--warmup N] [--cycles N]

Reproduces the throughput comparisons of Tullsen et al., ISCA 1996. The default
mode is the Section-4 matrix (one row per fetch partition, one column per fetch
policy, cells in total IPC). '--study issue' runs the Section-5 issue-policy
comparison: every issue policy against every fetch policy, partition, workload
mix and seed, behind a warmup window, parallelized across CPU cores. '--study
ablation' runs every mechanism ablation (exempt_wrong_path_bank_arbitration,
perfect_icache, perfect_branch_prediction, infinite_frontend_queues) against
the un-ablated baseline over cold and warm measurement windows, quantifying
the paper's ~2% wrong-path claim and the ICOUNT-vs-RR gap decomposition;
'--json' writes the versioned machine-readable result document.

A MIX is a named mix (standard, int8, fp8, mixed4) or a custom workload
list: '+'-separated entries, each 'riscv:PATH' (a RISC-V binary, executed
functionally), 'trace:PATH' (a recorded SMT1TRCE trace, replayed) or a
synthetic benchmark name — e.g.
'--mixes riscv:testdata/riscv/loops.elf+riscv:testdata/riscv/gcd.elf+espresso'.
The checkpoint subcommands' --mix accepts the same syntax.

Both studies fork their warm cells off warmed-state checkpoints: '--study
issue' computes each warmup once per unique machine and forks it across the
whole policy cross-product, while '--study ablation' warms each warm cell under
its own fetch policy and ablation set; '--checkpoint-dir DIR' caches either kind
of warmup checkpoint on disk across invocations. A machine is its workloads,
seed, partition and geometry, not its mix string: two spellings of one mix
('int8' and its eight benchmark names) warm once and simulate each cell once. 'checkpoint-write'
simulates one canonical warmup (ICOUNT fetch, OLDEST_FIRST issue, no ablations)
and writes the checkpoint to --path; 'checkpoint-verify' restores such a file —
from any process — and fails unless the restored run's report is byte-identical
to a straight-through run of the same machine.

All three sweep modes run their cells in parallel ('--jobs N', default one
worker per core) and contain cell faults: a cell that panics or fails to load
its workload becomes a typed entry in the document's 'failed_cells' list (and a
nonzero exit code) while every other cell completes unchanged. '--journal DIR'
additionally makes the sweep crash-resumable: every completed cell is
atomically published to DIR as it finishes, and re-running the identical
command resumes from the journal, producing a document byte-identical to an
uninterrupted run.";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_sweep_covers_the_papers_policies() {
        let cfg = ExpConfig::default();
        assert_eq!(cfg.fetch_policies.len(), 4);
        assert_eq!(cfg.partitions, vec![FetchPartition::new(2, 8)]);
        assert_eq!(cfg.warmup, 0, "matrix mode defaults to cold-start");
    }

    #[test]
    fn parse_cli_matrix_roundtrip() {
        let args = argv(&[
            "--fetch",
            "icount",
            "--partition",
            "2.8,1.8",
            "--threads",
            "4",
            "--cycles",
            "500",
            "--warmup",
            "250",
            "--seed",
            "9",
            "--json",
            "out.json",
        ]);
        let Command::Matrix(cfg) = parse_cli(&args).unwrap() else {
            panic!("expected matrix mode");
        };
        assert_eq!(cfg.fetch_policies, vec!["icount"]);
        assert_eq!(cfg.partitions.len(), 2);
        assert_eq!(cfg.threads, 4);
        assert_eq!(cfg.cycles, 500);
        assert_eq!(cfg.warmup, 250);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.json.as_deref(), Some("out.json"));
    }

    #[test]
    fn parse_cli_study_roundtrip() {
        let args = argv(&[
            "--study",
            "issue",
            "--issue",
            "all",
            "--fetch",
            "icount",
            "--mixes",
            "standard,fp8",
            "--seeds",
            "1,2,3",
            "--cycles",
            "800",
            "--warmup",
            "400",
            "--jobs",
            "3",
        ]);
        let Command::Study { cfg, json } = parse_cli(&args).unwrap() else {
            panic!("expected study mode");
        };
        assert_eq!(json, None);
        assert_eq!(cfg.issue_policies.len(), 4);
        assert_eq!(cfg.fetch_policies, vec!["icount"]);
        assert_eq!(cfg.mixes, vec!["standard", "fp8"]);
        assert_eq!(cfg.seeds, vec![1, 2, 3]);
        assert_eq!(cfg.cycles, 800);
        assert_eq!(cfg.warmup, 400);
        assert_eq!(cfg.jobs, 3);
    }

    #[test]
    fn parse_cli_study_defaults() {
        let Command::Study { cfg, .. } = parse_cli(&argv(&["--study", "issue"])).unwrap() else {
            panic!("expected study mode");
        };
        let d = StudyConfig::default();
        assert_eq!(cfg.issue_policies, d.issue_policies);
        assert_eq!(cfg.fetch_policies, d.fetch_policies);
        assert_eq!(cfg.seeds, d.seeds);
        assert_eq!(cfg.warmup, d.warmup);
    }

    #[test]
    fn parse_cli_ablation_roundtrip() {
        let args = argv(&[
            "--study",
            "ablation",
            "--ablations",
            "perfect_icache,infinite_frontend_queues",
            "--fetch",
            "rr,icount",
            "--mixes",
            "standard",
            "--seeds",
            "42",
            "--cycles",
            "800",
            "--warmup",
            "400",
            "--jobs",
            "2",
            "--json",
            "ablation.json",
        ]);
        let Command::Ablation { cfg, json } = parse_cli(&args).unwrap() else {
            panic!("expected ablation mode");
        };
        assert_eq!(json.as_deref(), Some("ablation.json"));
        assert_eq!(
            cfg.ablations,
            vec!["perfect_icache", "infinite_frontend_queues"]
        );
        assert_eq!(cfg.fetch_policies, vec!["rr", "icount"]);
        assert_eq!(cfg.mixes, vec!["standard"]);
        assert_eq!(cfg.seeds, vec![42]);
        assert_eq!(cfg.cycles, 800);
        assert_eq!(cfg.warmup, 400);
        assert_eq!(cfg.jobs, 2);
    }

    #[test]
    fn parse_cli_ablation_defaults_and_rejections() {
        let Command::Ablation { cfg, .. } = parse_cli(&argv(&["--study", "ablation"])).unwrap()
        else {
            panic!("expected ablation mode");
        };
        let d = AblationStudyConfig::default();
        assert_eq!(cfg.ablations, d.ablations);
        assert_eq!(cfg.ablations.len(), 4, "default sweeps every ablation");
        assert_eq!(cfg.fetch_policies, d.fetch_policies);
        assert_eq!(cfg.partitions, d.partitions);
        assert_eq!(cfg.mixes, d.mixes);
        assert_eq!(cfg.seeds, d.seeds);
        assert_eq!(cfg.warmup, d.warmup);
        // '--ablations all' expands like the other list flags.
        let Command::Ablation { cfg, .. } =
            parse_cli(&argv(&["--study", "ablation", "--ablations", "all"])).unwrap()
        else {
            panic!("expected ablation mode");
        };
        assert_eq!(cfg.ablations.len(), 4);
        // Flags from the wrong mode fail loudly.
        assert!(parse_cli(&argv(&["--ablations", "perfect_icache"])).is_err());
        assert!(parse_cli(&argv(&["--study", "issue", "--ablations", "all"])).is_err());
        assert!(parse_cli(&argv(&["--study", "ablation", "--issue", "oldest"])).is_err());
        assert!(parse_cli(&argv(&["--study", "ablation", "--threads", "4"])).is_err());
        assert!(parse_cli(&argv(&["--study", "ablation", "--ablations", "nonesuch"])).is_err());
    }

    #[test]
    fn parse_accepts_custom_workload_mixes() {
        // The custom riscv:/trace:/benchmark mix syntax is validated at
        // parse time (syntax only — files are loaded when the sweep runs).
        let mix = "riscv:a.elf+trace:b.trace+espresso";
        let Command::Study { cfg, .. } =
            parse_cli(&argv(&["--study", "issue", "--mixes", mix])).unwrap()
        else {
            panic!("expected study mode");
        };
        assert_eq!(cfg.mixes, vec![mix]);
        assert!(parse_cli(&argv(&["--study", "issue", "--mixes", "bogus:x"])).is_err());
        // The checkpoint subcommands accept the same syntax.
        let Command::CheckpointWrite(cfg) = parse_cli(&argv(&[
            "checkpoint-write",
            "--path",
            "x.ckpt",
            "--mix",
            mix,
        ]))
        .unwrap() else {
            panic!("expected checkpoint-write");
        };
        assert_eq!(cfg.mix, mix);
    }

    #[test]
    fn parse_journal_and_jobs_flags_reach_every_mode() {
        let journal = Some(std::path::Path::new("j.dir"));
        let flags = ["--journal", "j.dir", "--jobs", "3"];
        let with = |mode: &[&str]| parse_cli(&argv(&[mode, &flags[..]].concat())).unwrap();
        let Command::Study { cfg, .. } = with(&["--study", "issue"]) else {
            panic!("expected study mode");
        };
        assert_eq!((cfg.journal.as_deref(), cfg.jobs), (journal, 3));
        let Command::Ablation { cfg, .. } = with(&["--study", "ablation"]) else {
            panic!("expected ablation mode");
        };
        assert_eq!((cfg.journal.as_deref(), cfg.jobs), (journal, 3));
        let Command::Matrix(cfg) = with(&[]) else {
            panic!("expected matrix mode");
        };
        assert_eq!((cfg.journal.as_deref(), cfg.jobs), (journal, 3));
        // Matrix cells never checkpoint, so the cache flag stays study-only.
        assert!(parse_cli(&argv(&["--checkpoint-dir", "c.dir"])).is_err());
    }

    #[test]
    fn parse_rejects_unknown_names() {
        assert!(parse_cli(&argv(&["--fetch", "nonesuch"])).is_err());
        for bad in ["0.8", "1.200", "16.1", "2.8,255.255"] {
            let err = parse_cli(&argv(&["--partition", bad])).unwrap_err();
            assert!(err.starts_with("bad partition"), "{bad}: {err}");
        }
        assert!(parse_cli(&argv(&["--study", "fetch"])).is_err());
        assert!(parse_cli(&argv(&["--study", "issue", "--mixes", "nonesuch"])).is_err());
        assert!(parse_cli(&argv(&["--issue", "nonesuch"])).is_err());
    }

    #[test]
    fn parse_rejects_flags_from_the_other_mode() {
        // Study-only flags without --study must fail loudly, not silently
        // run a different experiment.
        for flags in [
            &["--mixes", "int8"][..],
            &["--seeds", "1,2"][..],
            &["--issue", "all"][..],
            &["--issue", "oldest,opt_last"][..],
        ] {
            assert!(
                parse_cli(&argv(flags)).is_err(),
                "matrix mode accepted {flags:?}"
            );
        }
        // Matrix-only flags are rejected in study mode.
        assert!(parse_cli(&argv(&["--study", "issue", "--threads", "4"])).is_err());
        assert!(parse_cli(&argv(&["--study", "issue", "--verbose"])).is_err());
        // A single --issue is still fine in matrix mode.
        let Command::Matrix(cfg) = parse_cli(&argv(&["--issue", "spec_last"])).unwrap() else {
            panic!("expected matrix mode");
        };
        assert_eq!(cfg.issue_policy, "spec_last");
    }

    #[test]
    fn small_matrix_runs_and_renders() {
        let cfg = ExpConfig {
            fetch_policies: vec!["rr".into(), "icount".into()],
            partitions: vec![FetchPartition::new(2, 8)],
            threads: 2,
            cycles: 400,
            ..ExpConfig::default()
        };
        let matrix = run_matrix(&cfg).unwrap();
        assert_eq!(matrix.reports.len(), 2);
        assert!(matrix.failed.is_empty() && matrix.degraded.is_empty());
        let rendered = matrix.table.to_string();
        assert!(rendered.contains("RR"));
        assert!(rendered.contains("ICOUNT"));
        assert!(rendered.contains("2.8"));
        // The matrix JSON document parses and carries every cell, plus the
        // always-present (here empty) v4 fault lists.
        let doc = matrix_to_json(&cfg, &matrix);
        let back = Json::parse(&doc.render_pretty()).unwrap();
        assert_eq!(
            back.get("kind").and_then(Json::as_str),
            Some("smt-exp-matrix")
        );
        assert_eq!(
            back.get("cells").and_then(Json::as_array).map(<[_]>::len),
            Some(2)
        );
        for list in ["failed_cells", "degraded_cells"] {
            let entries = back.get(list).and_then(Json::as_array).unwrap();
            assert!(entries.is_empty(), "{list} not empty on a fault-free run");
        }
    }

    #[test]
    fn matrix_honours_warmup() {
        let cfg = ExpConfig {
            fetch_policies: vec!["icount".into()],
            threads: 2,
            cycles: 300,
            warmup: 150,
            ..ExpConfig::default()
        };
        let matrix = run_matrix(&cfg).unwrap();
        assert_eq!(matrix.reports[0].cycles, 300);
        assert_eq!(matrix.reports[0].warmup_cycles, 150);
        assert!(!matrix.reports[0].restored_from_checkpoint);
    }

    /// A degenerate matrix is refused up front with the CLI's message,
    /// through the library as through `parse_cli` — not run as a sweep in
    /// which every cell fails.
    #[test]
    fn degenerate_matrices_are_refused_before_any_cell_runs() {
        let threads = format!("--threads must be 1..={}", smt_core::MAX_THREADS);
        let axes = "matrix sweep axes must all be non-empty";
        let cases = [
            (
                ExpConfig {
                    threads: 0,
                    ..ExpConfig::default()
                },
                &threads[..],
            ),
            (
                ExpConfig {
                    threads: 33,
                    ..ExpConfig::default()
                },
                &threads[..],
            ),
            (
                ExpConfig {
                    fetch_policies: vec![],
                    ..ExpConfig::default()
                },
                axes,
            ),
            (
                ExpConfig {
                    partitions: vec![],
                    ..ExpConfig::default()
                },
                axes,
            ),
        ];
        for (cfg, message) in cases {
            assert_eq!(run_matrix(&cfg).err().as_deref(), Some(message), "{cfg:?}");
        }
        for n in ["0", "33"] {
            assert_eq!(
                parse_cli(&argv(&["--threads", n])).err(),
                Some(threads.clone())
            );
        }
    }

    #[test]
    fn mix_cycles_when_threads_exceed_benchmarks() {
        let m = mix_for(10);
        assert_eq!(m.len(), 10);
        assert_eq!(m[0], m[8]);
    }
}
