//! The Section-5 issue-policy study: a warmed-up, multi-mix, multi-seed
//! sweep of the full issue-policy × fetch-policy × partition matrix.
//!
//! The paper's Section 5 finds that once ICOUNT fetch keeps the queues full
//! of *good* instructions, the issue-policy choice (OLDEST_FIRST vs
//! OPT_LAST / SPEC_LAST / BRANCH_FIRST) barely moves total throughput —
//! issue bandwidth is no longer the bottleneck. [`run_study`] reproduces
//! that comparison: every cell runs behind a warmup window (so cold-start
//! cache effects do not drown the small issue-policy deltas) and the
//! result renders as a table or as the versioned JSON document described in
//! the crate docs.
//!
//! This module owns what is specific to the study — its axes (and the
//! workload-mix vocabulary every mode shares), its cell type, its summary
//! statistics and its document. Running the cells is not: [`run_study`]
//! turns the axes into one plan per cell, each forking the *shared
//! canonical* warmup of its machine, and the crate's sweep
//! engine (`sweep.rs`, described in the crate docs) does the rest —
//! parallelism, fault containment, the `--journal`, the checkpoint cache.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use smt_core::{
    fetch_policy_by_name, issue_policy_by_name, FetchPartition, SimConfig, SimReport, WorkloadSpec,
    MAX_THREADS,
};
use smt_stats::json::Json;
use smt_stats::TextTable;
use smt_workload::{standard_mix, Benchmark, Program, RiscvImage};

use crate::fault::{CellError, Degradation};
use crate::sweep::{self, CellPlan, Sweep, Warm};

/// Version of the JSON documents emitted by [`Study::to_json`],
/// [`crate::ablation::AblationStudy::to_json`] and `smt_exp --json`. Bump
/// on any breaking change to a schema. Version 2 added the ablation-study
/// document (and the optional per-report `ablations` field). Version 3
/// added the optional per-report `restored_from_checkpoint` provenance
/// flag written by the shared-warmup sweep path. Version 4 added the
/// always-present `failed_cells` and `degraded_cells` lists (both empty
/// on a fault-free run).
pub const JSON_SCHEMA_VERSION: u64 = 4;

/// The issue policy every delta is measured against.
pub const BASELINE_ISSUE: &str = "OLDEST_FIRST";

/// Workload mixes the studies sweep, by name.
///
/// * `standard` — the paper's 8-thread mix (4 integer + 4 FP benchmarks),
/// * `int8` — eight integer-heavy contexts (branchy, pointer-chasing),
/// * `fp8` — eight FP-heavy contexts (streaming, high ILP),
/// * `mixed4` — a four-thread half-machine mix.
pub fn mix_by_name(name: &str) -> Option<Vec<Benchmark>> {
    use Benchmark::*;
    match name {
        "standard" => Some(standard_mix()),
        "int8" => Some(vec![
            Espresso, Eqntott, Xlisp, Compress, Espresso, Eqntott, Xlisp, Compress,
        ]),
        "fp8" => Some(vec![
            Alvinn, Tomcatv, Doduc, Fpppp, Su2cor, Swm256, Alvinn, Tomcatv,
        ]),
        "mixed4" => Some(vec![Espresso, Xlisp, Alvinn, Tomcatv]),
        _ => None,
    }
}

/// The named mixes [`mix_by_name`] knows, for CLI validation and help text.
pub const STUDY_MIXES: [&str; 4] = ["standard", "int8", "fp8", "mixed4"];

/// One entry of a custom `+`-separated mix string (see [`parse_custom_mix`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum MixEntry {
    /// A synthetic benchmark, by canonical name (e.g. `espresso`).
    Bench(Benchmark),
    /// `riscv:PATH` — an rv64 ELF binary, functionally executed.
    Elf(PathBuf),
}

/// Whether `mix` is a custom workload list (to be parsed by
/// [`parse_custom_mix`]) rather than one of the [`STUDY_MIXES`] names.
pub(crate) fn is_custom_mix(mix: &str) -> bool {
    mix.contains(':') || mix.contains('+')
}

/// Parses a custom mix string: one workload per hardware context,
/// `+`-separated, each entry `riscv:PATH` (an rv64 ELF binary to
/// execute) or a synthetic benchmark name. `riscv:loops.elf+espresso` is
/// a two-thread mix. Paths are not touched here — existence is checked
/// when the sweep loads its images.
///
/// # Errors
///
/// Returns a usage-style message for an empty entry, a `trace:` entry, an
/// unknown entry kind or benchmark name, or more entries than hardware
/// contexts.
pub(crate) fn parse_custom_mix(mix: &str) -> Result<Vec<MixEntry>, String> {
    let mut entries = Vec::new();
    for entry in mix.split('+') {
        let entry = entry.trim();
        let parsed = match entry.split_once(':') {
            Some(("riscv", path)) if !path.is_empty() => MixEntry::Elf(PathBuf::from(path)),
            Some(("trace", _)) => {
                return Err(format!(
                    "mix entry '{entry}': trace replay is not a mix entry; \
                     run the binary itself with riscv:PATH"
                ))
            }
            Some((kind, _)) => {
                return Err(format!(
                    "unknown workload kind '{kind}:' in mix entry '{entry}' (known: riscv:PATH)"
                ))
            }
            None => match Benchmark::ALL.iter().find(|b| b.name() == entry) {
                Some(&b) => MixEntry::Bench(b),
                None => {
                    return Err(format!(
                        "unknown benchmark '{entry}' in custom mix \
                         (entries are riscv:PATH or a benchmark name)"
                    ))
                }
            },
        };
        entries.push(parsed);
    }
    if entries.is_empty() || entries.len() > MAX_THREADS {
        return Err(format!(
            "custom mix must name 1..={MAX_THREADS} workloads, got {}",
            entries.len()
        ));
    }
    Ok(entries)
}

/// Validates one `--mixes` entry: a [`STUDY_MIXES`] name or a custom
/// workload list, `+`-separated `riscv:PATH` entries and benchmark names.
///
/// # Errors
///
/// Returns a usage-style message for a bad custom mix (an empty entry, a
/// `trace:` entry, an unknown entry kind or benchmark name, or more
/// entries than hardware contexts), or an unknown-name message listing
/// the named mixes and the custom syntax.
pub fn validate_mix(mix: &str) -> Result<(), String> {
    if is_custom_mix(mix) {
        parse_custom_mix(mix).map(|_| ())
    } else if mix_by_name(mix).is_some() {
        Ok(())
    } else {
        Err(format!(
            "unknown mix '{mix}' (known: {}; or a custom riscv:PATH / \
             benchmark list joined with '+')",
            STUDY_MIXES.join(", ")
        ))
    }
}

/// Pre-generated workload images for one (mix, seed) pair, shared
/// (`Arc`-cloned) between every cell that uses the pair. Both variants
/// install as one [`SimConfig::workloads`] list; the split only records
/// where the images came from.
#[derive(Debug, Clone)]
pub enum MixImages {
    /// A named synthetic mix as program images (one
    /// [`WorkloadSpec::Program`] per context).
    Programs(Vec<Arc<Program>>),
    /// A custom workload list: `riscv:` entries and synthetic
    /// benchmarks, in the order the mix names them.
    Workloads(Vec<WorkloadSpec>),
}

impl MixImages {
    /// Installs this workload set on a configuration.
    pub fn apply(&self, cfg: SimConfig) -> SimConfig {
        cfg.with_workloads(match self {
            MixImages::Programs(p) => p.iter().cloned().map(WorkloadSpec::Program).collect(),
            MixImages::Workloads(w) => w.clone(),
        })
    }
}

/// Resolves one mix string for one seed: named mixes generate their
/// synthetic program images, custom mixes load each `riscv:` file (and
/// generate any synthetic entries). Benchmark entries are
/// pre-generated here — once per (mix, seed) — so cells share images
/// instead of regenerating them.
///
/// # Errors
///
/// Returns the mix-syntax error or the loader's message for an unreadable
/// or malformed workload file.
pub fn resolve_mix(mix: &str, seed: u64) -> Result<MixImages, String> {
    if !is_custom_mix(mix) {
        let benchmarks = mix_by_name(mix).ok_or_else(|| format!("unknown mix '{mix}'"))?;
        return Ok(MixImages::Programs(
            benchmarks
                .iter()
                .enumerate()
                .map(|(slot, b)| Arc::new(b.generate(seed, slot as u32)))
                .collect(),
        ));
    }
    let mut workloads = Vec::new();
    for (slot, entry) in parse_custom_mix(mix)?.into_iter().enumerate() {
        workloads.push(match entry {
            MixEntry::Bench(b) => WorkloadSpec::Program(Arc::new(b.generate(seed, slot as u32))),
            MixEntry::Elf(path) => WorkloadSpec::Elf(Arc::new(RiscvImage::load(&path)?)),
        });
    }
    Ok(MixImages::Workloads(workloads))
}

/// The canonical name of a shipped fetch policy (`rr` → `RR`, as reports
/// spell it), or the unknown-name message.
pub(crate) fn fetch_name(name: &str) -> Result<String, String> {
    let policy = fetch_policy_by_name(name);
    let policy = policy.ok_or_else(|| format!("unknown fetch policy '{name}'"))?;
    Ok(policy.name().to_string())
}

/// See [`fetch_name`].
pub(crate) fn issue_name(name: &str) -> Result<String, String> {
    let policy = issue_policy_by_name(name);
    let policy = policy.ok_or_else(|| format!("unknown issue policy '{name}'"))?;
    Ok(policy.name().to_string())
}

/// Rejects a sweep axis that lists an entry twice: the two cells would
/// share one journal key and one checkpoint-cache entry, and two workers
/// publishing the same file break `durable`'s one-writer-per-path rule.
pub(crate) fn reject_repeats<T: PartialEq + std::fmt::Display>(
    axis: &str,
    entries: &[T],
) -> Result<(), String> {
    for (i, entry) in entries.iter().enumerate() {
        if entries[..i].contains(entry) {
            return Err(format!("the {axis} axis lists '{entry}' more than once"));
        }
    }
    Ok(())
}

/// The largest seed a sweep document reports exactly. JSON numbers are
/// `f64`s, so a larger seed would print as a neighbouring value while the
/// journal key and cache names use the exact one: two distinct machines
/// would show up under one seed.
const MAX_EXACT_SEED: u64 = 1 << 53;

/// Rejects a seed above [`MAX_EXACT_SEED`].
pub(crate) fn reject_inexact_seeds(seeds: &[u64]) -> Result<(), String> {
    match seeds.iter().find(|&&s| s > MAX_EXACT_SEED) {
        Some(s) => Err(format!(
            "seed {s} is above 2^53 = {MAX_EXACT_SEED}, which the JSON document cannot report exactly"
        )),
        None => Ok(()),
    }
}

/// Checks a policy axis: every name known, none listed twice — compared
/// by canonical name, so `rr,RR` repeats.
pub(crate) fn distinct_policies(
    axis: &str,
    names: &[String],
    canonical: fn(&str) -> Result<String, String>,
) -> Result<(), String> {
    let names: Vec<String> = names
        .iter()
        .map(|n| canonical(n))
        .collect::<Result<_, _>>()?;
    reject_repeats(axis, &names)
}

/// Mean of the values, `None` when there are none.
pub(crate) fn mean(values: impl Iterator<Item = f64>) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    (n > 0).then(|| sum / n as f64)
}

/// Configuration of one study sweep.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Fetch policies to cross with the issue policies.
    pub fetch_policies: Vec<String>,
    /// Issue policies under study.
    pub issue_policies: Vec<String>,
    /// Fetch partitions to sweep.
    pub partitions: Vec<FetchPartition>,
    /// Workload mixes: [`STUDY_MIXES`] names or custom `riscv:` lists
    /// (see [`validate_mix`]).
    pub mixes: Vec<String>,
    /// Workload-generation seeds; every cell runs once per seed.
    pub seeds: Vec<u64>,
    /// Measured cycles per cell (after warmup).
    pub cycles: u64,
    /// Warmup cycles excluded from every cell's statistics.
    pub warmup: u64,
    /// Worker threads for the sweep; `0` means one per available core.
    pub jobs: usize,
    /// Cache the per-key warmup checkpoints in this directory
    /// (`--checkpoint-dir`); entries are fingerprint-validated on load and
    /// recomputed on any mismatch.
    pub checkpoint_dir: Option<PathBuf>,
    /// Durable result journal (`--journal`): append each completed cell's
    /// report to this directory as it finishes, and on start resume every
    /// journaled cell instead of re-running it. A sweep killed mid-flight
    /// and re-run with the same journal produces a document byte-identical
    /// to an uninterrupted run (see [`crate::journal`]).
    pub journal: Option<PathBuf>,
}

impl Default for StudyConfig {
    fn default() -> StudyConfig {
        StudyConfig {
            fetch_policies: vec!["rr".into(), "icount".into()],
            issue_policies: vec![
                "oldest".into(),
                "opt_last".into(),
                "spec_last".into(),
                "branch_first".into(),
            ],
            // PR 5's hot-loop speedup bought the wider default matrix the
            // PR-3 roadmap item asked for: the 2.2 (narrow per-thread) and
            // 4.4 (over-provisioned) partitions bracket the paper's 2.8,
            // and a third seed tightens every mean.
            partitions: vec![
                FetchPartition::new(2, 2),
                FetchPartition::new(2, 8),
                FetchPartition::new(4, 4),
            ],
            mixes: vec!["standard".into(), "int8".into(), "fp8".into()],
            seeds: vec![42, 1337, 7],
            cycles: 20_000,
            warmup: 10_000,
            jobs: 0,
            checkpoint_dir: None,
            journal: None,
        }
    }
}

impl StudyConfig {
    /// Validates every policy and mix name, that no axis is empty or lists
    /// an entry twice, and that no seed exceeds 2^53.
    ///
    /// # Errors
    ///
    /// Returns a usage-style message naming the first problem.
    pub fn validate(&self) -> Result<(), String> {
        distinct_policies("fetch", &self.fetch_policies, fetch_name)?;
        distinct_policies("issue", &self.issue_policies, issue_name)?;
        for m in &self.mixes {
            validate_mix(m)?;
        }
        if self.fetch_policies.is_empty()
            || self.issue_policies.is_empty()
            || self.partitions.is_empty()
            || self.mixes.is_empty()
            || self.seeds.is_empty()
        {
            return Err("study sweep axes must all be non-empty".to_string());
        }
        reject_repeats("partition", &self.partitions)?;
        reject_repeats("mix", &self.mixes)?;
        reject_repeats("seed", &self.seeds)?;
        reject_inexact_seeds(&self.seeds)
    }

    /// Number of cells the sweep will run.
    pub fn cell_count(&self) -> usize {
        self.fetch_policies.len()
            * self.issue_policies.len()
            * self.partitions.len()
            * self.mixes.len()
            * self.seeds.len()
    }
}

/// One completed cell of the study matrix.
#[derive(Debug, Clone)]
pub struct StudyCell {
    /// Canonical fetch-policy name (e.g. `"ICOUNT"`).
    pub fetch: String,
    /// Canonical issue-policy name (e.g. `"OPT_LAST"`).
    pub issue: String,
    /// Fetch partition this cell ran.
    pub partition: FetchPartition,
    /// Workload-mix name.
    pub mix: String,
    /// Workload-generation seed.
    pub seed: u64,
    /// The full simulation report for the measured window.
    pub report: SimReport,
}

/// One contained cell failure: the cell's matrix coordinates plus the
/// typed error. Failed cells appear in the document's `failed_cells` list
/// (in deterministic spec order) instead of aborting the sweep.
#[derive(Debug, Clone)]
pub struct FailedStudyCell {
    /// Canonical fetch-policy name.
    pub fetch: String,
    /// Canonical issue-policy name.
    pub issue: String,
    /// Fetch partition the cell would have run.
    pub partition: FetchPartition,
    /// Workload-mix name.
    pub mix: String,
    /// Workload-generation seed.
    pub seed: u64,
    /// Why the cell failed.
    pub error: CellError,
}

/// Results of one sweep: the configuration plus every cell.
#[derive(Debug, Clone)]
pub struct Study {
    /// The sweep configuration that produced these cells.
    pub config: StudyConfig,
    /// One entry per *completed* matrix cell, in deterministic
    /// (mix, seed, partition, fetch, issue) order.
    pub cells: Vec<StudyCell>,
    /// Cells whose fault was contained (panic, workload, checkpoint or
    /// I/O), in the same deterministic spec order. Empty on a fault-free
    /// run; completed cells are byte-identical either way.
    pub failed: Vec<FailedStudyCell>,
    /// Graceful-degradation events survived along the way (cache or
    /// journal trouble that cost speed or durability, never results), in
    /// deterministic order: journal-read first, then warmup-cache, then
    /// journal-write events.
    pub degraded: Vec<Degradation>,
    /// Warmup simulations actually executed: one per unique machine (two
    /// spellings of one mix are one machine) when warmups are shared,
    /// fewer when a checkpoint directory served cached entries. Deliberately not
    /// part of [`Study::to_json`] — the shared and cold paths produce
    /// byte-identical documents.
    pub warmups_performed: usize,
    /// Cells resumed from the `--journal` directory instead of re-run.
    /// Deliberately not part of [`Study::to_json`] — a resumed run's
    /// document is byte-identical to an uninterrupted one.
    pub journal_loaded: usize,
}

/// Runs the full study matrix on the shared sweep engine (`sweep.rs`):
/// one plan per cell, in (mix, seed, partition, fetch, issue) order,
/// every one forking the canonical warmup checkpoint of its (mix, seed,
/// partition) — the policies under study only steer the measured window,
/// so one warmup serves the whole fetch × issue cross-product.
///
/// Cell faults are contained: a panicking cell, an unloadable workload
/// file, a checkpoint mismatch or a post-retry I/O failure becomes a
/// [`FailedStudyCell`] while every other cell completes with bytes
/// identical to a fault-free run. With [`StudyConfig::journal`] the sweep
/// is also crash-resumable (see [`crate::journal`]).
///
/// # Errors
///
/// Returns the [`StudyConfig::validate`] message for bad names, or the
/// open error when the requested journal directory cannot be created —
/// the only faults that still fail the whole sweep.
pub fn run_study(cfg: &StudyConfig) -> Result<Study, String> {
    cfg.validate()?;
    let (sweep, axes) = plan_sweep(cfg);
    let outcome = sweep::run(&sweep)?;

    let mut cells = Vec::new();
    let mut failed = Vec::new();
    for ((plan, (fetch, issue)), result) in sweep.plans.iter().zip(axes).zip(outcome.cells) {
        match result {
            Ok(report) => cells.push(StudyCell {
                fetch: report.fetch_policy.clone(),
                issue: report.issue_policy.clone(),
                partition: plan.partition,
                mix: plan.mix.to_string(),
                seed: plan.seed,
                report,
            }),
            Err(error) => failed.push(FailedStudyCell {
                fetch: fetch_name(fetch).expect("validated"),
                issue: issue_name(issue).expect("validated"),
                partition: plan.partition,
                mix: plan.mix.to_string(),
                seed: plan.seed,
                error,
            }),
        }
    }
    Ok(Study {
        config: cfg.clone(),
        cells,
        failed,
        degraded: outcome.degraded,
        warmups_performed: outcome.warmups_performed,
        journal_loaded: outcome.journal_loaded,
    })
}

/// A validated configuration's sweep — one plan per cell — plus each
/// plan's (fetch, issue) coordinates.
fn plan_sweep(cfg: &StudyConfig) -> (Sweep<'_>, Vec<(&String, &String)>) {
    let mut axes = Vec::with_capacity(cfg.cell_count());
    let mut plans = Vec::with_capacity(cfg.cell_count());
    for mix in &cfg.mixes {
        for &seed in &cfg.seeds {
            for &partition in &cfg.partitions {
                for fetch in &cfg.fetch_policies {
                    for issue in &cfg.issue_policies {
                        axes.push((fetch, issue));
                        plans.push(CellPlan {
                            mix,
                            seed,
                            partition,
                            key_parts: vec!["issue-study", fetch, issue],
                            warm: Warm::Shared,
                            config: Box::new(move |images| {
                                images
                                    .apply(SimConfig::new())
                                    .with_seed(seed)
                                    .with_fetch(fetch_policy_by_name(fetch).expect("validated"))
                                    .with_issue(issue_policy_by_name(issue).expect("validated"))
                                    .with_partition(partition)
                            }),
                        });
                    }
                }
            }
        }
    }
    let sweep = Sweep {
        images: sweep::resolve_images(&cfg.mixes, &cfg.seeds),
        cycles: cfg.cycles,
        warmup: cfg.warmup,
        jobs: cfg.jobs,
        checkpoint_dir: cfg.checkpoint_dir.as_deref(),
        journal: cfg.journal.as_deref(),
        plans,
    };
    (sweep, axes)
}

impl Study {
    /// The cell's IPC delta against the OLDEST_FIRST cell with the same
    /// fetch policy, partition, mix and seed (`None` when the baseline was
    /// not part of the sweep; `0.0` for baseline cells themselves).
    pub fn delta_vs_baseline(&self, cell: &StudyCell) -> Option<f64> {
        let base = self.cells.iter().find(|c| {
            c.issue == BASELINE_ISSUE
                && c.fetch == cell.fetch
                && c.partition == cell.partition
                && c.mix == cell.mix
                && c.seed == cell.seed
        })?;
        Some(cell.report.total_ipc() - base.report.total_ipc())
    }

    /// Mean total IPC per issue policy, averaged over every fetch policy,
    /// partition, mix and seed, in first-seen order.
    pub fn mean_ipc_by_issue(&self) -> Vec<(String, f64)> {
        mean_by(&self.cells, |c| c.issue.clone())
    }

    /// Mean total IPC per fetch policy, restricted to the baseline issue
    /// policy so the comparison is not diluted by issue-policy variation.
    pub fn mean_ipc_by_fetch(&self) -> Vec<(String, f64)> {
        let base: Vec<StudyCell> = self
            .cells
            .iter()
            .filter(|c| c.issue == BASELINE_ISSUE)
            .cloned()
            .collect();
        if base.is_empty() {
            mean_by(&self.cells, |c| c.fetch.clone())
        } else {
            mean_by(&base, |c| c.fetch.clone())
        }
    }

    /// Max-minus-min of the per-issue-policy mean IPCs: how much the issue
    /// policy choice moves throughput.
    pub fn issue_ipc_spread(&self) -> f64 {
        spread(&self.mean_ipc_by_issue())
    }

    /// Max-minus-min of the per-fetch-policy mean IPCs: how much the fetch
    /// policy choice moves throughput.
    pub fn fetch_ipc_spread(&self) -> f64 {
        spread(&self.mean_ipc_by_fetch())
    }

    /// A Section-5-style table: one row per (partition, mix, seed, fetch),
    /// one column per issue policy, cells in total IPC.
    pub fn summary_table(&self) -> TextTable {
        let mut issues: Vec<String> = Vec::new();
        for c in &self.cells {
            if !issues.contains(&c.issue) {
                issues.push(c.issue.clone());
            }
        }
        let mut table = TextTable::new();
        let mut header = vec!["scheme/mix/seed".to_string()];
        header.extend(issues.iter().cloned());
        table.header(header);
        let mut seen: Vec<(String, FetchPartition, String, u64)> = Vec::new();
        for c in &self.cells {
            let key = (c.fetch.clone(), c.partition, c.mix.clone(), c.seed);
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            let mut row = vec![format!("{}.{}/{}/{}", c.fetch, c.partition, c.mix, c.seed)];
            for issue in &issues {
                let ipc = self
                    .cells
                    .iter()
                    .find(|x| {
                        x.issue == *issue
                            && x.fetch == c.fetch
                            && x.partition == c.partition
                            && x.mix == c.mix
                            && x.seed == c.seed
                    })
                    .map(|x| x.report.total_ipc());
                row.push(match ipc {
                    Some(ipc) => format!("{ipc:.2}"),
                    None => "-".to_string(),
                });
            }
            table.row(row);
        }
        table
    }

    /// The versioned machine-readable document (see the crate docs for the
    /// schema). `smt_exp --study issue --json out.json` writes exactly this,
    /// pretty-rendered.
    pub fn to_json(&self) -> Json {
        let cfg = &self.config;
        let config = sweep::config_json(
            cfg.cycles,
            cfg.warmup,
            &cfg.fetch_policies,
            ("issue_policies", sweep::names(&cfg.issue_policies)),
            &cfg.partitions,
            ("mixes", sweep::names(&cfg.mixes)),
            &cfg.seeds,
        );
        let coordinates =
            |fetch: &str, issue: &str, partition: FetchPartition, mix: &str, seed: u64| {
                vec![
                    ("fetch", Json::from(fetch)),
                    ("issue", Json::from(issue)),
                    ("partition", Json::from(partition.to_string())),
                    ("mix", Json::from(mix)),
                    ("seed", Json::from(seed)),
                ]
            };
        let cells = Json::array(self.cells.iter().map(|c| {
            let mut cell = coordinates(&c.fetch, &c.issue, c.partition, &c.mix, c.seed);
            cell.extend([
                ("total_ipc", Json::from(c.report.total_ipc())),
                (
                    "delta_vs_oldest",
                    self.delta_vs_baseline(c).map_or(Json::Null, Json::from),
                ),
                ("report", c.report.to_json()),
            ]);
            Json::object(cell)
        }));
        let failed = Json::array(self.failed.iter().map(|f| {
            let mut cell = coordinates(&f.fetch, &f.issue, f.partition, &f.mix, f.seed);
            cell.push(("error", f.error.to_json()));
            Json::object(cell)
        }));
        let issue_summary = Json::array(self.mean_ipc_by_issue().into_iter().map(|(name, ipc)| {
            let deltas = self.cells.iter().filter(|c| c.issue == name);
            let mean_delta = mean(deltas.filter_map(|c| self.delta_vs_baseline(c))).unwrap_or(0.0);
            Json::object([
                ("issue", Json::from(name)),
                ("mean_ipc", Json::from(ipc)),
                ("mean_delta_vs_oldest", Json::from(mean_delta)),
            ])
        }));
        let fetch_summary = Json::array(self.mean_ipc_by_fetch().into_iter().map(|(name, ipc)| {
            Json::object([("fetch", Json::from(name)), ("mean_ipc", Json::from(ipc))])
        }));
        let summary = Json::object([
            ("baseline_issue", Json::from(BASELINE_ISSUE)),
            ("issue_policies", issue_summary),
            ("fetch_policies", fetch_summary),
            ("issue_ipc_spread", Json::from(self.issue_ipc_spread())),
            ("fetch_ipc_spread", Json::from(self.fetch_ipc_spread())),
        ]);
        let study = Some(("issue", summary));
        sweep::document(study, config, cells, failed, &self.degraded)
    }
}

fn mean_by(cells: &[StudyCell], key: impl Fn(&StudyCell) -> String) -> Vec<(String, f64)> {
    let mut order: Vec<String> = Vec::new();
    let mut sums: HashMap<String, (f64, usize)> = HashMap::new();
    for c in cells {
        let k = key(c);
        if !order.contains(&k) {
            order.push(k.clone());
        }
        let e = sums.entry(k).or_insert((0.0, 0));
        e.0 += c.report.total_ipc();
        e.1 += 1;
    }
    order
        .into_iter()
        .map(|k| {
            let (sum, n) = sums[&k];
            (k, sum / n as f64)
        })
        .collect()
}

fn spread(means: &[(String, f64)]) -> f64 {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &(_, ipc) in means {
        min = min.min(ipc);
        max = max.max(ipc);
    }
    if means.is_empty() {
        0.0
    } else {
        max - min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_study() -> StudyConfig {
        StudyConfig {
            fetch_policies: vec!["rr".into(), "icount".into()],
            issue_policies: vec!["oldest".into(), "spec_last".into()],
            mixes: vec!["mixed4".into()],
            seeds: vec![42],
            cycles: 600,
            warmup: 200,
            jobs: 2,
            ..StudyConfig::default()
        }
    }

    #[test]
    fn default_config_is_valid_and_sized() {
        let cfg = StudyConfig::default();
        cfg.validate().unwrap();
        // 2 fetch × 4 issue × 3 partitions × 3 mixes × 3 seeds.
        assert_eq!(cfg.cell_count(), 216);
        assert!(
            cfg.seeds.contains(&7),
            "the widened default matrix carries seed 7"
        );
        for p in ["2.2", "4.4", "2.8"] {
            assert!(
                cfg.partitions.contains(&FetchPartition::parse(p).unwrap()),
                "the widened default matrix carries the {p} partition"
            );
        }
    }

    #[test]
    fn validate_rejects_unknown_names() {
        let cfg = StudyConfig {
            mixes: vec!["nonesuch".into()],
            ..StudyConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = StudyConfig {
            issue_policies: vec!["nonesuch".into()],
            ..StudyConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = StudyConfig {
            seeds: Vec::new(),
            ..StudyConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn every_named_mix_resolves() {
        for name in STUDY_MIXES {
            let mix = mix_by_name(name).unwrap();
            assert!(!mix.is_empty(), "{name} is empty");
        }
        assert!(mix_by_name("nope").is_none());
    }

    fn elf_path(stem: &str) -> String {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../testdata/riscv")
            .join(format!("{stem}.elf"))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn custom_mixes_parse_validate_and_resolve() {
        assert!(is_custom_mix("riscv:a.elf"));
        assert!(is_custom_mix("espresso+tomcatv"));
        assert!(!is_custom_mix("standard"));

        let entries = parse_custom_mix("riscv:a.elf+espresso").unwrap();
        assert_eq!(entries.len(), 2);
        assert!(matches!(entries[0], MixEntry::Elf(_)));
        assert!(matches!(entries[1], MixEntry::Bench(Benchmark::Espresso)));
        // A recorded trace is not a mix entry: the refusal quotes the
        // entry and names the spelling that runs the binary.
        let err = parse_custom_mix("riscv:a.elf+trace:b.trace").unwrap_err();
        assert!(
            err.contains("'trace:b.trace'") && err.contains("riscv:PATH"),
            "{err}"
        );

        assert!(parse_custom_mix("bogus:a")
            .unwrap_err()
            .contains("unknown workload kind"));
        assert!(parse_custom_mix("riscv:").is_err());
        assert!(parse_custom_mix("nonesuch+espresso")
            .unwrap_err()
            .contains("unknown benchmark"));

        validate_mix("standard").unwrap();
        assert!(validate_mix("nonesuch").is_err());
        validate_mix("espresso+espresso").unwrap();

        // Loader errors surface at resolve time, with the path named.
        assert!(resolve_mix("riscv:/no/such/file.elf", 42).is_err());
        let resolved = resolve_mix(&format!("riscv:{}+espresso", elf_path("loops")), 42).unwrap();
        assert!(matches!(resolved, MixImages::Workloads(w) if w.len() == 2));
    }

    #[test]
    fn riscv_mix_study_reports_icount_vs_rr_frontend_losses() {
        // The acceptance measurement for the real-binary workload path:
        // ICOUNT vs RR on the checked-in ELFs, with every cell's measured
        // lost_frontend_full present in the study JSON.
        let mix = format!(
            "riscv:{}+riscv:{}+riscv:{}",
            elf_path("loops"),
            elf_path("memsum"),
            elf_path("gcd")
        );
        let cfg = StudyConfig {
            fetch_policies: vec!["rr".into(), "icount".into()],
            issue_policies: vec!["oldest".into()],
            partitions: vec![FetchPartition::new(2, 8)],
            mixes: vec![mix.clone()],
            seeds: vec![42],
            cycles: 1_500,
            warmup: 500,
            jobs: 2,
            ..StudyConfig::default()
        };
        let study = run_study(&cfg).unwrap();
        assert_eq!(study.cells.len(), 2);
        for c in &study.cells {
            assert!(c.report.total_committed() > 0, "real workload starved");
            assert_eq!(c.report.threads[0].benchmark, "loops");
            assert_eq!(c.mix, mix);
        }
        let doc = study.to_json().render_pretty();
        let back = Json::parse(&doc).unwrap();
        let mut fetches = Vec::new();
        for cell in back.get("cells").and_then(Json::as_array).unwrap() {
            let lost = cell
                .get("report")
                .and_then(|r| r.get("fetch"))
                .and_then(|f| f.get("lost_frontend_full"))
                .and_then(Json::as_u64);
            assert!(lost.is_some(), "cell lacks measured lost_frontend_full");
            fetches.push(
                cell.get("fetch")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string(),
            );
        }
        assert!(fetches.contains(&"RR".to_string()));
        assert!(fetches.contains(&"ICOUNT".to_string()));
        // The whole document — warmup forking included — is reproducible.
        assert_eq!(doc, run_study(&cfg).unwrap().to_json().render_pretty());
    }

    #[test]
    fn tiny_study_runs_all_cells_with_warmup() {
        let cfg = tiny_study();
        let study = run_study(&cfg).unwrap();
        assert_eq!(study.cells.len(), cfg.cell_count());
        for c in &study.cells {
            assert_eq!(c.report.cycles, cfg.cycles);
            assert_eq!(c.report.warmup_cycles, cfg.warmup);
            assert!(c.report.total_committed() > 0, "cell made no progress");
            // Every cell self-describes its checkpoint provenance.
            assert!(c.report.restored_from_checkpoint);
        }
        // One warmup per unique machine, not per cell.
        assert_eq!(
            study.warmups_performed,
            cfg.mixes.len() * cfg.seeds.len() * cfg.partitions.len()
        );
        assert!(study.warmups_performed < cfg.cell_count());
        // Baseline cells have exactly zero delta; every cell has one.
        for c in &study.cells {
            let d = study.delta_vs_baseline(c).expect("baseline in sweep");
            if c.issue == BASELINE_ISSUE {
                assert_eq!(d, 0.0);
            }
        }
        // Parallel scheduling must not perturb results: rerun serially.
        let serial = run_study(&StudyConfig {
            jobs: 1,
            ..cfg.clone()
        })
        .unwrap();
        for (a, b) in study.cells.iter().zip(serial.cells.iter()) {
            assert_eq!(a.report.total_committed(), b.report.total_committed());
            assert_eq!(
                (a.fetch.clone(), a.issue.clone()),
                (b.fetch.clone(), b.issue.clone())
            );
        }
    }

    #[test]
    fn issue_sweep_steps_one_warmup_per_key_and_one_window_per_cell() {
        let cfg = tiny_study();
        let keys = (cfg.mixes.len() * cfg.seeds.len() * cfg.partitions.len()) as u64;
        let outcome = sweep::run(&plan_sweep(&cfg).0).unwrap();
        assert_eq!(
            outcome.simulated_cycles,
            keys * cfg.warmup + cfg.cell_count() as u64 * cfg.cycles
        );
    }

    #[test]
    fn an_aliased_issue_sweep_simulates_each_machine_once() {
        // `int8` and its eight benchmark names are one machine: spelled
        // both ways, the sweep does the work of `int8` alone, and each
        // spelling's cells hold that sweep's reports.
        let run = |mixes: &[&str]| {
            let cfg = StudyConfig {
                mixes: mixes.iter().map(|m| m.to_string()).collect(),
                ..tiny_study()
            };
            let outcome = sweep::run(&plan_sweep(&cfg).0).unwrap();
            let reports: Vec<SimReport> = outcome.cells.into_iter().map(Result::unwrap).collect();
            assert!(outcome.degraded.is_empty(), "{:?}", outcome.degraded);
            (outcome.simulated_cycles, outcome.warmups_performed, reports)
        };
        let spelled = "espresso+eqntott+xlisp+compress+espresso+eqntott+xlisp+compress";
        let (cycles, warmups, alone) = run(&["int8"]);
        let (aliased_cycles, aliased_warmups, aliased) = run(&["int8", spelled]);
        assert_eq!((aliased_cycles, aliased_warmups), (cycles, warmups));
        let (first, second) = aliased.split_at(alone.len());
        assert!(first == alone && second == alone);
    }

    #[test]
    fn study_json_round_trips_and_carries_summary() {
        let study = run_study(&tiny_study()).unwrap();
        let doc = study.to_json();
        let text = doc.render_pretty();
        let back = Json::parse(&text).expect("study JSON must parse");
        assert_eq!(
            back.get("schema_version").and_then(Json::as_u64),
            Some(JSON_SCHEMA_VERSION)
        );
        assert_eq!(
            back.get("kind").and_then(Json::as_str),
            Some("smt-exp-study")
        );
        let cells = back.get("cells").and_then(Json::as_array).unwrap();
        assert_eq!(cells.len(), study.cells.len());
        // The v4 fault lists are always present — and empty on a clean run.
        for list in ["failed_cells", "degraded_cells"] {
            let entries = back.get(list).and_then(Json::as_array).unwrap();
            assert!(entries.is_empty(), "{list} not empty on a fault-free run");
        }
        let summary = back.get("summary").unwrap();
        assert!(summary
            .get("issue_ipc_spread")
            .and_then(Json::as_f64)
            .is_some());
        assert_eq!(
            summary.get("baseline_issue").and_then(Json::as_str),
            Some(BASELINE_ISSUE)
        );
        // The table renders one row per (fetch, partition, mix, seed).
        let table = study.summary_table().to_string();
        assert!(table.contains("OLDEST_FIRST"));
        assert!(table.contains("SPEC_LAST"));
    }
}
