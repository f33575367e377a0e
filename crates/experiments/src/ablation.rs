//! The mechanism-ablation study: every [`Ablation`] against the
//! un-ablated baseline, across fetch policies × partitions × mixes ×
//! seeds × {cold, warm} measurement windows.
//!
//! Section 4 of the paper attributes throughput effects by turning one
//! mechanism off at a time; this study does the same with the typed
//! [`Ablations`] set `SimConfig` carries, and it
//! exists to convert two specific attribution questions into
//! machine-readable numbers:
//!
//! 1. **The ~2% wrong-path claim** — how much IPC does wrong-path I-fetch
//!    bank/port contention cost? `exempt_wrong_path_bank_arbitration`
//!    removes exactly that contention, so its warm-window IPC delta *is*
//!    the cost ([`AblationStudy::wrong_path_claim`]).
//! 2. **The ICOUNT-vs-RR gap decomposition** — how much of the gap is
//!    cold-start I-cache behaviour versus queue clog? `perfect_icache`
//!    removes the I-cache term (compare the cold-window gap with and
//!    without it), and `infinite_frontend_queues` removes the queue-clog
//!    term ICOUNT's feedback avoids — visible directly in the
//!    `lost_frontend_full` bucket shift ([`AblationStudy::gap`]).
//!
//! `smt_exp --study ablation --json out.json` writes the schema-version-4
//! document described in the crate docs.
//!
//! This module owns the study's axes, cell type, attribution statistics
//! and document; [`run_ablation_study`] turns the axes into one plan per
//! cell for the crate's sweep engine (`sweep.rs`, described in the crate
//! docs), which runs them exactly as it runs the issue study's — in
//! parallel, with a failing cell contained as a [`FailedAblationCell`] in
//! `failed_cells`, resuming from a durable `--journal` directory (see
//! [`crate::journal`]). Two warm kinds appear: cold-window plans warm
//! *none* (they run straight through), and warm-window plans warm under
//! their *own* fetch policy and ablation set, inside the cell — see
//! [`crate::warmup`] for why ablations, unlike the issue study's policy
//! axes, preclude sharing one warmup across cells. What the two windows
//! of one configuration *can* share is their trajectory: each warm plan
//! names its cold twin, and the engine simulates such a pair once.

use std::fmt;

use smt_core::{fetch_policy_by_name, Ablation, Ablations, FetchPartition, SimConfig, SimReport};
use smt_stats::json::Json;
use smt_stats::TextTable;

use crate::fault::{CellError, Degradation};
use crate::study::{
    distinct_policies, fetch_name, mean, reject_inexact_seeds, reject_repeats, validate_mix,
    StudyConfig,
};
use crate::sweep::{self, CellPlan, Sweep, Warm};

/// The paper's claim the wrong-path exemption quantifies: wrong-path
/// instruction fetching costs on the order of 2% of throughput.
pub const PAPER_WRONG_PATH_CLAIM_PCT: f64 = 2.0;

/// One measurement window kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Window {
    /// Measured from the cold start (cold caches and predictor).
    Cold,
    /// Measured after the configured warmup (warm caches and predictor).
    Warm,
}

impl Window {
    /// Both windows, in sweep order.
    pub const ALL: [Window; 2] = [Window::Cold, Window::Warm];

    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Window::Cold => "cold",
            Window::Warm => "warm",
        }
    }
}

impl fmt::Display for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Checks an ablation name against [`Ablation::ALL`].
pub(crate) fn check_ablation(name: &str) -> Result<(), String> {
    if Ablation::by_name(name).is_some() {
        return Ok(());
    }
    let known: Vec<&str> = Ablation::ALL.iter().map(|a| a.name()).collect();
    Err(format!(
        "unknown ablation '{name}' (known: {})",
        known.join(", ")
    ))
}

/// Configuration of one ablation sweep. Issue policy is fixed at
/// OLDEST_FIRST — the Section-5 study showed it is not a sensitive axis.
#[derive(Debug, Clone)]
pub struct AblationStudyConfig {
    /// Fetch policies to sweep (the gap decomposition needs both `rr` and
    /// `icount`).
    pub fetch_policies: Vec<String>,
    /// Ablations under study, by canonical name (see [`Ablation::name`]);
    /// the un-ablated baseline is always run in addition.
    pub ablations: Vec<String>,
    /// Fetch partitions to sweep.
    pub partitions: Vec<FetchPartition>,
    /// Workload mixes: named mixes or custom `riscv:` / `trace:` lists
    /// (see [`validate_mix`]).
    pub mixes: Vec<String>,
    /// Workload-generation seeds; every cell runs once per seed.
    pub seeds: Vec<u64>,
    /// Measured cycles per cell (both windows measure this many cycles).
    pub cycles: u64,
    /// Warmup cycles for the warm window (the cold window uses none).
    pub warmup: u64,
    /// Worker threads for the sweep; `0` means one per available core.
    pub jobs: usize,
    /// Cache the per-key warmup checkpoints in this directory
    /// (`--checkpoint-dir`); entries are fingerprint-validated on load and
    /// recomputed on any mismatch.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Durable result journal directory (`--journal`): every completed
    /// cell is atomically published there as it finishes, and a re-run of
    /// the identical sweep resumes from the valid entries, byte-identical
    /// to an uninterrupted run (see [`crate::journal`]).
    pub journal: Option<std::path::PathBuf>,
}

impl Default for AblationStudyConfig {
    fn default() -> AblationStudyConfig {
        let every = Ablation::ALL.iter().map(|a| a.name().to_string()).collect();
        AblationStudyConfig::over(StudyConfig::default(), every)
    }
}

impl AblationStudyConfig {
    /// The ablation sweep over an issue-study configuration's shared axes
    /// and settings (which is also how the two studies come to share their
    /// defaults): everything but the issue-policy axis carries over.
    pub(crate) fn over(study: StudyConfig, ablations: Vec<String>) -> AblationStudyConfig {
        AblationStudyConfig {
            fetch_policies: study.fetch_policies,
            ablations,
            partitions: study.partitions,
            mixes: study.mixes,
            seeds: study.seeds,
            cycles: study.cycles,
            warmup: study.warmup,
            jobs: study.jobs,
            checkpoint_dir: study.checkpoint_dir,
            journal: study.journal,
        }
    }

    /// Validates every policy, ablation and mix name, the warm window, that
    /// no axis is empty or lists an entry twice, and that no seed exceeds
    /// 2^53.
    ///
    /// # Errors
    ///
    /// Returns a usage-style message naming the first problem.
    pub fn validate(&self) -> Result<(), String> {
        distinct_policies("fetch", &self.fetch_policies, fetch_name)?;
        for a in &self.ablations {
            check_ablation(a)?;
        }
        for m in &self.mixes {
            validate_mix(m)?;
        }
        if self.fetch_policies.is_empty()
            || self.ablations.is_empty()
            || self.partitions.is_empty()
            || self.mixes.is_empty()
            || self.seeds.is_empty()
        {
            return Err("ablation sweep axes must all be non-empty".to_string());
        }
        if self.warmup == 0 {
            return Err("the warm window needs --warmup > 0".to_string());
        }
        reject_repeats("ablation", &self.ablations)?;
        reject_repeats("partition", &self.partitions)?;
        reject_repeats("mix", &self.mixes)?;
        reject_repeats("seed", &self.seeds)?;
        reject_inexact_seeds(&self.seeds)
    }

    /// Number of cells the sweep will run (baseline + each ablation, per
    /// fetch policy, partition, mix, seed and window).
    pub fn cell_count(&self) -> usize {
        (1 + self.ablations.len())
            * self.fetch_policies.len()
            * self.partitions.len()
            * self.mixes.len()
            * self.seeds.len()
            * Window::ALL.len()
    }
}

/// One completed cell of the ablation matrix.
#[derive(Debug, Clone)]
pub struct AblationCell {
    /// The active ablation's canonical name, or `None` for a baseline cell.
    pub ablation: Option<String>,
    /// Canonical fetch-policy name (e.g. `"ICOUNT"`).
    pub fetch: String,
    /// Fetch partition this cell ran.
    pub partition: FetchPartition,
    /// Workload-mix name.
    pub mix: String,
    /// Workload-generation seed.
    pub seed: u64,
    /// Which measurement window the cell measured.
    pub window: Window,
    /// The full simulation report for the measured window.
    pub report: SimReport,
}

/// One contained cell failure of the ablation matrix: the cell's
/// coordinates plus the typed error. Failed cells appear in the
/// document's `failed_cells` list (in deterministic spec order) instead
/// of aborting the sweep.
#[derive(Debug, Clone)]
pub struct FailedAblationCell {
    /// The active ablation's canonical name, or `None` for a baseline cell.
    pub ablation: Option<String>,
    /// Canonical fetch-policy name.
    pub fetch: String,
    /// Fetch partition the cell was to run.
    pub partition: FetchPartition,
    /// Workload-mix name.
    pub mix: String,
    /// Workload-generation seed.
    pub seed: u64,
    /// Which measurement window the cell was to measure.
    pub window: Window,
    /// Why the cell did not complete.
    pub error: CellError,
}

/// The loss-bucket shifts of an ablated cell against its baseline: how the
/// removed mechanism's slot losses moved. Positive values mean the ablated
/// run lost *more* slots to that cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LossShift {
    /// Change in slots lost to I-cache misses.
    pub lost_icache: i64,
    /// Change in slots lost to front-end/queue back-pressure.
    pub lost_frontend_full: i64,
    /// Change in wrong-path fetch opportunities lost to bank/port
    /// contention.
    pub wrong_path_fetch_conflicts: i64,
}

/// Results of one ablation sweep: the configuration plus every cell.
#[derive(Debug, Clone)]
pub struct AblationStudy {
    /// The sweep configuration that produced these cells.
    pub config: AblationStudyConfig,
    /// One entry per matrix cell, in deterministic
    /// (mix, seed, partition, fetch, window, ablation) order with the
    /// baseline first within each group.
    pub cells: Vec<AblationCell>,
    /// Contained cell failures, in the same deterministic spec order.
    /// Empty on a fault-free sweep.
    pub failed: Vec<FailedAblationCell>,
    /// Degraded-but-recovered incidents (journal entries that could not
    /// be read or written, warmup-cache misses that fell back to
    /// recomputation), in deterministic order: journal-read incidents in
    /// spec order first, then the cells' own incidents in spec order.
    pub degraded: Vec<Degradation>,
    /// Warmup simulations actually executed for the warm windows: one per
    /// warm cell on a cold cache, fewer (down to zero) when a checkpoint
    /// directory served cached entries. Deliberately not part of
    /// [`AblationStudy::to_json`] — the cached and cold paths produce
    /// byte-identical documents.
    pub warmups_performed: usize,
    /// Cells resumed from the journal instead of re-run. Deliberately not
    /// part of [`AblationStudy::to_json`] — a resumed document must stay
    /// byte-identical to an uninterrupted one.
    pub journal_loaded: usize,
}

/// Runs the full ablation matrix on the shared sweep engine (`sweep.rs`):
/// one plan per cell, in (mix, seed, partition, fetch, window, ablation)
/// order with the baseline first. Cold-window plans run straight through;
/// each warm-window plan forks a checkpoint warmed under its *own* fetch
/// policy and ablation set — an ablation changes the machine itself, so
/// warming it any other way would contaminate the attribution numbers (the
/// warmed state of a perfect-I-cache machine is not the warmed state of
/// the baseline). Within one run every warm cell's checkpoint is therefore
/// unique; checkpoints are shared across repeat sweeps, via the
/// `--checkpoint-dir` cache. Within a run the engine shares the
/// *trajectory*: a warm plan names the cold plan of the same configuration
/// as its twin, and a pair whose cells both need simulating steps
/// `0..warmup+cycles` once instead of `0..cycles` and `0..warmup+cycles`.
///
/// Cell faults are contained (a failing cell becomes a
/// [`FailedAblationCell`]) and the sweep resumes from
/// [`AblationStudyConfig::journal`] when set — same containment contract
/// as [`crate::study::run_study`].
///
/// # Errors
///
/// Returns the [`AblationStudyConfig::validate`] message for bad names,
/// or the open error when the requested journal directory cannot be
/// created.
pub fn run_ablation_study(cfg: &AblationStudyConfig) -> Result<AblationStudy, String> {
    cfg.validate()?;
    let (sweep, axes) = plan_sweep(cfg);
    let outcome = sweep::run(&sweep)?;

    let mut cells = Vec::new();
    let mut failed = Vec::new();
    for ((plan, (ablation, fetch, window)), result) in
        sweep.plans.iter().zip(axes).zip(outcome.cells)
    {
        let ablation = ablation.map(|a| a.name().to_string());
        match result {
            Ok(report) => cells.push(AblationCell {
                ablation,
                fetch: report.fetch_policy.clone(),
                partition: plan.partition,
                mix: plan.mix.to_string(),
                seed: plan.seed,
                window,
                report,
            }),
            Err(error) => failed.push(FailedAblationCell {
                ablation,
                fetch: fetch_name(fetch).expect("validated"),
                partition: plan.partition,
                mix: plan.mix.to_string(),
                seed: plan.seed,
                window,
                error,
            }),
        }
    }
    Ok(AblationStudy {
        config: cfg.clone(),
        cells,
        failed,
        degraded: outcome.degraded,
        warmups_performed: outcome.warmups_performed,
        journal_loaded: outcome.journal_loaded,
    })
}

/// A plan's (ablation, fetch, window) coordinates.
type Axes<'a> = (Option<Ablation>, &'a String, Window);

/// A validated configuration's sweep: one plan per cell, and each plan's
/// coordinates.
fn plan_sweep(cfg: &AblationStudyConfig) -> (Sweep<'_>, Vec<Axes<'_>>) {
    let mut ablation_axis: Vec<Option<Ablation>> = vec![None];
    ablation_axis.extend(
        cfg.ablations
            .iter()
            .map(|a| Some(Ablation::by_name(a).expect("validated above"))),
    );
    let mut axes = Vec::with_capacity(cfg.cell_count());
    let mut plans = Vec::with_capacity(cfg.cell_count());
    for mix in &cfg.mixes {
        for &seed in &cfg.seeds {
            for &partition in &cfg.partitions {
                for fetch in &cfg.fetch_policies {
                    for &window in &Window::ALL {
                        for &ablation in &ablation_axis {
                            let name = ablation.map_or("baseline", |a| a.name());
                            axes.push((ablation, fetch, window));
                            plans.push(CellPlan {
                                mix,
                                seed,
                                partition,
                                // An ablation or fetch policy changes the
                                // machine's behaviour, not its fingerprinted
                                // geometry, so both live in the key parts
                                // (and so in the warm cache entry's name).
                                key_parts: vec!["ablation-study", fetch, window.name(), name],
                                warm: match window {
                                    Window::Cold => Warm::None,
                                    Window::Warm => Warm::Own {
                                        // The cold window's plans of this
                                        // (mix, seed, partition, fetch) sit
                                        // one ablation axis back.
                                        cold_twin: Some(plans.len() - ablation_axis.len()),
                                    },
                                },
                                config: Box::new(move |images| {
                                    images
                                        .apply(SimConfig::new())
                                        .with_seed(seed)
                                        .with_fetch(fetch_policy_by_name(fetch).expect("validated"))
                                        .with_partition(partition)
                                        .with_ablations(
                                            ablation.map_or(Ablations::none(), Ablations::only),
                                        )
                                }),
                            });
                        }
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

impl AblationStudy {
    /// The baseline (no-ablation) cell sharing `cell`'s fetch policy,
    /// partition, mix, seed and window.
    pub fn baseline_for(&self, cell: &AblationCell) -> Option<&AblationCell> {
        self.cells.iter().find(|c| {
            c.ablation.is_none()
                && c.fetch == cell.fetch
                && c.partition == cell.partition
                && c.mix == cell.mix
                && c.seed == cell.seed
                && c.window == cell.window
        })
    }

    /// The cell's IPC delta against its baseline (`0.0` for baseline
    /// cells; `None` when the baseline was not part of the sweep).
    pub fn delta_vs_baseline(&self, cell: &AblationCell) -> Option<f64> {
        let base = self.baseline_for(cell)?;
        Some(cell.report.total_ipc() - base.report.total_ipc())
    }

    /// The cell's loss-bucket shifts against its baseline (zero for
    /// baseline cells).
    pub fn loss_shift(&self, cell: &AblationCell) -> Option<LossShift> {
        let base = self.baseline_for(cell)?;
        let d = |a: u64, b: u64| a as i64 - b as i64;
        Some(LossShift {
            lost_icache: d(cell.report.fetch.lost_icache, base.report.fetch.lost_icache),
            lost_frontend_full: d(
                cell.report.fetch.lost_frontend_full,
                base.report.fetch.lost_frontend_full,
            ),
            wrong_path_fetch_conflicts: d(
                cell.report.fetch.wrong_path_fetch_conflicts,
                base.report.fetch.wrong_path_fetch_conflicts,
            ),
        })
    }

    fn cells_of<'a>(
        &'a self,
        ablation: Option<&'a str>,
        window: Window,
    ) -> impl Iterator<Item = &'a AblationCell> + 'a {
        self.cells
            .iter()
            .filter(move |c| c.ablation.as_deref() == ablation && c.window == window)
    }

    /// Mean total IPC over the cells with the given ablation (or the
    /// baseline for `None`) and window; `None` when no such cells ran.
    pub fn mean_ipc(&self, ablation: Option<&str>, window: Window) -> Option<f64> {
        mean(
            self.cells_of(ablation, window)
                .map(|c| c.report.total_ipc()),
        )
    }

    /// Mean IPC delta (ablation − baseline) over matching cell pairs.
    pub fn mean_delta(&self, ablation: &str, window: Window) -> Option<f64> {
        mean(
            self.cells_of(Some(ablation), window)
                .filter_map(|c| self.delta_vs_baseline(c)),
        )
    }

    /// The ICOUNT-vs-RR style fetch-policy gap: mean IPC of `fetch_hi`
    /// minus mean IPC of `fetch_lo` over the cells with the given ablation
    /// (baseline for `None`) and window.
    pub fn gap(
        &self,
        fetch_hi: &str,
        fetch_lo: &str,
        ablation: Option<&str>,
        window: Window,
    ) -> Option<f64> {
        let hi = mean(
            self.cells_of(ablation, window)
                .filter(|c| c.fetch == fetch_hi)
                .map(|c| c.report.total_ipc()),
        )?;
        let lo = mean(
            self.cells_of(ablation, window)
                .filter(|c| c.fetch == fetch_lo)
                .map(|c| c.report.total_ipc()),
        )?;
        Some(hi - lo)
    }

    /// The wrong-path bank-arbitration cost against the paper's ~2% claim:
    /// the mean relative IPC change (in percent) of the warm-window
    /// `exempt_wrong_path_bank_arbitration` cells on the standard mix
    /// against their baselines. Positive means the exemption *helped*,
    /// i.e. the contention costs that much. `None` when the sweep did not
    /// cover the required cells.
    pub fn wrong_path_claim(&self) -> Option<f64> {
        let name = Ablation::ExemptWrongPathFromBankArbitration.name();
        mean(
            self.cells_of(Some(name), Window::Warm)
                .filter(|c| c.mix == "standard")
                .filter_map(|c| {
                    let base = self.baseline_for(c)?.report.total_ipc();
                    if base == 0.0 {
                        return None;
                    }
                    Some((c.report.total_ipc() - base) / base * 100.0)
                }),
        )
    }

    /// A per-(ablation, window) mean-IPC table, one column per fetch
    /// policy, baseline rows first.
    pub fn summary_table(&self) -> TextTable {
        let mut fetches: Vec<String> = Vec::new();
        for c in &self.cells {
            if !fetches.contains(&c.fetch) {
                fetches.push(c.fetch.clone());
            }
        }
        let mut table = TextTable::new();
        let mut header = vec!["ablation/window".to_string()];
        header.extend(fetches.iter().cloned());
        header.push("Δ vs baseline".to_string());
        table.header(header);
        let mut axis: Vec<Option<String>> = vec![None];
        axis.extend(self.config.ablations.iter().cloned().map(Some));
        for ablation in &axis {
            for window in Window::ALL {
                let label = format!("{}/{window}", ablation.as_deref().unwrap_or("baseline"));
                let mut row = vec![label];
                for fetch in &fetches {
                    let ipc = mean(
                        self.cells_of(ablation.as_deref(), window)
                            .filter(|c| c.fetch == *fetch)
                            .map(|c| c.report.total_ipc()),
                    );
                    row.push(match ipc {
                        Some(ipc) => format!("{ipc:.2}"),
                        None => "-".to_string(),
                    });
                }
                row.push(match ablation.as_deref() {
                    Some(a) => match self.mean_delta(a, window) {
                        Some(d) => format!("{d:+.3}"),
                        None => "-".to_string(),
                    },
                    None => "-".to_string(),
                });
                table.row(row);
            }
        }
        table
    }

    /// The versioned machine-readable document (`kind: "smt-exp-study"`,
    /// `study: "ablation"`; see the crate docs for the schema).
    /// `smt_exp --study ablation --json out.json` writes exactly this,
    /// pretty-rendered.
    pub fn to_json(&self) -> Json {
        let cfg = &self.config;
        let mut config = sweep::config_json(
            cfg.cycles,
            cfg.warmup,
            &cfg.fetch_policies,
            ("ablations", sweep::names(&cfg.ablations)),
            &cfg.partitions,
            ("mixes", sweep::names(&cfg.mixes)),
            &cfg.seeds,
        );
        config.push(("windows", Json::array(Window::ALL.iter().map(|w| w.name()))));
        let coordinates = |ablation: &Option<String>,
                           fetch: &str,
                           partition: FetchPartition,
                           mix: &str,
                           seed: u64,
                           window: Window| {
            vec![
                (
                    "ablation",
                    ablation.as_deref().map_or(Json::Null, Json::from),
                ),
                ("fetch", Json::from(fetch)),
                ("partition", Json::from(partition.to_string())),
                ("mix", Json::from(mix)),
                ("seed", Json::from(seed)),
                ("window", Json::from(window.name())),
            ]
        };
        let shift_json = |lost_icache: Json, lost_frontend_full: Json, conflicts: Json| {
            Json::object([
                ("lost_icache", lost_icache),
                ("lost_frontend_full", lost_frontend_full),
                ("wrong_path_fetch_conflicts", conflicts),
            ])
        };
        let cells = Json::array(self.cells.iter().map(|c| {
            let mut cell =
                coordinates(&c.ablation, &c.fetch, c.partition, &c.mix, c.seed, c.window);
            cell.extend([
                ("total_ipc", Json::from(c.report.total_ipc())),
                (
                    "delta_vs_baseline",
                    self.delta_vs_baseline(c).map_or(Json::Null, Json::from),
                ),
                (
                    "loss_shift",
                    self.loss_shift(c).map_or(Json::Null, |s| {
                        shift_json(
                            s.lost_icache.into(),
                            s.lost_frontend_full.into(),
                            s.wrong_path_fetch_conflicts.into(),
                        )
                    }),
                ),
                ("report", c.report.to_json()),
            ]);
            Json::object(cell)
        }));
        let failed = Json::array(self.failed.iter().map(|f| {
            let mut cell =
                coordinates(&f.ablation, &f.fetch, f.partition, &f.mix, f.seed, f.window);
            cell.push(("error", f.error.to_json()));
            Json::object(cell)
        }));
        let ablation_summary = Json::array(
            cfg.ablations
                .iter()
                .flat_map(|a| Window::ALL.into_iter().map(move |w| (a, w)))
                .map(|(ablation, window)| {
                    let shift_means = |f: fn(&LossShift) -> i64| {
                        mean(
                            self.cells_of(Some(ablation), window)
                                .filter_map(|c| self.loss_shift(c))
                                .map(|s| f(&s) as f64),
                        )
                        .unwrap_or(0.0)
                    };
                    Json::object([
                        ("ablation", Json::from(ablation.as_str())),
                        ("window", Json::from(window.name())),
                        (
                            "mean_ipc",
                            Json::from(self.mean_ipc(Some(ablation), window).unwrap_or(0.0)),
                        ),
                        (
                            "mean_baseline_ipc",
                            Json::from(self.mean_ipc(None, window).unwrap_or(0.0)),
                        ),
                        (
                            "mean_delta_ipc",
                            Json::from(self.mean_delta(ablation, window).unwrap_or(0.0)),
                        ),
                        (
                            "mean_loss_shift",
                            shift_json(
                                shift_means(|s| s.lost_icache).into(),
                                shift_means(|s| s.lost_frontend_full).into(),
                                shift_means(|s| s.wrong_path_fetch_conflicts).into(),
                            ),
                        ),
                    ])
                }),
        );
        let gap_json = |ablation: Option<&str>, window: Window| {
            let gap = self.gap("ICOUNT", "RR", ablation, window);
            gap.map_or(Json::Null, Json::from)
        };
        let perfect_icache = Ablation::PerfectICache.name();
        let infinite_queues = Ablation::InfiniteFrontendQueues.name();
        let summary = Json::object([
            ("ablations", ablation_summary),
            (
                "wrong_path_claim",
                Json::object([
                    ("paper_claim_pct", Json::from(PAPER_WRONG_PATH_CLAIM_PCT)),
                    ("window", Json::from("warm")),
                    ("mix", Json::from("standard")),
                    (
                        "measured_delta_pct",
                        self.wrong_path_claim().map_or(Json::Null, Json::from),
                    ),
                ]),
            ),
            (
                "gap_decomposition",
                Json::object([
                    ("fetch_hi", Json::from("ICOUNT")),
                    ("fetch_lo", Json::from("RR")),
                    ("cold_gap_baseline", gap_json(None, Window::Cold)),
                    ("warm_gap_baseline", gap_json(None, Window::Warm)),
                    (
                        "cold_gap_perfect_icache",
                        gap_json(Some(perfect_icache), Window::Cold),
                    ),
                    (
                        "warm_gap_infinite_frontend_queues",
                        gap_json(Some(infinite_queues), Window::Warm),
                    ),
                ]),
            ),
        ]);
        let study = Some(("ablation", summary));
        sweep::document(study, config, cells, failed, &self.degraded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::JSON_SCHEMA_VERSION;

    fn tiny_ablation_study() -> AblationStudyConfig {
        AblationStudyConfig {
            fetch_policies: vec!["rr".into(), "icount".into()],
            ablations: vec![
                "perfect_icache".into(),
                "exempt_wrong_path_bank_arbitration".into(),
            ],
            mixes: vec!["mixed4".into()],
            seeds: vec![42],
            cycles: 500,
            warmup: 200,
            jobs: 2,
            ..AblationStudyConfig::default()
        }
    }

    #[test]
    fn default_config_is_valid_and_sized() {
        let cfg = AblationStudyConfig::default();
        cfg.validate().unwrap();
        // (1 baseline + 4 ablations) × 2 fetch × 3 partitions × 3 mixes
        // × 3 seeds × 2 windows.
        assert_eq!(cfg.cell_count(), 540);
        assert!(cfg.seeds.contains(&7), "widened matrix carries seed 7");
        assert!(
            cfg.partitions.contains(&FetchPartition::new(2, 2))
                && cfg.partitions.contains(&FetchPartition::new(4, 4)),
            "widened matrix carries the 2.2/4.4 partitions"
        );
    }

    #[test]
    fn validate_rejects_unknown_and_degenerate() {
        let cfg = AblationStudyConfig {
            ablations: vec!["nonesuch".into()],
            ..AblationStudyConfig::default()
        };
        assert!(cfg.validate().unwrap_err().contains("unknown ablation"));
        let cfg = AblationStudyConfig {
            warmup: 0,
            ..AblationStudyConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = AblationStudyConfig {
            fetch_policies: vec!["nonesuch".into()],
            ..AblationStudyConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn tiny_study_runs_all_cells_with_baselines() {
        let cfg = tiny_ablation_study();
        let study = run_ablation_study(&cfg).unwrap();
        assert_eq!(study.cells.len(), cfg.cell_count());
        for c in &study.cells {
            assert_eq!(c.report.cycles, cfg.cycles);
            match c.window {
                Window::Cold => assert_eq!(c.report.warmup_cycles, 0),
                Window::Warm => assert_eq!(c.report.warmup_cycles, cfg.warmup),
            }
            assert!(c.report.total_committed() > 0, "cell made no progress");
            let d = study.delta_vs_baseline(c).expect("baseline in sweep");
            if c.ablation.is_none() {
                assert_eq!(d, 0.0);
                assert!(c.report.ablations.is_empty());
            } else {
                assert_eq!(
                    c.report.ablations,
                    vec![c.ablation.clone().unwrap()],
                    "the report must self-describe its ablation"
                );
            }
        }
        // Warm cells carry the provenance flag; cold cells never warmed.
        for c in &study.cells {
            assert_eq!(c.report.restored_from_checkpoint, c.window == Window::Warm);
        }
        // Each warm cell warms under its own configuration.
        assert_eq!(study.warmups_performed, cfg.cell_count() / 2);
        // Perfect I-cache cells really have a perfect I-cache.
        for c in study.cells_of(Some("perfect_icache"), Window::Cold) {
            assert_eq!(c.report.mem.icache.misses, 0);
            assert_eq!(c.report.fetch.lost_icache, 0);
        }
    }

    #[test]
    fn a_cold_warm_pair_steps_its_trajectory_once() {
        let steps = |cfg: &AblationStudyConfig| {
            let outcome = sweep::run(&plan_sweep(cfg).0).unwrap();
            assert!(outcome.cells.iter().all(Result::is_ok));
            assert!(outcome.degraded.is_empty(), "{:?}", outcome.degraded);
            (outcome.simulated_cycles, outcome.warmups_performed)
        };
        let dir = std::env::temp_dir().join(format!("smt-exp-steps-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = AblationStudyConfig {
            checkpoint_dir: Some(dir.join("checkpoints")),
            ..tiny_ablation_study()
        };
        let pairs = cfg.cell_count() as u64 / 2;
        let (warmup, cycles) = (cfg.warmup, cfg.cycles);
        // Default-shaped (cycles >= warmup), cold cache: `0..warmup+cycles`
        // once per pair, where two separate cells stepped `0..cycles` and
        // `0..warmup+cycles`.
        assert_eq!(steps(&cfg), (pairs * (warmup + cycles), pairs as usize));
        // A cache-served checkpoint has no first window to share.
        assert_eq!(steps(&cfg), (pairs * 2 * cycles, 0));
        // `cycles < warmup`: the two measured windows share no stretch,
        // and the cells run on their own.
        let short = AblationStudyConfig {
            cycles: warmup / 2,
            checkpoint_dir: None,
            ..cfg.clone()
        };
        assert_eq!(
            steps(&short),
            (pairs * (warmup + 2 * short.cycles), pairs as usize)
        );
        // A fully journaled sweep steps nothing.
        let journaled = AblationStudyConfig {
            journal: Some(dir.join("journal")),
            ..cfg
        };
        steps(&journaled);
        assert_eq!(steps(&journaled), (0, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn aliased_pairs_step_their_trajectory_once() {
        // `mixed4` spelled twice is one machine per configuration: each
        // pair of groups steps `0..warmup+cycles` once, for both
        // spellings, and the second spelling's cells repeat the first's.
        let cfg = AblationStudyConfig {
            mixes: vec!["mixed4".into(), "espresso+xlisp+alvinn+tomcatv".into()],
            ..tiny_ablation_study()
        };
        let pairs = cfg.cell_count() as u64 / 4;
        let outcome = sweep::run(&plan_sweep(&cfg).0).unwrap();
        assert!(outcome.degraded.is_empty(), "{:?}", outcome.degraded);
        assert_eq!(
            (outcome.simulated_cycles, outcome.warmups_performed),
            (pairs * (cfg.warmup + cfg.cycles), pairs as usize)
        );
        let reports: Vec<SimReport> = outcome.cells.into_iter().map(Result::unwrap).collect();
        let (first, second) = reports.split_at(reports.len() / 2);
        assert_eq!(first, second);
    }

    #[test]
    fn study_json_round_trips_and_carries_summary() {
        let study = run_ablation_study(&tiny_ablation_study()).unwrap();
        let text = study.to_json().render_pretty();
        let back = Json::parse(&text).expect("ablation JSON must parse");
        assert_eq!(
            back.get("schema_version").and_then(Json::as_u64),
            Some(JSON_SCHEMA_VERSION)
        );
        assert_eq!(back.get("study").and_then(Json::as_str), Some("ablation"));
        let cells = back.get("cells").and_then(Json::as_array).unwrap();
        assert_eq!(cells.len(), study.cells.len());
        for list in ["failed_cells", "degraded_cells"] {
            let entries = back.get(list).and_then(Json::as_array).unwrap();
            assert!(entries.is_empty(), "{list} not empty on a fault-free run");
        }
        let summary = back.get("summary").unwrap();
        let gaps = summary.get("gap_decomposition").unwrap();
        assert!(gaps
            .get("cold_gap_baseline")
            .and_then(Json::as_f64)
            .is_some());
        assert!(gaps
            .get("cold_gap_perfect_icache")
            .and_then(Json::as_f64)
            .is_some());
        let claim = summary.get("wrong_path_claim").unwrap();
        assert_eq!(
            claim.get("paper_claim_pct").and_then(Json::as_f64),
            Some(PAPER_WRONG_PATH_CLAIM_PCT)
        );
        // mixed4 has no standard-mix cells, so the claim is null here …
        assert!(matches!(claim.get("measured_delta_pct"), Some(Json::Null)));
        // … and the summary table still renders every row.
        let table = study.summary_table().to_string();
        assert!(table.contains("baseline/cold"));
        assert!(table.contains("perfect_icache/warm"));
    }
}
