//! The one sweep engine behind matrix, issue-study and ablation-study mode.
//!
//! A sweep is an ordered list of **cell plans** plus the settings they
//! share. A [`CellPlan`] names its cell — workload key (mix, seed),
//! partition, journal-key parts, incident label — says how it warms
//! ([`Warm`]) and carries a lazy `Fn(&MixImages) -> SimConfig` for its
//! machine. The mode drivers ([`crate::run_matrix`],
//! [`crate::study::run_study`], [`crate::ablation::run_ablation_study`])
//! only enumerate their axes into plans and zip the outcomes back into
//! their own cell types; everything operational happens once, in [`run`]:
//!
//! 1. fingerprint the canonical machine once per (mix, seed, partition) —
//!    each cell's journal key folds it with the plan's key parts and the
//!    sweep's `[cycles, warmup]`;
//! 2. open the `--journal` directory and prescan it: a valid entry resumes
//!    its cell, an invalid one degrades and the cell re-runs;
//! 3. pre-warm, in parallel, every [`Warm::Shared`] key some non-journaled
//!    cell still needs (nothing is warmed for a fully journaled key);
//! 4. run every cell behind `catch_unwind` at the scheduler boundary — one
//!    cell's fault becomes its own [`CellError`] while every other cell's
//!    bytes stay identical to a fault-free run — and store each fresh
//!    report in the journal.
//!
//! On the resume path a cell therefore costs one journal read: its config
//! closure, policy lookups, label and cache stem are never evaluated.
//!
//! # The three warm kinds
//!
//! * [`Warm::None`] — run the plan's configuration straight through (it
//!   may carry its own `with_warmup`); no checkpoint is involved.
//! * [`Warm::Shared`] — fork the *canonical* checkpoint of the plan's
//!   (mix, seed, partition) key ([`crate::warmup::warm_checkpoint`]),
//!   warmed once in step 3 and shared by every plan of the key.
//! * [`Warm::Own`] — warm under the plan's own configuration
//!   ([`crate::warmup::warm_checkpoint_under`], cached under the plan's
//!   stem). Such a checkpoint has exactly one user, so it is computed
//!   *inside* the cell and dropped right after the fork: hoisting these
//!   into step 3 would hold one ~380 KB checkpoint per warm cell live for
//!   the whole sweep.
//!
//! # Degradation order
//!
//! One rule, independent of worker count: journal-read incidents in plan
//! order, then pre-warm incidents in first-needed key order, then each
//! cell's own incidents (checkpoint cache, then journal write) in plan
//! order.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use smt_core::checkpoint::config_fingerprint;
use smt_core::{FetchPartition, SimConfig, SimReport};
use smt_stats::json::Json;
use smt_stats::sched::work_steal_map_catch;

use crate::fault::{CellError, Degradation, DegradeReason};
use crate::journal::{journal_key, Journal};
use crate::study::{resolve_mix, MixImages, JSON_SCHEMA_VERSION};
use crate::warmup::{canonical_config_for, try_fork_cell, warm_checkpoint, warm_checkpoint_under};

/// Workload images per (mix, seed), shared by every cell of the pair. A
/// load can fail — per *key*, not per sweep: an unreadable `riscv:` /
/// `trace:` file fails only its own pair's cells (as typed `workload`
/// [`CellError`]s) while every other key's cells run to completion.
pub(crate) type Images<'a> = HashMap<(&'a str, u64), Result<MixImages, String>>;

/// Resolves every (mix, seed) pair of a sweep once.
pub(crate) fn resolve_images<'a>(mixes: &'a [String], seeds: &[u64]) -> Images<'a> {
    let mut images = Images::new();
    for mix in mixes {
        for &seed in seeds {
            images
                .entry((mix.as_str(), seed))
                .or_insert_with(|| resolve_mix(mix, seed));
        }
    }
    images
}

/// How a cell reaches its measurement window (see the module docs).
pub(crate) enum Warm<'a> {
    /// Straight through, no checkpoint.
    None,
    /// Fork the canonical checkpoint shared by the (mix, seed, partition).
    Shared,
    /// Fork a checkpoint warmed under the plan's own configuration, cached
    /// under the stem this lazily formats.
    Own(Box<dyn Fn() -> String + Sync + 'a>),
}

/// One cell of a sweep.
pub(crate) struct CellPlan<'a> {
    pub mix: &'a str,
    pub seed: u64,
    pub partition: FetchPartition,
    /// The string parts of the cell's journal key: the sweep's tag, then
    /// the fork-axis coordinates the config fingerprint does not cover.
    pub key_parts: Vec<&'a str>,
    /// Names the cell in `degraded_cells`; only evaluated on an incident.
    pub label: Box<dyn Fn() -> String + Sync + 'a>,
    pub warm: Warm<'a>,
    /// The cell's machine on the resolved images of its (mix, seed).
    pub config: Box<dyn Fn(&MixImages) -> SimConfig + Sync + 'a>,
}

/// A (mix, seed, partition): what a canonical warmup — and the machine
/// fingerprint in a journal key — is unique per.
type WarmKey<'a> = (&'a str, u64, FetchPartition);

impl<'a> CellPlan<'a> {
    fn key(&self) -> WarmKey<'a> {
        (self.mix, self.seed, self.partition)
    }
}

/// The settings every cell of a sweep shares, plus the cells.
pub(crate) struct Sweep<'a> {
    pub images: Images<'a>,
    /// Measured cycles per cell.
    pub cycles: u64,
    /// Warmup cycles of the checkpointed kinds (and of every journal key).
    pub warmup: u64,
    pub jobs: usize,
    pub checkpoint_dir: Option<&'a Path>,
    pub journal: Option<&'a Path>,
    pub plans: Vec<CellPlan<'a>>,
}

/// What a sweep produced, cell results in plan order.
pub(crate) struct SweepOutcome {
    pub cells: Vec<Result<SimReport, CellError>>,
    pub degraded: Vec<Degradation>,
    /// Warmup simulations actually executed (not served by the cache).
    pub warmups_performed: usize,
    /// Cells resumed from the journal instead of re-run.
    pub journal_loaded: usize,
}

/// Runs the sweep.
///
/// # Errors
///
/// Returns the open error when the requested journal directory cannot be
/// created — the caller asked for durability, so that fails the sweep up
/// front. Every other fault is contained per cell.
pub(crate) fn run(sweep: &Sweep<'_>) -> Result<SweepOutcome, String> {
    let plans = &sweep.plans;
    let open =
        |dir| Journal::open(dir).map_err(|e| format!("cannot open journal {}: {e}", dir.display()));
    let journal = sweep.journal.map(open).transpose()?;

    // Each cell's 64-bit journal identity: the canonical fingerprint of its
    // (mix, seed, partition) — computed once per key — folded with the
    // plan's key parts and the cycle counts, so an entry is only ever
    // resumed into a sweep that would reproduce it exactly. A cell whose
    // images did not load has no identity (it fails and is never stored).
    let mut fingerprints: HashMap<WarmKey, u64> = HashMap::new();
    let cell_keys: Vec<Option<u64>> = plans
        .iter()
        .map(|p| {
            journal.as_ref()?;
            let images = sweep.images[&(p.mix, p.seed)].as_ref().ok()?;
            let fingerprint = *fingerprints.entry(p.key()).or_insert_with(|| {
                config_fingerprint(&canonical_config_for(images, p.seed, p.partition))
            });
            let nums = [sweep.cycles, sweep.warmup];
            Some(journal_key(fingerprint, &p.key_parts, &nums))
        })
        .collect();

    // Journal prescan. Failed cells are never journaled — deterministic
    // failures re-fail on resume, keeping the resumed document
    // byte-identical to an uninterrupted run.
    let mut journaled: Vec<Option<SimReport>> = vec![None; plans.len()];
    let mut degraded: Vec<Degradation> = Vec::new();
    if let Some(journal) = &journal {
        for (i, plan) in plans.iter().enumerate() {
            let Some(key) = cell_keys[i] else { continue };
            match journal.load(key, i as u64) {
                Ok(found) => journaled[i] = found,
                Err(detail) => degraded.push(Degradation {
                    key: (plan.label)(),
                    reason: DegradeReason::JournalRead,
                    detail: format!("{detail}; cell re-run"),
                }),
            }
        }
    }

    // Pre-warm phase. A warmup that panics poisons exactly the cells that
    // depend on its key.
    let mut needed: Vec<(WarmKey, &MixImages)> = Vec::new();
    for (i, p) in plans.iter().enumerate() {
        if let (Warm::Shared, None, Ok(images)) =
            (&p.warm, &journaled[i], &sweep.images[&(p.mix, p.seed)])
        {
            if !needed.iter().any(|(key, _)| *key == p.key()) {
                needed.push((p.key(), images));
            }
        }
    }
    let warmed = work_steal_map_catch(needed.len(), sweep.jobs, |i| {
        let ((mix, seed, partition), images) = needed[i];
        let dir = sweep.checkpoint_dir;
        warm_checkpoint(images, mix, seed, partition, sweep.warmup, dir)
    });
    let mut warmups_performed = 0;
    let mut shared: HashMap<WarmKey, Result<Arc<Vec<u8>>, CellError>> = HashMap::new();
    for ((key, _), outcome) in needed.into_iter().zip(warmed) {
        let checkpoint = outcome
            .map(|warm| {
                warmups_performed += usize::from(warm.computed);
                degraded.extend(warm.degradations);
                warm.checkpoint
            })
            .map_err(|msg| CellError::panic(format!("warmup panicked: {msg}")));
        shared.insert(key, checkpoint);
    }

    // Cell phase: per cell its report, whether it simulated a warmup, and
    // its own incidents.
    type Done = (SimReport, bool, Vec<Degradation>);
    let outcomes = work_steal_map_catch(plans.len(), sweep.jobs, |i| -> Result<Done, CellError> {
        let plan = &plans[i];
        #[cfg(feature = "fault-inject")]
        smt_stats::faults::panic_point("cell", i as u64);
        let images = sweep.images[&(plan.mix, plan.seed)]
            .as_ref()
            .map_err(|e| CellError::workload(e.clone()))?;
        if let Some(report) = &journaled[i] {
            return Ok((report.clone(), false, Vec::new()));
        }
        let fork = |checkpoint: &[u8]| {
            try_fork_cell((plan.config)(images), checkpoint, sweep.cycles)
                .map_err(|e| CellError::checkpoint(e.to_string()))
        };
        let mut degradations = Vec::new();
        let mut warmed = false;
        let report = match &plan.warm {
            Warm::None => (plan.config)(images).build().run(sweep.cycles),
            Warm::Shared => fork(shared[&plan.key()].as_ref().map_err(CellError::clone)?)?,
            Warm::Own(stem) => {
                let build = || (plan.config)(images);
                let warm =
                    warm_checkpoint_under(build, &stem(), sweep.warmup, sweep.checkpoint_dir);
                warmed = warm.computed;
                degradations = warm.degradations;
                fork(&warm.checkpoint)?
            }
        };
        if let (Some(journal), Some(key)) = (&journal, cell_keys[i]) {
            if let Err(e) = journal.store(key, i as u64, &report) {
                degradations.push(Degradation {
                    key: (plan.label)(),
                    reason: DegradeReason::JournalWrite,
                    detail: format!("store failed: {e}; result not durable"),
                });
            }
        }
        Ok((report, warmed, degradations))
    });

    let mut journal_loaded = 0;
    let cells = outcomes
        .into_iter()
        .zip(&journaled)
        .map(|(outcome, journaled)| {
            // Flatten the scheduler's catch layer (an escaped panic) into
            // the cell's own typed result.
            let (report, warmed, degradations) =
                outcome.unwrap_or_else(|msg| Err(CellError::panic(msg)))?;
            journal_loaded += usize::from(journaled.is_some());
            warmups_performed += usize::from(warmed);
            degraded.extend(degradations);
            Ok(report)
        })
        .collect();
    Ok(SweepOutcome {
        cells,
        degraded,
        warmups_performed,
        journal_loaded,
    })
}

/// A string list as a JSON array.
pub(crate) fn names(list: &[String]) -> Json {
    Json::array(list.iter().map(String::as_str))
}

/// The `config` keys every result document shares, in document order;
/// `axis` is the mode's own policy axis and `workload` its workload axis.
pub(crate) fn config_json(
    cycles: u64,
    warmup: u64,
    fetch_policies: &[String],
    axis: (&'static str, Json),
    partitions: &[FetchPartition],
    workload: (&'static str, Json),
    seeds: &[u64],
) -> Vec<(&'static str, Json)> {
    vec![
        ("cycles", Json::from(cycles)),
        ("warmup_cycles", Json::from(warmup)),
        ("fetch_policies", names(fetch_policies)),
        axis,
        (
            "partitions",
            Json::array(partitions.iter().map(|p| p.to_string())),
        ),
        workload,
        ("seeds", Json::array(seeds.iter().copied())),
    ]
}

/// Frames one schema-v4 result document: the version/kind header, the
/// mode's `config`, `cells` and `failed_cells`, and the always-present
/// `degraded_cells`. `study` is a study mode's name and `summary`; the
/// matrix document has neither.
pub(crate) fn document(
    study: Option<(&str, Json)>,
    config: Vec<(&'static str, Json)>,
    cells: Json,
    failed_cells: Json,
    degraded: &[Degradation],
) -> Json {
    let kind = if study.is_some() {
        "smt-exp-study"
    } else {
        "smt-exp-matrix"
    };
    let (name, summary) = study.unzip();
    let mut doc = vec![
        ("schema_version", Json::from(JSON_SCHEMA_VERSION)),
        ("kind", Json::from(kind)),
    ];
    doc.extend(name.map(|n| ("study", Json::from(n))));
    doc.extend([
        ("config", Json::object(config)),
        ("cells", cells),
        ("failed_cells", failed_cells),
        (
            "degraded_cells",
            Json::array(degraded.iter().map(Degradation::to_json)),
        ),
    ]);
    doc.extend(summary.map(|s| ("summary", s)));
    Json::object(doc)
}
