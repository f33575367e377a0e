//! The one sweep engine behind matrix, issue-study and ablation-study mode.
//!
//! A sweep is an ordered list of **cell plans** plus the settings they
//! share. A [`CellPlan`] names its cell by its coordinates — workload
//! key (mix, seed), partition, journal-key parts; its journal key, cache
//! entry and incident label all derive from them — says how it warms
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
//! 4. run every remaining cell across the worker pool behind
//!    `catch_unwind` at the scheduler boundary — one cell's fault becomes
//!    its own [`CellError`] while every other cell's bytes stay identical
//!    to a fault-free run — and store each fresh report in the journal.
//!    The unit of work is a cell, or a cold/warm *pair* of cells (below).
//!
//! On the resume path a cell therefore costs one journal read: its config
//! closure, policy lookups and label are never evaluated.
//!
//! # The three warm kinds
//!
//! * [`Warm::None`] — run the plan's configuration straight through (it
//!   may carry its own `with_warmup`); no checkpoint is involved.
//! * [`Warm::Shared`] — fork the *canonical* checkpoint of the plan's
//!   (mix, seed, partition) key ([`crate::warmup::warm_checkpoint`]),
//!   warmed once in step 3 and shared by every plan of the key.
//! * [`Warm::Own`] — warm under the plan's own configuration, cached
//!   under the plan's key parts (`warm_checkpoint_reporting`; the warmup
//!   module docs give the naming rule). The checkpoint's only fork is the
//!   plan's, so it is computed
//!   *inside* the unit of work and freed as soon as the fork has restored
//!   it: hoisting these into step 3 would hold one ~370 KB checkpoint per
//!   warm cell live for the whole sweep. One checkpoint buffer is live per
//!   worker, at most.
//!
//! # Pairs: one trajectory, two cells
//!
//! A `Warm::Own` plan may name its **cold twin**: the `Warm::None` plan
//! with the identical configuration (the ablation study's cold and warm
//! window of one machine). Run separately, the cold cell steps cycles
//! `0..cycles` and the warm cell steps `0..warmup` again for its
//! checkpoint, then `warmup..warmup+cycles` — the stretch `0..cycles` is
//! simulated twice. When **both** cells still need simulating the engine
//! runs them as one unit over one trajectory instead:
//!
//! ```text
//! 0 ─────── A ─────── warmup ──── B ──── cycles ──── C ──── warmup+cycles
//!           └ checkpoint (the cache entry) ┘ fork
//! cold cell = A ++ B  (SimReport::concat)      warm cell = the fork's B ++ C
//! ```
//!
//! step `0..warmup` once and read report **A**; save the checkpoint there
//! — byte for byte the one a lone warmup computes, written to
//! the same `--checkpoint-dir` entry and counted in `warmups_performed`;
//! fork it (the warm cell's `restored_from_checkpoint: true` stays
//! truthful) and run to `cycles` for report **B**; emit and journal the
//! cold cell as the concatenation of A and B; only then let the fork run
//! its last `warmup` cycles and emit its report — window
//! `warmup..warmup+cycles` — as the warm cell. `warmup + cycles` cycles
//! are stepped where `warmup + 2·cycles` were, and every document,
//! journal entry and cache entry is byte-identical to the separate runs
//! (a restored machine is bit-equivalent to the one that was saved, and
//! window concatenation is exact).
//!
//! A pair forms only where the two runs really overlap and both are due:
//! not when either cell was served by the journal, when the images failed
//! to load, or when `cycles < warmup`; and if the `--checkpoint-dir`
//! serves the checkpoint there is no window A to share, so the two cells
//! run on their own after all. A fault stays a cell's: a panic that
//! unwinds out of a pair fails the members that have no result yet — the
//! cold cell is complete and journaled before the tail runs, so a panic
//! there costs the warm cell only, and a panic before that is the one
//! both separate runs would have hit.
//!
//! # Degradation order
//!
//! One rule, independent of worker count: journal-read incidents in plan
//! order, then pre-warm incidents in first-needed key order, then each
//! cell's own incidents (checkpoint cache, then journal write) in plan
//! order.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, OnceLock};

use smt_core::checkpoint::config_fingerprint;
use smt_core::{FetchPartition, SimConfig, SimReport, Simulator};
use smt_stats::json::Json;
use smt_stats::sched::{catch_panic, work_steal_map_catch};

use crate::fault::{CellError, Degradation, DegradeReason};
use crate::journal::{journal_key, Journal};
use crate::study::{resolve_mix, MixImages, JSON_SCHEMA_VERSION};
use crate::warmup::{
    canonical_config_for, warm_checkpoint, warm_checkpoint_reporting, WarmOutcome,
};

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
pub(crate) enum Warm {
    /// Straight through, no checkpoint.
    None,
    /// Fork the canonical checkpoint shared by the (mix, seed, partition).
    Shared,
    /// Fork a checkpoint warmed under the plan's own configuration.
    Own {
        /// Index of the [`Warm::None`] plan with the *same* configuration,
        /// if the sweep has one: the engine then simulates the two cells
        /// over one trajectory.
        cold_twin: Option<usize>,
    },
}

/// One cell of a sweep.
pub(crate) struct CellPlan<'a> {
    pub mix: &'a str,
    pub seed: u64,
    pub partition: FetchPartition,
    /// The string parts of the cell's journal key: the sweep's tag, then
    /// the fork-axis coordinates the config fingerprint does not cover.
    pub key_parts: Vec<&'a str>,
    pub warm: Warm,
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

    /// Names the cell in `degraded_cells`: its fork-axis coordinates (the
    /// key parts after the tag), then partition, mix and seed.
    fn label(&self) -> String {
        label(&self.key_parts[1..], self.mix, self.seed, self.partition)
    }
}

/// The incident label of a cell or warmup: `coords` (fork-axis
/// coordinates), partition, mix and `s{seed}`, joined by `/`.
pub(crate) fn label(coords: &[&str], mix: &str, seed: u64, partition: FetchPartition) -> String {
    let coords: String = coords.iter().map(|c| format!("{c}/")).collect();
    format!("{coords}{partition}/{mix}/s{seed}")
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
    /// Cycles actually stepped, warmups included: the sweep's work, as a
    /// count no host can move. Only the in-crate tests read it — the
    /// public result structs' field sets are pinned from outside.
    #[cfg_attr(not(test), allow(dead_code))]
    pub simulated_cycles: u64,
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
                    key: plan.label(),
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
    let mut simulated_cycles = 0;
    let mut shared: HashMap<WarmKey, Result<Arc<Vec<u8>>, CellError>> = HashMap::new();
    for ((key, _), outcome) in needed.into_iter().zip(warmed) {
        let checkpoint = outcome
            .map(|warm| {
                warmups_performed += usize::from(warm.computed);
                simulated_cycles += if warm.computed { sweep.warmup } else { 0 };
                degraded.extend(warm.degradations);
                warm.checkpoint
            })
            .map_err(|msg| CellError::panic(format!("warmup panicked: {msg}")));
        shared.insert(key, checkpoint);
    }

    // Cell phase. A cold/warm pair whose two cells both still need
    // simulating is one unit of work; every other cell is its own.
    let runnable =
        |i: usize| journaled[i].is_none() && sweep.images[&(plans[i].mix, plans[i].seed)].is_ok();
    let mut warm_twin: Vec<Option<usize>> = vec![None; plans.len()];
    let mut fused = vec![false; plans.len()];
    for (warm, plan) in plans.iter().enumerate() {
        if let Warm::Own {
            cold_twin: Some(cold),
            ..
        } = plan.warm
        {
            debug_assert!(matches!(plans[cold].warm, Warm::None));
            if sweep.cycles >= sweep.warmup && runnable(cold) && runnable(warm) {
                warm_twin[cold] = Some(warm);
                fused[warm] = true;
            }
        }
    }
    // A unit: a cell and, for a pair, its warm twin.
    let units: Vec<(usize, Option<usize>)> = (0..plans.len())
        .filter(|&i| !fused[i])
        .map(|i| (i, warm_twin[i]))
        .collect();

    // Publishes a fresh report; a failed store only costs durability.
    let store = |i: usize, done: &mut Done| {
        if let (Some(journal), Some(key)) = (&journal, cell_keys[i]) {
            if let Err(e) = journal.store(key, i as u64, &done.report) {
                done.degradations.push(Degradation {
                    key: plans[i].label(),
                    reason: DegradeReason::JournalWrite,
                    detail: format!("store failed: {e}; result not durable"),
                });
            }
        }
    };

    // A `Warm::Own` plan's checkpoint, cached under its key parts.
    let own_warmup = |plan: &CellPlan, images: &MixImages| {
        let build = || (plan.config)(images);
        let (label, dir) = (plan.label(), sweep.checkpoint_dir);
        warm_checkpoint_reporting(build, &plan.key_parts, &label, sweep.warmup, dir)
    };

    // One cell on its own. `own` is the plan's `Warm::Own` checkpoint when
    // the caller already obtained it.
    let single = |i: usize, own: Option<WarmOutcome>| -> CellResult {
        let plan = &plans[i];
        let images = sweep.images[&(plan.mix, plan.seed)]
            .as_ref()
            .map_err(|e| CellError::workload(e.clone()))?;
        if let Some(report) = &journaled[i] {
            return Ok(Done::of(report.clone(), 0));
        }
        let fork = |checkpoint: &[u8]| {
            Simulator::fork_checkpoint((plan.config)(images), checkpoint)
                .map_err(|e| CellError::checkpoint(e.to_string()))
        };
        let mut done = match &plan.warm {
            Warm::None => {
                let report = (plan.config)(images).build().run(sweep.cycles);
                let stepped = report.warmup_cycles + report.cycles;
                Done::of(report, stepped)
            }
            Warm::Shared => {
                let mut sim = fork(shared[&plan.key()].as_ref().map_err(CellError::clone)?)?;
                Done::of(sim.run(sweep.cycles), sweep.cycles)
            }
            Warm::Own { .. } => {
                let warm = own.unwrap_or_else(|| own_warmup(plan, images).0);
                let mut sim = fork(&warm.checkpoint)?;
                // The single-use buffer has served: free it before the run.
                drop(warm.checkpoint);
                let warmed = if warm.computed { sweep.warmup } else { 0 };
                Done {
                    warmed: warm.computed,
                    degradations: warm.degradations,
                    ..Done::of(sim.run(sweep.cycles), warmed + sweep.cycles)
                }
            }
        };
        store(i, &mut done);
        Ok(done)
    };
    // Results land in per-plan slots rather than flow back through the
    // pool: a unit may finish two cells, at different times.
    let slots: Vec<OnceLock<CellResult>> = plans.iter().map(|_| OnceLock::new()).collect();
    let finish = |i: usize, result: CellResult| {
        assert!(slots[i].set(result).is_ok(), "plan {i} ran in two units");
    };
    let alone = |i: usize| contain(|| single(i, None));

    // A pair over one trajectory (module docs): report A over `0..warmup`
    // and the warm cell's checkpoint, the fork's report B up to `cycles`,
    // the cold cell as A ++ B, then the fork's last `warmup` cycles for
    // the warm cell. A panic in here unwinds to the unit's catch, which
    // fails the members still without a result: both of them up to the
    // cold cell's completion — the fault both separate runs would have
    // hit — and the warm cell alone after it.
    let pair = |cold: usize, warm: usize| {
        let plan = &plans[warm];
        let images = sweep.images[&(plan.mix, plan.seed)]
            .as_ref()
            .expect("pairs form on loaded images");
        let (warmed, first) = own_warmup(plan, images);
        let Some(first) = first else {
            // Cache-served: there is no window A to share.
            finish(cold, alone(cold));
            finish(warm, contain(|| single(warm, Some(warmed))));
            return;
        };
        let WarmOutcome {
            checkpoint,
            degradations,
            ..
        } = warmed;
        let mut sim = Simulator::fork_checkpoint((plan.config)(images), &checkpoint)
            .expect("a machine restores the checkpoint it has just saved");
        drop(checkpoint);
        let second = sim.run(sweep.cycles - sweep.warmup);
        let report = first
            .concat(&second)
            .expect("the fork continues the machine the first window measured");
        let mut done = Done::of(report, sweep.cycles);
        store(cold, &mut done);
        // Complete and durable before the machine runs on.
        finish(cold, Ok(done));
        let mut done = Done {
            warmed: true,
            degradations,
            ..Done::of(sim.run(sweep.warmup), sweep.warmup)
        };
        store(warm, &mut done);
        finish(warm, Ok(done));
    };

    let escaped = work_steal_map_catch(units.len(), sweep.jobs, |u| match units[u] {
        (i, None) => finish(i, probe(i).and_then(|()| single(i, None))),
        // Each member's probe fails exactly that member; whoever remains
        // runs — fused only when both do.
        (cold, Some(warm)) => match (probe(cold), probe(warm)) {
            (Ok(()), Ok(())) => pair(cold, warm),
            (c, w) => {
                finish(cold, c.and_then(|()| alone(cold)));
                finish(warm, w.and_then(|()| alone(warm)));
            }
        },
    });
    for (&(cell, twin), outcome) in units.iter().zip(escaped) {
        let Err(msg) = outcome else { continue };
        for i in [Some(cell), twin].into_iter().flatten() {
            // A no-op for a member that finished before the panic.
            let _ = slots[i].set(Err(CellError::panic(msg.clone())));
        }
    }

    let mut journal_loaded = 0;
    let cells = slots
        .into_iter()
        .zip(&journaled)
        .map(|(slot, journaled)| {
            let done = slot
                .into_inner()
                .expect("every plan belongs to exactly one unit")?;
            journal_loaded += usize::from(journaled.is_some());
            warmups_performed += usize::from(done.warmed);
            simulated_cycles += done.stepped;
            degraded.extend(done.degradations);
            Ok(done.report)
        })
        .collect();
    Ok(SweepOutcome {
        cells,
        degraded,
        warmups_performed,
        journal_loaded,
        simulated_cycles,
    })
}

/// One finished cell.
struct Done {
    report: SimReport,
    /// Whether a warmup was simulated for it (not cache-served).
    warmed: bool,
    /// Its own incidents: checkpoint cache first, then journal write.
    degradations: Vec<Degradation>,
    /// Cycles stepped on its behalf.
    stepped: u64,
}

impl Done {
    fn of(report: SimReport, stepped: u64) -> Done {
        Done {
            report,
            warmed: false,
            degradations: Vec::new(),
            stepped,
        }
    }
}

type CellResult = Result<Done, CellError>;

/// Runs one piece of a cell under its own catch: a panic becomes the
/// cell's typed error instead of unwinding into its unit's other member.
fn contain<T>(f: impl FnOnce() -> Result<T, CellError>) -> Result<T, CellError> {
    catch_panic(f).unwrap_or_else(|msg| Err(CellError::panic(msg)))
}

/// The fault-injection probe of cell `i`: fails exactly that cell, also
/// when it is half of a pair.
fn probe(i: usize) -> Result<(), CellError> {
    #[cfg(feature = "fault-inject")]
    contain(|| {
        smt_stats::faults::panic_point("cell", i as u64);
        Ok(())
    })?;
    let _ = i;
    Ok(())
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
