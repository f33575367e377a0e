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
//! 1. identify every plan: fingerprint its canonical machine (once per
//!    (mix, seed, partition)) and fold that with the plan's key parts and
//!    the sweep's `[cycles, warmup]` into its **cell key**. The fingerprint
//!    is what "the same machine" means to the engine and the cell key what
//!    "the same cell" means, whatever the mix strings say: two spellings of
//!    one machine (`int8` and its eight benchmark names, `a/loops.elf` and
//!    `a/./loops.elf`) warm once, simulate each cell once and store one
//!    journal entry;
//! 2. open the `--journal` directory and prescan it: a valid entry resumes
//!    its cell, an invalid one degrades and the cell re-runs;
//! 3. pre-warm, in parallel, every [`Warm::Shared`] machine some
//!    non-journaled cell still needs (nothing is warmed for a fully
//!    journaled machine);
//! 4. run every remaining cell across the worker pool behind
//!    `catch_unwind` at the scheduler boundary — one cell's fault becomes
//!    its own [`CellError`] while every other cell's bytes stay identical
//!    to a fault-free run — and store each fresh report in the journal.
//!    Plans that still need simulating and share a cell key form one
//!    *group*: it is simulated once, by its first member whose fault probe
//!    passes, and every member gets its own cell holding a clone of that
//!    report. The unit of work is a group, or a cold/warm *pair* of groups
//!    (below).
//!
//! On the resume path a cell therefore costs one journal read: its config
//! closure, policy lookups and label are never evaluated.
//!
//! # The three warm kinds
//!
//! * [`Warm::None`] — run the plan's configuration straight through (it
//!   may carry its own `with_warmup`); no checkpoint is involved.
//! * [`Warm::Shared`] — fork the *canonical* checkpoint of the plan's
//!   machine ([`crate::warmup::warm_checkpoint`]), warmed once in step 3
//!   and shared by every plan with the same fingerprint, whatever its mix
//!   string.
//! * [`Warm::Own`] — warm under the plan's own configuration, cached
//!   under the plan's key parts (`warm_checkpoint_reporting`; the warmup
//!   module docs give the naming rule). The checkpoint's only fork is the
//!   plan's group's, so it is computed *inside* the unit of work and freed
//!   as soon as the fork has restored it: hoisting these into step 3 would
//!   hold one ~319 KB checkpoint per warm cell live for the whole sweep.
//!   One checkpoint buffer is live per worker, at most.
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
//! Aliased plans pair as groups: the cold group's simulated member shares
//! the trajectory with the warm group's, and each group's other members
//! take clones. A pair forms only where the two runs
//! really overlap and both are due: not when either cell was served by
//! the journal, when the images failed to load, or when `cycles <
//! warmup`; and if the `--checkpoint-dir` serves the checkpoint there is
//! no window A to share, so the two cells run on their own after all. A
//! fault stays a cell's: a plan whose fault probe fires fails alone, and
//! a panic that unwinds out of a pair fails the members that have no
//! result yet — the cold cell is complete and journaled before the tail
//! runs, so a panic there costs the warm group only, and a panic before
//! that is the one both separate runs would have hit.
//!
//! # Degradation order
//!
//! One rule, independent of worker count: journal-read incidents in plan
//! order, then pre-warm incidents in the order plans first need each
//! machine, then each cell's own incidents (checkpoint cache, then journal
//! write) in plan order. A group's checkpoint-cache and journal-write
//! incidents happen once, for the member that was simulated, and carry
//! its label; journal reads stay per plan. That is the only place aliased
//! spellings of one machine show in a document, and only when the sweep
//! hits an I/O fault.

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
    /// Fork the canonical checkpoint shared by every plan of the machine.
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

impl CellPlan<'_> {
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

    // Each plan's machine: its canonical config fingerprint. A plan whose
    // images did not load has none: it fails alone and is never stored.
    let mut machines: Vec<Option<u64>> = Vec::with_capacity(plans.len());
    for (i, p) in plans.iter().enumerate() {
        // The drivers enumerate (mix, seed, partition) outermost, so each
        // is fingerprinted once.
        machines.push(match i.checked_sub(1).map(|last| &plans[last]) {
            Some(q) if (q.mix, q.seed, q.partition) == (p.mix, p.seed, p.partition) => {
                machines[i - 1]
            }
            _ => sweep.images[&(p.mix, p.seed)].as_ref().ok().map(|images| {
                config_fingerprint(&canonical_config_for(images, p.seed, p.partition))
            }),
        });
    }
    // Each plan's cell key, folded from its machine, key parts and cycle
    // counts, so an entry is only ever resumed into a sweep that would
    // reproduce it exactly.
    let nums = [sweep.cycles, sweep.warmup];
    let cells: Vec<Option<u64>> = (0..plans.len())
        .map(|i| Some(journal_key(machines[i]?, &plans[i].key_parts, &nums)))
        .collect();

    // Journal prescan. Failed cells are never journaled — deterministic
    // failures re-fail on resume, keeping the resumed document
    // byte-identical to an uninterrupted run.
    let mut journaled: Vec<Option<SimReport>> = vec![None; plans.len()];
    let mut degraded: Vec<Degradation> = Vec::new();
    if let Some(journal) = &journal {
        for (i, plan) in plans.iter().enumerate() {
            let Some(key) = cells[i] else { continue };
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
    // The cell key of a plan that still needs simulating.
    let due = |i: usize| cells[i].filter(|_| journaled[i].is_none());

    // Pre-warm phase: one warmup per machine, labelled by the first plan
    // that needs it. A warmup that panics poisons exactly the cells that
    // fork it.
    let mut needed: Vec<(u64, &CellPlan)> = Vec::new();
    for (i, p) in plans.iter().enumerate() {
        if let (Warm::Shared, Some(_), Some(machine)) = (&p.warm, due(i), machines[i]) {
            if !needed.iter().any(|&(m, _)| m == machine) {
                needed.push((machine, p));
            }
        }
    }
    let warmed = work_steal_map_catch(needed.len(), sweep.jobs, |k| {
        let (p, dir) = (needed[k].1, sweep.checkpoint_dir);
        let images = sweep.images[&(p.mix, p.seed)]
            .as_ref()
            .expect("a fingerprinted plan has images");
        warm_checkpoint(images, p.mix, p.seed, p.partition, sweep.warmup, dir)
    });
    let mut warmups_performed = 0;
    let mut simulated_cycles = 0;
    let mut shared: HashMap<u64, Result<Arc<Vec<u8>>, CellError>> = HashMap::new();
    for ((machine, _), outcome) in needed.into_iter().zip(warmed) {
        let checkpoint = outcome
            .map(|warm| {
                warmups_performed += usize::from(warm.computed);
                simulated_cycles += if warm.computed { sweep.warmup } else { 0 };
                degraded.extend(warm.degradations);
                warm.checkpoint
            })
            .map_err(|msg| CellError::panic(format!("warmup panicked: {msg}")));
        shared.insert(machine, checkpoint);
    }

    // Cell phase. Plans that still need simulating and share a cell key
    // are one group, named by its first plan; every other plan is a group
    // of its own. A cold/warm pair of groups whose cells both still need
    // simulating is one unit of work; every other group is its own.
    let mut first: HashMap<u64, usize> = HashMap::new();
    let group: Vec<usize> = (0..plans.len())
        .map(|i| due(i).map_or(i, |cell| *first.entry(cell).or_insert(i)))
        .collect();
    let mut members = vec![Vec::new(); plans.len()];
    for (i, &g) in group.iter().enumerate() {
        members[g].push(i);
    }
    let mut warm_twin: Vec<Option<usize>> = vec![None; plans.len()];
    let mut fused = vec![false; plans.len()];
    for (warm, plan) in plans.iter().enumerate() {
        if let Warm::Own {
            cold_twin: Some(cold),
            ..
        } = plan.warm
        {
            debug_assert!(matches!(plans[cold].warm, Warm::None));
            if sweep.cycles >= sweep.warmup && due(cold).is_some() && due(warm).is_some() {
                warm_twin[group[cold]] = Some(group[warm]);
                fused[group[warm]] = true;
            }
        }
    }
    // A unit: a group and, for a pair, its warm twin's group.
    let units: Vec<(usize, Option<usize>)> = (0..plans.len())
        .filter(|&g| group[g] == g && !fused[g])
        .map(|g| (g, warm_twin[g]))
        .collect();

    // Publishes a fresh report; a failed store only costs durability.
    let store = |i: usize, done: &mut Done| {
        if let (Some(journal), Some(key)) = (&journal, cells[i]) {
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
                let machine = machines[i].expect("loaded images have a fingerprint");
                let mut sim = fork(shared[&machine].as_ref().map_err(CellError::clone)?)?;
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
    // pool: a unit may finish two groups, at different times.
    let slots: Vec<OnceLock<CellResult>> = plans.iter().map(|_| OnceLock::new()).collect();
    let set = |i: usize, result: CellResult| {
        assert!(slots[i].set(result).is_ok(), "plan {i} ran in two units");
    };
    // Publishes a group's one result: the simulated member, first, keeps
    // its work and incidents, and every other member gets a clone.
    let finish = |group: &[usize], result: CellResult| {
        for &i in &group[1..] {
            let copy = result.as_ref().map(|done| Done::of(done.report.clone(), 0));
            set(i, copy.map_err(CellError::clone));
        }
        set(group[0], result);
    };
    // A group's members whose fault probe passes; each member whose probe
    // fires fails alone.
    let live = |group: &[usize]| -> Vec<usize> {
        let passes = |&i: &usize| probe(i).map_err(|e| set(i, Err(e))).is_ok();
        group.iter().copied().filter(passes).collect()
    };
    let alone = |i: usize| contain(|| single(i, None));

    // A pair over one trajectory (module docs): report A over `0..warmup`
    // and the warm cell's checkpoint, the fork's report B up to `cycles`,
    // the cold cell as A ++ B, then the fork's last `warmup` cycles for
    // the warm cell. A panic in here unwinds to the unit's catch, which
    // fails the members still without a result: both groups up to the
    // cold cell's completion — the fault both separate runs would have
    // hit — and the warm group alone after it.
    let pair = |cold: &[usize], warm: &[usize]| {
        let plan = &plans[warm[0]];
        let images = sweep.images[&(plan.mix, plan.seed)]
            .as_ref()
            .expect("pairs form on loaded images");
        let (warmed, first) = own_warmup(plan, images);
        let Some(first) = first else {
            // Cache-served: there is no window A to share.
            finish(cold, alone(cold[0]));
            finish(warm, contain(|| single(warm[0], Some(warmed))));
            return;
        };
        let mut sim = Simulator::fork_checkpoint((plan.config)(images), &warmed.checkpoint)
            .expect("a machine restores the checkpoint it has just saved");
        drop(warmed.checkpoint);
        let second = sim.run(sweep.cycles - sweep.warmup);
        let report = first
            .concat(&second)
            .expect("the fork continues the machine the first window measured");
        let mut done = Done::of(report, sweep.cycles);
        store(cold[0], &mut done);
        // Complete and durable before the machine runs on.
        finish(cold, Ok(done));
        let mut done = Done {
            warmed: true,
            degradations: warmed.degradations,
            ..Done::of(sim.run(sweep.warmup), sweep.warmup)
        };
        store(warm[0], &mut done);
        finish(warm, Ok(done));
    };

    let escaped = work_steal_map_catch(units.len(), sweep.jobs, |u| {
        let (cold, warm) = units[u];
        // Whoever passes their probe runs — fused only when both groups
        // still have a member.
        let cold = live(&members[cold]);
        match warm.map(|g| live(&members[g])) {
            Some(warm) if !cold.is_empty() && !warm.is_empty() => pair(&cold, &warm),
            warm => {
                for group in [Some(cold), warm].into_iter().flatten() {
                    if let Some(&i) = group.first() {
                        finish(&group, alone(i));
                    }
                }
            }
        }
    });
    for (&(cold, warm), outcome) in units.iter().zip(escaped) {
        let Err(msg) = outcome else { continue };
        for &i in [Some(cold), warm]
            .into_iter()
            .flatten()
            .flat_map(|g| &members[g])
        {
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
