//! A single-threaded replica of both sweep drivers, traced call by call.
//!
//! `run_study` and `run_ablation_study` are opaque from outside, so the
//! traced run re-drives the same cells in the same order through the
//! public calls the drivers are built from, with one span around each
//! call, parented to its cell. The replica's rendered documents are
//! byte-compared with the drivers', so it cannot drift from what they
//! compute; `experiments.driver_overhead_pct` shows what they cost on top.

use smt_core::checkpoint::config_fingerprint;
use smt_core::{
    fetch_policy_by_name, issue_policy_by_name, Ablation, Ablations, SimConfig, SimReport,
    Simulator,
};
use smt_experiments::ablation::{AblationCell, AblationStudy, AblationStudyConfig, Window};
use smt_experiments::journal::{journal_key, Journal};
use smt_experiments::study::{resolve_mix, MixImages, Study, StudyCell, StudyConfig};
use smt_experiments::warmup::canonical_config_for;

use crate::spans::Tracer;

/// Whether the replica simulates into empty directories or reads a
/// populated journal back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Cold,
    Resume,
}

/// Shared state of one sweep's replica.
struct Driver<'a> {
    t: &'a mut Tracer,
    journal: Journal,
    checkpoint_dir: std::path::PathBuf,
    mode: Mode,
    cycles: u64,
    warmup: u64,
    cell_index: u64,
    warmups: usize,
    loaded: usize,
}

impl Driver<'_> {
    /// Warms `cfg` and saves the checkpoint to memory and to the replica's
    /// own cache file, as the drivers' `--checkpoint-dir` path does.
    fn warm(&mut self, cfg: SimConfig) -> Result<Vec<u8>, String> {
        let span = self.t.enter("warmup");
        let mut sim = cfg.build();
        for _ in 0..self.warmup {
            sim.step_cycle();
        }
        self.t.exit(span);
        let span = self.t.enter("checkpoint_save");
        let mut bytes = Vec::new();
        sim.save_checkpoint(&mut bytes)
            .map_err(|e| format!("checkpoint save: {e}"))?;
        let path = self
            .checkpoint_dir
            .join(format!("replica-{}.ckpt", self.warmups));
        std::fs::write(&path, &bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        self.t.exit(span);
        self.warmups += 1;
        Ok(bytes)
    }

    /// Restores `cfg` from the warmed checkpoint and measures the cell —
    /// the body of `try_fork_cell`, split where the two spans meet.
    fn fork(&mut self, cfg: SimConfig, checkpoint: &[u8]) -> Result<SimReport, String> {
        let span = self.t.enter("fork_restore");
        let mut sim = Simulator::restore_checkpoint(cfg, &mut &checkpoint[..])
            .map_err(|e| format!("checkpoint restore: {e}"))?;
        sim.mark_restored_from_checkpoint();
        sim.reset_stats();
        self.t.exit(span);
        let cycles = self.cycles;
        Ok(self.t.scope("measure", || sim.run(cycles)))
    }

    /// One cell: served from the journal on resume, otherwise simulated by
    /// `simulate` and stored.
    fn cell(
        &mut self,
        key: u64,
        simulate: impl FnOnce(&mut Self) -> Result<SimReport, String>,
    ) -> Result<SimReport, String> {
        self.t.next_trace();
        let span = self.t.enter("cell");
        let index = self.cell_index;
        self.cell_index += 1;
        let report = match self.mode {
            Mode::Resume => {
                let journal = &self.journal;
                let found = self.t.scope("journal_load", || journal.load(key, index))?;
                self.loaded += 1;
                found.ok_or_else(|| format!("journal holds no entry for cell {index}"))?
            }
            Mode::Cold => {
                let report = simulate(self)?;
                let journal = &self.journal;
                self.t
                    .scope("journal_store", || journal.store(key, index, &report))
                    .map_err(|e| format!("journal store: {e}"))?;
                report
            }
        };
        self.t.exit(span);
        Ok(report)
    }
}

fn driver<'a>(
    t: &'a mut Tracer,
    journal: &Option<std::path::PathBuf>,
    checkpoints: &Option<std::path::PathBuf>,
    mode: Mode,
    cycles: u64,
    warmup: u64,
) -> Result<Driver<'a>, String> {
    let journal = journal
        .as_ref()
        .ok_or("the replica needs a journal directory")?;
    let checkpoint_dir = checkpoints
        .clone()
        .ok_or("the replica needs a checkpoint directory")?;
    Ok(Driver {
        t,
        journal: Journal::open(journal).map_err(|e| format!("journal open: {e}"))?,
        checkpoint_dir,
        mode,
        cycles,
        warmup,
        cell_index: 0,
        warmups: 0,
        loaded: 0,
    })
}

/// Resolves every (mix, seed) image of a sweep, one span each.
fn load_images(
    t: &mut Tracer,
    mixes: &[String],
    seeds: &[u64],
) -> Result<Vec<(String, u64, MixImages)>, String> {
    let mut images = Vec::new();
    for mix in mixes {
        for &seed in seeds {
            let resolved = t.scope("image_load", || resolve_mix(mix, seed))?;
            images.push((mix.clone(), seed, resolved));
        }
    }
    Ok(images)
}

/// The issue sweep, cell by cell in `run_study`'s order: one canonical
/// warmup per (mix, seed, partition), forked across fetch × issue.
pub fn issue_replica(
    t: &mut Tracer,
    cfg: &StudyConfig,
    mode: Mode,
) -> Result<(Study, String), String> {
    let root = t.enter("issue_replica");
    let images = load_images(t, &cfg.mixes, &cfg.seeds)?;
    let mut d = driver(
        t,
        &cfg.journal,
        &cfg.checkpoint_dir,
        mode,
        cfg.cycles,
        cfg.warmup,
    )?;
    let mut cells = Vec::with_capacity(cfg.cell_count());
    for (mix, seed, imgs) in &images {
        for &partition in &cfg.partitions {
            let canonical = || canonical_config_for(imgs, *seed, partition);
            let fingerprint = config_fingerprint(&canonical());
            let mut checkpoint: Option<Vec<u8>> = None;
            for fetch in &cfg.fetch_policies {
                for issue in &cfg.issue_policies {
                    let key = journal_key(
                        fingerprint,
                        &["issue-study", fetch, issue],
                        &[cfg.cycles, cfg.warmup],
                    );
                    let report = d.cell(key, |d| {
                        if checkpoint.is_none() {
                            checkpoint = Some(d.warm(canonical())?);
                        }
                        let cell_cfg = imgs
                            .apply(SimConfig::new())
                            .with_seed(*seed)
                            .with_fetch(fetch_policy_by_name(fetch).ok_or("fetch policy")?)
                            .with_issue(issue_policy_by_name(issue).ok_or("issue policy")?)
                            .with_partition(partition);
                        d.fork(cell_cfg, checkpoint.as_deref().expect("warmed above"))
                    })?;
                    cells.push(StudyCell {
                        fetch: report.fetch_policy.clone(),
                        issue: report.issue_policy.clone(),
                        partition,
                        mix: mix.clone(),
                        seed: *seed,
                        report,
                    });
                }
            }
        }
    }
    let study = Study {
        config: cfg.clone(),
        cells,
        failed: Vec::new(),
        degraded: Vec::new(),
        warmups_performed: d.warmups,
        journal_loaded: d.loaded,
    };
    let doc = t.scope("render", || study.to_json().render());
    t.exit(root);
    Ok((study, doc))
}

/// The ablation sweep, cell by cell in `run_ablation_study`'s order: cold
/// cells run from reset, warm cells warm under their own configuration.
pub fn ablation_replica(
    t: &mut Tracer,
    cfg: &AblationStudyConfig,
    mode: Mode,
) -> Result<(AblationStudy, String), String> {
    let root = t.enter("ablation_replica");
    let images = load_images(t, &cfg.mixes, &cfg.seeds)?;
    let mut d = driver(
        t,
        &cfg.journal,
        &cfg.checkpoint_dir,
        mode,
        cfg.cycles,
        cfg.warmup,
    )?;
    let mut axis: Vec<Option<Ablation>> = vec![None];
    for name in &cfg.ablations {
        axis.push(Some(
            Ablation::by_name(name).ok_or_else(|| format!("ablation '{name}'"))?,
        ));
    }
    let mut cells = Vec::with_capacity(cfg.cell_count());
    for (mix, seed, imgs) in &images {
        for &partition in &cfg.partitions {
            let fingerprint = config_fingerprint(&canonical_config_for(imgs, *seed, partition));
            for fetch in &cfg.fetch_policies {
                for window in Window::ALL {
                    for &ablation in &axis {
                        let label = ablation.map_or("baseline", |a| a.name());
                        let key = journal_key(
                            fingerprint,
                            &["ablation-study", fetch, window.name(), label],
                            &[cfg.cycles, cfg.warmup],
                        );
                        let build = || -> Result<SimConfig, String> {
                            Ok(imgs
                                .apply(SimConfig::new())
                                .with_seed(*seed)
                                .with_fetch(fetch_policy_by_name(fetch).ok_or("fetch policy")?)
                                .with_partition(partition)
                                .with_ablations(
                                    ablation.map_or(Ablations::none(), Ablations::only),
                                ))
                        };
                        let report = d.cell(key, |d| match window {
                            Window::Cold => {
                                let cell_cfg = build()?;
                                let cycles = d.cycles;
                                Ok(d.t.scope("measure", || cell_cfg.build().run(cycles)))
                            }
                            Window::Warm => {
                                let checkpoint = d.warm(build()?)?;
                                d.fork(build()?, &checkpoint)
                            }
                        })?;
                        cells.push(AblationCell {
                            ablation: ablation.map(|a| a.name().to_string()),
                            fetch: report.fetch_policy.clone(),
                            partition,
                            mix: mix.clone(),
                            seed: *seed,
                            window,
                            report,
                        });
                    }
                }
            }
        }
    }
    let study = AblationStudy {
        config: cfg.clone(),
        cells,
        failed: Vec::new(),
        degraded: Vec::new(),
        warmups_performed: d.warmups,
        journal_loaded: d.loaded,
    };
    let doc = t.scope("render", || study.to_json().render());
    t.exit(root);
    Ok((study, doc))
}
