//! Warmed-state checkpoints for the study sweeps: computing, caching and
//! forking them. Which checkpoint a cell forks, and when it is computed,
//! is the sweep engine's business (`sweep.rs`; the crate docs describe the
//! three warm kinds); this module is the mechanism underneath.
//!
//! Both studies measure behind a warmup window, and re-simulating a
//! stretch of cycles some other cell already simulated is the most
//! redundant work a sweep can do. The **issue study** warms each unique
//! machine — each canonical config fingerprint, whatever mix string
//! spells it — **once** under the *canonical* configuration — ICOUNT
//! fetch, OLDEST_FIRST issue, no ablations ([`warm_checkpoint`]) — and
//! the resulting
//! [`Simulator::save_checkpoint`] bytes are forked across the whole
//! fetch × issue cross-product (policies only steer the measured window;
//! they do not define the machine being warmed). The **ablation study**
//! cannot share that way — an ablation changes the machine itself, so a
//! warm cell must warm under its own fetch policy and ablation set to
//! keep the attribution numbers meaningful — and instead forks each warm
//! cell from a checkpoint warmed under the cell's own configuration
//! (`warm_checkpoint_reporting`). That checkpoint's only *fork* is the warm
//! cell's, so the engine computes it inside the unit of work and frees it
//! as soon as the fork has restored it (holding one ~319 KB checkpoint
//! per warm cell for the whole sweep would only raise peak memory); the
//! `--checkpoint-dir` cache dedups it across repeat sweeps. Its
//! *trajectory* does have a second user, though: the cold cell of the
//! same configuration measures `0..cycles` of the very run that warms
//! `0..warmup`. The engine therefore runs such a cold/warm pair over one
//! trajectory — the warmup's own report (`warm_checkpoint_reporting`)
//! concatenated with the fork's next window *is* the cold cell — and the
//! checkpoint it takes on the way is byte for byte the one a lone warmup
//! writes (`sweep.rs` has the whole scheme).
//!
//! Forking is observable-behaviour-free because a restored simulator is
//! bit-equivalent to one that ran straight through (`smt-core` pins this
//! with its own tests): a cell forked off a shared checkpoint is
//! byte-identical to one forked off its own recomputation of the same
//! canonical warmup ([`compute_checkpoint_under`] over
//! [`canonical_config_for`], then [`fork_cell`]; the test suite builds
//! its engine-free reference documents this way), and, but
//! for the `restored_from_checkpoint` flag, to a straight-through run.
//!
//! With `--checkpoint-dir` the checkpoints are also cached on disk, one
//! `warm-{key:016x}.ckpt` file each, named by the rule that names journal
//! entries: [`journal_key`] over the warmed machine's
//! [`config_fingerprint`] (workloads, seed, partition, geometry), the fork
//! axes the warmup ran under (none for the canonical warmup; fetch
//! policy, window and ablation for the ablation study's own ones) and the
//! warmup length. The name is the machine's identity, not the mix string:
//! two spellings of one mix (`a.elf` and `./a.elf`) share an entry, and
//! no mix is too long for a file name. Cache entries are
//! validated on load (header fingerprint, checksum trailer, and the
//! restored cycle count must equal the requested warmup); any mismatch
//! falls back to recomputing — a stale or corrupt cache can slow a sweep
//! down but never change its results. Cache I/O goes through the durable
//! layer (`crate::durable`): writes are atomic (temp file + rename, so
//! a killed sweep never leaves a torn entry under the real name),
//! transient errors are retried, and every fallback is reported as a
//! typed [`Degradation`] in the returned [`WarmOutcome`] instead of a
//! fire-and-forget `eprintln!` — the sweeps surface them in the study
//! document's `degraded_cells` list.

use std::path::Path;
use std::sync::Arc;

use smt_core::checkpoint::config_fingerprint;
use smt_core::{
    fetch_policy_by_name, issue_policy_by_name, FetchPartition, SimConfig, SimReport, Simulator,
};

use crate::fault::{Degradation, DegradeReason};
use crate::journal::journal_key;
use crate::study::MixImages;

/// The canonical warmup configuration for a (workloads, seed, partition)
/// key: ICOUNT fetch, OLDEST_FIRST issue, no ablations, no auto-warmup.
/// Every fork axis is pinned here so that a single warmup serves the whole
/// cross-product. Its fingerprint is also the machine/workload part of
/// every journal key.
pub fn canonical_config_for(images: &MixImages, seed: u64, partition: FetchPartition) -> SimConfig {
    images
        .apply(SimConfig::new())
        .with_seed(seed)
        .with_fetch(fetch_policy_by_name("icount").expect("shipped policy"))
        .with_issue(issue_policy_by_name("oldest").expect("shipped policy"))
        .with_partition(partition)
}

/// Simulates `warmup` cycles under the given configuration and serializes
/// the warmed machine. `warmup == 0` yields a (valid) cycle-zero
/// checkpoint, so the fork path needs no special case for unwarmed sweeps.
pub fn compute_checkpoint_under(cfg: SimConfig, warmup: u64) -> Vec<u8> {
    simulate_warmup(cfg, warmup).1
}

/// Simulates cycles `0..warmup` under `cfg`; returns that window's report
/// and the serialized machine at its end.
fn simulate_warmup(cfg: SimConfig, warmup: u64) -> (SimReport, Vec<u8>) {
    let mut sim = cfg.build();
    for _ in 0..warmup {
        sim.step_cycle();
    }
    let mut bytes = Vec::new();
    sim.save_checkpoint(&mut bytes)
        .expect("writing a checkpoint to a Vec cannot fail");
    (sim.report(), bytes)
}

/// One warmed checkpoint, plus how it was obtained.
#[derive(Debug, Clone)]
pub struct WarmOutcome {
    /// The serialized warmed machine.
    pub checkpoint: Arc<Vec<u8>>,
    /// Whether a warmup was actually simulated (`false` when the on-disk
    /// cache served the entry) — the accounting the sweeps expose as
    /// `warmups_performed`.
    pub computed: bool,
    /// Cache troubles survived along the way (invalid entries recomputed,
    /// write-backs that failed), in occurrence order. Empty on the happy
    /// path; never affects the checkpoint bytes.
    pub degradations: Vec<Degradation>,
}

/// One warmed checkpoint for the key, served from the on-disk cache when
/// `dir` is given and holds a valid entry, computed (and best-effort
/// cached) otherwise. `mix` names the warmup in any cache incident; the
/// entry itself is named by the machine's identity, so two spellings of
/// one mix share it.
pub fn warm_checkpoint(
    images: &MixImages,
    mix: &str,
    seed: u64,
    partition: FetchPartition,
    warmup: u64,
    dir: Option<&Path>,
) -> WarmOutcome {
    warm_checkpoint_reporting(
        || canonical_config_for(images, seed, partition),
        &[],
        &crate::sweep::label(&[], mix, seed, partition),
        warmup,
        dir,
    )
    .0
}

/// One warmed checkpoint for the configuration `build` makes, served from
/// the on-disk cache when `dir` is given and holds a valid entry, computed
/// (and best-effort cached) otherwise, plus the report of the warmup
/// window `0..warmup` when — and only when — this call simulated it
/// (`computed`). `parts` names the fork axes the configuration warms
/// under (the config fingerprint deliberately excludes them); `label`
/// names the warmup in any incident. The sweep engine concatenates the
/// window report with the forked machine's next window into the cold cell
/// of a cold/warm pair; a cache-served checkpoint has no such report, and
/// no pair.
///
/// Cache trouble never fails the warmup: an unreadable or invalid entry
/// is recomputed and a failed write-back leaves the sweep uncached, each
/// recorded as a [`Degradation`] on the returned [`WarmOutcome`].
pub(crate) fn warm_checkpoint_reporting(
    build: impl Fn() -> SimConfig,
    parts: &[&str],
    label: &str,
    warmup: u64,
    dir: Option<&Path>,
) -> (WarmOutcome, Option<SimReport>) {
    // Named like a journal entry (module docs): the machine's fingerprint,
    // the fork axes it warms under and the warmup length.
    let entry = dir.map(|d| {
        let key = journal_key(config_fingerprint(&build()), parts, &[warmup]);
        let name = format!("warm-{key:016x}.ckpt");
        (d.join(&name), format!("{label}/{name}"))
    });

    let mut degradations = Vec::new();
    if let Some((path, key)) = &entry {
        match load_cached(&build, warmup, path) {
            Ok(Some(bytes)) => {
                let served = WarmOutcome {
                    checkpoint: Arc::new(bytes),
                    computed: false,
                    degradations,
                };
                return (served, None);
            }
            Ok(None) => {}
            Err((reason, detail)) => degradations.push(Degradation {
                key: key.clone(),
                reason,
                detail: format!("{detail}; recomputed the warmup"),
            }),
        }
    }

    let (window, bytes) = simulate_warmup(build(), warmup);
    if let Some((path, key)) = entry {
        // Best-effort: a cache that cannot be written only costs time.
        if let Err(e) = crate::durable::atomic_write(&path, &bytes, "cache-write", 0) {
            degradations.push(Degradation {
                key,
                reason: DegradeReason::CheckpointCacheWrite,
                detail: format!("write failed: {e}; sweep continues uncached"),
            });
        }
    }
    let computed = WarmOutcome {
        checkpoint: Arc::new(bytes),
        computed: true,
        degradations,
    };
    (computed, Some(window))
}

/// Loads and validates one cache entry. `Ok(None)` means the entry does
/// not exist (a cold cache, not an error); `Err` is any reason the entry
/// cannot be used, as a degradation reason plus detail.
fn load_cached(
    build: impl Fn() -> SimConfig,
    warmup: u64,
    path: &Path,
) -> Result<Option<Vec<u8>>, (DegradeReason, String)> {
    let bytes = match crate::durable::read_file(path, "cache-read", 0) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err((
                DegradeReason::CheckpointCacheRead,
                format!("read failed: {e}"),
            ))
        }
    };
    let invalid = |msg: String| (DegradeReason::CheckpointCacheInvalid, msg);
    let sim = Simulator::restore_checkpoint(build(), &mut bytes.as_slice())
        .map_err(|e| invalid(format!("invalid cached checkpoint: {e}")))?;
    if sim.cycle() != warmup {
        return Err(invalid(format!(
            "cached checkpoint is at cycle {}, expected warmup {warmup}",
            sim.cycle()
        )));
    }
    Ok(Some(bytes))
}

/// Forks one measurement cell off a warmed checkpoint
/// ([`Simulator::fork_checkpoint`] under the cell's configuration, which
/// may differ from the canonical one only in the fork axes — fetch,
/// issue, ablations) and runs it. The resulting report is byte-identical
/// to a straight-through `cfg.with_warmup(warmup).build().run(cycles)`
/// run except for the `restored_from_checkpoint` flag.
///
/// # Errors
///
/// Returns the typed [`CheckpointError`](smt_core::CheckpointError) when
/// the checkpoint does not match the configuration's machine. The sweeps
/// only fork checkpoints they produced for the same key, so this is
/// next to unreachable — but it is contained as a per-cell `checkpoint`
/// failure rather than a process abort.
pub fn try_fork_cell(
    cfg: SimConfig,
    checkpoint: &[u8],
    cycles: u64,
) -> Result<SimReport, smt_core::CheckpointError> {
    Ok(Simulator::fork_checkpoint(cfg, checkpoint)?.run(cycles))
}

/// [`try_fork_cell`] for callers outside a containment boundary.
///
/// # Panics
///
/// Panics if the checkpoint does not match the configuration's machine.
pub fn fork_cell(cfg: SimConfig, checkpoint: &[u8], cycles: u64) -> SimReport {
    try_fork_cell(cfg, checkpoint, cycles)
        .expect("sweep checkpoints share the cell's machine fingerprint")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::resolve_mix;

    fn images() -> MixImages {
        resolve_mix("mixed4", 42).expect("named mix")
    }

    #[test]
    fn fork_matches_straight_through_warmup() {
        let partition = FetchPartition::new(2, 8);
        let ckpt = compute_checkpoint_under(canonical_config_for(&images(), 42, partition), 300);
        let cell_cfg = canonical_config_for(&images(), 42, partition);
        let forked = fork_cell(cell_cfg, &ckpt, 400);
        let straight = canonical_config_for(&images(), 42, partition)
            .with_warmup(300)
            .build()
            .run(400);
        assert!(forked.restored_from_checkpoint);
        assert_eq!(forked.warmup_cycles, straight.warmup_cycles);
        assert_eq!(forked.cycles, straight.cycles);
        assert_eq!(forked.total_committed(), straight.total_committed());
        // Everything but the provenance flag is byte-identical.
        let mut forked = forked;
        forked.restored_from_checkpoint = false;
        assert_eq!(
            forked.to_json().render(),
            straight.to_json().render(),
            "forked cell diverged from the straight-through run"
        );
    }

    #[test]
    fn disk_cache_round_trips_and_survives_corruption() {
        let dir = std::env::temp_dir().join(format!("smt-exp-warm-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let partition = FetchPartition::new(2, 8);
        let p = images();

        let first = warm_checkpoint(&p, "mixed4", 42, partition, 200, Some(&dir));
        assert!(first.computed, "cold cache must compute");
        assert!(first.degradations.is_empty(), "{:?}", first.degradations);
        let second = warm_checkpoint(&p, "mixed4", 42, partition, 200, Some(&dir));
        assert!(
            !second.computed,
            "second call must be served from the cache"
        );
        assert!(second.degradations.is_empty());
        assert_eq!(*first.checkpoint, *second.checkpoint);

        // A corrupt cache entry is detected and recomputed, not trusted.
        let entry = std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let mut bytes = std::fs::read(&entry).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&entry, &bytes).unwrap();
        let third = warm_checkpoint(&p, "mixed4", 42, partition, 200, Some(&dir));
        assert!(third.computed, "corrupt cache entry must be recomputed");
        assert_eq!(*first.checkpoint, *third.checkpoint);
        // The fallback is no longer silent: it is a typed degradation.
        assert_eq!(third.degradations.len(), 1);
        assert_eq!(
            third.degradations[0].reason,
            DegradeReason::CheckpointCacheInvalid
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_corruption_mode_is_typed_and_falls_back_to_recomputing() {
        use smt_core::CheckpointError;

        let dir =
            std::env::temp_dir().join(format!("smt-exp-corrupt-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let partition = FetchPartition::new(2, 8);
        let p = images();
        let warmup = 200;

        // The cacheless run every fallback must be byte-identical to.
        let reference = warm_checkpoint(&p, "mixed4", 42, partition, warmup, None).checkpoint;

        // Seed the on-disk cache and keep a pristine copy of the entry.
        let cached = warm_checkpoint(&p, "mixed4", 42, partition, warmup, Some(&dir));
        assert!(cached.computed, "cold cache must compute");
        assert_eq!(*reference, *cached.checkpoint);
        let entry = std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let pristine = std::fs::read(&entry).unwrap();

        // Every way an entry can rot on disk, with the typed error the
        // restore path must map it to. Each case mutates a pristine copy
        // in place (truncation included).
        type Mutate = fn(&mut Vec<u8>);
        type Expect = fn(&CheckpointError) -> bool;
        let cases: [(&str, Mutate, Expect); 5] = [
            (
                "flipped magic",
                |b| b[0] ^= 0xFF,
                |e| matches!(e, CheckpointError::BadMagic),
            ),
            (
                "future format version",
                |b| b[8..12].copy_from_slice(&u32::MAX.to_le_bytes()),
                |e| matches!(e, CheckpointError::UnsupportedVersion { found: u32::MAX }),
            ),
            (
                "wrong config fingerprint",
                |b| {
                    for byte in &mut b[12..20] {
                        *byte ^= 0xA5;
                    }
                },
                |e| matches!(e, CheckpointError::ConfigMismatch { .. }),
            ),
            (
                "payload bit flip",
                |b| {
                    let last = b.len() - 1;
                    b[last] ^= 0x01; // lands in the FNV-1a trailer
                },
                |e| matches!(e, CheckpointError::Corrupt(_)),
            ),
            (
                "truncated stream",
                |b| b.truncate(b.len() / 2),
                |e| matches!(e, CheckpointError::Truncated),
            ),
        ];

        for (label, mutate, is_expected) in cases {
            let mut rotten = pristine.clone();
            mutate(&mut rotten);

            // The restore path reports the precise typed error …
            let err = match Simulator::restore_checkpoint(
                canonical_config_for(&p, 42, partition),
                &mut rotten.as_slice(),
            ) {
                Ok(_) => panic!("{label}: restore accepted a rotten checkpoint"),
                Err(e) => e,
            };
            assert!(is_expected(&err), "{label}: unexpected error {err}");

            // … and the cache layer degrades to a cold warmup whose bytes
            // match the cacheless run exactly, reporting the degradation.
            std::fs::write(&entry, &rotten).unwrap();
            let again = warm_checkpoint(&p, "mixed4", 42, partition, warmup, Some(&dir));
            assert!(again.computed, "{label}: rotten entry must be recomputed");
            assert_eq!(
                *reference, *again.checkpoint,
                "{label}: fallback changed the bytes"
            );
            assert_eq!(again.degradations.len(), 1, "{label}");
            assert_eq!(
                again.degradations[0].reason,
                DegradeReason::CheckpointCacheInvalid,
                "{label}"
            );

            // The fallback best-effort repaired the cache on the way out.
            let served = warm_checkpoint(&p, "mixed4", 42, partition, warmup, Some(&dir));
            assert!(
                !served.computed,
                "{label}: repaired entry must serve from disk"
            );
            assert_eq!(*reference, *served.checkpoint);
        }

        // A valid entry at the wrong cycle: the warmup-200 bytes under the
        // warmup-150 entry's name restore cleanly, but are refused.
        let short = warmup - 50;
        let short_reference = warm_checkpoint(&p, "mixed4", 42, partition, short, None).checkpoint;
        warm_checkpoint(&p, "mixed4", 42, partition, short, Some(&dir));
        let short_entry = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|path| *path != entry)
            .expect("the warmup-150 entry");
        std::fs::write(&short_entry, &pristine).unwrap();
        let again = warm_checkpoint(&p, "mixed4", 42, partition, short, Some(&dir));
        assert!(again.computed, "wrong-cycle entry must be recomputed");
        assert_eq!(*short_reference, *again.checkpoint);
        assert_eq!(again.degradations.len(), 1);
        let refused = &again.degradations[0];
        assert_eq!(refused.reason, DegradeReason::CheckpointCacheInvalid);
        assert!(refused.detail.contains("expected warmup"), "{refused}");

        std::fs::remove_dir_all(&dir).ok();
    }
}
