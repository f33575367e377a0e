//! Property tests for input-file robustness: malformed ELF binaries and
//! torn or bit-rotted files of the three `SMT1*` formats (recorded traces,
//! journal entries, checkpoints) must always produce typed errors — never
//! a panic, never a silently-accepted corrupt value. The sweep's per-cell
//! fault containment relies on this layer (a bad `riscv:` file becomes a
//! `workload` entry in `failed_cells`, a bad journal or cache entry a
//! `degraded_cells` one), so the loaders are fuzzed here over
//! truncation points and bit flips, by one helper for all three formats,
//! and checkpoints once more with the checksum recomputed after the damage,
//! so the restore-side checks themselves are exercised.

use std::sync::Arc;

use smt_core::{SimConfig, Simulator, WorkloadSpec};
use smt_experiments::journal::{journal_key, Journal};
use smt_stats::binio::{fnv1a, FNV_OFFSET};
use smt_workload::{Benchmark, RiscvImage, TraceImage};

/// A tiny valid rv64 image built from raw code (the store/load/branch loop the
/// workspace's other tests use).
fn loop_image() -> Arc<RiscvImage> {
    let words: [u32; 7] = [
        0x0000_0293, // addi x5, x0, 0
        0x00a0_0313, // addi x6, x0, 10
        0x0012_8293, // addi x5, x5, 1
        0x1050_2023, // sw x5, 256(x0)
        0x1000_2383, // lw x7, 256(x0)
        0xfe62_cae3, // blt x5, x6, -12
        0x0000_0073, // ecall
    ];
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    Arc::new(RiscvImage::from_flat("loop10", &bytes).expect("valid image"))
}

/// A valid serialized trace to mutate.
fn valid_trace_bytes() -> Vec<u8> {
    let trace = TraceImage::record(&loop_image(), 32).expect("record");
    let mut bytes = Vec::new();
    trace.write_to(&mut bytes).expect("vec write");
    bytes
}

/// A two-thread machine whose checkpoint is tens of kilobytes, not the
/// default ~319 kB (the cache tag arrays dominate), over pre-generated
/// programs, so the suite below can afford thousands of restores.
fn small_machine(programs: &[WorkloadSpec]) -> SimConfig {
    let mut cfg = SimConfig::new().with_workloads(programs.to_vec());
    for (level, kib) in [
        (&mut cfg.mem.icache, 4),
        (&mut cfg.mem.dcache, 4),
        (&mut cfg.mem.l2, 16),
        (&mut cfg.mem.l3, 64),
    ] {
        level.size_bytes = kib * 1024;
    }
    cfg.predictor.pht_entries = 256;
    cfg
}

/// Byte offsets the mutation suite visits: every one of the first 4 KiB
/// (where magic, version, keys, lengths and counts live), a prime stride
/// through the rest, and the last byte of the checksum trailer.
fn mutation_offsets(len: usize) -> impl Iterator<Item = usize> {
    (0..len.min(4096))
        .chain((4096..len).step_by(61))
        .chain([len - 1])
}

/// What every `SMT1*` reader owes its callers: a torn or bit-rotted file
/// is a typed error — never a panic, never a value other than the one that
/// was written. `load` decodes the bytes and says whether the result equals
/// the original.
fn assert_mutations_are_typed_errors(
    format: &str,
    pristine: &[u8],
    load: &dyn Fn(&[u8]) -> Result<bool, String>,
) {
    assert_eq!(
        load(pristine),
        Ok(true),
        "{format}: the unmutated bytes must load to the original"
    );
    for at in mutation_offsets(pristine.len()) {
        // A proper prefix, as a torn write or partial download leaves.
        let cut = load(&pristine[..at]);
        assert!(
            cut.is_err(),
            "{format}: truncation at byte {at} was accepted (equal to the original: {cut:?})"
        );
        let mut flipped = pristine.to_vec();
        flipped[at] ^= 1 << (at % 8);
        let flip = load(&flipped);
        assert!(
            flip.is_err(),
            "{format}: bit {} of byte {at} flipped undetected (equal to the original: {flip:?})",
            at % 8
        );
    }
}

#[test]
fn every_smt1_format_rejects_truncation_and_bit_flips() {
    // SMT1TRCE: a recorded trace through `TraceImage::read_from`.
    let trace = valid_trace_bytes();
    assert_mutations_are_typed_errors("SMT1TRCE", &trace, &|bytes| {
        let image = TraceImage::read_from(bytes).map_err(|e| e.to_string())?;
        let mut again = Vec::new();
        image.write_to(&mut again).expect("vec write");
        Ok(again == trace)
    });

    // SMT1JRNL: a stored journal entry, mutated on disk, through
    // `Journal::load`.
    let programs = [Benchmark::Espresso, Benchmark::Eqntott]
        .map(|b| WorkloadSpec::Program(Arc::new(b.generate(11, 0))));
    let mut sim = small_machine(&programs).build();
    let report = sim.run(300);
    let dir = std::env::temp_dir().join(format!("smt-exp-mutate-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let journal = Journal::open(&dir).expect("journal dir");
    let key = journal_key(7, &["issue", "ICOUNT", "OLDEST_FIRST"], &[300, 0]);
    journal.store(key, 0, &report).expect("store");
    let entry = std::fs::read(journal.entry_path(key)).expect("stored entry");
    assert_mutations_are_typed_errors("SMT1JRNL", &entry, &|bytes| {
        std::fs::write(journal.entry_path(key), bytes).expect("rewrite entry");
        Ok(journal.load(key, 0)?.as_ref() == Some(&report))
    });
    std::fs::remove_dir_all(&dir).ok();

    // SMT1CKPT: the same machine mid-flight, through
    // `Simulator::restore_checkpoint`.
    let mut checkpoint = Vec::new();
    sim.save_checkpoint(&mut checkpoint).expect("vec write");
    assert_mutations_are_typed_errors("SMT1CKPT", &checkpoint, &|mut bytes| {
        let restored = Simulator::restore_checkpoint(small_machine(&programs), &mut bytes)
            .map_err(|e| e.to_string())?;
        let mut again = Vec::new();
        restored.save_checkpoint(&mut again).expect("vec write");
        Ok(again == checkpoint)
    });
}

#[test]
fn resealed_checkpoint_corruption_is_typed_or_round_trips() {
    // The checksum only proves the bytes are the ones written. A stream
    // damaged *before* its checksum was computed — a buggy writer, or a
    // hand-edited file — gets past it to the field lists' own checks, so
    // flip bits and recompute the trailer: every result must be a typed
    // error or a machine whose own checkpoint restores to the same bytes
    // and that then runs, never a panic (a check restore skips is a panic
    // waiting in the pipeline). One machine carries every kind of
    // checkpointed state: an ELF executor, a trace cursor and a synthetic
    // oracle.
    let trace = Arc::new(TraceImage::record(&loop_image(), 64).expect("record"));
    let sources = [
        WorkloadSpec::Elf(loop_image()),
        WorkloadSpec::Trace(trace),
        WorkloadSpec::Program(Arc::new(Benchmark::Espresso.generate(11, 2))),
    ];
    let mut sim = small_machine(&sources).build();
    for _ in 0..400 {
        sim.step_cycle();
    }
    let mut checkpoint = Vec::new();
    sim.save_checkpoint(&mut checkpoint).expect("vec write");
    let restore =
        |bytes: &[u8]| Simulator::restore_checkpoint(small_machine(&sources), &mut &bytes[..]);
    let trailer = checkpoint.len() - 8;
    // Past the header (magic, version, fingerprint), which is checked
    // before any field is read; a prime stride samples every section.
    for at in (20..trailer).step_by(97) {
        let mut bytes = checkpoint.clone();
        bytes[at] ^= 1 << (at % 8);
        let sum = fnv1a(FNV_OFFSET, &bytes[..trailer]);
        bytes[trailer..].copy_from_slice(&sum.to_le_bytes());
        if let Ok(mut accepted) = restore(&bytes) {
            let mut again = Vec::new();
            accepted.save_checkpoint(&mut again).expect("vec write");
            let mut twice = Vec::new();
            restore(&again)
                .unwrap_or_else(|e| {
                    panic!("flip at {at}: an accepted machine's checkpoint is refused: {e}")
                })
                .save_checkpoint(&mut twice)
                .expect("vec write");
            assert_eq!(again, twice, "flip at {at}: save and restore disagree");
            let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for _ in 0..50 {
                    accepted.step_cycle();
                }
            }));
            assert!(ran.is_ok(), "flip at {at}: an accepted machine panicked");
        }
    }
}

#[test]
fn malformed_elves_are_typed_errors() {
    let elf = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../testdata/riscv/loops.elf"
    ))
    .expect("testdata ELF");
    assert!(
        RiscvImage::from_elf("loops", &elf).is_ok(),
        "the unmutated ELF must parse"
    );
    // Truncations: every prefix of the header region byte-by-byte, the
    // rest sampled (segment payloads are large and homogeneous).
    for cut in (0..elf.len().min(256)).chain((256..elf.len()).step_by(37)) {
        assert!(
            RiscvImage::from_elf("loops", &elf[..cut]).is_err(),
            "ELF truncated at {cut} was accepted"
        );
    }
    // Header/program-header corruption: flip bytes across the first 256
    // bytes, where class, machine, offsets and counts live. Payload bit
    // flips can legitimately still parse (they only change code bytes),
    // so the property is scoped to the structural region — it must never
    // panic and never produce an image with absurd geometry.
    for pos in 0..elf.len().min(256) {
        for mask in [0x01u8, 0xff] {
            let mut mutated = elf.clone();
            mutated[pos] ^= mask;
            if let Ok(image) = RiscvImage::from_elf("loops", &mutated) {
                assert!(
                    image.arena_len() <= 1 << 28,
                    "corrupt ELF produced an implausible arena (flip {mask:#04x} at {pos})"
                );
            }
        }
    }
    // Garbage and empty inputs.
    assert!(RiscvImage::from_elf("e", &[]).is_err());
    assert!(RiscvImage::from_elf("e", b"\x7fELF").is_err());
    assert!(RiscvImage::from_elf("e", &[0xAB; 4096]).is_err());
}

#[test]
fn custom_mix_load_failures_are_typed_not_fatal() {
    // The study layer's view of the same property: resolving a mix whose
    // file is missing or malformed yields an Err(String) naming the file,
    // never a panic or a process abort.
    let missing = smt_experiments::study::resolve_mix("riscv:/nonexistent/nope.elf", 42);
    let msg = missing.expect_err("missing file must not resolve");
    assert!(msg.contains("nope.elf"), "{msg}");

    let dir = std::env::temp_dir().join(format!("smt-exp-loader-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let junk = dir.join("junk.trace");
    std::fs::write(&junk, b"not a trace at all").unwrap();
    // A recorded trace is not a mix entry: refused by syntax, quoting it.
    let entry = format!("trace:{}", junk.display());
    let msg = smt_experiments::study::resolve_mix(&entry, 42).expect_err("trace: is refused");
    assert!(msg.contains(&format!("'{entry}'")), "{msg}");
    // The same bytes as a binary are no ELF image (and no flat one).
    let bad = smt_experiments::study::resolve_mix(&format!("riscv:{}", junk.display()), 42);
    let msg = bad.expect_err("junk bytes must not resolve");
    assert!(msg.contains("junk: not an ELF image"), "{msg}");
    std::fs::remove_dir_all(&dir).ok();
}
