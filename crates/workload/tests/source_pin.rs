//! A literal pin of one synthetic source's checkpoint section.
//!
//! Espresso (program seed 42, slot 0) under oracle seed 7 is stepped
//! 10 000 times and saved. The section's byte length and FNV-1a hash are
//! literals, and so is a digest of the next 1 000 `(inst, outcome)` pairs a
//! freshly built source yields after restoring those bytes. A change to
//! the synthetic backend's field list, its step or its restore moves one of
//! the three.

use std::io::{Read, Write};
use std::sync::Arc;

use smt_isa::{Outcome, Reg, StaticInst};
use smt_stats::binio::{fnv1a, BinReader, BinWriter, FNV_OFFSET};
use smt_stats::Persist;
use smt_workload::{Benchmark, SyntheticSource, WorkloadSource};

fn source() -> SyntheticSource {
    SyntheticSource::new(Arc::new(Benchmark::Espresso.generate(42, 0)), 7)
}

fn fold(h: u64, inst: StaticInst, o: Outcome) -> u64 {
    let reg = |r: Option<Reg>| r.map_or([0, 0], |r| [1 + r.class().index() as u8, r.index() as u8]);
    let mut b = vec![inst.op.code(), u8::from(o.taken)];
    b.extend(reg(inst.dest));
    b.extend(reg(inst.srcs[0]));
    b.extend(reg(inst.srcs[1]));
    b.extend_from_slice(&inst.meta.to_le_bytes());
    b.extend_from_slice(&o.next_pc.to_le_bytes());
    b.extend_from_slice(&o.mem_addr.to_le_bytes());
    fnv1a(h, &b)
}

#[test]
fn synthetic_source_section_is_pinned() {
    let mut s = source();
    for _ in 0..10_000 {
        s.step();
    }
    let mut bytes = Vec::new();
    s.save(&mut BinWriter::new(&mut bytes as &mut dyn Write))
        .expect("vec write");
    let mut restored = source();
    restored
        .restore(&mut BinReader::new(&mut &bytes[..] as &mut dyn Read))
        .expect("restore");
    let mut stream = FNV_OFFSET;
    for _ in 0..1_000 {
        let (inst, outcome) = restored.step();
        stream = fold(stream, inst, outcome);
    }
    assert_eq!(
        (bytes.len(), fnv1a(FNV_OFFSET, &bytes), stream),
        (2_008, 0x017a_c298_82b6_49c5, 0x0b51_2f35_0dbe_3e92),
        "section length, section hash, post-restore stream digest"
    );
}
