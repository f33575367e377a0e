//! The zero-allocation pin for **real-binary workloads**: a counting
//! global allocator proves that a warmed simulator steps its cycle path
//! without a single heap allocation both when its threads replay recorded
//! SMT1TRCE traces and when they execute the ELFs themselves through
//! `RiscvSource` (`WorkloadSpec::Elf`, the path `hotloop_riscv` runs).
//! Replay is a cursor walk over pre-decoded step arrays and execution a
//! decode plus one ALU call per instruction, program restarts included
//! (a `memcpy`), so nothing on either steady-state path may allocate;
//! this test is the tripwire that keeps it that way. Runs in release
//! mode in CI next to the synthetic allocation guard.
//!
//! Lives in its own integration-test binary (one test, one process): the
//! counter is process-global, so sharing a binary with other tests would
//! race their allocations into the measured window.

#![allow(unsafe_code)] // the counting allocator is an `unsafe impl` by nature

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts every allocation and reallocation the process makes.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Warms a machine on `workloads` for 30 000 cycles — past every
/// structure's high-water mark, and far enough that each trace cursor has
/// wrapped and each program has restarted — then counts the allocations
/// of the next 5 000 cycles, which must be none.
fn assert_steady_state_allocation_free(label: &str, workloads: Vec<smt_core::WorkloadSpec>) {
    let mut sim = smt_core::SimConfig::new().with_workloads(workloads).build();
    sim.run(30_000);
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..5_000 {
        sim.step_cycle();
    }
    let during = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        during, 0,
        "warmed {label} allocated {during} times across a 5k-cycle window"
    );
    // The machine made real progress while we were counting.
    assert!(sim.cycle() >= 35_000);
    assert!(sim.run(0).total_committed() > 0);
}

/// Warmed trace-replaying and ELF-executing simulators each step 5000
/// cycles without a single heap allocation. Setup — loading the ELFs,
/// recording the traces, building the machines and warming them — may
/// allocate freely; the measured windows may not.
#[test]
fn warmed_trace_replay_is_allocation_free() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("testdata")
        .join("riscv");
    let images: Vec<Arc<smt_workload::RiscvImage>> = ["loops", "memsum", "gcd"]
        .iter()
        .map(|stem| {
            Arc::new(
                smt_workload::RiscvImage::load(&dir.join(format!("{stem}.elf")))
                    .expect("checked-in test ELF loads"),
            )
        })
        .collect();
    let traces = images
        .iter()
        .map(|img| {
            let trace = smt_workload::TraceImage::record(img, 16_384).expect("record trace");
            smt_core::WorkloadSpec::Trace(Arc::new(trace))
        })
        .collect();
    assert_steady_state_allocation_free("trace replay", traces);
    let elfs = images
        .into_iter()
        .map(smt_core::WorkloadSpec::Elf)
        .collect();
    assert_steady_state_allocation_free("ELF execution", elfs);
}
