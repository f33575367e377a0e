//! The zero-allocation pin for **trace replay**: a counting global
//! allocator proves that a warmed simulator whose threads feed from
//! recorded SMT1TRCE traces steps its cycle path without a single heap
//! allocation — the property that makes trace-driven sweeps as cheap as
//! the synthetic hot loop. Replay is a cursor walk over the pre-decoded
//! step arrays (wrapping at the end of the trace), so nothing on the
//! steady-state path may allocate; this test is the tripwire that keeps
//! it that way. Runs in release mode in CI next to the synthetic
//! allocation guard.
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

/// A warmed trace-replaying simulator steps 5000 cycles without a single
/// heap allocation. Setup — loading the ELFs, recording the traces,
/// building the machine and warming it past every structure's high-water
/// mark — may allocate freely; the measured window may not.
#[test]
fn warmed_trace_replay_is_allocation_free() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("testdata")
        .join("riscv");
    let workloads: Vec<smt_core::WorkloadSpec> = ["loops", "memsum", "gcd"]
        .iter()
        .map(|stem| {
            let img = Arc::new(
                smt_workload::RiscvImage::load(&dir.join(format!("{stem}.elf")))
                    .expect("checked-in test ELF loads"),
            );
            let trace = smt_workload::TraceImage::record(&img, 16_384).expect("record trace");
            smt_core::WorkloadSpec::Trace(Arc::new(trace))
        })
        .collect();
    let mut sim = smt_core::SimConfig::new().with_workloads(workloads).build();
    // Warm every structure past its high-water mark — and far enough that
    // each trace cursor has wrapped at least once, so the measured window
    // covers the wrap path too.
    sim.run(30_000);
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..5_000 {
        sim.step_cycle();
    }
    let during = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        during, 0,
        "warmed trace replay allocated {during} times across a 5k-cycle window"
    );
    // The machine made real progress while we were counting.
    assert!(sim.cycle() >= 35_000);
    assert!(sim.run(0).total_committed() > 0);
}
