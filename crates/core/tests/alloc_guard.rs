//! The zero-allocation pin: a counting global allocator proves the warmed
//! simulator's cycle path performs **no heap allocation at all** — the
//! property the data-oriented hot loop (slab storage, pooled scratch
//! buffers, inline wakeup lists, recycled MSHR waiter lists) was built to
//! provide, and one a wall-clock benchmark is far too coarse to notice
//! losing. Runs in release mode in CI.
//!
//! Lives in its own integration-test binary (one test, one process):
//! the counter is process-global, so sharing a binary with other tests
//! would race their allocations into the measured window.

#![allow(unsafe_code)] // the counting allocator is an `unsafe impl` by nature

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use smt_workload::Benchmark;

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

/// The study mixes the guard runs: the paper's standard mix, and the
/// integer-heavy and FP-heavy eight-thread mixes of the issue and ablation
/// studies (`smt_experiments::study::mix_by_name`, spelled out here since
/// this crate cannot depend on that one). `int8` is the memory-bound mix.
fn mixes() -> [(&'static str, Vec<Benchmark>); 3] {
    use Benchmark::*;
    [
        ("standard", smt_workload::standard_mix()),
        (
            "int8",
            vec![
                Espresso, Eqntott, Xlisp, Compress, Espresso, Eqntott, Xlisp, Compress,
            ],
        ),
        (
            "fp8",
            vec![
                Alvinn, Tomcatv, Doduc, Fpppp, Su2cor, Swm256, Alvinn, Tomcatv,
            ],
        ),
    ]
}

/// A warmed simulator steps 5000 cycles without a single heap allocation,
/// on every study mix under every shipped fetch × issue policy pair: the
/// rotation and counter fetch keys, the OLDEST_FIRST fast path and the
/// general issue ranking. The simulation is deterministic, so this is a
/// sharp regression tripwire: any future per-cycle allocation — a grown
/// scratch vector, an un-pooled event list, a map rehash — fails it
/// immediately.
#[test]
fn warmed_cycle_path_is_allocation_free() {
    for (mix, benchmarks) in mixes() {
        for fetch in ["rr", "icount", "brcount", "misscount"] {
            for issue in ["oldest", "opt_last", "spec_last", "branch_first"] {
                let mut sim = smt_core::SimConfig::new()
                    .with_benchmarks(benchmarks.clone(), 42)
                    .with_fetch(smt_core::fetch_policy_by_name(fetch).unwrap())
                    .with_issue(smt_core::issue_policy_by_name(issue).unwrap())
                    .build();
                // Warm every structure past its high-water mark: caches,
                // TLBs and predictor tables fill, the slab and every
                // scratch buffer reach steady-state capacity.
                sim.run(30_000);
                let before = ALLOCS.load(Ordering::Relaxed);
                for _ in 0..5_000 {
                    sim.step_cycle();
                }
                let during = ALLOCS.load(Ordering::Relaxed) - before;
                assert_eq!(
                    during, 0,
                    "warmed {mix} {fetch}/{issue} simulator allocated {during} times \
                     across a 5k-cycle window"
                );
                // The machine made real progress while we were counting.
                assert!(sim.cycle() >= 35_000);
            }
        }
    }
}
