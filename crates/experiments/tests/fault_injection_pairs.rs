//! Fault containment inside a cold/warm ablation pair (requires
//! `--features fault-inject`; `fault_injection.rs` holds the general
//! suite, and this file is its own process because the fault registry is
//! process-global).
//!
//! The engine simulates a cold cell and its warm twin as one unit of work,
//! but a fault is still a *cell's*: a panic injected at either member
//! fails exactly that member, and the other one — now alone — completes
//! bit-exact against a fault-free sweep.

#![cfg(feature = "fault-inject")]

use smt_core::FetchPartition;
use smt_experiments::ablation::{run_ablation_study, AblationStudyConfig, Window};
use smt_experiments::fault::CellErrorKind;
use smt_stats::faults::{arm, clear, remaining_shots, FaultKind};

#[test]
fn a_panic_at_either_member_of_a_pair_fails_that_member_only() {
    // Plan order: rr cold {baseline, perfect_icache}, rr warm {…}, then
    // icount likewise — cells 0/2, 1/3, 4/6 and 5/7 are the pairs.
    let cfg = |jobs| AblationStudyConfig {
        fetch_policies: vec!["rr".into(), "icount".into()],
        ablations: vec!["perfect_icache".into()],
        partitions: vec![FetchPartition::new(2, 8)],
        mixes: vec!["mixed4".into()],
        seeds: vec![42],
        cycles: 400,
        warmup: 200,
        jobs,
        ..AblationStudyConfig::default()
    };
    let reference = run_ablation_study(&cfg(1)).unwrap();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    // A cold member, a warm member, and both members of one pair.
    let injected: [(u64, Window, &str); 4] = [
        (1, Window::Cold, "RR"),
        (4, Window::Cold, "ICOUNT"),
        (6, Window::Warm, "ICOUNT"),
        (7, Window::Warm, "ICOUNT"),
    ];
    for jobs in [1, 2, 8] {
        for (i, _, _) in injected {
            arm("cell", Some(i), FaultKind::Panic, 1);
        }
        let study = run_ablation_study(&cfg(jobs)).unwrap();
        assert_eq!(remaining_shots(), 0, "every armed fault must fire");
        clear();
        let failed: Vec<(Window, &str)> = study
            .failed
            .iter()
            .map(|f| {
                assert_eq!(f.error.kind, CellErrorKind::Panic);
                assert!(f.error.message.contains("injected panic at cell#"));
                (f.window, f.fetch.as_str())
            })
            .collect();
        let expected: Vec<(Window, &str)> = injected.iter().map(|&(_, w, f)| (w, f)).collect();
        assert_eq!(failed, expected, "jobs={jobs}");
        // Every other cell — the failed cells' twins included — is
        // bit-exact against the fault-free sweep.
        let mut healthy = study.cells.iter();
        for (i, r) in reference.cells.iter().enumerate() {
            if injected.iter().any(|&(j, _, _)| j == i as u64) {
                continue;
            }
            let c = healthy.next().expect("healthy cell missing");
            assert_eq!(c.report, r.report, "jobs={jobs}: cell {i} perturbed");
        }
        assert!(healthy.next().is_none());
    }
    std::panic::set_hook(hook);
}
