//! `smt_exp` — the policy-comparison CLI.
//!
//! ```text
//! smt_exp --fetch icount --partition 2.8 --threads 8 --cycles 20000
//! smt_exp --fetch all --partition all            # the full Section-4 matrix
//! smt_exp --study issue --json out.json          # the Section-5 issue study
//! ```

use std::process::ExitCode;

use smt_experiments::ablation::{run_ablation_study, Window};
use smt_experiments::fault::Degradation;
use smt_experiments::study::{run_study, FailedStudyCell};
use smt_experiments::{matrix_to_json, parse_cli, run_matrix, Command, USAGE};
use smt_stats::json::Json;

/// Finishes a sweep: prints its fault/degradation summary, writes the
/// `--json` document, and picks the exit code — nonzero when any cell
/// failed (partial results are still printed and written, but the run must
/// not look clean).
fn finish(
    journal_loaded: usize,
    degraded: &[Degradation],
    failed: impl Iterator<Item = String>,
    json: Option<(&str, Json)>,
) -> Result<ExitCode, String> {
    if journal_loaded > 0 {
        println!("journal: resumed {journal_loaded} completed cell(s)");
    }
    for d in degraded {
        eprintln!("degraded: {d}");
    }
    let failed: Vec<String> = failed.collect();
    if !failed.is_empty() {
        eprintln!("{} cell(s) FAILED:", failed.len());
        for line in &failed {
            eprintln!("  {line}");
        }
    }
    if let Some((path, doc)) = json {
        std::fs::write(path, doc.render_pretty())
            .map_err(|e| format!("failed to write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `fetch/issue/partition/mix/sSEED: error`, a failure-list line.
fn issue_cell_failure(f: &FailedStudyCell) -> String {
    format!(
        "{}/{}/{}/{}/s{}: {}",
        f.fetch, f.issue, f.partition, f.mix, f.seed, f.error
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_cli(&args).and_then(run) {
        Ok(code) => code,
        Err(msg) if msg == USAGE => {
            println!("{msg}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one parsed command; an `Err` is a whole-command failure message.
fn run(cmd: Command) -> Result<ExitCode, String> {
    match cmd {
        Command::Matrix(cfg) => {
            println!(
                "SMT fetch/issue policy comparison — {} threads, {} cycles (+{} warmup), \
                 seed {} ({} issue)",
                cfg.threads, cfg.cycles, cfg.warmup, cfg.seed, cfg.issue_policy
            );
            println!();
            let matrix = run_matrix(&cfg)?;
            println!("total IPC (committed instructions per cycle):");
            println!("{}", matrix.table);
            if cfg.verbose {
                for report in &matrix.reports {
                    println!("{report}");
                    println!();
                }
            }
            finish(
                matrix.journal_loaded,
                &matrix.degraded,
                matrix.failed.iter().map(issue_cell_failure),
                cfg.json
                    .as_deref()
                    .map(|path| (path, matrix_to_json(&cfg, &matrix))),
            )
        }
        Command::Study { cfg, json } => {
            println!(
                "Section-5 issue-policy study — {} cells ({} issue × {} fetch × {} partition \
                 × {} mix × {} seed), {} cycles each (+{} warmup)",
                cfg.cell_count(),
                cfg.issue_policies.len(),
                cfg.fetch_policies.len(),
                cfg.partitions.len(),
                cfg.mixes.len(),
                cfg.seeds.len(),
                cfg.cycles,
                cfg.warmup,
            );
            println!();
            let study = run_study(&cfg)?;
            println!("total IPC by issue policy:");
            println!("{}", study.summary_table());
            for (name, ipc) in study.mean_ipc_by_issue() {
                println!("  {name:<13} mean {ipc:.3} IPC");
            }
            println!(
                "issue-policy IPC spread {:.3} vs fetch-policy IPC spread {:.3}",
                study.issue_ipc_spread(),
                study.fetch_ipc_spread()
            );
            finish(
                study.journal_loaded,
                &study.degraded,
                study.failed.iter().map(issue_cell_failure),
                json.as_deref().map(|path| (path, study.to_json())),
            )
        }
        Command::Ablation { cfg, json } => {
            println!(
                "Mechanism-ablation study — {} cells ((1 baseline + {} ablations) × {} fetch \
                 × {} partition × {} mix × {} seed × cold/warm), {} cycles each \
                 (warm window behind {} warmup)",
                cfg.cell_count(),
                cfg.ablations.len(),
                cfg.fetch_policies.len(),
                cfg.partitions.len(),
                cfg.mixes.len(),
                cfg.seeds.len(),
                cfg.cycles,
                cfg.warmup,
            );
            println!();
            let study = run_ablation_study(&cfg)?;
            println!("mean IPC by ablation and window:");
            println!("{}", study.summary_table());
            if let Some(pct) = study.wrong_path_claim() {
                println!(
                    "wrong-path bank-arbitration cost (standard mix, warm): {pct:+.3}% IPC \
                     (paper claims ~2%)"
                );
            }
            for (label, ablation, window) in [
                ("cold gap, baseline", None, Window::Cold),
                (
                    "cold gap, perfect_icache",
                    Some("perfect_icache"),
                    Window::Cold,
                ),
                ("warm gap, baseline", None, Window::Warm),
                (
                    "warm gap, infinite_frontend_queues",
                    Some("infinite_frontend_queues"),
                    Window::Warm,
                ),
            ] {
                if let Some(gap) = study.gap("ICOUNT", "RR", ablation, window) {
                    println!("ICOUNT-vs-RR {label}: {gap:+.3} IPC");
                }
            }
            finish(
                study.journal_loaded,
                &study.degraded,
                study.failed.iter().map(|f| {
                    format!(
                        "{}/{}/{}/{}/{}/s{}: {}",
                        f.ablation.as_deref().unwrap_or("baseline"),
                        f.fetch,
                        f.window,
                        f.partition,
                        f.mix,
                        f.seed,
                        f.error
                    )
                }),
                json.as_deref().map(|path| (path, study.to_json())),
            )
        }
    }
}
