//! A push-style facade over [`work_steal_map`]: N independent simulations
//! in one process, reports back in push order.
//!
//! The experiments the paper's methodology demands are *sweeps* — many
//! independent configurations of the same engine. [`SimFleet`] collects
//! such cells and runs each one whole on the work-stealing pool every
//! sweep uses: a cold cell is `config.build().run(cycles)`, a forked cell
//! is [`Simulator::fork_checkpoint`] then `run(cycles)`, so one warmed
//! checkpoint (shared via `Arc`) can seed many measured cells.
//!
//! Cells share no state and each runs exactly its sequential cycle
//! sequence, so every [`SimReport`] is byte-identical to the sequential
//! run's whatever the worker count; the root `tests/fleet.rs` suite pins
//! this against freshly-run sequential simulators, the sweeps'
//! `fork_cell` and the checked-in goldens.
//!
//! # Examples
//!
//! ```
//! use smt_core::{FleetCell, SimConfig, SimFleet};
//! use smt_workload::Benchmark;
//!
//! let cell = |seed| {
//!     let cfg = SimConfig::new()
//!         .with_benchmarks(vec![Benchmark::Espresso, Benchmark::Alvinn], seed)
//!         .with_warmup(100);
//!     FleetCell::cold(cfg, 300)
//! };
//! let mut fleet = SimFleet::new().with_jobs(2);
//! fleet.push(cell(42));
//! fleet.push(cell(7));
//! let reports = fleet.run();
//! assert_eq!(reports.len(), 2);
//! assert!(reports.iter().all(|r| r.total_committed() > 0));
//! ```

use std::sync::{Arc, Mutex};

use smt_stats::sched::work_steal_map;

use crate::config::SimConfig;
use crate::pipeline::Simulator;
use crate::report::SimReport;

/// One cell of a fleet: a configuration, how many measured cycles to run,
/// and optionally a warmed checkpoint to fork from.
#[derive(Debug)]
pub struct FleetCell {
    config: SimConfig,
    checkpoint: Option<Arc<Vec<u8>>>,
    cycles: u64,
}

impl FleetCell {
    /// A cell that builds its simulator cold and runs exactly like
    /// `config.build().run(cycles)`, configured warmup window included.
    pub fn cold(config: SimConfig, cycles: u64) -> FleetCell {
        FleetCell {
            config,
            checkpoint: None,
            cycles,
        }
    }

    /// A cell that forks from a warmed checkpoint
    /// ([`Simulator::fork_checkpoint`]) and runs `cycles` — the exact
    /// sequence the experiment sweeps use to fork a warm cell, so one
    /// checkpoint (shared via `Arc`) can seed every cell of its
    /// (mix, seed, partition) key.
    pub fn forked(config: SimConfig, checkpoint: Arc<Vec<u8>>, cycles: u64) -> FleetCell {
        FleetCell {
            config,
            checkpoint: Some(checkpoint),
            cycles,
        }
    }
}

/// A batch of independent simulations run in one process.
/// [`SimFleet::run`] returns one [`SimReport`] per cell, in push order,
/// each byte-identical to its sequential equivalent.
#[derive(Debug, Default)]
pub struct SimFleet {
    cells: Vec<FleetCell>,
    jobs: usize,
}

impl SimFleet {
    /// An empty fleet with the default worker count (one per available
    /// core).
    pub fn new() -> SimFleet {
        SimFleet::default()
    }

    /// Sets the worker thread count; `0` (the default) uses one worker per
    /// available core. The pool never exceeds the cell count.
    pub fn with_jobs(mut self, jobs: usize) -> SimFleet {
        self.jobs = jobs;
        self
    }

    /// Appends one cell; [`run`](SimFleet::run) reports in push order.
    pub fn push(&mut self, cell: FleetCell) {
        self.cells.push(cell);
    }

    /// Runs every cell to completion on [`work_steal_map`]'s pool and
    /// returns the reports in push order.
    ///
    /// # Panics
    ///
    /// Panics if a [`FleetCell::forked`] checkpoint does not match its
    /// cell's machine — fleets are built from checkpoints written for the
    /// same key, so a mismatch is a caller bug, not an input error.
    pub fn run(self) -> Vec<SimReport> {
        // A `SimConfig` is `Send` but not `Sync` (boxed policies) and
        // building consumes it, so each cell is handed to the worker that
        // draws its index.
        let count = self.cells.len();
        let cells = Mutex::new(self.cells.into_iter().map(Some).collect::<Vec<_>>());
        work_steal_map(count, self.jobs, |i| {
            let cell = cells.lock().expect("no panics under the lock")[i]
                .take()
                .expect("each index is drawn once");
            let mut sim = match cell.checkpoint {
                None => cell.config.build(),
                Some(checkpoint) => Simulator::fork_checkpoint(cell.config, &checkpoint)
                    .expect("fleet checkpoints share the cell's machine fingerprint"),
            };
            sim.run(cell.cycles)
        })
    }
}
