//! Simulation results: per-thread and machine-wide metrics.
//!
//! [`SimReport`] is what [`Simulator::run`](crate::Simulator::run) returns:
//! IPC per thread and in total, the fetch slot-loss breakdown that the
//! paper's Section 4 figures are built from, branch-prediction and memory
//! statistics, all rendered through `smt-stats` so experiment binaries can
//! print paper-style tables.

use std::fmt;
use std::io::{self, Read, Write};

use smt_branch::PredictorStats;
use smt_mem::MemStats;
use smt_stats::binio::{invalid, BinReader, BinWriter};
use smt_stats::json::Json;
use smt_stats::{counters, persist, Counters, Persist, Ratio, TextTable};

use crate::policy::FetchPartition;

/// Results for one hardware context.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThreadReport {
    /// Context index.
    pub thread: usize,
    /// Benchmark the context ran.
    pub benchmark: String,
    /// Correct-path instructions committed.
    pub committed: u64,
    /// Per-thread IPC over the simulated window.
    pub ipc: f64,
}

counters! {
    /// Where fetch bandwidth went: slots used, plus the loss breakdown the
    /// paper charts. All fields are in fetch slots; whenever the partition's
    /// `T × I` covers the 8-wide fetch bandwidth (true of all four paper
    /// schemes), `fetched + wrong_path + Σ lost_* == 8 × cycles` exactly.
    ///
    /// The field names are the keys of the report's JSON `fetch` object.
    pub struct FetchBreakdown {
        /// Correct-path instructions fetched.
        pub fetched: u64,
        /// Wrong-path instructions fetched (lost bandwidth discovered later).
        pub wrong_path: u64,
        /// Slots lost because a selected thread's fetch block missed in the
        /// I-cache (or the thread was already waiting on an I-miss).
        pub lost_icache: u64,
        /// Slots lost to I-cache bank/port conflicts between threads.
        pub lost_bank_conflict: u64,
        /// Slots lost because the fetch block ended early (taken branch or
        /// cache-line boundary fragmentation).
        pub lost_fragmentation: u64,
        /// Slots lost because the thread's front-end/queues were full (IQ-full
        /// and register-exhaustion back-pressure).
        pub lost_frontend_full: u64,
        /// Slots lost because fewer than `T` threads were fetchable.
        pub lost_no_thread: u64,
        /// Misfetches: predicted-taken control without a target; fetch stalled
        /// until decode produced one.
        pub misfetches: u64,
        /// Fetch opportunities a *wrong-path* thread lost to I-cache bank/port
        /// contention: wrong-path fetch streams compete for the same banks as
        /// correct-path work, and this counts how often they were turned away
        /// (toward quantifying the paper's ~2% wrong-path overhead claim).
        pub wrong_path_fetch_conflicts: u64,
    }
}

counters! {
    /// Issue-side counters. The field names are the keys of the report's
    /// JSON `issue` object.
    pub struct IssueBreakdown {
        /// Correct-path instructions issued.
        pub issued: u64,
        /// Wrong-path instructions issued (the paper's wasted issue slots).
        pub wrong_path: u64,
        /// Issue attempts bounced by D-cache bank/port conflicts.
        pub bank_conflicts: u64,
    }
}

/// Complete results of one simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimReport {
    /// Cycles in the measurement window (excludes any warmup).
    pub cycles: u64,
    /// Cycles simulated before the measurement window opened (warmup plus
    /// any earlier measured runs discarded by
    /// [`reset_stats`](crate::Simulator::reset_stats)); `0` for a
    /// cold-start measurement.
    pub warmup_cycles: u64,
    /// Whether this simulator's warmed state was restored from a
    /// checkpoint ([`Simulator::restore_checkpoint`]) rather than
    /// simulated in-process — provenance only, set by the experiment
    /// layer via [`Simulator::mark_restored_from_checkpoint`]; a restored
    /// run's numbers are bit-identical to a straight-through run's.
    ///
    /// [`Simulator::restore_checkpoint`]: crate::Simulator::restore_checkpoint
    /// [`Simulator::mark_restored_from_checkpoint`]: crate::Simulator::mark_restored_from_checkpoint
    pub restored_from_checkpoint: bool,
    /// Fetch policy name (e.g. `"ICOUNT"`).
    pub fetch_policy: String,
    /// Issue policy name (e.g. `"OLDEST_FIRST"`).
    pub issue_policy: String,
    /// Active mechanism ablations, by canonical name (see
    /// `smt_core::Ablation::name`); empty for the baseline machine.
    pub ablations: Vec<String>,
    /// Fetch partition used.
    pub partition: FetchPartition,
    /// Per-thread results.
    pub threads: Vec<ThreadReport>,
    /// Fetch bandwidth accounting.
    pub fetch: FetchBreakdown,
    /// Issue accounting.
    pub issue: IssueBreakdown,
    /// Conditional-branch direction prediction accuracy.
    pub cond_prediction: Ratio,
    /// Prediction-unit activity (BTB/RAS counters).
    pub pred: PredictorStats,
    /// Mispredictions that triggered a squash (any control kind).
    pub squashes: u64,
    /// Instructions flushed by squashes.
    pub squashed_insts: u64,
    /// Memory system statistics.
    pub mem: MemStats,
}

// The lossless binary form ([`SimReport::write_bin`]), in stream order.
persist! {
    SimReport {
        cycles, warmup_cycles, restored_from_checkpoint, fetch_policy, issue_policy, ablations,
        partition, threads, fetch, issue, cond_prediction, pred, squashes, squashed_insts, mem,
    }
}
persist! { ThreadReport { thread, benchmark, committed, ipc } }
persist! { FetchPartition { threads_per_cycle, insts_per_thread } check valid_partition }

fn valid_partition(p: &FetchPartition) -> io::Result<()> {
    if p.threads_per_cycle == 0 || p.insts_per_thread == 0 {
        return Err(invalid(format!(
            "invalid fetch partition {}.{}",
            p.threads_per_cycle, p.insts_per_thread
        )));
    }
    Ok(())
}

impl SimReport {
    /// The scheme label, e.g. `"ICOUNT.2.8"`.
    pub fn scheme(&self) -> String {
        format!("{}.{}", self.fetch_policy, self.partition)
    }

    /// Total correct-path instructions committed across all threads.
    pub fn total_committed(&self) -> u64 {
        self.threads.iter().map(|t| t.committed).sum()
    }

    /// Machine throughput: committed instructions per cycle.
    pub fn total_ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_committed() as f64 / self.cycles as f64
        }
    }

    /// Fraction of fetched instructions that were wrong-path.
    pub fn wrong_path_fetch_fraction(&self) -> f64 {
        let total = self.fetch.fetched + self.fetch.wrong_path;
        if total == 0 {
            0.0
        } else {
            self.fetch.wrong_path as f64 / total as f64
        }
    }

    /// Concatenates two adjacent measurement windows of **one** machine:
    /// `self` covers cycles `w .. w + a`, `next` covers `w + a .. w + a + b`,
    /// and the result is the report a single `w .. w + a + b` window would
    /// have produced — byte for byte in [`to_json`](SimReport::to_json) and
    /// [`write_bin`](SimReport::write_bin) (pinned by `tests/concat.rs`).
    ///
    /// Every counter is additive, so the merge is a field-wise sum (each
    /// table's generated [`Counters::merge`]); the per-thread `ipc` is
    /// recomputed from the summed integers exactly as
    /// [`Simulator::report`](crate::Simulator::report) computes it. The
    /// result keeps `self`'s `warmup_cycles` and
    /// `restored_from_checkpoint`: both describe how the machine reached
    /// the window's *start*. The sweep engine in `smt-experiments` uses
    /// this to emit a cold `0 .. cycles` cell from the two halves either
    /// side of the warm cell's checkpoint.
    ///
    /// Both reports are destructured exhaustively, so a new `SimReport`
    /// field does not compile until it says how it merges; a new counter
    /// inside one of the tables merges by being declared.
    ///
    /// # Errors
    ///
    /// Returns a [`ConcatError`] when the two reports are not windows of
    /// the same machine (policy, partition or ablation labels differ, or
    /// the thread lists do) or `next` does not start on the cycle `self`
    /// ends on.
    pub fn concat(self, next: &SimReport) -> Result<SimReport, ConcatError> {
        let SimReport {
            cycles,
            warmup_cycles,
            restored_from_checkpoint,
            fetch_policy,
            issue_policy,
            ablations,
            partition,
            mut threads,
            mut fetch,
            mut issue,
            mut cond_prediction,
            mut pred,
            mut squashes,
            mut squashed_insts,
            mut mem,
        } = self;
        let SimReport {
            cycles: next_cycles,
            warmup_cycles: next_start,
            // Provenance of the second window's start: not the result's.
            restored_from_checkpoint: _,
            fetch_policy: next_fetch_policy,
            issue_policy: next_issue_policy,
            ablations: next_ablations,
            partition: next_partition,
            threads: next_threads,
            fetch: next_fetch,
            issue: next_issue,
            cond_prediction: next_cond,
            pred: next_pred,
            squashes: next_squashes,
            squashed_insts: next_squashed_insts,
            mem: next_mem,
        } = next;
        let labelled = |same: bool, field: &'static str| {
            if same {
                Ok(())
            } else {
                Err(ConcatError::Label(field))
            }
        };
        labelled(fetch_policy == *next_fetch_policy, "fetch_policy")?;
        labelled(issue_policy == *next_issue_policy, "issue_policy")?;
        labelled(ablations == *next_ablations, "ablations")?;
        labelled(partition == *next_partition, "partition")?;
        let end = warmup_cycles + cycles;
        if *next_start != end {
            return Err(ConcatError::NotAdjacent {
                first_end: end,
                second_start: *next_start,
            });
        }
        let cycles = cycles + next_cycles;
        labelled(threads.len() == next_threads.len(), "threads")?;
        for (t, n) in threads.iter_mut().zip(next_threads) {
            let ThreadReport {
                thread,
                benchmark,
                committed,
                ipc,
            } = t;
            labelled(*thread == n.thread && *benchmark == n.benchmark, "threads")?;
            *committed += n.committed;
            *ipc = if cycles == 0 {
                0.0
            } else {
                *committed as f64 / cycles as f64
            };
        }
        fetch.merge(next_fetch);
        issue.merge(next_issue);
        cond_prediction.merge(next_cond);
        pred.merge(next_pred);
        squashes += next_squashes;
        squashed_insts += next_squashed_insts;
        mem.merge(next_mem);
        Ok(SimReport {
            cycles,
            warmup_cycles,
            restored_from_checkpoint,
            fetch_policy,
            issue_policy,
            ablations,
            partition,
            threads,
            fetch,
            issue,
            cond_prediction,
            pred,
            squashes,
            squashed_insts,
            mem,
        })
    }

    /// The report as a JSON object (the `report` sub-object of the
    /// machine-readable schema emitted by `smt_exp --json`; see the
    /// `smt-experiments` crate docs for the full schema).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("scheme", Json::from(self.scheme())),
            ("fetch_policy", Json::from(self.fetch_policy.clone())),
            ("issue_policy", Json::from(self.issue_policy.clone())),
            ("partition", Json::from(self.partition.to_string())),
        ];
        // Emitted only when non-empty: baseline documents (and the
        // pre-ablation goldens) carry no `ablations` key at all.
        if !self.ablations.is_empty() {
            fields.push((
                "ablations",
                Json::array(self.ablations.iter().map(String::as_str)),
            ));
        }
        fields.push(("cycles", Json::from(self.cycles)));
        fields.push(("warmup_cycles", Json::from(self.warmup_cycles)));
        // Like `ablations`: emitted only when non-default, so documents
        // from in-process warmups (and the pre-checkpoint goldens) carry
        // no key at all.
        if self.restored_from_checkpoint {
            fields.push(("restored_from_checkpoint", Json::from(true)));
        }
        fields.extend([
            ("total_ipc", Json::from(self.total_ipc())),
            ("total_committed", Json::from(self.total_committed())),
            (
                "threads",
                Json::array(self.threads.iter().map(|t| {
                    Json::object([
                        ("thread", Json::from(t.thread)),
                        ("benchmark", Json::from(t.benchmark.clone())),
                        ("committed", Json::from(t.committed)),
                        ("ipc", Json::from(t.ipc)),
                    ])
                })),
            ),
            ("fetch", counters_json(&self.fetch)),
            ("issue", counters_json(&self.issue)),
            (
                "branch",
                Json::object([
                    ("cond_hit_pct", Json::from(self.cond_prediction.percent())),
                    ("cond_predictions", Json::from(self.cond_prediction.total)),
                    ("btb_hit_pct", Json::from(self.pred.btb_hit_rate() * 100.0)),
                    ("ras_underflows", Json::from(self.pred.ras_underflows)),
                    ("squashes", Json::from(self.squashes)),
                    ("squashed_insts", Json::from(self.squashed_insts)),
                ]),
            ),
            (
                "mem",
                Json::object([
                    ("icache_miss_pct", Json::from(self.mem.icache.miss_rate())),
                    ("dcache_miss_pct", Json::from(self.mem.dcache.miss_rate())),
                    ("l2_miss_pct", Json::from(self.mem.l2.miss_rate())),
                    ("l3_miss_pct", Json::from(self.mem.l3.miss_rate())),
                    ("writebacks", Json::from(self.mem.writebacks)),
                    ("bank_conflicts", Json::from(self.mem.bank_conflicts)),
                    ("mshr_merges", Json::from(self.mem.mshr_merges)),
                ]),
            ),
        ]);
        Json::object(fields)
    }

    /// Serializes every field of the report into `w`, losslessly.
    ///
    /// [`to_json`](SimReport::to_json) is a *rendering* — it emits derived
    /// percentages and drops the raw counters behind them — so JSON cannot
    /// round-trip a report. This binary form exists for consumers that
    /// must reproduce a report bit-for-bit later, most importantly the
    /// sweep journal in `smt-experiments`: a journaled cell re-rendered to
    /// JSON must be byte-identical to the original run's rendering, which
    /// requires the exact counters (and exact `f64` bits, stored via
    /// [`f64::to_bits`]).
    ///
    /// The caller owns the framing: write any header before, and call
    /// [`BinWriter::finish`] after, so the checksum covers header and
    /// report together.
    pub fn write_bin<W: Write>(&self, w: &mut BinWriter<W>) -> io::Result<()> {
        w.erased(|w| self.save(w))
    }

    /// Reads a report written by [`write_bin`](SimReport::write_bin).
    ///
    /// The stream is untrusted: strings are capped and must be UTF-8,
    /// lists are read element by element, and the partition components
    /// must be non-zero, so corrupt or truncated input surfaces as a typed
    /// [`io::Error`] ([`io::ErrorKind::InvalidData`] /
    /// [`io::ErrorKind::UnexpectedEof`]) rather than a panic or an absurd
    /// allocation. The caller verifies the checksum via
    /// [`BinReader::finish`] after reading its framing.
    pub fn read_bin<R: Read>(r: &mut BinReader<R>) -> io::Result<SimReport> {
        r.erased(|r| SimReport::decode(r))
    }

    /// Per-thread results as a text table.
    pub fn thread_table(&self) -> TextTable {
        let mut t = TextTable::new();
        t.header(vec![
            "thread".into(),
            "benchmark".into(),
            "committed".into(),
            "ipc".into(),
        ]);
        for tr in &self.threads {
            t.row(vec![
                format!("t{}", tr.thread),
                tr.benchmark.clone(),
                tr.committed.to_string(),
                format!("{:.2}", tr.ipc),
            ]);
        }
        t
    }
}

/// Why [`SimReport::concat`] refused two reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConcatError {
    /// The named label field differs: the reports are not two windows of
    /// one machine.
    Label(&'static str),
    /// The second window does not start on the cycle the first ends on.
    NotAdjacent {
        /// Cycle the first window ends on (`warmup_cycles + cycles`).
        first_end: u64,
        /// Cycle the second window starts on (its `warmup_cycles`).
        second_start: u64,
    },
}

impl fmt::Display for ConcatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConcatError::Label(field) => {
                write!(f, "reports differ in `{field}`: not one machine's windows")
            }
            ConcatError::NotAdjacent {
                first_end,
                second_start,
            } => write!(
                f,
                "windows are not adjacent: the first ends on cycle {first_end}, \
                 the second starts on cycle {second_start}"
            ),
        }
    }
}

impl std::error::Error for ConcatError {}

/// A flat counter table as a JSON object: one key per field, named and
/// ordered as declared.
fn counters_json(table: &impl Counters) -> Json {
    let mut fields = Vec::new();
    table.walk("", &mut |name, value| {
        fields.push((name.to_string(), Json::from(value)))
    });
    Json::Object(fields)
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} ({} issue){}, {} threads, {} cycles{}: {:.2} IPC",
            self.scheme(),
            self.issue_policy,
            if self.ablations.is_empty() {
                String::new()
            } else {
                format!(" [ablations: {}]", self.ablations.join(","))
            },
            self.threads.len(),
            self.cycles,
            if self.warmup_cycles > 0 {
                format!(" (+{} warmup)", self.warmup_cycles)
            } else {
                String::new()
            },
            self.total_ipc()
        )?;
        writeln!(f, "{}", self.thread_table())?;
        writeln!(
            f,
            "fetch: {} useful, {} wrong-path ({:.1}%), lost: icache {}, bank {}, frag {}, \
             queue-full {}, no-thread {}, misfetches {}, wrong-path bank bounces {}",
            self.fetch.fetched,
            self.fetch.wrong_path,
            self.wrong_path_fetch_fraction() * 100.0,
            self.fetch.lost_icache,
            self.fetch.lost_bank_conflict,
            self.fetch.lost_fragmentation,
            self.fetch.lost_frontend_full,
            self.fetch.lost_no_thread,
            self.fetch.misfetches,
            self.fetch.wrong_path_fetch_conflicts,
        )?;
        writeln!(
            f,
            "issue: {} useful, {} wrong-path, {} D-bank bounces; cond-branch pred {}; \
             {} squashes ({} insts)",
            self.issue.issued,
            self.issue.wrong_path,
            self.issue.bank_conflicts,
            self.cond_prediction,
            self.squashes,
            self.squashed_insts,
        )?;
        write!(
            f,
            "memory: I$ {:.1}% miss, D$ {:.1}% miss, L2 {:.1}% miss, L3 {:.1}% miss",
            self.mem.icache.miss_rate(),
            self.mem.dcache.miss_rate(),
            self.mem.l2.miss_rate(),
            self.mem.l3.miss_rate(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_mem::LevelStats;

    fn report() -> SimReport {
        SimReport {
            cycles: 1000,
            warmup_cycles: 0,
            restored_from_checkpoint: false,
            fetch_policy: "ICOUNT".into(),
            issue_policy: "OLDEST_FIRST".into(),
            ablations: Vec::new(),
            partition: FetchPartition::new(2, 8),
            threads: vec![
                ThreadReport {
                    thread: 0,
                    benchmark: "espresso".into(),
                    committed: 3000,
                    ipc: 3.0,
                },
                ThreadReport {
                    thread: 1,
                    benchmark: "tomcatv".into(),
                    committed: 2000,
                    ipc: 2.0,
                },
            ],
            fetch: FetchBreakdown {
                fetched: 6000,
                wrong_path: 600,
                ..Default::default()
            },
            issue: IssueBreakdown {
                issued: 5200,
                wrong_path: 300,
                bank_conflicts: 10,
            },
            cond_prediction: Ratio {
                hits: 900,
                total: 1000,
            },
            pred: PredictorStats::default(),
            squashes: 100,
            squashed_insts: 700,
            mem: MemStats::default(),
        }
    }

    #[test]
    fn totals_and_scheme_label() {
        let r = report();
        assert_eq!(r.total_committed(), 5000);
        assert_eq!(r.total_ipc(), 5.0);
        assert_eq!(r.scheme(), "ICOUNT.2.8");
        assert!((r.wrong_path_fetch_fraction() - 600.0 / 6600.0).abs() < 1e-12);
    }

    #[test]
    fn json_round_trips_with_key_fields() {
        let doc = report().to_json();
        let text = doc.render();
        let back = Json::parse(&text).expect("report JSON must parse");
        assert_eq!(
            back.get("scheme").and_then(Json::as_str),
            Some("ICOUNT.2.8")
        );
        assert_eq!(back.get("total_ipc").and_then(Json::as_f64), Some(5.0));
        assert_eq!(
            back.get("threads").and_then(Json::as_array).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(
            back.get("fetch")
                .and_then(|f| f.get("fetched"))
                .and_then(Json::as_u64),
            Some(6000)
        );
    }

    #[test]
    fn ablations_field_emitted_only_when_active() {
        let mut r = report();
        assert!(
            !r.to_json().render().contains("ablations"),
            "baseline reports must not carry an ablations key"
        );
        r.ablations = vec!["perfect_icache".into()];
        let back = Json::parse(&r.to_json().render()).unwrap();
        let names = back.get("ablations").and_then(Json::as_array).unwrap();
        assert_eq!(names.len(), 1);
        assert_eq!(names[0].as_str(), Some("perfect_icache"));
        assert!(r.to_string().contains("[ablations: perfect_icache]"));
    }

    #[test]
    fn restored_flag_emitted_only_when_set() {
        let mut r = report();
        assert!(
            !r.to_json().render().contains("restored_from_checkpoint"),
            "in-process warmups must not carry a restored_from_checkpoint key"
        );
        r.restored_from_checkpoint = true;
        let back = Json::parse(&r.to_json().render()).unwrap();
        assert_eq!(
            back.get("restored_from_checkpoint").and_then(Json::as_bool),
            Some(true)
        );
    }

    /// A report exercising every field with non-default, "awkward"
    /// values: odd f64 bit patterns, ablations, the restored flag,
    /// non-empty predictor and memory counters.
    fn busy_report() -> SimReport {
        let mut r = report();
        r.warmup_cycles = 123_456;
        r.restored_from_checkpoint = true;
        r.ablations = vec!["perfect_icache".into(), "no_ras".into()];
        r.threads[0].ipc = 0.1 + 0.2; // not exactly 0.3 in binary
        r.fetch.lost_icache = 17;
        r.fetch.misfetches = u64::MAX;
        r.pred = PredictorStats {
            predictions: 1,
            btb_lookups: 2,
            btb_hits: 3,
            ras_predictions: 4,
            ras_underflows: 5,
        };
        r.mem.dcache = LevelStats {
            accesses: 1000,
            misses: 37,
        };
        r.mem.mshr_merges = 99;
        r
    }

    fn to_bytes(r: &SimReport) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = BinWriter::new(&mut buf);
        r.write_bin(&mut w).unwrap();
        w.finish().unwrap();
        buf
    }

    fn from_bytes(bytes: &[u8]) -> io::Result<SimReport> {
        let mut r = BinReader::new(bytes);
        let report = SimReport::read_bin(&mut r)?;
        r.finish()?;
        Ok(report)
    }

    #[test]
    fn binary_round_trip_is_lossless() {
        for r in [report(), busy_report()] {
            let back = from_bytes(&to_bytes(&r)).unwrap();
            assert_eq!(back, r);
            // The property the journal depends on: a round-tripped report
            // renders to byte-identical JSON.
            assert_eq!(back.to_json().render(), r.to_json().render());
            // PartialEq on f64 would accept -0.0 == 0.0; pin exact bits.
            for (a, b) in back.threads.iter().zip(&r.threads) {
                assert_eq!(a.ipc.to_bits(), b.ipc.to_bits());
            }
        }
    }

    #[test]
    fn binary_truncation_and_corruption_are_typed_errors() {
        let bytes = to_bytes(&busy_report());
        for cut in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
            let err = from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData
                ),
                "cut at {cut}: unexpected kind {:?}",
                err.kind()
            );
        }
        for pos in (0..bytes.len()).step_by(11) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x20;
            // Every flip must either fail the checksum or surface as
            // typed invalid data earlier — never panic, never pass both
            // the parse and the checksum.
            assert!(from_bytes(&bad).is_err(), "flip at {pos} undetected");
        }
    }

    #[test]
    fn binary_rejects_zero_partition_components() {
        let mut buf = Vec::new();
        let mut w = BinWriter::new(&mut buf);
        let r = report();
        w.u64(r.cycles).unwrap();
        w.u64(r.warmup_cycles).unwrap();
        w.bool(false).unwrap();
        for s in ["ICOUNT", "OLDEST_FIRST"] {
            w.len(s.len()).unwrap();
            w.bytes(s.as_bytes()).unwrap();
        }
        w.len(0).unwrap(); // ablations
        w.u8(0).unwrap(); // zero threads_per_cycle: must not panic
        w.u8(8).unwrap();
        w.finish().unwrap();
        let err = from_bytes(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn concat_sums_counters_and_recomputes_ipc() {
        let first = busy_report();
        let mut second = busy_report();
        second.warmup_cycles = first.warmup_cycles + first.cycles;
        second.cycles = 500;
        second.restored_from_checkpoint = false;
        second.fetch.misfetches = 0; // the first window's is u64::MAX
        let joined = first.clone().concat(&second).unwrap();
        assert_eq!(joined.cycles, 1_500);
        assert_eq!(joined.warmup_cycles, first.warmup_cycles);
        assert!(joined.restored_from_checkpoint, "provenance is the start's");
        assert_eq!(joined.threads[0].committed, 6_000);
        assert_eq!(joined.threads[0].ipc, 4.0);
        assert_eq!(joined.fetch.lost_icache, 34);
        assert_eq!(joined.cond_prediction.total, 2_000);
        assert_eq!(joined.pred.ras_underflows, 10);
        assert_eq!(joined.mem.dcache.misses, 74);
        assert_eq!(joined.mem.mshr_merges, 198);
        assert_eq!(joined.squashed_insts, 1_400);
    }

    #[test]
    fn concat_rejects_foreign_and_non_adjacent_windows() {
        let first = report();
        let adjacent = || {
            let mut r = report();
            r.warmup_cycles = first.cycles;
            r
        };
        assert!(first.clone().concat(&adjacent()).is_ok());
        let gap = first.clone().concat(&report()).unwrap_err();
        assert_eq!(
            gap,
            ConcatError::NotAdjacent {
                first_end: 1000,
                second_start: 0
            }
        );
        assert!(gap.to_string().contains("not adjacent"));
        type Relabel = fn(&mut SimReport);
        let cases: [(&str, Relabel); 6] = [
            ("fetch_policy", |r| r.fetch_policy = "RR".into()),
            ("issue_policy", |r| r.issue_policy = "SPEC_LAST".into()),
            ("ablations", |r| r.ablations.push("perfect_icache".into())),
            ("partition", |r| r.partition = FetchPartition::new(1, 8)),
            ("threads", |r| r.threads[1].benchmark = "doduc".into()),
            ("threads", |r| {
                r.threads.pop();
            }),
        ];
        for (field, relabel) in cases {
            let mut foreign = adjacent();
            relabel(&mut foreign);
            assert_eq!(
                first.clone().concat(&foreign),
                Err(ConcatError::Label(field))
            );
        }
    }

    #[test]
    fn display_mentions_key_numbers() {
        let s = report().to_string();
        assert!(s.contains("ICOUNT.2.8"));
        assert!(s.contains("5.00 IPC"));
        assert!(s.contains("espresso"));
        assert!(s.contains("misfetches"));
    }
}
