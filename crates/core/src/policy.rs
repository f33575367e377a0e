//! Pluggable fetch and issue policies — the paper's "choice".
//!
//! The simulator consults a [`FetchPolicy`] every cycle to rank hardware
//! contexts for fetch, and an [`IssuePolicy`] to order ready instructions
//! for issue. Both are plain trait objects: adding a policy means
//! implementing one trait and handing it to
//! [`SimConfig`](crate::SimConfig) — no simulator internals are involved.
//!
//! A policy is consulted one way: the pipeline calls `priority` once per
//! fetchable thread and once per ready instruction, and sorts on the keys.
//! The one optional hook, [`IssuePolicy::age_is_priority`], only lets a
//! pure-age issue policy skip that ranking; it never changes the order.
//!
//! The shipped fetch policies are the paper's Section 4 heuristics
//! ([`RoundRobin`], [`ICount`], [`BrCount`], [`MissCount`]); the shipped
//! issue policies are the Section 5 heuristics ([`OldestFirst`],
//! [`OptLast`], [`SpecLast`], [`BranchFirst`]).

use std::fmt;

use smt_isa::{RegClass, ThreadId};

/// A fetch partitioning scheme `T.I`: up to `threads_per_cycle` threads
/// fetch per cycle, up to `insts_per_thread` instructions each, subject to
/// the global 8-instruction fetch bandwidth (the paper's `alg.2.8` etc.).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FetchPartition {
    /// Number of threads that may fetch in one cycle (`T`).
    pub threads_per_cycle: u8,
    /// Maximum instructions fetched from each of those threads (`I`).
    pub insts_per_thread: u8,
}

/// The paper's headline partition, `2.8` ([`SimConfig::new`]'s).
///
/// [`SimConfig::new`]: crate::SimConfig::new
impl Default for FetchPartition {
    fn default() -> FetchPartition {
        FetchPartition::new(2, 8)
    }
}

impl FetchPartition {
    /// Total fetch bandwidth of the machine, in instructions per cycle.
    pub const TOTAL_WIDTH: u32 = 8;

    /// Creates a `T.I` partition.
    ///
    /// # Panics
    ///
    /// Panics if either component is zero.
    pub fn new(threads_per_cycle: u8, insts_per_thread: u8) -> FetchPartition {
        assert!(
            threads_per_cycle > 0 && insts_per_thread > 0,
            "partition components must be > 0"
        );
        FetchPartition {
            threads_per_cycle,
            insts_per_thread,
        }
    }

    /// Parses a `"T.I"` string such as `"2.8"`. Each component must be in
    /// `1..=`[`TOTAL_WIDTH`](FetchPartition::TOTAL_WIDTH): the fetch unit
    /// serves a wider request exactly like the clamped one, so accepting
    /// it would label one machine as two.
    pub fn parse(s: &str) -> Option<FetchPartition> {
        let (t, i) = s.split_once('.')?;
        let t: u8 = t.trim().parse().ok()?;
        let i: u8 = i.trim().parse().ok()?;
        let served = |n: u8| n > 0 && u32::from(n) <= FetchPartition::TOTAL_WIDTH;
        (served(t) && served(i)).then(|| FetchPartition::new(t, i))
    }

    /// The paper's four partitioning schemes, in ascending thread count.
    pub fn all_schemes() -> [FetchPartition; 4] {
        [
            FetchPartition::new(1, 8),
            FetchPartition::new(2, 4),
            FetchPartition::new(2, 8),
            FetchPartition::new(4, 2),
        ]
    }
}

impl fmt::Display for FetchPartition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.threads_per_cycle, self.insts_per_thread)
    }
}

/// Per-thread state visible to a [`FetchPolicy`] when ranking threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadFetchView {
    /// The hardware context being ranked.
    pub thread: ThreadId,
    /// Total number of hardware contexts in the machine.
    pub thread_count: u8,
    /// Instructions fetched but not yet issued (decode, rename and the
    /// instruction queues) — the ICOUNT counter.
    pub in_flight: u32,
    /// Conditional and indirect branches fetched but not yet resolved —
    /// the BRCOUNT counter.
    pub unresolved_branches: u32,
    /// Outstanding D-cache misses — the MISSCOUNT counter.
    pub outstanding_misses: u32,
}

/// Ranks hardware contexts for fetch each cycle.
///
/// Lower keys fetch first. The simulator computes a key for every thread
/// that *can* fetch this cycle (not blocked on an I-cache miss and with
/// front-end room), sorts ascending, and gives fetch slots to the first
/// `T` threads of the active [`FetchPartition`]. Ties are broken by a
/// rotating thread order so no context starves.
pub trait FetchPolicy: Send {
    /// Policy name as it appears in reports, e.g. `"ICOUNT"`.
    fn name(&self) -> &str;

    /// Priority key for one thread this cycle; lower fetches first.
    fn priority(&self, cycle: u64, view: &ThreadFetchView) -> i64;
}

/// The rotating thread order: at cycle `c`, thread `c mod n` ranks first,
/// the next thread second, and so on. [`RoundRobin`] uses this as its
/// entire ranking; the simulator uses it as the tie-break for every policy,
/// so no context starves under a constant-key policy.
pub fn rotating_rank(cycle: u64, thread: ThreadId, thread_count: u8) -> u64 {
    let n = u64::from(thread_count.max(1));
    (u64::from(thread.0) + n - cycle % n) % n
}

/// Fetch threads in strict rotation, ignoring all feedback (`RR`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundRobin;

impl FetchPolicy for RoundRobin {
    fn name(&self) -> &str {
        "RR"
    }

    fn priority(&self, cycle: u64, view: &ThreadFetchView) -> i64 {
        rotating_rank(cycle, view.thread, view.thread_count) as i64
    }
}

/// Favor threads with the fewest instructions in decode, rename and the
/// instruction queues (`ICOUNT`) — the paper's winning policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ICount;

impl FetchPolicy for ICount {
    fn name(&self) -> &str {
        "ICOUNT"
    }

    fn priority(&self, _cycle: u64, view: &ThreadFetchView) -> i64 {
        i64::from(view.in_flight)
    }
}

/// Favor threads with the fewest unresolved branches in flight (`BRCOUNT`),
/// biasing fetch away from likely wrong paths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrCount;

impl FetchPolicy for BrCount {
    fn name(&self) -> &str {
        "BRCOUNT"
    }

    fn priority(&self, _cycle: u64, view: &ThreadFetchView) -> i64 {
        i64::from(view.unresolved_branches)
    }
}

/// Favor threads with the fewest outstanding D-cache misses (`MISSCOUNT`),
/// biasing fetch away from threads about to clog the queues.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MissCount;

impl FetchPolicy for MissCount {
    fn name(&self) -> &str {
        "MISSCOUNT"
    }

    fn priority(&self, _cycle: u64, view: &ThreadFetchView) -> i64 {
        i64::from(view.outstanding_misses)
    }
}

/// Looks a shipped fetch policy up by (case-insensitive) name or alias.
pub fn fetch_policy_by_name(name: &str) -> Option<Box<dyn FetchPolicy>> {
    match name.to_ascii_lowercase().as_str() {
        "rr" | "roundrobin" | "round-robin" => Some(Box::new(RoundRobin)),
        "icount" => Some(Box::new(ICount)),
        "brcount" => Some(Box::new(BrCount)),
        "misscount" => Some(Box::new(MissCount)),
        _ => None,
    }
}

/// One ready instruction, as seen by an [`IssuePolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueCandidate {
    /// Global fetch order (smaller = older).
    pub age: u64,
    /// Owning hardware context.
    pub thread: ThreadId,
    /// The instruction queue this candidate waits in.
    pub queue: RegClass,
    /// Whether this is a control instruction.
    pub is_branch: bool,
    /// Whether an older branch of the same thread is still unresolved
    /// (the instruction is control-speculative).
    pub speculative: bool,
    /// Whether the instruction was woken by a load in the current or
    /// previous cycle (it issues on a load-hit assumption).
    pub optimistic: bool,
}

/// Orders ready instructions for issue each cycle. Lower keys issue first.
pub trait IssuePolicy: Send {
    /// Policy name as it appears in reports, e.g. `"OLDEST_FIRST"`.
    fn name(&self) -> &str;

    /// Priority key for one ready instruction; lower issues first.
    fn priority(&self, candidate: &IssueCandidate) -> i64;

    /// Whether this policy's key is exactly the candidate's age
    /// (`priority(c) == c.age as i64` for **every** possible candidate).
    ///
    /// The simulator keeps its ready set age-sorted, so a `true` here lets
    /// it skip building and ranking the candidates entirely and issue
    /// straight off the ready set — the shipped [`OldestFirst`] policy's
    /// fast path. It is the one ranking hint that measures: ranking
    /// OLDEST_FIRST through [`priority`](IssuePolicy::priority) instead
    /// made the benchmark's `hotloop_standard` and `hotloop_membound`
    /// 16% and 19% slower in median wall clock (10 interleaved pairs each,
    /// 2-CPU Xeon host). The result is identical by construction (ranking
    /// by age reproduces the ready set's order); policies whose key depends
    /// on anything besides age must keep the default `false`.
    fn age_is_priority(&self) -> bool {
        false
    }
}

/// Key offset used by the deferring issue policies: anything deferred still
/// issues in age order, but after every non-deferred candidate.
const DEFER: i64 = 1 << 42;

/// Issue strictly oldest-first (the paper's default and near-optimal choice).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OldestFirst;

impl IssuePolicy for OldestFirst {
    fn name(&self) -> &str {
        "OLDEST_FIRST"
    }

    fn priority(&self, c: &IssueCandidate) -> i64 {
        c.age as i64
    }

    fn age_is_priority(&self) -> bool {
        true
    }
}

/// Defer optimistically-woken instructions (`OPT_LAST`): candidates issued
/// on a load-hit assumption go behind all safe candidates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptLast;

impl IssuePolicy for OptLast {
    fn name(&self) -> &str {
        "OPT_LAST"
    }

    fn priority(&self, c: &IssueCandidate) -> i64 {
        c.age as i64 + if c.optimistic { DEFER } else { 0 }
    }
}

/// Defer control-speculative instructions (`SPEC_LAST`): candidates behind
/// an unresolved branch go after every non-speculative candidate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecLast;

impl IssuePolicy for SpecLast {
    fn name(&self) -> &str {
        "SPEC_LAST"
    }

    fn priority(&self, c: &IssueCandidate) -> i64 {
        c.age as i64 + if c.speculative { DEFER } else { 0 }
    }
}

/// Issue branches before everything else (`BRANCH_FIRST`), resolving
/// mispredictions as early as possible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchFirst;

impl IssuePolicy for BranchFirst {
    fn name(&self) -> &str {
        "BRANCH_FIRST"
    }

    fn priority(&self, c: &IssueCandidate) -> i64 {
        c.age as i64 + if c.is_branch { 0 } else { DEFER }
    }
}

/// Looks a shipped issue policy up by (case-insensitive) name or alias.
pub fn issue_policy_by_name(name: &str) -> Option<Box<dyn IssuePolicy>> {
    match name.to_ascii_lowercase().as_str() {
        "oldest" | "oldest_first" | "oldest-first" => Some(Box::new(OldestFirst)),
        "opt_last" | "opt-last" | "optlast" => Some(Box::new(OptLast)),
        "spec_last" | "spec-last" | "speclast" => Some(Box::new(SpecLast)),
        "branch_first" | "branch-first" | "branchfirst" => Some(Box::new(BranchFirst)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(thread: u8, in_flight: u32, branches: u32, misses: u32) -> ThreadFetchView {
        ThreadFetchView {
            thread: ThreadId(thread),
            thread_count: 8,
            in_flight,
            unresolved_branches: branches,
            outstanding_misses: misses,
        }
    }

    #[test]
    fn partition_parse_and_display() {
        let p = FetchPartition::parse("2.8").unwrap();
        assert_eq!(p, FetchPartition::new(2, 8));
        assert_eq!(p.to_string(), "2.8");
        assert_eq!(
            FetchPartition::parse("8.8"),
            Some(FetchPartition::new(8, 8))
        );
        for bad in ["0.8", "nope", "1.200", "16.1", "9.8", "255.255"] {
            assert!(FetchPartition::parse(bad).is_none(), "{bad} parsed");
        }
        assert_eq!(FetchPartition::all_schemes().len(), 4);
    }

    #[test]
    fn round_robin_rotates_priority() {
        let rr = RoundRobin;
        // At cycle 0, thread 0 leads; at cycle 1, thread 1 leads.
        assert!(rr.priority(0, &view(0, 0, 0, 0)) < rr.priority(0, &view(1, 0, 0, 0)));
        assert!(rr.priority(1, &view(1, 0, 0, 0)) < rr.priority(1, &view(0, 0, 0, 0)));
        // A full rotation returns to the start.
        assert_eq!(
            rr.priority(0, &view(3, 0, 0, 0)),
            rr.priority(8, &view(3, 0, 0, 0))
        );
    }

    #[test]
    fn feedback_policies_rank_by_their_counter() {
        assert!(ICount.priority(0, &view(0, 2, 9, 9)) < ICount.priority(0, &view(1, 5, 0, 0)));
        assert!(BrCount.priority(0, &view(0, 9, 1, 9)) < BrCount.priority(0, &view(1, 0, 3, 0)));
        assert!(
            MissCount.priority(0, &view(0, 9, 9, 0)) < MissCount.priority(0, &view(1, 0, 0, 2))
        );
    }

    #[test]
    fn issue_policies_defer_their_class() {
        let plain = IssueCandidate {
            age: 10,
            thread: ThreadId(0),
            queue: RegClass::Int,
            is_branch: false,
            speculative: false,
            optimistic: false,
        };
        let spec = IssueCandidate {
            age: 5,
            speculative: true,
            ..plain
        };
        let opt = IssueCandidate {
            age: 5,
            optimistic: true,
            ..plain
        };
        let branch = IssueCandidate {
            age: 20,
            is_branch: true,
            ..plain
        };

        assert!(OldestFirst.priority(&spec) < OldestFirst.priority(&plain));
        assert!(SpecLast.priority(&plain) < SpecLast.priority(&spec));
        assert!(OptLast.priority(&plain) < OptLast.priority(&opt));
        assert!(BranchFirst.priority(&branch) < BranchFirst.priority(&plain));
    }

    #[test]
    fn policy_lookup_by_name() {
        for name in ["rr", "icount", "brcount", "misscount"] {
            assert!(
                fetch_policy_by_name(name).is_some(),
                "missing fetch policy {name}"
            );
        }
        assert!(fetch_policy_by_name("ICOUNT").is_some());
        assert!(fetch_policy_by_name("unknown").is_none());
        for name in ["oldest", "opt_last", "spec_last", "branch_first"] {
            assert!(
                issue_policy_by_name(name).is_some(),
                "missing issue policy {name}"
            );
        }
        assert!(issue_policy_by_name("unknown").is_none());
    }
}
