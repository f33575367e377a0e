//! Acceptance test for the policy extension point: a brand-new fetch policy
//! and a brand-new issue policy are registered purely through the public
//! `SimConfig` API — no `smt-core` internals are touched or re-implemented.

use smt::{
    standard_mix, Benchmark, BrCount, BranchFirst, FetchPartition, FetchPolicy, ICount,
    IssueCandidate, IssuePolicy, MissCount, OldestFirst, OptLast, RoundRobin, SimConfig, SpecLast,
    ThreadFetchView,
};

/// A deliberately odd custom policy: always prefer the *highest*-numbered
/// fetchable thread. (Nobody should ship this; it proves the trait is the
/// only thing a policy needs.)
struct HighestThreadFirst;

impl FetchPolicy for HighestThreadFirst {
    fn name(&self) -> &str {
        "HIGHEST_THREAD_FIRST"
    }

    fn priority(&self, _cycle: u64, view: &ThreadFetchView) -> i64 {
        -i64::from(view.thread.0)
    }
}

/// A custom issue policy: youngest first (again: intentionally unwise).
struct YoungestFirst;

impl IssuePolicy for YoungestFirst {
    fn name(&self) -> &str {
        "YOUNGEST_FIRST"
    }

    fn priority(&self, c: &IssueCandidate) -> i64 {
        -(c.age as i64)
    }
}

fn mix() -> Vec<Benchmark> {
    vec![
        Benchmark::Espresso,
        Benchmark::Eqntott,
        Benchmark::Alvinn,
        Benchmark::Tomcatv,
    ]
}

#[test]
fn custom_fetch_policy_plugs_in_through_the_public_api() {
    let report = SimConfig::new()
        .with_benchmarks(mix(), 7)
        .with_fetch(Box::new(HighestThreadFirst))
        .build()
        .run(3_000);
    assert_eq!(report.fetch_policy, "HIGHEST_THREAD_FIRST");
    assert!(
        report.total_committed() > 0,
        "custom policy must still make progress"
    );
    // The policy's bias must be visible: the highest-numbered thread gets
    // at least as much fetch priority as the lowest, so it commits work.
    assert!(report.threads.last().unwrap().committed > 0);
}

#[test]
fn custom_issue_policy_plugs_in_through_the_public_api() {
    let report = SimConfig::new()
        .with_benchmarks(mix(), 7)
        .with_issue(Box::new(YoungestFirst))
        .build()
        .run(3_000);
    assert_eq!(report.issue_policy, "YOUNGEST_FIRST");
    assert!(report.total_committed() > 0);
}

#[test]
fn custom_policies_change_behaviour_but_preserve_correctness() {
    let run = |cfg: SimConfig| cfg.with_benchmarks(mix(), 7).build().run(3_000);
    let default = run(SimConfig::new());
    let custom = run(SimConfig::new().with_fetch(Box::new(HighestThreadFirst)));
    // Same workload, same seed: committed work may differ, but both are
    // correct simulations with non-trivial throughput.
    assert!(default.total_ipc() > 0.3);
    assert!(custom.total_ipc() > 0.3);
}

/// Forwards `name` and `priority` to the policy it wraps and implements
/// nothing else, so the simulator must rank through plain per-item
/// `priority` calls whatever fast path the wrapped policy takes.
struct Plain<P>(P);

impl<P: FetchPolicy> FetchPolicy for Plain<P> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn priority(&self, cycle: u64, view: &ThreadFetchView) -> i64 {
        self.0.priority(cycle, view)
    }
}

impl<P: IssuePolicy> IssuePolicy for Plain<P> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn priority(&self, c: &IssueCandidate) -> i64 {
        self.0.priority(c)
    }
}

/// Every shipped policy ranks exactly like its plain `priority` key: the
/// wrapped and unwrapped machines render byte-identical reports over every
/// partition scheme and two seeds. Fetch policies run under OLDEST_FIRST
/// and issue policies under ICOUNT, so each side of the pair differs in
/// one policy only.
#[test]
fn shipped_policies_rank_like_their_plain_priority() {
    fn fetch_pair() -> [(Box<dyn FetchPolicy>, Box<dyn FetchPolicy>); 4] {
        [
            (Box::new(RoundRobin), Box::new(Plain(RoundRobin))),
            (Box::new(ICount), Box::new(Plain(ICount))),
            (Box::new(BrCount), Box::new(Plain(BrCount))),
            (Box::new(MissCount), Box::new(Plain(MissCount))),
        ]
    }
    fn issue_pair() -> [(Box<dyn IssuePolicy>, Box<dyn IssuePolicy>); 4] {
        [
            (Box::new(OldestFirst), Box::new(Plain(OldestFirst))),
            (Box::new(OptLast), Box::new(Plain(OptLast))),
            (Box::new(SpecLast), Box::new(Plain(SpecLast))),
            (Box::new(BranchFirst), Box::new(Plain(BranchFirst))),
        ]
    }
    let report = |partition: FetchPartition, seed: u64, cfg: SimConfig| {
        cfg.with_benchmarks(standard_mix(), seed)
            .with_partition(partition)
            .with_warmup(2_000)
            .build()
            .run(2_000)
            .to_json()
            .render()
    };
    for partition in FetchPartition::all_schemes() {
        for seed in [42, 1337] {
            for (shipped, plain) in fetch_pair() {
                let name = shipped.name().to_string();
                let with = |fetch| {
                    SimConfig::new()
                        .with_fetch(fetch)
                        .with_issue(Box::new(OldestFirst))
                };
                assert_eq!(
                    report(partition, seed, with(shipped)),
                    report(partition, seed, with(plain)),
                    "{name} ranks unlike its priority key ({partition}, seed {seed})"
                );
            }
            for (shipped, plain) in issue_pair() {
                let name = shipped.name().to_string();
                let with = |issue| {
                    SimConfig::new()
                        .with_issue(issue)
                        .with_fetch(Box::new(ICount))
                };
                assert_eq!(
                    report(partition, seed, with(shipped)),
                    report(partition, seed, with(plain)),
                    "{name} ranks unlike its priority key ({partition}, seed {seed})"
                );
            }
        }
    }
}
