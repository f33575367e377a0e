//! A work-stealing scheduler for sweeps of independent jobs.
//!
//! Every sweep (the experiment studies, and `smt-core::fleet` on top of
//! the same call) runs many independent simulations whose per-item costs
//! are heavily skewed — a warm cell forks off a checkpoint in about a
//! millisecond while a cold cell simulates its whole warmup, an order of
//! magnitude longer. A static chunking of the index space strands that
//! skew on whichever worker drew the expensive chunk; [`work_steal_map`]
//! instead hands out shrinking batches from a single atomic cursor
//! (guided self-scheduling), so early claims are large enough to amortize
//! the atomic traffic and the tail degrades to single items that any idle
//! worker can steal.
//!
//! Two properties matter more than the stealing itself:
//!
//! * **Deterministic output order.** [`work_steal_map`] returns results
//!   in job-index order no matter which worker ran which item or in what
//!   order claims interleaved. Steal order must never leak into results —
//!   the studies byte-compare their JSON across `--jobs` values.
//! * **No per-item locking.** Workers accumulate `(index, result)` pairs
//!   locally and merge once when they run out of work, so the only shared
//!   write traffic in the steady state is the claim cursor itself.
//!
//! # Examples
//!
//! ```
//! use smt_stats::sched::work_steal_map;
//!
//! let squares = work_steal_map(5, 2, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16]);
//! ```

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a `--jobs` style worker count: `0` means one worker per
/// available core; the pool never exceeds `count` jobs and is never empty.
fn resolve_workers(jobs: usize, count: usize) -> usize {
    let workers = if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism().map_or(1, usize::from)
    };
    workers.min(count).max(1)
}

/// A claimable queue over the index space `0..count`: one atomic cursor
/// that workers pull shrinking batches from.
///
/// Each [`claim`](WorkQueue::claim) hands out `remaining / (2 × workers)`
/// indices (at least one), so the first claims split the space coarsely
/// and the tail is handed out item by item — the classic guided
/// self-scheduling compromise between atomic-operation overhead and load
/// balance under skewed per-item costs.
struct WorkQueue {
    next: AtomicUsize,
    count: usize,
    shrink: usize,
}

impl WorkQueue {
    /// A queue over `0..count` tuned for `workers` concurrent claimants.
    fn new(count: usize, workers: usize) -> WorkQueue {
        WorkQueue {
            next: AtomicUsize::new(0),
            count,
            shrink: workers.max(1) * 2,
        }
    }

    /// Claims the next batch of indices, or `None` when the queue is
    /// drained. Batches are contiguous, disjoint, and cover `0..count`
    /// exactly across all claimants.
    fn claim(&self) -> Option<Range<usize>> {
        // The cursor publishes no data — every job is independent and the
        // results flow back through the caller's own structures — so
        // relaxed ordering suffices; the CAS only has to be atomic.
        let mut start = self.next.load(Ordering::Relaxed);
        loop {
            if start >= self.count {
                return None;
            }
            let take = ((self.count - start) / self.shrink).max(1);
            match self.next.compare_exchange_weak(
                start,
                start + take,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(start..start + take),
                Err(current) => start = current,
            }
        }
    }
}

/// Runs `count` independent jobs across a pool of OS threads and returns
/// the results in job-index order. `jobs == 0` uses one worker per
/// available core; the pool never exceeds `count`.
///
/// Work is claimed in shrinking batches from one atomic cursor, so skewed
/// per-item costs rebalance across workers instead of stranding on
/// whichever worker a static chunking would have assigned them to.
/// Results are accumulated
/// per worker and merged after the pool joins; output order is the job
/// index order regardless of worker count or claim interleaving.
pub fn work_steal_map<T, F>(count: usize, jobs: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = resolve_workers(jobs, count);
    if workers <= 1 {
        return (0..count).map(run).collect();
    }
    let queue = WorkQueue::new(count, workers);
    let done: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(count));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local: Vec<(usize, T)> = Vec::new();
                while let Some(batch) = queue.claim() {
                    for i in batch {
                        local.push((i, run(i)));
                    }
                }
                if !local.is_empty() {
                    done.lock().expect("no panics while merging").extend(local);
                }
            });
        }
    });
    let mut done = done.into_inner().expect("workers joined");
    done.sort_unstable_by_key(|&(i, _)| i);
    assert_eq!(
        done.len(),
        count,
        "every job index must complete exactly once"
    );
    done.into_iter()
        .enumerate()
        .map(|(expect, (i, result))| {
            debug_assert_eq!(expect, i);
            result
        })
        .collect()
}

/// Runs `f` under [`std::panic::catch_unwind`] and renders a panic's
/// payload to a `String` when it is one (or a `&str`), which covers every
/// `panic!`/`assert!` in practice; exotic [`std::panic::panic_any`]
/// payloads degrade to a fixed placeholder. The process panic hook still
/// runs for a caught panic, so callers that inject panics on purpose may
/// want to silence it around the call.
///
/// Any broken invariants a panic could leave behind must be confined to
/// state the caller discards on `Err` — that is the caller's
/// `AssertUnwindSafe` to uphold.
pub fn catch_panic<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "opaque panic payload".to_string()
        }
    })
}

/// Like [`work_steal_map`], but each job runs under [`catch_panic`]: a
/// panicking job yields `Err(panic message)` in its output slot instead
/// of tearing down the pool (and poisoning the merge lock) the way an
/// escaped panic would. Healthy jobs are unaffected — their results land
/// in the same index-ordered slots a fault-free [`work_steal_map`] run
/// would produce.
pub fn work_steal_map_catch<T, F>(count: usize, jobs: usize, run: F) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // The closure only borrows `run`; what a panic leaves behind is
    // confined to the job's own result, which the error replaces.
    work_steal_map(count, jobs, move |i| catch_panic(|| run(i)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_batches_cover_the_space_disjointly() {
        let queue = WorkQueue::new(100, 3);
        let mut seen = [false; 100];
        while let Some(batch) = queue.claim() {
            for i in batch {
                assert!(!seen[i], "index {i} claimed twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every index claimed");
        assert!(queue.claim().is_none(), "drained queue stays drained");
    }

    #[test]
    fn queue_batches_shrink_toward_the_tail() {
        let queue = WorkQueue::new(64, 2);
        let first = queue.claim().unwrap();
        assert!(first.len() > 1, "early claims amortize the atomic traffic");
        let mut last = first;
        while let Some(batch) = queue.claim() {
            last = batch;
        }
        assert_eq!(last.len(), 1, "the tail is handed out item by item");
    }

    #[test]
    fn empty_and_degenerate_counts() {
        assert!(work_steal_map(0, 4, |i| i).is_empty());
        assert_eq!(work_steal_map(1, 8, |i| i + 7), vec![7]);
        assert_eq!(resolve_workers(0, 0), 1);
        assert_eq!(resolve_workers(9, 3), 3);
        assert_eq!(resolve_workers(2, 100), 2);
    }

    #[test]
    fn output_order_is_deterministic_across_worker_counts() {
        let expect: Vec<usize> = (0..97).map(|i| i * i).collect();
        for jobs in [1, 2, 3, 8] {
            assert_eq!(work_steal_map(97, jobs, |i| i * i), expect, "jobs={jobs}");
        }
    }

    /// Runs `f` with the process panic hook silenced, restoring it after.
    /// The catch tests below panic on purpose dozens of times; without
    /// this the test log drowns in backtraces.
    fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(hook);
        out
    }

    #[test]
    fn catch_variant_isolates_panicking_jobs() {
        quiet_panics(|| {
            let run = |i: usize| {
                if i % 5 == 3 {
                    panic!("job {i} exploded");
                }
                i * 2
            };
            for jobs in [1, 2, 8] {
                let out = work_steal_map_catch(23, jobs, run);
                assert_eq!(out.len(), 23, "jobs={jobs}");
                for (i, r) in out.iter().enumerate() {
                    if i % 5 == 3 {
                        assert_eq!(r.as_ref().unwrap_err(), &format!("job {i} exploded"));
                    } else {
                        assert_eq!(*r.as_ref().unwrap(), i * 2, "jobs={jobs}");
                    }
                }
            }
        });
    }

    #[test]
    fn catch_variant_renders_str_and_opaque_payloads() {
        quiet_panics(|| {
            let out = work_steal_map_catch(2, 1, |i| {
                if i == 0 {
                    std::panic::panic_any(42u32);
                }
                panic!("plain literal")
            });
            assert_eq!(out[0].as_ref().unwrap_err(), "opaque panic payload");
            assert_eq!(out[1].as_ref().unwrap_err(), "plain literal");
        });
    }

    #[test]
    fn catch_variant_with_all_jobs_panicking_still_terminates() {
        quiet_panics(|| {
            for jobs in [1, 4] {
                let out: Vec<Result<(), String>> =
                    work_steal_map_catch(17, jobs, |i| panic!("boom {i}"));
                assert!(out.iter().all(|r| r.is_err()), "jobs={jobs}");
            }
        });
    }

    #[test]
    fn skewed_item_costs_complete_with_deterministic_order() {
        // The pattern the studies produce: most items are cheap (a warm
        // cell forking a checkpoint), a few are an order of magnitude
        // more expensive (a cold cell simulating its warmup). All items
        // must complete and the output must be index-ordered regardless
        // of which worker stole what.
        let cost_ms = |i: usize| if i.is_multiple_of(7) { 10 } else { 1 };
        let run = |i: usize| {
            std::thread::sleep(std::time::Duration::from_millis(cost_ms(i)));
            i * 3 + 1
        };
        let expect: Vec<usize> = (0..29).map(|i| i * 3 + 1).collect();
        for jobs in [2, 4, 8] {
            assert_eq!(work_steal_map(29, jobs, run), expect, "jobs={jobs}");
        }
    }
}
