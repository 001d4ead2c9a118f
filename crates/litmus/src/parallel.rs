//! Deterministic parallel work distribution for campaign workloads.
//!
//! Every repeat-the-experiment loop in this workspace — litmus and
//! application campaigns (`wmm_core::campaign::Campaign`), and the
//! tuning sweeps of `wmm_core::tuning` — has the same shape: `jobs`
//! independent indexed tasks whose randomness is derived from
//! `(base seed, index)` alone.
//! Results therefore do not depend on which thread executes which index,
//! and these helpers exploit that: they hand out indices in chunks from a
//! shared atomic counter (dynamic load balancing, no idle tail when task
//! durations vary) while the caller keeps bit-identical output for any
//! worker count.
//!
//! Two entry points:
//!
//! * [`parallel_map`] — one result per index, returned in index order;
//! * [`parallel_fold`] — worker-local mutable state (e.g. a reusable
//!   [`Gpu`](wmm_sim::exec::Gpu) plus an accumulator), returned per
//!   worker for a commutative merge.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolve a requested worker count: `0` means all available cores, and
/// the result is clamped to `[1, jobs]` so no worker starts with nothing
/// to do. Only `0` queries the OS for the core count: the query can read
/// cgroup files, and every campaign and every engine drain calls this.
pub fn resolve_workers(requested: usize, jobs: usize) -> usize {
    let w = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    w.clamp(1, jobs.max(1))
}

/// Chunk size targeting ~4 claims per worker: large enough to amortise
/// the atomic claim, small enough to balance uneven task durations.
fn chunk_size(jobs: usize, workers: usize) -> usize {
    jobs.div_ceil(workers * 4).max(1)
}

/// Apply `f` to every index in `0..jobs` using `workers` threads and
/// return the results in index order.
///
/// `f` must be pure up to its index (its output independent of execution
/// order); all callers in this workspace guarantee that by deriving all
/// randomness from `(base_seed, index)`. One worker runs on the calling
/// thread; more fold `(index, result)` pairs through [`parallel_fold`],
/// scattered back into index order.
pub fn parallel_map<T, F>(workers: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || jobs <= 1 {
        return (0..jobs).map(f).collect();
    }
    let shards = parallel_fold(workers, jobs, Vec::new, |out: &mut Vec<(usize, T)>, i| {
        out.push((i, f(i)));
    });
    let mut slots: Vec<Option<T>> = Vec::with_capacity(jobs);
    slots.resize_with(jobs, || None);
    for (i, v) in shards.into_iter().flatten() {
        slots[i] = Some(v);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index visited exactly once"))
        .collect()
}

/// Process every index in `0..jobs` with worker-local state: each worker
/// creates one `S` via `init`, folds its claimed indices into it via
/// `step`, and the per-worker states are returned (in an unspecified
/// order — merge them commutatively).
///
/// This is the right shape when per-index work needs an expensive
/// reusable resource, like the simulator instance litmus campaigns run
/// on.
pub fn parallel_fold<S, I, F>(workers: usize, jobs: usize, init: I, step: F) -> Vec<S>
where
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    if workers <= 1 || jobs <= 1 {
        let mut state = init();
        for i in 0..jobs {
            step(&mut state, i);
        }
        return vec![state];
    }
    let chunk = chunk_size(jobs, workers);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    loop {
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= jobs {
                            break;
                        }
                        for i in start..(start + chunk).min(jobs) {
                            step(&mut state, i);
                        }
                    }
                    state
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel_fold worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_zero_uses_cores_capped_by_jobs() {
        assert_eq!(resolve_workers(0, 1), 1);
        assert!(resolve_workers(0, 1_000_000) >= 1);
        assert_eq!(resolve_workers(5, 3), 3);
        assert_eq!(resolve_workers(5, 0), 1);
        assert_eq!(resolve_workers(2, 100), 2);
    }

    #[test]
    fn map_preserves_index_order() {
        for workers in [1, 2, 3, 8] {
            let out = parallel_map(workers, 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_handles_edge_sizes() {
        assert!(parallel_map(4, 0, |i| i).is_empty());
        assert_eq!(parallel_map(4, 1, |i| i + 7), vec![7]);
        assert_eq!(parallel_map(16, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn fold_visits_every_index_once() {
        for workers in [1, 2, 4, 9] {
            let states = parallel_fold(workers, 257, Vec::new, |v: &mut Vec<usize>, i| v.push(i));
            assert!(states.len() <= workers.max(1));
            let mut all: Vec<usize> = states.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..257).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fold_sum_is_worker_count_independent() {
        let expected: u64 = (0..1000u64).map(|i| i * 3 + 1).sum();
        for workers in [1, 2, 8] {
            let states = parallel_fold(workers, 1000, || 0u64, |acc, i| *acc += i as u64 * 3 + 1);
            assert_eq!(states.into_iter().sum::<u64>(), expected);
        }
    }

    #[test]
    fn chunks_cover_without_overlap() {
        // chunk_size must never be zero and must tile the job range.
        for jobs in [1usize, 2, 7, 64, 1001] {
            for workers in [1usize, 2, 5, 32] {
                let c = chunk_size(jobs, workers);
                assert!(c >= 1);
                assert!(c * workers * 4 >= jobs);
            }
        }
    }
}
