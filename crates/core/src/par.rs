//! Scoped-thread parallel sweep driver.
//!
//! The figure/table binaries sweep independent grid points (platform ×
//! cache × policy × fleet), and sharded serving fans the per-device
//! serve loops out the same way; [`par_map`] runs them across
//! `std::thread::scope` workers — no external thread-pool dependency,
//! no `'static` bounds — and returns results in input order so table
//! rendering (and per-device report/trace ordering) stays
//! deterministic. Each worker claims the next unclaimed index from a
//! shared atomic cursor, which load-balances uneven grid points (a
//! 24-stream tiered serve costs ~10× a 2-stream one).
//!
//! This module lives in `vrex-core` (below `vrex-hwsim` and
//! `vrex-system`; only the numeric crates `vrex-tensor` and
//! `vrex-model` sit under it) so both `vrex_system::placement` and the
//! bench binaries can share one driver; `vrex_bench::par` re-exports it
//! under its historical path.
//!
//! With one worker — a single-core runner
//! (`available_parallelism() == 1`), an explicit `1`, or a single item
//! — the fan-out is an in-order loop on the calling thread: same
//! results, no thread spawned.
//!
//! [`timed`] is the only place under `crates/` that reads the host
//! clock. Everything else that measures host time — throughput,
//! per-layer attribution, the parallel speedup — lives in the repo
//! benchmark (`BENCHMARK.json`, `benchmark/`), not in the sweep bins.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker count used by [`par_map`]: the machine's available
/// parallelism (1 when it cannot be determined).
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Times `f` on the host monotonic clock, returning its result and the
/// elapsed wall-clock in integer nanoseconds.
///
/// This is report-boundary observability over the *simulator* — it
/// feeds `ShardedServeReport::device_wall_ns`, which is excluded from
/// report equality exactly like the serve counters. No simulated
/// quantity (integer picoseconds) is ever derived from it.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    // vrex-lint: allow(wall-clock-in-sim) — host wall-clock observability at the report boundary (excluded from report equality); no simulated quantity is derived from it.
    let clock = std::time::Instant::now();
    let r = f();
    (r, clock.elapsed().as_nanos() as u64)
}

/// Applies `f` to every item on a scoped worker pool and returns the
/// results in input order.
///
/// `f` runs concurrently: it must not rely on call order. Grid sweeps
/// that share a per-unit cache (e.g. a `StepPriceCache` per platform)
/// should make the *unit* the item and loop inside `f`.
///
/// # Panics
///
/// Propagates the first worker panic.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with_workers(items, workers(), f)
}

/// [`par_map`] with an explicit worker count, clamped to
/// `1..=items.len()`; one worker runs `f` on the calling thread.
///
/// The sweep contract is that results — including every observability
/// counter a unit reports — are a function of the *items only*, never
/// of how many workers raced over the cursor. The fleet-counter
/// determinism test drives the same grid at 1 and N workers through
/// this seam and pins the outputs equal.
pub fn par_map_with_workers<T, R, F>(items: &[T], n_workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let n_workers = n_workers.clamp(1, items.len());
    if n_workers == 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut pairs: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, f(&items[i])));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            // vrex-lint: allow(panicking-seam) — propagating a worker panic is the sweep contract (a silently dropped unit would corrupt result ordering); the payload is re-thrown, not swallowed.
            .flat_map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    pairs.sort_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(&items, |&i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<usize> = par_map(&[], |&i: &usize| i);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_on_one_worker() {
        assert_eq!(par_map(&[41], |&i| i + 1), vec![42]);
    }

    #[test]
    fn one_worker_or_one_item_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = par_map_with_workers(&[1, 2, 3], 1, |_| std::thread::current().id());
        assert_eq!(ids, vec![caller; 3]);
        let ids = par_map_with_workers(&[1], 8, |_| std::thread::current().id());
        assert_eq!(ids, vec![caller]);
    }

    #[test]
    #[should_panic(expected = "sweep worker panicked")]
    fn worker_panics_propagate() {
        // Two workers, so the panic crosses a join even on a one-core host.
        let _ = par_map_with_workers(&[1, 2, 3], 2, |&i| {
            assert!(i < 3, "boom");
            i
        });
    }

    #[test]
    fn at_least_one_worker() {
        assert!(workers() >= 1);
    }

    #[test]
    fn explicit_worker_counts_agree() {
        let items: Vec<usize> = (0..37).collect();
        let one = par_map_with_workers(&items, 1, |&i| i * i);
        for n in [2, 4, 16, 1024] {
            assert_eq!(par_map_with_workers(&items, n, |&i| i * i), one);
        }
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(par_map_with_workers(&[7usize], 0, |&i| i + 1), vec![8]);
    }
}
