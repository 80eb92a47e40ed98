//! Shared queueing and lag accounting.
//!
//! Both latency views of the paper's "real-time processing" story use
//! the same bookkeeping: work items (frames, question prefills, output
//! tokens) arrive on a wall clock, get serviced some time later, and
//! the user-visible cost is the lag between the two. The single-session
//! transient simulation ([`crate::realtime`]) and the multi-session
//! serving scheduler ([`mod@crate::serve`]) both record into a
//! [`QueueLedger`] so their queue-depth and lag semantics cannot drift
//! apart.
//!
//! Every timestamp is an integer picosecond (`u64`, the same time base
//! the hardware models in `vrex-hwsim` emit); the `*_s` accessors
//! convert to `f64` seconds only at the reporting boundary, so no lag
//! or deadline is ever decided by float rounding.

use vrex_hwsim::{ps_to_seconds, PS_PER_SECOND};

/// Arrival/completion ledger for one FIFO stream of work items.
///
/// Items must be recorded in arrival order. Queue depth is sampled at
/// each arrival instant: the number of earlier items still in flight
/// when a new item shows up (the "frames waiting" the user perceives).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueueLedger {
    arrivals_ps: Vec<u64>,
    completions_ps: Vec<u64>,
    max_queue_depth: usize,
}

impl QueueLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty ledger with room for `items` records, for callers that
    /// know their item count up front (no regrowth while recording).
    pub fn with_capacity(items: usize) -> Self {
        QueueLedger {
            arrivals_ps: Vec::with_capacity(items),
            completions_ps: Vec::with_capacity(items),
            max_queue_depth: 0,
        }
    }

    /// Records one item's arrival and completion times (ps).
    ///
    /// Arrivals AND completions must be non-decreasing across calls
    /// (FIFO service order — both recorders here satisfy it by
    /// construction) and `completion_ps` must not precede
    /// `arrival_ps`. Sorted completions let the queue-depth sample be
    /// a binary search instead of a scan.
    pub fn record(&mut self, arrival_ps: u64, completion_ps: u64) {
        debug_assert!(completion_ps >= arrival_ps, "completion before arrival");
        debug_assert!(
            self.arrivals_ps.last().is_none_or(|&a| arrival_ps >= a),
            "arrivals must be non-decreasing"
        );
        debug_assert!(
            self.completions_ps
                .last()
                .is_none_or(|&c| completion_ps >= c),
            "completions must be non-decreasing (FIFO service)"
        );
        // Completions sorted: in-flight items are those past the
        // partition of completions <= arrival.
        let done = self.completions_ps.partition_point(|&c| c <= arrival_ps);
        let depth = self.completions_ps.len() - done;
        self.max_queue_depth = self.max_queue_depth.max(depth);
        self.arrivals_ps.push(arrival_ps);
        self.completions_ps.push(completion_ps);
    }

    /// Number of items recorded.
    pub fn offered(&self) -> usize {
        self.arrivals_ps.len()
    }

    /// Number of items completed at or before `deadline_ps` (a binary
    /// search: completions are sorted by `record`'s contract).
    pub fn completed_by(&self, deadline_ps: u64) -> usize {
        self.completions_ps.partition_point(|&c| c <= deadline_ps)
    }

    /// Maximum queue depth observed (sampled at arrival instants).
    pub fn max_queue_depth(&self) -> usize {
        self.max_queue_depth
    }

    /// Per-item lags (completion − arrival) in ps, in record order.
    pub fn lags_ps(&self) -> impl Iterator<Item = u64> + '_ {
        self.arrivals_ps
            .iter()
            .zip(&self.completions_ps)
            .map(|(&a, &c)| c - a)
    }

    /// Per-item lags (completion − arrival) in seconds, in record order.
    pub fn lags(&self) -> impl Iterator<Item = f64> + '_ {
        self.lags_ps().map(ps_to_seconds)
    }

    /// Mean lag in seconds (0 for an empty ledger). The sum is taken in
    /// `u128`, so no count of `u64` lags can overflow it; below 2⁶⁴ ps
    /// the result is the same `f64` a `u64` sum would give.
    pub fn mean_lag_s(&self) -> f64 {
        let total_ps: u128 = self.lags_ps().map(u128::from).sum();
        total_ps as f64 / PS_PER_SECOND as f64 / self.offered().max(1) as f64
    }

    /// Worst lag in ps (0 for an empty ledger).
    pub fn max_lag_ps(&self) -> u64 {
        self.lags_ps().max().unwrap_or(0)
    }

    /// Worst lag in seconds (0 for an empty ledger).
    pub fn max_lag_s(&self) -> f64 {
        ps_to_seconds(self.max_lag_ps())
    }

    /// Completion time of the last item in ps (0 for an empty ledger).
    /// Completions are non-decreasing, so the last is the latest.
    pub fn last_completion_ps(&self) -> u64 {
        self.completions_ps.last().copied().unwrap_or(0)
    }

    /// Completion time of the last item in seconds (0 when empty).
    pub fn last_completion_s(&self) -> f64 {
        ps_to_seconds(self.last_completion_ps())
    }
}

/// Drives a single-server FIFO queue and returns its ledger.
///
/// Item `i` arrives at `arrivals_ps[i]` (non-decreasing); `service(i)`
/// is its service time in ps, evaluated in order at the moment the
/// item starts (so service models that depend on state mutated by
/// earlier items — e.g. a growing KV cache — price correctly).
pub fn run_fifo(
    arrivals_ps: impl IntoIterator<Item = u64>,
    mut service: impl FnMut(usize) -> u64,
) -> QueueLedger {
    let mut ledger = QueueLedger::new();
    let mut server_free_at = 0u64;
    for (i, arrival) in arrivals_ps.into_iter().enumerate() {
        let start = server_free_at.max(arrival);
        let completion = start + service(i);
        server_free_at = completion;
        ledger.record(arrival, completion);
    }
    ledger
}

/// Nearest-rank percentile of `samples` (`p` in `[0, 100]`).
///
/// Copies and sorts internally (sample sets here are small); returns 0
/// for an empty slice. NaN-free input is assumed — times are computed,
/// not measured. Callers reading several percentiles off one sample
/// set should sort once and use [`percentile_sorted`] instead of
/// re-sorting per read.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// Nearest-rank percentile of an already ascending-sorted slice
/// (`p` in `[0, 100]`); returns 0 for an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(sorted.len(), p)]
}

/// The 0-based nearest-rank index of percentile `p` among `n > 0`
/// ascending samples: `clamp(ceil(p/100 · n), 1, n) − 1`.
fn nearest_rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentiles `lo ≤ hi` of `samples`, by selection
/// instead of a sort: `hi`'s rank is selected over the whole slice,
/// then `lo`'s inside the partition left of it. O(n) expected, and
/// `samples` is left partially reordered. Under [`f64::total_cmp`]
/// the k-th smallest element is unique to the bit, so each result is
/// bit-identical to [`percentile_sorted`] over the sorted samples.
/// Returns `(0, 0)` for an empty slice.
pub(crate) fn percentile_pair(samples: &mut [f64], lo: f64, hi: f64) -> (f64, f64) {
    debug_assert!(lo <= hi, "percentiles out of order");
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let (k_lo, k_hi) = (
        nearest_rank(samples.len(), lo),
        nearest_rank(samples.len(), hi),
    );
    let (left, &mut at_hi, _) = samples.select_nth_unstable_by(k_hi, f64::total_cmp);
    let at_lo = if k_lo == k_hi {
        at_hi
    } else {
        *left.select_nth_unstable_by(k_lo, f64::total_cmp).1
    };
    (at_lo, at_hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const S: u64 = PS_PER_SECOND;

    #[test]
    fn ledger_tracks_depth_at_arrival_instants() {
        let mut l = QueueLedger::new();
        // Three items, second and third arrive while the first is
        // still in flight.
        l.record(0, 3 * S);
        l.record(S, 4 * S);
        l.record(2 * S, 5 * S);
        assert_eq!(l.max_queue_depth(), 2);
        assert_eq!(l.offered(), 3);
        assert_eq!(l.completed_by(4 * S), 2);
        assert_eq!(l.max_lag_ps(), 3 * S);
        assert!((l.mean_lag_s() - 3.0).abs() < 1e-12);
        assert!((l.max_lag_s() - 3.0).abs() < 1e-12);
        assert_eq!(l.last_completion_ps(), 5 * S);
        assert!((l.last_completion_s() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_ledger_is_all_zeroes() {
        let l = QueueLedger::new();
        assert_eq!(l.offered(), 0);
        assert_eq!(l.max_queue_depth(), 0);
        assert_eq!(l.mean_lag_s(), 0.0);
        assert_eq!(l.max_lag_s(), 0.0);
        assert_eq!(l.max_lag_ps(), 0);
    }

    #[test]
    fn fifo_with_idle_gaps_has_no_queueing() {
        // Service 0.1 s, arrivals 1 s apart: every item starts on
        // arrival, lag == service time.
        let l = run_fifo((0..5).map(|i| i * S), |_| S / 10);
        assert_eq!(l.max_queue_depth(), 0);
        assert!((l.mean_lag_s() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn lags_are_exact_integers() {
        // One-third-second service: floats could not represent this
        // exactly, integer ps keeps every lag precise.
        let service = S / 3;
        let l = run_fifo([0, 0, 0], |_| service);
        let lags: Vec<u64> = l.lags_ps().collect();
        assert_eq!(lags, vec![service, 2 * service, 3 * service]);
    }

    #[test]
    fn percentile_nearest_rank() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 50.0), 2.0);
        assert_eq!(percentile(&s, 99.0), 4.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn mean_lag_does_not_overflow_u64() {
        // Two lags of 2⁶³ ps sum to 2⁶⁴, one past `u64::MAX`.
        let mut l = QueueLedger::new();
        l.record(0, 1 << 63);
        l.record(0, 1 << 63);
        assert_eq!(l.mean_lag_s(), ps_to_seconds(1 << 63));
        assert_eq!(l.completed_by(1 << 63), 2);
        assert_eq!(l.completed_by((1 << 63) - 1), 0);
        assert_eq!(l.last_completion_ps(), 1 << 63);
    }

    #[test]
    fn presized_ledger_records_like_a_grown_one() {
        let l = run_fifo((0..7).map(|i| i * S / 3), |i| S / 5 + i as u64 * 17);
        let mut sized = QueueLedger::with_capacity(7);
        assert_eq!(sized, QueueLedger::new());
        for (a, lag) in (0..7).map(|i| i * S / 3).zip(l.lags_ps()) {
            sized.record(a, a + lag);
        }
        assert_eq!(sized, l);
    }

    /// Selection at n ∈ {0, 1, 2}, and where both ranks coincide.
    #[test]
    fn percentile_pair_edges() {
        assert_eq!(percentile_pair(&mut [], 50.0, 99.0), (0.0, 0.0));
        assert_eq!(percentile_pair(&mut [7.0], 50.0, 99.0), (7.0, 7.0));
        assert_eq!(percentile_pair(&mut [9.0, 7.0], 50.0, 99.0), (7.0, 9.0));
        assert_eq!(
            percentile_pair(&mut [9.0, 7.0, 8.0], 90.0, 99.0),
            (9.0, 9.0)
        );
        assert_eq!(
            percentile_pair(&mut [2.0, 2.0, 1.0], 50.0, 99.0),
            (2.0, 2.0)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The fleet aggregation's percentile pair by selection equals
        /// `percentile_sorted` over the sorted concatenation of many
        /// short per-session sample vectors, bit for bit (small values
        /// force duplicates, a few full-range ones spread the tail).
        #[test]
        fn percentile_pair_matches_sorted_percentiles(
            sessions in proptest::collection::vec(proptest::collection::vec(0u64..6, 0..4), 0..40),
            wide in proptest::collection::vec(any::<u64>(), 0..3),
            p in (0.0f64..100.0, 0.0f64..100.0),
        ) {
            let samples: Vec<f64> = sessions
                .iter()
                .flatten()
                .chain(&wide)
                .map(|&ps| ps_to_seconds(ps))
                .collect();
            let mut sorted = samples.clone();
            sorted.sort_unstable_by(f64::total_cmp);
            let (lo, hi) = (p.0.min(p.1), p.0.max(p.1));
            for (lo, hi) in [(50.0, 99.0), (lo, hi), (lo, lo)] {
                let (a, b) = percentile_pair(&mut samples.clone(), lo, hi);
                prop_assert_eq!(a.to_bits(), percentile_sorted(&sorted, lo).to_bits());
                prop_assert_eq!(b.to_bits(), percentile_sorted(&sorted, hi).to_bits());
            }
        }
    }
}
