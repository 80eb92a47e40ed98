//! Frame-lag accounting for the serve, and the fleet percentiles.
//!
//! Each admitted stream records its frames into a `QueueLedger`:
//! a frame arrives on the camera clock, completes when its batched
//! step does, and the user-visible cost is the lag between the two.
//! The serve's per-session queue depth, mean and worst lag and
//! real-time verdict are read off that ledger. The percentile helpers
//! below aggregate lag, TTFT and TPOT samples across a fleet.
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
pub(crate) struct QueueLedger {
    arrivals_ps: Vec<u64>,
    completions_ps: Vec<u64>,
    max_queue_depth: usize,
}

impl QueueLedger {
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
    /// (FIFO service order — a stream's frames complete in arrival
    /// order by construction) and `completion_ps` must not precede
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
}

/// Nearest-rank percentile of an already ascending-sorted slice
/// (`p` in `[0, 100]`); returns 0 for an empty slice. NaN-free input is
/// assumed — times are computed, not measured.
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
/// instead of a sort. O(n) expected, and `samples` is left partially
/// reordered. Each result is bit-identical to [`percentile_sorted`]
/// over the sorted samples (see [`select_pair`]). Returns `(0, 0)` for
/// an empty slice. This is [`percentile_pair_of`]'s whole work when
/// its samples fit one gather buffer.
fn percentile_pair(samples: &mut [f64], lo: f64, hi: f64) -> (f64, f64) {
    debug_assert!(lo <= hi, "percentiles out of order");
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let n = samples.len();
    select_pair(samples, nearest_rank(n, lo), nearest_rank(n, hi))
}

/// The `k_lo`-th and `k_hi`-th smallest of `samples` (0-based,
/// `k_lo ≤ k_hi < len`) under [`f64::total_cmp`]: `k_hi` is selected
/// over the whole slice, then `k_lo` inside the partition left of it.
/// Under a total order the k-th smallest element is unique to the bit.
fn select_pair(samples: &mut [f64], k_lo: usize, k_hi: usize) -> (f64, f64) {
    let (left, &mut at_hi, _) = samples.select_nth_unstable_by(k_hi, f64::total_cmp);
    let at_lo = if k_lo == k_hi {
        at_hi
    } else {
        *left.select_nth_unstable_by(k_lo, f64::total_cmp).1
    };
    (at_lo, at_hi)
}

/// The most samples [`percentile_pair_of`] copies into one buffer
/// (2²² × 8 B = 32 MiB). Sample sets at or under it are gathered whole;
/// larger ones are first narrowed by radix passes.
const GATHER_CAP: usize = 1 << 22;

/// Bits of the order key resolved per narrowing pass.
const DIGIT_BITS: u32 = 16;

/// Width of the order key.
const KEY_BITS: u32 = u64::BITS;

/// `x`'s position in the [`f64::total_cmp`] order as an unsigned key:
/// `a.total_cmp(&b) == order_key(a).cmp(&order_key(b))`.
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> (KEY_BITS - 1) == 1 {
        !bits
    } else {
        bits | 1 << (KEY_BITS - 1)
    }
}

/// The inverse of [`order_key`].
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> (KEY_BITS - 1) == 1 {
        key & !(1 << (KEY_BITS - 1))
    } else {
        !key
    })
}

/// The order keys one target rank can still lie among: those whose top
/// `depth` bits equal `base`'s (the rest of `base` is zero). `count`
/// samples fall inside, and the target is the `rank`-th smallest of
/// them (0-based).
#[derive(Debug, Clone, Copy)]
struct Window {
    base: u64,
    depth: u32,
    count: usize,
    rank: usize,
}

impl Window {
    /// Whether another narrowing pass is due: too many samples to
    /// gather, and key bits left to resolve.
    fn wide(&self, cap: usize) -> bool {
        self.count > cap && self.depth < KEY_BITS
    }

    /// The mask of the resolved (top `depth`) key bits.
    fn resolved_mask(&self) -> u64 {
        !u64::MAX.checked_shr(self.depth).unwrap_or(0)
    }

    fn same_keys(&self, other: &Window) -> bool {
        (self.base, self.depth) == (other.base, other.depth)
    }

    /// Moves one digit down into the bucket of `hist` (this window's
    /// next-digit histogram) that holds the rank.
    fn narrow(&mut self, hist: &[usize]) {
        let (mut digit, mut below) = (0, 0);
        while below + hist[digit] <= self.rank {
            below += hist[digit];
            digit += 1;
        }
        self.depth += DIGIT_BITS;
        self.base |= (digit as u64) << (KEY_BITS - self.depth);
        self.count = hist[digit];
        self.rank -= below;
    }
}

/// Nearest-rank percentiles `lo ≤ hi` over the concatenation of the
/// slices `sets()` yields, without ever holding that concatenation:
/// bit-identical to [`percentile_sorted`] over it, `(0, 0)` when it is
/// empty.
///
/// A concatenation of at most [`GATHER_CAP`] samples is gathered into
/// one buffer and read by [`percentile_pair`], with no histogram.
/// Above it, each rank keeps a window of [`f64::total_cmp`] order keys
/// and narrows it by MSD radix passes over every slice, one 16-bit
/// digit per pass (ranks sharing a window share the pass and its
/// histogram), until the window holds at most the cap or is one exact
/// key. One last pass copies each window still wider than a key, and
/// the rank is selected inside that copy. Scratch is at most two
/// windows of the cap plus one 2¹⁶-bucket histogram at any size.
pub(crate) fn percentile_pair_of<'a, I>(sets: impl Fn() -> I, lo: f64, hi: f64) -> (f64, f64)
where
    I: Iterator<Item = &'a [f64]>,
{
    let (at_lo, at_hi, _) = percentile_pair_capped(sets, lo, hi, GATHER_CAP);
    (at_lo, at_hi)
}

/// [`percentile_pair_of`] at gather cap `cap`, also returning the most
/// samples copied into one buffer (never more than `cap`).
fn percentile_pair_capped<'a, I>(
    sets: impl Fn() -> I,
    lo: f64,
    hi: f64,
    cap: usize,
) -> (f64, f64, usize)
where
    I: Iterator<Item = &'a [f64]>,
{
    debug_assert!(lo <= hi, "percentiles out of order");
    let n: usize = sets().map(<[f64]>::len).sum();
    if n <= cap {
        let mut all = Vec::with_capacity(n);
        for set in sets() {
            all.extend_from_slice(set);
        }
        let (at_lo, at_hi) = percentile_pair(&mut all, lo, hi);
        return (at_lo, at_hi, n);
    }
    let mut w = [lo, hi].map(|p| Window {
        base: 0,
        depth: 0,
        count: n,
        rank: nearest_rank(n, p),
    });
    let mut hist = vec![0usize; 1 << DIGIT_BITS];
    while let Some(i) = (0..2).find(|&i| w[i].wide(cap)) {
        let win = w[i];
        let (mask, shift) = (win.resolved_mask(), KEY_BITS - DIGIT_BITS - win.depth);
        hist.fill(0);
        for set in sets() {
            for &x in set {
                let key = order_key(x);
                if key & mask == win.base {
                    hist[(key >> shift) as usize & ((1 << DIGIT_BITS) - 1)] += 1;
                }
            }
        }
        for v in w.iter_mut().filter(|v| v.same_keys(&win)) {
            v.narrow(&hist);
        }
    }
    // A window narrowed to one key is its answer; the others are
    // copied, a window both ranks share once.
    let exact = w.map(|v| v.depth == KEY_BITS);
    let shared = w[0].same_keys(&w[1]);
    let own = [!exact[0], !exact[1] && !shared];
    let mut bufs = [0, 1].map(|i| Vec::with_capacity(if own[i] { w[i].count } else { 0 }));
    if own.contains(&true) {
        let masks = w.map(|v| v.resolved_mask());
        for set in sets() {
            for &x in set {
                let key = order_key(x);
                for i in 0..2 {
                    if own[i] && key & masks[i] == w[i].base {
                        bufs[i].push(x);
                    }
                }
            }
        }
    }
    let gathered = bufs[0].len().max(bufs[1].len());
    let [mut at_lo, mut at_hi] = w.map(|v| from_order_key(v.base));
    if shared && own[0] {
        (at_lo, at_hi) = select_pair(&mut bufs[0], w[0].rank, w[1].rank);
    } else {
        for (i, at) in [&mut at_lo, &mut at_hi].into_iter().enumerate() {
            if own[i] {
                *at = select_pair(&mut bufs[i], w[i].rank, w[i].rank).1;
            }
        }
    }
    (at_lo, at_hi, gathered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const S: u64 = PS_PER_SECOND;

    #[test]
    fn ledger_tracks_depth_at_arrival_instants() {
        let mut l = QueueLedger::default();
        // Three items, second and third arrive while the first is
        // still in flight.
        l.record(0, 3 * S);
        l.record(S, 4 * S);
        l.record(2 * S, 5 * S);
        assert_eq!(l.max_queue_depth(), 2);
        assert_eq!(l.offered(), 3);
        assert_eq!(l.max_lag_ps(), 3 * S);
        assert!((l.mean_lag_s() - 3.0).abs() < 1e-12);
        assert!((l.max_lag_s() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_ledger_is_all_zeroes() {
        let l = QueueLedger::default();
        assert_eq!(l.offered(), 0);
        assert_eq!(l.max_queue_depth(), 0);
        assert_eq!(l.mean_lag_s(), 0.0);
        assert_eq!(l.max_lag_s(), 0.0);
        assert_eq!(l.max_lag_ps(), 0);
    }

    #[test]
    fn fifo_with_idle_gaps_has_no_queueing() {
        // Service 0.1 s, arrivals 1 s apart: every item starts on
        // arrival and completes 0.1 s later, lag == service time.
        let mut l = QueueLedger::default();
        for i in 0..5 {
            l.record(i * S, i * S + S / 10);
        }
        assert_eq!(l.max_queue_depth(), 0);
        assert!(l.lags_ps().all(|lag| lag == S / 10));
        assert!((l.mean_lag_s() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn lags_are_exact_integers() {
        // One-third-second service, three items arriving together: a
        // FIFO server completes them at 1/3, 2/3 and 3/3 of a second.
        // Floats could not represent these exactly; integer ps keeps
        // every lag precise.
        let service = S / 3;
        let mut l = QueueLedger::default();
        for k in 1..=3 {
            l.record(0, k * service);
        }
        let lags: Vec<u64> = l.lags_ps().collect();
        assert_eq!(lags, vec![service, 2 * service, 3 * service]);
        assert_eq!(l.max_queue_depth(), 2);
    }

    #[test]
    fn percentile_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&s, 50.0), 2.0);
        assert_eq!(percentile_sorted(&s, 99.0), 4.0);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
    }

    /// The order key sorts like `f64::total_cmp` and inverts to the bit.
    #[test]
    fn order_key_follows_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
        ];
        for pair in xs.windows(2) {
            assert!(order_key(pair[0]) < order_key(pair[1]), "{pair:?}");
        }
        for x in xs {
            assert_eq!(from_order_key(order_key(x)).to_bits(), x.to_bits());
        }
    }

    /// A sample of the selection proptest's pool: ±0, one value many
    /// times over, and neighbours of ±1 that first differ from it at
    /// 16-bit key digit `3 − digit`.
    fn pooled(kind: u8, step: u64, digit: u32) -> f64 {
        let near_one = f64::from_bits(1.0f64.to_bits() + (step << (16 * digit)));
        match kind {
            0 => 0.0,
            1 => -0.0,
            2 => -near_one,
            3 => near_one,
            _ => 1.5,
        }
    }

    #[test]
    fn mean_lag_does_not_overflow_u64() {
        // Two lags of 2⁶³ ps sum to 2⁶⁴, one past `u64::MAX`.
        let mut l = QueueLedger::default();
        l.record(0, 1 << 63);
        l.record(0, 1 << 63);
        assert_eq!(l.mean_lag_s(), ps_to_seconds(1 << 63));
        assert_eq!(l.max_lag_ps(), 1 << 63);
    }

    #[test]
    fn presized_ledger_records_like_a_grown_one() {
        // Arrivals every 1/3 s, service 0.2 s + 17·i ps: each item
        // completes before the next arrives.
        let mut grown = QueueLedger::default();
        let mut sized = QueueLedger::with_capacity(7);
        assert_eq!(sized, grown);
        for i in 0..7 {
            let arrival = i * S / 3;
            let completion = arrival + S / 5 + i * 17;
            grown.record(arrival, completion);
            sized.record(arrival, completion);
        }
        assert_eq!(sized, grown);
        assert_eq!(sized.max_queue_depth(), 0);
    }

    /// Selection at n ∈ {0, 1, 2}, and where both ranks coincide; the
    /// copy-free selection over no slices and over empty ones.
    #[test]
    fn percentile_pair_edges() {
        assert_eq!(percentile_pair(&mut [], 50.0, 99.0), (0.0, 0.0));
        let none: [&[f64]; 0] = [];
        assert_eq!(
            percentile_pair_of(|| none.into_iter(), 50.0, 99.0),
            (0.0, 0.0)
        );
        let empties: [&[f64]; 3] = [&[], &[], &[]];
        let got = percentile_pair_capped(|| empties.into_iter(), 50.0, 99.0, 0);
        assert_eq!(got, (0.0, 0.0, 0));
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

    proptest! {
        // Each case runs 12 selections, most through 2¹⁶-bucket
        // passes, which an unoptimized test build pays for per bucket.
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The copy-free selection over many slices equals
        /// `percentile_sorted` over their sorted concatenation, bit for
        /// bit, at gather caps that force every narrowing depth (0
        /// resolves every rank to a full key), and never copies more
        /// than the cap into one buffer. The pool mixes ±0, negatives
        /// and a heavy duplicate; a lone far outlier leaves most
        /// samples sharing one top digit.
        #[test]
        fn percentile_pair_of_matches_sorted_percentiles(
            sessions in proptest::collection::vec(
                proptest::collection::vec((0u8..6, 0u64..4, 0u32..4), 0..6),
                0..30,
            ),
            outlier in proptest::option::of(0usize..30),
            p in (0.0f64..100.0, 0.0f64..100.0),
        ) {
            let mut sets: Vec<Vec<f64>> = sessions
                .iter()
                .map(|s| s.iter().map(|&(kind, step, digit)| pooled(kind, step, digit)).collect())
                .collect();
            if let (Some(at), false) = (outlier, sets.is_empty()) {
                let len = sets.len();
                sets[at % len].push(1e300);
            }
            let mut sorted: Vec<f64> = sets.concat();
            sorted.sort_unstable_by(f64::total_cmp);
            let (lo, hi) = (p.0.min(p.1), p.0.max(p.1));
            for cap in [0, 1, 3, 64] {
                for (lo, hi) in [(50.0, 99.0), (lo, hi), (lo, lo)] {
                    let (a, b, gathered) =
                        percentile_pair_capped(|| sets.iter().map(Vec::as_slice), lo, hi, cap);
                    prop_assert_eq!(a.to_bits(), percentile_sorted(&sorted, lo).to_bits());
                    prop_assert_eq!(b.to_bits(), percentile_sorted(&sorted, hi).to_bits());
                    prop_assert!(gathered <= cap, "gathered {} over cap {}", gathered, cap);
                }
            }
        }
    }
}
