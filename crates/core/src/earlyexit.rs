//! Early-exit bucket-sort selection — the WTU's hardware dataflow.
//!
//! A full descending sort is the dominant cost of WiCSum thresholding
//! on a GPU. The paper's WTU replaces it with a bucketed scan (Fig. 11):
//! after a preprocess pass (weighted sum, min/max, threshold), buckets
//! are visited from the highest score range downward; members of each
//! bucket are selected and their weighted mass accumulated; the scan
//! *exits early* once the threshold is crossed — typically after the
//! top ~16% of the mass-carrying elements, so most buckets are never
//! sorted at all.
//!
//! The selection produced is **identical** to the full-sort reference
//! in [`crate::wicsum`] (property-tested), only the work differs; the
//! recorded [`EarlyExitStats`] feed the WTU cycle model in
//! `vrex-hwsim`.

/// Work counters of one early-exit selection, consumed by the WTU
/// cycle model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EarlyExitStats {
    /// Buckets actually visited before exit.
    pub buckets_visited: usize,
    /// Total buckets the range was divided into.
    pub buckets_total: usize,
    /// Elements membership-tested across visited buckets (one
    /// comparator pass per element per visited bucket).
    pub elements_scanned: usize,
    /// Elements that entered the (small) within-bucket sort.
    pub elements_sorted: usize,
}

/// Runs WiCSum selection with the early-exit bucket dataflow.
///
/// Semantics match
/// [`wicsum_select_row`](crate::wicsum::wicsum_select_row) exactly;
/// see there for the contract. `n_buckets` controls the score-range
/// granularity (the paper's WTU uses a fixed small bucket count; 16–64
/// is typical).
///
/// # Panics
///
/// Panics on the same inputs as
/// [`wicsum_select_row`](crate::wicsum::wicsum_select_row), or if
/// `n_buckets == 0`.
pub fn early_exit_select_row(
    scores: &[f32],
    counts: &[usize],
    th_ratio: f32,
    n_buckets: usize,
) -> (Vec<usize>, EarlyExitStats) {
    assert!(n_buckets > 0, "need at least one bucket");
    assert_eq!(scores.len(), counts.len(), "scores/counts length mismatch");
    assert!(
        (0.0..=1.0).contains(&th_ratio),
        "th_ratio {th_ratio} outside [0,1]"
    );

    let mut stats = EarlyExitStats {
        buckets_total: n_buckets,
        ..EarlyExitStats::default()
    };

    // Preprocess step: weighted sum, min/max (one pass — the WTU's
    // multiplier + adder-tree + min/max units).
    let mut total = 0.0f64;
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    for (&s, &c) in scores.iter().zip(counts) {
        assert!(s >= 0.0, "WiCSum requires non-negative scores, got {s}");
        total += s as f64 * c as f64;
        min = min.min(s);
        max = max.max(s);
    }
    if total <= 0.0 || scores.is_empty() {
        return (Vec::new(), stats);
    }
    let threshold = total * th_ratio as f64;

    assert!(
        u32::try_from(scores.len()).is_ok(),
        "early exit indexes rows by u32"
    );
    let bucket_of = bucketing(min, max, n_buckets);

    // Bucket once: a counting sort of the elements by score range, so
    // bucket `b`'s members are `order[start[b]..start[b + 1]]`. The WTU
    // finds the same members with one comparator pass over the row per
    // visited bucket; `elements_scanned` below still counts those
    // passes.
    let buckets: Vec<usize> = scores.iter().map(|&s| bucket_of(s)).collect();
    let mut start = vec![0u32; n_buckets + 1];
    for &b in &buckets {
        start[b + 1] += 1;
    }
    for b in 0..n_buckets {
        start[b + 1] += start[b];
    }
    let mut next = start.clone();
    let mut order = vec![0u64; scores.len()];
    for (i, (&s, &b)) in scores.iter().zip(&buckets).enumerate() {
        let slot = &mut next[b];
        order[*slot as usize] = visit_key(s, i as u32);
        *slot += 1;
    }

    let mut selected = Vec::new();
    let mut acc = 0.0f64;
    // Token-selection step: highest bucket first.
    for b in (0..n_buckets).rev() {
        stats.buckets_visited += 1;
        stats.elements_scanned += scores.len();
        let members = &mut order[start[b] as usize..start[b + 1] as usize];
        if members.is_empty() {
            continue;
        }
        // Small within-bucket sort keeps the visit order globally
        // descending (exact equivalence with the full sort). The keys
        // are distinct, so an unstable sort gives the one order a
        // stable sort would.
        members.sort_unstable();
        stats.elements_sorted += members.len();
        for &key in members.iter() {
            let idx = key as u32 as usize;
            selected.push(idx);
            acc += scores[idx] as f64 * counts[idx] as f64;
            if acc > threshold {
                return (selected, stats); // early exit!
            }
        }
    }
    (selected, stats)
}

/// WiCSum's visit order as one integer: ascending keys are descending
/// scores, ties by ascending index. The score is non-negative, so its
/// bits order like its value once `-0.0` reads as `0.0`; they are
/// inverted into the high half, and the index fills the low half.
fn visit_key(score: f32, index: u32) -> u64 {
    let bits = match score.to_bits() {
        0x8000_0000 => 0,
        bits => bits,
    };
    u64::from(!bits) << 32 | u64::from(index)
}

/// The bucket of a score: `n_buckets` equal ranges over `[min, max]`,
/// everything in bucket 0 when the range is empty.
fn bucketing(min: f32, max: f32, n_buckets: usize) -> impl Fn(f32) -> usize {
    let width = (max - min) / n_buckets as f32;
    move |s: f32| -> usize {
        if width <= 0.0 {
            0
        } else {
            (((s - min) / width) as usize).min(n_buckets - 1)
        }
    }
}

/// WiCSum's visit order: descending score, ties by ascending index.
#[cfg(test)]
fn by_score_desc(scores: &[f32], a: usize, b: usize) -> std::cmp::Ordering {
    scores[b]
        .partial_cmp(&scores[a])
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.cmp(&b))
}

/// [`early_exit_select_row`]'s selection, asserted bit-exact against
/// the full-sort reference.
#[cfg(test)]
fn select_row_checked(
    scores: &[f32],
    counts: &[usize],
    th_ratio: f32,
    n_buckets: usize,
) -> Vec<usize> {
    let (fast, _) = early_exit_select_row(scores, counts, th_ratio, n_buckets);
    let reference = crate::wicsum::wicsum_select_row(scores, counts, th_ratio);
    assert_eq!(
        fast, reference,
        "early-exit selection diverged from reference"
    );
    fast
}

/// The early-exit dataflow as the WTU runs it: one membership scan of
/// the whole row per visited bucket. Kept as the differential oracle
/// for [`early_exit_select_row`]'s selection **and** work counters.
#[cfg(test)]
fn rescan_select_row(
    scores: &[f32],
    counts: &[usize],
    th_ratio: f32,
    n_buckets: usize,
) -> (Vec<usize>, EarlyExitStats) {
    let mut stats = EarlyExitStats {
        buckets_total: n_buckets,
        ..EarlyExitStats::default()
    };
    let mut total = 0.0f64;
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    for (&s, &c) in scores.iter().zip(counts) {
        total += s as f64 * c as f64;
        min = min.min(s);
        max = max.max(s);
    }
    if total <= 0.0 || scores.is_empty() {
        return (Vec::new(), stats);
    }
    let threshold = total * th_ratio as f64;
    let bucket_of = bucketing(min, max, n_buckets);
    let mut selected = Vec::new();
    let mut acc = 0.0f64;
    for b in (0..n_buckets).rev() {
        stats.buckets_visited += 1;
        stats.elements_scanned += scores.len();
        let mut members: Vec<usize> = (0..scores.len())
            .filter(|&i| bucket_of(scores[i]) == b)
            .collect();
        if members.is_empty() {
            continue;
        }
        members.sort_by(|&a, &bb| by_score_desc(scores, a, bb));
        stats.elements_sorted += members.len();
        for idx in members {
            selected.push(idx);
            acc += scores[idx] as f64 * counts[idx] as f64;
            if acc > threshold {
                return (selected, stats);
            }
        }
    }
    (selected, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wicsum::wicsum_select_row;
    use proptest::prelude::*;

    /// Selection and work counters equal the per-bucket rescan's.
    fn assert_matches_rescan(scores: &[f32], counts: &[usize], ratio: f32, n_buckets: usize) {
        assert_eq!(
            early_exit_select_row(scores, counts, ratio, n_buckets),
            rescan_select_row(scores, counts, ratio, n_buckets),
            "scores {scores:?} counts {counts:?} ratio {ratio} buckets {n_buckets}"
        );
    }

    #[test]
    fn one_pass_bucketing_matches_the_rescan_on_ties_and_flat_rows() {
        // Ties inside one bucket, across the top bucket edge, and signed
        // zeros that compare equal.
        let tied = [3.0, 1.0, 3.0, 0.0, 2.0, 3.0, -0.0, 1.0, 2.0];
        let counts = [2, 1, 1, 5, 3, 1, 4, 2, 1];
        for ratio in [0.0, 0.3, 0.5, 0.9, 1.0] {
            for n_buckets in [1, 2, 3, 8, 32] {
                assert_matches_rescan(&tied, &counts, ratio, n_buckets);
            }
        }
        // All-equal rows put everything in bucket 0 (zero-width range).
        let flat = [0.25f32; 12];
        for ratio in [0.0, 0.5, 0.99] {
            assert_matches_rescan(&flat, &[3; 12], ratio, 16);
        }
        // More buckets than elements: most visited buckets are empty
        // and still count one scan each.
        let sparse = [5.0, 0.5, 4.0];
        assert_matches_rescan(&sparse, &[1, 1, 1], 0.95, 64);
        let (_, stats) = early_exit_select_row(&sparse, &[1, 1, 1], 0.95, 64);
        assert_eq!(stats.buckets_visited, 64);
        assert_eq!(stats.elements_scanned, 64 * 3);
        assert_eq!(stats.elements_sorted, 3);
    }

    #[test]
    fn matches_reference_on_fig9_example() {
        let scores = [9.0, 8.0, 2.0, 1.0, 1.0];
        let counts = [1, 3, 2, 2, 3];
        let sel = select_row_checked(&scores, &counts, 0.8, 16);
        assert_eq!(sel, vec![0, 1, 2]);
    }

    #[test]
    fn early_exit_skips_low_buckets_on_concentrated_scores() {
        // One dominant score: the top bucket alone crosses the
        // threshold, so only 1 bucket is visited out of 32.
        let mut scores = vec![0.01f32; 256];
        scores[17] = 1000.0;
        let counts = vec![1usize; 256];
        let (sel, stats) = early_exit_select_row(&scores, &counts, 0.8, 32);
        assert_eq!(sel, vec![17]);
        assert_eq!(stats.buckets_visited, 1);
        assert_eq!(stats.elements_sorted, 1);
    }

    #[test]
    fn flat_scores_visit_everything() {
        let scores = vec![1.0f32; 16];
        let counts = vec![1usize; 16];
        let (sel, stats) = early_exit_select_row(&scores, &counts, 0.9, 8);
        assert_eq!(sel.len(), 15); // > 90% of 16 equal masses
        assert!(stats.buckets_visited >= 1);
    }

    #[test]
    fn zero_mass_selects_nothing() {
        let (sel, _) = early_exit_select_row(&[0.0, 0.0], &[1, 1], 0.5, 8);
        assert!(sel.is_empty());
    }

    #[test]
    fn single_element_is_selected() {
        let (sel, _) = early_exit_select_row(&[3.0], &[4], 0.5, 8);
        assert_eq!(sel, vec![0]);
    }

    #[test]
    fn equal_scores_tie_break_matches_reference() {
        let scores = [2.0, 2.0, 2.0, 2.0];
        let counts = [1, 2, 3, 4];
        select_row_checked(&scores, &counts, 0.55, 4);
    }

    proptest! {
        /// The hardware dataflow must reproduce the reference selection
        /// exactly for arbitrary score/count rows, thresholds, and
        /// bucket counts.
        #[test]
        fn early_exit_equals_full_sort(
            pairs in proptest::collection::vec((0.0f32..100.0, 1usize..50), 0..64),
            ratio in 0.0f32..1.0,
            n_buckets in 1usize..64,
        ) {
            let scores: Vec<f32> = pairs.iter().map(|p| p.0).collect();
            let counts: Vec<usize> = pairs.iter().map(|p| p.1).collect();
            let (fast, stats) = early_exit_select_row(&scores, &counts, ratio, n_buckets);
            let reference = wicsum_select_row(&scores, &counts, ratio);
            prop_assert_eq!(&fast, &reference);
            prop_assert!(stats.buckets_visited <= n_buckets);
            prop_assert!(stats.elements_sorted <= scores.len());
            prop_assert_eq!((fast, stats), rescan_select_row(&scores, &counts, ratio, n_buckets));
        }

        /// Quantised scores force ties within and across buckets; the
        /// one-pass bucketing must still match the rescan exactly,
        /// work counters included.
        #[test]
        fn one_pass_bucketing_equals_the_rescan_under_ties(
            pairs in proptest::collection::vec((0u8..6, 1usize..8), 0..48),
            ratio in 0.0f32..1.0,
            n_buckets in 1usize..80,
        ) {
            let scores: Vec<f32> = pairs.iter().map(|p| p.0 as f32 * 0.5).collect();
            let counts: Vec<usize> = pairs.iter().map(|p| p.1).collect();
            prop_assert_eq!(
                early_exit_select_row(&scores, &counts, ratio, n_buckets),
                rescan_select_row(&scores, &counts, ratio, n_buckets)
            );
        }

        /// Early exit must never *increase* work beyond one full pass
        /// of bucketing plus one sort of every element.
        #[test]
        fn work_is_bounded(
            scores in proptest::collection::vec(0.0f32..10.0, 1..128),
            ratio in 0.0f32..1.0,
        ) {
            let counts = vec![1usize; scores.len()];
            let (_, stats) = early_exit_select_row(&scores, &counts, ratio, 32);
            prop_assert!(stats.elements_scanned <= scores.len() * 32);
            prop_assert!(stats.elements_sorted <= scores.len());
        }
    }
}
