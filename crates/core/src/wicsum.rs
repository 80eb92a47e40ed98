//! WiCSum thresholding: weighted-cumulative-sum dynamic selection.
//!
//! Implements Equations (1)–(3) of the paper. For one score row over
//! clusters with token counts `TC`:
//!
//! * `Sum = Σ_j score_j · TC_j`               (Eq. 1)
//! * `Th_wics = Sum · Th_r-wics`              (Eq. 2)
//! * visit clusters in descending score order, accumulating
//!   `score · TC` until the accumulation exceeds `Th_wics`; everything
//!   visited is selected                      (Eq. 3)
//!
//! Unlike fixed top-k this adapts the selected count to the score
//! distribution: a concentrated row selects a handful of clusters, a
//! flat row selects many — which is exactly the per-layer/per-head
//! variability Fig. 20 shows.
//!
//! Scores must be non-negative (the caller applies a monotone
//! non-negative transform such as the exponentiated, max-shifted
//! attention score — see `resv`).

/// Selects cluster indices for one score row.
///
/// Returns indices in the order visited (descending score, ties by
/// ascending index). Returns an empty selection when the total
/// weighted mass is zero.
///
/// # Panics
///
/// Panics if `scores.len() != counts.len()`, if a score is negative,
/// or if `th_ratio` is outside `[0, 1]`.
pub fn wicsum_select_row(scores: &[f32], counts: &[usize], th_ratio: f32) -> Vec<usize> {
    assert_eq!(scores.len(), counts.len(), "scores/counts length mismatch");
    assert!(
        (0.0..=1.0).contains(&th_ratio),
        "th_ratio {th_ratio} outside [0,1]"
    );
    let total: f64 = scores
        .iter()
        .zip(counts)
        .map(|(&s, &c)| {
            assert!(s >= 0.0, "WiCSum requires non-negative scores, got {s}");
            s as f64 * c as f64
        })
        .sum();
    if total <= 0.0 {
        return Vec::new();
    }
    let threshold = total * th_ratio as f64;

    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    let mut selected = Vec::new();
    let mut acc = 0.0f64;
    for idx in order {
        selected.push(idx);
        acc += scores[idx] as f64 * counts[idx] as f64;
        if acc > threshold {
            break;
        }
    }
    selected
}

/// The weighted mass fraction actually captured by a selection —
/// used in tests to verify the threshold contract.
// vrex-lint: allow(unreached-pub) — oracle of crates/core/tests/props.rs
pub fn captured_fraction(scores: &[f32], counts: &[usize], selected: &[usize]) -> f64 {
    let total: f64 = scores
        .iter()
        .zip(counts)
        .map(|(&s, &c)| s as f64 * c as f64)
        .sum();
    if total <= 0.0 {
        return 1.0;
    }
    let got: f64 = selected
        .iter()
        .map(|&i| scores[i] as f64 * counts[i] as f64)
        .sum();
    got / total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fig9_worked_example() {
        // Fig. 9, first row: Score_cluster = [9,8,2,1,1] after sorting,
        // token counts [1,3,2,2,3] (aligned with sorted scores),
        // weighted sum = 9+24+4+2+3 = 42... the figure instead uses
        // Thr-wics = 80% with running sums 9,33,37 — crossing at the
        // third element. We reproduce the *mechanism* on those numbers.
        let scores = [9.0, 8.0, 2.0, 1.0, 1.0];
        let counts = [1, 3, 2, 2, 3];
        // total = 42, threshold = 33.6; 9 -> 33 -> 37 crosses at idx 2.
        let sel = wicsum_select_row(&scores, &counts, 0.8);
        assert_eq!(sel, vec![0, 1, 2]);
    }

    #[test]
    fn concentrated_row_selects_few() {
        let scores = [100.0, 0.1, 0.1, 0.1, 0.1];
        let counts = [1usize; 5];
        let sel = wicsum_select_row(&scores, &counts, 0.8);
        assert_eq!(sel, vec![0]);
    }

    #[test]
    fn flat_row_selects_many() {
        let scores = [1.0f32; 10];
        let counts = [1usize; 10];
        let sel = wicsum_select_row(&scores, &counts, 0.8);
        // Need strictly more than 80% of mass: 9 of 10 equal scores.
        assert_eq!(sel.len(), 9);
    }

    #[test]
    fn token_counts_weight_the_selection() {
        // Same scores, but index 1 represents a huge cluster — its
        // weighted mass lets the accumulation cross sooner.
        let scores = [5.0, 4.0, 3.0, 2.0];
        let light = wicsum_select_row(&scores, &[1, 1, 1, 1], 0.6);
        let heavy = wicsum_select_row(&scores, &[1, 100, 1, 1], 0.6);
        assert!(heavy.len() <= light.len());
        assert!(heavy.contains(&1));
    }

    #[test]
    fn selection_meets_threshold_contract() {
        let scores = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let counts = [2, 7, 1, 8, 2, 8, 1, 8];
        for ratio in [0.1, 0.3, 0.5, 0.8, 0.95] {
            let sel = wicsum_select_row(&scores, &counts, ratio);
            let frac = captured_fraction(&scores, &counts, &sel);
            assert!(
                frac > ratio as f64,
                "ratio {ratio}: captured {frac} not above threshold"
            );
        }
    }

    #[test]
    fn zero_mass_selects_nothing() {
        assert!(wicsum_select_row(&[0.0, 0.0], &[3, 4], 0.5).is_empty());
        assert!(wicsum_select_row(&[], &[], 0.5).is_empty());
    }

    #[test]
    fn ratio_zero_selects_single_top_cluster() {
        let sel = wicsum_select_row(&[1.0, 9.0, 2.0], &[1, 1, 1], 0.0);
        assert_eq!(sel, vec![1]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_scores_are_rejected() {
        let _ = wicsum_select_row(&[1.0, -0.5], &[1, 1], 0.5);
    }

    #[test]
    fn monotone_rows_select_a_hotness_prefix() {
        // The cluster-granular KV tier (`vrex_system::memory`) keys
        // each session's clusters by coldness rank and models the
        // spilled set as a contiguous cold prefix. That model is
        // exactly WiCSum's behaviour on a rank-sorted row: when
        // scores are monotone decreasing (distinct), the selection is
        // the hottest prefix [0, k) — never a cluster skipped in
        // favour of a colder one — so "protect the top ceil(ratio * n)
        // ranks" and "run WiCSum over the rank-sorted masses" agree.
        let scores = [13.0f32, 8.0, 5.0, 3.0, 2.0, 1.0, 0.5];
        let counts = [4usize, 4, 4, 4, 4, 4, 4];
        for ratio in [0.0, 0.2, 0.327, 0.5, 0.8, 0.95] {
            let sel = wicsum_select_row(&scores, &counts, ratio);
            let prefix: Vec<usize> = (0..sel.len()).collect();
            assert_eq!(sel, prefix, "ratio {ratio}: selection is not a rank prefix");
        }
        // And the prefix length is monotone in the threshold ratio.
        let mut last = 0;
        for ratio in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let len = wicsum_select_row(&scores, &counts, ratio).len();
            assert!(len >= last, "ratio {ratio}: prefix shrank {last} -> {len}");
            last = len;
        }
    }
}
