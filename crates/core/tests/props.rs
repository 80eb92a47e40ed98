//! Property tests for ReSV's core invariants.

use proptest::prelude::*;
use vrex_core::hashbit::{HashBitVector, HyperplaneSet};
use vrex_core::hctable::HcTable;
use vrex_core::wicsum::{captured_fraction, wicsum_select_row};
use vrex_tensor::rng::{gaussian_matrix, seeded_rng};

proptest! {
    /// Hamming distance is a metric: identity, symmetry, triangle
    /// inequality — the properties the HCU's clustering relies on.
    #[test]
    fn hamming_distance_is_a_metric(
        a in proptest::collection::vec(any::<bool>(), 32),
        b in proptest::collection::vec(any::<bool>(), 32),
        c in proptest::collection::vec(any::<bool>(), 32),
    ) {
        let (va, vb, vc) = (
            HashBitVector::from_bits(&a),
            HashBitVector::from_bits(&b),
            HashBitVector::from_bits(&c),
        );
        prop_assert_eq!(va.hamming_distance(&va), 0);
        prop_assert_eq!(va.hamming_distance(&vb), vb.hamming_distance(&va));
        prop_assert!(
            va.hamming_distance(&vc) <= va.hamming_distance(&vb) + vb.hamming_distance(&vc)
        );
    }

    /// Every inserted token lands in exactly one cluster; the counts and
    /// representatives kept current at insert equal a rebuild from the
    /// clusters, bit for bit.
    #[test]
    fn hc_table_is_a_partition(
        n_tokens in 1usize..80,
        threshold in 0u32..33,
        seed in 0u64..500,
    ) {
        let hp = HyperplaneSet::new(16, 32, seed);
        let keys = gaussian_matrix(&mut seeded_rng(seed + 1), n_tokens, 16, 1.0);
        let mut table = HcTable::new(threshold);
        table.insert_block(&keys, 100, &hp); // arbitrary start index
        table.assert_partition();
        prop_assert_eq!(table.n_tokens(), n_tokens);
        prop_assert!(table.n_clusters() >= 1);
        prop_assert!(table.n_clusters() <= n_tokens);
        let counts = table.token_counts();
        prop_assert_eq!(counts.iter().sum::<usize>(), n_tokens);
        // Rebuild: each count from the members, each representative by
        // replaying the running mean over the members' keys in arrival
        // order.
        let reps = table.representatives();
        prop_assert_eq!((reps.rows(), reps.cols()), (table.n_clusters(), 16));
        prop_assert_eq!(counts.len(), table.n_clusters());
        for (c, cluster) in table.clusters().iter().enumerate() {
            prop_assert_eq!(counts[c], cluster.token_count());
            let members = cluster.token_indices();
            let mut mean = keys.row(members[0] - 100).to_vec();
            for (n, &t) in members.iter().enumerate().skip(1) {
                let n = n as f32;
                for (m, &k) in mean.iter_mut().zip(keys.row(t - 100)) {
                    *m = (*m * n + k) / (n + 1.0);
                }
            }
            let want: Vec<u32> = mean.iter().map(|v| v.to_bits()).collect();
            let got: Vec<u32> = reps.row(c).iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, want, "cluster {}", c);
        }
        // Threshold 0 ⇒ no clustering at all.
        if threshold == 0 {
            prop_assert_eq!(table.n_clusters(), n_tokens);
        }
        // All-inclusive threshold ⇒ one cluster.
        if threshold > 32 {
            prop_assert_eq!(table.n_clusters(), 1);
        }
    }

    /// `tokens_below` returns exactly the members under the cut,
    /// sorted and de-duplicated, and hands its scratch back cleared.
    #[test]
    fn cluster_token_lookup_is_exact(
        n_tokens in 1usize..40,
        cut in 0usize..40,
        seed in 0u64..500,
    ) {
        let hp = HyperplaneSet::new(8, 16, seed);
        let keys = gaussian_matrix(&mut seeded_rng(seed), n_tokens, 8, 1.0);
        let mut table = HcTable::new(5);
        table.insert_block(&keys, 0, &hp);
        let n = table.n_clusters();
        let mut marks = Vec::new();
        let tokens = table.tokens_below(0..n, n_tokens, &mut marks);
        prop_assert_eq!(tokens, (0..n_tokens).collect::<Vec<_>>());
        // Repeated clusters, and a cut inside the table.
        let cut = cut.min(n_tokens);
        let tokens = table.tokens_below((0..n).chain(0..n), cut, &mut marks);
        prop_assert_eq!(tokens, (0..cut).collect::<Vec<_>>());
        prop_assert!(marks.iter().all(|&m| !m));
    }

    /// WiCSum always captures strictly more than the threshold fraction
    /// of the weighted mass (when mass exists), and never selects
    /// duplicates.
    #[test]
    fn wicsum_contract(
        pairs in proptest::collection::vec((0.0f32..50.0, 1usize..40), 1..64),
        ratio in 0.0f32..0.999,
    ) {
        let scores: Vec<f32> = pairs.iter().map(|p| p.0).collect();
        let counts: Vec<usize> = pairs.iter().map(|p| p.1).collect();
        let total: f64 = scores.iter().zip(&counts).map(|(&s, &c)| s as f64 * c as f64).sum();
        let sel = wicsum_select_row(&scores, &counts, ratio);
        if total > 0.0 {
            let frac = captured_fraction(&scores, &counts, &sel);
            prop_assert!(frac > ratio as f64, "captured {frac} <= {ratio}");
            // Minimality: dropping the last-selected (lowest-score)
            // element must fall to or below the threshold.
            if sel.len() > 1 {
                let without_last = &sel[..sel.len() - 1];
                let frac2 = captured_fraction(&scores, &counts, without_last);
                prop_assert!(frac2 <= ratio as f64 + 1e-9,
                    "selection not minimal: {frac2} still above {ratio}");
            }
        }
        let mut dedup = sel.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), sel.len());
    }

    /// Selection grows (weakly) with the threshold ratio.
    #[test]
    fn wicsum_is_monotone_in_ratio(
        pairs in proptest::collection::vec((0.0f32..50.0, 1usize..40), 1..64),
        r1 in 0.0f32..0.9,
        delta in 0.0f32..0.09,
    ) {
        let scores: Vec<f32> = pairs.iter().map(|p| p.0).collect();
        let counts: Vec<usize> = pairs.iter().map(|p| p.1).collect();
        let s1 = wicsum_select_row(&scores, &counts, r1).len();
        let s2 = wicsum_select_row(&scores, &counts, r1 + delta).len();
        prop_assert!(s2 >= s1);
    }

    /// Random-hyperplane hashing concentration: duplicating a key gives
    /// Hamming 0; mild noise keeps distance small relative to the bit
    /// width on average.
    #[test]
    fn hashing_is_stable_under_small_perturbation(seed in 0u64..200) {
        let dim = 64;
        let hp = HyperplaneSet::new(dim, 64, seed);
        let base = gaussian_matrix(&mut seeded_rng(seed + 9), 1, dim, 1.0);
        prop_assert_eq!(hp.hash(base.row(0)).hamming_distance(&hp.hash(base.row(0))), 0);
        let noise = gaussian_matrix(&mut seeded_rng(seed + 10), 1, dim, 0.02);
        let near = &base + &noise;
        let d = hp.hash(base.row(0)).hamming_distance(&hp.hash(near.row(0)));
        prop_assert!(d <= 16, "2% noise flipped {d}/64 bits");
    }
}
