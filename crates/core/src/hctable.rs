//! The hash-cluster (HC) table: spatio-temporal token clusters.
//!
//! One HC table exists per (layer, KV head). Each entry groups cached
//! tokens whose hash-bit signatures are within `Th_hd` of the cluster's
//! representative signature. The representative key is the running
//! mean of member keys (the paper's `Key_cluster`), and its hash bits
//! are re-derived from that mean whenever the cluster absorbs a token,
//! matching the "Update" arrow of Fig. 8.
//!
//! The table keeps the selection's operands current as tokens arrive:
//! the representatives as one `(n_clusters × dim)` matrix and the member
//! counts as one slice. A join rewrites one row and one count; a new
//! cluster appends one of each.

use vrex_tensor::Matrix;

use crate::hashbit::{HashBitVector, HyperplaneSet};

/// One cluster of similar tokens. Its representative key is its row of
/// [`HcTable::representatives`].
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Hash bits of the representative key.
    rep_bits: HashBitVector,
    /// Cache-token indices of the members, ascending.
    token_indices: Vec<usize>,
}

impl Cluster {
    /// The representative's hash-bit signature.
    pub fn rep_bits(&self) -> &HashBitVector {
        &self.rep_bits
    }

    /// Member token indices (ascending).
    pub fn token_indices(&self) -> &[usize] {
        &self.token_indices
    }

    /// Number of member tokens (`TC` in the paper's equations).
    // vrex-lint: allow(unreached-pub) — oracle of crates/core/tests/props.rs
    pub fn token_count(&self) -> usize {
        self.token_indices.len()
    }
}

/// Statistics of the clustering work done, used by the hardware cost
/// model (HCU cycles scale with Hamming comparisons).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusteringStats {
    /// Total tokens inserted.
    pub tokens_inserted: u64,
    /// Total token-vs-cluster Hamming comparisons performed.
    pub hamming_comparisons: u64,
    /// Clusters created (tokens that matched nothing).
    pub clusters_created: u64,
}

/// The hash-cluster table for one (layer, KV head).
#[derive(Debug, Clone)]
pub struct HcTable {
    clusters: Vec<Cluster>,
    /// Row `c` is cluster `c`'s running-mean key (`Key_cluster`).
    reps: Matrix,
    /// Entry `c` is cluster `c`'s member count.
    counts: Vec<usize>,
    hamming_threshold: u32,
    n_tokens: usize,
    stats: ClusteringStats,
}

impl HcTable {
    /// Creates an empty table with clustering threshold `Th_hd`.
    pub fn new(hamming_threshold: u32) -> Self {
        Self {
            clusters: Vec::new(),
            reps: Matrix::default(),
            counts: Vec::new(),
            hamming_threshold,
            n_tokens: 0,
            stats: ClusteringStats::default(),
        }
    }

    /// Number of clusters.
    pub fn n_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Number of clustered tokens.
    pub fn n_tokens(&self) -> usize {
        self.n_tokens
    }

    /// Mean tokens per cluster (`0.0` when empty). The paper reports an
    /// average of 32 tokens per cluster on COIN.
    pub fn mean_tokens_per_cluster(&self) -> f64 {
        if self.clusters.is_empty() {
            0.0
        } else {
            self.n_tokens as f64 / self.clusters.len() as f64
        }
    }

    /// The clusters.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Clustering-work statistics.
    pub fn stats(&self) -> ClusteringStats {
        self.stats
    }

    /// Inserts one token (key row + its absolute cache index).
    ///
    /// The token joins the first existing cluster whose representative
    /// signature is within the Hamming threshold (updating the running
    /// mean and re-hashing the representative); otherwise it founds a
    /// new cluster.
    ///
    /// # Panics
    ///
    /// Panics if `key.len() != hyperplanes.dim()`.
    pub fn insert_token(&mut self, key: &[f32], token_index: usize, hyperplanes: &HyperplaneSet) {
        assert_eq!(key.len(), hyperplanes.dim(), "key dimension mismatch");
        let bits = hyperplanes.hash(key);
        self.stats.tokens_inserted += 1;
        for (c, cluster) in self.clusters.iter_mut().enumerate() {
            self.stats.hamming_comparisons += 1;
            if bits.hamming_distance(&cluster.rep_bits) < self.hamming_threshold {
                // Running-mean update of the representative key.
                let n = self.counts[c] as f32;
                let rep = self.reps.row_mut(c);
                for (r, &k) in rep.iter_mut().zip(key) {
                    *r = (*r * n + k) / (n + 1.0);
                }
                cluster.rep_bits = hyperplanes.hash(rep);
                cluster.token_indices.push(token_index);
                self.counts[c] += 1;
                self.n_tokens += 1;
                return;
            }
        }
        self.clusters.push(Cluster {
            rep_bits: bits,
            token_indices: vec![token_index],
        });
        self.reps.push_row(key);
        self.counts.push(1);
        self.stats.clusters_created += 1;
        self.n_tokens += 1;
    }

    /// Inserts every row of `keys`, with row `i` having cache index
    /// `start_index + i`.
    pub fn insert_block(&mut self, keys: &Matrix, start_index: usize, hp: &HyperplaneSet) {
        for i in 0..keys.rows() {
            self.insert_token(keys.row(i), start_index + i, hp);
        }
    }

    /// Representative keys as an `(n_clusters × dim)` matrix, row `c`
    /// for cluster `c` (`0 × 0` while empty) — the `Key_cluster`
    /// operand of the `Q × Key_clusterᵀ` score computation.
    pub fn representatives(&self) -> &Matrix {
        &self.reps
    }

    /// Token counts per cluster, aligned with [`Self::representatives`].
    pub fn token_counts(&self) -> &[usize] {
        &self.counts
    }

    /// The member tokens below `end` of the given clusters, ascending
    /// and de-duplicated: the history a cluster selection fetches.
    ///
    /// `marks` is scratch the caller keeps between calls, so no call
    /// allocates one; it must hold only `false` on entry, and does on
    /// return.
    ///
    /// # Panics
    ///
    /// Panics if a cluster index is out of range.
    pub fn tokens_below(
        &self,
        clusters: impl IntoIterator<Item = usize>,
        end: usize,
        marks: &mut Vec<bool>,
    ) -> Vec<usize> {
        if marks.len() < end {
            marks.resize(end, false);
        }
        let mut n = 0;
        for c in clusters {
            for &t in &self.clusters[c].token_indices {
                if t < end && !marks[t] {
                    marks[t] = true;
                    n += 1;
                }
            }
        }
        let mut tokens = Vec::with_capacity(n);
        for (t, mark) in marks[..end].iter_mut().enumerate() {
            if *mark {
                *mark = false;
                tokens.push(t);
            }
        }
        tokens
    }

    /// Verifies the partition invariants (each inserted token index in
    /// exactly one cluster; counts consistent). Panics on violation.
    /// Intended for tests and property checks.
    // vrex-lint: allow(unreached-pub) — oracle of crates/core/tests/props.rs
    pub fn assert_partition(&self) {
        let mut seen = std::collections::BTreeSet::new();
        let mut total = 0;
        for c in &self.clusters {
            for &t in &c.token_indices {
                assert!(seen.insert(t), "token {t} appears in two clusters");
                total += 1;
            }
        }
        assert_eq!(total, self.n_tokens, "token count mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrex_tensor::rng::{gaussian_matrix, seeded_rng};

    fn hp(dim: usize) -> HyperplaneSet {
        HyperplaneSet::new(dim, 32, 99)
    }

    /// Every member of the picked clusters: [`HcTable::tokens_below`]
    /// with the cut past the largest token, checking that it hands its
    /// scratch back cleared.
    fn tokens_of_clusters(t: &HcTable, picks: &[usize]) -> Vec<usize> {
        let end = t
            .clusters()
            .iter()
            .flat_map(|c| c.token_indices().iter().map(|&i| i + 1))
            .max()
            .unwrap_or(0);
        let mut marks = Vec::new();
        let tokens = t.tokens_below(picks.iter().copied(), end, &mut marks);
        assert!(marks.iter().all(|&m| !m), "marks left set");
        tokens
    }

    #[test]
    fn identical_tokens_form_one_cluster() {
        let hp = hp(16);
        let mut t = HcTable::new(7);
        let key: Vec<f32> = (0..16).map(|i| (i as f32).cos()).collect();
        for i in 0..5 {
            t.insert_token(&key, i, &hp);
        }
        assert_eq!(t.n_clusters(), 1);
        assert_eq!(t.n_tokens(), 5);
        assert_eq!(t.clusters()[0].token_count(), 5);
        t.assert_partition();
    }

    #[test]
    fn orthogonal_tokens_form_separate_clusters() {
        let hp = hp(16);
        let mut t = HcTable::new(7);
        let mut rng = seeded_rng(3);
        let keys = gaussian_matrix(&mut rng, 6, 16, 1.0);
        t.insert_block(&keys, 0, &hp);
        // Random Gaussian keys are near-orthogonal: expect ~1 cluster/token.
        assert!(t.n_clusters() >= 4, "got only {} clusters", t.n_clusters());
        t.assert_partition();
    }

    #[test]
    fn representative_is_mean_of_members() {
        let hp = hp(8);
        let mut t = HcTable::new(33); // threshold > n_bits: everything clusters
        t.insert_token(&[2.0; 8], 0, &hp);
        t.insert_token(&[4.0; 8], 1, &hp);
        assert_eq!(t.n_clusters(), 1);
        for &v in t.representatives().row(0) {
            assert!((v - 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn tokens_of_clusters_unions_and_sorts() {
        let hp = hp(8);
        let mut t = HcTable::new(33);
        t.insert_token(&[1.0; 8], 5, &hp);
        t.insert_token(&[1.0; 8], 2, &hp);
        let toks = tokens_of_clusters(&t, &[0]);
        assert_eq!(toks, vec![2, 5]);
    }

    #[test]
    fn tokens_of_clusters_equals_sort_and_dedup() {
        // Out-of-order, non-contiguous indices: one cluster per token
        // (threshold 0), a few shared clusters (12), one cluster (33).
        let hp = hp(8);
        let mut rng = seeded_rng(12);
        let keys = gaussian_matrix(&mut rng, 9, 8, 1.0);
        let indices = [41, 3, 17, 90, 4, 62, 8, 25, 0];
        for threshold in [0, 12, 33] {
            let mut t = HcTable::new(threshold);
            for (r, &i) in indices.iter().enumerate() {
                t.insert_token(keys.row(r), i, &hp);
            }
            let n = t.n_clusters();
            let picks: [&[usize]; 4] = [&[], &[n - 1, 0], &[0, 0], &[n - 1]];
            let all: Vec<usize> = (0..n).rev().collect();
            for pick in picks.into_iter().chain([all.as_slice()]) {
                let mut want: Vec<usize> = pick
                    .iter()
                    .flat_map(|&c| t.clusters()[c].token_indices().iter().copied())
                    .collect();
                want.sort_unstable();
                want.dedup();
                assert_eq!(tokens_of_clusters(&t, pick), want, "threshold {threshold}");
            }
        }
    }

    #[test]
    fn stats_count_comparisons_and_creations() {
        let hp = hp(8);
        let mut t = HcTable::new(0); // nothing ever clusters (distance < 0 impossible)
        t.insert_token(&[1.0; 8], 0, &hp);
        t.insert_token(&[1.0; 8], 1, &hp);
        t.insert_token(&[1.0; 8], 2, &hp);
        let s = t.stats();
        assert_eq!(s.tokens_inserted, 3);
        assert_eq!(s.clusters_created, 3);
        // token 1 compared against 1 cluster, token 2 against 2.
        assert_eq!(s.hamming_comparisons, 3);
    }

    #[test]
    fn representatives_matrix_tracks_clusters() {
        let hp = hp(8);
        let mut t = HcTable::new(0);
        t.insert_token(&[1.0; 8], 0, &hp);
        t.insert_token(&[2.0; 8], 1, &hp);
        let reps = t.representatives().clone();
        assert_eq!(reps.rows(), 2);
        assert_eq!(reps.row(1), &[2.0; 8]);
        assert_eq!(t.token_counts(), &[1, 1]);
    }

    #[test]
    fn video_like_keys_compress_well() {
        // Slowly drifting keys should yield far fewer clusters than
        // tokens — the property Fig. 8's "clustering overhead" argument
        // relies on.
        let dim = 32;
        let hp = HyperplaneSet::new(dim, 32, 42);
        let mut t = HcTable::new(7);
        let mut rng = seeded_rng(8);
        let base = gaussian_matrix(&mut rng, 4, dim, 1.0);
        let mut idx = 0;
        for _frame in 0..20 {
            let noise = gaussian_matrix(&mut rng, 4, dim, 0.03);
            let keys = &base + &noise;
            t.insert_block(&keys, idx, &hp);
            idx += 4;
        }
        assert_eq!(t.n_tokens(), 80);
        assert!(
            t.n_clusters() <= 16,
            "80 near-duplicate tokens produced {} clusters",
            t.n_clusters()
        );
        assert!(t.mean_tokens_per_cluster() >= 5.0);
        t.assert_partition();
    }
}
