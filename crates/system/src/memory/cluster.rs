//! Cluster-granular cold-data movement: hash clusters, ranked by the
//! previous step's WiCSum mass, are the unit of spill, promotion and
//! restore. Spill victims are the coldest *clusters* of any session,
//! promotions return the hottest, and a restore moves only the
//! speculated-plus-mispredicted cluster set.

use vrex_hwsim::tier::MemTier;
use vrex_retrieval::prefetch::{ClusterPrefetchRequest, PrefetchPolicy};

use super::{tier_bytes_mut, tier_index, MigrationTask, RestorePlan, TieredKvManager};

/// Per-session hash-cluster residency: which clusters sit below the
/// device tier, as run-length [`ClusterRun`]s over **coldness rank**
/// (0 = coldest cluster by the previous step's WiCSum mass). The
/// spilled set is always the contiguous rank prefix `[0, s)`: demotion
/// appends the next-coldest ranks, promotion pops the hottest spilled
/// ranks, so candidate discovery is O(1), every operation costs
/// O(runs) rather than O(clusters), and iteration order is the ranking
/// itself. Bytes are frozen at demotion time; the session's device
/// bytes are the residency total minus the spilled clusters' bytes.
#[derive(Debug, Clone, Default)]
pub(super) struct ClusterState {
    /// Spilled clusters, coldest run first: run `i` covers the ranks
    /// right after run `i - 1`'s, so the contiguous-prefix invariant
    /// is the `Vec` itself. Adjacent runs never share both tier and
    /// size (they merge).
    spilled: Vec<ClusterRun>,
    /// Steps this session has committed — rotates which tail clusters
    /// the misprediction model touches, so demand fetches are
    /// deterministic without a PRNG.
    pub(super) step_seq: u64,
}

/// `count` spilled clusters adjacent in coldness rank that share a
/// tier and a frozen size.
#[derive(Debug, Clone, Copy)]
struct ClusterRun {
    tier: MemTier,
    bytes: u64,
    count: u64,
}

impl ClusterState {
    /// The runs as `(tier, bytes, count)`, coldest first.
    #[cfg(test)]
    pub(super) fn runs(&self) -> Vec<(MemTier, u64, u64)> {
        let runs = self.spilled.iter();
        runs.map(|r| (r.tier, r.bytes, r.count)).collect()
    }

    /// Spills the next-coldest `count` ranks, `bytes` each, to `tier`.
    pub(super) fn push(&mut self, tier: MemTier, bytes: u64, count: u64) {
        match self.spilled.last_mut() {
            Some(last) if (last.tier, last.bytes) == (tier, bytes) => last.count += count,
            _ => self.spilled.push(ClusterRun { tier, bytes, count }),
        }
    }

    /// Promotes the hottest `count` ranks of the hottest run.
    pub(super) fn pop(&mut self, count: u64) {
        if let Some(last) = self.spilled.last_mut() {
            last.count -= count;
            if last.count == 0 {
                self.spilled.pop();
            }
        }
    }

    /// Adds the spilled clusters at ranks `[lo, hi)` to `bytes` (per
    /// tier) and returns how many there are.
    fn sum_ranks(&self, lo: u64, hi: u64, bytes: &mut [u64; 3]) -> u64 {
        let mut start = 0u64;
        let mut clusters = 0u64;
        for run in &self.spilled {
            if start >= hi {
                break;
            }
            let end = start + run.count;
            let overlap = end.min(hi).saturating_sub(start.max(lo));
            bytes[tier_index(run.tier)] += overlap * run.bytes;
            clusters += overlap;
            start = end;
        }
        clusters
    }
}

/// Cluster-mode knobs, fixed per manager instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct ClusterModeCfg {
    /// Bytes per hash cluster (the method's fetch chunk).
    pub(super) cluster_bytes: u64,
    /// Fraction of each session's clusters (the WiCSum-hot prefix)
    /// protected from first-pass spill.
    protected_ratio: f64,
}

/// Ceiling on tracked clusters per session. Token-granular methods
/// (4 KiB fetch chunks on multi-GiB sessions) would otherwise mean
/// millions of per-cluster entries and O(clusters) restore planning
/// every step; above the cap, adjacent fetch chunks are DMA-chained
/// into one migration granule. Methods whose chunk already keeps a
/// session under the cap (e.g. ReSV frame clusters) are unaffected.
const MAX_CLUSTERS_PER_SESSION: u64 = 16384;

impl ClusterModeCfg {
    /// Effective migration granule for a session of `total` bytes:
    /// the method's fetch chunk, chained up just enough to respect
    /// [`MAX_CLUSTERS_PER_SESSION`].
    fn granule(&self, total: u64) -> u64 {
        self.cluster_bytes
            .max(total.div_ceil(MAX_CLUSTERS_PER_SESSION))
    }
}

#[cfg(test)]
pub(super) mod per_cluster;

impl TieredKvManager {
    /// Enables cluster-granular cold-data tracking: resident demand is
    /// modelled as `ceil(total / cluster_bytes)` hash clusters (chained
    /// into coarser granules past 16384 clusters per session) ranked
    /// by the previous step's WiCSum mass, spill victims are the
    /// coldest *clusters* of any session (the hottest
    /// `ceil(protected_ratio · n)` clusters of each session are
    /// protected from first-pass eviction), and restores move only the
    /// speculated-plus-mispredicted cluster set. Must be called before
    /// any stream is admitted; migrations are priced in cluster-sized
    /// chunks from here on.
    pub fn with_cluster_mode(mut self, cluster_bytes: u64, protected_ratio: f64) -> Self {
        debug_assert!(
            self.sessions.is_empty(),
            "enable cluster mode before admitting streams"
        );
        self.cluster_mode = Some(ClusterModeCfg {
            cluster_bytes: cluster_bytes.max(1),
            protected_ratio: protected_ratio.clamp(0.0, 1.0),
        });
        self
    }

    /// One stream's spilled clusters as `(coldness_rank, tier, bytes)`
    /// in ascending rank order (coldest first). Empty when the stream
    /// is fully device-resident or cluster mode is off. This expands
    /// the run-length state one element per cluster — O(clusters), up
    /// to 16384 per session — and is meant for tests and inspection;
    /// the manager itself never walks clusters.
    // vrex-lint: allow(unreached-pub) — oracle of crates/system/tests/props.rs
    pub fn spilled_clusters(&self, id: usize) -> Vec<(u64, MemTier, u64)> {
        match self.slot(id) {
            Ok(i) => self.sessions[i]
                .clusters
                .spilled
                .iter()
                .flat_map(|run| (0..run.count).map(move |_| (run.tier, run.bytes)))
                .zip(0u64..)
                .map(|((tier, bytes), rank)| (rank, tier, bytes))
                .collect(),
            Err(_) => Vec::new(),
        }
    }

    /// Cluster-granular restore plan: intersect the policy's predicted
    /// hot cluster set with this session's spilled clusters
    /// (speculated legs), plus the mispredicted tail clusters that
    /// turn out to be spilled (demand legs). `None` when the policy is
    /// cluster-blind.
    pub(super) fn cluster_restore_plan(
        &mut self,
        slot: usize,
        ratio: f64,
        generation: bool,
        cfg: ClusterModeCfg,
        prefetch: &dyn PrefetchPolicy,
    ) -> Option<RestorePlan> {
        let s = &self.sessions[slot];
        let id = s.id;
        let total = s.res.total_bytes();
        let n = total.div_ceil(cfg.granule(total));
        let step_seq = s.clusters.step_seq;
        let cp = prefetch.cluster_plan(&ClusterPrefetchRequest {
            clusters: n,
            selection_ratio: ratio,
            generation,
            step_seq,
        })?;
        let predicted = cp.predicted.min(n);
        let tail = n - predicted;
        let mispredicted = cp.mispredicted.min(tail);
        // Predicted-hot clusters are hotness ranks [0, predicted) =
        // coldness ranks [tail, n); the spilled ones stream up
        // speculatively from work-visibility.
        let clusters = &s.clusters;
        let mut spec = [0u64; 3];
        let spec_clusters = clusters.sum_ranks(tail, u64::MAX, &mut spec);
        // Mispredictions rotate deterministically through the tail:
        // coldness ranks `(step_seq + j) % tail` for `j <
        // mispredicted`. As `mispredicted <= tail` that is the rank
        // interval `[first, first + mispredicted)` wrapped once at
        // `tail`; only the ranks that are actually spilled cost a
        // demand fetch.
        let mut demand = [0u64; 3];
        let mut demand_clusters = 0u64;
        if tail > 0 {
            let first = step_seq % tail;
            let wrapped = (first + mispredicted).saturating_sub(tail);
            demand_clusters =
                clusters.sum_ranks(first, first + mispredicted - wrapped, &mut demand)
                    + clusters.sum_ranks(0, wrapped, &mut demand);
        }
        let host_bytes = spec[1] + demand[1];
        let ssd_bytes = spec[2] + demand[2];
        let host_ps = self.migration_price_ps(MemTier::Host, MemTier::Device, host_bytes);
        let ssd_ps = self.migration_price_ps(MemTier::Ssd, MemTier::Device, ssd_bytes);
        let spec_bytes = spec[1] + spec[2];
        let demand_bytes = demand[1] + demand[2];
        let bytes = spec_bytes + demand_bytes;
        Some(RestorePlan {
            host_bytes,
            ssd_bytes,
            host_ps,
            ssd_ps,
            // Display-only for cluster plans; the schedulers split
            // hidden time with exact integer byte ratios instead.
            coverage: if bytes > 0 {
                spec_bytes as f64 / bytes as f64
            } else {
                0.0
            },
            spec_bytes,
            demand_bytes,
            cluster: true,
            session: id,
            spec_clusters,
            demand_clusters,
            mispredicted_clusters: mispredicted,
        })
    }

    /// Cluster-granular spill: while the device is over budget, demote
    /// the coldest clusters of the coldest sessions. Pass 1 only takes
    /// each session's unprotected cold tail; pass 2 (pressure still
    /// unresolved) may evict protected WiCSum-hot clusters too — a hot
    /// session's cold clusters leave before any session's hot ones.
    pub(super) fn spill_clusters(&mut self, cfg: ClusterModeCfg) {
        let dev = tier_index(MemTier::Device);
        if self.used[dev] <= self.caps.device_bytes {
            return;
        }
        // Coldest sessions first; ties resolve to the smaller id
        // (unique, so the unstable sort is the order).
        let mut order = std::mem::take(&mut self.order_scratch);
        order.clear();
        order.extend(0..self.sessions.len());
        order.sort_unstable_by_key(|&i| (self.sessions[i].res.last_active_ps, self.sessions[i].id));
        'passes: for protected_pass in [false, true] {
            for &si in &order {
                // Done when the device fits. A full hierarchy (`false`)
                // leaves it over budget (admission control prevents
                // this in practice).
                if self.used[dev] <= self.caps.device_bytes
                    || !self.demote_session_clusters(si, cfg, protected_pass)
                {
                    break 'passes;
                }
            }
        }
        self.order_scratch = order;
    }

    /// Demotes clusters of one session off the device until the device
    /// fits or the session has nothing (in this pass's class) left.
    /// Returns `false` when no lower tier has room for a cluster.
    fn demote_session_clusters(
        &mut self,
        si: usize,
        cfg: ClusterModeCfg,
        protected_pass: bool,
    ) -> bool {
        let dev = tier_index(MemTier::Device);
        let cap = self.caps.device_bytes;
        let id = self.sessions[si].id;
        let total = self.sessions[si].res.total_bytes();
        if total == 0 {
            return true;
        }
        let granule = cfg.granule(total);
        let n = total.div_ceil(granule);
        let protected = protected_clusters(n, cfg.protected_ratio);
        // Coldness ranks this pass may demote up to: the unprotected
        // tail first, the whole session only under residual pressure.
        let limit = if protected_pass { n } else { n - protected };
        // Consecutive same-route clusters coalesce into one task.
        let mut run: Option<(MemTier, MemTier)> = None;
        let mut run_bytes = 0u64;
        let ok = loop {
            if self.used[dev] <= cap {
                break true;
            }
            let over = self.used[dev] - cap;
            // Next coldest candidates in this pass's class: the next
            // unspilled coldness ranks (the spilled set is a contiguous
            // prefix [0, s)).
            let device = self.sessions[si].res.device_bytes;
            if device == 0 {
                break true;
            }
            // Spilled mass in current-granule units: exactly the
            // spilled-cluster count for a static granule, and the
            // current-granule equivalent of stale finer clusters once
            // chaining has coarsened it — so the protected prefix keeps
            // its byte meaning, and every whole granule demoted adds
            // one. The protected pass demotes everything, so only
            // `device == 0` stops it.
            let s = self.sessions[si].res.spilled_bytes().div_ceil(granule);
            if !protected_pass && s >= limit {
                break true;
            }
            let class = if protected_pass { u64::MAX } else { limit - s };
            // A partial last cluster goes alone.
            let bytes = granule.min(device);
            // Nearest lower tier with room for a whole cluster —
            // clusters never straddle tiers.
            let mut below = self.caps.below(MemTier::Device);
            let Some(dest) = below.find(|&t| self.room(t) >= bytes) else {
                break false;
            };
            // As many clusters as bring the device back under budget,
            // bounded by the class and by the destination's room.
            let count = over
                .div_ceil(bytes)
                .min(device / bytes)
                .min(class)
                .min(self.room(dest) / bytes);
            let moved = count * bytes;
            if run.is_some() && run != Some((MemTier::Device, dest)) {
                flush_run(&mut self.pending_migrations, id, &mut run, &mut run_bytes);
            }
            run = Some((MemTier::Device, dest));
            run_bytes += moved;
            let s = &mut self.sessions[si];
            s.clusters.push(dest, bytes, count);
            s.res.device_bytes -= moved;
            *tier_bytes_mut(&mut s.res, dest) += moved;
            self.used[dev] -= moved;
            self.used[tier_index(dest)] += moved;
            self.stats.spilled_bytes += moved;
        };
        if run.is_some() {
            self.mark_spilled(si);
        }
        flush_run(&mut self.pending_migrations, id, &mut run, &mut run_bytes);
        ok
    }

    /// Cluster-granular promotion into `free` device bytes: sessions in
    /// `order`, and within a session the hottest spilled cluster
    /// (highest coldness rank) first — whole clusters only.
    pub(super) fn promote_clusters(&mut self, order: &[usize], mut free: u64) {
        'sessions: for &si in order {
            let id = self.sessions[si].id;
            let mut run: Option<(MemTier, MemTier)> = None;
            let mut run_bytes = 0u64;
            while let Some(&c) = self.sessions[si].clusters.spilled.last() {
                if c.bytes > free {
                    // The next whole cluster no longer fits: stop the
                    // promotion sweep (deterministic, no best-fit
                    // search through smaller partial clusters).
                    flush_run(&mut self.pending_migrations, id, &mut run, &mut run_bytes);
                    break 'sessions;
                }
                let count = c.count.min(free / c.bytes);
                let moved = count * c.bytes;
                let s = &mut self.sessions[si];
                s.clusters.pop(count);
                *tier_bytes_mut(&mut s.res, c.tier) -= moved;
                s.res.device_bytes += moved;
                self.used[tier_index(c.tier)] -= moved;
                self.used[tier_index(MemTier::Device)] += moved;
                free -= moved;
                self.stats.promoted_bytes += moved;
                if run.is_some() && run != Some((c.tier, MemTier::Device)) {
                    flush_run(&mut self.pending_migrations, id, &mut run, &mut run_bytes);
                }
                run = Some((c.tier, MemTier::Device));
                run_bytes += moved;
            }
            flush_run(&mut self.pending_migrations, id, &mut run, &mut run_bytes);
            if free == 0 {
                break;
            }
        }
    }
}

/// Clusters of an `n`-cluster session protected from first-pass spill
/// (the WiCSum-hot prefix).
fn protected_clusters(n: u64, ratio: f64) -> u64 {
    ((n as f64 * ratio).ceil() as u64).min(n)
}

/// Emits the one coalesced task of a finished same-route run of
/// cluster moves (`run` is the `(from, to)` route), leaving it empty.
fn flush_run(
    pending: &mut Vec<MigrationTask>,
    session: usize,
    run: &mut Option<(MemTier, MemTier)>,
    run_bytes: &mut u64,
) {
    if let Some((from, to)) = run.take() {
        pending.push(MigrationTask {
            session,
            from,
            to,
            bytes: std::mem::take(run_bytes),
        });
    }
}
