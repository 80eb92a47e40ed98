//! Tiered KV-cache residency policy for the serving scheduler.
//!
//! `vrex-hwsim`'s [`tier`](vrex_hwsim::tier) module knows how fast
//! bytes move between device HBM, host DRAM, and the SSD; this module
//! decides **whose** bytes move and **when**:
//!
//! * every stream's *resident demand* (its full cache for in-memory
//!   methods, its hot window for offloading methods — the same bytes
//!   [`SystemModel::is_oom`] counts) is tracked against the device
//!   budget;
//! * when the device overflows, the **coldest** streams (longest since
//!   they last ran) are spilled down — host DRAM first, then SSD.
//!   Spill writebacks stream behind compute and are not charged to the
//!   critical path;
//! * a spilled stream that reaches the front of the scheduler pays a
//!   **tier miss**: the selected share of its spilled bytes must be
//!   restored before its step. With a speculative [`PrefetchPolicy`]
//!   the restore is issued when the work item becomes visible, so the
//!   transfer overlaps the queue wait and the step's own layer-by-layer
//!   compute; only the exposed remainder extends the step;
//! * when a stream retires, its device bytes free up and the hottest
//!   spilled streams are promoted back (asynchronously, off the
//!   critical path).
//!
//! The manager is deterministic: victims and promotions order by
//! (last-active time, session id), and every duration comes from the
//! closed-form hardware models.
//!
//! This module moves bytes *vertically* (between tiers of one device's
//! hierarchy). The multi-device [`crate::placement`] layer moves them
//! *horizontally* — between devices over the NVLink / PCIe-switch
//! fabric — and reuses the same decide-then-drain idiom: placement
//! decisions queue [`crate::placement::DeviceMigration`]s exactly as
//! this manager queues [`MigrationTask`]s behind
//! [`TieredKvManager::take_migrations`], and both are priced in
//! [`MIGRATION_CHUNK_BYTES`] DMA chunks.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use vrex_hwsim::tier::{MemTier, TierCapacities, TierPath};
use vrex_model::ModelConfig;
use vrex_retrieval::prefetch::{
    ClusterPrefetch, ClusterPrefetchRequest, NoPrefetch, PrefetchPolicy, PrefetchRequest,
    SpeculativePrefetch,
};

use crate::e2e::SystemModel;
use crate::pricing::PriceKeyHasher;

/// DMA chunk size for bulk tier migrations (spills and restores move
/// whole resident-window blocks, so they stream at FlexGen-like
/// granularity regardless of the method's per-step fetch chunk).
pub const MIGRATION_CHUNK_BYTES: u64 = 256 * 1024;

/// How the serving scheduler treats streams that do not fit in device
/// memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionPolicy {
    /// PR 2 behaviour: wait FIFO for device memory, reject on timeout.
    RejectOnly,
    /// Spill cold streams' KV down the memory hierarchy instead of
    /// rejecting; reject only when even the *whole* hierarchy is full.
    Tiered {
        /// How restores are scheduled (demand vs. speculative).
        prefetch: PrefetchMode,
    },
}

impl AdmissionPolicy {
    /// Tiered admission with InfiniGen-style speculative prefetch.
    pub fn tiered_speculative() -> Self {
        AdmissionPolicy::Tiered {
            prefetch: PrefetchMode::Speculative { accuracy: 0.9 },
        }
    }

    /// Tiered admission with pure demand fetching.
    pub fn tiered_demand() -> Self {
        AdmissionPolicy::Tiered {
            prefetch: PrefetchMode::Demand,
        }
    }

    /// Tiered admission with WiCSum-ranked cluster-granular
    /// speculation: spill and restore move hash-cluster sets instead of
    /// flat byte fractions of whole sessions.
    pub fn tiered_cluster() -> Self {
        AdmissionPolicy::Tiered {
            prefetch: PrefetchMode::Cluster { accuracy: 0.9 },
        }
    }
}

/// When restore migrations are issued, relative to the step that needs
/// them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrefetchMode {
    /// Restores start when the step starts; nothing is hidden.
    Demand,
    /// Restores are issued as soon as the work item is visible
    /// (InfiniGen-style speculation at the given accuracy), hiding the
    /// transfer behind the wait window and the step's compute.
    Speculative {
        /// Fraction of speculated bytes that are the right ones.
        accuracy: f64,
    },
    /// Restores are planned as a WiCSum-ranked hash-cluster set: the
    /// predicted-hot cluster prefix streams up from work-visibility,
    /// and only mispredicted tail clusters are demand-fetched at batch
    /// formation (the [`ClusterPrefetch`] policy). The manager must
    /// have cluster tracking enabled
    /// ([`TieredKvManager::with_cluster_mode`]).
    Cluster {
        /// Fraction of predicted clusters that are the right ones.
        accuracy: f64,
    },
}

impl PrefetchMode {
    /// The retrieval-crate policy implementing this mode.
    pub fn policy(&self) -> Box<dyn PrefetchPolicy> {
        match self {
            PrefetchMode::Demand => Box::new(NoPrefetch),
            PrefetchMode::Speculative { accuracy } => Box::new(SpeculativePrefetch {
                accuracy: *accuracy,
            }),
            PrefetchMode::Cluster { accuracy } => Box::new(ClusterPrefetch {
                accuracy: *accuracy,
            }),
        }
    }

    /// Whether this mode speculates at hash-cluster granularity (the
    /// serving scheduler enables the manager's cluster tracking for
    /// it).
    pub fn is_cluster(&self) -> bool {
        matches!(self, PrefetchMode::Cluster { .. })
    }
}

/// Where one stream's resident KV currently lives.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Residency {
    /// Bytes in device memory.
    pub device_bytes: u64,
    /// Bytes spilled to host DRAM.
    pub host_bytes: u64,
    /// Bytes spilled to the SSD.
    pub ssd_bytes: u64,
    /// Simulation time this stream last executed (ps; spill coldness
    /// key).
    pub last_active_ps: u64,
}

impl Residency {
    /// Total tracked bytes.
    pub fn total_bytes(&self) -> u64 {
        self.device_bytes + self.host_bytes + self.ssd_bytes
    }

    /// Bytes below the device tier.
    pub fn spilled_bytes(&self) -> u64 {
        self.host_bytes + self.ssd_bytes
    }
}

/// Outcome of pricing one step's tier restore.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreOutcome {
    /// Total time the restore occupies the shared PCIe link (ps),
    /// hidden or not — the caller charges this against the link
    /// budget shared by a batch.
    pub miss_ps: u64,
    /// Migration time left exposed on the critical path (ps).
    pub exposed_ps: u64,
    /// Bytes restored speculatively (in flight from work-visibility;
    /// cluster plans only, zero on flat plans).
    pub spec_bytes: u64,
    /// Bytes demand-fetched at batch formation (cluster plans only).
    pub demand_bytes: u64,
    /// Clusters restored speculatively.
    pub spec_clusters: u64,
    /// Mispredicted clusters that were spilled and had to be
    /// demand-fetched.
    pub demand_clusters: u64,
    /// Total mispredicted clusters (including ones that happened to be
    /// device-resident and cost nothing).
    pub mispredicted_clusters: u64,
}

/// Per-session hash-cluster residency: which clusters sit below the
/// device tier, indexed by **coldness rank** (0 = coldest cluster by
/// the previous step's WiCSum mass). The spilled set is always the
/// contiguous rank prefix `[0, s)`: demotion pushes the next-coldest
/// rank, promotion pops the hottest spilled rank, so candidate
/// discovery is O(1) and iteration order is the ranking itself. Bytes
/// are frozen at demotion time; the session's device bytes are the
/// residency total minus the spilled clusters' bytes.
#[derive(Debug, Clone, Default)]
struct ClusterState {
    /// Spilled clusters; the index is the coldness rank, so the
    /// contiguous-prefix invariant is the `Vec` itself.
    spilled: Vec<SpilledCluster>,
    /// Steps this session has committed — rotates which tail clusters
    /// the misprediction model touches, so demand fetches are
    /// deterministic without a PRNG.
    step_seq: u64,
}

/// One spilled cluster's location and frozen size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SpilledCluster {
    tier: MemTier,
    bytes: u64,
}

/// Cluster-mode knobs, fixed per manager instance.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ClusterModeCfg {
    /// Bytes per hash cluster (the method's fetch chunk).
    cluster_bytes: u64,
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

/// One bulk KV migration the residency policy decided on — emitted by
/// spills and promotions for the scheduler to price and place on the
/// shared link as a real task (the resource-timeline serving path),
/// instead of the manager folding time into exposed-seconds itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationTask {
    /// Stream whose bytes move.
    pub session: usize,
    /// Source tier.
    pub from: MemTier,
    /// Destination tier.
    pub to: MemTier,
    /// Bytes moved.
    pub bytes: u64,
}

/// The priced shape of one step's tier restore, before any overlap
/// decision: how many bytes come from each spill tier, how long each
/// leg holds the shared link, and what fraction the prefetch policy
/// promises to have in flight ahead of the step.
///
/// [`TieredKvManager::plan_restore`] produces it; the serialized
/// scheduler folds it into exposed time via
/// [`TieredKvManager::step_restore`], while the overlapped scheduler
/// turns the legs into link reservations and commits the outcome with
/// [`TieredKvManager::commit_restore`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RestorePlan {
    /// Bytes restored from host DRAM.
    pub host_bytes: u64,
    /// Bytes restored from the SSD.
    pub ssd_bytes: u64,
    /// Link time of the host-DRAM leg (ps).
    pub host_ps: u64,
    /// Link time of the SSD leg (ps).
    pub ssd_ps: u64,
    /// Fraction of the restore the prefetch policy covers ahead of the
    /// step (already scaled by speculation accuracy). For cluster
    /// plans this is the speculated byte share, kept for display — the
    /// schedulers split cluster plans with exact integer byte ratios
    /// instead.
    pub coverage: f64,
    /// Bytes of the restore that are speculated (in flight from
    /// work-visibility). Cluster plans only; zero on flat plans.
    pub spec_bytes: u64,
    /// Bytes demand-fetched at batch formation (mispredicted
    /// clusters). Cluster plans only.
    pub demand_bytes: u64,
    /// Whether this is a cluster-granular plan (`spec_bytes` /
    /// `demand_bytes` partition [`Self::bytes`] and the hidden share
    /// must use integer byte math).
    pub cluster: bool,
    /// Session the plan belongs to — [`TieredKvManager::commit_restore`]
    /// advances that session's cluster step sequence.
    pub session: usize,
    /// Clusters restored speculatively.
    pub spec_clusters: u64,
    /// Mispredicted clusters that were spilled and demand-fetched.
    pub demand_clusters: u64,
    /// Total mispredicted clusters (spilled or not).
    pub mispredicted_clusters: u64,
}

impl RestorePlan {
    /// Total link occupancy of the restore (the two legs share one
    /// PCIe link, so they serialise).
    pub fn miss_ps(&self) -> u64 {
        self.host_ps + self.ssd_ps
    }

    /// Total bytes restored.
    pub fn bytes(&self) -> u64 {
        self.host_bytes + self.ssd_bytes
    }
}

/// Aggregate tiering statistics over a serving run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Bytes demoted below the device tier.
    pub spilled_bytes: u64,
    /// Bytes promoted back into freed device space (off-critical-path).
    pub promoted_bytes: u64,
    /// Bytes restored on the critical path for steps (tier misses).
    pub restored_bytes: u64,
    /// Per-stream step executions (one [`TieredKvManager::step_restore`]
    /// call, i.e. one batch member) that ran fully device-resident.
    pub tier_hit_steps: u64,
    /// Per-stream step executions that needed a restore migration.
    pub tier_miss_steps: u64,
    /// Migration time hidden behind prefetch overlap (ps).
    pub hidden_ps: u64,
    /// Migration time exposed on the critical path (ps).
    pub exposed_ps: u64,
}

/// Fleet-wide tier residency tracker and migration pricer.
#[derive(Debug)]
pub struct TieredKvManager {
    caps: TierCapacities,
    path: TierPath,
    chunk_bytes: u64,
    /// Tracked streams, sorted by session id (the scheduler's fleets
    /// are small, so a sorted vec beats a tree map on both lookup and
    /// the victim/promotion scans that iterate it in id order).
    sessions: Vec<(usize, Residency)>,
    /// Cluster-granular cold-data tracking, populated only when
    /// [`Self::with_cluster_mode`] enabled it. Sorted by session id in
    /// lockstep with `sessions`; the per-session `Residency` summary
    /// stays authoritative for byte totals.
    cluster_mode: Option<ClusterModeCfg>,
    clusters: Vec<(usize, ClusterState)>,
    /// Fleet-wide resident bytes per tier (device, host, ssd), kept
    /// incrementally so the per-step budget checks are O(1) instead of
    /// a fleet scan (the scheduler grows streams every batch).
    used: [u64; 3],
    ever_spilled: std::collections::BTreeSet<usize>,
    stats: TierStats,
    /// Migrations decided since the last [`Self::take_migrations`]
    /// drain, in decision order.
    pending_migrations: Vec<MigrationTask>,
    /// Memoized [`TierPath::migrate_ps`] at the manager's chunk size,
    /// keyed by (from, to, bytes). `step_restore` re-prices repeated
    /// (spilled bytes × ratio) shapes per batch member; the memo turns
    /// every repeat into one hash lookup, bit-identical to the closed
    /// form (oracle-tested).
    migration_prices: HashMap<(u8, u8, u64), u64, BuildHasherDefault<PriceKeyHasher>>,
    price_hits: u64,
    price_misses: u64,
}

impl TieredKvManager {
    /// Creates a manager over explicit capacities and links.
    pub fn new(caps: TierCapacities, path: TierPath) -> Self {
        Self {
            caps,
            path,
            chunk_bytes: MIGRATION_CHUNK_BYTES,
            sessions: Vec::new(),
            cluster_mode: None,
            clusters: Vec::new(),
            used: [0; 3],
            ever_spilled: std::collections::BTreeSet::new(),
            stats: TierStats::default(),
            pending_migrations: Vec::new(),
            migration_prices: HashMap::default(),
            price_hits: 0,
            price_misses: 0,
        }
    }

    /// Creates the manager for a platform + method pair: device budget
    /// from the memory left after weights, spill tiers from the
    /// platform's host DRAM / SSD.
    pub fn for_system(sys: &SystemModel, model: &ModelConfig) -> Self {
        Self::new(sys.kv_tier_capacities(model), sys.tier_path())
    }

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

    /// Cluster-mode knobs, if enabled: `(cluster_bytes,
    /// protected_ratio)`.
    pub fn cluster_params(&self) -> Option<(u64, f64)> {
        self.cluster_mode
            .map(|c| (c.cluster_bytes, c.protected_ratio))
    }

    /// One stream's spilled clusters as `(coldness_rank, tier, bytes)`
    /// in ascending rank order (coldest first). Empty when the stream
    /// is fully device-resident or cluster mode is off.
    pub fn spilled_clusters(&self, id: usize) -> Vec<(u64, MemTier, u64)> {
        match self.cluster_slot(id) {
            Ok(i) => self.clusters[i]
                .1
                .spilled
                .iter()
                .zip(0u64..)
                .map(|(c, rank)| (rank, c.tier, c.bytes))
                .collect(),
            Err(_) => Vec::new(),
        }
    }

    /// The tier budgets.
    pub fn capacities(&self) -> TierCapacities {
        self.caps
    }

    /// Total KV capacity across every tier.
    pub fn total_capacity_bytes(&self) -> u64 {
        self.caps.total_bytes()
    }

    /// Bytes currently resident in one tier, fleet-wide (maintained
    /// incrementally; `debug_assert`-checked against the fleet scan).
    pub fn used_bytes(&self, tier: MemTier) -> u64 {
        debug_assert_eq!(
            self.used[tier_index(tier)],
            self.sessions
                .iter()
                .map(|(_, r)| tier_bytes(r, tier))
                .sum::<u64>(),
            "cached {tier} total diverged from the fleet scan"
        );
        self.used[tier_index(tier)]
    }

    /// Whether any resident KV currently sits below the device tier.
    /// `false` means every tracked stream is fully device-resident, so
    /// a step over tracked streams cannot miss — the scheduler's
    /// fast path ([`Self::record_all_hot_steps`]).
    pub fn any_spilled_bytes(&self) -> bool {
        self.used[tier_index(MemTier::Host)] + self.used[tier_index(MemTier::Ssd)] > 0
    }

    /// Records `members` tier hits at once. Exactly equivalent to (and
    /// only valid as) `members` calls to [`Self::step_restore`] for
    /// *tracked* streams while [`Self::any_spilled_bytes`] is `false`:
    /// each such call would price a zero-byte restore and count one
    /// hit.
    pub fn record_all_hot_steps(&mut self, members: u64) {
        debug_assert!(!self.any_spilled_bytes(), "fast path requires no spill");
        self.stats.tier_hit_steps += members;
    }

    /// One stream's residency, if tracked.
    pub fn residency(&self, id: usize) -> Option<&Residency> {
        self.slot(id).ok().map(|i| &self.sessions[i].1)
    }

    /// Slot of `id` in the sorted session vec (`Err` = insertion point).
    fn slot(&self, id: usize) -> Result<usize, usize> {
        self.sessions.binary_search_by_key(&id, |&(sid, _)| sid)
    }

    /// Slot of `id` in the sorted cluster-state vec.
    fn cluster_slot(&self, id: usize) -> Result<usize, usize> {
        self.clusters.binary_search_by_key(&id, |(sid, _)| *sid)
    }

    /// Statistics so far.
    pub fn stats(&self) -> TierStats {
        self.stats
    }

    /// Streams that were ever (partially) spilled below the device.
    pub fn ever_spilled_sessions(&self) -> usize {
        self.ever_spilled.len()
    }

    /// Whether a stream was ever (partially) spilled below the device.
    pub fn was_ever_spilled(&self, id: usize) -> bool {
        self.ever_spilled.contains(&id)
    }

    /// Drains the migrations decided since the last drain (spills from
    /// [`Self::admit`]/[`Self::grow`], promotions from
    /// [`Self::release`]), in decision order. The resource-timeline
    /// scheduler prices each one and places it on the shared link as a
    /// background task; the serialized scheduler discards them (its
    /// writebacks stream behind compute by assumption).
    pub fn take_migrations(&mut self) -> Vec<MigrationTask> {
        std::mem::take(&mut self.pending_migrations)
    }

    /// [`Self::take_migrations`] into a caller-owned buffer (appended
    /// in decision order), preserving both vectors' capacities — the
    /// allocation-free variant for the serving hot loop, which drains
    /// migrations at every admission pass and batch completion.
    pub fn drain_migrations_into(&mut self, into: &mut Vec<MigrationTask>) {
        into.append(&mut self.pending_migrations);
    }

    /// Whether any migration decisions are waiting to be drained.
    pub fn has_pending_migrations(&self) -> bool {
        !self.pending_migrations.is_empty()
    }

    /// Memoized [`TierPath::migrate_ps`] at the manager's migration
    /// chunk size — bit-identical to the closed form, one hash lookup
    /// per repeated (route, bytes) shape.
    pub fn migration_price_ps(&mut self, from: MemTier, to: MemTier, bytes: u64) -> u64 {
        if bytes == 0 || from == to {
            return 0;
        }
        let key = (tier_index(from) as u8, tier_index(to) as u8, bytes);
        if let Some(&ps) = self.migration_prices.get(&key) {
            self.price_hits += 1;
            return ps;
        }
        self.price_misses += 1;
        // In cluster mode migrations stream at cluster granularity —
        // the memo key stays (route, bytes) because the chunk size is
        // fixed for the manager's lifetime.
        let chunk = self
            .cluster_mode
            .map_or(self.chunk_bytes, |c| c.cluster_bytes);
        let ps = self.path.migrate_ps(from, to, bytes, chunk);
        self.migration_prices.insert(key, ps);
        ps
    }

    /// Migration-price lookups served from the memo so far.
    pub fn price_hits(&self) -> u64 {
        self.price_hits
    }

    /// Migration-price lookups that ran the closed-form pricing.
    pub fn price_misses(&self) -> u64 {
        self.price_misses
    }

    /// Prices the restore one step of `id` would need: the selected
    /// share (`ratio`) of the stream's spilled bytes per source tier,
    /// the link time of each leg, and the prefetch policy's promised
    /// coverage. Pure with respect to residency and statistics — the
    /// caller decides how much of the restore overlaps and commits the
    /// outcome via [`Self::commit_restore`] (or uses
    /// [`Self::step_restore`], which does both with the serialized
    /// window rule).
    pub fn plan_restore(
        &mut self,
        id: usize,
        ratio: f64,
        generation: bool,
        prefetch: &dyn PrefetchPolicy,
    ) -> RestorePlan {
        let Ok(slot) = self.slot(id) else {
            return RestorePlan::default();
        };
        let r = self.sessions[slot].1;
        let ratio = ratio.clamp(0.0, 1.0);
        if let Some(cfg) = self.cluster_mode {
            if let Some(plan) = self.cluster_restore_plan(id, &r, ratio, generation, cfg, prefetch)
            {
                return plan;
            }
            // A cluster-blind policy on a cluster-mode manager falls
            // back to the flat byte math below (reference path).
        }
        let host_bytes = (r.host_bytes as f64 * ratio).ceil() as u64;
        let ssd_bytes = (r.ssd_bytes as f64 * ratio).ceil() as u64;
        let host_ps = self.migration_price_ps(MemTier::Host, MemTier::Device, host_bytes);
        let ssd_ps = self.migration_price_ps(MemTier::Ssd, MemTier::Device, ssd_bytes);
        if host_ps + ssd_ps == 0 {
            return RestorePlan::default();
        }
        let plan = prefetch.plan(&PrefetchRequest {
            cold_bytes: r.spilled_bytes(),
            selection_ratio: ratio,
            generation,
        });
        RestorePlan {
            host_bytes,
            ssd_bytes,
            host_ps,
            ssd_ps,
            coverage: plan.coverage(host_bytes + ssd_bytes),
            ..RestorePlan::default()
        }
    }

    /// Cluster-granular restore plan: intersect the policy's predicted
    /// hot cluster set with this session's spilled clusters
    /// (speculated legs), plus the mispredicted tail clusters that
    /// turn out to be spilled (demand legs). `None` when the policy is
    /// cluster-blind.
    fn cluster_restore_plan(
        &mut self,
        id: usize,
        r: &Residency,
        ratio: f64,
        generation: bool,
        cfg: ClusterModeCfg,
        prefetch: &dyn PrefetchPolicy,
    ) -> Option<RestorePlan> {
        let Ok(ci) = self.cluster_slot(id) else {
            return None;
        };
        let total = r.total_bytes();
        let n = total.div_ceil(cfg.granule(total));
        let step_seq = self.clusters[ci].1.step_seq;
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
        let spilled = &self.clusters[ci].1.spilled;
        let mut spec = [0u64; 3];
        let mut spec_clusters = 0u64;
        for c in spilled.iter().skip(tail as usize) {
            spec[tier_index(c.tier)] += c.bytes;
            spec_clusters += 1;
        }
        // Mispredictions rotate deterministically through the tail
        // (coldness ranks [0, tail)); only the ones that are actually
        // spilled cost a demand fetch.
        let mut demand = [0u64; 3];
        let mut demand_clusters = 0u64;
        if tail > 0 {
            for j in 0..mispredicted {
                let cold = (step_seq + j) % tail;
                if let Some(c) = spilled.get(cold as usize) {
                    demand[tier_index(c.tier)] += c.bytes;
                    demand_clusters += 1;
                }
            }
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

    /// Records the outcome of one step's restore plan: a zero-byte plan
    /// counts a tier hit; anything else counts a miss with
    /// `hidden_ps`/`exposed_ps` splitting its link time between
    /// overlapped and critical-path. The caller guarantees
    /// `hidden_ps + exposed_ps == plan.miss_ps()`.
    pub fn commit_restore(&mut self, plan: &RestorePlan, hidden_ps: u64, exposed_ps: u64) {
        debug_assert_eq!(hidden_ps + exposed_ps, plan.miss_ps());
        // Cluster plans advance the session's step sequence even on a
        // hit, so the misprediction rotation tracks executed steps.
        if plan.cluster {
            if let Ok(i) = self.cluster_slot(plan.session) {
                self.clusters[i].1.step_seq += 1;
            }
        }
        if plan.miss_ps() == 0 {
            self.stats.tier_hit_steps += 1;
            return;
        }
        self.stats.tier_miss_steps += 1;
        self.stats.restored_bytes += plan.bytes();
        self.stats.hidden_ps += hidden_ps;
        self.stats.exposed_ps += exposed_ps;
    }

    /// Admits a stream with `bytes` of resident demand, placed in
    /// device memory; colder streams are spilled down if the device
    /// overflows.
    pub fn admit(&mut self, id: usize, bytes: u64, now_ps: u64) {
        let slot = match self.slot(id) {
            Ok(i) => i,
            Err(i) => {
                self.sessions.insert(i, (id, Residency::default()));
                if self.cluster_mode.is_some() {
                    if let Err(ci) = self.cluster_slot(id) {
                        self.clusters.insert(ci, (id, ClusterState::default()));
                    }
                }
                i
            }
        };
        let r = &mut self.sessions[slot].1;
        r.device_bytes += bytes;
        r.last_active_ps = now_ps;
        self.used[tier_index(MemTier::Device)] += bytes;
        self.spill_down();
    }

    /// Grows a stream's resident demand by `delta` bytes (new KV lands
    /// in device memory) and marks it active.
    pub fn grow(&mut self, id: usize, delta: u64, now_ps: u64) {
        if let Ok(i) = self.slot(id) {
            let r = &mut self.sessions[i].1;
            r.device_bytes += delta;
            r.last_active_ps = now_ps;
            self.used[tier_index(MemTier::Device)] += delta;
        }
        self.spill_down();
    }

    /// Marks a stream active (it just executed) without growing it.
    pub fn touch(&mut self, id: usize, now_ps: u64) {
        if let Ok(i) = self.slot(id) {
            self.sessions[i].1.last_active_ps = now_ps;
        }
    }

    /// Retires a stream, freeing its bytes, then promotes the hottest
    /// spilled streams into the freed device space.
    pub fn release(&mut self, id: usize) {
        if let Ok(i) = self.slot(id) {
            let (_, r) = self.sessions.remove(i);
            for tier in MemTier::ALL {
                self.used[tier_index(tier)] -= tier_bytes(&r, tier);
            }
            if let Ok(ci) = self.cluster_slot(id) {
                self.clusters.remove(ci);
            }
        }
        self.promote_into_free();
    }

    /// Prices the tier miss of one step and applies prefetch overlap.
    ///
    /// `ratio` is the method's selection ratio for the step's stage —
    /// the share of the stream's spilled bytes the step must restore.
    /// `window_ps` is how long the restore could have been in flight
    /// before the step's results are needed: queue wait plus the
    /// step's own compute (which the transfer pipelines with layer by
    /// layer), *minus* whatever of that window other streams' restores
    /// have already claimed on the shared link — the caller owns that
    /// accounting via [`RestoreOutcome::miss_ps`].
    pub fn step_restore(
        &mut self,
        id: usize,
        ratio: f64,
        generation: bool,
        window_ps: u64,
        prefetch: &dyn PrefetchPolicy,
    ) -> RestoreOutcome {
        if self.slot(id).is_err() {
            return RestoreOutcome::default();
        }
        let plan = self.plan_restore(id, ratio, generation, prefetch);
        let miss_ps = plan.miss_ps();
        let hidden = if plan.cluster {
            // Cluster plans partition the restore into exact byte sets:
            // the speculated share hides in integer math, no float knob.
            if plan.bytes() == 0 {
                0
            } else {
                let spec =
                    (miss_ps as u128 * plan.spec_bytes as u128 / plan.bytes() as u128) as u64;
                spec.min(window_ps)
            }
        } else {
            // vrex-lint: allow(float-time) — prefetch coverage is a float model knob; the hidden share is floored to integer ps here, before any deadline arithmetic sees it.
            ((miss_ps as f64 * plan.coverage) as u64).min(window_ps)
        };
        self.commit_restore(&plan, hidden, miss_ps - hidden);
        if miss_ps == 0 {
            return RestoreOutcome::default();
        }
        RestoreOutcome {
            miss_ps,
            exposed_ps: miss_ps - hidden,
            spec_bytes: plan.spec_bytes,
            demand_bytes: plan.demand_bytes,
            spec_clusters: plan.spec_clusters,
            demand_clusters: plan.demand_clusters,
            mispredicted_clusters: plan.mispredicted_clusters,
        }
    }

    /// Demotes coldest bytes until device and host budgets hold —
    /// whole coldest streams in flat mode, coldest *clusters* of any
    /// stream in cluster mode.
    fn spill_down(&mut self) {
        if let Some(cfg) = self.cluster_mode {
            self.spill_tier_clusters(MemTier::Device, cfg);
            self.spill_tier_clusters(MemTier::Host, cfg);
        } else {
            self.spill_tier(MemTier::Device);
            self.spill_tier(MemTier::Host);
        }
    }

    fn spill_tier(&mut self, tier: MemTier) {
        loop {
            let used = self.used[tier_index(tier)];
            let cap = self.caps.capacity(tier);
            if used <= cap {
                return;
            }
            let overflow = used - cap;
            // Coldest stream holding bytes in this tier; the vec is in
            // id order, so min_by ties resolve to the smallest id.
            let Some(victim) = self
                .sessions
                .iter()
                .enumerate()
                .filter(|(_, (_, r))| tier_bytes(r, tier) > 0)
                .min_by(|(_, (ia, ra)), (_, (ib, rb))| {
                    ra.last_active_ps.cmp(&rb.last_active_ps).then(ia.cmp(ib))
                })
                .map(|(i, _)| i)
            else {
                return;
            };
            // Nearest lower tier with room.
            let Some((dest, room)) = self
                .caps
                .below(tier)
                .map(|t| {
                    (
                        t,
                        self.caps
                            .capacity(t)
                            .saturating_sub(self.used[tier_index(t)]),
                    )
                })
                .find(|&(_, room)| room > 0)
            else {
                // Hierarchy full: leave the tier over budget (admission
                // control is responsible for not letting this happen).
                return;
            };
            let (victim_id, r) = &mut self.sessions[victim];
            let moved = tier_bytes(r, tier).min(overflow).min(room);
            *tier_bytes_mut(r, tier) -= moved;
            *tier_bytes_mut(r, dest) += moved;
            let victim_id = *victim_id;
            self.used[tier_index(tier)] -= moved;
            self.used[tier_index(dest)] += moved;
            self.stats.spilled_bytes += moved;
            self.ever_spilled.insert(victim_id);
            self.pending_migrations.push(MigrationTask {
                session: victim_id,
                from: tier,
                to: dest,
                bytes: moved,
            });
        }
    }

    /// Cluster-granular spill: while `tier` is over budget, demote the
    /// coldest clusters of the coldest sessions. Pass 1 only takes
    /// each session's unprotected cold tail; pass 2 (pressure still
    /// unresolved) may evict protected WiCSum-hot clusters too — a hot
    /// session's cold clusters leave before any session's hot ones.
    fn spill_tier_clusters(&mut self, tier: MemTier, cfg: ClusterModeCfg) {
        let src = tier_index(tier);
        if self.used[src] <= self.caps.capacity(tier) {
            return;
        }
        // Coldest sessions first; ties resolve to the smaller id.
        let mut order: Vec<usize> = (0..self.sessions.len()).collect();
        order.sort_by(|&a, &b| {
            self.sessions[a]
                .1
                .last_active_ps
                .cmp(&self.sessions[b].1.last_active_ps)
                .then(self.sessions[a].0.cmp(&self.sessions[b].0))
        });
        for protected_pass in [false, true] {
            for &si in &order {
                if self.used[src] <= self.caps.capacity(tier) {
                    return;
                }
                if !self.demote_session_clusters(si, tier, cfg, protected_pass) {
                    // Hierarchy full: leave the tier over budget
                    // (admission control prevents this in practice).
                    return;
                }
            }
        }
    }

    /// Demotes clusters of one session out of `tier` until the tier
    /// fits or the session has nothing (in this pass's class) left.
    /// Returns `false` when no lower tier has room for a cluster.
    fn demote_session_clusters(
        &mut self,
        si: usize,
        tier: MemTier,
        cfg: ClusterModeCfg,
        protected_pass: bool,
    ) -> bool {
        let src = tier_index(tier);
        let cap = self.caps.capacity(tier);
        let id = self.sessions[si].0;
        let Ok(ci) = self.cluster_slot(id) else {
            return true;
        };
        let total = self.sessions[si].1.total_bytes();
        if total == 0 {
            return true;
        }
        let granule = cfg.granule(total);
        let n = total.div_ceil(granule);
        let protected = protected_clusters(n, cfg.protected_ratio);
        // Coldness ranks this pass may demote up to: the unprotected
        // tail first, the whole session only under residual pressure.
        let limit = if protected_pass { n } else { n - protected };
        // Coalesce consecutive same-route clusters into one task.
        let mut run_to: Option<MemTier> = None;
        let mut run_bytes = 0u64;
        let mut demoted = false;
        let ok = loop {
            if self.used[src] <= cap {
                break true;
            }
            // Next coldest candidate in this pass's class: for the
            // device tier it is the next unspilled coldness rank (the
            // spilled set is a contiguous prefix [0, s)); for a lower
            // tier it is the coldest cluster already spilled there
            // (cascade). `cascade_rank` is `None` for a device demotion.
            let (bytes, cascade_rank) = match tier {
                MemTier::Device => {
                    let device = self.sessions[si].1.device_bytes;
                    if device == 0 {
                        break true;
                    }
                    // Spilled mass in current-granule units: exactly
                    // the spilled-cluster count for a static granule,
                    // and the current-granule equivalent of stale
                    // finer clusters once chaining has coarsened it —
                    // so the protected prefix keeps its byte meaning.
                    // The protected pass demotes everything, so only
                    // `device == 0` stops it.
                    let s = self.sessions[si].1.spilled_bytes().div_ceil(granule);
                    if !protected_pass && s >= limit {
                        break true;
                    }
                    (granule.min(device), None)
                }
                _ => {
                    let spilled = &self.clusters[ci].1.spilled;
                    let found = spilled
                        .iter()
                        .take(limit as usize)
                        .position(|c| c.tier == tier);
                    match found {
                        Some(rank) => (spilled[rank].bytes, Some(rank)),
                        None => break true,
                    }
                }
            };
            // Nearest lower tier with room for this whole cluster —
            // clusters never straddle tiers.
            let dest = self.caps.below(tier).find(|&t| {
                self.caps
                    .capacity(t)
                    .saturating_sub(self.used[tier_index(t)])
                    >= bytes
            });
            let Some(dest) = dest else {
                break false;
            };
            if let Some(to) = run_to {
                if to != dest {
                    self.pending_migrations.push(MigrationTask {
                        session: id,
                        from: tier,
                        to,
                        bytes: run_bytes,
                    });
                    run_bytes = 0;
                }
            }
            run_to = Some(dest);
            run_bytes += bytes;
            demoted = true;
            match cascade_rank {
                None => {
                    self.clusters[ci]
                        .1
                        .spilled
                        .push(SpilledCluster { tier: dest, bytes });
                    self.sessions[si].1.device_bytes -= bytes;
                }
                Some(rank) => {
                    self.clusters[ci].1.spilled[rank].tier = dest;
                    *tier_bytes_mut(&mut self.sessions[si].1, tier) -= bytes;
                }
            }
            *tier_bytes_mut(&mut self.sessions[si].1, dest) += bytes;
            self.used[src] -= bytes;
            self.used[tier_index(dest)] += bytes;
            self.stats.spilled_bytes += bytes;
        };
        if let Some(to) = run_to {
            self.pending_migrations.push(MigrationTask {
                session: id,
                from: tier,
                to,
                bytes: run_bytes,
            });
        }
        if demoted {
            self.ever_spilled.insert(id);
        }
        ok
    }

    /// Cluster-granular promotion: hottest sessions first, and within
    /// a session the hottest spilled cluster (highest coldness rank)
    /// first — whole clusters only.
    fn promote_into_free_clusters(&mut self) {
        let mut free = self
            .caps
            .device_bytes
            .saturating_sub(self.used[tier_index(MemTier::Device)]);
        if free == 0 {
            return;
        }
        let mut order: Vec<usize> = (0..self.sessions.len())
            .filter(|&i| self.sessions[i].1.spilled_bytes() > 0)
            .collect();
        order.sort_by(|&a, &b| {
            self.sessions[b]
                .1
                .last_active_ps
                .cmp(&self.sessions[a].1.last_active_ps)
                .then(self.sessions[a].0.cmp(&self.sessions[b].0))
        });
        'sessions: for si in order {
            let id = self.sessions[si].0;
            let Ok(ci) = self.cluster_slot(id) else {
                continue;
            };
            let mut run_from: Option<MemTier> = None;
            let mut run_bytes = 0u64;
            while let Some(&c) = self.clusters[ci].1.spilled.last() {
                if c.bytes > free {
                    // The next whole cluster no longer fits: stop the
                    // promotion sweep (deterministic, no best-fit
                    // search through smaller partial clusters).
                    flush_run(
                        &mut self.pending_migrations,
                        id,
                        &mut run_from,
                        &mut run_bytes,
                    );
                    break 'sessions;
                }
                self.clusters[ci].1.spilled.pop();
                *tier_bytes_mut(&mut self.sessions[si].1, c.tier) -= c.bytes;
                self.sessions[si].1.device_bytes += c.bytes;
                self.used[tier_index(c.tier)] -= c.bytes;
                self.used[tier_index(MemTier::Device)] += c.bytes;
                free -= c.bytes;
                self.stats.promoted_bytes += c.bytes;
                if run_from.is_some() && run_from != Some(c.tier) {
                    flush_run(
                        &mut self.pending_migrations,
                        id,
                        &mut run_from,
                        &mut run_bytes,
                    );
                }
                run_from = Some(c.tier);
                run_bytes += c.bytes;
            }
            flush_run(
                &mut self.pending_migrations,
                id,
                &mut run_from,
                &mut run_bytes,
            );
            if free == 0 {
                break;
            }
        }
    }

    /// Promotes hottest-stream spilled bytes into free device space.
    fn promote_into_free(&mut self) {
        if self.cluster_mode.is_some() {
            self.promote_into_free_clusters();
            return;
        }
        let mut free = self
            .caps
            .device_bytes
            .saturating_sub(self.used[tier_index(MemTier::Device)]);
        if free == 0 {
            return;
        }
        // Hottest first; ties broken by id for determinism (slots are
        // in id order).
        let mut order: Vec<usize> = (0..self.sessions.len())
            .filter(|&i| self.sessions[i].1.spilled_bytes() > 0)
            .collect();
        order.sort_by(|&a, &b| {
            let ra = self.sessions[a].1.last_active_ps;
            let rb = self.sessions[b].1.last_active_ps;
            rb.cmp(&ra).then(a.cmp(&b))
        });
        for i in order {
            if free == 0 {
                break;
            }
            let (id, r) = &mut self.sessions[i];
            let id = *id;
            for tier in [MemTier::Host, MemTier::Ssd] {
                let moved = tier_bytes(r, tier).min(free);
                *tier_bytes_mut(r, tier) -= moved;
                r.device_bytes += moved;
                self.used[tier_index(tier)] -= moved;
                self.used[tier_index(MemTier::Device)] += moved;
                free -= moved;
                self.stats.promoted_bytes += moved;
                if moved > 0 {
                    self.pending_migrations.push(MigrationTask {
                        session: id,
                        from: tier,
                        to: MemTier::Device,
                        bytes: moved,
                    });
                }
            }
        }
    }
}

/// Clusters of an `n`-cluster session protected from first-pass spill
/// (the WiCSum-hot prefix).
fn protected_clusters(n: u64, ratio: f64) -> u64 {
    ((n as f64 * ratio).ceil() as u64).min(n)
}

/// Emits one coalesced promotion task for a finished same-tier run.
fn flush_run(
    pending: &mut Vec<MigrationTask>,
    session: usize,
    run_from: &mut Option<MemTier>,
    run_bytes: &mut u64,
) {
    if let Some(from) = run_from.take() {
        pending.push(MigrationTask {
            session,
            from,
            to: MemTier::Device,
            bytes: std::mem::take(run_bytes),
        });
    }
}

fn tier_index(tier: MemTier) -> usize {
    match tier {
        MemTier::Device => 0,
        MemTier::Host => 1,
        MemTier::Ssd => 2,
    }
}

fn tier_bytes(r: &Residency, tier: MemTier) -> u64 {
    match tier {
        MemTier::Device => r.device_bytes,
        MemTier::Host => r.host_bytes,
        MemTier::Ssd => r.ssd_bytes,
    }
}

fn tier_bytes_mut(r: &mut Residency, tier: MemTier) -> &mut u64 {
    match tier {
        MemTier::Device => &mut r.device_bytes,
        MemTier::Host => &mut r.host_bytes,
        MemTier::Ssd => &mut r.ssd_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrex_hwsim::dram::DramConfig;
    use vrex_hwsim::pcie::PcieConfig;
    use vrex_hwsim::seconds_to_ps;
    use vrex_hwsim::ssd::SsdConfig;

    const GIB: u64 = 1 << 30;

    fn server_manager(device: u64, host: u64, ssd: u64) -> TieredKvManager {
        TieredKvManager::new(
            TierCapacities {
                device_bytes: device,
                host_bytes: host,
                ssd_bytes: ssd,
            },
            TierPath {
                pcie: PcieConfig::gen4_x16(),
                host_dram: Some(DramConfig::ddr4_cpu()),
                ssd: Some(SsdConfig::bg6_class()),
            },
        )
    }

    #[test]
    fn streams_stay_device_resident_until_the_budget_trips() {
        let mut m = server_manager(4 * GIB, 8 * GIB, 0);
        m.admit(0, 2 * GIB, 0);
        m.admit(1, 2 * GIB, 1);
        assert_eq!(m.used_bytes(MemTier::Device), 4 * GIB);
        assert_eq!(m.used_bytes(MemTier::Host), 0);
        assert_eq!(m.ever_spilled_sessions(), 0);
    }

    #[test]
    fn overflow_spills_the_coldest_stream_first() {
        let mut m = server_manager(4 * GIB, 8 * GIB, 0);
        m.admit(0, 2 * GIB, 0); // coldest
        m.admit(1, 2 * GIB, 1);
        m.admit(2, 2 * GIB, 2); // 2 GiB over budget
        let r0 = *m.residency(0).unwrap();
        assert_eq!(r0.host_bytes, 2 * GIB, "stream 0 spilled: {r0:?}");
        assert_eq!(m.residency(2).unwrap().host_bytes, 0, "newcomer stays hot");
        assert_eq!(m.used_bytes(MemTier::Device), 4 * GIB);
        assert_eq!(m.stats().spilled_bytes, 2 * GIB);
        assert_eq!(m.ever_spilled_sessions(), 1);
    }

    #[test]
    fn host_overflow_cascades_to_the_ssd() {
        let mut m = server_manager(GIB, GIB, 64 * GIB);
        m.admit(0, GIB, 0);
        m.admit(1, GIB, 1);
        m.admit(2, GIB, 2);
        // 3 GiB of demand into 1 GiB device + 1 GiB host: the coldest
        // stream's spill lands on the SSD.
        assert_eq!(m.used_bytes(MemTier::Device), GIB);
        assert_eq!(m.used_bytes(MemTier::Host), GIB);
        assert_eq!(m.used_bytes(MemTier::Ssd), GIB);
    }

    #[test]
    fn release_promotes_the_hottest_spilled_stream() {
        let mut m = server_manager(4 * GIB, 8 * GIB, 0);
        m.admit(0, 2 * GIB, 0);
        m.admit(1, 2 * GIB, 1);
        m.admit(2, 2 * GIB, 2); // spills 0
        assert_eq!(m.residency(0).unwrap().host_bytes, 2 * GIB);
        m.release(1); // frees 2 GiB of device
        let r0 = *m.residency(0).unwrap();
        assert_eq!(r0.host_bytes, 0, "stream 0 promoted back: {r0:?}");
        assert_eq!(r0.device_bytes, 2 * GIB);
        assert_eq!(m.stats().promoted_bytes, 2 * GIB);
    }

    #[test]
    fn device_resident_steps_are_tier_hits() {
        let mut m = server_manager(4 * GIB, 8 * GIB, 0);
        m.admit(0, GIB, 0);
        let p = m.step_restore(0, 1.0, false, 0, &NoPrefetch);
        assert_eq!(p, RestoreOutcome::default());
        assert_eq!(m.stats().tier_hit_steps, 1);
        assert_eq!(m.stats().tier_miss_steps, 0);
    }

    #[test]
    fn spill_then_prefetch_matches_hand_computed_migration() {
        // One full spill → prefetch round trip, hand-computed.
        //
        // Stream 0 (2 GiB) goes cold and is spilled to host DRAM by the
        // admissions of streams 1 and 2. Its next frame step (selection
        // ratio 1.0) must restore all 2 GiB over PCIe 4.0 ×16 in
        // 256 KiB chunks. By hand (DDR4 at ~102 GB/s outruns the link,
        // so the pipelined migration equals the PCIe leg):
        //   bytes   = 2^31;  chunks = 2^31 / 2^18 = 8192
        //   TLPs    = 2^31/256 + 8192 = 8_388_608 + 8_192 = 8_396_800
        //   wire    = 2^31 + 8_396_800·24 = 2_349_006_848 B
        //   wire ps = 2_349_006_848 / 32e9 · 1e12 ≈ 73_406_464_000
        //   total   = wire ps + 8192·400_000 ≈ 76_683_264_000 ps
        // Demand fetch exposes all of it; speculative prefetch at 90%
        // accuracy with an ample overlap window hides 90% and exposes
        // exactly the mispredicted 10%.
        let mut m = server_manager(4 * GIB, 8 * GIB, 0);
        m.admit(0, 2 * GIB, 0);
        m.admit(1, 2 * GIB, 1);
        m.admit(2, 2 * GIB, 2);
        assert_eq!(m.residency(0).unwrap().host_bytes, 2 * GIB);

        let bytes = 2 * GIB;
        let chunks = bytes / MIGRATION_CHUNK_BYTES;
        let tlps = bytes / 256 + chunks;
        let wire_bytes = bytes + tlps * 24;
        let miss_ps = seconds_to_ps(wire_bytes as f64 / 32.0e9) + chunks * 400_000;

        let demand = m.step_restore(0, 1.0, false, u64::MAX, &NoPrefetch);
        assert_eq!(demand.miss_ps, miss_ps);
        assert_eq!(demand.exposed_ps, miss_ps);

        let spec = SpeculativePrefetch { accuracy: 0.9 };
        let out = m.step_restore(0, 1.0, false, u64::MAX, &spec);
        assert_eq!(out.miss_ps, miss_ps);
        assert_eq!(out.exposed_ps, miss_ps - (miss_ps as f64 * 0.9) as u64);
        assert_eq!(m.stats().tier_miss_steps, 2);
        assert_eq!(m.stats().restored_bytes, 2 * bytes);
    }

    #[test]
    fn narrow_window_bounds_what_prefetch_can_hide() {
        let mut m = server_manager(GIB, 8 * GIB, 0);
        m.admit(0, GIB, 0);
        m.admit(1, GIB, 1); // spills 0 entirely
        let spec = SpeculativePrefetch { accuracy: 1.0 };
        let full = m.step_restore(0, 1.0, false, 0, &spec).exposed_ps;
        let window = full / 2;
        let half = m.step_restore(0, 1.0, false, window, &spec).exposed_ps;
        assert_eq!(half, full - window, "only the window is hidden");
    }

    #[test]
    fn selection_ratio_scales_the_restore() {
        let mut m = server_manager(GIB, 8 * GIB, 0);
        m.admit(0, GIB, 0);
        m.admit(1, GIB, 1);
        let full = m.step_restore(0, 1.0, false, 0, &NoPrefetch).exposed_ps;
        let tenth = m.step_restore(0, 0.1, false, 0, &NoPrefetch).exposed_ps;
        assert!(tenth < full / 5, "ratio 0.1 restore {tenth} vs full {full}");
        assert!(tenth > 0);
    }

    #[test]
    fn grow_keeps_the_growing_stream_hot() {
        let mut m = server_manager(2 * GIB, 8 * GIB, 0);
        m.admit(0, GIB, 0);
        m.admit(1, GIB, 1);
        // Stream 1 grows past the budget at t=2: stream 0 (colder)
        // takes the spill even though 1 caused the overflow.
        m.grow(1, GIB, 2);
        assert_eq!(m.residency(0).unwrap().host_bytes, GIB);
        assert_eq!(m.residency(1).unwrap().spilled_bytes(), 0);
    }

    #[test]
    fn migration_price_memo_is_bit_identical_to_the_closed_form() {
        let mut m = server_manager(4 * GIB, 8 * GIB, 64 * GIB);
        let path = TierPath {
            pcie: PcieConfig::gen4_x16(),
            host_dram: Some(DramConfig::ddr4_cpu()),
            ssd: Some(SsdConfig::bg6_class()),
        };
        // The repeated 1 MiB shape exercises the hit path; every lookup
        // must equal the direct closed form exactly.
        for bytes in [1u64, 4096, 1 << 20, 2 * GIB, 1 << 20, 4096] {
            for (from, to) in [
                (MemTier::Host, MemTier::Device),
                (MemTier::Ssd, MemTier::Device),
                (MemTier::Device, MemTier::Host),
                (MemTier::Host, MemTier::Ssd),
            ] {
                assert_eq!(
                    m.migration_price_ps(from, to, bytes),
                    path.migrate_ps(from, to, bytes, MIGRATION_CHUNK_BYTES),
                    "{from}->{to} {bytes}B"
                );
            }
        }
        assert!(m.price_hits() > 0, "repeated shapes must hit the memo");
        // Zero bytes and same-tier moves stay free without polluting it.
        let misses = m.price_misses();
        assert_eq!(m.migration_price_ps(MemTier::Host, MemTier::Device, 0), 0);
        assert_eq!(m.migration_price_ps(MemTier::Host, MemTier::Host, GIB), 0);
        assert_eq!(m.price_misses(), misses);
    }

    #[test]
    fn repeated_restore_shapes_hit_the_memo() {
        let mut m = server_manager(GIB, 8 * GIB, 0);
        m.admit(0, GIB, 0);
        m.admit(1, GIB, 1); // spills 0 entirely
        let a = m.step_restore(0, 0.5, false, 0, &NoPrefetch);
        let hits_before = m.price_hits();
        let b = m.step_restore(0, 0.5, false, 0, &NoPrefetch);
        assert_eq!(a, b, "memoized repeat must be bit-identical");
        assert!(m.price_hits() > hits_before, "second shape is a hit");
    }

    #[test]
    fn spills_and_promotions_emit_migration_tasks() {
        let mut m = server_manager(4 * GIB, 8 * GIB, 0);
        m.admit(0, 2 * GIB, 0);
        m.admit(1, 2 * GIB, 1);
        assert!(m.take_migrations().is_empty(), "no pressure, no tasks");
        m.admit(2, 2 * GIB, 2); // spills stream 0 down
        assert_eq!(
            m.take_migrations(),
            vec![MigrationTask {
                session: 0,
                from: MemTier::Device,
                to: MemTier::Host,
                bytes: 2 * GIB,
            }]
        );
        assert!(m.take_migrations().is_empty(), "drain empties the queue");
        m.release(1); // frees device space: stream 0 promotes back
        assert_eq!(
            m.take_migrations(),
            vec![MigrationTask {
                session: 0,
                from: MemTier::Host,
                to: MemTier::Device,
                bytes: 2 * GIB,
            }]
        );
    }

    #[test]
    fn plan_and_commit_reproduce_step_restore() {
        let mk = || {
            let mut m = server_manager(GIB, 8 * GIB, 0);
            m.admit(0, GIB, 0);
            m.admit(1, GIB, 1); // spills 0 entirely
            m
        };
        let spec = SpeculativePrefetch { accuracy: 0.9 };
        let window = 123_456_789u64;
        let mut serialized = mk();
        let out = serialized.step_restore(0, 1.0, false, window, &spec);
        // The decomposed path: plan, apply the same window rule, commit.
        let mut decomposed = mk();
        let plan = decomposed.plan_restore(0, 1.0, false, &spec);
        assert_eq!(plan.miss_ps(), out.miss_ps);
        assert!(plan.host_bytes > 0, "spill lives in host DRAM");
        assert_eq!(plan.ssd_bytes, 0);
        let hidden = ((plan.miss_ps() as f64 * plan.coverage) as u64).min(window);
        assert_eq!(out.exposed_ps, plan.miss_ps() - hidden);
        decomposed.commit_restore(&plan, hidden, plan.miss_ps() - hidden);
        assert_eq!(serialized.stats(), decomposed.stats());
        // A hit commits as a hit: fully device-resident stream.
        let mut hot = server_manager(4 * GIB, 8 * GIB, 0);
        hot.admit(7, GIB, 0);
        let plan = hot.plan_restore(7, 1.0, false, &spec);
        assert_eq!(plan, RestorePlan::default());
        hot.commit_restore(&plan, 0, 0);
        assert_eq!(hot.stats().tier_hit_steps, 1);
        assert_eq!(hot.stats().tier_miss_steps, 0);
    }

    #[test]
    fn cluster_spill_demotes_the_cold_tail_one_run_at_a_time() {
        // 256 KiB clusters, half of each session WiCSum-protected.
        let mut m =
            server_manager(2 * GIB, 8 * GIB, 0).with_cluster_mode(MIGRATION_CHUNK_BYTES, 0.5);
        m.admit(0, 2 * GIB, 0); // fills the device exactly
        m.grow(0, MIGRATION_CHUNK_BYTES, 1); // one cluster over
        let r = *m.residency(0).unwrap();
        assert_eq!(r.device_bytes, 2 * GIB);
        assert_eq!(r.host_bytes, MIGRATION_CHUNK_BYTES);
        assert_eq!(
            m.spilled_clusters(0),
            vec![(0, MemTier::Host, MIGRATION_CHUNK_BYTES)],
            "coldness rank 0 spilled to host"
        );
        assert_eq!(
            m.take_migrations(),
            vec![MigrationTask {
                session: 0,
                from: MemTier::Device,
                to: MemTier::Host,
                bytes: MIGRATION_CHUNK_BYTES,
            }],
            "one coalesced cluster-sized demotion"
        );
        assert_eq!(m.stats().spilled_bytes, MIGRATION_CHUNK_BYTES);
    }

    #[test]
    fn cluster_restore_prices_only_the_mispredicted_tail() {
        // Continues the single-cluster demotion above with a
        // hand-computed restore. One 256 KiB cluster sits on host DRAM
        // at coldness rank 0. n = 8193 clusters, ratio 0.5 predicts
        // ceil(8193·0.5) = 4097 hot clusters (coldness ranks >= 4096 —
        // none spilled, so nothing is speculated), and at 90% accuracy
        // ceil(4097·0.1) = 410 tail clusters are mispredicted. The
        // rotation starts at step_seq = 0, so tail rank 0 — the one
        // spilled cluster — is demand-fetched. By hand over PCIe 4.0
        // ×16 in one 256 KiB chunk:
        //   TLPs = 262144/256 + 1 = 1025
        //   wire = 262144 + 1025·24 = 286_744 B
        //   ps   = 286_744/32e9·1e12 + 400_000
        let mut m =
            server_manager(2 * GIB, 8 * GIB, 0).with_cluster_mode(MIGRATION_CHUNK_BYTES, 0.5);
        m.admit(0, 2 * GIB, 0);
        m.grow(0, MIGRATION_CHUNK_BYTES, 1);

        let bytes = MIGRATION_CHUNK_BYTES;
        let tlps = bytes / 256 + 1;
        let wire = bytes + tlps * 24;
        let miss_ps = seconds_to_ps(wire as f64 / 32.0e9) + 400_000;

        let policy = ClusterPrefetch { accuracy: 0.9 };
        let out = m.step_restore(0, 0.5, false, u64::MAX, &policy);
        assert_eq!(out.miss_ps, miss_ps);
        assert_eq!(out.exposed_ps, miss_ps, "demand fetch hides nothing");
        assert_eq!(out.spec_bytes, 0);
        assert_eq!(out.demand_bytes, bytes);
        assert_eq!(out.spec_clusters, 0);
        assert_eq!(out.demand_clusters, 1);
        assert_eq!(out.mispredicted_clusters, 410);
        assert_eq!(m.stats().restored_bytes, bytes);

        // The next step's misprediction rotation moves off rank 0, so
        // the still-spilled cluster goes untouched: a tier hit.
        let out = m.step_restore(0, 0.5, false, u64::MAX, &policy);
        assert_eq!(out, RestoreOutcome::default());
        assert_eq!(m.stats().tier_hit_steps, 1);
        assert_eq!(m.stats().tier_miss_steps, 1);
    }

    #[test]
    fn cluster_spill_takes_cold_tails_before_any_hot_prefix() {
        // 1 GiB clusters, half protected: the 2 GiB overflow is met by
        // the cold *tails* of the two coldest sessions — flat LRU
        // would instead evict session 0 entirely, hot prefix included.
        let mut m = server_manager(4 * GIB, 8 * GIB, 0).with_cluster_mode(GIB, 0.5);
        m.admit(0, 2 * GIB, 0);
        m.admit(1, 2 * GIB, 1);
        m.admit(2, 2 * GIB, 2);
        let r0 = *m.residency(0).unwrap();
        let r1 = *m.residency(1).unwrap();
        let r2 = *m.residency(2).unwrap();
        assert_eq!((r0.device_bytes, r0.host_bytes), (GIB, GIB));
        assert_eq!((r1.device_bytes, r1.host_bytes), (GIB, GIB));
        assert_eq!(r2.spilled_bytes(), 0, "newcomer stays hot");
        assert_eq!(m.ever_spilled_sessions(), 2);
        // Conservation: each session's summary equals its cluster map.
        for id in 0..3 {
            let r = *m.residency(id).unwrap();
            let spilled: u64 = m.spilled_clusters(id).iter().map(|&(_, _, b)| b).sum();
            assert_eq!(r.spilled_bytes(), spilled);
            assert_eq!(r.device_bytes, r.total_bytes() - spilled);
        }
    }

    #[test]
    fn cluster_promotion_returns_hottest_sessions_hottest_clusters() {
        let mut m = server_manager(4 * GIB, 8 * GIB, 0).with_cluster_mode(GIB, 0.5);
        m.admit(0, 2 * GIB, 0);
        m.admit(1, 2 * GIB, 1);
        m.admit(2, 2 * GIB, 2); // spills one cluster each of 0 and 1
        m.take_migrations();
        m.release(2); // frees 2 GiB: both spilled clusters promote
        assert_eq!(m.residency(0).unwrap().spilled_bytes(), 0);
        assert_eq!(m.residency(1).unwrap().spilled_bytes(), 0);
        assert_eq!(
            m.take_migrations(),
            vec![
                // Hotter session 1 promotes before colder session 0.
                MigrationTask {
                    session: 1,
                    from: MemTier::Host,
                    to: MemTier::Device,
                    bytes: GIB,
                },
                MigrationTask {
                    session: 0,
                    from: MemTier::Host,
                    to: MemTier::Device,
                    bytes: GIB,
                },
            ]
        );
        assert_eq!(m.stats().promoted_bytes, 2 * GIB);
    }

    #[test]
    fn cluster_host_overflow_cascades_cold_clusters_to_the_ssd() {
        let mut m = server_manager(GIB, GIB, 64 * GIB).with_cluster_mode(GIB / 4, 0.0);
        m.admit(0, GIB, 0);
        m.admit(1, GIB, 1);
        m.admit(2, GIB, 2);
        assert_eq!(m.used_bytes(MemTier::Device), GIB);
        assert_eq!(m.used_bytes(MemTier::Host), GIB);
        assert_eq!(m.used_bytes(MemTier::Ssd), GIB);
        // Every spilled cluster sits in exactly one tier and per-tier
        // sums match the residency summaries.
        for id in 0..3 {
            let r = *m.residency(id).unwrap();
            let (mut host, mut ssd) = (0u64, 0u64);
            for (_, tier, b) in m.spilled_clusters(id) {
                match tier {
                    MemTier::Host => host += b,
                    MemTier::Ssd => ssd += b,
                    MemTier::Device => panic!("device cluster in the spilled set"),
                }
            }
            assert_eq!(host, r.host_bytes);
            assert_eq!(ssd, r.ssd_bytes);
        }
    }

    #[test]
    fn flat_policies_on_a_cluster_manager_fall_back_to_byte_math() {
        let mut m = server_manager(GIB, 8 * GIB, 0).with_cluster_mode(MIGRATION_CHUNK_BYTES, 0.0);
        m.admit(0, GIB, 0);
        m.admit(1, GIB, 1); // spills 0 entirely
        let out = m.step_restore(0, 1.0, false, 0, &NoPrefetch);
        assert!(out.miss_ps > 0);
        assert_eq!(out.exposed_ps, out.miss_ps);
        assert_eq!(
            (
                out.spec_clusters,
                out.demand_clusters,
                out.mispredicted_clusters
            ),
            (0, 0, 0),
            "flat plans carry no cluster telemetry"
        );
        assert_eq!(m.stats().restored_bytes, GIB);
    }

    #[test]
    fn untracked_streams_cost_nothing() {
        let mut m = server_manager(GIB, GIB, 0);
        assert_eq!(
            m.step_restore(99, 1.0, true, 0, &NoPrefetch),
            RestoreOutcome::default()
        );
        m.touch(99, 5);
        m.release(99);
        assert_eq!(m.stats(), TierStats::default());
    }
}
