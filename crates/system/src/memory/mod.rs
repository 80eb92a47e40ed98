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
//! The manager core — residency tracking, restore planning and
//! committing, the migration-price memo — lives in this file. *What* a
//! spill, promotion or restore moves is the one decision the two
//! granularities differ on: whole-stream byte fractions in `flat`,
//! WiCSum-ranked hash clusters in `cluster`.
//!
//! This module moves bytes *vertically* (between tiers of one device's
//! hierarchy). The multi-device [`crate::placement`] layer moves them
//! *horizontally* — between devices over the NVLink / PCIe-switch
//! fabric. A placement decides at most one copy per session and
//! schedules it on the fabric at once, where this manager queues
//! [`MigrationTask`]s behind [`TieredKvManager::drain_migrations_into`];
//! both are priced in [`MIGRATION_CHUNK_BYTES`] DMA chunks.

mod cluster;
mod flat;

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use vrex_hwsim::tier::{MemTier, TierCapacities, TierPath};
use vrex_model::ModelConfig;
use vrex_retrieval::prefetch::{ClusterPrefetch, NoPrefetch, PrefetchPolicy, SpeculativePrefetch};

use crate::e2e::SystemModel;
use crate::pricing::PriceKeyHasher;
use cluster::{ClusterModeCfg, ClusterState};

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

    /// Link time of the speculated share (ps): what the prefetch policy
    /// has in flight ahead of the step, before a window or link
    /// contention bounds how much of it actually hides.
    pub fn spec_ps(&self) -> u64 {
        if self.cluster {
            // Cluster plans partition the restore into exact byte sets:
            // the speculated share is integer byte math, no float knob.
            match self.bytes() {
                0 => 0,
                bytes => (self.miss_ps() as u128 * self.spec_bytes as u128 / bytes as u128) as u64,
            }
        } else {
            // vrex-lint: allow(float-time) — prefetch coverage is a float model knob; the speculated share is floored to integer ps here, before any deadline or link-scheduling arithmetic sees it.
            (self.miss_ps() as f64 * self.coverage) as u64
        }
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

/// One tracked stream: where its resident KV lives and, in cluster
/// mode, which of its hash clusters sit below the device (the
/// `Residency` summary stays authoritative for byte totals).
#[derive(Debug, Default)]
struct SessionTier {
    id: usize,
    res: Residency,
    clusters: ClusterState,
    /// Whether any of this stream's bytes ever left the device tier.
    ever_spilled: bool,
}

/// Fleet-wide tier residency tracker and migration pricer.
#[derive(Debug)]
pub struct TieredKvManager {
    caps: TierCapacities,
    path: TierPath,
    /// Tracked streams, sorted by session id (the scheduler's fleets
    /// are small, so a sorted vec beats a tree map on both lookup and
    /// the promotion scans; the flat spill victim is memoized in
    /// `flat_victim`, not scanned per spill).
    sessions: Vec<SessionTier>,
    /// Flat mode's spill victim as `(last_active_ps, id)`: the minimum
    /// key over streams holding device bytes, or `None` for "unknown,
    /// rescan". Only a flat spill sets it, so it stays `None` in
    /// cluster mode. Exact by two rules: a stream that is the memo is
    /// invalidated when it is touched, grown, drained off the device
    /// or released; any other stream holding device bytes that gets a
    /// new key (or regains device bytes) lowers the memo to the
    /// smaller key — a stream warming at the victim's picosecond with
    /// a smaller id becomes the victim.
    flat_victim: Option<(u64, usize)>,
    /// Cluster-granular cold-data tracking, enabled by
    /// [`Self::with_cluster_mode`].
    cluster_mode: Option<ClusterModeCfg>,
    /// Fleet-wide resident bytes per tier (device, host, ssd), kept
    /// incrementally so the per-step budget checks are O(1) instead of
    /// a fleet scan (the scheduler grows streams every batch).
    used: [u64; 3],
    /// Streams whose `ever_spilled` flag was ever set, including
    /// released ones.
    ever_spilled_count: usize,
    /// Session-slot ordering buffer of the spill and promotion sweeps,
    /// kept so a pressure event allocates nothing.
    order_scratch: Vec<usize>,
    stats: TierStats,
    /// Migrations decided since the last
    /// [`Self::drain_migrations_into`], in decision order.
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
            sessions: Vec::new(),
            flat_victim: None,
            cluster_mode: None,
            used: [0; 3],
            ever_spilled_count: 0,
            order_scratch: Vec::new(),
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

    /// The tier budgets.
    pub fn capacities(&self) -> TierCapacities {
        self.caps
    }

    /// Bytes currently resident in one tier, fleet-wide (maintained
    /// incrementally; `debug_assert`-checked against the fleet scan).
    pub fn used_bytes(&self, tier: MemTier) -> u64 {
        debug_assert_eq!(
            self.used[tier_index(tier)],
            self.sessions
                .iter()
                .map(|s| tier_bytes(&s.res, tier))
                .sum::<u64>(),
            "cached {tier} total diverged from the fleet scan"
        );
        self.used[tier_index(tier)]
    }

    /// Bytes `tier` can still take before it is over budget.
    fn room(&self, tier: MemTier) -> u64 {
        self.caps
            .capacity(tier)
            .saturating_sub(self.used[tier_index(tier)])
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
        self.slot(id).ok().map(|i| &self.sessions[i].res)
    }

    /// Slot of `id` in the sorted session vec (`Err` = insertion point).
    fn slot(&self, id: usize) -> Result<usize, usize> {
        self.sessions.binary_search_by_key(&id, |s| s.id)
    }

    /// Statistics so far.
    pub fn stats(&self) -> TierStats {
        self.stats
    }

    /// Streams that were ever (partially) spilled below the device
    /// (an id admitted again after its release is a new stream).
    pub fn ever_spilled_sessions(&self) -> usize {
        self.ever_spilled_count
    }

    /// Whether a tracked stream was ever (partially) spilled below the
    /// device. The flag lives with the stream's residency record, so
    /// it answers `false` once the stream is released — ask before
    /// [`Self::release`].
    pub fn was_ever_spilled(&self, id: usize) -> bool {
        self.slot(id).is_ok_and(|i| self.sessions[i].ever_spilled)
    }

    /// Counts the stream in `slot` as spilled, once.
    fn mark_spilled(&mut self, slot: usize) {
        let s = &mut self.sessions[slot];
        self.ever_spilled_count += usize::from(!s.ever_spilled);
        s.ever_spilled = true;
    }

    /// Drains the migrations decided since the last drain (spills from
    /// [`Self::admit`]/[`Self::grow`], promotions from
    /// [`Self::release`]) into a caller-owned buffer, appended in
    /// decision order; both vectors keep their capacities, so the
    /// serving hot loop — which drains at every admission pass and
    /// batch completion — allocates nothing. The resource-timeline
    /// scheduler prices each task and places it on the shared link as a
    /// background task; the serialized scheduler discards them (its
    /// writebacks stream behind compute by assumption).
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
            .map_or(MIGRATION_CHUNK_BYTES, |c| c.cluster_bytes);
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
        match self.slot(id) {
            Ok(slot) => self.plan_restore_at(slot, ratio, generation, prefetch),
            Err(_) => RestorePlan::default(),
        }
    }

    /// [`Self::plan_restore`] for the tracked stream in `slot`.
    fn plan_restore_at(
        &mut self,
        slot: usize,
        ratio: f64,
        generation: bool,
        prefetch: &dyn PrefetchPolicy,
    ) -> RestorePlan {
        let ratio = ratio.clamp(0.0, 1.0);
        if let Some(cfg) = self.cluster_mode {
            if let Some(plan) = self.cluster_restore_plan(slot, ratio, generation, cfg, prefetch) {
                return plan;
            }
            // A cluster-blind policy on a cluster-mode manager falls
            // back to the flat byte math (reference path).
        }
        self.flat_restore_plan(slot, ratio, generation, prefetch)
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
            if let Ok(i) = self.slot(plan.session) {
                self.sessions[i].clusters.step_seq += 1;
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
        if let Err(i) = self.slot(id) {
            let fresh = SessionTier {
                id,
                ..SessionTier::default()
            };
            self.sessions.insert(i, fresh);
        }
        self.grow(id, bytes, now_ps);
    }

    /// Grows a stream's resident demand by `delta` bytes (new KV lands
    /// in device memory) and marks it active.
    pub fn grow(&mut self, id: usize, delta: u64, now_ps: u64) {
        if let Ok(i) = self.slot(id) {
            let r = &mut self.sessions[i].res;
            r.device_bytes += delta;
            r.last_active_ps = now_ps;
            self.used[tier_index(MemTier::Device)] += delta;
            self.rekey_flat_victim(i);
        }
        self.spill_down();
    }

    /// Marks a stream active (it just executed) without growing it.
    pub fn touch(&mut self, id: usize, now_ps: u64) {
        if let Ok(i) = self.slot(id) {
            self.sessions[i].res.last_active_ps = now_ps;
            self.rekey_flat_victim(i);
        }
    }

    /// Retires a stream, freeing its bytes, then promotes the hottest
    /// spilled streams into the freed device space.
    pub fn release(&mut self, id: usize) {
        if let Ok(i) = self.slot(id) {
            self.forget_flat_victim(id);
            let s = self.sessions.remove(i);
            for tier in MemTier::ALL {
                self.used[tier_index(tier)] -= tier_bytes(&s.res, tier);
            }
        }
        self.promote_into_free();
    }

    /// Prices the tier miss of one step, applies prefetch overlap and
    /// commits the outcome: returns the committed plan and the
    /// migration time left exposed on the critical path (ps). An
    /// untracked stream restores nothing and counts nothing.
    ///
    /// `ratio` is the method's selection ratio for the step's stage —
    /// the share of the stream's spilled bytes the step must restore.
    /// `window_ps` is how long the restore could have been in flight
    /// before the step's results are needed: queue wait plus the
    /// step's own compute (which the transfer pipelines with layer by
    /// layer), *minus* whatever of that window other streams' restores
    /// have already claimed on the shared link — the caller owns that
    /// accounting via [`RestorePlan::miss_ps`].
    pub fn step_restore(
        &mut self,
        id: usize,
        ratio: f64,
        generation: bool,
        window_ps: u64,
        prefetch: &dyn PrefetchPolicy,
    ) -> (RestorePlan, u64) {
        let Ok(slot) = self.slot(id) else {
            return (RestorePlan::default(), 0);
        };
        let plan = self.plan_restore_at(slot, ratio, generation, prefetch);
        let hidden = plan.spec_ps().min(window_ps);
        let exposed = plan.miss_ps() - hidden;
        self.commit_restore(&plan, hidden, exposed);
        (plan, exposed)
    }

    /// Demotes coldest bytes until the device budget holds — whole
    /// coldest streams in flat mode, coldest *clusters* of any stream
    /// in cluster mode. Only the device can go over budget: every
    /// demotion is bounded by its destination's room.
    fn spill_down(&mut self) {
        match self.cluster_mode {
            Some(cfg) => self.spill_clusters(cfg),
            None => self.spill_flat(),
        }
        debug_assert!(
            [MemTier::Host, MemTier::Ssd]
                .iter()
                .all(|&t| self.used[tier_index(t)] <= self.caps.capacity(t)),
            "a tier below the device went over budget: {:?} in {:?}",
            self.used,
            self.caps
        );
    }

    /// Promotes spilled bytes into free device space, hottest streams
    /// first (ties broken by id for determinism).
    fn promote_into_free(&mut self) {
        let free = self.room(MemTier::Device);
        if free == 0 {
            return;
        }
        let mut order = std::mem::take(&mut self.order_scratch);
        order.clear();
        order
            .extend((0..self.sessions.len()).filter(|&i| self.sessions[i].res.spilled_bytes() > 0));
        // Keys are unique (ids are), so the unstable sort is the order.
        order.sort_unstable_by_key(|&i| {
            let s = &self.sessions[i];
            (std::cmp::Reverse(s.res.last_active_ps), s.id)
        });
        if self.cluster_mode.is_some() {
            self.promote_clusters(&order, free);
        } else {
            self.promote_flat(&order, free);
        }
        self.order_scratch = order;
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
mod tests;
