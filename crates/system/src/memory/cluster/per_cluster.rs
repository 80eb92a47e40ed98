//! The cluster-mode tier manager as it was before run-length residency:
//! one `Vec` element per spilled cluster, one loop iteration per
//! cluster moved or priced. Kept as the reference
//! `memory::tests::run_length_clusters_match_the_per_cluster_reference`
//! checks [`TieredKvManager`](super::TieredKvManager) against; it
//! shares only the pieces the run-length rewrite left alone (granule,
//! protected prefix, route coalescing, the closed-form prices).

use vrex_hwsim::tier::{MemTier, TierCapacities, TierPath};
use vrex_retrieval::prefetch::{ClusterPrefetchRequest, PrefetchPolicy};

use super::super::{
    tier_bytes, tier_bytes_mut, tier_index, MigrationTask, Residency, RestorePlan, TierStats,
};
use super::{flush_run, protected_clusters, ClusterModeCfg};

/// Branches of the per-cluster walk, recorded in
/// [`PerClusterManager::reached`] as the reference takes them: the
/// managers run in lockstep, so the differential test has driven the
/// run-length code through whatever these say it reached.
pub(in crate::memory) mod reach {
    /// Chaining coarsened the granule between two spills of a session
    /// (adjacent clusters of different sizes: the runs cannot merge).
    pub const COARSENED: u32 = 1 << 0;
    /// A partial last cluster (`total % granule != 0`) was demoted.
    pub const PARTIAL: u32 = 1 << 1;
    /// A device cluster went straight to the SSD: no host tier.
    pub const NO_HOST: u32 = 1 << 2;
    /// The protected second pass moved a cluster.
    pub const PROTECTED_PASS: u32 = 1 << 3;
    /// No lower tier had room for a cluster (`demote` gave up).
    pub const FULL: u32 = 1 << 4;
    /// Promotion stopped on `bytes > free` between two equal clusters.
    pub const PROMOTE_MID_RUN: u32 = 1 << 5;
    /// The misprediction rotation wrapped past `tail` onto a spilled
    /// rank.
    pub const ROTATION_WRAP: u32 = 1 << 6;
    pub const ALL: u32 = (1 << 7) - 1;
}

/// One spilled cluster's location and frozen size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SpilledCluster {
    tier: MemTier,
    bytes: u64,
}

#[derive(Debug, Default)]
struct Session {
    id: usize,
    res: Residency,
    /// Spilled clusters; the index is the coldness rank.
    spilled: Vec<SpilledCluster>,
    step_seq: u64,
}

#[derive(Debug)]
pub(in crate::memory) struct PerClusterManager {
    caps: TierCapacities,
    path: TierPath,
    cfg: ClusterModeCfg,
    sessions: Vec<Session>,
    used: [u64; 3],
    ever_spilled: std::collections::BTreeSet<usize>,
    pub(in crate::memory) stats: TierStats,
    pub(in crate::memory) pending_migrations: Vec<MigrationTask>,
    /// [`reach`] flags of the branches taken so far.
    pub(in crate::memory) reached: u32,
}

impl PerClusterManager {
    pub(in crate::memory) fn new(
        caps: TierCapacities,
        path: TierPath,
        cluster_bytes: u64,
        protected_ratio: f64,
    ) -> Self {
        Self {
            caps,
            path,
            cfg: ClusterModeCfg {
                cluster_bytes: cluster_bytes.max(1),
                protected_ratio: protected_ratio.clamp(0.0, 1.0),
            },
            sessions: Vec::new(),
            used: [0; 3],
            ever_spilled: std::collections::BTreeSet::new(),
            stats: TierStats::default(),
            pending_migrations: Vec::new(),
            reached: 0,
        }
    }

    fn slot(&self, id: usize) -> Result<usize, usize> {
        self.sessions.binary_search_by_key(&id, |s| s.id)
    }

    pub(in crate::memory) fn residency(&self, id: usize) -> Option<&Residency> {
        self.slot(id).ok().map(|i| &self.sessions[i].res)
    }

    pub(in crate::memory) fn ever_spilled_sessions(&self) -> usize {
        self.ever_spilled.len()
    }

    pub(in crate::memory) fn spilled_clusters(&self, id: usize) -> Vec<(u64, MemTier, u64)> {
        match self.slot(id) {
            Ok(i) => self.sessions[i]
                .spilled
                .iter()
                .zip(0u64..)
                .map(|(c, rank)| (rank, c.tier, c.bytes))
                .collect(),
            Err(_) => Vec::new(),
        }
    }

    fn price(&self, from: MemTier, bytes: u64) -> u64 {
        match bytes {
            0 => 0,
            _ => self
                .path
                .migrate_ps(from, MemTier::Device, bytes, self.cfg.cluster_bytes),
        }
    }

    pub(in crate::memory) fn plan_restore(
        &mut self,
        id: usize,
        ratio: f64,
        generation: bool,
        prefetch: &dyn PrefetchPolicy,
    ) -> RestorePlan {
        let Ok(slot) = self.slot(id) else {
            return RestorePlan::default();
        };
        let mut reached = 0;
        let s = &self.sessions[slot];
        let total = s.res.total_bytes();
        let n = total.div_ceil(self.cfg.granule(total));
        let cp = prefetch
            .cluster_plan(&ClusterPrefetchRequest {
                clusters: n,
                selection_ratio: ratio.clamp(0.0, 1.0),
                generation,
                step_seq: s.step_seq,
            })
            // Cluster-blind policies are the flat path's business.
            .unwrap_or_default();
        let predicted = cp.predicted.min(n);
        let tail = n - predicted;
        let mispredicted = cp.mispredicted.min(tail);
        let mut spec = [0u64; 3];
        let mut spec_clusters = 0u64;
        for c in s.spilled.iter().skip(tail as usize) {
            spec[tier_index(c.tier)] += c.bytes;
            spec_clusters += 1;
        }
        let mut demand = [0u64; 3];
        let mut demand_clusters = 0u64;
        if tail > 0 {
            for j in 0..mispredicted {
                let cold = (s.step_seq + j) % tail;
                if let Some(c) = s.spilled.get(cold as usize) {
                    demand[tier_index(c.tier)] += c.bytes;
                    demand_clusters += 1;
                    if j > 0 && cold == 0 {
                        reached |= reach::ROTATION_WRAP;
                    }
                }
            }
        }
        let host_bytes = spec[1] + demand[1];
        let ssd_bytes = spec[2] + demand[2];
        let spec_bytes = spec[1] + spec[2];
        let demand_bytes = demand[1] + demand[2];
        let bytes = spec_bytes + demand_bytes;
        let id = s.id;
        self.reached |= reached;
        RestorePlan {
            host_bytes,
            ssd_bytes,
            host_ps: self.price(MemTier::Host, host_bytes),
            ssd_ps: self.price(MemTier::Ssd, ssd_bytes),
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
        }
    }

    pub(in crate::memory) fn commit_restore(
        &mut self,
        plan: &RestorePlan,
        hidden_ps: u64,
        exposed_ps: u64,
    ) {
        if plan.cluster {
            if let Ok(i) = self.slot(plan.session) {
                self.sessions[i].step_seq += 1;
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

    pub(in crate::memory) fn admit(&mut self, id: usize, bytes: u64, now_ps: u64) {
        if let Err(i) = self.slot(id) {
            let fresh = Session {
                id,
                ..Session::default()
            };
            self.sessions.insert(i, fresh);
        }
        self.grow(id, bytes, now_ps);
    }

    pub(in crate::memory) fn grow(&mut self, id: usize, delta: u64, now_ps: u64) {
        if let Ok(i) = self.slot(id) {
            let r = &mut self.sessions[i].res;
            r.device_bytes += delta;
            r.last_active_ps = now_ps;
            self.used[0] += delta;
        }
        self.spill_clusters();
    }

    pub(in crate::memory) fn touch(&mut self, id: usize, now_ps: u64) {
        if let Ok(i) = self.slot(id) {
            self.sessions[i].res.last_active_ps = now_ps;
        }
    }

    pub(in crate::memory) fn release(&mut self, id: usize) {
        if let Ok(i) = self.slot(id) {
            let s = self.sessions.remove(i);
            for tier in MemTier::ALL {
                self.used[tier_index(tier)] -= tier_bytes(&s.res, tier);
            }
        }
        let free = self.caps.device_bytes.saturating_sub(self.used[0]);
        if free == 0 {
            return;
        }
        let mut order: Vec<usize> = (0..self.sessions.len())
            .filter(|&i| self.sessions[i].res.spilled_bytes() > 0)
            .collect();
        order.sort_by_key(|&i| {
            let s = &self.sessions[i];
            (std::cmp::Reverse(s.res.last_active_ps), s.id)
        });
        self.promote_clusters(order, free);
    }

    fn spill_clusters(&mut self) {
        if self.used[0] <= self.caps.device_bytes {
            return;
        }
        let mut order: Vec<usize> = (0..self.sessions.len()).collect();
        order.sort_by_key(|&i| (self.sessions[i].res.last_active_ps, self.sessions[i].id));
        for protected_pass in [false, true] {
            for &si in &order {
                if self.used[0] <= self.caps.device_bytes {
                    return;
                }
                if !self.demote_session_clusters(si, protected_pass) {
                    return;
                }
            }
        }
    }

    fn demote_session_clusters(&mut self, si: usize, protected_pass: bool) -> bool {
        let cap = self.caps.device_bytes;
        let id = self.sessions[si].id;
        let total = self.sessions[si].res.total_bytes();
        if total == 0 {
            return true;
        }
        let granule = self.cfg.granule(total);
        let n = total.div_ceil(granule);
        let protected = protected_clusters(n, self.cfg.protected_ratio);
        let limit = if protected_pass { n } else { n - protected };
        let mut run: Option<(MemTier, MemTier)> = None;
        let mut run_bytes = 0u64;
        let ok = loop {
            if self.used[0] <= cap {
                break true;
            }
            let device = self.sessions[si].res.device_bytes;
            if device == 0 {
                break true;
            }
            let s = self.sessions[si].res.spilled_bytes().div_ceil(granule);
            if !protected_pass && s >= limit {
                break true;
            }
            let previous = self.sessions[si].spilled.last();
            if device < granule {
                self.reached |= reach::PARTIAL;
            } else if granule > self.cfg.cluster_bytes
                && previous.is_some_and(|c| c.bytes != granule)
            {
                self.reached |= reach::COARSENED;
            }
            let bytes = granule.min(device);
            let dest = self.caps.below(MemTier::Device).find(|&t| {
                self.caps
                    .capacity(t)
                    .saturating_sub(self.used[tier_index(t)])
                    >= bytes
            });
            let Some(dest) = dest else {
                self.reached |= reach::FULL;
                break false;
            };
            if protected_pass {
                self.reached |= reach::PROTECTED_PASS;
            }
            if dest == MemTier::Ssd && !self.caps.has(MemTier::Host) {
                self.reached |= reach::NO_HOST;
            }
            if run.is_some() && run != Some((MemTier::Device, dest)) {
                flush_run(&mut self.pending_migrations, id, &mut run, &mut run_bytes);
            }
            run = Some((MemTier::Device, dest));
            run_bytes += bytes;
            let s = &mut self.sessions[si];
            s.spilled.push(SpilledCluster { tier: dest, bytes });
            s.res.device_bytes -= bytes;
            *tier_bytes_mut(&mut s.res, dest) += bytes;
            self.used[0] -= bytes;
            self.used[tier_index(dest)] += bytes;
            self.stats.spilled_bytes += bytes;
        };
        if run.is_some() {
            self.ever_spilled.insert(id);
        }
        flush_run(&mut self.pending_migrations, id, &mut run, &mut run_bytes);
        ok
    }

    fn promote_clusters(&mut self, order: Vec<usize>, mut free: u64) {
        'sessions: for si in order {
            let id = self.sessions[si].id;
            let mut run: Option<(MemTier, MemTier)> = None;
            let mut run_bytes = 0u64;
            let mut popped = None;
            while let Some(&c) = self.sessions[si].spilled.last() {
                if c.bytes > free {
                    if popped == Some(c) {
                        self.reached |= reach::PROMOTE_MID_RUN;
                    }
                    flush_run(&mut self.pending_migrations, id, &mut run, &mut run_bytes);
                    break 'sessions;
                }
                let s = &mut self.sessions[si];
                popped = s.spilled.pop();
                *tier_bytes_mut(&mut s.res, c.tier) -= c.bytes;
                s.res.device_bytes += c.bytes;
                self.used[tier_index(c.tier)] -= c.bytes;
                self.used[0] += c.bytes;
                free -= c.bytes;
                self.stats.promoted_bytes += c.bytes;
                if run.is_some() && run != Some((c.tier, MemTier::Device)) {
                    flush_run(&mut self.pending_migrations, id, &mut run, &mut run_bytes);
                }
                run = Some((c.tier, MemTier::Device));
                run_bytes += c.bytes;
            }
            flush_run(&mut self.pending_migrations, id, &mut run, &mut run_bytes);
            if free == 0 {
                break;
            }
        }
    }
}
