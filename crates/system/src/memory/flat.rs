//! Flat cold-data movement: spills and promotions move byte fractions
//! of whole streams (coldest out, hottest back), and a restore is the
//! selected share of a stream's spilled bytes per source tier.
//!
//! The spill victim is memoized (`TieredKvManager::flat_victim`), so a
//! spill does not rescan the fleet; debug builds check every use
//! against the scan it replaces.

use vrex_hwsim::tier::MemTier;
use vrex_retrieval::prefetch::{PrefetchPolicy, PrefetchRequest};

use super::{tier_bytes, tier_bytes_mut, tier_index, MigrationTask, RestorePlan, TieredKvManager};

impl TieredKvManager {
    /// The flat restore plan of the stream in `slot`: `ratio` of its
    /// spilled bytes per source tier, covered by the policy's flat
    /// byte-fraction speculation.
    pub(super) fn flat_restore_plan(
        &mut self,
        slot: usize,
        ratio: f64,
        generation: bool,
        prefetch: &dyn PrefetchPolicy,
    ) -> RestorePlan {
        let r = self.sessions[slot].res;
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

    /// The coldest stream holding device bytes, as its `(last_active_ps,
    /// id)` key — ties resolve to the smallest id — and its slot, found
    /// by scanning the fleet: what `flat_victim` memoizes.
    pub(super) fn coldest_on_device(&self) -> Option<((u64, usize), usize)> {
        self.sessions
            .iter()
            .enumerate()
            .filter(|(_, s)| s.res.device_bytes > 0)
            .map(|(i, s)| ((s.res.last_active_ps, s.id), i))
            .min()
    }

    /// The stream in `slot` got a new key or new device bytes: if it is
    /// the memoized victim the memo is unknown now, otherwise its key
    /// may undercut the memo.
    pub(super) fn rekey_flat_victim(&mut self, slot: usize) {
        self.forget_flat_victim(self.sessions[slot].id);
        self.lower_flat_victim(slot);
    }

    /// Lowers the memoized victim to the key of the stream in `slot` if
    /// that stream holds device bytes and is colder. An unknown memo
    /// stays unknown: the next spill rescans anyway.
    fn lower_flat_victim(&mut self, slot: usize) {
        let s = &self.sessions[slot];
        if let Some(victim) = self.flat_victim.as_mut() {
            if s.res.device_bytes > 0 {
                *victim = (*victim).min((s.res.last_active_ps, s.id));
            }
        }
    }

    /// Invalidates the memoized victim if it is stream `id`.
    pub(super) fn forget_flat_victim(&mut self, id: usize) {
        if self.flat_victim.is_some_and(|(_, victim)| victim == id) {
            self.flat_victim = None;
        }
    }

    /// Flat spill: while the device is over budget, moves the coldest
    /// stream's device bytes to the nearest lower tier with room.
    pub(super) fn spill_flat(&mut self) {
        let dev = tier_index(MemTier::Device);
        loop {
            let used = self.used[dev];
            let cap = self.caps.device_bytes;
            if used <= cap {
                return;
            }
            let overflow = used - cap;
            // Coldest stream holding device bytes; ties resolve to the
            // smallest id.
            let memo = self.flat_victim.and_then(|key| {
                debug_assert_eq!(
                    Some(key),
                    self.coldest_on_device().map(|(key, _)| key),
                    "memoized spill victim diverged from the scan"
                );
                self.slot(key.1).ok().map(|slot| (key, slot))
            });
            let Some((victim_key, victim)) = memo.or_else(|| self.coldest_on_device()) else {
                return;
            };
            self.flat_victim = Some(victim_key);
            // Nearest lower tier with room.
            let below = self.caps.below(MemTier::Device);
            let Some((dest, room)) = below.map(|t| (t, self.room(t))).find(|&(_, room)| room > 0)
            else {
                // Hierarchy full: leave the device over budget
                // (admission control is responsible for not letting
                // this happen).
                return;
            };
            let s = &mut self.sessions[victim];
            let moved = s.res.device_bytes.min(overflow).min(room);
            s.res.device_bytes -= moved;
            *tier_bytes_mut(&mut s.res, dest) += moved;
            if s.res.device_bytes == 0 {
                self.flat_victim = None;
            }
            let victim_id = s.id;
            self.used[dev] -= moved;
            self.used[tier_index(dest)] += moved;
            self.stats.spilled_bytes += moved;
            self.mark_spilled(victim);
            self.pending_migrations.push(MigrationTask {
                session: victim_id,
                from: MemTier::Device,
                to: dest,
                bytes: moved,
            });
        }
    }

    /// Flat promotion: each stream in `order` takes back as many of its
    /// spilled bytes as still fit in `free`, host DRAM before SSD.
    pub(super) fn promote_flat(&mut self, order: &[usize], mut free: u64) {
        for &i in order {
            if free == 0 {
                break;
            }
            let s = &mut self.sessions[i];
            let was_on_device = s.res.device_bytes > 0;
            for tier in [MemTier::Host, MemTier::Ssd] {
                let moved = tier_bytes(&s.res, tier).min(free);
                *tier_bytes_mut(&mut s.res, tier) -= moved;
                s.res.device_bytes += moved;
                self.used[tier_index(tier)] -= moved;
                self.used[tier_index(MemTier::Device)] += moved;
                free -= moved;
                self.stats.promoted_bytes += moved;
                if moved > 0 {
                    self.pending_migrations.push(MigrationTask {
                        session: s.id,
                        from: tier,
                        to: MemTier::Device,
                        bytes: moved,
                    });
                }
            }
            // A fully spilled stream back on the device competes for
            // victim again, at its unchanged key.
            if !was_on_device {
                self.lower_flat_victim(i);
            }
        }
    }
}
