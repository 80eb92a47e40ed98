//! Serving capacity: how many concurrent real-time streams a platform
//! sustains. [`ServeGrid`], [`TierGrid`] and [`DeviceGrid`] are the
//! seed-42 grids the `serve_capacity`, `tier_capacity` and
//! `device_scaling` bins render. Each grid unit runs on its own
//! [`par_map`] worker over one [`StepPriceCache`], so a repeated batch
//! shape is priced once per unit; rows come back in grid order. The
//! capacity claims are the `pub fn` predicates over the rows: the bins
//! assert them on the grids they print, this module's tests on the
//! smoke grids.

use vrex_core::par::par_map;
use vrex_model::ModelConfig;
use vrex_workload::traffic::{SessionPlan, SlicePlans, TrafficConfig};

use crate::e2e::SystemModel;
use crate::memory::AdmissionPolicy;
use crate::method::Method;
use crate::placement::{PlacementPolicy, ShardScratch, ShardedServeReport};
use crate::platform::{DevicePool, PlatformSpec};
use crate::pricing::StepPriceCache;
use crate::serve::{Serve, ServeConfig, ServeReport};

/// Initial cache tokens of the headline point.
pub const HEADLINE_CACHE_TOKENS: usize = 32_000;

/// The headline device: V-Rex48 with half its HBM and a 32K-token
/// resident window. It fits only ~5 windows of ~4 GiB, but a spilled
/// ReSV stream restores just the *selected* share of its window (32.7 %
/// for frames, 2.5 % for decode), so tiering admits real-time streams
/// reject-only admission turns away.
pub fn headline_platform() -> PlatformSpec {
    wide_window(halve_hbm(PlatformSpec::vrex48()))
}

fn halve_hbm(mut p: PlatformSpec) -> PlatformSpec {
    p.mem_capacity /= 2;
    p
}

/// Keeps up to 32K tokens hot per stream, trading device memory for
/// per-step fetch traffic: fleets of wide windows overflow the device
/// long before compute saturates, which is where tiering matters.
fn wide_window(mut p: PlatformSpec) -> PlatformSpec {
    p.hot_window_tokens = 32_768;
    p
}

/// Seed-42 sessions of `turns` turns arriving over `spread_s` seconds.
fn traffic(sessions: usize, turns: usize, spread_s: f64) -> Vec<SessionPlan> {
    TrafficConfig {
        sessions,
        turns,
        arrival_spread_s: spread_s,
        seed: 42,
    }
    .generate()
}

/// `serve_capacity`'s grid: reject-only admission per platform + method,
/// sessions arriving over 30 s.
#[derive(Debug, Clone)]
pub struct ServeGrid {
    /// Platform + method pairs, in table order.
    pub systems: Vec<SystemModel>,
    /// Initial cache lengths (tokens), in table order.
    pub caches: &'static [usize],
    /// Offered fleet sizes.
    pub fleets: &'static [usize],
    /// Turns per session.
    pub turns: usize,
}

impl ServeGrid {
    /// The full grid, or the CI-sized smoke grid.
    pub fn new(smoke: bool) -> Self {
        use Method::{FlexGen, InfiniGen, ReKV, ReSV};
        let (a100, vrex48) = (PlatformSpec::a100, PlatformSpec::vrex48);
        let systems = vec![
            SystemModel::new(a100(), FlexGen),
            SystemModel::new(a100(), InfiniGen),
            SystemModel::new(a100(), ReKV),
            SystemModel::new(vrex48(), ReSV),
        ];
        let (caches, fleets, turns): (&[usize], &[usize], _) = if smoke {
            (&[32_000], &[1, 2, 4], 1)
        } else {
            (&[8_000, 32_000], &[1, 2, 4, 8, 12, 16, 24], 2)
        };
        ServeGrid {
            systems,
            caches,
            fleets,
            turns,
        }
    }

    /// Serves every (cache, system) unit, cache-major, each unit's
    /// reports in fleet order.
    pub fn sweep(&self) -> Vec<Vec<ServeReport>> {
        let model = ModelConfig::llama3_8b();
        let caches = self.caches.iter();
        let units: Vec<_> = caches
            .flat_map(|&c| self.systems.iter().map(move |s| (c, s)))
            .collect();
        par_map(&units, |&(cache, sys)| {
            let mut prices = StepPriceCache::new(sys, &model);
            let cfg = ServeConfig::real_time(cache);
            let mut serve = |n| {
                let plans = traffic(n, self.turns, 30.0);
                Serve::new(&mut prices, &cfg).run(&mut SlicePlans::new(&plans))
            };
            self.fleets.iter().map(|&n| serve(n)).collect()
        })
    }
}

/// Largest offered fleet one unit sustained fully real-time (0 if none).
pub fn sustained_capacity(reports: &[ServeReport]) -> usize {
    let sustained = reports.iter().filter(|r| r.sustained_real_time());
    sustained.map(|r| r.offered).max().unwrap_or(0)
}

/// One admission policy of the tier grid.
#[derive(Debug, Clone, Copy)]
pub struct TierPolicy {
    /// Row label.
    pub label: &'static str,
    /// What happens to sessions that do not fit device memory.
    pub admission: AdmissionPolicy,
    /// Resource-timeline execution ([`ServeConfig::overlap`]).
    pub overlap: bool,
}

// Positions in `TierGrid::policies` that the gates read.
const REJECT_ONLY: usize = 0;
const PREFETCH: usize = 2;
const CLUSTER: usize = 3;
const OVERLAP: usize = 4;

/// One platform × cache-length unit of the tier grid.
#[derive(Debug, Clone)]
pub struct TierUnit {
    /// The platform + method under test.
    pub sys: SystemModel,
    /// Device-memory budget label.
    pub budget: &'static str,
    /// Initial cache tokens.
    pub cache: usize,
}

/// `tier_capacity`'s grid: platform × cache-length units, each served
/// under every policy at every fleet size, two-turn sessions arriving
/// in a 10 s burst (long enough that a session out-waiting its 10 s
/// patience behind a full device is genuinely rejected).
#[derive(Debug, Clone)]
pub struct TierGrid {
    /// Units, platform-major, the headline platform first.
    pub units: Vec<TierUnit>,
    /// Offered fleet sizes.
    pub fleets: &'static [usize],
    /// Reject-only, tiered demand, tiered+prefetch and tiered+cluster
    /// (hash-cluster spills and restores, WiCSum-mass victims), then
    /// with `overlap` tiered+prefetch under the resource timeline.
    pub policies: Vec<TierPolicy>,
}

impl TierGrid {
    /// The full grid or the CI-sized smoke grid (the headline unit
    /// only), with or without the overlapped policy.
    pub fn new(smoke: bool, overlap: bool) -> Self {
        use Method::{InfiniGen, Oaken, ReSV, VanillaInMemory as InMemory};
        let (vrex48, a100) = (PlatformSpec::vrex48(), PlatformSpec::a100());
        let half = halve_hbm(vrex48.clone());
        let mut configs = vec![(headline_platform(), ReSV, "half HBM, 32K window")];
        if !smoke {
            configs.extend([
                (wide_window(vrex48), ReSV, "full HBM, 32K window"),
                // In-memory methods restore their *whole* spilled cache
                // every step: tiering admits them but thrashes the link,
                // the FlexGen regime the paper argues against.
                (half.clone(), InMemory, "half HBM"),
                (half.clone(), Oaken, "half HBM"),
                (
                    wide_window(halve_hbm(a100)),
                    InfiniGen,
                    "half HBM, 32K window",
                ),
                // Edge box: unified memory, so the SSD is the only spill tier.
                (PlatformSpec::agx_orin(), InMemory, "full LPDDR"),
                // Three-tier server: halved HBM, host DDR4, an NVMe drive.
                (half.with_nvme_tier(), InMemory, "half HBM+NVMe"),
            ]);
        }
        let (caches, fleets): (&[usize], &[usize]) = if smoke {
            (&[HEADLINE_CACHE_TOKENS], &[4, 8, 12])
        } else {
            (&[16_000, HEADLINE_CACHE_TOKENS], &[2, 4, 8, 12, 16, 24])
        };
        let units = configs.into_iter().flat_map(|(platform, method, budget)| {
            let sys = SystemModel::new(platform, method);
            caches.iter().map(move |&cache| TierUnit {
                sys: sys.clone(),
                budget,
                cache,
            })
        });
        let speculative = AdmissionPolicy::tiered_speculative();
        let policies = [
            ("reject-only", AdmissionPolicy::RejectOnly, false),
            ("tiered demand", AdmissionPolicy::tiered_demand(), false),
            ("tiered+prefetch", speculative, false),
            ("tiered+cluster", AdmissionPolicy::tiered_cluster(), false),
            ("tiered+overlap", speculative, true),
        ];
        let policies = policies.into_iter().take(if overlap { 5 } else { 4 });
        let policies = policies.map(|(label, admission, overlap)| TierPolicy {
            label,
            admission,
            overlap,
        });
        TierGrid {
            units: units.collect(),
            fleets,
            policies: policies.collect(),
        }
    }

    /// Serves every unit, in unit order.
    pub fn sweep(&self) -> Vec<TierRows> {
        let model = ModelConfig::llama3_8b();
        par_map(&self.units, |unit| {
            // Pricing does not depend on the execution model, so the
            // serialized and overlapped runs hit the same entries too.
            let mut prices = StepPriceCache::new(&unit.sys, &model);
            let mut rows = |p: &TierPolicy| {
                let cfg = ServeConfig {
                    admission: p.admission,
                    overlap: p.overlap,
                    ..ServeConfig::real_time(unit.cache)
                };
                let serve = |&n: &usize| {
                    let plans = traffic(n, 2, 10.0);
                    Serve::new(&mut prices, &cfg).run(&mut SlicePlans::new(&plans))
                };
                let reports: Vec<ServeReport> = self.fleets.iter().map(serve).collect();
                let tiering = || reports.iter().filter_map(|r| r.tiering.as_ref());
                PolicyRows {
                    best_real_time: reports.iter().fold(0, |m, r| m.max(r.real_time_sessions)),
                    restored_bytes: tiering().map(|t| t.restored_bytes).sum(),
                    exposed_s: tiering().fold(0.0, |s, t| s + t.exposed_s),
                    reports,
                }
            };
            let policies = self.policies.iter().map(&mut rows).collect();
            TierRows {
                unit: unit.clone(),
                policies,
            }
        })
    }
}

/// One policy's serves on one tier-grid unit.
#[derive(Debug, Clone)]
pub struct PolicyRows {
    /// One report per offered fleet size, in grid order.
    pub reports: Vec<ServeReport>,
    /// Most real-time streams any fleet size achieved.
    pub best_real_time: usize,
    /// Restore bytes summed over the fleet sizes.
    pub restored_bytes: u64,
    /// Tier-exposed seconds summed over the fleet sizes.
    pub exposed_s: f64,
}

/// One tier-grid unit's rows, one [`PolicyRows`] per policy in
/// [`TierGrid::policies`] order.
#[derive(Debug, Clone)]
pub struct TierRows {
    /// The unit served.
    pub unit: TierUnit,
    /// Its rows per policy.
    pub policies: Vec<PolicyRows>,
}

impl TierRows {
    /// Real-time streams tiered+prefetch sustains beyond reject-only.
    pub fn tiering_gain(&self) -> i64 {
        let best = |i: usize| self.policies[i].best_real_time as i64;
        best(PREFETCH) - best(REJECT_ONLY)
    }
}

/// The first unit of largest [`TierRows::tiering_gain`].
pub fn best_tiering_unit(rows: &[TierRows]) -> Option<&TierRows> {
    rows.iter().rev().max_by_key(|r| r.tiering_gain())
}

/// Gate: at equal device memory, tiered+prefetch admission sustains
/// more real-time streams than reject-only on at least one unit.
pub fn tiering_beats_reject_only(rows: &[TierRows]) -> bool {
    best_tiering_unit(rows).is_some_and(|r| r.tiering_gain() >= 1)
}

/// Whether `rows` has a headline unit (the headline device at
/// [`HEADLINE_CACHE_TOKENS`]) and `gate` holds on each.
fn on_headline(rows: &[TierRows], gate: impl Fn(&TierRows) -> bool) -> bool {
    let platform = headline_platform();
    let headline = |u: &TierUnit| u.sys.platform == platform && u.cache == HEADLINE_CACHE_TOKENS;
    let mut units = rows.iter().filter(|r| headline(&r.unit)).peekable();
    units.peek().is_some() && units.all(gate)
}

/// Gate: on the headline unit, cluster-granular tiering restores
/// strictly fewer bytes with strictly less tier-exposed time than flat
/// tiered+prefetch, and sustains at least its real-time capacity and at
/// least 12 streams.
pub fn cluster_tiering_beats_flat(rows: &[TierRows]) -> bool {
    on_headline(rows, |r| {
        let (cluster, flat) = (&r.policies[CLUSTER], &r.policies[PREFETCH]);
        cluster.restored_bytes < flat.restored_bytes
            && cluster.exposed_s < flat.exposed_s
            && cluster.best_real_time >= flat.best_real_time.max(12)
    })
}

/// Gate: on the headline unit, tiered+prefetch under resource-timeline
/// execution sustains at least the serialized real-time capacity; false
/// on a grid without the overlapped policy. Only 32K is gated: at 16K
/// under the 24-session thrash regime the honest link model can run one
/// stream below the serialized window heuristic, which lets consecutive
/// batches hide restores in the *same* link time. It holds at seed 42;
/// across 32 traffic seeds it fails on 9 (ROADMAP N7).
pub fn overlap_meets_serialized(rows: &[TierRows]) -> bool {
    on_headline(rows, |r| {
        let (serialized, overlap) = (&r.policies[PREFETCH], r.policies.get(OVERLAP));
        overlap.is_some_and(|o| o.best_real_time >= serialized.best_real_time)
    })
}

/// `device_scaling`'s grid: pools of headline devices serving ReSV
/// under tiered+prefetch admission at [`HEADLINE_CACHE_TOKENS`], the
/// tier grid's traffic shape. Fleets scale with the pool and nest
/// across pool sizes, so a policy that concentrates load is still
/// scored on the fleet it sustains.
#[derive(Debug, Clone, Copy)]
pub struct DeviceGrid {
    /// Pool sizes, ascending.
    pub device_counts: &'static [usize],
    /// Offered fleet sizes per device.
    pub fleets_per_device: &'static [usize],
}

impl DeviceGrid {
    /// The full grid (1/2/4/8 devices) or the smoke grid (1 and 2).
    pub fn new(smoke: bool) -> Self {
        let (device_counts, fleets_per_device): (&[usize], &[usize]) = if smoke {
            (&[1, 2], &[4, 8, 12])
        } else {
            (&[1, 2, 4, 8], &[4, 8, 12, 16])
        };
        DeviceGrid {
            device_counts,
            fleets_per_device,
        }
    }

    /// The fleet sizes driven at `devices`: every `base × d` for `d` up
    /// to `devices`, deduplicated and sorted.
    fn fleets(&self, devices: usize) -> Vec<usize> {
        let counts = self.device_counts.iter().filter(|&&d| d <= devices);
        let per = self.fleets_per_device;
        let mut fleets: Vec<usize> = counts
            .flat_map(|&d| per.iter().map(move |&n| n * d))
            .collect();
        fleets.sort_unstable();
        fleets.dedup();
        fleets
    }

    /// Serves every pool size, in grid order. Each serve runs its
    /// per-device loops on one worker: the grid fans out per unit only.
    pub fn sweep(&self) -> Vec<PoolRows> {
        par_map(self.device_counts, |&devices| {
            let pool = DevicePool::homogeneous(headline_platform(), devices);
            let sys = SystemModel::new(headline_platform(), Method::ReSV);
            // Identical devices replay the same per-session trajectories,
            // and the shard scratch recycles the grown routing buffers.
            let mut prices = StepPriceCache::new(&sys, &ModelConfig::llama3_8b());
            let mut scratch = ShardScratch::new();
            let cfg = ServeConfig::real_time_tiered(HEADLINE_CACHE_TOKENS);
            let fleets = self.fleets(devices);
            let mut rows = |policy| {
                let mut serve = |&n: &usize| {
                    let plans = traffic(n, 2, 10.0);
                    Serve::new(&mut prices, &cfg)
                        .workers(1)
                        .scratch(&mut scratch)
                        .run_pool(&pool, policy, &mut SlicePlans::new(&plans))
                };
                let reports: Vec<ShardedServeReport> = fleets.iter().map(&mut serve).collect();
                let best = reports.iter().rev().max_by_key(|r| r.real_time_sessions());
                PlacementRows {
                    policy,
                    capacity: best.map_or(0, ShardedServeReport::real_time_sessions),
                    migrations: best.map_or(0, |b| b.interconnect.migrations),
                    reports,
                }
            };
            let policies = PlacementPolicy::ALL.map(&mut rows).to_vec();
            PoolRows { devices, policies }
        })
    }
}

/// One placement policy's serves on one pool size.
#[derive(Debug, Clone)]
pub struct PlacementRows {
    /// The placement policy.
    pub policy: PlacementPolicy,
    /// One report per offered fleet size, in ascending order.
    pub reports: Vec<ShardedServeReport>,
    /// Most summed real-time streams any fleet achieved.
    pub capacity: usize,
    /// Cross-device migrations of the first run to reach `capacity`.
    pub migrations: usize,
}

/// One pool size's rows, one [`PlacementRows`] per policy in
/// [`PlacementPolicy::ALL`] order.
#[derive(Debug, Clone)]
pub struct PoolRows {
    /// Devices in the pool.
    pub devices: usize,
    /// Its rows per placement policy.
    pub policies: Vec<PlacementRows>,
}

/// Gate: a 2-device pool sustains strictly more real-time streams than
/// one device under the spreading policies (load-balanced, migrate),
/// and at least as many under first-fit, which fills device 0's
/// admission budget before it routes to device 1; false on a grid
/// without both pool sizes. A pool counted on one device alone fails
/// it. The 2-device row is censored at the grid's largest 2-device
/// fleet, 24 on the smoke grid, where load-balanced serves all 24
/// (ROADMAP N7): the strict bound holds above a floor, not at the
/// pool's true capacity.
pub fn two_devices_meet_one(rows: &[PoolRows]) -> bool {
    let at = |devices| rows.iter().find(|r| r.devices == devices);
    let (Some(one), Some(two)) = (at(1), at(2)) else {
        return false;
    };
    let pairs = one.policies.iter().zip(&two.policies);
    pairs.into_iter().all(|(a, b)| match a.policy {
        PlacementPolicy::FirstFit => b.capacity >= a.capacity,
        PlacementPolicy::LoadBalanced | PlacementPolicy::Migrate => b.capacity > a.capacity,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn best(rows: &TierRows) -> Vec<usize> {
        rows.policies.iter().map(|p| p.best_real_time).collect()
    }

    #[test]
    fn tiering_beats_reject_only_at_equal_device_memory() {
        let rows = TierGrid::new(true, false).sweep();
        assert!(tiering_beats_reject_only(&rows), "{:?}", best(&rows[0]));
    }

    #[test]
    fn cluster_tiering_restores_fewer_bytes_with_less_exposed_time_at_flat_capacity() {
        let rows = TierGrid::new(true, false).sweep();
        let totals: Vec<_> = rows[0]
            .policies
            .iter()
            .map(|p| (p.best_real_time, p.restored_bytes, p.exposed_s))
            .collect();
        assert!(cluster_tiering_beats_flat(&rows), "{totals:?}");
    }

    /// Besides the best-of-grid gate, overlapped execution sustains at
    /// least the serialized real-time count at every fleet size.
    #[test]
    fn overlapped_capacity_meets_serialized_at_32k() {
        let rows = TierGrid::new(true, true).sweep();
        assert!(overlap_meets_serialized(&rows), "{:?}", best(&rows[0]));
        let (serial, overlap) = (&rows[0].policies[PREFETCH], &rows[0].policies[OVERLAP]);
        for (s, o) in serial.reports.iter().zip(&overlap.reports) {
            assert!(
                o.real_time_sessions >= s.real_time_sessions,
                "overlap {} < serialized {} real-time streams at fleet {}",
                o.real_time_sessions,
                s.real_time_sessions,
                s.offered
            );
        }
        // Without the overlapped policy there is nothing to gate.
        let mut serialized_only = rows;
        serialized_only[0].policies.truncate(OVERLAP);
        assert!(!overlap_meets_serialized(&serialized_only));
    }

    #[test]
    fn two_devices_sustain_at_least_one_device_for_every_placement() {
        let rows = DeviceGrid::new(true).sweep();
        let cells: Vec<Vec<usize>> = rows
            .iter()
            .map(|r| r.policies.iter().map(|p| p.capacity).collect())
            .collect();
        assert!(two_devices_meet_one(&rows), "{cells:?}");
    }
}
