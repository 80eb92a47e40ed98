//! Multi-device sharded serving: admission becomes placement.
//!
//! One device's serving story ([`mod@crate::serve`]) is a solved
//! problem:
//! an event-driven continuous-batching scheduler whose admission
//! control either rejects overflow sessions or spills them down the
//! HBM → host-DRAM → SSD hierarchy. Scale-out asks the next question:
//! given a [`DevicePool`] of N identical devices joined by an NVLink /
//! PCIe-switch fabric, **which device should an arriving session land
//! on?** That decision — placement — subsumes admission: the placer
//! never rejects, it routes; each device's own admission control
//! remains the sole authority over queueing, spilling, and rejection
//! of the sub-fleet routed to it.
//!
//! ## The two-phase structure
//!
//! Sharded serving deliberately runs in two phases so the per-device
//! scheduler stays the *untouched*, golden-pinned single-device core:
//!
//! 1. **Placement.** Plans stream in arrival order through a
//!    [`PlacementPolicy`]. The placer maintains per-device load
//!    trackers — projected resident-demand bytes, expired by a
//!    deterministic hold-time estimate
//!    ([`SessionPlan::span_estimate_ps`]) — and routes each plan to
//!    one device. Rebalancing placements additionally schedule
//!    cross-device KV migrations on the fabric
//!    ([`vrex_hwsim::interconnect`]): lowest-priority appends on the
//!    source port, mirrored on the destination port, with the
//!    migrated session's effective arrival floored at the copy's end.
//! 2. **Serving.** Each device runs the ordinary serve loop over its
//!    routed sub-fleet (sharing one [`StepPriceCache`] — the devices
//!    are identical, so batch shapes price once for the whole pool).
//!
//! Cross-device coupling therefore exists only at arrival dispatch and
//! on the fabric timeline; device-local schedules never interleave.
//!
//! ## The N = 1 byte-identity contract
//!
//! A pool of one device **is** the single-device platform: every
//! policy routes every plan to device 0, no migration can exist
//! (source and destination would coincide), and phase 2 is exactly
//! [`crate::serve::serve`] over the original fleet. The tests pin this
//! byte-for-byte — report equality *and* scheduler-trace fingerprint
//! equality — for all four policies, so sharding can never perturb the
//! existing golden traces.

use std::collections::BTreeMap;

use vrex_core::par::{par_map_with_workers, timed, workers as host_workers};
use vrex_hwsim::interconnect::Interconnect;
use vrex_hwsim::tier::TierCapacities;
use vrex_hwsim::{seconds_to_ps, Engine};
use vrex_model::ModelConfig;
use vrex_workload::traffic::{PlanSource, SessionPlan, SlicePlans};

use crate::e2e::SystemModel;
use crate::memory::{AdmissionPolicy, MIGRATION_CHUNK_BYTES};
use crate::method::Method;
use crate::platform::DevicePool;
use crate::pricing::StepPriceCache;
use crate::serve::{run, ServeConfig, ServeReport, TraceEvent};

/// How arriving sessions are assigned to the devices of a pool.
///
/// Placement never rejects: when no device fits, the least-loaded one
/// takes the session and its own admission control decides what
/// happens next (queue, spill, reject). All four policies are
/// deterministic functions of the plan stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Lowest-indexed device whose projected demand still fits its
    /// admission budget (device budget under
    /// [`AdmissionPolicy::RejectOnly`], whole hierarchy under
    /// [`AdmissionPolicy::Tiered`]); least-loaded device when none fit.
    FirstFit,
    /// Device with the least projected resident-demand bytes.
    LoadBalanced,
    /// Device whose *restore debt* after the placement is lowest: the
    /// bytes the placement would force below the device tier
    /// ([`TierCapacities::device_overflow_bytes`]), ties broken by
    /// least demand.
    TierPressure,
    /// Load-balanced placement with KV migration for rebalancing: a
    /// session's prefilled context resides on its affinity home
    /// (`id mod N`, the device that served it last); placing it
    /// elsewhere copies the resident initial-context KV across the
    /// fabric first, and the session's effective arrival waits for the
    /// copy. The copies are scheduled as lowest-priority fabric work,
    /// decided then drained like the tier manager's
    /// [`MigrationTask`](crate::memory::MigrationTask)s.
    Migrate,
}

impl PlacementPolicy {
    /// Every policy, in presentation order.
    pub const ALL: [PlacementPolicy; 4] = [
        PlacementPolicy::FirstFit,
        PlacementPolicy::LoadBalanced,
        PlacementPolicy::TierPressure,
        PlacementPolicy::Migrate,
    ];

    /// Display label used in bench tables.
    pub fn label(&self) -> &'static str {
        match self {
            PlacementPolicy::FirstFit => "first-fit",
            PlacementPolicy::LoadBalanced => "load-balanced",
            PlacementPolicy::TierPressure => "tier-pressure",
            PlacementPolicy::Migrate => "migrate",
        }
    }
}

/// One pending cross-device KV migration decided by the placer, in the
/// same shape as the tier-to-tier [`crate::memory::MigrationTask`]:
/// who moves, between which devices, and how many bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceMigration {
    /// Session whose resident context moves.
    pub session: usize,
    /// Source device (the session's affinity home).
    pub from: usize,
    /// Destination device (where the session was placed).
    pub to: usize,
    /// Resident KV bytes copied across the fabric.
    pub bytes: u64,
}

/// Fabric-side accounting of one sharded run. Integer picoseconds
/// throughout — the placement layer never converts time to floats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterconnectReport {
    /// Cross-device KV migrations scheduled.
    pub migrations: usize,
    /// Total bytes migrated between devices.
    pub migrated_bytes: u64,
    /// Summed busy time (ps) across every device's fabric port.
    pub busy_ps: u64,
    /// Latest instant (ps) any fabric port is occupied.
    pub makespan_ps: u64,
}

/// The outcome of serving one fleet across a [`DevicePool`]: one full
/// per-device [`ServeReport`] each (equality excludes observability
/// counters, exactly as single-device report equality does), the
/// session → device assignment, and the fabric accounting.
#[derive(Debug, Clone)]
pub struct ShardedServeReport {
    /// Per-device serve reports, indexed by device.
    pub devices: Vec<ServeReport>,
    /// `(session id, device)` for every offered session, in placement
    /// order. Conservation invariant: each id appears exactly once.
    pub placements: Vec<(usize, usize)>,
    /// Fabric accounting (migration count/bytes, port busy time).
    pub interconnect: InterconnectReport,
    /// Wall-clock nanoseconds each device's serve loop took on the
    /// host, indexed by device — what the repo benchmark's
    /// `system.placement.route_share` is derived from. Observability
    /// only: like `ServeCounters`, it is
    /// **excluded from report equality**, because identical simulated
    /// outcomes take different host time under different worker counts.
    pub device_wall_ns: Vec<u64>,
    /// Workers the per-device serve loops ran on (1 = in order on the
    /// calling thread). Excluded from report equality alongside
    /// `device_wall_ns`.
    pub workers: usize,
}

impl PartialEq for ShardedServeReport {
    fn eq(&self, other: &Self) -> bool {
        // Every field except `device_wall_ns` and `workers` (see the
        // struct docs): parallel and sequential runs of one fleet are
        // equal by contract, however long the host took.
        self.devices == other.devices
            && self.placements == other.placements
            && self.interconnect == other.interconnect
    }
}

impl ShardedServeReport {
    /// Sessions offered across the pool.
    pub fn offered(&self) -> usize {
        self.devices.iter().map(|r| r.offered).sum()
    }

    /// Sessions admitted across the pool.
    pub fn admitted(&self) -> usize {
        self.devices.iter().map(|r| r.admitted).sum()
    }

    /// Sessions that waited in an admission queue, across the pool.
    pub fn queued(&self) -> usize {
        self.devices.iter().map(|r| r.queued).sum()
    }

    /// Sessions rejected across the pool.
    pub fn rejected(&self) -> usize {
        self.devices.iter().map(|r| r.rejected).sum()
    }

    /// Admitted sessions that stayed real-time, across the pool.
    pub fn real_time_sessions(&self) -> usize {
        self.devices.iter().map(|r| r.real_time_sessions).sum()
    }

    /// Whether every device sustained its whole routed sub-fleet in
    /// real time (vacuously true for devices routed nothing).
    pub fn sustained_real_time(&self) -> bool {
        self.offered() > 0
            && self
                .devices
                .iter()
                .all(|r| r.offered == 0 || r.sustained_real_time())
    }
}

/// Per-device load trackers + the policy that reads them.
struct Placer<'a> {
    policy: PlacementPolicy,
    sys: &'a SystemModel,
    model: &'a ModelConfig,
    cfg: &'a ServeConfig,
    frame_interval_ps: u64,
    /// Per-device fit bound for [`PlacementPolicy::FirstFit`], matched
    /// to the admission policy the devices will actually run.
    fit_bytes: u64,
    /// Per-device tier budgets (restore-debt computation).
    caps: TierCapacities,
    /// Projected resident-demand bytes currently tracked per device.
    demand: Vec<u64>,
    /// Tracked sessions per device, keyed `(expiry ps, session id)` →
    /// demand bytes; expired entries release their demand. A dense
    /// `Vec` of ordered maps — placement iteration order is the device
    /// index, never hash order.
    resident: Vec<BTreeMap<(u64, usize), u64>>,
    /// Migrations decided but not yet scheduled on the fabric.
    pending: Vec<DeviceMigration>,
}

impl<'a> Placer<'a> {
    fn new(
        pool: &DevicePool,
        sys: &'a SystemModel,
        model: &'a ModelConfig,
        cfg: &'a ServeConfig,
        policy: PlacementPolicy,
    ) -> Self {
        let caps = sys.kv_tier_capacities(model);
        let fit_bytes = match cfg.admission {
            AdmissionPolicy::RejectOnly => sys.device_kv_budget_bytes(model),
            AdmissionPolicy::Tiered { .. } => caps.total_bytes(),
        };
        Placer {
            policy,
            sys,
            model,
            cfg,
            frame_interval_ps: seconds_to_ps(1.0 / cfg.fps),
            fit_bytes,
            caps,
            demand: vec![0; pool.devices()],
            resident: vec![BTreeMap::new(); pool.devices()],
            pending: Vec::new(),
        }
    }

    /// Releases every tracked session whose estimated hold expired
    /// before `now_ps`.
    fn expire(&mut self, now_ps: u64) {
        for d in 0..self.demand.len() {
            while let Some((&key, &bytes)) = self.resident[d].first_key_value() {
                if key.0 > now_ps {
                    break;
                }
                self.resident[d].remove(&key);
                self.demand[d] -= bytes;
            }
        }
    }

    /// Least-demand device, lowest index on ties.
    fn least_loaded(&self) -> usize {
        let mut best = 0;
        for d in 1..self.demand.len() {
            if self.demand[d] < self.demand[best] {
                best = d;
            }
        }
        best
    }

    /// Routes one plan, updating the trackers; may push a pending
    /// migration under [`PlacementPolicy::Migrate`].
    fn place(&mut self, plan: &SessionPlan) -> usize {
        self.expire(plan.arrival_ps);
        let proj = self.cfg.initial_cache_tokens
            + plan.total_cache_growth_tokens(self.model.tokens_per_frame);
        let bytes = self.sys.resident_demand_bytes(self.model, proj);
        let target = match self.policy {
            PlacementPolicy::FirstFit => (0..self.demand.len())
                .find(|&d| self.demand[d] + bytes <= self.fit_bytes)
                .unwrap_or_else(|| self.least_loaded()),
            PlacementPolicy::LoadBalanced | PlacementPolicy::Migrate => self.least_loaded(),
            PlacementPolicy::TierPressure => {
                let mut best = 0;
                let mut best_key = (u64::MAX, u64::MAX);
                for d in 0..self.demand.len() {
                    let key = (
                        self.caps.device_overflow_bytes(self.demand[d] + bytes),
                        self.demand[d],
                    );
                    if key < best_key {
                        best_key = key;
                        best = d;
                    }
                }
                best
            }
        };
        if self.policy == PlacementPolicy::Migrate {
            let home = plan.id % self.demand.len();
            if home != target {
                let context_bytes = self
                    .sys
                    .resident_demand_bytes(self.model, self.cfg.initial_cache_tokens);
                if context_bytes > 0 {
                    self.pending.push(DeviceMigration {
                        session: plan.id,
                        from: home,
                        to: target,
                        bytes: context_bytes,
                    });
                }
            }
        }
        self.demand[target] += bytes;
        let expiry = plan
            .arrival_ps
            .saturating_add(plan.span_estimate_ps(self.frame_interval_ps));
        self.resident[target].insert((expiry, plan.id), bytes);
        target
    }
}

/// Reusable buffers for the placement pass: the per-device routed
/// sub-fleet vectors, recycled across repeated sharded serves.
///
/// A sweep that serves many fleets over one pool (`device_scaling`
/// drives 4 policies × up to 7 fleet sizes per unit) previously
/// allocated fresh per-device `Vec`s on every serve; a recycled scratch
/// keeps the grown capacities, so after the first serve of a unit the
/// routing pass allocates nothing for its sub-fleet spines. Fresh
/// (non-recycled) serves pre-size each sub-fleet from the source's
/// remaining hint split across the pool, which the placer's
/// demand-tracker-driven spreading policies fill near-exactly.
#[derive(Debug, Default)]
pub struct ShardScratch {
    routed: Vec<Vec<SessionPlan>>,
}

impl ShardScratch {
    /// An empty scratch; buffers grow on first use and are recycled
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Routes a plan stream across the pool into `scratch.routed` (one
/// arrival-adjusted sub-fleet per device). Returns the placement record
/// and the fabric accounting.
fn route(
    pool: &DevicePool,
    sys: &SystemModel,
    model: &ModelConfig,
    source: &mut dyn PlanSource,
    cfg: &ServeConfig,
    policy: PlacementPolicy,
    scratch: &mut ShardScratch,
) -> (Vec<(usize, usize)>, InterconnectReport) {
    let n = pool.devices();
    let hint = source.remaining_hint();
    scratch.routed.truncate(n);
    scratch.routed.resize_with(n, Vec::new);
    for sub in &mut scratch.routed {
        sub.clear();
        // Pre-size for an even split (recycled capacity from a prior
        // serve of the same pool is usually larger and wins).
        sub.reserve(hint.div_ceil(n.max(1)));
    }
    let mut engine = Engine::new();
    let fabric = Interconnect::install(&mut engine, pool.interconnect.clone(), n);
    let mut placer = Placer::new(pool, sys, model, cfg, policy);
    let mut placements = Vec::with_capacity(hint);
    let mut report = InterconnectReport::default();
    while let Some(mut plan) = source.next_plan() {
        let target = placer.place(&plan);
        // Drained in place: the buffer keeps its capacity across plans.
        for m in placer.pending.drain(..) {
            let span = fabric.copy(
                &mut engine,
                m.from,
                m.to,
                m.bytes,
                MIGRATION_CHUNK_BYTES,
                plan.arrival_ps,
                "kv-migrate",
            );
            // The session cannot start on its new device before its
            // context lands there.
            plan.arrival_ps = plan.arrival_ps.max(span.end_ps);
            report.migrations += 1;
            report.migrated_bytes += m.bytes;
        }
        placements.push((plan.id, target));
        scratch.routed[target].push(plan);
    }
    report.busy_ps = (0..n).map(|d| engine.busy_time(fabric.port(d))).sum();
    report.makespan_ps = engine.makespan();
    (placements, report)
}

#[allow(clippy::too_many_arguments)]
fn run_sharded(
    prices: &mut StepPriceCache,
    pool: &DevicePool,
    source: &mut dyn PlanSource,
    cfg: &ServeConfig,
    policy: PlacementPolicy,
    mut traces: Option<&mut Vec<Vec<TraceEvent>>>,
    workers: usize,
    scratch: &mut ShardScratch,
) -> ShardedServeReport {
    assert_eq!(
        prices.system().platform,
        *pool.device(),
        "price cache must be built over the pool's device platform"
    );
    let sys = prices.system().clone();
    let model = prices.model().clone();
    let (placements, interconnect) = route(pool, &sys, &model, source, cfg, policy, scratch);
    let n = pool.devices();
    let workers = workers.clamp(1, n);
    let want_traces = traces.is_some();
    // Each device serves through its own fork of the warmed cache, and
    // the join returns results in device order. Devices only interact
    // through the placement pass (already complete) and the fabric
    // timeline (already priced), and serve outcomes never depend on
    // cache contents, so the reports are the same at every worker
    // count — one worker simply serves the devices in order on this
    // thread.
    let base: &StepPriceCache = prices;
    let outcomes = par_map_with_workers(&scratch.routed, workers, |sub| {
        let mut fork = base.fork();
        let mut trace = want_traces.then(Vec::new);
        let (report, wall_ns) =
            timed(|| run(&mut fork, &mut SlicePlans::new(sub), cfg, trace.as_mut()));
        (report, wall_ns, trace, fork)
    });
    let mut devices = Vec::with_capacity(n);
    let mut device_wall_ns = Vec::with_capacity(n);
    for (report, wall_ns, trace, fork) in outcomes {
        // Forks merge back in device order: the parent cache after the
        // join is a function of the fleet, never of thread scheduling.
        prices.absorb(fork);
        devices.push(report);
        device_wall_ns.push(wall_ns);
        if let (Some(ts), Some(t)) = (traces.as_deref_mut(), trace) {
            ts.push(t);
        }
    }
    ShardedServeReport {
        devices,
        placements,
        interconnect,
        device_wall_ns,
        workers,
    }
}

/// Serves a fleet across a [`DevicePool`] under a [`PlacementPolicy`],
/// reporting per-device serve outcomes plus fabric accounting, on every
/// core the host offers.
///
/// Deterministic, like [`crate::serve::serve`]: the only randomness is
/// in the plans. With a pool of one device this is byte-identical to
/// `serve` over the same fleet (the tests pin it).
pub fn serve_sharded(
    pool: &DevicePool,
    method: Method,
    model: &ModelConfig,
    plans: &[SessionPlan],
    cfg: &ServeConfig,
    policy: PlacementPolicy,
) -> ShardedServeReport {
    let sys = SystemModel::new(pool.device().clone(), method);
    serve_sharded_with_cache_in(
        &mut StepPriceCache::new(&sys, model),
        pool,
        plans,
        cfg,
        policy,
        host_workers(),
        &mut ShardScratch::new(),
    )
}

/// [`serve_sharded`] against a caller-owned price cache (built over the
/// pool's device platform; devices are identical, so one cache serves
/// the whole pool — and whole sweeps, across device counts), with an
/// explicit worker count and a caller-owned [`ShardScratch`]. Sweeps
/// that serve many fleets over one pool recycle the scratch's
/// per-device sub-fleet buffers across serves; `workers` is clamped to
/// `1..=pool.devices()`.
pub fn serve_sharded_with_cache_in(
    prices: &mut StepPriceCache,
    pool: &DevicePool,
    plans: &[SessionPlan],
    cfg: &ServeConfig,
    policy: PlacementPolicy,
    workers: usize,
    scratch: &mut ShardScratch,
) -> ShardedServeReport {
    run_sharded(
        prices,
        pool,
        &mut SlicePlans::new(plans),
        cfg,
        policy,
        None,
        workers,
        scratch,
    )
}

/// [`serve_sharded_with_cache_in`] over a streaming [`PlanSource`], on
/// every core the host offers. The placement pass consumes the source
/// one plan at a time; per-device sub-fleets are materialized (memory
/// is sized by the fleet, not by concurrency — acceptable at
/// placement-study scale). A materialized slice routed through
/// [`SlicePlans`] produces the identical report.
pub fn serve_sharded_stream(
    prices: &mut StepPriceCache,
    pool: &DevicePool,
    source: &mut dyn PlanSource,
    cfg: &ServeConfig,
    policy: PlacementPolicy,
) -> ShardedServeReport {
    run_sharded(
        prices,
        pool,
        source,
        cfg,
        policy,
        None,
        host_workers(),
        &mut ShardScratch::new(),
    )
}

/// [`serve_sharded`] with an explicit worker count that also records
/// every device's scheduler trace (indexed by device). The cross-device
/// golden-trace fingerprints, the N = 1 byte-identity tests and the
/// parallel-vs-sequential property tests are built on this seam.
#[allow(clippy::too_many_arguments)]
pub fn serve_sharded_traced_with_workers(
    pool: &DevicePool,
    method: Method,
    model: &ModelConfig,
    plans: &[SessionPlan],
    cfg: &ServeConfig,
    policy: PlacementPolicy,
    workers: usize,
) -> (ShardedServeReport, Vec<Vec<TraceEvent>>) {
    let sys = SystemModel::new(pool.device().clone(), method);
    let mut traces = Vec::new();
    let report = run_sharded(
        &mut StepPriceCache::new(&sys, model),
        pool,
        &mut SlicePlans::new(plans),
        cfg,
        policy,
        Some(&mut traces),
        workers,
        &mut ShardScratch::new(),
    );
    (report, traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::PlatformSpec;
    use crate::serve::{serve_traced, TraceKind};
    use vrex_hwsim::interconnect::{CopySpan, InterconnectConfig};
    use vrex_workload::traffic::TrafficConfig;

    fn llama() -> ModelConfig {
        ModelConfig::llama3_8b()
    }

    fn fleet(sessions: usize, turns: usize, spread: f64, seed: u64) -> Vec<SessionPlan> {
        TrafficConfig {
            sessions,
            turns,
            arrival_spread_s: spread,
            seed,
        }
        .generate()
    }

    /// FNV-1a over `(ps, kind)` pairs — the same fold the single-device
    /// golden-trace tests use, so cross-suite fingerprints compare.
    fn trace_fingerprint(trace: &[TraceEvent]) -> (usize, u64) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for e in trace {
            for b in e.ps.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            h ^= match e.kind {
                TraceKind::Arrival => 0u64,
                TraceKind::Patience => 1,
                TraceKind::WorkReady => 2,
                TraceKind::StepComplete => 3,
            };
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        (trace.len(), h)
    }

    /// The N = 1 byte-identity contract: a one-device pool reproduces
    /// `serve` exactly — same report, same scheduler trace, zero fabric
    /// activity — under every policy, both drivers, both admission
    /// modes.
    #[test]
    fn single_device_pool_is_byte_identical_to_serve_for_every_policy() {
        let pool = DevicePool::homogeneous(PlatformSpec::vrex48(), 1);
        let model = llama();
        let plans = fleet(6, 2, 8.0, 17);
        let configs = [
            ServeConfig::real_time(8_000),
            ServeConfig::real_time_tiered(30_000),
            ServeConfig::real_time_tiered(30_000).with_overlap(true),
        ];
        for cfg in &configs {
            let sys = SystemModel::new(PlatformSpec::vrex48(), Method::ReSV);
            let (expect, expect_trace) = serve_traced(&sys, &model, &plans, cfg);
            for policy in PlacementPolicy::ALL {
                let (got, traces) = serve_sharded_traced_with_workers(
                    &pool,
                    Method::ReSV,
                    &model,
                    &plans,
                    cfg,
                    policy,
                    host_workers(),
                );
                assert_eq!(got.devices.len(), 1);
                assert_eq!(got.devices[0], expect, "{} report drifted", policy.label());
                assert_eq!(
                    trace_fingerprint(&traces[0]),
                    trace_fingerprint(&expect_trace),
                    "{} trace drifted",
                    policy.label()
                );
                assert!(got.placements.iter().all(|&(_, d)| d == 0));
                assert_eq!(got.interconnect, InterconnectReport::default());
            }
        }
    }

    /// Conservation: across a 2-device pool every offered session is
    /// placed on exactly one device, and each device's report covers
    /// exactly its routed sub-fleet.
    #[test]
    fn two_device_placement_conserves_the_fleet() {
        let pool = DevicePool::homogeneous(PlatformSpec::vrex48(), 2);
        let model = llama();
        let plans = fleet(8, 2, 8.0, 17);
        for policy in PlacementPolicy::ALL {
            let r = serve_sharded(
                &pool,
                Method::ReSV,
                &model,
                &plans,
                &ServeConfig::real_time_tiered(30_000),
                policy,
            );
            assert_eq!(r.offered(), plans.len(), "{}", policy.label());
            let mut placed: Vec<usize> = r.placements.iter().map(|&(id, _)| id).collect();
            placed.sort_unstable();
            let mut expect: Vec<usize> = plans.iter().map(|p| p.id).collect();
            expect.sort_unstable();
            assert_eq!(
                placed,
                expect,
                "{}: each session exactly once",
                policy.label()
            );
            for (d, report) in r.devices.iter().enumerate() {
                let routed = r.placements.iter().filter(|&&(_, dev)| dev == d).count();
                assert_eq!(report.offered, routed, "{} device {d}", policy.label());
            }
        }
    }

    /// A fleet arriving all at once load-balances across both devices.
    #[test]
    fn load_balanced_spreads_a_simultaneous_fleet() {
        let pool = DevicePool::homogeneous(PlatformSpec::vrex48(), 2);
        let r = serve_sharded(
            &pool,
            Method::ReSV,
            &llama(),
            &fleet(6, 1, 0.0, 5),
            &ServeConfig::real_time(8_000),
            PlacementPolicy::LoadBalanced,
        );
        assert!(r.devices[0].offered > 0 && r.devices[1].offered > 0);
        assert_eq!(r.devices[0].offered + r.devices[1].offered, 6);
    }

    /// The migrate policy pays for rebalancing: sessions placed off
    /// their affinity home copy their prefilled context across the
    /// fabric, the fabric records the traffic, and the fleet is still
    /// served exactly once. Arrivals 6 s apart with 1-turn sessions
    /// drain the load trackers between arrivals, so every session is
    /// placed on the then-idle device 0 — and every odd-id session
    /// (home = device 1) must migrate its context there.
    #[test]
    fn migrate_policy_accounts_fabric_traffic_and_conserves_sessions() {
        let pool = DevicePool::homogeneous(PlatformSpec::vrex48(), 2);
        let model = llama();
        let cfg = ServeConfig::real_time_tiered(30_000);
        let r = serve_sharded(
            &pool,
            Method::ReSV,
            &model,
            &fleet(10, 1, 60.0, 3),
            &cfg,
            PlacementPolicy::Migrate,
        );
        assert!(
            r.interconnect.migrations > 0,
            "off-home placements must need rebalancing"
        );
        let sys = SystemModel::new(PlatformSpec::vrex48(), Method::ReSV);
        let context = sys.resident_demand_bytes(&model, cfg.initial_cache_tokens);
        assert_eq!(
            r.interconnect.migrated_bytes,
            r.interconnect.migrations as u64 * context,
            "every migration moves exactly the prefilled context"
        );
        assert!(r.interconnect.busy_ps > 0);
        assert_eq!(r.offered(), 10);
    }

    /// Satellite oracle: two concurrent cross-device KV migrations on
    /// one NVLink port serialize to the exact picosecond sum the link
    /// math predicts (the fabric-side analogue of the PR-5 PCIe
    /// 27_443_000 ps oracle). By hand, for 1 MiB in 256 KiB chunks on
    /// NVLink 4 (18 × 25 GB/s = 450 GB/s raw, 256 B payload per 16 B
    /// flit framing, 0.1 µs copy-engine setup per chunk):
    ///   chunks = 4;  packets = 1 MiB/256 + 4 = 4100
    ///   wire bytes = 1_048_576 + 4100·16 = 1_114_176
    ///   wire ps    = round(1_114_176 / 450e9 · 1e12) = 2_475_947
    ///   one copy   = 2_475_947 + 4·100_000 = 2_875_947 ps
    /// Both copies leave device 0, so its port serializes them: the
    /// second starts exactly where the first ends, and the session the
    /// second copy serves cannot start before 10_000_000 + 2·2_875_948.
    #[test]
    fn concurrent_migrations_on_one_nvlink_serialize_to_the_exact_sum() {
        let mut engine = Engine::new();
        let fabric = Interconnect::install(&mut engine, InterconnectConfig::nvlink4(), 3);
        let bytes = 1u64 << 20;
        let one = 2_875_947u64;
        assert_eq!(
            fabric.config().transfer_ps(bytes, MIGRATION_CHUNK_BYTES),
            one,
            "hand-computed single-copy duration"
        );
        let now = 10_000_000u64;
        let a = fabric.copy(
            &mut engine,
            0,
            1,
            bytes,
            MIGRATION_CHUNK_BYTES,
            now,
            "kv-migrate",
        );
        let b = fabric.copy(
            &mut engine,
            0,
            2,
            bytes,
            MIGRATION_CHUNK_BYTES,
            now,
            "kv-migrate",
        );
        assert_eq!(
            a,
            CopySpan {
                start_ps: now,
                end_ps: now + one
            }
        );
        assert_eq!(
            b,
            CopySpan {
                start_ps: now + one,
                end_ps: now + 2 * one,
            },
            "second copy is delayed by exactly the overlapping bytes"
        );
        assert_eq!(engine.busy_time(fabric.port(0)), 2 * one);
    }

    /// Satellite golden traces: the 2-device first-fit scenario's
    /// per-device scheduler traces, fingerprinted under both drivers.
    /// The device is a
    /// memory-constrained V-Rex48 (32 GiB HBM, 32K-token hot window →
    /// 4 GiB resident per stream against a ~14 GiB KV budget) under
    /// reject-only admission, so first-fit genuinely overflows onto
    /// device 1. Captured from the first sharded-serving
    /// implementation; any drift means placement or the per-device
    /// core changed behaviour.
    #[test]
    fn two_device_first_fit_trace_matches_golden_fingerprints() {
        let mut device = PlatformSpec::vrex48();
        device.mem_capacity = 32u64 << 30;
        device.hot_window_tokens = 32_768;
        let pool = DevicePool::homogeneous(device, 2);
        let model = llama();
        let plans = fleet(8, 2, 8.0, 17);
        let golden: [(bool, [(usize, u64); 2]); 2] = [
            (
                false,
                [(670, 0x55b3_4c43_2527_7eae), (685, 0x725a_6b0a_848b_c65a)],
            ),
            (
                true,
                [(727, 0xf695_fa61_2569_4113), (727, 0x0775_d4fc_085b_d03a)],
            ),
        ];
        for (overlap, expected) in golden {
            let cfg = ServeConfig::real_time(32_000).with_overlap(overlap);
            let (_, traces) = serve_sharded_traced_with_workers(
                &pool,
                Method::ReSV,
                &model,
                &plans,
                &cfg,
                PlacementPolicy::FirstFit,
                host_workers(),
            );
            let got = [trace_fingerprint(&traces[0]), trace_fingerprint(&traces[1])];
            assert_eq!(got, expected, "overlap={overlap}: fingerprints drifted");
        }
    }
}
