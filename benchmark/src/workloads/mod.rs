//! The six workloads. Each is a set-up (everything before the timed
//! region) and a repetition (the timed region plus its checks), and
//! knows how to turn a traced repetition into per-layer metrics.
//!
//! The seed feeds only the input generators (`OpenLoopConfig`,
//! `TrafficConfig`, `VideoStream`, weights); the program under test
//! receives the generated inputs.

use std::collections::BTreeMap;

use vrex_model::ModelConfig;
use vrex_system::queueing::percentile_sorted;
use vrex_system::{PlatformSpec, ServeCounters, ServeReport, StepPriceCache};

use crate::check::Checks;
use crate::trace::{totals, Aggregate, Tracer};
use crate::wrap::StepMix;

mod fleet;
mod pool;
mod resv;
mod sweep;

pub const GIB: f64 = (1u64 << 30) as f64;

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// One workload of the benchmark.
pub trait Workload {
    /// Everything before the timed region, from `seed`.
    fn setup(&self, seed: u64) -> Box<dyn Prepared + '_>;

    /// Once-a-run checks that are not part of any repetition.
    fn cross_check(&self, _seed: u64, _checks: &mut Checks) {}

    /// Per-layer metrics of a traced repetition: counters the reports
    /// export, wrapper spans from `tracer`, and probes scaled by the
    /// untraced `base` repetition's wall time.
    /// Runs any further passes it needs from `seed`.
    fn layers(
        &self,
        seed: u64,
        base: &Rep,
        traced: &Rep,
        tracer: &Tracer,
        agg: &[Aggregate],
        checks: &mut Checks,
    ) -> Metrics;
}

/// A set-up ready to run one repetition.
pub trait Prepared {
    /// The timed region, then (untimed) the output checks. Consumes
    /// the set-up: every repetition starts from a fresh one.
    fn run(self: Box<Self>, checks: &mut Checks, tracer: Option<&mut Tracer>) -> Rep;
}

/// What one repetition measured and produced.
#[derive(Debug)]
pub struct Rep {
    /// Items processed in the timed region.
    pub items: u64,
    /// Host seconds of the timed region.
    pub wall_s: f64,
    /// Host ms of each call the benchmark made in the timed region.
    pub call_ms: Vec<f64>,
    /// Digest of every report the repetition produced.
    pub digest: u64,
    /// Simulated outputs (sim clock; exact).
    pub sim: Vec<(&'static str, f64)>,
    /// Counters the public reports export.
    pub seen: Seen,
}

/// Counters read off the public reports, summed over a repetition's
/// serve calls (peaks are maxima).
#[derive(Debug, Clone, Default)]
pub struct Seen {
    pub offered: u64,
    pub admitted: u64,
    pub counters: ServeCounters,
    pub price_hits: u64,
    pub price_misses: u64,
    pub price_shapes: u64,
    pub tier_hit_steps: u64,
    pub tier_miss_steps: u64,
    /// The part of `tier_miss_steps` planned at cluster granularity.
    pub cluster_miss_steps: u64,
    /// The part of `tier_miss_steps` run by the overlapped driver
    /// (`plan_restore` + link reservations, not `step_restore`).
    pub overlap_miss_steps: u64,
    pub spilled_sessions: u64,
    pub restored_bytes: u64,
    pub exposed_s: f64,
    /// Step mix of the plans pulled (traced repetitions only).
    pub mix: StepMix,
    /// Worker threads a sharded serve ran on (0 for the others).
    pub workers: usize,
    /// `resv_stream`: tokens cached when each frame call started, and
    /// the policy's own work statistics at the end of the stream.
    pub cache_tokens: Vec<usize>,
    pub resv_visited_fraction: f64,
    pub resv_tokens_per_cluster: f64,
}

impl Seen {
    /// Adds one serve report's counters.
    pub fn add_report(&mut self, r: &ServeReport, cluster: bool, overlap: bool) {
        self.offered += r.offered as u64;
        self.admitted += r.admitted as u64;
        let (a, c) = (&mut self.counters, &r.counters);
        a.arrival_events += c.arrival_events;
        a.patience_events += c.patience_events;
        a.work_ready_events += c.work_ready_events;
        a.step_complete_events += c.step_complete_events;
        a.admission_passes += c.admission_passes;
        a.admission_checks += c.admission_checks;
        a.batches_formed += c.batches_formed;
        a.batch_members += c.batch_members;
        a.queue_pushes += c.queue_pushes;
        a.queue_peak = a.queue_peak.max(c.queue_peak);
        a.active_peak = a.active_peak.max(c.active_peak);
        a.pending_peak = a.pending_peak.max(c.pending_peak);
        a.spec_clusters += c.spec_clusters;
        a.demand_clusters += c.demand_clusters;
        a.mispredicted_clusters += c.mispredicted_clusters;
        a.spec_restore_bytes += c.spec_restore_bytes;
        a.demand_restore_bytes += c.demand_restore_bytes;
        if let Some(t) = &r.tiering {
            self.tier_hit_steps += t.tier_hit_steps;
            self.tier_miss_steps += t.tier_miss_steps;
            if cluster {
                self.cluster_miss_steps += t.tier_miss_steps;
            }
            if overlap {
                self.overlap_miss_steps += t.tier_miss_steps;
            }
            self.spilled_sessions += t.spilled_sessions as u64;
            self.restored_bytes += t.restored_bytes;
            self.exposed_s += t.exposed_s;
        }
    }

    /// Adds a price cache's counters (once the serves on it are done).
    pub fn add_prices(&mut self, prices: &StepPriceCache) {
        self.price_hits += prices.hits();
        self.price_misses += prices.misses();
        self.price_shapes += prices.len() as u64;
    }
}

/// Every workload, in `spec::WORKLOADS` order, at `1/shrink` size.
pub fn by_name(name: &str, shrink: usize) -> Option<Box<dyn Workload>> {
    let n = |full: usize| (full / shrink).max(1);
    Some(match name {
        "fleet_reject" => Box::new(fleet::Fleet::reject(n(1_000_000))),
        "fleet_cluster" => Box::new(fleet::Fleet::cluster(n(1_500), false)),
        "fleet_overlap" => Box::new(fleet::Fleet::cluster(n(600), true)),
        "capacity_sweep" => Box::new(sweep::Sweep::new(shrink > 1)),
        "pool_migrate" => Box::new(pool::Pool::new(n(100_000))),
        "resv_stream" => Box::new(resv::Resv::new(n(200), n(60))),
        _ => return None,
    })
}

pub fn llama() -> ModelConfig {
    ModelConfig::llama3_8b()
}

/// `tier_capacity`'s headline device: V-Rex48 with half its HBM and a
/// 32K-token resident window, so a handful of streams overflow it.
pub fn headline_device() -> PlatformSpec {
    let mut p = PlatformSpec::vrex48();
    p.mem_capacity /= 2;
    p.hot_window_tokens = 32_768;
    p
}

/// Layer metrics every serve-based workload reads the same way: the
/// `PlanSource` wrapper's spans, the event-loop counters, the price
/// cache's and the tier manager's accounting.
pub fn serve_layers(
    out: &mut Metrics,
    base: &Rep,
    traced: &Rep,
    tracer: &Tracer,
    agg: &[Aggregate],
) {
    let (pulls, pull_ns, _) = totals(agg, "workload.next_plan");
    out.insert("workload.next_plan.calls", pulls as f64);
    out.insert("workload.next_plan.busy_s", pull_ns as f64 / 1e9);
    out.insert(
        "workload.next_plan.share",
        pull_ns as f64 / 1e9 / traced.wall_s,
    );

    let seen = &traced.seen;
    let c = &seen.counters;
    out.insert("system.serve.events", c.events_fired() as f64);
    out.insert("system.serve.batches", c.batches_formed as f64);
    out.insert("system.serve.batch_members", c.batch_members as f64);
    out.insert("system.serve.admission_passes", c.admission_passes as f64);
    out.insert("system.serve.admission_checks", c.admission_checks as f64);
    out.insert("system.serve.queue_peak", c.queue_peak as f64);
    out.insert("system.serve.active_peak", c.active_peak as f64);
    out.insert("system.serve.pending_peak", c.pending_peak as f64);
    // Host cost per simulated event / batch, from the untraced wall:
    // the number to compare across commits when sim counts move.
    let wall_ns = base.wall_s * 1e9;
    out.insert(
        "system.serve.ns_per_event",
        wall_ns / c.events_fired().max(1) as f64,
    );
    out.insert(
        "system.serve.ns_per_batch",
        wall_ns / c.batches_formed.max(1) as f64,
    );

    // Pull timing only means something inside one long serve.
    if let [(root_start, root_end)] = tracer.roots()[..] {
        let starts: Vec<u64> = tracer
            .intervals("workload.next_plan")
            .iter()
            .map(|&(start, _)| start)
            .collect();
        let mut gaps_ms: Vec<f64> = starts
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64 / 1e6)
            .collect();
        gaps_ms.sort_unstable_by(f64::total_cmp);
        out.insert(
            "system.serve.pull_gap_ms_p50",
            percentile_sorted(&gaps_ms, 50.0),
        );
        out.insert(
            "system.serve.pull_gap_ms_p99",
            percentile_sorted(&gaps_ms, 99.0),
        );
        // Host time from the middle arrival to the end over host time
        // up to the middle arrival: 1.0 when a session costs the same
        // wherever it sits in the fleet.
        if let Some(&mid) = starts.get(starts.len() / 2) {
            out.insert(
                "system.serve.late_half_ratio",
                (root_end - mid) as f64 / (mid - root_start).max(1) as f64,
            );
        }
    }

    let lookups = seen.price_hits + seen.price_misses;
    out.insert("system.pricing.hits", seen.price_hits as f64);
    out.insert("system.pricing.misses", seen.price_misses as f64);
    out.insert(
        "system.pricing.hit_ratio",
        seen.price_hits as f64 / lookups.max(1) as f64,
    );
    out.insert("system.pricing.shapes", seen.price_shapes as f64);

    out.insert("system.memory.hit_steps", seen.tier_hit_steps as f64);
    out.insert("system.memory.miss_steps", seen.tier_miss_steps as f64);
    out.insert(
        "system.memory.spilled_sessions",
        seen.spilled_sessions as f64,
    );
    out.insert(
        "system.memory.restored_gib",
        seen.restored_bytes as f64 / GIB,
    );

    let restored_clusters = c.spec_clusters + c.demand_clusters;
    out.insert("retrieval.prefetch.spec_clusters", c.spec_clusters as f64);
    out.insert(
        "retrieval.prefetch.demand_clusters",
        c.demand_clusters as f64,
    );
    // Of the clusters a restore moved, the share the ranking missed and
    // the step had to fetch on demand.
    out.insert(
        "retrieval.prefetch.mispredict_ratio",
        c.demand_clusters as f64 / restored_clusters.max(1) as f64,
    );
}

/// Sets `system.pricing.{hit_ns,miss_ns,est_share}` from a probe.
pub fn pricing_estimate(
    out: &mut Metrics,
    seen: &Seen,
    base_wall_s: f64,
    hit_ns: f64,
    miss_ns: f64,
) {
    out.insert("system.pricing.hit_ns", hit_ns);
    out.insert("system.pricing.miss_ns", miss_ns);
    let ns = seen.price_hits as f64 * hit_ns + seen.price_misses as f64 * miss_ns;
    out.insert("system.pricing.est_share", ns / 1e9 / base_wall_s);
}

/// `system.serve.self_share`: what the wrapper spans and the probe
/// estimates leave unexplained.
pub fn serve_self_share(out: &mut Metrics) {
    let explained: f64 = [
        "workload.next_plan.share",
        "system.eventq.est_share",
        "system.pricing.est_share",
        "system.memory.est_share",
    ]
    .iter()
    .map(|k| out.get(k).copied().unwrap_or(0.0))
    .sum();
    out.insert("system.serve.self_share", 1.0 - explained);
}
