//! `fleet_reject`, `fleet_cluster`, `fleet_overlap`: one long
//! `serve_stream` over an open-loop fleet.
//!
//! Open loop: arrivals come on a schedule whatever the system does.
//! The arrivals are *simulated* timestamps inside the plans, so there
//! is no generator lateness to report — the host never waits on a
//! clock to offer the next session.
//!
//! `fleet_reject` offers a Poisson stream; at 10^6 sessions its
//! burstiness averages out. The two cluster fleets are a thousand
//! times shorter, and a Poisson stream's peak concurrency (and with it
//! the tier manager's memory and the overlapped driver's quadratic
//! host time) then swings by a fifth from seed to seed — more than any
//! regression bound. They offer the same rate evenly staggered, each
//! arrival jittered inside its own slot, which holds concurrency
//! steady while every session's content still comes from the seed.

use std::time::Instant;

use vrex_system::memory::AdmissionPolicy;
use vrex_system::{
    serve_stream, ExecContext, Method, PlatformSpec, PrefetchMode, QueueKind, ServeConfig,
    ServeReport, StepPriceCache, SystemModel,
};
use vrex_workload::traffic::{
    OpenLoopConfig, OpenLoopStream, PlanSource, PlanStream, SessionPlan, TrafficConfig,
};

use super::{
    headline_device, llama, pricing_estimate, serve_layers, serve_self_share, Metrics, Prepared,
    Rep, Seen, Workload, GIB,
};
use crate::check::{check_serve_report, Checks, Digest};
use crate::probes;
use crate::trace::{Aggregate, Tracer};
use crate::wrap::TimingSource;

/// Cache tokens every session starts with.
const INITIAL_CACHE: usize = 32_000;

/// How a fleet's arrivals are spaced at its mean rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arrivals {
    /// Exponential gaps (`OpenLoopConfig`).
    Poisson,
    /// One slot of `1 / rate` per session, jittered within the slot
    /// (`TrafficConfig`).
    Staggered,
}

/// The plan stream of either arrival process.
#[derive(Debug)]
enum FleetSource {
    Poisson(OpenLoopStream),
    Staggered(PlanStream),
}

impl PlanSource for FleetSource {
    fn next_plan(&mut self) -> Option<SessionPlan> {
        match self {
            FleetSource::Poisson(s) => s.next_plan(),
            FleetSource::Staggered(s) => s.next_plan(),
        }
    }

    fn remaining_hint(&self) -> usize {
        match self {
            FleetSource::Poisson(s) => s.remaining_hint(),
            FleetSource::Staggered(s) => s.remaining_hint(),
        }
    }
}

#[derive(Debug)]
pub struct Fleet {
    platform: PlatformSpec,
    cfg: ServeConfig,
    arrivals: Arrivals,
    /// Mean arrival rate (sessions per simulated second).
    rate_per_s: f64,
    sessions: usize,
    /// Sessions of the warm-up serve that ends every set-up.
    warmup: usize,
}

impl Fleet {
    /// Reject-only admission on the full V-Rex48 at 1.2 sessions/s:
    /// loaded (steady rejections) without unbounded queue growth.
    pub fn reject(sessions: usize) -> Self {
        Fleet {
            platform: PlatformSpec::vrex48(),
            cfg: ServeConfig::real_time(INITIAL_CACHE),
            arrivals: Arrivals::Poisson,
            rate_per_s: 1.2,
            sessions,
            warmup: (sessions / 200).max(1),
        }
    }

    /// Cluster-granular tiering on the headline device at a healthy
    /// 0.8 sessions/s, on the serialized or the overlapped driver.
    pub fn cluster(sessions: usize, overlap: bool) -> Self {
        Fleet {
            platform: headline_device(),
            cfg: ServeConfig {
                admission: AdmissionPolicy::tiered_cluster(),
                overlap,
                ..ServeConfig::real_time(INITIAL_CACHE)
            },
            arrivals: Arrivals::Staggered,
            rate_per_s: 0.8,
            sessions,
            // These serves cost milliseconds a session; a few dozen
            // sessions fill the device and start the spilling.
            warmup: (sessions / 20).clamp(1, 30),
        }
    }

    fn system(&self) -> SystemModel {
        SystemModel::new(self.platform.clone(), Method::ReSV)
    }

    fn source(&self, sessions: usize, seed: u64) -> FleetSource {
        match self.arrivals {
            Arrivals::Poisson => FleetSource::Poisson(
                OpenLoopConfig {
                    sessions,
                    arrival_rate_per_s: self.rate_per_s,
                    turns: 1,
                    seed,
                }
                .stream(),
            ),
            Arrivals::Staggered => FleetSource::Staggered(
                TrafficConfig {
                    sessions,
                    turns: 1,
                    arrival_spread_s: sessions as f64 / self.rate_per_s,
                    seed,
                }
                .stream(),
            ),
        }
    }

    fn prefetch(&self) -> Option<PrefetchMode> {
        match self.cfg.admission {
            AdmissionPolicy::RejectOnly => None,
            AdmissionPolicy::Tiered { prefetch } => Some(prefetch),
        }
    }
}

struct FleetRun<'a> {
    fleet: &'a Fleet,
    prices: StepPriceCache,
    source: FleetSource,
}

impl Workload for Fleet {
    /// Builds the repetition's state, then warms the code paths with a
    /// small serve of the same kind on a throwaway price cache — the
    /// repetition itself still starts cold, as a user's run does.
    fn setup(&self, seed: u64) -> Box<dyn Prepared + '_> {
        serve_stream(
            &mut StepPriceCache::new(&self.system(), &llama()),
            &mut self.source(self.warmup, seed),
            &self.cfg,
        );
        Box::new(FleetRun {
            fleet: self,
            prices: StepPriceCache::new(&self.system(), &llama()),
            source: self.source(self.sessions, seed),
        })
    }

    /// The event-queue kinds are interchangeable by contract: a
    /// 1/20-size slice served on the heap and on the wheel must agree.
    /// Checked where the queue does the most work per session.
    fn cross_check(&self, seed: u64, checks: &mut Checks) {
        if self.prefetch().is_some() {
            return;
        }
        let slice = (self.sessions / 20).max(1);
        let serve = |queue: QueueKind| {
            serve_stream(
                &mut StepPriceCache::new(&self.system(), &llama()),
                &mut self.source(slice, seed),
                &self.cfg.with_queue(queue),
            )
        };
        let (heap, wheel) = (serve(QueueKind::Heap), serve(QueueKind::Wheel));
        check_serve_report(checks, "heap slice", &heap, slice);
        checks.check(heap == wheel, || {
            format!("heap and wheel reports differ on a {slice}-session slice")
        });
    }

    fn layers(
        &self,
        _seed: u64,
        base: &Rep,
        traced: &Rep,
        tracer: &Tracer,
        agg: &[Aggregate],
        _checks: &mut Checks,
    ) -> Metrics {
        let mut out = Metrics::new();
        serve_layers(&mut out, base, traced, tracer, agg);
        let seen = &traced.seen;
        let c = &seen.counters;
        let (sys, model) = (self.system(), llama());
        let base_ns = base.wall_s * 1e9;

        let ctx = if self.cfg.overlap {
            ExecContext::Overlapped
        } else {
            ExecContext::Serialized
        };
        let (hit_ns, miss_ns) = probes::pricing_ns(
            &sys,
            &model,
            ctx,
            seen.mix,
            seen.price_shapes as usize,
            INITIAL_CACHE,
            c.active_peak,
        );
        pricing_estimate(&mut out, seen, base.wall_s, hit_ns, miss_ns);

        match self.prefetch() {
            None => {
                // Steady occupancy is the recorded peak; 20K is what a
                // flash crowd (or eagerly armed arrivals) would hold.
                let steady = c.queue_peak.max(1);
                let hold = probes::eventq_hold_ns;
                out.insert(
                    "system.eventq.heap_ns_per_op.occ48",
                    hold(QueueKind::Heap, steady),
                );
                out.insert(
                    "system.eventq.wheel_ns_per_op.occ48",
                    hold(QueueKind::Wheel, steady),
                );
                out.insert(
                    "system.eventq.heap_ns_per_op.occ20k",
                    hold(QueueKind::Heap, 20_000),
                );
                out.insert(
                    "system.eventq.wheel_ns_per_op.occ20k",
                    hold(QueueKind::Wheel, 20_000),
                );
                // Every event is pushed once and popped once: one hold
                // operation on the queue the run used.
                let used = self.cfg.queue.resolve(self.sessions);
                let hold_ns = out[if used == QueueKind::Heap {
                    "system.eventq.heap_ns_per_op.occ48"
                } else {
                    "system.eventq.wheel_ns_per_op.occ48"
                }];
                out.insert(
                    "system.eventq.est_share",
                    c.events_fired() as f64 * hold_ns / base_ns,
                );
            }
            Some(prefetch) => {
                let m = probes::memory_ns(&sys, &model, prefetch, c.active_peak, INITIAL_CACHE);
                out.insert("system.memory.plan_restore_ns", m.plan_restore);
                out.insert("system.memory.step_restore_ns", m.step_restore);
                out.insert("system.memory.admit_release_ns", m.admit_release);
                // Per batch member that missed: the serialized driver
                // prices and commits in `step_restore`; the overlapped
                // one plans, then reserves the link itself.
                let per_miss = if self.cfg.overlap {
                    m.plan_restore
                } else {
                    m.step_restore
                };
                out.insert(
                    "system.memory.est_share",
                    (seen.tier_miss_steps as f64 * per_miss
                        + seen.admitted as f64 * m.admit_release)
                        / base_ns,
                );
                if prefetch.is_cluster() {
                    let clusters = sys
                        .resident_demand_bytes(&model, INITIAL_CACHE)
                        .div_ceil(sys.method.profile().fetch_chunk_bytes);
                    out.insert(
                        "retrieval.prefetch.cluster_plan_ns",
                        probes::cluster_plan_ns(clusters, sys.method.ratio(false)),
                    );
                }
            }
        }
        if self.cfg.overlap {
            engine_layers(&mut out);
        }
        serve_self_share(&mut out);
        out
    }
}

/// `hwsim.engine.*`: one link operation against 10^3 and 10^4 held
/// intervals, and how the cost grew between them (10 = linear in the
/// history, 1 = independent of it).
pub fn engine_layers(out: &mut Metrics) {
    let (reserve_1e3, append_1e3) = probes::engine_ns(1_000);
    let (reserve_1e4, append_1e4) = probes::engine_ns(10_000);
    out.insert("hwsim.engine.reserve_ns.t1e3", reserve_1e3);
    out.insert("hwsim.engine.reserve_ns.t1e4", reserve_1e4);
    out.insert("hwsim.engine.append_ns.t1e3", append_1e3);
    out.insert("hwsim.engine.append_ns.t1e4", append_1e4);
    out.insert("hwsim.engine.growth_ratio", reserve_1e4 / reserve_1e3);
}

impl Prepared for FleetRun<'_> {
    fn run(mut self: Box<Self>, checks: &mut Checks, tracer: Option<&mut Tracer>) -> Rep {
        let Fleet { cfg, sessions, .. } = self.fleet;
        let mut seen = Seen::default();
        let clock = Instant::now();
        let report = match tracer {
            None => serve_stream(&mut self.prices, &mut self.source, cfg),
            Some(tracer) => {
                let mut timed = TimingSource::new(self.source, tracer.epoch());
                let (root, report) = tracer.root("system.serve", || {
                    serve_stream(&mut self.prices, &mut timed, cfg)
                });
                tracer.children(root, "workload.next_plan", timed.pulls);
                seen.mix = timed.mix;
                report
            }
        };
        let wall_s = clock.elapsed().as_secs_f64();

        check_serve_report(checks, "serve_stream", &report, *sessions);
        seen.add_report(
            &report,
            self.fleet.prefetch().is_some_and(|p| p.is_cluster()),
            cfg.overlap,
        );
        seen.add_prices(&self.prices);
        let mut digest = Digest::default();
        digest.serve_report(&report);
        Rep {
            items: *sessions as u64,
            wall_s,
            call_ms: vec![wall_s * 1e3],
            digest: digest.finish(),
            sim: fleet_sim(&report),
            seen,
        }
    }
}

/// The simulated outputs of one fleet serve. A rejected session misses
/// the real-time bar, so the share is over sessions *offered*.
fn fleet_sim(r: &ServeReport) -> Vec<(&'static str, f64)> {
    let tier = r.tiering.as_ref();
    vec![
        (
            "sim_rt_share",
            r.real_time_sessions as f64 / r.offered.max(1) as f64,
        ),
        ("sim_lag_p99_s", r.frame_lag_p99_s),
        ("sim_ttft_p99_s", r.ttft_p99_s),
        ("sim_exposed_s", tier.map_or(0.0, |t| t.exposed_s)),
        (
            "sim_restored_gib",
            tier.map_or(0.0, |t| t.restored_bytes as f64 / GIB),
        ),
    ]
}
