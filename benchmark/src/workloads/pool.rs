//! `pool_migrate`: a fleet routed across four devices under
//! `PlacementPolicy::Migrate`. The placement pass (single-threaded,
//! with fabric migrations on an engine timeline) and the parallel
//! per-device fan-out are the layers under test; the per-device serves
//! are only about a quarter of the wall time.
//!
//! The one workload that uses threads: `serve_sharded_stream` runs the
//! per-device serves on `min(available_parallelism, 4)` workers.

use std::time::Instant;

use vrex_system::{
    serve_sharded_stream, serve_sharded_with_cache_in, DevicePool, ExecContext, Method,
    PlacementPolicy, ServeConfig, ShardScratch, StepPriceCache, SystemModel,
};
use vrex_workload::traffic::{OpenLoopConfig, OpenLoopStream, PlanSource};

use super::fleet::engine_layers;
use super::{
    headline_device, llama, pricing_estimate, serve_layers, Metrics, Prepared, Rep, Seen, Workload,
    GIB,
};
use crate::check::{check_sharded_report, Checks, Digest};
use crate::probes;
use crate::trace::{Aggregate, Tracer};
use crate::wrap::TimingSource;

const DEVICES: usize = 4;
const INITIAL_CACHE: usize = 32_000;
const POLICY: PlacementPolicy = PlacementPolicy::Migrate;

#[derive(Debug)]
pub struct Pool {
    sessions: usize,
}

impl Pool {
    pub fn new(sessions: usize) -> Self {
        Pool { sessions }
    }

    fn system() -> SystemModel {
        SystemModel::new(headline_device(), Method::ReSV)
    }

    fn cfg() -> ServeConfig {
        ServeConfig::real_time_tiered(INITIAL_CACHE)
    }

    /// 4.8 sessions/s over four devices: each sees `fleet_reject`'s 1.2.
    fn source(&self, sessions: usize, seed: u64) -> OpenLoopStream {
        OpenLoopConfig {
            sessions,
            arrival_rate_per_s: 4.8,
            turns: 1,
            seed,
        }
        .stream()
    }
}

struct PoolRun {
    pool: DevicePool,
    prices: StepPriceCache,
    source: OpenLoopStream,
    sessions: usize,
}

impl Workload for Pool {
    /// Builds the pool and the repetition's state, then warms the code
    /// paths with a 1/20-size sharded serve on a throwaway price cache.
    fn setup(&self, seed: u64) -> Box<dyn Prepared + '_> {
        let pool = DevicePool::homogeneous(headline_device(), DEVICES);
        serve_sharded_stream(
            &mut StepPriceCache::new(&Self::system(), &llama()),
            &pool,
            &mut self.source((self.sessions / 20).max(1), seed),
            &Self::cfg(),
            POLICY,
        );
        Box::new(PoolRun {
            pool,
            prices: StepPriceCache::new(&Self::system(), &llama()),
            source: self.source(self.sessions, seed),
            sessions: self.sessions,
        })
    }

    fn layers(
        &self,
        seed: u64,
        base: &Rep,
        traced: &Rep,
        tracer: &Tracer,
        agg: &[Aggregate],
        checks: &mut Checks,
    ) -> Metrics {
        let mut out = Metrics::new();
        serve_layers(&mut out, base, traced, tracer, agg);
        let seen = &traced.seen;
        let (sys, model) = (Self::system(), llama());
        let (hit_ns, miss_ns) = probes::pricing_ns(
            &sys,
            &model,
            ExecContext::Serialized,
            seen.mix,
            seen.price_shapes as usize,
            INITIAL_CACHE,
            seen.counters.active_peak,
        );
        pricing_estimate(&mut out, seen, base.wall_s, hit_ns, miss_ns);
        // Fabric copies are engine reservations on per-device ports.
        engine_layers(&mut out);

        // The placement pass is whatever of a one-worker run is not
        // inside a device's serve loop. (The explicit-worker entry
        // point takes a materialised fleet.)
        let mut source = self.source(self.sessions, seed);
        let plans: Vec<_> = std::iter::from_fn(|| source.next_plan()).collect();
        let clock = Instant::now();
        let serial = serve_sharded_with_cache_in(
            &mut StepPriceCache::new(&sys, &model),
            &DevicePool::homogeneous(headline_device(), DEVICES),
            &plans,
            &Self::cfg(),
            POLICY,
            1,
            &mut ShardScratch::new(),
        );
        let wall_s = clock.elapsed().as_secs_f64();
        let mut digest = Digest::default();
        digest.sharded_report(&serial);
        checks.check(digest.finish() == base.digest, || {
            "one-worker and default-worker sharded reports differ".into()
        });
        let device_s = serial.device_wall_ns.iter().sum::<u64>() as f64 / 1e9;
        let route_s = wall_s - device_s;
        let i = &serial.interconnect;
        out.insert("system.placement.route_s", route_s);
        out.insert("system.placement.route_share", route_s / wall_s);
        out.insert(
            "system.placement.ns_per_session",
            route_s * 1e9 / self.sessions as f64,
        );
        out.insert("system.placement.migrations", i.migrations as f64);
        out.insert(
            "system.placement.migrated_gib",
            i.migrated_bytes as f64 / GIB,
        );
        out.insert("system.placement.fabric_busy_s", i.busy_ps as f64 / 1e12);
        out.insert("core.par.workers", traced.seen.workers as f64);
        out.insert("core.par.speedup", wall_s / base.wall_s);
        out
    }
}

impl Prepared for PoolRun {
    fn run(mut self: Box<Self>, checks: &mut Checks, tracer: Option<&mut Tracer>) -> Rep {
        let cfg = Pool::cfg();
        let mut seen = Seen::default();
        let clock = Instant::now();
        let report = match tracer {
            None => {
                serve_sharded_stream(&mut self.prices, &self.pool, &mut self.source, &cfg, POLICY)
            }
            Some(tracer) => {
                let mut timed = TimingSource::new(self.source, tracer.epoch());
                let (root, report) = tracer.root("system.placement", || {
                    serve_sharded_stream(&mut self.prices, &self.pool, &mut timed, &cfg, POLICY)
                });
                tracer.children(root, "workload.next_plan", timed.pulls);
                seen.mix = timed.mix;
                report
            }
        };
        let wall_s = clock.elapsed().as_secs_f64();

        check_sharded_report(checks, "serve_sharded_stream", &report, self.sessions);
        for device in &report.devices {
            seen.add_report(device, false, false);
        }
        seen.add_prices(&self.prices);
        seen.workers = report.workers;
        let mut digest = Digest::default();
        digest.sharded_report(&report);
        let worst = |f: fn(&vrex_system::ServeReport) -> f64| {
            report.devices.iter().map(f).fold(0.0, f64::max)
        };
        Rep {
            items: self.sessions as u64,
            wall_s,
            call_ms: vec![wall_s * 1e3],
            digest: digest.finish(),
            sim: vec![
                (
                    "sim_rt_share",
                    report.real_time_sessions() as f64 / report.offered().max(1) as f64,
                ),
                ("sim_lag_p99_s", worst(|d| d.frame_lag_p99_s)),
                ("sim_ttft_p99_s", worst(|d| d.ttft_p99_s)),
                ("sim_exposed_s", seen.exposed_s),
                ("sim_restored_gib", seen.restored_bytes as f64 / GIB),
            ],
            seen,
        }
    }
}
