//! `capacity_sweep`: `tier_capacity`'s grid, self-contained. Hundreds
//! of short serves over cold per-unit price caches — the
//! figure-reproduction user, where the price-cache *miss* path, plan
//! generation and report aggregation matter and the long-run layers do
//! little.
//!
//! Closed loop in the plain sense: one serve call at a time, each
//! started when the previous one returns.

use std::time::Instant;

use vrex_system::memory::AdmissionPolicy;
use vrex_system::{
    serve_stream, serve_with_cache, ExecContext, Method, PlatformSpec, PrefetchMode, ServeConfig,
    StepPriceCache, SystemModel,
};
use vrex_workload::traffic::{SessionPlan, SlicePlans, TrafficConfig};

use super::{
    headline_device, llama, pricing_estimate, serve_layers, serve_self_share, Metrics, Prepared,
    Rep, Seen, Workload, GIB,
};
use crate::check::{check_serve_report, Checks, Digest};
use crate::probes;
use crate::trace::{Aggregate, Tracer};
use crate::wrap::{StepMix, TimingSource};

/// One admission policy row of the sweep.
#[derive(Debug, Clone, Copy)]
struct Policy {
    admission: AdmissionPolicy,
    overlap: bool,
}

const POLICIES: [Policy; 5] = [
    Policy {
        admission: AdmissionPolicy::RejectOnly,
        overlap: false,
    },
    Policy {
        admission: AdmissionPolicy::Tiered {
            prefetch: PrefetchMode::Demand,
        },
        overlap: false,
    },
    Policy {
        admission: AdmissionPolicy::Tiered {
            prefetch: PrefetchMode::Speculative { accuracy: 0.9 },
        },
        overlap: false,
    },
    Policy {
        admission: AdmissionPolicy::Tiered {
            prefetch: PrefetchMode::Cluster { accuracy: 0.9 },
        },
        overlap: false,
    },
    Policy {
        admission: AdmissionPolicy::Tiered {
            prefetch: PrefetchMode::Speculative { accuracy: 0.9 },
        },
        overlap: true,
    },
];

fn is_cluster(a: AdmissionPolicy) -> bool {
    matches!(a, AdmissionPolicy::Tiered { prefetch } if prefetch.is_cluster())
}

#[derive(Debug)]
pub struct Sweep {
    systems: Vec<SystemModel>,
    caches: &'static [usize],
    fleets: &'static [usize],
}

impl Sweep {
    /// The full grid is `tier_capacity`'s seven platform configs ×
    /// {16K, 32K} cache × five policies × six fleet sizes = 420 serve
    /// calls; the smoke grid is the headline config at 32K only (20).
    pub fn new(smoke: bool) -> Self {
        let half = |mut p: PlatformSpec| {
            p.mem_capacity /= 2;
            p
        };
        let wide = |mut p: PlatformSpec| {
            p.hot_window_tokens = 32_768;
            p
        };
        let mut systems = vec![SystemModel::new(headline_device(), Method::ReSV)];
        if smoke {
            return Sweep {
                systems,
                caches: &[32_000],
                fleets: &[4, 8, 12, 16],
            };
        }
        let vrex48 = PlatformSpec::vrex48;
        systems.extend([
            SystemModel::new(wide(vrex48()), Method::ReSV),
            SystemModel::new(half(vrex48()), Method::VanillaInMemory),
            SystemModel::new(half(vrex48()), Method::Oaken),
            SystemModel::new(wide(half(PlatformSpec::a100())), Method::InfiniGen),
            SystemModel::new(PlatformSpec::agx_orin(), Method::VanillaInMemory),
            SystemModel::new(half(vrex48()).with_nvme_tier(), Method::VanillaInMemory),
        ]);
        Sweep {
            systems,
            caches: &[16_000, 32_000],
            fleets: &[4, 8, 12, 16, 24, 32],
        }
    }

    fn calls(&self) -> usize {
        self.systems.len() * self.caches.len() * POLICIES.len() * self.fleets.len()
    }
}

struct SweepRun<'a> {
    sweep: &'a Sweep,
    /// One materialised fleet per fleet size.
    fleets: Vec<Vec<SessionPlan>>,
}

impl Workload for Sweep {
    /// Materialises the fleets, then warms the code paths by serving
    /// the smallest one under every policy on a throwaway price cache.
    fn setup(&self, seed: u64) -> Box<dyn Prepared + '_> {
        // Two-turn sessions arriving in a 10 s burst, as the figure
        // sweep offers them.
        let fleets: Vec<Vec<SessionPlan>> = self
            .fleets
            .iter()
            .map(|&sessions| {
                TrafficConfig {
                    sessions,
                    turns: 2,
                    arrival_spread_s: 10.0,
                    seed,
                }
                .generate()
            })
            .collect();
        let mut prices = StepPriceCache::new(&self.systems[0], &llama());
        for policy in &POLICIES {
            let cfg = ServeConfig {
                admission: policy.admission,
                overlap: policy.overlap,
                ..ServeConfig::real_time(self.caches[0])
            };
            serve_with_cache(&mut prices, &fleets[0], &cfg);
        }
        Box::new(SweepRun {
            sweep: self,
            fleets,
        })
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
        let units = (self.systems.len() * self.caches.len()) as u64;
        let (sys, model) = (&self.systems[0], llama());

        // One unit's worth of shapes on the headline system; the step
        // mix is per serve call, the same in every unit.
        let (hit_ns, miss_ns) = probes::pricing_ns(
            sys,
            &model,
            ExecContext::Serialized,
            seen.mix,
            (seen.price_shapes / units) as usize,
            self.caches[self.caches.len() - 1],
            seen.counters.active_peak,
        );
        pricing_estimate(&mut out, seen, base.wall_s, hit_ns, miss_ns);
        let leaf = probes::pricing_leaves_ns(sys, &model);
        out.insert("system.pipeline.layer_costs_ns", leaf.layer_costs);
        out.insert("hwsim.dram.stream_read_ns", leaf.dram_stream_read);
        out.insert("hwsim.ssd.scattered_read_ns", leaf.ssd_scattered_read);
        out.insert("hwsim.pcie.transfer_ns", leaf.pcie_transfer);
        out.insert("hwsim.tier.migrate_ns", leaf.tier_migrate);

        // Tier-manager cost: flat and cluster restores priced apart,
        // the overlapped row planning instead of stepping.
        let streams = self.fleets[self.fleets.len() - 1];
        let cache = self.caches[self.caches.len() - 1];
        let flat = probes::memory_ns(
            sys,
            &model,
            PrefetchMode::Speculative { accuracy: 0.9 },
            streams,
            cache,
        );
        let cluster = probes::memory_ns(
            sys,
            &model,
            PrefetchMode::Cluster { accuracy: 0.9 },
            streams,
            cache,
        );
        out.insert("system.memory.plan_restore_ns", flat.plan_restore);
        out.insert("system.memory.step_restore_ns", flat.step_restore);
        out.insert("system.memory.admit_release_ns", flat.admit_release);
        let flat_step_misses =
            seen.tier_miss_steps - seen.cluster_miss_steps - seen.overlap_miss_steps;
        out.insert(
            "system.memory.est_share",
            (flat_step_misses as f64 * flat.step_restore
                + seen.overlap_miss_steps as f64 * flat.plan_restore
                + seen.cluster_miss_steps as f64 * cluster.step_restore
                + seen.admitted as f64 * flat.admit_release)
                / (base.wall_s * 1e9),
        );
        serve_self_share(&mut out);
        out
    }
}

impl Prepared for SweepRun<'_> {
    fn run(self: Box<Self>, checks: &mut Checks, mut tracer: Option<&mut Tracer>) -> Rep {
        let sweep = self.sweep;
        let model = llama();
        let mut seen = Seen::default();
        let mut call_ms = Vec::with_capacity(sweep.calls());
        let mut reports = Vec::with_capacity(sweep.calls());
        let clock = Instant::now();
        for sys in &sweep.systems {
            for &cache in sweep.caches {
                // One cold price cache per (platform, cache) unit: all
                // its policies and fleet sizes replay the same
                // per-session cache trajectories.
                let mut prices = StepPriceCache::new(sys, &model);
                for policy in &POLICIES {
                    let cfg = ServeConfig {
                        admission: policy.admission,
                        overlap: policy.overlap,
                        ..ServeConfig::real_time(cache)
                    };
                    for plans in &self.fleets {
                        let call = Instant::now();
                        let report = match tracer.as_deref_mut() {
                            None => serve_with_cache(&mut prices, plans, &cfg),
                            Some(tracer) => {
                                let mut timed =
                                    TimingSource::new(SlicePlans::new(plans), tracer.epoch());
                                let (root, report) = tracer.root("system.serve", || {
                                    serve_stream(&mut prices, &mut timed, &cfg)
                                });
                                tracer.children(root, "workload.next_plan", timed.pulls);
                                add_mix(&mut seen.mix, timed.mix);
                                report
                            }
                        };
                        call_ms.push(call.elapsed().as_secs_f64() * 1e3);
                        reports.push(report);
                    }
                }
                seen.add_prices(&prices);
            }
        }
        let wall_s = clock.elapsed().as_secs_f64();

        let mut digest = Digest::default();
        let (mut real_time, mut capacity) = (0, 0);
        // Reports come back in grid order: one chunk of fleet sizes per
        // (unit, policy).
        for (chunk, policy) in reports
            .chunks(self.fleets.len())
            .zip(POLICIES.iter().cycle())
        {
            for (report, plans) in chunk.iter().zip(&self.fleets) {
                check_serve_report(checks, "sweep serve", report, plans.len());
                seen.add_report(report, is_cluster(policy.admission), policy.overlap);
                digest.serve_report(report);
                real_time += report.real_time_sessions;
            }
            let best = chunk.iter().map(|r| r.real_time_sessions).max();
            capacity += best.unwrap_or(0);
        }
        Rep {
            items: sweep.calls() as u64,
            wall_s,
            call_ms,
            digest: digest.finish(),
            sim: vec![
                (
                    "sim_rt_share",
                    real_time as f64 / seen.offered.max(1) as f64,
                ),
                ("sim_exposed_s", seen.exposed_s),
                ("sim_restored_gib", seen.restored_bytes as f64 / GIB),
                // The 21-vs-11 @16K / 12-vs-6 @32K rows, summed: best
                // real-time stream count per (unit, policy).
                ("sim_capacity_streams", capacity as f64),
            ],
            seen,
        }
    }
}

fn add_mix(into: &mut StepMix, m: StepMix) {
    into.frames += m.frames;
    into.questions += m.questions;
    into.question_tokens += m.question_tokens;
    into.answer_tokens += m.answer_tokens;
}
