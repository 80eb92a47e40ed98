//! Property tests for the system cost model: monotonicity and
//! conservation laws the figures depend on.

use proptest::prelude::*;
use vrex_model::ModelConfig;
use vrex_system::pipeline::{cold_selected_tokens, layer_costs, selected_tokens, Workload};
use vrex_system::serve::SessionOutcome;
use vrex_system::{
    DevicePool, InterconnectReport, Method, PlacementPolicy, PlatformSpec, Serve, ServeConfig,
    ServeReport, ShardedServeReport, StepPriceCache, SystemModel, TieredKvManager, TraceEvent,
    TraceKind,
};
use vrex_workload::traffic::{SessionPlan, SlicePlans, TrafficConfig};

/// One serve of `plans` over a fresh price cache.
fn serve(
    sys: &SystemModel,
    model: &ModelConfig,
    plans: &[SessionPlan],
    cfg: &ServeConfig,
) -> ServeReport {
    Serve::new(&mut StepPriceCache::new(sys, model), cfg).run(&mut SlicePlans::new(plans))
}

/// [`serve`] that also returns the scheduler trace.
fn serve_traced(
    sys: &SystemModel,
    model: &ModelConfig,
    plans: &[SessionPlan],
    cfg: &ServeConfig,
) -> (ServeReport, Vec<TraceEvent>) {
    let mut traces = Vec::new();
    let report = Serve::new(&mut StepPriceCache::new(sys, model), cfg)
        .trace(&mut traces)
        .run(&mut SlicePlans::new(plans));
    (report, traces.remove(0))
}

/// A fresh Llama-3-8B ReSV price cache for `pool`'s device.
fn pool_prices(pool: &DevicePool) -> StepPriceCache {
    let sys = SystemModel::new(pool.device().clone(), Method::ReSV);
    StepPriceCache::new(&sys, &ModelConfig::llama3_8b())
}

/// One ReSV serve of `plans` across `pool` over a fresh price cache.
fn serve_pool(
    pool: &DevicePool,
    plans: &[SessionPlan],
    cfg: &ServeConfig,
    policy: PlacementPolicy,
) -> ShardedServeReport {
    Serve::new(&mut pool_prices(pool), cfg).run_pool(pool, policy, &mut SlicePlans::new(plans))
}

/// [`serve_pool`] on `workers` threads, with every device's trace.
fn serve_pool_traced(
    pool: &DevicePool,
    plans: &[SessionPlan],
    cfg: &ServeConfig,
    policy: PlacementPolicy,
    workers: usize,
) -> (ShardedServeReport, Vec<Vec<TraceEvent>>) {
    let mut traces = Vec::new();
    let report = Serve::new(&mut pool_prices(pool), cfg)
        .trace(&mut traces)
        .workers(workers)
        .run_pool(pool, policy, &mut SlicePlans::new(plans));
    (report, traces)
}

const METHODS: [Method; 6] = [
    Method::FlexGen,
    Method::InfiniGen,
    Method::InfiniGenP,
    Method::ReKV,
    Method::ReSV,
    Method::Oaken,
];

fn platforms() -> Vec<PlatformSpec> {
    vec![
        PlatformSpec::agx_orin(),
        PlatformSpec::a100(),
        PlatformSpec::vrex8(),
        PlatformSpec::vrex48(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Selection counts are conserved: cold ≤ selected ≤ cache, and the
    /// ratio honoured to within rounding.
    #[test]
    fn selection_conservation(
        cache in 1usize..100_000,
        batch in 1usize..16,
        method_idx in 0usize..6,
        platform_idx in 0usize..4,
        generation in any::<bool>(),
    ) {
        let method = METHODS[method_idx];
        let platform = &platforms()[platform_idx];
        let model = ModelConfig::llama3_8b();
        let w = Workload {
            model: model.clone(),
            cache_tokens: cache,
            batch,
            new_tokens: if generation { 1 } else { model.tokens_per_frame },
            generation,
        };
        let sel = selected_tokens(method, &w);
        let cold = cold_selected_tokens(platform, method, &w);
        prop_assert!(sel <= cache);
        prop_assert!(cold <= sel);
        let expected = (cache as f64 * method.ratio(generation)).ceil() as usize;
        prop_assert_eq!(sel, expected.min(cache));
    }

    /// Layer latency is the overlap composition: never below the
    /// slowest component, never above the serial sum.
    #[test]
    fn layer_latency_bounded_by_components(
        cache in 1usize..80_000,
        batch in 1usize..8,
        method_idx in 0usize..6,
        platform_idx in 0usize..4,
    ) {
        let method = METHODS[method_idx];
        let platform = &platforms()[platform_idx];
        let w = Workload::frame(&ModelConfig::llama3_8b(), cache, batch);
        let c = layer_costs(platform, method, &w);
        let serial = c.dense_ps + c.attention_ps + c.prediction_ps + c.fetch_ps;
        let slowest = c.dense_ps.max(c.attention_ps).max(c.prediction_ps).max(c.fetch_ps);
        prop_assert!(c.layer_ps >= slowest, "layer {} < slowest {}", c.layer_ps, slowest);
        prop_assert!(c.layer_ps <= serial, "layer {} > serial {}", c.layer_ps, serial);
    }

    /// Frame latency is weakly monotone in cache length for every
    /// platform+method pair.
    #[test]
    fn latency_monotone_in_cache_length(
        base in 1_000usize..20_000,
        growth in 1usize..4,
        method_idx in 0usize..6,
        platform_idx in 0usize..4,
    ) {
        let method = METHODS[method_idx];
        let platform = platforms()[platform_idx].clone();
        let sys = SystemModel::new(platform, method);
        let model = ModelConfig::llama3_8b();
        let t1 = sys.frame_step(&model, base, 1).latency_ps;
        let t2 = sys.frame_step(&model, base * (1 + growth), 1).latency_ps;
        prop_assert!(t2 >= t1, "latency fell: {t1} -> {t2}");
    }

    /// Energy is positive and increases with batch size.
    #[test]
    fn energy_positive_and_monotone_in_batch(
        cache in 1_000usize..40_000,
        method_idx in 0usize..6,
        platform_idx in 0usize..4,
    ) {
        let method = METHODS[method_idx];
        let platform = platforms()[platform_idx].clone();
        let sys = SystemModel::new(platform, method);
        let model = ModelConfig::llama3_8b();
        let e1 = sys.frame_step(&model, cache, 1).energy.total_j();
        let e4 = sys.frame_step(&model, cache, 4).energy.total_j();
        prop_assert!(e1 > 0.0);
        prop_assert!(e4 >= e1 * 0.99, "batch 4 energy {e4} below batch 1 {e1}");
    }

    /// OOM is monotone: once a configuration OOMs at some cache length
    /// it also OOMs at every longer length (same batch).
    #[test]
    fn oom_is_monotone(
        batch in 1usize..32,
        method_idx in 0usize..6,
    ) {
        let method = METHODS[method_idx];
        let sys = SystemModel::new(PlatformSpec::agx_orin(), method);
        let model = ModelConfig::llama3_8b();
        let mut seen_oom = false;
        for cache in [1_000usize, 5_000, 10_000, 20_000, 40_000, 80_000] {
            let oom = sys.is_oom(&model, cache, batch);
            if seen_oom {
                prop_assert!(oom, "OOM not monotone at {cache} batch {batch}");
            }
            seen_oom |= oom;
        }
    }

    /// TPOT never exceeds the same cache length's frame latency (a
    /// generation step does strictly less work).
    #[test]
    fn tpot_leq_frame_latency(
        cache in 1_000usize..40_000,
        method_idx in 0usize..6,
        platform_idx in 0usize..4,
    ) {
        let method = METHODS[method_idx];
        let platform = platforms()[platform_idx].clone();
        let sys = SystemModel::new(platform, method);
        let model = ModelConfig::llama3_8b();
        let frame = sys.frame_step(&model, cache, 1).latency_ps;
        let tpot = sys.decode_step(&model, cache, 1).latency_ps;
        prop_assert!(tpot <= frame, "TPOT {tpot} above frame {frame}");
    }

    /// The serving scheduler conserves sessions (admitted + rejected ==
    /// offered) and work (every admitted session processes all of its
    /// frames), for arbitrary fleets and seeds.
    #[test]
    fn serving_conserves_sessions_and_frames(
        sessions in 1usize..6,
        seed in 0u64..500,
        method_idx in 0usize..6,
    ) {
        let plans = TrafficConfig {
            sessions,
            turns: 1,
            arrival_spread_s: 4.0,
            seed,
        }
        .generate();
        let sys = SystemModel::new(PlatformSpec::vrex48(), METHODS[method_idx]);
        let model = ModelConfig::llama3_8b();
        let r = serve(&sys, &model, &plans, &ServeConfig::real_time(4_000));
        prop_assert_eq!(r.offered, sessions);
        prop_assert_eq!(r.admitted + r.rejected, r.offered);
        prop_assert!(r.queued <= r.admitted);
        prop_assert!(r.real_time_sessions <= r.admitted);
        for s in r.sessions.iter().filter(|s| s.outcome != SessionOutcome::Rejected) {
            let plan = plans.iter().find(|p| p.id == s.id).unwrap();
            prop_assert_eq!(s.frames_offered, plan.total_frames());
            prop_assert_eq!(s.frame_lags_s.len(), s.frames_offered);
            // Lags are non-negative and the max is consistent.
            prop_assert!(s.frame_lags_s.iter().all(|&l| l >= 0.0));
            prop_assert!(s.max_frame_lag_s >= s.mean_frame_lag_s);
        }
    }

    /// Tiered admission never admits fewer sessions than reject-only
    /// at the same device memory, conserves sessions, and its tiering
    /// accounting is self-consistent (hits + misses cover every spill,
    /// hidden time only exists under speculation).
    #[test]
    fn tiered_admission_dominates_reject_only(
        sessions in 1usize..8,
        seed in 0u64..200,
        method_idx in 0usize..6,
    ) {
        let plans = TrafficConfig {
            sessions,
            turns: 1,
            arrival_spread_s: 6.0,
            seed,
        }
        .generate();
        let sys = SystemModel::new(PlatformSpec::agx_orin(), METHODS[method_idx]);
        let model = ModelConfig::llama3_8b();
        let reject = serve(&sys, &model, &plans, &ServeConfig::real_time(30_000));
        let tiered = serve(&sys, &model, &plans, &ServeConfig::real_time_tiered(30_000));
        prop_assert_eq!(tiered.admitted + tiered.rejected, tiered.offered);
        prop_assert!(
            tiered.admitted >= reject.admitted,
            "tiering admitted {} < reject-only {}",
            tiered.admitted,
            reject.admitted
        );
        let t = tiered.tiering.expect("tiered run reports tiering");
        prop_assert!(t.exposed_s >= 0.0 && t.hidden_s >= 0.0);
        if t.spilled_bytes == 0 {
            prop_assert_eq!(t.tier_miss_steps, 0);
            prop_assert_eq!(t.spilled_sessions, 0);
        }
        for s in &tiered.sessions {
            prop_assert!(s.tier_exposed_s >= 0.0);
            if s.outcome == SessionOutcome::Rejected {
                prop_assert!(!s.spilled);
            }
        }
    }

    /// Event-queue invariants over random fleets: simulated time is
    /// strictly monotone (the PR 3 livelock class — time standing
    /// still while work remains — is impossible wholesale), no
    /// scheduler transition fires in the past, and every offered
    /// session terminates in exactly one of admitted / rejected /
    /// out-waited.
    #[test]
    fn event_queue_time_is_monotone_and_outcomes_partition(
        sessions in 1usize..8,
        turns in 0usize..3,
        spread in 0.0f64..12.0,
        max_wait in 0.0f64..12.0,
        cache in 1_000usize..40_000,
        seed in 0u64..300,
        method_idx in 0usize..6,
        tiered_admission in any::<bool>(),
    ) {
        let plans = TrafficConfig {
            sessions,
            turns,
            arrival_spread_s: spread,
            seed,
        }
        .generate();
        let sys = SystemModel::new(PlatformSpec::agx_orin(), METHODS[method_idx]);
        let model = ModelConfig::llama3_8b();
        let cfg = ServeConfig {
            max_wait_s: max_wait,
            admission: if tiered_admission {
                vrex_system::AdmissionPolicy::tiered_speculative()
            } else {
                vrex_system::AdmissionPolicy::RejectOnly
            },
            ..ServeConfig::real_time(cache)
        };
        let (r, trace) = serve_traced(&sys, &model, &plans, &cfg);
        // Strictly monotone simulated time: every recorded transition
        // advanced the clock, none fired at or before its predecessor
        // (and therefore none in the past).
        for w in trace.windows(2) {
            prop_assert!(
                w[0].ps < w[1].ps,
                "time stalled or rewound: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
        // Work implies progress: any admitted work produced at least
        // one completed step transition.
        if r.sessions.iter().any(|s| s.frames_offered > 0) {
            prop_assert!(trace.iter().any(|e| e.kind == TraceKind::StepComplete));
        }
        // Outcome partition: every offered session reaches exactly one
        // terminal outcome, ids are unique and drawn from the plans.
        prop_assert_eq!(r.sessions.len(), plans.len());
        let mut seen = std::collections::BTreeSet::new();
        for s in &r.sessions {
            prop_assert!(seen.insert(s.id), "session {} reported twice", s.id);
            prop_assert!(plans.iter().any(|p| p.id == s.id));
            // The outcome enum is the partition; rejected sessions
            // never out-wait for free: their recorded wait respects
            // the patience bound as the scheduler sees it — the
            // ps-rounded deadline, which for a random f64 patience
            // can sit just below `max_wait_s` itself.
            let patience_floor_s =
                vrex_hwsim::ps_to_seconds(vrex_hwsim::seconds_to_ps(cfg.max_wait_s));
            if s.outcome == SessionOutcome::Rejected && s.waited_s > 0.0 {
                prop_assert!(
                    s.waited_s >= patience_floor_s,
                    "out-waited below patience: {} < {}",
                    s.waited_s,
                    patience_floor_s
                );
            }
        }
        prop_assert_eq!(r.admitted + r.rejected, r.offered);
    }

    /// Resource-timeline execution over random fleets: the overlapped
    /// scheduler conserves sessions and work exactly like the
    /// serialized one, its trace never rewinds (weakly monotone — two
    /// batches may complete at one instant), and every run is
    /// deterministic. Debug builds additionally assert, inside the
    /// scheduler, that the incremental per-kind ready set matches the
    /// full fleet rescan at every pass — for both execution models.
    #[test]
    fn overlapped_serving_conserves_sessions_and_work(
        sessions in 1usize..6,
        turns in 0usize..3,
        spread in 0.0f64..10.0,
        cache in 1_000usize..40_000,
        seed in 0u64..200,
        method_idx in 0usize..6,
        tiered_admission in any::<bool>(),
    ) {
        let plans = TrafficConfig {
            sessions,
            turns,
            arrival_spread_s: spread,
            seed,
        }
        .generate();
        let sys = SystemModel::new(PlatformSpec::agx_orin(), METHODS[method_idx]);
        let model = ModelConfig::llama3_8b();
        let cfg = ServeConfig {
            admission: if tiered_admission {
                vrex_system::AdmissionPolicy::tiered_speculative()
            } else {
                vrex_system::AdmissionPolicy::RejectOnly
            },
            overlap: true,
            ..ServeConfig::real_time(cache)
        };
        let (r, trace) = serve_traced(&sys, &model, &plans, &cfg);
        for w in trace.windows(2) {
            prop_assert!(
                w[0].ps <= w[1].ps,
                "overlapped time rewound: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
        prop_assert_eq!(r.admitted + r.rejected, r.offered);
        prop_assert_eq!(r.sessions.len(), plans.len());
        let mut seen = std::collections::BTreeSet::new();
        for s in &r.sessions {
            prop_assert!(seen.insert(s.id), "session {} reported twice", s.id);
            if s.outcome != SessionOutcome::Rejected {
                let plan = plans.iter().find(|p| p.id == s.id).unwrap();
                prop_assert_eq!(s.frames_offered, plan.total_frames());
                prop_assert_eq!(
                    s.final_cache_tokens,
                    cfg.initial_cache_tokens
                        + plan.total_cache_growth_tokens(model.tokens_per_frame)
                );
            }
        }
        if r.sessions.iter().any(|s| s.frames_offered > 0) {
            prop_assert!(trace.iter().any(|e| e.kind == TraceKind::StepComplete));
        }
        prop_assert_eq!(&serve(&sys, &model, &plans, &cfg), &r);
    }

    /// The memoized price cache is bit-identical to uncached
    /// `SystemModel` pricing for arbitrary shapes, on both the miss
    /// and the hit path.
    #[test]
    fn price_cache_matches_uncached_pricing(
        cache_tokens in 1usize..80_000,
        batch in 1usize..32,
        question in 1usize..200,
        method_idx in 0usize..6,
        platform_idx in 0usize..4,
    ) {
        let method = METHODS[method_idx];
        let platform = platforms()[platform_idx].clone();
        let sys = SystemModel::new(platform, method);
        let model = ModelConfig::llama3_8b();
        let mut prices = StepPriceCache::new(&sys, &model);
        for _ in 0..2 {
            prop_assert_eq!(
                prices.frame_step(cache_tokens, batch),
                sys.frame_step(&model, cache_tokens, batch)
            );
            prop_assert_eq!(
                prices.decode_step(cache_tokens, batch),
                sys.decode_step(&model, cache_tokens, batch)
            );
            prop_assert_eq!(
                prices.question_step(cache_tokens, batch, question),
                sys.question_step(&model, cache_tokens, batch, question)
            );
        }
        prop_assert_eq!(prices.hits(), prices.misses());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tracing only observes: over random fleets, both admission
    /// policies, and both execution models, [`serve_traced`] returns
    /// the report and event-loop counters of the untraced [`serve`].
    #[test]
    fn tracing_leaves_reports_and_counters_bit_identical(
        sessions in 1usize..8,
        turns in 0usize..3,
        spread in 0.0f64..12.0,
        max_wait in 0.0f64..12.0,
        cache in 1_000usize..40_000,
        seed in 0u64..300,
        method_idx in 0usize..6,
        tiered_admission in any::<bool>(),
        overlap in any::<bool>(),
    ) {
        let plans = TrafficConfig {
            sessions,
            turns,
            arrival_spread_s: spread,
            seed,
        }
        .generate();
        let sys = SystemModel::new(PlatformSpec::agx_orin(), METHODS[method_idx]);
        let model = ModelConfig::llama3_8b();
        let cfg = ServeConfig {
            max_wait_s: max_wait,
            admission: if tiered_admission {
                vrex_system::AdmissionPolicy::tiered_speculative()
            } else {
                vrex_system::AdmissionPolicy::RejectOnly
            },
            overlap,
            ..ServeConfig::real_time(cache)
        };
        let (traced, trace) = serve_traced(&sys, &model, &plans, &cfg);
        let untraced = serve(&sys, &model, &plans, &cfg);
        prop_assert_eq!(&traced, &untraced, "tracing changed the report");
        // Counters sit outside report equality (serialized vs overlap
        // do different loop work), but tracing adds none: they must
        // match exactly too.
        prop_assert_eq!(traced.counters, untraced.counters);
        prop_assert_eq!(trace.is_empty(), plans.is_empty());
    }

    /// Streaming plan delivery is report-identical to the materialized
    /// slice: [`Serve::run`] over [`TrafficConfig::stream`] equals
    /// [`serve`] over [`TrafficConfig::generate`] — the fleet-scale
    /// path changes memory residency, never outcomes.
    #[test]
    fn streamed_fleets_reproduce_materialized_reports(
        sessions in 1usize..8,
        turns in 0usize..3,
        spread in 0.0f64..12.0,
        cache in 1_000usize..40_000,
        seed in 0u64..300,
    ) {
        let traffic = TrafficConfig {
            sessions,
            turns,
            arrival_spread_s: spread,
            seed,
        };
        let sys = SystemModel::new(PlatformSpec::vrex48(), Method::ReSV);
        let model = ModelConfig::llama3_8b();
        let cfg = ServeConfig::real_time(cache);
        let materialized = serve(&sys, &model, &traffic.generate(), &cfg);
        let mut prices = StepPriceCache::new(&sys, &model);
        let streamed = Serve::new(&mut prices, &cfg).run(&mut traffic.stream());
        prop_assert_eq!(&materialized, &streamed);
        prop_assert_eq!(materialized.counters, streamed.counters);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sharded-placement invariants over random fleets, for every
    /// [`PlacementPolicy`]: conservation (every offered session is
    /// placed on exactly one valid device, and the per-device reports
    /// partition the fleet), plus determinism — bit-identical reports
    /// across streamed vs materialized plan delivery.
    #[test]
    fn sharded_placement_conserves_and_is_deterministic(
        sessions in 1usize..7,
        turns in 0usize..3,
        spread in 0.0f64..10.0,
        cache in 2_000usize..40_000,
        seed in 0u64..300,
        devices in 1usize..4,
        policy_idx in 0..PlacementPolicy::ALL.len(),
    ) {
        let policy = PlacementPolicy::ALL[policy_idx];
        let traffic = TrafficConfig {
            sessions,
            turns,
            arrival_spread_s: spread,
            seed,
        };
        let plans = traffic.generate();
        let pool = DevicePool::homogeneous(PlatformSpec::vrex48(), devices);
        let cfg = ServeConfig::real_time(cache);
        let workers = vrex_core::par::workers();
        let (sharded, _) = serve_pool_traced(&pool, &plans, &cfg, policy, workers);
        // Conservation: the placement map lists every offered session
        // exactly once, on a device that exists.
        let mut placed: Vec<usize> = sharded.placements.iter().map(|&(id, _)| id).collect();
        placed.sort_unstable();
        let mut offered: Vec<usize> = plans.iter().map(|p| p.id).collect();
        offered.sort_unstable();
        prop_assert_eq!(placed, offered);
        prop_assert!(sharded.placements.iter().all(|&(_, d)| d < devices));
        // The per-device reports partition the fleet: device-local
        // offered counts sum to the fleet, and every session terminates
        // on its one device.
        prop_assert_eq!(sharded.devices.len(), devices);
        prop_assert_eq!(sharded.offered(), sessions);
        prop_assert_eq!(sharded.devices.iter().map(|r| r.offered).sum::<usize>(), sessions);
        prop_assert_eq!(sharded.admitted() + sharded.rejected(), sharded.offered());
        prop_assert!(sharded.real_time_sessions() <= sharded.admitted());
        // Streamed plan delivery reproduces the materialized report.
        let mut prices = pool_prices(&pool);
        let materialized = Serve::new(&mut prices, &cfg)
            .workers(workers)
            .run_pool(&pool, policy, &mut SlicePlans::new(&plans));
        let streamed = Serve::new(&mut prices, &cfg).run_pool(&pool, policy, &mut traffic.stream());
        prop_assert_eq!(&materialized, &streamed, "streamed vs materialized sharded reports");
        prop_assert_eq!(&materialized, &sharded);
    }

    /// The parallel-execution contract: fanning the per-device serve
    /// loops out across scoped worker threads is byte-identical to the
    /// sequential path at every worker count — same per-device reports,
    /// same placement map, same interconnect accounting, and identical
    /// per-device scheduler traces — for every placement policy.
    /// Placement completes before any device runs,
    /// pricing is a pure function (cache contents never change a
    /// result), and the scoped join returns results in device order;
    /// this test pins that argument against the implementation.
    #[test]
    fn parallel_sharded_is_byte_identical_to_sequential(
        sessions in 1usize..7,
        turns in 0usize..3,
        spread in 0.0f64..10.0,
        cache in 2_000usize..40_000,
        seed in 0u64..300,
        devices in 2usize..5,
        policy_idx in 0..PlacementPolicy::ALL.len(),
    ) {
        let policy = PlacementPolicy::ALL[policy_idx];
        let plans = TrafficConfig {
            sessions,
            turns,
            arrival_spread_s: spread,
            seed,
        }
        .generate();
        let pool = DevicePool::homogeneous(PlatformSpec::vrex48(), devices);
        let cfg = ServeConfig::real_time(cache);
        let (seq, seq_t) = serve_pool_traced(&pool, &plans, &cfg, policy, 1);
        prop_assert_eq!(seq.workers, 1);
        for workers in [2, vrex_core::par::workers()] {
            let (par, par_t) = serve_pool_traced(&pool, &plans, &cfg, policy, workers);
            prop_assert_eq!(
                &par, &seq,
                "parallel ({workers} workers) report drifted from sequential under {:?}",
                policy
            );
            prop_assert_eq!(
                &par_t, &seq_t,
                "parallel ({workers} workers) traces drifted from sequential under {:?}",
                policy
            );
            // Wall-clock metadata is observability, excluded from the
            // equality above, but must be well-formed: one entry per
            // device, and the clamped worker count recorded.
            prop_assert_eq!(par.device_wall_ns.len(), devices);
            prop_assert_eq!(par.workers, workers.clamp(1, devices));
        }
    }

    /// Weak capacity monotonicity: adding a device to the pool never
    /// shrinks what the fleet achieves. For every placement policy,
    /// admitted and real-time session counts at N + 1 devices are at
    /// least those at N.
    #[test]
    fn adding_a_device_never_shrinks_capacity(
        sessions in 1usize..8,
        turns in 0usize..3,
        spread in 0.0f64..8.0,
        cache in 8_000usize..40_000,
        seed in 0u64..300,
        devices in 1usize..3,
        policy_idx in 0..PlacementPolicy::ALL.len(),
    ) {
        let policy = PlacementPolicy::ALL[policy_idx];
        let plans = TrafficConfig {
            sessions,
            turns,
            arrival_spread_s: spread,
            seed,
        }
        .generate();
        let cfg = ServeConfig::real_time(cache);
        let pool = |devices| DevicePool::homogeneous(PlatformSpec::agx_orin(), devices);
        let small = serve_pool(&pool(devices), &plans, &cfg, policy);
        let large = serve_pool(&pool(devices + 1), &plans, &cfg, policy);
        prop_assert!(
            large.admitted() >= small.admitted(),
            "admitted shrank from {} to {} going {} -> {} devices under {:?}",
            small.admitted(), large.admitted(), devices, devices + 1, policy
        );
        prop_assert!(
            large.real_time_sessions() >= small.real_time_sessions(),
            "real-time sessions shrank from {} to {} going {} -> {} devices under {:?}",
            small.real_time_sessions(), large.real_time_sessions(), devices, devices + 1, policy
        );
    }

    /// `Migrate` places exactly like `LoadBalanced`; it differs only in
    /// pricing the context copy of every off-home placement. Over
    /// random fleets, pools of 1–4 devices, reject-only admission and
    /// tiered admission on both drivers: the placement maps are equal,
    /// `LoadBalanced` leaves the fabric idle, and `Migrate` counts one
    /// migration per session placed off its affinity home
    /// (`id mod devices`).
    #[test]
    fn migrate_places_like_load_balanced(
        sessions in 1usize..7,
        turns in 0usize..3,
        spread in 0.0f64..10.0,
        seed in 0u64..300,
        devices in 1usize..5,
    ) {
        let plans = TrafficConfig {
            sessions,
            turns,
            arrival_spread_s: spread,
            seed,
        }
        .generate();
        let pool = DevicePool::homogeneous(PlatformSpec::vrex48(), devices);
        for cfg in [
            ServeConfig::real_time(8_000),
            ServeConfig::real_time_tiered(30_000),
            ServeConfig {
                overlap: true,
                ..ServeConfig::real_time_tiered(30_000)
            },
        ] {
            let balanced = serve_pool(&pool, &plans, &cfg, PlacementPolicy::LoadBalanced);
            let migrate = serve_pool(&pool, &plans, &cfg, PlacementPolicy::Migrate);
            prop_assert_eq!(&migrate.placements, &balanced.placements);
            prop_assert_eq!(balanced.interconnect, InterconnectReport::default());
            let off_home = migrate
                .placements
                .iter()
                .filter(|&&(id, d)| id % devices != d)
                .count();
            prop_assert_eq!(migrate.interconnect.migrations, off_home);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Residency conservation over random admit / grow / touch /
    /// release traces, on the two-tier V-Rex48, with an NVMe tier under
    /// it, and with both lower tiers squeezed until they fill, for a
    /// cluster-granular and a flat manager: no tier
    /// below the device ever exceeds its budget (every demotion is
    /// bounded by its destination's room — the manager has no path that
    /// repairs a lower tier), and the fleet-wide per-tier totals agree
    /// with the per-session scan. In cluster mode every session's
    /// spilled bytes also equal the sum of its spilled clusters' bytes,
    /// and the spilled set is a contiguous coldness-rank prefix with
    /// each rank mapped to exactly one tier (no cluster lives in two
    /// tiers).
    #[test]
    fn cluster_spill_conserves_bytes_and_ranks(
        ops in proptest::collection::vec((0usize..4, 0usize..6, 1u64..5), 1..48),
        cluster_div in 4u64..64,
        ratio in 0.0f64..1.0,
    ) {
        use vrex_hwsim::tier::MemTier;
        let model = ModelConfig::llama3_8b();
        // The third platform squeezes host DRAM and the drive to a few
        // clusters each, so traces fill them and run the hierarchy out.
        let mut squeezed = PlatformSpec::vrex48().with_nvme_tier();
        squeezed.host_mem_capacity = 3 << 30;
        squeezed.storage.as_mut().expect("nvme tier").capacity_bytes = 5 << 30;
        let platforms = [PlatformSpec::vrex48(), PlatformSpec::vrex48().with_nvme_tier(), squeezed];
        for (platform, cluster_mode) in platforms.into_iter().flat_map(|p| [(p.clone(), true), (p, false)]) {
            let sys = SystemModel::new(platform, Method::ReSV);
            let mut mgr = TieredKvManager::for_system(&sys, &model);
            let caps = mgr.capacities();
            // Clusters sized as a fraction of the device budget so a few
            // admits overflow it, exercising both spill passes.
            let cluster_bytes = (caps.device_bytes / cluster_div).max(1);
            if cluster_mode {
                mgr = mgr.with_cluster_mode(cluster_bytes, ratio);
            }
            let mut live: Vec<usize> = Vec::new();
            let mut now_ps = 0u64;
            for &(op, id, units) in &ops {
                now_ps += 1_000;
                match op {
                    0 => {
                        mgr.admit(id, units * cluster_bytes, now_ps);
                        if !live.contains(&id) {
                            live.push(id);
                        }
                    }
                    1 => mgr.grow(id, units * (cluster_bytes / 2).max(1), now_ps),
                    2 => mgr.touch(id, now_ps),
                    _ => {
                        mgr.release(id);
                        live.retain(|&s| s != id);
                    }
                }
                // Migrations are decisions for the scheduler; drain them so
                // the queue does not grow unboundedly in this test.
                mgr.drain_migrations_into(&mut Vec::new());
                let mut host_total = 0u64;
                let mut ssd_total = 0u64;
                for &s in &live {
                    let r = *mgr.residency(s).expect("live session is tracked");
                    host_total += r.host_bytes;
                    ssd_total += r.ssd_bytes;
                    if !cluster_mode {
                        continue;
                    }
                    let clusters = mgr.spilled_clusters(s);
                    let cluster_sum: u64 = clusters.iter().map(|&(_, _, b)| b).sum();
                    prop_assert_eq!(
                        r.spilled_bytes(),
                        cluster_sum,
                        "session {}: residency says {} spilled bytes, clusters sum to {}",
                        s,
                        r.spilled_bytes(),
                        cluster_sum
                    );
                    // The spilled set is the contiguous coldness prefix
                    // [0, k): ranks ascend from 0 with no gaps, and each
                    // rank appears exactly once (one tier per cluster).
                    for (i, &(rank, _, bytes)) in clusters.iter().enumerate() {
                        prop_assert_eq!(rank, i as u64, "session {}: rank gap in spilled set", s);
                        prop_assert!(bytes > 0, "session {}: zero-byte spilled cluster", s);
                    }
                    let per_tier: u64 = clusters
                        .iter()
                        .filter(|&&(_, t, _)| t == MemTier::Host)
                        .map(|&(_, _, b)| b)
                        .sum();
                    prop_assert_eq!(
                        per_tier, r.host_bytes,
                        "session {}: host-tier cluster bytes disagree with residency", s
                    );
                }
                // Fleet-wide totals (the accessor debug-asserts the cached
                // counters against a full fleet scan internally).
                prop_assert_eq!(mgr.used_bytes(MemTier::Host), host_total);
                prop_assert_eq!(mgr.used_bytes(MemTier::Ssd), ssd_total);
                prop_assert!(
                    host_total <= caps.host_bytes && ssd_total <= caps.ssd_bytes,
                    "a lower tier is over budget: host {} / {}, ssd {} / {} (cluster mode: {})",
                    host_total, caps.host_bytes, ssd_total, caps.ssd_bytes, cluster_mode
                );
            }
        }
    }

    /// Cluster-granular serving is deterministic across plan delivery:
    /// under [`AdmissionPolicy::tiered_cluster`] every session reaches
    /// one outcome, the prefetch telemetry is self-consistent, and
    /// streamed plan delivery reproduces the materialized report and
    /// counters — the same contract the flat policies pin.
    #[test]
    fn cluster_tiering_is_deterministic_across_cores_and_delivery(
        sessions in 1usize..8,
        turns in 0usize..3,
        spread in 0.0f64..10.0,
        cache in 1_000usize..40_000,
        seed in 0u64..300,
        overlap in any::<bool>(),
    ) {
        let traffic = TrafficConfig {
            sessions,
            turns,
            arrival_spread_s: spread,
            seed,
        };
        let plans = traffic.generate();
        let sys = SystemModel::new(PlatformSpec::vrex48(), Method::ReSV);
        let model = ModelConfig::llama3_8b();
        let cfg = ServeConfig {
            admission: vrex_system::AdmissionPolicy::tiered_cluster(),
            overlap,
            ..ServeConfig::real_time(cache)
        };
        let r = serve(&sys, &model, &plans, &cfg);
        prop_assert_eq!(r.admitted + r.rejected, r.offered);
        // Prefetch telemetry self-consistency: demand-fetched clusters
        // are a subset of the mispredictions that produced them.
        let c = r.counters;
        prop_assert!(c.demand_clusters <= c.mispredicted_clusters);
        if let Some(t) = &r.tiering {
            prop_assert!(t.exposed_s >= 0.0 && t.hidden_s >= 0.0);
        }
        if !overlap {
            let mut prices = StepPriceCache::new(&sys, &model);
            let streamed = Serve::new(&mut prices, &cfg).run(&mut traffic.stream());
            prop_assert_eq!(&r, &streamed, "streamed cluster fleet drifted");
            prop_assert_eq!(r.counters, streamed.counters);
        }
    }
}
