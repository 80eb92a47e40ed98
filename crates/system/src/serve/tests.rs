//! Unit tests of the serving scheduler, driven through [`Serve`].

use super::*;
use crate::capacity::headline_platform;
use crate::memory::PrefetchMode;
use crate::method::Method;
use crate::platform::PlatformSpec;
use crate::queueing::QueueLedger;
use vrex_hwsim::engine::Engine;
use vrex_hwsim::tier::MemTier;
use vrex_workload::traffic::TrafficConfig;
use vrex_workload::SessionEvent;

fn llama() -> ModelConfig {
    ModelConfig::llama3_8b()
}

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
pub(crate) fn serve_traced(
    sys: &SystemModel,
    model: &ModelConfig,
    plans: &[SessionPlan],
    cfg: &ServeConfig,
) -> (ServeReport, Vec<TraceEvent>) {
    let mut traces = Vec::new();
    let report = Serve::new(&mut StepPriceCache::new(sys, model), cfg)
        .trace(&mut traces)
        .run(&mut SlicePlans::new(plans));
    assert_eq!(traces.len(), 1, "one device, one trace");
    (report, traces.remove(0))
}

/// One session of `frames` camera frames arriving at 0, served alone
/// at `fps` from `start` cached tokens.
fn serve_one_stream(
    sys: &SystemModel,
    start: usize,
    fps: f64,
    frames: usize,
) -> SessionServeReport {
    let plan = [SessionPlan {
        id: 0,
        arrival_ps: 0,
        events: vec![SessionEvent::Frame; frames],
    }];
    let cfg = ServeConfig {
        fps,
        ..ServeConfig::real_time(start)
    };
    let mut r = serve(sys, &llama(), &plan, &cfg);
    assert_eq!(r.admitted, 1);
    r.sessions.remove(0)
}

/// Frames whose completion (arrival `i · interval_ps` plus the
/// reported lag, back in ps) falls at or before `end_ps`.
fn processed_by(s: &SessionServeReport, interval_ps: u64, end_ps: u64) -> usize {
    (0u64..)
        .zip(&s.frame_lags_s)
        .filter(|&(i, &lag)| i * interval_ps + seconds_to_ps(lag) <= end_ps)
        .count()
}

/// The single-server FIFO one uncontended session reduces to: item
/// `i` arrives at `arrivals_ps[i]`, starts once it has arrived and the
/// server is free, and `service(i)` prices it at that moment (so a
/// service model over a growing cache prices correctly).
fn fifo_reference(
    arrivals_ps: impl IntoIterator<Item = u64>,
    mut service: impl FnMut(usize) -> u64,
) -> QueueLedger {
    let mut ledger = QueueLedger::default();
    let mut server_free_at = 0u64;
    for (i, arrival) in arrivals_ps.into_iter().enumerate() {
        let completion = server_free_at.max(arrival) + service(i);
        server_free_at = completion;
        ledger.record(arrival, completion);
    }
    ledger
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

#[test]
fn vrex48_serves_a_small_fleet_in_real_time() {
    let sys = SystemModel::new(PlatformSpec::vrex48(), Method::ReSV);
    let r = serve(
        &sys,
        &llama(),
        &fleet(4, 1, 6.0, 11),
        &ServeConfig::real_time(8_000),
    );
    assert_eq!(r.offered, 4);
    assert_eq!(r.admitted, 4);
    assert_eq!(r.rejected, 0);
    assert!(
        r.sustained_real_time(),
        "V-Rex48 should sustain 4 streams: {r:?}"
    );
    assert!(r.frame_lag_p99_s <= 1.0, "p99 lag {}", r.frame_lag_p99_s);
}

#[test]
fn overloaded_baseline_misses_real_time() {
    // A100 + FlexGen refetches the whole 32K cache per frame; even
    // a couple of concurrent streams cannot stay real-time.
    let sys = SystemModel::new(PlatformSpec::a100(), Method::FlexGen);
    let r = serve(
        &sys,
        &llama(),
        &fleet(4, 1, 6.0, 11),
        &ServeConfig::real_time(32_000),
    );
    assert!(
        !r.sustained_real_time(),
        "A100+FlexGen cannot sustain 4 streams at 32K: {r:?}"
    );
    assert!(r.frame_lag_p99_s > 1.0);
}

#[test]
fn admission_control_rejects_when_memory_is_full() {
    // Vanilla in-memory on AGX: each stream pins its whole cache in
    // 32 GiB, so a fleet of six 30K-token streams cannot all fit.
    // Zero patience makes the overflow sessions reject immediately.
    let sys = SystemModel::new(PlatformSpec::agx_orin(), Method::VanillaInMemory);
    let cfg = ServeConfig {
        max_wait_s: 0.0,
        ..ServeConfig::real_time(30_000)
    };
    let r = serve(&sys, &llama(), &fleet(6, 1, 3.0, 5), &cfg);
    assert!(r.admitted >= 1, "at least one stream fits: {r:?}");
    assert!(r.rejected >= 1, "memory must reject some streams: {r:?}");
    assert_eq!(r.admitted + r.rejected, r.offered);
}

#[test]
fn waiting_sessions_are_admitted_when_memory_frees() {
    // Same memory squeeze but with generous patience: overflow
    // sessions should wait and be admitted as earlier ones retire,
    // showing up in the `queued` count rather than `rejected`.
    let sys = SystemModel::new(PlatformSpec::agx_orin(), Method::VanillaInMemory);
    let cfg = ServeConfig {
        max_wait_s: 1e6,
        ..ServeConfig::real_time(30_000)
    };
    let r = serve(&sys, &llama(), &fleet(6, 1, 3.0, 5), &cfg);
    assert_eq!(r.admitted, 6, "everyone admitted eventually: {r:?}");
    assert_eq!(r.rejected, 0);
    assert!(r.queued >= 1, "someone must have waited: {r:?}");
    assert!(r
        .sessions
        .iter()
        .filter(|s| s.outcome == SessionOutcome::AdmittedAfterWait)
        .all(|s| s.waited_s > 0.0));
}

#[test]
fn accounting_is_conserved_and_deterministic() {
    let sys = SystemModel::new(PlatformSpec::vrex8(), Method::ReSV);
    let plans = fleet(5, 2, 8.0, 23);
    let cfg = ServeConfig::real_time(4_000);
    let model = llama();
    let a = serve(&sys, &model, &plans, &cfg);
    let b = serve(&sys, &model, &plans, &cfg);
    assert_eq!(a, b, "serving must be deterministic");
    assert_eq!(a.offered, a.admitted + a.rejected);
    assert_eq!(a.sessions.len(), a.offered);
    // Every admitted session processed all of its frames and grew
    // its cache by every event it executed.
    for (s, plan) in a
        .sessions
        .iter()
        .filter(|s| s.outcome != SessionOutcome::Rejected)
        .map(|s| (s, plans.iter().find(|p| p.id == s.id).unwrap()))
    {
        assert_eq!(s.frames_offered, plan.total_frames());
        assert_eq!(
            s.final_cache_tokens,
            cfg.initial_cache_tokens + plan.total_cache_growth_tokens(model.tokens_per_frame)
        );
        assert_eq!(s.ttft_s.len(), 2, "one TTFT per turn");
    }
}

#[test]
fn shared_price_cache_reproduces_uncached_serving() {
    // A sweep-style reuse of one cache across fleets, policies, and
    // execution models must produce byte-identical reports to
    // fresh-cache runs.
    let sys = SystemModel::new(PlatformSpec::vrex48(), Method::ReSV);
    let model = llama();
    let mut cache = StepPriceCache::new(&sys, &model);
    for sessions in [2usize, 4, 6] {
        let plans = fleet(sessions, 1, 6.0, 11);
        for cfg in [
            ServeConfig::real_time(8_000),
            ServeConfig::real_time_tiered(8_000),
            ServeConfig {
                overlap: true,
                ..ServeConfig::real_time_tiered(8_000)
            },
        ] {
            let fresh = serve(&sys, &model, &plans, &cfg);
            let shared = Serve::new(&mut cache, &cfg).run(&mut SlicePlans::new(&plans));
            assert_eq!(fresh, shared);
        }
    }
    assert!(cache.hits() > 0, "sweep reuse must hit the cache");
}

#[test]
fn single_session_fleet_matches_single_session_bar() {
    // One admitted stream with no contention stays real-time on V-Rex8
    // at a short cache.
    let sys = SystemModel::new(PlatformSpec::vrex8(), Method::ReSV);
    let r = serve(
        &sys,
        &llama(),
        &fleet(1, 1, 0.0, 3),
        &ServeConfig::real_time(1_000),
    );
    assert_eq!(r.admitted, 1);
    assert!(r.real_time_sessions == 1, "uncontended V-Rex8: {r:?}");
}

#[test]
fn vrex8_keeps_up_at_2fps_short_cache() {
    // 30 s of bare 2 FPS camera frames from a 1K cache: real-time, and
    // never queued more than one deep.
    let sys = SystemModel::new(PlatformSpec::vrex8(), Method::ReSV);
    let s = serve_one_stream(&sys, 1_000, 2.0, 60);
    assert!(s.real_time, "V-Rex8 should sustain 2 FPS: {s:?}");
    assert_eq!(s.frames_offered, 60);
    assert!(s.max_queue_depth <= 1);
}

#[test]
fn cache_grows_by_tokens_per_frame() {
    let sys = SystemModel::new(PlatformSpec::vrex8(), Method::ReSV);
    let model = llama();
    let s = serve_one_stream(&sys, 500, 2.0, 10);
    assert_eq!(
        s.final_cache_tokens,
        500 + s.frames_offered * model.tokens_per_frame
    );
}

#[test]
fn one_session_serve_reports_ledger_semantics_exactly() {
    // Differential pin on one overloaded cell: the serve agrees with
    // the FIFO reference driven by the same frame-step prices.
    let sys = SystemModel::new(PlatformSpec::agx_orin(), Method::FlexGen);
    let model = llama();
    let s = serve_one_stream(&sys, 10_000, 2.0, 20);

    let mut cache = 10_000usize;
    let half_s = vrex_hwsim::PS_PER_SECOND / 2;
    let ledger = fifo_reference((0..s.frames_offered as u64).map(|i| i * half_s), |_| {
        let t = sys.frame_step(&model, cache, 1).latency_ps;
        cache += model.tokens_per_frame;
        t
    });
    let fifo_processed = (0u64..)
        .zip(ledger.lags_ps())
        .filter(|&(i, lag)| i * half_s + lag <= 20 * half_s)
        .count();
    assert_eq!(processed_by(&s, half_s, 20 * half_s), fifo_processed);
    assert_eq!(s.max_queue_depth, ledger.max_queue_depth());
    assert_eq!(s.mean_frame_lag_s, ledger.mean_lag_s());
    assert_eq!(s.max_frame_lag_s, ledger.max_lag_s());
}

/// For one session alone on the box, the serve is a single-server FIFO
/// over the frame-step prices at a growing cache, bit for bit: queue
/// depth, final cache (grown by `tokens_per_frame` per frame), every
/// frame's lag and so mean and max, the real-time bar, and the frames
/// processed within the camera's run (through the ps → s → ps round
/// trip of the reported lags).
#[test]
fn one_uncontended_session_is_a_fifo_over_frame_step_prices() {
    let model = llama();
    let systems = [
        (PlatformSpec::agx_orin(), Method::FlexGen),
        (PlatformSpec::agx_orin(), Method::ReKV),
        (PlatformSpec::agx_orin(), Method::InfiniGenP),
        (PlatformSpec::vrex8(), Method::ReSV),
        (PlatformSpec::vrex48(), Method::ReSV),
    ]
    .map(|(platform, method)| SystemModel::new(platform, method));
    for sys in &systems {
        for start in [0usize, 1_000, 5_000, 10_000, 20_000, 30_000, 40_000] {
            for (fps, seconds) in [
                (2.0, 60.0),
                (1.0, 30.0),
                (4.0, 10.0),
                (2.0, 5.0),
                (3.0, 7.0),
            ] {
                let frames = (fps * seconds) as usize;
                let interval_ps = seconds_to_ps(1.0 / fps);
                let mut cache = start;
                let fifo = fifo_reference((0..frames as u64).map(|i| i * interval_ps), |_| {
                    let service = sys.frame_step(&model, cache, 1).latency_ps;
                    cache += model.tokens_per_frame;
                    service
                });
                let end_ps = seconds_to_ps(seconds);
                let fifo_processed = (0u64..)
                    .zip(fifo.lags_ps())
                    .filter(|&(i, lag)| i * interval_ps + lag <= end_ps)
                    .count();

                let s = serve_one_stream(sys, start, fps, frames);
                let cell = format!("{} @{start} {fps} FPS {seconds} s", sys.label());
                assert_eq!(s.frames_offered, frames, "{cell}");
                assert_eq!(s.max_queue_depth, fifo.max_queue_depth(), "{cell}");
                assert_eq!(s.final_cache_tokens, cache, "{cell}");
                assert_eq!(cache, start + frames * model.tokens_per_frame, "{cell}");
                assert_eq!(
                    s.mean_frame_lag_s.to_bits(),
                    fifo.mean_lag_s().to_bits(),
                    "{cell}"
                );
                assert_eq!(
                    s.max_frame_lag_s.to_bits(),
                    fifo.max_lag_s().to_bits(),
                    "{cell}"
                );
                assert!(
                    s.frame_lags_s
                        .iter()
                        .map(|l| l.to_bits())
                        .eq(fifo.lags().map(f64::to_bits)),
                    "{cell}"
                );
                assert_eq!(s.real_time, fifo.max_lag_ps() <= 2 * interval_ps, "{cell}");
                assert_eq!(
                    processed_by(&s, interval_ps, end_ps),
                    fifo_processed,
                    "{cell}"
                );
            }
        }
    }
}

#[test]
fn fifo_reference_matches_hand_computed_constant_service_case() {
    // 2 FPS camera (arrivals at 0.0, 0.5, 1.0, 1.5 s), constant
    // 0.8 s service, single FIFO server. By hand:
    //   completions: 0.8, 1.6, 2.4, 3.2
    //   lags:        0.8, 1.1, 1.4, 1.7  → mean 1.25, max 1.7
    //   depth at arrivals: 0, 1, 1, 2    → max queue 2
    //   completed by t=2.0: frames 0 and 1 → 2
    let s = vrex_hwsim::PS_PER_SECOND;
    let ledger = fifo_reference((0..4).map(|i| i * s / 2), |_| 8 * s / 10);
    assert_eq!(ledger.offered(), 4);
    assert_eq!(ledger.max_queue_depth(), 2);
    let lags: Vec<u64> = ledger.lags_ps().collect();
    assert_eq!(lags, [8, 11, 14, 17].map(|tenths| tenths * s / 10));
    let completed = (0u64..)
        .zip(&lags)
        .filter(|&(i, &lag)| i * s / 2 + lag <= 2 * s)
        .count();
    assert_eq!(completed, 2);
    assert!((ledger.mean_lag_s() - 1.25).abs() < 1e-12);
    assert!((ledger.max_lag_s() - 1.7).abs() < 1e-12);
}

#[test]
fn agx_flexgen_falls_behind_at_long_cache() {
    let sys = SystemModel::new(PlatformSpec::agx_orin(), Method::FlexGen);
    let s = serve_one_stream(&sys, 40_000, 2.0, 60);
    assert!(
        !s.real_time,
        "AGX+FlexGen cannot sustain 2 FPS at 40K: {s:?}"
    );
    assert!(s.max_queue_depth > 5, "queue should build: {s:?}");
    assert!(s.max_frame_lag_s > s.mean_frame_lag_s);
}

#[test]
fn lag_grows_monotonically_when_overloaded() {
    // Overloaded server: later frames lag more than earlier ones, and
    // not every frame of a 4 FPS, 10 s run completes within it.
    let sys = SystemModel::new(PlatformSpec::agx_orin(), Method::FlexGen);
    let s = serve_one_stream(&sys, 20_000, 4.0, 40);
    assert!(s.frame_lags_s.windows(2).all(|w| w[0] <= w[1]), "{s:?}");
    assert!(s.max_frame_lag_s >= s.mean_frame_lag_s);
    let interval_ps = seconds_to_ps(1.0 / 4.0);
    assert!(processed_by(&s, interval_ps, seconds_to_ps(10.0)) < s.frames_offered);
}

#[test]
#[should_panic(expected = "fps must be positive")]
fn rejects_zero_fps() {
    let sys = SystemModel::new(PlatformSpec::vrex8(), Method::ReSV);
    let _ = serve_one_stream(&sys, 0, 0.0, 1);
}

/// The pool path runs the same prologue before it routes anything.
#[test]
#[should_panic(expected = "fps must be positive")]
fn pool_rejects_zero_fps() {
    let pool = DevicePool::homogeneous(PlatformSpec::vrex8(), 2);
    let sys = SystemModel::new(PlatformSpec::vrex8(), Method::ReSV);
    let cfg = ServeConfig {
        fps: 0.0,
        ..ServeConfig::real_time(0)
    };
    let _ = Serve::new(&mut StepPriceCache::new(&sys, &llama()), &cfg).run_pool(
        &pool,
        PlacementPolicy::FirstFit,
        &mut SlicePlans::new(&fleet(2, 1, 0.0, 1)),
    );
}

/// At 1e-8 fps one frame interval saturates the ps clock, so the
/// real-time bar (two intervals) cannot be represented.
#[test]
#[should_panic(expected = "two frame intervals fit in u64 ps")]
fn rejects_fps_whose_real_time_bar_overflows() {
    let sys = SystemModel::new(PlatformSpec::vrex8(), Method::ReSV);
    let _ = serve_one_stream(&sys, 0, 1e-8, 1);
}

/// At 2e-7 fps the bar fits (1e19 ps), but four 5e18-ps frame
/// intervals run off the end of the u64 ps clock.
#[test]
#[should_panic(expected = "frame clock overflows u64 ps")]
fn rejects_frames_that_outlast_the_clock() {
    let sys = SystemModel::new(PlatformSpec::vrex8(), Method::ReSV);
    let _ = serve_one_stream(&sys, 0, 2e-7, 4);
}

#[test]
fn sessions_without_events_are_still_accounted() {
    // A zero-turn plan has no work at all; it must still show up
    // in the report (admitted and trivially done), preserving the
    // offered == admitted + rejected invariant.
    let sys = SystemModel::new(PlatformSpec::vrex8(), Method::ReSV);
    let r = serve(
        &sys,
        &llama(),
        &fleet(2, 0, 1.0, 5),
        &ServeConfig::real_time(1_000),
    );
    assert_eq!(r.offered, 2);
    assert_eq!(r.admitted + r.rejected, 2);
    assert_eq!(r.sessions.len(), 2);
    assert!(r.sessions.iter().all(|s| s.frames_offered == 0));
}

#[test]
fn empty_fleet_yields_empty_report() {
    let sys = SystemModel::new(PlatformSpec::vrex8(), Method::ReSV);
    let r = serve(&sys, &llama(), &[], &ServeConfig::real_time(1_000));
    assert_eq!(r.offered, 0);
    assert_eq!(r.admitted, 0);
    assert!(!r.sustained_real_time());
    assert_eq!(r.makespan_s, 0.0);
    assert!(r.tiering.is_none(), "reject-only runs carry no tiering");
}

/// The memory squeeze of `admission_control_rejects_when_memory_is_full`
/// under tiered admission: nobody is rejected, the overflow streams
/// are spilled instead, and the hierarchy accounting shows it.
#[test]
fn tiered_admission_spills_instead_of_rejecting() {
    let sys = SystemModel::new(PlatformSpec::agx_orin(), Method::VanillaInMemory);
    let reject_cfg = ServeConfig {
        max_wait_s: 0.0,
        ..ServeConfig::real_time(30_000)
    };
    let tier_cfg = ServeConfig {
        admission: AdmissionPolicy::tiered_speculative(),
        ..reject_cfg
    };
    let plans = fleet(6, 1, 3.0, 5);
    let rejecting = serve(&sys, &llama(), &plans, &reject_cfg);
    let tiered = serve(&sys, &llama(), &plans, &tier_cfg);
    assert!(
        rejecting.rejected >= 1,
        "baseline must reject: {rejecting:?}"
    );
    assert_eq!(tiered.rejected, 0, "tiering admits everyone: {tiered:?}");
    assert_eq!(tiered.admitted, 6);
    let t = tiered.tiering.expect("tiered run reports tiering");
    assert!(t.spilled_sessions >= 1, "someone was spilled: {t:?}");
    assert!(t.spilled_bytes > 0);
    assert!(t.tier_miss_steps > 0, "spilled streams pay misses: {t:?}");
    assert!(
        tiered.sessions.iter().any(|s| s.spilled),
        "per-session spill flags surface"
    );
    // Conservation: exposed + hidden is the total restore time.
    assert!(t.exposed_s >= 0.0 && t.hidden_s >= 0.0);
}

#[test]
fn tiered_admission_is_a_noop_when_everything_fits() {
    // A fleet far under the device budget must behave identically
    // under both admission policies (modulo the tiering report).
    let sys = SystemModel::new(PlatformSpec::vrex48(), Method::ReSV);
    let plans = fleet(4, 1, 6.0, 11);
    let model = llama();
    let reject = serve(&sys, &model, &plans, &ServeConfig::real_time(8_000));
    let tiered = serve(&sys, &model, &plans, &ServeConfig::real_time_tiered(8_000));
    let t = tiered.tiering.expect("tiering report present");
    assert_eq!(t.spilled_bytes, 0);
    assert_eq!(t.tier_miss_steps, 0);
    assert_eq!(t.exposed_s, 0.0);
    assert_eq!(reject.admitted, tiered.admitted);
    assert_eq!(reject.frame_lag_p99_s, tiered.frame_lag_p99_s);
    assert_eq!(reject.makespan_s, tiered.makespan_s);
}

#[test]
fn speculative_prefetch_beats_demand_fetch_under_pressure() {
    let sys = SystemModel::new(PlatformSpec::vrex48(), Method::VanillaInMemory);
    let cfg = |prefetch| ServeConfig {
        admission: AdmissionPolicy::Tiered { prefetch },
        ..ServeConfig::real_time(30_000)
    };
    let plans = fleet(20, 1, 10.0, 7);
    let model = llama();
    let demand = serve(&sys, &model, &plans, &cfg(PrefetchMode::Demand));
    let spec = serve(
        &sys,
        &model,
        &plans,
        &cfg(PrefetchMode::Speculative { accuracy: 0.9 }),
    );
    let td = demand.tiering.unwrap();
    let ts = spec.tiering.unwrap();
    assert!(td.tier_miss_steps > 0, "pressure must cause misses: {td:?}");
    assert_eq!(td.hidden_s, 0.0, "demand fetch hides nothing");
    assert!(ts.hidden_s > 0.0, "speculation hides transfer time");
    assert!(
        ts.exposed_s < td.exposed_s,
        "prefetch must cut exposed restore time: {} vs {}",
        ts.exposed_s,
        td.exposed_s
    );
    assert!(
        spec.frame_lag_p99_s <= demand.frame_lag_p99_s,
        "hidden restores cannot worsen lag: {} vs {}",
        spec.frame_lag_p99_s,
        demand.frame_lag_p99_s
    );
}

/// Regression (PR 3): this exact fleet livelocked when the idle
/// branch advanced `now` to the float `arrival + max_wait` while
/// the timeout tested `now - arrival >= max_wait`, which rounds
/// differently. On the event core both sides are the same integer,
/// so the fleet must terminate with its out-waited sessions
/// rejected.
#[test]
fn out_waited_sessions_reject_despite_float_imprecise_deadlines() {
    let sys = SystemModel::new(headline_platform(), Method::ReSV);
    let r = serve(
        &sys,
        &llama(),
        &fleet(16, 2, 10.0, 42),
        &ServeConfig::real_time(16_000),
    );
    assert_eq!(r.admitted + r.rejected, 16);
    assert!(r.rejected >= 1, "memory squeeze must reject: {r:?}");
}

/// Integer-boundary variant of the livelock regression: arrivals at
/// picosecond-odd instants (no clean float-second representation)
/// still reject exactly at `arrival + max_wait` when the box never
/// frees up — the deadline comparison is exact, so the recorded
/// wait equals the patience to the picosecond.
#[test]
fn timeout_boundaries_are_exact_integer_comparisons() {
    let sys = SystemModel::new(PlatformSpec::agx_orin(), Method::VanillaInMemory);
    let cfg = ServeConfig::real_time(70_000);
    // One long session pins more than half the device KV budget
    // (70K tokens ≈ 8.9 GiB of ~15.9 GiB) for far longer than the
    // waiter's patience; the second session arrives at an awkward
    // ps instant, cannot co-reside, and must time out.
    let mut plans = fleet(1, 8, 0.0, 5);
    plans.push(SessionPlan {
        id: 99,
        arrival_ps: 1_000_000_000_001, // ~1.000000000001 s
        events: plans[0].events.clone(),
    });
    let r = serve(&sys, &llama(), &plans, &cfg);
    let rejected: Vec<_> = r
        .sessions
        .iter()
        .filter(|s| s.outcome == SessionOutcome::Rejected)
        .collect();
    assert!(!rejected.is_empty(), "the waiter must time out: {r:?}");
    for s in rejected {
        // Exact integer deadline: waited is never below patience,
        // and when the rejection lands on the patience wake-up
        // (idle box) it equals it exactly.
        assert!(
            s.waited_s >= cfg.max_wait_s,
            "waited {} below patience",
            s.waited_s
        );
    }
}

#[test]
fn trace_is_strictly_monotone_and_total() {
    let sys = SystemModel::new(PlatformSpec::vrex48(), Method::ReSV);
    let plans = fleet(6, 2, 8.0, 17);
    let (r, trace) = serve_traced(&sys, &llama(), &plans, &ServeConfig::real_time(8_000));
    assert_eq!(r.sessions.len(), plans.len());
    assert!(!trace.is_empty());
    for w in trace.windows(2) {
        assert!(
            w[0].ps < w[1].ps,
            "simulated time must strictly advance: {w:?}"
        );
    }
    assert!(trace.iter().any(|e| e.kind == TraceKind::StepComplete));
    assert!(trace.iter().any(|e| e.kind == TraceKind::Arrival));
}

#[test]
fn tiered_rejects_only_when_the_whole_hierarchy_is_full() {
    // Shrink every tier so one 30K-token stream (≈3.7 GiB) cannot
    // fit anywhere: tiered admission must still reject it.
    let mut platform = PlatformSpec::agx_orin();
    platform.mem_capacity = 18u64 << 30; // ~1.4 GiB KV budget
    if let Some(ssd) = platform.storage.as_mut() {
        ssd.capacity_bytes = 1 << 30;
    }
    let sys = SystemModel::new(platform, Method::VanillaInMemory);
    let cfg = ServeConfig {
        max_wait_s: 0.0,
        admission: AdmissionPolicy::tiered_speculative(),
        ..ServeConfig::real_time(30_000)
    };
    let r = serve(&sys, &llama(), &fleet(2, 1, 3.0, 5), &cfg);
    assert_eq!(r.admitted, 0, "nothing fits the whole hierarchy: {r:?}");
    assert_eq!(r.rejected, 2);
}

/// FNV-1a over (ps, kind) pairs — the golden-trace fingerprint, shared
/// with the placement tests so cross-suite fingerprints compare.
pub(crate) fn trace_fingerprint(trace: &[TraceEvent]) -> (usize, u64) {
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

/// With `overlap = off`, the serve trace is event-for-event
/// identical to the pre-resource-timeline scheduler: these
/// fingerprints were captured from the scheduler as it stood
/// before this refactor (batch-level blocking, fleet rescan per
/// instant). Any drift in event times, counts, or order — from the
/// incremental ready set, the memoized restore pricing, or the
/// shared batch-effects path — fails here.
#[test]
fn serialized_trace_matches_pre_refactor_golden_fingerprints() {
    struct Golden {
        platform: PlatformSpec,
        method: Method,
        sessions: usize,
        turns: usize,
        spread: f64,
        seed: u64,
        tiered: bool,
        len: usize,
        hash: u64,
    }
    let model = llama();
    let cases = [
        Golden {
            platform: PlatformSpec::vrex48(),
            method: Method::ReSV,
            sessions: 6,
            turns: 2,
            spread: 8.0,
            seed: 17,
            tiered: false,
            len: 1042,
            hash: 0x4fea_d60c_14d8_9be1,
        },
        Golden {
            platform: PlatformSpec::agx_orin(),
            method: Method::VanillaInMemory,
            sessions: 6,
            turns: 1,
            spread: 3.0,
            seed: 5,
            tiered: true,
            len: 150,
            hash: 0xc84f_bfd3_943e_f050,
        },
        Golden {
            platform: PlatformSpec::vrex8(),
            method: Method::FlexGen,
            sessions: 4,
            turns: 2,
            spread: 6.0,
            seed: 29,
            tiered: true,
            len: 258,
            hash: 0x2e56_3da3_46d6_5524,
        },
    ];
    for c in &cases {
        let plans = fleet(c.sessions, c.turns, c.spread, c.seed);
        let sys = SystemModel::new(c.platform.clone(), c.method);
        let cfg = if c.tiered {
            ServeConfig::real_time_tiered(30_000)
        } else {
            ServeConfig::real_time(8_000)
        };
        let (_, trace) = serve_traced(&sys, &model, &plans, &cfg);
        assert_eq!(
            trace_fingerprint(&trace),
            (c.len, c.hash),
            "{} + {:?}: serialized trace drifted from the pre-refactor scheduler",
            c.platform.name,
            c.method,
        );
    }
}

/// The resource-timeline counterpart of the serialized goldens: three
/// overlapped serves that spill and restore, pinned by trace
/// fingerprint and by the two report fields the link reservations
/// decide (`exposed_s`, `restored_bytes`).
/// Captured from the driver whose engine kept every interval it ever
/// reserved and mirrored each restore and migration onto `host-dram` /
/// `ssd` channels; forgetting history behind the causal watermark and
/// dropping those write-only channels must leave every value in place.
/// Each case grows its timeline past the forget threshold, so each
/// forgets history at least once.
#[test]
fn overlapped_trace_matches_golden_fingerprints() {
    struct Golden {
        name: &'static str,
        sys: SystemModel,
        plans: Vec<SessionPlan>,
        cfg: ServeConfig,
        len: usize,
        hash: u64,
        exposed_s: f64,
        restored_bytes: u64,
    }
    let cases = [
        Golden {
            name: "cluster prefetch, headline device",
            sys: SystemModel::new(headline_platform(), Method::ReSV),
            plans: fleet(12, 2, 10.0, 42),
            cfg: ServeConfig {
                admission: AdmissionPolicy::tiered_cluster(),
                ..ServeConfig::real_time(32_000)
            },
            len: 2202,
            hash: 0x2f78_bb9e_8ca2_4a51,
            exposed_s: 0.063312419881,
            restored_bytes: 72_512_733_984,
        },
        Golden {
            name: "speculative, V-Rex48",
            sys: SystemModel::new(PlatformSpec::vrex48(), Method::VanillaInMemory),
            plans: fleet(20, 1, 10.0, 7),
            cfg: ServeConfig::real_time_tiered(30_000),
            len: 1625,
            hash: 0xca1f_dfb3_ed5a_57b9,
            exposed_s: 0.096422299607,
            restored_bytes: 3_780_132_864,
        },
        Golden {
            name: "demand, AGX Orin",
            sys: SystemModel::new(PlatformSpec::agx_orin(), Method::VanillaInMemory),
            plans: fleet(6, 1, 3.0, 5),
            cfg: ServeConfig {
                admission: AdmissionPolicy::tiered_demand(),
                ..ServeConfig::real_time(30_000)
            },
            len: 205,
            hash: 0xa102_0dd4_a857_c145,
            exposed_s: 71.09772342466,
            restored_bytes: 292_870_668_288,
        },
    ];
    let model = llama();
    let mut drift = Vec::new();
    for c in &cases {
        let cfg = ServeConfig {
            overlap: true,
            ..c.cfg
        };
        let (r, trace) = serve_traced(&c.sys, &model, &c.plans, &cfg);
        let t = r.tiering.expect("tiered run reports tiering");
        assert!(
            t.spilled_bytes > 0 && t.restored_bytes > 0,
            "{}: the case must spill and restore: {t:?}",
            c.name
        );
        let (len, hash) = trace_fingerprint(&trace);
        assert!(
            r.counters.timeline_peak >= drivers::FORGET_MIN_HELD,
            "{}: the case must forget history at least once",
            c.name
        );
        if (len, hash, t.exposed_s, t.restored_bytes)
            != (c.len, c.hash, c.exposed_s, c.restored_bytes)
        {
            drift.push(format!(
                "{}: len {len}, hash {hash:#018x}, exposed_s {:?}, restored_bytes {}",
                c.name, t.exposed_s, t.restored_bytes
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "overlapped serves drifted from the golden fingerprints:\n{}",
        drift.join("\n")
    );
}

/// The overlapped driver's timeline holds the live work, not the run's
/// history: an evenly staggered cluster-tiered fleet on the headline
/// device (the repo benchmark's `fleet_overlap` shape, 0.8 sessions/s)
/// keeps the same concurrency at any length, so four times the sessions
/// must not double the peak held intervals. The serialized driver never
/// reserves on the timeline.
#[test]
fn overlapped_timeline_peak_stays_flat_as_the_fleet_grows() {
    let sys = SystemModel::new(headline_platform(), Method::ReSV);
    let model = llama();
    let cfg = ServeConfig {
        admission: AdmissionPolicy::tiered_cluster(),
        ..ServeConfig::real_time(32_000)
    };
    let serve_fleet = |sessions: usize, overlap: bool| {
        let plans = fleet(sessions, 1, sessions as f64 / 0.8, 11);
        serve(&sys, &model, &plans, &ServeConfig { overlap, ..cfg }).counters
    };
    let (small, big) = (serve_fleet(150, true), serve_fleet(600, true));
    assert!(
        big.timeline_peak <= 2 * small.timeline_peak,
        "timeline grew with fleet size: {} held at 600 sessions vs {} at 150",
        big.timeline_peak,
        small.timeline_peak
    );
    // Kept history would hold at least one compute interval per batch.
    assert!(big.batches_formed > 4 * big.timeline_peak as u64, "{big:?}");
    assert_eq!(serve_fleet(20, false).timeline_peak, 0);
}

/// Hand-computed PCIe contention oracle: two streams share one
/// link. Stream A's restore holds the link; stream B's fetch,
/// wanting to start mid-restore, is delayed by exactly the time the
/// link needs to drain A's remaining bytes at link bandwidth —
/// the same earliest-fit reservation discipline `launch_batch`
/// uses on the serving path's `pcie` resource.
#[test]
fn link_contention_delays_fetch_by_exactly_the_overlapping_bytes() {
    use vrex_hwsim::dram::DramConfig;
    use vrex_hwsim::pcie::PcieConfig;
    use vrex_hwsim::tier::TierPath;

    let path = TierPath {
        pcie: PcieConfig::gen4_x16(),
        host_dram: Some(DramConfig::ddr4_cpu()),
        ssd: None,
    };
    // Stream A restores 1 MiB from host DRAM in 256 KiB chunks on
    // PCIe 4.0 ×16 (32 GB/s raw, 256 B max payload, 24 B TLP
    // overhead, 0.4 µs per DMA descriptor). By hand:
    //   chunks = 4;  TLPs = 1 MiB/256 + 4 = 4096 + 4 = 4100
    //   wire bytes = 1 MiB + 4100·24 = 1_048_576 + 98_400 = 1_146_976
    //   wire ps    = 1_146_976 / 32e9 · 1e12 = 35_843_000
    //   restore    = 35_843_000 + 4·400_000 = 37_443_000 ps
    // (DDR4 at ~102 GB/s outruns the link, so the pipelined
    // migration equals the PCIe leg.)
    let bytes: u64 = 1 << 20;
    let chunk: u64 = 256 << 10;
    let tlps = bytes / 256 + 4;
    let wire_bytes = bytes + tlps * 24;
    let restore_ps = seconds_to_ps(wire_bytes as f64 / 32.0e9) + 4 * 400_000;
    assert_eq!(
        path.migrate_ps(MemTier::Host, MemTier::Device, bytes, chunk),
        restore_ps
    );

    let mut e = Engine::new();
    let pcie = e.add_resource("pcie");
    // Stream A's restore claims the link from t = 0.
    let a = e.reserve_after(pcie, 0, restore_ps, "restore:A", bytes);
    assert_eq!(e.start_of(a), 0);
    assert_eq!(e.end_of(a), restore_ps);
    // Stream B's fetch wants the link at t₁ = 10_000_000 ps, while
    // A still holds it. Earliest fit pushes B to A's end: the
    // delay is exactly restore_ps − t₁ — the time the link needs
    // for A's remaining (restore_ps − t₁)·BW_link bytes.
    let t1: u64 = 10_000_000;
    assert!(t1 < restore_ps, "B must arrive mid-restore");
    let b = e.schedule_after(pcie, t1, 5_000_000, &[], "fetch:B", 512 << 10);
    assert_eq!(e.start_of(b), restore_ps);
    assert_eq!(e.start_of(b) - t1, restore_ps - t1); // = 27_443_000 ps
    assert_eq!(restore_ps - t1, 27_443_000);
    // No third party involved: the intervals tile the link exactly.
    assert_eq!(e.busy_time(pcie), restore_ps + 5_000_000);
}

/// A single uncontended stream executes identically under both
/// models: no link contention, no co-batched restores, so every
/// batch completes at `start + latency` either way.
#[test]
fn single_stream_overlap_equals_serialized() {
    let sys = SystemModel::new(PlatformSpec::vrex8(), Method::ReSV);
    let model = llama();
    let plans = fleet(1, 2, 0.0, 3);
    let cfg = ServeConfig::real_time(1_000);
    let serial = serve(&sys, &model, &plans, &cfg);
    let overlap = serve(
        &sys,
        &model,
        &plans,
        &ServeConfig {
            overlap: true,
            ..cfg
        },
    );
    assert_eq!(serial, overlap);
}

/// Overlapped execution conserves sessions and work exactly like
/// serialized execution, under pressure and tiering.
#[test]
fn overlap_conserves_sessions_and_work() {
    let sys = SystemModel::new(PlatformSpec::agx_orin(), Method::VanillaInMemory);
    let model = llama();
    let plans = fleet(6, 1, 3.0, 5);
    let cfg = ServeConfig {
        admission: AdmissionPolicy::tiered_speculative(),
        overlap: true,
        ..ServeConfig::real_time(30_000)
    };
    let r = serve(&sys, &model, &plans, &cfg);
    assert_eq!(r.admitted + r.rejected, r.offered);
    assert_eq!(r.sessions.len(), plans.len());
    for s in r
        .sessions
        .iter()
        .filter(|s| s.outcome != SessionOutcome::Rejected)
    {
        let plan = plans.iter().find(|p| p.id == s.id).unwrap();
        assert_eq!(s.frames_offered, plan.total_frames());
        assert_eq!(
            s.final_cache_tokens,
            cfg.initial_cache_tokens + plan.total_cache_growth_tokens(model.tokens_per_frame)
        );
    }
    // Determinism.
    assert_eq!(r, serve(&sys, &model, &plans, &cfg));
    // The hierarchy accounting still balances.
    let t = r.tiering.expect("tiered run reports tiering");
    assert!(t.spilled_bytes > 0, "squeeze must spill: {t:?}");
    assert!(t.exposed_s >= 0.0 && t.hidden_s >= 0.0);
}

/// Under the resource timeline the trace is weakly monotone (two
/// batches may complete at one instant) and still covers every
/// transition kind.
#[test]
fn overlap_trace_is_weakly_monotone_and_total() {
    let sys = SystemModel::new(PlatformSpec::vrex48(), Method::ReSV);
    let plans = fleet(6, 2, 8.0, 17);
    let cfg = ServeConfig {
        overlap: true,
        ..ServeConfig::real_time(8_000)
    };
    let (r, trace) = serve_traced(&sys, &llama(), &plans, &cfg);
    assert_eq!(r.sessions.len(), plans.len());
    assert!(!trace.is_empty());
    for w in trace.windows(2) {
        assert!(
            w[0].ps <= w[1].ps,
            "simulated time must never rewind: {w:?}"
        );
    }
    assert!(trace.iter().any(|e| e.kind == TraceKind::StepComplete));
    assert!(trace.iter().any(|e| e.kind == TraceKind::Arrival));
}

/// A decode-heavy fleet — answers eight times the usual length, one
/// single-token answer, 2 FPS cameras — under reject-only and tiered
/// admission on both drivers. Most batch members are decodes whose
/// next token is ready at the batch's completion, so they stay filed
/// under the same ready-set key while frames and questions move in and
/// out of the sets (and, overlapped, in and out of flight); debug
/// builds check the sets against the full rescan on every pass. Every
/// admitted session must still complete exactly its plan's samples.
#[test]
fn decode_heavy_fleet_keeps_ready_sets_and_samples_exact() {
    let model = llama();
    let mut plans = fleet(8, 2, 4.0, 31);
    for e in plans.iter_mut().flat_map(|p| p.events.iter_mut()) {
        if let SessionEvent::Answer { tokens } = e {
            *tokens *= 8;
        }
    }
    if let Some(SessionEvent::Answer { tokens }) = plans[0]
        .events
        .iter_mut()
        .find(|e| matches!(e, SessionEvent::Answer { .. }))
    {
        *tokens = 1;
    }
    let cases = [
        (
            SystemModel::new(PlatformSpec::vrex48(), Method::ReSV),
            ServeConfig::real_time(8_000),
        ),
        (
            SystemModel::new(PlatformSpec::agx_orin(), Method::VanillaInMemory),
            ServeConfig::real_time_tiered(30_000),
        ),
    ];
    for (sys, cfg) in &cases {
        for overlap in [false, true] {
            let cfg = ServeConfig { overlap, ..*cfg };
            let r = serve(sys, &model, &plans, &cfg);
            assert_eq!(r, serve(sys, &model, &plans, &cfg), "deterministic");
            assert_eq!(r.admitted + r.rejected, r.offered);
            assert!(r.admitted > 0, "{:?}: someone is served", cfg.admission);
            for s in r
                .sessions
                .iter()
                .filter(|s| s.outcome != SessionOutcome::Rejected)
            {
                let plan = plans.iter().find(|p| p.id == s.id).unwrap();
                let answers: Vec<usize> = plan
                    .events
                    .iter()
                    .filter_map(|e| match e {
                        SessionEvent::Answer { tokens } => Some(*tokens),
                        _ => None,
                    })
                    .collect();
                assert_eq!(s.frames_offered, plan.total_frames());
                assert_eq!(s.frame_lags_s.len(), plan.total_frames());
                assert_eq!(s.ttft_s.len(), answers.len());
                assert_eq!(s.tpot_s.len(), answers.iter().map(|t| t - 1).sum::<usize>());
                assert_eq!(
                    s.final_cache_tokens,
                    cfg.initial_cache_tokens
                        + plan.total_cache_growth_tokens(model.tokens_per_frame)
                );
            }
            if let Some(t) = r.tiering {
                assert!(t.tier_miss_steps > 0, "the squeeze must spill: {t:?}");
            }
            if overlap {
                assert!(r.counters.step_complete_events > 0);
            }
        }
    }
}

/// Overlapped tiering keeps the spill-instead-of-reject guarantee.
#[test]
fn overlap_tiered_admission_spills_instead_of_rejecting() {
    let sys = SystemModel::new(PlatformSpec::agx_orin(), Method::VanillaInMemory);
    let base = ServeConfig {
        max_wait_s: 0.0,
        overlap: true,
        ..ServeConfig::real_time(30_000)
    };
    let tier_cfg = ServeConfig {
        admission: AdmissionPolicy::tiered_speculative(),
        ..base
    };
    let plans = fleet(6, 1, 3.0, 5);
    let rejecting = serve(&sys, &llama(), &plans, &base);
    let tiered = serve(&sys, &llama(), &plans, &tier_cfg);
    assert!(rejecting.rejected >= 1, "baseline must reject");
    assert_eq!(tiered.rejected, 0, "tiering admits everyone: {tiered:?}");
    let t = tiered.tiering.expect("tiering report");
    assert!(t.spilled_sessions >= 1);
    assert!(t.tier_miss_steps > 0);
}
