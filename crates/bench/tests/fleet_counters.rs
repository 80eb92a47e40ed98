//! Event-loop counter gates over open-loop streamed fleets — the two
//! deterministic facts about [`vrex_system::ServeCounters`] that the
//! repo benchmark (`BENCHMARK.json`, which owns every host-time
//! number) does not check.
//!
//! * **Worker-count determinism.** Each grid point runs wholly inside
//!   one worker closure with its own plan stream and price cache, so
//!   every counter is a function of the unit alone: the grid driven
//!   through [`par_map_with_workers`] at one worker and at several
//!   contended counts must give bit-equal reports *and* counters.
//! * **Working-set flatness.** The open-loop steady state is
//!   O(λ · patience), so the queue/active/pending peaks must not grow
//!   with the fleet: a peak that scales with fleet size means
//!   admission state has silently become O(fleet).

use vrex_bench::par::par_map_with_workers;
use vrex_model::ModelConfig;
use vrex_system::{
    serve_stream, Method, PlatformSpec, ServeConfig, ServeReport, StepPriceCache, SystemModel,
};
use vrex_workload::traffic::OpenLoopConfig;

/// One grid point: fleet size × admission.
struct Unit {
    sessions: usize,
    tiered: bool,
    seed: u64,
}

fn grid() -> Vec<Unit> {
    let mut units = Vec::new();
    for &sessions in &[50usize, 200] {
        for &tiered in &[false, true] {
            units.push(Unit {
                sessions,
                tiered,
                seed: 11,
            });
        }
    }
    units
}

/// One open-loop streamed serve (V-Rex48 + ReSV, λ = 1.2/s, 32K
/// initial cache) over a fresh price cache.
fn measure(u: &Unit) -> ServeReport {
    let model = ModelConfig::llama3_8b();
    let sys = SystemModel::new(PlatformSpec::vrex48(), Method::ReSV);
    let cfg = if u.tiered {
        ServeConfig::real_time_tiered(32_000)
    } else {
        ServeConfig::real_time(32_000)
    };
    let mut source = OpenLoopConfig {
        sessions: u.sessions,
        arrival_rate_per_s: 1.2,
        turns: 1,
        seed: u.seed,
    }
    .stream();
    let mut prices = StepPriceCache::new(&sys, &model);
    serve_stream(&mut prices, &mut source, &cfg)
}

#[test]
fn fleet_counters_are_invariant_to_worker_count() {
    let units = grid();
    let sequential = par_map_with_workers(&units, 1, measure);
    for n_workers in [2, 4, units.len() * 2] {
        let contended = par_map_with_workers(&units, n_workers, measure);
        assert_eq!(sequential.len(), contended.len());
        for (u, (a, b)) in units.iter().zip(sequential.iter().zip(&contended)) {
            let label = format!(
                "{} sessions, {}, {} workers",
                u.sessions,
                if u.tiered { "tiered" } else { "reject" },
                n_workers
            );
            assert_eq!(a, b, "report drifted: {label}");
            assert_eq!(a.counters, b.counters, "counters drifted: {label}");
        }
    }
}

#[test]
fn working_set_stays_flat_as_the_fleet_grows() {
    let counters = |sessions| {
        measure(&Unit {
            sessions,
            tiered: false,
            seed: 11,
        })
        .counters
    };
    // Recorded: 42/64/13 at 10³ vs 46/64/19 at 10⁴; 2× headroom
    // covers the start-up transient.
    let (small, big) = (counters(1_000), counters(10_000));
    for (label, s, b) in [
        ("queue_peak", small.queue_peak, big.queue_peak),
        ("active_peak", small.active_peak, big.active_peak),
        ("pending_peak", small.pending_peak, big.pending_peak),
    ] {
        assert!(
            b <= 2 * s,
            "working set grew with fleet size: {label} is {b} at 10000 sessions vs {s} at 1000"
        );
    }
}
