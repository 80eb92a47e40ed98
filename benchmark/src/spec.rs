//! What the benchmark measures: workloads, end-to-end metrics and
//! per-layer metrics, by name. `BENCHMARK.json` at the repo root is
//! this table rendered ([`benchmark_json`]); a unit test keeps the two
//! from drifting.
//!
//! Clocks: `host` numbers say what the simulator costs to run, `sim`
//! numbers what the modelled V-Rex hardware would take. Sim numbers
//! are deterministic and compared exactly. The model is unvalidated
//! against measured hardware, so no error figure is reported.

use crate::json::{obj, Value};

/// How long one run measures (the `--seconds` the driver passes).
pub const RUN_SECONDS: u64 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}
use Better::{Higher, Lower};

#[derive(Debug)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "fleet_reject",
        why: "10^6 reject-only sessions streamed through one serve: the event loop, queue and price-cache hit path do all the work; where the throughput sag and the O(fleet) RSS appear",
    },
    WorkloadSpec {
        name: "fleet_cluster",
        why: "1500 evenly staggered sessions under cluster-granular tiering, serialized: every batch plans cluster restores, so the tier manager and cluster prefetch dominate; queue and pricing are noise",
    },
    WorkloadSpec {
        name: "fleet_overlap",
        why: "fleet_cluster's inputs on the overlapped driver (600 sessions): restores become engine link reservations, two batches in flight; isolates hwsim.engine and run_overlapped, today quadratic",
    },
    WorkloadSpec {
        name: "capacity_sweep",
        why: "tier_capacity's grid as 420 short serves over cold per-unit price caches: one price lookup in six misses, so closed-form pricing, plan generation and report aggregation matter",
    },
    WorkloadSpec {
        name: "pool_migrate",
        why: "10^5 sessions routed across 4 devices under Migrate: the placement pass, fabric migrations and the parallel fan-out; per-device serves are only a quarter of the wall time",
    },
    WorkloadSpec {
        name: "resv_stream",
        why: "3 streams of 200 real frames through the small transformer with ReSV: the numeric layer (tensor/model/core), hash-cluster inserts beside WiCSum selection; system and hwsim do nothing",
    },
];

#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Every end-to-end metric is host-clock and reported by every
/// workload with tracing off.
pub const END_TO_END: [EndToEnd; 5] = [
    // Everything before the timed region: plan materialisation,
    // weights, device/pool/cache construction. Set up several times a
    // run; the median.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    // Items per host second of the timed region, median over
    // repetitions. Item = offered session (fleets, pool), serve call
    // (sweep), frame (resv).
    EndToEnd {
        name: "items_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.20,
    },
    // Host ms per call the benchmark itself makes (a whole fleet
    // serve; one of the sweep's 420 serves; one frame), per
    // repetition, median over repetitions.
    EndToEnd {
        name: "call_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.20,
    },
    // The same calls at the highest percentile up to 95 that leaves
    // ten samples beyond it (p95 at 600 frames and 420 serves; the
    // median where a repetition is a single call).
    EndToEnd {
        name: "call_ms_p95",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    // VmHWM of the one process that runs the workload.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.20,
    },
];

#[derive(Debug)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// Per-layer metrics, from the traced pass. A workload a metric does
/// not apply to reports 0 for it. The README says which end-to-end
/// metric each should move, on which workload.
pub const PER_LAYER: [Layer; 91] = [
    // Simulated outputs (sim clock; exact). A change meant only to
    // speed the simulator up must leave every one bit-identical.
    layer("sim_rt_share", "share", Higher),
    layer("sim_lag_p99_s", "s", Lower),
    layer("sim_ttft_p99_s", "s", Lower),
    layer("sim_exposed_s", "s", Lower),
    layer("sim_restored_gib", "GiB", Lower),
    layer("sim_capacity_streams", "count", Higher),
    layer("resv_recall", "share", Higher),
    layer("resv_ratio", "ratio", Lower),
    // workload: plan generation behind the PlanSource seam.
    layer("workload.next_plan.calls", "count", Lower),
    layer("workload.next_plan.busy_s", "s", Lower),
    layer("workload.next_plan.share", "share", Lower),
    // system.serve: the event loop, from ServeCounters and pull times.
    layer("system.serve.events", "count", Lower),
    layer("system.serve.batches", "count", Lower),
    layer("system.serve.batch_members", "count", Lower),
    layer("system.serve.admission_passes", "count", Lower),
    layer("system.serve.admission_checks", "count", Lower),
    layer("system.serve.queue_peak", "count", Lower),
    layer("system.serve.active_peak", "count", Lower),
    layer("system.serve.pending_peak", "count", Lower),
    layer("system.serve.ns_per_event", "ns", Lower),
    layer("system.serve.ns_per_batch", "ns", Lower),
    layer("system.serve.pull_gap_ms_p50", "ms", Lower),
    layer("system.serve.pull_gap_ms_p99", "ms", Lower),
    layer("system.serve.late_half_ratio", "ratio", Lower),
    layer("system.serve.self_share", "share", Lower),
    // system.eventq: hold-model probes at steady and flash-crowd
    // occupancy.
    layer("system.eventq.heap_ns_per_op.occ48", "ns", Lower),
    layer("system.eventq.wheel_ns_per_op.occ48", "ns", Lower),
    layer("system.eventq.heap_ns_per_op.occ20k", "ns", Lower),
    layer("system.eventq.wheel_ns_per_op.occ20k", "ns", Lower),
    layer("system.eventq.est_share", "share", Lower),
    // system.pricing: the step-price cache.
    layer("system.pricing.hits", "count", Higher),
    layer("system.pricing.misses", "count", Lower),
    layer("system.pricing.hit_ratio", "ratio", Higher),
    layer("system.pricing.shapes", "count", Lower),
    layer("system.pricing.hit_ns", "ns", Lower),
    layer("system.pricing.miss_ns", "ns", Lower),
    layer("system.pricing.est_share", "share", Lower),
    // The closed forms under a price miss.
    layer("system.pipeline.layer_costs_ns", "ns", Lower),
    layer("hwsim.dram.stream_read_ns", "ns", Lower),
    layer("hwsim.ssd.scattered_read_ns", "ns", Lower),
    layer("hwsim.pcie.transfer_ns", "ns", Lower),
    layer("hwsim.tier.migrate_ns", "ns", Lower),
    // system.memory: the tiered KV manager.
    layer("system.memory.hit_steps", "count", Higher),
    layer("system.memory.miss_steps", "count", Lower),
    layer("system.memory.spilled_sessions", "count", Lower),
    layer("system.memory.restored_gib", "GiB", Lower),
    layer("system.memory.plan_restore_ns", "ns", Lower),
    layer("system.memory.step_restore_ns", "ns", Lower),
    layer("system.memory.admit_release_ns", "ns", Lower),
    layer("system.memory.est_share", "share", Lower),
    // retrieval.prefetch: cluster-granular speculation.
    layer("retrieval.prefetch.cluster_plan_ns", "ns", Lower),
    layer("retrieval.prefetch.spec_clusters", "count", Higher),
    layer("retrieval.prefetch.demand_clusters", "count", Lower),
    layer("retrieval.prefetch.mispredict_ratio", "ratio", Lower),
    // hwsim.engine: one link operation on a timeline already holding
    // 10^3 / 10^4 intervals.
    layer("hwsim.engine.reserve_ns.t1e3", "ns", Lower),
    layer("hwsim.engine.reserve_ns.t1e4", "ns", Lower),
    layer("hwsim.engine.append_ns.t1e3", "ns", Lower),
    layer("hwsim.engine.append_ns.t1e4", "ns", Lower),
    layer("hwsim.engine.growth_ratio", "ratio", Lower),
    // system.placement / core.par: routing and the parallel fan-out.
    layer("system.placement.route_s", "s", Lower),
    layer("system.placement.route_share", "share", Lower),
    layer("system.placement.ns_per_session", "ns", Lower),
    layer("system.placement.migrations", "count", Lower),
    layer("system.placement.migrated_gib", "GiB", Lower),
    layer("system.placement.fabric_busy_s", "s", Lower),
    layer("core.par.workers", "count", Higher),
    layer("core.par.speedup", "ratio", Higher),
    // The numeric layer: spans around the model and the policy seam.
    layer("model.process_frame.busy_s", "s", Lower),
    layer("model.self_share", "share", Lower),
    layer("model.frame_ms_slope", "ms/ktoken", Lower),
    layer("core.resv.select.calls", "count", Lower),
    layer("core.resv.select.busy_s", "s", Lower),
    layer("core.resv.select.share", "share", Lower),
    layer("core.resv.append.calls", "count", Lower),
    layer("core.resv.append.busy_s", "s", Lower),
    layer("core.resv.append.share", "share", Lower),
    layer("core.resv.visited_fraction", "ratio", Lower),
    layer("core.resv.tokens_per_cluster", "tokens", Higher),
    // Kernel probes at the five criterion benches' shapes.
    layer("tensor.matmul_ns", "ns", Lower),
    layer("tensor.topk_ns.4096", "ns", Lower),
    layer("model.attention_full_ns.2048", "ns", Lower),
    layer("model.attention_light_ns.2048", "ns", Lower),
    layer("core.hashbit.hash_rows_ns.256", "ns", Lower),
    layer("core.hctable.insert_ns", "ns", Lower),
    layer("core.wicsum.full_sort_ns.4096", "ns", Lower),
    layer("core.earlyexit.select_ns.4096", "ns", Lower),
    layer("core.resv.select_ns.2048", "ns", Lower),
    layer("retrieval.rekv.select_ns.2048", "ns", Lower),
    layer("retrieval.infinigenp.select_ns.2048", "ns", Lower),
    // The trace itself.
    layer("trace.overhead_share", "share", Lower),
    layer("trace.root_cover_share", "share", Higher),
];

/// The per-layer metrics that are simulated outputs: reported by both
/// passes' checkers and pinned in `expected.json`.
pub fn is_sim(name: &str) -> bool {
    name.starts_with("sim_") || name.starts_with("resv_")
}

/// `BENCHMARK.json`, rendered from the tables above. `command` is what
/// the driver runs from the root of a checkout.
pub fn benchmark_json() -> Value {
    let strs = |xs: &[&str]| Value::Arr(xs.iter().map(|s| Value::Str((*s).into())).collect());
    obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--quiet",
                "--release",
                "--offline",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        obj([
                            ("name", Value::Str(w.name.into())),
                            ("why", Value::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| metric_json(m.name, m.unit, m.better, Some(m.bound)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| metric_json(m.name, m.unit, m.better, None))
                    .collect(),
            ),
        ),
    ])
}

fn metric_json(name: &str, unit: &str, better: Better, bound: Option<f64>) -> Value {
    let mut members = vec![
        ("name", Value::Str(name.into())),
        ("unit", Value::Str(unit.into())),
        ("better", Value::Str(better.label().into())),
    ];
    members.extend(bound.map(|b| ("bound", Value::Num(b))));
    obj(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for n in &names {
            assert!(is_name(n), "bad name {n:?}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
    }

    #[test]
    fn every_end_to_end_metric_has_a_unit_a_direction_and_a_bound() {
        for m in &END_TO_END {
            assert!(is_unit(m.unit), "{}: bad unit {:?}", m.name, m.unit);
            assert!(matches!(m.better, Higher | Lower));
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{}: bound {}",
                m.name,
                m.bound
            );
        }
        // The contract: set-up time is an end-to-end metric, in
        // seconds, lower is better, and carries the largest bound.
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for m in &PER_LAYER {
            assert!(is_unit(m.unit), "{}: bad unit {:?}", m.name, m.unit);
        }
    }

    #[test]
    fn workload_reasons_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with --print-benchmark-json"
        );
    }
}
