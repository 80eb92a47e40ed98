//! Probe spans: layers the traced pass cannot see into from a trait
//! seam are called directly, through their public functions, with the
//! shape mix the workload produced. A probe yields host ns per
//! operation; multiplied by the operation count the public reports
//! export, that estimates the layer's share of the wall time.
//!
//! A probe is an estimate, not an attribution: it runs the layer
//! alone, with warm caches and none of the serve loop's interleaving.
//! What the estimates leave unexplained is reported as
//! `system.serve.self_share`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::Rng;
use vrex_core::earlyexit::early_exit_select_row;
use vrex_core::hashbit::HyperplaneSet;
use vrex_core::hctable::HcTable;
use vrex_core::resv::{ResvConfig, ResvPolicy};
use vrex_core::wicsum::wicsum_select_row;
use vrex_hwsim::dram::{Dram, DramConfig};
use vrex_hwsim::engine::Engine;
use vrex_hwsim::pcie::PcieConfig;
use vrex_hwsim::ssd::{Ssd, SsdConfig};
use vrex_hwsim::tier::MemTier;
use vrex_model::attention::attention_with_selection;
use vrex_model::policy::{RetrievalPolicy, Selection, SelectionRequest, Stage};
use vrex_model::ModelConfig;
use vrex_retrieval::prefetch::{ClusterPrefetch, ClusterPrefetchRequest, PrefetchPolicy};
use vrex_retrieval::{InfiniGenPPolicy, RekvPolicy};
use vrex_system::pipeline::{layer_costs, Workload};
use vrex_system::{
    EventQueue, ExecContext, Method, PlatformSpec, PrefetchMode, QueueKind, StepPriceCache,
    SystemModel, TieredKvManager, TimeKeyed,
};
use vrex_tensor::rng::{gaussian_matrix, seeded_rng};
use vrex_tensor::top_k_indices;

use crate::stats::median;
use crate::wrap::StepMix;

/// How long one probe may measure. Forty-odd probes share a traced
/// run, so each gets a slice that keeps the whole set to a few seconds.
const BUDGET: Duration = Duration::from_millis(40);
const MIN_BATCHES: usize = 5;

/// Median host ns per operation over repeated batches. `batch` runs
/// one batch and returns how many operations it performed; batches
/// repeat until [`BUDGET`] is spent (at least [`MIN_BATCHES`]).
pub fn ns_per_op(mut batch: impl FnMut() -> u64) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_BATCHES || started.elapsed() < BUDGET {
        let clock = Instant::now();
        let ops = batch();
        samples.push(clock.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    median(&samples)
}

/// [`ns_per_op`] of a plain call, `ops` calls to a batch (1 for calls
/// that run for microseconds, hundreds for nanosecond closed forms).
fn ns_per_call(ops: u64, mut f: impl FnMut()) -> f64 {
    ns_per_op(|| {
        (0..ops).for_each(|_| f());
        ops
    })
}

/// A hold-model event: the classic priority-queue benchmark pops the
/// minimum and pushes it back a random increment later, holding the
/// occupancy constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HoldEvent {
    ps: u64,
    seq: u64,
}

impl TimeKeyed for HoldEvent {
    fn time_ps(&self) -> u64 {
        self.ps
    }
}

/// Host ns per hold operation (one pop plus one push) on an
/// [`EventQueue`] of `kind` holding `occupancy` events. Increments
/// spread around the 0.5 s frame interval that spaces a serve's
/// `WorkReady` events.
pub fn eventq_hold_ns(kind: QueueKind, occupancy: usize) -> f64 {
    const MEAN_STEP_PS: u64 = 500_000_000_000;
    let mut rng = seeded_rng(48);
    let steps: Vec<u64> = (0..4096)
        .map(|_| rng.gen_range(0..2 * MEAN_STEP_PS))
        .collect();
    let mut q = EventQueue::new(kind, occupancy);
    let mut seq = 0u64;
    for _ in 0..occupancy {
        q.push(HoldEvent {
            ps: rng.gen_range(0..2 * MEAN_STEP_PS),
            seq,
        });
        seq += 1;
    }
    ns_per_op(|| {
        const OPS: u64 = 8192;
        for _ in 0..OPS {
            let e = q.pop().expect("hold model keeps the queue occupied");
            q.push(HoldEvent {
                ps: e.ps + steps[(seq % 4096) as usize],
                seq,
            });
            seq += 1;
        }
        black_box(q.len());
        OPS
    })
}

/// One step shape as the price cache keys it.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Frame {
        cache: usize,
        batch: usize,
    },
    Question {
        cache: usize,
        batch: usize,
        tokens: usize,
    },
    Decode {
        cache: usize,
        batch: usize,
    },
}

/// `(hit_ns, miss_ns)`: host ns per [`StepPriceCache`] lookup that is
/// served from the map, and per lookup that runs the closed-form
/// pricing. Replays `shapes` distinct step shapes in the workload's
/// own mix: frame, question and decode steps in the proportions the
/// plans asked for, cache lengths growing from `initial_cache` a frame
/// at a time, batch sizes up to `max_batch`.
pub fn pricing_ns(
    sys: &SystemModel,
    model: &ModelConfig,
    ctx: ExecContext,
    mix: StepMix,
    shapes: usize,
    initial_cache: usize,
    max_batch: usize,
) -> (f64, f64) {
    let steps = (mix.frames + mix.questions + mix.answer_tokens).max(1);
    let questions = (shapes as u64 * mix.questions).div_ceil(steps) as usize;
    let decodes = (shapes as u64 * mix.answer_tokens / steps) as usize;
    let question_tokens = (mix.question_tokens / mix.questions.max(1)).max(1) as usize;
    let shape_list: Vec<Shape> = (0..shapes.max(1))
        .map(|i| {
            let cache = initial_cache + (i / max_batch.max(1)) * model.tokens_per_frame;
            let batch = 1 + i % max_batch.max(1);
            if i < questions {
                Shape::Question {
                    cache,
                    batch,
                    tokens: question_tokens,
                }
            } else if i < questions + decodes {
                Shape::Decode { cache, batch }
            } else {
                Shape::Frame { cache, batch }
            }
        })
        .collect();
    let replay = |prices: &mut StepPriceCache| {
        for s in &shape_list {
            black_box(match *s {
                Shape::Frame { cache, batch } => prices.frame_step_in(ctx, cache, batch),
                Shape::Question {
                    cache,
                    batch,
                    tokens,
                } => prices.question_step_in(ctx, cache, batch, tokens),
                Shape::Decode { cache, batch } => prices.decode_step_in(ctx, cache, batch),
            });
        }
        shape_list.len() as u64
    };
    let mut warm = StepPriceCache::new(sys, model);
    let miss_ns = ns_per_op(|| {
        warm = StepPriceCache::new(sys, model);
        replay(&mut warm)
    });
    debug_assert_eq!(warm.hits(), 0);
    let hit_ns = ns_per_op(|| replay(&mut warm));
    (hit_ns, miss_ns)
}

/// Host ns of the closed forms a price-cache miss bottoms out in, at
/// the `bench_hwsim` criterion shapes.
#[derive(Debug, Clone, Copy)]
pub struct LeafNs {
    pub layer_costs: f64,
    pub dram_stream_read: f64,
    pub ssd_scattered_read: f64,
    pub pcie_transfer: f64,
    pub tier_migrate: f64,
}

pub fn pricing_leaves_ns(sys: &SystemModel, model: &ModelConfig) -> LeafNs {
    let w = Workload::frame(model, 40_000, 1);
    let vrex8 = PlatformSpec::vrex8();
    let pcie = PcieConfig::gen4_x16();
    let path = sys.tier_path();
    let spill_tier = if path.host_dram.is_some() {
        MemTier::Host
    } else {
        MemTier::Ssd
    };
    LeafNs {
        layer_costs: ns_per_call(256, move || {
            black_box(layer_costs(&vrex8, Method::ReSV, black_box(&w)));
        }),
        dram_stream_read: ns_per_call(256, || {
            black_box(Dram::new(DramConfig::lpddr5_204gb()).stream_read(black_box(16 << 20)));
        }),
        ssd_scattered_read: ns_per_call(256, || {
            black_box(Ssd::new(SsdConfig::bg6_class()).read_scattered(black_box(65_536), 4096));
        }),
        pcie_transfer: ns_per_call(256, move || {
            black_box(pcie.transfer_ps(black_box(256 << 20), 256 << 10));
        }),
        tier_migrate: ns_per_call(256, move || {
            black_box(path.migrate_ps(
                spill_tier,
                MemTier::Device,
                black_box(256 << 20),
                256 << 10,
            ));
        }),
    }
}

/// Host ns per tier-manager operation on a manager loaded like the
/// workload's steady state (all zero if that load spills nothing).
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoryNs {
    /// One `plan_restore` of a spilled stream (what the overlapped
    /// driver calls per tier-miss member).
    pub plan_restore: f64,
    /// One `step_restore` of a spilled stream (what the serialized
    /// driver calls per tier-miss member).
    pub step_restore: f64,
    /// One `admit` plus one `release` (per admitted session).
    pub admit_release: f64,
}

/// Loads a [`TieredKvManager`] for `sys` with `streams` sessions of
/// `cache_tokens` each (enough to overflow the device, as the tiered
/// workloads do) and times its per-step and per-session operations
/// under `prefetch`.
pub fn memory_ns(
    sys: &SystemModel,
    model: &ModelConfig,
    prefetch: PrefetchMode,
    streams: usize,
    cache_tokens: usize,
) -> MemoryNs {
    let mut mgr = TieredKvManager::for_system(sys, model);
    if prefetch.is_cluster() {
        mgr = mgr.with_cluster_mode(
            sys.method.profile().fetch_chunk_bytes,
            sys.method.ratio(false),
        );
    }
    let demand = sys.resident_demand_bytes(model, cache_tokens);
    let streams = streams.max(2);
    for id in 0..streams {
        mgr.admit(id, demand, id as u64);
    }
    let policy = prefetch.policy();
    let ratio = sys.method.ratio(false);
    // Steps of spilled streams are the ones that plan a restore; a
    // device-resident stream's step returns at once.
    let spilled: Vec<usize> = (0..streams)
        .filter(|&id| mgr.residency(id).is_some_and(|r| r.spilled_bytes() > 0))
        .collect();
    if spilled.is_empty() {
        return MemoryNs::default();
    }
    const OPS: u64 = 256;
    let mut turn = 0usize;
    let plan_restore = ns_per_op(|| {
        for _ in 0..OPS {
            turn += 1;
            let id = spilled[turn % spilled.len()];
            black_box(mgr.plan_restore(id, ratio, false, policy.as_ref()));
        }
        OPS
    });
    let step_restore = ns_per_op(|| {
        for _ in 0..OPS {
            turn += 1;
            let id = spilled[turn % spilled.len()];
            // A 0.5 s window: one frame interval of wait to hide in.
            black_box(mgr.step_restore(id, ratio, false, 500_000_000_000, policy.as_ref()));
        }
        OPS
    });
    // Steady-state churn: the newest stream arrives (spilling the
    // coldest clusters) and the oldest, partly spilled by now, retires
    // (promoting into the space it frees).
    let mut next = streams;
    let admit_release = ns_per_op(|| {
        for _ in 0..OPS {
            mgr.admit(next, demand, next as u64);
            mgr.release(next - streams);
            next += 1;
        }
        OPS
    });
    MemoryNs {
        plan_restore,
        step_restore,
        admit_release,
    }
}

/// Host ns per `ClusterPrefetch::cluster_plan` at a session of
/// `clusters` hash clusters.
pub fn cluster_plan_ns(clusters: u64, selection_ratio: f64) -> f64 {
    let policy = ClusterPrefetch::wicsum_default();
    let mut step_seq = 0u64;
    ns_per_op(|| {
        const OPS: u64 = 4096;
        for _ in 0..OPS {
            step_seq += 1;
            black_box(policy.cluster_plan(black_box(&ClusterPrefetchRequest {
                clusters,
                selection_ratio,
                generation: false,
                step_seq,
            })));
        }
        OPS
    })
}

/// Host ns of one link operation on a resource that already holds
/// `held` busy intervals: `(reserve_ns, append_ns)`. The reserve is an
/// earliest-fit `reserve_after` from nine tenths of the way along the
/// timeline (a restore issued when its work became visible); the
/// append is a `schedule_after` at the frontier behind one dependency
/// (a fetch or writeback queued now).
pub fn engine_ns(held: usize) -> (f64, f64) {
    const SLOT_PS: u64 = 1_000_000;
    let mut e = Engine::new();
    let link = e.add_resource("probe-link");
    let mut last = e.schedule(link, SLOT_PS, &[], "held", 0);
    for _ in 1..held {
        last = e.schedule(link, SLOT_PS, &[], "held", 0);
    }
    let frontier = e.next_free(link);
    const OPS: u64 = 16;
    let reserve = ns_per_op(|| {
        for _ in 0..OPS {
            black_box(e.reserve_after(link, frontier / 10 * 9, SLOT_PS, "restore", 4096));
        }
        // Drop the probe's own reservations so `held` stays put.
        e.truncate_from(link, frontier);
        OPS
    });
    let append = ns_per_op(|| {
        for _ in 0..OPS {
            let at = e.next_free(link);
            black_box(e.schedule_after(link, at, SLOT_PS, &[last], "fetch", 4096));
        }
        e.truncate_from(link, frontier);
        OPS
    });
    (reserve, append)
}

/// Host ns of the numeric kernels at the five criterion benches'
/// shapes, keyed by the per-layer metric each feeds.
pub fn kernel_ns(cfg: &ModelConfig) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let mut probe = |name: &'static str, ns: f64| out.push((name, ns));
    // One call per batch: these kernels run for microseconds or more.
    let once = |f: &mut dyn FnMut()| ns_per_call(1, f);

    // tensor: the projection matmul of one frame, and a top-k.
    let mut rng = seeded_rng(1);
    let x = gaussian_matrix(&mut rng, cfg.tokens_per_frame, cfg.hidden_dim, 1.0);
    let w = gaussian_matrix(&mut rng, cfg.hidden_dim, cfg.hidden_dim, 1.0);
    probe(
        "tensor.matmul_ns",
        once(&mut || {
            black_box(black_box(&x).matmul(&w));
        }),
    );
    let scores: Vec<f32> = (0..4096).map(|_| rng.gen_range(0.0f32..1.0)).collect();
    probe(
        "tensor.topk_ns.4096",
        once(&mut || {
            black_box(top_k_indices(black_box(&scores), 410));
        }),
    );

    // model: bench_attention's 10-query block over a 2048-token cache.
    let (d, cache) = (64, 2048);
    let q = gaussian_matrix(&mut rng, 10, d, 1.0);
    let k = gaussian_matrix(&mut rng, cache + 10, d, 1.0);
    let v = gaussian_matrix(&mut rng, cache + 10, d, 1.0);
    probe(
        "model.attention_full_ns.2048",
        once(&mut || {
            black_box(attention_with_selection(&q, &k, &v, cache, &Selection::All));
        }),
    );
    let third = Selection::Indices((0..cache).step_by(3).collect());
    probe(
        "model.attention_light_ns.2048",
        once(&mut || {
            black_box(attention_with_selection(&q, &k, &v, cache, &third));
        }),
    );

    // core: bench_hashbit's hashing and clustering, bench_wicsum's rows.
    let hp = HyperplaneSet::new(128, 32, 1);
    let keys = gaussian_matrix(&mut seeded_rng(2), 256, 128, 1.0);
    probe(
        "core.hashbit.hash_rows_ns.256",
        once(&mut || {
            black_box(hp.hash_rows(black_box(&keys)));
        }),
    );
    let base = gaussian_matrix(&mut seeded_rng(4), 8, 128, 1.0);
    let noise = gaussian_matrix(&mut seeded_rng(5), 512, 128, 0.05);
    let video_keys: Vec<Vec<f32>> = (0..512)
        .map(|i| {
            base.row(i % 8)
                .iter()
                .zip(noise.row(i))
                .map(|(a, b)| a + b)
                .collect()
        })
        .collect();
    probe(
        "core.hctable.insert_ns",
        ns_per_op(|| {
            let mut table = HcTable::new(7);
            for (i, key) in video_keys.iter().enumerate() {
                table.insert_token(key, i, &hp);
            }
            black_box(table.n_clusters());
            video_keys.len() as u64
        }),
    );
    let mut rng = seeded_rng(9);
    let row: Vec<f32> = (0..4096)
        .map(|i| 100.0 / (1.0 + i as f32) + rng.gen_range(0.0f32..0.5))
        .collect();
    let counts: Vec<usize> = (0..4096).map(|_| rng.gen_range(1..64)).collect();
    probe(
        "core.wicsum.full_sort_ns.4096",
        once(&mut || {
            black_box(wicsum_select_row(black_box(&row), &counts, 0.3));
        }),
    );
    probe(
        "core.earlyexit.select_ns.4096",
        once(&mut || {
            black_box(early_exit_select_row(black_box(&row), &counts, 0.3, 32));
        }),
    );

    // retrieval: bench_retrieval's per-head selection, 2048 history.
    let mut rng = seeded_rng(6);
    let queries = gaussian_matrix(&mut rng, 10, cfg.head_dim, 1.0);
    let keys = gaussian_matrix(&mut rng, 2048 + 10, cfg.head_dim, 1.0);
    let request = || SelectionRequest {
        layer: 0,
        query_head: 0,
        kv_head: 0,
        queries: &queries,
        keys: &keys,
        stage: Stage::Prefill,
    };
    let mut resv = ResvPolicy::new(cfg, ResvConfig::paper_defaults());
    resv.on_keys_appended(0, 0, &keys, 0);
    probe(
        "core.resv.select_ns.2048",
        once(&mut || {
            black_box(resv.select(&request()));
        }),
    );
    let mut rekv = RekvPolicy::paper_defaults(cfg.tokens_per_frame);
    probe(
        "retrieval.rekv.select_ns.2048",
        once(&mut || {
            black_box(rekv.select(&request()));
        }),
    );
    let mut infinigen = InfiniGenPPolicy::paper_defaults();
    probe(
        "retrieval.infinigenp.select_ns.2048",
        once(&mut || {
            black_box(infinigen.select(&request()));
        }),
    );
    out
}
