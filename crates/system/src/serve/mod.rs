//! Multi-session serving: event-driven continuous batching + admission
//! control on a resource timeline.
//!
//! This module answers both real-time questions: "does one stream stay
//! real-time as its cache grows?" (a one-session fleet) and the fleet
//! question behind the ROADMAP's north star: **how many concurrent
//! streaming sessions does a platform sustain in real time?** It drives the same analytic step model
//! ([`SystemModel::frame_step`] / [`SystemModel::question_step`] /
//! [`SystemModel::decode_step`]) — memoized through a
//! [`StepPriceCache`] so repeated batch shapes are priced once — with
//! the *actual* batch formed each scheduling instant, so batching
//! efficiency and contention both shape the per-stream lags.
//!
//! ## The event timeline
//!
//! The scheduler is a discrete-event simulation on **integer
//! picoseconds** end to end: arrival plans carry `u64` ps
//! ([`SessionPlan::arrival_ps`]), the step model's `latency_ps` values
//! add onto the clock exactly, and float seconds appear only in the
//! final report. Time advances through an [`EventQueue`] of wake-up
//! events, a binary heap over `(time, kind, payload)` (see
//! [`crate::eventq`]):
//!
//! * **Arrival** — a planned session reaches the box;
//! * **Patience** — a waiting session's admission deadline
//!   (`arrival + max_wait`, one exact integer compare — the float
//!   rounding mismatch behind PR 3's livelock is structurally gone);
//! * **WorkReady** — a queued frame or question becomes available on
//!   its session's camera/turn clock;
//! * **StepComplete** — an in-flight batched step finishes.
//!
//! After each wake-up the scheduler runs one pass: admission first,
//! then batch formation. Ready head-of-line work is tracked
//! **incrementally**: per-kind ready sets — ordered by admission
//! sequence, so batch membership is identical to the historical
//! fleet-scan order — are maintained on the event firings that can
//! change them (admission, work-ready wake-ups, batch completion)
//! instead of rescanning every active stream each instant, and debug
//! builds assert the maintained sets equal the rescan.
//!
//! ## Fleet scale
//!
//! The state the scheduler holds is sized by *concurrency*, not fleet
//! size: plans stream in through [`PlanSource`] (arrivals
//! nondecreasing), so at any instant the scheduler owns the active
//! streams (slab-allocated, addressed by stable slot handles through
//! an id → slot map), the arrived-but-waiting admission queue, one
//! armed future arrival, and an event queue holding one wake-up per
//! queued/armed concern. Admission fit checks read two incrementally
//! maintained fleet aggregates (max projected cache, summed projected
//! demand) instead of rescanning the fleet — debug builds assert both
//! against the rescan. Per-kind event counters and queue/active/
//! pending peaks land in [`ServeReport::counters`] (excluded from
//! report equality); the repo benchmark reports them as its
//! `system.serve.*` metrics.
//!
//! 1. **Admission.** What happens when the fleet outgrows device
//!    memory is a policy choice ([`AdmissionPolicy`]):
//!    * [`AdmissionPolicy::RejectOnly`] (PR 2 behaviour) — a session is
//!      admitted only if the device survives its worst-case KV
//!      footprint at the grown fleet size ([`SystemModel::is_oom`]).
//!      Sessions that never fit alone are rejected outright; sessions
//!      that don't fit *now* wait FIFO in an admission queue (their
//!      camera starts on admission) and are rejected once they
//!      out-wait [`ServeConfig::max_wait_s`].
//!    * [`AdmissionPolicy::Tiered`] — the same checks run against the
//!      *whole* memory hierarchy (device + host DRAM + SSD,
//!      [`TieredKvManager`]): overflow sessions are admitted and the
//!      coldest streams' resident KV is spilled down instead. A
//!      spilled stream pays a tier-miss restore before each step
//!      ([`crate::memory::PrefetchMode`]).
//! 2. **Batching.** Whenever a batch slot is free, ready head-of-line
//!    work items are grouped by kind (frame prefill / question prefill
//!    / decode); the largest group executes as one batched step priced
//!    at the batch's worst-case cache length. Per-session work stays
//!    FIFO — a question cannot overtake the frames before it.
//! 3. **Accounting.** Every frame's arrival→completion pair lands in
//!    its session's frame ledger (`QueueLedger`, [`crate::queueing`]),
//!    which yields queue depth, lag and the real-time verdict, plus
//!    TTFT (question asked → first answer token) and TPOT (between
//!    answer tokens) samples, plus the per-session and fleet tiering
//!    counters ([`TierReport`]).
//!
//! ## Execution models: serialized vs. resource timeline
//!
//! How a formed batch *executes* is [`ServeConfig::overlap`]'s choice:
//!
//! * **Serialized** (`overlap = false`, the PR 4 semantics, preserved
//!   byte-identically): the engine is the only resource. One batch
//!   executes at a time; tier restores are priced as overlap *windows*
//!   folded into the batch duration (`completion = now + latency +
//!   exposed restores`), so a restore for stream A never genuinely
//!   contends with stream B's traffic.
//! * **Resource timeline** (`overlap = true`): the run threads a
//!   [`vrex_hwsim::Engine`] with three named resources — `compute`
//!   and the full-duplex PCIe link's two lanes, `pcie` (up: restores
//!   and fetches) and `pcie-down` (demotion writebacks) — through the
//!   event loop. Batch compute, per-step KV fetch traffic,
//!   [`TieredKvManager`] restores, and spill/promotion writebacks are
//!   all *scheduled tasks* whose start times come from resource
//!   availability (earliest-fit reservation on the link for
//!   latency-critical restores, FIFO appends for compute and
//!   lowest-priority writebacks). Up to two batches are in flight at
//!   once (double-buffering), so the next batch's restores stream
//!   while the current batch computes, and restores genuinely contend
//!   with fetches on the one PCIe link. A batch completes at the max
//!   of its compute, fetch, and restore task end times; the
//!   `StepComplete` event applies its effects at that instant. The
//!   timeline forgets finished history behind a causal watermark (no
//!   later reservation searches before it), so it holds the live work
//!   rather than the run's history ([`ServeCounters::timeline_peak`]).
//!
//! ## Module map
//!
//! This file holds the configuration, the [`Serve`] entry point, the
//! scheduler state (`Sched`) and `run`, which builds it and hands it
//! to a driver. The behaviour is `impl Sched` blocks in four private
//! modules: `stream` (events, per-session work queues, the slab),
//! `sched` (admission, ready sets, batch formation and effects),
//! `drivers` (the serialized and resource-timeline execution models)
//! and `report` (the report types and fleet aggregation).

mod drivers;
mod report;
mod sched;
mod stream;

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::BuildHasherDefault;

use vrex_hwsim::seconds_to_ps;
use vrex_model::ModelConfig;
use vrex_retrieval::prefetch::{NoPrefetch, PrefetchPolicy};
use vrex_workload::traffic::{PlanSource, SessionPlan, SlicePlans};

use crate::e2e::SystemModel;
use crate::eventq::{EventQueue, QueueKind};
use crate::memory::{AdmissionPolicy, MigrationTask, RestorePlan, TieredKvManager};
use crate::placement::{PlacementPolicy, ShardScratch, ShardedServeReport};
use crate::platform::DevicePool;
use crate::pricing::{PriceKeyHasher, StepPriceCache};
use drivers::{InFlight, Resources};
pub use report::{
    ServeCounters, ServeReport, SessionOutcome, SessionServeReport, TierReport, TraceEvent,
    TraceKind,
};
use stream::{Event, Stream};

/// Scheduler parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Camera rate of every stream (frames per second).
    pub fps: f64,
    /// KV-cache tokens each session starts with (the "cache length"
    /// axis of the capacity sweep).
    pub initial_cache_tokens: usize,
    /// How long an arriving session may wait for memory before being
    /// rejected (seconds). 0 rejects immediately when full. Converted
    /// to integer ps once when the scheduler is built; every deadline
    /// comparison afterwards is exact.
    pub max_wait_s: f64,
    /// What to do with sessions that do not fit in device memory.
    pub admission: AdmissionPolicy,
    /// Execution model: `false` = serialized batch-level blocking (one
    /// step at a time, restores folded into the batch duration —
    /// byte-identical to the pre-resource-timeline scheduler), `true`
    /// = resource-timeline execution (compute and the PCIe link's up and
    /// down lanes as contended [`vrex_hwsim::Engine`] resources,
    /// multiple in-flight batches, restores and fetches as scheduled
    /// link tasks).
    pub overlap: bool,
    /// Selects nothing; kept because `benchmark/` is frozen; deleted by ROADMAP S1a.
    #[doc(hidden)]
    pub queue: QueueKind,
}

impl ServeConfig {
    /// The paper's real-time setting: 2 FPS camera, 10 s admission
    /// patience, reject-only admission, serialized execution.
    pub fn real_time(initial_cache_tokens: usize) -> Self {
        Self {
            fps: 2.0,
            initial_cache_tokens,
            max_wait_s: 10.0,
            admission: AdmissionPolicy::RejectOnly,
            overlap: false,
            queue: QueueKind::default(),
        }
    }

    /// The real-time setting with tiered spill admission and
    /// InfiniGen-style speculative prefetch.
    pub fn real_time_tiered(initial_cache_tokens: usize) -> Self {
        Self {
            admission: AdmissionPolicy::tiered_speculative(),
            ..Self::real_time(initial_cache_tokens)
        }
    }

    /// The camera's frame interval in integer ps, shared by the scheduler
    /// and the placement pass. Panics unless `fps` is positive and the
    /// real-time bar (two frame intervals) fits in `u64` ps.
    pub(crate) fn frame_interval_ps(&self) -> u64 {
        assert!(self.fps > 0.0, "fps must be positive");
        let interval = seconds_to_ps(1.0 / self.fps);
        assert!(
            interval <= u64::MAX / 2,
            "fps must be high enough that two frame intervals fit in u64 ps"
        );
        interval
    }

    /// Selects nothing; kept because `benchmark/` is frozen; deleted by ROADMAP S1a.
    #[doc(hidden)]
    #[must_use]
    pub fn with_queue(mut self, queue: QueueKind) -> Self {
        self.queue = queue;
        self
    }
}

/// The serve entry point: a builder over a caller-owned price cache
/// (built over the platform, method and model to serve) and a config.
///
/// * [`Serve::run`] serves the fleet on one device: a [`ServeReport`].
/// * [`Serve::run_pool`] routes it across a [`DevicePool`] and serves
///   each device's share: a [`ShardedServeReport`], one `ServeReport`
///   per device. A one-device pool reproduces `run` byte for byte.
///
/// Both terminals first run one prologue, which panics on a config no
/// serve can run (`fps` not positive, or a real-time bar of two frame
/// intervals past `u64` ps). Deterministic: the only randomness is in
/// the plans, which the source yields in nondecreasing arrival order
/// (a slice through [`SlicePlans`] gives the same report as a stream).
/// A batch shape is priced once per cache, so a sweep holds one cache
/// across its serves, serialized and overlapped alike.
#[derive(Debug)]
#[must_use = "a Serve does nothing until `run` or `run_pool`"]
pub struct Serve<'a> {
    pub(crate) prices: &'a mut StepPriceCache,
    pub(crate) cfg: &'a ServeConfig,
    pub(crate) traces: Option<&'a mut Vec<Vec<TraceEvent>>>,
    pub(crate) workers: Option<usize>,
    pub(crate) scratch: Option<&'a mut ShardScratch>,
}

impl<'a> Serve<'a> {
    /// A serve of `cfg` priced through `prices`.
    pub fn new(prices: &'a mut StepPriceCache, cfg: &'a ServeConfig) -> Self {
        Serve {
            prices,
            cfg,
            traces: None,
            workers: None,
            scratch: None,
        }
    }

    /// Records every scheduler transition, one trace per device in
    /// device order (one for [`Serve::run`]): the seam of the
    /// event-invariant tests and the golden fingerprints.
    pub fn trace(mut self, traces: &'a mut Vec<Vec<TraceEvent>>) -> Self {
        self.traces = Some(traces);
        self
    }

    /// Worker threads [`Serve::run_pool`] serves the devices on,
    /// clamped to `1..=pool.devices()`; every host core when unset.
    /// Reports are the same at every count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Routing buffers [`Serve::run_pool`] recycles across a sweep.
    pub fn scratch(mut self, scratch: &'a mut ShardScratch) -> Self {
        self.scratch = Some(scratch);
        self
    }

    /// Serves the fleet on one device.
    pub fn run(self, source: &mut dyn PlanSource) -> ServeReport {
        let frame_interval_ps = self.prologue(None);
        let mut trace = self.traces.is_some().then(Vec::new);
        let report = run(
            self.prices,
            source,
            self.cfg,
            frame_interval_ps,
            trace.as_mut(),
        );
        if let (Some(ts), Some(t)) = (self.traces, trace) {
            ts.push(t);
        }
        report
    }

    /// The config checks both terminals run before serving anything.
    /// Returns the frame interval in integer ps, derived once here and
    /// handed to the placer and to every device's scheduler.
    pub(crate) fn prologue(&self, pool: Option<&DevicePool>) -> u64 {
        if let Some(pool) = pool {
            assert_eq!(
                self.prices.system().platform,
                *pool.device(),
                "price cache must be built over the pool's device platform"
            );
        }
        self.cfg.frame_interval_ps()
    }
}

// The four entry points `benchmark/` calls, each one builder chain.
// Kept because `benchmark/` is frozen; deleted by ROADMAP S1a.

#[doc(hidden)]
pub fn serve_with_cache(
    prices: &mut StepPriceCache,
    plans: &[SessionPlan],
    cfg: &ServeConfig,
) -> ServeReport {
    Serve::new(prices, cfg).run(&mut SlicePlans::new(plans))
}

#[doc(hidden)]
pub fn serve_stream(
    prices: &mut StepPriceCache,
    source: &mut dyn PlanSource,
    cfg: &ServeConfig,
) -> ServeReport {
    Serve::new(prices, cfg).run(source)
}

#[doc(hidden)]
pub fn serve_sharded_with_cache_in(
    prices: &mut StepPriceCache,
    pool: &DevicePool,
    plans: &[SessionPlan],
    cfg: &ServeConfig,
    policy: PlacementPolicy,
    workers: usize,
    scratch: &mut ShardScratch,
) -> ShardedServeReport {
    Serve::new(prices, cfg)
        .workers(workers)
        .scratch(scratch)
        .run_pool(pool, policy, &mut SlicePlans::new(plans))
}

#[doc(hidden)]
pub fn serve_sharded_stream(
    prices: &mut StepPriceCache,
    pool: &DevicePool,
    source: &mut dyn PlanSource,
    cfg: &ServeConfig,
    policy: PlacementPolicy,
) -> ShardedServeReport {
    Serve::new(prices, cfg).run_pool(pool, policy, source)
}

/// An arrived session waiting for admission. The fit-check inputs
/// (projection, demand, deadline) are computed once on arrival instead
/// of once per admission pass.
struct PendingSession {
    plan: SessionPlan,
    /// "A fit check has refused this session at least once": only such
    /// sessions count as memory-queued (arriving between two scheduler
    /// passes is not admission queueing).
    refused: bool,
    /// Worst-case final cache of the plan, in tokens.
    proj_cache_tokens: usize,
    /// Resident demand of the projection, in bytes.
    demand_bytes: u64,
    /// `arrival + max_wait` — the exact integer the patience event
    /// carries.
    deadline_ps: u64,
}

/// The scheduler state shared by the serialized and resource-timeline
/// drivers: admission, the incremental ready sets, batch effects, and
/// report aggregation live here once; the drivers differ only in how a
/// formed batch executes and when its effects apply.
///
/// Per-session state lives on a slab (`slab` + `free_slots`): streams
/// are addressed by stable slot handles, retirement is O(1), and the
/// `by_id` map resolves event payloads (session ids) to slots without
/// scanning the fleet.
struct Sched<'a> {
    prices: &'a mut StepPriceCache,
    source: &'a mut dyn PlanSource,
    cfg: &'a ServeConfig,
    sys: SystemModel,
    model: ModelConfig,
    frame_interval_ps: u64,
    real_time_bar_ps: u64,
    max_wait_ps: u64,
    tiers: Option<TieredKvManager>,
    prefetch: Box<dyn PrefetchPolicy>,
    /// The next not-yet-arrived plan, pulled from the source with its
    /// arrival event armed. Exactly one arrival is ever in the queue:
    /// each firing moves this plan into `pending` and arms the next,
    /// so the un-arrived fleet tail stays inside the source.
    next_plan: Option<SessionPlan>,
    /// Sessions pulled from the source so far (the report's `offered`).
    offered: usize,
    /// Arrived sessions waiting for admission, in arrival order.
    pending: Vec<PendingSession>,
    events: EventQueue<Event>,
    /// Slab of active streams; `None` slots are free.
    slab: Vec<Option<Stream>>,
    free_slots: Vec<usize>,
    /// Session id → slab slot for every active stream.
    by_id: HashMap<usize, usize, BuildHasherDefault<PriceKeyHasher>>,
    active_count: usize,
    /// Next admission sequence number (see [`Stream::seq`]).
    next_seq: u64,
    /// Ready streams per batching class as `(seq, slot)` sets, indexed
    /// by `Kind`: membership updates are O(log ready), and iteration
    /// yields admission order — identical batch membership to the
    /// historical full-fleet scan.
    ready: [BTreeSet<(u64, usize)>; 3],
    /// Incremental admission aggregates over the active fleet: the
    /// projected-cache multiset (its max feeds the reject-only fit
    /// check) and the summed projected resident demand (the tiered fit
    /// check). Debug builds assert both against a fleet rescan.
    proj_multiset: BTreeMap<usize, usize>,
    fleet_demand_bytes: u64,
    reports: Vec<SessionServeReport>,
    makespan_ps: u64,
    now: u64,
    admission_dirty: bool,
    next_arrival_ps: u64,
    next_deadline_ps: u64,
    /// Per-pass scratch, reused across iterations.
    members: Vec<usize>,
    growths: Vec<(usize, u64)>,
    retired: Vec<SessionServeReport>,
    /// Resource timeline. Only the overlapped driver reserves on it;
    /// its three resources are built for every serve.
    res: Resources,
    /// Slab of in-flight batches; `StepComplete` events carry the slot.
    inflight: Vec<Option<InFlight>>,
    inflight_count: usize,
    /// Reused restore scratch for `launch_batch` (one slot per batch
    /// member per launch — previously a fresh `Vec` per batch).
    restores: Vec<Option<(RestorePlan, u64)>>,
    /// Reused migration drain buffer (previously a fresh `Vec` per
    /// flush).
    migrations: Vec<MigrationTask>,
    /// Recycled member-id vectors for in-flight batches (previously a
    /// fresh `Vec` per launch).
    ids_pool: Vec<Vec<usize>>,
    counters: ServeCounters,
    trace: Option<&'a mut Vec<TraceEvent>>,
}

pub(crate) fn run(
    prices: &mut StepPriceCache,
    source: &mut dyn PlanSource,
    cfg: &ServeConfig,
    frame_interval_ps: u64,
    trace: Option<&mut Vec<TraceEvent>>,
) -> ServeReport {
    let sys = prices.system().clone();
    let model = prices.model().clone();
    // Tiered admission: the manager tracking fleet residency across
    // the hierarchy and the prefetch policy scheduling its restores,
    // decided together — cluster tracking on the manager goes with the
    // cluster-granular policy and with nothing else.
    let (tiers, prefetch): (Option<TieredKvManager>, Box<dyn PrefetchPolicy>) = match cfg.admission
    {
        AdmissionPolicy::RejectOnly => (None, Box::new(NoPrefetch)),
        AdmissionPolicy::Tiered { prefetch } => {
            let mut mgr = TieredKvManager::for_system(&sys, &model);
            if prefetch.is_cluster() {
                // Cluster-granular cold-data movement: clusters are the
                // method's contiguous fetch chunk, and the WiCSum-hot
                // prefix protected from first-pass spill is the
                // prefill-stage selection ratio (the share of clusters
                // a frame step actually touches).
                let profile = sys.method.profile();
                mgr = mgr.with_cluster_mode(profile.fetch_chunk_bytes, sys.method.ratio(false));
            }
            (Some(mgr), prefetch.policy())
        }
    };
    let max_wait_ps = seconds_to_ps(cfg.max_wait_s);
    let hint = source.remaining_hint();
    let mut sched = Sched {
        prices,
        source,
        cfg,
        sys,
        model,
        frame_interval_ps,
        real_time_bar_ps: 2 * frame_interval_ps,
        max_wait_ps,
        tiers,
        prefetch,
        next_plan: None,
        offered: 0,
        pending: Vec::new(),
        // One wake-up per live concern: ≈ 48 even at 10⁶ sessions.
        events: EventQueue::with_capacity(64),
        slab: Vec::new(),
        free_slots: Vec::new(),
        by_id: HashMap::default(),
        active_count: 0,
        next_seq: 0,
        ready: [BTreeSet::new(), BTreeSet::new(), BTreeSet::new()],
        proj_multiset: BTreeMap::new(),
        fleet_demand_bytes: 0,
        reports: Vec::with_capacity(hint),
        makespan_ps: 0,
        now: 0,
        admission_dirty: true,
        next_arrival_ps: u64::MAX,
        next_deadline_ps: u64::MAX,
        members: Vec::new(),
        growths: Vec::new(),
        retired: Vec::new(),
        res: Resources::new(),
        inflight: Vec::new(),
        inflight_count: 0,
        restores: Vec::new(),
        migrations: Vec::new(),
        ids_pool: Vec::new(),
        counters: ServeCounters::default(),
        trace,
    };
    sched.pull_next_plan();
    if cfg.overlap {
        sched.run_overlapped();
    } else {
        sched.run_serialized();
    }
    sched.finish()
}

#[cfg(test)]
pub(crate) mod tests;
