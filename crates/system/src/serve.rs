//! Multi-session serving: event-driven continuous batching + admission
//! control on a resource timeline.
//!
//! The single-session view ([`crate::realtime`]) answers "does one
//! stream stay real-time as its cache grows?". This module answers the
//! fleet question behind the ROADMAP's north star: **how many
//! concurrent streaming sessions does a platform sustain in real
//! time?** It drives the same analytic step model
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
//! events — a binary heap or a hierarchical timer wheel, selected by
//! [`ServeConfig::queue`] and byte-identical in outcome (see
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
//!    the same [`QueueLedger`] the single-session simulation uses, so
//!    lag semantics are shared, plus TTFT (question asked → first
//!    answer token) and TPOT (between answer tokens) samples, plus the
//!    per-session and fleet tiering counters ([`TierReport`]).
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
//!   [`vrex_hwsim::Engine`] with four named resources — `compute`, the
//!   `pcie` link, the `ssd` channel, and the `host-dram` channel —
//!   through the event loop. Batch compute, per-step KV fetch traffic,
//!   [`TieredKvManager`] restores, and spill/promotion writebacks are
//!   all *scheduled tasks* whose start times come from resource
//!   availability (earliest-fit reservation on the link for
//!   latency-critical restores, FIFO appends for compute and
//!   lowest-priority writebacks). Up to two batches are in flight at
//!   once (double-buffering), so the next batch's restores stream
//!   while the current batch computes, and restores genuinely contend
//!   with fetches on the one PCIe link. A batch completes at the max
//!   of its compute, fetch, and restore task end times; the
//!   `StepComplete` event applies its effects at that instant.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::BuildHasherDefault;

use vrex_hwsim::engine::{Engine, ResourceId, TaskId};
use vrex_hwsim::tier::MemTier;
use vrex_hwsim::{ps_to_seconds, seconds_to_ps};
use vrex_model::ModelConfig;
use vrex_retrieval::prefetch::{NoPrefetch, PrefetchPolicy};
use vrex_workload::traffic::{PlanSource, SessionPlan, SlicePlans};
use vrex_workload::SessionEvent;

use crate::e2e::{StepResult, SystemModel};
use crate::eventq::{EventQueue, QueueKind, TimeKeyed};
use crate::memory::{AdmissionPolicy, MigrationTask, RestorePlan, TieredKvManager};
use crate::pricing::{ExecContext, PriceKeyHasher, StepPriceCache, StepPricer};
use crate::queueing::{percentile_sorted, QueueLedger};

/// Batches concurrently in flight under the resource-timeline model
/// (double-buffering: the next batch's restores stream while the
/// current batch computes).
const MAX_IN_FLIGHT: usize = 2;

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
    /// to integer ps once at the top of [`serve`]; every deadline
    /// comparison afterwards is exact.
    pub max_wait_s: f64,
    /// What to do with sessions that do not fit in device memory.
    pub admission: AdmissionPolicy,
    /// Execution model: `false` = serialized batch-level blocking (one
    /// step at a time, restores folded into the batch duration —
    /// byte-identical to the pre-resource-timeline scheduler), `true`
    /// = resource-timeline execution (compute / PCIe link / SSD
    /// channel / host-DRAM channel as contended [`Engine`] resources,
    /// multiple in-flight batches, restores and fetches as scheduled
    /// link tasks).
    pub overlap: bool,
    /// Event-queue implementation ([`QueueKind::Heap`] is the
    /// reference; [`QueueKind::Wheel`] — the default — is the
    /// fleet-scale timer wheel). Both produce byte-identical reports
    /// and traces — pinned by the golden-fingerprint and property
    /// tests — so this is purely a performance choice.
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

    /// The same configuration under the chosen execution model.
    #[must_use]
    pub fn with_overlap(mut self, overlap: bool) -> Self {
        self.overlap = overlap;
        self
    }

    /// The same configuration under the chosen event-queue
    /// implementation.
    #[must_use]
    pub fn with_queue(mut self, queue: QueueKind) -> Self {
        self.queue = queue;
        self
    }
}

/// Why a session ended up where it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionOutcome {
    /// Admitted the moment it was considered.
    Admitted,
    /// Admitted only after waiting for device memory.
    AdmittedAfterWait,
    /// Never admitted (would not fit, or out-waited its patience).
    Rejected,
}

/// Per-session serving outcome and latency statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionServeReport {
    /// Session id from the [`SessionPlan`].
    pub id: usize,
    /// Admission outcome.
    pub outcome: SessionOutcome,
    /// Delay between arrival and admission (seconds). Can be nonzero
    /// even for [`SessionOutcome::Admitted`]: admission decisions run
    /// at scheduling instants, so a session arriving mid-batch waits
    /// for the step to finish. Only [`SessionOutcome::AdmittedAfterWait`]
    /// marks genuine memory queueing.
    pub waited_s: f64,
    /// Frames offered by the session's camera.
    pub frames_offered: usize,
    /// Worst frame backlog observed.
    pub max_queue_depth: usize,
    /// Mean frame lag (completion − arrival), seconds.
    pub mean_frame_lag_s: f64,
    /// Worst frame lag, seconds.
    pub max_frame_lag_s: f64,
    /// Real-time verdict: worst frame lag within `2 / fps` (the same
    /// bar as the single-session simulation), compared in integer ps.
    pub real_time: bool,
    /// Per-frame lag samples (completion − arrival), in arrival order;
    /// the fleet percentiles aggregate these across sessions.
    pub frame_lags_s: Vec<f64>,
    /// Time-to-first-token per turn (question asked → first answer
    /// token completed), seconds.
    pub ttft_s: Vec<f64>,
    /// Time between consecutive answer tokens, seconds.
    pub tpot_s: Vec<f64>,
    /// KV-cache tokens at session end.
    pub final_cache_tokens: usize,
    /// Whether any of this session's resident KV was ever spilled
    /// below the device tier (always `false` under
    /// [`AdmissionPolicy::RejectOnly`]).
    pub spilled: bool,
    /// Total tier-restore time that delayed this session's steps
    /// (seconds). A batch completes as one unit, so this includes
    /// exposed restores of *co-batched* streams — a device-resident
    /// session can accrue delay here without ever spilling. Summing
    /// this across sessions therefore over-counts shared delays; use
    /// [`TierReport::exposed_s`] for the fleet total by cause.
    pub tier_exposed_s: f64,
}

/// Fleet-level serving report.
///
/// Equality compares every *outcome* field but **not**
/// [`Self::counters`]: the counters describe how much work the event
/// loop did, which legitimately differs between the serialized and
/// overlapped drivers even when they produce identical outcomes (the
/// invariant several tests pin).
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Sessions offered.
    pub offered: usize,
    /// Sessions admitted (immediately or after waiting).
    pub admitted: usize,
    /// Admitted sessions that had to wait for memory first.
    pub queued: usize,
    /// Sessions rejected by admission control.
    pub rejected: usize,
    /// Admitted sessions that stayed real-time end to end.
    pub real_time_sessions: usize,
    /// Median frame lag across every frame of every admitted session.
    pub frame_lag_p50_s: f64,
    /// 99th-percentile frame lag.
    pub frame_lag_p99_s: f64,
    /// Median time-to-first-token.
    pub ttft_p50_s: f64,
    /// 99th-percentile time-to-first-token.
    pub ttft_p99_s: f64,
    /// Median time-per-output-token.
    pub tpot_p50_s: f64,
    /// 99th-percentile time-per-output-token.
    pub tpot_p99_s: f64,
    /// Wall-clock time until the last admitted session finished.
    pub makespan_s: f64,
    /// Memory-hierarchy accounting; `None` under
    /// [`AdmissionPolicy::RejectOnly`].
    pub tiering: Option<TierReport>,
    /// Per-session detail, in completion/rejection order (match by
    /// [`SessionServeReport::id`] to pair with the offered plans).
    pub sessions: Vec<SessionServeReport>,
    /// Event-loop work counters (excluded from `PartialEq`; see the
    /// type-level note).
    pub counters: ServeCounters,
}

impl PartialEq for ServeReport {
    fn eq(&self, other: &Self) -> bool {
        // Every field except `counters` (see the struct docs).
        self.offered == other.offered
            && self.admitted == other.admitted
            && self.queued == other.queued
            && self.rejected == other.rejected
            && self.real_time_sessions == other.real_time_sessions
            && self.frame_lag_p50_s == other.frame_lag_p50_s
            && self.frame_lag_p99_s == other.frame_lag_p99_s
            && self.ttft_p50_s == other.ttft_p50_s
            && self.ttft_p99_s == other.ttft_p99_s
            && self.tpot_p50_s == other.tpot_p50_s
            && self.tpot_p99_s == other.tpot_p99_s
            && self.makespan_s == other.makespan_s
            && self.tiering == other.tiering
            && self.sessions == other.sessions
    }
}

/// Cheap per-run event-loop instrumentation: how many events fired by
/// kind, how much admission and batching work ran, and the peak sizes
/// of the scheduler's data structures. The repo benchmark reports
/// these as `system.serve.*`; they are the observability needed to see
/// where the next 10× of simulator throughput goes.
///
/// Fully deterministic for a given (plans, config) pair — including
/// across [`QueueKind`]s, which the property tests assert — but *not*
/// part of [`ServeReport`] equality, because the serialized and
/// overlapped drivers do different amounts of loop work for identical
/// outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Arrival events fired.
    pub arrival_events: u64,
    /// Patience events fired (most are stale by design: a session
    /// admitted or rejected before its deadline leaves its wake-up in
    /// the queue to drain as a no-op).
    pub patience_events: u64,
    /// Work-ready events fired.
    pub work_ready_events: u64,
    /// Step-complete events fired (resource-timeline execution only —
    /// the serialized driver completes batches inline).
    pub step_complete_events: u64,
    /// Admission passes that actually ran (the dirty/threshold gate
    /// skips provable no-ops).
    pub admission_passes: u64,
    /// Per-waiter fit evaluations summed over all admission passes.
    pub admission_checks: u64,
    /// Batches formed (batched step executions).
    pub batches_formed: u64,
    /// Batch members summed over all batches (work items executed).
    pub batch_members: u64,
    /// Events pushed into the queue over the run.
    pub queue_pushes: u64,
    /// Peak event-queue occupancy.
    pub queue_peak: usize,
    /// Peak concurrently-active (admitted, unfinished) sessions.
    pub active_peak: usize,
    /// Peak arrived-but-waiting admission-queue length.
    pub pending_peak: usize,
    /// Clusters restored speculatively (in flight from
    /// work-visibility) across all tier-miss steps. Cluster-granular
    /// prefetch only; zero under the flat policies.
    pub spec_clusters: u64,
    /// Mispredicted clusters that were spilled and demand-fetched at
    /// batch formation.
    pub demand_clusters: u64,
    /// Total mispredicted clusters on tier-miss steps, including ones
    /// that happened to be device-resident and cost nothing.
    pub mispredicted_clusters: u64,
    /// Bytes restored speculatively across all tier-miss steps.
    pub spec_restore_bytes: u64,
    /// Bytes demand-fetched across all tier-miss steps.
    pub demand_restore_bytes: u64,
}

impl ServeCounters {
    /// Total events fired across all kinds.
    pub fn events_fired(&self) -> u64 {
        self.arrival_events
            + self.patience_events
            + self.work_ready_events
            + self.step_complete_events
    }
}

/// Fleet-level memory-hierarchy accounting for one tiered serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierReport {
    /// Sessions whose resident KV was ever spilled below the device.
    pub spilled_sessions: usize,
    /// Bytes demoted below the device tier.
    pub spilled_bytes: u64,
    /// Bytes promoted back into freed device space.
    pub promoted_bytes: u64,
    /// Bytes restored on the critical path for steps.
    pub restored_bytes: u64,
    /// Per-stream step executions (one count per batch member) that
    /// ran fully device-resident.
    pub tier_hit_steps: u64,
    /// Per-stream step executions (one count per batch member) that
    /// needed a restore migration.
    pub tier_miss_steps: u64,
    /// Restore time hidden behind prefetch overlap (seconds).
    pub hidden_s: f64,
    /// Restore time exposed on the critical path (seconds).
    pub exposed_s: f64,
}

impl ServeReport {
    /// Fraction of admitted sessions that stayed real-time (0 when
    /// nothing was admitted).
    pub fn real_time_fraction(&self) -> f64 {
        if self.admitted == 0 {
            0.0
        } else {
            self.real_time_sessions as f64 / self.admitted as f64
        }
    }

    /// Whether the platform sustained the *whole* offered fleet in real
    /// time: everyone admitted immediately, nobody rejected, every
    /// session real-time.
    pub fn sustained_real_time(&self) -> bool {
        self.offered > 0
            && self.admitted == self.offered
            && self.queued == 0
            && self.rejected == 0
            && self.real_time_sessions == self.admitted
    }
}

/// What woke the scheduler (diagnostics/test seam; see [`serve_traced`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A planned session's arrival instant.
    Arrival,
    /// A waiting session's patience deadline.
    Patience,
    /// A queued frame/question became available.
    WorkReady,
    /// An in-flight batched step completed.
    StepComplete,
}

/// One recorded scheduler transition: simulated time advanced to `ps`
/// because of `kind`. [`serve_traced`] returns the full sequence. Under
/// serialized execution the event-invariant property tests assert it is
/// strictly monotone (time never stalls or rewinds — the PR 3 livelock
/// class is checked wholesale); under the resource timeline two batches
/// may complete at the same instant, so the trace is weakly monotone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time after the transition (ps).
    pub ps: u64,
    /// What caused the wake-up.
    pub kind: TraceKind,
}

/// A heap wake-up. Ordering is (time, kind, payload) so equal-time pops
/// are deterministic; the payload index only disambiguates, the
/// scheduling pass itself re-derives all state from `now` (except
/// `StepComplete`, whose payload names the in-flight batch to retire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    ps: u64,
    kind: EventKind,
}

impl TimeKeyed for Event {
    fn time_ps(&self) -> u64 {
        self.ps
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// Session id `.0` arrives (at most one arrival is armed at a
    /// time: the plan source streams in nondecreasing arrival order,
    /// and each firing arms the next).
    Arrival(usize),
    /// Session id `.0`'s admission patience expires.
    Patience(usize),
    /// Stream of session id `.0` has a frame/question coming available.
    WorkReady(usize),
    /// In-flight batch in slab slot `.0` completes (resource-timeline
    /// execution only).
    StepComplete(usize),
}

/// One schedulable unit of a session, in FIFO order.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Work {
    /// A video frame arriving from the camera at `avail_ps`.
    Frame { avail_ps: u64 },
    /// A question of `tokens` asked at `avail_ps`.
    Question { avail_ps: u64, tokens: usize },
    /// One answer token; available as soon as its predecessor finishes.
    Decode { first: bool },
}

/// Batching class of a work item (the discriminant indexes the
/// per-kind ready counts maintained by the scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Frame = 2,
    Question = 1,
    Decode = 0,
}

#[derive(Debug)]
struct Stream {
    id: usize,
    /// Admission sequence number: the fleet-wide order this stream was
    /// admitted in. Ready sets are keyed `(seq, slot)`, so iterating
    /// them yields admission order — the same batch-membership order
    /// the historical active-vector scan produced.
    seq: u64,
    cache_tokens: usize,
    /// Worst-case final cache, fixed at admission (used by later
    /// admission checks).
    projected_cache_tokens: usize,
    /// [`SystemModel::resident_demand_bytes`] of the projection, fixed
    /// at admission: this stream's contribution to the incrementally
    /// maintained fleet demand aggregate.
    projected_demand_bytes: u64,
    items: std::collections::VecDeque<Work>,
    last_completion_ps: u64,
    waited_ps: u64,
    memory_waited: bool,
    frames: QueueLedger,
    ttft_ps: Vec<u64>,
    tpot_ps: Vec<u64>,
    question_asked_ps: u64,
    last_token_completion_ps: u64,
    spilled: bool,
    tier_exposed_ps: u64,
    /// Membership in the incremental ready set: the head item is
    /// available and the stream is not in an in-flight batch. Kept in
    /// lock-step with the per-kind ready counts; debug builds assert
    /// equivalence against the full rescan.
    ready: bool,
    /// Whether the stream is a member of an in-flight batch
    /// (resource-timeline execution; always `false` when serialized).
    in_flight: bool,
    /// When this stream's most recent demotion writeback lands at its
    /// destination tier (ps; resource-timeline execution). A restore —
    /// speculated or demand — can never claim link time before the
    /// bytes it restores have actually been spilled, so restore
    /// reservations are floored here.
    spill_visible_ps: u64,
}

impl Stream {
    fn admit(
        plan: &SessionPlan,
        cfg: &ServeConfig,
        model: &ModelConfig,
        frame_interval_ps: u64,
        now: u64,
    ) -> Self {
        // The camera starts when the session is admitted: a queued
        // session is not yet streaming, so its frame clock begins at
        // admission, not at arrival.
        let mut clock = now;
        let mut items = std::collections::VecDeque::new();
        for e in &plan.events {
            match e {
                SessionEvent::Frame => {
                    items.push_back(Work::Frame { avail_ps: clock });
                    clock += frame_interval_ps;
                }
                SessionEvent::Question { tokens } => items.push_back(Work::Question {
                    avail_ps: clock,
                    tokens: *tokens,
                }),
                SessionEvent::Answer { tokens } => {
                    for j in 0..*tokens {
                        items.push_back(Work::Decode { first: j == 0 });
                    }
                }
            }
        }
        Stream {
            id: plan.id,
            seq: 0, // assigned by the slab insert
            cache_tokens: cfg.initial_cache_tokens,
            projected_cache_tokens: projected_cache(plan, cfg, model),
            projected_demand_bytes: 0, // assigned by the admission path
            items,
            last_completion_ps: now,
            waited_ps: now - plan.arrival_ps,
            memory_waited: false,
            frames: QueueLedger::new(),
            ttft_ps: Vec::new(),
            tpot_ps: Vec::new(),
            question_asked_ps: now,
            last_token_completion_ps: now,
            spilled: false,
            tier_exposed_ps: 0,
            ready: false,
            in_flight: false,
            spill_visible_ps: 0,
        }
    }

    /// The head work item's availability and batching class. The head
    /// is ready at `max(avail, last_completion)` (per-session FIFO),
    /// and `last_completion <= now` always holds at scheduling
    /// instants, so "ready now" is exactly `avail <= now`.
    fn head(&self) -> Option<(u64, Kind)> {
        self.items.front().map(|w| match w {
            Work::Frame { avail_ps } => (*avail_ps, Kind::Frame),
            Work::Question { avail_ps, .. } => (*avail_ps, Kind::Question),
            Work::Decode { .. } => (0, Kind::Decode),
        })
    }

    fn head_avail_ps(&self) -> Option<u64> {
        self.head().map(|(a, _)| a)
    }

    fn into_report(self, real_time_bar_ps: u64) -> SessionServeReport {
        SessionServeReport {
            id: self.id,
            outcome: if self.memory_waited {
                SessionOutcome::AdmittedAfterWait
            } else {
                SessionOutcome::Admitted
            },
            waited_s: ps_to_seconds(self.waited_ps),
            frames_offered: self.frames.offered(),
            max_queue_depth: self.frames.max_queue_depth(),
            mean_frame_lag_s: self.frames.mean_lag_s(),
            max_frame_lag_s: self.frames.max_lag_s(),
            real_time: self.frames.max_lag_ps() <= real_time_bar_ps,
            frame_lags_s: self.frames.lags().collect(),
            ttft_s: self.ttft_ps.iter().copied().map(ps_to_seconds).collect(),
            tpot_s: self.tpot_ps.iter().copied().map(ps_to_seconds).collect(),
            final_cache_tokens: self.cache_tokens,
            spilled: self.spilled,
            tier_exposed_s: ps_to_seconds(self.tier_exposed_ps),
        }
    }
}

/// Worst-case per-stream KV footprint of a session, in tokens.
fn projected_cache(plan: &SessionPlan, cfg: &ServeConfig, model: &ModelConfig) -> usize {
    cfg.initial_cache_tokens + plan.total_cache_growth_tokens(model.tokens_per_frame)
}

fn rejected_report(plan: &SessionPlan, waited_ps: u64) -> SessionServeReport {
    SessionServeReport {
        id: plan.id,
        outcome: SessionOutcome::Rejected,
        waited_s: ps_to_seconds(waited_ps),
        frames_offered: 0,
        max_queue_depth: 0,
        mean_frame_lag_s: 0.0,
        max_frame_lag_s: 0.0,
        real_time: false,
        frame_lags_s: Vec::new(),
        ttft_s: Vec::new(),
        tpot_s: Vec::new(),
        final_cache_tokens: 0,
        spilled: false,
        tier_exposed_s: 0.0,
    }
}

/// The live stream in slab slot `slot` (free functions so callers can
/// borrow the slab while other `Sched` fields are borrowed mutably).
fn live(slab: &[Option<Stream>], slot: usize) -> &Stream {
    // vrex-lint: allow(panicking-seam) — slot liveness is the scheduler's core invariant: every caller resolved `slot` from a live id or set; a dead slot is a corrupted scheduler.
    slab[slot].as_ref().expect("live slab slot")
}

fn live_mut(slab: &mut [Option<Stream>], slot: usize) -> &mut Stream {
    // vrex-lint: allow(panicking-seam) — same slot-liveness invariant as `live` above.
    slab[slot].as_mut().expect("live slab slot")
}

/// Serves a fleet of planned sessions on one platform+method pair and
/// reports per-session and fleet latency/admission statistics.
///
/// Deterministic: the only randomness is in the plans themselves.
/// Builds a fresh [`StepPriceCache`] per call; sweeps that serve many
/// fleets on the same platform+method should hold one cache and call
/// [`serve_with_cache`] so batch shapes are priced once per sweep.
pub fn serve(
    sys: &SystemModel,
    model: &ModelConfig,
    plans: &[SessionPlan],
    cfg: &ServeConfig,
) -> ServeReport {
    serve_with_cache(&mut StepPriceCache::new(sys, model), plans, cfg)
}

/// [`serve`] against a caller-owned price cache (the platform, method,
/// and model are the ones the cache was built over). One cache may be
/// shared across serialized and overlapped runs — the two execution
/// contexts key separately ([`ExecContext`]).
pub fn serve_with_cache(
    prices: &mut StepPriceCache,
    plans: &[SessionPlan],
    cfg: &ServeConfig,
) -> ServeReport {
    run(prices, &mut SlicePlans::new(plans), cfg, None)
}

/// [`serve_with_cache`] over a streaming [`PlanSource`]: the
/// fleet-scale entry point, which never materializes the whole fleet.
/// The source must yield plans in nondecreasing arrival order (every
/// `vrex_workload::traffic` source does, by construction); a
/// materialized slice run through [`SlicePlans`] produces the
/// identical report.
pub fn serve_stream(
    prices: &mut StepPriceCache,
    source: &mut dyn PlanSource,
    cfg: &ServeConfig,
) -> ServeReport {
    run(prices, source, cfg, None)
}

/// [`serve`] that also records every scheduler transition. The trace is
/// the test seam for the event-queue invariants: strictly monotone
/// simulated time under serialized execution (weakly monotone under the
/// resource timeline, where two batches may complete at one instant),
/// no wake-up in the past, every session reaching exactly one terminal
/// outcome.
pub fn serve_traced(
    sys: &SystemModel,
    model: &ModelConfig,
    plans: &[SessionPlan],
    cfg: &ServeConfig,
) -> (ServeReport, Vec<TraceEvent>) {
    let mut trace = Vec::new();
    let report = run(
        &mut StepPriceCache::new(sys, model),
        &mut SlicePlans::new(plans),
        cfg,
        Some(&mut trace),
    );
    (report, trace)
}

/// The resource timeline of one overlapped run: the engine and its
/// named resources. The PCIe link is full duplex, so it appears as two
/// directional lanes: `pcie` (up, host/SSD → device — the
/// latency-critical restore and fetch direction) and `pcie-down`
/// (device → host/SSD demotion writebacks, which therefore never block
/// a restore; they still serialise against each other).
struct Resources {
    engine: Engine,
    compute: ResourceId,
    pcie: ResourceId,
    pcie_down: ResourceId,
    host: ResourceId,
    ssd: ResourceId,
}

impl Resources {
    fn new() -> Self {
        let mut engine = Engine::new();
        let compute = engine.add_resource("compute");
        let pcie = engine.add_resource("pcie");
        let pcie_down = engine.add_resource("pcie-down");
        let host = engine.add_resource("host-dram");
        let ssd = engine.add_resource("ssd");
        Resources {
            engine,
            compute,
            pcie,
            pcie_down,
            host,
            ssd,
        }
    }
}

/// One batch executing on the resource timeline, waiting for its
/// `StepComplete` event.
struct InFlight {
    /// Member session ids, in formation (active-index) order.
    ids: Vec<usize>,
    /// When every one of the batch's tasks has finished (ps).
    completion_ps: u64,
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
    prices: &'a mut dyn StepPricer,
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
    /// Resource timeline (overlapped execution only).
    res: Option<Resources>,
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
    prices: &mut dyn StepPricer,
    source: &mut dyn PlanSource,
    cfg: &ServeConfig,
    trace: Option<&mut Vec<TraceEvent>>,
) -> ServeReport {
    assert!(cfg.fps > 0.0, "fps must be positive");
    let sys = prices.system().clone();
    let model = prices.model().clone();
    // Tiered admission: track fleet residency across the hierarchy and
    // the prefetch policy that schedules restores.
    let tiers: Option<TieredKvManager> = match cfg.admission {
        AdmissionPolicy::RejectOnly => None,
        AdmissionPolicy::Tiered { prefetch } => {
            let mgr = TieredKvManager::for_system(&sys, &model);
            Some(if prefetch.is_cluster() {
                // Cluster-granular cold-data movement: clusters are the
                // method's contiguous fetch chunk, and the WiCSum-hot
                // prefix protected from first-pass spill is the
                // prefill-stage selection ratio (the share of clusters
                // a frame step actually touches).
                let profile = sys.method.profile();
                mgr.with_cluster_mode(profile.fetch_chunk_bytes, sys.method.ratio(false))
            } else {
                mgr
            })
        }
    };
    let prefetch: Box<dyn PrefetchPolicy> = match cfg.admission {
        AdmissionPolicy::Tiered { prefetch } => prefetch.policy(),
        AdmissionPolicy::RejectOnly => Box::new(NoPrefetch),
    };
    let max_wait_ps = seconds_to_ps(cfg.max_wait_s);
    let frame_interval_ps = seconds_to_ps(1.0 / cfg.fps);
    // The event queue holds one wake-up per *live concern* (armed
    // arrival, unexpired patience, pending head item, in-flight
    // batch), not one per fleet member: pre-size it for a bounded
    // slice of the fleet hint so 10⁶-session runs don't allocate a
    // fleet-sized heap up front.
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
        events: EventQueue::new(cfg.queue, hint.clamp(16, 4096)),
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
        res: cfg.overlap.then(Resources::new),
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

impl Sched<'_> {
    fn trace_event(&mut self, kind: TraceKind) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.push(TraceEvent { ps: self.now, kind });
        }
    }

    fn push_event(&mut self, e: Event) {
        self.events.push(e);
        self.counters.queue_pushes += 1;
        self.counters.queue_peak = self.counters.queue_peak.max(self.events.len());
    }

    fn count_event(&mut self, kind: &EventKind) {
        match kind {
            EventKind::Arrival(_) => self.counters.arrival_events += 1,
            EventKind::Patience(_) => self.counters.patience_events += 1,
            EventKind::WorkReady(_) => self.counters.work_ready_events += 1,
            EventKind::StepComplete(_) => self.counters.step_complete_events += 1,
        }
    }

    /// Pulls the next plan from the source and arms its arrival event.
    /// Exactly one arrival is ever armed; the chain keeps the fleet
    /// tail inside the source.
    fn pull_next_plan(&mut self) {
        debug_assert!(self.next_plan.is_none(), "one armed arrival at a time");
        if let Some(plan) = self.source.next_plan() {
            self.offered += 1;
            self.push_event(Event {
                ps: plan.arrival_ps,
                kind: EventKind::Arrival(plan.id),
            });
            self.next_plan = Some(plan);
        }
    }

    /// The armed arrival fired: move its plan into `pending`, arm its
    /// patience deadline (a patience event always lands at or after the
    /// arrival that spawns it, so lazy insertion cannot reorder the
    /// queue), precompute the fit-check inputs, and arm the next plan.
    fn plan_arrived(&mut self) {
        // vrex-lint: allow(panicking-seam) — an Arrival event is only armed together with its plan; firing without one is a corrupted event queue.
        let plan = self.next_plan.take().expect("armed arrival owns a plan");
        debug_assert!(
            plan.arrival_ps <= self.now,
            "arrivals fire at their instant"
        );
        let deadline_ps = plan.arrival_ps.saturating_add(self.max_wait_ps);
        self.push_event(Event {
            ps: deadline_ps,
            kind: EventKind::Patience(plan.id),
        });
        let proj_cache_tokens = projected_cache(&plan, self.cfg, &self.model);
        let demand_bytes = self
            .sys
            .resident_demand_bytes(&self.model, proj_cache_tokens);
        self.pending.push(PendingSession {
            plan,
            refused: false,
            proj_cache_tokens,
            demand_bytes,
            deadline_ps,
        });
        self.counters.pending_peak = self.counters.pending_peak.max(self.pending.len());
        self.pull_next_plan();
    }

    /// Pops every event at or before `now`, materializing arrivals into
    /// `pending`, maintaining the ready set from `WorkReady` firings,
    /// and applying same-instant batch completions. Patience entries
    /// carry no state of their own (the admission pass re-derives
    /// everything from `now`), so they simply drain.
    fn drain_past_events(&mut self) {
        while self.events.peek_ps().is_some_and(|ps| ps <= self.now) {
            // vrex-lint: allow(panicking-seam) — pop follows the successful peek in the same loop iteration; the queue cannot empty in between.
            let e = self.events.pop().expect("peeked event exists");
            self.count_event(&e.kind);
            match e.kind {
                EventKind::Arrival(_) => self.plan_arrived(),
                EventKind::WorkReady(id) => self.mark_ready_by_id(id),
                EventKind::StepComplete(slot) => {
                    debug_assert!(self.cfg.overlap, "serialized runs never launch batches");
                    self.apply_completion(slot);
                }
                EventKind::Patience(_) => {}
            }
        }
    }

    fn mark_ready_by_id(&mut self, id: usize) {
        // Stale wake-ups for retired sessions miss the map and drain
        // harmlessly.
        if let Some(&slot) = self.by_id.get(&id) {
            self.mark_ready(slot, self.now);
        }
    }

    /// Adds `slot` to the ready set if its head is available at `now`
    /// and it is not in flight (no-op otherwise, so stale wake-ups are
    /// harmless).
    fn mark_ready(&mut self, slot: usize, now: u64) {
        let s = live(&self.slab, slot);
        if s.ready || s.in_flight {
            return;
        }
        if let Some((avail, k)) = s.head() {
            if avail <= now {
                let seq = s.seq;
                live_mut(&mut self.slab, slot).ready = true;
                self.ready[k as usize].insert((seq, slot));
            }
        }
    }

    /// Removes `slot` from the ready set (no-op if absent).
    fn unmark_ready(&mut self, slot: usize) {
        let s = live(&self.slab, slot);
        if s.ready {
            // vrex-lint: allow(panicking-seam) — the ready flag implies a head item; that is the ready-set invariant checked by check_ready_invariant.
            let (_, k) = s.head().expect("ready stream has a head");
            let seq = s.seq;
            live_mut(&mut self.slab, slot).ready = false;
            self.ready[k as usize].remove(&(seq, slot));
        }
    }

    fn ready_total(&self) -> usize {
        self.ready.iter().map(BTreeSet::len).sum()
    }

    /// Asserts the incremental ready sets equal the full rescan (debug
    /// builds; the satellite equivalence check).
    #[cfg(debug_assertions)]
    fn check_ready_invariant(&self) {
        let mut expect: [BTreeSet<(u64, usize)>; 3] = Default::default();
        for (slot, entry) in self.slab.iter().enumerate() {
            let Some(s) = entry else { continue };
            let want = !s.in_flight && s.head().is_some_and(|(a, _)| a <= self.now);
            assert_eq!(
                s.ready, want,
                "ready flag diverged from the rescan for session {} at {}",
                s.id, self.now
            );
            if s.ready {
                // vrex-lint: allow(panicking-seam) — debug-only rescan; `ready` implies a head by the very invariant this function asserts.
                expect[s.head().expect("ready head").1 as usize].insert((s.seq, slot));
            }
        }
        assert_eq!(
            expect, self.ready,
            "ready sets diverged from the rescan at {}",
            self.now
        );
    }

    #[cfg(not(debug_assertions))]
    fn check_ready_invariant(&self) {}

    /// Max projected cache over the active fleet, from the incremental
    /// multiset.
    fn fleet_proj_max(&self) -> usize {
        self.proj_multiset
            .last_key_value()
            .map_or(0, |(&proj, _)| proj)
    }

    /// Asserts the incremental admission aggregates equal the full
    /// fleet rescan they replaced (debug builds).
    #[cfg(debug_assertions)]
    fn check_fleet_aggregates(&self) {
        let live_streams = || self.slab.iter().flatten();
        assert_eq!(
            live_streams().count(),
            self.active_count,
            "active count diverged from the slab"
        );
        assert_eq!(
            live_streams()
                .map(|s| s.projected_cache_tokens)
                .max()
                .unwrap_or(0),
            self.fleet_proj_max(),
            "projected-cache multiset diverged from the rescan at {}",
            self.now
        );
        assert_eq!(
            live_streams()
                .map(|s| s.projected_demand_bytes)
                .sum::<u64>(),
            self.fleet_demand_bytes,
            "fleet demand aggregate diverged from the rescan at {}",
            self.now
        );
    }

    #[cfg(not(debug_assertions))]
    fn check_fleet_aggregates(&self) {}

    /// Places an admitted stream on the slab, assigns its admission
    /// sequence number, and folds it into the fleet aggregates.
    fn insert_stream(&mut self, mut stream: Stream, demand_bytes: u64) -> usize {
        stream.seq = self.next_seq;
        self.next_seq += 1;
        stream.projected_demand_bytes = demand_bytes;
        *self
            .proj_multiset
            .entry(stream.projected_cache_tokens)
            .or_insert(0) += 1;
        self.fleet_demand_bytes += demand_bytes;
        let slot = match self.free_slots.pop() {
            Some(slot) => slot,
            None => {
                self.slab.push(None);
                self.slab.len() - 1
            }
        };
        self.by_id.insert(stream.id, slot);
        self.slab[slot] = Some(stream);
        self.active_count += 1;
        self.counters.active_peak = self.counters.active_peak.max(self.active_count);
        slot
    }

    /// Retires the stream in `slot`: frees the slot and subtracts it
    /// from the fleet aggregates.
    fn remove_stream(&mut self, slot: usize) -> Stream {
        // vrex-lint: allow(panicking-seam) — retirement targets members of the batch that just completed; their slots are live by construction.
        let s = self.slab[slot].take().expect("live slab slot");
        debug_assert!(!s.ready && !s.in_flight, "retiring stream left the sets");
        self.by_id.remove(&s.id);
        self.free_slots.push(slot);
        self.active_count -= 1;
        match self.proj_multiset.entry(s.projected_cache_tokens) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                *e.get_mut() -= 1;
                if *e.get() == 0 {
                    e.remove();
                }
            }
            std::collections::btree_map::Entry::Vacant(_) => {
                // vrex-lint: allow(panicking-seam) — every live stream was counted into the multiset at admission; a vacant entry means the aggregates diverged.
                unreachable!("every live stream is in the projection multiset")
            }
        }
        self.fleet_demand_bytes -= s.projected_demand_bytes;
        s
    }

    /// Runs the admission pass if anything could have changed it:
    /// admission work only appears when a session arrives, a waiter's
    /// deadline passes, or memory frees on retirement. Between those
    /// triggers the pass is a provable no-op, so the loop skips it:
    /// `admission_dirty` flags retirements (and the start), and the two
    /// `next_*` thresholds catch `now` jumping over an arrival or a
    /// deadline mid-batch.
    fn maybe_admission_pass(&mut self) {
        if !(self.admission_dirty
            || self.now >= self.next_arrival_ps
            || self.now >= self.next_deadline_ps)
        {
            return;
        }
        self.admission_dirty = false;
        self.counters.admission_passes += 1;
        let now = self.now;
        let mut i = 0;
        let mut head_blocked = false;
        // The fit checks read the incrementally maintained fleet
        // aggregates (max projected cache, summed projected demand):
        // the aggregates change only when this very pass admits
        // someone, and `insert_stream` folds each admission in, so no
        // fleet rescan happens per waiter (or at all).
        while i < self.pending.len() {
            // `pending` holds only arrived sessions: the event drain
            // materializes each arrival at its instant.
            debug_assert!(
                self.pending[i].plan.arrival_ps <= now,
                "pending implies arrived"
            );
            self.counters.admission_checks += 1;
            let proj = self.pending[i].proj_cache_tokens;
            let demand = self.pending[i].demand_bytes;
            let deadline_ps = self.pending[i].deadline_ps;
            // Reject-only admission asks "does the device survive?";
            // tiered admission asks the same of the whole hierarchy.
            let (never_fits, fits_now) = match &self.tiers {
                None => (
                    self.sys.is_oom(&self.model, proj, 1),
                    !self.sys.is_oom(
                        &self.model,
                        self.fleet_proj_max().max(proj),
                        self.active_count + 1,
                    ),
                ),
                Some(mgr) => (
                    demand > mgr.total_capacity_bytes(),
                    self.fleet_demand_bytes + demand <= mgr.total_capacity_bytes(),
                ),
            };
            if never_fits {
                // Will never fit, even alone: reject outright.
                let p = self.pending.remove(i);
                self.reports
                    .push(rejected_report(&p.plan, now - p.plan.arrival_ps));
                continue;
            }
            if fits_now && !head_blocked {
                let p = self.pending.remove(i);
                let mut stream =
                    Stream::admit(&p.plan, self.cfg, &self.model, self.frame_interval_ps, now);
                stream.memory_waited = p.refused;
                if let Some(mgr) = self.tiers.as_mut() {
                    mgr.admit(
                        stream.id,
                        self.sys
                            .resident_demand_bytes(&self.model, stream.cache_tokens),
                        now,
                    );
                }
                if stream.items.is_empty() {
                    // Degenerate plan with no events: admit and retire
                    // on the spot so it still appears in the report.
                    if let Some(mgr) = self.tiers.as_mut() {
                        stream.spilled = mgr.was_ever_spilled(stream.id);
                        mgr.release(stream.id);
                    }
                    self.reports.push(stream.into_report(self.real_time_bar_ps));
                } else {
                    // Wake the scheduler when the head item becomes
                    // available; each later item registers its own
                    // wake-up when it reaches the head (the batch
                    // completion path), keeping the queue at
                    // O(streams + pending + in-flight).
                    if let Some((avail, _)) = stream.head() {
                        if avail > now {
                            self.push_event(Event {
                                ps: avail,
                                kind: EventKind::WorkReady(stream.id),
                            });
                        }
                    }
                    let slot = self.insert_stream(stream, demand);
                    self.mark_ready(slot, now);
                }
                continue;
            }
            // Cannot admit now: memory pressure (or FIFO order behind
            // someone waiting on memory).
            self.pending[i].refused = true;
            // The deadline is one exact integer comparison against the
            // same `arrival + max_wait` the patience event carries —
            // the two-float-roundings livelock PR 3 fixed cannot be
            // re-introduced by construction.
            if now >= deadline_ps {
                let p = self.pending.remove(i);
                self.reports
                    .push(rejected_report(&p.plan, now - p.plan.arrival_ps));
                continue;
            }
            head_blocked = true;
            i += 1;
        }
        // Thresholds for skipping the pass until admission state can
        // change again: the armed (first not-yet-arrived) session's
        // arrival and the earliest waiter's deadline.
        self.next_arrival_ps = self
            .next_plan
            .as_ref()
            .map_or(u64::MAX, |plan| plan.arrival_ps);
        self.next_deadline_ps = self
            .pending
            .iter()
            .map(|p| p.deadline_ps)
            .min()
            .unwrap_or(u64::MAX);
        self.check_fleet_aggregates();
        // Admissions may have spilled colder streams: route the decided
        // migrations to the link (overlapped) or drop them (serialized
        // writebacks stream behind compute by assumption).
        self.flush_migrations();
    }

    /// The batching class with the most ready streams. Later entries
    /// win ties, so the real-time-critical frame path beats questions,
    /// which beat decodes.
    fn choose_kind(&self) -> Kind {
        let mut kind = Kind::Decode;
        for k in [Kind::Question, Kind::Frame] {
            if self.ready[k as usize].len() >= self.ready[kind as usize].len() {
                kind = k;
            }
        }
        kind
    }

    /// Fills `members` with the ready slots of `kind`. The set is keyed
    /// `(seq, slot)`, so ascending iteration yields admission order —
    /// the order the historical active-vector scan produced.
    fn gather_members(&mut self, kind: Kind) {
        self.members.clear();
        self.members
            .extend(self.ready[kind as usize].iter().map(|&(_, slot)| slot));
    }

    /// Prices the batch over `members` at its worst-case cache length
    /// (one memoized lookup per repeated shape per context).
    fn price_step(&mut self, kind: Kind, ctx: ExecContext) -> StepResult {
        let batch = self.members.len();
        let max_cache = self
            .members
            .iter()
            .map(|&slot| live(&self.slab, slot).cache_tokens)
            .max()
            // vrex-lint: allow(panicking-seam) — batch formation never emits an empty batch.
            .expect("non-empty batch");
        match kind {
            Kind::Frame => self.prices.frame_step_in(ctx, max_cache, batch),
            Kind::Question => {
                let max_tokens = self
                    .members
                    .iter()
                    .map(|&slot| match live(&self.slab, slot).items.front() {
                        Some(Work::Question { tokens, .. }) => *tokens,
                        // vrex-lint: allow(panicking-seam) — single-pass formation groups members by head kind; a mixed batch is a formation bug.
                        _ => unreachable!("batch members share the head kind"),
                    })
                    .max()
                    // vrex-lint: allow(panicking-seam) — batch formation never emits an empty batch.
                    .expect("non-empty batch");
                self.prices
                    .question_step_in(ctx, max_cache, batch, max_tokens)
            }
            Kind::Decode => self.prices.decode_step_in(ctx, max_cache, batch),
        }
    }

    /// Serialized tier-miss pricing: spilled members must restore the
    /// selected share of their spilled KV before attending. A restore
    /// can be in flight from the moment the work item became visible
    /// (its ready time) and pipelines with the step's own
    /// layer-by-layer compute; speculative prefetch hides up to that
    /// window, demand fetching hides nothing. All members share ONE
    /// PCIe link, so each restore — hidden or not — consumes link time
    /// that shrinks what later members' prefetches can hide
    /// (`link_busy_ps`), and the exposed remainders serialise onto the
    /// step.
    fn serialized_restore_penalty(&mut self, kind: Kind, step: &StepResult) -> u64 {
        let batch = self.members.len();
        let mut penalty_ps = 0u64;
        let Some(mgr) = self.tiers.as_mut() else {
            return 0;
        };
        if !mgr.any_spilled_bytes() {
            // Everything is device-resident: each member is a tier
            // hit with no restore, skip the per-member pricing.
            mgr.record_all_hot_steps(batch as u64);
            return 0;
        }
        let generation = kind == Kind::Decode;
        let ratio = self.sys.method.ratio(generation);
        let mut link_busy_ps = 0u64;
        for k in 0..batch {
            let s = live(&self.slab, self.members[k]);
            let ready_ps = s
                .head_avail_ps()
                // vrex-lint: allow(panicking-seam) — members were drawn from the ready set, so each has a head work item.
                .expect("batch member has a head item")
                .max(s.last_completion_ps);
            let window_ps = ((self.now - ready_ps) + step.latency_ps).saturating_sub(link_busy_ps);
            let restore =
                mgr.step_restore(s.id, ratio, generation, window_ps, self.prefetch.as_ref());
            link_busy_ps += restore.miss_ps;
            penalty_ps += restore.exposed_ps;
            self.counters.spec_clusters += restore.spec_clusters;
            self.counters.demand_clusters += restore.demand_clusters;
            self.counters.mispredicted_clusters += restore.mispredicted_clusters;
            self.counters.spec_restore_bytes += restore.spec_bytes;
            self.counters.demand_restore_bytes += restore.demand_bytes;
        }
        // The batch completes as one unit: every member's critical
        // path is stretched by the batch's total exposed restore
        // time, including co-members' restores.
        if penalty_ps > 0 {
            for k in 0..batch {
                let slot = self.members[k];
                live_mut(&mut self.slab, slot).tier_exposed_ps += penalty_ps;
            }
        }
        penalty_ps
    }

    /// Completes one work item per batch member at `completion`,
    /// updates the ready set, applies tier growth, retires drained
    /// sessions, and routes any decided migrations. Shared by both
    /// drivers — the serialized one calls it inline, the overlapped
    /// one from the batch's `StepComplete` event.
    fn apply_batch(&mut self, completion: u64) {
        self.growths.clear();
        let tiered = self.tiers.is_some();
        for k in 0..self.members.len() {
            let slot = self.members[k];
            // The head is consumed: leave the ready set (serialized
            // members are still flagged; overlapped members left it at
            // formation) and clear the in-flight mark.
            self.unmark_ready(slot);
            live_mut(&mut self.slab, slot).in_flight = false;
            let demand_before = if tiered {
                self.sys
                    .resident_demand_bytes(&self.model, live(&self.slab, slot).cache_tokens)
            } else {
                0
            };
            let s = live_mut(&mut self.slab, slot);
            // vrex-lint: allow(panicking-seam) — members were drawn from the ready set, so the queue has a front item to pop.
            match s.items.pop_front().expect("ready stream has a head") {
                Work::Frame { avail_ps } => {
                    s.frames.record(avail_ps, completion);
                    s.cache_tokens += self.model.tokens_per_frame;
                }
                Work::Question { avail_ps, tokens } => {
                    s.question_asked_ps = avail_ps;
                    s.cache_tokens += tokens;
                }
                Work::Decode { first } => {
                    if first {
                        s.ttft_ps.push(completion - s.question_asked_ps);
                    } else {
                        s.tpot_ps.push(completion - s.last_token_completion_ps);
                    }
                    s.last_token_completion_ps = completion;
                    s.cache_tokens += 1;
                }
            }
            s.last_completion_ps = completion;
            let id = s.id;
            // The next item is now the head; if it only becomes
            // available after this batch's completion pass, register
            // its wake-up (otherwise the pass at `completion` already
            // sees it ready).
            let next_avail = s.head().map(|(avail, _)| avail);
            if let Some(avail) = next_avail {
                if avail > completion {
                    self.push_event(Event {
                        ps: avail,
                        kind: EventKind::WorkReady(id),
                    });
                }
            }
            self.mark_ready(slot, completion);
            if tiered {
                let growth = self
                    .sys
                    .resident_demand_bytes(&self.model, live(&self.slab, slot).cache_tokens)
                    .saturating_sub(demand_before);
                self.growths.push((id, growth));
            }
        }
        if let Some(mgr) = self.tiers.as_mut() {
            // Mark every batch member hot *before* applying growth:
            // growth spills the coldest stream, and a member of this
            // very batch must never be the victim of a co-member's
            // growth just because its touch had not landed yet.
            for &(id, _) in &self.growths {
                mgr.touch(id, completion);
            }
            // New KV lands in device memory, possibly spilling colder
            // (non-member) streams.
            for &(id, growth) in &self.growths {
                if growth > 0 {
                    mgr.grow(id, growth, completion);
                }
            }
        }

        // Retire finished sessions (freeing their memory). Only a
        // batch member can have drained its queue, so the scan walks
        // the members, not the whole fleet; it runs back-to-front with
        // a stack flip below so reports publish in the same ascending
        // order the historical vector removal produced.
        for k in (0..self.members.len()).rev() {
            let slot = self.members[k];
            if live(&self.slab, slot).items.is_empty() {
                let mut s = self.remove_stream(slot);
                if let Some(mgr) = self.tiers.as_mut() {
                    s.spilled = mgr.was_ever_spilled(s.id);
                    mgr.release(s.id);
                }
                self.retired.push(s.into_report(self.real_time_bar_ps));
                // Freed memory can admit a waiter: re-run the pass.
                self.admission_dirty = true;
            }
        }
        // Back-to-front removal collected reports in descending id
        // order; publish them ascending like the fleet scan did.
        while let Some(r) = self.retired.pop() {
            self.reports.push(r);
        }
        // Growth spills / retirement promotions became migration
        // decisions: schedule their writebacks (overlapped) or drop
        // them (serialized).
        self.flush_migrations();
    }

    /// Routes migrations the residency policy decided on. Under the
    /// resource timeline every spill/promotion becomes a
    /// lowest-priority link task (appended after all current
    /// reservations — writebacks stream behind latency-critical
    /// traffic) with its source/destination channel leg mirrored on
    /// the `ssd`/`host-dram` resources; serialized execution keeps the
    /// PR 3 assumption that writebacks stream behind compute for free.
    fn flush_migrations(&mut self) {
        let Some(mgr) = self.tiers.as_mut() else {
            return;
        };
        if !mgr.has_pending_migrations() {
            return;
        }
        // Drain into the reused buffer (capacity survives across
        // flushes; no per-flush allocation).
        let mut migrations = std::mem::take(&mut self.migrations);
        mgr.drain_migrations_into(&mut migrations);
        if let Some(res) = self.res.as_mut() {
            for m in migrations.drain(..) {
                let dur = mgr.migration_price_ps(m.from, m.to, m.bytes);
                if dur == 0 {
                    continue;
                }
                // Demotions ride the down lane; promotions move bytes up
                // but go behind every current up-lane reservation (lowest
                // priority), so latency-critical restores keep their
                // earliest fits. Either way a writeback decided *now*
                // cannot start in the simulated past: the start is floored
                // at `max(now, lane frontier)`.
                let demotion = m.to > m.from;
                let (tag, lane) = if demotion {
                    ("spill", res.pcie_down)
                } else {
                    ("promote", res.pcie)
                };
                let earliest = self.now.max(res.engine.next_free(lane));
                let t = res
                    .engine
                    .schedule_after(lane, earliest, dur, &[], tag, m.bytes);
                let start = res.engine.start_of(t);
                for tier in [m.from, m.to] {
                    match tier {
                        MemTier::Host => {
                            res.engine.reserve_after(res.host, start, dur, tag, m.bytes);
                        }
                        MemTier::Ssd => {
                            res.engine.reserve_after(res.ssd, start, dur, tag, m.bytes);
                        }
                        MemTier::Device => {}
                    }
                }
                // Restores of these bytes cannot begin before the demotion
                // writeback lands below the device tier.
                if demotion {
                    if let Some(&slot) = self.by_id.get(&m.session) {
                        let s = live_mut(&mut self.slab, slot);
                        s.spill_visible_ps = s.spill_visible_ps.max(res.engine.end_of(t));
                    }
                }
            }
        } else {
            // Serialized: decided, not scheduled.
            migrations.clear();
        }
        self.migrations = migrations;
    }

    /// The batched same-instant drain: pops the next future event,
    /// advances the clock to it, applies it — tracing it, while the
    /// same-instant siblings drained right after stay untraced, exactly
    /// the historical trace stream — then applies **every** remaining
    /// event sharing that picosecond. The admission pass that follows
    /// therefore runs once per *instant*, never once per event; the
    /// closing debug assert checks the pass covers the whole instant.
    /// Returns `false` when the queue is empty (the run is done).
    fn advance_and_drain_instant(&mut self) -> bool {
        let Some(e) = self.events.pop() else {
            return false;
        };
        debug_assert!(e.ps > self.now, "drained queue only holds the future");
        self.now = e.ps;
        self.count_event(&e.kind);
        match e.kind {
            EventKind::Arrival(_) => {
                self.plan_arrived();
                self.trace_event(TraceKind::Arrival);
            }
            EventKind::Patience(_) => self.trace_event(TraceKind::Patience),
            EventKind::WorkReady(id) => {
                self.mark_ready_by_id(id);
                self.trace_event(TraceKind::WorkReady);
            }
            EventKind::StepComplete(slot) => {
                debug_assert!(self.cfg.overlap, "serialized runs never launch batches");
                self.apply_completion(slot);
            }
        }
        self.drain_past_events();
        debug_assert!(
            self.events.peek_ps().is_none_or(|ps| ps > self.now),
            "batched drain left a same-instant event behind"
        );
        true
    }

    /// The serialized driver: batch-level blocking execution,
    /// byte-identical to the pre-resource-timeline scheduler (pinned by
    /// the golden-trace regression and the `tier_capacity` stdout).
    fn run_serialized(&mut self) {
        // Events already due at t = 0 (zero-offset arrivals) apply
        // before the first admission pass.
        self.drain_past_events();
        loop {
            self.maybe_admission_pass();
            self.check_ready_invariant();

            if self.ready_total() == 0 {
                // Idle: advance to the next wake-up strictly after
                // `now` and drain its whole instant in one batch.
                if !self.advance_and_drain_instant() {
                    break; // nothing active, nothing pending: done
                }
                continue;
            }

            // Form the batch and execute it as one blocking unit.
            let kind = self.choose_kind();
            self.gather_members(kind);
            self.counters.batches_formed += 1;
            self.counters.batch_members += self.members.len() as u64;
            let step = self.price_step(kind, ExecContext::Serialized);
            let penalty_ps = self.serialized_restore_penalty(kind, &step);
            let completion = self.now + step.latency_ps + penalty_ps;
            self.now = completion;
            self.trace_event(TraceKind::StepComplete);
            self.makespan_ps = self.makespan_ps.max(completion);
            self.apply_batch(completion);
            // The jump to `completion` may have passed arrivals,
            // patience deadlines, and wake-ups: apply them all before
            // the next admission pass runs.
            self.drain_past_events();
        }
    }

    /// The resource-timeline driver: batches launch as task sets on
    /// the engine's resources and complete at their `StepComplete`
    /// events, so up to [`MAX_IN_FLIGHT`] batches overlap and link
    /// traffic genuinely contends.
    fn run_overlapped(&mut self) {
        self.drain_past_events();
        loop {
            self.maybe_admission_pass();
            self.check_ready_invariant();

            if self.ready_total() > 0 && self.inflight_count < MAX_IN_FLIGHT {
                self.launch_batch();
                // A completion landing at the launch instant must
                // apply before the next admission pass.
                self.drain_past_events();
                continue;
            }
            if !self.advance_and_drain_instant() {
                debug_assert_eq!(self.inflight_count, 0, "in-flight batch without an event");
                break;
            }
        }
    }

    /// Forms one batch at `now` and schedules its execution on the
    /// resource timeline:
    ///
    /// * each spilled member's restore becomes PCIe-link reservations —
    ///   the speculated share ([`RestorePlan::coverage`]) may claim
    ///   link idle time from the moment the work item became visible
    ///   (earliest-fit, possibly before `now`), the mispredicted
    ///   remainder is demand-fetched from formation — with the
    ///   host/SSD leg mirrored on the source channel;
    /// * batch compute appends FIFO on the `compute` resource;
    /// * the step's own cold-KV fetch traffic occupies the link for
    ///   `fetch_ps` from the compute start, queueing behind restores —
    ///   the restore-vs-fetch contention the serialized model folds
    ///   away.
    ///
    /// The batch completes at the max of its task end times; restore
    /// time beyond the compute/fetch horizon is the exposed remainder
    /// charged to the members (and to [`TierReport::exposed_s`]).
    fn launch_batch(&mut self) {
        let kind = self.choose_kind();
        self.gather_members(kind);
        self.counters.batches_formed += 1;
        self.counters.batch_members += self.members.len() as u64;
        let batch = self.members.len();
        let step = self.price_step(kind, ExecContext::Overlapped);
        let generation = kind == Kind::Decode;
        let ratio = self.sys.method.ratio(generation);

        // Restores first: latency-critical link reservations grab the
        // earliest fits before this batch's own fetch traffic lands.
        // The slot vector is reused across launches.
        let mut restores = std::mem::take(&mut self.restores);
        restores.clear();
        restores.resize(batch, None);
        if let Some(mgr) = self.tiers.as_mut() {
            if !mgr.any_spilled_bytes() {
                mgr.record_all_hot_steps(batch as u64);
            } else {
                // vrex-lint: allow(panicking-seam) — the overlapped driver constructs its Engine at serve start; this branch only runs overlapped.
                let res = self.res.as_mut().expect("overlapped runs own resources");
                for (k, rslot) in restores.iter_mut().enumerate() {
                    let s = live(&self.slab, self.members[k]);
                    let plan = mgr.plan_restore(s.id, ratio, generation, self.prefetch.as_ref());
                    if plan.miss_ps() == 0 {
                        mgr.commit_restore(&plan, 0, 0);
                        continue;
                    }
                    // The prefetch can issue when the work item became
                    // visible — but never before the bytes it restores
                    // were actually spilled below the device
                    // (`spill_visible_ps`: causality, not optimism).
                    let ready_ps = s
                        .head_avail_ps()
                        // vrex-lint: allow(panicking-seam) — members were drawn from the ready set, so each has a head work item.
                        .expect("batch member has a head item")
                        .max(s.last_completion_ps)
                        .max(s.spill_visible_ps);
                    let (spec_ps, spec_bytes) = if plan.cluster {
                        // Cluster plans partition the restore into
                        // exact byte sets — the speculated share is
                        // integer byte math, no float knob.
                        let spec_ps = if plan.bytes() == 0 {
                            0
                        } else {
                            (plan.miss_ps() as u128 * plan.spec_bytes as u128
                                / plan.bytes() as u128) as u64
                        };
                        (spec_ps, plan.spec_bytes)
                    } else {
                        // vrex-lint: allow(float-time) — the speculated share of a restore is a float coverage knob, floored to integer ps here before any scheduling math.
                        let spec_ps = (plan.miss_ps() as f64 * plan.coverage) as u64;
                        let spec_bytes = (plan.bytes() as f64 * plan.coverage) as u64;
                        (spec_ps, spec_bytes)
                    };
                    let demand_ps = plan.miss_ps() - spec_ps;
                    let demand_earliest = self.now.max(s.spill_visible_ps);
                    let mut first_start = u64::MAX;
                    let mut end = self.now;
                    let mut dep: Option<TaskId> = None;
                    if spec_ps > 0 {
                        let t = res.engine.reserve_after(
                            res.pcie,
                            ready_ps,
                            spec_ps,
                            "restore:prefetch",
                            spec_bytes,
                        );
                        first_start = first_start.min(res.engine.start_of(t));
                        end = res.engine.end_of(t);
                        dep = Some(t);
                    }
                    if demand_ps > 0 {
                        // Borrow the single optional dependency in
                        // place instead of collecting a one-element
                        // `Vec` per demand fetch.
                        let deps = dep.as_slice();
                        let t = res.engine.schedule_after(
                            res.pcie,
                            demand_earliest,
                            demand_ps,
                            deps,
                            "restore:demand",
                            plan.bytes() - spec_bytes,
                        );
                        first_start = first_start.min(res.engine.start_of(t));
                        end = res.engine.end_of(t);
                    }
                    // Mirror the source-channel legs for the
                    // bandwidth-timeline view (placed at the earliest
                    // fit from the restore's first link reservation).
                    if plan.host_ps > 0 {
                        res.engine.reserve_after(
                            res.host,
                            first_start,
                            plan.host_ps,
                            "restore",
                            plan.host_bytes,
                        );
                    }
                    if plan.ssd_ps > 0 {
                        res.engine.reserve_after(
                            res.ssd,
                            first_start,
                            plan.ssd_ps,
                            "restore",
                            plan.ssd_bytes,
                        );
                    }
                    *rslot = Some((plan, end));
                }
            }
        }

        // Batch compute: FIFO on the compute resource. The step's own
        // cold-KV fetch pipelines with compute layer by layer, but its
        // link occupancy is real: it queues behind restore traffic on
        // the shared PCIe resource.
        // vrex-lint: allow(panicking-seam) — the overlapped driver constructs its Engine at serve start; launch_batch is only called overlapped.
        let res = self.res.as_mut().expect("overlapped runs own resources");
        let tag = match kind {
            Kind::Frame => "frame",
            Kind::Question => "question",
            Kind::Decode => "decode",
        };
        let compute_t =
            res.engine
                .schedule_after(res.compute, self.now, step.latency_ps, &[], tag, 0);
        let compute_start = res.engine.start_of(compute_t);
        let mut horizon = res.engine.end_of(compute_t);
        if step.fetch_ps > 0 {
            let fetch_t = res.engine.schedule_after(
                res.pcie,
                compute_start,
                step.fetch_ps,
                &[],
                "fetch",
                step.fetch_bytes,
            );
            horizon = horizon.max(res.engine.end_of(fetch_t));
        }

        // Completion = max over compute, fetch, and member restores;
        // restore time beyond the compute/fetch horizon is exposed.
        let mut completion = horizon;
        for r in restores.iter().flatten() {
            completion = completion.max(r.1);
        }
        if let Some(mgr) = self.tiers.as_mut() {
            for r in restores.iter().flatten() {
                let (plan, end) = r;
                let exposed = end.saturating_sub(horizon).min(plan.miss_ps());
                mgr.commit_restore(plan, plan.miss_ps() - exposed, exposed);
                self.counters.spec_clusters += plan.spec_clusters;
                self.counters.demand_clusters += plan.demand_clusters;
                self.counters.mispredicted_clusters += plan.mispredicted_clusters;
                self.counters.spec_restore_bytes += plan.spec_bytes;
                self.counters.demand_restore_bytes += plan.demand_bytes;
            }
        }
        let penalty = completion - horizon;
        if penalty > 0 {
            // The batch completes as one unit: every member's critical
            // path is stretched by the slowest exposed restore.
            for k in 0..batch {
                let slot = self.members[k];
                live_mut(&mut self.slab, slot).tier_exposed_ps += penalty;
            }
        }
        self.restores = restores;

        // Members leave the ready set and go in flight; the completion
        // event applies their effects. Member-id vectors are recycled
        // through `ids_pool` (the completion path returns them).
        let mut ids = self.ids_pool.pop().unwrap_or_default();
        ids.clear();
        ids.reserve(batch);
        for k in 0..batch {
            let slot = self.members[k];
            self.unmark_ready(slot);
            let s = live_mut(&mut self.slab, slot);
            s.in_flight = true;
            ids.push(s.id);
        }
        let slot = match self.inflight.iter().position(Option::is_none) {
            Some(s) => s,
            None => {
                self.inflight.push(None);
                self.inflight.len() - 1
            }
        };
        self.inflight[slot] = Some(InFlight {
            ids,
            completion_ps: completion,
        });
        self.inflight_count += 1;
        self.push_event(Event {
            ps: completion,
            kind: EventKind::StepComplete(slot),
        });
    }

    /// Applies an in-flight batch's effects at its completion instant.
    fn apply_completion(&mut self, slot: usize) {
        let InFlight { ids, completion_ps } =
            // vrex-lint: allow(panicking-seam) — in-flight slots are filled at launch and freed exactly once at completion; the StepComplete event carries the live slot.
            self.inflight[slot].take().expect("live in-flight batch");
        self.inflight_count -= 1;
        debug_assert_eq!(completion_ps, self.now, "completion fires at its instant");
        // Resolve ids back to slab slots in formation order (slots are
        // stable, so this is one map hit per member, not a fleet scan).
        self.members.clear();
        for id in &ids {
            // vrex-lint: allow(panicking-seam) — a stream cannot retire while its batch is in flight, so its id stays in the map until completion applies.
            let member = *self.by_id.get(id).expect("in-flight stream stays active");
            self.members.push(member);
        }
        self.ids_pool.push(ids);
        self.trace_event(TraceKind::StepComplete);
        self.makespan_ps = self.makespan_ps.max(completion_ps);
        self.apply_batch(completion_ps);
    }

    /// Fleet aggregation: percentiles over every frame/turn of every
    /// admitted session.
    fn finish(self) -> ServeReport {
        let reports = self.reports;
        let admitted: Vec<&SessionServeReport> = reports
            .iter()
            .filter(|r| r.outcome != SessionOutcome::Rejected)
            .collect();
        // Pre-size the sample pools from the per-session counts so the
        // fleet-wide gather never reallocates mid-extend.
        let mut lag_samples: Vec<f64> =
            Vec::with_capacity(admitted.iter().map(|r| r.frame_lags_s.len()).sum());
        let mut ttft_samples: Vec<f64> =
            Vec::with_capacity(admitted.iter().map(|r| r.ttft_s.len()).sum());
        let mut tpot_samples: Vec<f64> =
            Vec::with_capacity(admitted.iter().map(|r| r.tpot_s.len()).sum());
        for r in &admitted {
            lag_samples.extend_from_slice(&r.frame_lags_s);
            ttft_samples.extend_from_slice(&r.ttft_s);
            tpot_samples.extend_from_slice(&r.tpot_s);
        }
        // One sort per sample set; both percentiles index into it.
        for samples in [&mut lag_samples, &mut ttft_samples, &mut tpot_samples] {
            samples.sort_unstable_by(f64::total_cmp);
        }
        ServeReport {
            offered: self.offered,
            admitted: admitted.len(),
            queued: admitted
                .iter()
                .filter(|r| r.outcome == SessionOutcome::AdmittedAfterWait)
                .count(),
            rejected: reports
                .iter()
                .filter(|r| r.outcome == SessionOutcome::Rejected)
                .count(),
            real_time_sessions: admitted.iter().filter(|r| r.real_time).count(),
            frame_lag_p50_s: percentile_sorted(&lag_samples, 50.0),
            frame_lag_p99_s: percentile_sorted(&lag_samples, 99.0),
            ttft_p50_s: percentile_sorted(&ttft_samples, 50.0),
            ttft_p99_s: percentile_sorted(&ttft_samples, 99.0),
            tpot_p50_s: percentile_sorted(&tpot_samples, 50.0),
            tpot_p99_s: percentile_sorted(&tpot_samples, 99.0),
            makespan_s: ps_to_seconds(self.makespan_ps),
            tiering: self.tiers.map(|mgr| {
                let s = mgr.stats();
                TierReport {
                    spilled_sessions: mgr.ever_spilled_sessions(),
                    spilled_bytes: s.spilled_bytes,
                    promoted_bytes: s.promoted_bytes,
                    restored_bytes: s.restored_bytes,
                    tier_hit_steps: s.tier_hit_steps,
                    tier_miss_steps: s.tier_miss_steps,
                    hidden_s: ps_to_seconds(s.hidden_ps),
                    exposed_s: ps_to_seconds(s.exposed_ps),
                }
            }),
            counters: self.counters,
            sessions: reports,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::PrefetchMode;
    use crate::method::Method;
    use crate::platform::PlatformSpec;
    use vrex_workload::traffic::TrafficConfig;

    fn llama() -> ModelConfig {
        ModelConfig::llama3_8b()
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
            fps: 2.0,
            initial_cache_tokens: 30_000,
            max_wait_s: 0.0,
            admission: AdmissionPolicy::RejectOnly,
            overlap: false,
            queue: QueueKind::Heap,
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
            fps: 2.0,
            initial_cache_tokens: 30_000,
            max_wait_s: 1e6,
            admission: AdmissionPolicy::RejectOnly,
            overlap: false,
            queue: QueueKind::Heap,
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
                ServeConfig::real_time_tiered(8_000).with_overlap(true),
            ] {
                let fresh = serve(&sys, &model, &plans, &cfg);
                let shared = serve_with_cache(&mut cache, &plans, &cfg);
                assert_eq!(fresh, shared);
            }
        }
        assert!(cache.hits() > 0, "sweep reuse must hit the cache");
    }

    #[test]
    fn single_session_fleet_matches_single_session_bar() {
        // One admitted stream with no contention must meet the same
        // real-time verdict the dedicated single-session simulation
        // reaches at the same cache length.
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
            fps: 2.0,
            initial_cache_tokens: 30_000,
            max_wait_s: 0.0,
            admission: AdmissionPolicy::RejectOnly,
            overlap: false,
            queue: QueueKind::Heap,
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
            fps: 2.0,
            initial_cache_tokens: 30_000,
            max_wait_s: 10.0,
            admission: AdmissionPolicy::Tiered { prefetch },
            overlap: false,
            queue: QueueKind::Heap,
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
        let mut platform = PlatformSpec::vrex48();
        platform.mem_capacity /= 2;
        platform.hot_window_tokens = 32_768;
        let sys = SystemModel::new(platform, Method::ReSV);
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
        let cfg = ServeConfig {
            fps: 2.0,
            initial_cache_tokens: 70_000,
            max_wait_s: 10.0,
            admission: AdmissionPolicy::RejectOnly,
            overlap: false,
            queue: QueueKind::Heap,
        };
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
            fps: 2.0,
            initial_cache_tokens: 30_000,
            max_wait_s: 0.0,
            admission: AdmissionPolicy::tiered_speculative(),
            overlap: false,
            queue: QueueKind::Heap,
        };
        let r = serve(&sys, &llama(), &fleet(2, 1, 3.0, 5), &cfg);
        assert_eq!(r.admitted, 0, "nothing fits the whole hierarchy: {r:?}");
        assert_eq!(r.rejected, 2);
    }

    /// FNV-1a over (ps, kind) pairs — the golden-trace fingerprint.
    fn trace_fingerprint(trace: &[TraceEvent]) -> (usize, u64) {
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
            // Both event-core implementations must reproduce the exact
            // pre-refactor trace: the wheel is a drop-in for the heap.
            for qk in [QueueKind::Heap, QueueKind::Wheel] {
                let cfg = cfg.with_queue(qk);
                let (_, trace) = serve_traced(&sys, &model, &plans, &cfg);
                assert_eq!(
                    trace_fingerprint(&trace),
                    (c.len, c.hash),
                    "{} + {:?} ({:?}): serialized trace drifted from the pre-refactor scheduler",
                    c.platform.name,
                    c.method,
                    qk
                );
            }
        }
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

    /// The resource-timeline acceptance pin: on the halved-HBM
    /// V-Rex48 + ReSV headline configuration at 32K tokens (the
    /// `tier_capacity` smoke grid), overlapped execution sustains at
    /// least as many real-time streams as serialized execution at
    /// every fleet size, and strictly more in total.
    #[test]
    fn overlap_capacity_meets_or_beats_serialized_at_the_headline_config() {
        let mut platform = PlatformSpec::vrex48();
        platform.mem_capacity /= 2;
        platform.hot_window_tokens = 32_768;
        let sys = SystemModel::new(platform, Method::ReSV);
        let model = llama();
        let mut prices = StepPriceCache::new(&sys, &model);
        let mut serial_best = 0usize;
        let mut overlap_best = 0usize;
        for sessions in [4usize, 8, 12] {
            let plans = TrafficConfig {
                sessions,
                turns: 2,
                arrival_spread_s: 10.0,
                seed: 42,
            }
            .generate();
            let cfg = ServeConfig::real_time_tiered(32_000);
            let serial = serve_with_cache(&mut prices, &plans, &cfg);
            let overlap = serve_with_cache(&mut prices, &plans, &cfg.with_overlap(true));
            assert!(
                overlap.real_time_sessions >= serial.real_time_sessions,
                "overlap {} < serialized {} real-time streams at fleet {}",
                overlap.real_time_sessions,
                serial.real_time_sessions,
                sessions
            );
            serial_best = serial_best.max(serial.real_time_sessions);
            overlap_best = overlap_best.max(overlap.real_time_sessions);
        }
        assert!(
            overlap_best >= serial_best,
            "overlap capacity {overlap_best} below serialized {serial_best}"
        );
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
        let overlap = serve(&sys, &model, &plans, &cfg.with_overlap(true));
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
            fps: 2.0,
            initial_cache_tokens: 30_000,
            max_wait_s: 10.0,
            admission: AdmissionPolicy::tiered_speculative(),
            overlap: true,
            queue: QueueKind::Heap,
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
        let cfg = ServeConfig::real_time(8_000).with_overlap(true);
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

    /// Overlapped tiering keeps the spill-instead-of-reject guarantee.
    #[test]
    fn overlap_tiered_admission_spills_instead_of_rejecting() {
        let sys = SystemModel::new(PlatformSpec::agx_orin(), Method::VanillaInMemory);
        let base = ServeConfig {
            fps: 2.0,
            initial_cache_tokens: 30_000,
            max_wait_s: 0.0,
            admission: AdmissionPolicy::RejectOnly,
            overlap: true,
            queue: QueueKind::Heap,
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
}
