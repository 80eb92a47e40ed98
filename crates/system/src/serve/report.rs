//! What a serve reports: per-session and fleet-level outcome types, the
//! event-loop counters, the scheduler trace, and the end-of-run
//! aggregation that builds them from the scheduler state.

use vrex_hwsim::ps_to_seconds;
use vrex_workload::traffic::SessionPlan;

use super::stream::Stream;
use super::Sched;
use crate::memory::RestorePlan;
use crate::queueing::percentile_pair_of;

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
    /// Real-time verdict: worst frame lag within `2 / fps`, compared in
    /// integer ps.
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
    /// [`crate::memory::AdmissionPolicy::RejectOnly`]).
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
    /// [`crate::memory::AdmissionPolicy::RejectOnly`].
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
/// Fully deterministic for a given (plans, config) pair, which the
/// property tests assert, but *not* part of [`ServeReport`] equality,
/// because the serialized and overlapped drivers do different amounts
/// of loop work for identical outcomes.
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
    /// Peak number of busy intervals the resource timeline held at
    /// once (resource-timeline execution only; 0 when serialized). The
    /// overlapped driver forgets finished history behind a causal
    /// watermark, so this follows the live work, not the run's length.
    pub timeline_peak: usize,
}

impl ServeCounters {
    /// Total events fired across all kinds.
    pub fn events_fired(&self) -> u64 {
        self.arrival_events
            + self.patience_events
            + self.work_ready_events
            + self.step_complete_events
    }

    /// Folds one committed restore into the cluster-prefetch counters.
    /// They count tier-miss steps only: a plan that moves nothing adds
    /// nothing, its mispredicted clusters included.
    pub(super) fn record_restore(&mut self, plan: &RestorePlan) {
        if plan.miss_ps() == 0 {
            return;
        }
        self.spec_clusters += plan.spec_clusters;
        self.demand_clusters += plan.demand_clusters;
        self.mispredicted_clusters += plan.mispredicted_clusters;
        self.spec_restore_bytes += plan.spec_bytes;
        self.demand_restore_bytes += plan.demand_bytes;
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

/// What woke the scheduler (diagnostics/test seam; see [`super::Serve::trace`]).
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
/// because of `kind`. [`super::Serve::trace`] records the full sequence. Under
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

impl Stream {
    /// The retired stream's report. The seconds-valued sample vectors
    /// are fresh allocations on purpose: converting the ps buffers in
    /// place keeps each report in the allocation made at admission,
    /// interleaved with the stream's freed scratch, and on the
    /// multi-threaded pool serve that fragmented the heap (repo
    /// benchmark `pool_migrate`, 2-core host: peak RSS 175–180 MB in
    /// most runs against 152 MB, with no `fleet_reject` speed change).
    pub(super) fn into_report(self, real_time_bar_ps: u64) -> SessionServeReport {
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

pub(super) fn rejected_report(plan: &SessionPlan, waited_ps: u64) -> SessionServeReport {
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

impl Sched<'_> {
    /// Fleet aggregation: percentiles over every frame/turn of every
    /// admitted session. Each sample set's p50/p99 pair is selected
    /// over the admitted reports' own slices ([`percentile_pair_of`]),
    /// so no buffer here grows with the fleet.
    pub(super) fn finish(self) -> ServeReport {
        let reports = self.reports;
        let admitted_reports = || {
            reports
                .iter()
                .filter(|r| r.outcome != SessionOutcome::Rejected)
        };
        let sets: [fn(&SessionServeReport) -> &[f64]; 3] =
            [|r| &r.frame_lags_s, |r| &r.ttft_s, |r| &r.tpot_s];
        let [(frame_lag_p50_s, frame_lag_p99_s), (ttft_p50_s, ttft_p99_s), (tpot_p50_s, tpot_p99_s)] =
            sets.map(|set| percentile_pair_of(|| admitted_reports().map(set), 50.0, 99.0));
        let (mut admitted, mut queued, mut real_time_sessions) = (0, 0, 0);
        for r in admitted_reports() {
            admitted += 1;
            queued += usize::from(r.outcome == SessionOutcome::AdmittedAfterWait);
            real_time_sessions += usize::from(r.real_time);
        }
        ServeReport {
            offered: self.offered,
            admitted,
            queued,
            rejected: reports.len() - admitted,
            real_time_sessions,
            frame_lag_p50_s,
            frame_lag_p99_s,
            ttft_p50_s,
            ttft_p99_s,
            tpot_p50_s,
            tpot_p99_s,
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
