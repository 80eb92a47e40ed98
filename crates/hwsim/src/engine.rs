//! Dependency-graph resource scheduler.
//!
//! The evaluation composes per-layer pipelines where compute
//! (QKV/attention/FFN), KV prediction, and KV fetch overlap subject to
//! data dependencies and resource exclusivity (Fig. 5). This engine
//! schedules such task graphs deterministically:
//!
//! * a **task** runs for a fixed duration on one **resource**;
//! * it starts at the maximum of its dependencies' end times and the
//!   resource's availability; resources serve one task at a time;
//! * busy intervals are recorded per resource with byte annotations so
//!   bandwidth-over-time traces (Fig. 17) fall out directly.
//!
//! Two scheduling disciplines coexist on the same timelines:
//!
//! * [`Engine::schedule`] **appends**: the task starts no earlier than
//!   everything previously placed on the resource (FIFO order — the
//!   right discipline for a compute queue);
//! * [`Engine::reserve_after`] / [`Engine::schedule_after`] find the
//!   **earliest fit**: the first gap at or after a given instant that
//!   holds the duration, even if later work was already placed (the
//!   right discipline for latency-critical link transfers such as tier
//!   restores, which may claim link idle time that low-priority spill
//!   writebacks left behind — or that lies *before* the current
//!   simulation instant, modelling a prefetch that was issued when the
//!   work item first became visible).
//!
//! [`Engine::truncate_from`] drops not-yet-started reservations from a
//! timeline so a scheduler can re-plan after conditions change, and
//! [`Engine::forget_before`] drops finished history that no later
//! reservation can reach, so a long-running caller holds only the
//! intervals that can still move a result.

use crate::time::ps_to_seconds;

/// Identifies a resource registered with an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceId(usize);

/// Handle to a scheduled task. It carries the task's own start and end
/// instants, so the engine keeps no per-task record: dependencies and
/// [`Engine::start_of`] / [`Engine::end_of`] read the handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId {
    start: u64,
    end: u64,
}

/// One recorded busy interval on a resource.
#[derive(Debug, Clone, PartialEq)]
pub struct BusyInterval {
    /// Start time (ps).
    pub start: u64,
    /// End time (ps).
    pub end: u64,
    /// Bytes moved during the interval (0 for pure compute).
    pub bytes: u64,
    /// Human-readable tag. Static so that recording an interval never
    /// allocates: a timeline holds one per reservation.
    pub tag: &'static str,
}

#[derive(Debug)]
struct Resource {
    /// The label [`Engine::add_resource`] was given; only tests read it.
    #[cfg_attr(not(test), allow(dead_code))]
    name: String,
    /// End of the last *appended* task; [`Engine::schedule`] starts at
    /// or after this, so appended tasks stay FIFO even when earlier
    /// gaps exist.
    next_free: u64,
    /// Busy intervals, kept sorted by start and non-overlapping. Every
    /// recorded interval has `end > start`, so the ends are sorted too
    /// — the invariant the binary searches below rely on.
    busy: Vec<BusyInterval>,
    /// Latest end among the intervals [`Engine::forget_before`] dropped
    /// (0 until something is forgotten). A search from at or after it
    /// never meets a forgotten interval; debug builds assert every
    /// reservation starts its search there.
    floor: u64,
}

impl Resource {
    /// Earliest start `>= earliest` where `duration` fits into a gap of
    /// the (sorted, non-overlapping) timeline. Intervals ending at or
    /// before `earliest` cannot constrain the fit and form a prefix of
    /// the timeline (sorted ends), so the walk starts behind them.
    fn earliest_fit(&self, earliest: u64, duration: u64) -> u64 {
        let mut candidate = earliest;
        let from = self.busy.partition_point(|b| b.end <= earliest);
        for b in &self.busy[from..] {
            if candidate.saturating_add(duration) <= b.start {
                break;
            }
            candidate = b.end;
        }
        candidate
    }

    /// Inserts an interval keeping the timeline sorted by start.
    fn insert(&mut self, iv: BusyInterval) {
        let at = self.busy.partition_point(|b| b.start <= iv.start);
        debug_assert!(
            at == 0 || self.busy[at - 1].end <= iv.start,
            "reservation overlaps its predecessor"
        );
        debug_assert!(
            at == self.busy.len() || iv.end <= self.busy[at].start,
            "reservation overlaps its successor"
        );
        self.busy.insert(at, iv);
    }
}

/// Latest end over a dependency set (0 when empty).
fn ready_ps(deps: &[TaskId]) -> u64 {
    deps.iter().map(|d| d.end).max().unwrap_or(0)
}

/// A deterministic task-graph scheduler.
///
/// # Examples
///
/// ```
/// use vrex_hwsim::Engine;
///
/// let mut e = Engine::new();
/// let cpu = e.add_resource("cpu");
/// let bus = e.add_resource("bus");
/// let a = e.schedule(cpu, 100, &[], "compute", 0);
/// let b = e.schedule(bus, 50, &[a], "fetch", 4096);
/// assert_eq!(e.end_of(b), 150); // waits for `a`
/// ```
#[derive(Debug, Default)]
pub struct Engine {
    resources: Vec<Resource>,
    /// Latest end over every task ever placed (truncated ones included).
    makespan: u64,
}

impl Engine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a resource (compute unit, link, memory channel).
    pub fn add_resource(&mut self, name: &str) -> ResourceId {
        self.resources.push(Resource {
            name: name.to_string(),
            next_free: 0,
            busy: Vec::new(),
            floor: 0,
        });
        ResourceId(self.resources.len() - 1)
    }

    /// Schedules a task of `duration_ps` on `resource`, starting no
    /// earlier than `deps` have finished and everything previously
    /// *appended* to the resource (FIFO). Zero-duration tasks are legal
    /// (pure synchronisation points). Returns the task id.
    ///
    /// # Panics
    ///
    /// Panics if `resource` is invalid.
    pub fn schedule(
        &mut self,
        resource: ResourceId,
        duration_ps: u64,
        deps: &[TaskId],
        tag: &'static str,
        bytes: u64,
    ) -> TaskId {
        // Appended tasks never overlap earliest-fit reservations either:
        // `next_free` tracks the timeline's max end, so the fit from
        // there is the frontier itself.
        let earliest = ready_ps(deps).max(self.resources[resource.0].next_free);
        self.reserve_after(resource, earliest, duration_ps, tag, bytes)
    }

    /// Reserves the **earliest fit** for `duration_ps` on `resource` at
    /// or after `earliest_ps`: the first gap in the timeline that holds
    /// the duration, even if that gap lies before work already placed.
    /// This is the reservation discipline for latency-critical
    /// transfers (tier restores, speculative prefetch) that claim link
    /// idle time — including idle time in the simulated past, modelling
    /// a transfer issued when its trigger first became visible.
    ///
    /// The end saturates at the `u64` picosecond horizon (≈ 213 days)
    /// instead of wrapping.
    ///
    /// # Panics
    ///
    /// Panics if `resource` is invalid. Debug builds also panic when
    /// `earliest_ps` lies before the resource's forgotten floor (see
    /// [`Self::forget_before`]): such a search would need history the
    /// engine no longer holds.
    pub fn reserve_after(
        &mut self,
        resource: ResourceId,
        earliest_ps: u64,
        duration_ps: u64,
        tag: &'static str,
        bytes: u64,
    ) -> TaskId {
        let res = &mut self.resources[resource.0];
        debug_assert!(
            earliest_ps >= res.floor,
            "reservation at {earliest_ps} searches forgotten history (floor {})",
            res.floor
        );
        let start = res.earliest_fit(earliest_ps, duration_ps);
        let end = start.saturating_add(duration_ps);
        res.next_free = res.next_free.max(end);
        self.makespan = self.makespan.max(end);
        if end > start {
            res.insert(BusyInterval {
                start,
                end,
                bytes,
                tag,
            });
        }
        TaskId { start, end }
    }

    /// Dependency-aware earliest-fit: like [`Self::reserve_after`], but
    /// the start is additionally bounded below by every dependency's
    /// end time.
    ///
    /// # Panics
    ///
    /// Panics if `resource` is invalid.
    pub fn schedule_after(
        &mut self,
        resource: ResourceId,
        earliest_ps: u64,
        duration_ps: u64,
        deps: &[TaskId],
        tag: &'static str,
        bytes: u64,
    ) -> TaskId {
        self.reserve_after(
            resource,
            earliest_ps.max(ready_ps(deps)),
            duration_ps,
            tag,
            bytes,
        )
    }

    /// Drops every busy interval on `resource` that **starts at or
    /// after** `t_ps`, returning how many were removed. In-progress
    /// intervals (started before `t_ps`) are kept whole. The appended
    /// frontier rewinds to the latest remaining end, so a scheduler can
    /// re-plan the future of a timeline after conditions change.
    ///
    /// Task ids whose reservations were removed keep their recorded
    /// start/end for queries, but no longer occupy the timeline.
    ///
    /// # Panics
    ///
    /// Panics if `resource` is invalid. Debug builds also panic when
    /// `t_ps` lies before the resource's forgotten floor.
    pub fn truncate_from(&mut self, resource: ResourceId, t_ps: u64) -> usize {
        let res = &mut self.resources[resource.0];
        debug_assert!(
            t_ps >= res.floor,
            "truncation at {t_ps} reaches forgotten history (floor {})",
            res.floor
        );
        let keep = res.busy.partition_point(|b| b.start < t_ps);
        let removed = res.busy.len() - keep;
        res.busy.truncate(keep);
        // Sorted ends: the last kept interval ends latest; with none
        // kept, the latest end is the last forgotten one.
        res.next_free = res.busy.last().map_or(res.floor, |b| b.end);
        removed
    }

    /// Forgets, on every resource, the prefix of busy intervals that
    /// end at or before `t_ps`, returning how many were dropped.
    ///
    /// The caller promises that no later reservation on any resource
    /// searches from before `t_ps`. Under that promise nothing changes:
    /// an earliest fit from `earliest >= t_ps` already skips exactly
    /// this prefix (the intervals ending at or before `earliest`), and
    /// [`Self::next_free`] and [`Self::makespan`] are kept as they were.
    /// Debug builds hold the caller to it (see [`Self::reserve_after`]).
    ///
    /// What does change is every whole-history query: [`Self::trace`],
    /// [`Self::busy_time`], [`Self::utilization`] and
    /// [`Self::bandwidth_in_window`] then cover only the retained
    /// intervals. A caller that reads them should not forget.
    pub fn forget_before(&mut self, t_ps: u64) -> usize {
        let mut dropped = 0;
        for res in &mut self.resources {
            let n = res.busy.partition_point(|b| b.end <= t_ps);
            if n > 0 {
                res.floor = res.floor.max(res.busy[n - 1].end);
                res.busy.drain(..n);
                dropped += n;
            }
        }
        dropped
    }

    /// Busy intervals currently held across every resource: everything
    /// reserved with a nonzero duration, less what was truncated or
    /// forgotten.
    pub fn held(&self) -> usize {
        self.resources.iter().map(|r| r.busy.len()).sum()
    }

    /// The appended-task frontier of a resource: the earliest instant
    /// [`Self::schedule`] would start a new task (the max end over
    /// everything placed so far). Lets a caller append work that must
    /// additionally not start before some instant — e.g. a writeback
    /// decided *now* goes at `max(now, next_free)` so it is both
    /// lowest-priority and causal.
    pub fn next_free(&self, r: ResourceId) -> u64 {
        self.resources[r.0].next_free
    }

    /// Start time (ps) of a task.
    pub fn start_of(&self, task: TaskId) -> u64 {
        task.start
    }

    /// End time (ps) of a task.
    pub fn end_of(&self, task: TaskId) -> u64 {
        task.end
    }

    /// Latest end time across all tasks (0 when empty).
    pub fn makespan(&self) -> u64 {
        self.makespan
    }

    /// Name of a resource.
    #[cfg(test)]
    pub(crate) fn resource_name(&self, r: ResourceId) -> &str {
        &self.resources[r.0].name
    }

    /// Busy intervals recorded on a resource, sorted by start time.
    pub fn trace(&self, r: ResourceId) -> &[BusyInterval] {
        &self.resources[r.0].busy
    }

    /// Total busy time (ps) of a resource.
    pub fn busy_time(&self, r: ResourceId) -> u64 {
        self.resources[r.0]
            .busy
            .iter()
            .map(|b| b.end - b.start)
            .sum()
    }

    /// Utilisation of a resource over the makespan, in `[0, 1]`.
    /// A resource with no recorded work — or an engine whose makespan
    /// is zero — pins to `0.0` rather than dividing by zero.
    pub fn utilization(&self, r: ResourceId) -> f64 {
        let span = self.makespan();
        if span == 0 {
            0.0
        } else {
            self.busy_time(r) as f64 / span as f64
        }
    }

    /// Average bandwidth (bytes/s) of a resource within `[t0, t1)`,
    /// attributing each interval's bytes uniformly over its duration.
    /// This is the Fig. 17 bandwidth-timeline query. An empty window
    /// (`t1 <= t0`) carries no bytes and pins to `0.0`; so does an
    /// empty timeline.
    pub fn bandwidth_in_window(&self, r: ResourceId, t0: u64, t1: u64) -> f64 {
        if t1 <= t0 {
            return 0.0;
        }
        // Only intervals with `end > t0` and `start < t1` overlap the
        // window; sorted ends and starts make them one contiguous run.
        let busy = &self.resources[r.0].busy;
        let from = busy.partition_point(|b| b.end <= t0);
        let mut bytes = 0.0;
        for b in busy[from..].iter().take_while(|b| b.start < t1) {
            let overlap = b.end.min(t1) - b.start.max(t0);
            bytes += b.bytes as f64 * (overlap as f64 / (b.end - b.start) as f64);
        }
        bytes / ps_to_seconds(t1 - t0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn independent_tasks_on_one_resource_serialize() {
        let mut e = Engine::new();
        let r = e.add_resource("unit");
        let a = e.schedule(r, 100, &[], "a", 0);
        let b = e.schedule(r, 50, &[], "b", 0);
        assert_eq!(e.end_of(a), 100);
        assert_eq!(e.end_of(b), 150);
    }

    #[test]
    fn independent_tasks_on_two_resources_overlap() {
        let mut e = Engine::new();
        let r1 = e.add_resource("u1");
        let r2 = e.add_resource("u2");
        let a = e.schedule(r1, 100, &[], "a", 0);
        let b = e.schedule(r2, 80, &[], "b", 0);
        assert_eq!(e.end_of(a), 100);
        assert_eq!(e.end_of(b), 80);
        assert_eq!(e.makespan(), 100);
    }

    #[test]
    fn dependencies_defer_start() {
        let mut e = Engine::new();
        let r1 = e.add_resource("u1");
        let r2 = e.add_resource("u2");
        let a = e.schedule(r1, 100, &[], "a", 0);
        let b = e.schedule(r2, 10, &[a], "b", 0);
        assert_eq!(e.end_of(b), 110);
        assert_eq!(e.start_of(b), 100);
    }

    #[test]
    fn zero_duration_tasks_synchronise() {
        let mut e = Engine::new();
        let r = e.add_resource("u");
        let a = e.schedule(r, 30, &[], "a", 0);
        let join = e.schedule(r, 0, &[a], "join", 0);
        assert_eq!(e.end_of(join), 30);
        assert!(e.trace(r).len() == 1, "zero tasks leave no trace");
    }

    #[test]
    fn utilization_and_busy_time() {
        let mut e = Engine::new();
        let r1 = e.add_resource("u1");
        let r2 = e.add_resource("u2");
        e.schedule(r1, 100, &[], "a", 0);
        e.schedule(r2, 25, &[], "b", 0);
        assert_eq!(e.busy_time(r2), 25);
        assert!((e.utilization(r2) - 0.25).abs() < 1e-12);
        assert!((e.utilization(r1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_pins_to_zero_without_tasks() {
        // Empty engine: makespan 0 must not divide by zero.
        let mut e = Engine::new();
        let r = e.add_resource("idle");
        assert_eq!(e.utilization(r), 0.0);
        // A resource with no tasks while others are busy: 0, not NaN.
        let busy = e.add_resource("busy");
        e.schedule(busy, 100, &[], "work", 0);
        assert_eq!(e.utilization(r), 0.0);
        assert_eq!(e.busy_time(r), 0);
    }

    #[test]
    fn bandwidth_window_attributes_bytes() {
        let mut e = Engine::new();
        let link = e.add_resource("pcie");
        // 1000 ps moving 1000 bytes -> 1e12 bytes/s within the window.
        e.schedule(link, 1000, &[], "xfer", 1000);
        let bw = e.bandwidth_in_window(link, 0, 1000);
        assert!((bw - 1e12).abs() / 1e12 < 1e-9);
        // Half-window sees half the bytes over half the time: same rate.
        let bw_half = e.bandwidth_in_window(link, 0, 500);
        assert!((bw_half - 1e12).abs() / 1e12 < 1e-9);
        // Idle window: zero.
        assert_eq!(e.bandwidth_in_window(link, 2000, 3000), 0.0);
    }

    #[test]
    fn empty_bandwidth_windows_pin_to_zero() {
        let mut e = Engine::new();
        let link = e.add_resource("pcie");
        // Empty timeline, empty window, inverted window: all 0.0.
        assert_eq!(e.bandwidth_in_window(link, 0, 100), 0.0);
        assert_eq!(e.bandwidth_in_window(link, 50, 50), 0.0);
        assert_eq!(e.bandwidth_in_window(link, 70, 30), 0.0);
        e.schedule(link, 1000, &[], "xfer", 1000);
        // A zero-width window inside a busy interval still carries no
        // bytes (no time passes).
        assert_eq!(e.bandwidth_in_window(link, 500, 500), 0.0);
    }

    #[test]
    fn reserve_after_takes_the_earliest_gap() {
        let mut e = Engine::new();
        let link = e.add_resource("link");
        e.schedule(link, 100, &[], "a", 0); // [0, 100)
        let b = e.reserve_after(link, 300, 100, "b", 0); // [300, 400)
        assert_eq!(e.start_of(b), 300);
        // 150 ps fits the [100, 300) gap even though `b` is placed.
        let c = e.reserve_after(link, 0, 150, "c", 0);
        assert_eq!(e.start_of(c), 100);
        assert_eq!(e.end_of(c), 250);
        // 60 ps next: the remaining [250, 300) gap is too small, so it
        // lands after `b`.
        let d = e.reserve_after(link, 0, 60, "d", 0);
        assert_eq!(e.start_of(d), 400);
        // Timeline stayed sorted and non-overlapping.
        let trace = e.trace(link);
        for w in trace.windows(2) {
            assert!(w[0].end <= w[1].start);
        }
    }

    #[test]
    fn schedule_after_respects_deps_and_gaps() {
        let mut e = Engine::new();
        let cpu = e.add_resource("cpu");
        let link = e.add_resource("link");
        let a = e.schedule(cpu, 200, &[], "compute", 0);
        e.reserve_after(link, 0, 50, "early", 0); // [0, 50)
                                                  // Depends on `a` (ends 200): the [50, ..] gap is admissible but
                                                  // the dependency pushes the start to 200.
        let b = e.schedule_after(link, 0, 30, &[a], "after-dep", 0);
        assert_eq!(e.start_of(b), 200);
        // No deps, earliest 10: fits right after the first interval.
        let c = e.schedule_after(link, 10, 30, &[], "gap", 0);
        assert_eq!(e.start_of(c), 50);
    }

    #[test]
    fn append_schedule_stays_fifo_despite_gaps() {
        let mut e = Engine::new();
        let r = e.add_resource("q");
        e.reserve_after(r, 1000, 100, "late", 0); // [1000, 1100)
                                                  // Appends go after everything already placed (FIFO), never into
                                                  // the [0, 1000) gap.
        let a = e.schedule(r, 10, &[], "a", 0);
        assert_eq!(e.start_of(a), 1100);
        // Earliest-fit can still use the gap afterwards.
        let b = e.reserve_after(r, 0, 500, "fill", 0);
        assert_eq!(e.start_of(b), 0);
    }

    #[test]
    fn truncate_from_drops_future_reservations_only() {
        let mut e = Engine::new();
        let r = e.add_resource("link");
        e.schedule(r, 100, &[], "a", 0); // [0, 100)
        e.reserve_after(r, 200, 50, "b", 0); // [200, 250)
        e.reserve_after(r, 400, 50, "c", 0); // [400, 450)
                                             // Truncating at 150 drops b and c, keeps the in-progress a.
        assert_eq!(e.truncate_from(r, 150), 2);
        assert_eq!(e.trace(r).len(), 1);
        assert_eq!(e.busy_time(r), 100);
        // The frontier rewound: the next append starts at 100.
        let d = e.schedule(r, 10, &[], "d", 0);
        assert_eq!(e.start_of(d), 100);
        // Truncating at an instant inside an interval keeps it whole:
        // `d` spans [100, 110), so cutting at 105 keeps both it and `a`.
        assert_eq!(e.truncate_from(r, 105), 0, "in-progress tasks kept");
        assert_eq!(e.trace(r).len(), 2);
        // Cutting exactly at a start drops that reservation.
        assert_eq!(e.truncate_from(r, 100), 1, "d dropped, a kept");
        assert_eq!(e.trace(r).len(), 1);
        assert_eq!(e.truncate_from(r, 0), 1, "everything dropped");
        assert_eq!(e.busy_time(r), 0);
    }

    #[test]
    fn reservations_saturate_at_the_u64_horizon() {
        let mut e = Engine::new();
        let r = e.add_resource("link");
        // `start + duration` would wrap: the end pins to the horizon.
        let a = e.reserve_after(r, u64::MAX - 1, 10, "a", 0);
        assert_eq!((e.start_of(a), e.end_of(a)), (u64::MAX - 1, u64::MAX));
        // The append path goes through the same arithmetic; a task that
        // cannot occupy any time leaves no trace.
        let b = e.schedule(r, 10, &[], "b", 0);
        assert_eq!((e.start_of(b), e.end_of(b)), (u64::MAX, u64::MAX));
        assert_eq!(e.trace(r).len(), 1);
        assert_eq!(e.busy_time(r), 1);
        assert_eq!(e.next_free(r), u64::MAX);
        assert_eq!(e.makespan(), u64::MAX);
    }

    #[test]
    fn bandwidth_window_matches_a_full_scan() {
        // [300k, 300k + 200) for k in 0..50, each moving 1000(k+1) bytes.
        let mut e = Engine::new();
        let link = e.add_resource("link");
        for k in 0..50u64 {
            e.reserve_after(link, 300 * k, 200, "xfer", 1000 * (k + 1));
        }
        let full_scan = |t0: u64, t1: u64| {
            let mut bytes = 0.0;
            for b in e.trace(link) {
                let (lo, hi) = (b.start.max(t0), b.end.min(t1));
                if hi > lo {
                    bytes += b.bytes as f64 * ((hi - lo) as f64 / (b.end - b.start) as f64);
                }
            }
            bytes / ps_to_seconds(t1 - t0)
        };
        // Windows that start/end inside intervals, inside gaps, on
        // boundaries, before the first and beyond the last interval.
        for t0 in (0..15_200).step_by(50) {
            for width in [1, 50, 100, 250, 300, 1_000, 20_000] {
                let t1 = t0 + width;
                let got = e.bandwidth_in_window(link, t0, t1);
                assert_eq!(got.to_bits(), full_scan(t0, t1).to_bits(), "[{t0}, {t1})");
            }
        }
    }

    /// Cost must not depend on how much history a timeline holds: 2×10⁵
    /// appended intervals, then 2×10⁵ earliest-fit reservations whose
    /// earliest instants run from the middle of the final timeline
    /// upward — each pair places later work first and then claims the
    /// gap before it, as a restore does behind a writeback. A binary
    /// search makes this instant; a walk from index 0 (≥ 2×10⁵ steps
    /// per reservation) takes minutes.
    ///
    /// Every landing sits within one interval of the tail on purpose:
    /// a landing deep inside the vector still pays `Vec::insert`'s
    /// memmove, which no shipped run does at scale.
    #[test]
    fn reservation_cost_is_independent_of_history_length() {
        const N: u64 = 200_000;
        const SLOT: u64 = 1_000;
        let mut e = Engine::new();
        let link = e.add_resource("link");
        for _ in 0..N {
            e.schedule(link, SLOT, &[], "held", 0);
        }
        let mid = N * SLOT;
        assert_eq!(e.next_free(link), mid);
        for j in 0..N / 2 {
            let base = mid + 2 * j * SLOT;
            let later = e.reserve_after(link, base + SLOT, SLOT, "writeback", 0);
            assert_eq!(e.start_of(later), base + SLOT);
            let fit = e.reserve_after(link, base, SLOT, "restore", 0);
            assert_eq!(e.start_of(fit), base, "claims the gap before later work");
        }
        assert_eq!(e.trace(link).len() as u64, 2 * N);
        assert_eq!(e.busy_time(link), 2 * N * SLOT);
        assert_eq!(e.next_free(link), 2 * N * SLOT);
        // A reservation from far back in a gap-free timeline still
        // lands at the frontier.
        let tail = e.reserve_after(link, 0, SLOT, "restore", 0);
        assert_eq!(e.start_of(tail), 2 * N * SLOT);
    }

    #[test]
    fn forget_before_drops_only_finished_history() {
        let mut e = Engine::new();
        let link = e.add_resource("link");
        let cpu = e.add_resource("cpu");
        e.reserve_after(link, 0, 100, "a", 0); // [0, 100)
        e.reserve_after(link, 300, 100, "b", 0); // [300, 400)
        e.schedule(cpu, 250, &[], "c", 0); // [0, 250)
        assert_eq!(e.held(), 3);
        // At 200 only `a` has ended; `c` is still running.
        assert_eq!(e.forget_before(200), 1);
        assert_eq!(e.held(), 2);
        assert_eq!(e.trace(link).len(), 1);
        assert_eq!((e.next_free(link), e.next_free(cpu)), (400, 250));
        assert_eq!(e.makespan(), 400);
        // A search from the watermark still sees the [100, 300) gap.
        let d = e.reserve_after(link, 200, 100, "d", 0);
        assert_eq!((e.start_of(d), e.end_of(d)), (200, 300));
        // Forgetting everything leaves the frontiers where they were,
        // and a truncation with nothing left rewinds to the last
        // forgotten end, not to 0.
        assert_eq!(e.forget_before(1_000), 3);
        assert_eq!(e.held(), 0);
        assert_eq!(e.next_free(link), 400);
        assert_eq!(e.truncate_from(link, 1_000), 0);
        assert_eq!(e.next_free(link), 400);
        let f = e.schedule(link, 10, &[], "f", 0);
        assert_eq!(e.start_of(f), 400);
    }

    /// A reservation that would search behind the forgotten floor is a
    /// caller bug: the answer could depend on dropped history.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "searches forgotten history")]
    fn reserving_below_the_forgotten_floor_panics_in_debug() {
        let mut e = Engine::new();
        let link = e.add_resource("link");
        e.reserve_after(link, 0, 100, "a", 0); // [0, 100)
        e.forget_before(150);
        e.reserve_after(link, 50, 10, "b", 0);
    }

    /// The timeline as it was before the binary searches — earliest fit
    /// walks from index 0, truncation recomputes the frontier with an
    /// O(n) max — kept as the reference the differential test below
    /// checks the engine against.
    #[derive(Default)]
    struct LinearTimeline {
        busy: Vec<(u64, u64)>,
        next_free: u64,
    }

    impl LinearTimeline {
        fn earliest_fit(&self, earliest: u64, duration: u64) -> u64 {
            let mut candidate = earliest;
            for &(start, end) in &self.busy {
                if end <= candidate {
                    continue;
                }
                if candidate.saturating_add(duration) <= start {
                    break;
                }
                candidate = end;
            }
            candidate
        }

        fn place(&mut self, earliest: u64, duration: u64) -> (u64, u64) {
            let start = self.earliest_fit(earliest, duration);
            let end = start + duration;
            self.next_free = self.next_free.max(end);
            if duration > 0 {
                let at = self.busy.partition_point(|b| b.0 <= start);
                self.busy.insert(at, (start, end));
            }
            (start, end)
        }

        fn truncate_from(&mut self, t: u64) -> usize {
            let before = self.busy.len();
            self.busy.retain(|b| b.0 < t);
            self.next_free = self.busy.iter().map(|b| b.1).max().unwrap_or(0);
            before - self.busy.len()
        }
    }

    proptest! {
        /// Causality: no task ends before the latest dependency plus
        /// its own duration; resource intervals never overlap.
        #[test]
        fn schedule_respects_causality(durations in proptest::collection::vec(1u64..1000, 1..40)) {
            let mut e = Engine::new();
            let r = e.add_resource("u");
            let mut prev: Option<TaskId> = None;
            for &d in &durations {
                let deps: Vec<TaskId> = prev.into_iter().collect();
                let t = e.schedule(r, d, &deps, "t", 0);
                if let Some(p) = prev {
                    prop_assert!(e.end_of(t) >= e.end_of(p) + d);
                }
                prev = Some(t);
            }
            let trace = e.trace(r);
            for w in trace.windows(2) {
                prop_assert!(w[0].end <= w[1].start, "overlapping intervals");
            }
            prop_assert_eq!(e.busy_time(r), durations.iter().sum::<u64>());
        }

        /// Interval exclusivity under a random mix of appends and
        /// earliest-fit reservations on shared resources: every
        /// timeline stays strictly ordered by start with no overlap,
        /// every task occupies exactly its duration, and reservations
        /// never start before their requested earliest instant.
        #[test]
        fn mixed_reservations_never_overlap(
            ops in proptest::collection::vec(
                (0u8..3, 0usize..3, 0u64..5000, 1u64..800), 1..60)
        ) {
            let mut e = Engine::new();
            let rs = [
                e.add_resource("compute"),
                e.add_resource("pcie"),
                e.add_resource("ssd"),
            ];
            let mut last: Option<TaskId> = None;
            for &(op, ri, earliest, dur) in &ops {
                let r = rs[ri];
                let t = match op {
                    0 => e.schedule(r, dur, &[], "append", dur),
                    1 => {
                        let t = e.reserve_after(r, earliest, dur, "fit", dur);
                        prop_assert!(e.start_of(t) >= earliest);
                        t
                    }
                    _ => {
                        let deps: Vec<TaskId> = last.into_iter().collect();
                        let t = e.schedule_after(r, earliest, dur, &deps, "dep", dur);
                        prop_assert!(e.start_of(t) >= earliest);
                        if let Some(p) = last {
                            prop_assert!(e.start_of(t) >= e.end_of(p));
                        }
                        t
                    }
                };
                prop_assert_eq!(e.end_of(t) - e.start_of(t), dur);
                last = Some(t);
            }
            for r in rs {
                let trace = e.trace(r);
                for w in trace.windows(2) {
                    prop_assert!(
                        w[0].start < w[1].start,
                        "intervals not strictly ordered"
                    );
                    prop_assert!(
                        w[0].end <= w[1].start,
                        "overlapping intervals: {:?} then {:?}",
                        w[0],
                        w[1]
                    );
                }
            }
        }

        /// Differential check against [`LinearTimeline`]: over random
        /// mixes of appends, earliest-fit reservations (with and
        /// without dependencies, zero durations included),
        /// truncations and forgetting, every task gets the same start
        /// and end, `next_free` agrees (and equals the last interval's
        /// end right after a truncation), and `makespan` is the max end
        /// ever returned. Only the engine forgets; from then on every
        /// instant is floored at the latest watermark, as a caller's
        /// must be, and the engine holds a suffix of the reference
        /// timeline whose dropped prefix all ended by that watermark.
        #[test]
        fn binary_searched_timeline_matches_the_linear_reference(
            ops in proptest::collection::vec(
                (0u8..5, 0usize..2, 0u64..5000, 0u64..800), 1..120)
        ) {
            let mut e = Engine::new();
            let rs = [e.add_resource("a"), e.add_resource("b")];
            let mut reference = [LinearTimeline::default(), LinearTimeline::default()];
            let mut last: Option<TaskId> = None;
            let mut max_end = 0;
            let mut watermark = 0;
            for &(op, ri, at, dur) in &ops {
                let (r, lin) = (rs[ri], &mut reference[ri]);
                let at = at.max(watermark);
                let dep_ready = last.map_or(0, |t| e.end_of(t));
                let (task, expected) = match op {
                    0 => (
                        e.schedule(r, dur, last.as_slice(), "append", dur),
                        lin.place(dep_ready.max(lin.next_free), dur),
                    ),
                    1 => (e.reserve_after(r, at, dur, "fit", dur), lin.place(at, dur)),
                    2 => (
                        e.schedule_after(r, at, dur, last.as_slice(), "dep", dur),
                        lin.place(at.max(dep_ready), dur),
                    ),
                    3 => {
                        prop_assert_eq!(e.truncate_from(r, at), lin.truncate_from(at));
                        prop_assert_eq!(e.next_free(r), lin.next_free);
                        if let Some(b) = e.trace(r).last() {
                            prop_assert_eq!(e.next_free(r), b.end);
                        }
                        continue;
                    }
                    _ => {
                        e.forget_before(at);
                        watermark = at;
                        continue;
                    }
                };
                prop_assert_eq!((e.start_of(task), e.end_of(task)), expected);
                last = Some(task);
                max_end = max_end.max(expected.1);
                prop_assert_eq!(e.next_free(r), lin.next_free);
                prop_assert_eq!(e.makespan(), max_end);
            }
            let mut held = 0;
            for (r, lin) in rs.into_iter().zip(&reference) {
                let got: Vec<(u64, u64)> = e.trace(r).iter().map(|b| (b.start, b.end)).collect();
                prop_assert!(lin.busy.ends_with(&got), "engine holds a suffix of the reference");
                let dropped = &lin.busy[..lin.busy.len() - got.len()];
                prop_assert!(dropped.iter().all(|b| b.1 <= watermark));
                held += got.len();
            }
            prop_assert_eq!(e.held(), held);
        }
    }
}
