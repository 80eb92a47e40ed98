//! The scheduler's moving parts: wake-up events and how they drain,
//! each session's FIFO of work items, and the slab the active streams
//! live on.

use std::collections::VecDeque;

use vrex_model::ModelConfig;
use vrex_workload::traffic::SessionPlan;
use vrex_workload::SessionEvent;

use super::{PendingSession, Sched, ServeConfig, TraceEvent, TraceKind};
use crate::eventq::TimeKeyed;
use crate::queueing::QueueLedger;

/// A heap wake-up. Ordering is (time, kind, payload) so equal-time pops
/// are deterministic; the payload index only disambiguates, the
/// scheduling pass itself re-derives all state from `now` (except
/// `StepComplete`, whose payload names the in-flight batch to retire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) struct Event {
    pub(super) ps: u64,
    pub(super) kind: EventKind,
}

impl TimeKeyed for Event {
    fn time_ps(&self) -> u64 {
        self.ps
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum EventKind {
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
pub(super) enum Work {
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
pub(super) enum Kind {
    Frame = 2,
    Question = 1,
    Decode = 0,
}

#[derive(Debug)]
pub(super) struct Stream {
    pub(super) id: usize,
    /// Admission sequence number: the fleet-wide order this stream was
    /// admitted in. Ready sets are keyed `(seq, slot)`, so iterating
    /// them yields admission order — the same batch-membership order
    /// the historical active-vector scan produced.
    pub(super) seq: u64,
    pub(super) cache_tokens: usize,
    /// Worst-case final cache, fixed at admission (used by later
    /// admission checks).
    pub(super) projected_cache_tokens: usize,
    /// [`SystemModel::resident_demand_bytes`] of the projection, fixed
    /// at admission: this stream's contribution to the incrementally
    /// maintained fleet demand aggregate.
    pub(super) projected_demand_bytes: u64,
    pub(super) items: VecDeque<Work>,
    pub(super) last_completion_ps: u64,
    pub(super) waited_ps: u64,
    pub(super) memory_waited: bool,
    pub(super) frames: QueueLedger,
    pub(super) ttft_ps: Vec<u64>,
    pub(super) tpot_ps: Vec<u64>,
    pub(super) question_asked_ps: u64,
    pub(super) last_token_completion_ps: u64,
    pub(super) spilled: bool,
    pub(super) tier_exposed_ps: u64,
    /// Membership in the incremental ready set: the head item is
    /// available and the stream is not in an in-flight batch. Kept in
    /// lock-step with the per-kind ready counts; debug builds assert
    /// equivalence against the full rescan.
    pub(super) ready: bool,
    /// Whether the stream is a member of an in-flight batch
    /// (resource-timeline execution; always `false` when serialized).
    pub(super) in_flight: bool,
    /// When this stream's most recent demotion writeback lands at its
    /// destination tier (ps; resource-timeline execution). A restore —
    /// speculated or demand — can never claim link time before the
    /// bytes it restores have actually been spilled, so restore
    /// reservations are floored here.
    pub(super) spill_visible_ps: u64,
}

impl Stream {
    pub(super) fn admit(
        plan: &SessionPlan,
        cfg: &ServeConfig,
        model: &ModelConfig,
        frame_interval_ps: u64,
        now: u64,
    ) -> Self {
        // Every buffer is sized once from the plan: one work item per
        // frame, question and answer token; one frame-ledger record per
        // frame; one TTFT sample per answer and one TPOT sample per
        // answer token after its first.
        let (mut frames, mut questions, mut answers, mut later_tokens) = (0, 0, 0, 0);
        for e in &plan.events {
            match e {
                SessionEvent::Frame => frames += 1,
                SessionEvent::Question { .. } => questions += 1,
                SessionEvent::Answer { tokens } => {
                    answers += usize::from(*tokens > 0);
                    later_tokens += tokens.saturating_sub(1);
                }
            }
        }
        // The camera starts when the session is admitted: a queued
        // session is not yet streaming, so its frame clock begins at
        // admission, not at arrival, and must still be on the u64 ps
        // clock after the last frame.
        let span = (frames as u64).checked_mul(frame_interval_ps);
        let horizon = span.and_then(|span| now.checked_add(span));
        assert!(
            horizon.is_some(),
            "frame clock overflows u64 ps: {frames} frames at this fps outlast the clock"
        );
        let mut clock = now;
        let mut items = VecDeque::with_capacity(frames + questions + answers + later_tokens);
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
            frames: QueueLedger::with_capacity(frames),
            ttft_ps: Vec::with_capacity(answers),
            tpot_ps: Vec::with_capacity(later_tokens),
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
    pub(super) fn head(&self) -> Option<(u64, Kind)> {
        self.items.front().map(|w| match w {
            Work::Frame { avail_ps } => (*avail_ps, Kind::Frame),
            Work::Question { avail_ps, .. } => (*avail_ps, Kind::Question),
            Work::Decode { .. } => (0, Kind::Decode),
        })
    }

    /// The ready set this stream is filed under: its head's class while
    /// the `ready` flag is set, `None` otherwise.
    pub(super) fn filed_class(&self) -> Option<Kind> {
        self.head().filter(|_| self.ready).map(|(_, kind)| kind)
    }

    /// The ready set this stream belongs in at `now` if it is not in
    /// flight: its head's class once the head is available.
    pub(super) fn ready_class(&self, now: u64) -> Option<Kind> {
        self.head()
            .filter(|&(avail, _)| avail <= now)
            .map(|(_, kind)| kind)
    }

    /// When a batch member's head item became visible to the scheduler:
    /// its availability, floored at the previous item's completion
    /// (per-session FIFO). Its restore can be in flight from here.
    pub(super) fn head_visible_ps(&self) -> u64 {
        // vrex-lint: allow(panicking-seam) — callers are batch members drawn from the ready set, so each has a head work item.
        let (avail_ps, _) = self.head().expect("batch member has a head item");
        avail_ps.max(self.last_completion_ps)
    }
}

/// Worst-case per-stream KV footprint of a session, in tokens.
pub(super) fn projected_cache(plan: &SessionPlan, cfg: &ServeConfig, model: &ModelConfig) -> usize {
    cfg.initial_cache_tokens + plan.total_cache_growth_tokens(model.tokens_per_frame)
}

/// The live stream in slab slot `slot` (free functions so callers can
/// borrow the slab while other `Sched` fields are borrowed mutably).
pub(super) fn live(slab: &[Option<Stream>], slot: usize) -> &Stream {
    // vrex-lint: allow(panicking-seam) — slot liveness is the scheduler's core invariant: every caller resolved `slot` from a live id or set; a dead slot is a corrupted scheduler.
    slab[slot].as_ref().expect("live slab slot")
}

pub(super) fn live_mut(slab: &mut [Option<Stream>], slot: usize) -> &mut Stream {
    // vrex-lint: allow(panicking-seam) — same slot-liveness invariant as `live` above.
    slab[slot].as_mut().expect("live slab slot")
}

impl Sched<'_> {
    pub(super) fn trace_event(&mut self, kind: TraceKind) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.push(TraceEvent { ps: self.now, kind });
        }
    }

    pub(super) fn push_event(&mut self, e: Event) {
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
    pub(super) fn pull_next_plan(&mut self) {
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
    pub(super) fn drain_past_events(&mut self) {
        while let Some(e) = self.events.pop_due(self.now) {
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

    /// The batched same-instant drain: pops the next future event,
    /// advances the clock to it, applies it — tracing it, while the
    /// same-instant siblings drained right after stay untraced, exactly
    /// the historical trace stream — then applies **every** remaining
    /// event sharing that picosecond. The admission pass that follows
    /// therefore runs once per *instant*, never once per event; the
    /// closing debug assert checks the pass covers the whole instant.
    /// Returns `false` when the queue is empty (the run is done).
    pub(super) fn advance_and_drain_instant(&mut self) -> bool {
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

    /// Places an admitted stream on the slab, assigns its admission
    /// sequence number, and folds it into the fleet aggregates.
    pub(super) fn insert_stream(&mut self, mut stream: Stream, demand_bytes: u64) -> usize {
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
    pub(super) fn remove_stream(&mut self, slot: usize) -> Stream {
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
}
