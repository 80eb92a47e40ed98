//! The scheduling pass both drivers share: admission control over the
//! arrived-but-waiting queue, the incrementally maintained ready sets,
//! batch formation and pricing, and the effects a completed batch
//! applies.

use std::collections::BTreeSet;

use super::report::rejected_report;
use super::stream::{live, live_mut, Event, EventKind, Kind, Stream, Work};
use super::Sched;
use crate::e2e::StepResult;

impl Sched<'_> {
    pub(super) fn mark_ready_by_id(&mut self, id: usize) {
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
        let class = s.ready_class(now);
        self.refile(slot, None, class);
    }

    /// Removes `slot` from the ready set (no-op if absent).
    pub(super) fn unmark_ready(&mut self, slot: usize) {
        let filed = live(&self.slab, slot).filed_class();
        self.refile(slot, filed, None);
    }

    /// Moves `slot` from the ready set of class `from` to that of `to`
    /// (`None`: in no set) and sets its `ready` flag to match. Equal
    /// classes leave the sets and the flag untouched.
    fn refile(&mut self, slot: usize, from: Option<Kind>, to: Option<Kind>) {
        if from == to {
            return;
        }
        let s = live_mut(&mut self.slab, slot);
        s.ready = to.is_some();
        let key = (s.seq, slot);
        if let Some(kind) = from {
            self.ready[kind as usize].remove(&key);
        }
        if let Some(kind) = to {
            self.ready[kind as usize].insert(key);
        }
    }

    pub(super) fn ready_total(&self) -> usize {
        self.ready.iter().map(BTreeSet::len).sum()
    }

    /// Asserts the incremental ready sets equal the full rescan (debug
    /// builds; the satellite equivalence check).
    #[cfg(debug_assertions)]
    pub(super) fn check_ready_invariant(&self) {
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
    pub(super) fn check_ready_invariant(&self) {}

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

    /// Runs the admission pass if anything could have changed it:
    /// admission work only appears when a session arrives, a waiter's
    /// deadline passes, or memory frees on retirement. Between those
    /// triggers the pass is a provable no-op, so the loop skips it:
    /// `admission_dirty` flags retirements (and the start), and the two
    /// `next_*` thresholds catch `now` jumping over an arrival or a
    /// deadline mid-batch.
    pub(super) fn maybe_admission_pass(&mut self) {
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
                Some(mgr) => {
                    let capacity = mgr.capacities().total_bytes();
                    (
                        demand > capacity,
                        self.fleet_demand_bytes + demand <= capacity,
                    )
                }
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

    /// Forms the next batch into `members` and prices it. The batching
    /// class is the one with the most ready streams (later entries win
    /// ties, so the real-time-critical frame path beats questions,
    /// which beat decodes); its members are that class's ready slots —
    /// the set is keyed `(seq, slot)`, so ascending iteration yields
    /// admission order, the order the historical active-vector scan
    /// produced — priced at the batch's worst-case cache length (one
    /// memoized lookup per repeated shape).
    pub(super) fn form_batch(&mut self) -> (Kind, StepResult) {
        let mut kind = Kind::Decode;
        for k in [Kind::Question, Kind::Frame] {
            if self.ready[k as usize].len() >= self.ready[kind as usize].len() {
                kind = k;
            }
        }
        self.members.clear();
        self.members
            .extend(self.ready[kind as usize].iter().map(|&(_, slot)| slot));
        let batch = self.members.len();
        self.counters.batches_formed += 1;
        self.counters.batch_members += batch as u64;
        let max_cache = self
            .members
            .iter()
            .map(|&slot| live(&self.slab, slot).cache_tokens)
            .max()
            // vrex-lint: allow(panicking-seam) — batch formation never emits an empty batch.
            .expect("non-empty batch");
        let step = match kind {
            Kind::Frame => self.prices.frame_step(max_cache, batch),
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
                self.prices.question_step(max_cache, batch, max_tokens)
            }
            Kind::Decode => self.prices.decode_step(max_cache, batch),
        };
        (kind, step)
    }

    /// Completes one work item per batch member at `completion`,
    /// updates the ready set, applies tier growth, retires drained
    /// sessions, and routes any decided migrations. Shared by both
    /// drivers — the serialized one calls it inline, the overlapped
    /// one from the batch's `StepComplete` event.
    pub(super) fn apply_batch(&mut self, completion: u64) {
        self.growths.clear();
        let tiered = self.tiers.is_some();
        for k in 0..self.members.len() {
            let slot = self.members[k];
            // The class the member is filed under before its head is
            // consumed: serialized members are still filed, overlapped
            // members left their set at launch.
            let filed = live(&self.slab, slot).filed_class();
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
            let ready_now = s.ready_class(completion);
            // The next item is now the head; if it only becomes
            // available after this batch's completion pass, register
            // its wake-up (otherwise the pass at `completion` already
            // sees it ready).
            if let Some((avail, _)) = s.head() {
                if avail > completion {
                    self.push_event(Event {
                        ps: avail,
                        kind: EventKind::WorkReady(id),
                    });
                }
            }
            // Re-file only if the ready state changed: a decoding member
            // whose next token is ready stays under the same key.
            self.refile(slot, filed, ready_now);
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
}
