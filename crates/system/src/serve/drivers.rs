//! The two execution models: how a formed batch executes and when its
//! effects apply. The serialized driver blocks on one batch at a time
//! and folds tier restores into the batch duration; the overlapped
//! driver launches batches as task sets on a resource timeline (see
//! the module docs of [`super`]).

use vrex_hwsim::engine::{Engine, ResourceId, TaskId};
use vrex_hwsim::tier::MemTier;

use super::stream::{live, live_mut, Event, EventKind, Kind};
use super::{Sched, TraceKind};
use crate::e2e::StepResult;
use crate::pricing::ExecContext;

/// Batches concurrently in flight under the resource-timeline model
/// (double-buffering: the next batch's restores stream while the
/// current batch computes).
const MAX_IN_FLIGHT: usize = 2;

/// The resource timeline of one overlapped run: the engine and its
/// named resources. The PCIe link is full duplex, so it appears as two
/// directional lanes: `pcie` (up, host/SSD → device — the
/// latency-critical restore and fetch direction) and `pcie-down`
/// (device → host/SSD demotion writebacks, which therefore never block
/// a restore; they still serialise against each other).
pub(super) struct Resources {
    engine: Engine,
    compute: ResourceId,
    pcie: ResourceId,
    pcie_down: ResourceId,
    host: ResourceId,
    ssd: ResourceId,
}

impl Resources {
    pub(super) fn new() -> Self {
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
pub(super) struct InFlight {
    /// Member session ids, in formation (active-index) order.
    ids: Vec<usize>,
    /// When every one of the batch's tasks has finished (ps).
    completion_ps: u64,
}

impl Sched<'_> {
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
            let window_ps =
                ((self.now - s.head_visible_ps()) + step.latency_ps).saturating_sub(link_busy_ps);
            let (plan, exposed_ps) =
                mgr.step_restore(s.id, ratio, generation, window_ps, self.prefetch.as_ref());
            link_busy_ps += plan.miss_ps();
            penalty_ps += exposed_ps;
            self.counters.record_restore(&plan);
        }
        self.charge_exposed(penalty_ps);
        penalty_ps
    }

    /// The batch completes as one unit: every member's critical path is
    /// stretched by the batch's exposed restore time, co-members'
    /// restores included.
    fn charge_exposed(&mut self, penalty_ps: u64) {
        if penalty_ps > 0 {
            for &slot in &self.members {
                live_mut(&mut self.slab, slot).tier_exposed_ps += penalty_ps;
            }
        }
    }

    /// Routes migrations the residency policy decided on. Under the
    /// resource timeline every spill/promotion becomes a
    /// lowest-priority link task (appended after all current
    /// reservations — writebacks stream behind latency-critical
    /// traffic) with its source/destination channel leg mirrored on
    /// the `ssd`/`host-dram` resources; serialized execution keeps the
    /// PR 3 assumption that writebacks stream behind compute for free.
    pub(super) fn flush_migrations(&mut self) {
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
                    let channel = match tier {
                        MemTier::Host => res.host,
                        MemTier::Ssd => res.ssd,
                        MemTier::Device => continue,
                    };
                    res.engine.reserve_after(channel, start, dur, tag, m.bytes);
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

    /// The serialized driver: batch-level blocking execution,
    /// byte-identical to the pre-resource-timeline scheduler (pinned by
    /// the golden-trace regression and the `tier_capacity` stdout).
    pub(super) fn run_serialized(&mut self) {
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
            let (kind, step) = self.form_batch(ExecContext::Serialized);
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
    pub(super) fn run_overlapped(&mut self) {
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
    ///   the speculated share ([`RestorePlan::spec_ps`]) may claim
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
        let (kind, step) = self.form_batch(ExecContext::Overlapped);
        let batch = self.members.len();
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
                    let ready_ps = s.head_visible_ps().max(s.spill_visible_ps);
                    let spec_ps = plan.spec_ps();
                    // Flat plans tag the speculated leg with the
                    // covered byte share (cluster plans carry it exactly).
                    let spec_bytes = if plan.cluster {
                        plan.spec_bytes
                    } else {
                        (plan.bytes() as f64 * plan.coverage) as u64
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
                    for (source, ps, bytes) in [
                        (res.host, plan.host_ps, plan.host_bytes),
                        (res.ssd, plan.ssd_ps, plan.ssd_bytes),
                    ] {
                        if ps > 0 {
                            res.engine
                                .reserve_after(source, first_start, ps, "restore", bytes);
                        }
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
                self.counters.record_restore(plan);
            }
        }
        // The slowest exposed restore stretches every member.
        self.charge_exposed(completion - horizon);
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
    pub(super) fn apply_completion(&mut self, slot: usize) {
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
}
