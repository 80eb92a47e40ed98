//! Multi-session traffic generation.
//!
//! The serving evaluation asks "how many concurrent COIN streams does a
//! platform sustain in real time?", so it needs a fleet of sessions
//! rather than the single stream of [`crate::session`]. This module
//! turns [`SessionGenerator`] output into per-session *plans*: a seeded
//! arrival time (staggered across a configurable window, so sessions
//! ramp up the way live traffic does instead of stampeding at t=0) plus
//! the session's event list. The serving scheduler in `vrex-system`
//! consumes the plans; this crate stays hardware-free.
//!
//! Fleet-scale runs consume plans through the [`PlanSource`] streaming
//! seam instead of a materialized `Vec`: [`TrafficConfig::stream`]
//! yields the staggered fleet lazily, and [`OpenLoopConfig`] offers
//! open-loop Poisson traffic whose rate stays fixed as the fleet
//! scales to 10⁵–10⁶ sessions. Either way arrivals reach the scheduler
//! in nondecreasing order, so it holds at most the not-yet-arrived
//! head of the fleet in memory.
//!
//! Arrival timestamps are integer picoseconds ([`SessionPlan::arrival_ps`],
//! via [`vrex_core::time`]): the event-driven scheduler compares and
//! adds timestamps exactly, so the float jitter draw is rounded to ps
//! once, here, and never re-enters time arithmetic.

use rand::rngs::StdRng;
use rand::Rng;
use vrex_core::time::seconds_to_ps;
use vrex_tensor::rng::seeded_rng;

use crate::session::{SessionEvent, SessionGenerator};

/// Parameters of a generated traffic fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Number of sessions offered to the system.
    pub sessions: usize,
    /// Interactions (frames + question + answer) per session.
    pub turns: usize,
    /// Arrivals are staggered uniformly at random across this window
    /// (seconds); 0 makes every session arrive at t=0.
    pub arrival_spread_s: f64,
    /// Seed for both arrival jitter and per-session event generation.
    pub seed: u64,
}

impl TrafficConfig {
    /// A small paper-average fleet: `sessions` streams of 2 turns each,
    /// ramping up over 10 seconds.
    pub fn paper_average(sessions: usize, seed: u64) -> Self {
        Self {
            sessions,
            turns: 2,
            arrival_spread_s: 10.0,
            seed,
        }
    }

    /// Generates the fleet: one [`SessionPlan`] per session, sorted by
    /// arrival time. Deterministic in `seed`.
    ///
    /// Materializes the whole fleet; fleet-scale runs (10⁵+ sessions)
    /// should use [`Self::stream`] so plans are generated one at a
    /// time as the scheduler consumes them.
    pub fn generate(&self) -> Vec<SessionPlan> {
        let mut stream = self.stream();
        let mut plans = Vec::with_capacity(self.sessions);
        while let Some(p) = stream.next_plan() {
            plans.push(p);
        }
        // The `PlanSource` contract the serving layer relies on: each
        // session's jitter stays inside its own slot.
        debug_assert!(
            plans.windows(2).all(|w| w[0].arrival_ps <= w[1].arrival_ps),
            "arrivals must be nondecreasing"
        );
        plans
    }

    /// The same fleet as [`Self::generate`] — same seeds, same plans,
    /// same order — produced lazily, one plan per
    /// [`PlanSource::next_plan`] call, so the fleet is never resident
    /// all at once.
    pub fn stream(&self) -> PlanStream {
        PlanStream {
            // Arrival jitter draws from an independent stream so
            // changing the session-content generator cannot reshuffle
            // arrivals.
            arrival_rng: seeded_rng(self.seed ^ 0x9E37_79B9_7F4A_7C15),
            generator: SessionGenerator::new(self.seed),
            next_id: 0,
            sessions: self.sessions,
            turns: self.turns,
            slot_s: if self.sessions == 0 {
                0.0
            } else {
                self.arrival_spread_s / self.sessions as f64
            },
        }
    }
}

/// A fleet delivered one plan at a time, in nondecreasing arrival
/// order, so callers can simulate 10⁶-session fleets without ever
/// materializing every [`SessionPlan`] at once.
///
/// The contract the serving scheduler relies on: successive
/// [`Self::next_plan`] arrivals never decrease, and ties arrive in
/// yield order. Every implementation here guarantees it by
/// construction; consumers may `debug_assert` it.
pub trait PlanSource {
    /// The next session to offer, or `None` when the fleet is
    /// exhausted. Arrivals are nondecreasing across calls.
    fn next_plan(&mut self) -> Option<SessionPlan>;

    /// How many plans remain (exact where knowable; used only to
    /// pre-size scheduler buffers, never for control flow).
    fn remaining_hint(&self) -> usize {
        0
    }
}

/// Streaming [`TrafficConfig`] fleet (see [`TrafficConfig::stream`]).
///
/// Arrivals are nondecreasing by construction: session `id` arrives at
/// `id·slot + jitter` with `jitter < slot`, which is below
/// `(id+1)·slot`, and [`seconds_to_ps`] is monotone.
#[derive(Debug)]
pub struct PlanStream {
    arrival_rng: StdRng,
    generator: SessionGenerator,
    next_id: usize,
    sessions: usize,
    turns: usize,
    slot_s: f64,
}

impl PlanSource for PlanStream {
    fn next_plan(&mut self) -> Option<SessionPlan> {
        if self.next_id >= self.sessions {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        // Staggered: one slot per session, jittered within it.
        let jitter = if self.slot_s > 0.0 {
            self.arrival_rng.gen_range(0.0..self.slot_s)
        } else {
            0.0
        };
        Some(SessionPlan {
            id,
            arrival_ps: seconds_to_ps(id as f64 * self.slot_s + jitter),
            events: self.generator.session(self.turns),
        })
    }

    fn remaining_hint(&self) -> usize {
        self.sessions - self.next_id
    }
}

/// Adapts a materialized plan slice to [`PlanSource`], yielding clones
/// in `(arrival_ps, slice index)` order — exactly the order the
/// scheduler's admission queue historically used.
#[derive(Debug)]
pub struct SlicePlans<'a> {
    plans: &'a [SessionPlan],
    order: Vec<usize>,
    next: usize,
}

impl<'a> SlicePlans<'a> {
    /// Wraps a plan slice (arrivals in any order).
    pub fn new(plans: &'a [SessionPlan]) -> Self {
        let mut order: Vec<usize> = (0..plans.len()).collect();
        order.sort_by_key(|&i| (plans[i].arrival_ps, i));
        SlicePlans {
            plans,
            order,
            next: 0,
        }
    }
}

impl PlanSource for SlicePlans<'_> {
    fn next_plan(&mut self) -> Option<SessionPlan> {
        let &i = self.order.get(self.next)?;
        self.next += 1;
        Some(self.plans[i].clone())
    }

    fn remaining_hint(&self) -> usize {
        self.order.len() - self.next
    }
}

/// Open-loop Poisson traffic: arrivals at rate λ, independent of how
/// fast the system drains them — the fleet-scale load model (closed
/// [`TrafficConfig`] staggering couples arrival spacing to fleet size;
/// an open loop holds the offered rate fixed as sessions scale to
/// 10⁵–10⁶).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopConfig {
    /// Number of sessions offered.
    pub sessions: usize,
    /// Mean arrival rate λ (sessions per second, > 0): inter-arrival
    /// gaps are exponential with mean 1/λ.
    pub arrival_rate_per_s: f64,
    /// Interactions (frames + question + answer) per session.
    pub turns: usize,
    /// Seed for both arrival gaps and per-session event generation.
    pub seed: u64,
}

impl OpenLoopConfig {
    /// The streaming fleet: deterministic in `seed`, arrivals strictly
    /// ordered by the running exponential-gap sum.
    pub fn stream(&self) -> OpenLoopStream {
        assert!(
            self.arrival_rate_per_s > 0.0,
            "open-loop arrival rate must be positive"
        );
        OpenLoopStream {
            arrival_rng: seeded_rng(self.seed ^ 0x9E37_79B9_7F4A_7C15),
            generator: SessionGenerator::new(self.seed),
            next_id: 0,
            next_arrival_ps: 0,
            cfg: *self,
        }
    }
}

/// Streaming [`OpenLoopConfig`] fleet. Arrivals are nondecreasing
/// because each is the previous plus a non-negative exponential gap,
/// accumulated in integer picoseconds (each float gap is rounded to ps
/// once and never re-enters time arithmetic, the same discipline as
/// the staggered generator).
#[derive(Debug)]
pub struct OpenLoopStream {
    arrival_rng: StdRng,
    generator: SessionGenerator,
    next_id: usize,
    next_arrival_ps: u64,
    cfg: OpenLoopConfig,
}

impl PlanSource for OpenLoopStream {
    fn next_plan(&mut self) -> Option<SessionPlan> {
        if self.next_id >= self.cfg.sessions {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        let plan = SessionPlan {
            id,
            arrival_ps: self.next_arrival_ps,
            events: self.generator.session(self.cfg.turns),
        };
        // Inverse-CDF exponential draw; 1−u ∈ (0, 1] keeps ln finite.
        let u: f64 = self.arrival_rng.gen_range(0.0..1.0);
        let gap_s = -(1.0 - u).ln() / self.cfg.arrival_rate_per_s;
        self.next_arrival_ps = self.next_arrival_ps.saturating_add(seconds_to_ps(gap_s));
        Some(plan)
    }

    fn remaining_hint(&self) -> usize {
        self.cfg.sessions - self.next_id
    }
}

/// One planned session: when it arrives and what it will do.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionPlan {
    /// Stable session id (assigned before arrival sorting).
    pub id: usize,
    /// Wall-clock arrival time (integer picoseconds).
    pub arrival_ps: u64,
    /// The session's event stream (frames, questions, answers).
    pub events: Vec<SessionEvent>,
}

impl SessionPlan {
    /// Total video frames across the session.
    // vrex-lint: allow(unreached-pub) — oracle of crates/system/tests/props.rs
    pub fn total_frames(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, SessionEvent::Frame))
            .count()
    }

    /// Total KV-cache tokens this session will ever append on top of
    /// its initial context: frames × tokens-per-frame plus every
    /// question and answer token. The serving scheduler uses this as
    /// the worst-case per-stream footprint for admission control.
    pub fn total_cache_growth_tokens(&self, tokens_per_frame: usize) -> usize {
        self.events
            .iter()
            .map(|e| match e {
                SessionEvent::Frame => tokens_per_frame,
                SessionEvent::Question { tokens } | SessionEvent::Answer { tokens } => *tokens,
            })
            .sum()
    }

    /// First-order estimate (ps) of how long this session occupies a
    /// server once admitted, at a camera interval of
    /// `frame_interval_ps`: the camera paces one event slot per frame
    /// interval, so the event count bounds the streaming span. Device
    /// placement uses this to expire routed sessions from its
    /// per-device load trackers; it is an estimate, not schedule truth
    /// (decode tokens finish faster, contention stretches tails), but
    /// it is integer, deterministic, and cheap — which is what a
    /// placement-time proxy must be.
    pub fn span_estimate_ps(&self, frame_interval_ps: u64) -> u64 {
        frame_interval_ps * self.events.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrex_core::time::{ps_to_seconds, PS_PER_SECOND};

    #[test]
    fn span_estimate_is_events_times_interval() {
        let plan = SessionPlan {
            id: 0,
            arrival_ps: 0,
            events: vec![
                SessionEvent::Frame,
                SessionEvent::Frame,
                SessionEvent::Question { tokens: 32 },
                SessionEvent::Answer { tokens: 64 },
            ],
        };
        assert_eq!(plan.span_estimate_ps(500_000_000_000), 4 * 500_000_000_000);
        assert_eq!(plan.span_estimate_ps(0), 0);
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = TrafficConfig::paper_average(6, 42);
        assert_eq!(cfg.generate(), cfg.generate());
    }

    #[test]
    fn arrivals_are_sorted_and_within_the_window() {
        let cfg = TrafficConfig {
            sessions: 16,
            turns: 1,
            arrival_spread_s: 30.0,
            seed: 3,
        };
        let plans = cfg.generate();
        assert_eq!(plans.len(), 16);
        for w in plans.windows(2) {
            assert!(w[0].arrival_ps <= w[1].arrival_ps);
        }
        assert!(plans.iter().all(|p| p.arrival_ps < 30 * PS_PER_SECOND));
        // Staggering spreads arrivals: not everyone in the first slot.
        assert!(plans.last().unwrap().arrival_ps > 15 * PS_PER_SECOND);
    }

    #[test]
    fn zero_spread_arrives_at_t0() {
        let cfg = TrafficConfig {
            sessions: 3,
            turns: 1,
            arrival_spread_s: 0.0,
            seed: 9,
        };
        assert!(cfg.generate().iter().all(|p| p.arrival_ps == 0));
    }

    #[test]
    fn cache_growth_counts_every_event() {
        let plan = SessionPlan {
            id: 0,
            arrival_ps: 0,
            events: vec![
                SessionEvent::Frame,
                SessionEvent::Frame,
                SessionEvent::Question { tokens: 5 },
                SessionEvent::Answer { tokens: 7 },
            ],
        };
        assert_eq!(plan.total_frames(), 2);
        assert_eq!(plan.total_cache_growth_tokens(10), 2 * 10 + 5 + 7);
    }

    #[test]
    fn stream_reproduces_generate_exactly() {
        // The streaming generator must be plan-for-plan identical to
        // the materializing one (same seeds, same order) so existing
        // callers can switch without moving any golden numbers.
        for (sessions, spread) in [(0usize, 10.0), (1, 0.0), (16, 30.0), (64, 5.0)] {
            let cfg = TrafficConfig {
                sessions,
                turns: 2,
                arrival_spread_s: spread,
                seed: 17,
            };
            let mut stream = cfg.stream();
            let mut streamed = Vec::new();
            while let Some(p) = stream.next_plan() {
                assert_eq!(stream.remaining_hint(), sessions - streamed.len() - 1);
                streamed.push(p);
            }
            assert_eq!(streamed, cfg.generate());
        }
    }

    #[test]
    fn slice_source_yields_arrival_order_clones() {
        let mut plans = TrafficConfig::paper_average(8, 3).generate();
        plans.reverse(); // any slice order is accepted
        let mut src = SlicePlans::new(&plans);
        assert_eq!(src.remaining_hint(), 8);
        let mut last = 0u64;
        let mut seen = 0;
        while let Some(p) = src.next_plan() {
            assert!(p.arrival_ps >= last, "slice source must sort arrivals");
            last = p.arrival_ps;
            seen += 1;
        }
        assert_eq!(seen, 8);
        assert_eq!(src.remaining_hint(), 0);
    }

    #[test]
    fn open_loop_arrivals_are_poisson_like_and_deterministic() {
        let cfg = OpenLoopConfig {
            sessions: 4_000,
            arrival_rate_per_s: 2.0,
            turns: 1,
            seed: 7,
        };
        let collect = || {
            let mut s = cfg.stream();
            let mut v = Vec::new();
            while let Some(p) = s.next_plan() {
                v.push(p);
            }
            v
        };
        let a = collect();
        assert_eq!(a, collect(), "open-loop streams must be deterministic");
        assert_eq!(a.len(), 4_000);
        for w in a.windows(2) {
            assert!(w[0].arrival_ps <= w[1].arrival_ps);
        }
        // Mean inter-arrival ≈ 1/λ = 0.5 s over 4k draws.
        let span_s = ps_to_seconds(a.last().unwrap().arrival_ps);
        let mean_gap = span_s / (a.len() - 1) as f64;
        assert!(
            (mean_gap - 0.5).abs() < 0.05,
            "mean gap {mean_gap} off the 1/λ target"
        );
        // Exponential gaps are bursty: some gap is well below the
        // mean, some well above (a staggered fleet has neither).
        let gaps: Vec<u64> = a
            .windows(2)
            .map(|w| w[1].arrival_ps - w[0].arrival_ps)
            .collect();
        assert!(gaps.iter().any(|&g| g < seconds_to_ps(0.05)));
        assert!(gaps.iter().any(|&g| g > seconds_to_ps(1.5)));
    }

    #[test]
    fn sessions_have_requested_turn_count() {
        let plans = TrafficConfig {
            sessions: 4,
            turns: 3,
            arrival_spread_s: 5.0,
            seed: 1,
        }
        .generate();
        for p in &plans {
            let questions = p
                .events
                .iter()
                .filter(|e| matches!(e, SessionEvent::Question { .. }))
                .count();
            assert_eq!(questions, 3);
        }
    }
}
