//! Timing wrappers at the trait seams the entry points accept.
//!
//! The traced pass sees inside a `serve*` / `process_frame` call only
//! where the program calls back out through a trait object the
//! benchmark supplied: the [`PlanSource`] a serve pulls sessions from,
//! and the [`RetrievalPolicy`] the model consults per head. Each
//! wrapper stamps its calls against the trace's clock and hands the
//! intervals over as child spans once the root call returns.

use std::time::Instant;

use vrex_model::policy::{RetrievalPolicy, Selection, SelectionRequest};
use vrex_tensor::Matrix;
use vrex_workload::traffic::{PlanSource, SessionPlan};
use vrex_workload::SessionEvent;

/// What the plans pulled through a [`TimingSource`] asked for — the
/// step mix the pricing probe replays.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepMix {
    pub frames: u64,
    pub questions: u64,
    pub question_tokens: u64,
    pub answer_tokens: u64,
}

/// A [`PlanSource`] that times every `next_plan` of the real source.
#[derive(Debug)]
pub struct TimingSource<S> {
    inner: S,
    epoch: Instant,
    /// `(start_ns, end_ns)` of each pull, against `epoch`.
    pub pulls: Vec<(u64, u64)>,
    pub mix: StepMix,
}

impl<S: PlanSource> TimingSource<S> {
    pub fn new(inner: S, epoch: Instant) -> Self {
        let pulls = Vec::with_capacity(inner.remaining_hint() + 1);
        Self {
            inner,
            epoch,
            pulls,
            mix: StepMix::default(),
        }
    }
}

impl<S: PlanSource> PlanSource for TimingSource<S> {
    fn next_plan(&mut self) -> Option<SessionPlan> {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let plan = self.inner.next_plan();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.pulls.push((start, end));
        for e in plan.iter().flat_map(|p| &p.events) {
            match *e {
                SessionEvent::Frame => self.mix.frames += 1,
                SessionEvent::Question { tokens } => {
                    self.mix.questions += 1;
                    self.mix.question_tokens += tokens as u64;
                }
                SessionEvent::Answer { tokens } => self.mix.answer_tokens += tokens as u64,
            }
        }
        plan
    }

    fn remaining_hint(&self) -> usize {
        self.inner.remaining_hint()
    }
}

/// A [`RetrievalPolicy`] that times `select` (the read side: WiCSum
/// over the hash clusters) and `on_keys_appended` (the write side:
/// hash-cluster inserts) of the real policy.
#[derive(Debug)]
pub struct TimingPolicy<P> {
    pub inner: P,
    epoch: Instant,
    pub selects: Vec<(u64, u64)>,
    pub appends: Vec<(u64, u64)>,
}

impl<P: RetrievalPolicy> TimingPolicy<P> {
    pub fn new(inner: P, epoch: Instant) -> Self {
        Self {
            inner,
            epoch,
            selects: Vec::new(),
            appends: Vec::new(),
        }
    }
}

impl<P: RetrievalPolicy> RetrievalPolicy for TimingPolicy<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_keys_appended(
        &mut self,
        layer: usize,
        kv_head: usize,
        new_keys: &Matrix,
        start_token: usize,
    ) {
        let start = self.epoch.elapsed().as_nanos() as u64;
        self.inner
            .on_keys_appended(layer, kv_head, new_keys, start_token);
        self.appends
            .push((start, self.epoch.elapsed().as_nanos() as u64));
    }

    fn select(&mut self, request: &SelectionRequest<'_>) -> Selection {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let s = self.inner.select(request);
        self.selects
            .push((start, self.epoch.elapsed().as_nanos() as u64));
        s
    }
}
