//! `resv_stream`: real tensors through the small transformer with ReSV
//! retrieval. The numeric layer (`tensor` / `model` / `core`) does all
//! the work; `system` and `hwsim` do nothing. Hash-cluster inserts
//! (writes) run beside WiCSum selection (reads), so a gain for one that
//! costs the other shows here.
//!
//! Closed loop: each frame is processed when the previous one is done.

use std::time::Instant;

use vrex_core::resv::{ResvConfig, ResvPolicy};
use vrex_model::{Frame, ModelConfig, RetrievalPolicy, RunStats, StreamingVideoLlm, VideoStream};
use vrex_workload::{CoinTask, SessionGenerator};

use super::{Metrics, Prepared, Rep, Seen, Workload};
use crate::check::{Checks, Digest};
use crate::probes;
use crate::stats::slope;
use crate::trace::{totals, Aggregate, Tracer};
use crate::wrap::TimingPolicy;

/// A question and an answer every this many frames.
const FRAMES_PER_TURN: usize = 40;
const QUESTION_TOKENS: usize = 6;
const ANSWER_TOKENS: usize = 5;

const FRAME: &str = "model.process_frame";
const TEXT: &str = "model.process_text";
const GENERATE: &str = "model.generate";

/// Independent streams per repetition. How fast a stream runs depends
/// on its video (scene cuts make clusters, clusters make selection
/// work): one stream's frame rate swings ±7 % from seed to seed, three
/// streams' a third of that.
const STREAMS: u64 = 3;

#[derive(Debug)]
pub struct Resv {
    /// Frames per stream.
    frames: usize,
    /// Frames of the separate recall-tracked pass.
    recall_frames: usize,
}

impl Resv {
    pub fn new(frames: usize, recall_frames: usize) -> Self {
        Resv {
            frames,
            recall_frames,
        }
    }
}

/// Weights, policy tables and inputs for one stream.
struct Stream {
    llm: StreamingVideoLlm,
    policy: ResvPolicy,
    frames: Vec<Frame>,
    questions: Vec<Vec<usize>>,
}

impl Stream {
    fn new(frames: usize, seed: u64) -> Self {
        let cfg = ModelConfig::small();
        let mut video = VideoStream::new(CoinTask::Next.video_config(
            cfg.tokens_per_frame,
            cfg.hidden_dim,
            seed,
        ));
        let mut asker = SessionGenerator::new(seed);
        Stream {
            llm: StreamingVideoLlm::new(cfg.clone(), seed),
            policy: ResvPolicy::new(&cfg, ResvConfig::paper_defaults()),
            frames: video.take_frames(frames),
            questions: (0..frames / FRAMES_PER_TURN)
                .map(|_| asker.question_ids(QUESTION_TOKENS))
                .collect(),
        }
    }
}

/// Streams `frames` through `llm`, asking `questions[t]` and generating
/// an answer after every [`FRAMES_PER_TURN`]th frame. After each model
/// call, `observe(call name, when it started, policy, cached tokens
/// when it started)`. Returns the answers.
fn stream<P: RetrievalPolicy>(
    llm: &mut StreamingVideoLlm,
    frames: &[Frame],
    questions: &[Vec<usize>],
    policy: &mut P,
    stats: &mut RunStats,
    mut observe: impl FnMut(&'static str, Instant, &mut P, usize),
) -> Vec<Vec<usize>> {
    let mut answers = Vec::new();
    for (i, frame) in frames.iter().enumerate() {
        let (tokens, start) = (llm.cache().len(), Instant::now());
        llm.process_frame(frame, policy, stats);
        observe(FRAME, start, policy, tokens);
        if (i + 1) % FRAMES_PER_TURN == 0 {
            let (tokens, start) = (llm.cache().len(), Instant::now());
            let hidden = llm.process_text(&questions[i / FRAMES_PER_TURN], policy, stats);
            observe(TEXT, start, policy, tokens);
            let (tokens, start) = (llm.cache().len(), Instant::now());
            answers.push(llm.generate(&hidden, ANSWER_TOKENS, policy, stats));
            observe(GENERATE, start, policy, tokens);
        }
    }
    answers
}

impl Workload for Resv {
    fn setup(&self, seed: u64) -> Box<dyn Prepared + '_> {
        Box::new(ResvRun {
            // Distinct streams for distinct (seed, k) pairs.
            streams: (0..STREAMS)
                .map(|k| Stream::new(self.frames, seed.wrapping_mul(STREAMS).wrapping_add(k)))
                .collect(),
            recall_frames: self.recall_frames,
            seed,
        })
    }

    fn layers(
        &self,
        _seed: u64,
        _base: &Rep,
        traced: &Rep,
        _tracer: &Tracer,
        agg: &[Aggregate],
        _checks: &mut Checks,
    ) -> Metrics {
        let mut out = Metrics::new();
        let wall_ns = traced.wall_s * 1e9;
        out.insert(
            "model.process_frame.busy_s",
            totals(agg, FRAME).1 as f64 / 1e9,
        );
        // Model time not spent behind the policy seam: projections,
        // attention, FFN — `tensor` and `model` proper.
        let model_self: u64 = [FRAME, TEXT, GENERATE]
            .iter()
            .map(|name| totals(agg, name).2)
            .sum();
        out.insert("model.self_share", model_self as f64 / wall_ns);
        let (calls, busy_ns, _) = totals(agg, "core.resv.select");
        out.insert("core.resv.select.calls", calls as f64);
        out.insert("core.resv.select.busy_s", busy_ns as f64 / 1e9);
        out.insert("core.resv.select.share", busy_ns as f64 / wall_ns);
        let (calls, busy_ns, _) = totals(agg, "core.resv.append");
        out.insert("core.resv.append.calls", calls as f64);
        out.insert("core.resv.append.busy_s", busy_ns as f64 / 1e9);
        out.insert("core.resv.append.share", busy_ns as f64 / wall_ns);
        // Frame cost against the cache it attends over.
        let points: Vec<(f64, f64)> = traced
            .seen
            .cache_tokens
            .iter()
            .zip(&traced.call_ms)
            .map(|(&tokens, &ms)| (tokens as f64 / 1e3, ms))
            .collect();
        out.insert("model.frame_ms_slope", slope(&points));
        out.insert(
            "core.resv.visited_fraction",
            traced.seen.resv_visited_fraction,
        );
        out.insert(
            "core.resv.tokens_per_cluster",
            traced.seen.resv_tokens_per_cluster,
        );
        out.extend(probes::kernel_ns(&ModelConfig::small()));
        out
    }
}

/// What a finished stream leaves for the checks and the layer metrics.
struct StreamOutcome {
    cached_tokens: usize,
    frames: usize,
    answers: Vec<Vec<usize>>,
    /// Selected/cached ratio of the timed pass.
    ratio: f64,
    visited_fraction: f64,
    tokens_per_cluster: f64,
}

struct ResvRun {
    streams: Vec<Stream>,
    recall_frames: usize,
    seed: u64,
}

impl Prepared for ResvRun {
    fn run(self: Box<Self>, checks: &mut Checks, mut tracer: Option<&mut Tracer>) -> Rep {
        let cfg = ModelConfig::small();
        let frames_total: usize = self.streams.iter().map(|s| s.frames.len()).sum();
        let mut call_ms = Vec::with_capacity(frames_total);
        let mut cache_tokens = Vec::with_capacity(frames_total);
        let mut on_frame = |name: &str, start: Instant, tokens: usize| {
            if name == FRAME {
                call_ms.push(start.elapsed().as_secs_f64() * 1e3);
                cache_tokens.push(tokens);
            }
        };
        // What each stream leaves behind for the checks.
        let mut done = Vec::with_capacity(self.streams.len());
        let clock = Instant::now();
        for stream_in in self.streams {
            let Stream {
                mut llm,
                policy,
                frames,
                questions,
            } = stream_in;
            // Recall tracking recomputes full attention per head; it
            // stays out of the timed pass.
            let mut stats = RunStats::new(&cfg, false);
            let (answers, policy) = match tracer.as_deref_mut() {
                None => {
                    let mut policy = policy;
                    let answers = stream(
                        &mut llm,
                        &frames,
                        &questions,
                        &mut policy,
                        &mut stats,
                        |name, start, _, tokens| on_frame(name, start, tokens),
                    );
                    (answers, policy)
                }
                Some(tracer) => {
                    let epoch = tracer.epoch();
                    let mut timed = TimingPolicy::new(policy, epoch);
                    let answers = stream(
                        &mut llm,
                        &frames,
                        &questions,
                        &mut timed,
                        &mut stats,
                        |name, start, timed, tokens| {
                            let end_ns = tracer.now_ns();
                            on_frame(name, start, tokens);
                            let start_ns = start.duration_since(epoch).as_nanos() as u64;
                            let root = tracer.root_at(name, start_ns, end_ns);
                            tracer.children(root, "core.resv.select", timed.selects.drain(..));
                            tracer.children(root, "core.resv.append", timed.appends.drain(..));
                        },
                    );
                    (answers, timed.inner)
                }
            };
            // Only what the checks need outlives the stream: its cache,
            // tables and frames are freed before the next one starts.
            done.push(StreamOutcome {
                cached_tokens: llm.cache().len(),
                frames: frames.len(),
                answers,
                ratio: stats.overall_ratio(),
                visited_fraction: policy.work_stats().early_exit.mean_visited_fraction(),
                tokens_per_cluster: policy.mean_tokens_per_cluster(),
            });
        }
        let wall_s = clock.elapsed().as_secs_f64();

        let mut digest = Digest::default();
        for o in &done {
            let turns = o.frames / FRAMES_PER_TURN;
            let want_tokens =
                o.frames * cfg.tokens_per_frame + turns * (QUESTION_TOKENS + ANSWER_TOKENS);
            checks.check(
                o.cached_tokens == want_tokens && o.answers.len() == turns,
                || {
                    format!(
                        "resv_stream: {} cached tokens (want {want_tokens}), {} answers \
                         (want {turns})",
                        o.cached_tokens,
                        o.answers.len()
                    )
                },
            );
            checks.check(
                o.answers
                    .iter()
                    .all(|a| a.len() == ANSWER_TOKENS && a.iter().all(|&id| id < cfg.vocab_size)),
                || format!("resv_stream: malformed answers {:?}", o.answers),
            );
            checks.check(o.ratio > 0.0 && o.ratio <= 1.0, || {
                format!(
                    "resv_stream: timed-pass retrieval ratio {} outside (0, 1]",
                    o.ratio
                )
            });
            for a in &o.answers {
                a.iter().for_each(|&id| digest.word(id as u64));
            }
            digest.float(o.ratio);
        }
        let mean =
            |f: fn(&StreamOutcome) -> f64| done.iter().map(f).sum::<f64>() / done.len() as f64;

        // The accuracy side, on a short pass of its own: how much of the
        // full attention mass the selected tokens capture, and what
        // share of the cache they are.
        let (recall, recall_ratio) = recall_pass(self.recall_frames, self.seed);
        checks.check(
            (0.0..=1.0).contains(&recall) && recall_ratio > 0.0 && recall_ratio <= 1.0,
            || format!("resv_stream: recall {recall} or ratio {recall_ratio} out of range"),
        );
        digest.floats(&[recall, recall_ratio]);
        Rep {
            items: frames_total as u64,
            wall_s,
            call_ms,
            digest: digest.finish(),
            sim: vec![("resv_recall", recall), ("resv_ratio", recall_ratio)],
            seen: Seen {
                cache_tokens,
                resv_visited_fraction: mean(|o| o.visited_fraction),
                resv_tokens_per_cluster: mean(|o| o.tokens_per_cluster),
                ..Seen::default()
            },
        }
    }
}

/// Mean attention-mass recall and selected/cached ratio over a fresh
/// stream of `frames` frames with recall tracking on.
fn recall_pass(frames: usize, seed: u64) -> (f64, f64) {
    let Stream {
        mut llm,
        mut policy,
        frames,
        questions,
    } = Stream::new(frames, seed);
    let mut stats = RunStats::new(&ModelConfig::small(), true);
    stream(
        &mut llm,
        &frames,
        &questions,
        &mut policy,
        &mut stats,
        |_, _, _, _| {},
    );
    (stats.mean_recall(), stats.overall_ratio())
}
