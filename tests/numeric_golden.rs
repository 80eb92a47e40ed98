//! Numeric golden: the small model streamed with ReSV, ReKV and
//! `SelectAll`, folded into one pinned FNV-1a fingerprint.
//!
//! The numeric kernels (`vrex-tensor`, `vrex-model`, `vrex-core`) are
//! held to bit-identity (ARCHITECTURE.md, "Numeric kernels"). This test
//! pins that in the tier-1 suite: the generated answers, every field of
//! each stage's `RunStats::summary()` as bits, the fetched bytes,
//! ReSV's work counters and the bits of the final hidden states. A
//! kernel change that moves any float, selection or counter fails here.

use vrex::core::resv::{ResvConfig, ResvPolicy};
use vrex::model::VideoStream;
use vrex::model::{ModelConfig, RetrievalPolicy, RunStats, SelectAll, StreamingVideoLlm};
use vrex::retrieval::RekvPolicy;
use vrex::tensor::Matrix;
use vrex::workload::{CoinTask, SessionGenerator};

const FRAMES: usize = 32;
const QUESTION_TOKENS: usize = 6;
const ANSWER_TOKENS: usize = 5;
const SEED: u64 = 11;

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn stats(&mut self, stats: &RunStats) {
        let s = stats.summary();
        self.word(s.mean_ratio.to_bits());
        self.word(s.mean_recall.to_bits());
        self.word(s.fetch_bytes);
        self.word(s.full_fetch_bytes);
    }

    fn matrix(&mut self, m: &Matrix) {
        self.word(m.rows() as u64);
        self.word(m.cols() as u64);
        for v in m.data() {
            self.word(u64::from(v.to_bits()));
        }
    }
}

/// Streams [`FRAMES`] frames through the small model, then one
/// question and its answer, and folds everything the run produces.
fn stream(policy: &mut dyn RetrievalPolicy) -> Fnv {
    let cfg = ModelConfig::small();
    let mut llm = StreamingVideoLlm::new(cfg.clone(), SEED);
    let mut video =
        VideoStream::new(CoinTask::Next.video_config(cfg.tokens_per_frame, cfg.hidden_dim, SEED));
    let question = SessionGenerator::new(SEED).question_ids(QUESTION_TOKENS);
    let mut prefill = RunStats::new(&cfg, false);
    let mut generation = RunStats::new(&cfg, false);
    let mut last_frame = Matrix::default();
    for frame in video.take_frames(FRAMES) {
        last_frame = llm.process_frame(&frame, policy, &mut prefill);
    }
    let hidden = llm.process_text(&question, policy, &mut prefill);
    let answer = llm.generate(&hidden, ANSWER_TOKENS, policy, &mut generation);
    let mut fnv = Fnv::new();
    fnv.word(answer.len() as u64);
    answer.iter().for_each(|&id| fnv.word(id as u64));
    fnv.stats(&prefill);
    fnv.stats(&generation);
    fnv.matrix(&last_frame);
    fnv.matrix(&hidden);
    fnv
}

#[test]
fn resv_stream_fingerprint_is_pinned() {
    let mut resv = ResvPolicy::new(&ModelConfig::small(), ResvConfig::paper_defaults());
    let mut fnv = stream(&mut resv);
    let w = resv.work_stats();
    let e = w.early_exit;
    let c = w.clustering;
    for word in [
        w.cluster_scores_computed,
        w.token_scores_equivalent,
        e.selections,
        e.buckets_visited,
        e.buckets_total,
        e.elements_scanned,
        e.elements_sorted,
        c.tokens_inserted,
        c.hamming_comparisons,
        c.clusters_created,
    ] {
        fnv.word(word);
    }
    assert_eq!(
        fnv.0, 0xac0f_c12c_9056_182f,
        "ReSV fingerprint moved: {:#018x}",
        fnv.0
    );
}

#[test]
fn rekv_stream_fingerprint_is_pinned() {
    let tokens_per_frame = ModelConfig::small().tokens_per_frame;
    let fnv = stream(&mut RekvPolicy::paper_defaults(tokens_per_frame));
    assert_eq!(
        fnv.0, 0x6b3a_44d5_b47f_9aca,
        "ReKV fingerprint moved: {:#018x}",
        fnv.0
    );
}

#[test]
fn select_all_stream_fingerprint_is_pinned() {
    let fnv = stream(&mut SelectAll::new());
    assert_eq!(
        fnv.0, 0x52da_581f_de5d_fdf4,
        "SelectAll fingerprint moved: {:#018x}",
        fnv.0
    );
}
