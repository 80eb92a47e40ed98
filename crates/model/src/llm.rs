//! The streaming video LLM driver: iterative prefill + generation.
//!
//! Mirrors the paper's Fig. 3 workflow: frames arrive one at a time and
//! each runs a full prefill pass through the decoder stack (reading the
//! accumulated KV cache and appending to it); user questions are
//! prefetched the same way; answers are generated autoregressively.

use rand::rngs::StdRng;
use vrex_tensor::rng::{seeded_rng, xavier_matrix};
use vrex_tensor::Matrix;

use crate::config::ModelConfig;
use crate::decoder::DecoderLayer;
use crate::kv_cache::KvCache;
use crate::policy::{RetrievalPolicy, Selection, Stage};
use crate::vision::Frame;

/// Accumulated per-run retrieval statistics.
///
/// One `RunStats` is typically kept per stage (prefill vs generation)
/// so the per-stage retrieval ratios of the paper's Table II can be
/// reported separately.
#[derive(Debug, Clone)]
pub struct RunStats {
    n_layers: usize,
    n_heads: usize,
    track_recall: bool,
    /// Σ selected history tokens, indexed `[layer][query_head]`.
    selected: Vec<Vec<u64>>,
    /// Σ history length at selection time, same indexing.
    context: Vec<Vec<u64>>,
    /// Distinct KV bytes that would be fetched (per-KV-head union of
    /// the head selections × per-token-per-layer-per-head KV bytes).
    fetch_bytes: u64,
    /// Total KV bytes a full fetch would have moved.
    full_fetch_bytes: u64,
    recall_sum: f64,
    recall_count: u64,
}

/// Compact per-stage summary of a [`RunStats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageStats {
    /// Mean selected fraction of the history across layers/heads/steps.
    pub mean_ratio: f64,
    /// Mean attention recall (1.0 when not tracked).
    pub mean_recall: f64,
    /// Distinct KV bytes fetched.
    pub fetch_bytes: u64,
    /// KV bytes a full fetch would have moved.
    pub full_fetch_bytes: u64,
}

impl RunStats {
    /// Creates empty statistics for `cfg`; `track_recall` additionally
    /// computes the attention-recall accuracy proxy (slower).
    pub fn new(cfg: &ModelConfig, track_recall: bool) -> Self {
        Self {
            n_layers: cfg.n_layers,
            n_heads: cfg.n_heads,
            track_recall,
            selected: vec![vec![0; cfg.n_heads]; cfg.n_layers],
            context: vec![vec![0; cfg.n_heads]; cfg.n_layers],
            fetch_bytes: 0,
            full_fetch_bytes: 0,
            recall_sum: 0.0,
            recall_count: 0,
        }
    }

    /// Whether attention recall tracking is enabled.
    pub fn track_recall(&self) -> bool {
        self.track_recall
    }

    /// Records one head-level selection over a history of `history_len`.
    pub fn record_selection(
        &mut self,
        layer: usize,
        query_head: usize,
        selection: &Selection,
        history_len: usize,
    ) {
        self.selected[layer][query_head] += selection.selected_count(history_len) as u64;
        self.context[layer][query_head] += history_len as u64;
    }

    /// Records one attention-recall observation.
    pub fn record_recall(&mut self, recall: f64) {
        self.recall_sum += recall;
        self.recall_count += 1;
    }

    /// Records the distinct-token fetch for one KV head of one layer.
    pub fn record_fetch(
        &mut self,
        _layer: usize,
        _kv_head: usize,
        distinct_tokens: usize,
        history_len: usize,
        cfg: &ModelConfig,
    ) {
        let bytes_per_token_head = 2 * cfg.head_dim * cfg.bytes_per_element;
        self.fetch_bytes += (distinct_tokens * bytes_per_token_head) as u64;
        self.full_fetch_bytes += (history_len * bytes_per_token_head) as u64;
    }

    /// Mean selected ratio for one layer (averaged over heads/steps).
    pub fn layer_ratio(&self, layer: usize) -> f64 {
        let sel: u64 = self.selected[layer].iter().sum();
        let ctx: u64 = self.context[layer].iter().sum();
        if ctx == 0 {
            1.0
        } else {
            sel as f64 / ctx as f64
        }
    }

    /// Mean selected ratio for one query head (averaged over layers).
    pub fn head_ratio(&self, head: usize) -> f64 {
        let sel: u64 = self.selected.iter().map(|l| l[head]).sum();
        let ctx: u64 = self.context.iter().map(|l| l[head]).sum();
        if ctx == 0 {
            1.0
        } else {
            sel as f64 / ctx as f64
        }
    }

    /// Overall mean selected ratio.
    pub fn overall_ratio(&self) -> f64 {
        let sel: u64 = self.selected.iter().flatten().sum();
        let ctx: u64 = self.context.iter().flatten().sum();
        if ctx == 0 {
            1.0
        } else {
            sel as f64 / ctx as f64
        }
    }

    /// Mean attention recall (`1.0` if not tracked or no observations).
    pub fn mean_recall(&self) -> f64 {
        if self.recall_count == 0 {
            1.0
        } else {
            self.recall_sum / self.recall_count as f64
        }
    }

    /// Number of layers covered.
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// Number of query heads covered.
    pub fn n_heads(&self) -> usize {
        self.n_heads
    }

    /// Produces the compact summary.
    pub fn summary(&self) -> StageStats {
        StageStats {
            mean_ratio: self.overall_ratio(),
            mean_recall: self.mean_recall(),
            fetch_bytes: self.fetch_bytes,
            full_fetch_bytes: self.full_fetch_bytes,
        }
    }
}

/// A complete streaming video LLM: vision projector + decoder stack +
/// tied LM head, with a growing KV cache.
///
/// # Examples
///
/// ```
/// use vrex_model::{ModelConfig, SelectAll, StreamingVideoLlm, RunStats};
/// use vrex_model::{VideoStream, VideoStreamConfig};
///
/// let cfg = ModelConfig::tiny();
/// let mut llm = StreamingVideoLlm::new(cfg.clone(), 42);
/// let mut video = VideoStream::new(VideoStreamConfig::coin_like(
///     cfg.tokens_per_frame, cfg.hidden_dim, 7));
/// let mut policy = SelectAll::new();
/// let mut stats = RunStats::new(&cfg, false);
/// llm.process_frame(&video.next_frame(), &mut policy, &mut stats);
/// assert_eq!(llm.cache().len(), cfg.tokens_per_frame);
/// ```
pub struct StreamingVideoLlm {
    cfg: ModelConfig,
    layers: Vec<DecoderLayer>,
    embed: Matrix,
    projector: Matrix,
    cache: KvCache,
    pos: usize,
}

impl std::fmt::Debug for StreamingVideoLlm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingVideoLlm")
            .field("layers", &self.layers.len())
            .field("cached_tokens", &self.pos)
            .finish()
    }
}

impl StreamingVideoLlm {
    /// Creates a model with deterministic random weights.
    pub fn new(cfg: ModelConfig, seed: u64) -> Self {
        let mut rng: StdRng = seeded_rng(seed);
        let layers = (0..cfg.n_layers)
            .map(|_| DecoderLayer::new(&cfg, &mut rng))
            .collect();
        let embed = xavier_matrix(&mut rng, cfg.vocab_size, cfg.hidden_dim);
        let projector = xavier_matrix(&mut rng, cfg.hidden_dim, cfg.hidden_dim);
        let cache = KvCache::new(&cfg);
        Self {
            cfg,
            layers,
            embed,
            projector,
            cache,
            pos: 0,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The current KV cache.
    pub fn cache(&self) -> &KvCache {
        &self.cache
    }

    /// Current absolute position (== cached tokens).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Runs one block of embedded tokens through the full stack,
    /// appending to the cache. Returns the final hidden states.
    pub fn forward_block(
        &mut self,
        embeddings: &Matrix,
        policy: &mut dyn RetrievalPolicy,
        stage: Stage,
        stats: &mut RunStats,
    ) -> Matrix {
        assert_eq!(
            embeddings.cols(),
            self.cfg.hidden_dim,
            "embedding width must equal hidden_dim"
        );
        let start = self.pos;
        let mut x = embeddings.clone();
        for (l, layer) in self.layers.iter().enumerate() {
            x = layer.forward(
                &self.cfg,
                l,
                &x,
                self.cache.layer_mut(l),
                policy,
                stage,
                start,
                stats,
            );
        }
        self.pos += embeddings.rows();
        debug_assert_eq!(self.cache.len(), self.pos);
        x
    }

    /// Processes one video frame (iterative prefill step): projects the
    /// frame embeddings into the LLM space and prefills them.
    pub fn process_frame(
        &mut self,
        frame: &Frame,
        policy: &mut dyn RetrievalPolicy,
        stats: &mut RunStats,
    ) -> Matrix {
        let projected = frame.embeddings.matmul(&self.projector);
        self.forward_block(&projected, policy, Stage::Prefill, stats)
    }

    /// Embeds token ids via the embedding table (ids are taken modulo
    /// the vocabulary so arbitrary hashed ids are safe).
    pub fn embed_tokens(&self, ids: &[usize]) -> Matrix {
        let rows: Vec<&[f32]> = ids
            .iter()
            .map(|&id| self.embed.row(id % self.cfg.vocab_size))
            .collect();
        Matrix::from_rows(&rows)
    }

    /// Prefills a user question (text tokens) — still the prefill stage
    /// per the paper's pipeline.
    pub fn process_text(
        &mut self,
        token_ids: &[usize],
        policy: &mut dyn RetrievalPolicy,
        stats: &mut RunStats,
    ) -> Matrix {
        let emb = self.embed_tokens(token_ids);
        self.forward_block(&emb, policy, Stage::Prefill, stats)
    }

    /// Greedy-decodes `n_tokens` starting from `last_hidden` (the final
    /// hidden state of the prompt). Returns the generated token ids.
    pub fn generate(
        &mut self,
        last_hidden: &Matrix,
        n_tokens: usize,
        policy: &mut dyn RetrievalPolicy,
        stats: &mut RunStats,
    ) -> Vec<usize> {
        let mut out = Vec::with_capacity(n_tokens);
        let mut hidden = Matrix::from_rows(&[last_hidden.row(last_hidden.rows() - 1)]);
        for _ in 0..n_tokens {
            let id = self.argmax_token(&hidden);
            out.push(id);
            let emb = self.embed_tokens(&[id]);
            hidden = self.forward_block(&emb, policy, Stage::Generation, stats);
        }
        out
    }

    /// LM head (tied to the embedding table): argmax next-token id for
    /// the last row of `hidden`.
    pub fn argmax_token(&self, hidden: &Matrix) -> usize {
        let last = Matrix::from_rows(&[hidden.row(hidden.rows() - 1)]);
        let logits = last.matmul_transposed(&self.embed);
        let row = logits.row(0);
        let mut best = 0;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::SelectAll;
    use crate::vision::{VideoStream, VideoStreamConfig};

    fn make_llm() -> (StreamingVideoLlm, VideoStream) {
        let cfg = ModelConfig::tiny();
        let video = VideoStream::new(VideoStreamConfig::coin_like(
            cfg.tokens_per_frame,
            cfg.hidden_dim,
            11,
        ));
        (StreamingVideoLlm::new(cfg, 5), video)
    }

    #[test]
    fn iterative_prefill_grows_cache_per_frame() {
        let (mut llm, mut video) = make_llm();
        let mut policy = SelectAll::new();
        let cfg = llm.config().clone();
        let mut stats = RunStats::new(&cfg, false);
        for i in 1..=3 {
            let f = video.next_frame();
            llm.process_frame(&f, &mut policy, &mut stats);
            assert_eq!(llm.cache().len(), i * cfg.tokens_per_frame);
            llm.cache().assert_coherent();
        }
    }

    #[test]
    fn question_and_generation_extend_cache() {
        let (mut llm, mut video) = make_llm();
        let mut policy = SelectAll::new();
        let cfg = llm.config().clone();
        let mut stats = RunStats::new(&cfg, false);
        let f = video.next_frame();
        llm.process_frame(&f, &mut policy, &mut stats);
        let h = llm.process_text(&[1, 2, 3], &mut policy, &mut stats);
        let before = llm.cache().len();
        let out = llm.generate(&h, 4, &mut policy, &mut stats);
        assert_eq!(out.len(), 4);
        assert_eq!(llm.cache().len(), before + 4);
    }

    #[test]
    fn generation_is_deterministic() {
        let run = || {
            let (mut llm, mut video) = make_llm();
            let mut policy = SelectAll::new();
            let cfg = llm.config().clone();
            let mut stats = RunStats::new(&cfg, false);
            let f = video.next_frame();
            llm.process_frame(&f, &mut policy, &mut stats);
            let h = llm.process_text(&[9, 8], &mut policy, &mut stats);
            llm.generate(&h, 5, &mut policy, &mut stats)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_stats_ratio_is_one_for_select_all() {
        let (mut llm, mut video) = make_llm();
        let mut policy = SelectAll::new();
        let cfg = llm.config().clone();
        let mut stats = RunStats::new(&cfg, false);
        llm.process_frame(&video.next_frame(), &mut policy, &mut stats);
        llm.process_frame(&video.next_frame(), &mut policy, &mut stats);
        assert_eq!(stats.overall_ratio(), 1.0);
        let s = stats.summary();
        assert_eq!(s.fetch_bytes, s.full_fetch_bytes);
        assert_eq!(s.mean_recall, 1.0);
    }

    #[test]
    fn stats_layer_and_head_ratios_bounded() {
        let (mut llm, mut video) = make_llm();
        let mut policy = SelectAll::new();
        let cfg = llm.config().clone();
        let mut stats = RunStats::new(&cfg, false);
        llm.process_frame(&video.next_frame(), &mut policy, &mut stats);
        for l in 0..cfg.n_layers {
            let r = stats.layer_ratio(l);
            assert!((0.0..=1.0).contains(&r));
        }
        for h in 0..cfg.n_heads {
            let r = stats.head_ratio(h);
            assert!((0.0..=1.0).contains(&r));
        }
    }
}
