//! The ReSV retrieval policy: clustering + WiCSum, packaged as a
//! [`RetrievalPolicy`] for the streaming LLM.

use vrex_model::policy::{RetrievalPolicy, Selection, SelectionRequest};
use vrex_model::ModelConfig;
use vrex_tensor::Matrix;

use crate::earlyexit::{early_exit_select_row, EarlyExitStats};
use crate::hashbit::HyperplaneSet;
use crate::hctable::{ClusteringStats, HcTable};

/// ReSV hyper-parameters. Paper defaults (§VI-E): `N_hp = 32`,
/// `Th_hd = 7`, `Th_r-wics = 0.3`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResvConfig {
    /// Number of random hyperplanes (hash-bit width).
    pub n_hyperplanes: usize,
    /// Hamming-distance clustering threshold (`Th_hd`).
    pub hamming_threshold: u32,
    /// WiCSum mass-fraction threshold (`Th_r-wics`).
    pub th_wics: f32,
    /// Bucket count for the early-exit dataflow.
    pub n_buckets: usize,
    /// `false` reproduces the "ReSV w/o clustering" ablation of
    /// Fig. 19: WiCSum runs directly on per-token scores (every token
    /// is its own cluster).
    pub clustering_enabled: bool,
    /// Seed for the hyperplane draw.
    pub seed: u64,
}

impl ResvConfig {
    /// The configuration the paper evaluates with.
    pub fn paper_defaults() -> Self {
        Self {
            n_hyperplanes: 32,
            hamming_threshold: 7,
            th_wics: 0.3,
            n_buckets: 32,
            clustering_enabled: true,
            seed: 0xC0DE,
        }
    }

    /// The Fig. 19 ablation variant without clustering.
    pub fn without_clustering() -> Self {
        Self {
            clustering_enabled: false,
            ..Self::paper_defaults()
        }
    }
}

impl Default for ResvConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// Aggregate work counters of a ReSV run: the DRE work (cluster
/// scores, early-exit sorting, clustering) the software path did.
///
/// No cost model reads them: `vrex-hwsim` and `vrex-system` price the
/// DRE units in closed form from workload shapes and constants. Their
/// readers are this crate's tests and the repo benchmark's trace
/// (`core.resv.visited_fraction`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResvWorkStats {
    /// Cluster scores computed (`Q × Key_clusterᵀ` elements).
    pub cluster_scores_computed: u64,
    /// Full-cache scores a token-granular method would have computed.
    pub token_scores_equivalent: u64,
    /// Accumulated early-exit sorting work.
    pub early_exit: EarlyExitStatsSum,
    /// Accumulated clustering work across all HC tables.
    pub clustering: ClusteringStats,
}

/// Sum of [`EarlyExitStats`] over many selections.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EarlyExitStatsSum {
    /// Selections performed.
    pub selections: u64,
    /// Σ buckets visited.
    pub buckets_visited: u64,
    /// Σ buckets available.
    pub buckets_total: u64,
    /// Σ elements membership-scanned.
    pub elements_scanned: u64,
    /// Σ elements sorted within buckets.
    pub elements_sorted: u64,
}

impl EarlyExitStatsSum {
    fn add(&mut self, s: EarlyExitStats) {
        self.selections += 1;
        self.buckets_visited += s.buckets_visited as u64;
        self.buckets_total += s.buckets_total as u64;
        self.elements_scanned += s.elements_scanned as u64;
        self.elements_sorted += s.elements_sorted as u64;
    }

    /// Mean fraction of buckets visited before exit (1.0 if none).
    pub fn mean_visited_fraction(&self) -> f64 {
        if self.buckets_total == 0 {
            1.0
        } else {
            self.buckets_visited as f64 / self.buckets_total as f64
        }
    }
}

/// The ReSV policy: per-(layer, KV-head) hash-cluster tables plus
/// per-(layer, head, query-row) WiCSum selection.
#[derive(Debug)]
pub struct ResvPolicy {
    cfg: ResvConfig,
    head_dim: usize,
    hyperplanes: HyperplaneSet,
    /// `tables[layer][kv_head]`.
    tables: Vec<Vec<HcTable>>,
    work: ResvWorkStats,
    /// Scratch reused by every selection: the clusters any query row
    /// chose, one row's transformed scores, and the history tokens'
    /// marks (see [`HcTable::tokens_below`]).
    chosen: Vec<bool>,
    transformed: Vec<f32>,
    marks: Vec<bool>,
}

impl ResvPolicy {
    /// Creates a policy shaped for `model` with configuration `cfg`.
    pub fn new(model: &ModelConfig, cfg: ResvConfig) -> Self {
        let hyperplanes = HyperplaneSet::new(model.head_dim, cfg.n_hyperplanes, cfg.seed);
        let threshold = if cfg.clustering_enabled {
            cfg.hamming_threshold
        } else {
            0 // distance < 0 never holds: every token founds a cluster
        };
        let tables = (0..model.n_layers)
            .map(|_| {
                (0..model.n_kv_heads)
                    .map(|_| HcTable::new(threshold))
                    .collect()
            })
            .collect();
        Self {
            cfg,
            head_dim: model.head_dim,
            hyperplanes,
            tables,
            work: ResvWorkStats::default(),
            chosen: Vec::new(),
            transformed: Vec::new(),
            marks: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ResvConfig {
        &self.cfg
    }

    /// Accumulated work statistics.
    pub fn work_stats(&self) -> ResvWorkStats {
        let mut w = self.work;
        for row in &self.tables {
            for t in row {
                let s = t.stats();
                w.clustering.tokens_inserted += s.tokens_inserted;
                w.clustering.hamming_comparisons += s.hamming_comparisons;
                w.clustering.clusters_created += s.clusters_created;
            }
        }
        w
    }

    /// HC table for `(layer, kv_head)`.
    pub fn table(&self, layer: usize, kv_head: usize) -> &HcTable {
        &self.tables[layer][kv_head]
    }

    /// Mean tokens per cluster across all tables (paper: ≈32 on COIN).
    pub fn mean_tokens_per_cluster(&self) -> f64 {
        let (mut tok, mut clu) = (0usize, 0usize);
        for row in &self.tables {
            for t in row {
                tok += t.n_tokens();
                clu += t.n_clusters();
            }
        }
        if clu == 0 {
            0.0
        } else {
            tok as f64 / clu as f64
        }
    }

    /// HC-table memory overhead relative to the full KV cache, as in
    /// the paper's claim that the table occupies ~1.67% of the cache.
    ///
    /// Per cluster the table stores: cluster idx (4 B), `Key_cluster`
    /// (`head_dim · 2` B), its hash bits (`⌈N_hp / 8⌉` B) and token
    /// count (4 B); per token it stores the token index (4 B).
    // vrex-lint: allow(unreached-pub) — paper claim (HC table ≈ 1.67 % of the cache), becomes an F1 row
    pub fn hc_table_overhead_fraction(&self, model: &ModelConfig) -> f64 {
        let mut table_bytes = 0usize;
        let mut tokens = 0usize;
        for row in &self.tables {
            for t in row {
                table_bytes += t.n_clusters()
                    * (4 + self.head_dim * 2 + self.cfg.n_hyperplanes.div_ceil(8) + 4)
                    + t.n_tokens() * 4;
                tokens += t.n_tokens();
            }
        }
        // Tokens counted per (layer, kv-head); per-token-per-head KV bytes:
        let kv_bytes = tokens * 2 * model.head_dim * model.bytes_per_element;
        if kv_bytes == 0 {
            0.0
        } else {
            table_bytes as f64 / kv_bytes as f64
        }
    }

    /// The history tokens of the clusters any query row selects.
    fn select_history(&mut self, req: &SelectionRequest<'_>, old_len: usize) -> Vec<usize> {
        let table = &self.tables[req.layer][req.kv_head];
        if table.n_clusters() == 0 {
            return Vec::new();
        }
        let counts = table.token_counts();
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut scores: Matrix = req.queries.matmul_transposed(table.representatives());
        scores.scale_in_place(scale);
        self.work.cluster_scores_computed += (scores.rows() * scores.cols()) as u64;
        self.work.token_scores_equivalent += (scores.rows() * old_len) as u64;

        // Union of the rows' selections, marked per cluster.
        self.chosen.clear();
        self.chosen.resize(scores.cols(), false);
        for r in 0..scores.rows() {
            let row = scores.row(r);
            // Monotone non-negative transform: exponentiated max-shifted
            // score (the softmax numerator) — concentrated rows stay
            // concentrated, and WiCSum's weighted mass is well-defined.
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            self.transformed.clear();
            self.transformed
                .extend(row.iter().map(|&s| (s - max).exp()));
            let (selected, st) = early_exit_select_row(
                &self.transformed,
                counts,
                self.cfg.th_wics,
                self.cfg.n_buckets,
            );
            self.work.early_exit.add(st);
            for c in selected {
                self.chosen[c] = true;
            }
        }
        let chosen = &self.chosen;
        // The current block's tokens are always attended; the selection
        // covers history only.
        table.tokens_below(
            (0..chosen.len()).filter(|&c| chosen[c]),
            old_len,
            &mut self.marks,
        )
    }
}

impl RetrievalPolicy for ResvPolicy {
    fn name(&self) -> &str {
        if self.cfg.clustering_enabled {
            "ReSV"
        } else {
            "ReSV w/o clustering"
        }
    }

    fn on_keys_appended(
        &mut self,
        layer: usize,
        kv_head: usize,
        new_keys: &Matrix,
        start_token: usize,
    ) {
        self.tables[layer][kv_head].insert_block(new_keys, start_token, &self.hyperplanes);
    }

    fn select(&mut self, req: &SelectionRequest<'_>) -> Selection {
        let old_len = req.keys.rows() - req.queries.rows();
        if old_len == 0 {
            return Selection::All;
        }
        Selection::Indices(self.select_history(req, old_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrex_model::policy::Stage;
    use vrex_model::{RunStats, StreamingVideoLlm, VideoStream, VideoStreamConfig};

    fn run_stream(cfg_resv: ResvConfig, frames: usize) -> (ResvPolicy, RunStats) {
        let cfg = ModelConfig::tiny();
        let mut llm = StreamingVideoLlm::new(cfg.clone(), 17);
        let mut policy = ResvPolicy::new(&cfg, cfg_resv);
        let mut video = VideoStream::new(VideoStreamConfig::coin_like(
            cfg.tokens_per_frame,
            cfg.hidden_dim,
            23,
        ));
        let mut stats = RunStats::new(&cfg, true);
        for _ in 0..frames {
            let f = video.next_frame();
            llm.process_frame(&f, &mut policy, &mut stats);
        }
        (policy, stats)
    }

    #[test]
    fn resv_selects_fewer_tokens_than_full() {
        let (_, stats) = run_stream(ResvConfig::paper_defaults(), 6);
        let ratio = stats.overall_ratio();
        assert!(ratio < 1.0, "ReSV selected everything (ratio {ratio})");
        assert!(ratio > 0.0, "ReSV selected nothing");
    }

    #[test]
    fn resv_keeps_high_attention_recall() {
        let (_, stats) = run_stream(ResvConfig::paper_defaults(), 6);
        let recall = stats.mean_recall();
        let ratio = stats.overall_ratio();
        // Random (untrained) tiny-model attention is much flatter than a
        // trained model's, so absolute recall at the paper's Th_r-wics is
        // lower here; the substantive invariant is that the selection
        // captures far more attention mass than its size (beats random).
        assert!(
            recall > 0.55,
            "recall {recall} too low for negligible accuracy loss"
        );
        assert!(
            recall > ratio,
            "recall {recall} should exceed ratio {ratio}: selection must beat random"
        );
    }

    #[test]
    fn clustering_reduces_score_computation() {
        let (with, _) = run_stream(ResvConfig::paper_defaults(), 6);
        let (without, _) = run_stream(ResvConfig::without_clustering(), 6);
        let w = with.work_stats();
        let wo = without.work_stats();
        assert!(
            w.cluster_scores_computed < wo.cluster_scores_computed,
            "clustering should shrink the score matrix: {} vs {}",
            w.cluster_scores_computed,
            wo.cluster_scores_computed
        );
        assert!(w.cluster_scores_computed < w.token_scores_equivalent);
    }

    #[test]
    fn without_clustering_each_token_is_own_cluster() {
        let (policy, _) = run_stream(ResvConfig::without_clustering(), 3);
        assert!((policy.mean_tokens_per_cluster() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn with_clustering_tokens_share_clusters() {
        let (policy, _) = run_stream(ResvConfig::paper_defaults(), 8);
        assert!(
            policy.mean_tokens_per_cluster() > 1.5,
            "video tokens should cluster, got {}",
            policy.mean_tokens_per_cluster()
        );
    }

    #[test]
    fn early_exit_visits_fraction_of_buckets() {
        let (policy, _) = run_stream(ResvConfig::paper_defaults(), 6);
        let frac = policy.work_stats().early_exit.mean_visited_fraction();
        assert!(frac < 0.9, "early exit never fired (visited {frac})");
    }

    #[test]
    fn hc_table_overhead_is_small() {
        let (policy, _) = run_stream(ResvConfig::paper_defaults(), 8);
        let frac = policy.hc_table_overhead_fraction(&ModelConfig::tiny());
        assert!(frac > 0.0);
        // head_dim=16 makes the per-cluster metadata relatively heavy;
        // at Llama-3 dimensions (head_dim=128) the same cluster
        // occupancy gives the paper's ~1.7% — checked below.
        assert!(frac < 0.5, "HC table overhead {frac} too large");
        // Analytic overhead at Llama dims with the paper's reported
        // occupancy of 32 tokens per cluster — should land near the
        // paper's 1.67% claim.
        let llama = ModelConfig::llama3_8b();
        let per_cluster = 4.0 + llama.head_dim as f64 * 2.0 + 32.0 / 8.0 + 4.0;
        let per_token = 4.0;
        let kv_per_token = (2 * llama.head_dim * llama.bytes_per_element) as f64;
        let overhead = (per_cluster / 32.0 + per_token) / kv_per_token;
        assert!(
            overhead < 0.05,
            "Llama-dim HC overhead {overhead} should be a few percent"
        );
    }

    #[test]
    fn hc_table_overhead_charges_whole_signature_bytes() {
        // N_hp = 12 needs two signature bytes per cluster, not one.
        let cfg = ModelConfig::tiny();
        let resv = ResvConfig {
            n_hyperplanes: 12,
            clustering_enabled: false,
            ..ResvConfig::paper_defaults()
        };
        let mut policy = ResvPolicy::new(&cfg, resv);
        let keys = vrex_tensor::rng::gaussian_matrix(
            &mut vrex_tensor::rng::seeded_rng(5),
            3,
            cfg.head_dim,
            1.0,
        );
        policy.on_keys_appended(0, 0, &keys, 0);
        // Three single-token clusters: 3 · (4 + 2·head_dim + 2 + 4) B of
        // table and 3 · 4 B of token indices over 3 tokens of K and V.
        let table = 3 * (4 + 2 * cfg.head_dim + 2 + 4) + 3 * 4;
        let kv = 3 * 2 * cfg.head_dim * cfg.bytes_per_element;
        let want = table as f64 / kv as f64;
        let got = policy.hc_table_overhead_fraction(&cfg);
        assert!((got - want).abs() < 1e-12, "overhead {got}, want {want}");
    }

    #[test]
    fn selection_never_contains_current_block() {
        // Covered implicitly by model asserts, but check directly.
        let cfg = ModelConfig::tiny();
        let mut policy = ResvPolicy::new(&cfg, ResvConfig::paper_defaults());
        let mut rng = vrex_tensor::rng::seeded_rng(31);
        let keys_old = vrex_tensor::rng::gaussian_matrix(&mut rng, 6, cfg.head_dim, 1.0);
        let keys_new = vrex_tensor::rng::gaussian_matrix(&mut rng, 2, cfg.head_dim, 1.0);
        policy.on_keys_appended(0, 0, &keys_old, 0);
        policy.on_keys_appended(0, 0, &keys_new, 6);
        let mut all = keys_old.clone();
        all.append_rows(&keys_new);
        let q = vrex_tensor::rng::gaussian_matrix(&mut rng, 2, cfg.head_dim, 1.0);
        let req = SelectionRequest {
            layer: 0,
            query_head: 0,
            kv_head: 0,
            queries: &q,
            keys: &all,
            stage: Stage::Prefill,
        };
        let sel = policy.select(&req);
        let idx = sel
            .materialized()
            .expect("ReSV must return an explicit selection over non-empty history");
        assert!(idx.iter().all(|&i| i < 6));
    }

    #[test]
    fn generation_stage_selects_less_than_prefill() {
        // Single-query selections (generation) union fewer clusters
        // than 4-row blocks (prefill) — the Table II ratio asymmetry.
        let cfg = ModelConfig::tiny();
        let mut llm = StreamingVideoLlm::new(cfg.clone(), 17);
        let mut policy = ResvPolicy::new(&cfg, ResvConfig::paper_defaults());
        let mut video = VideoStream::new(VideoStreamConfig::coin_like(
            cfg.tokens_per_frame,
            cfg.hidden_dim,
            23,
        ));
        let mut prefill = RunStats::new(&cfg, false);
        let mut h = Matrix::zeros(1, cfg.hidden_dim);
        for _ in 0..6 {
            let f = video.next_frame();
            h = llm.process_frame(&f, &mut policy, &mut prefill);
        }
        let mut generation = RunStats::new(&cfg, false);
        llm.generate(&h, 6, &mut policy, &mut generation);
        assert!(
            generation.overall_ratio() <= prefill.overall_ratio() + 0.05,
            "generation ratio {} should not exceed prefill ratio {}",
            generation.overall_ratio(),
            prefill.overall_ratio()
        );
    }
}
