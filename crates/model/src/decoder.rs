//! One transformer decoder layer with retrieval-filtered attention.

use rand::rngs::StdRng;
use vrex_tensor::rng::xavier_matrix;
use vrex_tensor::{ops, Matrix};

use crate::attention::{attention_with_selection, selection_recall};
use crate::config::ModelConfig;
use crate::kv_cache::LayerKvCache;
use crate::llm::RunStats;
use crate::policy::{RetrievalPolicy, SelectionRequest, Stage};

/// Weights of a single decoder layer (attention + gated FFN, RMS
/// norms). Initialised randomly but deterministically from a seed.
#[derive(Debug, Clone)]
pub struct DecoderLayer {
    wq: Matrix,
    wk: Matrix,
    wv: Matrix,
    wo: Matrix,
    w_gate: Matrix,
    w_up: Matrix,
    w_down: Matrix,
    attn_norm: Vec<f32>,
    ffn_norm: Vec<f32>,
}

impl DecoderLayer {
    /// Creates a layer with Xavier-initialised weights drawn from `rng`.
    pub fn new(cfg: &ModelConfig, rng: &mut StdRng) -> Self {
        let d = cfg.hidden_dim;
        let qdim = cfg.n_heads * cfg.head_dim;
        let kvdim = cfg.n_kv_heads * cfg.head_dim;
        Self {
            wq: xavier_matrix(rng, d, qdim),
            wk: xavier_matrix(rng, d, kvdim),
            wv: xavier_matrix(rng, d, kvdim),
            wo: xavier_matrix(rng, qdim, d),
            w_gate: xavier_matrix(rng, d, cfg.ffn_dim),
            w_up: xavier_matrix(rng, d, cfg.ffn_dim),
            w_down: xavier_matrix(rng, cfg.ffn_dim, d),
            attn_norm: vec![1.0; d],
            ffn_norm: vec![1.0; d],
        }
    }

    /// Extracts head `h` (width `head_dim`) from a fused projection.
    fn head_slice(fused: &Matrix, h: usize, head_dim: usize) -> Matrix {
        let mut out = Matrix::zeros(fused.rows(), head_dim);
        for r in 0..fused.rows() {
            out.row_mut(r)
                .copy_from_slice(&fused.row(r)[h * head_dim..(h + 1) * head_dim]);
        }
        out
    }

    /// Runs the layer over a block of `x.rows()` new tokens.
    ///
    /// `start_pos` is the absolute position of the first token of the
    /// block; `cache` must hold exactly `start_pos` tokens on entry and
    /// holds `start_pos + x.rows()` on exit.
    #[allow(clippy::too_many_arguments)]
    pub fn forward(
        &self,
        cfg: &ModelConfig,
        layer_idx: usize,
        x: &Matrix,
        cache: &mut LayerKvCache,
        policy: &mut dyn RetrievalPolicy,
        stage: Stage,
        start_pos: usize,
        stats: &mut RunStats,
    ) -> Matrix {
        debug_assert_eq!(cache.len(), start_pos, "cache/position skew");
        let n = x.rows();
        let hd = cfg.head_dim;

        let mut xn = x.clone();
        ops::rmsnorm_rows(&mut xn, &self.attn_norm);

        let q_fused = xn.matmul(&self.wq);
        let k_fused = xn.matmul(&self.wk);
        let v_fused = xn.matmul(&self.wv);

        // Append new K/V (keys get RoPE before caching and before any
        // hashing, matching the paper: "the key matrix, obtained after
        // applying the rotary position embedding").
        for kvh in 0..cfg.n_kv_heads {
            let mut k_h = Self::head_slice(&k_fused, kvh, hd);
            ops::apply_rope(&mut k_h, start_pos);
            let v_h = Self::head_slice(&v_fused, kvh, hd);
            policy.on_keys_appended(layer_idx, kvh, &k_h, start_pos);
            cache.append(kvh, &k_h, &v_h);
        }

        // Per-query-head attention with policy-selected history.
        let group = cfg.gqa_group();
        let mut attn_concat = Matrix::zeros(n, cfg.n_heads * hd);
        // Per-kv-head union of selected history indices (fetch volume):
        // `marked[t] == kvh + 1` once a query head of KV head `kvh`
        // selected token `t`, so one vector serves every KV head.
        let mut marked = vec![0usize; start_pos];
        let mut union_len = vec![0usize; cfg.n_kv_heads];
        let mut kv_union_all = vec![false; cfg.n_kv_heads];

        for qh in 0..cfg.n_heads {
            let kvh = qh / group;
            let mut q_h = Self::head_slice(&q_fused, qh, hd);
            ops::apply_rope(&mut q_h, start_pos);
            let keys = cache.keys(kvh);
            let request = SelectionRequest {
                layer: layer_idx,
                query_head: qh,
                kv_head: kvh,
                queries: &q_h,
                keys,
                stage,
            };
            let selection = policy.select(&request);
            stats.record_selection(layer_idx, qh, &selection, start_pos);
            if stats.track_recall() && start_pos > 0 {
                let r = selection_recall(&q_h, keys, start_pos, &selection);
                stats.record_recall(r);
            }
            // Attention rejects an index outside the history before the
            // union below reads `marked` at it.
            let out =
                attention_with_selection(&q_h, keys, cache.values(kvh), start_pos, &selection);
            match selection.materialized() {
                None => kv_union_all[kvh] = true,
                Some(idx) => {
                    for &t in idx {
                        if marked[t] != kvh + 1 {
                            marked[t] = kvh + 1;
                            union_len[kvh] += 1;
                        }
                    }
                }
            }
            for r in 0..n {
                attn_concat.row_mut(r)[qh * hd..(qh + 1) * hd].copy_from_slice(out.row(r));
            }
        }

        for kvh in 0..cfg.n_kv_heads {
            let distinct = if kv_union_all[kvh] {
                start_pos
            } else {
                union_len[kvh]
            };
            stats.record_fetch(layer_idx, kvh, distinct, start_pos, cfg);
        }

        let x = &(attn_concat.matmul(&self.wo)) + x;

        // Gated FFN.
        let mut hn = x.clone();
        ops::rmsnorm_rows(&mut hn, &self.ffn_norm);
        let mut gate = hn.matmul(&self.w_gate);
        ops::silu_in_place(&mut gate);
        let up = hn.matmul(&self.w_up);
        for (g, u) in gate.data_mut().iter_mut().zip(up.data()) {
            *g *= u;
        }
        let ffn_out = gate.matmul(&self.w_down);
        &ffn_out + &x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::SelectAll;
    use vrex_tensor::rng::{gaussian_matrix, seeded_rng};

    #[test]
    fn forward_appends_to_cache_and_keeps_shape() {
        let cfg = ModelConfig::tiny();
        let mut rng = seeded_rng(3);
        let layer = DecoderLayer::new(&cfg, &mut rng);
        let mut cache = LayerKvCache::new(cfg.n_kv_heads, cfg.head_dim);
        let mut policy = SelectAll::new();
        let mut stats = RunStats::new(&cfg, false);
        let x = gaussian_matrix(&mut rng, 5, cfg.hidden_dim, 0.5);
        let y = layer.forward(
            &cfg,
            0,
            &x,
            &mut cache,
            &mut policy,
            Stage::Prefill,
            0,
            &mut stats,
        );
        assert_eq!(y.rows(), 5);
        assert_eq!(y.cols(), cfg.hidden_dim);
        assert_eq!(cache.len(), 5);
    }

    #[test]
    fn forward_is_deterministic() {
        let cfg = ModelConfig::tiny();
        let run = || {
            let mut rng = seeded_rng(9);
            let layer = DecoderLayer::new(&cfg, &mut rng);
            let mut cache = LayerKvCache::new(cfg.n_kv_heads, cfg.head_dim);
            let mut policy = SelectAll::new();
            let mut stats = RunStats::new(&cfg, false);
            let x = gaussian_matrix(&mut rng, 3, cfg.hidden_dim, 0.5);
            layer.forward(
                &cfg,
                0,
                &x,
                &mut cache,
                &mut policy,
                Stage::Prefill,
                0,
                &mut stats,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn incremental_blocks_match_cache_growth() {
        let cfg = ModelConfig::tiny();
        let mut rng = seeded_rng(4);
        let layer = DecoderLayer::new(&cfg, &mut rng);
        let mut cache = LayerKvCache::new(cfg.n_kv_heads, cfg.head_dim);
        let mut policy = SelectAll::new();
        let mut stats = RunStats::new(&cfg, false);
        let x1 = gaussian_matrix(&mut rng, 2, cfg.hidden_dim, 0.5);
        let x2 = gaussian_matrix(&mut rng, 3, cfg.hidden_dim, 0.5);
        layer.forward(
            &cfg,
            0,
            &x1,
            &mut cache,
            &mut policy,
            Stage::Prefill,
            0,
            &mut stats,
        );
        layer.forward(
            &cfg,
            0,
            &x2,
            &mut cache,
            &mut policy,
            Stage::Prefill,
            2,
            &mut stats,
        );
        assert_eq!(cache.len(), 5);
    }
}
