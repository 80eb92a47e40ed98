//! Model configuration and analytic cost formulas.
//!
//! The functional experiments run a small configuration for speed; the
//! hardware simulator uses the Llama-3 8B configuration's analytic
//! byte/FLOP counts so latency and memory magnitudes match the paper's
//! setup (Llama-3 8B backbone, BF16 weights and KV cache).

/// Static description of a decoder-only transformer used as the LLM
/// backbone of a streaming video model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelConfig {
    /// Number of decoder layers.
    pub n_layers: usize,
    /// Number of query heads.
    pub n_heads: usize,
    /// Number of key/value heads (grouped-query attention when smaller
    /// than `n_heads`).
    pub n_kv_heads: usize,
    /// Per-head dimension.
    pub head_dim: usize,
    /// Model (residual stream) dimension.
    pub hidden_dim: usize,
    /// Feed-forward intermediate dimension.
    pub ffn_dim: usize,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Bytes per stored weight / KV element (2 for BF16).
    pub bytes_per_element: usize,
    /// Visual tokens emitted per video frame by the vision tower +
    /// projector (VideoLLM-Online uses a small per-frame token count).
    pub tokens_per_frame: usize,
}

impl ModelConfig {
    /// The Llama-3 8B configuration used by the paper's evaluation.
    ///
    /// # Examples
    ///
    /// ```
    /// let cfg = vrex_model::ModelConfig::llama3_8b();
    /// // ~16 GB of BF16 weights.
    /// assert!(cfg.param_bytes() > 15_000_000_000 && cfg.param_bytes() < 17_000_000_000);
    /// // 128 KiB of KV cache per token.
    /// assert_eq!(cfg.kv_bytes_per_token(), 128 * 1024);
    /// ```
    pub fn llama3_8b() -> Self {
        Self {
            n_layers: 32,
            n_heads: 32,
            n_kv_heads: 8,
            head_dim: 128,
            hidden_dim: 4096,
            ffn_dim: 14336,
            vocab_size: 128_256,
            bytes_per_element: 2,
            tokens_per_frame: 10,
        }
    }

    /// A tiny configuration for unit tests (fast, still multi-layer and
    /// grouped-query so all code paths are exercised).
    // vrex-lint: allow(unreached-pub) — oracle of crates/model/tests/props.rs and the facade's tests/
    pub fn tiny() -> Self {
        Self {
            n_layers: 2,
            n_heads: 4,
            n_kv_heads: 2,
            head_dim: 16,
            hidden_dim: 64,
            ffn_dim: 128,
            vocab_size: 257,
            bytes_per_element: 2,
            tokens_per_frame: 4,
        }
    }

    /// A small-but-meaningful configuration for functional accuracy
    /// experiments (Table II / Fig. 19 proxies).
    pub fn small() -> Self {
        Self {
            n_layers: 4,
            n_heads: 8,
            n_kv_heads: 4,
            head_dim: 32,
            hidden_dim: 128,
            ffn_dim: 256,
            vocab_size: 512,
            bytes_per_element: 2,
            tokens_per_frame: 8,
        }
    }

    /// Query heads per KV head (the GQA group size).
    ///
    /// # Panics
    ///
    /// Panics if `n_heads` is not a multiple of `n_kv_heads`.
    pub fn gqa_group(&self) -> usize {
        assert!(
            self.n_kv_heads > 0 && self.n_heads % self.n_kv_heads == 0,
            "n_heads must be a positive multiple of n_kv_heads"
        );
        self.n_heads / self.n_kv_heads
    }

    /// KV-cache bytes appended per token across all layers
    /// (`2 · layers · kv_heads · head_dim · bytes`).
    pub fn kv_bytes_per_token(&self) -> usize {
        2 * self.n_layers * self.n_kv_heads * self.head_dim * self.bytes_per_element
    }

    /// KV-cache bytes per token for a *single* layer.
    pub fn kv_bytes_per_token_per_layer(&self) -> usize {
        self.kv_bytes_per_token() / self.n_layers
    }

    /// Total parameter count of the decoder stack plus embeddings.
    pub fn param_count(&self) -> usize {
        let d = self.hidden_dim;
        let attn = d * (self.n_heads * self.head_dim) // Wq
            + 2 * d * (self.n_kv_heads * self.head_dim) // Wk, Wv
            + (self.n_heads * self.head_dim) * d; // Wo
        let ffn = 3 * d * self.ffn_dim; // w1, w3 (gate), w2
        let norms = 2 * d;
        let per_layer = attn + ffn + norms;
        let embed = self.vocab_size * d; // tied LM head
        self.n_layers * per_layer + embed + d
    }

    /// Parameter bytes at the configured storage precision.
    pub fn param_bytes(&self) -> usize {
        self.param_count() * self.bytes_per_element
    }

    /// Dense (non-attention) FLOPs per token per layer: projections +
    /// FFN. One multiply-accumulate counts as 2 FLOPs.
    pub fn dense_flops_per_token_per_layer(&self) -> u64 {
        let d = self.hidden_dim as u64;
        let qo = 2 * d * (self.n_heads * self.head_dim) as u64 * 2;
        let kv = 2 * d * (self.n_kv_heads * self.head_dim) as u64 * 2;
        let ffn = 3 * 2 * d * self.ffn_dim as u64;
        qo + kv + ffn
    }

    /// Attention FLOPs for `new_tokens` query tokens attending to
    /// `context_tokens` cached tokens in one layer (QKᵀ + weighted sum
    /// over V across all query heads).
    pub fn attention_flops_per_layer(&self, new_tokens: usize, context_tokens: usize) -> u64 {
        2 * 2 * (self.n_heads * self.head_dim) as u64 * new_tokens as u64 * context_tokens as u64
    }

    /// Total FLOPs to process `new_tokens` with `context_tokens` of
    /// cached context through the whole decoder stack.
    pub fn total_flops(&self, new_tokens: usize, context_tokens: usize) -> u64 {
        self.n_layers as u64
            * (self.dense_flops_per_token_per_layer() * new_tokens as u64
                + self.attention_flops_per_layer(new_tokens, context_tokens))
    }

    /// KV-cache memory footprint in bytes after `seconds` of video at
    /// `fps` with `batch` independent streams (paper Fig. 4a).
    pub fn kv_footprint_bytes(&self, seconds: f64, fps: f64, batch: usize) -> usize {
        let tokens = (seconds * fps) as usize * self.tokens_per_frame;
        tokens * self.kv_bytes_per_token() * batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama3_kv_bytes_match_paper_setup() {
        // 2 (K+V) * 32 layers * 8 kv heads * 128 dim * 2 bytes = 128 KiB.
        assert_eq!(ModelConfig::llama3_8b().kv_bytes_per_token(), 131_072);
    }

    #[test]
    fn llama3_param_count_is_about_8b() {
        let p = ModelConfig::llama3_8b().param_count();
        assert!(
            (7_500_000_000..8_600_000_000).contains(&p),
            "param count {p} not ~8B"
        );
    }

    #[test]
    fn gqa_group_of_llama3_is_4() {
        assert_eq!(ModelConfig::llama3_8b().gqa_group(), 4);
    }

    #[test]
    fn kv_footprint_exceeds_edge_memory_within_minutes() {
        // Paper Fig. 4a: 10 FPS, batch 4 exceeds edge GPU memory
        // (32 GB incl. 16 GB weights) within minutes.
        let cfg = ModelConfig::llama3_8b();
        let budget = (32usize << 30) - cfg.param_bytes();
        let mut minutes = 0.0;
        while cfg.kv_footprint_bytes(minutes * 60.0, 10.0, 4) < budget {
            minutes += 0.5;
            assert!(minutes < 60.0, "footprint never exceeded budget");
        }
        assert!(
            minutes <= 10.0,
            "exceeded only after {minutes} min; paper says within minutes"
        );
    }

    #[test]
    fn dense_flops_scale_linearly_with_tokens() {
        let cfg = ModelConfig::small();
        let one = cfg.total_flops(1, 0);
        let ten = cfg.total_flops(10, 0);
        assert_eq!(ten, 10 * one);
    }

    #[test]
    fn attention_flops_grow_with_context() {
        let cfg = ModelConfig::small();
        assert!(cfg.total_flops(4, 1000) > cfg.total_flops(4, 100));
    }

    #[test]
    fn tiny_config_is_consistent() {
        let cfg = ModelConfig::tiny();
        assert_eq!(cfg.gqa_group(), 2);
        assert!(cfg.param_count() > 0);
        assert_eq!(
            cfg.kv_bytes_per_token_per_layer() * cfg.n_layers,
            cfg.kv_bytes_per_token()
        );
    }
}
