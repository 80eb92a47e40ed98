//! Growing per-layer, per-head key/value caches.
//!
//! The KV cache is the central data structure of the paper: it grows
//! with every frame of the stream (iterative prefill), is offloaded to
//! CPU memory or storage by retrieval systems, and is selectively
//! fetched back. This module stores the functional cache; residency
//! (what is on-device vs. offloaded) is modelled in `vrex-system`.

use vrex_tensor::Matrix;

use crate::config::ModelConfig;

/// Key/value cache for one decoder layer: one `(tokens × head_dim)`
/// key matrix and one value matrix per KV head.
#[derive(Debug, Clone)]
pub struct LayerKvCache {
    keys: Vec<Matrix>,
    values: Vec<Matrix>,
    head_dim: usize,
}

impl LayerKvCache {
    /// Creates an empty cache for `n_kv_heads` heads of `head_dim`.
    pub fn new(n_kv_heads: usize, head_dim: usize) -> Self {
        Self {
            keys: vec![Matrix::default(); n_kv_heads],
            values: vec![Matrix::default(); n_kv_heads],
            head_dim,
        }
    }

    /// Number of KV heads.
    pub fn n_kv_heads(&self) -> usize {
        self.keys.len()
    }

    /// Number of cached tokens (identical across heads).
    pub fn len(&self) -> usize {
        self.keys.first().map_or(0, Matrix::rows)
    }

    /// Returns `true` when no tokens are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends per-head keys and values for a block of new tokens.
    ///
    /// # Panics
    ///
    /// Panics if a matrix has the wrong width or the heads disagree on
    /// token count.
    pub fn append(&mut self, head: usize, new_keys: &Matrix, new_values: &Matrix) {
        assert_eq!(new_keys.cols(), self.head_dim, "key width mismatch");
        assert_eq!(new_values.cols(), self.head_dim, "value width mismatch");
        assert_eq!(
            new_keys.rows(),
            new_values.rows(),
            "key/value token count mismatch"
        );
        self.keys[head].append_rows(new_keys);
        self.values[head].append_rows(new_values);
    }

    /// Keys of `head` (all cached tokens).
    pub fn keys(&self, head: usize) -> &Matrix {
        &self.keys[head]
    }

    /// Values of `head` (all cached tokens).
    pub fn values(&self, head: usize) -> &Matrix {
        &self.values[head]
    }
}

/// Full-model KV cache: one [`LayerKvCache`] per decoder layer.
#[derive(Debug, Clone)]
pub struct KvCache {
    layers: Vec<LayerKvCache>,
    kv_bytes_per_token: usize,
}

impl KvCache {
    /// Creates an empty cache shaped for `cfg`.
    pub fn new(cfg: &ModelConfig) -> Self {
        Self {
            layers: (0..cfg.n_layers)
                .map(|_| LayerKvCache::new(cfg.n_kv_heads, cfg.head_dim))
                .collect(),
            kv_bytes_per_token: cfg.kv_bytes_per_token(),
        }
    }

    /// Cache for one layer.
    pub fn layer(&self, l: usize) -> &LayerKvCache {
        &self.layers[l]
    }

    /// Mutable cache for one layer.
    pub fn layer_mut(&mut self, l: usize) -> &mut LayerKvCache {
        &mut self.layers[l]
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Cached tokens (taken from layer 0; all layers stay in lockstep).
    pub fn len(&self) -> usize {
        self.layers.first().map_or(0, LayerKvCache::len)
    }

    /// Returns `true` when no tokens are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total cache size in bytes at the model's storage precision.
    pub fn total_bytes(&self) -> usize {
        self.len() * self.kv_bytes_per_token
    }

    /// Asserts that every layer holds the same number of tokens.
    /// Tests call it after each prefill step.
    // vrex-lint: allow(unreached-pub) — oracle of crates/model/tests/props.rs and tests/e2e_streaming.rs
    pub fn assert_coherent(&self) {
        let n = self.len();
        for (l, layer) in self.layers.iter().enumerate() {
            assert_eq!(layer.len(), n, "layer {l} cache out of lockstep");
            for h in 0..layer.n_kv_heads() {
                assert_eq!(layer.keys(h).rows(), n, "layer {l} head {h} keys");
                assert_eq!(layer.values(h).rows(), n, "layer {l} head {h} values");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrex_tensor::rng::{gaussian_matrix, seeded_rng};

    #[test]
    fn empty_cache_has_zero_len_and_bytes() {
        let cache = KvCache::new(&ModelConfig::tiny());
        assert!(cache.is_empty());
        assert_eq!(cache.total_bytes(), 0);
    }

    #[test]
    fn append_grows_all_heads_in_lockstep() {
        let cfg = ModelConfig::tiny();
        let mut cache = KvCache::new(&cfg);
        let mut rng = seeded_rng(1);
        for l in 0..cfg.n_layers {
            for h in 0..cfg.n_kv_heads {
                let k = gaussian_matrix(&mut rng, 3, cfg.head_dim, 1.0);
                let v = gaussian_matrix(&mut rng, 3, cfg.head_dim, 1.0);
                cache.layer_mut(l).append(h, &k, &v);
            }
        }
        cache.assert_coherent();
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.total_bytes(), 3 * cfg.kv_bytes_per_token());
    }

    #[test]
    #[should_panic(expected = "key width mismatch")]
    fn append_rejects_wrong_width() {
        let cfg = ModelConfig::tiny();
        let mut cache = KvCache::new(&cfg);
        let bad = Matrix::zeros(1, cfg.head_dim + 1);
        let ok = Matrix::zeros(1, cfg.head_dim);
        cache.layer_mut(0).append(0, &bad, &ok);
    }

    #[test]
    #[should_panic(expected = "out of lockstep")]
    fn coherence_check_catches_skew() {
        let cfg = ModelConfig::tiny();
        let mut cache = KvCache::new(&cfg);
        let k = Matrix::zeros(1, cfg.head_dim);
        cache.layer_mut(0).append(0, &k, &k);
        cache.layer_mut(0).append(1, &k, &k);
        // layer 1 never appended -> skewed.
        cache.assert_coherent();
    }
}
