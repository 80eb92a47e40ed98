//! Oaken-style online 4-bit KV-cache quantization (Fig. 15 comparator).
//!
//! Oaken is not a retrieval system: it keeps the whole (quantized)
//! cache in device memory, stretching capacity ~4× but still going OOM
//! once the stream outgrows it — exactly the failure mode Fig. 15
//! plots. This module provides (a) the capacity model used by the
//! system simulator and (b) a functional quantize/attend round trip so
//! the accuracy cost of 4-bit KV can be measured.

use vrex_model::policy::{RetrievalPolicy, Selection, SelectionRequest};
use vrex_model::ModelConfig;
use vrex_tensor::{Matrix, QuantScheme, QuantizedMatrix};

/// Capacity and fidelity model of Oaken's quantized KV cache.
#[derive(Debug, Clone, Copy)]
pub struct OakenModel {
    scheme: QuantScheme,
}

impl OakenModel {
    /// The paper's configuration: 4-bit online quantization
    /// (group size 128, one scale per head-dim vector).
    pub fn paper_defaults() -> Self {
        Self {
            scheme: QuantScheme::Int4 { group_size: 128 },
        }
    }

    /// Creates the model with a custom scheme.
    pub fn new(scheme: QuantScheme) -> Self {
        Self { scheme }
    }

    /// The quantization scheme.
    pub fn scheme(&self) -> QuantScheme {
        self.scheme
    }

    /// Effective KV bytes per cached token under quantization.
    pub fn kv_bytes_per_token(&self, cfg: &ModelConfig) -> usize {
        let elements_per_token = 2 * cfg.n_layers * cfg.n_kv_heads * cfg.head_dim;
        self.scheme.storage_bytes(elements_per_token)
    }

    /// Capacity multiplier versus the BF16 cache.
    // vrex-lint: allow(unreached-pub) — paper claim (Oaken's capacity gain), becomes an F1 row
    pub fn capacity_gain(&self, cfg: &ModelConfig) -> f64 {
        cfg.kv_bytes_per_token() as f64 / self.kv_bytes_per_token(cfg) as f64
    }

    /// Quantize-dequantize round trip of a KV matrix (the functional
    /// path: attention then runs on the dequantized values).
    // vrex-lint: allow(unreached-pub) — oracle of crates/retrieval/tests/props.rs
    pub fn round_trip(&self, kv: &Matrix) -> Matrix {
        QuantizedMatrix::quantize(kv, self.scheme).dequantize()
    }
}

/// Oaken plugs into the retrieval-policy seam as a *pass-through*
/// selector: it attends to the whole (quantized) cache — its savings
/// come from storage density, not from filtering, so its selection is
/// always total. Note that the policy seam only controls *which*
/// tokens are attended; Oaken's 4-bit fidelity cost is modelled
/// separately through [`OakenModel::round_trip`], so driving this
/// policy through the accuracy proxy measures full-attention behaviour
/// (zero divergence), not quantization error.
impl RetrievalPolicy for OakenModel {
    fn name(&self) -> &str {
        "Oaken"
    }

    fn on_keys_appended(&mut self, _: usize, _: usize, _: &Matrix, _: usize) {}

    fn select(&mut self, _: &SelectionRequest<'_>) -> Selection {
        Selection::All
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrex_tensor::rng::{gaussian_matrix, seeded_rng};

    #[test]
    fn oaken_policy_contract_is_total_pass_through() {
        use vrex_model::policy::Stage;
        let mut m = OakenModel::paper_defaults();
        let mut rng = seeded_rng(12);
        let q = gaussian_matrix(&mut rng, 2, 8, 1.0);
        let k = gaussian_matrix(&mut rng, 10, 8, 1.0);
        let req = SelectionRequest {
            layer: 0,
            query_head: 0,
            kv_head: 0,
            queries: &q,
            keys: &k,
            stage: Stage::Generation,
        };
        assert_eq!(m.name(), "Oaken");
        assert_eq!(m.select(&req), Selection::All);
        let resolved = m.select_resolved(&req);
        assert!(resolved.is_total());
        assert_eq!(resolved.total(), req.history_len());
    }

    #[test]
    fn capacity_gain_is_close_to_4x() {
        let m = OakenModel::paper_defaults();
        let gain = m.capacity_gain(&ModelConfig::llama3_8b());
        assert!(
            (3.5..=4.0).contains(&gain),
            "4-bit + scales should give ~3.9x, got {gain}"
        );
    }

    #[test]
    fn round_trip_error_is_small_relative_to_signal() {
        let m = OakenModel::paper_defaults();
        let mut rng = seeded_rng(10);
        let kv = gaussian_matrix(&mut rng, 32, 128, 1.0);
        let rt = m.round_trip(&kv);
        let err = (&kv - &rt).frobenius_norm() / kv.frobenius_norm();
        assert!(err < 0.15, "relative error {err} too large for 4-bit");
        assert!(err > 0.0, "quantization must not be lossless");
    }

    #[test]
    fn quantized_cache_delays_oom_but_not_forever() {
        // At 10 FPS / 10 tokens per frame, check the OOM horizon moves
        // out by the capacity gain (Fig. 15's qualitative shape).
        let cfg = ModelConfig::llama3_8b();
        let m = OakenModel::paper_defaults();
        let budget = (32usize << 30) - cfg.param_bytes();
        let tokens_plain = budget / cfg.kv_bytes_per_token();
        let tokens_oaken = budget / m.kv_bytes_per_token(&cfg);
        assert!(tokens_oaken > 3 * tokens_plain);
        assert!(tokens_oaken < 5 * tokens_plain);
    }
}
