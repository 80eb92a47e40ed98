//! Per-layer pipeline cost composition (paper Fig. 5).
//!
//! One decoder layer of one inference step decomposes into:
//!
//! * **dense** — QKV/output projections + FFN (weights streamed from
//!   device DRAM; batch shares the stream);
//! * **prediction** — the method's importance computation (top-k
//!   scoring/sorting for the baselines, clustering + WiCSum for ReSV);
//! * **fetch** — moving the selected *cold* KV entries over the offload
//!   path (SSD/CPU-DRAM source → PCIe link → device DRAM);
//! * **attention** — light attention over the selected tokens.
//!
//! Composition rules (who overlaps with whom) follow Fig. 5:
//!
//! 1. *Vanilla offload* (FlexGen): fetch is serialised with compute.
//! 2. *+SW optimisation* (InfiniGen/InfiniGenP/ReKV/ReSV-on-GPU):
//!    prediction runs on the GPU (stealing compute cycles) one layer
//!    ahead, fetch overlaps compute: `max(compute+prediction, fetch)`.
//! 3. *+HW optimisation* (V-Rex): prediction runs on the DRE
//!    concurrently with the LXE, the KVMU fetches cluster-contiguous
//!    chunks: `max(lxe, dre, fetch)`.

use vrex_model::ModelConfig;

use crate::method::{Method, PredictionKind};
use crate::platform::{ComputeSpec, PlatformSpec};

/// Fraction of a *selected* set that hits the hot (device-resident)
/// window beyond its proportional share — attention selection is
/// recency-biased (recent frames matter more), so selected tokens land
/// in the recent window more often than uniformly.
pub const RECENCY_BIAS: f64 = 0.35;

/// Average tokens per hash cluster assumed by the system model (the
/// paper reports 32 on COIN).
pub const TOKENS_PER_CLUSTER: usize = 32;

/// Share of the DPE's peak that V-Rex sustains on dense GEMMs
/// (projections, FFN, prediction scoring, the vision tower).
pub(crate) const DPE_DENSE_UTILIZATION: f64 = 0.8;

/// Share of the DPE's peak that V-Rex sustains on attention over the
/// selected context.
const DPE_ATTENTION_UTILIZATION: f64 = 0.5;

/// One inference step's workload parameters.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Model configuration (Llama-3 8B in the paper sweeps).
    pub model: ModelConfig,
    /// Cached KV tokens per stream (the 1K–40K sweep variable).
    pub cache_tokens: usize,
    /// Concurrent streams.
    pub batch: usize,
    /// New tokens processed this step (tokens/frame for prefill, 1 for
    /// generation).
    pub new_tokens: usize,
    /// `true` for the text-generation stage.
    pub generation: bool,
}

impl Workload {
    /// A frame-processing step at `cache_tokens` with `batch` streams.
    pub fn frame(model: &ModelConfig, cache_tokens: usize, batch: usize) -> Self {
        Self {
            model: model.clone(),
            cache_tokens,
            batch,
            new_tokens: model.tokens_per_frame,
            generation: false,
        }
    }

    /// A single-token generation step.
    pub fn decode(model: &ModelConfig, cache_tokens: usize, batch: usize) -> Self {
        Self {
            model: model.clone(),
            cache_tokens,
            batch,
            new_tokens: 1,
            generation: true,
        }
    }
}

/// Cost breakdown of one decoder layer (all times in ps, totals over
/// the batch).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCosts {
    /// Dense projections + FFN.
    pub dense_ps: u64,
    /// Attention over the selected context.
    pub attention_ps: u64,
    /// KV prediction (importance computation).
    pub prediction_ps: u64,
    /// Cold-KV fetch over the offload path.
    pub fetch_ps: u64,
    /// Layer latency after overlap composition.
    pub layer_ps: u64,
    /// Bytes fetched over PCIe.
    pub fetch_bytes: u64,
    /// Device-DRAM bytes touched (weights + KV reads).
    pub dram_bytes: u64,
    /// Useful FLOPs executed.
    pub flops: u64,
}

/// Selected tokens per stream for a stage.
pub fn selected_tokens(method: Method, w: &Workload) -> usize {
    let ratio = method.ratio(w.generation);
    ((w.cache_tokens as f64 * ratio).ceil() as usize).min(w.cache_tokens)
}

/// Of the selected tokens, how many are *cold* (not in the device-
/// resident hot window) and must be fetched.
///
/// GPU offloading baselines keep no resident window (their design
/// offloads the full cache; FlexGen/InfiniGen stream from
/// storage/CPU), while the KVMU's hierarchical memory keeps the most
/// recent `hot_window_tokens` per stream on-device (paper §V-C).
pub fn cold_selected_tokens(platform: &PlatformSpec, method: Method, w: &Workload) -> usize {
    let profile = method.profile();
    if !profile.offloads {
        return 0;
    }
    let selected = selected_tokens(method, w);
    if !platform.has_dre() {
        // GPU software stacks offload the full cache (no hierarchical
        // residency): everything selected is cold.
        return selected;
    }
    let hot = platform.hot_window_tokens.min(w.cache_tokens);
    let hot_frac = hot as f64 / w.cache_tokens.max(1) as f64;
    let p_hot = if profile.frame_ratio >= 1.0 && profile.text_ratio >= 1.0 {
        hot_frac // full fetch: no selection bias
    } else {
        hot_frac + RECENCY_BIAS * (1.0 - hot_frac)
    };
    ((selected as f64 * (1.0 - p_hot)).ceil() as usize).min(selected)
}

/// Per-layer weight bytes (projections + FFN + norms).
fn layer_weight_bytes(m: &ModelConfig) -> u64 {
    let d = m.hidden_dim as u64;
    let qo = d * (m.n_heads * m.head_dim) as u64 * 2;
    let kv = d * (m.n_kv_heads * m.head_dim) as u64 * 2;
    let ffn = 3 * d * m.ffn_dim as u64;
    (qo + kv + ffn + 2 * d) * m.bytes_per_element as u64
}

fn prediction_costs(
    platform: &PlatformSpec,
    method: Method,
    w: &Workload,
) -> (u64 /* ps */, u64 /* dram bytes */) {
    let m = &w.model;
    let s = w.cache_tokens as u64;
    let b = w.batch as u64;
    let n = w.new_tokens as u64;
    let kdim = (m.n_kv_heads * m.head_dim) as u64;
    let key_bytes_per_layer = s * kdim * m.bytes_per_element as u64;
    match method.profile().prediction {
        PredictionKind::None => (0, 0),
        PredictionKind::TokenTopK => {
            // Score: Q·Kᵀ against every cached key (reads all keys),
            // then a top-k scan/sort per head.
            let score_flops = 2 * b * n * s * (m.n_heads * m.head_dim) as u64;
            let sort_ops = b * s * m.n_heads as u64;
            match &platform.compute {
                ComputeSpec::Gpu(g) => {
                    let t = g.dense_op_ps(score_flops, b * key_bytes_per_layer)
                        + g.irregular_op_ps(sort_ops, 2);
                    (t, b * key_bytes_per_layer)
                }
                ComputeSpec::VRex(v) => {
                    // Hypothetical top-k on V-Rex: DPE scores + WTU scan.
                    let score = v.dense_op_ps(
                        score_flops,
                        DPE_DENSE_UTILIZATION,
                        b * key_bytes_per_layer,
                        platform.dram.peak_bytes_per_s(),
                    );
                    let scan = v.core.wtu.selection_ps(s, s, s / 10);
                    (score + scan, b * key_bytes_per_layer)
                }
            }
        }
        PredictionKind::FrameTopK => {
            // Centroid score per frame + frame-level top-k.
            let n_frames = s.div_ceil(m.tokens_per_frame as u64);
            let score_flops = 2 * b * n * n_frames * (m.n_heads * m.head_dim) as u64;
            let centroid_bytes = n_frames * kdim * m.bytes_per_element as u64;
            let sort_ops = b * n_frames * m.n_heads as u64;
            match &platform.compute {
                ComputeSpec::Gpu(g) => (
                    g.dense_op_ps(score_flops, b * centroid_bytes) + g.irregular_op_ps(sort_ops, 2),
                    b * centroid_bytes,
                ),
                ComputeSpec::VRex(v) => {
                    let score = v.dense_op_ps(
                        score_flops,
                        DPE_DENSE_UTILIZATION,
                        b * centroid_bytes,
                        platform.dram.peak_bytes_per_s(),
                    );
                    (
                        score + v.core.wtu.selection_ps(n_frames, n_frames, n_frames / 4),
                        b * centroid_bytes,
                    )
                }
            }
        }
        PredictionKind::Resv => {
            let n_clusters = s.div_ceil(TOKENS_PER_CLUSTER as u64).max(1);
            // Clustering: each new token compares against the clusters
            // of its KV head.
            let comparisons = b * n * n_clusters * m.n_kv_heads as u64;
            // Cluster scoring: Q · Key_clusterᵀ.
            let score_flops = 2 * b * n * n_clusters * (m.n_heads * m.head_dim) as u64;
            let cluster_bytes = n_clusters * kdim * m.bytes_per_element as u64;
            // WiCSum: weighted sums + early-exit selection per row/head.
            let wicsum_ops = b * n * n_clusters * m.n_heads as u64;
            match &platform.compute {
                ComputeSpec::Gpu(g) => {
                    // On a GPU these are serial data-dependent chains
                    // (Fig. 16: prediction = 48% of AGX+ReSV latency).
                    let t = g.dense_op_ps(score_flops, b * cluster_bytes)
                        + g.serial_op_ps(comparisons, n)
                        + g.serial_op_ps(wicsum_ops / 4, 2);
                    (t, b * cluster_bytes)
                }
                ComputeSpec::VRex(v) => {
                    // HCU + WTU, parallel across cores.
                    let cores = v.n_cores as u64;
                    let hcu = v.core.hcu.clustering_ps(comparisons.div_ceil(cores), 32);
                    // Early exit: ~16% of elements scanned on average.
                    let scanned = (wicsum_ops as f64 * 0.16) as u64;
                    let wtu = v.core.wtu.selection_ps(
                        n_clusters,
                        scanned.div_ceil(cores),
                        (b * n * m.n_heads as u64 * 8).div_ceil(cores),
                    );
                    let score = v.dense_op_ps(
                        score_flops,
                        DPE_DENSE_UTILIZATION,
                        b * cluster_bytes,
                        platform.dram.peak_bytes_per_s(),
                    );
                    // Score runs on the LXE; HCU/WTU run beside it. The
                    // DRE part is hcu+wtu; score is charged to dense
                    // pipeline via the returned time (kept here for
                    // simplicity — it is small).
                    (hcu + wtu + score, b * cluster_bytes)
                }
            }
        }
    }
}

/// Fetch duration over the offload path: source (SSD or CPU DRAM) and
/// the PCIe link operate as a pipeline — the slower stage bounds it.
fn fetch_costs(platform: &PlatformSpec, method: Method, w: &Workload) -> (u64, u64) {
    let cold = cold_selected_tokens(platform, method, w) as u64;
    if cold == 0 {
        return (0, 0);
    }
    let m = &w.model;
    let bytes = cold * m.kv_bytes_per_token_per_layer() as u64 * w.batch as u64;
    let profile = method.profile();
    // The KVMU's cluster-contiguous mapping needs the DRE hardware;
    // running ReSV on a GPU falls back to the temporal runs that
    // cluster members naturally form in the streaming layout
    // (~frame-sized chunks).
    let chunk = if profile.uses_kvmu && !platform.has_dre() {
        (10 * 4096).min(profile.fetch_chunk_bytes)
    } else {
        profile.fetch_chunk_bytes
    };
    let pcie_ps = platform.pcie.transfer_ps(bytes, chunk);
    // Fresh-device closed forms — the hot leaf of step pricing (no
    // allocation, no row state).
    let source_ps = if let Some(ssd) = &platform.storage {
        ssd.read_ps(bytes, chunk)
    } else if let Some(dram) = &platform.offload_dram {
        dram.read_ps(bytes, chunk)
    } else {
        0
    };
    (pcie_ps.max(source_ps), bytes)
}

/// Computes one layer's cost breakdown.
pub fn layer_costs(platform: &PlatformSpec, method: Method, w: &Workload) -> LayerCosts {
    let m = &w.model;
    let b = w.batch as u64;
    let n = w.new_tokens as u64;
    let selected = selected_tokens(method, w) as u64;
    let context = selected + n;

    // Dense projections + FFN: weights stream once per step, batch
    // shares them.
    let dense_flops = b * n * m.dense_flops_per_token_per_layer();
    let weight_bytes = layer_weight_bytes(m);
    // Attention: QKᵀ + AV over the selected context.
    let attn_flops = b * m.attention_flops_per_layer(n as usize, context as usize);
    let kv_read_bytes = b * context * m.kv_bytes_per_token_per_layer() as u64;

    let (dense_ps, attention_ps) = match &platform.compute {
        ComputeSpec::Gpu(g) => (
            g.dense_op_ps(dense_flops, weight_bytes),
            g.dense_op_ps(attn_flops, kv_read_bytes),
        ),
        ComputeSpec::VRex(v) => {
            let bw = platform.dram.peak_bytes_per_s();
            (
                v.dense_op_ps(dense_flops, DPE_DENSE_UTILIZATION, weight_bytes, bw),
                v.dense_op_ps(attn_flops, DPE_ATTENTION_UTILIZATION, kv_read_bytes, bw),
            )
        }
    };

    let (prediction_ps, pred_bytes) = prediction_costs(platform, method, w);
    let (fetch_ps, fetch_bytes) = fetch_costs(platform, method, w);

    // Overlap composition (Fig. 5).
    let layer_ps = match (&platform.compute, method) {
        // Vanilla offload: fetch serialises with compute.
        (ComputeSpec::Gpu(_), Method::FlexGen) => dense_ps + attention_ps + fetch_ps,
        // In-memory methods: no fetch at all.
        (_, Method::VanillaInMemory) | (_, Method::Oaken) => {
            dense_ps + attention_ps + prediction_ps
        }
        // SW-optimised baselines on GPU: prediction steals GPU time,
        // fetch overlaps.
        (ComputeSpec::Gpu(_), _) => (dense_ps + attention_ps + prediction_ps).max(fetch_ps),
        // V-Rex: DRE prediction and KVMU fetch both overlap the LXE.
        (ComputeSpec::VRex(_), _) => (dense_ps + attention_ps).max(prediction_ps).max(fetch_ps),
    };

    LayerCosts {
        dense_ps,
        attention_ps,
        prediction_ps,
        fetch_ps,
        layer_ps,
        fetch_bytes,
        dram_bytes: weight_bytes + kv_read_bytes + pred_bytes,
        flops: dense_flops + attn_flops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn llama() -> ModelConfig {
        ModelConfig::llama3_8b()
    }

    #[test]
    fn selected_tokens_follow_ratios() {
        let w = Workload::frame(&llama(), 40_000, 1);
        assert_eq!(selected_tokens(Method::FlexGen, &w), 40_000);
        assert_eq!(selected_tokens(Method::ReSV, &w), 13_080);
        let wg = Workload::decode(&llama(), 40_000, 1);
        assert_eq!(selected_tokens(Method::ReSV, &wg), 1000);
    }

    #[test]
    fn cold_tokens_zero_for_in_memory_methods() {
        let w = Workload::frame(&llama(), 40_000, 1);
        assert_eq!(
            cold_selected_tokens(&PlatformSpec::agx_orin(), Method::Oaken, &w),
            0
        );
        assert_eq!(
            cold_selected_tokens(&PlatformSpec::agx_orin(), Method::VanillaInMemory, &w),
            0
        );
    }

    #[test]
    fn kvmu_hot_window_reduces_cold_fetch() {
        let w = Workload::frame(&llama(), 40_000, 1);
        let gpu_cold = cold_selected_tokens(&PlatformSpec::agx_orin(), Method::ReSV, &w);
        let vrex_cold = cold_selected_tokens(&PlatformSpec::vrex8(), Method::ReSV, &w);
        assert!(vrex_cold < gpu_cold);
        assert!(vrex_cold > 0, "at 40K some selected tokens are cold");
        // Short caches fit the hot window entirely.
        let w1k = Workload::frame(&llama(), 1000, 1);
        assert_eq!(
            cold_selected_tokens(&PlatformSpec::vrex8(), Method::ReSV, &w1k),
            0
        );
    }

    #[test]
    fn flexgen_fetch_serialises_on_gpu() {
        let w = Workload::frame(&llama(), 40_000, 1);
        let c = layer_costs(&PlatformSpec::agx_orin(), Method::FlexGen, &w);
        assert_eq!(c.layer_ps, c.dense_ps + c.attention_ps + c.fetch_ps);
        assert!(c.fetch_ps > c.dense_ps, "full fetch dominates at 40K");
    }

    #[test]
    fn infinigenp_is_slower_than_flexgen_on_edge_at_long_cache() {
        // Paper Fig. 13a/14: scattered token-granular fetches make
        // InfiniGenP slower than FlexGen on the AGX despite fetching
        // half the bytes.
        let w = Workload::frame(&llama(), 40_000, 1);
        let agx = PlatformSpec::agx_orin();
        let flex = layer_costs(&agx, Method::FlexGen, &w);
        let igp = layer_costs(&agx, Method::InfiniGenP, &w);
        assert!(
            igp.layer_ps > flex.layer_ps,
            "InfiniGenP {} should exceed FlexGen {}",
            igp.layer_ps,
            flex.layer_ps
        );
    }

    #[test]
    fn vrex_prediction_is_negligible() {
        // Fig. 16: KVPU cuts KV prediction to <1% of layer time.
        let w = Workload::frame(&llama(), 40_000, 1);
        let c = layer_costs(&PlatformSpec::vrex8(), Method::ReSV, &w);
        assert!(
            (c.prediction_ps as f64) < 0.10 * c.layer_ps as f64,
            "prediction {} vs layer {}",
            c.prediction_ps,
            c.layer_ps
        );
    }

    #[test]
    fn resv_on_gpu_prediction_is_heavy() {
        // Fig. 16: on the AGX, ReSV's prediction is ~half the time.
        let w = Workload::frame(&llama(), 40_000, 1);
        let c = layer_costs(&PlatformSpec::agx_orin(), Method::ReSV, &w);
        assert!(
            c.prediction_ps > c.dense_ps,
            "GPU ReSV prediction {} should rival dense {}",
            c.prediction_ps,
            c.dense_ps
        );
    }

    #[test]
    fn vrex_layer_beats_agx_flexgen_at_every_length() {
        for s in [1_000, 5_000, 10_000, 20_000, 40_000] {
            let w = Workload::frame(&llama(), s, 1);
            let flex = layer_costs(&PlatformSpec::agx_orin(), Method::FlexGen, &w);
            let vrex = layer_costs(&PlatformSpec::vrex8(), Method::ReSV, &w);
            assert!(
                vrex.layer_ps < flex.layer_ps,
                "at {s}: V-Rex {} vs FlexGen {}",
                vrex.layer_ps,
                flex.layer_ps
            );
        }
    }

    /// Value-neutral pricing: every field of `layer_costs` over all 9
    /// methods × the 4 Table I platforms × 4 step shapes × 3 cache
    /// lengths, folded FNV-1a. The constant was captured from a build
    /// of the commit before the leaf closed forms were deduplicated, so
    /// a refactor of the pricing path that moves any picosecond, byte
    /// or FLOP count fails here rather than only in a stdout diff.
    #[test]
    fn layer_costs_fingerprint_is_pinned() {
        let m = llama();
        let methods = [
            Method::VanillaInMemory,
            Method::FlexGen,
            Method::InfiniGen,
            Method::InfiniGenP,
            Method::ReKV,
            Method::ReSV,
            Method::ReSVNoClustering,
            Method::ReSVKvpuOnly,
            Method::Oaken,
        ];
        let platforms = [
            PlatformSpec::agx_orin(),
            PlatformSpec::a100(),
            PlatformSpec::vrex8(),
            PlatformSpec::vrex48(),
        ];
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut cells = 0usize;
        for method in methods {
            for platform in &platforms {
                for cache in [1_000, 10_000, 40_000] {
                    let question = Workload {
                        new_tokens: 25,
                        ..Workload::frame(&m, cache, 1)
                    };
                    let shapes = [
                        Workload::frame(&m, cache, 1),
                        Workload::frame(&m, cache, 4),
                        question,
                        Workload::decode(&m, cache, 1),
                    ];
                    for w in &shapes {
                        let c = layer_costs(platform, method, w);
                        for v in [
                            c.dense_ps,
                            c.attention_ps,
                            c.prediction_ps,
                            c.fetch_ps,
                            c.layer_ps,
                            c.fetch_bytes,
                            c.dram_bytes,
                            c.flops,
                        ] {
                            for b in v.to_le_bytes() {
                                h ^= b as u64;
                                h = h.wrapping_mul(0x100_0000_01b3);
                            }
                        }
                        cells += 1;
                    }
                }
            }
        }
        assert_eq!(cells, 9 * 4 * 4 * 3);
        assert_eq!(h, 0xfc89_0512_956c_ceea, "layer_costs moved: {h:#018x}");
    }

    #[test]
    fn generation_step_is_cheaper_than_frame_step() {
        let wf = Workload::frame(&llama(), 20_000, 1);
        let wg = Workload::decode(&llama(), 20_000, 1);
        let f = layer_costs(&PlatformSpec::vrex8(), Method::ReSV, &wf);
        let g = layer_costs(&PlatformSpec::vrex8(), Method::ReSV, &wg);
        assert!(g.layer_ps <= f.layer_ps);
        assert!(g.fetch_bytes < f.fetch_bytes);
    }

    #[test]
    fn batch_scales_fetch_but_not_weights() {
        let w1 = Workload::frame(&llama(), 20_000, 1);
        let w4 = Workload::frame(&llama(), 20_000, 4);
        let c1 = layer_costs(&PlatformSpec::vrex8(), Method::ReSV, &w1);
        let c4 = layer_costs(&PlatformSpec::vrex8(), Method::ReSV, &w4);
        assert!((c4.fetch_bytes as f64 / c1.fetch_bytes as f64 - 4.0).abs() < 0.1);
        // Dense time grows far less than 4x (weight streaming shared).
        assert!((c4.dense_ps as f64) < 2.0 * c1.dense_ps as f64);
    }
}
