//! End-to-end system model: latency, FPS, OOM, energy.
//!
//! Composes per-layer costs into the quantities the paper plots:
//! per-frame latency and TPOT (Fig. 13), FPS (Fig. 15), end-to-end
//! interaction breakdowns (Figs. 4b, 14), per-component energy and
//! GOPS/W (Figs. 13, 16).

use vrex_hwsim::area_power::{vrex_core_breakdown, vrex_core_total};
use vrex_hwsim::tier::{TierCapacities, TierPath};
use vrex_model::ModelConfig;

use crate::method::Method;
use crate::pipeline::{layer_costs, LayerCosts, Workload, DPE_DENSE_UTILIZATION};
use crate::platform::{ComputeSpec, PlatformSpec};

/// Activation / workspace headroom reserved out of device memory before
/// any KV is admitted (~1 GiB).
pub const DEVICE_HEADROOM_BYTES: u64 = 1 << 30;

/// Energy of one step, broken down by component (joules).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Compute engine (GPU board or V-Rex cores incl. DRE).
    pub compute_j: f64,
    /// Device DRAM (access + background).
    pub dram_j: f64,
    /// PCIe link.
    pub pcie_j: f64,
    /// Storage / CPU-memory offload target.
    pub storage_j: f64,
}

impl EnergyBreakdown {
    /// Total energy (J).
    pub fn total_j(&self) -> f64 {
        self.compute_j + self.dram_j + self.pcie_j + self.storage_j
    }
}

/// Result of modelling one inference step (a frame or one output
/// token) across the whole decoder stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepResult {
    /// Step latency (ps), including vision/ingest for frame steps.
    pub latency_ps: u64,
    /// Σ dense time over layers (ps).
    pub dense_ps: u64,
    /// Σ attention time (ps).
    pub attention_ps: u64,
    /// Σ prediction time (ps).
    pub prediction_ps: u64,
    /// Σ fetch time (ps).
    pub fetch_ps: u64,
    /// Vision tower + ingest time (ps); zero for generation steps.
    pub vision_ps: u64,
    /// Bytes moved over PCIe.
    pub fetch_bytes: u64,
    /// Device-DRAM bytes touched.
    pub dram_bytes: u64,
    /// Useful FLOPs executed.
    pub flops: u64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
}

impl StepResult {
    /// Latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.latency_ps as f64 / 1e9
    }

    /// Energy efficiency (GOPS/W = G-op/J) of this step.
    pub fn gops_per_watt(&self) -> f64 {
        let e = self.energy.total_j();
        if e <= 0.0 {
            0.0
        } else {
            self.flops as f64 / e / 1e9
        }
    }
}

/// End-to-end breakdown of one interaction (Figs. 4b and 14).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InteractionBreakdown {
    /// Vision tower + MLP + ingest (ps).
    pub vision_ps: u64,
    /// Iterative prefill: frames + the question (ps).
    pub prefill_ps: u64,
    /// Generation (ps).
    pub generation_ps: u64,
}

impl InteractionBreakdown {
    /// Total (ps).
    pub fn total_ps(&self) -> u64 {
        self.vision_ps + self.prefill_ps + self.generation_ps
    }
}

/// A platform + method pair, ready to be priced on workloads.
#[derive(Debug, Clone)]
pub struct SystemModel {
    /// The platform.
    pub platform: PlatformSpec,
    /// The retrieval method.
    pub method: Method,
}

impl SystemModel {
    /// Creates the system model.
    pub fn new(platform: PlatformSpec, method: Method) -> Self {
        Self { platform, method }
    }

    /// Display label such as `"AGX + FlexGen"`.
    pub fn label(&self) -> String {
        format!("{} + {}", self.platform.name, self.method.profile().name)
    }

    /// Whether this configuration runs out of device memory at
    /// `cache_tokens` per stream × `batch` (Fig. 15's OOM points).
    pub fn is_oom(&self, model: &ModelConfig, cache_tokens: usize, batch: usize) -> bool {
        let weights = model.param_bytes() as u64 + self.platform.vision_bytes;
        let kv = self.resident_demand_bytes(model, cache_tokens) * batch as u64;
        weights + kv + DEVICE_HEADROOM_BYTES > self.platform.mem_capacity
    }

    /// Device bytes one stream at `cache_tokens` *must* keep resident:
    /// the full (method-scaled) cache for in-memory methods, or just
    /// the hot window for offloading methods. This is the per-stream
    /// demand both [`Self::is_oom`] and the tiered serving path charge
    /// against the device budget.
    pub fn resident_demand_bytes(&self, model: &ModelConfig, cache_tokens: usize) -> u64 {
        let profile = self.method.profile();
        let kv_per_token = (model.kv_bytes_per_token() as f64 * profile.kv_bytes_scale) as u64;
        let resident_tokens = if profile.offloads {
            self.platform.hot_window_tokens.min(cache_tokens)
        } else {
            cache_tokens
        };
        resident_tokens as u64 * kv_per_token
    }

    /// Device bytes left for KV after weights, the vision tower, and
    /// the activation headroom.
    pub fn device_kv_budget_bytes(&self, model: &ModelConfig) -> u64 {
        let weights = model.param_bytes() as u64 + self.platform.vision_bytes;
        self.platform
            .mem_capacity
            .saturating_sub(weights + DEVICE_HEADROOM_BYTES)
    }

    /// KV byte budgets of the platform's memory tiers: the device
    /// budget plus whatever host-DRAM and SSD spill capacity the
    /// platform carries (zero = tier absent).
    pub fn kv_tier_capacities(&self, model: &ModelConfig) -> TierCapacities {
        TierCapacities {
            device_bytes: self.device_kv_budget_bytes(model),
            host_bytes: if self.platform.offload_dram.is_some() {
                self.platform.host_mem_capacity
            } else {
                0
            },
            ssd_bytes: self
                .platform
                .storage
                .as_ref()
                .map_or(0, |s| s.capacity_bytes),
        }
    }

    /// The migration path connecting the platform's memory tiers.
    pub fn tier_path(&self) -> TierPath {
        TierPath {
            pcie: self.platform.pcie.clone(),
            host_dram: self.platform.offload_dram.clone(),
            ssd: self.platform.storage.clone(),
        }
    }

    fn vision_ps(&self, batch: usize) -> u64 {
        let b = batch as u64;
        let t = match &self.platform.compute {
            ComputeSpec::Gpu(g) => {
                g.dense_op_ps(self.platform.vision_flops * b, self.platform.vision_bytes)
            }
            ComputeSpec::VRex(v) => v.dense_op_ps(
                self.platform.vision_flops * b,
                DPE_DENSE_UTILIZATION,
                self.platform.vision_bytes,
                self.platform.dram.peak_bytes_per_s(),
            ),
        };
        t + self.platform.frame_overhead_ps
    }

    /// Models one step (all layers + optional vision).
    fn step(&self, w: &Workload, with_vision: bool) -> StepResult {
        let per_layer: LayerCosts = layer_costs(&self.platform, self.method, w);
        let n_layers = w.model.n_layers as u64;
        let vision_ps = if with_vision {
            self.vision_ps(w.batch)
        } else {
            0
        };
        let layers_ps = per_layer.layer_ps * n_layers;
        let latency_ps = layers_ps + vision_ps;
        let fetch_ps = per_layer.fetch_ps * n_layers;
        let dense_ps = per_layer.dense_ps * n_layers;
        let attention_ps = per_layer.attention_ps * n_layers;
        let prediction_ps = per_layer.prediction_ps * n_layers;
        let fetch_bytes = per_layer.fetch_bytes * n_layers;
        let dram_bytes = per_layer.dram_bytes * n_layers
            + if with_vision {
                self.platform.vision_bytes
            } else {
                0
            };
        let flops = per_layer.flops * n_layers
            + if with_vision {
                self.platform.vision_flops * w.batch as u64
            } else {
                0
            };
        let energy = self.energy(
            latency_ps,
            dense_ps + attention_ps + vision_ps,
            prediction_ps,
            fetch_ps,
            dram_bytes,
        );
        StepResult {
            latency_ps,
            dense_ps,
            attention_ps,
            prediction_ps,
            fetch_ps,
            vision_ps,
            fetch_bytes,
            dram_bytes,
            flops,
            energy,
        }
    }

    fn energy(
        &self,
        latency_ps: u64,
        compute_busy_ps: u64,
        prediction_ps: u64,
        fetch_ps: u64,
        dram_bytes: u64,
    ) -> EnergyBreakdown {
        let latency_s = latency_ps as f64 / 1e12;
        let fetch_s = fetch_ps as f64 / 1e12;
        match &self.platform.compute {
            ComputeSpec::Gpu(g) => {
                // Board power covers SoC + device memory (nvidia-smi /
                // tegrastats measurement, as in the paper).
                let compute_j = g.board_power_w * latency_s;
                let storage_j = if let Some(ssd) = &self.platform.storage {
                    ssd.active_w * fetch_s
                } else if self.platform.offload_dram.is_some() {
                    2.0 * fetch_s
                } else {
                    0.0
                };
                let pcie_j = self.platform.pcie.active_power_w() * fetch_s;
                EnergyBreakdown {
                    compute_j,
                    dram_j: 0.0, // included in board power
                    pcie_j,
                    storage_j,
                }
            }
            ComputeSpec::VRex(v) => {
                let core_total_w = vrex_core_total().power_mw / 1000.0 * v.n_cores as f64;
                let dre_w: f64 = vrex_core_breakdown()
                    .iter()
                    .filter(|e| e.group == "DRE")
                    .map(|e| e.budget.power_mw)
                    .sum::<f64>()
                    / 1000.0
                    * v.n_cores as f64;
                let lxe_w = core_total_w - dre_w;
                let busy_s = (compute_busy_ps as f64 / 1e12).min(latency_s);
                let pred_s = (prediction_ps as f64 / 1e12).min(latency_s);
                // Idle leakage at 8% of nominal.
                let compute_j = lxe_w * busy_s
                    + dre_w * pred_s
                    + 0.08 * core_total_w * (latency_s - busy_s).max(0.0);
                let dram_j = dram_bytes as f64 * 8.0 * self.platform.dram.pj_per_bit * 1e-12
                    + self.platform.dram.background_w * latency_s;
                let pcie_j = self.platform.pcie.active_power_w() * fetch_s;
                let storage_j = if let Some(ssd) = &self.platform.storage {
                    ssd.active_w * fetch_s + ssd.idle_w * (latency_s - fetch_s).max(0.0)
                } else if self.platform.offload_dram.is_some() {
                    2.0 * fetch_s
                } else {
                    0.0
                };
                EnergyBreakdown {
                    compute_j,
                    dram_j,
                    pcie_j,
                    storage_j,
                }
            }
        }
    }

    /// Per-frame latency (vision + iterative prefill of one frame) at a
    /// given cache length and batch.
    pub fn frame_step(&self, model: &ModelConfig, cache_tokens: usize, batch: usize) -> StepResult {
        self.step(&Workload::frame(model, cache_tokens, batch), true)
    }

    /// Time per output token (one generation step).
    pub fn decode_step(
        &self,
        model: &ModelConfig,
        cache_tokens: usize,
        batch: usize,
    ) -> StepResult {
        self.step(&Workload::decode(model, cache_tokens, batch), false)
    }

    /// A question-prefill step of `tokens` text tokens.
    pub fn question_step(
        &self,
        model: &ModelConfig,
        cache_tokens: usize,
        batch: usize,
        tokens: usize,
    ) -> StepResult {
        let w = Workload {
            new_tokens: tokens,
            ..Workload::frame(model, cache_tokens, batch)
        };
        self.step(&w, false)
    }

    /// Aggregate frames-per-second across `batch` streams (Fig. 15's
    /// throughput metric).
    pub fn fps(&self, model: &ModelConfig, cache_tokens: usize, batch: usize) -> Option<f64> {
        if self.is_oom(model, cache_tokens, batch) {
            return None;
        }
        let r = self.frame_step(model, cache_tokens, batch);
        Some(batch as f64 / (r.latency_ps as f64 / 1e12))
    }

    /// End-to-end breakdown of the paper's average COIN interaction
    /// (frames + question + answer) at a fixed cache length.
    pub fn interaction(
        &self,
        model: &ModelConfig,
        cache_tokens: usize,
        batch: usize,
        frames: usize,
        question_tokens: usize,
        answer_tokens: usize,
    ) -> InteractionBreakdown {
        let frame = self.frame_step(model, cache_tokens, batch);
        let question = self.question_step(model, cache_tokens, batch, question_tokens);
        let decode = self.decode_step(model, cache_tokens, batch);
        InteractionBreakdown {
            vision_ps: frame.vision_ps * frames as u64,
            prefill_ps: (frame.latency_ps - frame.vision_ps) * frames as u64 + question.latency_ps,
            generation_ps: decode.latency_ps * answer_tokens as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn llama() -> ModelConfig {
        ModelConfig::llama3_8b()
    }

    #[test]
    fn vrex8_is_real_time_across_the_sweep() {
        // Paper: V-Rex8 sustains 3.9–8.3 FPS (≥2 FPS real-time bar)
        // from 1K to 40K at batch 1.
        let sys = SystemModel::new(PlatformSpec::vrex8(), Method::ReSV);
        for s in [1_000, 5_000, 10_000, 20_000, 40_000] {
            let fps = sys.fps(&llama(), s, 1).expect("no OOM");
            assert!(fps >= 2.0, "V-Rex8 at {s}: {fps:.2} FPS below real-time");
            assert!(fps <= 12.0, "V-Rex8 at {s}: {fps:.2} FPS implausibly fast");
        }
    }

    #[test]
    fn vrex8_beats_agx_flexgen_with_growing_gap() {
        let vrex = SystemModel::new(PlatformSpec::vrex8(), Method::ReSV);
        let agx = SystemModel::new(PlatformSpec::agx_orin(), Method::FlexGen);
        let mut last_speedup = 0.0;
        for s in [1_000, 10_000, 40_000] {
            let t_v = vrex.frame_step(&llama(), s, 1).latency_ms();
            let t_a = agx.frame_step(&llama(), s, 1).latency_ms();
            let speedup = t_a / t_v;
            assert!(speedup > 1.2, "at {s}: speedup {speedup:.2}");
            assert!(
                speedup >= last_speedup * 0.9,
                "speedup should grow with cache length"
            );
            last_speedup = speedup;
        }
        assert!(
            last_speedup > 4.0,
            "40K speedup {last_speedup:.2} too small"
        );
        assert!(
            last_speedup < 20.0,
            "40K speedup {last_speedup:.2} too large"
        );
    }

    #[test]
    fn tpot_matches_paper_magnitude() {
        // Paper: V-Rex8 TPOT 89–97 ms; V-Rex48 TPOT 14–15 ms.
        let edge = SystemModel::new(PlatformSpec::vrex8(), Method::ReSV);
        let server = SystemModel::new(PlatformSpec::vrex48(), Method::ReSV);
        for s in [1_000, 40_000] {
            let e = edge.decode_step(&llama(), s, 1).latency_ms();
            let v = server.decode_step(&llama(), s, 1).latency_ms();
            assert!((50.0..150.0).contains(&e), "edge TPOT {e} ms at {s}");
            assert!((5.0..30.0).contains(&v), "server TPOT {v} ms at {s}");
        }
    }

    #[test]
    fn energy_efficiency_gains_grow_with_cache() {
        let vrex = SystemModel::new(PlatformSpec::vrex8(), Method::ReSV);
        let agx = SystemModel::new(PlatformSpec::agx_orin(), Method::FlexGen);
        let gain = |s: usize| {
            let v = vrex.frame_step(&llama(), s, 1);
            let a = agx.frame_step(&llama(), s, 1);
            v.gops_per_watt() / a.gops_per_watt()
        };
        let g1 = gain(1_000);
        let g40 = gain(40_000);
        assert!(g1 > 2.0, "1K energy gain {g1:.2}");
        assert!(g40 > g1, "gain should grow: {g1:.2} -> {g40:.2}");
        assert!(g40 < 40.0, "40K gain {g40:.2} implausible");
    }

    #[test]
    fn step_energy_recomputes_from_the_step_itself() {
        // DRAM and SSD energy as priced: per-bit access plus background
        // power on V-Rex, active plus idle drive power on the NVMe, and
        // on the GPU board the drive's active power only (board power
        // covers device memory).
        let vrex = SystemModel::new(PlatformSpec::vrex8(), Method::ReSV);
        let r = vrex.frame_step(&llama(), 40_000, 1);
        let (dram, ssd) = (&vrex.platform.dram, vrex.platform.storage.as_ref().unwrap());
        let latency_s = r.latency_ps as f64 / 1e12;
        let fetch_s = r.fetch_ps as f64 / 1e12;
        assert!(r.dram_bytes > 0 && fetch_s > 0.0 && fetch_s < latency_s);
        assert_eq!(
            r.energy.dram_j,
            r.dram_bytes as f64 * 8.0 * dram.pj_per_bit * 1e-12 + dram.background_w * latency_s
        );
        assert_eq!(
            r.energy.storage_j,
            ssd.active_w * fetch_s + ssd.idle_w * (latency_s - fetch_s)
        );

        let agx = SystemModel::new(PlatformSpec::agx_orin(), Method::FlexGen);
        let r = agx.frame_step(&llama(), 40_000, 1);
        let ssd = agx.platform.storage.as_ref().unwrap();
        assert!(r.fetch_ps > 0);
        assert_eq!(
            r.energy.storage_j,
            ssd.active_w * (r.fetch_ps as f64 / 1e12)
        );
        assert_eq!(r.energy.dram_j, 0.0);
    }

    #[test]
    fn oom_points_match_fig15_shape() {
        let model = llama();
        let vanilla = SystemModel::new(PlatformSpec::agx_orin(), Method::VanillaInMemory);
        let oaken = SystemModel::new(PlatformSpec::agx_orin(), Method::Oaken);
        let vrex = SystemModel::new(PlatformSpec::vrex8(), Method::ReSV);
        let batch = 16;
        // AGX vanilla dies first, Oaken survives longer, V-Rex never.
        let first_oom = |sys: &SystemModel| {
            [1_000usize, 5_000, 10_000, 20_000, 40_000]
                .iter()
                .position(|&s| sys.is_oom(&model, s, batch))
        };
        let v = first_oom(&vanilla).expect("vanilla must OOM");
        let o = first_oom(&oaken).expect("oaken must OOM");
        assert!(v < o, "vanilla {v} should OOM before oaken {o}");
        assert_eq!(first_oom(&vrex), None, "V-Rex must never OOM");
    }

    #[test]
    fn interaction_prefill_dominates_at_long_cache() {
        // Fig. 4b: prefill becomes the largest share as cache grows.
        let sys = SystemModel::new(PlatformSpec::a100(), Method::InfiniGen);
        let b = sys.interaction(&llama(), 40_000, 1, 26, 25, 39);
        assert!(b.prefill_ps > b.generation_ps);
        assert!(b.prefill_ps > b.vision_ps);
        let share = b.prefill_ps as f64 / b.total_ps() as f64;
        assert!(share > 0.6, "prefill share {share}");
    }

    #[test]
    fn server_systems_scale_with_batch() {
        // Fig. 13b: batching improves V-Rex48 speedups (3.4–19.7×).
        let vrex = SystemModel::new(PlatformSpec::vrex48(), Method::ReSV);
        let a100 = SystemModel::new(PlatformSpec::a100(), Method::FlexGen);
        let speedup = |b: usize| {
            a100.frame_step(&llama(), 40_000, b).latency_ms()
                / vrex.frame_step(&llama(), 40_000, b).latency_ms()
        };
        assert!(speedup(8) > speedup(1) * 0.8, "batch scaling regressed");
        assert!(speedup(1) > 2.0);
    }

    #[test]
    fn labels_are_informative() {
        let sys = SystemModel::new(PlatformSpec::vrex8(), Method::ReSV);
        assert_eq!(sys.label(), "V-Rex8 + ReSV");
    }

    #[test]
    fn oom_is_budget_exhaustion() {
        // is_oom must agree with the budget/demand decomposition the
        // tiered serving path uses.
        let model = llama();
        for method in [Method::VanillaInMemory, Method::ReSV, Method::Oaken] {
            let sys = SystemModel::new(PlatformSpec::agx_orin(), method);
            for cache in [1_000usize, 10_000, 40_000] {
                for batch in [1usize, 8, 32] {
                    let decomposed = sys.resident_demand_bytes(&model, cache) * batch as u64
                        > sys.device_kv_budget_bytes(&model);
                    assert_eq!(sys.is_oom(&model, cache, batch), decomposed);
                }
            }
        }
    }

    #[test]
    fn tier_capacities_follow_the_platform() {
        let model = llama();
        let server = SystemModel::new(PlatformSpec::vrex48(), Method::VanillaInMemory);
        let caps = server.kv_tier_capacities(&model);
        // 80 GiB minus ~17 GiB of weights/vision/headroom.
        assert!(caps.device_bytes > 55 << 30 && caps.device_bytes < 65 << 30);
        assert_eq!(caps.host_bytes, 256u64 << 30);
        assert_eq!(caps.ssd_bytes, 0, "Table I server has no spill drive");

        let three_tier = SystemModel::new(
            PlatformSpec::vrex48().with_nvme_tier(),
            Method::VanillaInMemory,
        );
        assert!(three_tier.kv_tier_capacities(&model).ssd_bytes > 0);

        let edge = SystemModel::new(PlatformSpec::agx_orin(), Method::VanillaInMemory);
        let edge_caps = edge.kv_tier_capacities(&model);
        assert_eq!(edge_caps.host_bytes, 0, "unified memory: no host tier");
        assert!(edge_caps.ssd_bytes > 0);
    }
}
