//! Roofline GPU model with irregular-operation penalties.
//!
//! The baselines run on a Jetson AGX Orin (edge) or an A100 (server).
//! For the operations the evaluation times — dense GEMMs, attention,
//! top-k/sort selection, scattered gathers — a GPU is characterised by
//! its compute roof, memory roof, kernel-launch quanta, and a heavily
//! reduced throughput for data-dependent conditional work (the paper's
//! §V motivation: ReSV's clustering/thresholding "would cause severe
//! slowdown and underutilization on a GPU").

use crate::time::seconds_to_ps;

/// Static GPU configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Human-readable name.
    pub name: &'static str,
    /// Peak dense FP16/BF16 throughput (FLOP/s).
    pub peak_flops: f64,
    /// Device memory bandwidth (bytes/s).
    pub mem_bytes_per_s: f64,
    /// Device memory capacity (bytes).
    pub mem_capacity: u64,
    /// Achievable fraction of peak on well-shaped GEMMs.
    pub dense_efficiency: f64,
    /// Kernel launch + sync overhead per operation (ps).
    pub launch_ps: u64,
    /// Throughput for irregular parallel work (segmented sorts, top-k
    /// scans), in elementary ops/s. Calibrated so InfiniGen-style KV
    /// prediction takes the ~40% share of prefill latency the paper
    /// measures on an A100 at 40K cache (Fig. 4c).
    pub irregular_ops_per_s: f64,
    /// Throughput for serial data-dependent chains (ReSV's token-by-
    /// token clustering and conditional thresholding), in ops/s.
    /// Calibrated to Fig. 16's finding that ReSV-on-GPU spends ~48% of
    /// its time in KV prediction.
    pub serial_ops_per_s: f64,
    /// Board power (W) under load.
    pub board_power_w: f64,
}

impl GpuConfig {
    /// NVIDIA Jetson AGX Orin (Table I): 54 TFLOPS FP16, LPDDR5
    /// 204.8 GB/s, 32 GB shared, ~40 W.
    pub fn agx_orin() -> Self {
        Self {
            name: "AGX Orin",
            peak_flops: 54.0e12,
            mem_bytes_per_s: 204.8e9,
            mem_capacity: 32u64 << 30,
            dense_efficiency: 0.55,
            launch_ps: 8_000_000, // 8 µs
            irregular_ops_per_s: 2.5e8,
            serial_ops_per_s: 2.2e7,
            board_power_w: 40.0,
        }
    }

    /// NVIDIA A100 (Table I): 312 TFLOPS BF16, HBM2e 1935 GB/s, 80 GB,
    /// ~300 W.
    pub fn a100() -> Self {
        Self {
            name: "A100",
            peak_flops: 312.0e12,
            mem_bytes_per_s: 1935.0e9,
            mem_capacity: 80u64 << 30,
            dense_efficiency: 0.6,
            launch_ps: 5_000_000, // 5 µs
            irregular_ops_per_s: 1.2e9,
            serial_ops_per_s: 7.0e7,
            board_power_w: 300.0,
        }
    }

    /// Time (ps) for a dense kernel: roofline max of compute and memory
    /// time plus one launch.
    pub fn dense_op_ps(&self, flops: u64, bytes: u64) -> u64 {
        let compute_s = flops as f64 / (self.peak_flops * self.dense_efficiency);
        let memory_s = bytes as f64 / self.mem_bytes_per_s;
        seconds_to_ps(compute_s.max(memory_s)) + self.launch_ps
    }

    /// Time (ps) for irregular data-dependent work of `ops` elementary
    /// operations (comparisons, conditional updates), launched as
    /// `kernels` separate kernels.
    pub fn irregular_op_ps(&self, ops: u64, kernels: u64) -> u64 {
        seconds_to_ps(ops as f64 / self.irregular_ops_per_s) + kernels * self.launch_ps
    }

    /// Time (ps) for serial data-dependent chains of `ops` operations
    /// (each step's input depends on the previous step's branch).
    pub fn serial_op_ps(&self, ops: u64, kernels: u64) -> u64 {
        seconds_to_ps(ops as f64 / self.serial_ops_per_s) + kernels * self.launch_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roofline::Roof;

    #[test]
    fn dense_op_is_memory_bound_for_weight_streaming() {
        // Streaming 16 GB of weights for a single token is memory-bound
        // on AGX: ~78 ms.
        let gpu = GpuConfig::agx_orin();
        let flops = 16_000_000_000u64; // 16 GFLOP (1 token through 8B params)
        let bytes = 16u64 << 30;
        let t = gpu.dense_op_ps(flops, bytes);
        let ms = t as f64 / 1e9;
        assert!((75.0..95.0).contains(&ms), "weight streaming took {ms} ms");
    }

    #[test]
    fn dense_op_is_compute_bound_for_big_batches() {
        let gpu = GpuConfig::a100();
        // 1 PFLOP over only 1 GB of traffic: compute-bound.
        let t = gpu.dense_op_ps(1_000_000_000_000_000, 1 << 30);
        let compute_s = 1e15 / (gpu.peak_flops * gpu.dense_efficiency);
        assert!((t as f64 / 1e12 - compute_s).abs() / compute_s < 0.01);
    }

    #[test]
    fn irregular_work_is_much_slower_than_dense() {
        let gpu = GpuConfig::agx_orin();
        let n = 1_000_000u64;
        let dense = gpu.dense_op_ps(2 * n, 4 * n);
        let irregular = gpu.irregular_op_ps(n, 1);
        // Per-op irregular throughput is orders below dense FLOPs.
        assert!(irregular > dense / 4);
    }

    #[test]
    fn roofline_has_knee() {
        let gpu = GpuConfig::agx_orin();
        let roof = Roof {
            peak_flops: gpu.peak_flops,
            mem_bytes_per_s: gpu.mem_bytes_per_s,
        };
        let knee = gpu.peak_flops / gpu.mem_bytes_per_s;
        assert!(roof.attainable(knee / 10.0) < gpu.peak_flops * 0.2);
        assert_eq!(roof.attainable(knee * 10.0), gpu.peak_flops);
    }

    #[test]
    fn launch_overhead_floors_small_ops() {
        let gpu = GpuConfig::a100();
        assert!(gpu.dense_op_ps(1, 1) >= gpu.launch_ps);
    }
}
