//! Cycle models of the V-Rex accelerator's compute units.
//!
//! A V-Rex core (paper §V, Table I footnote) comprises:
//!
//! * **DPE** — `N_DPE-h = 64` MAC trees × `N_DPE-w = 64` inputs at
//!   800 MHz → 6.554 TFLOP/s of dense matrix throughput;
//! * **VPE** — `N_VPE-h = 1` vector unit × `N_VPE-w = 64` lanes →
//!   0.102 TFLOP/s of vector/softmax work;
//!   (together 6.656 TFLOP/s per core: ×8 = 53.3, ×48 = 319.5 — the
//!   Table I peaks);
//! * **HCU** — `N_HCU-h = 1` XOR-accumulator over `N_HCU-w = 16`
//!   bit-lanes for Hamming-distance clustering;
//! * **WTU** — `N_WTU-h = 1` core with `N_WTU-w = 16` lanes running the
//!   early-exit bucket selection.
//!
//! All units share the 800 MHz, 0.8 V operating point validated by the
//! paper's synthesis.

use crate::time::cycles_to_ps;

/// Core clock (Hz) of the synthesised design.
pub const VREX_FREQ_HZ: u64 = 800_000_000;

/// Dot-product engine: a MAC-tree array for dense GEMMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpeConfig {
    /// MAC trees (output lanes).
    pub n_h: usize,
    /// Inputs per tree.
    pub n_w: usize,
    /// Clock (Hz).
    pub freq_hz: u64,
}

impl Default for DpeConfig {
    fn default() -> Self {
        Self {
            n_h: 64,
            n_w: 64,
            freq_hz: VREX_FREQ_HZ,
        }
    }
}

impl DpeConfig {
    /// Peak throughput (FLOP/s): `n_h · n_w` MACs × 2 per cycle.
    pub fn peak_flops(&self) -> f64 {
        (self.n_h * self.n_w * 2) as f64 * self.freq_hz as f64
    }

    /// Time (ps) for `flops` of dense work at `utilization` of peak,
    /// overlapped against `bytes` of memory traffic at `mem_bytes_per_s`
    /// (roofline max).
    pub fn op_ps(&self, flops: u64, utilization: f64, bytes: u64, mem_bytes_per_s: f64) -> u64 {
        assert!(utilization > 0.0 && utilization <= 1.0);
        let compute_s = flops as f64 / (self.peak_flops() * utilization);
        let memory_s = bytes as f64 / mem_bytes_per_s;
        crate::time::seconds_to_ps(compute_s.max(memory_s))
    }
}

/// Vector processing engine (softmax, norms, element-wise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VpeConfig {
    /// Vector units.
    pub n_h: usize,
    /// Lanes per unit.
    pub n_w: usize,
    /// Clock (Hz).
    pub freq_hz: u64,
}

impl Default for VpeConfig {
    fn default() -> Self {
        Self {
            n_h: 1,
            n_w: 64,
            freq_hz: VREX_FREQ_HZ,
        }
    }
}

impl VpeConfig {
    /// Peak vector throughput (op/s), 2 ops/lane/cycle.
    pub fn peak_ops(&self) -> f64 {
        (self.n_h * self.n_w * 2) as f64 * self.freq_hz as f64
    }

    /// Time (ps) for `ops` element-wise operations.
    pub fn op_ps(&self, ops: u64) -> u64 {
        let cycles = (ops as u128).div_ceil((self.n_h * self.n_w * 2) as u128) as u64;
        cycles_to_ps(cycles, self.freq_hz)
    }
}

/// Hash-bit cluster unit: XOR-accumulator array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HcuConfig {
    /// Parallel XOR accumulators.
    pub n_h: usize,
    /// Bit lanes per accumulator per cycle.
    pub n_w: usize,
    /// Clock (Hz).
    pub freq_hz: u64,
}

impl Default for HcuConfig {
    fn default() -> Self {
        Self {
            n_h: 1,
            n_w: 16,
            freq_hz: VREX_FREQ_HZ,
        }
    }
}

impl HcuConfig {
    /// Time (ps) for `comparisons` token-vs-cluster Hamming
    /// comparisons of `bits`-wide signatures.
    ///
    /// Each comparison needs `ceil(bits / n_w)` cycles on one
    /// accumulator; `n_h` comparisons proceed in parallel.
    pub fn clustering_ps(&self, comparisons: u64, bits: u32) -> u64 {
        let cycles_per_cmp = (bits as u64).div_ceil(self.n_w as u64);
        let serial = comparisons.div_ceil(self.n_h as u64);
        cycles_to_ps(serial * cycles_per_cmp, self.freq_hz)
    }
}

/// WiCSum threshold unit: early-exit bucket selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WtuConfig {
    /// Parallel WTU cores.
    pub n_h: usize,
    /// Lanes per core (elements processed per cycle in bucket scans,
    /// multiplies, and adder-tree reduction).
    pub n_w: usize,
    /// Clock (Hz).
    pub freq_hz: u64,
}

impl Default for WtuConfig {
    fn default() -> Self {
        Self {
            n_h: 1,
            n_w: 16,
            freq_hz: VREX_FREQ_HZ,
        }
    }
}

impl WtuConfig {
    /// Time (ps) for one WiCSum selection over `n_clusters` given the
    /// early-exit work counters (`elements_scanned` membership tests and
    /// `elements_sorted` within-bucket insertions).
    ///
    /// Preprocess (weighted sum + min/max) is one `n_clusters / n_w`
    /// pass; each bucket scan and each sorted element costs lane-width
    /// cycles; everything pipelines across `n_h` cores for independent
    /// rows, which the caller accounts for by dividing selections.
    pub fn selection_ps(
        &self,
        n_clusters: u64,
        elements_scanned: u64,
        elements_sorted: u64,
    ) -> u64 {
        let lanes = self.n_w as u64;
        let preprocess = n_clusters.div_ceil(lanes);
        let scan = elements_scanned.div_ceil(lanes);
        let sort = elements_sorted; // serial insert per selected element
        cycles_to_ps(preprocess + scan + sort, self.freq_hz)
    }
}

/// One V-Rex core: LXE (DPE + VPE) + DRE (HCU + WTU) + SRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VRexCoreConfig {
    /// Dense engine.
    pub dpe: DpeConfig,
    /// Vector engine.
    pub vpe: VpeConfig,
    /// Clustering unit.
    pub hcu: HcuConfig,
    /// Thresholding unit.
    pub wtu: WtuConfig,
    /// LXE on-chip memory (bytes).
    pub lxe_sram_bytes: usize,
    /// DRE on-chip memory (bytes).
    pub dre_sram_bytes: usize,
}

impl Default for VRexCoreConfig {
    fn default() -> Self {
        Self {
            dpe: DpeConfig::default(),
            vpe: VpeConfig::default(),
            hcu: HcuConfig::default(),
            wtu: WtuConfig::default(),
            lxe_sram_bytes: 384 * 1024,
            dre_sram_bytes: 20_608, // 20.125 KiB
        }
    }
}

impl VRexCoreConfig {
    /// Peak FLOP/s of one core (DPE + VPE).
    pub fn peak_flops(&self) -> f64 {
        self.dpe.peak_flops() + self.vpe.peak_ops()
    }
}

/// A multi-core V-Rex chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VRexChipConfig {
    /// Per-core configuration.
    pub core: VRexCoreConfig,
    /// Number of cores (8 edge, 48 server).
    pub n_cores: usize,
}

impl VRexChipConfig {
    /// The edge configuration (V-Rex8).
    pub fn edge8() -> Self {
        Self {
            core: VRexCoreConfig::default(),
            n_cores: 8,
        }
    }

    /// The server configuration (V-Rex48).
    pub fn server48() -> Self {
        Self {
            core: VRexCoreConfig::default(),
            n_cores: 48,
        }
    }

    /// Aggregate peak FLOP/s.
    pub fn peak_flops(&self) -> f64 {
        self.core.peak_flops() * self.n_cores as f64
    }

    /// Time (ps) for `flops` of dense work and `bytes` of device-memory
    /// traffic split evenly over the cores: each core's DPE runs its
    /// share at `utilization` against its share of `mem_bytes_per_s`
    /// ([`DpeConfig::op_ps`]'s per-core roofline).
    pub fn dense_op_ps(
        &self,
        flops: u64,
        utilization: f64,
        bytes: u64,
        mem_bytes_per_s: f64,
    ) -> u64 {
        let cores = self.n_cores as u64;
        self.core.dpe.op_ps(
            flops / cores,
            utilization,
            bytes / cores,
            mem_bytes_per_s / cores as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_core_peak_matches_table1() {
        let core = VRexCoreConfig::default();
        // 6.554 + 0.102 = 6.656 TFLOPS.
        assert!((core.peak_flops() - 6.656e12).abs() / 6.656e12 < 1e-6);
    }

    #[test]
    fn chip_peaks_match_table1() {
        // Table I: V-Rex8 = 53.3 TFLOPS, V-Rex48 = 319.5 TFLOPS.
        let edge = VRexChipConfig::edge8().peak_flops();
        let server = VRexChipConfig::server48().peak_flops();
        assert!((edge / 1e12 - 53.3).abs() < 0.1, "edge {edge:.3e}");
        assert!((server / 1e12 - 319.5).abs() < 0.3, "server {server:.3e}");
    }

    #[test]
    fn dpe_roofline_behaviour() {
        let dpe = DpeConfig::default();
        // Memory-bound case.
        let t = dpe.op_ps(1000, 1.0, 1 << 30, 204.8e9);
        let expected = (1u64 << 30) as f64 / 204.8e9;
        assert!((t as f64 / 1e12 - expected).abs() / expected < 0.01);
        // Compute-bound case.
        let t2 = dpe.op_ps(6_553_600_000_000, 1.0, 64, 204.8e9);
        assert!((t2 as f64 / 1e12 - 1.0).abs() < 0.01, "1s of peak FLOPs");
    }

    #[test]
    fn hcu_cycles_scale_with_comparisons_and_bits() {
        let hcu = HcuConfig::default();
        // 32-bit signature, 16 lanes -> 2 cycles/comparison @800MHz.
        assert_eq!(hcu.clustering_ps(1, 32), 2500);
        assert_eq!(hcu.clustering_ps(1000, 32), 2_500_000);
        assert_eq!(hcu.clustering_ps(1, 16), 1250);
    }

    #[test]
    fn wtu_early_exit_reduces_time() {
        let wtu = WtuConfig::default();
        let full = wtu.selection_ps(1024, 1024 * 32, 1024);
        let early = wtu.selection_ps(1024, 1024 * 2, 40);
        assert!(early * 5 < full, "early {early} vs full {full}");
    }

    #[test]
    fn vpe_op_time() {
        let vpe = VpeConfig::default();
        // 128 ops / (64 lanes * 2) = 1 cycle.
        assert_eq!(vpe.op_ps(128), 1250);
        assert_eq!(vpe.op_ps(129), 2500);
    }
}
