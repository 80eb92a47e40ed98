//! PCIe link model with transaction-size-dependent efficiency.
//!
//! KV retrieval is bottlenecked by PCIe (paper §I: 4–32 GB/s vs.
//! 1–2 TB/s device memory). Crucially, *how* bytes are packed matters:
//! every TLP carries ~24 bytes of header/framing per ≤256-byte payload
//! and every DMA descriptor costs setup time, so thousands of scattered
//! per-token reads waste a large fraction of the link — the
//! inefficiency the KVMU's cluster-contiguous mapping removes
//! (paper §V-C).

use crate::time::seconds_to_ps;

/// Static PCIe link configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PcieConfig {
    /// Human-readable name.
    pub name: &'static str,
    /// Lane count.
    pub lanes: usize,
    /// Effective per-lane data bandwidth (bytes/s) after encoding.
    pub lane_bytes_per_s: f64,
    /// Maximum TLP payload (bytes).
    pub max_payload: u64,
    /// TLP header + framing overhead (bytes).
    pub tlp_overhead: u64,
    /// Per-DMA-descriptor setup latency (ps).
    pub dma_setup_ps: u64,
    /// Power per lane while active (W) — the paper budgets 3 W/lane.
    pub w_per_lane: f64,
}

impl PcieConfig {
    /// PCIe 3.0 ×4 — the edge platform's 4 GB/s storage link.
    pub fn gen3_x4() -> Self {
        Self {
            name: "PCIe3.0x4",
            lanes: 4,
            lane_bytes_per_s: 1.0e9,
            max_payload: 256,
            tlp_overhead: 24,
            dma_setup_ps: 400_000, // 0.4 µs per descriptor
            w_per_lane: 3.0,
        }
    }

    /// PCIe 4.0 ×16 — the server platform's 32 GB/s CPU-memory link.
    pub fn gen4_x16() -> Self {
        Self {
            name: "PCIe4.0x16",
            lanes: 16,
            lane_bytes_per_s: 2.0e9,
            max_payload: 256,
            tlp_overhead: 24,
            dma_setup_ps: 400_000,
            w_per_lane: 3.0,
        }
    }

    /// Raw link bandwidth (bytes/s).
    pub fn raw_bytes_per_s(&self) -> f64 {
        self.lane_bytes_per_s * self.lanes as f64
    }

    /// Duration (ps) of transferring `total_bytes` split into DMA
    /// chunks of `chunk_bytes` (last chunk may be short).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bytes == 0` while `total_bytes > 0`.
    pub fn transfer_ps(&self, total_bytes: u64, chunk_bytes: u64) -> u64 {
        if total_bytes == 0 {
            return 0;
        }
        assert!(chunk_bytes > 0, "chunk size must be positive");
        let n_chunks = total_bytes.div_ceil(chunk_bytes);
        let tlps = total_bytes.div_ceil(self.max_payload) + n_chunks; // +1 partial per chunk boundary
        let wire_bytes = total_bytes + tlps * self.tlp_overhead;
        let wire_ps = seconds_to_ps(wire_bytes as f64 / self.raw_bytes_per_s());
        wire_ps + n_chunks * self.dma_setup_ps
    }

    /// Link power while active (W).
    pub fn active_power_w(&self) -> f64 {
        self.w_per_lane * self.lanes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Effective bandwidth (bytes/s) of a 64 MiB transfer at a chunk
    /// size, as [`PcieConfig::transfer_ps`] prices it.
    fn effective_bandwidth(cfg: &PcieConfig, chunk_bytes: u64) -> f64 {
        let total = 64u64 << 20;
        let ps = cfg.transfer_ps(total, chunk_bytes);
        total as f64 / (ps as f64 / 1e12)
    }

    #[test]
    fn raw_bandwidths_match_table1() {
        assert!((PcieConfig::gen3_x4().raw_bytes_per_s() - 4.0e9).abs() < 1.0);
        assert!((PcieConfig::gen4_x16().raw_bytes_per_s() - 32.0e9).abs() < 1.0);
    }

    #[test]
    fn large_chunks_approach_line_rate() {
        let cfg = PcieConfig::gen3_x4();
        let bw = effective_bandwidth(&cfg, 1 << 20);
        assert!(
            bw > 0.85 * cfg.raw_bytes_per_s(),
            "1 MiB chunks should be efficient, got {bw:.2e}"
        );
    }

    #[test]
    fn tiny_chunks_collapse_bandwidth() {
        let cfg = PcieConfig::gen3_x4();
        let bw_small = effective_bandwidth(&cfg, 512);
        let bw_big = effective_bandwidth(&cfg, 1 << 20);
        assert!(
            bw_small < 0.6 * bw_big,
            "512 B chunks {bw_small:.2e} should clearly underperform {bw_big:.2e}"
        );
    }

    #[test]
    fn zero_transfer_is_free() {
        assert_eq!(PcieConfig::gen3_x4().transfer_ps(0, 4096), 0);
    }

    #[test]
    fn power_is_3w_per_lane() {
        assert!((PcieConfig::gen3_x4().active_power_w() - 12.0).abs() < 1e-9);
        assert!((PcieConfig::gen4_x16().active_power_w() - 48.0).abs() < 1e-9);
    }

    #[test]
    fn chunk_larger_than_total_is_one_dma_descriptor() {
        // 1 KiB sent with a 1 MiB chunk size: a single chunk, so one
        // DMA setup; 4 full TLPs for the payload + 1 for the chunk
        // boundary → 5·24 B of framing on the wire.
        let cfg = PcieConfig::gen3_x4();
        let t = cfg.transfer_ps(1024, 1 << 20);
        let wire_bytes = 1024 + 5 * 24;
        let expected = seconds_to_ps(wire_bytes as f64 / cfg.raw_bytes_per_s()) + cfg.dma_setup_ps;
        assert_eq!(t, expected);
    }

    #[test]
    fn single_sub_payload_transfer_still_pays_setup() {
        // 8 bytes: one TLP + one boundary TLP, one descriptor. The DMA
        // setup dominates by orders of magnitude.
        let cfg = PcieConfig::gen3_x4();
        let t = cfg.transfer_ps(8, 4096);
        assert!(t >= cfg.dma_setup_ps);
        assert!(t < 2 * cfg.dma_setup_ps, "tiny payload ≈ one setup: {t}");
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_with_nonzero_bytes_panics() {
        let _ = PcieConfig::gen3_x4().transfer_ps(4096, 0);
    }

    #[test]
    fn transfer_time_monotone_in_bytes() {
        let cfg = PcieConfig::gen3_x4();
        let t1 = cfg.transfer_ps(1 << 20, 64 << 10);
        let t2 = cfg.transfer_ps(2 << 20, 64 << 10);
        assert!(t2 > t1);
    }
}
