//! Multi-queue NVMe SSD model (MQSim substitute).
//!
//! The edge platform offloads its KV cache to an M.2 NVMe SSD (Kioxia
//! BG6-class in the paper). What the evaluation needs from MQSim is the
//! behaviour gap between *contiguous* reads (pages stripe across
//! channels and dies, pipelining flash-array reads with channel
//! transfers) and *scattered* small reads (every request pays a full
//! page read for a fraction of a page of useful data). That gap is why
//! the KVMU's cluster-contiguous memory mapping matters.
//!
//! Both regimes are closed forms of the configuration on an otherwise
//! idle drive ([`SsdConfig::stream_read_ps`],
//! [`SsdConfig::scattered_read_ps`]); `vrex_system`'s end-to-end model
//! prices the active and idle powers.

use crate::time::transfer_ps;
use crate::CONTIGUOUS_CHUNK_BYTES;

/// Static SSD configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SsdConfig {
    /// Human-readable name.
    pub name: &'static str,
    /// Flash channels.
    pub channels: usize,
    /// Dies per channel.
    pub dies_per_channel: usize,
    /// Flash page size in bytes.
    pub page_bytes: u64,
    /// Flash-array page read time (ps).
    pub page_read_ps: u64,
    /// Per-channel transfer bandwidth (bytes/s).
    pub channel_bytes_per_s: f64,
    /// Usable drive capacity (bytes) — the spill budget the tiered
    /// serving path may fill with cold KV.
    pub capacity_bytes: u64,
    /// Active power (W) while serving I/O.
    pub active_w: f64,
    /// Idle power (W).
    pub idle_w: f64,
}

impl SsdConfig {
    /// Kioxia BG6-class M.2 NVMe (PCIe 4.0 ×4 device; behind the AGX's
    /// PCIe 3.0 ×4 the link, not the drive, limits at ~3.5 GB/s).
    pub fn bg6_class() -> Self {
        Self {
            name: "BG6-class NVMe",
            channels: 4,
            dies_per_channel: 4,
            page_bytes: 16 * 1024,
            page_read_ps: 50_000_000, // 50 µs tR
            channel_bytes_per_s: 1.2e9,
            capacity_bytes: 512u64 << 30,
            active_w: 4.1,
            idle_w: 0.3,
        }
    }

    /// Peak sequential read bandwidth (bytes/s), channel-transfer
    /// limited.
    pub fn peak_bytes_per_s(&self) -> f64 {
        self.channel_bytes_per_s * self.channels as f64
    }

    /// Duration (ps) of reading `pages` flash pages striped round-robin
    /// over all channels and dies. Die reads pipeline with channel
    /// transfers, so the read is bounded by the slower of the flash
    /// array (each die reads its share of pages serially) and the
    /// channels (each moves its share of the bytes), plus one
    /// page-read latency to fill the pipeline.
    fn pages_read_ps(&self, pages: u64) -> u64 {
        let n_dies = (self.channels * self.dies_per_channel) as u64;
        let array_ps = pages.div_ceil(n_dies) * self.page_read_ps;
        let pages_per_channel = pages.div_ceil(self.channels as u64);
        let transfer = transfer_ps(
            pages_per_channel * self.page_bytes,
            self.channel_bytes_per_s,
        );
        array_ps.max(transfer) + self.page_read_ps
    }

    /// Duration (ps) of a contiguous read of `bytes` on an otherwise
    /// idle drive. Allocation-free: tier-migration and fetch pricing
    /// call this per batch member.
    pub fn stream_read_ps(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        self.pages_read_ps(bytes.div_ceil(self.page_bytes))
    }

    /// Duration (ps) of `n_requests` scattered reads of `bytes_each`
    /// on an otherwise idle drive. Each request touches distinct
    /// random pages: a request smaller than a page still occupies a
    /// die for a full page read and the channel for a full page
    /// transfer, and requests queue across dies (multi-queue
    /// parallelism).
    pub fn scattered_read_ps(&self, n_requests: u64, bytes_each: u64) -> u64 {
        if n_requests == 0 || bytes_each == 0 {
            return 0;
        }
        self.pages_read_ps(n_requests * bytes_each.div_ceil(self.page_bytes))
    }

    /// Duration (ps) of reading `bytes` in DMA chunks of `chunk_bytes`:
    /// one contiguous stream from [`CONTIGUOUS_CHUNK_BYTES`] up, one
    /// scattered request per chunk below it.
    pub fn read_ps(&self, bytes: u64, chunk_bytes: u64) -> u64 {
        if chunk_bytes >= CONTIGUOUS_CHUNK_BYTES {
            self.stream_read_ps(bytes)
        } else {
            self.scattered_read_ps(bytes.div_ceil(chunk_bytes), chunk_bytes)
        }
    }
}

/// Forwards to [`SsdConfig::scattered_read_ps`]; kept because `benchmark/` is frozen; deleted by ROADMAP S1a.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct Ssd(SsdConfig);

impl Ssd {
    /// Wraps `cfg`.
    pub fn new(cfg: SsdConfig) -> Self {
        Self(cfg)
    }

    /// [`SsdConfig::scattered_read_ps`].
    pub fn read_scattered(&mut self, n_requests: u64, bytes_each: u64) -> u64 {
        self.0.scattered_read_ps(n_requests, bytes_each)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_ps_streams_from_the_contiguity_threshold_up() {
        // Oracle: the page arithmetic written out by hand.
        let cfg = SsdConfig::bg6_class();
        let pages_ps = |pages: u64| {
            let per_die = pages.div_ceil((cfg.channels * cfg.dies_per_channel) as u64);
            let per_channel = pages.div_ceil(cfg.channels as u64);
            let transfer = transfer_ps(per_channel * cfg.page_bytes, cfg.channel_bytes_per_s);
            (per_die * cfg.page_read_ps).max(transfer) + cfg.page_read_ps
        };
        let boundary = CONTIGUOUS_CHUNK_BYTES;
        assert_eq!(boundary, 65_536);
        for bytes in [1u64, 40_960, boundary, (1 << 20) + 7, 1 << 30] {
            for chunk in [boundary, boundary + 1, 256 << 10] {
                let contiguous = pages_ps(bytes.div_ceil(cfg.page_bytes));
                assert_eq!(cfg.read_ps(bytes, chunk), contiguous, "{bytes}B / {chunk}");
            }
            for chunk in [512u64, 4096, 40_960, boundary - 1] {
                let scattered = pages_ps(bytes.div_ceil(chunk) * chunk.div_ceil(cfg.page_bytes));
                assert_eq!(cfg.read_ps(bytes, chunk), scattered, "{bytes}B / {chunk}");
            }
        }
        assert_eq!(cfg.read_ps(0, 4096), 0);
        assert_eq!(cfg.read_ps(0, boundary), 0);
    }

    #[test]
    fn large_contiguous_read_achieves_near_peak() {
        let cfg = SsdConfig::bg6_class();
        let bytes = 1u64 << 30;
        let t = cfg.stream_read_ps(bytes);
        let bw = bytes as f64 / (t as f64 / 1e12);
        assert!(
            bw > 0.6 * cfg.peak_bytes_per_s(),
            "sequential bw {bw:.2e} too far below peak"
        );
    }

    #[test]
    fn scattered_small_reads_waste_bandwidth() {
        let cfg = SsdConfig::bg6_class();
        let useful = 4u64 << 20;
        let t_seq = cfg.stream_read_ps(useful);
        // 512-byte scattered requests: 1/32 page efficiency.
        let t_scat = cfg.scattered_read_ps(useful / 512, 512);
        assert!(
            t_scat > 10 * t_seq,
            "scattered {t_scat} should be far slower than contiguous {t_seq}"
        );
    }

    #[test]
    fn zero_reads_are_free() {
        let cfg = SsdConfig::bg6_class();
        assert_eq!(cfg.stream_read_ps(0), 0);
        assert_eq!(cfg.scattered_read_ps(0, 4096), 0);
    }

    #[test]
    fn scattered_zero_request_count_and_zero_bytes_are_free() {
        let cfg = SsdConfig::bg6_class();
        assert_eq!(cfg.scattered_read_ps(0, 4096), 0);
        assert_eq!(cfg.scattered_read_ps(16, 0), 0);
    }

    #[test]
    fn scattered_single_request_pays_one_page_read_plus_transfer() {
        // One sub-page request: 1 page on 1 die (array = 1·tR), 1 page
        // over 1 channel, plus the pipeline-fill tR.
        let cfg = SsdConfig::bg6_class();
        let t = cfg.scattered_read_ps(1, 512);
        let transfer = transfer_ps(cfg.page_bytes, cfg.channel_bytes_per_s);
        assert_eq!(t, cfg.page_read_ps.max(transfer) + cfg.page_read_ps);
    }

    #[test]
    fn scattered_request_larger_than_a_page_spans_pages() {
        // A request of 2.5 pages rounds up to 3 pages; 16 requests of
        // 3 pages spread 48 pages over 16 dies → 3 serial tRs.
        let cfg = SsdConfig::bg6_class();
        let bytes_each = cfg.page_bytes * 5 / 2;
        let t = cfg.scattered_read_ps(16, bytes_each);
        let pages_per_channel = 48u64.div_ceil(cfg.channels as u64);
        let transfer = transfer_ps(pages_per_channel * cfg.page_bytes, cfg.channel_bytes_per_s);
        assert_eq!(t, (3 * cfg.page_read_ps).max(transfer) + cfg.page_read_ps);
    }

    #[test]
    fn small_read_pays_page_latency() {
        let cfg = SsdConfig::bg6_class();
        let t = cfg.stream_read_ps(512);
        assert!(t >= cfg.page_read_ps, "must pay at least one tR");
    }
}
