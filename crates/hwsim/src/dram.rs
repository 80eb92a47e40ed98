//! DRAM timing model (DRAMSim3 substitute), in closed form per
//! configuration.
//!
//! A read is split into bursts and consecutive rows interleave across
//! channels. On each channel, data transfer serialises on the bus while
//! row activations pipeline across banks at `tRRD`, so a channel is
//! bound by the larger of the two; the slowest channel bounds the read,
//! plus one row-miss latency (`tRP + tRCD + tCL`) to fill the pipeline.
//! Streaming reads therefore approach the configured peak bandwidth
//! while scattered requests, each opening cold rows, degrade — the two
//! regimes the paper's evaluation exercises (weight streaming vs.
//! scattered KV gathers).
//!
//! Presets follow the paper's Table I platforms: LPDDR5 (204.8 GB/s,
//! 256-bit), HBM2e (1935 GB/s, 5120-bit), and DDR4 CPU memory behind
//! the server PCIe link. Energy per bit comes from the vendor reports
//! the paper cites; `vrex_system`'s end-to-end model prices it.

use crate::time::transfer_ps;
use crate::CONTIGUOUS_CHUNK_BYTES;

/// Static DRAM configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Human-readable name.
    pub name: &'static str,
    /// Independent channels.
    pub channels: usize,
    /// Row-buffer (page) size per bank in bytes.
    pub row_bytes: u64,
    /// Peak per-channel bandwidth in bytes/s.
    pub channel_bytes_per_s: f64,
    /// Row-precharge + activate + CAS latency on a row miss (ps).
    pub row_miss_ps: u64,
    /// Minimum interval between row activations on one channel (tRRD,
    /// ps) — bank-level parallelism lets activations pipeline at this
    /// rate rather than serialising full row-miss latencies.
    pub act_interval_ps: u64,
    /// Access granularity (burst) in bytes.
    pub burst_bytes: u64,
    /// Access energy in picojoules per bit (read).
    pub pj_per_bit: f64,
    /// Background (static + refresh) power in watts.
    pub background_w: f64,
}

impl DramConfig {
    /// LPDDR5, 256-bit bus, 204.8 GB/s — the AGX Orin / V-Rex8 memory.
    pub fn lpddr5_204gb() -> Self {
        Self {
            name: "LPDDR5-204.8GB/s",
            channels: 8,
            row_bytes: 2048,
            channel_bytes_per_s: 204.8e9 / 8.0,
            row_miss_ps: 45_000,
            act_interval_ps: 7_500,
            burst_bytes: 64,
            pj_per_bit: 4.0,
            background_w: 0.5,
        }
    }

    /// HBM2e, 5120-bit bus, 1935 GB/s — the A100 / V-Rex48 memory.
    pub fn hbm2e_1935gb() -> Self {
        Self {
            name: "HBM2e-1935GB/s",
            channels: 40,
            row_bytes: 1024,
            channel_bytes_per_s: 1935.0e9 / 40.0,
            row_miss_ps: 40_000,
            act_interval_ps: 5_000,
            burst_bytes: 64,
            pj_per_bit: 3.9,
            background_w: 4.0,
        }
    }

    /// DDR4 CPU memory (server offload target behind PCIe 4.0 ×16).
    pub fn ddr4_cpu() -> Self {
        Self {
            name: "DDR4-CPU",
            channels: 4,
            row_bytes: 8192,
            channel_bytes_per_s: 25.6e9,
            row_miss_ps: 60_000,
            act_interval_ps: 6_000,
            burst_bytes: 64,
            pj_per_bit: 15.0,
            background_w: 2.0,
        }
    }

    /// Aggregate peak bandwidth (bytes/s).
    pub fn peak_bytes_per_s(&self) -> f64 {
        self.channel_bytes_per_s * self.channels as f64
    }

    /// Duration (ps) of reading `n_bursts ≥ 1` bursts from address 0
    /// with every row closed (requires `row_bytes % burst_bytes == 0`).
    ///
    /// Global row `r` lands on channel `r % channels`, and every row
    /// but the last holds exactly `row_bytes / burst` bursts (the burst
    /// grid divides the row). Per channel, data transfer serialises on
    /// the bus while each row's activation proceeds on *another bank*
    /// in parallel and only bounds the channel when activation work
    /// exceeds transfer work (bank-level parallelism pipelines them);
    /// the slowest channel bounds the read, plus one activation latency
    /// to fill the pipeline.
    fn access_ps(&self, n_bursts: u64) -> u64 {
        let channels = self.channels as u64;
        let bursts_per_row = self.row_bytes / self.burst_bytes;
        let r_last = (n_bursts - 1) * self.burst_bytes / self.row_bytes;
        let n_rows = r_last + 1;
        let k_last = n_bursts - r_last * bursts_per_row;
        let burst_transfer = transfer_ps(self.burst_bytes, self.channel_bytes_per_s);
        let mut per_channel_max = 0u64;
        for ch in 0..channels {
            let rows = n_rows / channels + u64::from(n_rows % channels > ch);
            let mut transfer_bursts = rows * bursts_per_row;
            if ch == r_last % channels {
                transfer_bursts -= bursts_per_row - k_last;
            }
            let t = transfer_bursts * burst_transfer;
            let a = rows * self.act_interval_ps;
            per_channel_max = per_channel_max.max(t.max(a));
        }
        per_channel_max + self.row_miss_ps
    }

    /// [`DramConfig::access_ps`] walked burst by burst, for any row
    /// geometry: a burst lands on the row holding its first byte, and
    /// the first burst of each row activates it. This prices the rows
    /// the burst grid does not divide and is the closed form's test
    /// oracle.
    fn walk_ps(&self, n_bursts: u64) -> u64 {
        let channels = self.channels as u64;
        let burst_transfer = transfer_ps(self.burst_bytes, self.channel_bytes_per_s);
        // (transfer, activation) time per channel.
        let mut busy = vec![(0u64, 0u64); self.channels];
        let mut open_row = u64::MAX;
        for i in 0..n_bursts {
            let row = i * self.burst_bytes / self.row_bytes;
            let (transfer, activate) = &mut busy[(row % channels) as usize];
            if row != open_row {
                open_row = row;
                *activate += self.act_interval_ps;
            }
            *transfer += burst_transfer;
        }
        let per_channel_max = busy.iter().map(|&(t, a)| t.max(a)).max().unwrap_or(0);
        per_channel_max + self.row_miss_ps
    }

    /// Duration (ps) of streaming `bytes` from address 0 on a fresh
    /// device (all rows closed), in O(channels) arithmetic.
    ///
    /// Fetch pricing and tier-migration pricing read from a device no
    /// earlier access has touched, so no row can be open. It is the hot
    /// leaf of the serving scheduler's step pricing; the
    /// `stream_read_matches_the_burst_walk` oracle test pins it to the
    /// per-burst walk.
    pub fn stream_read_ps(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let n_bursts = bytes.div_ceil(self.burst_bytes);
        if self.row_bytes % self.burst_bytes == 0 {
            self.access_ps(n_bursts)
        } else {
            self.walk_ps(n_bursts)
        }
    }

    /// Duration (ps) of `n` independent reads of `bytes_each` at random
    /// (cold-row) addresses.
    ///
    /// Closed form, O(1) in `n`: every request's rows spread
    /// round-robin over the channels, and the request is bounded by its
    /// busiest channel — full rows of transfer vs. pipelined
    /// activations — plus the pipeline-fill row miss. This prices a
    /// token-scattered KV gather (the InfiniGen/ReKV fetch pattern)
    /// without walking hundreds of thousands of simulated requests.
    pub fn scattered_read_ps(&self, n: u64, bytes_each: u64) -> u64 {
        if n == 0 || bytes_each == 0 {
            return 0;
        }
        let b = self.burst_bytes;
        // A request lands unaligned on cold rows, so its bursts span
        // `1 + ceil((bursts − 1)·burst / row)` consecutive rows.
        let bursts = bytes_each.div_ceil(b);
        let rows = 1 + ((bursts - 1) * b).div_ceil(self.row_bytes);
        let rows_per_channel = rows.div_ceil(self.channels as u64);
        let burst_transfer = transfer_ps(b, self.channel_bytes_per_s);
        let transfer =
            bursts.min(rows_per_channel * (self.row_bytes / b.max(1)).max(1)) * burst_transfer;
        let activate = rows_per_channel * self.act_interval_ps;
        n * (transfer.max(activate) + self.row_miss_ps)
    }

    /// Duration (ps) of reading `bytes` in DMA chunks of `chunk_bytes`
    /// from a fresh device: one contiguous stream from
    /// [`CONTIGUOUS_CHUNK_BYTES`] up, one scattered request per chunk
    /// below it.
    pub fn read_ps(&self, bytes: u64, chunk_bytes: u64) -> u64 {
        if chunk_bytes >= CONTIGUOUS_CHUNK_BYTES {
            self.stream_read_ps(bytes)
        } else {
            self.scattered_read_ps(bytes.div_ceil(chunk_bytes), chunk_bytes)
        }
    }
}

/// Forwards to [`DramConfig::stream_read_ps`]; kept because `benchmark/` is frozen; deleted by ROADMAP S1a.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct Dram(DramConfig);

impl Dram {
    /// Wraps `cfg`.
    pub fn new(cfg: DramConfig) -> Self {
        Self(cfg)
    }

    /// [`DramConfig::stream_read_ps`].
    pub fn stream_read(&mut self, bytes: u64) -> u64 {
        self.0.stream_read_ps(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::ps_to_seconds;

    #[test]
    fn streaming_approaches_peak_bandwidth() {
        for cfg in [DramConfig::lpddr5_204gb(), DramConfig::hbm2e_1935gb()] {
            let bytes = 64u64 << 20;
            let bw = bytes as f64 / ps_to_seconds(cfg.stream_read_ps(bytes));
            let peak = cfg.peak_bytes_per_s();
            assert!(
                bw > 0.8 * peak,
                "{}: streaming {bw:.2e} below 80% of peak {peak:.2e}",
                cfg.name
            );
            assert!(bw <= peak * 1.01, "{}: exceeded peak", cfg.name);
        }
    }

    #[test]
    fn stream_read_matches_the_burst_walk() {
        // The closed form must be bit-identical to the per-burst walk
        // in every size class: sub-burst, exact burst, row straggler,
        // one full channel cycle, sixteen channel cycles, and bulk
        // multi-GiB moves (the tier-restore regime).
        for cfg in [
            DramConfig::lpddr5_204gb(),
            DramConfig::hbm2e_1935gb(),
            DramConfig::ddr4_cpu(),
        ] {
            let cycle = cfg.row_bytes * cfg.channels as u64;
            let sizes = [
                1,
                cfg.burst_bytes - 1,
                cfg.burst_bytes,
                cfg.burst_bytes + 1,
                cfg.row_bytes - 1,
                cfg.row_bytes,
                cfg.row_bytes + 1,
                cycle,
                cycle + 100,
                cycle * 16 + 1,
                (1 << 20) + 12_345,
                1 << 28,
                (2u64 << 30) + 7,
            ];
            for bytes in sizes {
                assert_eq!(
                    cfg.stream_read_ps(bytes),
                    cfg.walk_ps(bytes.div_ceil(cfg.burst_bytes)),
                    "{}: stream_read_ps({bytes}) diverged",
                    cfg.name
                );
            }
        }
    }

    proptest::proptest! {
        /// Randomised oracle: on any geometry whose burst grid divides
        /// the row, the closed form equals the per-burst walk.
        #[test]
        fn stream_read_matches_the_burst_walk_on_random_geometries(
            channels in 1usize..65,
            bursts_per_row in 1u64..129,
            burst_bytes in 1u64..257,
            bytes in 1u64..1 << 18,
        ) {
            let cfg = DramConfig {
                channels,
                row_bytes: bursts_per_row * burst_bytes,
                burst_bytes,
                ..DramConfig::lpddr5_204gb()
            };
            proptest::prop_assert_eq!(
                cfg.stream_read_ps(bytes),
                cfg.walk_ps(bytes.div_ceil(burst_bytes)),
                "{:?}, {} bytes",
                cfg,
                bytes
            );
        }
    }

    #[test]
    fn read_ps_streams_from_the_contiguity_threshold_up() {
        // Oracle: what fetch pricing computed before `read_ps` — a
        // stream at or above 64 KiB chunks, and below it the
        // scattered-request arithmetic written out by hand.
        let boundary = CONTIGUOUS_CHUNK_BYTES;
        for cfg in [
            DramConfig::lpddr5_204gb(),
            DramConfig::hbm2e_1935gb(),
            DramConfig::ddr4_cpu(),
        ] {
            let scattered = |n: u64, each: u64| {
                let b = cfg.burst_bytes;
                let bursts = each.div_ceil(b);
                let rows = 1 + ((bursts - 1) * b).div_ceil(cfg.row_bytes);
                let rows_per_channel = rows.div_ceil(cfg.channels as u64);
                let transfer = bursts.min(rows_per_channel * (cfg.row_bytes / b))
                    * transfer_ps(b, cfg.channel_bytes_per_s);
                let activate = rows_per_channel * cfg.act_interval_ps;
                n * (transfer.max(activate) + cfg.row_miss_ps)
            };
            for bytes in [1u64, 40_960, boundary, (1 << 20) + 7, 1 << 30] {
                for chunk in [boundary, boundary + 1, 256 << 10] {
                    assert_eq!(
                        cfg.read_ps(bytes, chunk),
                        cfg.stream_read_ps(bytes),
                        "{}: {bytes}B / {chunk}",
                        cfg.name
                    );
                }
                for chunk in [64u64, 4096, 40_960, boundary - 1] {
                    assert_eq!(
                        cfg.read_ps(bytes, chunk),
                        scattered(bytes.div_ceil(chunk), chunk),
                        "{}: {bytes}B / {chunk}",
                        cfg.name
                    );
                }
            }
            assert_eq!(cfg.read_ps(0, 4096), 0);
            assert_eq!(cfg.scattered_read_ps(16, 0), 0);
        }
    }

    #[test]
    fn stream_read_of_zero_bytes_is_free() {
        assert_eq!(DramConfig::ddr4_cpu().stream_read_ps(0), 0);
    }

    #[test]
    fn scattered_reads_are_slower_than_streaming() {
        let cfg = DramConfig::lpddr5_204gb();
        let bytes = 4u64 << 20;
        let t_stream = cfg.stream_read_ps(bytes);
        let t_scatter = cfg.scattered_read_ps(bytes / 256, 256);
        assert!(
            t_scatter > 2 * t_stream,
            "scatter {t_scatter} not clearly slower than stream {t_stream}"
        );
    }

    #[test]
    fn hbm_is_faster_than_lpddr() {
        let bytes = 16u64 << 20;
        let t_lp = DramConfig::lpddr5_204gb().stream_read_ps(bytes);
        let t_hbm = DramConfig::hbm2e_1935gb().stream_read_ps(bytes);
        assert!(t_hbm * 5 < t_lp, "HBM2e should be ~9.4x faster");
    }
}
