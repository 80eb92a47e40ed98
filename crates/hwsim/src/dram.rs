//! DRAM timing and energy model (DRAMSim3 substitute).
//!
//! Models channels × banks with open-row state: a request is split into
//! bursts, bursts are interleaved across channels, and each access pays
//! row-activation latency on a row miss (`tRP + tRCD + tCL`) or just
//! CAS latency on a row hit. Streaming reads therefore approach the
//! configured peak bandwidth while random accesses degrade — the two
//! regimes the paper's evaluation exercises (weight streaming vs.
//! scattered KV gathers).
//!
//! Presets follow the paper's Table I platforms: LPDDR5 (204.8 GB/s,
//! 256-bit), HBM2e (1935 GB/s, 5120-bit), and DDR4 CPU memory behind
//! the server PCIe link. Energy per bit comes from the vendor reports
//! the paper cites.

use crate::time::{ps_to_seconds, transfer_ps};
use crate::CONTIGUOUS_CHUNK_BYTES;

/// Static DRAM configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Human-readable name.
    pub name: &'static str,
    /// Independent channels.
    pub channels: usize,
    /// Banks per channel.
    pub banks_per_channel: usize,
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
    /// CAS-only latency on a row hit (ps).
    pub row_hit_ps: u64,
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
            banks_per_channel: 16,
            row_bytes: 2048,
            channel_bytes_per_s: 204.8e9 / 8.0,
            row_miss_ps: 45_000,
            act_interval_ps: 7_500,
            row_hit_ps: 15_000,
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
            banks_per_channel: 16,
            row_bytes: 1024,
            channel_bytes_per_s: 1935.0e9 / 40.0,
            row_miss_ps: 40_000,
            act_interval_ps: 5_000,
            row_hit_ps: 14_000,
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
            banks_per_channel: 16,
            row_bytes: 8192,
            channel_bytes_per_s: 25.6e9,
            row_miss_ps: 60_000,
            act_interval_ps: 6_000,
            row_hit_ps: 20_000,
            burst_bytes: 64,
            pj_per_bit: 15.0,
            background_w: 2.0,
        }
    }

    /// Aggregate peak bandwidth (bytes/s).
    pub fn peak_bytes_per_s(&self) -> f64 {
        self.channel_bytes_per_s * self.channels as f64
    }

    /// First and last global row ids touched by `n_bursts` bursts from
    /// `addr`: consecutive row ids, cycling channels as
    /// `row % channels`.
    fn row_span(&self, addr: u64, n_bursts: u64) -> (u64, u64) {
        let last_burst = addr + (n_bursts - 1) * self.burst_bytes;
        (addr / self.row_bytes, last_burst / self.row_bytes)
    }

    /// Duration (ps) of reading `n_bursts` bursts from `addr` when
    /// `hits(ch)` of the rows landing on channel `ch` are already open
    /// (requires `row_bytes % burst_bytes == 0`).
    ///
    /// Middle rows hold exactly `row_bytes / burst` bursts (the burst
    /// grid divides the row); only the first and last rows are partial.
    /// Per channel, data transfer serialises on the bus while row
    /// activations proceed on *other banks* in parallel and only bound
    /// the channel when activation work exceeds transfer work
    /// (bank-level parallelism pipelines them); the slowest channel
    /// bounds the access, plus one activation latency to fill the
    /// pipeline.
    fn access_ps(&self, addr: u64, n_bursts: u64, hits: impl Fn(usize) -> u64) -> u64 {
        let channels = self.channels as u64;
        let bursts_per_row = self.row_bytes / self.burst_bytes;
        let (r_first, r_last) = self.row_span(addr, n_bursts);
        let n_rows = r_last - r_first + 1;
        let k_first = ((r_first + 1) * self.row_bytes - addr)
            .div_ceil(self.burst_bytes)
            .min(n_bursts);
        let burst_transfer = transfer_ps(self.burst_bytes, self.channel_bytes_per_s);
        let mut per_channel_max = 0u64;
        for ch in 0..channels {
            let rows = count_congruent(r_first, r_last, channels, ch);
            let mut transfer_bursts = rows * bursts_per_row;
            if ch == r_first % channels {
                transfer_bursts -= bursts_per_row - k_first;
            }
            if n_rows >= 2 && ch == r_last % channels {
                let k_last = n_bursts - k_first - (n_rows - 2) * bursts_per_row;
                transfer_bursts -= bursts_per_row - k_last;
            }
            let t = transfer_bursts * burst_transfer;
            let a = (rows - hits(ch as usize)) * self.act_interval_ps;
            per_channel_max = per_channel_max.max(t.max(a));
        }
        per_channel_max + self.row_miss_ps
    }

    /// Duration (ps) of streaming `bytes` from address 0 on a *fresh*
    /// device (all rows closed) — exactly what
    /// `Dram::new(cfg).access(0, bytes)` returns, but in O(channels)
    /// arithmetic with no allocation or open-row bookkeeping.
    ///
    /// Fetch pricing and tier-migration pricing read from a device no
    /// earlier access has touched, so no row can be open. It is the hot
    /// leaf of the serving scheduler's step pricing; the
    /// `stream_read_matches_fresh_access` oracle test pins the
    /// equivalence over the preset configurations.
    pub fn stream_read_ps(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        if self.row_bytes % self.burst_bytes != 0 {
            // Exotic geometry: defer to the reference walk.
            return Dram::new(self.clone()).access(0, bytes);
        }
        self.access_ps(0, bytes.div_ceil(self.burst_bytes), |_| 0)
    }

    /// `(bursts, rows)` one scattered request of `bytes_each` touches:
    /// it lands unaligned on cold rows, so it spans
    /// `1 + ceil((bursts − 1)·burst / row)` consecutive rows.
    fn scattered_shape(&self, bytes_each: u64) -> (u64, u64) {
        let bursts = bytes_each.div_ceil(self.burst_bytes);
        let rows = 1 + ((bursts - 1) * self.burst_bytes).div_ceil(self.row_bytes);
        (bursts, rows)
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
        let (bursts, rows) = self.scattered_shape(bytes_each);
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

/// Stateful DRAM model (open-row tracking per bank).
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    /// Open row id per (channel, bank); `u64::MAX` = closed.
    open_rows: Vec<u64>,
    /// Total bytes read/written (for energy accounting).
    bytes_accessed: u64,
    row_hits: u64,
    row_misses: u64,
}

impl Dram {
    /// Creates a DRAM with all rows closed.
    pub fn new(cfg: DramConfig) -> Self {
        let n = cfg.channels * cfg.banks_per_channel;
        Self {
            cfg,
            open_rows: vec![u64::MAX; n],
            bytes_accessed: 0,
            row_hits: 0,
            row_misses: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Row hits observed so far.
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Row misses observed so far.
    pub fn row_misses(&self) -> u64 {
        self.row_misses
    }

    /// Simulates reading `bytes` starting at `addr`; returns the
    /// duration in picoseconds. Bursts interleave across channels, so
    /// the reported duration is the per-channel maximum.
    ///
    /// Evaluated in closed form — O(channels × banks) instead of one
    /// iteration per burst — which is what keeps gigabyte-scale fetch
    /// pricing (a 1 GiB FlexGen refetch is ~16M bursts) out of the
    /// serving scheduler's hot loop. The closed form is arithmetic-
    /// identical to the per-burst walk (see the `reference_access`
    /// regression test); configurations whose row size is not a
    /// multiple of the burst size fall back to the walk.
    pub fn access(&mut self, addr: u64, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        if self.cfg.row_bytes % self.cfg.burst_bytes != 0 {
            return self.access_per_burst(addr, bytes);
        }
        self.bytes_accessed += bytes;
        let slots = (self.cfg.channels * self.cfg.banks_per_channel) as u64;
        let n_bursts = bytes.div_ceil(self.cfg.burst_bytes);
        let (r_first, r_last) = self.cfg.row_span(addr, n_bursts);
        let n_rows = r_last - r_first + 1;

        // Row hits can only happen on the first visit to each
        // (channel, bank) slot — consecutive row ids revisit a slot
        // only every `slots` rows, with a strictly larger row value.
        let mut hits_in_channel = vec![0u64; self.cfg.channels];
        let mut hits = 0u64;
        for r in r_first..=r_last.min(r_first + slots - 1) {
            let (slot, channel, row) = self.map_row(r);
            if self.open_rows[slot] == row {
                hits += 1;
                hits_in_channel[channel] += 1;
            }
        }
        // Within a row, every burst after the first hits the row the
        // first burst opened; cross-call hits add the pre-open rows.
        self.row_hits += hits + (n_bursts - n_rows);
        self.row_misses += n_rows - hits;
        // After the access each visited slot holds the last row that
        // touched it: the final `min(n_rows, slots)` rows, which cover
        // each visited slot exactly once.
        let update_start = if n_rows >= slots {
            r_last + 1 - slots
        } else {
            r_first
        };
        for r in update_start..=r_last {
            let (slot, _, row) = self.map_row(r);
            self.open_rows[slot] = row;
        }
        self.cfg.access_ps(addr, n_bursts, |ch| hits_in_channel[ch])
    }

    /// `(slot, channel, in-bank row)` of a global row id.
    fn map_row(&self, row_global: u64) -> (usize, usize, u64) {
        let channels = self.cfg.channels as u64;
        let banks = self.cfg.banks_per_channel as u64;
        let channel = (row_global % channels) as usize;
        let bank = ((row_global / channels) % banks) as usize;
        (
            channel * self.cfg.banks_per_channel + bank,
            channel,
            row_global / (channels * banks),
        )
    }

    /// Reference per-burst walk of [`Dram::access`] — kept for exotic
    /// configurations (row size not a burst multiple) and as the
    /// regression oracle for the closed form.
    fn access_per_burst(&mut self, addr: u64, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        self.bytes_accessed += bytes;
        let n_bursts = bytes.div_ceil(self.cfg.burst_bytes);
        let mut transfer_time = vec![0u64; self.cfg.channels];
        let mut activate_time = vec![0u64; self.cfg.channels];
        let burst_transfer = transfer_ps(self.cfg.burst_bytes, self.cfg.channel_bytes_per_s);
        for i in 0..n_bursts {
            let burst_addr = addr + i * self.cfg.burst_bytes;
            let row_global = burst_addr / self.cfg.row_bytes;
            let (slot, channel, row) = self.map_row(row_global);
            if self.open_rows[slot] == row {
                self.row_hits += 1;
            } else {
                self.row_misses += 1;
                self.open_rows[slot] = row;
                activate_time[channel] += self.cfg.act_interval_ps;
            }
            transfer_time[channel] += burst_transfer;
        }
        let per_channel = transfer_time
            .iter()
            .zip(&activate_time)
            .map(|(&t, &a)| t.max(a))
            .max()
            .unwrap_or(0);
        per_channel + self.cfg.row_miss_ps
    }

    /// Convenience: a fully sequential streaming read of `bytes`,
    /// starting at a fresh region.
    pub fn stream_read(&mut self, bytes: u64) -> u64 {
        // Start each stream at a distinct region so rows are cold once.
        let base = self.bytes_accessed.wrapping_mul(7919) % (1 << 40);
        self.access(base, bytes)
    }

    /// Energy (joules) for the bytes accessed so far plus background
    /// power over `busy_seconds`.
    pub fn energy_joules(&self, busy_seconds: f64) -> f64 {
        self.bytes_accessed as f64 * 8.0 * self.cfg.pj_per_bit * 1e-12
            + self.cfg.background_w * busy_seconds
    }

    /// Effective bandwidth achieved by a hypothetical streaming read of
    /// `bytes` (fresh model), bytes/s.
    pub fn streaming_bandwidth(cfg: &DramConfig, bytes: u64) -> f64 {
        bytes as f64 / ps_to_seconds(cfg.stream_read_ps(bytes))
    }

    /// [`DramConfig::scattered_read_ps`], counted toward this device's
    /// bytes, row hits and row misses.
    pub fn scattered_read(&mut self, n: u64, bytes_each: u64) -> u64 {
        if n == 0 || bytes_each == 0 {
            return 0;
        }
        self.bytes_accessed += n * bytes_each;
        let (bursts, rows) = self.cfg.scattered_shape(bytes_each);
        self.row_misses += n * rows;
        self.row_hits += n * bursts.saturating_sub(rows);
        // A scattered sweep trashes the row buffers: whatever was open
        // before is gone afterwards (the per-request walk this replaces
        // evicted rows as its random addresses landed).
        self.open_rows.fill(u64::MAX);
        self.cfg.scattered_read_ps(n, bytes_each)
    }
}

/// Rows `r` in `[lo, hi]` with `r % modulus == rem`.
fn count_congruent(lo: u64, hi: u64, modulus: u64, rem: u64) -> u64 {
    // Count in [0, n) with the residue, then difference.
    let below = |n: u64| n / modulus + u64::from(n % modulus > rem);
    below(hi + 1) - below(lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_approaches_peak_bandwidth() {
        for cfg in [DramConfig::lpddr5_204gb(), DramConfig::hbm2e_1935gb()] {
            let bw = Dram::streaming_bandwidth(&cfg, 64 << 20);
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
    fn stream_read_matches_fresh_access() {
        // The allocation-free fast path must be bit-identical to a
        // fresh stateful device streaming from address 0 — every size
        // class: sub-burst, exact burst, row straggler, one full
        // channel cycle, a full slot cycle, and bulk multi-GiB moves
        // (the tier-restore regime).
        for cfg in [
            DramConfig::lpddr5_204gb(),
            DramConfig::hbm2e_1935gb(),
            DramConfig::ddr4_cpu(),
        ] {
            let slots = cfg.channels as u64 * cfg.banks_per_channel as u64;
            let sizes = [
                1,
                cfg.burst_bytes - 1,
                cfg.burst_bytes,
                cfg.burst_bytes + 1,
                cfg.row_bytes - 1,
                cfg.row_bytes,
                cfg.row_bytes + 1,
                cfg.row_bytes * cfg.channels as u64,
                cfg.row_bytes * cfg.channels as u64 + 100,
                cfg.row_bytes * slots + 1,
                (1 << 20) + 12_345,
                1 << 28,
                (2u64 << 30) + 7,
            ];
            for bytes in sizes {
                assert_eq!(
                    cfg.stream_read_ps(bytes),
                    Dram::new(cfg.clone()).access(0, bytes),
                    "{}: stream_read_ps({bytes}) diverged",
                    cfg.name
                );
            }
        }
    }

    #[test]
    fn read_ps_streams_from_the_contiguity_threshold_up() {
        // Oracle: what fetch pricing computed before `read_ps` — a
        // fresh stateful device's stream at or above 64 KiB chunks, and
        // below it the arithmetic as `Dram::scattered_read` wrote it
        // out before it delegated.
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
                        Dram::new(cfg.clone()).access(0, bytes),
                        "{}: {bytes}B / {chunk}",
                        cfg.name
                    );
                }
                for chunk in [64u64, 4096, 40_960, boundary - 1] {
                    let expected = scattered(bytes.div_ceil(chunk), chunk);
                    assert_eq!(
                        cfg.read_ps(bytes, chunk),
                        expected,
                        "{}: {bytes}B / {chunk}",
                        cfg.name
                    );
                    // The stateful wrapper only adds accounting.
                    let mut d = Dram::new(cfg.clone());
                    assert_eq!(d.scattered_read(bytes.div_ceil(chunk), chunk), expected);
                    assert_eq!(d.bytes_accessed, bytes.div_ceil(chunk) * chunk);
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
    fn closed_form_access_matches_per_burst_reference() {
        // The closed form must be arithmetic-identical to the burst
        // walk: same duration, same hit/miss counters, same open-row
        // state — including stateful back-to-back sequences that remix
        // hot rows.
        for cfg in [
            DramConfig::lpddr5_204gb(),
            DramConfig::hbm2e_1935gb(),
            DramConfig::ddr4_cpu(),
        ] {
            let mut fast = Dram::new(cfg.clone());
            let mut reference = Dram::new(cfg.clone());
            // Misaligned addresses, sub-burst sizes, row-boundary
            // stragglers, multi-row and multi-slot-cycle transfers,
            // plus exact repeats (row hits on the first slot visit).
            let sequence: [(u64, u64); 10] = [
                (0, 64),
                (0, 64),
                (1, 1),
                (2040, 100),
                (4096, 2048),
                (4096, 2048),
                (123_457, 1 << 20),
                (123_457, 1 << 20),
                (999_999_937, 40 << 20),
                (
                    7,
                    3 * cfg.row_bytes * cfg.channels as u64 * cfg.banks_per_channel as u64,
                ),
            ];
            for (addr, bytes) in sequence {
                let t_fast = fast.access(addr, bytes);
                let t_ref = reference.access_per_burst(addr, bytes);
                assert_eq!(
                    t_fast, t_ref,
                    "{}: access({addr}, {bytes}) diverged",
                    cfg.name
                );
                assert_eq!(fast.row_hits, reference.row_hits, "{}: hits", cfg.name);
                assert_eq!(
                    fast.row_misses, reference.row_misses,
                    "{}: misses",
                    cfg.name
                );
                assert_eq!(fast.bytes_accessed, reference.bytes_accessed);
                assert_eq!(
                    fast.open_rows, reference.open_rows,
                    "{}: open rows",
                    cfg.name
                );
            }
        }
    }

    proptest::proptest! {
        /// Randomised oracle: stateful sequences of accesses through
        /// the closed form must match the per-burst walk exactly —
        /// durations, hit/miss counters, and open-row state.
        #[test]
        fn closed_form_access_matches_reference_on_random_sequences(
            cfg_idx in 0usize..3,
            seq in proptest::collection::vec(
                (0u64..1 << 22, 1u64..1 << 18),
                1..8,
            ),
        ) {
            let cfg = [
                DramConfig::lpddr5_204gb(),
                DramConfig::hbm2e_1935gb(),
                DramConfig::ddr4_cpu(),
            ][cfg_idx]
                .clone();
            let mut fast = Dram::new(cfg.clone());
            let mut reference = Dram::new(cfg);
            for &(addr, bytes) in &seq {
                let t_fast = fast.access(addr, bytes);
                let t_ref = reference.access_per_burst(addr, bytes);
                proptest::prop_assert_eq!(t_fast, t_ref, "access({}, {})", addr, bytes);
                proptest::prop_assert_eq!(fast.row_hits, reference.row_hits);
                proptest::prop_assert_eq!(fast.row_misses, reference.row_misses);
                proptest::prop_assert_eq!(fast.bytes_accessed, reference.bytes_accessed);
                proptest::prop_assert_eq!(&fast.open_rows, &reference.open_rows);
            }
        }
    }

    #[test]
    fn scattered_reads_are_slower_than_streaming() {
        let cfg = DramConfig::lpddr5_204gb();
        let bytes = 4u64 << 20;
        let mut d1 = Dram::new(cfg.clone());
        let t_stream = d1.access(0, bytes);
        let mut d2 = Dram::new(cfg);
        let t_scatter = d2.scattered_read(bytes / 256, 256);
        assert!(
            t_scatter > 2 * t_stream,
            "scatter {t_scatter} not clearly slower than stream {t_stream}"
        );
    }

    #[test]
    fn row_hits_dominate_sequential_access() {
        let cfg = DramConfig::lpddr5_204gb();
        let mut d = Dram::new(cfg);
        d.access(0, 1 << 20);
        assert!(d.row_hits() > 10 * d.row_misses());
    }

    #[test]
    fn zero_byte_access_is_free() {
        let mut d = Dram::new(DramConfig::lpddr5_204gb());
        assert_eq!(d.access(0, 0), 0);
    }

    #[test]
    fn energy_scales_with_bytes() {
        let cfg = DramConfig::lpddr5_204gb();
        let mut d = Dram::new(cfg);
        d.access(0, 1 << 20);
        let e1 = d.energy_joules(0.0);
        d.access(1 << 30, 1 << 20);
        let e2 = d.energy_joules(0.0);
        assert!((e2 / e1 - 2.0).abs() < 0.01);
        // 1 MiB at 4 pJ/bit ≈ 33.6 µJ.
        assert!((e1 - 1048576.0 * 8.0 * 4.0e-12).abs() / e1 < 1e-9);
    }

    #[test]
    fn hbm_is_faster_than_lpddr() {
        let bytes = 16u64 << 20;
        let t_lp = Dram::new(DramConfig::lpddr5_204gb()).access(0, bytes);
        let t_hbm = Dram::new(DramConfig::hbm2e_1935gb()).access(0, bytes);
        assert!(t_hbm * 5 < t_lp, "HBM2e should be ~9.4x faster");
    }
}
