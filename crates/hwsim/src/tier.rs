//! Memory-tier topology and migration pricing (HBM → host DRAM → SSD).
//!
//! The serving path outgrows device memory long before it outgrows the
//! box: a 32K-token Llama-3 8B stream pins 4 GiB of KV, so a fleet of
//! them exhausts HBM while host DRAM and the NVMe drive sit idle. This
//! module prices *migrations* between the three tiers the evaluation
//! platforms actually have:
//!
//! * **Device** — HBM2e / LPDDR5 behind the compute engine;
//! * **Host** — CPU DDR4 across the PCIe link (server platforms);
//! * **Ssd** — the NVMe drive, also across PCIe (edge platforms).
//!
//! A migration streams bulk KV blocks, so every leg is priced with the
//! existing substrate models ([`PcieConfig`], [`SsdConfig`],
//! [`DramConfig`] — via their fresh-device closed forms) and the legs
//! pipeline: the slowest stage bounds the
//! transfer, exactly like the per-step fetch path in `vrex-system`.
//! Spill (down) and restore (up) use the same timing — flash-program
//! asymmetry is deliberately ignored because spills run off the
//! critical path (asynchronous writeback behind compute) while
//! restores are latency-critical.
//!
//! Capacity bookkeeping ([`TierCapacities`]) and pricing ([`TierPath`])
//! live here in `vrex-hwsim`; *policy* — who gets spilled, when to
//! prefetch — lives in `vrex_system::memory`, next to the scheduler
//! that exercises it.

use crate::dram::DramConfig;
use crate::pcie::PcieConfig;
use crate::ssd::SsdConfig;

/// One level of the KV-cache memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemTier {
    /// Device memory (HBM2e / LPDDR5): zero-cost hits.
    Device,
    /// Host CPU DRAM across the PCIe link.
    Host,
    /// NVMe flash across the PCIe link.
    Ssd,
}

impl MemTier {
    /// All tiers, fastest first.
    pub const ALL: [MemTier; 3] = [MemTier::Device, MemTier::Host, MemTier::Ssd];

    /// Display label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            MemTier::Device => "device",
            MemTier::Host => "host-dram",
            MemTier::Ssd => "ssd",
        }
    }
}

impl std::fmt::Display for MemTier {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fm.write_str(self.label())
    }
}

/// Byte budgets per tier. A zero budget means the tier is absent on the
/// platform (the AGX has no discrete host tier; the A100 box in Table I
/// has no NVMe spill target unless one is added).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCapacities {
    /// Device bytes available to KV (capacity minus weights/headroom).
    pub device_bytes: u64,
    /// Host-DRAM bytes available to KV.
    pub host_bytes: u64,
    /// SSD bytes available to KV.
    pub ssd_bytes: u64,
}

impl TierCapacities {
    /// Budget of one tier.
    pub fn capacity(&self, tier: MemTier) -> u64 {
        match tier {
            MemTier::Device => self.device_bytes,
            MemTier::Host => self.host_bytes,
            MemTier::Ssd => self.ssd_bytes,
        }
    }

    /// Total bytes across every tier.
    pub fn total_bytes(&self) -> u64 {
        self.device_bytes + self.host_bytes + self.ssd_bytes
    }

    /// Whether the tier exists (has a nonzero budget).
    pub fn has(&self, tier: MemTier) -> bool {
        self.capacity(tier) > 0
    }

    /// The tiers below `tier`, nearest first, skipping absent ones.
    pub fn below(&self, tier: MemTier) -> impl Iterator<Item = MemTier> + '_ {
        MemTier::ALL
            .into_iter()
            .filter(move |&t| t > tier && self.has(t))
    }
}

/// The links connecting the tiers, used to price migrations.
///
/// `host_dram` / `ssd` may be `None` when the platform lacks the tier;
/// pricing a migration through a missing tier panics (the capacities
/// guard should have kept policy code away from it).
#[derive(Debug, Clone, PartialEq)]
pub struct TierPath {
    /// The PCIe link every off-device byte crosses.
    pub pcie: PcieConfig,
    /// Host CPU DRAM (server offload target), if present.
    pub host_dram: Option<DramConfig>,
    /// NVMe drive (edge offload target), if present.
    pub ssd: Option<SsdConfig>,
}

impl TierPath {
    /// Duration (ps) of migrating `bytes` from `from` to `to`, streamed
    /// in DMA chunks of `chunk_bytes`. Every stage the transfer crosses
    /// (PCIe link, host DRAM, SSD flash array) runs as a pipeline, so
    /// the slowest stage bounds the duration. Zero bytes or a same-tier
    /// move are free.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint tier is not configured on this path, or if
    /// `chunk_bytes == 0` while `bytes > 0`.
    pub fn migrate_ps(&self, from: MemTier, to: MemTier, bytes: u64, chunk_bytes: u64) -> u64 {
        if bytes == 0 || from == to {
            return 0;
        }
        // The slowest pipeline stage bounds the move. Stage times come
        // from the allocation-free fresh-device closed forms — the
        // scheduler prices a migration per tier-missing batch member,
        // so this is a hot leaf.
        let mut slowest = self.pcie.transfer_ps(bytes, chunk_bytes);
        for tier in [from, to] {
            let stage = match tier {
                MemTier::Device => 0, // device DRAM is priced inside the step model
                MemTier::Host => self
                    .host_dram
                    .as_ref()
                    // vrex-lint: allow(panicking-seam) — pricing a tier the path was not built with is a platform-construction bug; stop loudly.
                    .expect("host tier not configured on this path")
                    .stream_read_ps(bytes),
                // Bulk migrations stream contiguous blocks; small
                // chunks degenerate into scattered page reads. (The
                // host leg above streams at every chunk size — a known
                // asymmetry the pinned outputs depend on.)
                MemTier::Ssd => self
                    .ssd
                    .as_ref()
                    // vrex-lint: allow(panicking-seam) — same construction invariant as the host tier above.
                    .expect("ssd tier not configured on this path")
                    .read_ps(bytes, chunk_bytes),
            };
            slowest = slowest.max(stage);
        }
        slowest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::seconds_to_ps;

    fn server_path() -> TierPath {
        TierPath {
            pcie: PcieConfig::gen4_x16(),
            host_dram: Some(DramConfig::ddr4_cpu()),
            ssd: Some(SsdConfig::bg6_class()),
        }
    }

    fn edge_path() -> TierPath {
        TierPath {
            pcie: PcieConfig::gen3_x4(),
            host_dram: None,
            ssd: Some(SsdConfig::bg6_class()),
        }
    }

    #[test]
    fn zero_bytes_and_same_tier_moves_are_free() {
        let p = server_path();
        assert_eq!(p.migrate_ps(MemTier::Host, MemTier::Device, 0, 1 << 20), 0);
        assert_eq!(
            p.migrate_ps(MemTier::Host, MemTier::Host, 1 << 30, 1 << 20),
            0
        );
    }

    #[test]
    fn host_restore_is_pcie_bound_hand_computed_oracle() {
        // Host → device, 1 MiB in 256 KiB chunks on PCIe 4.0 ×16
        // (32 GB/s raw, 256 B max payload, 24 B TLP overhead, 0.4 µs
        // per DMA descriptor). By hand:
        //   chunks = 4;  TLPs = 1 MiB/256 + 4 = 4096 + 4 = 4100
        //   wire bytes = 1 MiB + 4100·24 = 1_048_576 + 98_400 = 1_146_976
        //   wire ps    = wire_bytes / 32e9 · 1e12
        //   total      = wire ps + 4 · 400_000 ps
        // DDR4 streams 1 MiB at ~102 GB/s — faster than the link, so
        // the pipelined max is the PCIe leg exactly.
        let p = server_path();
        let bytes: u64 = 1 << 20;
        let chunk: u64 = 256 << 10;
        let tlps = bytes / 256 + 4;
        let wire_bytes = bytes + tlps * 24;
        let expected = seconds_to_ps(wire_bytes as f64 / 32.0e9) + 4 * 400_000;
        assert_eq!(
            p.migrate_ps(MemTier::Host, MemTier::Device, bytes, chunk),
            expected
        );
    }

    #[test]
    fn cluster_run_is_pcie_bound_hand_computed_oracle() {
        // A coalesced run of 8 × 128 KiB ReSV clusters, host → device
        // on PCIe 4.0 ×16, DMA-chunked at the cluster size (the
        // cluster-granular cold-data path in `vrex_system::memory`
        // moves coalesced runs, so its chunk *is* the cluster). By hand:
        //   bytes  = 8·131_072 = 1_048_576;  chunks = 8
        //   TLPs   = 1_048_576/256 + 8 = 4104
        //   wire   = 1_048_576 + 4104·24 = 1_147_072 B
        //   total  = wire/32e9·1e12 + 8·400_000 ps
        let p = server_path();
        let cluster: u64 = 128 << 10;
        let bytes = 8 * cluster;
        let tlps = bytes / 256 + 8;
        let wire_bytes = bytes + tlps * 24;
        let expected = seconds_to_ps(wire_bytes as f64 / 32.0e9) + 8 * 400_000;
        assert_eq!(
            p.migrate_ps(MemTier::Host, MemTier::Device, bytes, cluster),
            expected
        );
    }

    #[test]
    fn edge_ssd_restore_is_slower_than_server_host_restore() {
        let bytes = 1u64 << 30;
        let chunk = 256u64 << 10;
        let edge = edge_path().migrate_ps(MemTier::Ssd, MemTier::Device, bytes, chunk);
        let server = server_path().migrate_ps(MemTier::Host, MemTier::Device, bytes, chunk);
        assert!(
            edge > 4 * server,
            "SSD restore {edge} should be much slower than host restore {server}"
        );
    }

    #[test]
    fn host_to_ssd_pays_the_slowest_of_all_three_stages() {
        let p = server_path();
        let bytes = 256u64 << 20;
        let chunk = 1u64 << 20;
        let down = p.migrate_ps(MemTier::Host, MemTier::Ssd, bytes, chunk);
        let host_only = p.migrate_ps(MemTier::Host, MemTier::Device, bytes, chunk);
        // The SSD flash array is the slowest stage, so demoting host →
        // SSD is slower than a pure host ↔ device move.
        assert!(down > host_only, "{down} vs {host_only}");
    }

    #[test]
    fn tiny_chunks_degrade_migration_bandwidth() {
        // The same 64 MiB takes over twice as long in 4 KiB chunks.
        let p = edge_path();
        let bulk = p.migrate_ps(MemTier::Ssd, MemTier::Device, 64 << 20, 1 << 20);
        let scattered = p.migrate_ps(MemTier::Ssd, MemTier::Device, 64 << 20, 4096);
        assert!(
            scattered > 2 * bulk,
            "4 KiB chunks ({scattered} ps) should underperform 1 MiB ({bulk} ps)"
        );
    }

    #[test]
    fn capacities_describe_the_hierarchy() {
        let caps = TierCapacities {
            device_bytes: 4,
            host_bytes: 0,
            ssd_bytes: 9,
        };
        assert_eq!(caps.total_bytes(), 13);
        assert!(caps.has(MemTier::Device));
        assert!(!caps.has(MemTier::Host));
        let below: Vec<MemTier> = caps.below(MemTier::Device).collect();
        assert_eq!(below, vec![MemTier::Ssd], "absent host tier skipped");
        assert_eq!(caps.below(MemTier::Ssd).count(), 0);
    }

    #[test]
    fn tier_ordering_is_fastest_first() {
        assert!(MemTier::Device < MemTier::Host);
        assert!(MemTier::Host < MemTier::Ssd);
        assert_eq!(MemTier::Ssd.to_string(), "ssd");
    }
}
