//! The four evaluation platforms (paper Table I).

use vrex_hwsim::area_power::SystemPower;
use vrex_hwsim::dram::DramConfig;
use vrex_hwsim::gpu::GpuConfig;
use vrex_hwsim::pcie::PcieConfig;
use vrex_hwsim::ssd::SsdConfig;
use vrex_hwsim::vrexunits::VRexChipConfig;

/// The compute engine of a platform.
#[derive(Debug, Clone, PartialEq)]
pub enum ComputeSpec {
    /// A baseline GPU.
    Gpu(GpuConfig),
    /// A V-Rex chip (LXE + DRE per core).
    VRex(VRexChipConfig),
}

impl ComputeSpec {
    /// Peak dense throughput (FLOP/s).
    pub fn peak_flops(&self) -> f64 {
        match self {
            ComputeSpec::Gpu(g) => g.peak_flops,
            ComputeSpec::VRex(v) => v.peak_flops(),
        }
    }
}

/// A complete platform: compute + memory + offload path + power.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSpec {
    /// Platform name as used in the figures.
    pub name: &'static str,
    /// Compute engine.
    pub compute: ComputeSpec,
    /// Device memory.
    pub dram: DramConfig,
    /// Device memory capacity (bytes).
    pub mem_capacity: u64,
    /// Offload link.
    pub pcie: PcieConfig,
    /// Storage offload target (edge platforms).
    pub storage: Option<SsdConfig>,
    /// CPU-memory offload target (server platforms).
    pub offload_dram: Option<DramConfig>,
    /// Host-DRAM capacity (bytes) available as a KV spill tier behind
    /// `offload_dram`. Zero on edge platforms, whose LPDDR is unified
    /// with the device — there the SSD is the only lower tier.
    pub host_mem_capacity: u64,
    /// Hot-window: recent KV tokens kept resident in device memory per
    /// stream (the hierarchical KVMU residency; GPUs run the same
    /// recent-window policy under FlexGen-style offloading).
    pub hot_window_tokens: usize,
    /// Fixed per-frame ingest overhead (sampling, decode, patchify) in
    /// picoseconds.
    pub frame_overhead_ps: u64,
    /// Vision tower (SigLIP-ViT-L-384) FLOPs per frame.
    pub vision_flops: u64,
    /// Vision tower weight bytes (streamed per frame batch).
    pub vision_bytes: u64,
    /// Board/system power under load (W) for energy accounting.
    pub power_w: f64,
}

/// SigLIP-ViT-L/384 forward cost: ~729 patches through ~300 M params.
const VISION_FLOPS: u64 = 450_000_000_000;
const VISION_BYTES: u64 = 640 << 20;

impl PlatformSpec {
    /// NVIDIA Jetson AGX Orin, KV offload to M.2 NVMe over PCIe 3.0 ×4.
    pub fn agx_orin() -> Self {
        Self {
            name: "AGX Orin",
            compute: ComputeSpec::Gpu(GpuConfig::agx_orin()),
            dram: DramConfig::lpddr5_204gb(),
            mem_capacity: 32u64 << 30,
            pcie: PcieConfig::gen3_x4(),
            storage: Some(SsdConfig::bg6_class()),
            offload_dram: None,
            host_mem_capacity: 0,
            hot_window_tokens: 8192,
            frame_overhead_ps: 20_000_000_000, // 20 ms decode+preproc
            vision_flops: VISION_FLOPS,
            vision_bytes: VISION_BYTES,
            power_w: 40.0,
        }
    }

    /// NVIDIA A100, KV offload to DDR4 CPU memory over PCIe 4.0 ×16.
    pub fn a100() -> Self {
        Self {
            name: "A100",
            compute: ComputeSpec::Gpu(GpuConfig::a100()),
            dram: DramConfig::hbm2e_1935gb(),
            mem_capacity: 80u64 << 30,
            pcie: PcieConfig::gen4_x16(),
            storage: None,
            offload_dram: Some(DramConfig::ddr4_cpu()),
            host_mem_capacity: 256u64 << 30,
            hot_window_tokens: 8192,
            frame_overhead_ps: 4_000_000_000, // 4 ms
            vision_flops: VISION_FLOPS,
            vision_bytes: VISION_BYTES,
            power_w: 300.0,
        }
    }

    /// V-Rex8: 8 cores, LPDDR5, NVMe over PCIe 3.0 ×4 (Table I edge).
    pub fn vrex8() -> Self {
        Self {
            name: "V-Rex8",
            compute: ComputeSpec::VRex(VRexChipConfig::edge8()),
            dram: DramConfig::lpddr5_204gb(),
            mem_capacity: 32u64 << 30,
            pcie: PcieConfig::gen3_x4(),
            storage: Some(SsdConfig::bg6_class()),
            offload_dram: None,
            host_mem_capacity: 0,
            hot_window_tokens: 8192,
            frame_overhead_ps: 20_000_000_000,
            vision_flops: VISION_FLOPS,
            vision_bytes: VISION_BYTES,
            power_w: SystemPower::vrex8().total_w(),
        }
    }

    /// V-Rex48: 48 cores, HBM2e, DDR4 CPU memory over PCIe 4.0 ×16
    /// (Table I server).
    pub fn vrex48() -> Self {
        Self {
            name: "V-Rex48",
            compute: ComputeSpec::VRex(VRexChipConfig::server48()),
            dram: DramConfig::hbm2e_1935gb(),
            mem_capacity: 80u64 << 30,
            pcie: PcieConfig::gen4_x16(),
            storage: None,
            offload_dram: Some(DramConfig::ddr4_cpu()),
            host_mem_capacity: 256u64 << 30,
            hot_window_tokens: 8192,
            frame_overhead_ps: 4_000_000_000,
            vision_flops: VISION_FLOPS,
            vision_bytes: VISION_BYTES,
            power_w: SystemPower::vrex48().total_w(),
        }
    }

    /// Whether this platform carries a DRE (dynamic retrieval engine).
    pub fn has_dre(&self) -> bool {
        matches!(self.compute, ComputeSpec::VRex(_))
    }

    /// This platform with an NVMe drive added behind its PCIe link —
    /// the third level of the HBM → host-DRAM → SSD hierarchy for the
    /// tiered-serving experiments (Table I server boxes ship without a
    /// spill drive).
    pub fn with_nvme_tier(mut self) -> Self {
        self.storage = Some(SsdConfig::bg6_class());
        self
    }
}

/// Largest device count a [`DevicePool`] accepts. The headline sweep
/// runs 1/2/4/8 devices; the cap keeps per-device fabric-port naming
/// and placement state dense and bounded.
pub const MAX_POOL_DEVICES: usize = 16;

/// A homogeneous multi-device platform: `devices` copies of one
/// [`PlatformSpec`] joined by an NVLink 4 fabric
/// ([`InterconnectConfig::nvlink4`], which the placement pass
/// installs).
///
/// Each device carries its own full tier hierarchy (its
/// `PlatformSpec`-derived HBM/host/SSD budgets and, during sharded
/// serving, its own tiered KV-manager state); the pool adds only the
/// fabric over which KV blocks migrate between devices. A pool
/// of one device is *exactly* the single-device platform: sharded
/// serving over it must reproduce the unsharded serve byte-identically.
///
/// [`InterconnectConfig::nvlink4`]: vrex_hwsim::interconnect::InterconnectConfig::nvlink4
#[derive(Debug, Clone, PartialEq)]
pub struct DevicePool {
    device: PlatformSpec,
    devices: usize,
}

impl DevicePool {
    /// A pool of `devices` identical copies of `device`.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is zero or exceeds [`MAX_POOL_DEVICES`].
    pub fn homogeneous(device: PlatformSpec, devices: usize) -> Self {
        assert!(
            (1..=MAX_POOL_DEVICES).contains(&devices),
            "pool size {devices} outside 1..={MAX_POOL_DEVICES}"
        );
        Self { device, devices }
    }

    /// The per-device platform.
    pub fn device(&self) -> &PlatformSpec {
        &self.device
    }

    /// Number of devices in the pool.
    pub fn devices(&self) -> usize {
        self.devices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_peaks() {
        assert!((PlatformSpec::agx_orin().compute.peak_flops() / 1e12 - 54.0).abs() < 0.1);
        assert!((PlatformSpec::a100().compute.peak_flops() / 1e12 - 312.0).abs() < 0.1);
        assert!((PlatformSpec::vrex8().compute.peak_flops() / 1e12 - 53.3).abs() < 0.1);
        assert!((PlatformSpec::vrex48().compute.peak_flops() / 1e12 - 319.5).abs() < 0.5);
    }

    #[test]
    fn table1_memory_and_links() {
        let agx = PlatformSpec::agx_orin();
        assert!((agx.dram.peak_bytes_per_s() - 204.8e9).abs() < 1.0);
        assert!((agx.pcie.raw_bytes_per_s() - 4.0e9).abs() < 1.0);
        assert_eq!(agx.mem_capacity, 32u64 << 30);
        let a100 = PlatformSpec::a100();
        assert!((a100.dram.peak_bytes_per_s() - 1935.0e9).abs() < 1.0);
        assert!((a100.pcie.raw_bytes_per_s() - 32.0e9).abs() < 1.0);
        assert_eq!(a100.mem_capacity, 80u64 << 30);
    }

    #[test]
    fn table1_power() {
        assert_eq!(PlatformSpec::agx_orin().power_w, 40.0);
        assert_eq!(PlatformSpec::a100().power_w, 300.0);
        assert!((PlatformSpec::vrex8().power_w - 35.0).abs() < 1.0);
        assert!((PlatformSpec::vrex48().power_w - 203.68).abs() < 2.0);
    }

    #[test]
    fn edge_offloads_to_storage_server_to_cpu_memory() {
        assert!(PlatformSpec::agx_orin().storage.is_some());
        assert!(PlatformSpec::vrex8().storage.is_some());
        assert!(PlatformSpec::a100().offload_dram.is_some());
        assert!(PlatformSpec::vrex48().offload_dram.is_some());
    }

    #[test]
    fn host_tier_exists_only_on_server_platforms() {
        assert_eq!(PlatformSpec::agx_orin().host_mem_capacity, 0);
        assert_eq!(PlatformSpec::vrex8().host_mem_capacity, 0);
        assert!(PlatformSpec::a100().host_mem_capacity > 0);
        assert!(PlatformSpec::vrex48().host_mem_capacity > 0);
    }

    #[test]
    fn nvme_tier_can_be_added_to_a_server_box() {
        let p = PlatformSpec::vrex48().with_nvme_tier();
        assert!(p.storage.is_some());
        assert!(p.offload_dram.is_some(), "host tier kept");
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn zero_device_pool_is_rejected() {
        let _ = DevicePool::homogeneous(PlatformSpec::vrex48(), 0);
    }

    #[test]
    fn only_vrex_has_dre() {
        assert!(!PlatformSpec::agx_orin().has_dre());
        assert!(!PlatformSpec::a100().has_dre());
        assert!(PlatformSpec::vrex8().has_dre());
        assert!(PlatformSpec::vrex48().has_dre());
    }
}
