//! # vrex-hwsim
//!
//! Cycle-approximate hardware substrates for the V-Rex evaluation.
//!
//! The paper evaluates with a custom cycle-level simulator integrating
//! DRAMSim3 (DRAM), MQSim (SSD), measured PCIe bandwidths, and an RTL
//! implementation of the V-Rex core. This crate rebuilds each substrate
//! at the fidelity the evaluation actually exercises (ARCHITECTURE.md,
//! "The analytic step-pricing model"):
//!
//! * [`time`] — picosecond simulation time and cycle conversions;
//! * [`engine`] — a dependency-graph resource scheduler producing end
//!   times and busy-interval traces (Fig. 17's bandwidth timeline);
//! * [`dram`] — closed-form DRAM timing with LPDDR5 / HBM2e / DDR4
//!   presets (bandwidth, row activations, pJ/bit energy);
//! * [`ssd`] — closed-form NVMe flash timing (page reads, channel
//!   striping, scattered-vs-contiguous efficiency);
//! * [`pcie`] — PCIe link with per-TLP overhead, so transfer efficiency
//!   depends on chunk size (the KVMU's cluster-contiguous win);
//! * [`interconnect`] — device-to-device NVLink / PCIe-switch fabric:
//!   per-device ports as named [`engine`] resources, priced through the
//!   same link math as [`pcie`];
//! * [`gpu`] — roofline GPU model with kernel-launch and
//!   irregular-operation penalties (AGX Orin / A100 presets);
//! * [`vrexunits`] — cycle models of the V-Rex core's DPE, VPE, HCU and
//!   WTU, matching the paper's per-core 6.66 TFLOPS;
//! * [`kvmu`] — the functional KV-cache management unit (hierarchical
//!   residency + cluster-contiguous mapping + transaction coalescing);
//! * [`tier`] — the HBM → host-DRAM → SSD memory-tier topology and
//!   bulk-migration pricing behind the tiered serving path;
//! * [`area_power`] — Table III area/power constants and composition;
//! * [`roofline`] — roofline-analysis helpers (Fig. 18).

#![warn(missing_docs)]

pub mod area_power;
pub mod dram;
pub mod engine;
pub mod gpu;
pub mod interconnect;
pub mod kvmu;
pub mod pcie;
pub mod roofline;
pub mod ssd;
pub mod tier;
pub mod time;
pub mod vrexunits;

/// DMA chunk size (bytes) from which an offload source — SSD flash or
/// CPU DRAM — serves a transfer as one contiguous stream; smaller
/// chunks degenerate into one scattered request each
/// ([`ssd::SsdConfig::read_ps`], [`dram::DramConfig::read_ps`]).
pub const CONTIGUOUS_CHUNK_BYTES: u64 = 64 * 1024;

pub use engine::{Engine, ResourceId, TaskId};
pub use interconnect::{CopySpan, Interconnect, InterconnectConfig};
pub use tier::{MemTier, TierCapacities, TierPath};
pub use time::{cycles_to_ps, ps_to_seconds, seconds_to_ps, PS_PER_SECOND};
