//! # vrex-system
//!
//! Full-system models: the four evaluation platforms of Table I
//! (AGX Orin, A100, V-Rex8, V-Rex48), the retrieval-method cost
//! profiles, and the per-layer pipeline composition (Fig. 5) that turns
//! workload parameters (KV length, batch, stage) into per-frame
//! latency, TPOT, FPS, energy, and OOM outcomes — every number behind
//! Figs. 13–18 and Table I.
//!
//! The split of responsibilities:
//!
//! * `vrex-core` / `vrex-retrieval` decide *which tokens* are selected
//!   (functional behaviour, measured ratios) and *when* spilled KV is
//!   streamed back (the prefetch-policy seam);
//! * `vrex-hwsim` prices individual hardware operations, including
//!   tier-to-tier bulk migrations;
//! * this crate composes them into end-to-end executions with the
//!   paper's overlap rules: baselines predict/prefetch during the
//!   previous layer on the *same* GPU (prediction steals compute),
//!   while V-Rex's DRE runs prediction concurrently and its KVMU
//!   fetches cluster-contiguous chunks (higher link efficiency).
//!
//! On top of the per-step model sit two serving layers: [`memory`]
//! tracks fleet-wide KV residency across the device → host-DRAM → SSD
//! hierarchy (LRU spill, off-critical-path promotion,
//! prefetch-overlapped restore pricing), and [`mod@serve`] drives the
//! continuous-batching scheduler whose admission control either
//! rejects overflow sessions (PR 2 behaviour) or spills them down the
//! hierarchy ([`AdmissionPolicy`]). [`placement`] scales both across a
//! multi-device [`DevicePool`]: arriving sessions are *placed* on a
//! device (admission becomes placement), and cross-device KV
//! migrations ride the NVLink / PCIe-switch fabric as contended
//! resource-timeline work.

#![warn(missing_docs)]

pub mod ablation;
pub mod e2e;
pub mod eventq;
pub mod memory;
pub mod method;
pub mod pipeline;
pub mod placement;
pub mod platform;
pub mod pricing;
pub mod queueing;
pub mod realtime;
pub mod serve;

pub use e2e::{EnergyBreakdown, StepResult, SystemModel};
pub use eventq::{EventQueue, QueueKind, TimeKeyed};
pub use memory::{
    AdmissionPolicy, MigrationTask, PrefetchMode, RestorePlan, TierStats, TieredKvManager,
};
pub use method::{Method, MethodProfile};
pub use placement::{
    serve_sharded, serve_sharded_stream, serve_sharded_traced_with_workers,
    serve_sharded_with_cache_in, DeviceMigration, InterconnectReport, PlacementPolicy,
    ShardScratch, ShardedServeReport,
};
pub use platform::{ComputeSpec, DevicePool, PlatformSpec};
pub use pricing::{ExecContext, StepPriceCache};
pub use serve::{
    serve, serve_stream, serve_traced, serve_with_cache, ServeConfig, ServeCounters, ServeReport,
    SessionServeReport, TierReport, TraceEvent, TraceKind,
};
