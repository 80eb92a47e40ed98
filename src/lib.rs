//! # V-Rex
//!
//! A from-scratch Rust reproduction of **"V-Rex: Real-Time Streaming
//! Video LLM Acceleration via Dynamic KV Cache Retrieval"**
//! (HPCA 2026): the ReSV training-free dynamic KV-cache retrieval
//! algorithm, the streaming video LLM substrate it accelerates, the
//! baseline retrieval systems it is compared against, and a
//! cycle-approximate simulator of the V-Rex accelerator and its GPU
//! baselines.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`tensor`] — dense `f32` linear algebra, top-k, quantization;
//! * [`model`] — the streaming video LLM (iterative prefill +
//!   generation, growing KV caches, synthetic vision tower);
//! * [`core`] — **ReSV**: hash-bit key clustering + WiCSum
//!   thresholding + early-exit sorting (the paper's contribution);
//! * [`retrieval`] — FlexGen / InfiniGen / InfiniGenP / ReKV / Oaken
//!   baselines;
//! * [`hwsim`] — DRAM, SSD, PCIe, GPU and V-Rex-core hardware models,
//!   plus the HBM → host-DRAM → SSD tier topology and migration
//!   pricing;
//! * [`workload`] — COIN-like tasks, sessions, multi-session traffic,
//!   and the accuracy proxy;
//! * [`system`] — Table I platforms, the end-to-end latency/energy
//!   model behind every figure, the multi-session serving scheduler
//!   (continuous batching + admission control), and the tiered
//!   KV-cache memory hierarchy with prefetch-overlapped serving.
//!
//! ## Quickstart
//!
//! ```
//! use vrex::core::resv::{ResvConfig, ResvPolicy};
//! use vrex::model::{ModelConfig, RunStats, StreamingVideoLlm};
//! use vrex::model::{VideoStream, VideoStreamConfig};
//!
//! // A streaming video LLM with ReSV retrieval.
//! let cfg = ModelConfig::tiny();
//! let mut llm = StreamingVideoLlm::new(cfg.clone(), 7);
//! let mut policy = ResvPolicy::new(&cfg, ResvConfig::paper_defaults());
//! let mut video = VideoStream::new(VideoStreamConfig::coin_like(
//!     cfg.tokens_per_frame, cfg.hidden_dim, 9));
//! let mut stats = RunStats::new(&cfg, false);
//! for _ in 0..5 {
//!     let frame = video.next_frame();
//!     llm.process_frame(&frame, &mut policy, &mut stats);
//! }
//! println!("retrieval ratio: {:.1}%", stats.overall_ratio() * 100.0);
//! assert!(stats.overall_ratio() < 1.0);
//! ```
//!
//! ## Serving quickstart
//!
//! Offer a fleet of concurrent streaming sessions to a platform and ask
//! how many stay real-time (the capacity question behind
//! `serve_capacity`):
//!
//! ```
//! use vrex::model::ModelConfig;
//! use vrex::system::{Method, PlatformSpec, Serve, ServeConfig, StepPriceCache, SystemModel};
//! use vrex::workload::{traffic::SlicePlans, TrafficConfig};
//!
//! let sys = SystemModel::new(PlatformSpec::vrex48(), Method::ReSV);
//! let model = ModelConfig::llama3_8b();
//! let plans = TrafficConfig {
//!     sessions: 3,
//!     turns: 1,
//!     arrival_spread_s: 5.0,
//!     seed: 7,
//! }
//! .generate();
//! let mut prices = StepPriceCache::new(&sys, &model);
//! let cfg = ServeConfig::real_time(8_000);
//! let report = Serve::new(&mut prices, &cfg).run(&mut SlicePlans::new(&plans));
//! assert_eq!(report.admitted + report.rejected, 3);
//! println!(
//!     "{}: {}/{} real-time, p99 frame lag {:.3}s",
//!     sys.label(),
//!     report.real_time_sessions,
//!     report.admitted,
//!     report.frame_lag_p99_s,
//! );
//! ```
//!
//! ## Tiered-memory serving quickstart
//!
//! When a fleet's resident KV outgrows device memory, reject-only
//! admission turns streams away while host DRAM and the SSD sit idle.
//! Tiered admission spills the coldest streams down the hierarchy
//! instead and hides most of the restore traffic behind speculative
//! prefetch (the `tier_capacity` sweep):
//!
//! ```
//! use vrex::model::ModelConfig;
//! use vrex::system::capacity::headline_platform;
//! use vrex::system::{Method, Serve, ServeConfig, StepPriceCache, SystemModel};
//! use vrex::workload::{traffic::SlicePlans, TrafficConfig};
//!
//! // The headline device: V-Rex48 with half its HBM and a wide
//! // resident window per stream, so the fleet overflows HBM long
//! // before compute saturates.
//! let sys = SystemModel::new(headline_platform(), Method::ReSV);
//! let model = ModelConfig::llama3_8b();
//! let plans = TrafficConfig {
//!     sessions: 8,
//!     turns: 2,
//!     arrival_spread_s: 10.0,
//!     seed: 42,
//! }
//! .generate();
//!
//! // One price cache serves both runs: pricing does not depend on
//! // the admission policy.
//! let mut prices = StepPriceCache::new(&sys, &model);
//! let mut serve = |cfg: ServeConfig| {
//!     Serve::new(&mut prices, &cfg).run(&mut SlicePlans::new(&plans))
//! };
//! let rejecting = serve(ServeConfig::real_time(32_000));
//! let tiered = serve(ServeConfig::real_time_tiered(32_000));
//! assert!(rejecting.rejected > 0, "device memory turns streams away");
//! assert_eq!(tiered.rejected, 0, "spilling admits the whole fleet");
//!
//! let hierarchy = tiered.tiering.expect("tiered runs account the hierarchy");
//! assert!(hierarchy.spilled_sessions > 0);
//! assert!(hierarchy.hidden_s > 0.0, "prefetch hides restore time");
//! println!(
//!     "tiered: {}/{} real-time, {} spilled, {:.2}s of restores hidden",
//!     tiered.real_time_sessions,
//!     tiered.admitted,
//!     hierarchy.spilled_sessions,
//!     hierarchy.hidden_s,
//! );
//! ```

pub use vrex_core as core;
pub use vrex_hwsim as hwsim;
pub use vrex_model as model;
pub use vrex_retrieval as retrieval;
pub use vrex_system as system;
pub use vrex_tensor as tensor;
pub use vrex_workload as workload;

pub use vrex_system::{
    AdmissionPolicy, DevicePool, PlacementPolicy, PrefetchMode, Serve, ServeConfig, ServeReport,
    ShardedServeReport, TierReport,
};
pub use vrex_workload::{SessionPlan, TrafficConfig};
