//! # vrex-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (see ARCHITECTURE.md, "Figure/table → binary map", for
//! the index; each binary prints the paper's numbers beside its own
//! as a `Paper:` line). Every binary prints simulated, deterministic
//! facts only; host time is measured by the repo benchmark
//! (`BENCHMARK.json`, `benchmark/`), never here.
//!
//! Run everything with:
//!
//! ```text
//! for bin in fig04_motivation fig07_similarity fig13_latency_energy \
//!            fig14_e2e_breakdown fig15_oaken fig16_ablation \
//!            fig17_bandwidth fig18_roofline fig19_resv_ablation \
//!            fig20_ratio_distribution tab1_specs tab2_accuracy \
//!            tab3_area_power; do
//!     cargo run --release -p vrex-bench --bin $bin
//! done
//! ```
//!
//! Beyond the figures, `realtime_session` shows the queueing transient
//! of a one-session serve, `serve_capacity` / `tier_capacity` /
//! `device_scaling` render multi-session serving capacity (reject-only,
//! tiered, and across a device pool; `--smoke` for the CI-sized grids)
//! from the rows of `vrex_system::capacity` and assert its gate
//! predicates, and `scaling` / `sweep_resv_params` explore parameter
//! spaces.

pub use vrex_core::par;

pub mod report;
