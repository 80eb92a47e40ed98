//! # vrex-workload
//!
//! COIN-benchmark-like workloads and the accuracy-proxy evaluation.
//!
//! The paper evaluates on five COIN instructional-video tasks with
//! VideoLLM-Online. The dataset is not available here, so this crate
//! provides (ARCHITECTURE.md, "Crate DAG"):
//!
//! * [`coin`] — the five task profiles with the paper's baseline Top-1
//!   accuracies and workload statistics (the paper's "average working
//!   scenario": 26 frames, 25 question tokens, 39 answer tokens), each
//!   with video-statistics knobs (scene-cut rate, drift, noise) that
//!   shape attention the way the task shapes it;
//! * [`session`] — streaming session event generation (frames
//!   interleaved with multi-turn queries);
//! * [`traffic`] — multi-session fleets: seeded staggered arrivals over
//!   [`session`] event streams, consumed by the serving scheduler in
//!   `vrex-system`;
//! * [`accuracy`] — the accuracy proxy: run the *functional* model with
//!   a retrieval policy, measure how much true attention mass and
//!   output fidelity the policy preserves, and map that to a Top-1
//!   estimate anchored at the paper's vanilla baseline.

#![warn(missing_docs)]

pub mod accuracy;
pub mod coin;
pub mod session;
pub mod traffic;

pub use accuracy::{evaluate_policy, AccuracyReport};
pub use coin::{CoinTask, COIN_TASKS};
pub use session::{CoinScenario, SessionEvent, SessionGenerator};
pub use traffic::{
    OpenLoopConfig, OpenLoopStream, PlanSource, PlanStream, SessionPlan, SlicePlans, TrafficConfig,
};
