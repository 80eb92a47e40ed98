//! # vrex-model
//!
//! A functional streaming video LLM: the workload substrate that the
//! V-Rex paper accelerates.
//!
//! The paper runs VideoLLM-Online with a Llama-3 8B backbone and a
//! SigLIP vision tower. Neither the weights nor the dataset are
//! available here, so this crate provides the closest executable
//! equivalent (see ARCHITECTURE.md, "Crate DAG"):
//!
//! * a real multi-layer, multi-head transformer decoder with RoPE,
//!   grouped-query attention and growing per-layer KV caches
//!   ([`decoder`], [`llm`]) — randomly initialised but *functionally
//!   faithful*, so retrieval algorithms see genuine attention-score
//!   distributions;
//! * a synthetic vision tower ([`vision`]) whose frame embeddings have
//!   the temporal/spatial similarity structure the paper measures on
//!   COIN (Fig. 7) — persistent scenes, slow drift, occasional cuts;
//! * the **iterative prefill** driver unique to streaming video LLMs
//!   (frames arrive one by one and each runs a full prefill that both
//!   reads and extends the KV cache), plus the text generation stage;
//! * the [`policy::RetrievalPolicy`] trait that ReSV (`vrex-core`) and
//!   all baselines (`vrex-retrieval`) implement, and
//! * analytic size/FLOP formulas for the *real* Llama-3 8B
//!   configuration ([`config::ModelConfig::llama3_8b`]) consumed by the
//!   hardware simulator.

#![warn(missing_docs)]

pub mod attention;
pub mod config;
pub mod decoder;
pub mod kv_cache;
pub mod llm;
pub mod policy;
pub mod vision;

pub use config::ModelConfig;
pub use kv_cache::{KvCache, LayerKvCache};
pub use llm::{RunStats, StageStats, StreamingVideoLlm};
pub use policy::{RetrievalPolicy, SelectAll, SelectedIndices, Selection, Stage};
pub use vision::{Frame, VideoStream, VideoStreamConfig};
