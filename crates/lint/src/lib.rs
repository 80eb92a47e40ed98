//! # vrex-lint
//!
//! A workspace-specific determinism/time-integrity static-analysis
//! pass for the V-Rex reproduction.
//!
//! The whole simulator rests on bit-exact determinism: golden-trace
//! fingerprints, traced-vs-untraced and streamed-vs-materialized
//! report equality, and integer-picosecond time end to end. Those invariants were defended only by tests that
//! catch violations *after* they ship; this crate machine-checks them
//! at CI time, before a `HashMap` iteration or an `f64` sneaking into a
//! `_ps` expression silently breaks reproducibility.
//!
//! Run it as a workspace bin:
//!
//! ```text
//! cargo run -p vrex-lint -- --workspace [--root DIR] [--json FILE]
//! ```
//!
//! The tool exits `0` when every finding is waived, `1` when any
//! active (unwaived) finding remains, and `2` on usage/IO errors.
//!
//! There is no crates.io access in this environment (so no `syn` or
//! dylint): [`lexer`] is a small hand-rolled lexer that strips
//! comments, string/raw-string, and char literals and emits a
//! line-numbered token stream; [`rules`] pattern-matches determinism
//! rules over it; [`config`] says which rules run in which crate; and
//! [`runner`] walks the tree and attaches inline waivers
//! (`// vrex-lint: allow(<rule>) — <reason>`, reason mandatory).
//!
//! The registered rules, and the bit-exactness property each protects,
//! are documented in `ARCHITECTURE.md` ("Determinism invariants &
//! vrex-lint").

#![warn(missing_docs)]

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod runner;

pub use config::{CrateCfg, ALL_RULES, WORKSPACE};
pub use report::{Finding, Outcome};
pub use runner::{lint_file, lint_source, run_workspace};
