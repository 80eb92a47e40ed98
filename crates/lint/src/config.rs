//! Per-crate rule configuration.
//!
//! The workspace is not uniform: the six simulation crates carry the
//! bit-exactness contract (golden-trace fingerprints, traced-vs-untraced
//! and streamed-vs-materialized report equality), `vrex-tensor` is deterministic-by-construction float
//! math, and `crates/bench` only renders simulated facts (host time is
//! measured by the repo benchmark under `benchmark/`, outside this
//! workspace).
//! This table says which rules run where, and which modules are
//! designated report boundaries for the `float-time` rule (the places
//! integer picoseconds are allowed to become seconds for human-facing
//! reports).

/// Rule configuration for one workspace package (or source dir).
#[derive(Debug)]
pub struct CrateCfg {
    /// Directory relative to the workspace root (e.g. `crates/core`).
    pub rel: &'static str,
    /// Rules enforced in this crate, by registry name.
    pub rules: &'static [&'static str],
    /// Files (relative to the workspace root) exempt from `float-time`:
    /// the modules whose *job* is converting integer ps into seconds
    /// for reports (percentile tables, FPS, speedup ratios).
    pub float_time_boundary: &'static [&'static str],
}

/// The full determinism rule set, enforced on the simulation crates.
pub const ALL_RULES: &[&str] = &[
    "unordered-iteration",
    "wall-clock-in-sim",
    "float-time",
    "float-eq",
    "panicking-seam",
];

/// Structural rules only: no float pricing happens in these crates, but
/// they must still never iterate hash containers or read wall clocks.
pub const STRUCTURAL_RULES: &[&str] = &["unordered-iteration", "wall-clock-in-sim"];

/// The workspace configuration table, in scan order.
pub const WORKSPACE: &[CrateCfg] = &[
    CrateCfg {
        rel: "crates/core",
        rules: ALL_RULES,
        float_time_boundary: &[],
    },
    CrateCfg {
        rel: "crates/hwsim",
        rules: ALL_RULES,
        float_time_boundary: &[],
    },
    CrateCfg {
        rel: "crates/model",
        rules: ALL_RULES,
        float_time_boundary: &[],
    },
    CrateCfg {
        rel: "crates/retrieval",
        rules: ALL_RULES,
        float_time_boundary: &[],
    },
    CrateCfg {
        rel: "crates/system",
        rules: ALL_RULES,
        // These four modules turn integer-ps measurements into
        // seconds/fractions for reports (p50/p99 tables, FPS, speedup
        // ratios). Nothing downstream feeds their floats back into
        // simulation time. `placement.rs` is deliberately *not* here:
        // the multi-device placement layer stays integer-ps end to end
        // so all five rules apply to it at full strength (pinned by
        // the `placement_module_is_covered_by_every_rule` test).
        float_time_boundary: &[
            "crates/system/src/ablation.rs",
            "crates/system/src/e2e.rs",
            "crates/system/src/queueing.rs",
            "crates/system/src/realtime.rs",
        ],
    },
    CrateCfg {
        rel: "crates/workload",
        rules: ALL_RULES,
        float_time_boundary: &[],
    },
    // vrex-tensor is float linear algebra: float arithmetic and
    // epsilon-free comparisons are its subject matter, but hash-order
    // iteration and wall clocks are still forbidden.
    CrateCfg {
        rel: "crates/tensor",
        rules: STRUCTURAL_RULES,
        float_time_boundary: &[],
    },
    // The facade crate re-exports and documents; hold it to the
    // structural rules so quickstarts never model time off a wall clock.
    CrateCfg {
        rel: "src",
        rules: STRUCTURAL_RULES,
        float_time_boundary: &[],
    },
    // The figure/sweep bins unwrap freely on startup and format floats
    // for tables, but their stdout is deterministic: no hash-order
    // iteration, and no wall clocks — host time is the repo
    // benchmark's job (`benchmark/`), not theirs.
    CrateCfg {
        rel: "crates/bench",
        rules: STRUCTURAL_RULES,
        float_time_boundary: &[],
    },
    // The offline shims mimic external crates' APIs verbatim.
    CrateCfg {
        rel: "crates/shims",
        rules: &[],
        float_time_boundary: &[],
    },
    // The linter's own sources spell out the very tokens the rules
    // match on; scanning itself would flag its rule tables.
    CrateCfg {
        rel: "crates/lint",
        rules: &[],
        float_time_boundary: &[],
    },
    // Facade integration tests and examples: no determinism contract.
    CrateCfg {
        rel: "tests",
        rules: &[],
        float_time_boundary: &[],
    },
    CrateCfg {
        rel: "examples",
        rules: &[],
        float_time_boundary: &[],
    },
];
