//! The end-to-end contracts: the shipped tree lints clean (every
//! finding waived with a reason), every `float-time` carve-out masks a
//! finding, an injected violation turns the run red (an uncalled `pub`
//! item too, until the benchmark calls it), and the multi-device
//! placement module is genuinely covered by the full rule set.

use std::path::Path;
use vrex_lint::config::{CrateCfg, ALL_RULES, WORKSPACE};
use vrex_lint::rules::REGISTRY;
use vrex_lint::run_workspace;
use vrex_lint::runner::lint_source;

#[test]
fn shipped_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = run_workspace(&root).expect("workspace scan");
    let active: Vec<_> = out.findings.iter().filter(|f| f.waived.is_none()).collect();
    assert!(
        active.is_empty(),
        "unwaived findings in the shipped tree:\n{}",
        out.render_text()
    );
    // Sanity that the scan actually covered the workspace rather than
    // silently skipping it (e.g. a bad root path).
    assert!(
        out.files_scanned > 80,
        "only scanned {} files — wrong root?",
        out.files_scanned
    );
    // Every waiver in the tree must be load-bearing.
    assert!(
        out.unused_waivers.is_empty(),
        "stale waivers: {:?}",
        out.unused_waivers
    );
    // And every waiver carries a substantive reason, not a placeholder.
    for f in &out.findings {
        if let Some(reason) = &f.waived {
            assert!(
                reason.split_whitespace().count() >= 3,
                "{}:{} waiver reason too thin: {reason:?}",
                f.file,
                f.line
            );
        }
    }
}

/// The carve-out version of "every waiver must be load-bearing": each
/// file a crate exempts from `float-time` exists and, linted without
/// the exemption, has at least one `float-time` finding for it to mask.
#[test]
fn every_float_time_boundary_masks_a_finding() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut idle = Vec::new();
    for cfg in WORKSPACE {
        let unexempt = CrateCfg {
            float_time_boundary: &[],
            ..*cfg
        };
        for &rel in cfg.float_time_boundary {
            let src = std::fs::read_to_string(root.join(rel))
                .unwrap_or_else(|e| panic!("boundary {rel} unreadable: {e}"));
            let out = lint_source(&src, rel, &unexempt);
            if !out.findings.iter().any(|f| f.rule == "float-time") {
                idle.push(rel);
            }
        }
    }
    assert!(
        idle.is_empty(),
        "float-time boundaries that mask nothing: {idle:?}"
    );
}

/// The placement layer routes sessions and prices fabric migrations —
/// hash-order iteration or float time there would silently break the
/// cross-device golden fingerprints. Pin that the module is scanned
/// under *every* registered rule with no waivers and no
/// float-time-boundary carve-out: `crates/system` enforces the full
/// set, `placement.rs` is not a report boundary, and the shipped
/// source produces zero findings when all five rules are applied.
#[test]
fn placement_module_is_covered_by_every_rule() {
    let cfg = WORKSPACE
        .iter()
        .find(|c| c.rel == "crates/system")
        .expect("crates/system is configured");
    assert!(std::ptr::eq(cfg.rules, ALL_RULES));
    assert_eq!(
        cfg.rules.len(),
        REGISTRY.len(),
        "crates/system no longer enforces the full registry"
    );
    for def in REGISTRY {
        assert!(
            cfg.rules.contains(&def.name),
            "rule `{}` not enforced on crates/system",
            def.name
        );
    }
    let rel = "crates/system/src/placement.rs";
    assert!(
        !cfg.float_time_boundary.contains(&rel),
        "placement.rs must stay integer-time, not a report boundary"
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    let src = std::fs::read_to_string(&path).expect("placement.rs readable");
    let out = lint_source(&src, rel, cfg);
    assert!(
        out.findings.is_empty(),
        "placement.rs has findings (waived or not) under the full rule set:\n{:?}",
        out.findings
    );
}

#[test]
fn injected_violation_fails_the_run() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("vrex_lint_injected");
    // A crate root, and a nested module directory: splitting a file into
    // `src/serve/…` must not move its code out of the scan.
    let injected = ["crates/core/src/lib.rs", "crates/system/src/serve/sched.rs"];
    for rel in injected {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("rel has a parent")).expect("tmp tree");
        std::fs::write(
            &path,
            "pub fn now() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
        )
        .expect("write injected violation");
    }
    let out = run_workspace(&root).expect("scan tmp tree");
    assert!(out.unwaived() >= injected.len(), "{}", out.render_text());
    for rel in injected {
        assert!(
            out.findings
                .iter()
                .any(|f| f.rule == "wall-clock-in-sim" && f.file == rel),
            "no finding under {rel}:\n{}",
            out.render_text()
        );
    }
}

/// The workspace phase runs inside `run_workspace`: an uncalled `pub fn`
/// in a library crate is an active `unreached-pub` finding, and a call
/// from `benchmark/src`, which is read but never linted, clears it.
#[test]
fn uncalled_pub_fn_fails_the_run_until_the_benchmark_calls_it() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("vrex_lint_unreached");
    let lib = root.join("crates/system/src/lib.rs");
    let bench = root.join("benchmark/src/main.rs");
    for path in [&lib, &bench] {
        std::fs::create_dir_all(path.parent().expect("has a parent")).expect("tmp tree");
    }
    std::fs::write(&lib, "pub fn orphan() -> u32 {\n    7\n}\n").expect("write lib");
    std::fs::write(&bench, "fn main() {}\n").expect("write benchmark");
    let unreached = |out: &vrex_lint::Outcome| {
        out.findings
            .iter()
            .filter(|f| f.rule == "unreached-pub" && f.waived.is_none())
            .count()
    };
    let out = run_workspace(&root).expect("scan tmp tree");
    assert_eq!(unreached(&out), 1, "{}", out.render_text());
    assert_eq!(out.unwaived(), 1, "{}", out.render_text());
    std::fs::write(
        &bench,
        "fn main() {\n    let _ = vrex_system::orphan();\n}\n",
    )
    .expect("write benchmark caller");
    let out = run_workspace(&root).expect("scan tmp tree");
    assert_eq!(unreached(&out), 0, "{}", out.render_text());
    assert_eq!(out.files_scanned, 1, "the benchmark is read, not linted");
}
