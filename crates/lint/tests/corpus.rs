//! Golden corpus tests: every `.rs` fixture under `tests/fixtures/`
//! has a sidecar `.expected` file listing the findings it must produce,
//! one per line, as `line:rule:active|waived` (unused waivers appear as
//! `line:unused-waiver:note`). The corpus is also the meta-proof that
//! every registered rule actually fires on something. The workspace
//! phase needs a tree, not a file: `fixtures/unreached_pub/` is a
//! miniature workspace, its golden `unreached_pub.expected` prefixes
//! each row with the file.

use std::path::{Path, PathBuf};
use vrex_lint::config::ALL_RULES;
use vrex_lint::rules::{BAD_WAIVER, REGISTRY};
use vrex_lint::runner::{lint_source, FileOutcome};
use vrex_lint::{run_workspace, CrateCfg};

const FIXTURE_CFG: CrateCfg = CrateCfg {
    rel: "crates/fixture",
    rules: ALL_RULES,
    float_time_boundary: &[],
};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_stems() -> Vec<String> {
    let mut stems: Vec<String> = std::fs::read_dir(fixtures_dir())
        .expect("fixtures dir exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .map(|p| p.file_stem().expect("stem").to_string_lossy().into_owned())
        .collect();
    stems.sort();
    stems
}

fn lint_fixture(stem: &str) -> FileOutcome {
    let src = std::fs::read_to_string(fixtures_dir().join(format!("{stem}.rs")))
        .expect("fixture readable");
    // Fixtures pose as library files of a synthetic crate so every rule
    // (including the lib-only panicking-seam) applies.
    lint_source(&src, &format!("crates/fixture/src/{stem}.rs"), &FIXTURE_CFG)
}

/// Renders a file outcome in the golden format, sorted by
/// (line, rule, status).
fn render(out: &FileOutcome) -> Vec<String> {
    let mut rows: Vec<(u32, String)> = out
        .findings
        .iter()
        .map(|f| {
            let status = if f.waived.is_some() {
                "waived"
            } else {
                "active"
            };
            (f.line, format!("{}:{}:{status}", f.line, f.rule))
        })
        .collect();
    rows.extend(
        out.unused_waivers
            .iter()
            .map(|(_, line)| (*line, format!("{line}:unused-waiver:note"))),
    );
    rows.sort();
    rows.into_iter().map(|(_, s)| s).collect()
}

#[test]
fn every_fixture_matches_its_golden_expectations() {
    let stems = fixture_stems();
    assert!(stems.len() >= 6, "corpus shrank: {stems:?}");
    for stem in &stems {
        let expected_path = fixtures_dir().join(format!("{stem}.expected"));
        let expected: Vec<String> = std::fs::read_to_string(&expected_path)
            .unwrap_or_else(|_| panic!("fixture {stem}.rs has no sidecar {stem}.expected"))
            .lines()
            .map(str::to_string)
            .collect();
        assert!(!expected.is_empty(), "{stem}.expected is empty");
        let got = render(&lint_fixture(stem));
        assert_eq!(
            got, expected,
            "fixture {stem}.rs diverged from {stem}.expected"
        );
    }
}

#[test]
fn every_registered_rule_fires_somewhere_in_the_corpus() {
    let mut fired: Vec<String> = Vec::new();
    for stem in fixture_stems() {
        fired.extend(lint_fixture(&stem).findings.into_iter().map(|f| f.rule));
    }
    for def in REGISTRY {
        assert!(
            fired.iter().any(|r| r == def.name),
            "rule `{}` fires on no fixture — the corpus no longer proves it works",
            def.name
        );
    }
    // The synthetic bad-waiver rule must be exercised too (reason-less
    // and unknown-rule waivers in waivers.rs).
    assert!(fired.iter().any(|r| r == BAD_WAIVER));
}

#[test]
fn waived_findings_are_reported_not_dropped() {
    let out = lint_fixture("waivers");
    let waived: Vec<_> = out.findings.iter().filter(|f| f.waived.is_some()).collect();
    assert_eq!(waived.len(), 2, "{:?}", out.findings);
    for f in &waived {
        let reason = f.waived.as_deref().expect("waived");
        assert!(
            !reason.trim().is_empty(),
            "waiver attached without a reason: {f:?}"
        );
        assert!(reason.contains("fixture:"), "reason lost text: {reason}");
    }
    // Waived findings still show up in both renderers.
    let outcome = vrex_lint::Outcome {
        findings: out.findings.clone(),
        files_scanned: 1,
        unused_waivers: Vec::new(),
    };
    let txt = outcome.render_text();
    assert!(txt.contains("waived — fixture: caller checked is_some()"));
    let js = outcome.render_json();
    assert!(js.contains("\"waived\": true"));
    assert!(js.contains("fixture: slot is always armed here"));
}

/// The seven `unreached-pub` cases: an uncalled `pub fn` (and a
/// `pub const`) is a finding; one called from another crate's non-test
/// code or from `benchmark/src` is not; a `pub const fn` referenced only
/// under `#[cfg(test)]` and in `tests/` is; a trait-impl method and a
/// `pub(crate)` item are not indexed; a waived one is reported waived.
#[test]
fn unreached_pub_fixture_matches_its_golden_expectations() {
    let out = run_workspace(&fixtures_dir().join("unreached_pub")).expect("scan fixture tree");
    let mut got: Vec<String> = out
        .findings
        .iter()
        .map(|f| {
            let status = if f.waived.is_some() {
                "waived"
            } else {
                "active"
            };
            format!("{}:{}:{}:{status}", f.file, f.line, f.rule)
        })
        .collect();
    got.extend(
        out.unused_waivers
            .iter()
            .map(|(file, line)| format!("{file}:{line}:unused-waiver:note")),
    );
    let expected: Vec<String> =
        std::fs::read_to_string(fixtures_dir().join("unreached_pub.expected"))
            .expect("golden readable")
            .lines()
            .map(str::to_string)
            .collect();
    assert_eq!(got, expected, "{}", out.render_text());
}
