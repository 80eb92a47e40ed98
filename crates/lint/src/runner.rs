//! Walks the workspace, applies the configured rules per file, and
//! attaches waivers to findings.

use crate::config::{CrateCfg, CALLERS_ONLY, WORKSPACE};
use crate::lexer::{lex, Lexed};
use crate::reach::unreached_pub;
use crate::report::{Finding, Outcome};
use crate::rules::{build_ctx, is_known_rule, rule, FileCtx, FileKind, BAD_WAIVER};
use std::io;
use std::path::{Path, PathBuf};

/// Lints every configured crate under `root` (the workspace root): the
/// per-file rules, then the workspace phase ([`unreached_pub`]) over
/// all of them plus [`CALLERS_ONLY`].
pub fn run_workspace(root: &Path) -> io::Result<Outcome> {
    let rel_of = |path: &Path| {
        path.strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/")
    };
    // (rel, config, lexed); no config for the callers-only files.
    let mut lexed = Vec::new();
    let dirs = WORKSPACE.iter().map(|cfg| (cfg.rel, Some(cfg)));
    for (dir, cfg) in dirs.chain([(CALLERS_ONLY, None)]) {
        let dir = root.join(dir);
        if !dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&dir, &mut files)?;
        files.sort();
        for path in files {
            lexed.push((rel_of(&path), cfg, lex(&std::fs::read_to_string(&path)?)));
        }
    }
    let ctxs: Vec<_> = lexed
        .iter()
        .map(|(rel, _, lx)| build_ctx(lx, classify(rel)))
        .collect();
    let scanned: Vec<_> = lexed
        .iter()
        .zip(&ctxs)
        .map(|((rel, _, _), ctx)| (rel.as_str(), ctx))
        .collect();
    let mut unreached = unreached_pub(&scanned);
    let mut out = Outcome::default();
    for ((rel, cfg, lx), ctx) in lexed.iter().zip(&ctxs) {
        let Some(cfg) = cfg else { continue };
        let mut findings = file_findings(ctx, rel, cfg);
        findings.extend(unreached.remove(rel).unwrap_or_default());
        let file_out = attach_waivers(lx, rel, findings);
        out.findings.extend(file_out.findings);
        out.unused_waivers.extend(file_out.unused_waivers);
        out.files_scanned += 1;
    }
    out.findings.sort();
    out.unused_waivers.sort();
    Ok(out)
}

/// Result of linting one file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Findings with waiver status attached, unsorted.
    pub findings: Vec<Finding>,
    /// Waivers in this file that matched nothing.
    pub unused_waivers: Vec<(String, u32)>,
}

/// Lints one file's source text under the per-file rules only (the
/// workspace phase needs the whole tree: [`run_workspace`]).
pub fn lint_source(src: &str, rel: &str, cfg: &CrateCfg) -> FileOutcome {
    let lexed = lex(src);
    let findings = file_findings(&build_ctx(&lexed, classify(rel)), rel, cfg);
    attach_waivers(&lexed, rel, findings)
}

/// The per-file rules' findings for one file, waivers not yet attached.
fn file_findings(ctx: &FileCtx, rel: &str, cfg: &CrateCfg) -> Vec<Finding> {
    let mut findings = Vec::new();
    for name in cfg.rules {
        let def = rule(name).expect("config names a registered rule");
        if ctx.kind == FileKind::Test && !def.include_tests {
            continue;
        }
        if def.lib_only && ctx.kind != FileKind::Lib {
            continue;
        }
        if *name == "float-time" && cfg.float_time_boundary.contains(&rel) {
            continue;
        }
        for raw in (def.check)(ctx) {
            findings.push(Finding {
                file: rel.to_string(),
                line: raw.line,
                rule: (*name).to_string(),
                message: raw.message,
                waived: None,
            });
        }
    }
    findings
}

/// Classifies a file as library or test/bench/example code from its
/// root-relative path.
fn classify(rel: &str) -> FileKind {
    let in_dir = |d: &str| rel.split('/').any(|seg| seg == d);
    // The facade's own sources live under `src/`; a crate's integration
    // tests under `crates/<c>/tests/`. The root `tests/` dir is Test.
    if rel.starts_with("tests/") || in_dir("benches") || in_dir("examples") {
        return FileKind::Test;
    }
    if in_dir("tests") {
        return FileKind::Test;
    }
    FileKind::Lib
}

/// Applies the file's waivers: a waiver on line `W` covers findings on
/// `W` itself (trailing comment) or — when the waiver is a standalone
/// comment line — on the next line that has code. Malformed waivers
/// become unwaivable `bad-waiver` findings; untargeted waivers are
/// reported as notes.
fn attach_waivers(lexed: &Lexed, rel: &str, mut findings: Vec<Finding>) -> FileOutcome {
    let mut unused = Vec::new();
    let has_code_on = |line: u32| lexed.toks.iter().any(|t| t.line == line);
    for w in &lexed.waivers {
        if let Some(msg) = &w.malformed {
            findings.push(Finding {
                file: rel.to_string(),
                line: w.line,
                rule: BAD_WAIVER.to_string(),
                message: msg.clone(),
                waived: None,
            });
            continue;
        }
        if let Some(bad) = w.rules.iter().find(|r| !is_known_rule(r)) {
            findings.push(Finding {
                file: rel.to_string(),
                line: w.line,
                rule: BAD_WAIVER.to_string(),
                message: format!("waiver names unknown rule `{bad}`"),
                waived: None,
            });
            continue;
        }
        // Target line: the waiver's own line when it trails code, else
        // the next line that has any token.
        let target = if has_code_on(w.line) {
            w.line
        } else {
            lexed
                .toks
                .iter()
                .map(|t| t.line)
                .filter(|&l| l > w.line)
                .min()
                .unwrap_or(w.line)
        };
        let mut used = false;
        for f in findings.iter_mut() {
            if f.line == target && f.waived.is_none() && w.rules.contains(&f.rule) {
                f.waived = Some(w.reason.clone());
                used = true;
            }
        }
        if !used {
            unused.push((rel.to_string(), w.line));
        }
    }
    FileOutcome {
        findings,
        unused_waivers: unused,
    }
}

/// Recursively collects `.rs` files, skipping `target/` build dirs and
/// `fixtures/` corpora (golden lint-test inputs that contain deliberate
/// violations and malformed waivers).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            if entry.file_name() == "target" || entry.file_name() == "fixtures" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ALL_RULES;

    const TEST_CFG: CrateCfg = CrateCfg {
        rel: "crates/fake",
        rules: ALL_RULES,
        float_time_boundary: &[],
    };

    #[test]
    fn trailing_waiver_attaches_and_reports_waived() {
        let src = "fn f(o: Option<u8>) -> u8 {\n    o.unwrap() // vrex-lint: allow(panicking-seam) — caller guarantees Some\n}\n";
        let out = lint_source(src, "crates/fake/src/a.rs", &TEST_CFG);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(
            out.findings[0].waived.as_deref(),
            Some("caller guarantees Some")
        );
        assert!(out.unused_waivers.is_empty());
    }

    #[test]
    fn standalone_waiver_covers_next_code_line() {
        let src = "fn f(o: Option<u8>) -> u8 {\n    // vrex-lint: allow(panicking-seam) — caller guarantees Some\n    o.unwrap()\n}\n";
        let out = lint_source(src, "crates/fake/src/a.rs", &TEST_CFG);
        assert_eq!(out.findings.len(), 1);
        assert!(out.findings[0].waived.is_some());
    }

    #[test]
    fn waiver_for_wrong_rule_does_not_attach() {
        let src = "fn f(o: Option<u8>) -> u8 {\n    o.unwrap() // vrex-lint: allow(float-time) — wrong rule\n}\n";
        let out = lint_source(src, "crates/fake/src/a.rs", &TEST_CFG);
        assert_eq!(out.findings.len(), 1);
        assert!(out.findings[0].waived.is_none());
        assert_eq!(out.unused_waivers.len(), 1);
    }

    #[test]
    fn malformed_waiver_is_a_bad_waiver_finding() {
        let src = "// vrex-lint: allow(panicking-seam)\nfn f(o: Option<u8>) -> u8 { o.unwrap() }\n";
        let out = lint_source(src, "crates/fake/src/a.rs", &TEST_CFG);
        let bad: Vec<_> = out
            .findings
            .iter()
            .filter(|f| f.rule == BAD_WAIVER)
            .collect();
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("mandatory"));
        // And the unwrap stays active: a reason-less waiver waives nothing.
        assert!(out
            .findings
            .iter()
            .any(|f| f.rule == "panicking-seam" && f.waived.is_none()));
    }

    #[test]
    fn boundary_module_is_exempt_from_float_time_only() {
        let cfg = CrateCfg {
            rel: "crates/fake",
            rules: ALL_RULES,
            float_time_boundary: &["crates/fake/src/report.rs"],
        };
        let src = "fn f(lat_ps: u64) -> f64 { lat_ps as f64 / 1e12 }\n";
        let boundary = lint_source(src, "crates/fake/src/report.rs", &cfg);
        assert!(boundary.findings.is_empty(), "{:?}", boundary.findings);
        let elsewhere = lint_source(src, "crates/fake/src/core.rs", &cfg);
        assert_eq!(elsewhere.findings.len(), 1);
        assert_eq!(elsewhere.findings[0].rule, "float-time");
    }

    #[test]
    fn tests_dir_skips_test_excluded_rules_but_not_structural_ones() {
        let src = "fn f(o: Option<u8>) -> u8 { let _ = std::time::Instant::now(); o.unwrap() }\n";
        let out = lint_source(src, "crates/fake/tests/props.rs", &TEST_CFG);
        // panicking-seam (lib-only) silent; wall-clock still fires.
        assert_eq!(out.findings.len(), 1, "{:?}", out.findings);
        assert_eq!(out.findings[0].rule, "wall-clock-in-sim");
    }
}
