//! The workspace phase: `unreached-pub`. Every `pub` definition in the
//! non-test regions of the [`PUB_INDEXED`] crates must have its name
//! among the identifiers of a caller region: the non-test code of every
//! scanned crate, `src/`, `examples/` and [`CALLERS_ONLY`]. A
//! definition's own name is not a caller. The index is by name only, so
//! a dead item whose name collides with a live identifier passes unseen
//! (ARCHITECTURE.md, "The workspace phase").
//!
//! [`PUB_INDEXED`]: crate::config::PUB_INDEXED
//! [`CALLERS_ONLY`]: crate::config::CALLERS_ONLY

use crate::config::PUB_INDEXED;
use crate::lexer::{Tok, TokKind};
use crate::report::Finding;
use crate::rules::{FileCtx, FileKind, UNREACHED_PUB};
use std::collections::{BTreeMap, BTreeSet};

/// Item keywords whose `pub` definitions the index tracks.
const ITEM_KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];

/// Runs the phase over every scanned `(root-relative path, context)`:
/// the `unreached-pub` findings, unwaived, keyed by file.
pub fn unreached_pub(files: &[(&str, &FileCtx)]) -> BTreeMap<String, Vec<Finding>> {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for &(rel, ctx) in files {
        // Examples are test files to the per-file rules, but callers here.
        let example = rel.starts_with("examples/");
        // A definition's own name (`fn new`) calls nothing.
        let mut defines = false;
        for (t, &test) in ctx.lexed.toks.iter().zip(&ctx.in_test) {
            if t.kind == TokKind::Ident && !defines && (example || !test) {
                seen.insert(&t.text);
            }
            defines = t.kind == TokKind::Ident && ITEM_KEYWORDS.contains(&t.text.as_str());
        }
    }
    let indexed = |rel: &str| {
        PUB_INDEXED
            .iter()
            .any(|d| rel.starts_with(&format!("{d}/src/")))
    };
    let mut out: BTreeMap<String, Vec<Finding>> = BTreeMap::new();
    for &(rel, ctx) in files {
        if ctx.kind != FileKind::Lib || !indexed(rel) {
            continue;
        }
        for (kw, name) in pub_defs(ctx) {
            if !seen.contains(name.text.as_str()) {
                out.entry(rel.to_string()).or_default().push(Finding {
                    file: rel.to_string(),
                    line: name.line,
                    rule: UNREACHED_PUB.to_string(),
                    message: format!(
                        "`pub {kw} {}` has no caller outside tests: delete it, move it under \
                         #[cfg(test)], or waive it naming its consumer",
                        name.text
                    ),
                    waived: None,
                });
            }
        }
    }
    out
}

/// The `pub` definitions outside test regions: (item keyword, name).
fn pub_defs<'a>(ctx: &'a FileCtx) -> Vec<(&'a str, &'a Tok)> {
    let toks = &ctx.lexed.toks;
    let ident = |k: usize| {
        toks.get(k)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
    };
    let mut out = Vec::new();
    for i in 0..toks.len() {
        // `pub(crate)`, `pub(super)` and `pub(in ..)` are not public.
        if ctx.in_test[i]
            || ident(i) != Some("pub")
            || toks.get(i + 1).is_some_and(|t| t.text == "(")
        {
            continue;
        }
        // Skip qualifiers (`unsafe fn`, `extern "C" fn`, `const fn`); a
        // `const` before a name is the item itself.
        let mut k = i + 1;
        while toks.get(k).is_some_and(|t| t.kind == TokKind::Literal)
            || matches!(ident(k), Some("async" | "unsafe" | "extern"))
            || (ident(k) == Some("const")
                && matches!(ident(k + 1), Some("fn" | "async" | "unsafe" | "extern")))
        {
            k += 1;
        }
        let Some(kw) = ident(k).filter(|w| ITEM_KEYWORDS.contains(w)) else {
            continue;
        };
        if let Some(name) = toks.get(k + 1).filter(|t| t.kind == TokKind::Ident) {
            out.push((kw, name));
        }
    }
    out
}
