//! The determinism/time-integrity rule registry.
//!
//! Every rule is a token-level pattern over one file's [`lexer`] output.
//! Rules are deliberately heuristic — `vrex-lint` has no type
//! information — but each heuristic is tuned so the shipped workspace
//! is clean and every fixture in `tests/fixtures/` triggers exactly the
//! golden findings. The invariants each rule protects are documented in
//! `ARCHITECTURE.md` ("Determinism invariants & vrex-lint").
//!
//! [`lexer`]: crate::lexer

use crate::lexer::{Lexed, Tok, TokKind};
use std::collections::BTreeSet;

/// How a file is classified for rule applicability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A file under a crate's `src/` tree: library code.
    Lib,
    /// A file under `tests/`, `benches/`, or `examples/`: treated as
    /// one whole test region.
    Test,
}

/// A rule match before the runner attaches file/rule/waiver context.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RawFinding {
    /// 1-indexed source line.
    pub line: u32,
    /// Human-readable description of the specific match.
    pub message: String,
}

/// Per-file context shared by all rule check functions.
#[derive(Debug)]
pub struct FileCtx<'a> {
    /// Lexed tokens and waivers.
    pub lexed: &'a Lexed,
    /// `true` at token index `i` when the token sits inside a
    /// `#[cfg(test)]` / `#[test]` item (or the whole file is a test).
    pub in_test: Vec<bool>,
    /// `true` at token index `i` when the token is masked from the
    /// `float-time` rule: inside a sanctioned ps-conversion call
    /// (`seconds_to_ps(...)` and friends) or an `fn` signature's
    /// name-plus-parameter span.
    pub masked: Vec<bool>,
    /// Library vs test classification of the whole file.
    pub kind: FileKind,
}

/// Static description of one registered rule.
#[derive(Debug)]
pub struct RuleDef {
    /// Rule name as used in findings, config, and waivers.
    pub name: &'static str,
    /// One-line summary shown in `--help`-style listings.
    pub summary: &'static str,
    /// Whether the rule also applies inside `#[cfg(test)]` regions and
    /// `tests/` files.
    pub include_tests: bool,
    /// Whether the rule only applies to library (`src/`) files.
    pub lib_only: bool,
    /// The check function.
    pub check: fn(&FileCtx) -> Vec<RawFinding>,
}

/// Name of the synthetic rule reported for malformed waivers. It is
/// not waivable and not part of [`REGISTRY`]'s check functions.
pub const BAD_WAIVER: &str = "bad-waiver";

/// Name of the workspace-phase rule ([`crate::reach`]): a `pub` item
/// of a library crate that nothing outside tests names. It needs every
/// file at once, so it is not in [`REGISTRY`]'s per-file checks.
pub const UNREACHED_PUB: &str = "unreached-pub";

/// The registered determinism rules, in reporting order.
pub const REGISTRY: &[RuleDef] = &[
    RuleDef {
        name: "unordered-iteration",
        summary: "iterating (or collecting into) HashMap/HashSet, whose order varies run-to-run",
        include_tests: true,
        lib_only: false,
        check: check_unordered_iteration,
    },
    RuleDef {
        name: "wall-clock-in-sim",
        summary: "Instant/SystemTime inside simulation crates (sim time must be integer ps)",
        include_tests: true,
        lib_only: false,
        check: check_wall_clock,
    },
    RuleDef {
        name: "float-time",
        summary: "f32/f64 arithmetic touching a `_ps` identifier outside report boundaries",
        include_tests: false,
        lib_only: false,
        check: check_float_time,
    },
    RuleDef {
        name: "float-eq",
        summary: "`==`/`!=` against float operands (bit-exactness is pinned via integers)",
        include_tests: false,
        lib_only: false,
        check: check_float_eq,
    },
    RuleDef {
        name: "panicking-seam",
        summary: "unwrap/expect/panic!/unreachable!/todo! in non-test library code",
        include_tests: false,
        lib_only: true,
        check: check_panicking_seam,
    },
];

/// Looks a rule up by name.
pub fn rule(name: &str) -> Option<&'static RuleDef> {
    REGISTRY.iter().find(|r| r.name == name)
}

/// `true` when `name` is a valid waiver target (a registered rule or
/// the workspace phase's).
pub fn is_known_rule(name: &str) -> bool {
    name == UNREACHED_PUB || rule(name).is_some()
}

/// Builds the per-token context ([`FileCtx`]) for one lexed file.
pub fn build_ctx(lexed: &Lexed, kind: FileKind) -> FileCtx<'_> {
    let n = lexed.toks.len();
    let mut in_test = vec![kind == FileKind::Test; n];
    if kind == FileKind::Lib {
        for (start, end) in test_spans(&lexed.toks) {
            for flag in in_test.iter_mut().take(end + 1).skip(start) {
                *flag = true;
            }
        }
    }
    FileCtx {
        lexed,
        in_test,
        masked: float_time_mask(&lexed.toks),
        kind,
    }
}

fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
}

fn punct_at(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i)
        .filter(|t| t.kind == TokKind::Punct)
        .map(|t| t.text.as_str())
}

/// Finds `#[cfg(test)]` / `#[test]`-gated item spans as token-index
/// ranges. An attribute group mentioning `test` without `not` marks the
/// next braced item (or, for `#[test] fn f();`-style declarations, up
/// to the terminating `;`).
fn test_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if punct_at(toks, i) == Some("#") && punct_at(toks, i + 1) == Some("[") {
            let attr_start = i;
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut has_test = false;
            let mut has_not = false;
            while j < toks.len() && depth > 0 {
                match punct_at(toks, j) {
                    Some("[") => depth += 1,
                    Some("]") => depth -= 1,
                    _ => match ident_at(toks, j) {
                        Some("test") => has_test = true,
                        Some("not") => has_not = true,
                        _ => {}
                    },
                }
                j += 1;
            }
            if has_test && !has_not {
                // Skip to the item's opening brace (or terminating `;`).
                let mut k = j;
                while k < toks.len() {
                    match punct_at(toks, k) {
                        Some("{") => break,
                        Some(";") => break,
                        _ => k += 1,
                    }
                }
                if punct_at(toks, k) == Some("{") {
                    let mut bd = 1usize;
                    let mut m = k + 1;
                    while m < toks.len() && bd > 0 {
                        match punct_at(toks, m) {
                            Some("{") => bd += 1,
                            Some("}") => bd -= 1,
                            _ => {}
                        }
                        m += 1;
                    }
                    spans.push((attr_start, m.saturating_sub(1)));
                    i = m;
                    continue;
                }
                spans.push((attr_start, k));
                i = k + 1;
                continue;
            }
            i = j;
        } else {
            i += 1;
        }
    }
    spans
}

/// Conversion helpers whose argument spans are the *sanctioned* places
/// floats may meet picoseconds: they take float rates/seconds in and
/// hand integer ps out (all defined in `vrex_core::time`).
const SANCTIONED_PS_CONVERSIONS: &[&str] = &["seconds_to_ps", "ps_to_seconds", "transfer_ps"];

/// Masks token spans the `float-time` rule must not look inside:
/// sanctioned conversion calls and `fn` signature name/parameter lists
/// (declaring `fn op_ps(..., utilization: f64)` is not arithmetic).
fn float_time_mask(toks: &[Tok]) -> Vec<bool> {
    let mut masked = vec![false; toks.len()];
    let mask_call = |masked: &mut Vec<bool>, start: usize, open: usize| {
        let mut depth = 1usize;
        let mut m = open + 1;
        while m < toks.len() && depth > 0 {
            match punct_at(toks, m) {
                Some("(") => depth += 1,
                Some(")") => depth -= 1,
                _ => {}
            }
            m += 1;
        }
        for flag in masked.iter_mut().take(m).skip(start) {
            *flag = true;
        }
    };
    let mut i = 0usize;
    while i < toks.len() {
        if let Some(name) = ident_at(toks, i) {
            if SANCTIONED_PS_CONVERSIONS.contains(&name) && punct_at(toks, i + 1) == Some("(") {
                mask_call(&mut masked, i, i + 1);
            } else if name == "fn" {
                // Mask the declared name and its parameter list: scan to
                // the first `(` before the body starts.
                let mut k = i + 1;
                while k < toks.len() {
                    match punct_at(toks, k) {
                        Some("(") => break,
                        Some("{") | Some(";") => break,
                        _ => k += 1,
                    }
                }
                if punct_at(toks, k) == Some("(") {
                    mask_call(&mut masked, i + 1, k);
                }
            }
        }
        i += 1;
    }
    masked
}

/// Iteration methods whose order exposes hash-map/-set layout.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Keyed-lookup methods that never observe layout order (listed for
/// documentation; the rule flags iteration, everything else passes).
#[allow(dead_code)]
const ALLOWED_METHODS: &[&str] = &[
    "get",
    "get_mut",
    "insert",
    "remove",
    "contains",
    "contains_key",
    "entry",
    "len",
    "is_empty",
];

fn check_unordered_iteration(ctx: &FileCtx) -> Vec<RawFinding> {
    let toks = &ctx.lexed.toks;
    let mut out = Vec::new();
    // Pass 1: names bound or typed as HashMap/HashSet in this file.
    let mut known: BTreeSet<&str> = BTreeSet::new();
    for i in 0..toks.len() {
        if ident_at(toks, i)
            .filter(|t| *t == "HashMap" || *t == "HashSet")
            .is_none()
        {
            continue;
        }
        // Walk back over the path prefix (`std :: collections ::`) and
        // reference sigils to the binding/typing punctuation.
        let mut j = i;
        while j > 0 {
            let prev = j - 1;
            match (toks[prev].kind, toks[prev].text.as_str()) {
                (TokKind::Punct, "::") => j = prev,
                (TokKind::Punct, "&") => j = prev,
                (TokKind::Ident, "mut" | "dyn") => j = prev,
                (TokKind::Ident, _) if punct_at(toks, j) == Some("::") => j = prev,
                _ => break,
            }
        }
        if j == 0 {
            continue;
        }
        let name_idx = match (toks[j - 1].kind, toks[j - 1].text.as_str()) {
            // `name: HashMap<..>` (field, param, or annotated let).
            (TokKind::Punct, ":") => j.checked_sub(2),
            // `let [mut] name = HashMap::new()`.
            (TokKind::Punct, "=") => j.checked_sub(2),
            _ => None,
        };
        if let Some(ni) = name_idx {
            if let Some(name) = ident_at(toks, ni) {
                known.insert(name);
            }
        }
        // Collect-into detection: a statement that mentions both the
        // container type and `collect` builds an unordered container
        // from an iterator — the canonical prelude to ordered misuse.
        let stmt_start = (0..i)
            .rev()
            .find(|&k| matches!(punct_at(toks, k), Some(";" | "{" | "}")))
            .map_or(0, |k| k + 1);
        let stmt_end = (i..toks.len())
            .find(|&k| punct_at(toks, k) == Some(";"))
            .unwrap_or(toks.len().saturating_sub(1));
        if ident_at(toks, stmt_start) == Some("use") {
            continue;
        }
        if (stmt_start..=stmt_end).any(|k| ident_at(toks, k) == Some("collect")) {
            out.push(RawFinding {
                line: toks[i].line,
                message: format!(
                    "collect()s into {} — hash order can leak into any later iteration; \
                     use BTreeMap/BTreeSet or sorted materialization",
                    toks[i].text
                ),
            });
        }
    }
    // Pass 2: iteration over a known unordered container.
    for i in 0..toks.len() {
        let Some(name) = ident_at(toks, i).filter(|n| known.contains(n)) else {
            continue;
        };
        if punct_at(toks, i + 1) == Some(".") {
            if let Some(m) = ident_at(toks, i + 2).filter(|m| ITER_METHODS.contains(m)) {
                if punct_at(toks, i + 3) == Some("(") {
                    out.push(RawFinding {
                        line: toks[i + 2].line,
                        message: format!(
                            "`{name}.{m}()` iterates a HashMap/HashSet in hash order; \
                             keyed lookup is fine, iteration order is not deterministic"
                        ),
                    });
                }
            }
        }
    }
    // Pass 3: `for _ in [&[mut]] <known>`-style loops.
    for i in 0..toks.len() {
        if ident_at(toks, i) != Some("in") {
            continue;
        }
        let mut j = i + 1;
        while matches!(
            (
                toks.get(j).map(|t| t.kind),
                toks.get(j).map(|t| t.text.as_str())
            ),
            (Some(TokKind::Punct), Some("&")) | (Some(TokKind::Ident), Some("mut"))
        ) {
            j += 1;
        }
        if let Some(name) = ident_at(toks, j).filter(|n| known.contains(n)) {
            if punct_at(toks, j + 1) != Some(".") {
                out.push(RawFinding {
                    line: toks[j].line,
                    message: format!(
                        "for-loop over `{name}` iterates a HashMap/HashSet in hash order"
                    ),
                });
            }
        }
    }
    dedup_findings(out)
}

fn check_wall_clock(ctx: &FileCtx) -> Vec<RawFinding> {
    let toks = &ctx.lexed.toks;
    let mut out = Vec::new();
    for t in toks.iter() {
        if t.kind == TokKind::Ident && (t.text == "Instant" || t.text == "SystemTime") {
            out.push(RawFinding {
                line: t.line,
                message: format!(
                    "`{}` reads the host wall clock; simulation time is integer picoseconds \
                     (vrex_core::time) — wall clocks live only in crates/bench",
                    t.text
                ),
            });
        }
    }
    dedup_findings(out)
}

fn check_float_time(ctx: &FileCtx) -> Vec<RawFinding> {
    let toks = &ctx.lexed.toks;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let line = toks[i].line;
        let mut end = i;
        while end < toks.len() && toks[end].line == line {
            end += 1;
        }
        let visible = (i..end).filter(|&k| !ctx.masked[k] && !ctx.in_test[k]);
        let mut ps_ident: Option<&str> = None;
        let mut has_float = false;
        for k in visible {
            let t = &toks[k];
            match t.kind {
                TokKind::Ident if t.text.ends_with("_ps") || t.text.ends_with("_PS") => {
                    ps_ident.get_or_insert(t.text.as_str());
                }
                TokKind::Ident if t.text == "f32" || t.text == "f64" => has_float = true,
                TokKind::Float => has_float = true,
                _ => {}
            }
        }
        if let (Some(name), true) = (ps_ident, has_float) {
            out.push(RawFinding {
                line,
                message: format!(
                    "float arithmetic touches `{name}`: picosecond values must stay integer \
                     until a report boundary (seconds_to_ps/ps_to_seconds are the sanctioned \
                     conversions)"
                ),
            });
        }
        i = end;
    }
    out
}

fn check_float_eq(ctx: &FileCtx) -> Vec<RawFinding> {
    let toks = &ctx.lexed.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        let Some(op) = punct_at(toks, i).filter(|p| *p == "==" || *p == "!=") else {
            continue;
        };
        let float_tok = |k: usize| -> bool {
            match toks.get(k) {
                Some(t) if t.kind == TokKind::Float => true,
                Some(t) if t.kind == TokKind::Ident => t.text == "f32" || t.text == "f64",
                _ => false,
            }
        };
        // `x == 0.5`, `0.5 == x`, `a as f64 == b`, `x == -0.5`.
        let rhs = if punct_at(toks, i + 1) == Some("-") {
            i + 2
        } else {
            i + 1
        };
        if (i > 0 && float_tok(i - 1)) || float_tok(rhs) {
            out.push(RawFinding {
                line: toks[i].line,
                message: format!(
                    "`{op}` compares float operands; exact float equality is only meaningful \
                     at golden-pinning sites — compare integers or pin bit patterns"
                ),
            });
        }
    }
    out
}

fn check_panicking_seam(ctx: &FileCtx) -> Vec<RawFinding> {
    let toks = &ctx.lexed.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        let Some(name) = ident_at(toks, i) else {
            continue;
        };
        match name {
            "unwrap" | "expect"
                if i > 0
                    && punct_at(toks, i - 1) == Some(".")
                    && punct_at(toks, i + 1) == Some("(") =>
            {
                out.push(RawFinding {
                    line: toks[i].line,
                    message: format!(
                        "`.{name}()` in library code panics across the serving seam; \
                         return an error, make the invariant total, or waive with the \
                         invariant spelled out"
                    ),
                });
            }
            "panic" | "unreachable" | "todo" if punct_at(toks, i + 1) == Some("!") => {
                out.push(RawFinding {
                    line: toks[i].line,
                    message: format!(
                        "`{name}!` in library code aborts the simulation; \
                         waivers must state why the state is impossible"
                    ),
                });
            }
            _ => {}
        }
    }
    out
}

fn dedup_findings(mut v: Vec<RawFinding>) -> Vec<RawFinding> {
    v.sort();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(rule_name: &str, src: &str, kind: FileKind) -> Vec<RawFinding> {
        let lexed = lex(src);
        let ctx = build_ctx(&lexed, kind);
        (rule(rule_name).unwrap().check)(&ctx)
    }

    #[test]
    fn keyed_lookup_passes_iteration_fails() {
        let src = "
            fn f(map: std::collections::HashMap<u64, u64>) -> u64 {
                let hit = map.get(&3).copied().unwrap_or(0);
                let mut sum = hit;
                for (_k, v) in &map { sum += v; }
                sum + map.keys().count() as u64
            }";
        let f = run("unordered-iteration", src, FileKind::Lib);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.message.contains("for-loop")));
        assert!(f.iter().any(|x| x.message.contains("keys()")));
    }

    #[test]
    fn collect_into_hashset_fires() {
        let src = "fn f(xs: &[usize]) {
            let s: std::collections::HashSet<usize> = xs.iter().copied().collect();
            assert!(s.contains(&1));
        }";
        let f = run("unordered-iteration", src, FileKind::Lib);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("collect"));
    }

    #[test]
    fn use_statement_does_not_fire() {
        let src = "use std::collections::{HashMap, HashSet};";
        assert!(run("unordered-iteration", src, FileKind::Lib).is_empty());
    }

    #[test]
    fn sanctioned_conversion_and_fn_decl_are_masked() {
        let src = "
            fn op_ps(flops: u64, utilization: f64) -> u64 {
                seconds_to_ps(flops as f64 / 1.0e12) + FIXED_OVERHEAD_PS
            }";
        assert!(run("float-time", src, FileKind::Lib).is_empty());
    }

    #[test]
    fn float_ps_arithmetic_fires() {
        let src = "fn f(x_ps: u64) -> u64 { (x_ps as f64 * 0.9) as u64 }";
        let f = run("float-time", src, FileKind::Lib);
        // The fn signature masks `f(x_ps: u64)`; the body still fires
        // because the masked span ends at the parameter list's `)`.
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn test_regions_are_skipped_where_configured() {
        let src = "
            #[cfg(test)]
            mod tests {
                fn g() { let x = opt.unwrap(); }
            }
            fn h(o: Option<u8>) -> u8 { o.unwrap() }";
        let f = run("panicking-seam", src, FileKind::Lib);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "
            #[cfg(not(test))]
            fn h(o: Option<u8>) -> u8 { o.unwrap() }";
        assert_eq!(run("panicking-seam", src, FileKind::Lib).len(), 1);
    }

    #[test]
    fn unwrap_or_is_not_flagged() {
        let src = "fn h(o: Option<u8>) -> u8 { o.unwrap_or(0) }";
        assert!(run("panicking-seam", src, FileKind::Lib).is_empty());
    }

    #[test]
    fn float_eq_adjacency() {
        let src = "fn f(a: f64, b: u64) -> bool { a == 0.5 || b == 3 }";
        let f = run("float-eq", src, FileKind::Lib);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn wall_clock_fires_even_in_tests() {
        let src = "#[cfg(test)] mod t { fn f() { let _ = std::time::Instant::now(); } }";
        assert_eq!(run("wall-clock-in-sim", src, FileKind::Lib).len(), 1);
    }
}
