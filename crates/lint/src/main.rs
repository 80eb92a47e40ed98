//! The `vrex-lint` CLI: see crate docs in `lib.rs`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
vrex-lint — determinism and public-surface reachability lint for the V-Rex workspace

USAGE:
    vrex-lint --workspace [--root DIR] [--json FILE]

OPTIONS:
    --workspace    Lint every configured crate (required)
    --root DIR     Workspace root (default: auto-detected)
    --json FILE    Also write findings as JSON to FILE

Exit codes: 0 clean (waived findings allowed), 1 active findings, 2 error.

Waive a finding inline, reason mandatory:
    // vrex-lint: allow(<rule>) — <why this is sound>
";

fn main() -> ExitCode {
    let mut workspace = false;
    let mut root: Option<PathBuf> = None;
    let mut json: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workspace" => workspace = true,
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage_error("--root needs a directory"),
            },
            "--json" => match args.next() {
                Some(v) => json = Some(PathBuf::from(v)),
                None => return usage_error("--json needs a file path"),
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }
    if !workspace {
        return usage_error("--workspace is required");
    }
    let root = match root.map_or_else(detect_root, Ok) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("vrex-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match vrex_lint::run_workspace(&root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("vrex-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", outcome.render_text());
    if let Some(path) = json {
        if let Err(e) = std::fs::write(&path, outcome.render_json()) {
            eprintln!("vrex-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if outcome.unwaived() > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("vrex-lint: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

/// Finds the workspace root: the nearest ancestor of the current dir
/// whose `Cargo.toml` declares `[workspace]`, falling back to the
/// compile-time manifest location (two levels above `crates/lint`).
fn detect_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("cannot read current dir: {e}"))?;
    let mut dir: Option<&Path> = Some(&cwd);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    let fallback = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    fallback
        .canonicalize()
        .map_err(|e| format!("no workspace root found from {} ({e})", cwd.display()))
}
