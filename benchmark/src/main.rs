//! The repo benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME|all] [--seed 11] [--seconds 10] [--trace [0|1]] \
//!     [--smoke] [--repeat-check] [--json PATH]
//! ```
//!
//! With `--workload NAME` the process runs that workload itself and
//! ends its output with the one-line result object the benchmark
//! contract asks for. With `all` (the default) it runs the workloads
//! one after another, each in a child process of its own — so
//! `peak_rss_mb` is one workload's high-water mark — and nothing runs
//! concurrently. See `README.md` beside this crate.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

mod check;
mod json;
mod probes;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;
mod wrap;

use check::Expected;
use json::Value;
use run::{Options, Outcome};
use spec::{END_TO_END, PER_LAYER, WORKLOADS};

/// Where traces and the children's result files go, from the root of
/// the checkout the benchmark runs in.
const OUT_DIR: &str = "benchmark/out";
const EXPECTED_PATH: &str = "benchmark/expected.json";
const EXPECTED: &str = include_str!("../expected.json");

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat_check: bool,
    write_expected: bool,
    json: Option<PathBuf>,
}

const USAGE: &str = "usage: vrex-benchmark [--workload NAME|all] [--seed N] [--seconds S] \
     [--trace [0|1]] [--smoke] [--repeat-check] [--json PATH] [--write-expected] \
     [--print-benchmark-json]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 11,
        seconds: None,
        trace: false,
        smoke: false,
        repeat_check: false,
        write_expected: false,
        json: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} takes {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name or `all`")?,
            "--seed" => {
                args.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.smoke = true,
            "--repeat-check" => args.repeat_check = true,
            "--write-expected" => args.write_expected = true,
            "--json" => args.json = Some(PathBuf::from(value("a path")?)),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.iter().any(|w| w.name == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {} (one of: all, {})",
            args.workload,
            names.join(", ")
        ));
    }
    Ok(args)
}

impl Args {
    fn options(&self) -> Options {
        Options {
            seed: self.seed,
            // A smoke pass is one repetition of everything.
            seconds: self.seconds.unwrap_or(if self.smoke {
                0.0
            } else {
                spec::RUN_SECONDS as f64
            }),
            shrink: if self.smoke { 20 } else { 1 },
            check_pins: !self.write_expected,
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--print-benchmark-json") {
        print!("{}", spec::benchmark_json().render_pretty());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("vrex-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload in this process. Exit code 0 means a result was
/// printed; whether the outputs were correct is in the result.
fn run_one(args: &Args) -> Result<ExitCode, String> {
    let opt = args.options();
    let spec = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .expect("parse_args checked the name");
    let workload = workloads::by_name(spec.name, opt.shrink).expect("every spec name is built");
    let expected = Expected::parse(EXPECTED)?;
    let outcome = if args.trace {
        run::trace(spec, workload.as_ref(), &opt, &expected, Path::new(OUT_DIR))
    } else {
        run::measure(spec, workload.as_ref(), &opt, &expected)
    };
    print_outcome(&outcome, &opt);
    if let Some(path) = &args.json {
        write_file(path, &outcome.full_json(&opt).render_pretty())?;
    }
    println!("{}", outcome.result_json().render());
    Ok(ExitCode::SUCCESS)
}

/// Every metric by name, with its unit and which clock it is on.
fn print_outcome(o: &Outcome, opt: &Options) {
    println!(
        "== {} (seed {}, {} size, {}) ==",
        o.workload,
        opt.seed,
        opt.scale(),
        if o.traced { "traced" } else { "untraced" }
    );
    for note in &o.notes {
        println!("  {note}");
    }
    for &(name, unit, value) in &o.metrics {
        let about = match END_TO_END.iter().find(|m| m.name == name) {
            Some(m) => format!(
                "host, {} is better, bound {}%",
                m.better.label(),
                m.bound * 100.0
            ),
            None if spec::is_sim(name) => "sim, exact".into(),
            None => "host".into(),
        };
        println!("  {name:<42} = {value:>20.9} {unit:<10} ({about})");
    }
    if !o.traced {
        for &(name, value) in &o.sim {
            println!("  {name:<42} = {value:>20.9} (sim, exact; checked, not reported)");
        }
    }
    println!(
        "  checks: {} attempted, {} failed; report digest {:016x}",
        o.checks.attempted, o.checks.failed, o.digest
    );
    for failure in &o.checks.failures {
        println!("  FAILED: {failure}");
    }
}

/// One pass over the chosen workloads, each in a child process.
#[derive(Debug)]
struct Pass {
    /// The children's `--json` documents, in workload order.
    runs: Vec<Value>,
}

impl Pass {
    fn metric(run: &Value, name: &str) -> Option<f64> {
        run.get("result")?
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn name(run: &Value) -> &str {
        run.get("workload").and_then(Value::as_str).unwrap_or("?")
    }

    fn failed(&self) -> u64 {
        self.runs
            .iter()
            .filter_map(|r| r.get("result")?.get("failed")?.as_f64())
            .sum::<f64>() as u64
    }

    fn attempted(&self) -> u64 {
        self.runs
            .iter()
            .filter_map(|r| r.get("result")?.get("attempted")?.as_f64())
            .sum::<f64>() as u64
    }
}

fn run_pass(args: &Args, names: &[&str]) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let opt = args.options();
    let mut runs = Vec::new();
    for name in names {
        let result_path = Path::new(OUT_DIR).join(format!("run-{name}.json"));
        let mut child = Command::new(&exe);
        child
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &opt.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--json")
            .arg(&result_path);
        if args.smoke {
            child.arg("--smoke");
        }
        if args.write_expected {
            child.arg("--write-expected");
        }
        // `status` waits for the child; stdout is inherited.
        let status = child.status().map_err(|e| format!("spawn {name}: {e}"))?;
        if !status.success() {
            return Err(format!("{name}: child exited with {status}"));
        }
        let text = std::fs::read_to_string(&result_path)
            .map_err(|e| format!("{}: {e}", result_path.display()))?;
        runs.push(json::parse(&text)?);
        println!();
    }
    Ok(Pass { runs })
}

fn run_all(args: &Args) -> Result<ExitCode, String> {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let first = run_pass(args, &names)?;
    let mut ok = first.failed() == 0;
    let mut passes = vec![first];
    if args.repeat_check {
        passes.push(run_pass(args, &names)?);
        ok &= passes[1].failed() == 0;
        ok &= repeat_check(&passes[0], &passes[1], args.trace);
    }
    if args.write_expected {
        write_expected(args, &passes[0])?;
    }
    let summary = json::obj([
        ("correct", Value::Bool(ok)),
        (
            "attempted",
            Value::Num(passes.iter().map(Pass::attempted).sum::<u64>() as f64),
        ),
        (
            "failed",
            Value::Num(passes.iter().map(Pass::failed).sum::<u64>() as f64),
        ),
        (
            "passes",
            Value::Arr(passes.into_iter().map(|p| Value::Arr(p.runs)).collect()),
        ),
    ]);
    if let Some(path) = &args.json {
        write_file(path, &summary.render_pretty())?;
    }
    println!(
        "{}: {} check(s) attempted, {} failed",
        if ok { "OK" } else { "FAILED" },
        summary
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
        summary.get("failed").and_then(Value::as_f64).unwrap_or(0.0),
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Two passes of the same code must agree: host metrics within the
/// benchmark's own bounds, simulated outputs, report digests and
/// count-type layer metrics exactly. Prints every pair.
fn repeat_check(a: &Pass, b: &Pass, traced: bool) -> bool {
    println!("== repeat check: pass 1 against pass 2 ==");
    let mut ok = true;
    for (ra, rb) in a.runs.iter().zip(&b.runs) {
        let workload = Pass::name(ra);
        let mut pair = |name: &str, limit: Option<f64>| {
            let (Some(x), Some(y)) = (Pass::metric(ra, name), Pass::metric(rb, name)) else {
                return;
            };
            let diff = if x == y { 0.0 } else { (y - x) / x.abs() };
            let within = limit.is_none_or(|l| diff.abs() <= l);
            ok &= within;
            println!(
                "  {workload:<15} {name:<40} {x:>16.6} {y:>16.6} {:>+9.3}% {}",
                diff * 100.0,
                match (limit, within) {
                    (None, _) => "",
                    (Some(_), true) => "ok",
                    (Some(_), false) => "DISAGREE",
                }
            );
        };
        if traced {
            for m in &PER_LAYER {
                let exact = m.unit == "count" || spec::is_sim(m.name);
                pair(m.name, exact.then_some(0.0));
            }
        } else {
            for m in &END_TO_END {
                pair(m.name, Some(m.bound));
            }
        }
        let same = |key: &str| ra.get(key) == rb.get(key);
        if !(same("sim") && same("digest")) {
            ok = false;
            println!("  {workload:<15} simulated outputs or report digest DISAGREE");
        }
    }
    println!(
        "  {}",
        if ok {
            "the two passes agree"
        } else {
            "the two passes DISAGREE"
        }
    );
    ok
}

/// Re-pins this pass's simulated outputs in `expected.json`.
fn write_expected(args: &Args, pass: &Pass) -> Result<(), String> {
    if args.trace || !run::PINNED_SEEDS.contains(&args.seed) {
        return Err(format!(
            "--write-expected pins an untraced pass of seed {:?}",
            run::PINNED_SEEDS
        ));
    }
    let scale = args.options().scale();
    let mut pins = Vec::new();
    for run in &pass.runs {
        let sims = run.get("sim").and_then(Value::as_obj).unwrap_or(&[]);
        for (metric, value) in sims {
            let value = value.as_f64().ok_or("sim values are numbers")?;
            pins.push((
                Expected::key(scale, args.seed, Pass::name(run), metric),
                value,
            ));
        }
    }
    let on_disk =
        std::fs::read_to_string(EXPECTED_PATH).map_err(|e| format!("{EXPECTED_PATH}: {e}"))?;
    let prefix = format!("{scale}.{}.", args.seed);
    write_file(
        Path::new(EXPECTED_PATH),
        &Expected::parse(&on_disk)?.updated(&prefix, &pins),
    )?;
    println!(
        "pinned {} value(s) under {prefix}* in {EXPECTED_PATH}",
        pins.len()
    );
    Ok(())
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}
