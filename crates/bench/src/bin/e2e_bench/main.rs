//! **e2e_bench** — the repository's benchmark: four workloads through
//! the whole pipeline, fifteen end-to-end metrics, and an outside-in
//! per-layer attribution. See `README.md` beside this file, and
//! `BENCHMARK.json` at the repository root for the contract it meets.
//!
//! ```sh
//! # one workload, as the benchmark driver runs it
//! e2e_bench --workload lineitem_e2e --seed 42 --seconds 24 --trace 0
//! # every workload, each in its own child process
//! e2e_bench --all [--seed N] [--seconds S] [--trace] [--quick] [--out FILE]
//! # the untraced suite twice (with --trace, the traced one too); fails
//! # when two runs of one build disagree
//! e2e_bench --repeat-check [--trace] [--seed N] [--seconds S] [--quick]
//! ```

mod data;
mod engine;
mod host;
mod metrics;
mod oracle;
mod pipeline;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use metrics::{Better, Def};
use pipeline::{Metric, Options, Outcome};
use workloads::{Spec, NAMES};

const DEFAULT_SEED: u64 = 42;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 24.0;
const QUICK_SECONDS: f64 = 1.0;

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    Workload(String),
    All,
    RepeatCheck,
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    mode: Mode,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

const USAGE: &str = "usage: e2e_bench (--workload NAME | --all | --repeat-check) \
    [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out FILE] [--trace-out FILE]";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        mode: Mode::All,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
        trace_out: None,
    };
    let mut mode = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => mode = Some(Mode::Workload(value("a workload name")?)),
            "--all" => mode = Some(Mode::All),
            "--repeat-check" => mode = Some(Mode::RepeatCheck),
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                out.seconds = Some(s);
            }
            // `--trace 0|1` as the driver passes it, or a bare flag.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    out.trace = false;
                }
                Some("1") => {
                    it.next();
                    out.trace = true;
                }
                _ => out.trace = true,
            },
            "--quick" => out.quick = true,
            "--out" => out.out = Some(value("a path")?.into()),
            "--trace-out" => out.trace_out = Some(value("a path")?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    out.mode = mode.ok_or("one of --workload, --all, --repeat-check is required")?;
    if let Mode::Workload(name) = &out.mode {
        if !NAMES.contains(&name.as_str()) {
            return Err(format!("unknown workload {name}; there are {NAMES:?}"));
        }
    }
    Ok(out)
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }
}

/// The declared metrics of the run's kind, in declared order.
fn declared(trace: bool) -> Vec<Def> {
    if trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    }
}

/// The last line of a workload run: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the metrics exactly the declared ones.
fn result_line(outcome: &Outcome, defs: &[Def]) -> Result<String, String> {
    let mut fields = Vec::new();
    for d in defs {
        let found: Vec<&Metric> = outcome
            .metrics
            .iter()
            .filter(|m| m.name == d.name)
            .collect();
        let [m] = found[..] else {
            return Err(format!("metric {} reported {} times", d.name, found.len()));
        };
        if !m.value.is_finite() {
            return Err(format!("metric {} is {}", d.name, m.value));
        }
        fields.push((
            d.name.clone(),
            serde_json::json!({ "value": m.value, "unit": d.unit }),
        ));
    }
    let doc = serde::Value::Object(vec![
        (
            "correct".to_owned(),
            serde::Value::Bool(outcome.failed == 0),
        ),
        (
            "attempted".to_owned(),
            serde::Value::UInt(outcome.attempted),
        ),
        ("failed".to_owned(), serde::Value::UInt(outcome.failed)),
        ("metrics".to_owned(), serde::Value::Object(fields)),
    ]);
    serde_json::to_string(&doc).map_err(|e| e.to_string())
}

/// glibc's allocator told to keep what the process frees: never trim the
/// heap top, never give a large allocation a mapping of its own. In this
/// sandbox a page touched for the first time costs 5 to 50 µs of system
/// time, at the host's whim, and with the defaults every cycle touches
/// hundreds of MB anew: the same compaction then takes 0.8 s or 3 s. The
/// settings apply to parent and change alike; the engine is unaware.
const HEAP_SETTINGS: [(&str, &str); 3] = [
    ("MALLOC_TRIM_THRESHOLD_", "1099511627776"),
    ("MALLOC_TOP_PAD_", "67108864"),
    ("MALLOC_MMAP_MAX_", "0"),
];

/// Replaces the process by itself with [`HEAP_SETTINGS`] in the
/// environment (glibc reads them only at start-up), unless they are all
/// there already; a setting the caller made is kept.
#[cfg(unix)]
fn pin_heap() {
    use std::os::unix::process::CommandExt;
    let unset = |key: &&str| std::env::var_os(key).is_none();
    if !HEAP_SETTINGS.iter().any(|(key, _)| unset(key)) {
        return;
    }
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    let error = Command::new(exe)
        .args(std::env::args_os().skip(1))
        .envs(HEAP_SETTINGS.into_iter().filter(|(key, _)| unset(key)))
        .exec();
    eprintln!("keeping the allocator's defaults: {error}");
}

#[cfg(not(unix))]
fn pin_heap() {}

fn run_workload(name: &str, args: &Args) -> ExitCode {
    pin_heap();
    let spec = Spec::named(name, args.quick).expect("parse checked the name");
    let header = host::Header::probe(engine::kernel_tier());
    header.print();
    println!(
        "# run: workload={name} seed={} seconds={} trace={} quick={}",
        args.seed,
        args.seconds(),
        u8::from(args.trace),
        args.quick
    );
    // Inside the working directory: the benchmark writes nowhere else.
    let scratch = PathBuf::from(format!(".e2e_bench_scratch/{name}-{}", std::process::id()));
    let options = Options {
        seed: args.seed,
        seconds: args.seconds(),
        trace: args.trace,
        quick: args.quick,
        scratch,
        trace_out: args.trace_out.clone(),
    };
    let outcome = pipeline::run(&spec, &options);
    std::fs::remove_dir(".e2e_bench_scratch").ok();

    for note in &outcome.notes {
        println!("# {note}");
    }
    let defs = declared(args.trace);
    for d in &defs {
        for m in outcome.metrics.iter().filter(|m| m.name == d.name) {
            // Sample count beside every timing; for a median, the
            // samples' interquartile distance as a share of it.
            let n = match (m.n, m.spread) {
                (0, _) => String::new(),
                (n, None) => format!("  (n={n})"),
                (n, Some(iqr)) => format!("  (n={n}, iqr={:.1}%)", iqr * 100.0),
            };
            println!("{:<44} {:>18.6} {}{n}", m.name, m.value, d.unit);
        }
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "{:<44} {error_rate:>18.6} fraction  ({} failed of {} attempted)",
        "error_rate", outcome.failed, outcome.attempted
    );
    for e in &outcome.errors {
        eprintln!("failed: {e}");
    }
    match result_line(&outcome, &defs) {
        Ok(line) => {
            println!("{line}");
            if outcome.failed == 0 && outcome.attempted > 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("no result: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One workload in a child process of its own, so that `peak_rss_mb` is
/// the workload's; returns the parsed result line.
fn run_child(name: &str, args: &Args) -> Result<serde::Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    if let Some(path) = &args.trace_out {
        cmd.arg("--trace-out")
            .arg(format!("{}.{name}", path.display()));
    }
    let output = cmd.output().map_err(|e| format!("spawning {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("{name} exited with {}", output.status));
    }
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{name} printed nothing"))?;
    serde_json::from_str(last).map_err(|e| format!("{name}: {e}"))
}

fn run_all(args: &Args) -> Result<Vec<(&'static str, serde::Value)>, String> {
    NAMES
        .iter()
        .map(|name| {
            println!("## {name}");
            run_child(name, args).map(|doc| (*name, doc))
        })
        .collect()
}

fn value_of(doc: &serde::Value, metric: &str) -> Option<f64> {
    doc.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

fn print_table(defs: &[Def], runs: &[(&'static str, serde::Value)]) {
    print!("\n{:<44}", "metric");
    for (name, _) in runs {
        print!(" {name:>16}");
    }
    println!("  unit");
    for d in defs {
        print!("{:<44}", d.name);
        for (_, doc) in runs {
            match value_of(doc, &d.name) {
                Some(v) => print!(" {v:>16.6}"),
                None => print!(" {:>16}", "-"),
            }
        }
        println!("  {}", d.unit);
    }
}

fn all(args: &Args) -> ExitCode {
    let runs = match run_all(args) {
        Ok(runs) => runs,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    print_table(&declared(args.trace), &runs);
    if let Some(path) = &args.out {
        let doc = serde::Value::Object(vec![
            (
                "host".to_owned(),
                host::Header::probe(engine::kernel_tier()).to_json(),
            ),
            ("seed".to_owned(), serde::Value::UInt(args.seed)),
            ("seconds".to_owned(), serde::Value::Float(args.seconds())),
            ("trace".to_owned(), serde::Value::Bool(args.trace)),
            ("quick".to_owned(), serde::Value::Bool(args.quick)),
            (
                "workloads".to_owned(),
                serde::Value::Object(
                    runs.iter()
                        .map(|(n, d)| ((*n).to_owned(), d.clone()))
                        .collect(),
                ),
            ),
        ]);
        let written = serde_json::to_string(&doc)
            .map_err(|e| e.to_string())
            .and_then(|s| std::fs::write(path, s).map_err(|e| e.to_string()));
        if let Err(e) = written {
            eprintln!("writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// By how much of `first` the second reading is worse, in `d`'s
/// direction (negative when it is better).
fn worsening(d: &Def, first: f64, second: f64) -> f64 {
    match d.better {
        Better::Lower => (second - first) / first.abs(),
        Better::Higher => (first - second) / first.abs(),
    }
}

/// Runs the suite twice and counts the metrics on which the two runs
/// disagree: an exact one that differs at all, a bounded one that is
/// worse by more than its bound. Unbounded timings are not compared, and
/// in quick mode no timing is: a millisecond-scale phase repeats within
/// no bound.
fn disagreements(args: &Args, defs: &[Def]) -> Result<usize, String> {
    let (first, second) = (run_all(args)?, run_all(args)?);
    let mut count = 0;
    println!(
        "\n{:<16} {:<36} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "first", "second", "worse by"
    );
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        for d in defs
            .iter()
            .filter(|d| d.exact || (d.bound > 0.0 && !args.quick))
        {
            let (Some(x), Some(y)) = (value_of(a, &d.name), value_of(b, &d.name)) else {
                println!("{name:<16} {:<36} missing", d.name);
                count += 1;
                continue;
            };
            // Either order may be the worse one: the two runs are peers.
            let worse = if x == y {
                0.0
            } else {
                worsening(d, x, y).max(worsening(d, y, x))
            };
            let (ok, verdict) = match (d.exact, x == y, worse <= d.bound) {
                (true, true, _) => (true, "exact"),
                (true, false, _) => (false, "DIFFERS (exact metric)"),
                (false, _, true) => (true, "within bound"),
                (false, _, false) => (false, "OUTSIDE BOUND"),
            };
            println!(
                "{name:<16} {:<36} {x:>16.6} {y:>16.6} {:>8.2}%  {verdict}",
                d.name,
                worse * 100.0
            );
            count += usize::from(!ok);
        }
    }
    Ok(count)
}

/// The untraced suite twice on one build; with `--trace`, the traced
/// suite twice as well, for the per-layer counts that must repeat.
fn repeat_check(args: &Args) -> ExitCode {
    let untraced = Args {
        trace: false,
        ..args.clone()
    };
    let mut total = disagreements(&untraced, &metrics::end_to_end());
    if args.trace {
        total = total.and_then(|n| Ok(n + disagreements(args, &metrics::per_layer())?));
    }
    match total {
        Ok(0) => {
            println!("repeat-check: the runs agree");
            ExitCode::SUCCESS
        }
        Ok(n) => {
            println!("repeat-check: {n} disagreements");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.mode {
        Mode::Workload(name) => run_workload(name, &args),
        Mode::All => all(&args),
        Mode::RepeatCheck => repeat_check(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_command_line_and_the_bare_flag() {
        let a = parse(&argv(
            "--workload ts_ingest --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.mode, Mode::Workload("ts_ingest".into()));
        assert_eq!((a.seed, a.seconds(), a.trace), (7, 20.0, true));
        let a = parse(&argv("--workload ts_ingest --trace 0 --quick")).unwrap();
        assert_eq!(
            (a.trace, a.quick, a.seconds()),
            (false, true, QUICK_SECONDS)
        );
        let a = parse(&argv("--all --trace --out x.json")).unwrap();
        assert_eq!((a.mode, a.trace, a.seed), (Mode::All, true, DEFAULT_SEED));
        assert_eq!(a.out, Some("x.json".into()));
        assert!(parse(&argv("--seed 1")).is_err(), "a mode is required");
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--all --seconds 0")).is_err());
        assert!(parse(&argv("--all --frobnicate")).is_err());
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = &metrics::end_to_end()[0];
        let higher = &metrics::end_to_end()[1];
        assert_eq!(
            (lower.better, higher.better),
            (Better::Lower, Better::Higher)
        );
        assert!((worsening(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(higher, 10.0, 11.0) < 0.0);
    }

    /// The tier-1 smoke test: every workload at quick size, untraced and
    /// traced, emits every declared metric exactly once under a valid
    /// name, and no operation fails.
    #[test]
    fn quick_runs_emit_every_declared_metric_once_and_fail_nothing() {
        for name in NAMES {
            for trace in [false, true] {
                let spec = Spec::named(name, true).unwrap();
                let scratch = std::env::temp_dir().join(format!(
                    "e2e_bench_smoke_{}_{name}_{}",
                    std::process::id(),
                    u8::from(trace)
                ));
                let options = Options {
                    seed: 42,
                    seconds: 0.2,
                    trace,
                    quick: true,
                    scratch: scratch.clone(),
                    trace_out: None,
                };
                let outcome = pipeline::run(&spec, &options);
                assert_eq!(
                    outcome.failed, 0,
                    "{name} trace={trace}: {:?}",
                    outcome.errors
                );
                assert!(outcome.attempted > 100, "{name}: {}", outcome.attempted);
                assert!(
                    !scratch.exists(),
                    "{name} left {} behind",
                    scratch.display()
                );
                let line = result_line(&outcome, &declared(trace))
                    .unwrap_or_else(|e| panic!("{name} trace={trace}: {e}"));
                let doc = serde_json::from_str(&line).unwrap();
                assert_eq!(doc.get("correct").and_then(|c| c.as_bool()), Some(true));
                let keys: Vec<&str> = doc
                    .as_object()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let reported = doc.get("metrics").and_then(|m| m.as_object()).unwrap();
                assert_eq!(reported.len(), declared(trace).len());
                if !trace {
                    for (metric, v) in reported {
                        let v = v.get("value").and_then(|v| v.as_f64()).unwrap();
                        assert!(v != 0.0, "{name}: end-to-end metric {metric} is 0");
                    }
                }
            }
        }
    }
}
