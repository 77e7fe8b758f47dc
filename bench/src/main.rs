//! `ledger`: the repo's benchmark. See `bench/README.md`.
//!
//! ```text
//! ledger --workload W --seed N --seconds S --trace 0|1   one run; last line is the result JSON
//! ledger [--runs R] [--trace 1] [--quick] [--out F]      all four workloads -> bench/out/ledger.json
//! ledger --compare a.json b.json                         rows per workload x metric; exit 1 on regression
//! ```

mod client;
mod json;
mod layers;
mod ledger;
#[cfg(test)]
mod selftest;
mod stats;
mod trace;
mod traced;
mod util;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Value;
use workloads::{RunResult, RunSpec, Sizes, NAMES};

/// `--seconds` of a full-ledger run when none is given: BENCHMARK.json's.
const DEFAULT_SECONDS: f64 = 20.0;

/// Idle pause of a full-size run between its set-ups and its first timed
/// request (before anything, on a traced run). On this sandbox work that
/// follows a CPU burst (a build, the previous run, the set-ups) inherits a
/// hangover — `read_p50_us` on `tcp_classify` reads 580–620 µs instead of
/// 450 µs after ten busy seconds on both cores, and the pipelined phase runs
/// in its other regime — that a few idle seconds clear; without the pause a
/// run's numbers depend on what ran before it.
const SETTLE: std::time::Duration = std::time::Duration::from_secs(4);

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    runs: usize,
    out: Option<PathBuf>,
    detail: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        runs: 5,
        out: None,
        detail: None,
        compare: None,
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                a.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => a.trace = matches!(value(&mut it, flag)?.as_str(), "1" | "true"),
            "--runs" => {
                a.runs = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--quick" => a.quick = true,
            "--out" => a.out = Some(value(&mut it, flag)?.into()),
            "--detail" => a.detail = Some(value(&mut it, flag)?.into()),
            "--compare" => {
                a.compare = Some((value(&mut it, flag)?.into(), value(&mut it, flag)?.into()))
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &a.workload {
        if !NAMES.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {NAMES:?}"));
        }
    }
    if a.runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    Ok(a)
}

/// `bench/out`, next to this package's manifest (cargo sets the variable
/// for `cargo run`; a directly started binary falls back to the directory
/// it was compiled in).
fn out_dir() -> PathBuf {
    let manifest =
        std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").into());
    Path::new(&manifest).join("out")
}

fn spec_of(a: &Args) -> RunSpec {
    RunSpec {
        seed: a.seed,
        seconds: a
            .seconds
            .unwrap_or(if a.quick { 1.0 } else { DEFAULT_SECONDS }),
        sizes: if a.quick { Sizes::QUICK } else { Sizes::FULL },
        settle: if a.quick {
            std::time::Duration::ZERO
        } else {
            SETTLE
        },
    }
}

fn print_table(workload: &str, r: &RunResult) {
    println!("# {workload}");
    for m in &r.metrics {
        let n = if m.n > 0 {
            format!("n={}", m.n)
        } else {
            String::new()
        };
        println!("{:<36} {:>16.4} {:<6} {n}", m.name, m.value, m.unit);
    }
    println!(
        "{:<36} {:>16.4} {:<6} failed={} attempted={}",
        "failed_pct",
        ledger::failed_pct(r),
        "%",
        r.failed,
        r.attempted
    );
    for why in &r.invalid {
        println!("invalid: {why}");
    }
}

/// One workload, one run: the driver's contract.
fn run_one(a: &Args, workload: &str) -> ExitCode {
    let spec = spec_of(a);
    let mut r = if a.trace {
        traced::run(workload, &spec, &out_dir())
    } else {
        match workload {
            "tcp_classify" => workloads::tcp_classify::run(&spec),
            "tcp_mixed" => workloads::tcp_mixed::run(&spec),
            "durable_train" => workloads::durable_train::run(&spec),
            _ => workloads::sql_mixed::run(&spec),
        }
    };
    r.put("peak_rss_mb", util::peak_rss_mb(), "MB");
    print_table(workload, &r);
    if let Some(path) = &a.detail {
        let doc = ledger::run_json(workload, spec.seed, a.trace, &r);
        if let Err(e) = std::fs::write(path, doc.to_pretty()) {
            eprintln!("ledger: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let wanted: Vec<(&str, &str)> = if a.trace {
        ledger::PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
    } else {
        ledger::gated().map(|d| (d.name, d.unit)).collect()
    };
    match ledger::result_line(&r, &wanted) {
        Ok(line) => {
            println!("{line}");
            if r.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs `workload` in a child process (so `peak_rss_mb` is that workload's
/// alone) and reads back its detail file.
fn child_run(
    a: &Args,
    workload: &str,
    seed: u64,
    trace: bool,
    dir: &Path,
) -> Result<Value, String> {
    let detail = dir.join(format!("run-{workload}-{seed}-{}.json", u8::from(trace)));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    cmd.arg("--seconds").arg(spec_of(a).seconds.to_string());
    cmd.arg("--detail").arg(&detail);
    if a.quick {
        cmd.arg("--quick");
    }
    // `status` waits for the child to end; nothing is left running
    let status = cmd
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| e.to_string())?;
    let text = std::fs::read_to_string(&detail)
        .map_err(|e| format!("{workload} (exit {status}) left no detail file: {e}"))?;
    let _ = std::fs::remove_file(&detail);
    json::parse(&text)
}

/// All four workloads, `--runs` runs each, into one ledger file.
fn run_all(a: &Args) -> ExitCode {
    let dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("ledger: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let spec = spec_of(a);
    let mut all_correct = true;
    let mut per_workload = Vec::new();
    for w in NAMES {
        let mut runs = Vec::new();
        for k in 0..a.runs as u64 {
            match child_run(a, w, a.seed + k, false, &dir) {
                Ok(run) => runs.push(run),
                Err(e) => {
                    eprintln!("ledger: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        all_correct &= runs
            .iter()
            .all(|r| r.get("correct") == Some(&Value::Bool(true)));
        let summary = ledger::summarize(&runs);
        println!(
            "# {w}: {} run(s), seeds {}..{}",
            runs.len(),
            a.seed,
            a.seed + a.runs as u64 - 1
        );
        for (name, m) in summary.as_obj().unwrap_or(&[]) {
            let num = |k: &str| m.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            println!(
                "{:<36} {:>16.4} {:<6} iqr/median {:>5.1}%",
                name,
                num("median"),
                m.get("unit").and_then(Value::as_str).unwrap_or(""),
                num("spread") * 100.0
            );
        }
        let mut entry = vec![("summary", summary), ("runs", Value::Arr(runs))];
        if a.trace {
            match child_run(a, w, a.seed, true, &dir) {
                Ok(run) => {
                    all_correct &= run.get("correct") == Some(&Value::Bool(true));
                    println!("## {w} per layer (traced run, seed {})", a.seed);
                    for (name, m) in run.get("metrics").and_then(Value::as_obj).unwrap_or(&[]) {
                        println!(
                            "{:<36} {:>16.4} {}",
                            name,
                            m.get("value").and_then(Value::as_f64).unwrap_or(0.0),
                            m.get("unit").and_then(Value::as_str).unwrap_or("")
                        );
                    }
                    entry.push(("traced", run));
                }
                Err(e) => {
                    eprintln!("ledger: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        per_workload.push((w, Value::obj(entry)));
    }
    let params = Value::obj(vec![
        ("seed", Value::Num(a.seed as f64)),
        ("seconds", Value::Num(spec.seconds)),
        ("runs", Value::Num(a.runs as f64)),
        ("quick", Value::Bool(a.quick)),
        ("sizes", spec.sizes.json()),
        (
            "flush_policy",
            Value::Str(workloads::durable_train::FLUSH_POLICY.into()),
        ),
        (
            "checkpoint_interval_ops",
            Value::Num(workloads::durable_train::CHECKPOINT_INTERVAL as f64),
        ),
        ("shards", Value::Num(workloads::SHARDS as f64)),
    ]);
    let doc = Value::obj(vec![
        ("schema", Value::Num(1.0)),
        ("provenance", Value::Obj(util::provenance())),
        ("params", params),
        ("workloads", Value::obj(per_workload)),
    ]);
    let path = a.out.clone().unwrap_or_else(|| dir.join("ledger.json"));
    if let Err(e) = std::fs::write(&path, doc.to_pretty()) {
        eprintln!("ledger: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!("wrote {}", path.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("ledger: an oracle disagreed or an operation failed (see failed_pct)");
        ExitCode::from(1)
    }
}

fn compare(a: &Path, b: &Path) -> ExitCode {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| json::parse(&t))
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let mut text = String::new();
            let regressed = ledger::compare(&a, &b, &mut text);
            print!("{text}");
            if regressed {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare(a, b);
    }
    match &args.workload {
        Some(w) => run_one(&args, w),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload tcp_mixed --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("tcp_mixed"), 7, Some(10.0), true)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--frobnicate")).is_err());
    }

    /// BENCHMARK.json is hand-written; the binary prints what these tables
    /// say. They must name the same workloads and metrics.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc =
            json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
                .unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field =
                        |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, NAMES);
        let e2e: Vec<(String, String)> = ledger::gated()
            .map(|d| (d.name.into(), d.unit.into()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> = ledger::PER_LAYER
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
        for (m, d) in doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .zip(ledger::gated())
        {
            assert_eq!(
                m.get("bound").and_then(Value::as_f64),
                Some(d.driver_bound()),
                "{}",
                d.name
            );
            assert_eq!(
                m.get("better").and_then(Value::as_str),
                Some(d.better.name()),
                "{}",
                d.name
            );
        }
        let layer_directions = doc.get("per_layer").and_then(Value::as_arr).unwrap();
        for (m, (name, _, better)) in layer_directions.iter().zip(ledger::PER_LAYER) {
            assert_eq!(
                m.get("better").and_then(Value::as_str),
                Some(better.name()),
                "{name}"
            );
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }
}
