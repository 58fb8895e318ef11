//! The commands that drive whole sets of runs.  Every workload run is a
//! fresh child process (this binary re-executed with `--workload`), so
//! `peak_rss_mb` is per workload and nothing carries over between
//! workloads; children run one at a time, round-robin over workloads.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

use crate::compare::{compare, Summary};
use crate::json::{self, Value};
use crate::workload::{bench_dir, out_dir, WORKLOADS};

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the commands use.
#[derive(Debug)]
pub struct Benchmark {
    pub run_seconds: u64,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<(String, String)>,
}

pub fn load_benchmark() -> Result<Benchmark, String> {
    let path = bench_dir().join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
    Ok(Benchmark {
        run_seconds: v
            .get("run_seconds")
            .and_then(Value::as_u64)
            .ok_or("BENCHMARK.json: no run_seconds")?,
        end_to_end: v
            .get("end_to_end")
            .map(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| MetricDecl {
                name: field(m, "name"),
                unit: field(m, "unit"),
                higher_is_better: field(m, "better") == "higher",
                bound: m.get("bound").and_then(Value::as_f64).unwrap_or(0.0),
            })
            .collect(),
        per_layer: v
            .get("per_layer")
            .map(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect(),
    })
}

/// Parsed result line of one child run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, String)>,
}

/// Runs this binary with `args` in a child process, passes its stderr
/// through, and parses the last line of its stdout.
pub fn child(args: &[String]) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this binary: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start {args:?}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let v = json::parse(last).map_err(|e| {
        format!(
            "{args:?} exited with {} and no result line ({e})",
            out.status
        )
    })?;
    let metrics = v
        .get("metrics")
        .map(Value::members)
        .unwrap_or_default()
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN),
                m.get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect();
    Ok(RunResult {
        correct: v.get("correct").and_then(Value::as_bool) == Some(true) && out.status.success(),
        attempted: v.get("attempted").and_then(Value::as_u64).unwrap_or(0),
        failed: v.get("failed").and_then(Value::as_u64).unwrap_or(0),
        metrics,
    })
}

fn workload_args(workload: &str, seed: u64, seconds: u64, trace: bool) -> Vec<String> {
    [
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]
    .map(String::from)
    .to_vec()
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checkout's commit, when it is a git repository.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(bench_dir())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// `run`: every workload `rounds` times, round-robin; prints each
/// end-to-end metric's median and quartiles with the sample count, and
/// writes the runs to `out/run-seed<seed>.json` for `compare`.
pub fn run(seed: u64, rounds: usize, history: bool) -> Result<bool, String> {
    let bench = load_benchmark()?;
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let mut results: Vec<Vec<RunResult>> = vec![Vec::new(); WORKLOADS.len()];
    for round in 0..rounds {
        for (w, workload) in WORKLOADS.iter().enumerate() {
            eprintln!("== round {}/{rounds}: {workload} (seed {seed})", round + 1);
            results[w].push(child(&workload_args(
                workload,
                seed,
                bench.run_seconds,
                false,
            ))?);
        }
    }
    let mut ok = true;
    let mut table = format!(
        "\nend-to-end metrics, seed {seed}: median [q1, q3] of {rounds} runs \
         (one child process per run, nproc {})\n",
        nproc()
    );
    let mut report = format!(
        "{{\"seed\": {seed}, \"nproc\": {}, \"commit\": {}, \"seconds\": {}, \"workloads\": {{",
        nproc(),
        json::str_lit(&commit()),
        bench.run_seconds
    );
    let mut medians = String::new();
    for (w, workload) in WORKLOADS.iter().enumerate() {
        let runs = &results[w];
        let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
        let failed: u64 = runs.iter().map(|r| r.failed).sum();
        ok &= runs.iter().all(|r| r.correct);
        let _ = writeln!(
            table,
            "{workload}: attempted {attempted}, failed {failed}, failed_share {} ({})",
            json::num(failed as f64 / attempted.max(1) as f64),
            if runs.iter().all(|r| r.correct) {
                "correct"
            } else {
                "INCORRECT"
            }
        );
        let _ = write!(
            report,
            "{}{}: {{\"attempted\": [{}], \"failed\": [{}], \"metrics\": {{",
            if w > 0 { ", " } else { "" },
            json::str_lit(workload),
            join(runs.iter().map(|r| r.attempted.to_string())),
            join(runs.iter().map(|r| r.failed.to_string())),
        );
        let _ = write!(
            medians,
            "{}{}: {{",
            if w > 0 { ", " } else { "" },
            json::str_lit(workload)
        );
        for (i, decl) in bench.end_to_end.iter().enumerate() {
            let values = metric_values(runs, &decl.name);
            if values.len() != runs.len() {
                ok = false;
                let _ = writeln!(table, "  {:<18} MISSING", decl.name);
                continue;
            }
            let s = Summary::of(&values);
            let _ = writeln!(
                table,
                "  {:<18} {:>14} [{}, {}] {} (n = {})",
                decl.name,
                fmt(s.median),
                fmt(s.q1),
                fmt(s.q3),
                decl.unit,
                s.n
            );
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                report,
                "{sep}{}: {{\"unit\": {}, \"values\": [{}]}}",
                json::str_lit(&decl.name),
                json::str_lit(&decl.unit),
                join(values.iter().map(|v| json::num(*v)))
            );
            let _ = write!(
                medians,
                "{sep}{}: {}",
                json::str_lit(&decl.name),
                json::num(s.median)
            );
        }
        report.push_str("}}");
        medians.push('}');
    }
    report.push_str("}}\n");
    print!("{table}");
    let path = out_dir().join(format!("run-seed{seed}.json"));
    std::fs::write(&path, report).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("runs written to {}", path.display());
    if history && ok {
        let line = format!(
            "{{\"commit\": {}, \"nproc\": {}, \"seed\": {seed}, \"rounds\": {rounds}, \
             \"seconds\": {}, \"medians\": {{{medians}}}}}\n",
            json::str_lit(&commit()),
            nproc(),
            bench.run_seconds
        );
        let path = bench_dir().join("history.jsonl");
        std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("append {}: {e}", path.display()))?;
        println!("appended the medians to {}", path.display());
    }
    if !ok {
        println!("FAILED: a run was incorrect or missed a metric");
    }
    Ok(ok)
}

fn metric_values(runs: &[RunResult], name: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.metrics.iter().find(|(n, _, _)| n == name).map(|m| m.1))
        .collect()
}

fn join(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(", ")
}

/// A table cell: whole numbers for large values, four decimals for
/// moderate ones, scientific notation for small ones.
fn fmt(x: f64) -> String {
    match x.abs() {
        a if a >= 1e4 || a == 0.0 => format!("{x:.0}"),
        a if a >= 0.01 => format!("{x:.4}"),
        _ => format!("{x:.3e}"),
    }
}

/// `trace`: every workload once with probes; prints every per-layer
/// metric.  Spans land in `out/trace-<workload>.jsonl`.
pub fn trace(seed: u64) -> Result<bool, String> {
    let bench = load_benchmark()?;
    let mut ok = true;
    let mut rows: Vec<(String, Vec<Option<f64>>)> = bench
        .per_layer
        .iter()
        .map(|(name, unit)| (format!("{name} ({unit})"), Vec::new()))
        .collect();
    for workload in WORKLOADS {
        eprintln!("== traced run: {workload} (seed {seed})");
        let r = child(&workload_args(workload, seed, bench.run_seconds, true))?;
        ok &= r.correct;
        for ((name, _), row) in bench.per_layer.iter().zip(&mut rows) {
            row.1
                .push(r.metrics.iter().find(|(n, _, _)| n == name).map(|m| m.1));
        }
    }
    println!("\nper-layer metrics, seed {seed} (one traced run per workload):");
    let mut header = format!("  {:<48}", "metric");
    for w in WORKLOADS {
        let _ = write!(header, " {w:>14}");
    }
    println!("{header}");
    for (label, values) in &rows {
        let mut line = format!("  {label:<48}");
        for v in values {
            ok &= v.is_some();
            let _ = write!(line, " {:>14}", v.map_or("MISSING".into(), fmt));
        }
        println!("{line}");
    }
    Ok(ok)
}

/// `compare <a> <b>`: `b` against `a`, per workload and end-to-end
/// metric.
pub fn compare_files(a: &Path, b: &Path) -> Result<(), String> {
    let bench = load_benchmark()?;
    let load = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (va, vb) = (load(a)?, load(b)?);
    println!(
        "{} (base) vs {} (new); wins are pairs the new side won",
        a.display(),
        b.display()
    );
    for workload in WORKLOADS {
        println!("{workload}:");
        for decl in &bench.end_to_end {
            let values = |v: &Value| -> Vec<f64> {
                v.get("workloads")
                    .and_then(|w| w.get(workload))
                    .and_then(|w| w.get("metrics"))
                    .and_then(|m| m.get(&decl.name))
                    .and_then(|m| m.get("values"))
                    .map(|vals| vals.as_arr().iter().filter_map(Value::as_f64).collect())
                    .unwrap_or_default()
            };
            let (base, new) = (values(&va), values(&vb));
            if base.is_empty() || new.is_empty() {
                println!("  {:<18} not in both files", decl.name);
                continue;
            }
            let c = compare(&base, &new, decl.higher_is_better, decl.bound);
            println!(
                "  {:<18} base {} [{}, {}]  new {} [{}, {}] {}  wins {}/{} (ties {})  bound {}  {}",
                decl.name,
                fmt(c.base.median),
                fmt(c.base.q1),
                fmt(c.base.q3),
                fmt(c.new.median),
                fmt(c.new.q1),
                fmt(c.new.q3),
                decl.unit,
                c.wins,
                c.wins + c.losses + c.ties,
                c.ties,
                decl.bound,
                c.verdict.as_str()
            );
        }
    }
    Ok(())
}

/// The deep record: configurations too long for every set, run once
/// each in their own process.
pub const RECORD_POINTS: [&str; 3] = ["alg1-4-5", "alg2-3-5", "alg2-5-1"];

/// `record`: runs the deep record points and writes
/// `records/deep.json`.
pub fn record() -> Result<bool, String> {
    let mut ok = true;
    let mut body = Vec::new();
    for point in RECORD_POINTS {
        eprintln!("== record point {point}");
        let r = child(&["--record-point".to_string(), point.to_string()])?;
        ok &= r.correct;
        let fields: Vec<String> = r
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::str_lit(n),
                    json::num(*v),
                    json::str_lit(u)
                )
            })
            .collect();
        body.push(format!(
            "    {{\"point\": {}, \"correct\": {}, \"metrics\": {{{}}}}}",
            json::str_lit(point),
            r.correct,
            fields.join(", ")
        ));
    }
    let dir = bench_dir().join("records");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let text = format!(
        "{{\n  \"commit\": {},\n  \"nproc\": {},\n  \"points\": [\n{}\n  ]\n}}\n",
        json::str_lit(&commit()),
        nproc(),
        body.join(",\n")
    );
    let path = dir.join("deep.json");
    std::fs::write(&path, &text).map_err(|e| format!("write {}: {e}", path.display()))?;
    print!("{text}");
    println!("written to {}", path.display());
    Ok(ok)
}
