//! Benchmark of the model checker and the lock runtime, measured from
//! outside through the libraries' public API.  See README.md.
//!
//! Commands (`cargo run --release --manifest-path bench/Cargo.toml -- …`):
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload; the last stdout line is the JSON result;
//! * `run [--seed N] [--rounds R] [--history]` — every workload `R`
//!   times (default 3) in fresh child processes, with medians and
//!   quartiles; `--history` appends the medians to `history.jsonl`;
//! * `trace [--seed N]` — every workload once with probes, printing
//!   every per-layer metric;
//! * `record` — the deep record points, written to `records/deep.json`;
//! * `compare A.json B.json` — two `run` reports, per workload and
//!   metric.

mod compare;
mod json;
mod lock;
mod mc;
mod orchestrate;
mod rng;
mod spans;
mod stats;
mod workload;

use std::path::Path;
use std::process::ExitCode;

use workload::{Args, Outcome};

const USAGE: &str = "usage: amx-perfbench --workload W --seed N --seconds S --trace 0|1
       amx-perfbench run [--seed N] [--rounds R] [--history]
       amx-perfbench trace [--seed N]
       amx-perfbench record
       amx-perfbench compare A.json B.json";

fn parse_num<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
    v.as_deref()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{flag} needs a non-negative integer"))
}

fn child_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => workload = it.next(),
            "--seed" => seed = Some(parse_num("--seed", it.next())?),
            "--seconds" => seconds = Some(parse_num("--seconds", it.next())?),
            "--trace" => {
                trace = Some(match it.next().as_deref() {
                    Some("0") => false,
                    Some("1") => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Prints a child's result line; the exit code says whether every
/// output checked out.
fn emit(outcome: Outcome) -> ExitCode {
    println!("{}", outcome.to_json());
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().cloned().peekable();
    let result = match it.peek().map(String::as_str) {
        Some("--workload" | "--seed" | "--seconds" | "--trace") => {
            return match child_args(it).and_then(|a| workload::run(&a)) {
                Ok(outcome) => emit(outcome),
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("--record-point") => {
            return match workload::record_point(args.get(1).map_or("", String::as_str)) {
                Ok(outcome) => emit(outcome),
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("run") => {
            it.next();
            let (mut seed, mut rounds, mut history) = (1u64, 3usize, false);
            let mut parsed = Ok(());
            while let Some(flag) = it.next() {
                let r = match flag.as_str() {
                    "--seed" => parse_num("--seed", it.next()).map(|v| seed = v),
                    "--rounds" => parse_num("--rounds", it.next()).map(|v| rounds = v),
                    "--history" => {
                        history = true;
                        Ok(())
                    }
                    other => Err(format!("unknown flag {other}")),
                };
                if r.is_err() {
                    parsed = r;
                    break;
                }
            }
            parsed.and_then(|()| orchestrate::run(seed, rounds.max(1), history))
        }
        Some("trace") => {
            it.next();
            match (it.next().as_deref(), it.next()) {
                (None, _) => orchestrate::trace(1),
                (Some("--seed"), v) => parse_num("--seed", v).and_then(orchestrate::trace),
                _ => Err(USAGE.into()),
            }
        }
        Some("record") => orchestrate::record(),
        Some("compare") if args.len() == 3 => {
            orchestrate::compare_files(Path::new(&args[1]), Path::new(&args[2])).map(|()| true)
        }
        _ => Err(USAGE.into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
