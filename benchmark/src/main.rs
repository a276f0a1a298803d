//! Benchmark entry point.
//!
//! ```text
//! refil-benchmark --workload <train_digits|infer_domainnet|serve_prompt_only|all>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line per metric, a JSON record stamped with the host, and as
//! the last line a JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 1 when an output check fails and 2 on bad arguments.

use std::process::ExitCode;

use serde::{Serialize, Value};

use refil_benchmark::report::{measure, object, record, stamp, table, Outcome};
use refil_benchmark::workload::Workload;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: refil-benchmark --workload <train_digits|infer_domainnet|\
serve_prompt_only|all> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                let w = Workload::parse(&value).ok_or(format!("unknown workload {value}"))?;
                workloads = Some(vec![w]);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("refil-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // `git rev-parse` for the stamp must not look above the directory the
    // benchmark runs in.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(std::path::Path::to_path_buf))
    {
        std::env::set_var("GIT_CEILING_DIRECTORIES", parent);
    }
    let meta = refil_bench::BenchMeta::capture();
    let single = args.workloads.len() == 1;
    let mut outcomes: Vec<Outcome> = Vec::new();
    for &w in &args.workloads {
        let outcome = measure(w, args.seed, args.seconds, args.trace);
        for line in table(&outcome) {
            println!("{line}");
        }
        for failure in &outcome.failures {
            eprintln!("{}: check failed: {failure}", w.name());
        }
        let record = record(&outcome, stamp(&meta, w.name(), args.seed, args.trace));
        println!("{}", to_json(&record));
        outcomes.push(outcome);
    }

    let mut metrics = Vec::new();
    for o in &outcomes {
        for m in o.metrics() {
            let name = if single {
                m.name.clone()
            } else {
                format!("{}.{}", o.workload.name(), m.name)
            };
            let value = object([("value", m.value.ser()), ("unit", m.unit.ser())]);
            metrics.push((name, value));
        }
    }
    let correct = outcomes.iter().all(Outcome::correct);
    let result = object([
        ("correct", correct.ser()),
        (
            "attempted",
            outcomes.iter().map(|o| o.attempted).sum::<u64>().ser(),
        ),
        (
            "failed",
            outcomes.iter().map(|o| o.failed).sum::<u64>().ser(),
        ),
        ("metrics", Value::Map(metrics)),
    ]);
    println!("{}", to_json(&result));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn to_json(value: &Value) -> String {
    serde_json::to_string(value).expect("a JSON value always serializes")
}
