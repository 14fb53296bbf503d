//! `pipebench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints a detail line and then, as the last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when a run
//! failed or an output check did not hold, 2 on a usage or set-up error.
//! `--workload all` runs every workload in its own process and prints one
//! table of their metrics.

use cs_core::json::{self, JsonValue};
use pipebench::measure::{bench, parse_args, Args, USAGE};
use pipebench::pipeline::Workload;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Where the traced run writes its spans, relative to the working
/// directory.
const SPANS_DIR: &str = ".bench_out";

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pipebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(workload, &args, start),
        None => run_all(&args),
    }
}

fn run_one(workload: Workload, args: &Args, start: Instant) -> ExitCode {
    let report = match bench(workload, args, start) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("pipebench: {}: {e}", workload.name());
            return ExitCode::from(2);
        }
    };
    if let Some(spans) = &report.spans {
        let path = format!(
            "{SPANS_DIR}/spans-{}-seed{}.json",
            workload.name(),
            args.seed
        );
        let written =
            std::fs::create_dir_all(SPANS_DIR).and_then(|()| std::fs::write(&path, spans.write()));
        match written {
            Ok(()) => eprintln!("pipebench: spans written to {path}"),
            Err(e) => eprintln!("pipebench: could not write {path}: {e}"),
        }
    }
    println!(
        "{}",
        JsonValue::object(vec![("detail", report.detail.clone())]).write()
    );
    println!("{}", report.result_json().write());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs each workload in a child process (so `peak_rss_mb` is its own)
/// and prints every metric by name with its unit and sample count.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("pipebench: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    println!(
        "{:<12} {:<28} {:>14} {:<6} {:>7}",
        "workload", "metric", "value", "unit", "samples"
    );
    for w in Workload::ALL {
        let output = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let output = match output {
            Ok(o) => o,
            Err(e) => {
                eprintln!("pipebench: {}: {e}", w.name());
                ok = false;
                continue;
            }
        };
        ok &= output.status.success();
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines = stdout.lines().rev();
        let (Some(result), Some(detail)) = (lines.next(), lines.next()) else {
            eprintln!("pipebench: {} printed no result", w.name());
            ok = false;
            continue;
        };
        let (Ok(result), Ok(detail)) = (json::parse(result), json::parse(detail)) else {
            eprintln!("pipebench: {} printed an unreadable result", w.name());
            ok = false;
            continue;
        };
        let detail = detail.get("detail");
        let field = |k: &str| detail.and_then(|d| d.get(k)).and_then(JsonValue::as_f64);
        let runs = field(if args.trace {
            "traced_samples"
        } else {
            "samples"
        });
        let row = |name: &str, value: f64, unit: &str, samples: Option<f64>| {
            let samples = samples.map_or("-".to_string(), |n| n.to_string());
            println!(
                "{:<12} {name:<28} {value:>14.4} {unit:<6} {samples:>7}",
                w.name()
            );
        };
        if let Some(JsonValue::Object(metrics)) = result.get("metrics") {
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or("");
                let samples = match name.as_str() {
                    "setup_s" => field("setups"),
                    "peak_rss_mb" => Some(1.0),
                    _ => runs,
                };
                row(name, value, unit, samples);
            }
        }
        if !args.trace {
            match detail.and_then(|d| d.get("run_ms_p90")) {
                Some(JsonValue::Number(p90)) => row("run_ms_p90", *p90, "ms", runs),
                Some(JsonValue::String(why)) => {
                    println!("{:<12} {:<28} {why}", w.name(), "run_ms_p90")
                }
                _ => {}
            }
        }
        row(
            "error_rate",
            field("error_rate").unwrap_or(f64::NAN),
            "ratio",
            field("attempted"),
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
