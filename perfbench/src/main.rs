//! Command-line entry of the benchmark.
//!
//! ```text
//! perfbench --workload <polybench|cold-start|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable summary on standard error and, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (each metric a `value` and a `unit`). A traced
//! run also writes the workload's spans to
//! `perfbench/out/spans_<workload>.tsv`.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use perfbench::{Report, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn json(report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct(),
        report.attempted,
        report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match perfbench::run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        match perfbench::write_spans(&report, Path::new("perfbench/out")) {
            Ok(rows) => {
                eprintln!("{}: self time by span", args.workload.name());
                for (name, share) in rows.unwrap_or_default() {
                    eprintln!("  {:>6.2}%  {name}", share * 100.0);
                }
            }
            Err(e) => {
                eprintln!("perfbench: writing spans: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!(
        "{} seed {} trace {}: {} attempted, {} failed",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        report.attempted,
        report.failed
    );
    for m in &report.metrics {
        eprintln!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    // JSON has no NaN or infinity: such a metric is a benchmark bug, and
    // the run reports no result rather than an unparsable one.
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not a finite number", m.name);
        return ExitCode::FAILURE;
    }
    println!("{}", json(&report));
    ExitCode::SUCCESS
}
