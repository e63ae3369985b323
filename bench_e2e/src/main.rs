//! `ssbbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints human-readable lines, then one JSON result line. Traced runs
//! also write their spans to `.bench_out/<workload>-seed<N>.trace.json`
//! as a Chrome trace.
//! `--print-benchmark-json` prints the repository's `BENCHMARK.json`.

use clyde_bench_e2e::metrics::{self, RUN_SECONDS};
use clyde_bench_e2e::{run, Config, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: ssbbench --workload <clyde-join|clyde-scan|hive-plans> [--seed N] \
[--seconds S] [--trace 0|1] | --print-benchmark-json";

fn parse(mut args: impl Iterator<Item = String>) -> Result<Option<Config>, String> {
    let mut workload = None;
    let mut seed = 46;
    let mut seconds = RUN_SECONDS as f64;
    let mut trace = false;
    while let Some(flag) = args.next() {
        if flag == "--print-benchmark-json" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).map_err(|e| bad(&e))?),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, got {seconds}"
        ));
    }
    Ok(Some(Config::new(workload, seed, seconds, trace)))
}

fn main() -> ExitCode {
    let cfg = match parse(std::env::args().skip(1)) {
        Ok(Some(cfg)) => cfg,
        Ok(None) => {
            print!("{}", metrics::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    if let Some(trace) = &report.trace_json {
        let path = PathBuf::from(format!(
            ".bench_out/{}-seed{}.trace.json",
            cfg.workload.name(),
            cfg.seed
        ));
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, trace));
        match written {
            Ok(()) => println!("trace: {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}
