//! Attribute the performance delta between two artifacts to named phases.
//!
//! ```text
//! clyde-profdiff <before> <after> [--gate-pct N]
//! ```
//!
//! `before`/`after` may be two `clyde-profiles` bundles (from the `profile`
//! binary) or two `bench_probe` JSON artifacts (`BENCH_probe.json` /
//! `probe-now.json`).
//! The kind is auto-detected; both sides must match.
//!
//! With `--gate-pct N`, exits 1 when any query's makespan regressed by more
//! than N percent — the CI bench-gate uses this to turn a bare floor
//! violation into a phase-attributed failure message.

use clyde_bench::profdiff;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!("usage: clyde-profdiff <before.json> <after.json> [--gate-pct N]");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&str> = Vec::new();
    let mut gate_pct: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--gate-pct" => {
                i += 1;
                let v = args.get(i).unwrap_or_else(|| usage());
                gate_pct = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--help" | "-h" => usage(),
            p => paths.push(p),
        }
        i += 1;
    }
    if paths.len() != 2 {
        usage();
    }

    let read = |path: &str| -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("clyde-profdiff: cannot read {path}: {e}");
            std::process::exit(2);
        })
    };
    let parse = |path: &str, text: &str| -> profdiff::Artifact {
        profdiff::parse_artifact(text).unwrap_or_else(|e| {
            eprintln!("clyde-profdiff: {path}: {e}");
            std::process::exit(2);
        })
    };
    let before_text = read(paths[0]);
    let after_text = read(paths[1]);
    let before = parse(paths[0], &before_text);
    let after = parse(paths[1], &after_text);

    let report = match profdiff::diff(&before, &after) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("clyde-profdiff: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.render());

    if let Some(threshold) = gate_pct {
        let regressed = report.regressions(threshold);
        if !regressed.is_empty() {
            eprintln!(
                "clyde-profdiff: {} query(ies) regressed more than {threshold}%:",
                regressed.len()
            );
            for q in regressed {
                eprintln!("  {}", q.headline());
            }
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
