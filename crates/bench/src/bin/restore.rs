//! Cold-then-warm replay of the mixed-tenant workload against the result
//! cache, reporting warm speedup and hit rates.
//!
//! Usage: `restore [SF] [--seed <n>] [--json PATH] [--report PATH] [--gate PATH]`
//! (default SF 0.005, seed 46 — the workload bench's scale).
//!
//! * `--json PATH` writes the committed-gate JSON document (see
//!   `BENCH_restore.json` at the repo root for a committed run).
//! * `--report PATH` writes the human-readable report (uploaded as the CI
//!   `workload-restore-gate` artifact).
//! * `--gate PATH` reads a committed run and **fails (exit 1)** unless the
//!   warm speedup clears both the hard 2x floor and 0.9x its committed
//!   value, and the warm hit rate clears its 0.80 floor.
//!
//! Query execution is real; the two-pass timeline is deterministic
//! simulated time, so the reported numbers are byte-stable across reruns
//! and machines. The bench itself verifies that every warm (cached) result
//! is byte-identical to the cold (recomputed) one before reporting.

use clyde_bench::cli::{Args, Flag};
use clyde_bench::gate::Gate;
use clyde_bench::restore::{self, WARM_HIT_RATE_FLOOR, WARM_SPEEDUP_FLOOR};

fn main() {
    let args = Args::parse(
        "restore",
        &[
            Flag::Int("--seed"),
            Flag::Value("--json", "path"),
            Flag::Value("--report", "path"),
            Flag::Value("--gate", "path"),
        ],
    );
    let sf = args.sf_or(0.005);
    let seed = args.int("--seed").unwrap_or(46);

    eprintln!("loading SSB at SF {sf} (seed {seed}) on the workload cluster...");
    let report = restore::run(sf, seed, None, None)
        .unwrap_or_else(|e| panic!("restore cold/warm replay failed: {e}"));
    let rendered = restore::render_report(&report);
    print!("{rendered}");
    if let Some(path) = args.value("--report") {
        std::fs::write(path, &rendered).expect("write report");
        eprintln!("wrote {path}");
    }
    if let Some(path) = args.value("--json") {
        std::fs::write(path, restore::to_json(&report)).expect("write json");
        eprintln!("wrote {path}");
    }
    if let Some(path) = args.value("--gate") {
        let mut gate = Gate::open(path);
        let speedup = report.warm_speedup();
        gate.floor("warm speedup", speedup, WARM_SPEEDUP_FLOOR);
        gate.recorded("warm speedup", speedup, 0.9, &["summary", "warm_speedup"]);
        gate.floor("warm hit rate", report.warm.hit_rate(), WARM_HIT_RATE_FLOOR);
        gate.finish("restore");
    }
}
