//! Replay the seeded mixed-tenant workload as `fifo`, `fair` and
//! `capacity` (the fair policy with tenant weights) and report throughput
//! plus per-tenant latency percentiles.
//!
//! Usage: `workload [SF] [--seed <n>] [--json PATH] [--report PATH]
//! [--gate PATH] [--dump]` (default SF 0.005, seed 46).
//!
//! * `--json PATH` writes the runs as the committed-gate JSON document
//!   (see `BENCH_workload.json` at the repo root for a committed run).
//! * `--report PATH` writes the human-readable latency report (uploaded
//!   as the CI `workload-restore-gate` artifact).
//! * `--gate PATH` reads a committed run and **fails (exit 1)** unless
//!   fair scheduling beats FIFO on the starved tenant's p99 and every
//!   run's throughput stays within 0.95x of its committed value.
//! * `--dump` prints every served job's timeline to stderr.
//!
//! Query execution is real; the multi-job timeline is deterministic
//! simulated time, so the reported numbers are byte-stable across reruns
//! and machines.

use clyde_bench::cli::{Args, Flag};
use clyde_bench::gate::Gate;
use clyde_bench::workload::{self, FAIR, FIFO, REPLAYS};

fn main() {
    let args = Args::parse(
        "workload",
        &[
            Flag::Int("--seed"),
            Flag::Value("--json", "path"),
            Flag::Value("--report", "path"),
            Flag::Value("--gate", "path"),
            Flag::Switch("--dump"),
        ],
    );
    let sf = args.sf_or(0.005);
    let seed = args.int("--seed").unwrap_or(46);

    eprintln!("loading SSB at SF {sf} (seed {seed}) on the workload cluster...");
    let clyde = workload::build_clyde(sf, seed, None, None)
        .unwrap_or_else(|e| panic!("workload cluster setup failed: {e}"));
    let arrivals = workload::scenario(seed);
    eprintln!(
        "replaying {} submissions from {} tenants under {} policies...",
        arrivals.len(),
        workload::TENANTS.len(),
        REPLAYS.len()
    );

    let mut runs = Vec::new();
    for replay in &REPLAYS {
        let run = workload::run_policy(&clyde, &arrivals, replay)
            .unwrap_or_else(|e| panic!("{} replay failed: {e}", replay.label));
        eprintln!(
            "  {}: {} jobs in {:.1}s simulated ({:.2} jobs/min)",
            replay.label,
            run.served.len(),
            run.makespan_s,
            run.throughput_jobs_per_min
        );
        if args.switch("--dump") {
            for s in &run.served {
                eprintln!(
                    "    {:<7} {:<5} arrive {:>7.2}  start {:>7.2}  finish {:>7.2}  \
                     latency {:>7.2}",
                    s.tenant,
                    s.query_id,
                    s.arrival_s,
                    s.start_s,
                    s.finish_s,
                    s.latency_s()
                );
            }
        }
        runs.push(run);
    }

    let report = workload::render_report(sf, seed, &runs);
    print!("{report}");
    if let Some(path) = args.value("--report") {
        std::fs::write(path, &report).expect("write report");
        eprintln!("wrote {path}");
    }
    if let Some(path) = args.value("--json") {
        std::fs::write(path, workload::to_json(sf, seed, &runs)).expect("write json");
        eprintln!("wrote {path}");
    }
    if let Some(path) = args.value("--gate") {
        let mut gate = Gate::open(path);
        match (
            workload::adhoc_p99(&runs, &FIFO),
            workload::adhoc_p99(&runs, &FAIR),
        ) {
            (Some(fifo), Some(fair)) => gate.check(
                "adhoc p99",
                fair < fifo,
                format!("fair {fair:.2}s < fifo {fifo:.2}s"),
            ),
            _ => gate.check("adhoc p99", false, "no fifo or fair adhoc run".into()),
        }
        for r in &runs {
            gate.recorded(
                &format!("{} throughput", r.label),
                r.throughput_jobs_per_min,
                0.95,
                &["policies", r.label, "throughput_jobs_per_min"],
            );
        }
        gate.finish("workload");
    }
}
