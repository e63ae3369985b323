//! Shadow dual-run determinism harness.
//!
//! Usage: `shadow_check [measurement-sf] [--seed <n>] [--queries <id,id,...>]`
//! (default SF 0.008, seed 46, queries Q1.1 and Q2.1).
//!
//! The static pass (`clyde-lint`) proves nobody *wrote* nondeterministic
//! code; this binary proves nothing nondeterministic *executes*. For each
//! query it runs the full stack — fresh simulated cluster, SSB load, warm
//! cache, query with observability on — and captures three artifacts:
//!
//! 1. the serialized result rows,
//! 2. the Chrome trace JSON (simulated time only, by construction),
//! 3. the rendered metrics snapshot with wall-clock metrics filtered out.
//!
//! Each job is executed under four configurations: twice identically (the
//! dual run — catches anything seeded from ambient state), then with the
//! `MtMapRunner` host thread count forced to 1, 2, and 8 while the cost
//! model keeps pricing with the cluster's map slots. Every configuration
//! must produce byte-identical artifacts; any diff is printed and the
//! process exits non-zero, which is what the CI `static-analysis` job gates
//! on.
//!
//! `--workload` switches from single solo queries to the seeded
//! mixed-tenant stream of `clyde_bench::workload` replayed through the
//! multi-job server under fair scheduling (defaults: SF 0.005, seed 46) —
//! the same dual-run and host-thread sweep, proving that *multi-job
//! interleaving* is byte-identical too: every served query's rows, the
//! server-run swimlanes in the Chrome trace, and the `scheduler.*`
//! metrics.
//!
//! `--restore` replays the cold-then-warm stream of `clyde_bench::restore`
//! with the result cache on — the same dual-run and host-thread sweep over
//! both passes, proving the cache is thread-count invariant: every served
//! query's rows (cold and warm), the served-from-cache spans in the trace,
//! and the `cache.*` hit/miss/evict/bytes metrics.

use clyde_bench::cli::{Args, Flag};
use clyde_bench::harness::{measurement_cluster, MeasurementConfig};
use clyde_bench::{restore, workload};
use clyde_common::{Obs, Result};
use clyde_dfs::{ColocatingPlacement, Dfs, DfsOptions};
use clyde_ssb::gen::SsbGen;
use clyde_ssb::loader::{self, SsbLayout};
use clyde_ssb::queries::StarQuery;
use clyde_ssb::query_by_id;
use clydesdale::Clydesdale;
use std::process::ExitCode;
use std::sync::Arc;

/// The deterministic artifacts of one full query execution.
struct Artifacts {
    results: Vec<u8>,
    trace: String,
    metrics: String,
}

/// Drop metric lines that are wall-clock-derived (observability-only, the
/// single sanctioned nondeterminism in a snapshot).
fn filter_wall(rendered: &str) -> String {
    rendered
        .lines()
        .filter(|l| {
            !l.split('=')
                .next()
                .is_some_and(|name| name.contains("wall"))
        })
        .map(|l| format!("{l}\n"))
        .collect()
}

fn run_once(
    config: &MeasurementConfig,
    query: &StarQuery,
    host_threads: Option<u32>,
) -> Result<Artifacts> {
    let cluster = measurement_cluster(config.workers);
    let dfs = Dfs::new(
        cluster,
        DfsOptions {
            block_size: 8 << 20,
            replication: 2,
            policy: Box::new(ColocatingPlacement),
        },
    );
    let layout = SsbLayout::default();
    loader::load(
        &dfs,
        SsbGen::new(config.sf, config.seed),
        &layout,
        &loader::LoadOpts {
            rows_per_group: config.rows_per_group,
            cif: true,
            rcfile: false,
            text: false,
            cluster_by_date: true,
        },
    )?;
    let obs = Obs::enabled();
    let mut clyde = Clydesdale::new(Arc::clone(&dfs), layout).with_obs(Arc::clone(&obs));
    if let Some(t) = host_threads {
        clyde = clyde.with_host_threads(t);
    }
    clyde.warm_dimension_cache()?;
    let r = clyde.query(query)?;
    Ok(Artifacts {
        results: clyde_common::rowcodec::write_rows(&r.rows),
        trace: obs.chrome_trace(),
        metrics: filter_wall(&obs.metrics().snapshot().render()),
    })
}

/// One full replay of the mixed-tenant workload through the multi-job
/// server (fair policy), reduced to the same three artifacts: all served
/// rows in submission order, the trace (solo query spans plus the server
/// run's per-tenant swimlanes), and the metrics snapshot including the
/// `scheduler.*` queue/latency series.
fn run_workload_once(config: &MeasurementConfig, host_threads: Option<u32>) -> Result<Artifacts> {
    let obs = Obs::enabled();
    let clyde =
        workload::build_clyde(config.sf, config.seed, Some(Arc::clone(&obs)), host_threads)?;
    let arrivals = workload::scenario(config.seed);
    let run = workload::run_policy(&clyde, &arrivals, &workload::FAIR)?;
    let mut results = Vec::new();
    for s in &run.served {
        results.extend_from_slice(&clyde_common::rowcodec::write_rows(&s.rows));
    }
    Ok(Artifacts {
        results,
        trace: obs.chrome_trace(),
        metrics: filter_wall(&obs.metrics().snapshot().render()),
    })
}

/// One cold-then-warm replay against the result cache, reduced to the
/// same three artifacts: all served rows (cold pass then warm pass, in
/// submission order), the trace (including the served-from-cache spans),
/// and the metrics snapshot including the `cache.*` series.
fn run_restore_once(config: &MeasurementConfig, host_threads: Option<u32>) -> Result<Artifacts> {
    let obs = Obs::enabled();
    let report = restore::run(config.sf, config.seed, Some(Arc::clone(&obs)), host_threads)?;
    let mut results = Vec::new();
    for s in report.cold.run.served.iter().chain(&report.warm.run.served) {
        results.extend_from_slice(&clyde_common::rowcodec::write_rows(&s.rows));
    }
    Ok(Artifacts {
        results,
        trace: obs.chrome_trace(),
        metrics: filter_wall(&obs.metrics().snapshot().render()),
    })
}

/// Compare `got` against `want`; report which artifact diverged.
fn diff(label: &str, want: &Artifacts, got: &Artifacts) -> bool {
    let mut ok = true;
    if want.results != got.results {
        eprintln!("shadow_check: FAIL [{label}]: result rows diverged");
        ok = false;
    }
    if want.trace != got.trace {
        let at = want
            .trace
            .lines()
            .zip(got.trace.lines())
            .position(|(a, b)| a != b);
        eprintln!(
            "shadow_check: FAIL [{label}]: simulated-time trace diverged \
             (first differing line: {at:?})"
        );
        ok = false;
    }
    if want.metrics != got.metrics {
        eprintln!("shadow_check: FAIL [{label}]: metric snapshot diverged");
        for (a, b) in want.metrics.lines().zip(got.metrics.lines()) {
            if a != b {
                eprintln!("  baseline: {a}\n  shadow:   {b}");
            }
        }
        ok = false;
    }
    ok
}

/// Host thread counts to force through `MtMapRunner`. The cost model prices
/// with the cluster's map slots regardless, so artifacts must not move.
const THREAD_COUNTS: [u32; 3] = [1, 2, 8];

fn main() -> ExitCode {
    let args = Args::parse(
        "shadow_check",
        &[
            Flag::Int("--seed"),
            Flag::Value("--queries", "id,id,..."),
            Flag::Switch("--workload"),
            Flag::Switch("--restore"),
        ],
    );
    let workload_mode = args.switch("--workload");
    let restore_mode = args.switch("--restore");
    let mut config = MeasurementConfig {
        // The workload and restore modes replay the full 31-job stream per
        // run, so they default to the workload bench's own scale factor.
        sf: args.sf_or(if workload_mode || restore_mode {
            0.005
        } else {
            0.008
        }),
        validate: false,
        ..MeasurementConfig::default()
    };
    if let Some(seed) = args.int("--seed") {
        config.seed = seed;
    }
    if restore_mode {
        return check_restore(&config);
    }
    if workload_mode {
        return check_workload(&config);
    }
    let query_ids: Vec<&str> = args
        .value("--queries")
        .map_or(vec!["Q1.1", "Q2.1"], |list| {
            list.split(',').map(str::trim).collect()
        });

    let mut failed = false;
    for id in &query_ids {
        let Ok(query) = query_by_id(id) else {
            eprintln!("error: unknown query `{id}`");
            return ExitCode::from(2);
        };
        let baseline = match run_once(&config, &query, None) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("shadow_check: {id} baseline run failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        // 1. Dual run: identical configuration, fresh cluster and state.
        match run_once(&config, &query, None) {
            Ok(shadow) => {
                if diff(&format!("{id} rerun"), &baseline, &shadow) {
                    println!("shadow_check: OK {id}: dual run byte-identical");
                } else {
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("shadow_check: {id} shadow run failed: {e}");
                failed = true;
            }
        }
        // 2. Host-thread variance: real parallelism must not be observable.
        for t in THREAD_COUNTS {
            match run_once(&config, &query, Some(t)) {
                Ok(shadow) => {
                    if diff(&format!("{id} host-threads={t}"), &baseline, &shadow) {
                        println!("shadow_check: OK {id}: host-threads={t} byte-identical");
                    } else {
                        failed = true;
                    }
                }
                Err(e) => {
                    eprintln!("shadow_check: {id} host-threads={t} run failed: {e}");
                    failed = true;
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("shadow_check: OK — all runs byte-identical across reruns and thread counts");
        ExitCode::SUCCESS
    }
}

/// The `--workload` mode: dual-run the concurrent mixed-tenant workload,
/// then sweep the host thread count — multi-job interleaving must be
/// byte-identical everywhere.
fn check_workload(config: &MeasurementConfig) -> ExitCode {
    let mut failed = false;
    let baseline = match run_workload_once(config, None) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("shadow_check: workload baseline run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run_workload_once(config, None) {
        Ok(shadow) => {
            if diff("workload rerun", &baseline, &shadow) {
                println!("shadow_check: OK workload: dual run byte-identical");
            } else {
                failed = true;
            }
        }
        Err(e) => {
            eprintln!("shadow_check: workload shadow run failed: {e}");
            failed = true;
        }
    }
    for t in THREAD_COUNTS {
        match run_workload_once(config, Some(t)) {
            Ok(shadow) => {
                if diff(&format!("workload host-threads={t}"), &baseline, &shadow) {
                    println!("shadow_check: OK workload: host-threads={t} byte-identical");
                } else {
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("shadow_check: workload host-threads={t} run failed: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!(
            "shadow_check: OK — concurrent workload byte-identical across reruns and thread counts"
        );
        ExitCode::SUCCESS
    }
}

/// The `--restore` mode: dual-run the cold-then-warm cached replay, then
/// sweep the host thread count — the result cache (hits, fills, evictions,
/// `cache.*` metrics, served-from-cache spans) must be byte-identical
/// everywhere.
fn check_restore(config: &MeasurementConfig) -> ExitCode {
    let mut failed = false;
    let baseline = match run_restore_once(config, None) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("shadow_check: restore baseline run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run_restore_once(config, None) {
        Ok(shadow) => {
            if diff("restore rerun", &baseline, &shadow) {
                println!("shadow_check: OK restore: dual run byte-identical");
            } else {
                failed = true;
            }
        }
        Err(e) => {
            eprintln!("shadow_check: restore shadow run failed: {e}");
            failed = true;
        }
    }
    for t in THREAD_COUNTS {
        match run_restore_once(config, Some(t)) {
            Ok(shadow) => {
                if diff(&format!("restore host-threads={t}"), &baseline, &shadow) {
                    println!("shadow_check: OK restore: host-threads={t} byte-identical");
                } else {
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("shadow_check: restore host-threads={t} run failed: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!(
            "shadow_check: OK — cached cold/warm replay byte-identical across reruns \
             and thread counts"
        );
        ExitCode::SUCCESS
    }
}
