//! CI fault-matrix: recovery transparency under seeded fault plans.
//!
//! Usage: `fault_matrix [SF] [--seed <n>] [--plan <name>]` (default SF
//! 0.01, seed 46, all plans). Arguments parse through [`Args`]; an unknown
//! plan prints the valid plan names and exits 2.
//!
//! For each named plan, Q2.1 is executed twice on identically loaded fresh
//! clusters — once fault-free, once under the plan — and the serialized
//! results are compared byte for byte. Every fault plan must also show at
//! least one recovery action in the job profile (the faults were really
//! injected, not silently skipped). Exits non-zero on any violation, which
//! is what gates the CI `fault-matrix` job.

use clyde_bench::cli::{Args, Flag};
use clyde_bench::harness::{run_fault_cell, FaultCell, MeasurementConfig};
use clyde_bench::report::render_table;
use clyde_mapred::fault::NAMES;
use clyde_ssb::query_by_id;

/// The plan-specific recovery action that must be visible in the profile.
fn check_signals(cell: &FaultCell) -> Result<(), String> {
    let p = &cell.profile;
    let require = |ok: bool, what: &str| {
        if ok {
            Ok(())
        } else {
            Err(format!("plan `{}`: expected {what}", cell.plan))
        }
    };
    match cell.plan.as_str() {
        "none" => Ok(()),
        "task-fail" => require(p.failed_attempts >= 1, "at least one retried attempt"),
        "slow-node" => require(
            p.speculative_attempts >= 1,
            "a speculative backup for the straggler",
        ),
        "datanode-death" => require(
            !p.dead_nodes.is_empty() && p.rereplicated_blocks >= 1,
            "a dead node and re-replicated blocks",
        ),
        "corruption" => require(
            cell.corrupt_reads >= 1,
            "at least one detected corrupt read",
        ),
        "combined" => require(cell.recovered_something(), "some recovery action"),
        other => Err(format!("unknown plan `{other}`")),
    }
}

fn main() {
    let args = Args::parse(
        "fault_matrix",
        &[Flag::Int("--seed"), Flag::Value("--plan", "name")],
    );
    let sf = args.sf_or(0.01);
    let seed = args.int("--seed").unwrap_or(46);
    let plans: Vec<String> = match args.value("--plan") {
        None => NAMES.iter().map(|s| s.to_string()).collect(),
        Some(p) if NAMES.contains(&p) => vec![p.to_string()],
        Some(p) => {
            eprintln!("error: unknown plan `{p}`");
            eprintln!("plans: {}", NAMES.join(", "));
            std::process::exit(2);
        }
    };

    let config = MeasurementConfig {
        sf,
        seed,
        ..MeasurementConfig::default()
    };
    let query = query_by_id("Q2.1").expect("Q2.1 exists");
    let mut rows = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for plan in &plans {
        eprintln!("running Q2.1 under plan `{plan}` (sf {sf}, seed {seed})...");
        let cell = run_fault_cell(&config, &query, plan, seed).expect("fault cell run failed");
        if !cell.identical {
            failures.push(format!(
                "plan `{plan}`: results differ from the fault-free run"
            ));
        }
        if let Err(e) = check_signals(&cell) {
            failures.push(e);
        }
        let p = &cell.profile;
        rows.push(vec![
            cell.plan.clone(),
            if cell.identical { "yes" } else { "NO" }.to_string(),
            cell.rows.to_string(),
            p.failed_attempts.to_string(),
            format!("{}/{}", p.speculative_wins, p.speculative_attempts),
            p.dead_nodes.len().to_string(),
            p.rereplicated_blocks.to_string(),
            cell.corrupt_reads.to_string(),
            format!("{:.2}", cell.wasted_s.max(0.0)),
            format!("{:+.2}", cell.overhead_s),
        ]);
    }

    println!("\nFault matrix: Q2.1 at SF {sf}, seed {seed}\n");
    println!(
        "{}",
        render_table(
            &[
                "plan",
                "identical",
                "rows",
                "retries",
                "spec w/l",
                "dead",
                "rerepl",
                "corrupt",
                "wasted s",
                "overhead s",
            ],
            &rows,
        )
    );
    if failures.is_empty() {
        println!(
            "fault matrix: all {} plan(s) recovered transparently",
            plans.len()
        );
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
