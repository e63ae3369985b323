//! Observability end-to-end: traces are deterministic, results are
//! unaffected by recording, and the history/trace/metrics views agree with
//! the profiles the engines already report.

use clyde_common::obs::TaskKind;
use clyde_common::Obs;
use clyde_dfs::{ClusterSpec, ColocatingPlacement, Dfs, DfsOptions};
use clyde_hive::{Hive, JoinStrategy};
use clyde_ssb::gen::SsbGen;
use clyde_ssb::loader::{self, SsbLayout};
use clyde_ssb::query_by_id;
use clydesdale::Clydesdale;
use std::sync::Arc;

fn cluster(n: usize) -> Arc<Dfs> {
    Dfs::new(
        ClusterSpec::tiny(n),
        DfsOptions {
            block_size: 1 << 20,
            replication: 2,
            policy: Box::new(ColocatingPlacement),
        },
    )
}

fn load(dfs: &Arc<Dfs>, sf: f64) -> SsbLayout {
    let layout = SsbLayout::default();
    loader::load(
        dfs,
        SsbGen::new(sf, 46),
        &layout,
        &loader::LoadOpts {
            rows_per_group: 2_000,
            cif: true,
            rcfile: true,
            text: false,
            cluster_by_date: true,
        },
    )
    .unwrap();
    layout
}

fn run_traced(queries: &[&str]) -> (Vec<Vec<clyde_common::Row>>, String, String) {
    let dfs = cluster(3);
    let layout = load(&dfs, 0.005);
    let obs = Obs::enabled();
    let clyde = Clydesdale::new(Arc::clone(&dfs), layout).with_obs(Arc::clone(&obs));
    clyde.warm_dimension_cache().unwrap();
    let mut rows = Vec::new();
    for id in queries {
        let q = query_by_id(id).unwrap();
        rows.push(clyde.query(&q).unwrap().rows);
    }
    (rows, obs.chrome_trace(), obs.summary())
}

/// Same workload twice → byte-identical trace JSON. Spans carry only
/// simulated time, so nothing about the host machine or run leaks in.
#[test]
fn traces_are_deterministic_across_runs() {
    let queries = ["Q1.1", "Q2.1"];
    let (rows_a, trace_a, summary_a) = run_traced(&queries);
    let (rows_b, trace_b, summary_b) = run_traced(&queries);
    assert_eq!(rows_a, rows_b);
    assert_eq!(trace_a, trace_b, "trace JSON must be byte-identical");
    // The text summary mixes in measured wall clock (by design); everything
    // else — the simulated timeline — must be stable.
    let sim_lines = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| !l.contains("wall"))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(sim_lines(&summary_a), sim_lines(&summary_b));
    assert!(trace_a.contains("\"traceEvents\""));
    assert!(trace_a.contains("final-sort"));
}

/// Recording must never change query answers.
#[test]
fn results_identical_with_observability_on_and_off() {
    let dfs = cluster(3);
    let layout = load(&dfs, 0.005);
    let plain = Clydesdale::new(Arc::clone(&dfs), layout.clone());
    let traced = Clydesdale::new(Arc::clone(&dfs), layout.clone()).with_obs(Obs::enabled());
    plain.warm_dimension_cache().unwrap();
    traced.warm_dimension_cache().unwrap();
    let q = query_by_id("Q2.1").unwrap();
    assert_eq!(
        plain.query(&q).unwrap().rows,
        traced.query(&q).unwrap().rows
    );

    let hive_plain = Hive::new(Arc::clone(&dfs), layout.clone(), JoinStrategy::MapJoin);
    let hive_traced =
        Hive::new(Arc::clone(&dfs), layout, JoinStrategy::MapJoin).with_obs(Obs::enabled());
    assert_eq!(
        hive_plain.query(&q).unwrap().rows,
        hive_traced.query(&q).unwrap().rows
    );
}

/// The recorded history and metrics agree with the engine's own profile:
/// one history per job, task lanes matching the task count, and the unified
/// counters reflecting what actually ran.
#[test]
fn histories_and_metrics_mirror_the_job() {
    let dfs = cluster(3);
    let layout = load(&dfs, 0.005);
    let obs = Obs::enabled();
    let clyde = Clydesdale::new(Arc::clone(&dfs), layout).with_obs(Arc::clone(&obs));
    clyde.warm_dimension_cache().unwrap();
    let q = query_by_id("Q2.1").unwrap();
    let result = clyde.query(&q).unwrap();

    obs.with_histories(|hs| {
        assert_eq!(hs.len(), 1);
        let h = &hs[0];
        assert_eq!(h.lanes(TaskKind::Map).len(), result.profile.map_tasks.len());
        assert_eq!(
            h.lanes(TaskKind::Reduce).len(),
            result.profile.reduce_tasks.len()
        );
        let st = h.stragglers(TaskKind::Map).unwrap();
        assert!(st.max_s >= st.median_s && st.median_s > 0.0);
        // Simulated history time matches the priced job total.
        assert!((h.total_s() - result.cost.total_s()).abs() < 1e-9);
        // Wall clocks were captured (obs on) but stay out of the trace.
        assert!(h.total_wall_ns() > 0);
    });

    let snap = obs.metrics().snapshot();
    assert_eq!(snap.counter("mapred.jobs"), Some(1));
    assert_eq!(snap.counter("mapred.queries"), Some(1));
    assert_eq!(
        snap.counter("mapred.map_tasks"),
        Some(result.profile.map_tasks.len() as u64)
    );
    assert_eq!(
        snap.counter("mapred.emit.records"),
        Some(result.profile.total_map_cost().emit_records)
    );
    // DFS scope delta fed the registry: the scan moved real bytes.
    let read = snap.counter("dfs.io.local_read_bytes").unwrap_or(0)
        + snap.counter("dfs.io.remote_read_bytes").unwrap_or(0);
    assert!(read > 0);

    // The trace renders the history: one process, a job root, one task
    // event per task lane, and the final sort after the job.
    let trace = obs.chrome_trace();
    let count = |needle: &str| trace.matches(needle).count();
    assert_eq!(count(r#""name":"process_name""#), 1);
    assert_eq!(count(r#""cat":"job""#), 1);
    assert_eq!(
        count(r#""cat":"task""#),
        result.profile.map_tasks.len() + result.profile.reduce_tasks.len()
    );
    obs.with_histories(|hs| {
        assert_eq!(
            hs[0].final_sort.map(|(rows, _)| rows),
            Some(result.rows.len())
        )
    });
    assert_eq!(count(r#""name":"final-sort""#), 1);

    // Reset gives a clean slate for the next bench iteration.
    obs.reset();
    obs.with_histories(|hs| assert!(hs.is_empty()));
    assert!(obs.metrics().snapshot().entries.is_empty());
    obs.with_query_profiles(|ps| assert!(ps.is_empty()));
}

/// `explain_analyze` returns a per-stage/per-phase profile that accounts
/// for the whole simulated makespan, carries the DFS I/O snapshot, and
/// keeps wall time out of the JSON artifact.
#[test]
fn explain_analyze_profiles_the_query() {
    let dfs = cluster(3);
    let layout = load(&dfs, 0.005);
    let obs = Obs::enabled();
    let clyde = Clydesdale::new(Arc::clone(&dfs), layout).with_obs(Arc::clone(&obs));
    clyde.warm_dimension_cache().unwrap();
    let q = query_by_id("Q2.1").unwrap();
    let (result, profile) = clyde.explain_analyze(&q).unwrap();

    assert_eq!(profile.query, "Q2.1");
    assert_eq!(profile.jobs.len(), 1);
    let job = &profile.jobs[0];
    assert_eq!(job.map_tasks, result.profile.map_tasks.len());
    assert_eq!(job.reduce_tasks, result.profile.reduce_tasks.len());
    // Stage rows decompose the job's simulated total exactly.
    let stage_sum: f64 = job.stages.iter().map(|s| s.sim_s).sum();
    assert!((stage_sum - job.sim_total_s).abs() < 1e-6);
    assert!((profile.total_s - (job.sim_total_s + profile.final_sort_s)).abs() < 1e-9);
    // Wall measurements rode along for calibration...
    assert!(job.wall_total_ns > 0);
    assert!(job.phases.iter().any(|p| p.drift_pct.is_some()));
    // ...and the DFS per-node I/O snapshot made it into the profile.
    assert!(!profile.io.is_empty());
    assert!(profile.io.iter().map(|io| io.read()).sum::<u64>() > 0);

    // Human rendering carries the calibration verdict; the JSON artifact is
    // sim-only so it can be byte-compared across runs.
    let text = profile.render();
    assert!(text.contains("explain analyze Q2.1"));
    assert!(text.contains("calibration:"));
    assert!(!profile.to_json().contains("wall"));

    // The same profile was recorded on the hub for harness export.
    obs.with_query_profiles(|ps| {
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].query, "Q2.1");
    });

    // Without observability the engine refuses rather than guessing.
    let dfs2 = cluster(3);
    let layout2 = load(&dfs2, 0.005);
    let plain = Clydesdale::new(Arc::clone(&dfs2), layout2);
    plain.warm_dimension_cache().unwrap();
    assert!(plain.explain_analyze(&q).is_err());
}
