//! Tiny-scale smoke of every workload, untraced and traced, on the default
//! seed and a second one: the metric set prints, every answer checks out,
//! and the traced run's layer readings have the expected shape.

use clyde_bench_e2e::metrics::{END_TO_END, PER_LAYER};
use clyde_bench_e2e::{run, Config, Report, Workload};

fn smoke(workload: Workload, seed: u64, trace: bool) -> Report {
    let mut cfg = Config::new(workload, seed, 0.0, trace);
    cfg.sf = 0.01;
    let report = run(&cfg).expect("benchmark runs");
    assert!(
        report.correct && report.failed == 0,
        "{} seed {seed} trace {trace}: {:?}",
        workload.name(),
        report.lines
    );
    assert!(report.attempted > 0);
    let expected = if trace { PER_LAYER } else { END_TO_END };
    let names: Vec<&str> = report.metrics.iter().map(|(d, _)| d.name).collect();
    let want: Vec<&str> = expected.iter().map(|d| d.name).collect();
    assert_eq!(names, want);
    assert!(report.metrics.iter().all(|(_, v)| v.is_finite()));
    let line = report.result_json();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(report.provenance.contains("\"nproc\": "));
    assert!(report.provenance.contains(&format!("\"seed\": {seed}")));
    report
}

fn positive(r: &Report, names: &[&str]) {
    for n in names {
        let v = r.metric(n).unwrap_or(0.0);
        assert!(v > 0.0, "{n} = {v}");
    }
}

#[test]
fn every_workload_untraced() {
    for w in Workload::ALL {
        let r = smoke(w, 46, false);
        positive(
            &r,
            &[
                "setup_s",
                "query_s.p50",
                "query_s.slowest",
                "fact_rows_per_s",
            ],
        );
        assert!(r.metric("query_s.slowest") >= r.metric("query_s.p50"));
    }
}

#[test]
fn every_workload_traced() {
    for w in Workload::ALL {
        let r = smoke(w, 46, true);
        positive(
            &r,
            &[
                "ssb.gen_s",
                "ssb.load_s",
                "dfs.write_bytes",
                "rowcodec.decode_s",
                "hashtable.build_s",
                "hashtable.build_rows",
                "dfs.read_bytes",
                "columnar.cif_s",
                "probe.probe_s",
                "mapred.job_s",
                "mapred.map_wall_s",
                "hive.repartition_s",
                "hive.mapjoin_s",
                "hive.stages",
                "columnar.rcfile_ns_per_row",
            ],
        );
        let shuffle = r.metric("mapred.shuffle_bytes").unwrap();
        let writes = r.metric("dfs.query_write_bytes").unwrap();
        if w == Workload::HivePlans {
            assert!(
                shuffle > 0.0 && writes > 0.0,
                "hive plans shuffle and write"
            );
        } else {
            // Clydesdale emits one record per group and writes nothing.
            assert_eq!(writes, 0.0);
            assert!(shuffle < 1e6, "clydesdale shuffle {shuffle}");
        }
    }
}

#[test]
fn second_seed_prints_and_checks() {
    for w in Workload::ALL {
        smoke(w, 47, false);
        smoke(w, 47, true);
    }
}
