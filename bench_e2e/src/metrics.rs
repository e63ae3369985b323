//! The metric catalogue, the `BENCHMARK.json` it implies, and the result
//! line every run ends with.

use crate::trace::json_str;
use crate::workload::Workload;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Allowed regression as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Printed by untraced runs (`--trace 0`). The bounds are wide because on
/// a shared 2-core host whole runs drift by 5-10% with neighbouring load,
/// which no amount of work inside one run averages out.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("query_s.p50", "s", "lower", 0.25),
    e2e("query_s.slowest", "s", "lower", 0.25),
    e2e("fact_rows_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.2),
];

/// Printed by traced runs (`--trace 1`). Seconds and bytes are per pass
/// over the workload's query list, medians over the traced passes.
pub const PER_LAYER: &[MetricDef] = &[
    layer("ssb.gen_s", "s", "lower"),
    layer("ssb.load_s", "s", "lower"),
    layer("dfs.write_bytes", "bytes", "lower"),
    layer("core.warm_s", "s", "lower"),
    layer("rowcodec.decode_s", "s", "lower"),
    layer("rowcodec.ns_per_row", "ns", "lower"),
    layer("hashtable.build_s", "s", "lower"),
    layer("hashtable.ns_per_row", "ns", "lower"),
    layer("hashtable.build_rows", "count", "lower"),
    layer("hashtable.mem_bytes", "bytes", "lower"),
    layer("dfs.read_s", "s", "lower"),
    layer("dfs.read_bytes", "bytes", "lower"),
    layer("columnar.cif_s", "s", "lower"),
    layer("columnar.ns_per_row", "ns", "lower"),
    layer("columnar.zone_skip_frac", "fraction", "higher"),
    layer("probe.probe_s", "s", "lower"),
    layer("probe.ns_per_row", "ns", "lower"),
    layer("probe.survivor_frac", "fraction", "lower"),
    layer("probe.probes_per_row", "count", "lower"),
    layer("core.finish_s", "s", "lower"),
    layer("mapred.job_s", "s", "lower"),
    layer("mapred.unattributed_s", "s", "lower"),
    layer("mapred.shuffle_bytes", "bytes", "lower"),
    layer("mapred.map_wall_s", "s", "lower"),
    layer("mapred.reduce_wall_s", "s", "lower"),
    layer("dfs.query_write_bytes", "bytes", "lower"),
    layer("hive.repartition_s", "s", "lower"),
    layer("hive.mapjoin_s", "s", "lower"),
    layer("hive.stages", "count", "lower"),
    layer("columnar.rcfile_ns_per_row", "ns", "lower"),
    layer("trace.overhead_s", "s", "lower"),
];

/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 15;

/// Directory holding the benchmark, relative to the repository root.
pub const BENCH_DIR: &str = "bench_e2e";

/// The contents of the repository's `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\n");
    for (i, arg) in COMMAND.iter().enumerate() {
        let sep = if i + 1 < COMMAND.len() { "," } else { "" };
        writeln!(out, "    {}{sep}", json_str(arg)).expect("string write");
    }
    out.push_str("  ],\n");
    writeln!(out, "  \"paths\": [{}],", json_str(BENCH_DIR)).expect("string write");
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").expect("string write");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.iter().enumerate() {
        let sep = if i + 1 < Workload::ALL.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{sep}",
            json_str(w.name()),
            json_str(w.why())
        )
        .expect("string write");
    }
    out.push_str("  ],\n");
    write_defs(&mut out, "end_to_end", END_TO_END, ",");
    write_defs(&mut out, "per_layer", PER_LAYER, "");
    out.push_str("}\n");
    out
}

/// How the benchmark is run, from the repository root.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "bench_e2e/Cargo.toml",
    "--bin",
    "ssbbench",
    "--",
];

fn write_defs(out: &mut String, key: &str, defs: &[MetricDef], trailer: &str) {
    writeln!(out, "  {}: [", json_str(key)).expect("string write");
    for (i, d) in defs.iter().enumerate() {
        let sep = if i + 1 < defs.len() { "," } else { "" };
        let bound = d
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}{sep}",
            json_str(d.name),
            json_str(d.unit),
            json_str(d.better)
        )
        .expect("string write");
    }
    writeln!(out, "  ]{trailer}").expect("string write");
}

/// The last line of a run's standard output.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(MetricDef, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (d, v)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // Non-finite values are not JSON; report them as 0 and let the
        // answer check (which produced them) speak through `correct`.
        let v = if v.is_finite() { *v } else { 0.0 };
        write!(
            out,
            "{}: {{\"value\": {v}, \"unit\": {}}}",
            json_str(d.name),
            json_str(d.unit)
        )
        .expect("string write");
    }
    out.push_str("}}");
    out
}

/// Look a metric up by name in either catalogue.
pub fn def(name: &str) -> Option<MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names must be unique");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.name.len() <= 64 && d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
            assert!(d.better == "lower" || d.better == "higher");
        }
        for d in END_TO_END {
            let b = d.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25);
        }
        let setup = def("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    #[test]
    fn committed_benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with: cargo run --release --manifest-path bench_e2e/Cargo.toml -- --print-benchmark-json"
        );
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_json(
            true,
            3,
            0,
            &[(END_TO_END[0], 1.25), (END_TO_END[1], f64::NAN)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"query_s.p50\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }
}
