//! One benchmark run: reference answers, set-up, the closed query loop,
//! and (traced runs) the layer replay.

use crate::metrics::{self, MetricDef};
use crate::replay::{self, PassLayers};
use crate::setup::{self, Answers, Loaded, SetupLayers};
use crate::sys;
use crate::trace::{json_str, Tracer};
use crate::workload::{Config, EngineKind, ROWS_PER_GROUP, SETUPS, WORKERS};
use clyde_common::{Result, Row};
use clyde_hive::{Hive, JoinStrategy};
use clyde_ssb::gen::SsbGen;
use clyde_ssb::loader::{self, LoadOpts, SsbLayout};
use clyde_ssb::queries::StarQuery;
use clydesdale::planner::plan_query;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scale factor of the RCFile copy the traced run of a Clydesdale-only
/// workload times the `hive` layer on, so every workload reports it.
pub const SIDE_SF: f64 = 0.01;

/// What a run prints: human-readable lines, then the result line.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(MetricDef, f64)>,
    pub lines: Vec<String>,
    /// Host, configuration and build facts, as a JSON object.
    pub provenance: String,
    /// Recorded spans (traced runs), as a Chrome trace.
    pub trace_json: Option<String>,
}

impl Report {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(d, _)| d.name == name)
            .map(|&(_, v)| v)
    }

    pub fn result_json(&self) -> String {
        metrics::result_json(self.correct, self.attempted, self.failed, &self.metrics)
    }
}

/// Executions attempted, and what went wrong with the ones that failed.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Count one execution; `Ok` rows must equal `expect`.
    fn check(&mut self, what: &str, got: &Result<Vec<Row>>, expect: Option<&Vec<Row>>) {
        self.attempted += 1;
        let problem = match (got, expect) {
            (Err(e), _) => Some(format!("{what}: error: {e}")),
            (Ok(_), None) => Some(format!("{what}: no reference answer")),
            (Ok(rows), Some(expect)) if rows != expect => Some(format!(
                "{what}: wrong answer ({} rows, expected {})",
                rows.len(),
                expect.len()
            )),
            _ => None,
        };
        self.failures.extend(problem);
    }
}

/// One timed query execution.
#[derive(Debug, Clone, Copy)]
struct Sample {
    query: usize,
    engine: EngineKind,
    secs: f64,
    sim_s: f64,
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Rows and simulated seconds of one execution through the engine's
/// public entry point.
fn execute(loaded: &Loaded, engine: EngineKind, q: &StarQuery) -> Result<(Vec<Row>, f64)> {
    match loaded.hive(engine) {
        Some(hive) => hive.query(q).map(|r| {
            let sim = r.total_s();
            (r.rows, sim)
        }),
        None => loaded.clyde.query(q).map(|r| {
            let sim = r.total_s();
            (r.rows, sim)
        }),
    }
}

/// Run whole passes over the workload's executions until `budget` is
/// spent (at least one pass). Keeps Clydesdale's latest rows per query.
fn closed_loop(
    cfg: &Config,
    loaded: &Loaded,
    queries: &[StarQuery],
    answers: &Answers,
    budget: Duration,
    tally: &mut Tally,
    clyde_rows: &mut BTreeMap<String, Vec<Row>>,
) -> Vec<Sample> {
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        for (qi, q) in queries.iter().enumerate() {
            for &engine in cfg.workload.engines() {
                let t = Instant::now();
                let res = execute(loaded, engine, q);
                let secs = t.elapsed().as_secs_f64();
                let sim_s = res.as_ref().map_or(0.0, |r| r.1);
                let rows = res.map(|r| r.0);
                let what = format!("{} {}", engine.label(), q.id);
                tally.check(&what, &rows, answers.get(&q.id));
                if let Ok(rows) = rows {
                    samples.push(Sample {
                        query: qi,
                        engine,
                        secs,
                        sim_s,
                    });
                    if engine == EngineKind::Clydesdale {
                        clyde_rows.insert(q.id.clone(), rows);
                    }
                }
            }
        }
        if start.elapsed() >= budget {
            return samples;
        }
    }
}

/// Per-(query, engine) median seconds, in workload order.
fn per_query_medians(
    cfg: &Config,
    queries: &[StarQuery],
    samples: &[Sample],
) -> Vec<(String, f64, usize)> {
    let mut out = Vec::new();
    for (qi, q) in queries.iter().enumerate() {
        for &engine in cfg.workload.engines() {
            let secs: Vec<f64> = samples
                .iter()
                .filter(|s| s.query == qi && s.engine == engine)
                .map(|s| s.secs)
                .collect();
            if !secs.is_empty() {
                out.push((
                    format!("{}.{}", q.id, engine.label()),
                    median(&secs),
                    secs.len(),
                ));
            }
        }
    }
    out
}

fn provenance(cfg: &Config, queries: &[StarQuery], rss_reset: bool) -> Result<String> {
    let cluster = cfg.cluster();
    let spec = plan_query(
        &queries[0],
        &SsbLayout::default(),
        clydesdale::Features::default(),
        &cluster,
    )?;
    let task_threads = spec.task_threads.unwrap_or(1);
    let host_threads = spec.host_threads.unwrap_or(task_threads);
    Ok(format!(
        "{{\"workload\": {}, \"seed\": {}, \"sf\": {}, \"lineorder_rows\": {}, \"nproc\": {}, \
         \"workers\": {}, \"task_threads\": {task_threads}, \"host_threads\": {host_threads}, \
         \"rows_per_group\": {}, \"setups\": {}, \"seconds\": {}, \"trace\": {}, \
         \"peak_rss_reset\": {rss_reset}, \"build_profile\": {}, \"commit\": {}}}",
        json_str(cfg.workload.name()),
        cfg.seed,
        cfg.sf,
        SsbGen::new(cfg.sf, cfg.seed).num_lineorders(),
        sys::nproc(),
        WORKERS,
        ROWS_PER_GROUP,
        if cfg.trace { 1 } else { SETUPS },
        cfg.seconds,
        cfg.trace,
        json_str(sys::build_profile()),
        json_str(&sys::commit()),
    ))
}

/// Run the benchmark once.
pub fn run(cfg: &Config) -> Result<Report> {
    let queries = cfg.workload.queries()?;
    let (answers, rss_reset) = setup::reference_answers(SsbGen::new(cfg.sf, cfg.seed), &queries)?;
    let provenance = provenance(cfg, &queries, rss_reset)?;
    let (mut report, tracer) = if cfg.trace {
        let (report, tracer) = run_traced(cfg, &queries, &answers)?;
        (report, Some(tracer))
    } else {
        (run_untraced(cfg, &queries, &answers)?, None)
    };
    report.lines.insert(0, format!("provenance: {provenance}"));
    report.trace_json = tracer.map(|t| t.chrome_json(&provenance));
    report.provenance = provenance;
    Ok(report)
}

fn finish(tally: Tally, metrics: Vec<(MetricDef, f64)>, mut lines: Vec<String>) -> Report {
    lines.push(format!(
        "failed_frac: {} ({} of {} executions)",
        if tally.attempted == 0 {
            0.0
        } else {
            tally.failures.len() as f64 / tally.attempted as f64
        },
        tally.failures.len(),
        tally.attempted
    ));
    for f in tally.failures.iter().take(20) {
        lines.push(format!("FAILED {f}"));
    }
    Report {
        correct: tally.failures.is_empty(),
        attempted: tally.attempted,
        failed: tally.failures.len() as u64,
        metrics,
        lines,
        provenance: String::new(),
        trace_json: None,
    }
}

fn def(name: &str) -> MetricDef {
    metrics::def(name).expect("metric is in the catalogue")
}

fn run_untraced(cfg: &Config, queries: &[StarQuery], answers: &Answers) -> Result<Report> {
    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut loaded = None;
    for _ in 0..SETUPS {
        // Tear the previous copy down first: each set-up starts empty.
        drop(loaded.take());
        let (l, secs) = setup::setup(cfg)?;
        setup_secs.push(secs);
        loaded = Some(l);
    }
    let loaded = loaded.expect("at least one set-up ran");
    let setup_peak_mb = sys::peak_rss_kib().unwrap_or(0) as f64 / 1024.0;
    let mut tally = Tally::default();
    let budget = Duration::from_secs_f64(cfg.seconds);
    let samples = closed_loop(
        cfg,
        &loaded,
        queries,
        answers,
        budget,
        &mut tally,
        &mut BTreeMap::new(),
    );

    let secs: Vec<f64> = samples.iter().map(|s| s.secs).collect();
    let per_query = per_query_medians(cfg, queries, &samples);
    let slowest = per_query.iter().map(|p| p.1).fold(0.0, f64::max);
    let total: f64 = secs.iter().sum();
    let fact_rows = loaded.gen.num_lineorders() as f64;
    let peak_mb = sys::peak_rss_kib().unwrap_or(0) as f64 / 1024.0;
    let metrics = vec![
        (def("setup_s"), median(&setup_secs)),
        (def("query_s.p50"), median(&secs)),
        (def("query_s.slowest"), slowest),
        (
            def("fact_rows_per_s"),
            if total > 0.0 {
                fact_rows * secs.len() as f64 / total
            } else {
                0.0
            },
        ),
        (def("peak_rss_mb"), peak_mb),
    ];
    let passes = samples.len() / (queries.len() * cfg.workload.engines().len()).max(1);
    let pass_sim: f64 = samples
        .iter()
        .take(queries.len() * cfg.workload.engines().len())
        .map(|s| s.sim_s)
        .sum();
    let mut lines = vec![
        format!("setup_s samples: {setup_secs:?}"),
        format!("peak_rss_mb: {peak_mb} ({setup_peak_mb} when set-up ended)"),
        format!(
            "query_s.p50: {} s over {} executions ({passes} passes)",
            median(&secs),
            secs.len()
        ),
    ];
    for (id, m, n) in &per_query {
        lines.push(format!("query.{id}.s: {m} (n={n})"));
    }
    lines.push(format!(
        "model.sim_s (cost-model output, not a speed metric): {pass_sim} per pass"
    ));
    Ok(finish(tally, metrics, lines))
}

fn run_traced(cfg: &Config, queries: &[StarQuery], answers: &Answers) -> Result<(Report, Tracer)> {
    let mut tr = Tracer::new();
    let (loaded, setup_layers) = setup::setup_traced(cfg, &mut tr)?;
    let mut tally = Tally::default();
    let half = Duration::from_secs_f64(cfg.seconds / 2.0);

    // Untraced half: the baseline the tracing overhead is measured against.
    let mut clyde_rows = BTreeMap::new();
    let untraced = closed_loop(
        cfg,
        &loaded,
        queries,
        answers,
        half,
        &mut tally,
        &mut clyde_rows,
    );
    let untraced_p50 = median(&untraced.iter().map(|s| s.secs).collect::<Vec<_>>());

    // Traced half: whole passes, each a traced execution of every
    // (query, engine) plus the layer replay of every query.
    let fact_cols = fact_columns(queries);
    let start = Instant::now();
    let mut passes: Vec<PassLayers> = Vec::new();
    let mut traced_secs = Vec::new();
    loop {
        let mut pass = PassLayers::default();
        for q in queries {
            tr.next_request();
            let mut ran_clyde = false;
            for &engine in cfg.workload.engines() {
                let what = format!("traced {} {}", engine.label(), q.id);
                let res = match loaded.hive(engine) {
                    Some(hive) => {
                        replay::traced_hive(hive, &loaded.dfs, q, &mut tr, &mut pass, true)
                    }
                    None => {
                        ran_clyde = true;
                        replay::traced_clyde(
                            &loaded.clyde,
                            &loaded.layout,
                            q,
                            &mut tr,
                            &mut pass,
                            true,
                        )
                    }
                };
                if let Ok(t) = &res {
                    traced_secs.push(t.secs);
                }
                tally.check(&what, &res.map(|t| t.rows), answers.get(&q.id));
            }
            if !ran_clyde {
                // The mapred layer is Clydesdale's job, on every workload.
                let res = replay::traced_clyde(
                    &loaded.clyde,
                    &loaded.layout,
                    q,
                    &mut tr,
                    &mut pass,
                    false,
                );
                tally.check(
                    &format!("traced clydesdale {}", q.id),
                    &res.map(|t| t.rows),
                    answers.get(&q.id),
                );
            }
            let replayed = replay::replay_clyde(
                &loaded.dfs,
                &loaded.layout,
                loaded.clyde.features(),
                q,
                &mut tr,
                &mut pass,
            );
            // The first pass checks the replay against Clydesdale::query
            // itself, so the replay is known to measure the same work.
            let expect = if passes.is_empty() {
                match clyde_rows.get(&q.id) {
                    Some(rows) => Some(rows.clone()),
                    None => loaded.clyde.query(q).ok().map(|r| r.rows),
                }
            } else {
                answers.get(&q.id).cloned()
            };
            tally.check(&format!("replay {}", q.id), &replayed, expect.as_ref());
        }
        if cfg.workload.needs_rcfile() {
            replay::read_rcfile(&loaded.dfs, &loaded.layout, &fact_cols, &mut tr, &mut pass)?;
        }
        pass.finish();
        passes.push(pass);
        if start.elapsed() >= half {
            break;
        }
    }
    drop(loaded);

    let side = if cfg.workload.needs_rcfile() {
        None
    } else {
        Some(side_hive_pass(
            cfg, queries, &fact_cols, &mut tr, &mut tally,
        )?)
    };

    let traced_p50 = median(&traced_secs);
    let metrics = layer_metrics(
        &passes,
        side.as_ref(),
        &setup_layers,
        traced_p50 - untraced_p50,
    );
    let mut lines = vec![
        format!(
            "untraced query_s.p50: {untraced_p50} s over {} executions; traced: {traced_p50} s over {}",
            untraced.len(),
            traced_secs.len()
        ),
        format!("traced passes: {}; spans recorded: {}", passes.len(), tr.spans().len()),
    ];
    lines.push(layer_shares(&metrics));
    Ok((finish(tally, metrics, lines), tr))
}

/// The fact columns any of `queries` reads, in schema order.
fn fact_columns(queries: &[StarQuery]) -> Vec<String> {
    let fact = clyde_ssb::schema::lineorder_schema();
    fact.fields()
        .iter()
        .map(|f| f.name.clone())
        .filter(|n| queries.iter().any(|q| q.fact_columns().contains(n)))
        .collect()
}

/// Time the `hive` layer over a small RCFile copy, for workloads whose
/// own data has none. Answers are checked like every other execution.
fn side_hive_pass(
    cfg: &Config,
    queries: &[StarQuery],
    fact_cols: &[String],
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<PassLayers> {
    let gen = SsbGen::new(SIDE_SF, cfg.seed);
    let (answers, _) = setup::reference_answers(gen, queries)?;
    let dfs = cfg.empty_dfs();
    let layout = SsbLayout::default();
    loader::load(
        &dfs,
        gen,
        &layout,
        &LoadOpts {
            rows_per_group: ROWS_PER_GROUP,
            cif: false,
            rcfile: true,
            text: false,
            cluster_by_date: true,
        },
    )?;
    let mut pass = PassLayers::default();
    for strategy in [JoinStrategy::Repartition, JoinStrategy::MapJoin] {
        let hive = Hive::new(Arc::clone(&dfs), layout.clone(), strategy);
        for q in queries {
            tr.next_request();
            let res = replay::traced_hive(&hive, &dfs, q, tr, &mut pass, false);
            let what = format!("side {} {}", strategy.label(), q.id);
            tally.check(&what, &res.map(|t| t.rows), answers.get(&q.id));
        }
    }
    replay::read_rcfile(&dfs, &layout, fact_cols, tr, &mut pass)?;
    pass.finish();
    Ok(pass)
}

/// Metrics the side pass supplies on Clydesdale-only workloads.
const SIDE_METRICS: [&str; 4] = [
    "hive.repartition_s",
    "hive.mapjoin_s",
    "hive.stages",
    "columnar.rcfile_ns_per_row",
];

fn layer_metrics(
    passes: &[PassLayers],
    side: Option<&PassLayers>,
    setup: &SetupLayers,
    overhead_s: f64,
) -> Vec<(MetricDef, f64)> {
    metrics::PER_LAYER
        .iter()
        .map(|d| {
            let v = match d.name {
                "ssb.gen_s" => setup.gen_s,
                "ssb.load_s" => setup.load_s,
                "core.warm_s" => setup.warm_s,
                "dfs.write_bytes" => setup.write_bytes as f64,
                "trace.overhead_s" => overhead_s,
                name => match side {
                    Some(side) if SIDE_METRICS.contains(&name) => side.get(name),
                    _ => median(&passes.iter().map(|p| p.get(name)).collect::<Vec<_>>()),
                },
            };
            (*d, v)
        })
        .collect()
}

/// One line saying which replayed layer is largest.
fn layer_shares(metrics: &[(MetricDef, f64)]) -> String {
    let get = |n: &str| {
        metrics
            .iter()
            .find(|(d, _)| d.name == n)
            .map_or(0.0, |&(_, v)| v)
    };
    let dim = get("rowcodec.decode_s") + get("hashtable.build_s");
    let fact = get("columnar.cif_s") + get("probe.probe_s");
    format!(
        "replayed per pass: rowcodec+hashtable {dim:.4} s, columnar+probe {fact:.4} s, \
         mapred.job_s {:.4} s, unattributed {:.4} s; {} larger",
        get("mapred.job_s"),
        get("mapred.unattributed_s"),
        if dim >= fact {
            "dimension path"
        } else {
            "fact path"
        }
    )
}
