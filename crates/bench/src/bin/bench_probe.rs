//! Micro-benchmark of the probe kernels over a four-query suite (Q1.1,
//! Q2.1, Q3.2, Q4.1): rows/sec, scalar vs vectorized, plus a
//! per-optimization ablation table — all over in-memory column blocks (no
//! DFS, no MapReduce — just the inner loop the map task runs).
//!
//! Usage: `bench_probe [SF] [--json PATH] [--gate PATH]`.
//!
//! * `--json PATH` writes the suite results as a JSON document (see
//!   `BENCH_probe.json` at the repo root for a committed run).
//! * `--gate PATH` reads a committed run and **fails (exit 1) if any
//!   query's measured speedup falls below 0.9× its recorded speedup** —
//!   the CI regression gate.
//!
//! Timing: each measurement first calibrates a repetition count so one
//! timed iteration runs at least [`MIN_ITER_SECS`], then times every
//! variant once per round for [`TIMED_ITERS`] rounds. Raw rows/sec are
//! best-of-rounds; the recorded `speedup` is the **median of same-round
//! scalar/vectorized ratios**, which cancels machine-wide frequency drift
//! out of the number the gate checks.

use clyde_bench::cli::{Args, Flag};
use clyde_bench::gate::Gate;
use clyde_common::obs::WallTimer;
use clyde_common::{FxHashMap, RowBlock, RowBlockBuilder};
use clyde_ssb::gen::SsbGen;
use clyde_ssb::{query_by_id, schema};
use clydesdale::hashtable::DimTables;
use clydesdale::planner::ROWS_PER_BLOCK;
use clydesdale::probe::{
    probe_block, probe_block_vec, GroupAcc, GroupLayout, KernelOpts, ProbePlan, ProbeStats, SelBuf,
};

/// The benchmarked queries: one per SSB flight, covering the kernel's
/// shapes — fact predicates + dense single group (Q1.1), no fact
/// predicates + fused first join (Q2.1), selective two-dim filters
/// (Q3.2), and a four-join probe (Q4.1).
const SUITE: [&str; 4] = ["Q1.1", "Q2.1", "Q3.2", "Q4.1"];

/// A named benchmark variant: label plus a closure running one full pass
/// over the data and returning the pass's [`ProbeStats`].
type Pass<'a> = (&'static str, Box<dyn FnMut() -> ProbeStats + 'a>);

/// Minimum wall time of one timed iteration; repetitions are scaled up
/// until a single iteration takes at least this long.
const MIN_ITER_SECS: f64 = 0.03;
const TIMED_ITERS: usize = 9;
const WARMUP_ITERS: usize = 2;

/// The per-optimization ablation points reported per query: all layers on,
/// each layer individually off, and every layer off. With one kernel layer
/// left, `none` is the same point as `no-simd-compaction`; both stay so a
/// fresh run compares row for row with committed ones.
fn ablation_points() -> Vec<(&'static str, KernelOpts)> {
    vec![
        ("all-on", KernelOpts::all_on()),
        (
            "no-simd-compaction",
            KernelOpts {
                simd_compaction: false,
            },
        ),
        ("none", KernelOpts::none()),
    ]
}

struct QueryFixture {
    qid: &'static str,
    plan: ProbePlan,
    tables: DimTables,
    blocks: Vec<RowBlock>,
    rows: u64,
}

struct QueryResult {
    qid: &'static str,
    rows: u64,
    scalar_rps: f64,
    vec_rps: f64,
    speedup: f64,
    ablations: Vec<(&'static str, f64)>,
    stats: ProbeStats,
}

fn build_fixture(data: &clyde_ssb::SsbData, qid: &'static str) -> QueryFixture {
    let q = query_by_id(qid).expect("known query");
    let fact_schema = schema::lineorder_schema();
    let cols: Vec<usize> = q
        .fact_columns()
        .iter()
        .map(|c| fact_schema.index_of(c).unwrap())
        .collect();
    let scan_schema = fact_schema.project(&cols);
    let plan = ProbePlan::compile(&q, &scan_schema).expect("plan compiles");
    let tables = DimTables::build_all(&q.joins, |dim| Ok(data.dimension(dim).unwrap().to_vec()))
        .expect("tables build");
    let dtypes: Vec<_> = scan_schema.fields().iter().map(|f| f.dtype).collect();
    let blocks: Vec<RowBlock> = data
        .lineorder
        .chunks(ROWS_PER_BLOCK)
        .map(|chunk| {
            let mut b = RowBlockBuilder::new(&dtypes);
            for r in chunk {
                b.push_row(&r.project(&cols)).unwrap();
            }
            b.finish()
        })
        .collect();
    QueryFixture {
        qid,
        plan,
        tables,
        blocks,
        rows: data.lineorder.len() as u64,
    }
}

/// One variant's timing: per-round seconds for a single pass over the
/// data (round times divided by the calibrated repetition count), plus the
/// [`ProbeStats`] one pass produced.
struct Timed {
    rounds: Vec<f64>,
    stats: ProbeStats,
}

impl Timed {
    fn best_rps(&self, rows: u64) -> f64 {
        rows as f64 / self.rounds.iter().cloned().fold(f64::INFINITY, f64::min)
    }
}

/// Interleaved rounds: every variant is timed once per round, so CPU
/// frequency drift and noisy neighbors hit all variants of a round alike
/// instead of skewing whichever happened to run during a slow stretch.
/// Repetition counts are calibrated per variant so one timed sample runs
/// at least [`MIN_ITER_SECS`]. Returns per-round single-pass times per
/// variant, in input order — ratios between variants should be computed
/// round-by-round (see [`median_ratio`]), where drift mostly cancels.
fn time_interleaved(passes: &mut [Pass<'_>]) -> Vec<Timed> {
    let mut reps = Vec::with_capacity(passes.len());
    let mut stats = Vec::with_capacity(passes.len());
    for (_, pass) in passes.iter_mut() {
        for _ in 0..WARMUP_ITERS {
            std::hint::black_box(pass());
        }
        let t = WallTimer::start();
        let s = std::hint::black_box(pass());
        let once = t.elapsed_s().max(1e-9);
        reps.push(((MIN_ITER_SECS / once).ceil() as usize).max(1));
        stats.push(s);
    }
    let mut rounds = vec![Vec::with_capacity(TIMED_ITERS); passes.len()];
    for _ in 0..TIMED_ITERS {
        for (v, (_, pass)) in passes.iter_mut().enumerate() {
            let t = WallTimer::start();
            for _ in 0..reps[v] {
                stats[v] = std::hint::black_box(pass());
            }
            rounds[v].push(t.elapsed_s() / reps[v] as f64);
        }
    }
    rounds
        .into_iter()
        .zip(stats)
        .map(|(rounds, stats)| Timed { rounds, stats })
        .collect()
}

/// Median over rounds of `base_time / variant_time` — the speedup of
/// `variant` relative to `base`, with same-round pairing so machine-wide
/// drift cancels out of the ratio.
fn median_ratio(base: &Timed, variant: &Timed) -> f64 {
    let mut ratios: Vec<f64> = base
        .rounds
        .iter()
        .zip(&variant.rounds)
        .map(|(b, v)| b / v)
        .collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ratios[ratios.len() / 2]
}

fn bench_query(fx: &QueryFixture) -> QueryResult {
    let QueryFixture {
        qid,
        plan,
        tables,
        blocks,
        rows,
    } = fx;
    let layout = GroupLayout::new(plan, tables).expect("packed key fits");
    let mut passes: Vec<Pass<'_>> = Vec::new();
    passes.push((
        "scalar",
        Box::new(|| {
            let mut acc = FxHashMap::default();
            let mut stats = ProbeStats::default();
            for b in blocks {
                probe_block(b, plan, tables, &mut acc, &mut stats).unwrap();
            }
            stats
        }),
    ));
    for (label, opts) in ablation_points() {
        let layout = &layout;
        passes.push((
            label,
            Box::new(move || {
                let mut acc = GroupAcc::new(layout, &plan.aggregate);
                let mut buf = SelBuf::default();
                let mut stats = ProbeStats::default();
                for b in blocks {
                    probe_block_vec(
                        b, plan, tables, layout, &mut acc, &mut buf, &mut stats, opts,
                    )
                    .unwrap();
                }
                stats
            }),
        ));
    }
    let timed = time_interleaved(&mut passes);
    let scalar = &timed[0];
    let mut vec_rps = 0.0;
    let mut speedup = 0.0;
    let mut vec_stats = ProbeStats::default();
    let mut ablations = Vec::new();
    for ((label, _), t) in passes.iter().zip(&timed).skip(1) {
        assert_eq!(
            t.stats, scalar.stats,
            "{qid} {label}: kernels must count identically (rows/probes/survivors)"
        );
        if *label == "all-on" {
            vec_rps = t.best_rps(*rows);
            speedup = median_ratio(scalar, t);
            vec_stats = t.stats;
        }
        ablations.push((*label, t.best_rps(*rows)));
    }
    QueryResult {
        qid,
        rows: *rows,
        scalar_rps: scalar.best_rps(*rows),
        vec_rps,
        speedup,
        ablations,
        stats: vec_stats,
    }
}

fn main() {
    let args = Args::parse(
        "bench_probe",
        &[Flag::Value("--json", "path"), Flag::Value("--gate", "path")],
    );
    let sf = args.sf_or(0.01);

    eprintln!("generating SSB at SF {sf}...");
    let data = SsbGen::new(sf, 46).gen_all();
    eprintln!(
        "probing {} rows in blocks of {ROWS_PER_BLOCK} (best of {TIMED_ITERS}, \
         >= {MIN_ITER_SECS}s per timed iteration)...",
        data.lineorder.len()
    );

    let mut results = Vec::new();
    for qid in SUITE {
        let fx = build_fixture(&data, qid);
        let r = bench_query(&fx);
        println!(
            "{}: scalar {:>12.0} rows/s | vectorized {:>12.0} rows/s | speedup {:.2}x",
            r.qid, r.scalar_rps, r.vec_rps, r.speedup
        );
        for (label, rps) in &r.ablations {
            println!("    {label:<20} {rps:>12.0} rows/s");
        }
        results.push(r);
    }

    if let Some(path) = args.value("--json") {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\n  \"sf\": {sf},\n  \"block_rows\": {ROWS_PER_BLOCK},\n  \"queries\": {{\n"
        ));
        for (i, r) in results.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {{\n      \"fact_rows\": {},\n      \"scalar_rows_per_s\": {:.0},\n      \
                 \"vectorized_rows_per_s\": {:.0},\n      \"speedup\": {:.2},\n      \
                 \"probes\": {},\n      \"survivors\": {},\n      \"ablations\": {{\n",
                r.qid, r.rows, r.scalar_rps, r.vec_rps, r.speedup, r.stats.probes, r.stats.survivors
            ));
            for (j, (label, rps)) in r.ablations.iter().enumerate() {
                let comma = if j + 1 < r.ablations.len() { "," } else { "" };
                out.push_str(&format!("        \"{label}\": {rps:.0}{comma}\n"));
            }
            let comma = if i + 1 < results.len() { "," } else { "" };
            out.push_str(&format!("      }}\n    }}{comma}\n"));
        }
        out.push_str("  }\n}\n");
        std::fs::write(path, out).expect("write json");
        eprintln!("wrote {path}");
    }

    if let Some(path) = args.value("--gate") {
        let mut gate = Gate::open(path);
        for r in &results {
            gate.recorded(
                &format!("{} speedup", r.qid),
                r.speedup,
                0.9,
                &["queries", r.qid, "speedup"],
            );
        }
        gate.finish("bench");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clyde_common::obs::json::{self, Json};

    #[test]
    fn committed_baseline_matches_the_suite() {
        let doc = json::parse(include_str!("../../../../BENCH_probe.json")).unwrap();
        let expect: Vec<&str> = ablation_points().iter().map(|(l, _)| *l).collect();
        for qid in SUITE {
            let query = doc.get("queries").and_then(|q| q.get(qid));
            let Some(Json::Obj(ablations)) = query.and_then(|q| q.get("ablations")) else {
                panic!("{qid}: no ablations object");
            };
            let labels: Vec<&str> = ablations.iter().map(|(l, _)| l.as_str()).collect();
            assert_eq!(labels, expect, "{qid}");
            let speedup = json::number_at(&doc, &["queries", qid, "speedup"]).unwrap();
            assert!(speedup > 1.0, "{qid}");
        }
    }
}
