//! The traced run's layer pipeline, replayed from outside the program.
//!
//! A Clydesdale map task is: decode each joined dimension's master copy
//! (`rowcodec`), build the hash tables (`hashtable`), open and drain the
//! CIF readers of its splits (`columnar`), probe every block (`probe`) and
//! emit one record per group. The replay makes those same public calls one
//! after another on one thread, each inside its own span, so each layer
//! gets its own wall reading. It then folds the groups, sorts them with
//! the query's ORDER BY and must reproduce the engine's answer exactly.
//! A real job runs the build on every node and probes on many threads;
//! `mapred.unattributed_s` is the job's wall minus the replayed layers.

use crate::trace::Tracer;
use clyde_columnar::{CifInputFormat, CifReader, MultiSplit, RcFileReader, ScanMode};
use clyde_common::{rowcodec, ClydeError, Datum, FxHashMap, Result, Row, RowBlock};
use clyde_dfs::{Dfs, NodeId};
use clyde_hive::{Hive, JoinStrategy};
use clyde_mapred::{InputFormat, JobConf, JobProfile, SplitSpec, TaskIo};
use clyde_ssb::loader::SsbLayout;
use clyde_ssb::queries::StarQuery;
use clyde_ssb::schema;
use clydesdale::planner::{plan_query, scan_schema, zone_preds, ROWS_PER_BLOCK};
use clydesdale::probe::{
    probe_block, probe_block_vec, GroupAcc, GroupLayout, ProbePlan, ProbeStats, SelBuf,
};
use clydesdale::{Clydesdale, DimTables, Features, KernelOpts};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Per-layer sums over one traced pass, keyed by metric name (plus a few
/// row counters the ratios are derived from).
#[derive(Debug, Default, Clone)]
pub struct PassLayers {
    values: BTreeMap<&'static str, f64>,
}

impl PassLayers {
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.values.entry(key).or_insert(0.0) += v;
    }

    pub fn get(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }

    /// Derive the per-row and per-fraction metrics from the sums.
    pub fn finish(&mut self) {
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let derived = [
            (
                "rowcodec.ns_per_row",
                ratio(
                    self.get("rowcodec.decode_s") * 1e9,
                    self.get("rowcodec.rows"),
                ),
            ),
            (
                "hashtable.ns_per_row",
                ratio(
                    self.get("hashtable.build_s") * 1e9,
                    self.get("hashtable.build_rows"),
                ),
            ),
            (
                "columnar.ns_per_row",
                ratio(self.get("columnar.cif_s") * 1e9, self.get("columnar.rows")),
            ),
            (
                "columnar.zone_skip_frac",
                ratio(
                    self.get("columnar.zone_skipped"),
                    self.get("columnar.zone_checked"),
                ),
            ),
            (
                "probe.ns_per_row",
                ratio(self.get("probe.probe_s") * 1e9, self.get("probe.rows")),
            ),
            (
                "probe.survivor_frac",
                ratio(self.get("probe.survivors"), self.get("probe.rows")),
            ),
            (
                "probe.probes_per_row",
                ratio(self.get("probe.probes"), self.get("probe.rows")),
            ),
            (
                "columnar.rcfile_ns_per_row",
                ratio(
                    self.get("columnar.rcfile_s") * 1e9,
                    self.get("columnar.rcfile_rows"),
                ),
            ),
            (
                "mapred.unattributed_s",
                self.get("mapred.job_s")
                    - self.get("rowcodec.decode_s")
                    - self.get("hashtable.build_s")
                    - self.get("columnar.cif_s")
                    - self.get("probe.probe_s"),
            ),
        ];
        for (k, v) in derived {
            self.values.insert(k, v);
        }
    }
}

/// Add a job's shuffle bytes and summed task walls.
fn add_profile(pass: &mut PassLayers, p: &JobProfile) {
    pass.add("mapred.shuffle_bytes", p.shuffle_bytes as f64);
    let wall =
        |ts: &[clyde_mapred::TaskProfile]| ts.iter().map(|t| t.wall_ns as f64 / 1e9).sum::<f64>();
    pass.add("mapred.map_wall_s", wall(&p.map_tasks));
    pass.add("mapred.reduce_wall_s", wall(&p.reduce_tasks));
}

/// What a traced execution returns: the rows and its end-to-end seconds.
pub struct Traced {
    pub rows: Vec<Row>,
    pub secs: f64,
}

/// One Clydesdale query the way `Clydesdale::query` runs it: `plan_query`,
/// `Engine::run_job`, then the client-side `finish_result`. `own` says
/// whether the execution is the workload's own traffic, whose shuffle,
/// task-wall and DFS-write volume the pass reports.
pub fn traced_clyde(
    clyde: &Clydesdale,
    layout: &SsbLayout,
    q: &StarQuery,
    tr: &mut Tracer,
    pass: &mut PassLayers,
    own: bool,
) -> Result<Traced> {
    let dfs = clyde.engine().dfs();
    let scope = dfs.io_scope();
    let start = Instant::now();
    let spec = plan_query(q, layout, clyde.features(), dfs.cluster())?;
    let (res, job_s) = tr.span("mapred", format!("run_job {}", q.id), || {
        clyde.engine().run_job(&spec)
    });
    let res = res?;
    let mut rows = res.rows;
    let ((), finish_s) = tr.span("core", format!("finish_result {}", q.id), || {
        q.finish_result(&mut rows)
    });
    let secs = tr.close("query", format!("clydesdale {}", q.id), start);
    pass.add("mapred.job_s", job_s);
    pass.add("core.finish_s", finish_s);
    if own {
        add_profile(pass, &res.profile);
        pass.add(
            "dfs.query_write_bytes",
            scope.delta().total_written() as f64,
        );
    }
    Ok(Traced { rows, secs })
}

/// One Hive query, timed around `Hive::query`. `own` as for
/// [`traced_clyde`].
pub fn traced_hive(
    hive: &Hive,
    dfs: &Dfs,
    q: &StarQuery,
    tr: &mut Tracer,
    pass: &mut PassLayers,
    own: bool,
) -> Result<Traced> {
    let scope = dfs.io_scope();
    let label = hive.strategy().label();
    let (res, secs) = tr.span("hive", format!("{label} {}", q.id), || hive.query(q));
    let res = res?;
    pass.add(
        match hive.strategy() {
            JoinStrategy::Repartition => "hive.repartition_s",
            JoinStrategy::MapJoin => "hive.mapjoin_s",
        },
        secs,
    );
    pass.add("hive.stages", res.stages.len() as f64);
    if own {
        for stage in &res.stages {
            add_profile(pass, &stage.profile);
        }
        pass.add(
            "dfs.query_write_bytes",
            scope.delta().total_written() as f64,
        );
    }
    Ok(Traced {
        rows: res.rows,
        secs,
    })
}

/// Replay one Clydesdale query layer by layer (engine-default features)
/// and return its final rows.
pub fn replay_clyde(
    dfs: &Arc<Dfs>,
    layout: &SsbLayout,
    features: Features,
    q: &StarQuery,
    tr: &mut Tracer,
    pass: &mut PassLayers,
) -> Result<Vec<Row>> {
    // dfs: each joined dimension's master copy.
    let scope = dfs.io_scope();
    let mut masters = Vec::with_capacity(q.joins.len());
    for j in &q.joins {
        let path = layout.dim_bin(&j.dimension);
        let (bytes, s) = tr.span("dfs", format!("read_file {path}"), || {
            dfs.read_file(&path, None)
        });
        pass.add("dfs.read_s", s);
        masters.push((j.dimension.clone(), bytes?));
    }
    pass.add("dfs.read_bytes", scope.delta().total_read() as f64);
    drop(scope);

    // rowcodec: decode the masters.
    let mut decoded: BTreeMap<String, Vec<Row>> = BTreeMap::new();
    for (dim, bytes) in masters {
        let (rows, s) = tr.span("rowcodec", format!("read_rows {dim}"), || {
            rowcodec::read_rows(&bytes)
        });
        let rows = rows?;
        pass.add("rowcodec.decode_s", s);
        pass.add("rowcodec.rows", rows.len() as f64);
        decoded.insert(dim, rows);
    }

    // hashtable: one table per join, predicates applied during the build.
    let (tables, s) = tr.span("hashtable", format!("build_all_with {}", q.id), || {
        DimTables::build_all_with(&q.joins, features.dict_predicates, |dim| {
            decoded
                .remove(dim)
                .ok_or_else(|| ClydeError::Plan(format!("dimension {dim} joined twice")))
        })
    });
    let tables = tables?;
    pass.add("hashtable.build_s", s);
    pass.add("hashtable.build_rows", tables.build_rows as f64);
    pass.add(
        "hashtable.mem_bytes",
        (tables.mem_bytes + tables.mem_fixed_bytes) as f64,
    );

    // columnar: the job's input format, opened and drained split by split.
    let (scan_cols, scan) = scan_schema(q, &features)?;
    let mut input = CifInputFormat::new(layout.fact_cif())
        .with_columns(scan_cols.clone())
        .with_mode(ScanMode::Blocks {
            rows_per_block: ROWS_PER_BLOCK,
        })
        .with_multi(if features.multithreading {
            MultiSplit::OnePerNode
        } else {
            MultiSplit::Single
        });
    if features.zone_skipping {
        input = input.with_zone_preds(zone_preds(q));
    }
    let (scanned, s) = tr.span("columnar", format!("CifInputFormat {}", q.id), || {
        drain_cif(dfs, &input, pass)
    });
    let (blocks, decoded_groups) = scanned?;
    pass.add("columnar.cif_s", s);

    // dfs: a stand-alone re-read of the fact chunks the scan decoded (the
    // scan's own fetch of them is inside columnar.cif_s).
    let chunk_paths: Vec<String> = {
        let reader = CifReader::open(dfs, &layout.fact_cif())?;
        decoded_groups
            .iter()
            .flat_map(|&g| scan_cols.iter().map(move |c| (g, c)))
            .map(|(g, c)| reader.meta().column_path(g, c))
            .collect()
    };
    let scope = dfs.io_scope();
    let (read, s) = tr.span("dfs", format!("read_file fact chunks {}", q.id), || {
        chunk_paths
            .iter()
            .try_for_each(|p| dfs.read_file(p, None).map(drop))
    });
    read?;
    pass.add("dfs.read_s", s);
    pass.add("dfs.read_bytes", scope.delta().total_read() as f64);
    drop(scope);

    // probe: every block against the tables, on one thread.
    let plan = ProbePlan::compile(q, &scan)?;
    let group_layout = if features.vectorized {
        GroupLayout::new(&plan, &tables)
    } else {
        None
    };
    let kopts = KernelOpts::from_features(&features);
    let mut stats = ProbeStats::default();
    let mut groups: FxHashMap<Row, i64> = FxHashMap::default();
    let mut vacc = group_layout
        .as_ref()
        .map(|l| GroupAcc::new(l, &q.aggregate));
    let (probed, s) = tr.span(
        "probe",
        format!("probe_block_vec {}", q.id),
        || -> Result<()> {
            let mut buf = SelBuf::default();
            for block in &blocks {
                match (&mut vacc, &group_layout) {
                    (Some(acc), Some(l)) => {
                        probe_block_vec(block, &plan, &tables, l, acc, &mut buf, &mut stats, kopts)?
                    }
                    _ => probe_block(block, &plan, &tables, &mut groups, &mut stats)?,
                }
            }
            Ok(())
        },
    );
    probed?;
    pass.add("probe.probe_s", s);
    pass.add("probe.rows", stats.rows as f64);
    pass.add("probe.probes", stats.probes as f64);
    pass.add("probe.survivors", stats.survivors as f64);

    // Emit + reduce: rematerialize packed keys, fold, and ORDER BY.
    let agg = &q.aggregate;
    if let (Some(acc), Some(l)) = (vacc, &group_layout) {
        for (key, v) in acc.entries() {
            let slot = groups
                .entry(l.rematerialize(key, &tables))
                .or_insert_with(|| agg.identity());
            *slot = agg.fold(*slot, v);
        }
    }
    let mut rows: Vec<Row> = groups
        .into_iter()
        .map(|(k, v)| k.concat(&Row::new(vec![Datum::I64(v)])))
        .collect();
    q.finish_result(&mut rows);
    Ok(rows)
}

/// Open every part of every split and collect its blocks. Returns the
/// blocks and the row groups that were decoded rather than zone-skipped.
fn drain_cif(
    dfs: &Arc<Dfs>,
    input: &CifInputFormat,
    pass: &mut PassLayers,
) -> Result<(Vec<RowBlock>, Vec<usize>)> {
    let mut blocks = Vec::new();
    let mut decoded = Vec::new();
    for split in input.splits(dfs, &JobConf::new())? {
        let SplitSpec::Groups { groups, .. } = &split.spec else {
            return Err(ClydeError::MapReduce("CIF splits are group splits".into()));
        };
        let node = split.hosts.first().copied().unwrap_or(NodeId(0));
        let io = TaskIo::new(Arc::clone(dfs), node);
        for (part, &group) in groups.iter().enumerate() {
            let mut reader = input.open(&split, part, &io)?.into_blocks()?;
            let mut rows = 0;
            while let Some(block) = reader.next_block()? {
                rows += block.len();
                blocks.push(block);
            }
            if rows > 0 {
                decoded.push(group);
            }
            pass.add("columnar.rows", rows as f64);
        }
        pass.add("columnar.zone_checked", io.stats.zone_checked() as f64);
        pass.add("columnar.zone_skipped", io.stats.zone_skipped() as f64);
    }
    Ok((blocks, decoded))
}

/// Read every row group of the fact table's RCFile copy through
/// `RcFileReader::read_group`, projected to `columns`.
pub fn read_rcfile(
    dfs: &Arc<Dfs>,
    layout: &SsbLayout,
    columns: &[String],
    tr: &mut Tracer,
    pass: &mut PassLayers,
) -> Result<()> {
    let reader = RcFileReader::open(dfs, &layout.table_rc(schema::LINEORDER))?;
    let cols: Vec<usize> = columns
        .iter()
        .map(|c| reader.schema().index_of(c))
        .collect::<Result<_>>()?;
    let io = TaskIo::client(Arc::clone(dfs));
    let (rows, s) = tr.span(
        "columnar",
        "RcFileReader::read_group lineorder",
        || -> Result<usize> {
            let mut rows = 0;
            for g in 0..reader.meta().num_groups() {
                rows += reader.read_group(&io, g, &cols)?.len();
            }
            Ok(rows)
        },
    );
    pass.add("columnar.rcfile_s", s);
    pass.add("columnar.rcfile_rows", rows? as f64);
    Ok(())
}
