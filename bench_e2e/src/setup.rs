//! Reference answers and the timed set-up: empty DFS to ready-to-query.

use crate::sys;
use crate::trace::Tracer;
use crate::workload::{Config, EngineKind, ROWS_PER_GROUP};
use clyde_common::{Result, Row};
use clyde_dfs::Dfs;
use clyde_hive::{Hive, JoinStrategy};
use clyde_ssb::gen::SsbGen;
use clyde_ssb::loader::{self, LoadOpts, SsbLayout};
use clyde_ssb::queries::StarQuery;
use clyde_ssb::reference_answer;
use clydesdale::Clydesdale;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Expected rows per query id.
pub type Answers = BTreeMap<String, Vec<Row>>;

/// Answers from the trusted single-process executor over the fully
/// materialized dataset. The dataset is dropped and its pages returned
/// before this returns, and the RSS high-water mark is reset, so the
/// program's own peak is what `peak_rss_mb` later reads. Returns whether
/// the reset took effect.
pub fn reference_answers(gen: SsbGen, queries: &[StarQuery]) -> Result<(Answers, bool)> {
    let data = gen.gen_all();
    let mut answers = Answers::new();
    for q in queries {
        answers.insert(q.id.clone(), reference_answer(&data, q)?);
    }
    drop(data);
    sys::release_freed_memory();
    Ok((answers, sys::reset_peak_rss()))
}

/// A loaded dataset and the engines that query it.
pub struct Loaded {
    pub dfs: Arc<Dfs>,
    pub layout: SsbLayout,
    pub gen: SsbGen,
    pub clyde: Clydesdale,
    pub hive_repartition: Hive,
    pub hive_mapjoin: Hive,
}

impl Loaded {
    pub fn hive(&self, kind: EngineKind) -> Option<&Hive> {
        match kind {
            EngineKind::HiveRepartition => Some(&self.hive_repartition),
            EngineKind::HiveMapJoin => Some(&self.hive_mapjoin),
            EngineKind::Clydesdale => None,
        }
    }
}

/// Per-layer readings of one traced set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupLayers {
    pub gen_s: f64,
    pub load_s: f64,
    pub warm_s: f64,
    pub write_bytes: u64,
}

fn load_opts(cfg: &Config) -> LoadOpts {
    LoadOpts {
        rows_per_group: ROWS_PER_GROUP,
        cif: true,
        rcfile: cfg.workload.needs_rcfile(),
        text: false,
        cluster_by_date: true,
    }
}

fn engines(dfs: &Arc<Dfs>, layout: &SsbLayout) -> (Clydesdale, Hive, Hive) {
    (
        Clydesdale::new(Arc::clone(dfs), layout.clone()),
        Hive::new(Arc::clone(dfs), layout.clone(), JoinStrategy::Repartition),
        Hive::new(Arc::clone(dfs), layout.clone(), JoinStrategy::MapJoin),
    )
}

/// One set-up: generate, encode and write the dataset into an empty DFS,
/// then warm every node's dimension cache. Returns the loaded dataset and
/// its wall seconds.
pub fn setup(cfg: &Config) -> Result<(Loaded, f64)> {
    let start = Instant::now();
    let gen = SsbGen::new(cfg.sf, cfg.seed);
    let dfs = cfg.empty_dfs();
    let layout = SsbLayout::default();
    loader::load(&dfs, gen, &layout, &load_opts(cfg))?;
    let (clyde, hive_repartition, hive_mapjoin) = engines(&dfs, &layout);
    clyde.warm_dimension_cache()?;
    let secs = start.elapsed().as_secs_f64();
    Ok((
        Loaded {
            dfs,
            layout,
            gen,
            clyde,
            hive_repartition,
            hive_mapjoin,
        },
        secs,
    ))
}

/// [`setup`] with spans around each public call. Table generation is
/// timed in a separate generation-only pass first, since the loader
/// generates internally.
pub fn setup_traced(cfg: &Config, tr: &mut Tracer) -> Result<(Loaded, SetupLayers)> {
    let gen = SsbGen::new(cfg.sf, cfg.seed);
    let (generated, gen_s) = tr.span("ssb", "SsbGen tables", || -> Result<usize> {
        let dims = gen.gen_customer().len()
            + gen.gen_supplier().len()
            + gen.gen_part().len()
            + gen.gen_date().len();
        let mut facts = 0usize;
        gen.for_each_lineorder(|_| {
            facts += 1;
            Ok(())
        })?;
        Ok(dims + facts)
    });
    generated?;
    let dfs = cfg.empty_dfs();
    let layout = SsbLayout::default();
    let scope = dfs.io_scope();
    let (loaded, load_s) = tr.span("ssb", "loader::load", || {
        loader::load(&dfs, gen, &layout, &load_opts(cfg))
    });
    loaded?;
    let (clyde, hive_repartition, hive_mapjoin) = engines(&dfs, &layout);
    let (warmed, warm_s) = tr.span("core", "warm_dimension_cache", || {
        clyde.warm_dimension_cache()
    });
    warmed?;
    let write_bytes = scope.delta().total_written();
    drop(scope);
    Ok((
        Loaded {
            dfs,
            layout,
            gen,
            clyde,
            hive_repartition,
            hive_mapjoin,
        },
        SetupLayers {
            gen_s,
            load_s,
            warm_s,
            write_bytes,
        },
    ))
}
