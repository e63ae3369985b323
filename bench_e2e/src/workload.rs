//! The benchmark's workloads: which queries run on which engine, at which
//! scale, over which cluster.

use clyde_common::{ClydeError, Result};
use clyde_dfs::{ClusterSpec, ColocatingPlacement, Dfs, DfsOptions};
use clyde_ssb::queries::StarQuery;
use clyde_ssb::query_by_id;
use std::sync::Arc;

/// The engine one query execution runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    Clydesdale,
    HiveRepartition,
    HiveMapJoin,
}

impl EngineKind {
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Clydesdale => "clydesdale",
            EngineKind::HiveRepartition => "hive-repartition",
            EngineKind::HiveMapJoin => "hive-mapjoin",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Build-bound star joins: the part dimension is decoded and hashed on
    /// every simulated node.
    ClydeJoin,
    /// Scan-bound star joins over small dimensions.
    ClydeScan,
    /// Both Hive plans over all 13 queries: multi-stage jobs that shuffle,
    /// sort, reduce and write intermediates to the DFS.
    HivePlans,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ClydeJoin,
        Workload::ClydeScan,
        Workload::HivePlans,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ClydeJoin => "clyde-join",
            Workload::ClydeScan => "clyde-scan",
            Workload::HivePlans => "hive-plans",
        }
    }

    /// One line on what the workload was chosen to expose.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ClydeJoin => {
                "SF 0.5 Q2.x and Q4.x on Clydesdale: every node decodes and hashes the 100k-row part dimension, so the dimension path dominates"
            }
            Workload::ClydeScan => {
                "SF 0.5 Q1.x and Q3.x on Clydesdale: dimensions are small, so DFS read, CIF decode, zone skipping, the probe kernel and per-job cost dominate"
            }
            Workload::HivePlans => {
                "SF 0.05, all 13 queries under Hive repartition and mapjoin: multi-stage jobs shuffle, sort, reduce and round-trip intermediates through the DFS"
            }
        }
    }

    pub fn parse(name: &str) -> Result<Workload> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                ClydeError::Config(format!(
                    "unknown workload {name:?} (known: {})",
                    known.join(", ")
                ))
            })
    }

    pub fn default_sf(self) -> f64 {
        match self {
            // SF 1 loads take ~11 s each on a 2-core host; at SF 0.5 three
            // set-ups and a 15 s loop fit a run in well under a minute.
            Workload::ClydeJoin | Workload::ClydeScan => 0.5,
            Workload::HivePlans => 0.05,
        }
    }

    pub fn query_ids(self) -> Vec<&'static str> {
        match self {
            Workload::ClydeJoin => vec!["Q2.1", "Q2.2", "Q2.3", "Q4.1", "Q4.2", "Q4.3"],
            Workload::ClydeScan => vec!["Q1.1", "Q1.2", "Q1.3", "Q3.1", "Q3.2", "Q3.3", "Q3.4"],
            Workload::HivePlans => vec![
                "Q1.1", "Q1.2", "Q1.3", "Q2.1", "Q2.2", "Q2.3", "Q3.1", "Q3.2", "Q3.3", "Q3.4",
                "Q4.1", "Q4.2", "Q4.3",
            ],
        }
    }

    pub fn queries(self) -> Result<Vec<StarQuery>> {
        self.query_ids().into_iter().map(query_by_id).collect()
    }

    pub fn engines(self) -> &'static [EngineKind] {
        match self {
            Workload::ClydeJoin | Workload::ClydeScan => &[EngineKind::Clydesdale],
            Workload::HivePlans => &[EngineKind::HiveRepartition, EngineKind::HiveMapJoin],
        }
    }

    /// Whether the set-up also writes the RCFile copy Hive reads.
    pub fn needs_rcfile(self) -> bool {
        self.engines().iter().any(|e| *e != EngineKind::Clydesdale)
    }
}

/// Everything one run is parameterized by.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Closed-loop measurement budget; whole passes run until it is spent.
    pub seconds: f64,
    pub trace: bool,
    pub sf: f64,
}

/// Times the set-up is repeated per untraced run; `setup_s` is their
/// median.
pub const SETUPS: usize = 3;

/// Rows per CIF/RCFile row group: the loader's default.
pub const ROWS_PER_GROUP: u64 = 100_000;

/// Simulated worker nodes.
pub const WORKERS: usize = 4;

impl Config {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds,
            trace,
            sf: workload.default_sf(),
        }
    }

    /// Cluster A's node shape with [`WORKERS`] workers.
    pub fn cluster(&self) -> ClusterSpec {
        let mut c = ClusterSpec::cluster_a();
        c.workers = WORKERS;
        c.name = format!("bench-{WORKERS}");
        c
    }

    /// An empty DFS over [`Config::cluster`]: 8 MiB blocks, three
    /// replicas, co-located placement.
    pub fn empty_dfs(&self) -> Arc<Dfs> {
        Dfs::new(
            self.cluster(),
            DfsOptions {
                block_size: 8 << 20,
                replication: 3,
                policy: Box::new(ColocatingPlacement),
            },
        )
    }
}
