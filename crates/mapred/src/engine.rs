//! Job execution.
//!
//! The engine really runs jobs: one worker thread per simulated cluster node
//! drains that node's task queue, tasks read real bytes from the simulated
//! DFS, and the shuffle sorts and merges real records. Simulated time never
//! depends on wall-clock — it is derived afterwards from the recorded
//! [`TaskCost`] counters, so results and costs are
//! deterministic no matter how the OS schedules the threads.
//!
//! Failed map tasks are **re-executed** on alternate nodes up to the job's
//! attempt budget — Hadoop's fault-tolerance contract, one of the properties
//! the paper keeps by staying on an unmodified platform. Out-of-memory
//! failures are not retried: exhausting a deterministic resource model would
//! fail identically everywhere (and this is how the paper's cluster-A
//! mapjoin queries "did not complete").
//!
//! Every job runs through named stages: **resolve** (fault-plan corruption,
//! splits, fingerprint) → **reuse** (result-cache lookup; a hit skips to
//! commit) → **map** (first wave, heartbeat barrier, retry wave,
//! speculation — all launching work through one `MapTaskEnv::attempt`) →
//! **shuffle/reduce** → **commit** (`Commit`: the one place that knows where
//! output goes, and the finish step computed and cache-served jobs share).

use crate::cost::{CostParams, TaskCost};
use crate::distcache::DistCache;
use crate::fault::FaultPlan;
use crate::history;
use crate::input::{InputSplit, SplitSpec};
use crate::job::{JobProfile, JobResult, JobSpec, KilledAttempt, OutputSpec, TaskProfile};
use crate::scheduler;
use crate::shuffle::{self, Reducer};
use crate::task::{
    MapOutputBuffer, MapTaskContext, MemoryLedger, MemoryTracker, NodeState, TaskIo,
};
use clyde_common::lockorder::Mutex;
use clyde_common::obs::{Obs, Phase, TaskKind, WallTimer};
use clyde_common::{keycodec, rowcodec, ClydeError, Result, Row};
use clyde_dfs::IoScope;
use clyde_dfs::{CacheEntry, Dfs, IoSnapshot, NodeId, NodeLocalStore};
use std::sync::Arc;

/// A node is blacklisted for further retries once this many of its attempts
/// have failed within one job (Hadoop's `mapred.max.tracker.failures`).
/// Advisory: retries merely *prefer* clean nodes; only DFS-dead nodes are
/// hard-excluded, so a healthy-but-unlucky cluster can still finish the job.
const BLACKLIST_AFTER_FAILURES: u32 = 3;

/// Artifacts prepared by the job client before submission (Hive's master
/// builds mapjoin hash tables here).
#[derive(Default, Clone)]
pub struct ClientArtifacts {
    pub cache: Arc<DistCache>,
    /// Rows the client scanned/inserted building the artifacts.
    pub build_rows: u64,
}

/// The resolve stage's hand-off: the job and where its output goes, what
/// it reads and, when it is cacheable, its canonical fingerprint.
struct Resolved<'a> {
    commit: Commit<'a>,
    splits: Vec<InputSplit>,
    fingerprint: Option<u64>,
}

/// Output committed so far: rows for [`OutputSpec::Memory`], part files for
/// [`OutputSpec::DfsDir`].
#[derive(Default)]
struct Committed {
    rows: Vec<Row>,
    files: Vec<String>,
}

/// The commit stage: the one place that knows where a job's output goes.
#[derive(Clone, Copy)]
struct Commit<'a> {
    dfs: &'a Arc<Dfs>,
    spec: &'a JobSpec,
}

impl Commit<'_> {
    /// Commit one task's rows as output part `part-{kind}-{index:05}`: kept
    /// in memory, or written to the output directory. A written part
    /// supersedes any earlier attempt's file — an attempt may die between
    /// writing its part and reporting success.
    fn part(
        &self,
        kind: char,
        index: usize,
        rows: Vec<Row>,
        cost: &mut TaskCost,
        into: &mut Committed,
    ) -> Result<()> {
        match &self.spec.output {
            OutputSpec::Memory => into.rows.extend(rows),
            OutputSpec::DfsDir(dir) => {
                let path = format!("{dir}/part-{kind}-{index:05}");
                if self.dfs.exists(&path) {
                    self.dfs.delete(&path)?;
                }
                let payload = rowcodec::write_rows(&rows);
                cost.output_bytes += payload.len() as u64;
                self.dfs.write_file(&path, None, &payload)?;
                into.files.push(path);
            }
        }
        Ok(())
    }

    /// Materialize a cache hit: read the persisted rows back (memory jobs)
    /// or point downstream readers at the cached files (DFS-dir jobs —
    /// metadata only, nothing is copied or re-executed).
    fn serve(&self, entry: &CacheEntry) -> Result<Committed> {
        let mut out = Committed::default();
        match &self.spec.output {
            OutputSpec::Memory => {
                // Each cached file is its own row-binary stream; decode
                // per-file (a concatenation is not a valid single stream).
                for p in &entry.output_paths {
                    let bytes = self.dfs.read_file(p, None)?;
                    out.rows.extend(rowcodec::read_rows(&bytes)?);
                }
            }
            OutputSpec::DfsDir(_) => out.files = entry.output_paths.clone(),
        }
        Ok(out)
    }

    /// Persist a finished job's output into the result cache. The catalog
    /// admits (or refuses) the entry first — evicting LRU entries and
    /// deleting their backing files — and only an admitted entry's bytes are
    /// written under `/cache/{fingerprint}/`.
    fn fill(&self, fp: u64, splits: &[InputSplit], out: &Committed) -> Result<()> {
        let dir = format!("/cache/{fp:016x}");
        // Lineage-fingerprinted stages record no input paths: their inputs
        // are per-run tmp files, and coherence rides the fingerprint chain
        // (a base-stage change re-fingerprints every downstream stage).
        let input_paths = if self.spec.lineage.is_some() {
            Vec::new()
        } else {
            crate::fingerprint::input_paths(splits)
        };
        let mut entry = CacheEntry {
            fingerprint: fp,
            output_paths: Vec::new(),
            bytes: 0,
            memory_rows: None,
            input_paths,
            last_used: 0,
            pinned: false,
        };
        match &self.spec.output {
            OutputSpec::Memory => {
                let payload = rowcodec::write_rows(&out.rows);
                let path = format!("{dir}/rows.bin");
                entry.output_paths.push(path.clone());
                entry.bytes = payload.len() as u64;
                entry.memory_rows = Some(out.rows.len() as u64);
                if self.dfs.cache_insert(entry)? {
                    self.dfs.write_file(&path, None, &payload)?;
                }
            }
            OutputSpec::DfsDir(_) => {
                for src in &out.files {
                    let name = src.rsplit('/').next().unwrap_or(src);
                    entry.output_paths.push(format!("{dir}/{name}"));
                    entry.bytes += self.dfs.file_len(src)?;
                }
                let paths = entry.output_paths.clone();
                if self.dfs.cache_insert(entry)? {
                    for (src, dst) in out.files.iter().zip(&paths) {
                        let data = self.dfs.read_file(src, None)?;
                        self.dfs.write_file(dst, None, &data)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Output of one executed map-task attempt, waiting for the shuffle (or,
/// for map-only jobs, already committed).
struct TaskOutput {
    /// Sorted (and combined) records bound for the shuffle.
    records: Vec<(Vec<u8>, Row)>,
    /// A map-only job's committed part.
    part: Committed,
    cost: TaskCost,
    node: NodeId,
    /// Which attempt (0-based) of the task produced this output.
    attempt: u32,
    /// Measured wall-clock of the whole attempt (observability-only).
    wall_ns: u64,
    /// Wall-clock the runner attributed to specific phases.
    wall_phases: Vec<(Phase, u64)>,
    /// Whether this output came from a speculative backup attempt.
    speculative: bool,
}

/// Why a map-task attempt produced no output.
enum AttemptError {
    /// Another attempt, possibly elsewhere, may succeed: an injected crash,
    /// a failed read, a lost heartbeat.
    Retry(ClydeError),
    /// Fails identically everywhere (out of memory), so the job fails.
    Fatal(ClydeError),
}

/// A first-wave failure awaiting the retry wave: task, node, error.
type Failure = (usize, NodeId, AttemptError);

/// Recovery bookkeeping for one job's map stage: the profile whose
/// recovery counters it fills, and the per-node failure counts that feed
/// the blacklist.
struct Recovery {
    profile: JobProfile,
    node_failures: Vec<u32>,
    blacklisted: Vec<bool>,
}

impl Recovery {
    /// Count a failed attempt on `node`; the node is blacklisted once it
    /// reaches [`BLACKLIST_AFTER_FAILURES`].
    fn note_failure(&mut self, node: NodeId) {
        self.profile.failed_attempts += 1;
        if let Some(count) = self.node_failures.get_mut(node.0) {
            *count += 1;
            if *count >= BLACKLIST_AFTER_FAILURES {
                if let Some(b) = self.blacklisted.get_mut(node.0) {
                    *b = true;
                }
            }
        }
    }
}

/// Everything a map-task attempt needs, shared by the first wave, the
/// retry wave and speculation.
struct MapTaskEnv<'a> {
    engine: &'a Engine,
    spec: &'a JobSpec,
    splits: &'a [InputSplit],
    cache: &'a Arc<DistCache>,
    commit: Commit<'a>,
    /// Per-node JVM state (reused across tasks when the job asks) and memory.
    nodes: &'a [(Arc<NodeState>, Arc<MemoryTracker>)],
    ledger: &'a Arc<MemoryLedger>,
    concurrency: u32,
    threads: u32,
    host_threads: u32,
    faults: Option<&'a FaultPlan>,
    max_attempts: u32,
}

impl MapTaskEnv<'_> {
    /// Attempt `attempt` (0-based) of map task `task_idx` on `node`: the
    /// fault plan's injected crash, else the real execution, with any error
    /// classified as retryable or fatal. The first wave, the retry wave and
    /// speculative backups all launch work through here.
    fn attempt(
        &self,
        task_idx: usize,
        node: NodeId,
        attempt: u32,
    ) -> std::result::Result<TaskOutput, AttemptError> {
        if self
            .faults
            .is_some_and(|f| f.fails_attempt(task_idx, attempt, self.max_attempts))
        {
            let msg = format!("injected fault: task {task_idx} attempt {attempt} crashed");
            return Err(AttemptError::Retry(ClydeError::MapReduce(msg)));
        }
        match self.exec(task_idx, node) {
            Ok(out) => Ok(TaskOutput { attempt, ..out }),
            Err(e) if e.is_oom() => Err(AttemptError::Fatal(e)),
            Err(e) => Err(AttemptError::Retry(e)),
        }
    }

    /// Execute one attempt of one map task on `node`.
    fn exec(&self, task_idx: usize, node: NodeId) -> Result<TaskOutput> {
        let wall_start = WallTimer::start();
        let split = self
            .splits
            .get(task_idx)
            .ok_or_else(|| ClydeError::MapReduce(format!("map task {task_idx} has no split")))?;
        let io = TaskIo::new(Arc::clone(&self.engine.dfs), node);
        let out = Arc::new(MapOutputBuffer::new());
        let cost = Arc::new(Mutex::new(TaskCost {
            threads: self.threads,
            ..TaskCost::new()
        }));
        let (jvm, memory) = self
            .nodes
            .get(node.0)
            .ok_or_else(|| ClydeError::MapReduce(format!("map task on unknown node {}", node.0)))?;
        let state = if self.spec.reuse_jvm {
            Arc::clone(jvm)
        } else {
            Arc::new(NodeState::new())
        };
        let ctx = MapTaskContext {
            conf: &self.spec.conf,
            split,
            input: &*self.spec.input,
            io: io.clone(),
            node,
            threads: self.threads,
            host_threads: self.host_threads,
            slot_concurrency: self.concurrency,
            node_state: state,
            memory: Arc::clone(memory),
            ledger: Arc::clone(self.ledger),
            task_charges: Mutex::new(0),
            local_store: Arc::clone(&self.engine.local),
            dist_cache: Arc::clone(self.cache),
            out: Arc::clone(&out),
            cost: Arc::clone(&cost),
            wall_phases: Mutex::new(Vec::new()),
        };
        let run_result = self.spec.map_runner.run(&ctx);
        // Transient per-task memory dies with the attempt, success or not.
        memory.release(*ctx.task_charges.lock());
        let wall_phases = std::mem::take(&mut *ctx.wall_phases.lock());
        drop(ctx);
        run_result?;

        let mut task_cost = *cost.lock();
        task_cost.local_bytes += io.stats.local();
        task_cost.remote_bytes += io.stats.remote();
        task_cost.zone_checked += io.stats.zone_checked();
        task_cost.zone_skipped += io.stats.zone_skipped();

        let mut records = Arc::try_unwrap(out)
            .map_err(|_| ClydeError::MapReduce("collector leaked out of the map task".into()))?
            .into_records();

        let mut part = Committed::default();
        if self.spec.reducer.is_none() {
            let rows: Vec<Row> = std::mem::take(&mut records)
                .into_iter()
                .map(|(k, v)| Ok(keycodec::decode_row(&k)?.concat(&v)))
                .collect::<Result<_>>()?;
            self.commit
                .part('m', task_idx, rows, &mut task_cost, &mut part)?;
        } else {
            // Map-side sort (and combine) before the shuffle.
            shuffle::sort_records(&mut records);
            if let Some(comb) = &self.spec.combiner {
                task_cost.combine_input_records += records.len() as u64;
                records = shuffle::combine_sorted(records, &**comb)?;
                task_cost.combine_output_records += records.len() as u64;
            }
        }

        Ok(TaskOutput {
            records,
            part,
            cost: task_cost,
            node,
            attempt: 0,
            wall_ns: wall_start.elapsed_ns(),
            wall_phases,
            speculative: false,
        })
    }

    /// Straggler multiplier the fault plan imposes on `node` (1.0 clean).
    fn slow_factor(&self, node: NodeId) -> f64 {
        self.faults
            .map_or(1.0, |f| f.slow_factor(node.0, self.nodes.len()))
    }

    /// Simulated time at which the fault plan kills `node`, if it does.
    fn death_time(&self, node: usize) -> Option<f64> {
        self.faults
            .and_then(|f| f.death_time(node, self.nodes.len()))
    }

    /// Simulated duration of a map attempt with `cost` on `node`, including
    /// the plan's slow-node multiplier. This is the clock heartbeats and the
    /// speculative-execution straggler detector run on — never wall time.
    fn sim_duration(&self, cost: &TaskCost, node: NodeId) -> f64 {
        self.engine
            .params
            .map_task_duration(self.engine.dfs.cluster(), cost, self.concurrency)
            * self.slow_factor(node)
    }

    /// First wave: one worker thread per node drains that node's queue.
    /// Failures are collected for the retry wave, never fatal here.
    fn first_wave(&self, assignment: &[NodeId]) -> Result<(Vec<Option<TaskOutput>>, Vec<Failure>)> {
        let mut tasks_by_node: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for (i, node) in assignment.iter().enumerate() {
            let bucket = tasks_by_node.get_mut(node.0).ok_or_else(|| {
                ClydeError::MapReduce(format!("task assigned to unknown node {}", node.0))
            })?;
            bucket.push(i);
        }
        let outputs: Vec<Mutex<Option<TaskOutput>>> =
            self.splits.iter().map(|_| Mutex::new(None)).collect();
        let failures: Mutex<Vec<Failure>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for (node_idx, queue) in tasks_by_node.iter().enumerate() {
                if queue.is_empty() {
                    continue;
                }
                let (outputs, failures) = (&outputs, &failures);
                scope.spawn(move || self.drain_node(NodeId(node_idx), queue, outputs, failures));
            }
        });
        let mut failures = failures.into_inner();
        failures.sort_by_key(|(idx, _, _)| *idx); // deterministic order
        Ok((
            outputs.into_iter().map(Mutex::into_inner).collect(),
            failures,
        ))
    }

    /// One first-wave worker. It tracks its node's simulated clock (the sum
    /// of its committed attempts' durations) so a planned datanode death
    /// strikes at a deterministic point.
    fn drain_node(
        &self,
        node: NodeId,
        queue: &[usize],
        outputs: &[Mutex<Option<TaskOutput>>],
        failures: &Mutex<Vec<Failure>>,
    ) {
        let death = self.death_time(node.0);
        let lost = |why: &str| {
            AttemptError::Retry(ClydeError::MapReduce(format!(
                "heartbeat lost: node {} {why}",
                node.0
            )))
        };
        let mut sim_elapsed = 0.0f64;
        let mut down = false;
        for &task_idx in queue {
            if down {
                // The tasktracker stopped heartbeating; its remaining queue
                // fails over to other nodes.
                failures.lock().push((task_idx, node, lost("is dead")));
                continue;
            }
            match self.attempt(task_idx, node, 0) {
                Ok(out) => {
                    let dur = self.sim_duration(&out.cost, node);
                    if death.is_some_and(|at| sim_elapsed + dur > at) {
                        // Died mid-attempt: the work is lost.
                        down = true;
                        failures
                            .lock()
                            .push((task_idx, node, lost("died mid-task")));
                        continue;
                    }
                    sim_elapsed += dur;
                    if let Some(slot) = outputs.get(task_idx) {
                        *slot.lock() = Some(out);
                    }
                }
                Err(e) => failures.lock().push((task_idx, node, e)),
            }
        }
    }

    /// Heartbeat barrier: planned deaths take effect cluster-wide. The
    /// namenode re-replicates lost blocks, and each split's preferred hosts
    /// are refreshed so retries chase the data. Returns those hosts.
    fn heartbeat_barrier(&self, recovery: &mut Recovery) -> Result<Vec<Vec<NodeId>>> {
        let n = self.nodes.len();
        let mut hosts: Vec<Vec<NodeId>> = self.splits.iter().map(|s| s.hosts.clone()).collect();
        for i in (0..n).filter(|i| self.death_time(*i).is_some()) {
            self.engine.dfs.kill_node(NodeId(i));
            recovery.profile.dead_nodes.push(NodeId(i));
            if let Some(b) = recovery.blacklisted.get_mut(i) {
                *b = true;
            }
        }
        // With every node dead there is nothing to re-replicate onto; the
        // retry wave reports the job-level failure instead.
        if !recovery.profile.dead_nodes.is_empty() && recovery.profile.dead_nodes.len() < n {
            recovery.profile.rereplicated_blocks = self.engine.dfs.rereplicate()? as u64;
            for (s, slot) in self.splits.iter().zip(hosts.iter_mut()) {
                if let SplitSpec::FileRange { path, .. } = &s.spec {
                    if let Ok(h) = self.engine.dfs.hosts(path) {
                        *slot = h;
                    }
                }
            }
        }
        Ok(hosts)
    }

    /// Retry wave: re-execute each failed task, in task order, on alternate
    /// nodes, steering around dead and blacklisted ones.
    fn retry_wave(
        &self,
        outputs: &mut [Option<TaskOutput>],
        failures: Vec<Failure>,
        hosts: &[Vec<NodeId>],
        recovery: &mut Recovery,
    ) -> Result<()> {
        for (task_idx, node, err) in failures {
            let err = match err {
                AttemptError::Fatal(e) => return Err(e),
                AttemptError::Retry(e) => e,
            };
            recovery.note_failure(node);
            let task_hosts = hosts.get(task_idx).map(Vec::as_slice).unwrap_or_default();
            let out = self.retry(task_idx, node, err, task_hosts, recovery)?;
            if let Some(slot) = outputs.get_mut(task_idx) {
                *slot = Some(out);
            }
        }
        Ok(())
    }

    /// Re-attempt one failed task until an attempt succeeds or the budget
    /// is spent.
    fn retry(
        &self,
        task_idx: usize,
        mut prev_node: NodeId,
        mut last_err: ClydeError,
        hosts: &[NodeId],
        recovery: &mut Recovery,
    ) -> Result<TaskOutput> {
        for attempt in 1..self.max_attempts {
            let node =
                self.retry_node(task_idx, prev_node, attempt, hosts, &recovery.blacklisted)?;
            match self.attempt(task_idx, node, attempt) {
                Ok(out) => return Ok(out),
                Err(AttemptError::Fatal(e)) => return Err(e),
                Err(AttemptError::Retry(e)) => {
                    recovery.note_failure(node);
                    last_err = e;
                    prev_node = node;
                }
            }
        }
        Err(ClydeError::MapReduce(format!(
            "map task {task_idx} failed after {} attempts: {last_err}",
            self.max_attempts
        )))
    }

    /// Deterministic alternate node for retry `attempt` (1-based retries):
    /// walk the task's preferred hosts (refreshed after re-replication), then
    /// the whole cluster. Dead nodes are excluded outright; blacklisted nodes
    /// and the node that just failed are avoided while an alternative exists.
    /// Errors when no live node remains anywhere.
    fn retry_node(
        &self,
        task_idx: usize,
        failed: NodeId,
        attempt: u32,
        hosts: &[NodeId],
        blacklisted: &[bool],
    ) -> Result<NodeId> {
        let n = self.nodes.len();
        let mut candidates: Vec<NodeId> = hosts.iter().copied().filter(|h| h.0 < n).collect();
        for i in 0..n {
            let node = NodeId(i);
            if !candidates.contains(&node) {
                candidates.push(node);
            }
        }
        candidates.retain(|c| self.engine.dfs.is_node_alive(*c));
        if candidates.is_empty() {
            return Err(ClydeError::MapReduce(format!(
                "map task {task_idx}: no live node left to retry on"
            )));
        }
        let clean = |c: &NodeId| !blacklisted.get(c.0).copied().unwrap_or(false);
        let healthy: Vec<NodeId> = candidates.iter().copied().filter(clean).collect();
        // Prefer a healthy node, then any but the failed one; a single live
        // node retries in place.
        let pool = [healthy, candidates.clone()]
            .into_iter()
            .map(|p| p.into_iter().filter(|c| *c != failed).collect::<Vec<_>>())
            .find(|p| !p.is_empty())
            .unwrap_or(candidates);
        let k = (attempt as usize).saturating_sub(1) % pool.len().max(1);
        pool.get(k)
            .copied()
            .ok_or_else(|| ClydeError::MapReduce("no candidate node for retry".into()))
    }

    /// Speculative execution: with a fault plan armed, launch one backup
    /// attempt per straggler (simulated duration beyond
    /// `speculative_slowdown` × median) and commit whichever attempt
    /// finishes first on the simulated clock. The part commit is
    /// idempotent, so racing two attempts is safe; the loser is recorded as
    /// a killed attempt and priced as wasted slot time. A failed backup
    /// never fails the job — the original output already stands.
    fn speculate(&self, outputs: &mut [Option<TaskOutput>], recovery: &mut Recovery) -> Result<()> {
        let Some(plan) = self.faults.filter(|f| f.speculative_slowdown.is_finite()) else {
            return Ok(());
        };
        if outputs.len() < 2 {
            return Ok(());
        }
        let mut durs: Vec<f64> = Vec::with_capacity(outputs.len());
        for o in outputs.iter() {
            let out = o.as_ref().ok_or_else(|| {
                ClydeError::MapReduce("speculation ran before all map outputs committed".into())
            })?;
            durs.push(self.sim_duration(&out.cost, out.node));
        }
        let mut sorted = durs.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted.get(sorted.len() / 2).copied().unwrap_or_default();
        // The detector fires once the original has run for `threshold`
        // simulated seconds — that is also when the backup launches.
        let threshold = plan.speculative_slowdown * median;
        for (idx, (slot, &orig_dur)) in outputs.iter_mut().zip(&durs).enumerate() {
            if orig_dur <= threshold + 1e-9 {
                continue;
            }
            let Some(orig) = slot.as_ref() else { continue };
            let Some(backup) = self.backup_node(orig.node, &recovery.blacklisted) else {
                continue;
            };
            recovery.profile.speculative_attempts += 1;
            let mut bout = match self.attempt(idx, backup, orig.attempt + 1) {
                Ok(out) => out,
                Err(AttemptError::Fatal(e)) => return Err(e),
                Err(AttemptError::Retry(_)) => {
                    recovery.note_failure(backup);
                    continue;
                }
            };
            let Some(orig) = slot.take() else { continue };
            let backup_dur = self.sim_duration(&bout.cost, backup);
            let backup_finish = threshold + backup_dur;
            // The loser is killed when the winner commits: a losing original
            // after `backup_finish` seconds, a losing backup once the
            // original finishes.
            let (winner, loser, busy_s) = if backup_finish + 1e-9 < orig_dur {
                recovery.profile.speculative_wins += 1;
                bout.speculative = true;
                (bout, orig, backup_finish)
            } else {
                let busy_s = (orig_dur - threshold).max(0.0).min(backup_dur);
                (orig, bout, busy_s)
            };
            recovery.profile.killed_attempts.push(KilledAttempt {
                task: idx,
                node: loser.node,
                busy_s,
                cost: loser.cost,
            });
            *slot = Some(winner);
        }
        Ok(())
    }

    /// Where a straggler on `orig` gets its backup: the fastest live,
    /// non-blacklisted other node.
    fn backup_node(&self, orig: NodeId, blacklisted: &[bool]) -> Option<NodeId> {
        (0..self.nodes.len())
            .map(NodeId)
            .filter(|c| {
                *c != orig
                    && blacklisted.get(c.0).is_some_and(|b| !b)
                    && self.engine.dfs.is_node_alive(*c)
            })
            .min_by(|a, b| {
                self.slow_factor(*a)
                    .total_cmp(&self.slow_factor(*b))
                    .then(a.0.cmp(&b.0))
            })
    }
}

/// The MapReduce engine bound to one simulated cluster.
pub struct Engine {
    dfs: Arc<Dfs>,
    local: Arc<NodeLocalStore>,
    params: CostParams,
    obs: Arc<Obs>,
}

impl Engine {
    pub fn new(dfs: Arc<Dfs>) -> Engine {
        let params = CostParams::paper();
        Engine::with_params(dfs, params)
    }

    pub fn with_params(dfs: Arc<Dfs>, params: CostParams) -> Engine {
        let nodes = dfs.cluster().num_workers();
        Engine {
            dfs,
            local: Arc::new(NodeLocalStore::new(nodes)),
            params,
            obs: Obs::disabled(),
        }
    }

    /// Attach an observability hub; every job run afterwards records its
    /// history and metrics there.
    pub fn set_obs(&mut self, obs: Arc<Obs>) {
        self.obs = obs;
    }

    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    pub fn dfs(&self) -> &Arc<Dfs> {
        &self.dfs
    }

    pub fn local_store(&self) -> &Arc<NodeLocalStore> {
        &self.local
    }

    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Run a job with no client-side artifacts.
    pub fn run_job(&self, spec: &JobSpec) -> Result<JobResult> {
        self.run_job_with(spec, ClientArtifacts::default())
    }

    /// Run a job, making `client.cache` available to every task.
    pub fn run_job_with(&self, spec: &JobSpec, client: ClientArtifacts) -> Result<JobResult> {
        self.run_stages(spec, client, true).map(|(r, _)| r)
    }

    /// Run a job without recording it into the observability hub. Returns
    /// the result plus the job's scoped DFS I/O delta (when obs is enabled)
    /// so a caller — the job server — can publish a *scheduled* history for
    /// it later, on the shared multi-job timeline, without double-counting.
    pub fn run_job_quiet(&self, spec: &JobSpec) -> Result<(JobResult, Option<IoSnapshot>)> {
        self.run_stages(spec, ClientArtifacts::default(), false)
    }

    /// The stage driver: resolve → reuse → map → shuffle/reduce → commit.
    /// `publish` records the history into the observability hub; the job
    /// server publishes a scheduled one instead.
    fn run_stages(
        &self,
        spec: &JobSpec,
        client: ClientArtifacts,
        publish: bool,
    ) -> Result<(JobResult, Option<IoSnapshot>)> {
        let io_scope = self.obs.is_enabled().then(|| self.dfs.io_scope());
        let job = self.resolve(spec)?;
        // Reuse (ReStore-style): a catalog hit replaces the whole execution
        // with a metadata-only read of the persisted output.
        if let Some(entry) = job.fingerprint.and_then(|fp| self.dfs.cache_lookup(fp)) {
            let out = job.commit.serve(&entry)?;
            let profile = JobProfile {
                name: spec.name.clone(),
                map_concurrency: 1,
                split_locality: 1.0,
                ..JobProfile::default()
            };
            return self.finish(&job, Some(&entry), out, profile, io_scope, publish);
        }
        let (mut tasks, mut profile) = self.map_stage(&job, &client)?;
        let out = match &spec.reducer {
            Some(reducer) => self.reduce_stage(&job, &**reducer, &mut tasks, &mut profile)?,
            None => {
                let mut out = Committed::default();
                for t in &mut tasks {
                    out.rows.append(&mut t.part.rows);
                    out.files.append(&mut t.part.files);
                }
                out
            }
        };
        self.finish(&job, None, out, profile, io_scope, publish)
    }

    /// Resolve: rot the fault plan's replicas before anything reads, then
    /// compute the splits and the job's fingerprint. Only jobs that carry a
    /// code-identity token, on a cache-enabled DFS, are fingerprinted.
    fn resolve<'a>(&'a self, spec: &'a JobSpec) -> Result<Resolved<'a>> {
        if let Some(f) = spec.faults.as_deref() {
            if f.corrupt_replicas > 0 {
                self.dfs.inject_corruption(f.seed, f.corrupt_replicas);
            }
        }
        let splits = spec.input.splits(&self.dfs, &spec.conf)?;
        let fingerprint = if self.dfs.cache_enabled() {
            crate::fingerprint::job_fingerprint(spec, &splits)
        } else {
            None
        };
        Ok(Resolved {
            commit: Commit {
                dfs: &self.dfs,
                spec,
            },
            splits,
            fingerprint,
        })
    }

    /// Map: place the tasks, run the first wave, pass the heartbeat
    /// barrier, retry what failed, and race backups against stragglers.
    /// Returns every task's committed attempt, in task order, and the
    /// profile's map side.
    fn map_stage(
        &self,
        job: &Resolved<'_>,
        client: &ClientArtifacts,
    ) -> Result<(Vec<TaskOutput>, JobProfile)> {
        let (spec, splits) = (job.commit.spec, job.splits.as_slice());
        let cluster = self.dfs.cluster();
        let n = cluster.num_workers();
        let assignment = scheduler::assign_map_tasks(splits, cluster);
        let threads = spec.task_threads.unwrap_or(1).max(1);
        let nodes: Vec<_> = (0..n)
            .map(|_| {
                let memory = MemoryTracker::new(cluster.node.memory_bytes);
                (Arc::new(NodeState::new()), Arc::new(memory))
            })
            .collect();
        let ledger = Arc::new(MemoryLedger::new());
        let env = MapTaskEnv {
            engine: self,
            spec,
            splits,
            cache: &client.cache,
            commit: job.commit,
            nodes: &nodes,
            ledger: &ledger,
            concurrency: scheduler::concurrency_per_node(cluster, spec.declared_task_memory),
            threads,
            host_threads: spec.host_threads.unwrap_or(threads).max(1),
            faults: spec.faults.as_deref(),
            max_attempts: spec.max_task_attempts.max(1),
        };
        let mut rec = Recovery {
            profile: JobProfile {
                name: spec.name.clone(),
                map_concurrency: env.concurrency,
                client_build_rows: client.build_rows,
                split_locality: scheduler::locality_fraction(splits, &assignment),
                node_slowdown: match env.faults {
                    Some(f) if !f.slow_nodes.is_empty() => {
                        (0..n).map(|i| f.slow_factor(i, n)).collect()
                    }
                    _ => Vec::new(),
                },
                ..JobProfile::default()
            },
            node_failures: vec![0; n],
            blacklisted: vec![false; n],
        };
        let (mut outputs, failures) = env.first_wave(&assignment)?;
        let hosts = env.heartbeat_barrier(&mut rec)?;
        env.retry_wave(&mut outputs, failures, &hosts, &mut rec)?;
        env.speculate(&mut outputs, &mut rec)?;
        let tasks = outputs
            .into_iter()
            .map(|o| {
                o.ok_or_else(|| ClydeError::MapReduce("map task produced no output record".into()))
            })
            .collect::<Result<Vec<_>>>()?;

        let mut profile = rec.profile;
        // Roll runner-attributed wall clock up to the job, in phase order.
        for phase in Phase::all() {
            let ns: u64 = tasks
                .iter()
                .flat_map(|t| &t.wall_phases)
                .filter(|(p, _)| p == phase)
                .map(|(_, ns)| ns)
                .sum();
            if ns > 0 {
                profile.wall_phases.push((*phase, ns));
            }
        }
        profile.map_tasks = tasks
            .iter()
            .map(|t| TaskProfile {
                node: t.node,
                cost: t.cost,
                wall_ns: t.wall_ns,
                speculative: t.speculative,
            })
            .collect();
        // Read once the tasks are done: they fetch from the cache and charge
        // the ledger as they run.
        profile.client_publish_bytes = client.cache.disseminated_bytes();
        profile.memory_per_slot = ledger.per_slot();
        profile.memory_shared = ledger.shared();
        profile.memory_per_slot_fixed = ledger.per_slot_fixed();
        profile.memory_shared_fixed = ledger.shared_fixed();
        profile.blacklisted_nodes = rec
            .blacklisted
            .iter()
            .enumerate()
            .filter(|(_, b)| **b)
            .map(|(i, _)| NodeId(i))
            .collect();
        Ok((tasks, profile))
    }

    /// Shuffle and reduce: partition every map task's sorted run, then each
    /// reducer merges its runs, reduces, and commits its part. Fills in the
    /// profile's reduce side.
    fn reduce_stage(
        &self,
        job: &Resolved<'_>,
        reducer: &dyn Reducer,
        tasks: &mut [TaskOutput],
        profile: &mut JobProfile,
    ) -> Result<Committed> {
        let num_reducers = job.commit.spec.num_reducers.max(1);
        type SortedRun = Vec<(Vec<u8>, Row)>;
        let mut runs: Vec<Vec<SortedRun>> = (0..num_reducers).map(|_| Vec::new()).collect();
        for t in tasks {
            let mut per_part: Vec<SortedRun> = (0..num_reducers).map(|_| Vec::new()).collect();
            for (k, v) in std::mem::take(&mut t.records) {
                let p = shuffle::partition_of(&k, num_reducers);
                let bucket = per_part
                    .get_mut(p)
                    .ok_or_else(|| ClydeError::MapReduce(format!("partition {p} out of range")))?;
                profile.shuffle_bytes += (k.len() + v.heap_size()) as u64;
                bucket.push((k, v));
            }
            for (run, dest) in per_part.into_iter().zip(runs.iter_mut()) {
                if !run.is_empty() {
                    dest.push(run);
                }
            }
        }

        let cluster = self.dfs.cluster();
        let n = cluster.num_workers();
        let mut out = Committed::default();
        let planned = scheduler::assign_reduce_tasks(num_reducers, cluster);
        for (r, (planned, task_runs)) in planned.into_iter().zip(runs).enumerate() {
            // A reducer planned for a node that died mid-job fails over to
            // the next live node (deterministic round-robin walk).
            let node = (0..n)
                .map(|d| NodeId((planned.0 + d) % n))
                .find(|c| self.dfs.is_node_alive(*c))
                .unwrap_or(planned);
            let wall_start = WallTimer::start();
            let mut cost = TaskCost::new();
            cost.merge_runs = task_runs.len() as u64;
            let merged = shuffle::merge_sorted_runs(task_runs);
            cost.deser_rows = merged.len() as u64;
            let mut rows = Vec::new();
            shuffle::reduce_sorted(&merged, reducer, &mut rows)?;
            job.commit.part('r', r, rows, &mut cost, &mut out)?;
            profile.reduce_tasks.push(TaskProfile {
                node,
                cost,
                wall_ns: wall_start.elapsed_ns(),
                speculative: false,
            });
        }
        Ok(out)
    }

    /// The finish step computed and cache-served jobs share: price, fill
    /// the result cache (computed jobs only), publish the history, and hand
    /// back the [`JobResult`].
    fn finish(
        &self,
        job: &Resolved<'_>,
        hit: Option<&CacheEntry>,
        out: Committed,
        profile: JobProfile,
        io_scope: Option<IoScope<'_>>,
        publish: bool,
    ) -> Result<(JobResult, Option<IoSnapshot>)> {
        let cluster = self.dfs.cluster();
        let cost = match hit {
            // Priced as a sequential DFS read of the persisted output.
            Some(entry) => self.params.cached_read_cost(cluster, entry.bytes),
            None => {
                let cost = profile.price(&self.params, cluster)?;
                // Persist this job's output under its fingerprint so an
                // identical future submission is served without running tasks.
                if let Some(fp) = job.fingerprint {
                    job.commit.fill(fp, &job.splits, &out)?;
                }
                cost
            }
        };
        let io = io_scope.as_ref().map(|s| s.delta());
        if publish && self.obs.is_enabled() {
            let hist = history::job_history(&profile, &cost, &self.params, cluster);
            publish_history(&self.obs, &profile, hist, io.as_ref(), hit.is_some());
        }
        Ok((
            JobResult {
                rows: out.rows,
                output_files: out.files,
                locality: profile.scan_locality(),
                profile,
                cost,
                served_from_cache: hit.is_some(),
                fingerprint: job.fingerprint,
            },
            io,
        ))
    }
}

/// Record a finished job into the observability hub: its history plus
/// the unified metrics (engine counters, scheduler locality, DFS I/O
/// attributed to this job via the scoped snapshot). Shared between the
/// engine's solo publish path and the job server's scheduled publish path,
/// so a served job emits exactly the metric set a solo run would.
pub(crate) fn publish_history(
    obs: &Obs,
    profile: &JobProfile,
    mut hist: clyde_common::obs::JobHistory,
    io: Option<&IoSnapshot>,
    served_from_cache: bool,
) {
    if !obs.is_enabled() {
        return;
    }
    let m = obs.metrics();
    m.counter_add("mapred.jobs", 1);
    m.counter_add("mapred.map_tasks", profile.map_tasks.len() as u64);
    m.counter_add("mapred.reduce_tasks", profile.reduce_tasks.len() as u64);
    m.counter_add("mapred.failed_attempts", u64::from(profile.failed_attempts));
    m.counter_add("mapred.shuffle.bytes", profile.shuffle_bytes);
    // Recovery counters are emitted only when the corresponding action
    // fired, so clean runs keep their metric set (and traces) unchanged.
    if profile.speculative_attempts > 0 {
        m.counter_add(
            "mapred.speculative_launched",
            u64::from(profile.speculative_attempts),
        );
    }
    if profile.speculative_wins > 0 {
        m.counter_add(
            "mapred.speculative_wins",
            u64::from(profile.speculative_wins),
        );
    }
    if !profile.blacklisted_nodes.is_empty() {
        m.counter_add(
            "mapred.blacklisted_nodes",
            profile.blacklisted_nodes.len() as u64,
        );
    }
    if !profile.dead_nodes.is_empty() {
        m.counter_add(
            "mapred.heartbeat.lost_nodes",
            profile.dead_nodes.len() as u64,
        );
    }
    if profile.rereplicated_blocks > 0 {
        m.counter_add("dfs.rereplicated_blocks", profile.rereplicated_blocks);
    }

    let total_map = profile.total_map_cost();
    let total_reduce = profile.total_reduce_cost();
    m.counter_add("mapred.emit.records", total_map.emit_records);
    m.counter_add("mapred.emit.bytes", total_map.emit_bytes);
    m.counter_add(
        "mapred.combine.input_records",
        total_map.combine_input_records,
    );
    m.counter_add(
        "mapred.combine.output_records",
        total_map.combine_output_records,
    );
    m.counter_add("mapred.shuffle.merged_runs", total_reduce.merge_runs);
    m.counter_add("dfs.scan.local_bytes", total_map.local_bytes);
    m.counter_add("dfs.scan.remote_bytes", total_map.remote_bytes);
    m.counter_add("dfs.zone.checked", total_map.zone_checked);
    m.counter_add("dfs.zone.skipped", total_map.zone_skipped);
    if let Some(delta) = io {
        m.counter_add("dfs.io.local_read_bytes", delta.total_local_read());
        m.counter_add("dfs.io.remote_read_bytes", delta.total_remote_read());
        m.counter_add("dfs.io.written_bytes", delta.total_written());
        if delta.total_corrupt_reads() > 0 {
            m.counter_add("dfs.corrupt_reads_detected", delta.total_corrupt_reads());
        }
        // Mirror the scoped snapshot into the history so query profiles
        // can report per-node I/O next to phase costs.
        hist.io = delta
            .per_node
            .iter()
            .map(|n| clyde_common::obs::IoBytes {
                node: n.node,
                local_read: n.local_read,
                remote_read: n.remote_read,
                written: n.written,
            })
            .collect();
        hist.corrupt_reads = delta.total_corrupt_reads();
    }
    m.gauge_set("scheduler.split_locality", profile.split_locality);
    m.gauge_set("mapred.scan_locality", hist.locality);
    for t in &hist.tasks {
        // Literal names per arm so the metric registry stays greppable
        // (and lintable) as string constants.
        match t.kind {
            TaskKind::Map => m.histogram_record("mapred.map_task_sim_s", t.dur_s),
            TaskKind::Reduce => m.histogram_record("mapred.reduce_task_sim_s", t.dur_s),
        }
        m.histogram_record("mapred.task_wall_ms", t.wall_ns as f64 / 1e6);
    }
    // Like the recovery counters: cache.hits only appears when a job was
    // actually served from the cache, so cache-off runs keep their metric
    // set byte-identical.
    if served_from_cache {
        m.counter_add("cache.hits", 1);
    }
    hist.served_from_cache = served_from_cache;
    obs.record_job(hist);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::DatanodeDeath;
    use crate::formats::VecInputFormat;
    use crate::input::{InputFormat, Reader};
    use crate::runner::{FnMapRunner, FnMapper, RowMapRunner};
    use crate::shuffle::FnReducer;
    use crate::JobConf;
    use clyde_common::row;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Wraps an input format, failing `open` for split 0 on its first
    /// `failures` calls — a crash-on-read fault injection.
    struct FlakyInputFormat {
        inner: VecInputFormat,
        failures: AtomicU32,
    }

    impl InputFormat for FlakyInputFormat {
        fn splits(&self, dfs: &Dfs, conf: &JobConf) -> Result<Vec<InputSplit>> {
            self.inner.splits(dfs, conf)
        }

        fn open(&self, split: &InputSplit, part: usize, io: &TaskIo) -> Result<Reader> {
            if split.index == 0
                && self
                    .failures
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                        if v > 0 {
                            Some(v - 1)
                        } else {
                            None
                        }
                    })
                    .is_ok()
            {
                return Err(ClydeError::MapReduce("injected split-0 failure".into()));
            }
            self.inner.open(split, part, io)
        }
    }

    fn sum_job(input: Arc<dyn InputFormat>) -> JobSpec {
        let mapper = RowMapRunner::new(FnMapper(|_k: &Row, v: &Row, ctx: &_| {
            ctx.emit(&row![0i64], v.clone());
            Ok(())
        }));
        let mut spec = JobSpec::new("sum", input, Arc::new(mapper));
        spec.reducer = Some(Arc::new(FnReducer(
            |_k: &Row, values: &[Row], out: &mut Vec<Row>| {
                let s: i64 = values.iter().map(|v| v.at(0).as_i64().unwrap()).sum();
                out.push(row![s]);
                Ok(())
            },
        )));
        spec.num_reducers = 1;
        spec
    }

    fn rows() -> Vec<Row> {
        (1..=10i64).map(|i| row![i]).collect()
    }

    #[test]
    fn transient_task_failure_is_retried_on_another_node() {
        let dfs = Dfs::for_tests(3);
        let engine = Engine::new(Arc::clone(&dfs));
        let flaky = FlakyInputFormat {
            inner: VecInputFormat::new(rows(), 3),
            failures: AtomicU32::new(1),
        };
        let spec = sum_job(Arc::new(flaky));
        let result = engine.run_job(&spec).unwrap();
        assert_eq!(result.rows, vec![row![55i64]]);
        assert_eq!(result.profile.failed_attempts, 1);
    }

    #[test]
    fn repeated_transient_failures_exhaust_then_succeed_within_budget() {
        let dfs = Dfs::for_tests(4);
        let engine = Engine::new(Arc::clone(&dfs));
        let flaky = FlakyInputFormat {
            inner: VecInputFormat::new(rows(), 2),
            failures: AtomicU32::new(3), // attempts 1..3 fail, 4th succeeds
        };
        let spec = sum_job(Arc::new(flaky)); // max_task_attempts = 4
        let result = engine.run_job(&spec).unwrap();
        assert_eq!(result.rows, vec![row![55i64]]);
        assert_eq!(result.profile.failed_attempts, 3);
    }

    #[test]
    fn permanent_failure_fails_the_job_after_the_attempt_budget() {
        let dfs = Dfs::for_tests(3);
        let engine = Engine::new(Arc::clone(&dfs));
        let flaky = FlakyInputFormat {
            inner: VecInputFormat::new(rows(), 2),
            failures: AtomicU32::new(u32::MAX), // never recovers
        };
        let spec = sum_job(Arc::new(flaky));
        let err = engine.run_job(&spec).unwrap_err();
        assert!(err.to_string().contains("4 attempts"), "{err}");
    }

    #[test]
    fn oom_is_not_retried() {
        let dfs = Dfs::for_tests(2); // 4 GB nodes
        let engine = Engine::new(Arc::clone(&dfs));
        let attempts = Arc::new(AtomicU32::new(0));
        let a2 = Arc::clone(&attempts);
        let runner = FnMapRunner(move |ctx: &MapTaskContext<'_>| {
            a2.fetch_add(1, Ordering::SeqCst);
            ctx.charge_memory_shared(1 << 40)?; // 1 TB
            Ok(())
        });
        let spec = JobSpec::new(
            "oom",
            Arc::new(VecInputFormat::new(rows(), 1)),
            Arc::new(runner),
        );
        let err = engine.run_job(&spec).unwrap_err();
        assert!(err.is_oom());
        assert_eq!(attempts.load(Ordering::SeqCst), 1, "OOM must not retry");
    }

    #[test]
    fn node_death_mid_job_is_survived_by_retries() {
        // Data with replication 2 on 3 nodes; kill one node's replicas
        // before running: tasks preferring that node fail their reads and
        // retry elsewhere against surviving replicas.
        let dfs = Dfs::for_tests(3);
        let payload = rowcodec::write_rows(&rows());
        dfs.write_file("/in/part-00000", None, &payload).unwrap();
        let victim = dfs.hosts("/in/part-00000").unwrap()[0];

        struct DfsRowsFormat;
        impl InputFormat for DfsRowsFormat {
            fn splits(&self, dfs: &Dfs, _conf: &JobConf) -> Result<Vec<InputSplit>> {
                crate::formats::RowBinInputFormat::new("/in").splits(dfs, &JobConf::new())
            }
            fn open(&self, split: &InputSplit, part: usize, io: &TaskIo) -> Result<Reader> {
                crate::formats::RowBinInputFormat::new("/in").open(split, part, io)
            }
        }

        let engine = Engine::new(Arc::clone(&dfs));
        dfs.kill_node(victim);
        let spec = sum_job(Arc::new(DfsRowsFormat));
        let result = engine.run_job(&spec).unwrap();
        assert_eq!(result.rows, vec![row![55i64]]);
    }

    // --- Result-cache tests: fingerprint hits must serve byte-identical
    // output without running any tasks, and coherence must survive input
    // roll-in/roll-out. ---

    #[test]
    fn cache_hit_serves_identical_rows_without_tasks() {
        let dfs = Dfs::for_tests(3);
        dfs.cache_configure(1 << 20);
        let engine = Engine::new(Arc::clone(&dfs));
        let mut spec = sum_job(Arc::new(VecInputFormat::new(rows(), 3)));
        spec.code_token = "test:sum:v1".into();

        let cold = engine.run_job(&spec).unwrap();
        assert!(!cold.served_from_cache);
        assert_eq!(dfs.cache_stats().inserts, 1);

        let warm = engine.run_job(&spec).unwrap();
        assert!(warm.served_from_cache);
        assert_eq!(warm.rows, cold.rows);
        assert!(warm.profile.map_tasks.is_empty());
        assert!(warm.profile.reduce_tasks.is_empty());
        assert!(warm.cost.total_s() < cold.cost.total_s());
        let stats = dfs.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn empty_code_token_bypasses_the_cache() {
        let dfs = Dfs::for_tests(3);
        dfs.cache_configure(1 << 20);
        let engine = Engine::new(Arc::clone(&dfs));
        let spec = sum_job(Arc::new(VecInputFormat::new(rows(), 3)));
        engine.run_job(&spec).unwrap();
        let warm = engine.run_job(&spec).unwrap();
        assert!(!warm.served_from_cache);
        let stats = dfs.cache_stats();
        assert_eq!(stats.inserts, 0);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 0, "untokened jobs never probe the cache");
    }

    #[test]
    fn cache_disabled_never_serves() {
        let dfs = Dfs::for_tests(3);
        let engine = Engine::new(Arc::clone(&dfs));
        let mut spec = sum_job(Arc::new(VecInputFormat::new(rows(), 3)));
        spec.code_token = "test:sum:v1".into();
        engine.run_job(&spec).unwrap();
        let warm = engine.run_job(&spec).unwrap();
        assert!(!warm.served_from_cache);
        assert_eq!(dfs.cache_stats().inserts, 0);
    }

    #[test]
    fn input_rollover_invalidates_cached_result() {
        // The stale-cache hazard: delete + recreate the same input path with
        // different content (same row count, so lengths can even match) and
        // the cached result must NOT be served.
        let dfs = Dfs::for_tests(3);
        dfs.cache_configure(1 << 20);
        let engine = Engine::new(Arc::clone(&dfs));
        dfs.write_file("/in/part-00000", None, &rowcodec::write_rows(&rows()))
            .unwrap();

        struct DirRows;
        impl InputFormat for DirRows {
            fn splits(&self, dfs: &Dfs, _conf: &JobConf) -> Result<Vec<InputSplit>> {
                crate::formats::RowBinInputFormat::new("/in").splits(dfs, &JobConf::new())
            }
            fn open(&self, split: &InputSplit, part: usize, io: &TaskIo) -> Result<Reader> {
                crate::formats::RowBinInputFormat::new("/in").open(split, part, io)
            }
        }

        let mut spec = sum_job(Arc::new(DirRows));
        spec.code_token = "test:dirsum:v1".into();
        assert_eq!(engine.run_job(&spec).unwrap().rows, vec![row![55i64]]);
        assert!(engine.run_job(&spec).unwrap().served_from_cache);

        // Roll the input over: same path, different rows.
        dfs.delete("/in/part-00000").unwrap();
        let swapped: Vec<Row> = (1..=10i64).map(|i| row![i * 2]).collect();
        dfs.write_file("/in/part-00000", None, &rowcodec::write_rows(&swapped))
            .unwrap();
        let after = engine.run_job(&spec).unwrap();
        assert!(!after.served_from_cache, "rolled-over input must miss");
        assert_eq!(after.rows, vec![row![110i64]]);
        assert!(dfs.cache_stats().invalidations >= 1);
    }

    #[test]
    fn dfsdir_hit_redirects_output_files_to_cache_paths() {
        let dfs = Dfs::for_tests(3);
        dfs.cache_configure(1 << 20);
        let engine = Engine::new(Arc::clone(&dfs));
        let mut spec = sum_job(Arc::new(VecInputFormat::new(rows(), 2)));
        spec.code_token = "test:dirout:v1".into();
        spec.output = OutputSpec::DfsDir("/out/run-1".into());

        let cold = engine.run_job(&spec).unwrap();
        spec.output = OutputSpec::DfsDir("/out/run-2".into());
        let warm = engine.run_job(&spec).unwrap();
        assert!(warm.served_from_cache);
        assert_eq!(warm.output_files.len(), cold.output_files.len());
        for (c, w) in cold.output_files.iter().zip(&warm.output_files) {
            assert!(w.starts_with("/cache/"), "{w} should be a cache path");
            assert_eq!(
                dfs.read_file(w, None).unwrap(),
                dfs.read_file(c, None).unwrap(),
                "cached bytes must equal recomputed bytes"
            );
        }
    }

    #[test]
    fn eviction_under_pressure_re_misses_and_recomputes() {
        let dfs = Dfs::for_tests(3);
        let engine = Engine::new(Arc::clone(&dfs));
        let mut a = sum_job(Arc::new(VecInputFormat::new(rows(), 2)));
        a.code_token = "test:evict:a".into();
        let mut b = sum_job(Arc::new(VecInputFormat::new(wide_rows(), 2)));
        b.code_token = "test:evict:b".into();

        // Capacity fits either entry alone but never both: measure the two
        // payload sizes first, then rebuild with the tight budget.
        dfs.cache_configure(1 << 20);
        let ra = engine.run_job(&a).unwrap();
        let rb = engine.run_job(&b).unwrap();
        let bytes_a = rowcodec::write_rows(&ra.rows).len() as u64;
        let bytes_b = rowcodec::write_rows(&rb.rows).len() as u64;
        let dfs2 = Dfs::for_tests(3);
        dfs2.cache_configure(bytes_a.max(bytes_b));
        let engine2 = Engine::new(Arc::clone(&dfs2));

        let first_a = engine2.run_job(&a).unwrap();
        engine2.run_job(&b).unwrap(); // same size; evicts a
        assert_eq!(dfs2.cache_stats().evictions, 1);
        let again_a = engine2.run_job(&a).unwrap();
        assert!(!again_a.served_from_cache, "evicted entry must re-miss");
        assert_eq!(again_a.rows, first_a.rows);
        // After recompute it is cached again and serves.
        assert!(engine2.run_job(&a).unwrap().served_from_cache);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        /// Coherence under *random* interleavings of replays and
        /// fact-partition roll-in/roll-out: no schedule of deletes and
        /// re-creates may ever serve a stale cached result. A replayed sum
        /// over the fact directory must always reflect exactly the
        /// partitions live at that moment (the deterministic rollover test
        /// above pins the single-swap case; this one walks the schedule
        /// space).
        #[test]
        fn random_rollover_interleavings_never_serve_stale(
            ops in proptest::collection::vec(proptest::prelude::any::<bool>(), 1..24)
        ) {
            struct FactsRows;
            impl InputFormat for FactsRows {
                fn splits(&self, dfs: &Dfs, _conf: &JobConf) -> Result<Vec<InputSplit>> {
                    crate::formats::RowBinInputFormat::new("/facts").splits(dfs, &JobConf::new())
                }
                fn open(&self, split: &InputSplit, part: usize, io: &TaskIo) -> Result<Reader> {
                    crate::formats::RowBinInputFormat::new("/facts").open(split, part, io)
                }
            }

            let dfs = Dfs::for_tests(3);
            dfs.cache_configure(1 << 20);
            let engine = Engine::new(Arc::clone(&dfs));
            // Partition 0 is the stable fact history (sums to 55);
            // partition 1 rolls in and out with fresh content each cycle.
            dfs.write_file("/facts/part-00000", None, &rowcodec::write_rows(&rows()))
                .unwrap();
            let mut spec = sum_job(Arc::new(FactsRows));
            spec.code_token = "test:factsum:v1".into();

            let mut p1_version = 0i64;
            let mut p1_live = false;
            for replay in ops {
                if replay {
                    let expected = 55 + if p1_live { 100 * p1_version } else { 0 };
                    let r = engine.run_job(&spec).unwrap();
                    proptest::prop_assert_eq!(&r.rows, &vec![row![expected]]);
                } else if p1_live {
                    dfs.delete("/facts/part-00001").unwrap();
                    p1_live = false;
                } else {
                    p1_version += 1;
                    dfs.write_file(
                        "/facts/part-00001",
                        None,
                        &rowcodec::write_rows(&[row![100 * p1_version]]),
                    )
                    .unwrap();
                    p1_live = true;
                }
            }
        }
    }

    // --- Seeded fault-plan tests: every injected fault must be recovered
    // transparently (same rows as a clean run) with the recovery visible in
    // the job profile. ---

    fn wide_rows() -> Vec<Row> {
        (1..=12i64).map(|i| row![i]).collect()
    }

    fn wide_sum(faults: Option<FaultPlan>) -> JobSpec {
        let mut spec = sum_job(Arc::new(VecInputFormat::new(wide_rows(), 3)));
        spec.faults = faults.map(Arc::new);
        spec
    }

    #[test]
    fn injected_task_failures_are_recovered_transparently() {
        let clean = Engine::new(Dfs::for_tests(3))
            .run_job(&wide_sum(None))
            .unwrap();
        let mut plan = FaultPlan::new(7);
        plan.task_fail_rate = 1.0; // every task crashes at least once
        let faulty = Engine::new(Dfs::for_tests(3))
            .run_job(&wide_sum(Some(plan)))
            .unwrap();
        assert_eq!(faulty.rows, clean.rows);
        assert_eq!(faulty.rows, vec![row![78i64]]);
        assert!(faulty.profile.failed_attempts >= 3, "one crash per task");
    }

    #[test]
    fn slow_node_triggers_a_winning_backup_attempt() {
        let clean = Engine::new(Dfs::for_tests(3))
            .run_job(&wide_sum(None))
            .unwrap();
        let plan = FaultPlan::named("slow-node", 46).unwrap();
        let faulty = Engine::new(Dfs::for_tests(3))
            .run_job(&wide_sum(Some(plan)))
            .unwrap();
        assert_eq!(faulty.rows, clean.rows);
        assert!(faulty.profile.speculative_attempts >= 1);
        assert!(faulty.profile.speculative_wins >= 1);
        assert!(
            !faulty.profile.killed_attempts.is_empty(),
            "the straggler's original attempt is killed when the backup wins"
        );
        // Wasted backup work is priced: the faulty run costs more map time.
        assert!(faulty.cost.map_s > clean.cost.map_s);
    }

    /// Simulated durations of the committed map attempts, slow-node
    /// multipliers included, and the straggler threshold the detector uses.
    fn straggler_clock(engine: &Engine, result: &JobResult, slowdown: f64) -> (Vec<f64>, f64) {
        let cluster = engine.dfs().cluster();
        let p = &result.profile;
        let durs: Vec<f64> = p
            .map_tasks
            .iter()
            .map(|t| {
                engine
                    .params()
                    .map_task_duration(cluster, &t.cost, p.map_concurrency)
                    * p.node_slowdown.get(t.node.0).copied().unwrap_or(1.0)
            })
            .collect();
        let mut sorted = durs.clone();
        sorted.sort_by(f64::total_cmp);
        (durs, slowdown * sorted[sorted.len() / 2])
    }

    #[test]
    fn slow_node_backup_that_loses_the_race_is_killed() {
        let clean = Engine::new(Dfs::for_tests(3))
            .run_job(&wide_sum(None))
            .unwrap();
        // A 2x straggler crosses the 1.5x threshold, but a backup launched
        // at 1.5x plus a full clean attempt finishes after the original.
        let mut plan = FaultPlan::new(46);
        plan.slow_nodes = vec![(1, 2.0)];
        let engine = Engine::new(Dfs::for_tests(3));
        let faulty = engine.run_job(&wide_sum(Some(plan))).unwrap();
        assert_eq!(faulty.rows, clean.rows);
        let p = &faulty.profile;
        assert_eq!(p.speculative_attempts, 1);
        assert_eq!(p.speculative_wins, 0);
        assert!(p.map_tasks.iter().all(|t| !t.speculative));
        assert_eq!(p.map_tasks[1].node, NodeId(1), "the original commits");
        let (durs, threshold) = straggler_clock(&engine, &faulty, 1.5);
        assert_eq!(p.killed_attempts.len(), 1);
        let killed = &p.killed_attempts[0];
        assert_eq!(killed.task, 1);
        assert_eq!(
            killed.node,
            NodeId(0),
            "the backup ran on the fastest other node"
        );
        assert!((killed.busy_s - (durs[1] - threshold)).abs() < 1e-9);
        assert!(faulty.cost.map_s > clean.cost.map_s);
    }

    #[test]
    fn failed_backup_attempt_leaves_the_original_standing() {
        /// Fails `open` for the straggler's split on the backup node only.
        struct FailOnBackup(VecInputFormat);
        impl InputFormat for FailOnBackup {
            fn splits(&self, dfs: &Dfs, conf: &JobConf) -> Result<Vec<InputSplit>> {
                self.0.splits(dfs, conf)
            }
            fn open(&self, split: &InputSplit, part: usize, io: &TaskIo) -> Result<Reader> {
                if split.index == 1 && io.node == Some(NodeId(0)) {
                    return Err(ClydeError::MapReduce("backup node cannot read".into()));
                }
                self.0.open(split, part, io)
            }
        }

        let clean = Engine::new(Dfs::for_tests(3))
            .run_job(&wide_sum(None))
            .unwrap();
        let mut spec = sum_job(Arc::new(FailOnBackup(VecInputFormat::new(wide_rows(), 3))));
        spec.faults = FaultPlan::named("slow-node", 46).map(Arc::new);
        let faulty = Engine::new(Dfs::for_tests(3)).run_job(&spec).unwrap();
        assert_eq!(faulty.rows, clean.rows);
        let p = &faulty.profile;
        assert_eq!(p.speculative_attempts, 1);
        assert_eq!(p.speculative_wins, 0);
        assert_eq!(p.failed_attempts, 1, "the failed backup is counted");
        assert!(p.killed_attempts.is_empty());
        assert_eq!(p.map_tasks[1].node, NodeId(1));
    }

    #[test]
    fn datanode_death_mid_job_triggers_rereplication_and_blacklisting() {
        let payload = rowcodec::write_rows(&rows());

        struct DfsRowsFormat;
        impl InputFormat for DfsRowsFormat {
            fn splits(&self, dfs: &Dfs, _conf: &JobConf) -> Result<Vec<InputSplit>> {
                crate::formats::RowBinInputFormat::new("/in").splits(dfs, &JobConf::new())
            }
            fn open(&self, split: &InputSplit, part: usize, io: &TaskIo) -> Result<Reader> {
                crate::formats::RowBinInputFormat::new("/in").open(split, part, io)
            }
        }

        let dfs = Dfs::for_tests(3);
        dfs.write_file("/in/part-00000", None, &payload).unwrap();
        let victim = dfs.hosts("/in/part-00000").unwrap()[0];
        let mut plan = FaultPlan::new(11);
        plan.datanode_deaths = vec![DatanodeDeath {
            node: victim.0,
            at_sim_s: 0.0,
        }];
        let mut spec = sum_job(Arc::new(DfsRowsFormat));
        spec.faults = Some(Arc::new(plan));
        let engine = Engine::new(Arc::clone(&dfs));
        let result = engine.run_job(&spec).unwrap();
        assert_eq!(result.rows, vec![row![55i64]]);
        assert_eq!(result.profile.dead_nodes, vec![victim]);
        assert!(result.profile.blacklisted_nodes.contains(&victim));
        assert!(
            result.profile.rereplicated_blocks >= 1,
            "the victim's replicas must be re-created on survivors"
        );
        assert!(!dfs.is_node_alive(victim));
    }

    #[test]
    fn corruption_is_recovered_via_replica_fallback() {
        struct DfsRowsFormat;
        impl InputFormat for DfsRowsFormat {
            fn splits(&self, dfs: &Dfs, _conf: &JobConf) -> Result<Vec<InputSplit>> {
                crate::formats::RowBinInputFormat::new("/in").splits(dfs, &JobConf::new())
            }
            fn open(&self, split: &InputSplit, part: usize, io: &TaskIo) -> Result<Reader> {
                crate::formats::RowBinInputFormat::new("/in").open(split, part, io)
            }
        }

        let run = |faults: Option<FaultPlan>| {
            let dfs = Dfs::for_tests(3);
            dfs.write_file("/in/part-00000", None, &rowcodec::write_rows(&rows()))
                .unwrap();
            let mut spec = sum_job(Arc::new(DfsRowsFormat));
            spec.faults = faults.map(Arc::new);
            Engine::new(dfs).run_job(&spec).unwrap()
        };
        let clean = run(None);
        let faulty = run(FaultPlan::named("corruption", 46));
        assert_eq!(faulty.rows, clean.rows);
        assert_eq!(faulty.rows, vec![row![55i64]]);
    }

    #[test]
    fn losing_every_node_fails_cleanly() {
        let mut plan = FaultPlan::new(3);
        plan.datanode_deaths = (0..3)
            .map(|node| DatanodeDeath {
                node,
                at_sim_s: 0.0,
            })
            .collect();
        let err = Engine::new(Dfs::for_tests(3))
            .run_job(&wide_sum(Some(plan)))
            .unwrap_err();
        assert!(
            err.to_string().contains("no live node left to retry on"),
            "{err}"
        );
    }

    #[test]
    fn fault_recovery_is_deterministic_for_a_fixed_seed() {
        let run = || {
            Engine::new(Dfs::for_tests(3))
                .run_job(&wide_sum(FaultPlan::named("combined", 46)))
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.profile.failed_attempts, b.profile.failed_attempts);
        assert_eq!(
            a.profile.speculative_attempts,
            b.profile.speculative_attempts
        );
        assert_eq!(a.profile.speculative_wins, b.profile.speculative_wins);
        assert_eq!(a.profile.killed_attempts, b.profile.killed_attempts);
        assert_eq!(a.profile.dead_nodes, b.profile.dead_nodes);
        assert_eq!(a.profile.blacklisted_nodes, b.profile.blacklisted_nodes);
        assert_eq!(a.cost.map_s.to_bits(), b.cost.map_s.to_bits());
    }
}
