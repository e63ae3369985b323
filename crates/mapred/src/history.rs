//! Build a [`JobHistory`] from an executed (or extrapolated) job profile.
//!
//! The cost model prices phases with wave formulas ([`crate::cost::makespan`]);
//! for the swimlane view we additionally *lay out* every task on a concrete
//! (node, slot) timeline using earliest-free-slot list scheduling — the same
//! policy Hadoop's slot scheduler follows. For uniform task sets (and for
//! Clydesdale's one-task-per-node jobs in particular) the two agree exactly;
//! for skewed sets the stage spans show the priced makespan while the lanes
//! show the realized schedule.

use crate::cost::{CostParams, JobCost, TaskCost};
use crate::job::JobProfile;
use crate::scheduler::{JobSchedule, Placement};
use clyde_common::obs::{JobHistory, PhaseSlice, TaskKind, TaskLane};
use clyde_dfs::ClusterSpec;

/// Earliest-free-slot schedule: places each task duration presented in
/// order on one node whose slots all free up at `t0`.
struct NodeSlots {
    free_at: Vec<f64>,
}

impl NodeSlots {
    fn new(concurrency: u32, t0: f64) -> NodeSlots {
        NodeSlots {
            free_at: vec![t0; concurrency.max(1) as usize],
        }
    }

    fn place(&mut self, task: usize, node: usize, dur: f64) -> Placement {
        let (slot, _) = self
            .free_at
            .iter()
            .enumerate()
            .min_by(|a, b| {
                a.1.partial_cmp(b.1)
                    .expect("schedule time is NaN")
                    .then(a.0.cmp(&b.0))
            })
            .expect("at least one slot");
        let start = self.free_at[slot];
        self.free_at[slot] = start + dur;
        Placement {
            task,
            node,
            slot: slot as u32,
            start_s: start,
            dur_s: dur,
        }
    }
}

/// Where a job's tasks ran and how its stage bands are framed on the
/// timeline the history is drawn on.
struct Timeline<'a> {
    tenant: &'a str,
    t0_s: f64,
    map_s: f64,
    reduce_s: f64,
    map: &'a [Placement],
    /// Placements of `profile.killed_attempts`, in order.
    killed: &'a [Placement],
    reduce: &'a [Placement],
}

/// One swimlane: a task at its placement, with its counters and its priced
/// phases shifted to the placement's start.
fn lane(
    kind: TaskKind,
    p: &Placement,
    cost: &TaskCost,
    wall_ns: u64,
    speculative: bool,
    phases: Vec<PhaseSlice>,
) -> TaskLane {
    TaskLane {
        index: p.task,
        kind,
        node: p.node,
        slot: p.slot,
        start_s: p.start_s,
        dur_s: p.dur_s,
        local_bytes: cost.local_bytes,
        remote_bytes: cost.remote_bytes,
        emit_records: cost.emit_records,
        emit_bytes: cost.emit_bytes,
        wall_ns,
        speculative,
        phases: phases
            .into_iter()
            .map(|ph| PhaseSlice {
                start_s: ph.start_s + p.start_s,
                ..ph
            })
            .collect(),
    }
}

/// Assemble a history from a timeline: map lanes, then killed-attempt
/// lanes, then reduce lanes, plus the combiner/merge/locality roll-ups.
fn history(
    profile: &JobProfile,
    cost: &JobCost,
    params: &CostParams,
    cluster: &ClusterSpec,
    tl: Timeline<'_>,
) -> JobHistory {
    let concurrency = profile.map_concurrency.max(1);
    let mut tasks: Vec<TaskLane> =
        Vec::with_capacity(tl.map.len() + tl.killed.len() + tl.reduce.len());
    for p in tl.map {
        let t = &profile.map_tasks[p.task];
        let phases = params.map_task_phases(cluster, &t.cost, concurrency);
        tasks.push(lane(
            TaskKind::Map,
            p,
            &t.cost,
            t.wall_ns,
            t.speculative,
            phases,
        ));
    }
    for (p, k) in tl.killed.iter().zip(&profile.killed_attempts) {
        tasks.push(lane(TaskKind::Map, p, &k.cost, 0, true, Vec::new()));
    }
    for p in tl.reduce {
        let t = &profile.reduce_tasks[p.task];
        let phases = params.reduce_task_phases(cluster, &t.cost);
        tasks.push(lane(TaskKind::Reduce, p, &t.cost, t.wall_ns, false, phases));
    }

    let total_map = profile.total_map_cost();
    let total_reduce = profile.total_reduce_cost();
    JobHistory {
        name: profile.name.clone(),
        tenant: tl.tenant.to_string(),
        t0_s: tl.t0_s,
        setup_s: cost.setup_s,
        map_s: tl.map_s,
        shuffle_s: cost.shuffle_s,
        reduce_s: tl.reduce_s,
        overhead_s: cost.overhead_s,
        map_concurrency: concurrency,
        shuffle_bytes: profile.shuffle_bytes,
        merge_runs: total_reduce.merge_runs,
        combine_input_records: total_map.combine_input_records,
        combine_output_records: total_map.combine_output_records,
        locality: profile.scan_locality(),
        split_locality: profile.split_locality,
        failed_attempts: profile.failed_attempts,
        speculative_attempts: profile.speculative_attempts,
        speculative_wins: profile.speculative_wins,
        blacklisted_nodes: profile.blacklisted_nodes.len() as u32,
        dead_nodes: profile.dead_nodes.len() as u32,
        rereplicated_blocks: profile.rereplicated_blocks,
        wall_phases: profile.wall_phases.clone(),
        // Per-job I/O is attributed by the engine after pricing (it owns the
        // DFS scope); histories start with an empty snapshot.
        io: Vec::new(),
        corrupt_reads: 0,
        tasks,
    }
}

/// Assemble the full job history: task swimlanes with phase slices, stage
/// times from `cost`, and the combiner/merge/locality roll-ups.
pub fn job_history(
    profile: &JobProfile,
    cost: &JobCost,
    params: &CostParams,
    cluster: &ClusterSpec,
) -> JobHistory {
    let n = cluster.num_workers().max(1);
    let concurrency = profile.map_concurrency.max(1);

    // Map lanes start after client-side setup.
    let mut map_slots: Vec<NodeSlots> = (0..n)
        .map(|_| NodeSlots::new(concurrency, cost.setup_s))
        .collect();
    let map: Vec<Placement> = profile
        .map_tasks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let node = t.node.0 % n;
            let dur = params.map_task_duration(cluster, &t.cost, concurrency);
            map_slots[node].place(i, node, dur)
        })
        .collect();
    // Killed attempts (speculative losers) occupied real map slots until the
    // commit race was decided; lay them out after the committed lanes so the
    // swimlane view shows the wasted occupancy.
    let killed: Vec<Placement> = profile
        .killed_attempts
        .iter()
        .map(|k| {
            let node = k.node.0 % n;
            map_slots[node].place(k.task, node, k.busy_s)
        })
        .collect();

    // Reduce lanes start once the map phase and the shuffle complete.
    let t_reduce = cost.setup_s + cost.map_s + cost.shuffle_s;
    let mut reduce_slots: Vec<NodeSlots> = (0..n)
        .map(|_| NodeSlots::new(cluster.reduce_slots, t_reduce))
        .collect();
    let reduce: Vec<Placement> = profile
        .reduce_tasks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let node = t.node.0 % n;
            let dur = params.reduce_task_duration(cluster, &t.cost);
            reduce_slots[node].place(i, node, dur)
        })
        .collect();

    let tl = Timeline {
        tenant: "",
        t0_s: 0.0,
        map_s: cost.map_s,
        reduce_s: cost.reduce_s,
        map: &map,
        killed: &killed,
        reduce: &reduce,
    };
    history(profile, cost, params, cluster, tl)
}

/// Assemble a job history from a *multi-job schedule*: task lanes are taken
/// verbatim from the slot simulator's placements (absolute shared-timeline
/// times), and the stage bands are re-derived so they tile the scheduled
/// span exactly — the "map" band absorbs any queueing between slot grants,
/// so `t0_s + total_s()` always equals the scheduled finish.
///
/// Served jobs never carry fault plans, so killed speculative attempts are
/// not laid out here (the solo path's [`job_history`] handles those).
pub fn job_history_scheduled(
    profile: &JobProfile,
    cost: &JobCost,
    params: &CostParams,
    cluster: &ClusterSpec,
    tenant: &str,
    arrival_s: f64,
    sched: &JobSchedule,
) -> JobHistory {
    let tl = Timeline {
        tenant,
        t0_s: arrival_s,
        map_s: (sched.map_end_s - arrival_s - cost.setup_s).max(0.0),
        reduce_s: (sched.reduce_end_s - sched.map_end_s - cost.shuffle_s).max(0.0),
        map: &sched.map,
        killed: &[],
        reduce: &sched.reduce,
    };
    history(profile, cost, params, cluster, tl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::TaskCost;
    use crate::job::TaskProfile;
    use clyde_dfs::NodeId;

    fn profile(num_tasks: usize, nodes: usize, concurrency: u32) -> JobProfile {
        let mut cost = TaskCost::new();
        cost.local_bytes = 100 << 20;
        cost.emit_records = 1000;
        cost.emit_bytes = 32_000;
        JobProfile {
            name: "hist-test".into(),
            map_tasks: (0..num_tasks)
                .map(|i| TaskProfile {
                    node: NodeId(i % nodes),
                    cost,
                    wall_ns: 7,
                    speculative: false,
                })
                .collect(),
            map_concurrency: concurrency,
            split_locality: 1.0,
            ..JobProfile::default()
        }
    }

    #[test]
    fn lanes_respect_slot_concurrency() {
        let cluster = ClusterSpec::tiny(2);
        let params = CostParams::paper();
        // 4 tasks on 2 nodes with 2 slots each: every task starts at setup
        // time because each node has exactly as many tasks as slots... with
        // concurrency 1, the second task per node queues behind the first.
        let p = profile(4, 2, 1);
        let cost = p.price(&params, &cluster).unwrap();
        let h = job_history(&p, &cost, &params, &cluster);
        assert_eq!(h.tasks.len(), 4);
        let mut by_node: Vec<Vec<&clyde_common::obs::TaskLane>> = vec![Vec::new(); 2];
        for t in &h.tasks {
            by_node[t.node].push(t);
        }
        for lanes in &by_node {
            assert_eq!(lanes.len(), 2);
            // Serial on one slot: second starts when first finishes.
            assert!((lanes[1].start_s - lanes[0].finish_s()).abs() < 1e-9);
            assert_eq!(lanes[0].slot, lanes[1].slot);
        }
        // Schedule agrees with the priced makespan for this uniform set.
        let last = h.tasks.iter().map(|t| t.finish_s()).fold(0.0, f64::max);
        assert!((last - (h.setup_s + h.map_s)).abs() < 1e-6);
        // Phases were shifted to absolute time.
        let t0 = &h.tasks[0];
        assert!((t0.phases[0].start_s - t0.start_s).abs() < 1e-12);
        assert_eq!(t0.wall_ns, 7);
    }

    #[test]
    fn two_slots_run_tasks_in_parallel() {
        let cluster = ClusterSpec::tiny(2);
        let params = CostParams::paper();
        let p = profile(4, 2, 2);
        let cost = p.price(&params, &cluster).unwrap();
        let h = job_history(&p, &cost, &params, &cluster);
        for node in 0..2 {
            let lanes: Vec<_> = h.tasks.iter().filter(|t| t.node == node).collect();
            assert_eq!(lanes.len(), 2);
            // Both tasks start together on different slots.
            assert!((lanes[0].start_s - lanes[1].start_s).abs() < 1e-12);
            assert_ne!(lanes[0].slot, lanes[1].slot);
        }
    }

    #[test]
    fn history_is_deterministic() {
        let cluster = ClusterSpec::tiny(3);
        let params = CostParams::paper();
        let p = profile(7, 3, 2);
        let cost = p.price(&params, &cluster).unwrap();
        let a = job_history(&p, &cost, &params, &cluster);
        let b = job_history(&p, &cost, &params, &cluster);
        assert_eq!(a.summary(), b.summary());
        assert_eq!(a.tasks.len(), b.tasks.len());
        for (x, y) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(x.start_s.to_bits(), y.start_s.to_bits());
            assert_eq!(x.dur_s.to_bits(), y.dur_s.to_bits());
        }
    }
}
