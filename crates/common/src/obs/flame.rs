//! Aggregated profile views: collapsed-stack flamegraphs, per-node slot
//! utilization timelines, and shuffle volume matrices.
//!
//! Everything here is computed over *simulated* time, so each view is a pure
//! function of the job histories and renders byte-identically across runs
//! and host thread counts. The collapsed-stack output is the standard
//! `frame;frame;frame value` format consumed by flamegraph.pl, inferno, and
//! speedscope; values are self-time microseconds.

use super::history::{JobHistory, TaskKind};
use super::trace::job_events;
use std::collections::BTreeMap;

fn frame(name: &str) -> String {
    // ';' separates frames in the collapsed format — keep names unambiguous.
    name.replace(';', ":")
}

/// Export the span view of `histories` (see [`super::trace`]) as collapsed
/// stacks with self-time values (microseconds of simulated time): an
/// event's duration minus its children's. Lines are sorted and duplicate
/// stacks merged, so equal histories always serialize identically.
pub fn collapsed(histories: &[JobHistory]) -> String {
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for h in histories {
        let (_, events) = job_events(h);
        let mut child_us = vec![0u64; events.len()];
        for e in &events {
            if let Some(parent) = e.parent {
                child_us[parent] += e.dur_us;
            }
        }
        for (e, child) in events.iter().zip(&child_us) {
            let self_us = e.dur_us.saturating_sub(*child);
            if self_us == 0 {
                continue;
            }
            let mut frames = vec![frame(&e.name)];
            let mut cur = e.parent;
            while let Some(p) = cur {
                frames.push(frame(&events[p].name));
                cur = events[p].parent;
            }
            frames.push(frame(&h.name));
            frames.reverse();
            *stacks.entry(frames.join(";")).or_insert(0) += self_us;
        }
    }
    let mut out = String::new();
    for (stack, value) in &stacks {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }
    out
}

const SHADES: &[u8] = b" .:-=+*#%@";

fn shade(fraction: f64) -> char {
    let idx = (fraction.clamp(0.0, 1.0) * (SHADES.len() - 1) as f64).round() as usize;
    SHADES[idx] as char
}

/// Per-node slot-occupancy timeline over the job's simulated makespan,
/// rendered as one density row per node (`' '` idle … `'@'` all slots busy),
/// followed by each node's busy-seconds and lane count.
pub fn utilization(h: &JobHistory, buckets: usize) -> String {
    use std::fmt::Write as _;
    let total = h.total_s();
    if total <= 0.0 || h.tasks.is_empty() || buckets == 0 {
        return String::from("(no tasks)\n");
    }
    // node -> (slots seen, lanes)
    let mut nodes: BTreeMap<usize, Vec<&super::history::TaskLane>> = BTreeMap::new();
    for t in &h.tasks {
        nodes.entry(t.node).or_default().push(t);
    }
    let bucket_s = total / buckets as f64;
    let mut out = String::new();
    writeln!(
        out,
        "slot occupancy over {total:.1}s simulated ({buckets} buckets of {bucket_s:.2}s)"
    )
    .expect("string write");
    for (node, lanes) in &nodes {
        let mut slots: Vec<(TaskKind, u32)> = lanes.iter().map(|t| (t.kind, t.slot)).collect();
        slots.sort();
        slots.dedup();
        let slot_count = slots.len().max(1);
        let mut row = String::with_capacity(buckets);
        let mut busy_s = 0.0;
        for t in lanes.iter() {
            busy_s += t.dur_s;
        }
        for b in 0..buckets {
            let t0 = b as f64 * bucket_s;
            let t1 = t0 + bucket_s;
            let mut overlap = 0.0;
            for t in lanes.iter() {
                overlap += (t.finish_s().min(t1) - t.start_s.max(t0)).max(0.0);
            }
            row.push(shade(overlap / (bucket_s * slot_count as f64)));
        }
        writeln!(
            out,
            "node {node:>3} |{row}| {busy_s:>8.1}s busy / {slot_count} slot(s), {} lane(s)",
            lanes.len()
        )
        .expect("string write");
    }
    out
}

/// Shuffle volume matrix: bytes flowing from each map node to each reduce
/// node. The engine's shuffle is all-to-all with uniform partitioning, so a
/// map lane's emitted bytes are spread evenly over the reduce lanes; the
/// matrix shows where the bytes come to rest per node pair.
pub fn shuffle_matrix(h: &JobHistory) -> String {
    use std::fmt::Write as _;
    let maps = h.lanes(TaskKind::Map);
    let reduces = h.lanes(TaskKind::Reduce);
    if maps.is_empty() || reduces.is_empty() || h.shuffle_bytes == 0 {
        return String::from("(no shuffle)\n");
    }
    let mut map_nodes: Vec<usize> = maps.iter().map(|t| t.node).collect();
    map_nodes.sort_unstable();
    map_nodes.dedup();
    let mut reduce_nodes: Vec<usize> = reduces.iter().map(|t| t.node).collect();
    reduce_nodes.sort_unstable();
    reduce_nodes.dedup();
    // cells[map_node_idx][reduce_node_idx] = bytes
    let mut cells = vec![vec![0u64; reduce_nodes.len()]; map_nodes.len()];
    let n_red = reduces.len() as u64;
    for m in &maps {
        let mi = map_nodes.binary_search(&m.node).expect("map node indexed");
        let share = m.emit_bytes / n_red;
        let mut rem = m.emit_bytes % n_red;
        for r in &reduces {
            let ri = reduce_nodes
                .binary_search(&r.node)
                .expect("reduce node indexed");
            let extra = if rem > 0 {
                rem -= 1;
                1
            } else {
                0
            };
            cells[mi][ri] += share + extra;
        }
    }
    let mut out = String::from("shuffle volume (bytes), map node -> reduce node\n");
    write!(out, "{:>10}", "").expect("string write");
    for rn in &reduce_nodes {
        write!(out, " {:>12}", format!("r{rn}")).expect("string write");
    }
    out.push('\n');
    for (mi, mn) in map_nodes.iter().enumerate() {
        write!(out, "{:>10}", format!("m{mn}")).expect("string write");
        for cell in &cells[mi] {
            write!(out, " {cell:>12}").expect("string write");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::history::{Phase, PhaseSlice, TaskLane};

    #[test]
    fn collapsed_attributes_self_time_and_sorts() {
        let mut probe = lane(TaskKind::Map, 0, 0, 0.0, 50e-6);
        probe.phases = vec![PhaseSlice {
            phase: Phase::Probe,
            start_s: 0.0,
            dur_s: 30e-6,
            note: None,
        }];
        let h = JobHistory {
            name: "job q2.1".into(),
            map_s: 80e-6,
            overhead_s: 20e-6,
            tasks: vec![probe],
            final_sort: Some((1, 5e-6)),
            ..JobHistory::default()
        };
        let text = collapsed(std::slice::from_ref(&h));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                "job q2.1;final-sort 5",
                "job q2.1;job q2.1;map 30",
                "job q2.1;job q2.1;map;map 0 20",
                "job q2.1;job q2.1;map;map 0;probe 30",
                "job q2.1;job q2.1;overhead 20",
            ]
        );
        // Same histories -> identical bytes; equal stacks merge.
        assert_eq!(text, collapsed(std::slice::from_ref(&h)));
        let twice = collapsed(&[h.clone(), h]);
        assert!(twice.contains("job q2.1;job q2.1;map;map 0;probe 60\n"));
    }

    #[test]
    fn collapsed_handles_disabled_recorder() {
        let obs = crate::obs::Obs::disabled();
        obs.record_job(JobHistory {
            map_s: 1.0,
            ..JobHistory::default()
        });
        assert_eq!(obs.flamegraph(), "");
        assert_eq!(collapsed(&[]), "");
    }

    fn lane(kind: TaskKind, node: usize, slot: u32, start: f64, dur: f64) -> TaskLane {
        TaskLane {
            index: 0,
            kind,
            node,
            slot,
            start_s: start,
            dur_s: dur,
            local_bytes: 0,
            remote_bytes: 0,
            emit_records: 4,
            emit_bytes: 40,
            wall_ns: 0,
            speculative: false,
            phases: Vec::new(),
        }
    }

    #[test]
    fn utilization_renders_one_row_per_node() {
        let h = JobHistory {
            name: "j".into(),
            map_s: 10.0,
            tasks: vec![
                lane(TaskKind::Map, 0, 0, 0.0, 10.0),
                lane(TaskKind::Map, 1, 0, 0.0, 5.0),
            ],
            ..JobHistory::default()
        };
        let text = utilization(&h, 10);
        assert!(text.contains("node   0"));
        assert!(text.contains("node   1"));
        // Node 0 is busy the whole makespan; node 1 only half of it.
        let row0 = text.lines().find(|l| l.starts_with("node   0")).unwrap();
        assert!(row0.contains("@@@@@@@@@@"), "fully busy: {row0}");
        let row1 = text.lines().find(|l| l.starts_with("node   1")).unwrap();
        assert!(row1.contains("@@@@@     "), "half busy: {row1}");
        assert_eq!(text, utilization(&h, 10));
        assert_eq!(utilization(&JobHistory::default(), 10), "(no tasks)\n");
    }

    #[test]
    fn shuffle_matrix_conserves_bytes() {
        let h = JobHistory {
            name: "j".into(),
            map_s: 10.0,
            reduce_s: 2.0,
            shuffle_bytes: 80,
            tasks: vec![
                lane(TaskKind::Map, 0, 0, 0.0, 10.0),
                lane(TaskKind::Map, 1, 0, 0.0, 10.0),
                lane(TaskKind::Reduce, 0, 0, 10.0, 2.0),
                lane(TaskKind::Reduce, 1, 0, 10.0, 2.0),
            ],
            ..JobHistory::default()
        };
        let text = shuffle_matrix(&h);
        // 2 maps x 40 emitted bytes spread over 2 reduces = 20 per cell.
        let total: u64 = text
            .lines()
            .filter(|l| l.trim_start().starts_with('m'))
            .flat_map(|l| l.split_whitespace().skip(1))
            .map(|v| v.parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, 80);
        assert!(text.contains("r0") && text.contains("r1"));
        assert_eq!(shuffle_matrix(&JobHistory::default()), "(no shuffle)\n");
    }
}
