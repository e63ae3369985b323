//! The span view of job histories, and its Chrome trace-event export:
//! deterministic JSON loadable by Perfetto / `chrome://tracing`.
//!
//! Layout: one trace *process* per recorded [`JobHistory`] (pid = its
//! index); thread 0 is the job/stage lane and each (task kind, node, slot)
//! gets its own lane. Every event is a pure function of the history — all
//! timestamps are simulated microseconds, and wall-clock readings
//! ([`TaskLane::wall_ns`]) stay out — so two identical runs serialize
//! byte-identically.

use super::history::{JobHistory, TaskKind, TaskLane};
use super::json::escape;
use std::collections::BTreeMap;

/// Convert simulated seconds to trace microseconds (deterministic rounding).
fn us(seconds: f64) -> u64 {
    (seconds * 1e6).round().max(0.0) as u64
}

/// One interval of a job's span view: job → stage → task → phase.
pub(super) struct Event {
    /// Index of the enclosing event in the same job's list.
    pub parent: Option<usize>,
    /// Chrome trace-event category: "job", "stage", "task" or "phase".
    pub cat: &'static str,
    pub name: String,
    pub tid: u32,
    /// Simulated start, microseconds from server start.
    pub ts_us: u64,
    pub dur_us: u64,
    pub args: Vec<(String, String)>,
}

/// The span view of one job: its lane names (index = tid) and its events,
/// parents before children.
pub(super) fn job_events(h: &JobHistory) -> (Vec<String>, Vec<Event>) {
    // Deterministic lane numbering: map lanes first, then reduce lanes,
    // ordered by (node, slot).
    let mut lanes: BTreeMap<(TaskKind, usize, u32), u32> = BTreeMap::new();
    for t in &h.tasks {
        lanes.entry((t.kind, t.node, t.slot)).or_insert(0);
    }
    let mut lane_names = vec!["job".to_string()];
    for ((kind, node, slot), tid) in lanes.iter_mut() {
        *tid = lane_names.len() as u32;
        lane_names.push(format!("{} node{} slot{}", kind.label(), node, slot));
    }
    let mut events = Vec::new();
    let mut push = |parent: Option<usize>,
                    cat: &'static str,
                    name: &str,
                    tid: u32,
                    ts_us: u64,
                    dur_us: u64,
                    args: Vec<(String, String)>| {
        events.push(Event {
            parent,
            cat,
            name: name.to_string(),
            tid,
            ts_us,
            dur_us,
            args,
        });
        events.len() - 1
    };

    // Server-scheduled jobs start at their admission time on the shared
    // timeline; solo runs keep `t0_s == 0`.
    let t0_us = us(h.t0_s);
    let root = push(
        None,
        "job",
        &h.name,
        0,
        t0_us,
        us(h.end_s()).saturating_sub(t0_us),
        vec![
            ("map_tasks".into(), h.lanes(TaskKind::Map).len().to_string()),
            (
                "reduce_tasks".into(),
                h.lanes(TaskKind::Reduce).len().to_string(),
            ),
            ("map_concurrency".into(), h.map_concurrency.to_string()),
            ("scan_locality".into(), format!("{:.4}", h.locality)),
            ("split_locality".into(), format!("{:.4}", h.split_locality)),
            ("failed_attempts".into(), h.failed_attempts.to_string()),
        ]
        .into_iter()
        .chain(server_args(h))
        .chain(recovery_args(h))
        .collect(),
    );

    // Stage band on the job lane: setup | map | shuffle | reduce | overhead.
    let mut t = h.t0_s;
    let mut stage_ids: BTreeMap<TaskKind, usize> = BTreeMap::new();
    for (name, dur, kind) in [
        ("setup", h.setup_s, None),
        ("map", h.map_s, Some(TaskKind::Map)),
        ("shuffle", h.shuffle_s, None),
        ("reduce", h.reduce_s, Some(TaskKind::Reduce)),
        ("overhead", h.overhead_s, None),
    ] {
        if dur <= 0.0 {
            continue;
        }
        let mut args = Vec::new();
        if name == "shuffle" {
            args.push(("bytes".into(), h.shuffle_bytes.to_string()));
        }
        if name == "reduce" && h.merge_runs > 0 {
            args.push(("merged_runs".into(), h.merge_runs.to_string()));
        }
        if name == "map" && h.combine_input_records > 0 {
            args.push(("combine_in".into(), h.combine_input_records.to_string()));
            args.push(("combine_out".into(), h.combine_output_records.to_string()));
        }
        let id = push(
            Some(root),
            "stage",
            name,
            0,
            us(t),
            us(t + dur).saturating_sub(us(t)),
            args,
        );
        if let Some(k) = kind {
            stage_ids.insert(k, id);
        }
        t += dur;
    }

    for task in &h.tasks {
        let tid = lanes[&(task.kind, task.node, task.slot)];
        let parent = stage_ids.get(&task.kind).copied().unwrap_or(root);
        let t_start = us(task.start_s);
        let t_dur = us(task.finish_s()).saturating_sub(t_start);
        let name = if task.speculative {
            format!("{} {} (backup)", task.kind.label(), task.index)
        } else {
            format!("{} {}", task.kind.label(), task.index)
        };
        let tspan = push(
            Some(parent),
            "task",
            &name,
            tid,
            t_start,
            t_dur,
            task_args(task),
        );
        for ph in &task.phases {
            if ph.dur_s <= 0.0 {
                continue;
            }
            // Clamp phase intervals inside the task span so rounding never
            // breaks parent/child nesting in the viewer.
            let p_start = us(ph.start_s).clamp(t_start, t_start + t_dur);
            let p_end = us(ph.start_s + ph.dur_s).clamp(p_start, t_start + t_dur);
            let args = ph.note.iter().map(|n| ("note".into(), n.clone())).collect();
            push(
                Some(tspan),
                "phase",
                ph.phase.label(),
                tid,
                p_start,
                p_end - p_start,
                args,
            );
        }
    }

    // Bands outside the job span, on the job lane: the cached-read band
    // (truncated, not rounded, to microseconds) and the client-side sort
    // that starts where the job ends.
    if h.served_from_cache {
        push(
            None,
            "phase",
            "served-from-cache",
            0,
            (h.t0_s * 1e6) as u64,
            (h.total_s() * 1e6) as u64,
            vec![("job".into(), h.name.clone())],
        );
    }
    if let Some((rows, secs)) = h.final_sort {
        let end = h.end_s();
        push(
            None,
            "phase",
            "final-sort",
            0,
            us(end),
            us(end + secs).saturating_sub(us(end)),
            vec![("rows".into(), rows.to_string())],
        );
    }
    (lane_names, events)
}

/// Job-server args for the job span, emitted only for server-scheduled jobs
/// (non-empty tenant) so solo-run traces carry none.
fn server_args(h: &JobHistory) -> Vec<(String, String)> {
    let mut args = Vec::new();
    if !h.tenant.is_empty() {
        args.push(("tenant".into(), h.tenant.clone()));
        args.push(("admitted_s".into(), format!("{:.3}", h.t0_s)));
    }
    args
}

/// Recovery-action args for the job span, emitted only when an action
/// actually fired so clean-run traces carry none.
fn recovery_args(h: &JobHistory) -> Vec<(String, String)> {
    let mut args = Vec::new();
    if h.speculative_attempts > 0 {
        args.push((
            "speculative_attempts".into(),
            h.speculative_attempts.to_string(),
        ));
        args.push(("speculative_wins".into(), h.speculative_wins.to_string()));
    }
    if h.blacklisted_nodes > 0 {
        args.push(("blacklisted_nodes".into(), h.blacklisted_nodes.to_string()));
    }
    if h.dead_nodes > 0 {
        args.push(("dead_nodes".into(), h.dead_nodes.to_string()));
    }
    if h.rereplicated_blocks > 0 {
        args.push((
            "rereplicated_blocks".into(),
            h.rereplicated_blocks.to_string(),
        ));
    }
    args
}

fn task_args(task: &TaskLane) -> Vec<(String, String)> {
    let mut args = vec![
        ("node".into(), task.node.to_string()),
        ("slot".into(), task.slot.to_string()),
        ("locality".into(), format!("{:.4}", task.locality())),
    ];
    if task.local_bytes + task.remote_bytes > 0 {
        args.push(("local_bytes".into(), task.local_bytes.to_string()));
        args.push(("remote_bytes".into(), task.remote_bytes.to_string()));
    }
    if task.emit_records > 0 {
        args.push(("emit_records".into(), task.emit_records.to_string()));
        args.push(("emit_bytes".into(), task.emit_bytes.to_string()));
    }
    args
}

/// Serialize the span view of `histories` as Chrome trace-event JSON.
///
/// Events are ordered: process metadata (by pid), thread metadata (by pid,
/// tid), then complete ("X") events sorted by (pid, tid, ts, -dur, event
/// order) — which makes `ts` monotone non-decreasing within every track and
/// keeps output byte-stable across runs.
pub fn chrome_trace(histories: &[JobHistory]) -> String {
    let views: Vec<_> = histories.iter().map(job_events).collect();
    let mut events: Vec<String> = Vec::new();
    for (pid, h) in histories.iter().enumerate() {
        events.push(format!(
            r#"{{"name":"process_name","ph":"M","pid":{pid},"tid":0,"args":{{"name":"{}"}}}}"#,
            escape(&h.name)
        ));
        events.push(format!(
            r#"{{"name":"process_sort_index","ph":"M","pid":{pid},"tid":0,"args":{{"sort_index":{pid}}}}}"#
        ));
    }
    for (pid, (lanes, _)) in views.iter().enumerate() {
        for (tid, name) in lanes.iter().enumerate() {
            events.push(format!(
                r#"{{"name":"thread_name","ph":"M","pid":{pid},"tid":{tid},"args":{{"name":"{}"}}}}"#,
                escape(name)
            ));
            events.push(format!(
                r#"{{"name":"thread_sort_index","ph":"M","pid":{pid},"tid":{tid},"args":{{"sort_index":{tid}}}}}"#
            ));
        }
    }

    let mut spans: Vec<(usize, usize, &Event)> = views
        .iter()
        .enumerate()
        .flat_map(|(pid, (_, evs))| evs.iter().enumerate().map(move |(i, e)| (pid, i, e)))
        .collect();
    spans.sort_by_key(|&(pid, i, e)| (pid, e.tid, e.ts_us, std::cmp::Reverse(e.dur_us), i));
    for (pid, _, e) in spans {
        events.push(event_json(pid, e));
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

fn event_json(pid: usize, e: &Event) -> String {
    let args: Vec<String> = e
        .args
        .iter()
        .map(|(k, v)| format!(r#""{}":"{}""#, escape(k), escape(v)))
        .collect();
    format!(
        r#"{{"name":"{}","cat":"{}","ph":"X","ts":{},"dur":{},"pid":{},"tid":{},"args":{{{}}}}}"#,
        escape(&e.name),
        e.cat,
        e.ts_us,
        e.dur_us,
        pid,
        e.tid,
        args.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::history::{Phase, PhaseSlice};
    use crate::obs::{json, Obs};

    fn sample_history() -> JobHistory {
        let task = |index: usize, node: usize, start: f64, dur: f64| TaskLane {
            index,
            kind: TaskKind::Map,
            node,
            slot: 0,
            start_s: start,
            dur_s: dur,
            local_bytes: 1000,
            remote_bytes: 0,
            emit_records: 5,
            emit_bytes: 50,
            wall_ns: 123,
            speculative: false,
            phases: vec![
                PhaseSlice {
                    phase: Phase::Setup,
                    start_s: start,
                    dur_s: 0.5,
                    note: None,
                },
                PhaseSlice {
                    phase: Phase::Scan,
                    start_s: start + 0.5,
                    dur_s: dur - 0.5,
                    note: Some("1000 B".into()),
                },
            ],
        };
        JobHistory {
            name: "job-x".into(),
            setup_s: 1.0,
            map_s: 10.0,
            overhead_s: 2.0,
            map_concurrency: 1,
            locality: 1.0,
            split_locality: 1.0,
            tasks: vec![task(0, 0, 1.0, 10.0), task(1, 1, 1.0, 8.0)],
            ..JobHistory::default()
        }
    }

    #[test]
    fn record_job_builds_span_tree() {
        let obs = Obs::enabled();
        obs.record_job(sample_history());
        let (lanes, events) = obs.with_histories(|hs| job_events(&hs[0]));
        // 1 job + 3 stages (setup/map/overhead) + 2 tasks + 4 phases.
        assert_eq!(events.len(), 10);
        assert_eq!(events[0].cat, "job");
        assert_eq!(events[0].dur_us, 13_000_000);
        // Tasks parent to the map stage, phases to their task.
        let map_stage = events
            .iter()
            .position(|e| e.cat == "stage" && e.name == "map")
            .unwrap();
        let tasks: Vec<usize> = (0..events.len())
            .filter(|&i| events[i].cat == "task")
            .collect();
        assert_eq!(tasks.len(), 2);
        for &t in &tasks {
            assert_eq!(events[t].parent, Some(map_stage));
            let task = &events[t];
            let phases: Vec<&Event> = events
                .iter()
                .filter(|e| e.parent == Some(t) && e.cat == "phase")
                .collect();
            assert_eq!(phases.len(), 2);
            // Nesting: phases stay inside the task interval.
            for p in phases {
                assert!(p.ts_us >= task.ts_us);
                assert!(p.ts_us + p.dur_us <= task.ts_us + task.dur_us);
            }
        }
        // Lanes: job lane 0 plus one lane per (node, slot).
        assert_eq!(lanes, ["job", "map node0 slot0", "map node1 slot0"]);
    }

    #[test]
    fn recovery_actions_appear_in_job_args_and_backup_lanes() {
        let mut h = sample_history();
        h.speculative_attempts = 2;
        h.speculative_wins = 1;
        h.rereplicated_blocks = 3;
        h.tasks[1].speculative = true;
        let (_, events) = job_events(&h);
        let arg = |k: &str| {
            events[0]
                .args
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(arg("speculative_attempts").as_deref(), Some("2"));
        assert_eq!(arg("speculative_wins").as_deref(), Some("1"));
        assert_eq!(arg("rereplicated_blocks").as_deref(), Some("3"));
        assert_eq!(arg("blacklisted_nodes"), None, "zero counters stay absent");
        assert!(events.iter().any(|e| e.name == "map 1 (backup)"));
        assert!(events.iter().any(|e| e.name == "map 0"));
    }

    #[test]
    fn cache_and_final_sort_bands_follow_the_job_on_its_lane() {
        let mut h = sample_history();
        assert!(job_events(&h)
            .1
            .iter()
            .all(|e| e.parent.is_some() || e.cat == "job"));
        h.served_from_cache = true;
        h.final_sort = Some((7, 0.25));
        let (_, events) = job_events(&h);
        let tail: Vec<(&str, u64, u64)> = events[events.len() - 2..]
            .iter()
            .inspect(|e| assert!(e.parent.is_none() && e.tid == 0 && e.cat == "phase"))
            .map(|e| (e.name.as_str(), e.ts_us, e.dur_us))
            .collect();
        assert_eq!(
            tail,
            [
                ("served-from-cache", 0, 13_000_000),
                ("final-sort", 13_000_000, 250_000)
            ]
        );
    }

    #[test]
    fn chrome_trace_is_valid_and_monotone() {
        let text = chrome_trace(&[sample_history(), sample_history()]);
        let doc = json::parse(&text).expect("trace must be valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());
        let mut last: std::collections::BTreeMap<(u64, u64), f64> = Default::default();
        for e in events {
            let ph = e.get("ph").unwrap().as_str().unwrap();
            if ph != "X" {
                continue;
            }
            let pid = e.get("pid").unwrap().as_num().unwrap() as u64;
            let tid = e.get("tid").unwrap().as_num().unwrap() as u64;
            let ts = e.get("ts").unwrap().as_num().unwrap();
            let prev = last.insert((pid, tid), ts);
            if let Some(prev) = prev {
                assert!(ts >= prev, "ts must be monotone within a track");
            }
        }
        // One process per history, numbered by position.
        assert_eq!(last.keys().map(|k| k.0).max(), Some(1));
    }

    #[test]
    fn chrome_trace_is_deterministic() {
        let render = || chrome_trace(&[sample_history()]);
        assert_eq!(render(), render());
    }

    #[test]
    fn disabled_recorder_produces_empty_trace() {
        let obs = Obs::disabled();
        obs.record_job(sample_history());
        let text = obs.chrome_trace();
        assert_eq!(text, chrome_trace(&[]));
        let doc = json::parse(&text).unwrap();
        assert!(doc.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn us_conversion_rounds_deterministically() {
        assert_eq!(us(0.0), 0);
        assert_eq!(us(1.5), 1_500_000);
        assert_eq!(us(0.000_000_6), 1);
        assert_eq!(us(-1.0), 0);
    }
}
