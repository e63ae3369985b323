//! Byte-for-byte goldens for the two views rendered from job histories:
//! the Chrome trace (`Obs::chrome_trace`) and the collapsed-stack
//! flamegraph (`Obs::flamegraph`). The fixture covers a solo job with a
//! final sort, a server-scheduled job, a speculative backup lane and a
//! cache-served job; the golden files under `tests/golden/` pin µs rounding,
//! phase clamping, lane numbering, event order and self-time arithmetic.

use clyde_common::obs::{JobHistory, Phase, PhaseSlice, TaskKind, TaskLane};
use clyde_common::Obs;

fn slice(phase: Phase, start_s: f64, dur_s: f64, note: Option<&str>) -> PhaseSlice {
    PhaseSlice {
        phase,
        start_s,
        dur_s,
        note: note.map(str::to_string),
    }
}

#[allow(clippy::too_many_arguments)]
fn lane(
    index: usize,
    kind: TaskKind,
    node: usize,
    slot: u32,
    start_s: f64,
    dur_s: f64,
    speculative: bool,
    phases: Vec<PhaseSlice>,
) -> TaskLane {
    TaskLane {
        index,
        kind,
        node,
        slot,
        start_s,
        dur_s,
        local_bytes: 4096 * (index as u64 + 1),
        remote_bytes: if node == 1 { 1024 } else { 0 },
        emit_records: if kind == TaskKind::Map { 12 } else { 0 },
        emit_bytes: if kind == TaskKind::Map { 480 } else { 0 },
        wall_ns: 987_654,
        speculative,
        phases,
    }
}

/// A solo Clydesdale-shaped job: every stage band, two map lanes (one
/// running two tasks back to back), a reduce lane, a zero-length phase,
/// a phase that overruns its task after rounding, and a noted phase.
fn solo() -> JobHistory {
    JobHistory {
        name: "clydesdale Q2.1".into(),
        setup_s: 1.25,
        map_s: 8.1234567,
        shuffle_s: 0.4,
        reduce_s: 1.5,
        overhead_s: 2.0,
        map_concurrency: 6,
        shuffle_bytes: 1234,
        merge_runs: 3,
        combine_input_records: 40,
        combine_output_records: 10,
        locality: 0.96,
        split_locality: 1.0,
        tasks: vec![
            lane(
                0,
                TaskKind::Map,
                0,
                0,
                1.25,
                4.0000004,
                false,
                vec![
                    slice(Phase::Setup, 1.25, 0.5, None),
                    slice(Phase::HashBuild, 1.75, 1.5, Some("27000 rows")),
                    slice(Phase::Scan, 3.25, 0.0, None),
                    slice(Phase::Probe, 3.25, 2.0000009, Some("1.2 MB local")),
                ],
            ),
            lane(
                1,
                TaskKind::Map,
                1,
                0,
                1.25,
                8.1234567,
                false,
                vec![
                    slice(Phase::Setup, 1.25, 0.5, None),
                    slice(Phase::Scan, 1.75, 3.3333333, None),
                    slice(Phase::Probe, 5.0833333, 4.2901234, None),
                ],
            ),
            lane(
                2,
                TaskKind::Map,
                0,
                0,
                5.2500004,
                3.5,
                false,
                vec![slice(Phase::Emit, 5.2500004, 3.5, None)],
            ),
            lane(
                0,
                TaskKind::Reduce,
                0,
                0,
                9.7734567,
                1.5,
                false,
                vec![
                    slice(Phase::Sort, 9.7734567, 0.5, None),
                    slice(Phase::Reduce, 10.2734567, 1.0, Some("5 groups")),
                ],
            ),
        ],
        ..JobHistory::default()
    }
}

/// A job the job server scheduled: tenant set, admitted at `t0_s > 0`,
/// with retry and node-loss counters on the job span.
fn scheduled() -> JobHistory {
    JobHistory {
        name: "hive \"mapjoin\"; stage 2".into(),
        tenant: "adhoc".into(),
        t0_s: 12.5,
        setup_s: 0.75,
        map_s: 3.0,
        overhead_s: 1.0,
        map_concurrency: 2,
        locality: 0.5,
        split_locality: 0.75,
        failed_attempts: 2,
        blacklisted_nodes: 1,
        dead_nodes: 1,
        tasks: vec![
            lane(
                0,
                TaskKind::Map,
                2,
                1,
                13.25,
                3.0,
                false,
                vec![
                    slice(Phase::StateLoad, 13.25, 1.0, None),
                    slice(Phase::Write, 14.25, 2.0, Some("x;y")),
                ],
            ),
            lane(
                1,
                TaskKind::Map,
                1,
                0,
                13.25,
                2.0,
                false,
                vec![slice(Phase::Scan, 13.25, 2.0, None)],
            ),
        ],
        ..JobHistory::default()
    }
}

/// A job with a speculative backup lane. Its map band is zero, so its
/// tasks hang off the job span directly.
fn speculative() -> JobHistory {
    JobHistory {
        name: "speculative".into(),
        setup_s: 0.5,
        map_s: 0.0,
        overhead_s: 6.0,
        map_concurrency: 1,
        locality: 1.0,
        split_locality: 1.0,
        speculative_attempts: 1,
        speculative_wins: 1,
        rereplicated_blocks: 4,
        tasks: vec![
            lane(
                0,
                TaskKind::Map,
                0,
                0,
                0.5,
                5.0,
                false,
                vec![slice(Phase::Probe, 0.5, 5.0, None)],
            ),
            lane(
                0,
                TaskKind::Map,
                3,
                0,
                2.5,
                2.0,
                true,
                vec![slice(Phase::Probe, 2.5, 2.0, None)],
            ),
        ],
        ..JobHistory::default()
    }
}

/// A job served from the result cache: no tasks, only the cached-read
/// price, at a start time that truncates and rounds differently.
fn cache_served() -> JobHistory {
    JobHistory {
        name: "clydesdale Q1.1".into(),
        t0_s: 3.0000007,
        overhead_s: 0.5000009,
        locality: 1.0,
        split_locality: 1.0,
        ..JobHistory::default()
    }
}

fn recorded() -> std::sync::Arc<Obs> {
    let obs = Obs::enabled();
    obs.record_job(solo());
    obs.record_final_sort(7, 0.2500003);
    obs.record_job(scheduled());
    obs.record_job(speculative());
    obs.record_final_sort(0, 0.0);
    obs.record_job(JobHistory {
        served_from_cache: true,
        ..cache_served()
    });
    obs.record_final_sort(3, 0.1);
    obs
}

#[test]
fn chrome_trace_matches_the_golden() {
    assert_eq!(
        recorded().chrome_trace(),
        include_str!("golden/fixture.trace.json")
    );
}

#[test]
fn flamegraph_matches_the_golden() {
    assert_eq!(
        recorded().flamegraph(),
        include_str!("golden/fixture.folded")
    );
}
