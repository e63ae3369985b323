//! Observability: job histories, a unified metrics registry, and the
//! views rendered from them.
//!
//! The paper's evaluation (Section 6) reads everything — the Q2.1 time
//! breakdown, effective scan bandwidth, locality — from Hadoop's per-task
//! counters and job-history logs. [`Obs`] is our equivalent: engines record
//! a [`JobHistory`] per job, and that history is the one record of the job.
//! The Chrome trace ([`trace`], deterministic JSON for Perfetto) and the
//! collapsed-stack flamegraph ([`flame`]) are pure functions of the recorded
//! histories. The [`MetricsRegistry`] unifies the counters that used to live
//! in `TaskCost`, the DFS I/O snapshot, and the scheduler.
//!
//! `Obs::disabled()` is a zero-overhead no-op; instrumented code guards
//! expensive collection behind [`Obs::is_enabled`].

pub mod flame;
pub mod history;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod server;
pub mod trace;
pub mod wall;

pub use history::{IoBytes, JobHistory, Phase, PhaseSlice, StragglerStats, TaskKind, TaskLane};
pub use metrics::{HistogramSummary, MetricValue, MetricsRegistry, MetricsSnapshot};
pub use profile::{
    profiles_json, JobProfileReport, PhaseRow, QueryProfile, StageRow, DRIFT_THRESHOLD_PCT,
};
pub use server::{RejectedLane, ServedLane, ServerRun};
pub use wall::WallTimer;

use crate::lockorder::Mutex;
use std::sync::Arc;

/// The observability hub shared across DFS, engine, query layer, and bench
/// harness. Cheap to clone via `Arc`.
pub struct Obs {
    enabled: bool,
    metrics: MetricsRegistry,
    histories: Mutex<Vec<JobHistory>>,
    profiles: Mutex<Vec<QueryProfile>>,
    server_runs: Mutex<Vec<ServerRun>>,
}

impl Obs {
    pub fn enabled() -> Arc<Obs> {
        Obs::new(true, MetricsRegistry::enabled())
    }

    /// The no-op hub: recording and metric updates cost nothing.
    pub fn disabled() -> Arc<Obs> {
        Obs::new(false, MetricsRegistry::disabled())
    }

    fn new(enabled: bool, metrics: MetricsRegistry) -> Arc<Obs> {
        Arc::new(Obs {
            enabled,
            metrics,
            histories: Mutex::new(Vec::new()),
            profiles: Mutex::new(Vec::new()),
            server_runs: Mutex::new(Vec::new()),
        })
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Record a finished job's history.
    pub fn record_job(&self, h: JobHistory) {
        if self.enabled {
            self.histories.lock().push(h);
        }
    }

    /// Attach the client-side final sort (result rows, simulated seconds)
    /// to the most recently recorded job.
    pub fn record_final_sort(&self, rows: usize, secs: f64) {
        if let Some(h) = self.histories.lock().last_mut() {
            h.final_sort = Some((rows, secs));
        }
    }

    /// Run `f` over every recorded job history, in recording order.
    pub fn with_histories<R>(&self, f: impl FnOnce(&[JobHistory]) -> R) -> R {
        f(&self.histories.lock())
    }

    /// Store a finished job-server drain's per-tenant swimlane report.
    pub fn record_server_run(&self, r: ServerRun) {
        if self.enabled {
            self.server_runs.lock().push(r);
        }
    }

    /// Run `f` over every recorded server run, in recording order.
    pub fn with_server_runs<R>(&self, f: impl FnOnce(&[ServerRun]) -> R) -> R {
        f(&self.server_runs.lock())
    }

    /// Store a finished query's explain-analyze profile.
    pub fn record_query_profile(&self, p: QueryProfile) {
        if self.enabled {
            self.profiles.lock().push(p);
        }
    }

    /// Run `f` over every recorded query profile, in recording order.
    pub fn with_query_profiles<R>(&self, f: impl FnOnce(&[QueryProfile]) -> R) -> R {
        f(&self.profiles.lock())
    }

    /// Collapsed-stack flamegraph of every recorded job (deterministic over
    /// simulated time; see [`flame::collapsed`]).
    pub fn flamegraph(&self) -> String {
        self.with_histories(flame::collapsed)
    }

    /// Every recorded job as Chrome trace-event JSON (see
    /// [`trace::chrome_trace`]).
    pub fn chrome_trace(&self) -> String {
        self.with_histories(trace::chrome_trace)
    }

    /// Per-job summaries followed by the metrics snapshot, as text.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        self.with_server_runs(|rs| {
            for r in rs {
                out.push_str(&r.render());
            }
        });
        self.with_histories(|hs| {
            for h in hs {
                out.push_str(&h.summary());
            }
        });
        let metrics = self.metrics.snapshot().render();
        if !metrics.is_empty() {
            out.push_str("metrics:\n");
            for line in metrics.lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    /// Clear metrics, histories, profiles and server runs (e.g. between
    /// bench iterations).
    pub fn reset(&self) {
        self.metrics.reset();
        self.histories.lock().clear();
        self.profiles.lock().clear();
        self.server_runs.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_obs_records_nothing() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        let h = JobHistory {
            name: "j".into(),
            map_s: 1.0,
            ..JobHistory::default()
        };
        obs.record_job(h);
        obs.record_final_sort(3, 0.5);
        obs.with_histories(|hs| assert!(hs.is_empty()));
        assert!(obs.summary().is_empty());
        assert_eq!(obs.flamegraph(), "");
    }

    #[test]
    fn enabled_obs_tracks_jobs_and_resets() {
        let obs = Obs::enabled();
        obs.metrics().counter_add("mapred.jobs", 1);
        let h = JobHistory {
            name: "j".into(),
            map_s: 2.0,
            ..JobHistory::default()
        };
        obs.record_job(h.clone());
        obs.record_job(h);
        obs.record_final_sort(3, 0.5);
        // The final sort lands on the last job only, one trace process each.
        obs.with_histories(|hs| {
            assert_eq!(hs.len(), 2);
            assert_eq!(hs[0].final_sort, None);
            assert_eq!(hs[1].final_sort, Some((3, 0.5)));
        });
        let trace = obs.chrome_trace();
        assert!(trace.contains(r#""name":"final-sort","cat":"phase","ph":"X","ts":2000000,"dur":500000,"pid":1,"tid":0"#));
        assert!(!trace.contains(r#""pid":2"#));
        assert!(obs.summary().contains("job j"));
        assert!(obs.summary().contains("mapred.jobs = 1"));
        obs.record_query_profile(QueryProfile::from_histories("Q1.1", &[], 0.5));
        obs.with_query_profiles(|ps| assert_eq!(ps.len(), 1));
        obs.reset();
        obs.with_histories(|hs| assert!(hs.is_empty()));
        obs.with_query_profiles(|ps| assert!(ps.is_empty()));
        assert_eq!(obs.flamegraph(), "");
    }
}
