//! Wall-clock SSB benchmark: Clydesdale and Hive end to end, with
//! per-layer timings taken from outside each module.
//!
//! One run loads SSB into an empty DFS (several times; `setup_s` is the
//! median), then runs its workload's queries in a closed loop from one
//! client thread, checking every answer against the reference executor.
//! A traced run (`--trace 1`) instead replays each query's map-side
//! pipeline as a sequence of public calls with a span around each, and
//! reports per-layer metrics.

pub mod metrics;
pub mod replay;
pub mod run;
pub mod setup;
pub mod sys;
pub mod trace;
pub mod workload;

pub use run::{run, Report};
pub use workload::{Config, Workload};
