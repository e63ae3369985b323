//! The committed-baseline gate shared by `bench_probe`, `workload` and
//! `restore`.
//!
//! A binary opens the committed JSON once and declares its checks: hard
//! floors, or floors at a ratio of the committed number at a dotted path.
//! Every check prints one `gate …` line to stderr and every violation is
//! kept, so one run reports all of them; [`Gate::finish`] exits 1 if any
//! check failed.

use clyde_common::obs::json::{self, Json};

pub struct Gate {
    /// The parsed committed baseline, or why it could not be read.
    committed: Result<Json, String>,
    violations: Vec<String>,
}

impl Gate {
    /// Read and parse the committed baseline at `path`.
    pub fn open(path: &str) -> Gate {
        match std::fs::read_to_string(path) {
            Ok(text) => Gate::from_text(path, &text),
            Err(e) => Gate::with(Err(format!("cannot read {path}: {e}"))),
        }
    }

    /// A gate over committed JSON `text`; `name` labels parse errors.
    pub fn from_text(name: &str, text: &str) -> Gate {
        Gate::with(json::parse(text).map_err(|e| format!("{name} is not valid JSON: {e}")))
    }

    fn with(committed: Result<Json, String>) -> Gate {
        Gate {
            committed,
            violations: Vec::new(),
        }
    }

    /// Record one check: print its `gate` line and keep a violation if it
    /// failed.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        eprintln!("gate {name}: {detail} — {}", if ok { "ok" } else { "FAIL" });
        if !ok {
            self.violations.push(format!("{name}: {detail}"));
        }
    }

    /// Hard floor: `measured >= floor`.
    pub fn floor(&mut self, name: &str, measured: f64, floor: f64) {
        self.check(
            name,
            measured >= floor,
            format!("{measured:.2} vs hard floor {floor:.2}"),
        );
    }

    /// Committed floor: `measured >= ratio ×` the committed number at
    /// `path`. A missing or non-numeric path fails and names the path.
    pub fn recorded(&mut self, name: &str, measured: f64, ratio: f64, path: &[&str]) {
        let recorded = match &self.committed {
            Ok(doc) => json::number_at(doc, path),
            Err(e) => Err(e.clone()),
        };
        match recorded {
            Ok(recorded) => {
                let floor = recorded * ratio;
                self.check(
                    name,
                    measured >= floor,
                    format!("{measured:.2} vs recorded {recorded:.2} (floor {floor:.2})"),
                );
            }
            Err(e) => self.check(name, false, format!("committed baseline: {e}")),
        }
    }

    /// Every failed check so far, in declaration order.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Report the verdict; exit 1 if any check failed.
    pub fn finish(self, what: &str) {
        if self.violations.is_empty() {
            eprintln!("{what} gate passed");
            return;
        }
        for v in &self.violations {
            eprintln!("gate FAIL: {v}");
        }
        eprintln!("{what} gate FAILED");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{"queries": {"Q1.1": {"probes": 7821},
                                      "Q2.1": {"speedup": 4.86}}}"#;

    fn next_down(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    #[test]
    fn missing_committed_path_fails_and_names_it() {
        let mut g = Gate::from_text("BENCH.json", DOC);
        g.recorded("Q2.1", 4.86, 0.9, &["queries", "Q2.1", "speedup"]);
        assert!(g.violations().is_empty(), "{:?}", g.violations());
        g.recorded("Q1.1", 100.0, 0.9, &["queries", "Q1.1", "speedup"]);
        g.recorded("Q3.2", 100.0, 0.9, &["queries", "Q3.2", "speedup"]);
        let v = g.violations();
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("queries.Q1.1.speedup"), "{v:?}");
        assert!(v[1].contains("queries.Q3"), "{v:?}");
    }

    #[test]
    fn committed_floor_is_inclusive() {
        let floor = 4.86 * 0.9;
        let mut g = Gate::from_text("BENCH.json", DOC);
        g.recorded("at", floor, 0.9, &["queries", "Q2.1", "speedup"]);
        assert!(g.violations().is_empty(), "{:?}", g.violations());
        g.recorded(
            "below",
            next_down(floor),
            0.9,
            &["queries", "Q2.1", "speedup"],
        );
        assert_eq!(g.violations().len(), 1);
        assert!(g.violations()[0].starts_with("below:"));
    }

    #[test]
    fn hard_floor_is_inclusive() {
        let mut g = Gate::from_text("BENCH.json", DOC);
        g.floor("at", 2.0, 2.0);
        assert!(g.violations().is_empty());
        g.floor("below", next_down(2.0), 2.0);
        assert_eq!(g.violations().len(), 1);
        assert!(g.violations()[0].starts_with("below:"));
    }

    #[test]
    fn unreadable_baseline_fails_every_committed_check() {
        let mut g = Gate::from_text("BENCH.json", "{");
        g.floor("hard", 3.0, 2.0);
        g.recorded("speedup", 3.0, 0.9, &["summary", "warm_speedup"]);
        let v = g.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("BENCH.json is not valid JSON"), "{v:?}");
        let mut g = Gate::open("no/such/BENCH.json");
        g.recorded("speedup", 3.0, 0.9, &["summary", "warm_speedup"]);
        assert!(
            g.violations()[0].contains("cannot read"),
            "{:?}",
            g.violations()
        );
    }
}
