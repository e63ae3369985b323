//! `clyde-lint` v2: the determinism & concurrency invariant catalog,
//! enforced by a zero-dependency static analyzer.
//!
//! The workspace's load-bearing guarantee is that traces, metric snapshots,
//! and query results are byte-identical across runs, fault plans, and thread
//! counts — and that the recovery paths backing the fault claims cannot
//! panic. Those properties are easy to break silently, so this crate checks
//! them mechanically on every CI run. The v1 scanner matched tokens against
//! masked lines; v2 keeps those rules and adds the structure they could not
//! see — a hand-rolled lossless lexer ([`lexer`]), a simplified per-file AST
//! ([`parse`]), and an intra-crate call graph with a static lock graph
//! ([`graph`]):
//!
//! * **D001 `unordered`** — no unordered `HashMap`/`HashSet` iteration may
//!   feed output: sort nearby, collect into a `BTreeMap`/`BTreeSet`, end in
//!   an order-insensitive reduction, or pragma with a reason.
//! * **D002 `wallclock`** — `Instant::now` / `SystemTime` only in the
//!   audited wall-phase module ([`D002_ALLOWED`]); everything else measures
//!   through `WallTimer`.
//! * **D003 `entropy`** — no entropy-seeded randomness; all RNG flows from
//!   explicit seeds through the splitmix64 plumbing.
//! * **D004 `concurrency`** — concurrency primitives only in the audited
//!   modules ([`D004_AUDITED`]); task code paths stay lock-free.
//! * **D005 `metricname`** — metric names are string literals in registered
//!   namespaces ([`D005_NAMESPACES`]); `scheduler.*` and `cache.*` are
//!   closed registries ([`D005_SCHEDULER_METRICS`],
//!   [`D005_CACHE_METRICS`]).
//! * **D006 `floatorder`** — non-associative float reductions in the
//!   merge-scope files ([`rules::d006::D006_MERGE_SCOPE`]) must pin their
//!   fold order or carry a reasoned pragma.
//! * **D007 `panicfree`** — no `unwrap`/`expect`/`panic!`/unchecked
//!   indexing on the designated recovery surface
//!   ([`rules::d007::D007_RECOVERY`]); grandfathered sites live in
//!   `baseline.lint` under a CI-enforced downward ratchet ([`baseline`]).
//! * **D008 `walltaint`** — per-function taint tracking: wall-derived
//!   values must not reach sim-time sinks (metrics, traces, profile JSON)
//!   except through the filtered `*wall*` channels.
//! * **D009 `lockgraph`** — the static lock-acquisition graph over the
//!   call graph must be acyclic, catching at lint time the inversions the
//!   runtime `lockorder` checker only sees on unlucky schedules.
//!
//! Violations are suppressed by a pragma on the offending line or the line
//! directly above:
//!
//! ```text
//! // clyde-lint: allow(floatorder, reason=fixed-merge-order, results sorted by first_morsel)
//! ```
//!
//! The reason is mandatory; a pragma without one is itself an error (P001).
//! Deliberately not a rustc plugin: the analyzer lexes and parses the whole
//! workspace in milliseconds, with no nightly dependency, and its rules stay
//! greppable.

use std::fmt;
use std::path::{Path, PathBuf};

pub mod baseline;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod rules;

pub use rules::d006::D006_MERGE_SCOPE;
pub use rules::d007::D007_RECOVERY;
pub use rules::d008::D008_SINKS;

/// The invariant catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// D001: unordered hash-container iteration.
    Unordered,
    /// D002: wall-clock read outside the wall-phase module.
    WallClock,
    /// D003: entropy-seeded randomness.
    Entropy,
    /// D004: concurrency primitive outside an audited module.
    Concurrency,
    /// D005: metric name that is not a literal in a registered namespace.
    MetricName,
    /// D006: unpinned float reduction in merge-scope code.
    FloatOrder,
    /// D007: panic-capable site on the recovery surface.
    PanicFree,
    /// D008: wall-derived value flowing into a sim-time artifact.
    WallTaint,
    /// D009: cycle in the static lock-acquisition graph.
    LockGraph,
    /// P001: malformed `clyde-lint` pragma.
    BadPragma,
}

impl Rule {
    pub const ALL: [Rule; 9] = [
        Rule::Unordered,
        Rule::WallClock,
        Rule::Entropy,
        Rule::Concurrency,
        Rule::MetricName,
        Rule::FloatOrder,
        Rule::PanicFree,
        Rule::WallTaint,
        Rule::LockGraph,
    ];

    pub fn code(self) -> &'static str {
        match self {
            Rule::Unordered => "D001",
            Rule::WallClock => "D002",
            Rule::Entropy => "D003",
            Rule::Concurrency => "D004",
            Rule::MetricName => "D005",
            Rule::FloatOrder => "D006",
            Rule::PanicFree => "D007",
            Rule::WallTaint => "D008",
            Rule::LockGraph => "D009",
            Rule::BadPragma => "P001",
        }
    }

    /// The name used in `allow(...)` pragmas.
    pub fn pragma_name(self) -> &'static str {
        match self {
            Rule::Unordered => "unordered",
            Rule::WallClock => "wallclock",
            Rule::Entropy => "entropy",
            Rule::Concurrency => "concurrency",
            Rule::MetricName => "metricname",
            Rule::FloatOrder => "floatorder",
            Rule::PanicFree => "panicfree",
            Rule::WallTaint => "walltaint",
            Rule::LockGraph => "lockgraph",
            Rule::BadPragma => "pragma",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding: `file:line: CODE message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    pub file: PathBuf,
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Modules allowed to read the wall clock (D002).
pub const D002_ALLOWED: &[&str] = &["crates/common/src/obs/wall.rs"];

/// Audited concurrency modules (D004): every `Mutex`/`RwLock`/spawn site in
/// these files has been reviewed for lock ordering (and runs under the
/// debug-build lock-order checker); everything else must stay lock-free.
pub const D004_AUDITED: &[&str] = &[
    // The checker itself and the observability hub's internal state.
    "crates/common/src/lockorder.rs",
    "crates/common/src/obs/mod.rs",
    "crates/common/src/obs/metrics.rs",
    // The multi-threaded map runner (paper Figure 5): the shared morsel
    // source (one mutex around reader state, held only to slice the next
    // block) and the thread-result sink; plus parallel dimension builds.
    // Audited 2026-08: no nested lock acquisition — `MorselSource::next`
    // and the `done` sink take one lock each and never both. (Rule D009
    // now re-derives this statically on every run.)
    "crates/core/src/mtrunner.rs",
    "crates/core/src/hashtable.rs",
    // The MapReduce engine, task context, and distributed cache.
    "crates/mapred/src/engine.rs",
    "crates/mapred/src/task.rs",
    "crates/mapred/src/distcache.rs",
    // DFS shared state: block stores, namespace, per-node I/O counters.
    "crates/dfs/src/local.rs",
    "crates/dfs/src/dfs.rs",
    "crates/dfs/src/metrics.rs",
    // NOT listed, deliberately: the multi-job server and slot scheduler
    // (`crates/mapred/src/server.rs`, `crates/mapred/src/scheduler.rs`,
    // `crates/core/src/server.rs`). Audited 2026-08: the server executes
    // admitted jobs *sequentially* through the audited engine and derives
    // the concurrent timeline in a pure discrete-event simulation, so the
    // whole layer is lock-free by design — concurrency lives only in data
    // (SimJob/Placement), never in threads. Keeping these files off the
    // allowlist means D004 fires the moment anyone reintroduces real
    // threading there (see `d004_job_server_layer_stays_lock_free`).
];

/// Namespaces a literal metric name may live in (D005).
pub const D005_NAMESPACES: [&str; 5] = ["mapred.", "dfs.", "scheduler.", "probe.", "cache."];

/// Files exempt from D005: the metrics registry itself (defines the
/// emitters and unit-tests them with throwaway names).
pub const D005_ALLOWED: &[&str] = &["crates/common/src/obs/metrics.rs"];

/// The closed set of `scheduler.*` series. These are a CI gate surface —
/// the `workload-restore-gate` job and the server swimlane tests assert on them by
/// name — so unlike the open namespaces, a `scheduler.` literal must match
/// this registry exactly. Emitting a new scheduler series means adding it
/// here (and to the goldens that read it) in the same change.
pub const D005_SCHEDULER_METRICS: [&str; 9] = [
    "scheduler.split_locality",
    "scheduler.jobs_admitted",
    "scheduler.jobs_rejected_queue_full",
    "scheduler.jobs_rejected_quota",
    "scheduler.queue_peak_depth",
    "scheduler.tenant_count",
    "scheduler.makespan_s",
    "scheduler.queue_wait_s",
    "scheduler.job_latency_s",
];

/// The closed set of `cache.*` series (the result-cache surface). Like the
/// scheduler registry, these are a gate surface — the `workload-restore-gate` CI job
/// and `shadow_check --restore` compare them byte-for-byte — so every
/// `cache.` literal must match this registry exactly.
pub const D005_CACHE_METRICS: [&str; 8] = [
    "cache.hits",
    "cache.misses",
    "cache.evictions",
    "cache.invalidations",
    "cache.inserts",
    "cache.bytes_served",
    "cache.bytes_stored",
    "cache.entries",
];

/// A parsed `allow(rule, reason=...)` suppression pragma.
#[derive(Debug, Clone)]
pub(crate) struct Pragma {
    line: usize,
    rule_name: String,
}

const PRAGMA_NAMES: [&str; 9] = [
    "unordered",
    "wallclock",
    "entropy",
    "concurrency",
    "metricname",
    "floatorder",
    "panicfree",
    "walltaint",
    "lockgraph",
];

/// Parse pragmas out of the file's comments. Malformed pragmas become P001
/// violations.
fn parse_pragmas(
    file: &Path,
    comments: &[(usize, String)],
    violations: &mut Vec<Violation>,
) -> Vec<Pragma> {
    let mut pragmas = Vec::new();
    for (line, text) in comments {
        let Some(pos) = text.find("clyde-lint:") else {
            continue;
        };
        let rest = text[pos + "clyde-lint:".len()..].trim();
        let ok = (|| -> Option<Pragma> {
            let body = rest.strip_prefix("allow(")?;
            let body = body.strip_suffix(')').unwrap_or(body);
            let (rule_name, reason_part) = body.split_once(',')?;
            let reason = reason_part.trim().strip_prefix("reason=")?;
            if reason.trim().is_empty() {
                return None;
            }
            let rule_name = rule_name.trim().to_string();
            if !PRAGMA_NAMES.contains(&rule_name.as_str()) {
                return None;
            }
            Some(Pragma {
                line: *line,
                rule_name,
            })
        })();
        match ok {
            Some(p) => pragmas.push(p),
            None => violations.push(Violation {
                file: file.to_path_buf(),
                line: *line,
                rule: Rule::BadPragma,
                message: format!(
                    "malformed pragma `{}` — expected \
                     `clyde-lint: allow(<rule>, reason=...)` with a non-empty reason and \
                     a rule in {}",
                    rest,
                    PRAGMA_NAMES.join("|")
                ),
            }),
        }
    }
    pragmas
}

/// A pragma suppresses matching violations on its own line and the line
/// directly below (so it can ride above the offending statement).
fn suppress(violations: &mut Vec<Violation>, pragmas: &[Pragma]) {
    violations.retain(|v| {
        v.rule == Rule::BadPragma
            || !pragmas.iter().any(|p| {
                p.rule_name == v.rule.pragma_name() && (p.line == v.line || p.line + 1 == v.line)
            })
    });
}

pub(crate) fn rel_allowed(file: &Path, allowlist: &[&str]) -> bool {
    let norm: String = file
        .to_string_lossy()
        .replace('\\', "/")
        .trim_start_matches("./")
        .to_string();
    allowlist.iter().any(|a| norm.ends_with(a))
}

/// Lex + parse one file into the per-file analysis inputs.
fn analyze_file(src: &str) -> (Vec<String>, Vec<(usize, String)>, parse::FileAst) {
    let toks = lexer::lex(src);
    let masked = lexer::masked_lines(&toks);
    let comments = lexer::line_comments(&toks);
    let ast = parse::parse(&toks);
    (masked, comments, ast)
}

/// Scan one file's source text. `file` is used for allowlisting and
/// reporting only. The file is treated as its own crate for D009, so
/// single-file scans (fixtures, unit tests) exercise the lock graph too.
pub fn scan_source(file: &Path, src: &str) -> Vec<Violation> {
    let mut violations = Vec::new();
    let (masked, comments, ast) = analyze_file(src);
    let pragmas = parse_pragmas(file, &comments, &mut violations);
    let ctx = rules::FileCtx {
        file,
        raw: src,
        masked: &masked,
        ast: &ast,
    };
    rules::run_file(&ctx, &mut violations);
    violations.extend(rules::d009::scan_crate(&[(
        &file.to_string_lossy().replace('\\', "/"),
        &ast,
    )]));
    suppress(&mut violations, &pragmas);
    violations.sort();
    violations
}

/// Recursively collect the `.rs` files the lint covers.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.retain(|f| {
        let s = f.to_string_lossy().replace('\\', "/");
        !s.contains("/target/") && !s.contains("/fixtures/") && !s.contains("/shims/")
    });
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<std::io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scan every covered file under `root`; violations come back sorted by
/// (file, line) so the report itself is deterministic. Unlike
/// [`scan_source`], D009 runs once per *crate* here, so lock-order edges
/// are connected across a crate's files through its call graph.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut all = Vec::new();
    let mut parsed: Vec<(String, parse::FileAst)> = Vec::new();
    let mut pragmas_by_file: Vec<(String, Vec<Pragma>)> = Vec::new();
    for file in collect_files(root)? {
        let src = std::fs::read_to_string(&file)?;
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let (masked, comments, ast) = analyze_file(&src);
        let mut violations = Vec::new();
        let pragmas = parse_pragmas(&rel, &comments, &mut violations);
        let ctx = rules::FileCtx {
            file: &rel,
            raw: &src,
            masked: &masked,
            ast: &ast,
        };
        rules::run_file(&ctx, &mut violations);
        suppress(&mut violations, &pragmas);
        all.extend(violations);
        parsed.push((rel_str.clone(), ast));
        pragmas_by_file.push((rel_str, pragmas));
    }
    let mut lock_violations = rules::d009::scan_workspace_groups(&parsed);
    for (file, pragmas) in &pragmas_by_file {
        let mut own: Vec<Violation> = lock_violations
            .iter()
            .filter(|v| v.file.to_string_lossy().replace('\\', "/") == *file)
            .cloned()
            .collect();
        suppress(&mut own, pragmas);
        lock_violations.retain(|v| v.file.to_string_lossy().replace('\\', "/") != *file);
        lock_violations.extend(own);
    }
    all.extend(lock_violations);
    all.sort();
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> Vec<Violation> {
        scan_source(Path::new("crates/x/src/lib.rs"), src)
    }

    fn rules(vs: &[Violation]) -> Vec<Rule> {
        vs.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn clean_source_passes() {
        let src = r#"
            use std::collections::BTreeMap;
            fn f(m: &BTreeMap<u32, u32>) -> Vec<u32> {
                m.values().copied().collect()
            }
        "#;
        assert!(scan(src).is_empty());
    }

    #[test]
    fn d001_flags_unsorted_iteration() {
        let src =
            "fn f(m: &FxHashMap<u32, u32>) -> Vec<u32> {\n    m.values().copied().collect()\n}\n";
        assert_eq!(rules(&scan(src)), vec![Rule::Unordered]);
    }

    #[test]
    fn d001_accepts_sorted_collection() {
        let src = "fn f(m: &FxHashMap<u32, u32>) -> Vec<u32> {\n    let mut v: Vec<u32> = m.values().copied().collect();\n    v.sort();\n    v\n}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn d001_accepts_order_free_reduction() {
        let src = "fn f(m: &FxHashMap<u32, u64>) -> u64 {\n    m.values().sum()\n}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn d001_sees_for_loops() {
        let src = "fn f(set: FxHashSet<u32>) {\n    for x in set {\n        println!(\"{x}\");\n    }\n}\n";
        assert_eq!(rules(&scan(src)), vec![Rule::Unordered]);
    }

    #[test]
    fn d002_flags_instant_and_allows_wall_module() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(rules(&scan(src)), vec![Rule::WallClock]);
        assert!(scan_source(Path::new("crates/common/src/obs/wall.rs"), src).is_empty());
    }

    #[test]
    fn d003_flags_entropy() {
        let src = "fn f() { let mut rng = rand::thread_rng(); }\n";
        assert_eq!(rules(&scan(src)), vec![Rule::Entropy]);
    }

    #[test]
    fn d004_flags_unaudited_mutex() {
        let src = "use std::sync::Mutex;\nstatic S: Mutex<u32> = Mutex::new(0);\n";
        let vs = scan(src);
        assert!(!vs.is_empty());
        assert!(vs.iter().all(|v| v.rule == Rule::Concurrency));
        let audited = scan_source(Path::new("crates/mapred/src/task.rs"), src);
        assert!(audited.is_empty());
    }

    #[test]
    fn d005_flags_unregistered_namespace() {
        let src = "fn f(m: &Metrics) {\n    m.counter_add(\"clyde.jobs\", 1);\n}\n";
        assert_eq!(rules(&scan(src)), vec![Rule::MetricName]);
    }

    #[test]
    fn d005_flags_non_literal_name() {
        let src = "fn f(m: &Metrics, name: &str) {\n    m.gauge_set(name, 0.5);\n}\n";
        assert_eq!(rules(&scan(src)), vec![Rule::MetricName]);
    }

    #[test]
    fn d005_accepts_registered_names_and_wrapped_calls() {
        let src = "fn f(m: &Metrics) {\n    m.counter_add(\"mapred.jobs\", 1);\n    m.gauge_set(\"scheduler.split_locality\", 0.5);\n    m.histogram_record(\n        \"dfs.scan.local_bytes\",\n        2.0,\n    );\n    m.counter_add(\"probe.survivors\", 1);\n}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn d005_skips_definitions_and_registry_module() {
        let src = "impl Metrics {\n    pub fn counter_add(&self, name: &str, delta: u64) {\n        self.add(name, delta);\n    }\n}\n";
        assert!(scan(src).is_empty());
        let call = "fn f(m: &Metrics) { m.counter_add(\"x\", 1); }\n";
        assert!(scan_source(Path::new("crates/common/src/obs/metrics.rs"), call).is_empty());
    }

    #[test]
    fn d004_job_server_layer_stays_lock_free() {
        // The audit entry for the multi-job server: these files are kept
        // OFF the D004 allowlist, so this test (and the workspace scan)
        // fails the moment real threading appears in the scheduling layer.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for rel in [
            "crates/mapred/src/server.rs",
            "crates/mapred/src/scheduler.rs",
            "crates/core/src/server.rs",
            "crates/dfs/src/cache.rs",
        ] {
            assert!(
                !rel_allowed(Path::new(rel), D004_AUDITED),
                "{rel} must not be on the D004 allowlist"
            );
            let src = std::fs::read_to_string(root.join(rel)).expect(rel);
            let concurrency: Vec<_> = scan_source(Path::new(rel), &src)
                .into_iter()
                .filter(|v| v.rule == Rule::Concurrency)
                .collect();
            assert!(
                concurrency.is_empty(),
                "{rel} grew concurrency primitives: {concurrency:?}"
            );
        }
    }

    #[test]
    fn d005_flags_unregistered_scheduler_series() {
        let src = "fn f(m: &Metrics) {\n    m.counter_add(\"scheduler.queue_drops\", 1);\n}\n";
        assert_eq!(rules(&scan(src)), vec![Rule::MetricName]);
    }

    #[test]
    fn d005_accepts_registered_scheduler_series() {
        let src = "fn f(m: &Metrics) {\n    m.counter_add(\"scheduler.jobs_admitted\", 1);\n    m.gauge_set(\"scheduler.queue_peak_depth\", 3.0);\n    m.histogram_record(\"scheduler.queue_wait_s\", 0.5);\n    m.histogram_record(\"scheduler.job_latency_s\", 1.5);\n}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn d005_flags_unregistered_cache_series() {
        let src = "fn f(m: &Metrics) {\n    m.counter_add(\"cache.size\", 1);\n}\n";
        assert_eq!(rules(&scan(src)), vec![Rule::MetricName]);
    }

    #[test]
    fn d005_accepts_registered_cache_series() {
        let src = "fn f(m: &Metrics) {\n    m.counter_add(\"cache.hits\", 1);\n    m.counter_add(\"cache.misses\", 2);\n    m.counter_add(\"cache.bytes_served\", 64);\n    m.gauge_set(\"cache.bytes_stored\", 128.0);\n    m.gauge_set(\"cache.entries\", 2.0);\n}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn d005_pragma_suppresses() {
        let src = "fn f(m: &Metrics) {\n    // clyde-lint: allow(metricname, reason=experimental namespace behind a feature flag)\n    m.counter_add(\"exp.jobs\", 1);\n}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn pragma_suppresses_with_reason() {
        let src = "fn f(m: &FxHashMap<u32, u32>) -> u64 {\n    // clyde-lint: allow(unordered, reason=commutative fold)\n    m.values().fold(0u64, |a, &b| a ^ b as u64)\n}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn pragma_without_reason_is_an_error() {
        let src = "// clyde-lint: allow(unordered)\nfn f() {}\n";
        assert_eq!(rules(&scan(src)), vec![Rule::BadPragma]);
    }

    #[test]
    fn comments_and_strings_are_masked() {
        let src = "fn f() {\n    // HashMap iteration and Instant::now in prose\n    let s = \"Mutex thread_rng SystemTime\";\n    let _ = s;\n}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn raw_strings_are_masked() {
        let src = "fn f() -> &'static str {\n    r#\"Instant::now Mutex\"#\n}\n";
        assert!(scan(src).is_empty());
    }

    // ---- v2 structural rules ----

    #[test]
    fn d006_flags_fold_in_merge_scope_only() {
        let src = "fn merge(xs: Vec<i64>) -> i64 {\n    xs.iter().fold(0, |a, b| a + b)\n}\n";
        let in_scope = scan_source(Path::new("crates/core/src/mtrunner.rs"), src);
        assert_eq!(rules(&in_scope), vec![Rule::FloatOrder]);
        assert!(scan(src).is_empty(), "neutral files are out of scope");
    }

    #[test]
    fn d006_sum_needs_float_evidence() {
        let int_sum =
            "fn total(runs: &[Vec<u8>]) -> usize {\n    runs.iter().map(Vec::len).sum()\n}\n";
        assert!(scan_source(Path::new("crates/mapred/src/shuffle.rs"), int_sum).is_empty());
        let float_sum = "fn total(xs: &[f64]) -> f64 {\n    xs.iter().sum::<f64>()\n}\n";
        assert_eq!(
            rules(&scan_source(
                Path::new("crates/mapred/src/shuffle.rs"),
                float_sum
            )),
            vec![Rule::FloatOrder]
        );
    }

    #[test]
    fn d006_flags_float_accumulation_in_loops() {
        let src = "fn f(xs: &[f64]) -> f64 {\n    let mut acc = 0.0;\n    for x in xs {\n        acc += x;\n    }\n    acc\n}\n";
        assert_eq!(
            rules(&scan_source(Path::new("crates/core/src/mtrunner.rs"), src)),
            vec![Rule::FloatOrder]
        );
    }

    #[test]
    fn d006_pragma_suppresses() {
        let src = "fn merge(xs: Vec<i64>) -> i64 {\n    // clyde-lint: allow(floatorder, reason=fixed-merge-order, inputs sorted)\n    xs.iter().fold(0, |a, b| a + b)\n}\n";
        assert!(scan_source(Path::new("crates/core/src/mtrunner.rs"), src).is_empty());
    }

    #[test]
    fn d007_flags_panic_sites_in_recovery_scope() {
        let src = "pub fn heal(xs: &[u8]) -> u8 {\n    let first = xs.first().unwrap();\n    let second = xs[1];\n    panic!(\"no\");\n}\n";
        let vs = scan_source(Path::new("crates/mapred/src/fault.rs"), src);
        assert_eq!(vs.len(), 3, "{vs:?}");
        assert!(vs.iter().all(|v| v.rule == Rule::PanicFree));
        assert!(scan(src).is_empty(), "neutral files are out of scope");
    }

    #[test]
    fn d007_fn_scoped_files_only_audit_named_fns() {
        let src = "impl S {\n    fn submit(&self) { self.x.unwrap(); }\n    fn helper(&self) { self.x.unwrap(); }\n}\n";
        let vs = scan_source(Path::new("crates/mapred/src/server.rs"), src);
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].rule, Rule::PanicFree);
    }

    #[test]
    fn d007_audits_every_engine_stage() {
        let src = "impl E {\n    fn map_stage(&self) { self.x.unwrap(); }\n    fn helper(&self) -> u8 { self.v[0] }\n}\n";
        let vs = scan_source(Path::new("crates/mapred/src/engine.rs"), src);
        assert_eq!(vs.len(), 2, "{vs:?}");
        assert!(vs.iter().all(|v| v.rule == Rule::PanicFree));
    }

    #[test]
    fn d007_skips_tests_and_checked_alternatives() {
        let src = "pub fn heal(x: Option<u8>) -> u8 {\n    x.unwrap_or(0)\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { heal(None); assert_eq!(v[0], 1); v.x.unwrap(); }\n}\n";
        assert!(scan_source(Path::new("crates/mapred/src/fault.rs"), src).is_empty());
    }

    #[test]
    fn d008_flags_wall_flow_into_sinks() {
        let src = "fn f(m: &Metrics) {\n    let t = WallTimer::start();\n    let spent = t.elapsed_s();\n    m.histogram_record(\"mapred.phase_s\", spent);\n}\n";
        assert_eq!(rules(&scan(src)), vec![Rule::WallTaint]);
    }

    #[test]
    fn d008_wall_named_series_are_the_filtered_channel() {
        let src = "fn f(m: &Metrics, t: &WallTimer) {\n    m.histogram_record(\"mapred.task_wall_ms\", t.elapsed_s() * 1e3);\n}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn d008_sim_time_values_are_untainted() {
        let src = "fn f(m: &Metrics, sim_s: f64) {\n    m.histogram_record(\"mapred.task_sim_s\", sim_s);\n}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn d009_reports_cycles_via_scan_source() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\nimpl S {\n    fn ab(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }\n    fn ba(&self) { let gb = self.b.lock(); let ga = self.a.lock(); }\n}\n";
        let vs = scan_source(Path::new("crates/mapred/src/task.rs"), src);
        assert_eq!(rules(&vs), vec![Rule::LockGraph], "{vs:?}");
        assert!(vs[0].message.contains("a -> b -> a"));
    }

    #[test]
    fn d009_consistent_order_is_clean() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\nimpl S {\n    fn ab(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }\n    fn ab2(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }\n}\n";
        assert!(scan_source(Path::new("crates/mapred/src/task.rs"), src).is_empty());
    }

    #[test]
    fn new_pragma_names_parse() {
        for name in ["floatorder", "panicfree", "walltaint", "lockgraph"] {
            let src =
                format!("// clyde-lint: allow({name}, reason=covered by a test)\nfn f() {{}}\n");
            assert!(scan(&src).is_empty(), "{name} pragma should parse");
        }
    }
}
