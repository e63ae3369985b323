//! In-memory span recorder for the traced run.
//!
//! Spans are taken in the benchmark's own code, around calls into each
//! module's public functions; nothing inside the program is instrumented.
//! They stay in memory and are written once, at exit, as a Chrome trace.
//! Spans of one request (one query's executions and replay in one pass)
//! share a request id; set-up spans have id 0.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub request: u64,
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    request: u64,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            request: 0,
            spans: Vec::new(),
        }
    }

    /// Start a new request: later spans carry its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Run `f` inside a span; returns its value and the span's seconds.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        (out, self.close(layer, name, start))
    }

    /// Record a span that began at `start` and ends now; returns its
    /// seconds. For spans that enclose other spans.
    pub fn close(&mut self, layer: &'static str, name: impl Into<String>, start: Instant) -> f64 {
        let dur = start.elapsed();
        self.spans.push(Span {
            request: self.request,
            layer,
            name: name.into(),
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
        dur.as_secs_f64()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON (one track per layer), with `provenance`
    /// (a JSON object) attached as metadata.
    pub fn chrome_json(&self, provenance: &str) -> String {
        let mut layers: Vec<&'static str> = self.spans.iter().map(|s| s.layer).collect();
        layers.sort_unstable();
        layers.dedup();
        let mut out = format!("{{\"otherData\":{provenance},\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let tid = layers.binary_search(&s.layer).unwrap_or(0) + 1;
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"request\":{}}}}}",
                json_str(&s.name),
                json_str(s.layer),
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.request,
            )
            .expect("string write");
        }
        out.push_str("]}\n");
        out
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_and_export() {
        let mut t = Tracer::new();
        let (v, s) = t.span("probe", "probe \"Q2.1\"", || 41 + 1);
        assert_eq!(v, 42);
        assert!(s >= 0.0);
        t.next_request();
        t.span("dfs", "read", || ());
        assert_eq!(t.spans().len(), 2);
        assert_eq!((t.spans()[0].request, t.spans()[1].request), (0, 1));
        let json = t.chrome_json("{\"seed\":46}");
        assert!(json.starts_with("{\"otherData\":{\"seed\":46},\"traceEvents\":[{"));
        assert!(json.contains("\"name\":\"probe \\\"Q2.1\\\"\""));
        assert!(json.contains("\"cat\":\"dfs\""));
        assert!(json.contains("\"args\":{\"request\":1}"));
    }
}
