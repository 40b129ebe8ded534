//! Benchmark-side span recording.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public entry points — the program itself carries no probes for this.
//! A span's *self time* is its duration minus the time its direct children
//! cover; because every traced workload records from one thread, children
//! never overlap, so the self times of a tree add up exactly to its root's
//! duration. Spans live in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span: times in nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// An in-memory span recorder. A disabled tracer records nothing, so the
/// untraced runs pay one branch per call site.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested under the innermost open one.
    pub fn begin(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (a bug in the call sites).
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("end() without a matching begin()");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Adds closed spans recorded elsewhere (parents already re-indexed).
    pub fn absorb(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    pub fn spans(&self) -> &[Span] {
        assert!(self.open.is_empty(), "spans read while some are still open");
        &self.spans
    }

    /// Writes every span as one JSON line: name, start, end, parent index.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Per-name aggregates of a span set: call count, total duration and
/// total self time (seconds), plus every call's duration for medians.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    pub calls: usize,
    pub total_s: f64,
    pub self_s: f64,
    pub durations_s: Vec<f64>,
}

/// Self time of every span, in span order.
pub fn self_times_s(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= (s.end_ns - s.start_ns) as f64 * 1e-9;
        }
    }
    own
}

/// Aggregates spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<String, NameStats> {
    let own = self_times_s(spans);
    let mut out: BTreeMap<String, NameStats> = BTreeMap::new();
    for (s, self_s) in spans.iter().zip(own) {
        let d = (s.end_ns - s.start_ns) as f64 * 1e-9;
        let e = out.entry(s.name.clone()).or_default();
        e.calls += 1;
        e.total_s += d;
        e.self_s += self_s;
        e.durations_s.push(d);
    }
    out
}

/// Layer parts and unattributed remainder of every span tree, in the
/// order the roots were opened: `(parts_s, unattributed_s)`. The remainder
/// is the root's own time; the parts are every other span's self time.
/// Parents are recorded before their children, so one pass finds each
/// span's tree.
pub fn tree_sums(spans: &[Span]) -> Vec<(f64, f64)> {
    let own = self_times_s(spans);
    let mut tree_of = Vec::with_capacity(spans.len());
    let mut sums: Vec<(f64, f64)> = Vec::new();
    for (s, t) in spans.iter().zip(own) {
        match s.parent {
            None => {
                tree_of.push(sums.len());
                sums.push((0.0, t));
            }
            Some(p) => {
                let tree = tree_of[p];
                tree_of.push(tree);
                sums[tree].0 += t;
            }
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.child", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        let own = self_times_s(&spans);
        let expect = [30e-9, 20e-9, 10e-9, 40e-9];
        for (got, want) in own.iter().zip(expect) {
            assert!((got - want).abs() < 1e-15, "{got} vs {want}");
        }
        let total: f64 = own.iter().sum();
        assert!((total - 100e-9).abs() < 1e-15);
        let stats = by_name(&spans);
        assert_eq!(stats["a"].calls, 1);
        assert!((stats["a"].self_s - 20e-9).abs() < 1e-15);
    }

    #[test]
    fn each_tree_sums_its_own_spans() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("root", 200, 260, None),
            span("b", 210, 230, Some(2)),
            span("b.child", 212, 218, Some(3)),
        ];
        let sums = tree_sums(&spans);
        assert_eq!(sums.len(), 2);
        let close = |got: f64, want: f64| (got - want).abs() < 1e-15;
        assert!(close(sums[0].0, 30e-9) && close(sums[0].1, 70e-9), "{sums:?}");
        assert!(close(sums[1].0, 20e-9) && close(sums[1].1, 40e-9), "{sums:?}");
    }

    #[test]
    fn nesting_follows_begin_and_end() {
        let mut t = Tracer::new(true);
        t.span("outer", || ());
        t.begin("root");
        t.span("inner", || ());
        t.end();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[2].parent, Some(1));
        let off = Tracer::new(false);
        assert!(off.spans().is_empty());
    }
}
