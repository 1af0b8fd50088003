//! In-memory spans recorded from outside the program: each one wraps a
//! call into a layer (or a contiguous run of calls to the same function,
//! with its call count), holds a name, start, end and parent, and stays in
//! memory until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer function the span wraps, e.g. `fleet.service.offer`.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Calls the span covers (a loop over a cheap function is one span).
    pub calls: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans recorded.
    pub spans: u64,
    /// Calls covered.
    pub calls: u64,
    /// Σ span durations.
    pub busy_ns: u64,
    /// Σ span durations minus the time their child spans cover.
    pub self_ns: u64,
}

/// Records nested spans in memory.
#[derive(Debug)]
pub struct Tracer {
    /// Identifier shared by every span of this run.
    pub trace_id: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose spans all carry `trace_id`.
    pub fn new(trace_id: String) -> Tracer {
        Tracer {
            trace_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            calls: 1,
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open one, recording
    /// that it covered `calls` calls.
    pub fn exit(&mut self, id: usize, calls: u64) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.calls = calls;
    }

    /// Runs `f` inside a span named `name` covering `calls` calls.
    pub fn time<T>(&mut self, name: &'static str, calls: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id, calls);
        out
    }

    /// Every span recorded so far, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"trace_id\": \"{}\", \"spans\": [", self.trace_id);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"calls\": {}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                s.calls
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Per-name totals over `spans`, with each span's self time: its duration
/// minus the part of that interval its child spans cover.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.spans += 1;
        t.calls += s.calls;
        t.busy_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 12, 20, Some(1)),
            span("a", 50, 60, Some(0)),
        ];
        let t = layer_totals(&spans);
        assert_eq!(t["root"].self_ns, 60);
        assert_eq!(t["a"].busy_ns, 40);
        assert_eq!(t["a"].self_ns, 32);
        assert_eq!(t["a"].spans, 2);
        assert_eq!(t["b"].self_ns, 8);
    }

    #[test]
    fn spans_nest_and_serialize() {
        let mut tr = Tracer::new("t1".into());
        let root = tr.enter("root");
        let x = tr.time("leaf", 7, || 3 + 4);
        tr.exit(root, 1);
        assert_eq!(x, 7);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[1].calls, 7);
        assert!(tr.spans()[0].end_ns >= tr.spans()[1].end_ns);
        let json = tr.to_json();
        assert!(json.starts_with("{\"trace_id\": \"t1\""));
        assert!(json.contains("\"name\": \"leaf\", \"parent\": 0"));
    }
}
