//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! (never inside the simulator), kept in memory, and written out as JSON
//! lines when the run ends. A span's self time is its duration minus the
//! part its direct children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval. `trace` groups the spans of one operation (a
/// trial, or one sweep cell of the replica).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub trace: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// Records spans against one monotonic clock. Spans nest by call order:
/// a span entered while another is open becomes its child.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    trace: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            trace: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new operation: spans entered from now on carry a fresh
    /// trace identifier.
    pub fn next_trace(&mut self) {
        self.trace += 1;
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            trace: self.trace,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        let end_ns = self.now_ns();
        assert_eq!(
            self.stack.pop(),
            Some(open.0),
            "spans close innermost first"
        );
        self.spans[open.0 as usize].end_ns = end_ns;
    }

    /// Records a leaf span around `f`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span, in start order.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of every span, summed by name: duration minus the direct
/// children's durations. `spans` is a contiguous run of one tracer's spans
/// (parents recorded before the run are outside it and ignored).
pub fn self_ns_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let base = spans.first().map_or(0, |s| s.id);
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p >= base) {
            children[(p - base) as usize] += s.duration_ns();
        }
    }
    let mut by_name = BTreeMap::new();
    for s in spans {
        *by_name.entry(s.name).or_insert(0) += s.duration_ns() - children[(s.id - base) as usize];
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            trace: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span(0, None, "cell", 0, 100),
            span(1, Some(0), "fork", 10, 40),
            span(2, Some(1), "read", 15, 25),
            span(3, Some(0), "measure", 40, 90),
            span(4, None, "cell", 100, 130),
        ];
        let own = self_ns_by_name(&spans);
        assert_eq!(
            own["cell"],
            (100 - 30 - 50) + 30,
            "grandchildren do not count"
        );
        assert_eq!(own["fork"], 30 - 10);
        assert_eq!(own["read"], 10);
        assert_eq!(own["measure"], 50);
        let total: u64 = own.values().sum();
        assert_eq!(total, 130, "self times partition the root spans");
        let tail = self_ns_by_name(&spans[1..4]);
        assert_eq!(tail["fork"], 20, "a parent outside the run is ignored");
        assert_eq!(tail["measure"], 50);
    }

    #[test]
    fn tracer_nests_by_call_order_and_tags_traces() {
        let mut t = Tracer::new();
        let outer = t.enter("outer");
        t.scope("leaf", || ());
        t.exit(outer);
        t.next_trace();
        t.scope("second", || ());
        let s = t.spans();
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!((s[1].trace, s[2].trace), (0, 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
        assert!(text.lines().next().unwrap().contains("\"parent\":null"));
    }
}
