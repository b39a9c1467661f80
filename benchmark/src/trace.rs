//! Spans recorded from *outside* the program: one around every call the
//! benchmark makes into a crate, kept in memory and written out when the
//! run ends. A layer's self time is its span minus the part its children
//! cover. Tracing inside the program is a later change; until then spans
//! whose bounds come from durations the public API returns (the prepare
//! and commit phases of a `CommitReport`) are marked `derived`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`dataplane.inject_batch`, `distrib.prepare`…).
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start: u64,
    /// End, ns since the origin.
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// The operation (edit number, window number) the span belongs to;
    /// spans of one operation share it.
    pub op: u64,
    /// True when the bounds were reconstructed from durations the API
    /// returned rather than read off the clock around a call.
    pub derived: bool,
}

/// An in-memory span recorder. A disabled tracer records nothing, so the
/// untraced run pays one branch per would-be span.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin` (shared between threads so
    /// their spans are on one time line).
    pub fn new(origin: Instant, enabled: bool) -> Tracer {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Switch recording on or off (the traced traffic leg alternates, to
    /// price the tracing itself).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record a span measured with the clock; returns its index for use as
    /// a parent.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        op: u64,
    ) -> Option<u32> {
        let (start, end) = (self.ns(start), self.ns(end));
        self.push(name, start, end, parent, op, false)
    }

    /// Record a span of `len_ns` starting `offset_ns` into `parent_start`,
    /// reconstructed from a duration the program reported.
    pub fn derived_span(
        &mut self,
        name: &'static str,
        parent_start: Instant,
        offset_ns: u64,
        len_ns: u64,
        parent: Option<u32>,
        op: u64,
    ) -> Option<u32> {
        let start = self.ns(parent_start) + offset_ns;
        self.push(name, start, start + len_ns, parent, op, true)
    }

    /// Open a span whose end is not known yet (a window that will parent
    /// the calls made inside it); [`Tracer::close`] sets the end.
    pub fn open(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<u32>,
        op: u64,
    ) -> Option<u32> {
        let start = self.ns(start);
        self.push(name, start, start, parent, op, false)
    }

    /// Set the end of a span returned by [`Tracer::open`].
    pub fn close(&mut self, id: Option<u32>, end: Instant) {
        if let Some(id) = id {
            self.spans[id as usize].end = self.ns(end);
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<u32>,
        op: u64,
        derived: bool,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
            derived,
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// Append another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Total self time per span name, in ns: each span's duration minus the
/// part of its interval that its direct children cover (overlapping
/// children are counted once; a child sticking out of its parent is
/// clipped to it).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let (start, end) = (span.start.max(p.start), span.end.min(p.end));
            if start < end {
                children[parent as usize].push((start, end));
            }
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (span, mut covered) in spans.iter().zip(children) {
        covered.sort_unstable();
        let mut covered_ns = 0;
        let mut reach = span.start;
        for (start, end) in covered {
            let start = start.max(reach);
            if end > start {
                covered_ns += end - start;
                reach = end;
            }
        }
        *out.entry(span.name).or_default() += span.end.saturating_sub(span.start) - covered_ns;
    }
    out
}

/// Most spans written to a trace file; a traffic leg records a few per
/// batch, and the ledger is computed from all of them in memory anyway.
const MAX_WRITTEN_SPANS: usize = 50_000;

/// Render the trace file: the per-name self-time ledger computed over
/// *all* spans, then the spans themselves (the first
/// [`MAX_WRITTEN_SPANS`]; `spans_dropped` says how many were left out).
pub fn render_trace(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans_recorded\": {}, \"spans_dropped\": {},\n \"self_time_ns\": {{",
        spans.len(),
        spans.len().saturating_sub(MAX_WRITTEN_SPANS)
    );
    for (i, (name, ns)) in self_times(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {ns}");
    }
    out.push_str("},\n \"spans\": [\n");
    for (i, s) in spans.iter().take(MAX_WRITTEN_SPANS).enumerate() {
        let sep = if i == 0 { "" } else { ",\n" };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{sep}  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}, \"derived\": {}}}",
            s.name, s.start, s.end, s.op, s.derived
        );
    }
    out.push_str("\n ]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
            derived: false,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("update", 0, 100, None),
            span("compile", 0, 60, Some(0)),
            span("prepare", 60, 90, Some(0)),
            span("decode", 65, 75, Some(2)),
        ];
        let st = self_times(&spans);
        assert_eq!(st["update"], 10);
        assert_eq!(st["compile"], 60);
        assert_eq!(st["prepare"], 20);
        assert_eq!(st["decode"], 10);
        // Self times of a tree sum to the root's duration.
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let spans = vec![
            span("root", 10, 110, None),
            span("a", 20, 60, Some(0)),
            span("b", 40, 80, Some(0)),   // overlaps a by 20
            span("c", 100, 150, Some(0)), // sticks out by 40
            span("d", 0, 5, Some(0)),     // entirely outside
        ];
        let st = self_times(&spans);
        // Covered: 20..80 (60) + 100..110 (10) = 70 of 100.
        assert_eq!(st["root"], 30);
        assert_eq!(st["c"], 50);
    }

    #[test]
    fn same_name_spans_accumulate() {
        let spans = vec![span("inject", 0, 10, None), span("inject", 20, 35, None)];
        assert_eq!(self_times(&spans)["inject"], 25);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_absorb_rebases_parents() {
        let origin = Instant::now();
        let mut off = Tracer::new(origin, false);
        assert_eq!(off.span("x", origin, origin, None, 0), None);
        assert!(off.spans().is_empty());

        let mut a = Tracer::new(origin, true);
        let root = a.span("root", origin, origin, None, 1);
        assert_eq!(root, Some(0));
        let mut b = Tracer::new(origin, true);
        let parent = b.span("parent", origin, origin, None, 2);
        b.derived_span("child", origin, 5, 10, parent, 2);
        a.absorb(b);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert!(a.spans()[2].derived);
        assert_eq!(a.spans()[2].end - a.spans()[2].start, 10);
        let text = render_trace("w", 7, a.spans());
        assert!(text.contains("\"spans_recorded\": 3"));
        assert!(text.contains("\"name\": \"child\""));
    }
}
