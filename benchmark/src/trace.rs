//! In-memory spans for the traced run.
//!
//! The benchmark records a span around every call into a layer — from its
//! own files; nothing inside the program is instrumented — keeps them in
//! per-thread logs, and writes them out when the workload ends. Phase
//! durations the program *reports* (`StepStats::phases`) are attached as
//! child spans of their step, laid end to end: they are durations, not
//! timestamps, and carry `reported: true` so a reader never mistakes their
//! start for a measured instant.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One span. `session`/`step` together with the workload name form the trace
/// id shared by every span of one request; `u32::MAX` marks "not part of a
/// session" (set-up, probes, reopen).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub session: u32,
    pub step: u32,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub reported: bool,
    pub counters: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Marks spans outside any session.
pub const NO_SESSION: u32 = u32::MAX;

/// A span log owned by one thread. Disabled logs drop everything, so the
/// untraced run pays one branch per boundary.
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    next_id: u32,
    spans: Vec<Span>,
}

impl SpanLog {
    /// `lane` keeps span ids of concurrent logs disjoint (one lane per client
    /// thread); all logs of a run share `origin`.
    pub fn new(enabled: bool, origin: Instant, lane: u32) -> Self {
        Self {
            enabled,
            origin,
            next_id: lane << 24,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id (0 when disabled).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        session: u32,
        step: u32,
        parent: Option<u32>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        reported: bool,
        counters: Vec<(&'static str, u64)>,
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        self.next_id += 1;
        self.spans.push(Span {
            session,
            step,
            id: self.next_id,
            parent,
            name,
            start_ns,
            end_ns,
            reported,
            counters,
        });
        self.next_id
    }

    /// A measured span outside any session.
    pub fn measured(&mut self, name: &'static str, start: Instant, end: Instant) -> u32 {
        let (s, e) = (self.ns(start), self.ns(end));
        self.record(NO_SESSION, 0, None, name, s, e, false, Vec::new())
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration not covered by the span's own children.
    pub self_ns: u64,
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Total and self time per span name. Self time is the span's duration
/// minus the part of that interval its direct children cover; overlapping
/// children are counted once and children are clipped to the parent.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let child_ns = children
            .get_mut(&s.id)
            .map_or(0, |c| covered(s.start_ns, s.end_ns, c));
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns() - child_ns;
    }
    out
}

/// One JSON object per span, one per line.
pub fn to_jsonl(workload: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 160);
    for s in spans {
        let trace_id = if s.session == NO_SESSION {
            format!("{workload}/-/-")
        } else {
            format!("{workload}/{}/{}", s.session, s.step)
        };
        let _ = write!(
            out,
            "{{\"trace_id\":\"{trace_id}\",\"span_id\":{},\"parent_id\":{},\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"reported\":{}",
            s.id,
            s.parent.map_or("null".to_owned(), |p| p.to_string()),
            s.name,
            s.start_ns,
            s.end_ns,
            s.reported
        );
        if !s.counters.is_empty() {
            out.push_str(",\"counters\":{");
            for (i, (k, v)) in s.counters.iter().enumerate() {
                let _ = write!(out, "{}\"{k}\":{v}", if i == 0 { "" } else { "," });
            }
            out.push('}');
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            session: 0,
            step: 0,
            id,
            parent,
            name,
            start_ns: s,
            end_ns: e,
            reported: false,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "step", 0, 100),
            // Two overlapping children cover [10, 60]; a third sticks out of
            // the parent and is clipped to [90, 100].
            span(2, Some(1), "generate", 10, 50),
            span(3, Some(1), "select", 40, 60),
            span(4, Some(1), "recommend", 90, 130),
            // A grandchild only reduces its own parent's self time.
            span(5, Some(2), "scan", 10, 30),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["step"].total_ns, 100);
        assert_eq!(t["step"].self_ns, 100 - 50 - 10);
        assert_eq!(t["generate"].self_ns, 40 - 20);
        assert_eq!(t["scan"].self_ns, 20);
        assert_eq!(t["recommend"].total_ns, 40);
    }

    #[test]
    fn children_laid_end_to_end_leave_the_residual() {
        let spans = vec![
            span(1, None, "step", 1_000, 2_000),
            span(2, Some(1), "a", 1_000, 1_300),
            span(3, Some(1), "b", 1_300, 1_900),
        ];
        assert_eq!(totals_by_name(&spans)["step"].self_ns, 100);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false, Instant::now(), 0);
        assert_eq!(log.record(0, 0, None, "x", 0, 1, false, Vec::new()), 0);
        assert!(log.into_spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut s = span(7, Some(3), "step", 5, 9);
        s.counters = vec![("candidates", 4)];
        let text = to_jsonl("explore_ud", &[s, span(8, None, "data.finish", 0, 1)]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"trace_id\":\"explore_ud/0/0\""));
        assert!(lines[0].contains("\"parent_id\":3"));
        assert!(lines[0].contains("\"counters\":{\"candidates\":4}"));
        assert!(lines[1].contains("\"parent_id\":null"));
    }
}
