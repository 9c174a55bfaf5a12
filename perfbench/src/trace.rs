//! In-memory spans recorded around calls into the library's layers.
//!
//! A span has a name, a start, an end, the span that encloses it and the
//! workload it belongs to. Spans are kept in memory and written out once
//! the run ends. A layer's self time is its span's duration minus the part
//! of that interval its child spans cover.

use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub workload: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans when enabled; when disabled, [`Tracer::span`]
/// only runs its closure, so the same decomposition code measures the
/// cost of tracing by running once each way.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose span times count from `origin`, so tracers sharing
    /// an origin write spans on one timeline.
    pub fn new(enabled: bool, workload: &'static str, origin: Instant) -> Self {
        Tracer {
            enabled,
            workload,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            workload: self.workload,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Write spans as JSON lines (one span per line) to `path`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (index, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{index},\"name\":\"{}\",\"workload\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            span.name, span.workload, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            workload: "w",
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 35, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 10, 20, 40]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("c", 70, 75, Some(0)),
        ];
        // Children cover [10, 80): 70 of the root's 100 ns.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span("root", 20, 50, None), span("a", 10, 30, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn self_times_sum_to_the_root_duration() {
        let spans = vec![
            span("root", 0, 1_000, None),
            span("a", 100, 400, Some(0)),
            span("a.x", 150, 200, Some(1)),
            span("a.y", 250, 390, Some(1)),
            span("b", 500, 990, Some(0)),
        ];
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 1_000);
    }

    #[test]
    fn tracer_nests_spans_and_records_nothing_when_disabled() {
        let mut on = Tracer::new(true, "w", Instant::now());
        let value = on.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(value, 7);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false, "w", Instant::now());
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 7)), 7);
        assert!(off.spans().is_empty());
    }
}
