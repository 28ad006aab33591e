//! In-memory spans, self-time arithmetic, and the "where a request's time
//! goes" table.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. Spans of one request share `request`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub request: String,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans in memory; nothing is written until the run ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: &str) -> usize {
        let start_ns = self.now_ns();
        self.push(Span {
            name,
            parent,
            request: request.to_string(),
            start_ns,
            end_ns: start_ns,
        })
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Adds a finished span (for intervals measured elsewhere).
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// the union of its children's intervals covers.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let ps = &spans[p];
            let (a, b) = (s.start_ns.max(ps.start_ns), s.end_ns.min(ps.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, iv)| {
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in iv.iter() {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// One row of the breakdown: every span of one name.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: &'static str,
    pub depth: usize,
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregates spans by name, in order of first appearance, with the depth
/// of the first span of each name.
pub fn breakdown(spans: &[Span]) -> Vec<Row> {
    let selfs = self_times(spans);
    let mut rows: Vec<Row> = Vec::new();
    for (s, &st) in spans.iter().zip(&selfs) {
        let row = match rows.iter_mut().position(|r| r.name == s.name) {
            Some(k) => &mut rows[k],
            None => {
                let mut depth = 0;
                let mut p = s.parent;
                while let Some(q) = p {
                    depth += 1;
                    p = spans[q].parent;
                }
                rows.push(Row {
                    name: s.name,
                    depth,
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
                rows.last_mut().expect("just pushed")
            }
        };
        row.count += 1;
        row.total_ns += s.dur_ns();
        row.self_ns += st;
    }
    rows
}

/// Renders a breakdown as a table; shares are of the root spans' total.
pub fn render(title: &str, rows: &[Row]) -> String {
    let root_ns: u64 = rows
        .iter()
        .filter(|r| r.depth == 0)
        .map(|r| r.total_ns)
        .sum();
    let mut out = format!(
        "{title}\n  {:<28} {:>8} {:>12} {:>12} {:>7}\n",
        "span", "count", "mean_us", "self_us", "self%"
    );
    for r in rows {
        let name = format!("{}{}", "  ".repeat(r.depth), r.name);
        writeln!(
            out,
            "  {:<28} {:>8} {:>12.2} {:>12.2} {:>6.1}%",
            name,
            r.count,
            r.total_ns as f64 / 1e3 / r.count as f64,
            r.self_ns as f64 / 1e3 / r.count as f64,
            100.0 * r.self_ns as f64 / root_ns.max(1) as f64
        )
        .expect("writing to a String cannot fail");
    }
    out
}

/// Spans as JSON lines, each with its self time.
pub fn to_jsonl(source: &str, spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for (k, (s, st)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"source\":\"{source}\",\"id\":{k},\"parent\":{parent},\"name\":\"{}\",\"request\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{st}}}",
            s.name, s.request, s.start_ns, s.end_ns
        )
        .expect("writing to a String cannot fail");
    }
    out
}
