//! Measurement helpers: nearest-rank percentiles and the rule for the
//! highest percentile a sample supports, benchmark-side trace spans with
//! self-time accounting, and process memory.

use std::time::Instant;

/// Nearest-rank percentile `q` (in `(0, 1]`) of an ascending sample, as
/// the load harness computes it.
pub use yesquel_bench::load::percentile;

/// Samples strictly beyond the nearest-rank percentile `q` of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// The highest percentile of a fixed ladder that keeps at least ten
/// samples beyond it; `None` when not even the median does.
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| n > 0 && beyond(n, q) >= 10)
}

/// Median of a float sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// One benchmark-side span: an interval on the process clock, linked to
/// the span that caused it.  Spans of one operation share `op_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub op_id: u64,
    pub span_id: u64,
    pub parent_id: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder of one client thread; spans stay in memory until the
/// benchmark writes them out.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, id_base: u64) -> Tracer {
        Tracer {
            epoch,
            next_id: id_base,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Allocates a span id (used for operation ids too).
    pub fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Runs `f` inside a span named `name` under `parent`, returning its
    /// result and the new span's id.
    pub fn span<T>(
        &mut self,
        op_id: u64,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce(&mut Tracer, u64) -> T,
    ) -> T {
        let span_id = self.id();
        let start_ns = self.now_ns();
        let out = f(self, span_id);
        let end_ns = self.now_ns();
        self.spans.push(Span {
            op_id,
            span_id,
            parent_id: parent,
            name,
            start_ns,
            end_ns,
        });
        out
    }
}

/// Self time of `span`: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once).
pub fn self_time_ns(span: &Span, spans: &[Span]) -> u64 {
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent_id == Some(span.span_id) && s.op_id == span.op_id)
        .map(|s| {
            (
                s.start_ns.clamp(span.start_ns, span.end_ns),
                s.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in kids {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    span.dur_ns() - covered
}

/// Writes spans as JSON lines.
pub fn render_spans(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent_id.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"op_id\":{},\"span_id\":{},\"parent_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.op_id, s.span_id, parent, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Resets the kernel's peak-RSS mark to the current RSS, so the next
/// [`peak_rss_mb`] covers only what follows.  Returns false where the
/// kernel does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_supported_percentile_keeps_ten_beyond() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None);
        // 20 samples: the median is the 10th, so ten lie beyond it.
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(99), Some(0.5));
        // 100 samples: p90 leaves exactly ten beyond, p99 only one.
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(100_000), Some(0.9999));
        for n in 1..3000 {
            if let Some(q) = highest_supported(n) {
                assert!(beyond(n, q) >= 10, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    fn sp(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            op_id: 1,
            span_id: id,
            parent_id: parent,
            name: "x",
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        // Root 0..100 with children 10..30 and 20..50 (overlapping: 40 ns
        // covered) and 60..70; a grandchild inside the first child does
        // not count against the root.
        let spans = vec![
            sp(1, None, 0, 100),
            sp(2, Some(1), 10, 30),
            sp(3, Some(1), 20, 50),
            sp(4, Some(1), 60, 70),
            sp(5, Some(2), 12, 28),
        ];
        assert_eq!(self_time_ns(&spans[0], &spans), 50);
        assert_eq!(self_time_ns(&spans[1], &spans), 4);
        assert_eq!(self_time_ns(&spans[3], &spans), 10);
        // A child poking out of its parent is clipped to the parent.
        let spans = vec![sp(1, None, 0, 10), sp(2, Some(1), 5, 30)];
        assert_eq!(self_time_ns(&spans[0], &spans), 5);
    }

    #[test]
    fn tracer_nests_spans() {
        let mut t = Tracer::new(Instant::now(), 0);
        let op = t.id();
        t.span(op, None, "outer", |t, outer| {
            t.span(op, Some(outer), "inner", |_, _| std::hint::black_box(3))
        });
        assert_eq!(t.spans.len(), 2);
        let inner = &t.spans[0];
        let outer = &t.spans[1];
        assert_eq!(inner.parent_id, Some(outer.span_id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(
            self_time_ns(outer, &t.spans),
            outer.dur_ns() - inner.dur_ns()
        );
        assert!(render_spans(&t.spans).contains("\"name\":\"inner\""));
    }
}
