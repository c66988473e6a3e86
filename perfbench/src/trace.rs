//! In-memory spans recorded around calls into each layer's public
//! functions, and the self-time arithmetic over them.
//!
//! Spans live in per-thread vectors while the benchmark runs and are
//! written out once, after measurement ends. Nothing here reaches into
//! the program: every span brackets a public call made by the
//! benchmark itself.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. Spans of one client request share `request`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `net.call_query`.
    pub name: &'static str,
    /// The client request this span belongs to.
    pub request: u64,
    /// Name of the span that caused this one (`None` at the root).
    pub parent: Option<&'static str>,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Duration in microseconds.
    pub fn dur_us(&self) -> f64 {
        self.dur_ns() as f64 / 1e3
    }
}

/// A per-thread span buffer sharing one epoch with its siblings.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    /// Whether spans are kept (calls are timed either way).
    keep: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log timing against `epoch`, keeping spans if `keep`.
    pub fn new(epoch: Instant, keep: bool) -> SpanLog {
        SpanLog {
            epoch,
            keep,
            spans: Vec::new(),
        }
    }

    /// Runs `f` and returns its result with its duration in ns,
    /// keeping it as a span when the log keeps spans.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        if self.keep {
            self.spans.push(Span {
                name,
                request,
                parent,
                start_ns: start,
                end_ns: end,
            });
        }
        (out, end - start)
    }

    /// The kept spans, in recording order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of a span lasting `[start, end)` whose children cover the
/// given intervals: its duration minus the part of it that the union
/// of the children covers. Children may overlap one another (parallel
/// shard legs) and may stick out of the parent; only the covered part
/// inside the parent counts.
pub fn self_time_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    end.saturating_sub(start) - covered
}

/// Writes spans as JSON lines, one object per span.
///
/// # Errors
///
/// I/O failures creating or writing the file.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"request\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name,
            s.request,
            s.parent
                .map_or_else(|| "null".to_string(), |p| format!("\"{p}\"")),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_children_means_all_self() {
        assert_eq!(self_time_ns(10, 110, &[]), 100);
    }

    #[test]
    fn sequential_children_subtract_their_sum() {
        assert_eq!(
            self_time_ns(0, 100, &[(0, 20), (20, 50), (60, 70)]),
            100 - 60
        );
    }

    #[test]
    fn overlapping_children_count_once() {
        // Four parallel shard legs starting together: the longest one
        // sets the covered time, not their sum.
        let legs = [(10, 40), (10, 25), (10, 35), (10, 30)];
        assert_eq!(self_time_ns(0, 100, &legs), 100 - 30);
        // Staggered overlap: [10,40) ∪ [30,60) = 50 covered.
        assert_eq!(self_time_ns(0, 100, &[(30, 60), (10, 40)]), 50);
        // Nested child inside another child.
        assert_eq!(self_time_ns(0, 100, &[(10, 90), (20, 30)]), 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        assert_eq!(self_time_ns(50, 100, &[(0, 60), (90, 200)]), 50 - 20);
        // A child longer than its parent leaves no self time.
        assert_eq!(self_time_ns(0, 10, &[(0, 30)]), 0);
        assert_eq!(self_time_ns(0, 10, &[(20, 30)]), 10);
    }

    #[test]
    fn span_log_times_and_keeps_order() {
        let mut log = SpanLog::new(Instant::now(), true);
        let (v, _) = log.time("a", 1, None, || 7);
        let (_, ns) = log.time("b", 1, Some("a"), || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert_eq!(v, 7);
        assert!(ns >= 1_000_000);
        let spans = log.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some("a"));
        assert_eq!(spans[1].dur_ns(), ns);
        assert!(spans[0].end_ns <= spans[1].start_ns);
        let mut quiet = SpanLog::new(Instant::now(), false);
        assert_eq!(quiet.time("a", 1, None, || 3).0, 3);
        assert!(quiet.into_spans().is_empty());
    }
}
