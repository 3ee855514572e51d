//! In-memory spans recorded around calls into each layer's public
//! functions, and the per-layer self-time fold over them.
//!
//! A span carries its name, start and end (nanoseconds since the
//! tracer was created), the index of the span that caused it, and the
//! request id shared by every span of one job or request. Spans stay
//! in memory until the run ends; [`Tracer::dump`] writes them out as
//! TSV. A disabled tracer runs the wrapped calls and records nothing,
//! so the same replay code yields both the traced and the untraced
//! timing the overhead is stated against.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified call name, e.g. `core.calibrate`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Job index or request id the span belongs to (the tick, for a
    /// gateway tick that serves many requests).
    pub request: u64,
}

/// Calls and time attributed to one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans of this name.
    pub calls: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed durations minus the time their child spans cover, ns.
    pub self_ns: u64,
}

impl SelfTime {
    /// Mean self time per call in µs; 0 without calls.
    #[must_use]
    pub fn us_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / 1e3 / self.calls as f64
        }
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for `request`. Spans opened
    /// inside `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        out
    }

    /// The recorded spans, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Folds the recorded spans into per-name self times and adds them
    /// to `into`.
    pub fn fold_self_times(&self, into: &mut BTreeMap<&'static str, SelfTime>) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = into.entry(span.name).or_default();
            entry.calls += 1;
            entry.total_ns += total;
            entry.self_ns += total.saturating_sub(children);
        }
    }

    /// Drops the recorded spans (the origin is kept).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.open.clear();
    }

    /// Writes the spans as TSV: `id parent request name start_ns end_ns`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let mut times = BTreeMap::new();
        t.fold_self_times(&mut times);
        let outer = times["outer"];
        let inner = times["inner"];
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert!(inner.self_ns >= 2_000_000);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].request, 7);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, |_| 5), 5);
        assert!(t.spans().is_empty());
    }
}
