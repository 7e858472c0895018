//! Spans recorded by the benchmark around its calls into the toolchain.
//!
//! A span is a name, a start and end on a clock shared by all threads of
//! a run, the span that encloses it and the operation it belongs to. A
//! disabled tracer records nothing and only calls through, which is how
//! end-to-end numbers are measured. Spans stay in memory until the run
//! ends and are then written out in one go.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::elapsed_ns;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name of the call, e.g. `cc.parse`.
    pub name: &'static str,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The operation (pass, program, request) the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer timing against `epoch`, switched off: it records nothing
    /// until [`Tracer::set_on`].
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            on: false,
            epoch,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off between operations.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "switched inside a span");
        self.on = on;
    }

    /// Tags the spans that follow with operation `op`.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`. `f` gets the tracer back so
    /// it can open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let start = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        self.open.pop();
        let span = &mut self.spans[idx];
        span.start_ns = start;
        span.end_ns = end;
        out
    }

    /// The spans recorded so far; a parent always precedes its children.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Moves `other`'s spans into this tracer (another thread's spans on
    /// the same epoch).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    fn now_ns(&self) -> u64 {
        elapsed_ns(self.epoch)
    }

    /// Each span's self time: its duration minus the time its direct
    /// children cover (children of one span never overlap, since a span
    /// and its children run on one thread).
    #[must_use]
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Per span name: call count and summed self time.
    #[must_use]
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times_ns()) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += own;
        }
        by_name
    }

    /// Mean self time of the spans named `name`, in microseconds; 0 when
    /// there is none.
    #[must_use]
    pub fn mean_self_us(&self, name: &str) -> f64 {
        self.self_time_by_name()
            .get(name)
            .map_or(0.0, |&(n, ns)| ns as f64 / n as f64 / 1e3)
    }

    /// The spans as tab-separated text: one header line, then one line
    /// per span with its index, operation, name, start, end, parent and
    /// self time.
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("idx\top\tname\tstart_ns\tend_ns\tparent\tself_ns\n");
        for (i, (s, own)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{parent}\t{own}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now());
        t.set_on(true);
        t.begin_op(7);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let own = t.self_times_ns();
        assert_eq!(t.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].op, 7);
        assert!(own[1] >= 2_000_000);
        assert_eq!(own[0], t.spans[0].dur_ns() - t.spans[1].dur_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        assert_eq!(t.span("x", |_| 5), 5);
        assert!(t.is_empty());
    }
}
