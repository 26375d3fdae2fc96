//! In-memory phase spans, written out once at exit. Spans are recorded
//! from the benchmark's own files around the calls into each layer;
//! per-event work is aggregated per class (see `layers`), never one span
//! per event.

use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span named `name`, nested under whichever span is open.
    /// Returns its index for [`Trace::leave`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close the span `enter` returned `id` for.
    pub fn leave(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.leave(id);
        out
    }

    /// Seconds spent in spans named `name` from span index `from` on.
    pub fn seconds(&self, name: &str, from: usize) -> f64 {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .fold(0.0, |total, s| total + s)
    }
}
