//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions (nothing inside the program is
//! instrumented), kept in a pre-sized vector, and written out as JSON
//! when the run ends. A disabled tracer only calls the closure, so the
//! same pass code runs traced and untraced.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span: a run of consecutive calls into one layer
/// function, its interval relative to the tracer's origin, and the span
/// that was open when it started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Layer calls inside the span (`0` for a span around a pass).
    pub calls: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder. `enabled == false` makes [`Tracer::span`] a plain call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { 1 << 18 } else { 0 }),
            open: Vec::with_capacity(16),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f`, one layer call, inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_calls(name, 1, f)
    }

    /// Runs `f`, which makes `calls` calls into one layer function,
    /// inside a span named `name`. Empty runs record nothing.
    pub fn span_calls<R>(&mut self, name: &'static str, calls: usize, f: impl FnOnce() -> R) -> R {
        if !self.enabled || calls == 0 {
            return f();
        }
        self.open_calls(name, calls as u32);
        let out = f();
        self.close();
        out
    }

    /// Opens a span around a pass that [`Tracer::close`] ends (for
    /// bodies that record spans of their own).
    pub fn open(&mut self, name: &'static str) {
        self.open_calls(name, 0);
    }

    fn open_calls(&mut self, name: &'static str, calls: u32) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            calls,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
    }

    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("close without open");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Total nanoseconds and layer calls of the spans named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.ns(), n + u64::from(s.calls)))
    }

    /// Drops every recorded span (between repeated traced passes).
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "clear with open spans");
        self.spans.clear();
        self.origin = Instant::now();
    }

    /// The spans as a JSON array of `{id, name, calls, parent, start_ns,
    /// end_ns}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 64 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"calls\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.calls, s.start_ns, s.end_ns
            );
        }
        out.push(']');
        out
    }
}
