//! The benchmark's own spans, wrapped around calls into each layer's
//! public functions. Nothing inside the program under test is traced.
//!
//! Spans live in memory and are written out as JSONL when the run ends.
//! A layer's self time is its spans' durations minus the time their child
//! spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Request (or round) the span belongs to.
    pub req: u64,
    /// Rows the call processed, where that is meaningful.
    pub rows: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off; untraced stretches let a traced run
    /// measure its own overhead on identical work.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f` inside a span named `name` of layer `layer`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        req: u64,
        rows: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            req,
            rows,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration and rows of every span called `name`, with a count.
    pub fn total(&self, name: &str) -> (u64, u64, u64) {
        self.total_where(name, |_| true)
    }

    /// Summed duration and rows of the spans called `name` whose row
    /// count satisfies `keep`.
    pub fn total_where(&self, name: &str, keep: impl Fn(u64) -> bool) -> (u64, u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(s.rows))
            .fold((0, 0, 0), |(d, r, n), s| {
                (d + s.dur_ns(), r + s.rows, n + 1)
            })
    }

    /// Self time per layer, in nanoseconds.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.layer).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        out
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"rows\":{}}}",
                s.name, s.layer, s.start_ns, s.end_ns, s.req, s.rows
            );
        }
        out
    }
}
