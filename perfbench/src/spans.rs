//! In-memory span recording for the traced run.
//!
//! A [`Tracer`] records one [`Span`] per call the benchmark makes into a
//! layer's public function: name, start, end, the enclosing span and the
//! request ordinal (iteration, tick, batch or scenario) it served. Spans stay
//! in memory until the run ends; [`write_jsonl`] then writes them out and
//! [`self_time_ms`] derives each layer's self time from them.

use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
// lint:allow(no-wall-clock) spans time the benchmark's own calls into each layer
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `engine.push_batch`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recording.
    pub parent: Option<usize>,
    /// The ordinal of the batch, tick, iteration or scenario served.
    pub req: u64,
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans against a shared origin. Spans opened with
/// [`Tracer::enter`] nest: spans recorded before the matching
/// [`Tracer::exit`] take it as their parent.
#[derive(Debug)]
pub struct Tracer {
    // lint:allow(no-wall-clock) span timestamps count from this origin
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    // lint:allow(no-wall-clock) span timestamps count from this origin
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant timestamps count from.
    // lint:allow(no-wall-clock) span timestamps count from this origin
    pub fn origin(&self) -> Instant {
        self.origin
    }

    // lint:allow(no-wall-clock) converts a span stamp to nanoseconds
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span starting now; returns its index for [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, req: u64) -> usize {
        // lint:allow(no-wall-clock) span start stamp
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the span `id` opened by [`Tracer::enter`] now.
    pub fn exit(&mut self, id: usize) {
        // lint:allow(no-wall-clock) span end stamp
        self.spans[id].end_ns = self.ns(Instant::now());
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in reverse order of opening");
    }

    /// Records a closed span over `[start, end]` under the innermost open
    /// span.
    // lint:allow(no-wall-clock) span bounds
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            req,
        });
    }

    /// Times `f` as one span under the innermost open span.
    pub fn time<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        // lint:allow(no-wall-clock) span start stamp
        let start = Instant::now();
        let out = f();
        // lint:allow(no-wall-clock) span end stamp
        self.record(name, req, start, Instant::now());
        out
    }

    /// Appends the spans of a tracer that ran on another thread, with its
    /// top-level spans re-parented under `parent` of this recording. Both
    /// tracers must share the origin.
    pub fn adopt(&mut self, other: Tracer, parent: Option<usize>) {
        debug_assert_eq!(self.origin, other.origin);
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset).or(parent),
            ..s
        }));
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-span self time in milliseconds: the span's duration minus the part of
/// its interval covered by its children (overlapping children, such as a
/// producer thread's spans beside the consumer's, count once).
pub fn self_time_ms(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns - covered) as f64 / 1e6
        })
        .collect()
}

/// Writes one JSON object per span to `path`.
pub fn write_jsonl(spans: &[Span], path: &Path) -> io::Result<()> {
    let mut text = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            text,
            r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{},"req":{}}}"#,
            s.name, s.start_ns, s.end_ns, parent, s.req
        )
        .expect("writing to a String cannot fail");
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(text.as_bytes())?;
    file.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "engine.push_batch",
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = [
            span(0, 10_000_000, None),
            span(1_000_000, 4_000_000, Some(0)),
            span(3_000_000, 5_000_000, Some(0)),
            span(8_000_000, 12_000_000, Some(0)),
        ];
        let self_ms = self_time_ms(&spans);
        // Children cover [1, 5] and [8, 10] of the root's [0, 10] ms.
        assert!((self_ms[0] - 4.0).abs() < 1e-9);
        assert!((self_ms[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn adopted_spans_hang_under_the_given_parent() {
        // lint:allow(no-wall-clock) shared tracer origin
        let origin = Instant::now();
        let mut main = Tracer::new(origin);
        let root = main.enter("bench.iteration", 0);
        let mut side = Tracer::new(origin);
        let outer = side.enter("online.send_sessions", 0);
        side.time("online.watermark", 0, || ());
        side.exit(outer);
        main.adopt(side, Some(root));
        main.exit(root);
        let spans = main.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].layer(), "online");
    }
}
