//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each call into a layer's
//! public functions: name, start, end, parent span and request id. With
//! tracing off, [`span`] costs one thread-local flag read. The spans stay in
//! memory until the run ends, when [`take`] hands them over for analysis and
//! [`write_jsonl`] writes them out.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `rocket.run`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span served (0 = set-up, outside any request).
    pub request: u64,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// The layer: the name up to its first dot.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        request: 0,
    });
}

/// Turns recording on or off (spans already recorded are kept).
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// True while spans are being recorded.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

fn ns_since_epoch(tracer: &Tracer, at: Instant) -> u64 {
    at.saturating_duration_since(tracer.epoch).as_nanos() as u64
}

fn open(name: &'static str) -> usize {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let start_ns = ns_since_epoch(&t, Instant::now());
        let span = Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: t.open.last().copied(),
            request: t.request,
        };
        t.spans.push(span);
        let index = t.spans.len() - 1;
        t.open.push(index);
        index
    })
}

fn close(index: usize) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let end_ns = ns_since_epoch(&t, Instant::now());
        t.spans[index].end_ns = end_ns;
        let popped = t.open.pop();
        debug_assert_eq!(popped, Some(index), "spans close in LIFO order");
    });
}

/// Runs `f` inside a span named `name` (when tracing is on).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let index = open(name);
    let out = f();
    close(index);
    out
}

/// Runs `f` as request `id`: every span it opens carries the id, under a
/// root `framework.request` span.
pub fn request<T>(id: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let previous = TRACER.with(|t| std::mem::replace(&mut t.borrow_mut().request, id));
    let out = span("framework.request", f);
    TRACER.with(|t| t.borrow_mut().request = previous);
    out
}

/// Records an already-finished span under the innermost open one — used
/// for work a layer reports only through a callback (one fault replay
/// between two progress reports).
pub fn record(name: &'static str, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let span = Span {
            name,
            start_ns: ns_since_epoch(&t, start),
            end_ns: ns_since_epoch(&t, end),
            parent: t.open.last().copied(),
            request: t.request,
        };
        t.spans.push(span);
    });
}

/// Removes and returns every recorded span.
#[must_use]
pub fn take() -> Vec<Span> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        assert!(t.open.is_empty(), "take() called with spans still open");
        std::mem::take(&mut t.spans)
    })
}

/// Per-layer totals derived from a span list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTimes {
    /// Summed duration per span name, seconds.
    pub by_name: BTreeMap<&'static str, f64>,
    /// Self time per layer, seconds: each span's duration minus the part
    /// its direct children cover, summed over the layer's spans.
    pub self_by_layer: BTreeMap<&'static str, f64>,
}

impl LayerTimes {
    /// Summed duration of the spans named `name`.
    #[must_use]
    pub fn total(&self, name: &str) -> f64 {
        self.by_name.get(name).copied().unwrap_or(0.0)
    }

    /// Self time of `layer`.
    #[must_use]
    pub fn self_time(&self, layer: &str) -> f64 {
        self.self_by_layer.get(layer).copied().unwrap_or(0.0)
    }
}

/// Derives per-name totals and per-layer self times.
#[must_use]
pub fn layer_times(spans: &[Span]) -> LayerTimes {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.end_ns - span.start_ns;
        }
    }
    let mut times = LayerTimes::default();
    for (span, children) in spans.iter().zip(child_ns) {
        let duration = span.end_ns - span.start_ns;
        *times.by_name.entry(span.name).or_default() += duration as f64 * 1e-9;
        *times.self_by_layer.entry(span.layer()).or_default() +=
            duration.saturating_sub(children) as f64 * 1e-9;
    }
    times
}

/// Writes the spans as JSON lines.
///
/// # Errors
///
/// Propagates file-creation and write failures.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (index, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            span.name, span.start_ns, span.end_ns, span.request
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span {
                name: "framework.request",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                request: 1,
            },
            Span {
                name: "asm.build_guest",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                request: 1,
            },
            Span {
                name: "rocket.run",
                start_ns: 40,
                end_ns: 90,
                parent: Some(0),
                request: 1,
            },
        ];
        let times = layer_times(&spans);
        assert!((times.self_time("framework") - 20e-9).abs() < 1e-15);
        assert!((times.total("rocket.run") - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        set_enabled(false);
        let value = span("rocket.run", || 7);
        assert_eq!(value, 7);
        assert!(take().is_empty());
    }

    #[test]
    fn spans_nest_under_requests() {
        set_enabled(true);
        request(5, || span("oracle.verify", || ()));
        set_enabled(false);
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 5));
    }
}
