//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a
//! library layer: name, start, end, parent span, stream and frame. Spans
//! stay in memory while the workload runs and are written out as a
//! Chrome trace-event file when it ends. A layer's self time is its span
//! minus the part of it that its child spans cover.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub stream: usize,
    pub frame: usize,
}

/// The span store shared by every thread of a traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// A run's tracer: `None` when tracing is off, so untraced runs record
/// nothing.
pub type Trace = Option<Arc<Tracer>>;

/// Opens a span on `trace` (a no-op returning `None` when tracing is off).
pub fn open(
    trace: &Trace,
    name: &'static str,
    parent: Option<usize>,
    stream: usize,
    frame: usize,
) -> Option<usize> {
    trace.as_ref().map(|t| t.open(name, parent, stream, frame))
}

/// Closes a span opened by [`open`].
pub fn close(trace: &Trace, id: Option<usize>) {
    if let (Some(t), Some(id)) = (trace, id) {
        t.close(id);
    }
}

impl Tracer {
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(capacity)),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking frame")
    }

    pub fn open(
        &self,
        name: &'static str,
        parent: Option<usize>,
        stream: usize,
        frame: usize,
    ) -> usize {
        let now = Instant::now();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            stream,
            frame,
        });
        spans.len() - 1
    }

    pub fn close(&self, id: usize) {
        let now = Instant::now();
        if let Some(s) = self.lock().get_mut(id) {
            s.end = now;
        }
    }

    /// Forgets every span recorded so far (set-up and warm-up frames).
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Writes the spans as a Chrome trace-event file.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (id, s) in spans.iter().enumerate() {
            let ts = s.start.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
            let dur = s.end.saturating_duration_since(s.start).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts:.3},\"dur\":{dur:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"stream\":{},\"frame\":{}}}}}{}",
                s.name,
                s.stream,
                s.stream,
                s.frame,
                if id + 1 < spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Per-name totals over a span list: wall time and self time, ms.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
}

/// Sums wall and self time per span name. Self time is a span's duration
/// minus the union of its children's intervals clipped to it.
pub fn layer_times(spans: &[Span]) -> HashMap<&'static str, LayerTime> {
    let mut children: HashMap<usize, Vec<(Instant, Instant)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out: HashMap<&'static str, LayerTime> = HashMap::new();
    for (id, s) in spans.iter().enumerate() {
        let total = super::measure::ms(s.start, s.end);
        let mut covered = 0.0;
        if let Some(kids) = children.get_mut(&id) {
            kids.sort_by_key(|k| k.0);
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end);
                if b > a {
                    covered += super::measure::ms(a, b);
                    cursor = b;
                }
            }
        }
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ms += total;
        e.self_ms += total - covered;
    }
    out
}
