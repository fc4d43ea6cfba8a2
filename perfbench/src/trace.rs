//! The benchmark's own spans, recorded around each public call it makes
//! into the library crates (`--trace 1` only). Spans stay in memory until
//! the run ends; per-layer metrics are computed from them, and they are
//! written out as JSON lines.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// The operation (multiply pair, request or campaign call) it belongs to.
    pub op: u64,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// In-memory span store, shared by every thread of the run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves an id, so a parent can be named by its children before
    /// the parent itself ends and is recorded.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span.
    pub fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            name,
            op,
            start,
            end,
        };
        self.spans
            .lock()
            .expect("no thread panics while holding the span store")
            .push(span);
    }

    /// Runs `f` under a new child span of `parent` and returns its value.
    pub fn time<R>(
        &self,
        parent: Option<u64>,
        name: &'static str,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(self.next_id(), parent, name, op, start, Instant::now());
        out
    }

    /// Every recorded span, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics while holding the span store")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Per span called `parent_name`: the summed duration of its direct
    /// children over its own duration.
    pub fn child_shares(&self, parent_name: &str) -> Vec<f64> {
        let spans = self.spans();
        let mut child_ms: HashMap<u64, f64> = HashMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_ms.entry(p).or_default() += s.ms();
            }
        }
        spans
            .iter()
            .filter(|s| s.name == parent_name)
            .map(|s| child_ms.get(&s.id).copied().unwrap_or(0.0) / s.ms())
            .collect()
    }

    /// Writes one JSON object per span (times in µs since the tracer was
    /// created), preceded by a header line carrying `header`.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in self.spans() {
            let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"op\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id,
                parent,
                s.name,
                s.op,
                us(s.start),
                us(s.end)
            )?;
        }
        out.flush()
    }
}
