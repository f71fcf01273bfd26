//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each client call
//! and each layer entry call; nothing inside the program under test is
//! instrumented. Spans stay in memory until the run ends and are then
//! written out as one tab-separated file.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (1-based; 0 means "no parent").
    pub id: u64,
    /// The enclosing span's id, or 0.
    pub parent: u64,
    /// Layer-qualified name, e.g. `durable.apply_batch`.
    pub name: &'static str,
    /// Request id shared by the spans of one batch or query.
    pub request: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns - self.start_ns)
    }
}

/// Collects spans from any thread.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Allocates a span id before the span ends, so children can name it
    /// as their parent.
    pub fn open(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span with a pre-allocated id.
    pub fn close(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            request,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
        };
        self.spans
            .lock()
            .expect("span list lock never poisoned")
            .push(span);
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        parent: u64,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.open();
        self.close(id, parent, name, request, start, end);
        id
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(
        &self,
        parent: u64,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(parent, name, request, start, Instant::now());
        out
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list lock never poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64() * 1e3)
            .collect()
    }

    /// Total duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum::<f64>() / 1e3
    }

    /// Number of spans recorded so far.
    pub(crate) fn len(&self) -> usize {
        self.spans
            .lock()
            .expect("span list lock never poisoned")
            .len()
    }

    /// Writes every span as `id parent name request start_ns end_ns`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list lock never poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\trequest\tstart_ns\tend_ns")?;
        for s in spans.iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
