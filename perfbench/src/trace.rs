//! In-memory spans recorded around calls into the tab-bench crates.
//!
//! Spans live only in this benchmark: each one wraps a call the
//! benchmark makes into a crate's public function, so nothing inside
//! the program is instrumented. A span has a name, start and end
//! (microseconds since the tracer was created), the span that caused it,
//! and a request id shared by every span of one request. Spans are kept
//! in memory and written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// Span recorder. A disabled tracer records nothing and costs one
/// branch per call site.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Identifies an open span: pass it as the parent of nested spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ctx {
    pub span: u64,
    pub req: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh request id, so that the spans of one request can be
    /// grouped.
    pub fn request(&self) -> u64 {
        if self.enabled {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Run `f` inside a span named `name`, child of `parent`. The span
    /// gets its own id, handed to `f` for nested spans.
    pub fn span<R>(&self, name: &'static str, parent: Ctx, f: impl FnOnce(Ctx) -> R) -> R {
        if !self.enabled {
            return f(parent);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Ctx {
            span: id,
            req: parent.req,
        });
        let end = Instant::now();
        self.push(Span {
            id,
            parent: parent.span,
            req: parent.req,
            name,
            start_us: (start - self.t0).as_secs_f64() * 1e6,
            end_us: (end - self.t0).as_secs_f64() * 1e6,
        });
        out
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .push(span);
    }

    /// Every recorded span, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .clone()
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Summed duration in seconds of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.id, s.parent, s.req, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}
