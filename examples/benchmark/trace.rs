//! Spans recorded by the benchmark's own code around its calls into the
//! crates: kept in preallocated memory while the run lasts, written as
//! JSONL when it ends. (Spans *inside* the crates are ROADMAP item 1.)

use std::io::Write;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same buffer.
    pub parent: Option<u32>,
    /// `client:sequence` of the request the span belongs to.
    pub request: Option<(u32, u32)>,
}

/// One recorder's spans. Each client thread owns its own buffer, so
/// recording never synchronises; buffers are told apart by `id`.
#[derive(Debug)]
pub struct SpanBuf {
    id: u32,
    on: bool,
    spans: Vec<Span>,
}

impl SpanBuf {
    /// A recording buffer with room for `capacity` spans.
    pub fn recording(id: u32, capacity: usize) -> SpanBuf {
        SpanBuf {
            id,
            on: true,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// A buffer that drops everything (untraced repetitions).
    pub fn off() -> SpanBuf {
        SpanBuf {
            id: 0,
            on: false,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn push(&mut self, span: Span) -> Option<u32> {
        if !self.on {
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() as u32 - 1)
    }

    /// Run `f` as a span named `name` under `parent`.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = now_ns();
        let out = f();
        self.push(Span {
            name,
            start_ns,
            end_ns: now_ns(),
            parent,
            request: None,
        });
        out
    }

    /// Open a parent span whose end is filled in by [`SpanBuf::close`].
    pub fn open(&mut self, name: &'static str, request: Option<(u32, u32)>) -> Option<u32> {
        let start_ns = now_ns();
        self.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: None,
            request,
        })
    }

    pub fn close(&mut self, span: Option<u32>) {
        self.close_at(span, now_ns());
    }

    pub fn close_at(&mut self, span: Option<u32>, end_ns: u64) {
        if let Some(i) = span {
            self.spans[i as usize].end_ns = end_ns;
        }
    }

    /// Lay `parts` end to end as children of `parent`, from its start —
    /// how a query's owner/server/announcer time, known only as totals
    /// from its `QueryStats`, becomes child spans.
    pub fn synthesise(&mut self, parent: Option<u32>, parts: &[(&'static str, Duration)]) {
        let Some(p) = parent else { return };
        let (mut at, request) = {
            let s = &self.spans[p as usize];
            (s.start_ns, s.request)
        };
        for &(name, d) in parts {
            let end = at + d.as_nanos() as u64;
            self.push(Span {
                name,
                start_ns: at,
                end_ns: end,
                parent,
                request,
            });
            at = end;
        }
    }

    /// Total duration of the spans called `name`.
    pub fn total(&self, name: &str) -> Duration {
        Duration::from_nanos(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.end_ns - s.start_ns)
                .sum(),
        )
    }
}

/// Write every buffer's spans as one JSON object per line.
pub fn write_jsonl(
    path: &std::path::Path,
    workload: &str,
    bufs: &[SpanBuf],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for buf in bufs {
        for (i, s) in buf.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or("null".to_string(), |p| format!("\"{}:{p}\"", buf.id));
            let request = s
                .request
                .map_or("null".to_string(), |(c, q)| format!("\"{c}:{q}\""));
            writeln!(
                out,
                "{{\"id\":\"{}:{i}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"request_id\":{request},\"workload\":\"{workload}\"}}",
                buf.id, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}
