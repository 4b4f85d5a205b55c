//! Spans the benchmark records around each public call it makes.
//!
//! Spans are only kept in the traced build (`--features metrics`); in the
//! untraced build every method is a cheap no-op apart from the operation
//! counter. Spans stay in memory until [`Tracer::write`] dumps them as JSON
//! lines at exit.

use std::io::Write;
use std::time::Instant;

/// Whether this build records spans.
pub const ON: bool = cfg!(feature = "metrics");

/// Keep one per-arrival send span in this many; every send still feeds
/// the send-latency percentiles. Millions of arrivals would otherwise
/// hold hundreds of MB of spans.
const SEND_SPAN_SAMPLE: u64 = 64;

/// Handle of an open span; `0` when spans are off.
pub type SpanId = u32;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    op: u64,
}

/// Span recorder and operation-id source for one benchmark process.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    next_op: u64,
    send_nanos: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
            send_nanos: Vec::new(),
        }
    }
}

impl Tracer {
    /// A fresh operation id; ids count every operation the pass attempts.
    pub fn next_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !ON {
            return 0;
        }
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        let id = self.spans.len() as SpanId;
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) {
        if !ON {
            return;
        }
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id as usize - 1].end_ns = self.ns(Instant::now());
    }

    /// Records one producer-side send that ran from `start` to `end`.
    pub fn send(&mut self, op: u64, start: Instant, end: Instant) {
        if !ON {
            return;
        }
        let nanos = end.duration_since(start).as_nanos();
        self.send_nanos
            .push(u32::try_from(nanos).unwrap_or(u32::MAX));
        if op.is_multiple_of(SEND_SPAN_SAMPLE) {
            let parent = self.open.last().copied().unwrap_or(0);
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name: "serve.send",
                start_ns,
                end_ns,
                parent,
                op,
            });
        }
    }

    /// Durations in milliseconds of every closed span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-6)
            .collect()
    }

    /// Every send duration in nanoseconds, ascending.
    pub fn sorted_send_nanos(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.send_nanos.iter().map(|&n| u64::from(n)).collect();
        v.sort_unstable();
        v
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.op
            )?;
        }
        out.flush()
    }
}
