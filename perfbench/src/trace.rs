//! In-memory spans recorded around calls into each layer's public API.
//!
//! Only the benchmark records spans; the library is called exactly as an
//! untraced run calls it. Spans are kept in memory and written out as
//! JSON lines when the run ends. Each span carries its wall-clock extent,
//! for the timeline, and the CPU time the process spent inside it, which
//! the per-layer figures are computed from (see [`crate::clock`]). It is
//! the process clock, not the thread's, so a call that fans out to worker
//! threads (the writer's encoders, the tensor kernels) counts their work;
//! spans are therefore only opened while nothing else in the process is
//! busy.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::clock;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer function the span wraps, e.g. `core.compress`.
    pub name: &'static str,
    /// Operation the span belongs to (spans of one operation share it).
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the trace began.
    pub start_ns: u64,
    /// Nanoseconds since the trace began.
    pub end_ns: u64,
    /// CPU nanoseconds of the whole process inside the span; 0 for spans
    /// timed on another thread and recorded afterwards.
    pub cpu_ns: u64,
    /// Label that splits a layer's samples, e.g. the chop factor read.
    pub mode: u8,
}

impl Span {
    /// CPU time in milliseconds.
    pub fn cpu_ms(&self) -> f64 {
        self.cpu_ns as f64 / 1e6
    }
}

/// Span recorder.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Trace {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<usize>, mode: u8) -> usize {
        let start_ns = self.now_ns();
        // Holds the process CPU clock at the start until `end`.
        let cpu_ns = clock::process_ns();
        self.spans.push(Span { name, op, parent, start_ns, end_ns: start_ns, cpu_ns, mode });
        self.spans.len() - 1
    }

    /// Record a span timed elsewhere (on another thread), from `start`
    /// for `ms` milliseconds.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        mode: u8,
        start: Instant,
        ms: f64,
    ) {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = start_ns + (ms * 1e6) as u64;
        self.spans.push(Span { name, op, parent, start_ns, end_ns, cpu_ns: 0, mode });
    }

    /// Close span `id` and return its CPU time in milliseconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let cpu = clock::process_ns();
        let end_ns = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = end_ns;
        s.cpu_ns = cpu - s.cpu_ns;
        s.cpu_ms()
    }

    /// Record `f` as a span and return its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        mode: u8,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op, parent, mode);
        let out = f();
        self.end(id);
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True before the first span.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The modes of the spans named `name`, ascending.
    pub fn modes(&self, name: &str) -> Vec<u8> {
        let mut modes: Vec<u8> =
            self.spans.iter().filter(|s| s.name == name).map(|s| s.mode).collect();
        modes.sort_unstable();
        modes.dedup();
        modes
    }

    /// CPU times (ms) of the spans named `name` with mode `mode`.
    pub fn durations(&self, name: &str, mode: u8) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name && s.mode == mode).map(Span::cpu_ms).collect()
    }

    /// CPU times (ms) of every span named `name`, grouped by mode in
    /// ascending mode order.
    pub fn by_mode(&self, name: &str) -> Vec<Vec<f64>> {
        self.modes(name).into_iter().map(|m| self.durations(name, m)).collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"mode\":{},\"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{}}}",
                s.name, s.op, s.mode, s.start_ns, s.end_ns, s.cpu_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_group_by_mode() {
        let mut t = Trace::default();
        let parent = t.begin("op", 0, None, 0);
        t.time("child", 0, Some(parent), 2, || {
            let t0 = clock::thread_ns();
            while clock::thread_ns() - t0 < 30_000_000 {}
        });
        t.time("child", 0, Some(parent), 4, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end(parent);
        let child = t.by_mode("child");
        assert_eq!(child.len(), 2);
        // The sleeping span is the longer on the wall clock but the
        // shorter in CPU time, even with other tests busy on both cores.
        assert!(child[0][0] >= 30.0 && child[1][0] < child[0][0]);
        assert!(t.spans[2].end_ns - t.spans[2].start_ns >= 5_000_000);
        assert!(t.by_mode("op")[0][0] >= child[0][0] + child[1][0]);
        assert!(t.by_mode("none").is_empty());
    }
}
