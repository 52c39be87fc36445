//! In-memory span recorder for the traced run.
//!
//! A span wraps one call the benchmark makes into a layer's public
//! function: layer, call name, start, end, parent span and op id. Spans
//! stay in memory and are written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    layer: &'static str,
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    /// Nanoseconds since the tracer's epoch.
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span nested under the innermost open span and
    /// returns its result with the span's duration in ms.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        let idx = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            layer,
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: self.ns(start),
            end_ns: 0,
        });
        self.open.push(idx);
        let r = f(self);
        let end = Instant::now();
        self.open.pop();
        self.spans[idx].end_ns = self.ns(end);
        (r, (end - start).as_secs_f64() * 1e3)
    }

    /// Records a span timed elsewhere (e.g. on a client thread), as a root.
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            layer,
            name,
            op,
            parent: None,
            start_ns,
            end_ns,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per layer: self time in ms (span minus its direct child spans) and
    /// span count.
    pub fn layer_self_times(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ms) {
            let e = out.entry(s.layer).or_insert((0.0, 0));
            e.0 += s.ms() - child;
            e.1 += 1;
        }
        out
    }

    /// Writes every span as one JSON line; returns the span count.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{i},\"layer\":\"{}\",\"name\":\"{}\",\"op\":{},\"parent\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.layer,
                s.name,
                s.op,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()?;
        Ok(self.spans.len())
    }
}
