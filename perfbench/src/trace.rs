//! In-memory spans recorded around calls into each layer, written out
//! when the run ends. A disabled tracer only runs the closure.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        result
    }

    /// Self time in seconds of every span named `name`: its duration
    /// minus the time its direct children cover.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .filter(|(span, _)| span.name == name)
            .map(|(span, children)| {
                (span.end_ns - span.start_ns).saturating_sub(children) as f64 / 1e9
            })
            .collect()
    }

    /// Summed self time in seconds of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.self_times(name).iter().sum()
    }

    /// Write every span as one JSON line (`name`, `start_ns`, `end_ns`,
    /// `parent` index or -1).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 64);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                span.name, span.start_ns, span.end_ns
            );
        }
        std::fs::write(path, text)
    }
}
