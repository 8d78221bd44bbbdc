//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark around its calls into the engine
//! and the server, kept in memory, and written as JSON lines when the run
//! ends. A span's numeric attributes carry the work the engine reported
//! for it (phase walls, work counts), so each layer's self time can be
//! closed against its parent span.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }

    pub fn attr(&self, key: &str) -> f64 {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Collects spans of one run. A parent's id can be taken with
/// [`Recorder::next_id`] before its children are recorded.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    next: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            next: 1,
            spans: Vec::new(),
        }
    }

    pub fn next_id(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span that ran from `start` to `end`; returns its id.
    pub fn record(
        &mut self,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        attrs: Vec<(&'static str, f64)>,
    ) -> u64 {
        let id = self.next_id();
        self.record_as(id, parent, name, start, end, attrs);
        id
    }

    /// Records a span under an id taken earlier with [`Recorder::next_id`],
    /// for a span whose children were recorded before it ended.
    pub fn record_as(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        attrs: Vec<(&'static str, f64)>,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            attrs,
        });
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Writes every span as one JSON line, ordered by start time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = String::with_capacity(spans.len() * 96);
        for s in spans {
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            );
            if !s.attrs.is_empty() {
                out.push_str(",\"attrs\":{");
                for (i, (k, v)) in s.attrs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{k}\":{v}");
                }
                out.push('}');
            }
            out.push_str("}\n");
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}
