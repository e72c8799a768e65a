//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a layer's public API. A span holds a name, the layer (crate) it
//! times, start and end (seconds since the recorder was created), its
//! parent span and the request it belongs to (`None` for set-up).
//! Nothing is written until [`Tracer::write_jsonl`] runs at exit.
//!
//! A disabled recorder (the untraced run) records nothing: `begin`
//! returns `None` and `end(None)` is a no-op, so the untraced run pays
//! for one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start) * 1000.0
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: Option<u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: None,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Spans opened from now on belong to `request` (`None`: set-up).
    pub fn set_request(&mut self, request: Option<u64>) {
        self.request = request;
    }

    /// Opens a span nested in the innermost open span.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`begin`](Tracer::begin).
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end = self.origin.elapsed().as_secs_f64();
            if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
                self.open.truncate(pos);
            }
        }
    }

    /// Closes a span under a name known only once the call returned
    /// (a cache hit or miss).
    pub fn end_as(&mut self, id: Option<usize>, name: &'static str) {
        if let Some(i) = id {
            self.spans[i].name = name;
        }
        self.end(id);
    }

    /// Times `f` as a leaf span.
    pub fn leaf<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(layer, name);
        let out = f();
        self.end(id);
        out
    }

    /// Durations in ms of every closed span with this name.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end.is_finite())
            .map(Span::ms)
            .collect()
    }

    /// Self time per layer in ms over the spans of requests (set-up and
    /// off-path spans excluded): each span's duration minus the part its
    /// child spans cover, summed by layer.
    pub fn self_ms_by_request_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ms) {
            if s.request.is_none() {
                continue;
            }
            *out.entry(s.layer).or_insert(0.0) += (s.ms() - child).max(0.0);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"name\":\"{}\",\"layer\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"request\":{request}}}",
                s.name, s.layer, s.start, s.end
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}
