//! Spans around the calls into each layer, recorded by the harness only
//! (the product carries no instrumentation), kept in memory and written
//! out when the run ends.
//!
//! A span has a name, a start, an end, the span that caused it and the id
//! of the request it belongs to. Within one replay spans nest on a stack;
//! across the three replay depths of the ladder (see `ladder.rs`) they are
//! matched by request id, because the same tape issues the same request
//! at every depth.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.what`, e.g. `server.handle`.
    pub name: &'static str,
    /// Start.
    pub start_ns: u64,
    /// End (`0` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this work belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.open.push(id);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            request,
        });
        SpanId(id)
    }

    /// Closes a span and returns its duration in milliseconds. Spans close
    /// innermost first; anything else is a bug in the harness.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let end_ns = self.now();
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0].end_ns = end_ns;
        self.spans[id.0].duration_ns() as f64 / 1e6
    }

    /// Times `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.begin(name, request);
        let out = f();
        (out, self.end(id))
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renames the span most recently closed or opened with `id` — used
    /// when the name depends on the outcome (`get_sample` learns only
    /// afterwards whether it was a Find, a Combine or a Create).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        self.spans[id.0].name = name;
    }

    /// Durations (ms) per span name, in recording order.
    pub fn durations_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            out.entry(s.name)
                .or_default()
                .push(s.duration_ns() as f64 / 1e6);
        }
        out
    }

    /// Total duration (ms) per `(request, think?, span name)`, where
    /// `think?` says whether the span's outermost ancestor is think-time
    /// work (its name ends in `think`) rather than the request itself.
    pub fn by_request_ms(&self) -> BTreeMap<(u64, bool, &'static str), f64> {
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut top = i;
            while let Some(p) = self.spans[top].parent {
                top = p;
            }
            let think = self.spans[top].name.ends_with("think");
            *out.entry((s.request, think, s.name)).or_insert(0.0) += s.duration_ns() as f64 / 1e6;
        }
        out
    }

    /// The span list as a JSON array (name, start, end, parent, request,
    /// and the span's self time within this replay).
    pub fn to_json(&self) -> String {
        let self_ns = self_times_ns(&self.spans);
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent},\"request\":{}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                self_ns[i],
                s.request,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children of one span never overlap (they nest on a
/// stack), so the cover is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.duration_ns());
        }
    }
    out
}

/// Self time across ladder depths: what a layer's span at one depth took
/// beyond the spans of the depth below, for the same request. Never
/// negative — the two depths are separate executions, and on a cheap
/// request noise can make the lower depth read longer.
pub fn ladder_self_ms(upper_ms: f64, lower_ms: f64) -> f64 {
    (upper_ms - lower_ms).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span("request", 0, 100, None),
            span("server.parse", 5, 15, Some(0)),
            span("server.handle", 20, 90, Some(0)),
            span("explorer.expand", 25, 85, Some(2)),
            span("server.serialize", 91, 99, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), [12, 10, 10, 60, 8]);
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 100, "self times of a tree sum to its root");
    }

    #[test]
    fn ladder_self_time_clamps_at_zero() {
        assert_eq!(ladder_self_ms(5.0, 3.5), 1.5);
        assert_eq!(ladder_self_ms(1.0, 1.25), 0.0);
    }

    #[test]
    fn tracer_nests_and_serializes() {
        let mut t = Tracer::new();
        let outer = t.begin("request", 7);
        let ((), inner_ms) = t.span("server.handle", 7, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        let outer_ms = t.end(outer);
        assert!(outer_ms >= inner_ms);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].request, 7);
        assert_eq!(t.durations_ms()["server.handle"].len(), 1);
        assert!(t.by_request_ms().contains_key(&(7, false, "request")));
        assert!(t.by_request_ms().contains_key(&(7, false, "server.handle")));
        t.span("server.think", 7, || ());
        assert!(t.by_request_ms().contains_key(&(7, true, "server.think")));
        let json = t.to_json();
        assert!(sdd_server::Json::parse(&json).is_ok(), "{json}");
    }
}
