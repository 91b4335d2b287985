//! Harness-side spans: recorded in memory around the calls into each
//! layer, written as `trace-<workload>.jsonl` when the run ends. Nothing
//! here lives inside the measured program.

use crate::json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept per run; later ones are counted but dropped, so a long
/// phase cannot grow the harness's memory (and so disturb `peak_rss_mb`).
const MAX_SPANS: usize = 50_000;

/// One span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id, unique within the file.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Spans of one request share this identifier.
    pub request: u64,
    /// `<layer>.<what>`.
    pub name: String,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// Durations the measured program reported for this span but whose
    /// position inside it the harness cannot see (server-side queue wait
    /// and run time), plus any other numeric facts.
    pub attrs: Vec<(&'static str, f64)>,
}

/// An in-memory span log. Each client thread owns one; they are merged
/// when the phase ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// High bits of every id, so logs of different threads never collide.
    lane: u64,
    next: u64,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A tracer whose ids start at `lane << 40`.
    pub fn new(origin: Instant, lane: u64) -> Tracer {
        Tracer { origin, lane, next: 0, spans: Vec::new(), dropped: 0 }
    }

    /// Nanoseconds from the origin to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh id (also used as the request id of a root span).
    pub fn fresh_id(&mut self) -> u64 {
        self.next += 1;
        (self.lane << 40) | self.next
    }

    /// Records a finished span under a caller-chosen id.
    pub fn push(&mut self, span: Span) {
        if self.spans.len() < MAX_SPANS {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Moves `other`'s spans into this log.
    pub fn absorb(&mut self, other: Tracer) {
        self.dropped += other.dropped;
        for s in other.spans {
            self.push(s);
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            write!(
                w,
                "{{\"span\":{},\"parent\":{},\"request\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
                json::quote(&s.name),
                s.start_ns,
                s.end_ns
            )?;
            for (k, v) in &s.attrs {
                write!(w, ",{}:{}", json::quote(k), json::number(*v))?;
            }
            writeln!(w, "}}")?;
        }
        if self.dropped > 0 {
            writeln!(w, "{{\"dropped_spans\":{}}}", self.dropped)?;
        }
        w.flush()
    }
}

/// A layer's self time over a span log: each span's duration minus the
/// part its children cover, summed by span name.
pub fn self_times(spans: &[Span]) -> Vec<(String, u64)> {
    use std::collections::BTreeMap;
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *by_name.entry(&s.name).or_default() += own;
    }
    by_name.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// A [`ligra::Recorder`] that turns every edgeMap/vertexMap event of one
/// library call into a child span of that call. The kernel reports each
/// event as it finishes, so the span ends "now" and began `time_ns` ago.
pub struct SpanRecorder<'a> {
    tracer: &'a mut Tracer,
    parent: u64,
    request: u64,
    /// The raw events, for the counters the probes read.
    pub stats: ligra::TraversalStats,
}

impl<'a> SpanRecorder<'a> {
    /// Records under span `parent` of request `request`.
    pub fn new(tracer: &'a mut Tracer, parent: u64, request: u64) -> Self {
        SpanRecorder { tracer, parent, request, stats: ligra::TraversalStats::new() }
    }
}

impl ligra::Recorder for SpanRecorder<'_> {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, round: ligra::RoundStat) {
        let end_ns = self.tracer.at(Instant::now());
        let name = match round.op {
            ligra::Op::EdgeMap => format!("core.edge_map.{}", round.mode),
            ligra::Op::VertexMap => "core.vertex_map".to_string(),
            ligra::Op::VertexFilter => "core.vertex_filter".to_string(),
        };
        let id = self.tracer.fresh_id();
        self.tracer.push(Span {
            id,
            parent: Some(self.parent),
            request: self.request,
            name,
            start_ns: end_ns.saturating_sub(round.time_ns),
            end_ns,
            attrs: vec![
                ("frontier_vertices", round.frontier_vertices as f64),
                ("edges_scanned", round.edges_scanned as f64),
            ],
        });
        self.stats.rounds.push(round);
    }
}
