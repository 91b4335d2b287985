//! The two analytics workloads: the library called in-process, with
//! `Traversal::Auto`, on a graph that leaves the private caches.

use crate::library::{
    build_graph, draw_distinct, giant_component, layer_probes, run_call, timed, Call, References,
    KINDS,
};
use crate::rng::Rng;
use crate::stats::{decile_high, decile_low};
use crate::trace::{Span, SpanRecorder, Tracer};
use crate::{Outcome, RunConfig};
use ligra::NoopRecorder;
use ligra_apps::seq;
use ligra_graph::Graph;
use std::time::Instant;

/// One cycle of calls: 3 BFS (distinct seeded sources), 1 CC, 1 PageRank,
/// 1 BC — the issue's 12:6:4:6 mix shrunk until a few cycles fit a run.
/// BFS calls are spread out so a disturbance hits different kinds.
const CYCLE: [Call; 6] =
    [Call::Bfs(0), Call::Cc, Call::Bfs(1), Call::PageRank, Call::Bfs(2), Call::Bc];
const BFS_SOURCES: usize = 3;

struct Ready {
    g: Graph,
    sources: Vec<u32>,
    cc: Vec<u32>,
    build_s: f64,
}

/// Everything before the measured phase: generate and build the graph,
/// find the giant component, draw the sources, and run one BFS so lazy
/// state (the partitioning cache, first-touch pages) is paid for.
fn set_up(cfg: &RunConfig) -> Ready {
    let (build_s, g) = timed(|| build_graph(cfg.workload, cfg.scale, cfg.seed));
    let cc = seq::seq_cc(&g);
    let sources =
        draw_distinct(&giant_component(&cc), &mut Rng::new(cfg.seed, 0x50c5), BFS_SOURCES);
    std::hint::black_box(ligra_apps::bfs(&g, sources[0]));
    Ready { g, sources, cc, build_s }
}

/// Per-kind seconds of the calls of one phase, plus failures.
#[derive(Default)]
struct Phase {
    secs: [Vec<f64>; 4],
    /// Seconds spent inside the calls of each cycle.
    cycle_s: Vec<f64>,
    failed: u64,
}

impl Phase {
    fn calls(&self) -> u64 {
        self.secs.iter().map(|v| v.len() as u64).sum()
    }

    /// Calls per second of the least disturbed cycle.
    fn qps(&self) -> f64 {
        decile_high(&self.cycle_s.iter().map(|s| CYCLE.len() as f64 / s).collect::<Vec<_>>())
    }
}

/// Runs whole cycles until `seconds` have passed (always at least one).
/// With a tracer, every call is a root span and every edgeMap/vertexMap
/// event a child of it.
fn run_phase(r: &Ready, refs: &References, seconds: f64, mut tracer: Option<&mut Tracer>) -> Phase {
    let mut phase = Phase::default();
    let started = Instant::now();
    loop {
        let mut cycle_s = 0.0;
        for call in CYCLE {
            let (secs, ok) = match tracer.as_deref_mut() {
                None => run_call(&r.g, call, &r.sources, refs, &mut NoopRecorder),
                Some(t) => {
                    let id = t.fresh_id();
                    let start = Instant::now();
                    let mut rec = SpanRecorder::new(t, id, id);
                    let out = run_call(&r.g, call, &r.sources, refs, &mut rec);
                    let (start_ns, end_ns) = (t.at(start), t.at(Instant::now()));
                    t.push(Span {
                        id,
                        parent: None,
                        request: id,
                        name: format!("apps.{}", KINDS[call.kind()]),
                        start_ns,
                        end_ns,
                        attrs: vec![("call_ns", out.0 * 1e9)],
                    });
                    out
                }
            };
            phase.secs[call.kind()].push(secs);
            phase.failed += u64::from(!ok);
            cycle_s += secs;
        }
        phase.cycle_s.push(cycle_s);
        if started.elapsed().as_secs_f64() >= seconds {
            return phase;
        }
    }
}

/// Runs one analytics workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..cfg.scale.setup_reps(cfg.workload) {
        drop(ready.take()); // one graph resident at a time
        let (s, r) = timed(|| set_up(cfg));
        setups.push(s);
        ready = Some(r);
    }
    let mut r = ready.expect("setup_reps is at least 1");
    let refs = References::compute(&r.g, &r.sources, std::mem::take(&mut r.cc));

    let mut out = Outcome::default();
    out.stamp_graph(&r.g);
    if !cfg.trace {
        let phase = run_phase(&r, &refs, cfg.seconds, None);
        out.attempted = phase.calls();
        out.failed = phase.failed;
        out.metrics.insert("setup_s", decile_low(&setups));
        out.metrics.insert("qps", phase.qps());
        for (kind, key) in ["bfs_ms", "cc_ms", "pagerank_ms", "bc_ms"].into_iter().enumerate() {
            out.metrics.insert(key, decile_low(&phase.secs[kind]) * 1e3);
            out.samples.push((key.to_string(), phase.secs[kind].len() as u64));
        }
        out.metrics.insert(
            "peak_rss_mb",
            crate::sysinfo::peak_rss_mb(std::process::id())
                .ok_or("cannot read /proc/self/status")?,
        );
        return Ok(out);
    }

    // Traced run: the same phase untraced and traced (their difference is
    // what tracing costs), then the layer probes on the same graph.
    let plain = run_phase(&r, &refs, cfg.seconds * 0.3, None);
    let mut tracer = Tracer::new(Instant::now(), 0);
    let traced = run_phase(&r, &refs, cfg.seconds * 0.3, Some(&mut tracer));
    out.attempted = plain.calls() + traced.calls();
    out.failed = plain.failed + traced.failed;

    let m = &mut out.metrics;
    m.insert("graph.build_s", r.build_s);
    layer_probes(&r.g, r.sources[0], cfg.seed, m);
    m.insert(
        "trace.overhead_share",
        decile_low(&traced.secs[0]) / decile_low(&plain.secs[0]) - 1.0,
    );
    // Time inside the calls that no recorded kernel event covers: the
    // apps' own allocation and bookkeeping.
    let (mut call_ns, mut self_ns) = (0u64, 0u64);
    for (name, ns) in crate::trace::self_times(tracer.spans()) {
        if name.starts_with("apps.") {
            self_ns += ns;
        }
        call_ns += ns;
    }
    m.insert("trace.unattributed_share", self_ns as f64 / call_ns.max(1) as f64);
    out.tracer = Some(tracer);
    Ok(out)
}
