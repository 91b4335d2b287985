//! The replica request handler: one JSONL request line in, one flat-JSON
//! response line out.
//!
//! A [`Replica`] is everything `ligra-serve` serves from — the engine,
//! its mutation log, the connection counts and the replicated-write
//! cursor — behind one function, [`Replica::handle_line`]. The binary's
//! stdin and TCP modes, the integration tests and a [`crate::Router`]
//! fronting in-process replicas all call that same function, so what CI
//! asserts is what the benchmark measures. The connection loop around
//! it lives in [`crate::serve`]. Requests:
//!
//! ```text
//! {"op":"load","path":"g.adj","symmetric":true,"weighted":false}
//! {"op":"gen","family":"rmat","log_n":12,"seed":1,"weighted":false}
//! {"op":"submit","query":"bfs","source":0,"deadline_ms":100,"trace_id":"req-7"}
//! {"op":"poll","id":3}        {"op":"wait","id":3}
//! {"op":"cancel","id":3}      {"op":"span","id":3}
//! {"op":"stats"}              {"op":"shutdown"}
//! {"op":"mutate","add":"0-1,2-3","del":"4-5","add_vertices":1,"del_vertices":"7,9"}
//! {"op":"compact"}            {"op":"compact","wait":false}
//! {"op":"graph-stats"}
//! ```
//!
//! `mutate` applies one delta batch (edge lists are comma-separated
//! `u-v` pairs) and publishes the result as a new epoch; in-flight
//! queries finish on the snapshot they started with. `compact` flattens
//! the accumulated overlay into a clean CSR (synchronously by default;
//! `"wait":false` kicks it off in the background). `poll`/`wait`/`span`
//! answer for the last [`crate::scheduler::RETIRED_CAPACITY`] finished
//! queries; an older id answers `expired id N`.

use crate::lockdep::tracked_lock;
use crate::metrics::{render, stats_fields, FAMILIES};
use crate::scheduler::{LookupError, QueryReport};
use crate::serve::{Frontend, WireEvent};
use crate::span::span_fields;
use crate::wire::transient_error;
use crate::{
    error_response, Engine, JsonObj, MetricsRegistry, MutateError, MutationLog, Query, Request,
    SubmitError,
};
use ligra::jsonl::field_bool;
use ligra_graph::delta::DeltaBatch;
use ligra_graph::generators::{
    erdos_renyi, grid3d, random_local, random_weights, rmat, RmatOptions,
};
use ligra_graph::io::{load_graph, read_weighted_adjacency_graph};
use ligra_graph::Graph;
use std::fs::File;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Connection book-keeping, reported by the `stats` op.
#[derive(Default, Clone, Copy)]
struct ConnCounts {
    active: u64,
    total: u64,
}

/// One serving replica: the state `ligra-serve` answers requests from.
pub struct Replica {
    engine: Arc<Engine>,
    log: Arc<MutationLog>,
    /// The engine's registry, where the wire counters live.
    metrics: Arc<MetricsRegistry>,
    /// A named lock site (`serve.connections`): under the `lock-check`
    /// feature its acquisitions feed the runtime lock-order oracle
    /// alongside the engine-tier sites, proving the serving loop never
    /// nests it against scheduler or mutation locks.
    counts: Mutex<ConnCounts>,
    /// Highest replicated-write seq (`rseq`) applied. `ligra-route`
    /// tags every fanned-out write with its journal seq; a repeat (a
    /// replayed write this replica already applied, e.g. after the
    /// router timed out on a slow response) is acknowledged without
    /// re-applying, keeping replicated writes exactly-once per replica.
    last_rseq: AtomicU64,
}

impl Replica {
    /// A replica serving `engine`, mutated through `log`.
    pub fn new(engine: Arc<Engine>, log: Arc<MutationLog>) -> Replica {
        let metrics = engine.metrics();
        Replica { engine, log, metrics, counts: Mutex::default(), last_rseq: AtomicU64::new(0) }
    }

    /// The engine behind this replica.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Loads the graph file at `path` and installs it, as the `load` op
    /// does; returns the new epoch. For `ligra-serve --graph`.
    pub fn install_from_file(
        &self,
        path: &str,
        symmetric: bool,
        weighted: bool,
    ) -> Result<u64, String> {
        load_into(&self.engine, path, symmetric, weighted)
    }

    /// Handles one request line; the bool is "keep serving" (false only
    /// after an acknowledged `shutdown`).
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        let Replica { engine, log, metrics, last_rseq, .. } = self;
        metrics.wire_requests.incr();
        #[cfg(feature = "fault-inject")]
        if let Some(resp) = wire_fault(engine) {
            return (resp, true);
        }
        let req = match Request::parse(line) {
            Ok(r) => r,
            Err(e) => {
                metrics.wire_malformed.incr();
                return (error_response(&e), true);
            }
        };
        let op = match req.str("op") {
            Ok(op) => op,
            Err(e) => {
                metrics.wire_malformed.incr();
                return (error_response(&e), true);
            }
        };
        let resp = match op {
            "load" => replicated_write(&req, engine, last_rseq, || {
                let path = req.str("path")?;
                let symmetric = req.bool_or("symmetric", true)?;
                let weighted = req.bool_or("weighted", false)?;
                load_into(engine, path, symmetric, weighted).map(graph_response)
            }),
            "gen" => replicated_write(&req, engine, last_rseq, || {
                let g = generate(&req)?;
                let (n, m) = (g.num_vertices(), g.num_edges());
                let epoch = if req.bool_or("weighted", false)? {
                    let max_w = req.u64_or("max_w", 20)? as i32;
                    let wg = random_weights(&g, max_w, req.u64_or("seed", 1)?);
                    engine.install_weighted(Arc::new(wg))
                } else {
                    engine.install_graph(Arc::new(g))
                };
                Ok(JsonObj::new()
                    .bool("ok", true)
                    .u64("epoch", epoch)
                    .u64("vertices", n as u64)
                    .u64("edges", m as u64)
                    .finish())
            }),
            "submit" => (|| {
                let query = query_from(&req)?;
                let deadline = match req.get("deadline_ms") {
                    None => None,
                    Some(_) => Some(Duration::from_millis(req.u64_or("deadline_ms", 0)?)),
                };
                let trace_id = match req.get("trace_id") {
                    None => None,
                    Some(_) => Some(req.str("trace_id")?.to_string()),
                };
                match engine.submit_traced(query, deadline, trace_id) {
                    Ok(h) => Ok(status_response(&h.report()).finish()),
                    Err(SubmitError::QueueFull) => Ok(transient_error("queue full", None)),
                    Err(SubmitError::NoGraph) => Err("no graph installed".to_string()),
                }
            })(),
            "poll" | "wait" | "cancel" => (|| {
                let id = req.u64_or("id", 0)?;
                if let Some(h) = engine.handle(id) {
                    match op {
                        "cancel" => h.cancel(),
                        "wait" => {
                            let _ = h.wait();
                        }
                        _ => {}
                    }
                }
                let report = engine.report(id).map_err(|e| e.to_string())?;
                Ok(status_response(&report).finish())
            })(),
            "span" => req.u64_or("id", 0).map(|id| span_response(engine, id)),
            "mutate" => replicated_write(&req, engine, last_rseq, || mutate_response(log, &req)),
            "compact" => replicated_write(&req, engine, last_rseq, || compact_response(log, &req)),
            "graph-stats" | "graph_stats" => Ok(graph_stats_response(engine, log)),
            "stats" => {
                let conns = *tracked_lock(&self.counts, "serve.connections");
                Ok(stats_response(engine, conns))
            }
            "ping" => Ok(JsonObj::new().bool("ok", true).str("pong", "ligra-serve").finish()),
            "shutdown" => {
                return (
                    JsonObj::new().bool("ok", true).str("status", "shutting-down").finish(),
                    false,
                )
            }
            other => Err(format!("unknown op {other:?}")),
        };
        (resp.unwrap_or_else(|e| error_response(&e)), true)
    }
}

impl Frontend for Replica {
    fn handle_line(&self, line: &str) -> (String, bool) {
        Replica::handle_line(self, line)
    }

    fn exposition(&self) -> String {
        render(FAMILIES, &self.engine.stats())
    }

    /// Nothing queued, nothing running.
    fn is_quiescent(&self) -> bool {
        let s = self.engine.stats();
        s.queued == 0 && s.running == 0
    }

    fn observe(&self, event: WireEvent) {
        let metrics = &self.metrics;
        match event {
            WireEvent::ConnOpened => {
                let mut c = tracked_lock(&self.counts, "serve.connections");
                c.active += 1;
                c.total += 1;
            }
            WireEvent::ConnClosed => {
                let mut c = tracked_lock(&self.counts, "serve.connections");
                c.active = c.active.saturating_sub(1);
            }
            // Count the newline the reader consumed along with the line.
            WireEvent::LineRead(bytes) => metrics.wire_bytes.add(bytes as u64 + 1),
            WireEvent::LineRejected => {
                metrics.wire_requests.incr();
                metrics.wire_malformed.incr();
            }
            WireEvent::Draining => {}
        }
    }
}

/// Replicated-write dedup: when the request carries an `rseq` tag at
/// or below the highest successfully applied, answer `duplicate` with
/// the current epoch instead of re-applying; otherwise run `apply` and
/// advance the cursor only if it succeeded (a failed write must stay
/// replayable). Router writes arrive from one serializer thread, so a
/// plain load/store pair is race-free here.
fn replicated_write<F>(
    req: &Request,
    engine: &Engine,
    last_rseq: &AtomicU64,
    apply: F,
) -> Result<String, String>
where
    F: FnOnce() -> Result<String, String>,
{
    let rseq = req.u64_or("rseq", 0)?;
    if rseq > 0 && rseq <= last_rseq.load(Ordering::Acquire) {
        return Ok(JsonObj::new()
            .bool("ok", true)
            .u64("epoch", engine.current_epoch().unwrap_or(0))
            .bool("duplicate", true)
            .u64("rseq", rseq)
            .finish());
    }
    let resp = apply();
    if rseq > 0 && resp.as_ref().is_ok_and(|r| field_bool(r, "ok") == Some(true)) {
        last_rseq.store(rseq, Ordering::Release);
    }
    resp
}

fn load_into(engine: &Engine, path: &str, symmetric: bool, weighted: bool) -> Result<u64, String> {
    // The `graph.load` fault point guards the serve-side load path: an
    // injected error (or contained panic) becomes a load failure the
    // client sees, never a dead connection.
    #[cfg(feature = "fault-inject")]
    if let Some(plan) = engine.fault_plan() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        match catch_unwind(AssertUnwindSafe(|| plan.check(ligra::FaultPoint::GraphLoad))) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return Err(e.to_string()),
            Err(payload) => return Err(crate::error::classify_panic(payload.as_ref()).to_string()),
        }
    }
    if weighted {
        let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        let g = read_weighted_adjacency_graph(file, symmetric).map_err(|e| e.to_string())?;
        Ok(engine.install_weighted(Arc::new(g)))
    } else {
        let g = load_graph(path, symmetric).map_err(|e| e.to_string())?;
        Ok(engine.install_graph(Arc::new(g)))
    }
}

/// Narrows a request-supplied integer, reporting (not panicking on) overflow.
fn to_u32(x: u64, field: &str) -> Result<u32, String> {
    u32::try_from(x).map_err(|_| format!("{field} {x} exceeds u32 range"))
}

fn generate(req: &Request) -> Result<Graph, String> {
    let seed = req.u64_or("seed", 1)?;
    match req.str("family")? {
        "rmat" => {
            let log_n = to_u32(req.u64_or("log_n", 12)?, "log_n")?;
            Ok(rmat(&RmatOptions::paper(log_n)))
        }
        "grid3d" => {
            let side = req.u64_or("side", 16)? as usize;
            Ok(grid3d(side))
        }
        "random-local" | "random_local" => {
            let n = req.u64_or("n", 10_000)? as usize;
            let deg = req.u64_or("deg", 8)? as usize;
            Ok(random_local(n, deg, seed))
        }
        "erdos-renyi" | "er" => {
            let n = req.u64_or("n", 10_000)? as usize;
            let m = req.u64_or("m", 50_000)? as usize;
            Ok(erdos_renyi(n, m, seed, true))
        }
        other => Err(format!("unknown family {other:?} (rmat|grid3d|random-local|erdos-renyi)")),
    }
}

/// The query a `submit` names: exactly [`Query::KIND_NAMES`], plus the
/// aliases `bellman_ford` and `k-core`.
pub(crate) fn query_from(req: &Request) -> Result<Query, String> {
    let source = to_u32(req.u64_or("source", 0)?, "source")?;
    let seed = req.u64_or("seed", 1)?;
    let iters = to_u32(req.u64_or("max_iters", 20)?, "max_iters")?;
    let kind = match req.str("query")? {
        "bellman_ford" => "bellman-ford",
        "k-core" => "kcore",
        kind => kind,
    };
    let kinds = [
        Query::Bfs { source },
        Query::Bc { source },
        Query::Cc,
        Query::PageRank { iters },
        Query::Radii { seed },
        Query::BellmanFord { source },
        Query::KCore,
        Query::Mis { seed },
    ];
    kinds
        .into_iter()
        .find(|q| q.name() == kind)
        .ok_or_else(|| format!("unknown query {kind:?} ({})", Query::KIND_NAMES.join("|")))
}

fn graph_response(epoch: u64) -> String {
    JsonObj::new().bool("ok", true).u64("epoch", epoch).finish()
}

/// Parses a comma-separated `u-v` edge list (the wire format is flat
/// JSON, so edge lists ride in a string field).
fn parse_edge_list(s: &str) -> Result<Vec<(u32, u32)>, String> {
    let mut out = Vec::new();
    for pair in s.split(',') {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let (u, v) =
            pair.split_once('-').ok_or_else(|| format!("edge {pair:?}: expected \"u-v\""))?;
        let parse = |raw: &str| -> Result<u32, String> {
            raw.trim().parse().map_err(|_| format!("edge {pair:?}: bad vertex id {raw:?}"))
        };
        out.push((parse(u)?, parse(v)?));
    }
    Ok(out)
}

/// Parses a comma-separated vertex-id list.
fn parse_vertex_list(s: &str) -> Result<Vec<u32>, String> {
    s.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|t| t.parse().map_err(|_| format!("bad vertex id {t:?}")))
        .collect()
}

fn batch_from(req: &Request) -> Result<DeltaBatch, String> {
    let mut batch = DeltaBatch::new();
    batch.add_vertices = req.u64_or("add_vertices", 0)? as usize;
    if req.get("add").is_some() {
        batch.add_edges = parse_edge_list(req.str("add")?)?;
    }
    if req.get("del").is_some() {
        batch.del_edges = parse_edge_list(req.str("del")?)?;
    }
    if req.get("del_vertices").is_some() {
        batch.del_vertices = parse_vertex_list(req.str("del_vertices")?)?;
    }
    if batch.is_empty() {
        return Err("empty mutation: provide add, del, add_vertices, or del_vertices".to_string());
    }
    Ok(batch)
}

/// Renders a mutation/compaction failure; transient ones carry
/// `"transient":true` so the built-in client's backoff loop retries them
/// like a full queue.
fn mutate_error_response(e: &MutateError) -> String {
    JsonObj::new()
        .bool("ok", false)
        .str("error", &e.to_string())
        .bool("transient", e.is_transient())
        .finish()
}

fn mutate_response(log: &Arc<MutationLog>, req: &Request) -> Result<String, String> {
    let batch = batch_from(req)?;
    match log.apply(&batch) {
        Ok(r) => Ok(JsonObj::new()
            .bool("ok", true)
            .u64("epoch", r.epoch)
            .u64("arcs_added", r.arcs_added)
            .u64("arcs_deleted", r.arcs_deleted)
            .u64("vertices_added", r.vertices_added)
            .u64("vertices_deleted", r.vertices_deleted)
            .u64("overlay_edges", r.overlay_arcs)
            .u64("overlay_vertices", r.overlay_vertices)
            .bool("compaction_started", r.compaction_started)
            .finish()),
        Err(e) => Ok(mutate_error_response(&e)),
    }
}

fn compact_response(log: &Arc<MutationLog>, req: &Request) -> Result<String, String> {
    if !req.bool_or("wait", true)? {
        let started = log.compact_async();
        return Ok(JsonObj::new().bool("ok", true).bool("started", started).finish());
    }
    match log.compact() {
        Ok(r) => Ok(JsonObj::new()
            .bool("ok", true)
            .u64("epoch", r.epoch)
            .u64("compact_ms", u64::try_from(r.duration.as_millis()).unwrap_or(u64::MAX))
            .u64("edges", r.edges)
            .u64("reapplied_batches", r.reapplied_batches as u64)
            .finish()),
        Err(e) => Ok(mutate_error_response(&e)),
    }
}

fn graph_stats_response(engine: &Engine, log: &Arc<MutationLog>) -> String {
    let status = log.status();
    let m = engine.metrics();
    let mut obj = JsonObj::new().bool("ok", true);
    match engine.current_snapshot() {
        None => obj = obj.u64("epoch", 0).bool("loaded", false),
        Some(snap) => {
            let g = snap.graph();
            obj = obj
                .u64("epoch", snap.epoch())
                .bool("loaded", true)
                .u64("vertices", g.num_vertices() as u64)
                .u64("edges", g.num_edges() as u64)
                .bool("symmetric", g.is_symmetric())
                .bool("has_overlay", g.has_overlay())
                .u64("overlay_edges", g.overlay_arcs())
                .u64("overlay_vertices", g.overlay_vertices());
        }
    }
    obj.u64("pending_batches", status.pending_batches as u64)
        .bool("compacting", status.compacting)
        .u64("derived_epoch", status.derived_epoch)
        .u64("compactions", m.mutation_compactions.get())
        .u64("compaction_failures", m.mutation_compaction_failures.get())
        .finish()
}

fn status_response(r: &QueryReport) -> JsonObj {
    let mut obj = JsonObj::new()
        .bool("ok", true)
        .u64("id", r.id)
        .str("trace_id", &r.trace_id)
        .str("status", r.status.name());
    if let Some(span) = &r.span {
        obj = obj.bool("cache_hit", span.cache_hit).u64("edge_map_rounds", span.rounds);
    }
    if let Some(summary) = &r.summary {
        for (k, v) in summary.iter() {
            // Summaries are numbers or bools rendered as strings; emit
            // numeric-looking ones raw so clients get real numbers.
            obj = if v.parse::<f64>().is_ok() || v == "true" || v == "false" {
                obj.raw(k, v)
            } else {
                obj.str(k, v)
            };
        }
    }
    if let Some(err) = &r.error {
        obj = obj.str("error", &err.to_string()).bool("transient", err.is_transient());
    }
    obj
}

fn span_response(engine: &Engine, id: u64) -> String {
    let span = match engine.report(id) {
        Ok(report) => report.span,
        Err(e @ LookupError::Expired(_)) => return error_response(&e.to_string()),
        Err(LookupError::Unknown(_)) => None,
    };
    match span {
        None => error_response(&format!("no finished span for id {id}")),
        Some(s) => span_fields(&s, JsonObj::new().bool("ok", true)).finish(),
    }
}

/// The `stats` op: every family of [`FAMILIES`] under its reply key —
/// the numbers a scrape carries, in JSONL clothing — plus this
/// replica's connection counts.
fn stats_response(engine: &Engine, conns: ConnCounts) -> String {
    stats_fields(FAMILIES, &engine.stats(), JsonObj::new().bool("ok", true))
        .u64("connections_active", conns.active)
        .u64("connections_total", conns.total)
        .finish()
}

/// Checks the `wire.read` fault point; a contained injection becomes an
/// error-response line, never a torn-down connection. The response is
/// flagged `"transient":true` — the fault plan is hit-scheduled, so a
/// retried request lands on a fresh hit and normally succeeds.
#[cfg(feature = "fault-inject")]
fn wire_fault(engine: &Engine) -> Option<String> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let plan = engine.fault_plan()?;
    let msg = match catch_unwind(AssertUnwindSafe(|| plan.check(ligra::FaultPoint::WireRead))) {
        Ok(Ok(())) => return None,
        Ok(Err(e)) => e.to_string(),
        Err(payload) => crate::error::classify_panic(payload.as_ref()).to_string(),
    };
    Some(transient_error(&msg, None))
}
