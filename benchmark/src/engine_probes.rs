//! The engine-tier layer probes: `wire`, `scheduler`, `query`, `cache`
//! and `mutate`, each timed from outside through the crate's public
//! functions, in-process, on the serving workload's own graph and the
//! first operations of its own request streams. Counts taken here repeat
//! exactly for one seed: the prefix length is fixed, not timed.

use crate::library::{random_batch, timed};
use crate::rng::Rng;
use crate::serving::{mutate_line, source_pool, submit_line, Op, Stream};
use crate::spec::{Workload, CACHE_ENTRIES, PAGERANK_ITERS, WORKERS};
use crate::stats::{median, percentile_or_zero};
use crate::{Metrics, RunConfig};
use ligra::{EdgeMapOptions, NoopRecorder};
use ligra_engine::{
    Engine, EngineConfig, JsonObj, MutationConfig, MutationLog, Query, QueryHandle, QueryStatus,
    Request, Snapshot,
};
use ligra_graph::Graph;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Operations of a stream the in-process probes replay. The read-write
/// graph's queries cost milliseconds, so its prefix is shorter.
fn prefix_len(w: Workload) -> usize {
    if w == Workload::ServeRw {
        80
    } else {
        2_000
    }
}

fn query_of(kind: usize, source: u32) -> Query {
    match kind {
        0 => Query::Bfs { source },
        1 => Query::Cc,
        2 => Query::PageRank { iters: PAGERANK_ITERS as u32 },
        _ => Query::Bc { source },
    }
}

fn engine_like_the_server(g: &Arc<Graph>) -> (Arc<Engine>, Arc<MutationLog>) {
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: WORKERS,
        cache_capacity: CACHE_ENTRIES,
        ..EngineConfig::default()
    }));
    engine.install_graph(Arc::clone(g));
    // Compaction is explicit here so the probe's counts do not depend on
    // when a background thread gets to run.
    let log =
        Arc::new(MutationLog::new(Arc::clone(&engine), MutationConfig { compact_threshold: None }));
    (engine, log)
}

/// The reply `ligra-serve` builds for a finished query, rebuilt through
/// the same public accessors.
fn status_reply(h: &QueryHandle) -> String {
    let mut obj = JsonObj::new()
        .bool("ok", true)
        .u64("id", h.id())
        .str("trace_id", h.trace_id())
        .str("status", h.status().name());
    if let Some(span) = h.span() {
        obj = obj.bool("cache_hit", span.cache_hit).u64("edge_map_rounds", span.rounds);
    }
    if let Some(result) = h.result() {
        for (k, v) in result.summary() {
            obj = obj.raw(k, &v);
        }
    }
    obj.finish()
}

/// One submit→wait turnaround in microseconds, with the span's view.
struct Turnaround {
    us: f64,
    run_us: f64,
    cache_hit: bool,
}

/// Replays `ops` through `engine` from one caller, closed loop.
fn replay(
    engine: &Engine,
    log: &Arc<MutationLog>,
    ops: &[Op],
    handles: &mut Vec<QueryHandle>,
) -> Result<Vec<Turnaround>, String> {
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        match op {
            Op::Write(batch) => {
                log.apply(batch).map_err(|e| format!("in-process mutate: {e}"))?;
            }
            Op::Read(kind, source) => {
                let t = Instant::now();
                let h = engine
                    .submit(query_of(*kind, *source), None)
                    .map_err(|e| format!("in-process submit: {e:?}"))?;
                let status = h.wait();
                let us = t.elapsed().as_secs_f64() * 1e6;
                if status != QueryStatus::Done {
                    return Err(format!("in-process query ended {}", status.name()));
                }
                let span = h.span().ok_or("finished query has no span")?;
                out.push(Turnaround {
                    us,
                    run_us: span.run_ns as f64 / 1e3,
                    cache_hit: span.cache_hit,
                });
                handles.push(h);
            }
        }
    }
    Ok(out)
}

/// Runs every engine-tier probe for a serving workload.
pub fn run(cfg: &RunConfig, g: &Arc<Graph>, m: &mut Metrics) -> Result<(), String> {
    let n = prefix_len(cfg.workload);
    let pool = source_pool(g);
    let prefixes: Vec<Vec<Op>> = (0..2)
        .map(|c| {
            Stream::new(cfg.workload, cfg.seed, c, Arc::clone(g), Arc::clone(&pool))
                .take(n)
                .collect()
        })
        .collect();

    // scheduler + cache: one caller, cold engine configured like the server.
    let (engine, log) = engine_like_the_server(g);
    let mut handles = Vec::new();
    let (c1_s, turns) = timed(|| replay(&engine, &log, &prefixes[0], &mut handles));
    let turns = turns?;
    let all: Vec<f64> = turns.iter().map(|t| t.us).collect();
    m.insert("scheduler.inproc_p50_us", median(&all));
    m.insert("scheduler.inproc_qps_c1", n as f64 / c1_s);
    let misses: Vec<&Turnaround> = turns.iter().filter(|t| !t.cache_hit).collect();
    m.insert(
        "scheduler.overhead_p50_us",
        median(&misses.iter().map(|t| t.us - t.run_us).collect::<Vec<_>>()),
    );
    let stats = engine.stats();
    m.insert(
        "cache.hit_ratio",
        stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64,
    );
    m.insert("cache.evictions", stats.cache_evictions as f64);
    m.insert(
        "cache.hit_p50_us",
        median(&turns.iter().filter(|t| t.cache_hit).map(|t| t.us).collect::<Vec<_>>()),
    );
    m.insert("cache.miss_p50_us", median(&misses.iter().map(|t| t.us).collect::<Vec<_>>()));

    // wire: the stream's own request lines and the replies to them.
    let mut lines = Vec::new();
    let mut next_id = 1u64;
    for op in &prefixes[0] {
        match op {
            Op::Read(kind, source) => {
                lines.push(submit_line(*kind, *source));
                lines.push(format!("{{\"op\":\"wait\",\"id\":{next_id}}}\n"));
                next_id += 1;
            }
            Op::Write(batch) => lines.push(mutate_line(batch)),
        }
    }
    let per_item = |total_s: f64, items: usize| total_s * 1e9 / items.max(1) as f64;
    let parse_ns: Vec<f64> = (0..5)
        .map(|_| {
            let (s, ()) = timed(|| {
                for l in &lines {
                    black_box(Request::parse(l.trim_end()).expect("generated lines parse"));
                }
            });
            per_item(s, lines.len())
        })
        .collect();
    m.insert("wire.parse_ns", median(&parse_ns));
    m.insert("wire.request_bytes", lines.iter().map(String::len).sum::<usize>() as f64);
    let mut reply_bytes = 0usize;
    let serialize_ns: Vec<f64> = (0..5)
        .map(|_| {
            let (s, bytes) = timed(|| {
                handles.iter().map(|h| black_box(status_reply(h)).len() + 1).sum::<usize>()
            });
            reply_bytes = bytes;
            per_item(s, handles.len())
        })
        .collect();
    m.insert("wire.serialize_ns", median(&serialize_ns));
    m.insert("wire.response_bytes", reply_bytes as f64);
    drop(handles);

    // scheduler at two callers: a cold engine again, one stream each.
    let (engine, log) = engine_like_the_server(g);
    let (c2_s, results) = timed(|| {
        std::thread::scope(|scope| {
            let spawned: Vec<_> = prefixes
                .iter()
                .map(|ops| scope.spawn(|| replay(&engine, &log, ops, &mut Vec::new()).map(|_| ())))
                .collect();
            spawned
                .into_iter()
                .map(|h| h.join().map_err(|_| "probe thread panicked".to_string())?)
                .collect::<Result<Vec<()>, String>>()
        })
    });
    results?;
    m.insert("scheduler.inproc_qps_c2", 2.0 * n as f64 / c2_s);

    // query: the kernels behind the reads, no scheduler, no cache.
    let snap = Snapshot::from_graph(1, Arc::clone(g));
    let run_us: Vec<f64> = prefixes[0]
        .iter()
        .filter_map(|op| match op {
            Op::Read(kind, source) => Some(query_of(*kind, *source)),
            Op::Write(_) => None,
        })
        .take(300)
        .map(|q| {
            timed(|| black_box(q.run(&snap, EdgeMapOptions::new(), &mut NoopRecorder))).0 * 1e6
        })
        .collect();
    m.insert("query.run_p50_us", median(&run_us));

    // mutate: the write path alone, where the workload writes.
    if cfg.workload == Workload::ServeRw {
        let (_engine, log) = engine_like_the_server(g);
        let mut rng = Rng::new(cfg.seed, 0x3a7e);
        let mut apply_us = Vec::new();
        for _ in 0..240 {
            let batch = random_batch(g, &mut rng);
            let (s, r) = timed(|| log.apply(&batch));
            r.map_err(|e| format!("in-process mutate: {e}"))?;
            apply_us.push(s * 1e6);
        }
        m.insert("mutate.apply_p50_us", median(&apply_us));
        m.insert("mutate.apply_p95_us", percentile_or_zero(&apply_us, 0.95));
        let (compact_s, r) = timed(|| log.compact());
        r.map_err(|e| format!("in-process compact: {e}"))?;
        m.insert("mutate.compact_s", compact_s);
    }
    Ok(())
}
