//! The three serving workloads: seeded closed-loop traffic from
//! [`CLIENTS`] connections against spawned `ligra-serve` /
//! `ligra-route` processes over loopback.
//!
//! Closed loop because the wire protocol is submit-then-wait per
//! connection: a client cannot have a second request in flight, so the
//! offered load is "as fast as the replies come", at a fixed client count.

use crate::engine_probes;
use crate::library::{
    build_graph, giant_component, layer_probes, random_batch, timed, wire_float_matches,
    WireOracle, KINDS,
};
use crate::process::{self, field, int, num, release_binary, Client, OneCpu, ScratchDir, Server};
use crate::rng::Rng;
use crate::spec::{Workload, CACHE_ENTRIES, CLIENTS, HOT_SET, PAGERANK_ITERS, WORKERS};
use crate::stats::{decile_low, max, median, percentile_or_zero};
use crate::trace::{Span, Tracer};
use crate::{Outcome, RunConfig};
use ligra_graph::{DeltaBatch, Graph};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Read kinds index [`KINDS`]; a write is kind 4.
pub const WRITE: usize = 4;

/// One generated operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A query: kind (index into [`KINDS`]) and source (0 for CC/PageRank).
    Read(usize, u32),
    /// One `mutate` batch.
    Write(DeltaBatch),
}

/// A connection's seeded operation stream.
pub struct Stream {
    rng: Rng,
    writes: bool,
    hot: Vec<u32>,
    base: Arc<Graph>,
    /// The vertices sources are drawn from (`library::giant_component`).
    pool: Arc<Vec<u32>>,
}

/// The source pool of `g`.
pub fn source_pool(g: &Graph) -> Arc<Vec<u32>> {
    Arc::new(giant_component(&ligra_apps::seq::seq_cc(g)))
}

impl Stream {
    /// The stream of connection `conn` under `seed`. Every connection
    /// shares the workload's hot set; everything else is its own.
    pub fn new(w: Workload, seed: u64, conn: u64, base: Arc<Graph>, pool: Arc<Vec<u32>>) -> Stream {
        let mut hot_rng = Rng::new(seed, 0x407);
        let hot = (0..HOT_SET).map(|_| pool[hot_rng.below(pool.len() as u64) as usize]).collect();
        Stream { rng: Rng::new(seed, 0xc0 + conn), writes: w == Workload::ServeRw, hot, base, pool }
    }

    /// The hot sources.
    pub fn hot(&self) -> &[u32] {
        &self.hot
    }

    fn source(&mut self) -> u32 {
        if !self.writes && self.rng.unit() < 0.25 {
            self.hot[self.rng.below(HOT_SET as u64) as usize]
        } else {
            self.pool[self.rng.below(self.pool.len() as u64) as usize]
        }
    }
}

impl Iterator for Stream {
    type Item = Op;

    /// Point mix: 60 % BFS, 25 % BC, 10 % CC, 5 % PageRank; a quarter of
    /// the sources come from the hot set. Read-write mix: 20 % mutate,
    /// 50 % BFS, 15 % CC, 10 % BC, 5 % PageRank; uniform sources.
    fn next(&mut self) -> Option<Op> {
        let x = self.rng.unit();
        let (bfs, bc, cc) = if self.writes {
            if x < 0.20 {
                return Some(Op::Write(random_batch(&self.base, &mut self.rng)));
            }
            (0.70, 0.80, 0.95)
        } else {
            (0.60, 0.85, 0.95)
        };
        Some(if x < bfs {
            Op::Read(0, self.source())
        } else if x < bc {
            Op::Read(3, self.source())
        } else if x < cc {
            Op::Read(1, 0)
        } else {
            Op::Read(2, 0)
        })
    }
}

/// The request line (newline included) that submits a read.
pub fn submit_line(kind: usize, source: u32) -> String {
    match kind {
        0 | 3 => {
            format!("{{\"op\":\"submit\",\"query\":\"{}\",\"source\":{source}}}\n", KINDS[kind])
        }
        1 => "{\"op\":\"submit\",\"query\":\"cc\"}\n".to_string(),
        _ => {
            format!("{{\"op\":\"submit\",\"query\":\"pagerank\",\"max_iters\":{PAGERANK_ITERS}}}\n")
        }
    }
}

/// The request line of a `mutate`.
pub fn mutate_line(batch: &DeltaBatch) -> String {
    let list = |edges: &[(u32, u32)]| {
        edges.iter().map(|(u, v)| format!("{u}-{v}")).collect::<Vec<_>>().join(",")
    };
    format!(
        "{{\"op\":\"mutate\",\"add\":\"{}\",\"del\":\"{}\"}}\n",
        list(&batch.add_edges),
        list(&batch.del_edges)
    )
}

/// What the client saw of one operation.
struct Sample {
    kind: usize,
    source: u32,
    ok: bool,
    /// Whether the server answered from its result cache (reads only).
    hit: bool,
    total_ns: u64,
    submit_ns: u64,
    /// The reply's summary: (reached, max_dist) | (components, -) |
    /// (rank_sum, -) | (dependency_sum, -).
    answer: (f64, f64),
    /// Server-side (queue_wait_ns, run_ns, cache_hit) from the `span` op;
    /// traced phases only.
    server: Option<(u64, u64, bool)>,
}

/// One connection's record of a phase.
#[derive(Default)]
struct Log {
    samples: Vec<Sample>,
    /// Acknowledged batches with the epoch each published.
    acked: Vec<(u64, DeltaBatch)>,
    writes_shed: u64,
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Submits `line`, waits for the terminal status, and records the sample.
fn read_once(
    c: &mut Client,
    kind: usize,
    source: u32,
    tracer: Option<&mut Tracer>,
) -> Result<Sample, String> {
    let t0 = Instant::now();
    let (id, submitted) = {
        let reply = c.call(&submit_line(kind, source))?;
        (int(reply, "id"), process::ok(reply))
    };
    let t1 = Instant::now();
    let mut sample = Sample {
        kind,
        source,
        ok: false,
        hit: false,
        total_ns: 0,
        submit_ns: ns(t1 - t0),
        answer: (0.0, 0.0),
        server: None,
    };
    let Some(id) = id.filter(|_| submitted) else {
        sample.total_ns = sample.submit_ns; // refused or shed at admission
        return Ok(sample);
    };
    {
        let reply = c.call(&format!("{{\"op\":\"wait\",\"id\":{id}}}\n"))?;
        sample.ok = process::ok(reply) && field(reply, "status") == Some("done");
        sample.hit = field(reply, "cache_hit") == Some("true");
        let get = |k| num(reply, k).unwrap_or(f64::NAN);
        sample.answer = match kind {
            0 => (get("reached"), get("max_dist")),
            1 => (get("components"), 0.0),
            2 => (get("rank_sum"), 0.0),
            _ => (get("dependency_sum"), 0.0),
        };
    }
    let t2 = Instant::now();
    sample.total_ns = ns(t2 - t0);
    if let Some(t) = tracer {
        // Tracing from outside: ask the server for this query's span.
        let reply = c.call(&format!("{{\"op\":\"span\",\"id\":{id}}}\n"))?;
        let (qw, run) =
            (int(reply, "queue_wait_ns").unwrap_or(0), int(reply, "run_ns").unwrap_or(0));
        sample.server = Some((qw, run, field(reply, "cache_hit") == Some("true")));
        let request = t.fresh_id();
        let (a, b, e) = (t.at(t0), t.at(t1), t.at(t2));
        t.push(Span {
            id: request,
            parent: None,
            request,
            name: format!("client.{}", KINDS[kind]),
            start_ns: a,
            end_ns: e,
            attrs: vec![("queue_wait_ns", qw as f64), ("run_ns", run as f64)],
        });
        for (name, start_ns, end_ns) in [("serve.submit", a, b), ("serve.wait", b, e)] {
            let id = t.fresh_id();
            t.push(Span {
                id,
                parent: Some(request),
                request,
                name: name.into(),
                start_ns,
                end_ns,
                attrs: vec![],
            });
        }
    }
    Ok(sample)
}

fn write_once(c: &mut Client, batch: DeltaBatch, log: &mut Log) -> Result<(), String> {
    let t0 = Instant::now();
    let reply = c.call(&mutate_line(&batch))?;
    let total_ns = ns(t0.elapsed());
    let epoch = int(reply, "epoch").filter(|_| process::ok(reply));
    if field(reply, "transient") == Some("true") {
        log.writes_shed += 1;
    }
    log.samples.push(Sample {
        kind: WRITE,
        source: 0,
        ok: epoch.is_some(),
        hit: false,
        total_ns,
        submit_ns: total_ns,
        answer: (0.0, 0.0),
        server: None,
    });
    if let Some(epoch) = epoch {
        log.acked.push((epoch, batch));
    }
    Ok(())
}

/// Drives one connection until `deadline`.
fn drive(
    addr: SocketAddr,
    stream: &mut Stream,
    deadline: Instant,
    mut tracer: Option<&mut Tracer>,
) -> Result<Log, String> {
    let mut c = Client::connect(addr)?;
    let mut log = Log::default();
    while Instant::now() < deadline {
        match stream.next().expect("streams are endless") {
            Op::Read(kind, source) => {
                log.samples.push(read_once(&mut c, kind, source, tracer.as_deref_mut())?)
            }
            Op::Write(batch) => write_once(&mut c, batch, &mut log)?,
        }
    }
    Ok(log)
}

/// A measured phase: [`CLIENTS`] threads, one connection each.
struct Phase {
    logs: Vec<Log>,
}

/// Of a kind's replies, the share that must be executed queries for the
/// kind's latency to be taken on them and not on its cache hits.
const EXECUTED_SHARE: f64 = 0.1;

impl Phase {
    fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.logs.iter().flat_map(|l| &l.samples)
    }

    fn ms_of(&self, pick: impl Fn(&Sample) -> bool) -> Vec<f64> {
        self.samples().filter(|s| s.ok && pick(s)).map(|s| s.total_ns as f64 / 1e6).collect()
    }

    fn attempted(&self) -> u64 {
        self.samples().count() as u64
    }

    /// Milliseconds to a terminal reply for reads of `kind`, and how many
    /// samples that rests on. A kind's replies are two populations, told
    /// apart by the reply's `cache_hit`: executed queries and cache hits
    /// (two round trips, nothing else). The figure is taken on the
    /// executed ones — or on the hits where next to nothing is executed
    /// (the source-free CC and PageRank on a graph that never changes) —
    /// so neither a seed's hit share nor a run's luck with it moves it.
    /// Within a population a disturbance only ever adds time, exactly as
    /// for a kernel call, so the figure is the low decile: over ten seeds
    /// under a bursty competing load it spreads 3–12 %, the median of the
    /// same samples 10–47 % (README, "Which statistic").
    fn latency_ms(&self, kind: usize) -> (f64, u64) {
        let executed = self.ms_of(|s| s.kind == kind && !s.hit);
        let hits = self.ms_of(|s| s.kind == kind && s.hit);
        let of = if executed.len() as f64 >= EXECUTED_SHARE * (executed.len() + hits.len()) as f64 {
            executed
        } else {
            hits
        };
        (decile_low(&of), of.len() as u64)
    }

    /// Operations per second the closed loop sustains on the phase's own
    /// mix when undisturbed: completed operations over the time they take
    /// with each at the low decile of its population (kind × executed or
    /// hit; writes are one population). Counting replies per wall-clock
    /// window instead measures the neighbours: the best windows of a
    /// disturbed run still spread 7–26 % over ten seeds, this 3–9 %.
    fn qps(&self) -> f64 {
        let mut populations = std::collections::BTreeMap::<(usize, bool), Vec<f64>>::new();
        for s in self.samples().filter(|s| s.ok) {
            populations.entry((s.kind, s.hit)).or_default().push(s.total_ns as f64 / 1e9);
        }
        let (count, seconds) = populations
            .values()
            .fold((0.0, 0.0), |(n, t), p| (n + p.len() as f64, t + p.len() as f64 * decile_low(p)));
        CLIENTS as f64 * count / seconds.max(f64::MIN_POSITIVE)
    }
}

fn run_phase(
    addr: SocketAddr,
    streams: &mut [Stream],
    seconds: f64,
    tracers: Option<&mut Vec<Tracer>>,
) -> Result<Phase, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut lanes: Vec<Option<&mut Tracer>> = match tracers {
        Some(ts) => ts.iter_mut().map(Some).collect(),
        None => streams.iter().map(|_| None).collect(),
    };
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .zip(lanes.drain(..))
            .map(|(stream, tracer)| scope.spawn(move || drive(addr, stream, deadline, tracer)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok(Phase { logs })
}

/// The processes of one set-up and how to reach them.
struct Fleet {
    router: Option<Server>,
    replicas: Vec<Server>,
    graph: Arc<Graph>,
    pool: Arc<Vec<u32>>,
    graph_path: std::path::PathBuf,
    build_s: f64,
    load_s: f64,
}

impl Fleet {
    fn stream(&self, cfg: &RunConfig, conn: u64) -> Stream {
        Stream::new(cfg.workload, cfg.seed, conn, Arc::clone(&self.graph), Arc::clone(&self.pool))
    }

    fn front(&self) -> SocketAddr {
        self.router.as_ref().map_or(self.replicas[0].addr, |r| r.addr)
    }

    fn servers(&self) -> impl Iterator<Item = &Server> {
        self.replicas.iter().chain(&self.router)
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        self.servers()
            .map(|s| crate::sysinfo::peak_rss_mb(s.pid()).ok_or("a server died during the run"))
            .sum::<Result<f64, _>>()
            .map_err(str::to_string)
    }

    /// Graceful stop, router first; failing to stop cleanly fails the run.
    fn shutdown(self) -> Result<(), String> {
        for s in self.router.into_iter().chain(self.replicas) {
            s.shutdown()?;
        }
        Ok(())
    }
}

/// `--compact-threshold` of `serve_rw`: overlay arcs before a background
/// compaction starts, sized so several finish inside one measured phase.
fn compact_threshold(cfg: &RunConfig) -> u64 {
    if cfg.scale.smoke {
        400
    } else {
        6_000
    }
}

/// Everything before the measured phase: generate the graph, write it,
/// spawn the processes, `load` it through the front door, warm up.
fn set_up(cfg: &RunConfig, dir: &ScratchDir, rep: usize) -> Result<Fleet, String> {
    let root = crate::repo_root();
    let serve = release_binary(&cfg.bin_dir, "ligra-serve", root)?;
    let (build_s, graph) = timed(|| build_graph(cfg.workload, cfg.scale, cfg.seed));
    let graph_path = dir.path().join(format!("graph-{rep}.adj"));
    ligra_graph::io::save_graph(&graph, &graph_path).map_err(|e| format!("write graph: {e}"))?;

    // Auto-compaction only where writes exist; the routed fleet must not
    // compact on its own (DESIGN.md §16: it forks replica epochs).
    let threshold = if cfg.workload == Workload::ServeRw { compact_threshold(cfg) } else { 0 };
    let serve_args = [
        ("--workers", WORKERS as u64),
        ("--cache", CACHE_ENTRIES as u64),
        ("--compact-threshold", threshold),
    ]
    .iter()
    .flat_map(|(k, v)| [k.to_string(), v.to_string()])
    .collect::<Vec<_>>();
    let replica_count = if cfg.workload == Workload::RoutePoint { 2 } else { 1 };
    let replicas = (0..replica_count)
        .map(|_| Server::spawn(&serve, "ligra-serve", &serve_args))
        .collect::<Result<Vec<_>, _>>()?;
    let router = if cfg.workload == Workload::RoutePoint {
        let route = release_binary(&cfg.bin_dir, "ligra-route", root)?;
        let args: Vec<String> =
            replicas.iter().flat_map(|r| ["--backend".to_string(), r.addr.to_string()]).collect();
        Some(Server::spawn(&route, "ligra-route", &args)?)
    } else {
        None
    };
    let pool = source_pool(&graph);
    let mut fleet =
        Fleet { router, replicas, graph: Arc::new(graph), pool, graph_path, build_s, load_s: 0.0 };

    let mut c = Client::connect(fleet.front())?;
    let load = format!(
        "{{\"op\":\"load\",\"path\":\"{}\",\"symmetric\":true}}\n",
        fleet.graph_path.display()
    );
    let (load_s, loaded) = timed(|| c.call(&load).map(process::ok));
    if !loaded? {
        return Err(format!(
            "load failed: {}",
            fleet.servers().map(Server::stderr_tail).collect::<String>()
        ));
    }
    fleet.load_s = load_s;
    // Warm-up: the source-free queries and every hot source once, so the
    // phase starts with the cache a long-running server would have.
    let hot = fleet.stream(cfg, 0).hot().to_vec();
    let mut warm = vec![(1, 0), (2, 0)];
    warm.extend(hot.iter().flat_map(|&s| [(0, s), (3, s)]));
    for (kind, source) in warm {
        if !read_once(&mut c, kind, source, None)?.ok {
            return Err(format!("warm-up {} query failed", KINDS[kind]));
        }
    }
    Ok(fleet)
}

/// Checks every successful read of a read-only phase against the
/// sequential references; returns the number of wrong answers.
fn wrong_answers(phase: &Phase, oracle: &mut WireOracle) -> u64 {
    let mut wrong = 0;
    for s in phase.samples().filter(|s| s.ok && s.kind != WRITE) {
        let right = match s.kind {
            0 => {
                let (reached, depth) = oracle.bfs(s.source);
                s.answer == (reached as f64, f64::from(depth))
            }
            1 => s.answer.0 == oracle.components() as f64,
            2 => wire_float_matches(s.answer.0, oracle.rank_sum()),
            _ => wire_float_matches(s.answer.0, oracle.bc(s.source)),
        };
        wrong += u64::from(!right);
    }
    wrong
}

/// `serve_rw`'s closing check: quiesce, `compact`, then BFS and CC over
/// the wire must equal the harness's own replay of every acknowledged
/// batch (in epoch order) on the graph it generated.
fn final_state_matches(fleet: &Fleet, phases: &[&Phase], source: u32) -> Result<bool, String> {
    let mut acked: Vec<&(u64, DeltaBatch)> =
        phases.iter().flat_map(|p| &p.logs).flat_map(|l| &l.acked).collect();
    acked.sort_by_key(|(epoch, _)| *epoch);
    let mut replay = (*fleet.graph).clone();
    for (_, batch) in acked {
        replay = ligra_graph::apply_batch(&replay, batch).map_err(|e| e.to_string())?.0;
    }
    let replay = replay.compacted();
    let mut c = Client::connect(fleet.front())?;
    if !process::ok(c.call("{\"op\":\"compact\"}\n")?) {
        // A background compaction may hold the slot; it ends on its own.
        std::thread::sleep(Duration::from_millis(200));
        if !process::ok(c.call("{\"op\":\"compact\"}\n")?) {
            return Ok(false);
        }
    }
    let mut oracle = WireOracle::new(&replay);
    let bfs = read_once(&mut c, 0, source, None)?;
    let cc = read_once(&mut c, 1, 0, None)?;
    let (reached, depth) = oracle.bfs(source);
    Ok(bfs.ok
        && cc.ok
        && bfs.answer == (reached as f64, f64::from(depth))
        && cc.answer.0 == oracle.components() as f64)
}

/// Median round trip of `ping` in microseconds: the cheapest op there is.
fn rtt_floor_us(addr: SocketAddr) -> Result<f64, String> {
    let mut c = Client::connect(addr)?;
    let mut us = Vec::with_capacity(500);
    for _ in 0..500 {
        let t = Instant::now();
        c.call("{\"op\":\"ping\"}\n")?;
        us.push(ns(t.elapsed()) as f64 / 1e3);
    }
    Ok(median(&us))
}

fn stats_of(addr: SocketAddr, op: &str) -> Result<String, String> {
    Client::connect(addr)?.call(&format!("{{\"op\":\"{op}\"}}\n")).map(str::to_string)
}

/// Runs one serving workload.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let one_cpu = OneCpu::pin(); // servers and client threads inherit it
    let dir = ScratchDir::create(&cfg.out_dir, cfg.workload.name())?;
    let mut setups = Vec::new();
    let mut fleet = None;
    for rep in 0..cfg.scale.setup_reps(cfg.workload) {
        drop(fleet.take()); // the previous fleet's teardown is not set-up
        let (s, f) = timed(|| set_up(cfg, &dir, rep));
        setups.push(s);
        fleet = Some(f?);
    }
    let fleet = fleet.expect("setup_reps is at least 1");
    let mut streams: Vec<Stream> = (0..CLIENTS as u64).map(|c| fleet.stream(cfg, c)).collect();
    let read_only = cfg.workload != Workload::ServeRw;
    let check_source = streams[0].hot()[0];

    let mut out = Outcome::default();
    out.stamp_graph(&fleet.graph);
    out.stamps.push(("clients".into(), CLIENTS.to_string()));
    out.stamps.push(("pinned_to_one_cpu".into(), one_cpu.pinned().to_string()));
    // Memory of the loaded, warmed servers. Taken before the traffic on
    // purpose: the engine keeps every finished query's result, so memory
    // under traffic grows with operations completed and would read a
    // throughput gain as a regression; that growth is the per-layer
    // `serve.rss_growth_kb_per_op`.
    let rss = fleet.peak_rss_mb()?;
    if !cfg.trace {
        let phase = run_phase(fleet.front(), &mut streams, cfg.seconds, None)?;
        out.attempted = phase.attempted();
        out.failed = phase.samples().filter(|s| !s.ok).count() as u64;
        if read_only {
            out.failed += wrong_answers(&phase, &mut WireOracle::new(&fleet.graph));
        } else {
            out.attempted += 1;
            out.failed += u64::from(!final_state_matches(&fleet, &[&phase], check_source)?);
        }
        out.metrics.insert("setup_s", decile_low(&setups));
        out.metrics.insert("qps", phase.qps());
        for (kind, key) in ["bfs_ms", "cc_ms", "pagerank_ms", "bc_ms"].into_iter().enumerate() {
            let (ms, samples) = phase.latency_ms(kind);
            out.metrics.insert(key, ms);
            out.samples.push((key.to_string(), samples));
        }
        out.metrics.insert("peak_rss_mb", rss);
        fleet.shutdown()?;
        return Ok(out);
    }

    // Traced run. Idle round-trip floors first, then the same traffic
    // untraced and traced, then (routed only) the same stream straight at
    // one replica; server counters are read as deltas around the phases.
    let m = &mut out.metrics;
    let replica0 = fleet.replicas[0].addr;
    let serve_floor = rtt_floor_us(replica0)?;
    m.insert("serve.rtt_floor_us", serve_floor);
    let front_floor =
        if fleet.router.is_some() { rtt_floor_us(fleet.front())? } else { serve_floor };
    let before: Vec<String> =
        fleet.replicas.iter().map(|r| stats_of(r.addr, "stats")).collect::<Result<_, _>>()?;
    let plain = run_phase(fleet.front(), &mut streams, cfg.seconds * 0.3, None)?;
    let origin = Instant::now();
    let mut tracers: Vec<Tracer> =
        (0..CLIENTS as u64).map(|c| Tracer::new(origin, c + 1)).collect();
    let traced = run_phase(fleet.front(), &mut streams, cfg.seconds * 0.3, Some(&mut tracers))?;
    let after: Vec<String> =
        fleet.replicas.iter().map(|r| stats_of(r.addr, "stats")).collect::<Result<_, _>>()?;
    let delta = |key: &str| -> Vec<f64> {
        before
            .iter()
            .zip(&after)
            .map(|(b, a)| num(a, key).unwrap_or(0.0) - num(b, key).unwrap_or(0.0))
            .collect()
    };
    let total = |key: &str| delta(key).iter().sum::<f64>();

    if let Some(router) = &fleet.router {
        m.insert("route.rtt_floor_us", front_floor);
        m.insert("route.load_s", fleet.load_s);
        let per_backend = delta("submitted");
        m.insert(
            "route.backend_balance",
            per_backend.iter().copied().fold(f64::INFINITY, f64::min) / max(&per_backend).max(1.0),
        );
        let rs = stats_of(router.addr, "route-stats")?;
        for (key, field) in [
            ("route.failovers", "failovers"),
            ("route.retries", "retries"),
            ("route.sheds", "sheds"),
        ] {
            m.insert(key, num(&rs, field).unwrap_or(0.0));
        }
        let mut direct_streams: Vec<Stream> =
            (0..CLIENTS as u64).map(|c| fleet.stream(cfg, c)).collect();
        let direct = run_phase(replica0, &mut direct_streams, cfg.seconds * 0.15, None)?;
        m.insert(
            "route.hop_p50_us",
            (median(&plain.ms_of(|s| s.kind != WRITE))
                - median(&direct.ms_of(|s| s.kind != WRITE)))
                * 1e3,
        );
        out.attempted += direct.attempted();
        out.failed += direct.samples().filter(|s| !s.ok).count() as u64;
    }

    out.attempted += plain.attempted() + traced.attempted();
    out.failed += plain.samples().chain(traced.samples()).filter(|s| !s.ok).count() as u64;
    if read_only {
        let mut oracle = WireOracle::new(&fleet.graph);
        out.failed += wrong_answers(&plain, &mut oracle) + wrong_answers(&traced, &mut oracle);
    } else {
        out.attempted += 1;
        out.failed += u64::from(!final_state_matches(&fleet, &[&plain, &traced], check_source)?);
    }

    // serve: what the client saw.
    let reads = plain.ms_of(|s| s.kind != WRITE);
    let writes = plain.ms_of(|s| s.kind == WRITE);
    m.insert("serve.read_p50_ms", median(&reads));
    m.insert("serve.read_p95_ms", percentile_or_zero(&reads, 0.95));
    m.insert("serve.read_p99_ms", percentile_or_zero(&reads, 0.99));
    m.insert("serve.read_max_ms", max(&reads));
    m.insert("serve.write_p50_ms", median(&writes));
    m.insert("serve.write_p95_ms", percentile_or_zero(&writes, 0.95));
    m.insert(
        "serve.rss_growth_kb_per_op",
        (fleet.peak_rss_mb()? - rss) * 1024.0
            / (plain.attempted() + traced.attempted()).max(1) as f64,
    );
    out.samples.push(("serve.read_p50_ms".into(), reads.len() as u64));
    out.samples.push(("serve.write_p50_ms".into(), writes.len() as u64));
    let traced_reads: Vec<&Sample> =
        traced.samples().filter(|s| s.ok && s.server.is_some()).collect();
    let us_of = |f: &dyn Fn(&Sample) -> u64| -> Vec<f64> {
        traced_reads.iter().map(|s| f(s) as f64 / 1e3).collect()
    };
    m.insert("serve.submit_us", median(&us_of(&|s| s.submit_ns)));
    m.insert("serve.wait_us", median(&us_of(&|s| s.total_ns - s.submit_ns)));
    // scheduler, as the server's own spans report it for this traffic.
    let queue_wait = us_of(&|s| s.server.map_or(0, |x| x.0));
    m.insert("scheduler.queue_wait_p50_us", median(&queue_wait));
    m.insert("scheduler.queue_wait_p95_us", percentile_or_zero(&queue_wait, 0.95));
    m.insert("scheduler.run_p50_us", median(&us_of(&|s| s.server.map_or(0, |x| x.1))));
    m.insert("scheduler.rejected", total("rejected"));
    m.insert("scheduler.shed", total("sheds") + total("queue_deadline_sheds"));
    // mutate, as the server counted it over both phases.
    m.insert("mutate.compactions", total("compactions"));
    m.insert("mutate.epochs_published", total("epoch"));
    m.insert(
        "mutate.writes_shed",
        (plain.logs.iter().chain(&traced.logs).map(|l| l.writes_shed).sum::<u64>()) as f64,
    );
    // trace: what tracing cost, and what no layer accounts for. A read
    // is two round trips (each at least the front door's idle floor)
    // plus the server's queue wait and run time.
    m.insert("trace.overhead_share", plain.qps() / traced.qps() - 1.0);
    let unattributed: Vec<f64> = traced_reads
        .iter()
        .map(|s| {
            let (qw, run, _) = s.server.expect("filtered on server spans");
            s.total_ns as f64 / 1e3 - (qw + run) as f64 / 1e3 - 2.0 * front_floor
        })
        .collect();
    m.insert(
        "trace.unattributed_share",
        median(&unattributed) / median(&us_of(&|s| s.total_ns)).max(f64::MIN_POSITIVE),
    );

    // graph / library layers on the serving graph, then the engine
    // layers in-process on the same graph and the same streams.
    m.insert("graph.build_s", fleet.build_s);
    m.insert("graph.load_s", timed(|| ligra_graph::io::load_graph(&fleet.graph_path, true)).0);
    let graph = Arc::clone(&fleet.graph);
    fleet.shutdown()?;
    drop(one_cpu); // the in-process probes run as the library's users do
    layer_probes(&graph, check_source, cfg.seed, m);
    engine_probes::run(cfg, &graph, m)?;
    let inproc = m.get("scheduler.inproc_p50_us").copied().unwrap_or(0.0);
    m.insert("serve.wire_overhead_p50_us", median(&reads) * 1e3 - inproc);

    let mut tracer = Tracer::new(origin, 0);
    tracers.into_iter().for_each(|t| tracer.absorb(t));
    out.tracer = Some(tracer);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(samples: &[(usize, bool, u64)]) -> Phase {
        let samples = samples
            .iter()
            .map(|&(kind, hit, total_ns)| Sample {
                kind,
                source: 0,
                ok: true,
                hit,
                total_ns,
                submit_ns: 0,
                answer: (0.0, 0.0),
                server: None,
            })
            .collect();
        Phase { logs: vec![Log { samples, ..Log::default() }] }
    }

    #[test]
    fn latency_is_taken_inside_one_population() {
        // BFS: 3 hits beside 7 executed queries; CC: hits but for one miss
        // in twenty.
        let mut samples = vec![(0, true, 40_000); 3];
        samples.extend((1..=7).map(|i| (0, false, 200_000 + i * 1_000)));
        samples.extend(vec![(1, true, 50_000); 19]);
        samples.push((1, false, 6_000_000));
        let p = phase(&samples);
        assert_eq!(p.latency_ms(0), (0.201, 7), "the executed BFS, not the mixture");
        assert_eq!(p.latency_ms(1), (0.05, 19), "CC is all but never executed");
    }

    #[test]
    fn qps_prices_every_operation_at_its_populations_low_decile() {
        // 10 hits at 1 ms, one of them disturbed, and 10 executed at 3 ms.
        let mut samples = vec![(0, true, 1_000_000); 9];
        samples.push((0, true, 50_000_000));
        samples.extend(vec![(0, false, 3_000_000); 10]);
        let expected = CLIENTS as f64 * 20.0 / (10.0 * 0.001 + 10.0 * 0.003);
        assert!((phase(&samples).qps() - expected).abs() < 1e-9);
    }
}
