//! The benchmark's vocabulary: workloads, scales and the metric
//! catalogue. `BENCHMARK.json` at the repo root declares the same names;
//! the self-tests fail if the two drift apart.

/// One of the five named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Library calls on an rMat graph: dense/pull rounds carry the edges.
    AnalyticsRmat,
    /// Library calls on a 3d grid: hundreds of small sparse rounds.
    AnalyticsGrid,
    /// Point queries against one `ligra-serve` over loopback.
    ServePoint,
    /// The same stream through `ligra-route` fronting two replicas.
    RoutePoint,
    /// Reads beside writes against one `ligra-serve`.
    ServeRw,
}

impl Workload {
    /// Every workload, in the order the suite runs them.
    pub const ALL: [Workload; 5] = [
        Workload::AnalyticsRmat,
        Workload::AnalyticsGrid,
        Workload::ServePoint,
        Workload::RoutePoint,
        Workload::ServeRw,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AnalyticsRmat => "analytics_rmat",
            Workload::AnalyticsGrid => "analytics_grid",
            Workload::ServePoint => "serve_point",
            Workload::RoutePoint => "route_point",
            Workload::ServeRw => "serve_rw",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the workload calls the library in-process (no server).
    pub fn is_analytics(self) -> bool {
        matches!(self, Workload::AnalyticsRmat | Workload::AnalyticsGrid)
    }
}

/// Input sizes. `full` is what `BENCHMARK.json` measures; `smoke` exists
/// only so the self-tests finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// `true` for the self-test scale.
    pub smoke: bool,
}

impl Scale {
    /// rMat `log_n` of `analytics_rmat`.
    pub fn analytics_log_n(self) -> u32 {
        if self.smoke {
            12
        } else {
            20
        }
    }

    /// Side of the 3d grid of `analytics_grid`.
    pub fn grid_side(self) -> usize {
        if self.smoke {
            16
        } else {
            128
        }
    }

    /// rMat `log_n` of the serving workloads' graph.
    pub fn serving_log_n(self, w: Workload) -> u32 {
        match (w, self.smoke) {
            (Workload::ServeRw, false) => 16,
            (Workload::ServeRw, true) => 12,
            (_, false) => 12,
            (_, true) => 10,
        }
    }

    /// How many times a run sets the workload up (`setup_s` is the low
    /// decile, see `stats::decile_low`). The large analytics graphs cost
    /// seconds per build, so they get fewer repetitions than the
    /// millisecond-scale serving set-ups, whose spawn/connect noise needs
    /// many.
    pub fn setup_reps(self, w: Workload) -> usize {
        if self.smoke {
            return 2;
        }
        match w {
            Workload::AnalyticsRmat => 1,
            Workload::AnalyticsGrid => 3,
            Workload::ServeRw => 5,
            Workload::ServePoint | Workload::RoutePoint => 9,
        }
    }
}

/// PageRank iterations per call, everywhere.
pub const PAGERANK_ITERS: usize = 10;
/// Size of the hot source set of the point workloads.
pub const HOT_SET: usize = 16;
/// Closed-loop client connections of the serving workloads. One: a read
/// is a chain of hand-overs (client → connection thread → worker → back,
/// plus the router's on `route_point`), so one connection keeps one CPU
/// busy, and the serving workloads run on one (`process::OneCpu`). With
/// two, six threads competed for the sandbox's two CPUs and the
/// sub-millisecond latencies measured the kernel's scheduler: 25–32 %
/// inter-quartile spread in the driver's A/A check, against 2–9 % now.
pub const CLIENTS: usize = 1;
/// `ligra-serve --workers`.
pub const WORKERS: usize = 2;
/// `ligra-serve --cache`: large enough that a hot (kind, source) pair is
/// re-touched before the fresh misses between two touches evict it.
pub const CACHE_ENTRIES: usize = 256;
/// Arcs added and arcs deleted by one `mutate` (8 in total).
pub const BATCH_ADDS: usize = 4;
/// See [`BATCH_ADDS`].
pub const BATCH_DELS: usize = 4;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: measured untraced, on every workload, with a
/// regression bound (share of the parent's median).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Relative regression bound.
    pub bound: f64,
}

/// The end-to-end metrics. Every one is defined on every workload: a
/// BFS/CC/PageRank/BC "solution" is a library call on the analytics
/// workloads and a submit→terminal-`wait` exchange on the serving ones.
///
/// The timing bounds are the contract's maximum because the sandbox is
/// noisy: over ten seeds the inter-quartile spread is up to 9 % and a
/// busy host moves the medians by up to 6 % (README, "The bounds").
/// Memory repeats within 4 %.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "qps", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "bfs_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "cc_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "pagerank_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "bc_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.10 },
];

/// A per-layer metric: measured in the traced run; 0 on a workload whose
/// traffic never enters the layer.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name; the prefix is the module.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Whether the value is a count that repeats exactly for one seed.
    pub exact: bool,
    /// The (end-to-end metric, workload) pair this metric should move;
    /// `("-", "-")` for a yardstick that moves nothing.
    pub moves: (&'static str, &'static str),
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    exact: bool,
    moves: (&'static str, &'static str),
) -> PerLayer {
    PerLayer { name, unit, better, exact, moves }
}

use Better::{Higher as H, Lower as L};

/// The per-layer metrics, grouped by module.
pub const PER_LAYER: [PerLayer; 78] = [
    // parallel
    pl("parallel.pool_is_parallel", "count", H, true, ("bfs_ms", "analytics_rmat")),
    pl("parallel.pool_threads", "count", H, true, ("bfs_ms", "analytics_rmat")),
    pl("parallel.scan_melem_per_s", "Melem/s", H, false, ("bfs_ms", "analytics_grid")),
    pl("parallel.pack_melem_per_s", "Melem/s", H, false, ("bfs_ms", "analytics_grid")),
    // graph
    pl("graph.build_s", "s", L, false, ("setup_s", "analytics_rmat")),
    pl("graph.load_s", "s", L, false, ("setup_s", "serve_rw")),
    pl("graph.csr_bytes", "bytes", L, true, ("peak_rss_mb", "analytics_rmat")),
    pl("graph.llc_bytes", "bytes", H, true, ("-", "-")),
    pl("graph.apply_batch_us", "us", L, false, ("qps", "serve_rw")),
    pl("graph.compact_s", "s", L, false, ("qps", "serve_rw")),
    // core
    pl("core.bfs_forced_s.sparse", "s", L, false, ("bfs_ms", "analytics_grid")),
    pl("core.bfs_forced_s.dense", "s", L, false, ("bfs_ms", "analytics_rmat")),
    pl("core.bfs_forced_s.dense_forward", "s", L, false, ("bfs_ms", "analytics_rmat")),
    pl("core.bfs_forced_s.partitioned", "s", L, false, ("bfs_ms", "analytics_rmat")),
    pl("core.ns_per_edge.sparse", "ns", L, false, ("bfs_ms", "analytics_grid")),
    pl("core.ns_per_edge.dense", "ns", L, false, ("pagerank_ms", "analytics_rmat")),
    pl("core.ns_per_edge.dense_forward", "ns", L, false, ("bfs_ms", "analytics_rmat")),
    pl("core.ns_per_edge.partitioned", "ns", L, false, ("pagerank_ms", "analytics_rmat")),
    pl("core.auto_regret", "ratio", L, false, ("bfs_ms", "analytics_rmat")),
    pl("core.rounds.bfs", "count", L, true, ("bfs_ms", "analytics_grid")),
    pl("core.edges_scanned.bfs", "count", L, true, ("bfs_ms", "analytics_rmat")),
    pl("core.dense_round_share", "ratio", H, true, ("bfs_ms", "analytics_rmat")),
    pl("core.round_p50_us", "us", L, false, ("bfs_ms", "analytics_grid")),
    pl("core.cas_win_ratio", "ratio", H, false, ("bfs_ms", "analytics_grid")),
    pl("core.frontier_bytes", "bytes", L, true, ("bfs_ms", "analytics_grid")),
    pl("core.scatter_bytes", "bytes", L, true, ("bfs_ms", "analytics_rmat")),
    pl("core.vertex_map_ns_per_vertex", "ns", L, false, ("pagerank_ms", "analytics_grid")),
    // apps
    pl("apps.pagerank_iter_ms", "ms", L, false, ("pagerank_ms", "analytics_rmat")),
    pl("apps.cc_rounds", "count", L, true, ("cc_ms", "analytics_grid")),
    pl("apps.bc_rounds", "count", L, true, ("bc_ms", "analytics_grid")),
    pl("apps.seq_bfs_s", "s", L, false, ("-", "-")),
    pl("apps.seq_cc_s", "s", L, false, ("-", "-")),
    pl("apps.seq_pagerank_s", "s", L, false, ("-", "-")),
    // engine.wire
    pl("wire.parse_ns", "ns", L, false, ("qps", "serve_point")),
    pl("wire.serialize_ns", "ns", L, false, ("qps", "serve_point")),
    pl("wire.request_bytes", "bytes", L, true, ("qps", "route_point")),
    pl("wire.response_bytes", "bytes", L, true, ("qps", "route_point")),
    // engine.scheduler
    pl("scheduler.inproc_p50_us", "us", L, false, ("bfs_ms", "serve_point")),
    pl("scheduler.inproc_qps_c1", "1/s", H, false, ("qps", "serve_point")),
    pl("scheduler.inproc_qps_c2", "1/s", H, false, ("qps", "serve_point")),
    pl("scheduler.queue_wait_p50_us", "us", L, false, ("bfs_ms", "serve_point")),
    pl("scheduler.queue_wait_p95_us", "us", L, false, ("pagerank_ms", "serve_rw")),
    pl("scheduler.run_p50_us", "us", L, false, ("bfs_ms", "serve_rw")),
    pl("scheduler.overhead_p50_us", "us", L, false, ("qps", "serve_point")),
    pl("scheduler.rejected", "count", L, false, ("qps", "serve_rw")),
    pl("scheduler.shed", "count", L, false, ("qps", "serve_rw")),
    // engine.query
    pl("query.run_p50_us", "us", L, false, ("bfs_ms", "serve_rw")),
    // engine.cache
    pl("cache.hit_ratio", "ratio", H, true, ("qps", "serve_point")),
    pl("cache.hit_p50_us", "us", L, false, ("cc_ms", "serve_point")),
    pl("cache.miss_p50_us", "us", L, false, ("bfs_ms", "serve_point")),
    pl("cache.evictions", "count", L, true, ("qps", "serve_point")),
    // engine.mutate
    pl("mutate.apply_p50_us", "us", L, false, ("qps", "serve_rw")),
    pl("mutate.apply_p95_us", "us", L, false, ("qps", "serve_rw")),
    pl("mutate.compact_s", "s", L, false, ("bfs_ms", "serve_rw")),
    pl("mutate.compactions", "count", H, false, ("bfs_ms", "serve_rw")),
    pl("mutate.epochs_published", "count", H, false, ("cc_ms", "serve_rw")),
    pl("mutate.overlay_read_slowdown", "ratio", L, false, ("bfs_ms", "serve_rw")),
    pl("mutate.writes_shed", "count", L, false, ("qps", "serve_rw")),
    // serve (binary), timed at the client
    pl("serve.rtt_floor_us", "us", L, false, ("qps", "serve_point")),
    pl("serve.submit_us", "us", L, false, ("bfs_ms", "serve_point")),
    pl("serve.wait_us", "us", L, false, ("bfs_ms", "serve_point")),
    pl("serve.wire_overhead_p50_us", "us", L, false, ("bfs_ms", "serve_point")),
    pl("serve.read_p50_ms", "ms", L, false, ("bfs_ms", "serve_point")),
    pl("serve.read_p95_ms", "ms", L, false, ("pagerank_ms", "serve_rw")),
    pl("serve.read_p99_ms", "ms", L, false, ("pagerank_ms", "serve_rw")),
    pl("serve.read_max_ms", "ms", L, false, ("pagerank_ms", "serve_rw")),
    pl("serve.write_p50_ms", "ms", L, false, ("qps", "serve_rw")),
    pl("serve.write_p95_ms", "ms", L, false, ("qps", "serve_rw")),
    pl("serve.rss_growth_kb_per_op", "KB", L, false, ("peak_rss_mb", "serve_point")),
    // engine.route
    pl("route.hop_p50_us", "us", L, false, ("bfs_ms", "route_point")),
    pl("route.rtt_floor_us", "us", L, false, ("qps", "route_point")),
    pl("route.load_s", "s", L, false, ("setup_s", "route_point")),
    pl("route.backend_balance", "ratio", H, false, ("qps", "route_point")),
    pl("route.failovers", "count", L, false, ("qps", "route_point")),
    pl("route.retries", "count", L, false, ("qps", "route_point")),
    pl("route.sheds", "count", L, false, ("qps", "route_point")),
    // trace: the honesty checks
    pl("trace.overhead_share", "ratio", L, false, ("-", "-")),
    pl("trace.unattributed_share", "ratio", L, false, ("-", "-")),
];

/// One line per workload saying why it exists (`BENCHMARK.json` `why`).
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::AnalyticsRmat => {
            "library BFS/CC/PageRank/BC on rMat log_n=20: low diameter, dense pull rounds carry almost all edges, so core edgeMap does the work and engine/wire/route do none"
        }
        Workload::AnalyticsGrid => {
            "same calls on a 128^3 grid: ~190 small sparse push rounds per BFS, so scan/pack, frontier conversion and per-round fixed cost dominate"
        }
        Workload::ServePoint => {
            "ligra-serve over loopback, rMat log_n=12, 1 closed-loop connection, 25% hot sources: kernels take microseconds, so wire, scheduler, cache and the accept loop do the work"
        }
        Workload::RoutePoint => {
            "the serve_point stream through ligra-route over 2 replicas: adds only the route hop, so the difference to serve_point is the router's cost"
        }
        Workload::ServeRw => {
            "ligra-serve, rMat log_n=16, 20% mutate beside BFS/CC/BC/PageRank reads: epochs cool the cache, readers traverse the overlay, compaction runs behind"
        }
    }
}

/// `run_seconds` of `BENCHMARK.json`: the length of one measured phase.
pub const RUN_SECONDS: u64 = 18;

/// The text of `BENCHMARK.json`, generated from this catalogue
/// (`ligra-bench spec`), so the declarations cannot drift from the code.
pub fn benchmark_json() -> String {
    use crate::json::{number, quote};
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", quote(w.name()), quote(why(*w))))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.name()),
                number(m.bound)
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.name())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}
