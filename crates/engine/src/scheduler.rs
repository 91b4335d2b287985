//! The engine proper: a bounded admission queue feeding a fixed pool of
//! panic-isolated worker threads, with per-query deadlines, cooperative
//! cancellation, and an epoch-keyed result cache.
//!
//! Design points:
//!
//! * **Admission control.** `submit` rejects (`QueueFull`) instead of
//!   blocking when the queue is at capacity — a serving front-end should
//!   shed load at the edge, not accumulate unbounded backlog. Only the
//!   `workers` running jobs hold per-vertex state (a queued job holds a
//!   snapshot `Arc` and its query), so the worker count is what bounds
//!   query memory.
//! * **Snapshot binding.** The snapshot is captured at submit time, so a
//!   graph installed mid-flight never changes what an admitted query
//!   computes on; its epoch keys the cache entry.
//! * **Cancellation and shedding.** Each query gets a [`CancelToken`]
//!   (optionally with a deadline). Workers pre-check it at dequeue: an
//!   explicitly cancelled query is retired as `Cancelled`, and a query
//!   whose queue wait already consumed its deadline is retired as
//!   `Shed` without burning a worker. A running query yields at the
//!   next edgeMap round boundary. Partial results are discarded, never
//!   cached.
//! * **Panic isolation.** Query execution runs under `catch_unwind`: a
//!   panicking app (or injected fault) finishes its query as
//!   [`QueryStatus::Panicked`] with a typed
//!   [`QueryError::Panicked`](crate::QueryError::Panicked) instead of
//!   killing the worker. Workers self-heal, the snapshot epoch stays
//!   valid, and every lock acquisition recovers from poisoning (a
//!   poisoned scheduler mutex only means some other worker panicked
//!   mid-update of plain data the scheduler re-derives).
//! * **Spans.** Every query leaves one [`QuerySpan`] with queue wait,
//!   run time, edgeMap rounds, and dispatch retries — the observability
//!   contract the serving layer's `trace` op exposes.
//! * **One bounded job table.** Unfinished jobs live in a map; a
//!   terminal job leaves it for a ring of the last [`RETIRED_CAPACITY`]
//!   light [`QueryReport`]s (status, span, reply summary, error — no
//!   per-vertex data), so a long-lived server's memory does not grow
//!   with the queries it has answered. An id that has left the ring
//!   answers `expired`.

use crate::cache::ResultCache;
use crate::error::{classify_panic, QueryError};
use crate::lockdep::{tracked_lock, TrackedGuard};
use crate::metrics::registry::N_KINDS;
use crate::metrics::{mix64, HistogramSnapshot, MetricsRegistry};
use crate::query::{Answer, Query, QueryOutput, Summary};
use crate::snapshot::{GraphStore, Snapshot};
use crate::span::{fill_span_buckets, QuerySpan, QueryStatus, TeeRecorder};
use ligra::{CancelToken, EdgeMapOptions, FaultPlan, FaultPoint};
use ligra_graph::{Graph, WeightedGraph};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// How many times a transient fault at the `engine.dispatch` point may
/// re-enqueue one job before it fails for good.
#[cfg(feature = "fault-inject")]
const MAX_DISPATCH_RETRIES: u64 = 2;

/// Locks a scheduler mutex under a named lock site, recovering from
/// poisoning. A worker panic is caught and contained per-query; every
/// structure these mutexes guard (queue, cache, job table) is
/// left consistent between individual operations, so the poison flag
/// carries no information the scheduler needs. The site name feeds the
/// runtime lock-order oracle in `lock-check` builds (DESIGN.md §15).
pub(crate) fn lock<'a, T>(m: &'a Mutex<T>, site: &'static str) -> TrackedGuard<'a, T> {
    tracked_lock(m, site)
}

/// Engine tunables.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads executing queries (the concurrency cap).
    pub workers: usize,
    /// Maximum queries waiting for a worker before `submit` rejects.
    pub queue_capacity: usize,
    /// Result-cache entries.
    pub cache_capacity: usize,
    /// Deterministic fault-injection schedule. Checked at the
    /// `engine.dispatch`, `engine.cache`, and `edgemap.round` points
    /// only in builds with the `fault-inject` feature; inert otherwise.
    pub fault: Option<Arc<FaultPlan>>,
    /// Directory for per-query kernel traces. When set, every executed
    /// query writes its full per-round trace as
    /// `query-<trace_id>.jsonl` here, joining the engine span (which
    /// carries the same `trace_id`) to its edgeMap rows. `None`
    /// disables row collection entirely (the spans still get O(1)
    /// round counts).
    pub trace_dir: Option<PathBuf>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 32,
            fault: None,
            trace_dir: None,
        }
    }
}

/// Why `submit` refused a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// No graph has been installed yet.
    NoGraph,
    /// The admission queue is at capacity; retry later.
    QueueFull,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::NoGraph => f.write_str("no graph installed"),
            SubmitError::QueueFull => f.write_str("admission queue full"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One point-in-time sample of everything the engine measures: the
/// registry's instruments folded, the cache counters, the fault plan's
/// injection counts and the static configuration. The `stats` reply and
/// the Prometheus exposition are both rendered from it through
/// [`crate::metrics::FAMILIES`].
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Current snapshot epoch (`None` before the first install).
    pub epoch: Option<u64>,
    /// Configured worker count.
    pub workers: u64,
    /// Configured admission-queue capacity.
    pub queue_capacity: u64,
    /// Queries waiting for a worker right now.
    pub queued: u64,
    /// Queries executing right now.
    pub running: u64,
    /// Queries accepted (including cache hits).
    pub submitted: u64,
    /// Queries rejected by admission control (queue at capacity).
    pub rejected: u64,
    /// Queries finished with a result.
    pub completed: u64,
    /// Queries cancelled before or during execution.
    pub cancelled: u64,
    /// Queries that failed validation or hit an injected transient
    /// error.
    pub failed: u64,
    /// Queries that panicked and were contained by a worker.
    pub panics: u64,
    /// Jobs re-enqueued after a transient dispatch fault.
    pub retries: u64,
    /// Queries retired at dequeue because their queue wait had already
    /// consumed the deadline.
    pub queue_deadline_sheds: u64,
    /// Nanoseconds workers spent executing jobs.
    pub worker_busy_ns: u64,
    /// Nanoseconds workers spent parked waiting for work.
    pub worker_idle_ns: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Result-cache LRU evictions.
    pub cache_evictions: u64,
    /// Result-cache entries held.
    pub cache_len: u64,
    /// Queue wait per query kind, in [`Query::KIND_NAMES`] order.
    /// Quantiles are bucket math over these (bucket upper bound clamped
    /// to the observed max — what the exposition's consumers compute).
    pub queue_wait: [HistogramSnapshot; N_KINDS],
    /// Run time per query kind, same order.
    pub run_time: [HistogramSnapshot; N_KINDS],
    /// Mutation batches applied to the live graph.
    pub mutation_batches: u64,
    /// Arcs inserted by mutation batches.
    pub mutation_edges_added: u64,
    /// Arc copies removed by mutation batches.
    pub mutation_edges_deleted: u64,
    /// Arcs currently held in the serving snapshot's delta overlay.
    pub overlay_edges: u64,
    /// Vertices currently touched by the serving snapshot's overlay.
    pub overlay_vertices: u64,
    /// Background compactions that installed a clean CSR.
    pub compactions: u64,
    /// Compactions that failed or panicked (store left untouched).
    pub compaction_failures: u64,
    /// Wall clock of each successful compaction, nanoseconds.
    pub compaction_time: HistogramSnapshot,
    /// Faults fired, one `(point name, count)` per fault point (all
    /// zero when no plan is armed).
    pub fault_injections: Vec<(&'static str, u64)>,
    /// Request lines the wire reader received.
    pub wire_requests: u64,
    /// Bytes the wire reader read.
    pub wire_bytes: u64,
    /// Request lines rejected as malformed.
    pub wire_malformed: u64,
}

struct JobState {
    status: QueryStatus,
    answer: Option<Answer>,
    error: Option<QueryError>,
    span: Option<QuerySpan>,
}

struct Job {
    id: u64,
    /// Correlation id joining span, wire responses, and the on-disk
    /// kernel trace (see [`EngineConfig::trace_dir`]).
    trace_id: String,
    query: Query,
    snapshot: Arc<Snapshot>,
    token: CancelToken,
    submitted: Instant,
    /// Dispatch-fault re-enqueues so far.
    retries: AtomicU64,
    state: Mutex<JobState>,
    done: Condvar,
}

impl Job {
    fn set_status(&self, status: QueryStatus) {
        lock(&self.state, "job.state").status = status;
    }

    fn finish(
        &self,
        status: QueryStatus,
        answer: Option<Answer>,
        error: Option<QueryError>,
        span: QuerySpan,
    ) {
        let mut st = lock(&self.state, "job.state");
        st.status = status;
        st.answer = answer;
        st.error = error;
        st.span = Some(span);
        drop(st);
        self.done.notify_all();
    }
}

/// Keeps only `[A-Za-z0-9_-]` and caps length at 64: trace ids name
/// files under the trace dir and embed raw (unescaped) in span JSON,
/// so everything else is dropped rather than quoted.
fn sanitize_trace_id(raw: &str) -> String {
    raw.chars().filter(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '-').take(64).collect()
}

/// Retired-record ring size: `poll`/`wait`/`span`/`trace` keep working
/// for the last this-many finished queries.
pub const RETIRED_CAPACITY: usize = 1024;

/// What the serving layer reports about one query. Holds no per-vertex
/// data, so the ring of retired reports stays small whatever the graph.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// Engine-assigned id.
    pub id: u64,
    /// The query's correlation id.
    pub trace_id: String,
    /// Status when the report was taken.
    pub status: QueryStatus,
    /// The lifecycle span, once terminal.
    pub span: Option<QuerySpan>,
    /// The reply summary, once `Done`.
    pub summary: Option<Summary>,
    /// The typed error, once `Failed` or `Panicked`.
    pub error: Option<QueryError>,
}

/// Every job the engine still answers for: unfinished ones by id, and
/// the reports of the last [`RETIRED_CAPACITY`] finished ones, oldest
/// first.
struct JobTable {
    live: HashMap<u64, Arc<Job>>,
    retired: VecDeque<QueryReport>,
}

impl JobTable {
    /// Moves a terminal job's report into the ring, dropping the oldest
    /// report once the ring is full.
    fn retire(&mut self, report: QueryReport) {
        self.live.remove(&report.id);
        if self.retired.len() == RETIRED_CAPACITY {
            self.retired.pop_front();
        }
        self.retired.push_back(report);
    }
}

/// Why [`Engine::report`] found nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupError {
    /// The engine never issued this id.
    Unknown(u64),
    /// The query finished and its report has since left the ring.
    Expired(u64),
}

impl std::fmt::Display for LookupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LookupError::Unknown(id) => write!(f, "unknown id {id}"),
            LookupError::Expired(id) => write!(f, "expired id {id}"),
        }
    }
}

impl std::error::Error for LookupError {}

struct Shared {
    config: EngineConfig,
    store: GraphStore,
    queue: Mutex<VecDeque<Arc<Job>>>,
    queue_cv: Condvar,
    cache: Mutex<ResultCache>,
    jobs: Mutex<JobTable>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    metrics: Arc<MetricsRegistry>,
    /// Startup entropy mixed into generated trace ids, so ids from
    /// different engine processes don't collide on shared trace dirs.
    trace_nonce: u64,
}

/// Handle to one submitted query.
#[derive(Clone)]
pub struct QueryHandle {
    job: Arc<Job>,
}

impl std::fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryHandle")
            .field("id", &self.job.id)
            .field("status", &self.status())
            .finish()
    }
}

impl QueryHandle {
    /// Engine-assigned id.
    pub fn id(&self) -> u64 {
        self.job.id
    }

    /// The query's correlation id (client-supplied or generated).
    pub fn trace_id(&self) -> &str {
        &self.job.trace_id
    }

    /// Current status.
    pub fn status(&self) -> QueryStatus {
        lock(&self.job.state, "job.state").status
    }

    /// Requests cooperative cancellation; the query yields at its next
    /// round boundary (or is retired at dequeue if still queued).
    pub fn cancel(&self) {
        self.job.token.cancel();
    }

    /// Blocks until the query reaches a terminal state.
    pub fn wait(&self) -> QueryStatus {
        let mut st = lock(&self.job.state, "job.state");
        while !st.status.is_terminal() {
            st = st.wait(&self.job.done);
        }
        st.status
    }

    /// Blocks up to `timeout`; `None` if still not terminal.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<QueryStatus> {
        let deadline = Instant::now() + timeout;
        let mut st = lock(&self.job.state, "job.state");
        while !st.status.is_terminal() {
            let left = deadline.checked_duration_since(Instant::now())?;
            let (guard, res) = st.wait_timeout(&self.job.done, left);
            st = guard;
            if res.timed_out() && !st.status.is_terminal() {
                return None;
            }
        }
        Some(st.status)
    }

    /// The result, once `Done`. The handle owns it: it stays available
    /// here after the engine has retired (or expired) the query.
    pub fn result(&self) -> Option<Arc<QueryOutput>> {
        lock(&self.job.state, "job.state").answer.as_ref().map(|a| Arc::clone(&a.output))
    }

    /// Everything the serving layer reports about this query, as of now.
    pub fn report(&self) -> QueryReport {
        let st = lock(&self.job.state, "job.state");
        QueryReport {
            id: self.job.id,
            trace_id: self.job.trace_id.clone(),
            status: st.status,
            span: st.span.clone(),
            summary: st.answer.as_ref().map(|a| Arc::clone(&a.summary)),
            error: st.error.clone(),
        }
    }

    /// The error message, once `Failed` or `Panicked`.
    pub fn error(&self) -> Option<String> {
        lock(&self.job.state, "job.state").error.as_ref().map(QueryError::to_string)
    }

    /// The typed error, once `Failed` or `Panicked`.
    pub fn query_error(&self) -> Option<QueryError> {
        lock(&self.job.state, "job.state").error.clone()
    }

    /// The lifecycle span, once terminal.
    pub fn span(&self) -> Option<QuerySpan> {
        lock(&self.job.state, "job.state").span.clone()
    }
}

/// The concurrent query engine. Dropping it drains the queue and joins
/// the workers.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Engine {
    /// Starts `config.workers` worker threads.
    pub fn new(config: EngineConfig) -> Self {
        let workers_n = config.workers.max(1);
        let cache = ResultCache::new(config.cache_capacity);
        let metrics = Arc::new(MetricsRegistry::new());
        // Wall-clock nanos as id entropy; a clock before the epoch
        // (misconfigured container) degrades to a fixed nonce rather
        // than failing engine construction.
        let trace_nonce = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x11a2_a51e_ed00_5eed);
        let shared = Arc::new(Shared {
            config,
            store: GraphStore::new(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            cache: Mutex::new(cache),
            jobs: Mutex::new(JobTable { live: HashMap::new(), retired: VecDeque::new() }),
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            metrics,
            trace_nonce,
        });
        let workers = (0..workers_n)
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ligra-engine-{i}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn engine worker")
            })
            .collect();
        Engine { shared, workers }
    }

    /// Installs an unweighted graph; returns the new epoch.
    pub fn install_graph(&self, g: Arc<Graph>) -> u64 {
        self.shared.store.install_graph(g)
    }

    /// Installs a weighted graph; returns the new epoch.
    pub fn install_weighted(&self, g: Arc<WeightedGraph>) -> u64 {
        self.shared.store.install_weighted(g)
    }

    /// The current snapshot epoch, if a graph is installed.
    pub fn current_epoch(&self) -> Option<u64> {
        self.shared.store.current().map(|s| s.epoch())
    }

    /// The current snapshot, if a graph is installed. The mutation log
    /// reads the graph it layers deltas over from here, so mutations
    /// always stack on what queries are being served.
    pub fn current_snapshot(&self) -> Option<Arc<Snapshot>> {
        self.shared.store.current()
    }

    /// The fault plan this engine was configured with, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.shared.config.fault.clone()
    }

    /// Submits a query against the current snapshot. `deadline` (if any)
    /// starts counting immediately — time spent queued is charged
    /// against it. Returns a handle; cache hits come back already `Done`.
    pub fn submit(
        &self,
        query: Query,
        deadline: Option<Duration>,
    ) -> Result<QueryHandle, SubmitError> {
        self.submit_traced(query, deadline, None)
    }

    /// [`Engine::submit`] with an explicit correlation id. A supplied
    /// `trace_id` is sanitized to `[A-Za-z0-9_-]` (≤ 64 chars) since it
    /// names an on-disk trace file and embeds raw in span JSON; `None`
    /// (or an id that sanitizes to nothing) gets a generated 16-hex-char
    /// id unique to this engine instance.
    pub fn submit_traced(
        &self,
        query: Query,
        deadline: Option<Duration>,
        trace_id: Option<String>,
    ) -> Result<QueryHandle, SubmitError> {
        let sh = &self.shared;
        let snapshot = sh.store.current().ok_or(SubmitError::NoGraph)?;
        let token = match deadline {
            Some(d) => CancelToken::with_timeout(d),
            None => CancelToken::new(),
        };
        let id = sh.next_id.fetch_add(1, Ordering::Relaxed);
        let trace_id = match trace_id.map(|t| sanitize_trace_id(&t)) {
            Some(t) if !t.is_empty() => t,
            _ => format!("{:016x}", mix64(sh.trace_nonce ^ id)),
        };
        let key = (snapshot.epoch(), query.clone());
        let cached = lock(&sh.cache, "scheduler.cache").get(&key);

        let job = Arc::new(Job {
            id,
            trace_id,
            query,
            snapshot,
            token,
            submitted: Instant::now(),
            retries: AtomicU64::new(0),
            state: Mutex::new(JobState {
                status: QueryStatus::Queued,
                answer: None,
                error: None,
                span: None,
            }),
            done: Condvar::new(),
        });

        if let Some(answer) = cached {
            // Served without touching the queue: terminal immediately.
            let mut span = base_span(&job, 0);
            span.status = QueryStatus::Done;
            span.cache_hit = true;
            fill_span_buckets(&mut span);
            job.finish(QueryStatus::Done, Some(answer), None, span);
            sh.metrics.submitted.incr();
            sh.metrics.retire(QueryStatus::Done);
            let handle = QueryHandle { job };
            let report = handle.report();
            lock(&sh.jobs, "scheduler.jobs").retire(report);
            return Ok(handle);
        }

        // Into the table before the queue: a fast worker retiring the
        // job must find it there, or the entry would never leave.
        lock(&sh.jobs, "scheduler.jobs").live.insert(id, Arc::clone(&job));
        let full = {
            let mut q = lock(&sh.queue, "scheduler.queue");
            let full = q.len() >= sh.config.queue_capacity;
            if !full {
                q.push_back(Arc::clone(&job));
                sh.metrics.queue_depth.add(1);
            }
            full
        };
        if full {
            lock(&sh.jobs, "scheduler.jobs").live.remove(&id);
            sh.metrics.rejected.incr();
            return Err(SubmitError::QueueFull);
        }
        sh.queue_cv.notify_one();
        sh.metrics.submitted.incr();
        Ok(QueryHandle { job })
    }

    /// The handle of a submitted query that has not finished yet, to
    /// wait on or cancel by id.
    pub fn handle(&self, id: u64) -> Option<QueryHandle> {
        let table = lock(&self.shared.jobs, "scheduler.jobs");
        table.live.get(&id).map(|job| QueryHandle { job: Arc::clone(job) })
    }

    /// What is known about a submitted query: its live state, or its
    /// report if it is among the last [`RETIRED_CAPACITY`] finished.
    pub fn report(&self, id: u64) -> Result<QueryReport, LookupError> {
        let table = lock(&self.shared.jobs, "scheduler.jobs");
        if let Some(job) = table.live.get(&id) {
            let live = QueryHandle { job: Arc::clone(job) };
            drop(table);
            return Ok(live.report());
        }
        // Newest first: a reply is usually asked for right after it lands.
        if let Some(report) = table.retired.iter().rev().find(|r| r.id == id) {
            return Ok(report.clone());
        }
        if id == 0 || id >= self.shared.next_id.load(Ordering::Relaxed) {
            Err(LookupError::Unknown(id))
        } else {
            Err(LookupError::Expired(id))
        }
    }

    /// One consistent-enough sample of every metric the engine exports.
    pub fn stats(&self) -> EngineStats {
        let sh = &self.shared;
        let m = &sh.metrics;
        let (cache_hits, cache_misses, cache_evictions, cache_len) = {
            let c = lock(&sh.cache, "scheduler.cache");
            (c.hits(), c.misses(), c.evictions(), c.len() as u64)
        };
        let fault_injections = FaultPoint::ALL
            .iter()
            .map(|&p| {
                let fired = sh.config.fault.as_ref().map_or(0, |plan| plan.injected(p));
                (p.name(), fired)
            })
            .collect();
        EngineStats {
            epoch: self.current_epoch(),
            workers: self.workers.len() as u64,
            queue_capacity: sh.config.queue_capacity as u64,
            queued: m.queue_depth.get(),
            running: m.running.get(),
            submitted: m.submitted.get(),
            rejected: m.rejected.get(),
            completed: m.retired(QueryStatus::Done),
            cancelled: m.retired(QueryStatus::Cancelled),
            failed: m.retired(QueryStatus::Failed),
            panics: m.retired(QueryStatus::Panicked),
            retries: m.retries.get(),
            queue_deadline_sheds: m.retired(QueryStatus::Shed),
            worker_busy_ns: m.worker_busy_ns.get(),
            worker_idle_ns: m.worker_idle_ns.get(),
            cache_hits,
            cache_misses,
            cache_evictions,
            cache_len,
            queue_wait: m.queue_wait_snapshots(),
            run_time: m.run_time_snapshots(),
            mutation_batches: m.mutation_batches.get(),
            mutation_edges_added: m.mutation_edges_added.get(),
            mutation_edges_deleted: m.mutation_edges_deleted.get(),
            overlay_edges: m.mutation_overlay_edges.get(),
            overlay_vertices: m.mutation_overlay_vertices.get(),
            compactions: m.mutation_compactions.get(),
            compaction_failures: m.mutation_compaction_failures.get(),
            compaction_time: m.compaction_snapshot(),
            fault_injections,
            wire_requests: m.wire_requests.get(),
            wire_bytes: m.wire_bytes.get(),
            wire_malformed: m.wire_malformed.get(),
        }
    }

    /// The live metrics registry, for out-of-engine recorders (the wire
    /// front-end counts its requests/bytes/malformed lines here).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.shared.metrics)
    }

    /// The spans of the last [`RETIRED_CAPACITY`] finished queries, in
    /// the order they finished.
    pub fn spans(&self) -> Vec<QuerySpan> {
        let table = lock(&self.shared.jobs, "scheduler.jobs");
        table.retired.iter().filter_map(|r| r.span.clone()).collect()
    }

    /// The span of one query, if it has reached a terminal state and
    /// has not yet left the ring.
    pub fn span(&self, id: u64) -> Option<QuerySpan> {
        self.report(id).ok().and_then(|r| r.span)
    }

    /// `true` while every spawned worker thread is still alive. The
    /// chaos suite's liveness probe: panic isolation means this stays
    /// `true` no matter what queries do.
    pub fn workers_alive(&self) -> bool {
        self.workers.iter().all(|w| !w.is_finished())
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.queue_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(sh: &Shared) {
    loop {
        let idle_start = Instant::now();
        let job = {
            let mut q = lock(&sh.queue, "scheduler.queue");
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if sh.shutdown.load(Ordering::Acquire) {
                    return;
                }
                q = q.wait(&sh.queue_cv);
            }
        };
        sh.metrics.worker_idle_ns.add(idle_start.elapsed().as_nanos() as u64);
        sh.metrics.queue_depth.sub(1);
        sh.metrics.running.add(1);
        let busy_start = Instant::now();
        // `run_job` contains its own unwind boundary around query
        // execution; this outer one is a backstop against scheduler
        // bugs, so a worker can never die and a waiter can never hang
        // on a job that silently evaporated.
        if catch_unwind(AssertUnwindSafe(|| run_job(sh, &job))).is_err()
            && !lock(&job.state, "job.state").status.is_terminal()
        {
            let err = QueryError::Panicked {
                point: "scheduler",
                msg: "worker recovered from an unexpected scheduler panic".to_string(),
            };
            let span = base_span(&job, 0);
            finalize(sh, &job, span, QueryStatus::Panicked, None, Some(err));
        }
        sh.metrics.worker_busy_ns.add(busy_start.elapsed().as_nanos() as u64);
    }
}

fn base_span(job: &Job, queue_wait_ns: u64) -> QuerySpan {
    QuerySpan {
        id: job.id,
        trace_id: job.trace_id.clone(),
        query: job.query.name().to_string(),
        epoch: job.snapshot.epoch(),
        status: QueryStatus::Running,
        cache_hit: false,
        queue_wait_ns,
        queue_wait_bucket: 0,
        run_ns: 0,
        run_bucket: 0,
        rounds: 0,
        events: 0,
        retries: job.retries.load(Ordering::Relaxed),
    }
}

/// What one protected execution attempt produced.
enum Executed {
    /// Clean result (already cached unless the cache point faulted).
    Success(Answer),
    /// The app drained at a round boundary after cancellation.
    CancelledRun,
    /// Validation (or app-level) error.
    AppError(String),
    /// A transient injected error at the `engine.dispatch` point.
    #[cfg(feature = "fault-inject")]
    DispatchFault(ligra::FaultError),
}

fn run_job(sh: &Shared, job: &Arc<Job>) {
    let queue_wait_ns = job.submitted.elapsed().as_nanos() as u64;
    let mut span = base_span(job, queue_wait_ns);
    // Observe queue wait once per query: a fault-retried job comes back
    // through here with `retries > 0` and would otherwise double-count.
    if span.retries == 0 {
        sh.metrics.observe_queue_wait(job.query.kind_index(), queue_wait_ns);
    }

    // Pre-run checks: don't burn a worker on a query that can no longer
    // produce a useful answer. An explicit cancel is reported as
    // `Cancelled`; a deadline that expired while the query sat in the
    // queue is the engine's fault, reported as `Shed` so clients can
    // tell overload from their own cancellations.
    if job.token.cancel_requested() {
        finalize(sh, job, span, QueryStatus::Cancelled, None, None);
        return;
    }
    if job.token.is_cancelled() {
        finalize(sh, job, span, QueryStatus::Shed, None, None);
        return;
    }

    job.set_status(QueryStatus::Running);
    #[allow(unused_mut)]
    let mut opts = EdgeMapOptions::new().cancel(&job.token);
    #[cfg(feature = "fault-inject")]
    if let Some(plan) = &sh.config.fault {
        opts = opts.fault_plan(plan);
    }

    let mut counter = TeeRecorder::new(sh.config.trace_dir.is_some());
    let start = Instant::now();
    // The unwind boundary: everything a query can make panic — the
    // dispatch fault point, the app itself (including injected faults at
    // round boundaries), and the cache fault point — is contained here.
    let exec = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(feature = "fault-inject")]
        if let Some(plan) = &sh.config.fault {
            if let Err(e) = plan.check(ligra::FaultPoint::EngineDispatch) {
                return Executed::DispatchFault(e);
            }
        }
        match job.query.run(&job.snapshot, opts, &mut counter) {
            Err(msg) => Executed::AppError(msg),
            Ok(_) if job.token.is_cancelled() => {
                // The app drained at a round boundary; its partial state
                // is not a valid answer. Discard, never cache.
                Executed::CancelledRun
            }
            Ok(out) => {
                let answer = Answer::new(out);
                // The `engine.cache` fault point: a spurious error here
                // degrades to a cache miss (the result is still
                // returned, just not cached); a panic is contained by
                // the surrounding boundary before the insert happens,
                // so a faulted run can never populate the cache.
                #[allow(unused_mut)]
                let mut cacheable = true;
                #[cfg(feature = "fault-inject")]
                if let Some(plan) = &sh.config.fault {
                    if plan.check(ligra::FaultPoint::EngineCache).is_err() {
                        cacheable = false;
                    }
                }
                if cacheable {
                    lock(&sh.cache, "scheduler.cache")
                        .insert((job.snapshot.epoch(), job.query.clone()), answer.clone());
                }
                Executed::Success(answer)
            }
        }
    }));
    span.run_ns = start.elapsed().as_nanos() as u64;
    span.rounds = counter.counter.edge_map_rounds;
    span.events = counter.counter.events;

    let (status, answer, error) = match exec {
        Ok(Executed::Success(answer)) => (QueryStatus::Done, Some(answer), None),
        Ok(Executed::CancelledRun) => (QueryStatus::Cancelled, None, None),
        Ok(Executed::AppError(msg)) => (QueryStatus::Failed, None, Some(QueryError::App(msg))),
        #[cfg(feature = "fault-inject")]
        Ok(Executed::DispatchFault(e)) => {
            let attempts = job.retries.fetch_add(1, Ordering::Relaxed) + 1;
            if attempts <= MAX_DISPATCH_RETRIES {
                // Bounded retry: hand the job back to the queue. The
                // deadline keeps counting from the original submit, so
                // a retried job can still be shed at its next dequeue.
                sh.metrics.retries.incr();
                job.set_status(QueryStatus::Queued);
                {
                    let mut q = lock(&sh.queue, "scheduler.queue");
                    q.push_back(Arc::clone(job));
                    sh.metrics.queue_depth.add(1);
                }
                sh.queue_cv.notify_one();
                sh.metrics.running.sub(1);
                return;
            }
            (
                QueryStatus::Failed,
                None,
                Some(QueryError::Injected { point: e.point.name(), hit: e.hit }),
            )
        }
        Err(payload) => {
            let err = classify_panic(payload.as_ref());
            match err {
                QueryError::Injected { .. } => {
                    // An injected `Error` at a point with no Result
                    // channel (edgemap.round) arrives by unwinding but
                    // is still a typed transient failure, not a panic.
                    (QueryStatus::Failed, None, Some(err))
                }
                _ => (QueryStatus::Panicked, None, Some(err)),
            }
        }
    };
    // The run executed (possibly to a panic or cancellation) — record
    // its duration. Retried attempts returned above and pre-run
    // retirees never reach here, so the histogram sees one observation
    // per executed attempt that retired.
    sh.metrics.observe_run_time(job.query.kind_index(), span.run_ns);
    // The kernel-trace join: whatever rounds this run produced —
    // including a partial trace from a cancelled or panicked run — land
    // on disk under the query's trace id.
    if let Some(stats) = counter.trace.take() {
        if let Some(dir) = &sh.config.trace_dir {
            if !stats.rounds.is_empty() {
                if let Err(e) = ligra::save_jsonl(dir, &format!("query-{}", job.trace_id), &stats) {
                    eprintln!("ligra-engine: kernel trace {e}");
                }
            }
        }
    }
    span.retries = job.retries.load(Ordering::Relaxed);
    finalize(sh, job, span, status, answer, error);
}

/// Single exit point for terminal jobs: counts the terminal outcome,
/// stamps the span's histogram buckets, retires the job's report into
/// the ring, and (gauge before
/// notification) drops the running count before waking waiters, so a
/// waiter that observes the terminal status also observes the query as
/// no longer running.
fn finalize(
    sh: &Shared,
    job: &Job,
    mut span: QuerySpan,
    status: QueryStatus,
    answer: Option<Answer>,
    error: Option<QueryError>,
) {
    span.status = status;
    fill_span_buckets(&mut span);
    sh.metrics.retire(status);
    lock(&sh.jobs, "scheduler.jobs").retire(QueryReport {
        id: job.id,
        trace_id: job.trace_id.clone(),
        status,
        span: Some(span.clone()),
        summary: answer.as_ref().map(|a| Arc::clone(&a.summary)),
        error: error.clone(),
    });
    sh.metrics.running.sub(1);
    job.finish(status, answer, error, span);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ligra_graph::generators::rmat::RmatOptions;
    use ligra_graph::generators::{grid3d, rmat};

    fn engine(workers: usize, queue: usize) -> Engine {
        Engine::new(EngineConfig {
            workers,
            queue_capacity: queue,
            cache_capacity: 8,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn submit_before_install_is_rejected() {
        let e = engine(1, 4);
        assert_eq!(e.submit(Query::Cc, None).unwrap_err(), SubmitError::NoGraph);
    }

    #[test]
    fn basic_query_round_trip() {
        let e = engine(2, 8);
        let epoch = e.install_graph(Arc::new(grid3d(6)));
        let h = e.submit(Query::Bfs { source: 0 }, None).unwrap();
        assert_eq!(h.wait(), QueryStatus::Done);
        let span = h.span().unwrap();
        assert_eq!(span.epoch, epoch);
        assert!(!span.cache_hit);
        assert!(span.rounds > 0);
        assert_eq!(span.retries, 0);
        match h.result().unwrap().as_ref() {
            QueryOutput::Bfs(r) => assert_eq!(r.reached, 216),
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn repeat_query_on_same_epoch_hits_cache() {
        let e = engine(1, 8);
        e.install_graph(Arc::new(grid3d(5)));
        let h1 = e.submit(Query::Bfs { source: 3 }, None).unwrap();
        assert_eq!(h1.wait(), QueryStatus::Done);
        let h2 = e.submit(Query::Bfs { source: 3 }, None).unwrap();
        assert_eq!(h2.wait(), QueryStatus::Done);
        assert!(h2.span().unwrap().cache_hit);
        // Same Arc — not a recompute.
        assert!(Arc::ptr_eq(&h1.result().unwrap(), &h2.result().unwrap()));
        let stats = e.stats();
        assert_eq!(stats.cache_hits, 1);
        // New epoch invalidates.
        e.install_graph(Arc::new(grid3d(5)));
        let h3 = e.submit(Query::Bfs { source: 3 }, None).unwrap();
        assert_eq!(h3.wait(), QueryStatus::Done);
        assert!(!h3.span().unwrap().cache_hit);
    }

    #[test]
    fn zero_deadline_is_shed_at_dequeue() {
        let e = engine(1, 8);
        e.install_graph(Arc::new(rmat(&RmatOptions::paper(10))));
        let h = e.submit(Query::PageRank { iters: 1_000_000 }, Some(Duration::ZERO)).unwrap();
        assert_eq!(h.wait(), QueryStatus::Shed);
        let span = h.span().unwrap();
        assert_eq!(span.status, QueryStatus::Shed);
        // Shed before running: no round ever executed, no partial result.
        assert_eq!(span.rounds, 0, "shed query must not run");
        assert!(h.result().is_none(), "shed query must not expose a partial result");
        let stats = e.stats();
        assert_eq!(stats.queue_deadline_sheds, 1);
        assert_eq!(stats.cancelled, 0);
    }

    #[test]
    fn explicit_cancel_stops_a_long_query() {
        let e = engine(1, 8);
        e.install_graph(Arc::new(rmat(&RmatOptions::paper(11))));
        let h = e.submit(Query::PageRank { iters: 1_000_000 }, None).unwrap();
        // Let it start, then pull the plug.
        std::thread::sleep(Duration::from_millis(30));
        h.cancel();
        let status = h.wait();
        assert_eq!(status, QueryStatus::Cancelled);
        assert!(e.span(h.id()).is_some());
    }

    #[test]
    fn admission_queue_rejects_when_full() {
        let e = engine(1, 1);
        e.install_graph(Arc::new(rmat(&RmatOptions::paper(10))));
        // Saturate: one long query runs, one waits, further submits bounce.
        let _h1 = e.submit(Query::PageRank { iters: 10_000 }, None).unwrap();
        let mut rejected = 0;
        for _ in 0..20 {
            match e.submit(Query::PageRank { iters: 10_001 }, None) {
                Err(SubmitError::QueueFull) => rejected += 1,
                Ok(_) => {}
                Err(e) => panic!("unexpected {e:?}"),
            }
            // The two caps are the whole admission bound.
            let s = e.stats();
            assert!(s.running <= s.workers, "{} running on {} workers", s.running, s.workers);
            assert!(s.queued <= s.queue_capacity, "{} queued past {}", s.queued, s.queue_capacity);
        }
        assert!(rejected > 0, "bounded queue never rejected");
        assert!(e.stats().rejected > 0);
    }

    #[test]
    fn queue_wait_consuming_the_deadline_sheds_not_cancels() {
        let e = engine(1, 8);
        e.install_graph(Arc::new(rmat(&RmatOptions::paper(11))));
        // A long query occupies the only worker...
        let blocker = e.submit(Query::PageRank { iters: 1_000_000 }, None).unwrap();
        // ...while a short-deadline query waits behind it.
        let starved = e.submit(Query::Bfs { source: 0 }, Some(Duration::from_millis(1))).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        blocker.cancel();
        assert_eq!(blocker.wait(), QueryStatus::Cancelled);
        assert_eq!(starved.wait(), QueryStatus::Shed);
        assert!(e.stats().queue_deadline_sheds >= 1);
        assert!(e.workers_alive());
    }

    #[test]
    fn failed_validation_reports_error() {
        let e = engine(1, 4);
        e.install_graph(Arc::new(grid3d(3)));
        let h = e.submit(Query::Bfs { source: 1_000_000 }, None).unwrap();
        assert_eq!(h.wait(), QueryStatus::Failed);
        assert!(h.error().unwrap().contains("out of range"));
        assert!(matches!(h.query_error(), Some(QueryError::App(_))));
        assert_eq!(e.stats().failed, 1);
    }

    #[test]
    fn concurrent_queries_all_complete() {
        let e = engine(4, 64);
        e.install_graph(Arc::new(rmat(&RmatOptions::paper(9))));
        let handles: Vec<_> =
            (0..16).map(|i| e.submit(Query::Bfs { source: i * 7 % 512 }, None).unwrap()).collect();
        for h in &handles {
            assert_eq!(h.wait(), QueryStatus::Done);
        }
        let stats = e.stats();
        assert_eq!(stats.completed, 16);
        assert_eq!(stats.panics, 0);
        assert_eq!((stats.queued, stats.running), (0, 0));
        assert_eq!(e.spans().len(), 16);
        assert!(e.workers_alive());
    }

    #[test]
    fn trace_ids_are_generated_unique_and_sanitized() {
        let e = engine(1, 8);
        e.install_graph(Arc::new(grid3d(4)));
        let h1 = e.submit(Query::Bfs { source: 0 }, None).unwrap();
        let h2 = e.submit(Query::Bfs { source: 1 }, None).unwrap();
        assert_eq!(h1.trace_id().len(), 16, "generated ids are 16 hex chars");
        assert_ne!(h1.trace_id(), h2.trace_id());
        h1.wait();
        assert_eq!(h1.span().unwrap().trace_id, h1.trace_id());

        // Client-supplied ids survive verbatim when clean...
        let h3 = e.submit_traced(Query::Bfs { source: 2 }, None, Some("req-42_A".into())).unwrap();
        assert_eq!(h3.trace_id(), "req-42_A");
        // ...and are stripped of anything unsafe for filenames/JSON.
        let h4 =
            e.submit_traced(Query::Bfs { source: 3 }, None, Some("../x\"y\nz".into())).unwrap();
        assert_eq!(h4.trace_id(), "xyz");
        // An id that sanitizes away entirely falls back to generated.
        let h5 = e.submit_traced(Query::Bfs { source: 4 }, None, Some("///".into())).unwrap();
        assert_eq!(h5.trace_id().len(), 16);
    }

    #[test]
    fn trace_dir_joins_span_to_kernel_rows() {
        let dir = std::env::temp_dir().join(format!(
            "ligra-trace-test-{}-{:x}",
            std::process::id(),
            0x7e57u32
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let e = Engine::new(EngineConfig {
            workers: 1,
            queue_capacity: 8,
            cache_capacity: 8,
            trace_dir: Some(dir.clone()),
            ..EngineConfig::default()
        });
        e.install_graph(Arc::new(grid3d(5)));
        let h = e.submit_traced(Query::Bfs { source: 0 }, None, Some("join-me".into())).unwrap();
        assert_eq!(h.wait(), QueryStatus::Done);
        let span = h.span().unwrap();
        // The span's trace_id names the on-disk kernel trace...
        let path = dir.join(format!("query-{}.jsonl", span.trace_id));
        let text = std::fs::read_to_string(&path).expect("kernel trace written");
        let stats = ligra::from_json_lines(&text).expect("trace re-imports");
        // ...and its edgeMap rows agree with the span's round count.
        let edge_rounds =
            stats.rounds.iter().filter(|r| r.op == ligra::stats::Op::EdgeMap).count() as u64;
        assert_eq!(edge_rounds, span.rounds, "span rounds must match kernel trace rows");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_snapshot_tracks_the_lifecycle() {
        let e = engine(2, 8);
        e.install_graph(Arc::new(grid3d(5)));
        for i in 0..4 {
            let h = e.submit(Query::Bfs { source: i }, None).unwrap();
            assert_eq!(h.wait(), QueryStatus::Done);
        }
        // One repeat = a cache hit (still submitted + retired done).
        let h = e.submit(Query::Bfs { source: 0 }, None).unwrap();
        assert_eq!(h.wait(), QueryStatus::Done);
        let m = e.stats();
        assert_eq!(m.submitted, 5);
        assert_eq!(m.completed, 5, "all five retired done");
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.queued, 0);
        assert_eq!(m.running, 0);
        // Four executed runs (the cache hit never ran), all of them BFS.
        let rt = HistogramSnapshot::merged(&m.run_time);
        assert_eq!(rt.count, 4);
        assert!(rt.max > 0);
        assert_eq!(m.run_time[Query::Bfs { source: 0 }.kind_index()], rt);
        let qw = HistogramSnapshot::merged(&m.queue_wait);
        assert_eq!(qw.count, 4, "cache hits skip the queue-wait histogram");
        assert!(m.worker_idle_ns > 0, "workers parked at some point");
        assert!(m.worker_busy_ns > 0);
    }

    // ----- fault-injection behaviour (compiled only with the feature) -----

    #[cfg(feature = "fault-inject")]
    mod faulted {
        use super::*;
        use ligra::{FaultAction, FaultPlan, FaultPoint};

        fn faulted_engine(plan: FaultPlan) -> Engine {
            Engine::new(EngineConfig {
                workers: 1,
                queue_capacity: 16,
                cache_capacity: 8,
                fault: Some(Arc::new(plan)),
                ..EngineConfig::default()
            })
        }

        #[test]
        fn injected_panic_is_contained_and_worker_self_heals() {
            let plan = FaultPlan::seeded(1).arm_at(FaultPoint::EdgemapRound, FaultAction::Panic, 1);
            let e = faulted_engine(plan);
            e.install_graph(Arc::new(grid3d(5)));
            let h = e.submit(Query::Bfs { source: 0 }, None).unwrap();
            assert_eq!(h.wait(), QueryStatus::Panicked);
            match h.query_error() {
                Some(QueryError::Panicked { point: "edgemap.round", .. }) => {}
                other => panic!("expected Panicked at edgemap.round, got {other:?}"),
            }
            assert!(h.result().is_none());
            // The same worker serves the next query: self-healed.
            let h2 = e.submit(Query::Bfs { source: 1 }, None).unwrap();
            assert_eq!(h2.wait(), QueryStatus::Done);
            let stats = e.stats();
            assert_eq!(stats.panics, 1);
            assert_eq!(stats.completed, 1);
            assert!(e.workers_alive());
        }

        #[test]
        fn injected_error_at_round_boundary_fails_typed() {
            let plan = FaultPlan::seeded(2).arm_at(FaultPoint::EdgemapRound, FaultAction::Error, 1);
            let e = faulted_engine(plan);
            e.install_graph(Arc::new(grid3d(5)));
            let h = e.submit(Query::Bfs { source: 0 }, None).unwrap();
            assert_eq!(h.wait(), QueryStatus::Failed);
            let err = h.query_error().unwrap();
            assert!(err.is_transient(), "injected error must look retryable: {err:?}");
            assert_eq!(e.stats().panics, 0);
            assert!(e.workers_alive());
        }

        #[test]
        fn transient_dispatch_fault_retries_then_succeeds() {
            let plan =
                FaultPlan::seeded(3).arm_at(FaultPoint::EngineDispatch, FaultAction::Error, 1);
            let e = faulted_engine(plan);
            e.install_graph(Arc::new(grid3d(5)));
            let h = e.submit(Query::Bfs { source: 0 }, None).unwrap();
            assert_eq!(h.wait(), QueryStatus::Done, "one transient fault must be retried away");
            assert_eq!(h.span().unwrap().retries, 1);
            assert_eq!(e.stats().retries, 1);
        }

        #[test]
        fn persistent_dispatch_fault_exhausts_retries() {
            let plan =
                FaultPlan::seeded(4).arm_every(FaultPoint::EngineDispatch, FaultAction::Error, 1);
            let e = faulted_engine(plan);
            e.install_graph(Arc::new(grid3d(5)));
            let h = e.submit(Query::Bfs { source: 0 }, None).unwrap();
            assert_eq!(h.wait(), QueryStatus::Failed);
            assert_eq!(
                h.query_error(),
                Some(QueryError::Injected {
                    point: "engine.dispatch",
                    hit: MAX_DISPATCH_RETRIES + 1,
                })
            );
            assert_eq!(e.stats().retries, MAX_DISPATCH_RETRIES);
        }

        #[test]
        fn cache_fault_degrades_to_a_miss_and_never_caches_faulted_runs() {
            let plan = FaultPlan::seeded(5).arm_at(FaultPoint::EngineCache, FaultAction::Error, 1);
            let e = faulted_engine(plan);
            e.install_graph(Arc::new(grid3d(5)));
            let h1 = e.submit(Query::Bfs { source: 2 }, None).unwrap();
            assert_eq!(h1.wait(), QueryStatus::Done);
            // The insert was suppressed, so the repeat is a miss...
            let h2 = e.submit(Query::Bfs { source: 2 }, None).unwrap();
            assert_eq!(h2.wait(), QueryStatus::Done);
            assert!(!h2.span().unwrap().cache_hit);
            // ...and the second (clean) run does populate the cache.
            let h3 = e.submit(Query::Bfs { source: 2 }, None).unwrap();
            assert_eq!(h3.wait(), QueryStatus::Done);
            assert!(h3.span().unwrap().cache_hit);
        }
    }
}
