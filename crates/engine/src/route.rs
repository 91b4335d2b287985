//! `ligra-route`: library logic for the replicated serving router.
//!
//! A [`Router`] fronts N `ligra-serve` backends over the flat-JSONL
//! wire protocol ([`crate::wire`]) and turns one fallible process into
//! a degradable fleet (DESIGN.md §16):
//!
//! * **Backend state machine** — every replica is Healthy, Degraded, or
//!   Down ([`BackendState`]), driven by periodic health probes (the
//!   `stats` op under a read deadline) and by in-band signals from live
//!   traffic: connect errors, timeouts, torn response lines, and
//!   `"transient":true` responses carrying `retry_after_ms` hints.
//! * **Read routing** — idempotent ops (`submit`, `poll`, `wait`,
//!   `span`, `stats`, …) go to the live replica with the
//!   fewest outstanding requests, under a bounded per-backend in-flight
//!   cap. When every replica is saturated or down the router sheds with
//!   a `retry_after_ms` hint instead of queueing unboundedly; when a
//!   backend dies mid-request the read is retried on a different
//!   replica (a *failover*), including re-executing the original
//!   `submit` for a `wait`/`poll` whose backend vanished.
//! * **Write fan-out** — `load`/`gen`/`mutate`/`compact` are serialized
//!   through a single writer thread, appended to a bounded router-side
//!   journal, and forwarded to every live replica in order. A replica
//!   that misses a write (down, timed out, shedding) keeps its journal
//!   cursor behind the head; the next successful probe marks it
//!   Degraded and replays the missed entries, restoring epoch parity.
//!   A replica whose epoch diverges at an equal cursor (local installs
//!   the router never saw) is held Degraded for operator attention —
//!   replay cannot repair a fork, only a lag.
//! * **Chaos hooks** — the `route.forward` fault point fires inside
//!   [`Router`]'s forward path under `--fault`/`--fault-seed`
//!   (`fault-inject` builds), so the chaos suite can error/lag/panic
//!   the router→backend hop deterministically and assert failover.
//!
//! Locking discipline: the router's mutexes (`route.backend`,
//! `route.journal`, `route.idmap`, `route.writer`) are held only for
//! field reads and queue surgery — never across socket I/O or sleeps.
//! Ordering of replicated writes comes from the single writer thread,
//! not from holding a lock across the fan-out.

use crate::backoff::{retry_after_ms, Backoff};
use crate::lockdep::tracked_lock;
use crate::metrics::{render, stats_fields, Counter, Gauge, Histogram, ROUTE_FAMILIES};
use crate::serve::{Frontend, WireEvent};
use crate::wire::{error_response, transient_error, JsonObj, Request};
use crate::FaultPlan;
use ligra::jsonl::{field_bool, field_u64, set_u64};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Liveness of one backend replica, as the router currently believes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendState {
    /// Probing and serving normally.
    Healthy,
    /// Reachable but impaired: behind on writes, asked for backoff,
    /// failed recently, or diverged. Used as a fallback for reads.
    Degraded,
    /// Unreachable; skipped by routing until a probe succeeds.
    Down,
}

impl BackendState {
    /// Stable lowercase name (`route-stats`, logs).
    pub fn name(self) -> &'static str {
        match self {
            BackendState::Healthy => "healthy",
            BackendState::Degraded => "degraded",
            BackendState::Down => "down",
        }
    }

    /// Gauge encoding for the `ligra_route_backend_state` family:
    /// 0 = down, 1 = degraded, 2 = healthy.
    pub fn as_gauge(self) -> u64 {
        match self {
            BackendState::Down => 0,
            BackendState::Degraded => 1,
            BackendState::Healthy => 2,
        }
    }
}

/// Router tuning knobs; every field has a serving-ready default.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Backend addresses (`host:port`), one per replica, in id order.
    pub backends: Vec<String>,
    /// Per-backend in-flight request cap; excess reads shed or fail
    /// over instead of queueing on a struggling replica.
    pub max_inflight: usize,
    /// How often the prober sweeps the fleet.
    pub probe_interval: Duration,
    /// Connect + read deadline for one health probe; a backend that
    /// accepts TCP but never answers is caught here.
    pub probe_deadline: Duration,
    /// Read deadline for one forwarded client request.
    pub request_deadline: Duration,
    /// Bounded write-journal capacity (entries). A replica that falls
    /// further behind than this cannot be replayed and stays Degraded.
    pub journal_capacity: usize,
    /// Consecutive forward/probe failures before Down (the first
    /// failure already demotes to Degraded).
    pub down_after: u32,
    /// Transient-response / failover retry budget per client request.
    pub retries: u32,
    /// Deterministic fault plan armed at `route.forward`
    /// (`fault-inject` builds only).
    pub fault: Option<Arc<FaultPlan>>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            backends: Vec::new(),
            max_inflight: 32,
            probe_interval: Duration::from_millis(200),
            probe_deadline: Duration::from_millis(500),
            request_deadline: Duration::from_secs(30),
            journal_capacity: 4096,
            down_after: 2,
            retries: 3,
            fault: None,
        }
    }
}

/// Per-backend router metrics (`backend` label = replica index).
pub struct BackendMetrics {
    /// Current [`BackendState::as_gauge`] encoding.
    pub state: Gauge,
    /// Requests currently checked out against this replica.
    pub outstanding: Gauge,
    /// Requests forwarded (successful exchanges).
    pub forwarded: Counter,
    /// Forward failures (connect/timeout/torn/injected).
    pub errors: Counter,
    /// Round-trip latency of successful forwards, nanoseconds.
    pub request_ns: Histogram,
}

/// Router-level metrics, exported through
/// [`crate::metrics::ROUTE_FAMILIES`].
pub struct RouterMetrics {
    /// Client request lines the router parsed.
    pub requests: Counter,
    /// Requests shed because every replica was saturated or down.
    pub sheds: Counter,
    /// Transient backend responses retried on another replica.
    pub retries: Counter,
    /// Reads rerouted after a backend died mid-request.
    pub failovers: Counter,
    /// Health probes attempted.
    pub probes: Counter,
    /// Health probes failed.
    pub probe_failures: Counter,
    /// Entries resident in the write journal.
    pub journal_entries: Gauge,
    /// Journal entries replayed to lagging replicas.
    pub journal_replayed: Counter,
    /// Client request lines rejected as malformed.
    pub wire_malformed: Counter,
    /// Per-replica instruments, indexed by backend id.
    pub backends: Vec<BackendMetrics>,
}

impl RouterMetrics {
    /// Fresh zeroed instruments for `n` backends (one
    /// [`BackendMetrics`] per replica, in id order).
    pub fn with_backends(n: usize) -> Self {
        RouterMetrics {
            requests: Counter::new(),
            sheds: Counter::new(),
            retries: Counter::new(),
            failovers: Counter::new(),
            probes: Counter::new(),
            probe_failures: Counter::new(),
            journal_entries: Gauge::new(),
            journal_replayed: Counter::new(),
            wire_malformed: Counter::new(),
            backends: (0..n)
                .map(|_| BackendMetrics {
                    state: Gauge::new(),
                    outstanding: Gauge::new(),
                    forwarded: Counter::new(),
                    errors: Counter::new(),
                    request_ns: Histogram::new(),
                })
                .collect(),
        }
    }
}

/// One pooled backend connection: a buffered reader over the stream;
/// writes go through the same stream via `get_mut`.
struct Conn {
    reader: BufReader<TcpStream>,
}

struct BackendInner {
    state: BackendState,
    outstanding: usize,
    idle: Vec<Conn>,
    /// Last epoch this replica reported (write response or probe).
    epoch: u64,
    /// Journal cursor: highest journal seq this replica has applied.
    applied_seq: u64,
    /// Consecutive failures (forwards + probes); reset on success.
    failures: u32,
    /// Replica-requested backoff: skipped by routing until then.
    retry_at: Option<Instant>,
    /// Next probe attempt (reconnect backoff while failing).
    next_probe_at: Instant,
    /// The replica fell behind more than the journal holds, or its
    /// epoch forked from the fleet; replay cannot repair it.
    unrecoverable: Option<&'static str>,
}

struct Backend {
    id: usize,
    addr: String,
    inner: Mutex<BackendInner>,
}

impl Backend {
    fn new(id: usize, addr: String) -> Backend {
        Backend {
            id,
            addr,
            inner: Mutex::new(BackendInner {
                state: BackendState::Healthy,
                outstanding: 0,
                idle: Vec::new(),
                epoch: 0,
                applied_seq: 0,
                failures: 0,
                retry_at: None,
                next_probe_at: Instant::now(),
                unrecoverable: None,
            }),
        }
    }
}

struct JournalEntry {
    seq: u64,
    line: String,
}

struct Journal {
    entries: VecDeque<JournalEntry>,
    /// Seq of the last appended entry (0 = nothing written yet).
    head: u64,
}

/// One tracked client submit: which replica owns the backend-local id,
/// and the original request line so the read can be re-executed on a
/// different replica if that backend dies before `wait` returns.
#[derive(Clone)]
struct IdEntry {
    backend: usize,
    remote_id: u64,
    submit_line: String,
}

struct IdMap {
    entries: HashMap<u64, IdEntry>,
    order: VecDeque<u64>,
}

/// Retained submit mappings; older entries are evicted FIFO (a client
/// polling an evicted id gets `unknown id`, same as on the backend
/// once its handle retires).
const ID_MAP_CAPACITY: usize = 8192;

enum WriteJob {
    Client { line: String, reply: mpsc::Sender<String> },
    Replay { backend: usize },
}

#[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
enum ForwardError {
    /// Down, asked-for-backoff, or over the in-flight cap — the
    /// request never reached the replica.
    NotSelectable,
    /// Transport-level failure mid-request: connect error, timeout,
    /// torn response line. The replica is penalized.
    Io,
    /// The `route.forward` fault point fired (chaos builds).
    Injected,
}

/// A JSONL fan-out router over replicated `ligra-serve` backends.
///
/// Construct with [`Router::start`]; share via `Arc`. Connection
/// handler threads call [`Router::handle_line`] per request line. The
/// router owns two background threads — a health prober and the write
/// serializer — both of which stop when the last external `Arc` drops
/// or [`Router::begin_shutdown`] runs.
pub struct Router {
    cfg: RouterConfig,
    backends: Vec<Arc<Backend>>,
    journal: Mutex<Journal>,
    idmap: Mutex<IdMap>,
    writer: Mutex<mpsc::Sender<WriteJob>>,
    metrics: Arc<RouterMetrics>,
    shutting_down: AtomicBool,
    next_client_id: AtomicU64,
    /// Round-robin cursor breaking least-outstanding ties in [`Router::pick`].
    rr: AtomicU64,
}

impl Router {
    /// Builds the router and spawns its prober + writer threads.
    /// `cfg.backends` must be non-empty.
    pub fn start(cfg: RouterConfig) -> Result<Arc<Router>, String> {
        if cfg.backends.is_empty() {
            return Err("router needs at least one --backend".to_string());
        }
        let backends: Vec<Arc<Backend>> = cfg
            .backends
            .iter()
            .enumerate()
            .map(|(i, a)| Arc::new(Backend::new(i, a.clone())))
            .collect();
        let metrics = Arc::new(RouterMetrics::with_backends(backends.len()));
        for bm in &metrics.backends {
            bm.state.set(BackendState::Healthy.as_gauge());
        }
        let (tx, rx) = mpsc::channel();
        let router = Arc::new(Router {
            cfg,
            backends,
            journal: Mutex::new(Journal { entries: VecDeque::new(), head: 0 }),
            idmap: Mutex::new(IdMap { entries: HashMap::new(), order: VecDeque::new() }),
            writer: Mutex::new(tx),
            metrics,
            shutting_down: AtomicBool::new(false),
            next_client_id: AtomicU64::new(0),
            rr: AtomicU64::new(0),
        });

        let weak = Arc::downgrade(&router);
        std::thread::spawn(move || {
            // The writer thread serializes every replicated write: the
            // channel is the ordering, so no lock is ever held across
            // the fan-out I/O.
            for job in rx {
                let Some(r) = weak.upgrade() else { break };
                match job {
                    WriteJob::Client { line, reply } => {
                        let resp = r.fan_out_write(&line);
                        let _ = reply.send(resp);
                    }
                    WriteJob::Replay { backend } => r.replay(backend),
                }
                if r.shutting_down.load(Ordering::Acquire) {
                    break;
                }
            }
        });

        let weak = Arc::downgrade(&router);
        let interval = router.cfg.probe_interval;
        std::thread::spawn(move || loop {
            let Some(r) = weak.upgrade() else { break };
            if r.shutting_down.load(Ordering::Acquire) {
                break;
            }
            r.probe_round();
            drop(r);
            std::thread::sleep(interval);
        });
        Ok(router)
    }

    /// The router's metric instruments (scraped by `--metrics-addr`).
    pub fn metrics(&self) -> &RouterMetrics {
        &self.metrics
    }

    /// Number of configured backend replicas.
    pub fn num_backends(&self) -> usize {
        self.backends.len()
    }

    /// Marks the router shutting down: probes stop, the writer drains
    /// its queue and exits, new routing still works while the server's
    /// drain waits for outstanding requests to finish.
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::Release);
    }

    /// Requests currently checked out across all replicas — the
    /// drain-on-shutdown quiescence signal.
    pub fn outstanding_total(&self) -> u64 {
        self.metrics.backends.iter().map(|b| b.outstanding.get()).sum()
    }

    /// Handles one client request line; the bool is "keep serving this
    /// connection" (false only after an acknowledged `shutdown`).
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        let req = match Request::parse(line) {
            Ok(r) => r,
            Err(e) => {
                self.metrics.wire_malformed.incr();
                return (error_response(&e), true);
            }
        };
        let op = match req.str("op") {
            Ok(op) => op,
            Err(e) => {
                self.metrics.wire_malformed.incr();
                return (error_response(&e), true);
            }
        };
        self.metrics.requests.incr();
        let resp = match op {
            "ping" => JsonObj::new().bool("ok", true).str("pong", "ligra-route").finish(),
            "shutdown" => {
                self.begin_shutdown();
                return (
                    JsonObj::new().bool("ok", true).str("status", "shutting-down").finish(),
                    false,
                );
            }
            "route-stats" | "route_stats" => self.route_stats_response(),
            "graph-stats" | "graph_stats" => self.graph_stats_response(),
            "load" | "gen" | "mutate" | "compact" => self.submit_write(line),
            "submit" => self.route_submit(line),
            "poll" | "wait" | "cancel" | "span" => self.route_by_id(op, &req),
            "stats" => self.route_read(line, &[]).0,
            other => error_response(&format!("unknown op {other:?}")),
        };
        (resp, true)
    }

    // ---- forwarding ------------------------------------------------

    /// The `route.forward` chaos hook: an injected error or contained
    /// panic is reported as a forward failure (so the router fails
    /// over exactly as it would for a dead backend); injected latency
    /// simply delays the hop.
    #[cfg(feature = "fault-inject")]
    fn fault_check(&self) -> Result<(), ForwardError> {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let Some(plan) = &self.cfg.fault else { return Ok(()) };
        match catch_unwind(AssertUnwindSafe(|| plan.check(ligra::FaultPoint::RouteForward))) {
            Ok(Ok(())) => Ok(()),
            Ok(Err(_)) | Err(_) => Err(ForwardError::Injected),
        }
    }

    #[cfg(not(feature = "fault-inject"))]
    fn fault_check(&self) -> Result<(), ForwardError> {
        Ok(())
    }

    /// One request/response exchange with `backend`, under admission
    /// and the read deadline. On success the connection returns to the
    /// idle pool; any failure penalizes the replica's state machine.
    fn forward(
        &self,
        backend: &Backend,
        line: &str,
        deadline: Duration,
    ) -> Result<String, ForwardError> {
        self.fault_check().inspect_err(|_| self.record_failure(backend))?;
        let bm = &self.metrics.backends[backend.id];
        let pooled = {
            let mut inner = tracked_lock(&backend.inner, "route.backend");
            if !selectable(&inner, Instant::now(), self.cfg.max_inflight) {
                return Err(ForwardError::NotSelectable);
            }
            inner.outstanding += 1;
            bm.outstanding.set(inner.outstanding as u64);
            inner.idle.pop()
        };
        let started = Instant::now();
        let conn = match pooled {
            Some(c) => Ok(c),
            None => self.dial(&backend.addr, deadline),
        };
        let result =
            conn.and_then(|mut c| Self::exchange(&mut c, line, deadline).map(|resp| (c, resp)));
        match result {
            Ok((conn, resp)) => {
                bm.forwarded.incr();
                bm.request_ns.record(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                self.record_success(backend, conn, &resp);
                Ok(resp)
            }
            Err(e) => {
                self.release_and_penalize(backend);
                Err(e)
            }
        }
    }

    /// Dials a fresh connection with `deadline` as the connect timeout.
    fn dial(&self, addr: &str, deadline: Duration) -> Result<Conn, ForwardError> {
        let sockaddr: SocketAddr =
            addr.to_socket_addrs().map_err(|_| ForwardError::Io)?.next().ok_or(ForwardError::Io)?;
        let stream =
            TcpStream::connect_timeout(&sockaddr, deadline).map_err(|_| ForwardError::Io)?;
        // Request/response lines must not sit in Nagle's buffer waiting
        // for a delayed ACK: each forward is one small write.
        stream.set_nodelay(true).map_err(|_| ForwardError::Io)?;
        Ok(Conn { reader: BufReader::new(stream) })
    }

    /// Writes one request line and reads one response line under the
    /// read deadline. A torn line (EOF before the newline) or timeout
    /// is a transport failure — the caller treats the replica as dead
    /// for this request.
    fn exchange(conn: &mut Conn, line: &str, deadline: Duration) -> Result<String, ForwardError> {
        let stream = conn.reader.get_mut();
        stream
            .set_read_timeout(Some(deadline))
            .and_then(|()| stream.set_write_timeout(Some(deadline)))
            .map_err(|_| ForwardError::Io)?;
        // One write for line + newline: split writes become two TCP
        // segments, and Nagle would hold the second for the ACK.
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        stream
            .write_all(framed.as_bytes())
            .and_then(|()| stream.flush())
            .map_err(|_| ForwardError::Io)?;
        let mut resp = String::new();
        match conn.reader.read_line(&mut resp) {
            // Read error, closed connection, or a line torn before its newline.
            Err(_) | Ok(0) => Err(ForwardError::Io),
            Ok(_) if !resp.ends_with('\n') => Err(ForwardError::Io),
            Ok(_) => {
                resp.truncate(resp.trim_end().len());
                Ok(resp)
            }
        }
    }

    /// Books a successful exchange: the connection returns to the idle
    /// pool, failures reset, and a `"transient":true` response sets
    /// the replica's requested backoff window.
    fn record_success(&self, backend: &Backend, conn: Conn, resp: &str) {
        let bm = &self.metrics.backends[backend.id];
        let mut inner = tracked_lock(&backend.inner, "route.backend");
        inner.outstanding = inner.outstanding.saturating_sub(1);
        bm.outstanding.set(inner.outstanding as u64);
        inner.failures = 0;
        if inner.idle.len() < self.cfg.max_inflight {
            inner.idle.push(conn);
        }
        if field_bool(resp, "transient") == Some(true) {
            let hint = retry_after_ms(resp).unwrap_or(50);
            inner.retry_at = Some(Instant::now() + Duration::from_millis(hint));
            if inner.state == BackendState::Healthy {
                inner.state = BackendState::Degraded;
                bm.state.set(inner.state.as_gauge());
            }
        }
    }

    /// Books a failed exchange: the slot is released, the connection
    /// (if any was checked out) is dropped, and the replica is demoted
    /// Degraded → Down by the consecutive-failure threshold.
    fn release_and_penalize(&self, backend: &Backend) {
        let bm = &self.metrics.backends[backend.id];
        bm.errors.incr();
        let mut inner = tracked_lock(&backend.inner, "route.backend");
        inner.outstanding = inner.outstanding.saturating_sub(1);
        bm.outstanding.set(inner.outstanding as u64);
        Self::penalize_locked(&self.cfg, &mut inner, bm);
    }

    /// Failure path shared by forwards and probes (caller holds the
    /// backend lock). Dead replicas also lose their idle pool — those
    /// sockets are almost certainly dead too.
    fn penalize_locked(cfg: &RouterConfig, inner: &mut BackendInner, bm: &BackendMetrics) {
        inner.failures = inner.failures.saturating_add(1);
        inner.state = if inner.failures >= cfg.down_after {
            BackendState::Down
        } else {
            BackendState::Degraded
        };
        if inner.state == BackendState::Down {
            inner.idle.clear();
        }
        bm.state.set(inner.state.as_gauge());
        // Reconnect probing backs off with the shared jittered
        // schedule instead of hammering a dead address every sweep.
        let bo = Backoff {
            base_ms: cfg.probe_interval.as_millis().max(1) as u64,
            cap_ms: 2_000,
            salt: 0x10_07,
        };
        inner.next_probe_at = Instant::now() + bo.delay(inner.failures.saturating_sub(1));
    }

    /// Like [`Router::record_failure`] but for failures observed
    /// without a checked-out slot (probe failures).
    fn record_failure(&self, backend: &Backend) {
        let bm = &self.metrics.backends[backend.id];
        bm.errors.incr();
        let mut inner = tracked_lock(&backend.inner, "route.backend");
        Self::penalize_locked(&self.cfg, &mut inner, bm);
    }

    // ---- read routing ----------------------------------------------

    /// Least-outstanding selection among selectable replicas, Healthy
    /// preferred over Degraded, `exclude` (already-tried ids) skipped.
    /// Ties rotate (the scan starts at a round-robin cursor), so equal
    /// load spreads across the fleet instead of pinning replica 0.
    fn pick(&self, exclude: &[usize]) -> Option<Arc<Backend>> {
        let now = Instant::now();
        let n = self.backends.len();
        let start = self.rr.fetch_add(1, Ordering::Relaxed) as usize % n;
        let mut best: Option<(u64, Arc<Backend>)> = None;
        for k in 0..n {
            let b = &self.backends[(start + k) % n];
            if exclude.contains(&b.id) {
                continue;
            }
            let score = {
                let inner = tracked_lock(&b.inner, "route.backend");
                if !selectable(&inner, now, self.cfg.max_inflight) {
                    continue;
                }
                // Degraded replicas only win over Healthy ones when the
                // healthy tier is saturated: state dominates, load breaks
                // ties.
                let tier = match inner.state {
                    BackendState::Healthy => 0u64,
                    _ => 1u64,
                };
                tier * (self.cfg.max_inflight as u64 + 1) + inner.outstanding as u64
            };
            if best.as_ref().is_none_or(|(s, _)| score < *s) {
                best = Some((score, Arc::clone(b)));
            }
        }
        best.map(|(_, b)| b)
    }

    /// The shed response when no replica is selectable: transient,
    /// with the earliest retry horizon the router knows.
    fn shed_response(&self) -> String {
        self.metrics.sheds.incr();
        let now = Instant::now();
        let mut hint_ms: u64 = 50;
        for b in &self.backends {
            let inner = tracked_lock(&b.inner, "route.backend");
            if let Some(t) = inner.retry_at {
                let ms = t.saturating_duration_since(now).as_millis() as u64;
                hint_ms = hint_ms.max(ms.min(2_000));
            }
        }
        transient_error("all replicas saturated or down", Some(hint_ms))
    }

    /// Routes one idempotent read, failing over across replicas on
    /// transport errors and honoring transient responses with the
    /// shared backoff schedule. Returns the response and the replica
    /// that produced it (None for router-generated sheds/errors).
    fn route_read(&self, line: &str, exclude: &[usize]) -> (String, Option<usize>) {
        let salt = self.next_client_id.load(Ordering::Relaxed);
        let bo = Backoff::serve_client(salt);
        let mut tried: Vec<usize> = exclude.to_vec();
        let mut attempt = 0u32;
        let mut had_failover_candidate = false;
        loop {
            let Some(b) = self.pick(&tried) else {
                // Every replica tried or unselectable. One more pass is
                // allowed after a backoff if the budget remains and the
                // exhaustion came from failures rather than saturation.
                if attempt < self.cfg.retries && tried.len() > exclude.len() {
                    attempt += 1;
                    tried.truncate(exclude.len());
                    std::thread::sleep(bo.delay(attempt).min(Duration::from_millis(250)));
                    continue;
                }
                if had_failover_candidate {
                    return (transient_error("no replica could serve the request", None), None);
                }
                return (self.shed_response(), None);
            };
            match self.forward(&b, line, self.cfg.request_deadline) {
                Ok(resp)
                    if field_bool(&resp, "transient") == Some(true)
                        && attempt < self.cfg.retries =>
                {
                    // The replica shed us; try a sibling after the
                    // hinted (or computed) delay.
                    self.metrics.retries.incr();
                    let d = bo.delay_with_hint(attempt, retry_after_ms(&resp));
                    attempt += 1;
                    tried.push(b.id);
                    std::thread::sleep(d.min(Duration::from_millis(250)));
                }
                Ok(resp) => return (resp, Some(b.id)),
                Err(ForwardError::NotSelectable) => {
                    tried.push(b.id);
                }
                Err(ForwardError::Io) | Err(ForwardError::Injected) => {
                    // Mid-request death: the read is idempotent, so it
                    // is retried on a different replica — a failover.
                    had_failover_candidate = true;
                    self.metrics.failovers.incr();
                    tried.push(b.id);
                }
            }
        }
    }

    /// Routes a `submit`: forwards as an idempotent read, then maps
    /// the backend-local id to a router-scoped one so later
    /// `poll`/`wait`/`cancel`/`span` ops can find (or re-execute) it.
    fn route_submit(&self, line: &str) -> String {
        let (resp, backend) = self.route_read(line, &[]);
        let (Some(backend), Some(remote_id)) = (backend, field_u64(&resp, "id")) else {
            return resp;
        };
        let router_id = self.next_client_id.fetch_add(1, Ordering::Relaxed) + 1;
        {
            let mut map = tracked_lock(&self.idmap, "route.idmap");
            if map.order.len() >= ID_MAP_CAPACITY {
                if let Some(old) = map.order.pop_front() {
                    map.entries.remove(&old);
                }
            }
            map.order.push_back(router_id);
            map.entries
                .insert(router_id, IdEntry { backend, remote_id, submit_line: line.to_string() });
        }
        set_u64(&resp, "id", router_id)
    }

    /// Routes an id-addressed op to the replica owning that submit.
    /// If that replica died, `poll`/`wait` re-execute the original
    /// submit on a sibling (idempotent-read failover) and continue
    /// there; `cancel` is reported lost.
    fn route_by_id(&self, op: &str, req: &Request) -> String {
        let router_id = match req.u64_or("id", 0) {
            Ok(id) => id,
            Err(e) => return error_response(&e),
        };
        let entry = {
            let map = tracked_lock(&self.idmap, "route.idmap");
            map.entries.get(&router_id).cloned()
        };
        let Some(mut entry) = entry else {
            return error_response(&format!("unknown id {router_id}"));
        };
        let fwd = JsonObj::new().str("op", op).u64("id", entry.remote_id).finish();
        let first = self.forward(&self.backends[entry.backend], &fwd, self.cfg.request_deadline);
        match first {
            Ok(resp) => with_id(resp, router_id),
            Err(_) if matches!(op, "poll" | "wait") => {
                // The owning replica died mid-request. Re-execute the
                // stored submit elsewhere and repoint the mapping.
                self.metrics.failovers.incr();
                let (resub, new_backend) = self.route_read(&entry.submit_line, &[entry.backend]);
                let (Some(nb), Some(new_remote)) = (new_backend, field_u64(&resub, "id")) else {
                    return transient_error(
                        "backend died mid-request and no replica could take over",
                        None,
                    );
                };
                entry.backend = nb;
                entry.remote_id = new_remote;
                {
                    let mut map = tracked_lock(&self.idmap, "route.idmap");
                    map.entries.insert(router_id, entry.clone());
                }
                let fwd = JsonObj::new().str("op", op).u64("id", new_remote).finish();
                match self.forward(&self.backends[nb], &fwd, self.cfg.request_deadline) {
                    Ok(resp) => with_id(resp, router_id),
                    Err(_) => transient_error("failover replica also failed", None),
                }
            }
            Err(_) => transient_error("backend unavailable for this id", None),
        }
    }

    // ---- write path ------------------------------------------------

    /// Hands a write to the serializer thread and waits for the
    /// fanned-out result.
    fn submit_write(&self, line: &str) -> String {
        let (reply_tx, reply_rx) = mpsc::channel();
        let tx = {
            let guard = tracked_lock(&self.writer, "route.writer");
            guard.clone()
        };
        if tx.send(WriteJob::Client { line: line.to_string(), reply: reply_tx }).is_err() {
            return error_response("router write path is shut down");
        }
        reply_rx.recv().unwrap_or_else(|_| error_response("router write path is shut down"))
    }

    /// Writer-thread body for one replicated write: journal it, fan it
    /// out to every selectable replica in id order, reconcile epochs,
    /// and aggregate the outcome. Replicas that miss the write keep
    /// their cursor behind and are repaired by probe-triggered replay.
    fn fan_out_write(&self, line: &str) -> String {
        let (seq, line) = {
            let mut j = tracked_lock(&self.journal, "route.journal");
            let seq = j.head + 1;
            j.head = seq;
            // Tag the write with its journal seq (`rseq`): backends
            // dedup on it, which makes replication and replay
            // exactly-once per replica — a lagged replica that applied
            // a write the router recorded as missed skips the replayed
            // copy instead of double-applying and forking its epoch.
            let tagged = set_u64(line, "rseq", seq);
            j.entries.push_back(JournalEntry { seq, line: tagged.clone() });
            while j.entries.len() > self.cfg.journal_capacity {
                j.entries.pop_front();
            }
            self.metrics.journal_entries.set(j.entries.len() as u64);
            (seq, tagged)
        };
        let line = line.as_str();
        let mut first_ok: Option<String> = None;
        let mut ok_count = 0usize;
        let mut missed = 0usize;
        let mut rejected: Option<String> = None;
        let mut any_transient = false;
        for b in &self.backends {
            match self.forward_write(b, line, seq) {
                WriteOutcome::Applied(resp) => {
                    ok_count += 1;
                    if first_ok.is_none() {
                        first_ok = Some(resp);
                    }
                }
                WriteOutcome::Missed { transient } => {
                    missed += 1;
                    any_transient |= transient;
                }
                WriteOutcome::Rejected(resp) => {
                    // The batch itself is invalid; every replica will
                    // refuse it identically.
                    if rejected.is_none() {
                        rejected = Some(resp);
                    }
                }
            }
        }
        if ok_count == 0 {
            // Nothing applied anywhere: retract the journal entry so a
            // client retry gets a fresh seq and replay never applies a
            // write the client was told failed.
            let mut j = tracked_lock(&self.journal, "route.journal");
            if j.entries.back().is_some_and(|e| e.seq == seq) {
                j.entries.pop_back();
                j.head = seq - 1;
            }
            self.metrics.journal_entries.set(j.entries.len() as u64);
            drop(j);
            if let Some(resp) = rejected {
                return resp;
            }
            return JsonObj::new()
                .bool("ok", false)
                .str("error", "write reached no replica")
                .bool("transient", any_transient || missed > 0)
                .finish();
        }
        // The first replica's response, plus the fleet accounting.
        let base = first_ok.unwrap_or_else(|| JsonObj::new().bool("ok", true).finish());
        let out = set_u64(&base, "seq", seq);
        let out = set_u64(&out, "replicas_ok", ok_count as u64);
        set_u64(&out, "replicas_missed", missed as u64)
    }

    /// Forwards one journaled write to one replica and updates its
    /// cursor/epoch on success.
    fn forward_write(&self, b: &Arc<Backend>, line: &str, seq: u64) -> WriteOutcome {
        {
            let inner = tracked_lock(&b.inner, "route.backend");
            if inner.state == BackendState::Down {
                return WriteOutcome::Missed { transient: true };
            }
        }
        match self.forward(b, line, self.cfg.request_deadline) {
            Err(_) => WriteOutcome::Missed { transient: true },
            Ok(resp) if field_bool(&resp, "transient") == Some(true) => {
                WriteOutcome::Missed { transient: true }
            }
            Ok(resp) if field_bool(&resp, "ok") == Some(false) => WriteOutcome::Rejected(resp),
            Ok(resp) => {
                let mut inner = tracked_lock(&b.inner, "route.backend");
                inner.applied_seq = seq;
                if let Some(e) = field_u64(&resp, "epoch") {
                    inner.epoch = e;
                }
                WriteOutcome::Applied(resp)
            }
        }
    }

    /// Writer-thread body for a probe-requested replay: push every
    /// journal entry past the replica's cursor, in order. Run serially
    /// with client writes, so a replayed replica converges to exactly
    /// the fleet sequence.
    fn replay(&self, backend: usize) {
        let Some(b) = self.backends.get(backend) else { return };
        let (cursor, unrecoverable) = {
            let inner = tracked_lock(&b.inner, "route.backend");
            (inner.applied_seq, inner.unrecoverable.is_some())
        };
        if unrecoverable {
            return;
        }
        let pending: Vec<(u64, String)> = {
            let j = tracked_lock(&self.journal, "route.journal");
            if j.head == cursor {
                Vec::new()
            } else if j.entries.front().is_some_and(|e| e.seq > cursor + 1) {
                // The journal no longer holds the replica's gap.
                let bm = &self.metrics.backends[b.id];
                let mut inner = tracked_lock(&b.inner, "route.backend");
                inner.unrecoverable = Some("journal window lost; reload required");
                inner.state = BackendState::Degraded;
                bm.state.set(inner.state.as_gauge());
                return;
            } else {
                j.entries
                    .iter()
                    .filter(|e| e.seq > cursor)
                    .map(|e| (e.seq, e.line.clone()))
                    .collect()
            }
        };
        let mut replayed = 0u64;
        for (seq, line) in pending {
            match self.forward_write(b, &line, seq) {
                WriteOutcome::Applied(_) => replayed += 1,
                // A rejected replayed entry was rejected when first
                // written too (some replica applied it then, so a
                // divergence will surface through epochs) — skip it
                // rather than wedging the replica forever.
                WriteOutcome::Rejected(_) => {
                    let mut inner = tracked_lock(&b.inner, "route.backend");
                    inner.applied_seq = seq;
                }
                WriteOutcome::Missed { .. } => return, // probe will retry
            }
        }
        if replayed > 0 {
            self.metrics.journal_replayed.add(replayed);
        }
        // Caught up: promote.
        let bm = &self.metrics.backends[b.id];
        let mut inner = tracked_lock(&b.inner, "route.backend");
        if inner.state != BackendState::Down {
            inner.state = BackendState::Healthy;
            inner.retry_at = None;
            bm.state.set(inner.state.as_gauge());
        }
    }

    // ---- probing ---------------------------------------------------

    /// One prober sweep: every backend past its reconnect horizon gets
    /// a fresh-connection `stats` probe under the probe deadline.
    fn probe_round(&self) {
        for b in &self.backends {
            let due = {
                let inner = tracked_lock(&b.inner, "route.backend");
                inner.next_probe_at <= Instant::now()
            };
            if due {
                self.probe_one(b);
            }
        }
    }

    fn probe_one(&self, b: &Arc<Backend>) {
        self.metrics.probes.incr();
        let probe = self.dial(&b.addr, self.cfg.probe_deadline).and_then(|mut c| {
            Self::exchange(&mut c, "{\"op\":\"stats\"}", self.cfg.probe_deadline)
        });
        let resp = match probe {
            Err(_) => {
                self.metrics.probe_failures.incr();
                self.record_failure(b);
                return;
            }
            Ok(resp) => resp,
        };
        let epoch = field_u64(&resp, "epoch").unwrap_or(0);
        let head = {
            let j = tracked_lock(&self.journal, "route.journal");
            j.head
        };
        let fleet_epoch = self.fleet_epoch(head, b.id);
        let needs_replay = {
            let bm = &self.metrics.backends[b.id];
            let mut inner = tracked_lock(&b.inner, "route.backend");
            inner.failures = 0;
            inner.next_probe_at = Instant::now() + self.cfg.probe_interval;
            if epoch < inner.epoch {
                // The replica's own epoch history regressed: it
                // restarted and lost state. Rewind the cursor so
                // replay rebuilds it from the journal.
                inner.applied_seq = 0;
                inner.unrecoverable = None;
            }
            inner.epoch = epoch;
            let lagging = inner.applied_seq < head;
            if lagging {
                // A successful probe means reachable, so Down lifts to
                // Degraded here — which also unblocks the replay
                // forwards that repair the lag.
                inner.state = BackendState::Degraded;
            } else if fleet_epoch.is_some_and(|fe| fe != epoch) {
                // Same cursor, different epoch: the replica took
                // installs the router never saw. Replay cannot
                // repair a fork — hold it Degraded.
                inner.state = BackendState::Degraded;
                inner.unrecoverable = Some("epoch diverged from fleet");
            } else {
                inner.unrecoverable = None;
                inner.state = BackendState::Healthy;
                inner.retry_at = None;
            }
            bm.state.set(inner.state.as_gauge());
            lagging
        };
        if needs_replay {
            let tx = {
                let guard = tracked_lock(&self.writer, "route.writer");
                guard.clone()
            };
            let _ = tx.send(WriteJob::Replay { backend: b.id });
        }
    }

    /// The fleet's reference epoch: the epoch reported by any *other*
    /// replica whose cursor is at the journal head. None when no other
    /// replica is caught up (nothing to compare against).
    fn fleet_epoch(&self, head: u64, excluding: usize) -> Option<u64> {
        for b in &self.backends {
            if b.id == excluding {
                continue;
            }
            let inner = tracked_lock(&b.inner, "route.backend");
            if inner.applied_seq == head
                && inner.state != BackendState::Down
                && inner.unrecoverable.is_none()
            {
                return Some(inner.epoch);
            }
        }
        None
    }

    // ---- aggregate responses ---------------------------------------

    /// Router-level state for scripts and tests: per-backend states,
    /// cursors, epochs, and the headline counters.
    fn route_stats_response(&self) -> String {
        let head = {
            let j = tracked_lock(&self.journal, "route.journal");
            j.head
        };
        let mut states = String::new();
        let mut epochs = String::new();
        let mut seqs = String::new();
        for (i, b) in self.backends.iter().enumerate() {
            let inner = tracked_lock(&b.inner, "route.backend");
            if i > 0 {
                states.push(',');
                epochs.push(',');
                seqs.push(',');
            }
            states.push_str(inner.state.name());
            epochs.push_str(&inner.epoch.to_string());
            seqs.push_str(&inner.applied_seq.to_string());
        }
        let obj = JsonObj::new()
            .bool("ok", true)
            .str("states", &states)
            .str("epochs", &epochs)
            .str("applied_seqs", &seqs)
            .u64("fleet_seq", head);
        stats_fields(ROUTE_FAMILIES, &self.metrics, obj).finish()
    }

    /// Fleet-wide `graph-stats`: asks every non-Down replica for its
    /// graph stats and reports the per-backend epoch set plus whether
    /// the fleet is in sync (all cursors at head, all epochs equal).
    fn graph_stats_response(&self) -> String {
        let head = {
            let j = tracked_lock(&self.journal, "route.journal");
            j.head
        };
        let line = "{\"op\":\"graph-stats\"}";
        let mut epochs = String::new();
        let mut in_sync = true;
        let mut reference: Option<u64> = None;
        for (i, b) in self.backends.iter().enumerate() {
            if i > 0 {
                epochs.push(',');
            }
            let down = {
                let inner = tracked_lock(&b.inner, "route.backend");
                inner.state == BackendState::Down
            };
            let epoch = if down {
                in_sync = false;
                None
            } else {
                match self.forward(b, line, self.cfg.request_deadline) {
                    Ok(resp) => field_u64(&resp, "epoch"),
                    Err(_) => None,
                }
            };
            match epoch {
                None => {
                    in_sync = false;
                    epochs.push('-');
                }
                Some(e) => {
                    epochs.push_str(&e.to_string());
                    match reference {
                        None => reference = Some(e),
                        Some(r) if r != e => in_sync = false,
                        Some(_) => {}
                    }
                    let inner = tracked_lock(&b.inner, "route.backend");
                    if inner.applied_seq != head {
                        in_sync = false;
                    }
                }
            }
        }
        JsonObj::new()
            .bool("ok", true)
            .u64("backends", self.backends.len() as u64)
            .str("epochs", &epochs)
            .bool("in_sync", in_sync)
            .u64("fleet_seq", head)
            .u64("fleet_epoch", reference.unwrap_or(0))
            .finish()
    }
}

enum WriteOutcome {
    Applied(String),
    Missed { transient: bool },
    Rejected(String),
}

/// Whether routing may hand `b` another request right now: not Down,
/// not inside a backoff window the replica asked for, and under the
/// in-flight cap.
fn selectable(b: &BackendInner, now: Instant, max_inflight: usize) -> bool {
    b.state != BackendState::Down
        && b.retry_at.is_none_or(|t| t <= now)
        && b.outstanding < max_inflight
}

/// A backend reply with its backend-local `id` swapped for the
/// router-scoped one; a reply that names no id (an error) passes
/// through untouched.
fn with_id(resp: String, router_id: u64) -> String {
    match field_u64(&resp, "id") {
        Some(_) => set_u64(&resp, "id", router_id),
        None => resp,
    }
}

impl Frontend for Router {
    fn handle_line(&self, line: &str) -> (String, bool) {
        Router::handle_line(self, line)
    }

    fn exposition(&self) -> String {
        render(ROUTE_FAMILIES, &self.metrics)
    }

    /// No forward is checked out against any replica.
    fn is_quiescent(&self) -> bool {
        self.outstanding_total() == 0
    }

    fn observe(&self, event: WireEvent) {
        match event {
            WireEvent::LineRejected => self.metrics.wire_malformed.incr(),
            WireEvent::Draining => self.begin_shutdown(),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_gauge_encoding_is_ordered() {
        assert_eq!(BackendState::Down.as_gauge(), 0);
        assert_eq!(BackendState::Degraded.as_gauge(), 1);
        assert_eq!(BackendState::Healthy.as_gauge(), 2);
        assert_eq!(BackendState::Healthy.name(), "healthy");
    }

    #[test]
    fn id_rewriting_round_trips() {
        let resp = r#"{"ok":true,"id":41,"trace_id":"t-41","status":"queued"}"#;
        let out = with_id(resp.to_string(), 7);
        assert_eq!(out, r#"{"ok":true,"id":7,"trace_id":"t-41","status":"queued"}"#);
        assert_eq!(field_u64(&out, "id"), Some(7));
        // Missing key: line passes through untouched, even when an
        // error message spells one out.
        for bare in [r#"{"ok":true}"#, r#"{"ok":false,"error":"no "id":5 here"}"#] {
            assert_eq!(with_id(bare.to_string(), 7), bare);
        }
    }

    #[test]
    fn transient_detection_matches_wire_flag() {
        // What the router writes for a shed is what it reads as one.
        let shed = transient_error("all replicas saturated or down", Some(75));
        assert_eq!(field_bool(&shed, "transient"), Some(true));
        assert_eq!(retry_after_ms(&shed), Some(75));
        assert_eq!(field_bool(r#"{"ok":false,"transient":false}"#, "transient"), Some(false));
        assert_eq!(field_bool(r#"{"ok":true}"#, "transient"), None);
        let quoted = error_response("upstream said \"transient\":true");
        assert_eq!(field_bool(&quoted, "transient"), None);
    }

    #[test]
    fn router_requires_backends() {
        assert!(Router::start(RouterConfig::default()).is_err());
    }
}
