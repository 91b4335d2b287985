//! Router robustness suite (`ligra_engine::route`, DESIGN.md §16).
//!
//! Drives a real in-process [`Router`] against scriptable fake JSONL
//! backends whose failure modes we control exactly: torn mid-line
//! responses, black holes that accept TCP but never answer, lagged
//! replicas that answer after the router's deadline, and SIGKILL-style
//! death with later rejoin. The chaos sweeps at the bottom are the
//! acceptance gate: across seeds, with one of three replicas killed
//! (and separately lagged) mid-sweep, the router must finish with zero
//! non-transient client errors, at least one failover, and the
//! rejoined replica must converge back to the fleet epoch via journal
//! replay.
//!
//! Fakes mirror the two wire contracts the router depends on: flat
//! one-line JSON responses, and `rseq` dedup on replicated writes
//! (`ligra-serve`'s exactly-once guard), so a lagged replica that
//! applied a write the router recorded as missed does not double-apply
//! it at replay. The real guard — `Replica`'s own — is driven by
//! `router_over_real_replicas_*`, over two in-process loopback replicas.

use ligra_engine::route::{Router, RouterConfig, JOURNAL_CAPACITY};
use ligra_engine::wire::{field, field_bool, field_u64};
use ligra_engine::{Engine, EngineConfig, MutationConfig, MutationLog, Replica, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-line behavior of a fake backend.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Answer correctly and immediately.
    Normal,
    /// Write a torn half-response and close the connection.
    Torn,
    /// Read requests forever, never answer (probe-deadline fodder).
    BlackHole,
    /// Sleep this many ms, then apply + answer — a replica slower than
    /// the router's deadline, which still applies the writes it got.
    Lag(u64),
}

#[derive(Clone)]
struct FakeState {
    mode: Arc<Mutex<Mode>>,
    epoch: Arc<AtomicU64>,
    last_rseq: Arc<AtomicU64>,
    next_id: Arc<AtomicU64>,
    alive: Arc<AtomicBool>,
}

struct Fake {
    addr: String,
    state: FakeState,
}

impl Fake {
    fn start() -> Fake {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake backend");
        Self::serve(listener)
    }

    /// Rebinds a previously killed fake's address with fresh state — a
    /// restarted replica that lost everything (epoch back to 0).
    fn restart_at(addr: &str) -> Fake {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match TcpListener::bind(addr) {
                Ok(l) => return Self::serve(l),
                Err(e) => {
                    assert!(Instant::now() < deadline, "rebind {addr}: {e}");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    fn serve(listener: TcpListener) -> Fake {
        let addr = listener.local_addr().expect("fake addr").to_string();
        let state = FakeState {
            mode: Arc::new(Mutex::new(Mode::Normal)),
            epoch: Arc::new(AtomicU64::new(0)),
            last_rseq: Arc::new(AtomicU64::new(0)),
            next_id: Arc::new(AtomicU64::new(0)),
            alive: Arc::new(AtomicBool::new(true)),
        };
        let st = state.clone();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if !st.alive.load(Ordering::Acquire) {
                    break; // drop the listener: further connects refused
                }
                let Ok(stream) = stream else { continue };
                let st = st.clone();
                std::thread::spawn(move || handle_conn(stream, st));
            }
        });
        Fake { addr, state }
    }

    fn set_mode(&self, mode: Mode) {
        *self.state.mode.lock().expect("mode lock") = mode;
    }

    /// SIGKILL equivalent: existing connections die, new ones are
    /// refused. The poke connection wakes the accept loop so the
    /// listener actually drops.
    fn kill(&self) {
        self.state.alive.store(false, Ordering::Release);
        let _ = TcpStream::connect(&self.addr);
    }

    fn epoch(&self) -> u64 {
        self.state.epoch.load(Ordering::Acquire)
    }
}

fn handle_conn(stream: TcpStream, st: FakeState) {
    let _ = stream.set_nodelay(true);
    let Ok(clone) = stream.try_clone() else { return };
    let mut reader = BufReader::new(clone);
    let mut writer = stream;
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        // A killed process takes its established connections with it:
        // close without applying or answering.
        if !st.alive.load(Ordering::Acquire) {
            return;
        }
        let mode = *st.mode.lock().expect("mode lock");
        match mode {
            Mode::BlackHole => continue, // swallow the request
            Mode::Torn => {
                let _ = writer.write_all(b"{\"ok\":tru");
                let _ = writer.flush();
                return;
            }
            Mode::Lag(ms) => std::thread::sleep(Duration::from_millis(ms)),
            Mode::Normal => {}
        }
        let resp = respond(&line, &st);
        if writer.write_all(format!("{resp}\n").as_bytes()).is_err() {
            return;
        }
    }
}

fn respond(line: &str, st: &FakeState) -> String {
    match field(line, "op").unwrap_or("") {
        "mutate" | "gen" | "load" | "compact" => {
            let rseq = field_u64(line, "rseq").unwrap_or(0);
            if rseq > 0 && rseq <= st.last_rseq.load(Ordering::Acquire) {
                return format!(
                    "{{\"ok\":true,\"epoch\":{},\"duplicate\":true}}",
                    st.epoch.load(Ordering::Acquire)
                );
            }
            let e = st.epoch.fetch_add(1, Ordering::AcqRel) + 1;
            if rseq > 0 {
                st.last_rseq.store(rseq, Ordering::Release);
            }
            format!("{{\"ok\":true,\"epoch\":{e}}}")
        }
        "stats" => format!(
            "{{\"ok\":true,\"epoch\":{},\"queued\":0,\"running\":0}}",
            st.epoch.load(Ordering::Acquire)
        ),
        "graph-stats" => format!(
            "{{\"ok\":true,\"epoch\":{},\"loaded\":true}}",
            st.epoch.load(Ordering::Acquire)
        ),
        "submit" => {
            let id = st.next_id.fetch_add(1, Ordering::AcqRel) + 1;
            format!("{{\"ok\":true,\"id\":{id},\"status\":\"queued\"}}")
        }
        "poll" | "wait" | "span" => {
            let id = field_u64(line, "id").unwrap_or(0);
            format!("{{\"ok\":true,\"id\":{id},\"status\":\"done\"}}")
        }
        "cancel" => {
            let id = field_u64(line, "id").unwrap_or(0);
            format!("{{\"ok\":true,\"id\":{id},\"status\":\"cancelled\"}}")
        }
        "ping" => "{\"ok\":true,\"pong\":\"fake\"}".to_string(),
        other => format!("{{\"ok\":false,\"error\":\"unknown op {other}\"}}"),
    }
}

/// A router over the given fakes with test-speed probe/request timing.
fn router_over(fakes: &[&Fake]) -> Arc<Router> {
    Router::start(RouterConfig {
        backends: fakes.iter().map(|f| f.addr.clone()).collect(),
        probe_interval: Duration::from_millis(50),
        probe_deadline: Duration::from_millis(150),
        request_deadline: Duration::from_millis(300),
        ..RouterConfig::default()
    })
    .expect("router start")
}

fn ask(router: &Router, line: &str) -> String {
    router.handle_line(line).0
}

fn is_ok(resp: &str) -> bool {
    field_bool(resp, "ok") == Some(true)
}

fn is_transient(resp: &str) -> bool {
    field_bool(resp, "transient") == Some(true)
}

/// Polls `cond` until it holds or ~5s elapse; returns whether it held.
fn eventually(cond: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    false
}

#[test]
fn torn_mid_line_response_fails_over_to_sibling() {
    let torn = Fake::start();
    let good = Fake::start();
    torn.set_mode(Mode::Torn);
    let router = router_over(&[&torn, &good]);
    // Rotation guarantees the torn replica is picked within two reads;
    // every client response must still come back whole and ok.
    for i in 0..6 {
        let resp = ask(&router, "{\"op\":\"stats\"}");
        assert!(is_ok(&resp), "read {i} failed: {resp}");
    }
    assert!(router.metrics().failovers.get() >= 1, "no failover recorded");
    // The torn replica keeps failing probes and ends Down.
    assert!(
        eventually(|| ask(&router, "{\"op\":\"route-stats\"}").contains("down")),
        "torn replica never marked down"
    );
    router.begin_shutdown();
}

#[test]
fn black_hole_backend_is_downed_by_probe_deadline() {
    let hole = Fake::start();
    let good = Fake::start();
    hole.set_mode(Mode::BlackHole);
    let router = router_over(&[&hole, &good]);
    // The black hole accepts TCP but never answers: only the probe
    // read deadline can catch it.
    assert!(
        eventually(|| {
            let stats = ask(&router, "{\"op\":\"route-stats\"}");
            field(&stats, "states").unwrap_or("").starts_with("down")
        }),
        "black-hole replica never marked down"
    );
    // Reads keep working throughout, served by the healthy sibling.
    for _ in 0..4 {
        let resp = ask(&router, "{\"op\":\"stats\"}");
        assert!(is_ok(&resp), "read failed with black-hole replica: {resp}");
    }
    assert!(router.metrics().probe_failures.get() >= 2);
    router.begin_shutdown();
}

#[test]
fn rejoining_replica_replays_journal_to_epoch_parity() {
    let a = Fake::start();
    let b = Fake::start();
    let router = router_over(&[&a, &b]);
    assert!(is_ok(&ask(&router, "{\"op\":\"gen\",\"family\":\"rmat\",\"log_n\":8}")));
    for _ in 0..3 {
        assert!(is_ok(&ask(&router, "{\"op\":\"mutate\",\"add\":\"0-1\"}")));
    }
    assert_eq!(a.epoch(), 4);
    assert_eq!(b.epoch(), 4);

    // Replica b dies and misses two writes.
    let b_addr = b.addr.clone();
    b.kill();
    for _ in 0..2 {
        let resp = ask(&router, "{\"op\":\"mutate\",\"add\":\"2-3\"}");
        assert!(is_ok(&resp), "write with dead replica failed: {resp}");
        assert!(resp.contains("\"replicas_missed\":1"), "missed count absent: {resp}");
    }

    // It restarts empty (epoch 0): the router must detect the epoch
    // regression, rewind its cursor, and replay all six entries.
    let b2 = Fake::restart_at(&b_addr);
    assert!(
        eventually(|| {
            let stats = ask(&router, "{\"op\":\"route-stats\"}");
            field(&stats, "applied_seqs") == Some("6,6") && field(&stats, "epochs") == Some("6,6")
        }),
        "restarted replica never converged: {}",
        ask(&router, "{\"op\":\"route-stats\"}")
    );
    assert_eq!(b2.epoch(), 6, "replayed replica epoch");
    assert!(router.metrics().journal_replayed.get() >= 6);
    let gs = ask(&router, "{\"op\":\"graph-stats\"}");
    assert!(gs.contains("\"in_sync\":true"), "fleet not in sync after replay: {gs}");
    router.begin_shutdown();
}

#[test]
fn submit_wait_fails_over_when_owning_replica_dies() {
    let a = Fake::start();
    let b = Fake::start();
    let router = router_over(&[&a, &b]);
    // Two submits: rotation places one on each replica.
    let r1 = ask(&router, "{\"op\":\"submit\",\"query\":\"bfs\",\"source\":0}");
    let r2 = ask(&router, "{\"op\":\"submit\",\"query\":\"bfs\",\"source\":0}");
    assert!(is_ok(&r1) && is_ok(&r2), "{r1} {r2}");
    a.kill();
    b.kill();
    let a2 = Fake::restart_at(&a.addr);
    // Only replica a is back: waits on ids owned by the dead replica
    // must be re-executed there, not error out.
    for resp in [r1, r2] {
        let id = field_u64(&resp, "id").expect("router id");
        let wait = ask(&router, &format!("{{\"op\":\"wait\",\"id\":{id}}}"));
        assert!(
            is_ok(&wait) || is_transient(&wait),
            "wait after owner death was a hard error: {wait}"
        );
    }
    drop(a2);
    router.begin_shutdown();
}

#[test]
fn router_over_real_replicas_replicates_dedups_and_routes_by_id() {
    // Auto-compaction off, as for any replica behind a router: epoch
    // parity is the convergence criterion.
    let replicas: Vec<Arc<Replica>> = (0..2)
        .map(|_| {
            let engine = Arc::new(Engine::new(EngineConfig::default()));
            let log = Arc::new(MutationLog::new(
                Arc::clone(&engine),
                MutationConfig { compact_threshold: None },
            ));
            Arc::new(Replica::new(engine, log))
        })
        .collect();
    let backends = replicas
        .iter()
        .map(|r| Server::new(Arc::clone(r)).listen("127.0.0.1:0").expect("bind").to_string())
        .collect();
    let router =
        Router::start(RouterConfig { backends, ..RouterConfig::default() }).expect("router start");

    // Writes fan out to both replicas, to epoch parity.
    let gen = ask(&router, "{\"op\":\"gen\",\"family\":\"grid3d\",\"side\":4}");
    assert!(gen.contains("\"replicas_ok\":2") && gen.contains("\"vertices\":64"), "{gen}");
    let mutate = ask(&router, "{\"op\":\"mutate\",\"add_vertices\":1,\"add\":\"0-64\"}");
    assert!(mutate.contains("\"replicas_ok\":2") && mutate.contains("\"seq\":2"), "{mutate}");
    let stats = ask(&router, "{\"op\":\"route-stats\"}");
    assert_eq!(field(&stats, "epochs"), Some("2,2"), "{stats}");
    assert_eq!(field(&stats, "applied_seqs"), Some("2,2"), "{stats}");
    assert!(ask(&router, "{\"op\":\"graph-stats\"}").contains("\"in_sync\":true"));

    // A replayed write (the journal seq a replica already applied) is
    // acknowledged as a duplicate without bumping its epoch.
    for replica in &replicas {
        let replayed = replica.handle_line("{\"op\":\"mutate\",\"add\":\"1-64\",\"rseq\":2}").0;
        assert_eq!(replayed, "{\"ok\":true,\"epoch\":2,\"duplicate\":true,\"rseq\":2}");
        assert_eq!(replica.engine().current_epoch(), Some(2));
    }

    // Reads: a submit through the router, then wait/span by the
    // router's id, reach the replica that owns the query.
    for _ in 0..2 {
        let submit = ask(&router, "{\"op\":\"submit\",\"query\":\"bfs\",\"source\":0}");
        let id = field_u64(&submit, "id").unwrap_or_else(|| panic!("submit refused: {submit}"));
        let wait = ask(&router, &format!("{{\"op\":\"wait\",\"id\":{id}}}"));
        assert_eq!(field_u64(&wait, "id"), Some(id), "{wait}");
        assert!(wait.contains("\"status\":\"done\"") && wait.contains("\"reached\":65"), "{wait}");
        let span = ask(&router, &format!("{{\"op\":\"span\",\"id\":{id}}}"));
        assert!(span.contains("\"query\":\"bfs\"") && span.contains("\"epoch\":2"), "{span}");
    }
    // Rotation placed one submit on each replica.
    for replica in &replicas {
        assert_eq!(replica.engine().metrics().submitted.get(), 1);
    }
    router.begin_shutdown();
}

#[test]
fn all_replicas_down_sheds_with_retry_hint() {
    let a = Fake::start();
    let router = router_over(&[&a]);
    a.kill();
    // Let the prober notice, then reads must shed transiently (never
    // hang, never hard-error).
    assert!(eventually(|| ask(&router, "{\"op\":\"route-stats\"}").contains("down")));
    let resp = ask(&router, "{\"op\":\"stats\"}");
    assert!(is_transient(&resp), "shed response not transient: {resp}");
    assert!(router.metrics().sheds.get() >= 1);
    router.begin_shutdown();
}

/// The bounded journal's documented sharp edge: a replica that is Down
/// while more than [`JOURNAL_CAPACITY`] writes land cannot be replayed.
/// The router holds it Degraded and says why in `route-stats`, never
/// replays a partial gap into it, and keeps reads on its sibling.
#[test]
fn replica_behind_a_lost_journal_window_is_held_degraded() {
    let a = Fake::start();
    let b = Fake::start();
    let router = router_over(&[&a, &b]);
    assert!(is_ok(&ask(&router, "{\"op\":\"gen\",\"family\":\"rmat\",\"log_n\":8}")));
    let b_addr = b.addr.clone();
    b.kill();
    assert!(eventually(|| {
        field(&ask(&router, "{\"op\":\"route-stats\"}"), "states") == Some("healthy,down")
    }));
    // The fakes answer in microseconds, so overrunning the window is cheap.
    for i in 0..=JOURNAL_CAPACITY {
        let resp = ask(&router, "{\"op\":\"mutate\",\"add\":\"0-1\"}");
        assert!(is_ok(&resp), "write {i} with a dead replica failed: {resp}");
    }

    let _b2 = Fake::restart_at(&b_addr);
    let held = "-,journal window lost; reload required";
    assert!(
        eventually(|| field(&ask(&router, "{\"op\":\"route-stats\"}"), "held") == Some(held)),
        "replica never held: {}",
        ask(&router, "{\"op\":\"route-stats\"}")
    );
    let forwarded_to_b = router.metrics().backends[1].forwarded.get();
    for _ in 0..4 {
        let resp = ask(&router, "{\"op\":\"submit\",\"query\":\"bfs\",\"source\":0}");
        assert!(is_ok(&resp), "read with a held replica failed: {resp}");
    }
    assert_eq!(router.metrics().backends[1].forwarded.get(), forwarded_to_b, "read reached b");
    let stats = ask(&router, "{\"op\":\"route-stats\"}");
    assert_eq!(field(&stats, "states"), Some("healthy,degraded"), "{stats}");
    assert_eq!(field(&stats, "held"), Some(held), "{stats}");
    let head = JOURNAL_CAPACITY as u64 + 2;
    assert_eq!(field_u64(&stats, "fleet_seq"), Some(head), "{stats}");
    assert_eq!(field(&stats, "applied_seqs"), Some(format!("{head},0").as_str()), "{stats}");
    assert_eq!(router.metrics().journal_replayed.get(), 0, "a partial gap was replayed");
    router.begin_shutdown();
}

/// The other sharp edge: a replica whose cursor is at the journal head
/// but whose epoch moved without the router (a write applied to it
/// directly) has forked. Replay cannot repair a fork, so it is held.
#[test]
fn replica_whose_epoch_forked_at_head_is_held_degraded() {
    let a = Fake::start();
    let b = Fake::start();
    let router = router_over(&[&a, &b]);
    assert!(is_ok(&ask(&router, "{\"op\":\"gen\",\"family\":\"rmat\",\"log_n\":8}")));
    // A local install the router never saw.
    b.state.epoch.fetch_add(1, Ordering::AcqRel);

    let held = "-,epoch diverged from fleet";
    assert!(
        eventually(|| field(&ask(&router, "{\"op\":\"route-stats\"}"), "held") == Some(held)),
        "fork never held: {}",
        ask(&router, "{\"op\":\"route-stats\"}")
    );
    let stats = ask(&router, "{\"op\":\"route-stats\"}");
    assert_eq!(field(&stats, "states"), Some("healthy,degraded"), "{stats}");
    assert_eq!(field(&stats, "applied_seqs"), Some("1,1"), "{stats}");
    assert_eq!(field(&stats, "epochs"), Some("1,2"), "{stats}");
    let gs = ask(&router, "{\"op\":\"graph-stats\"}");
    assert!(gs.contains("\"in_sync\":false"), "a forked fleet reported in sync: {gs}");
    router.begin_shutdown();
}

// ---- chaos acceptance sweeps --------------------------------------

enum Disruption {
    Kill,
    Lag,
}

/// One chaos sweep (the ISSUE acceptance shape): a mixed read/write
/// workload over three replicas, one of which is killed or lagged
/// mid-sweep and rejoins afterwards. Asserts zero non-transient client
/// errors, at least one failover, and post-rejoin epoch convergence.
fn chaos_sweep(seed: u64, disruption: Disruption) {
    let fakes = [Fake::start(), Fake::start(), Fake::start()];
    let router = router_over(&[&fakes[0], &fakes[1], &fakes[2]]);
    assert!(is_ok(&ask(&router, "{\"op\":\"gen\",\"family\":\"rmat\",\"log_n\":8}")));

    let victim = (seed as usize) % fakes.len();
    let mut non_transient_errors = Vec::new();
    let mut check = |resp: String| {
        if !is_ok(&resp) && !is_transient(&resp) {
            non_transient_errors.push(resp);
        }
    };
    for i in 0..40u64 {
        // Disrupt just before a read iteration (i % 5 != 0): a write
        // hitting the victim first would penalize it into Degraded and
        // reads would simply avoid it, never exercising read failover.
        if i == 16 {
            match disruption {
                Disruption::Kill => fakes[victim].kill(),
                // Slower than the router's 300ms request deadline:
                // alive, but every exchange times out.
                Disruption::Lag => fakes[victim].set_mode(Mode::Lag(600)),
            }
        }
        if i % 5 == 0 {
            check(ask(&router, &format!("{{\"op\":\"mutate\",\"add\":\"{}-{}\"}}", seed, i)));
        } else {
            let resp = ask(&router, "{\"op\":\"submit\",\"query\":\"bfs\",\"source\":0}");
            if let Some(id) = field_u64(&resp, "id") {
                check(ask(&router, &format!("{{\"op\":\"wait\",\"id\":{id}}}")));
            }
            check(resp);
        }
    }
    assert!(
        non_transient_errors.is_empty(),
        "seed {seed}: non-transient client errors during sweep: {non_transient_errors:?}"
    );
    assert!(router.metrics().failovers.get() >= 1, "seed {seed}: no failover recorded");

    // Rejoin: the killed replica restarts empty; the lagged one simply
    // recovers. Either way the journal must restore epoch parity.
    let _revived = match disruption {
        Disruption::Kill => {
            let addr = fakes[victim].addr.clone();
            Some(Fake::restart_at(&addr))
        }
        Disruption::Lag => {
            fakes[victim].set_mode(Mode::Normal);
            None
        }
    };
    let converged = eventually(|| {
        let stats = ask(&router, "{\"op\":\"route-stats\"}");
        let seqs = field(&stats, "applied_seqs").unwrap_or("").to_string();
        let epochs = field(&stats, "epochs").unwrap_or("").to_string();
        let uniform = |s: &str| {
            let mut parts = s.split(',');
            let first = parts.next().unwrap_or("");
            !first.is_empty() && parts.all(|p| p == first)
        };
        uniform(&seqs) && uniform(&epochs)
    });
    assert!(
        converged,
        "seed {seed}: rejoined replica never converged: {}",
        ask(&router, "{\"op\":\"route-stats\"}")
    );
    let gs = ask(&router, "{\"op\":\"graph-stats\"}");
    assert!(gs.contains("\"in_sync\":true"), "seed {seed}: fleet diverged after rejoin: {gs}");
    router.begin_shutdown();
}

#[test]
fn chaos_killed_replica_failover_and_rejoin_across_seeds() {
    for seed in [1, 2, 3] {
        chaos_sweep(seed, Disruption::Kill);
    }
}

#[test]
fn chaos_lagged_replica_failover_and_rejoin_across_seeds() {
    for seed in [1, 2, 3] {
        chaos_sweep(seed, Disruption::Lag);
    }
}

/// The `route.forward` fault point: deterministic injected errors on
/// the router→backend hop must surface as failovers, never as client
/// errors — the chaos-build half of the acceptance gate.
#[cfg(feature = "fault-inject")]
#[test]
fn injected_forward_faults_reroute_across_seeds() {
    use ligra_engine::FaultPlan;
    for seed in [1, 2, 3] {
        let a = Fake::start();
        let b = Fake::start();
        let plan =
            FaultPlan::seeded(seed).arm_spec("route.forward:error:2").expect("arm route.forward");
        let router = Router::start(RouterConfig {
            backends: vec![a.addr.clone(), b.addr.clone()],
            probe_interval: Duration::from_millis(50),
            probe_deadline: Duration::from_millis(150),
            request_deadline: Duration::from_millis(300),
            fault: Some(Arc::new(plan)),
        })
        .expect("router start");
        for i in 0..8 {
            let resp = ask(&router, "{\"op\":\"stats\"}");
            assert!(is_ok(&resp), "seed {seed} read {i}: {resp}");
        }
        assert!(
            router.metrics().failovers.get() >= 1,
            "seed {seed}: injected forward fault produced no failover"
        );
        router.begin_shutdown();
    }
}
