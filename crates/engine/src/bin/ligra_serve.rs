//! `ligra-serve`: a JSONL front-end for the concurrent query engine.
//!
//! One request per line, one flat-JSON response per line, over stdin
//! (default) or a localhost TCP socket (`--listen`). A third mode,
//! `--client ADDR`, pumps stdin lines to a running server and prints the
//! responses — a dependency-free smoke client for scripts and CI.
//!
//! ```text
//! ligra-serve [--listen ADDR | --client ADDR] [--metrics-addr ADDR]
//!             [--workers N] [--queue N] [--cache N]
//!             [--graph PATH [--directed] [--weighted]]
//!             [--fault SPEC]... [--fault-seed N]
//!             [--compact-threshold ARCS]
//! ```
//!
//! This file is flag parsing and the `--client` pump. The request
//! handler (every op, documented there) is `ligra_engine::handler`; the
//! connection loop, listeners and shutdown drain are
//! `ligra_engine::serve`, shared with `ligra-route`.
//!
//! The `shutdown` op (or SIGTERM on unix) stops the server gracefully:
//! new connections are refused, in-flight queries drain for up to
//! `serve::DRAIN_DEADLINE` (5 s), and the process exits 0 — a clean stop
//! is distinguishable from a crash by exit code.
//!
//! `--metrics-addr` starts a loopback HTTP listener speaking Prometheus
//! text exposition (format 0.0.4) over the engine's metrics registry —
//! `curl http://ADDR/metrics` (any path works) returns the closed
//! family vocabulary pinned in `tests/tests/telemetry.rs`. Setting
//! `LIGRA_TRACE_DIR` makes every executed query write its per-round
//! kernel trace as `query-<trace_id>.jsonl` there; the same `trace_id`
//! appears in `submit`/`poll`/`span` responses, joining a serving-tier
//! span to its edgeMap rounds.
//!
//! `--fault point:action[:nth]` arms a deterministic fault (DESIGN.md
//! §11) at one of the points a replica passes through: `edgemap.round`,
//! `mutate.apply` or `mutate.compact`. It is accepted only in builds
//! with the `fault-inject` feature.
//! Every query runs the paper's `Auto` traversal. Overlays past
//! `--compact-threshold` arcs compact automatically (0 disables).

use ligra_engine::backoff::{retry_after_ms, Backoff};
use ligra_engine::serve::{fault_plan, install_sigterm_latch, DRAIN_DEADLINE};
use ligra_engine::wire::field_bool;
use ligra_engine::{Engine, EngineConfig, MutationConfig, MutationLog, Replica, Server};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;

struct Args {
    listen: Option<String>,
    client: Option<String>,
    metrics_addr: Option<String>,
    /// The engine's own knobs; `fault` and `trace_dir` are filled in
    /// from the specs and `LIGRA_TRACE_DIR`.
    engine: EngineConfig,
    graph: Option<String>,
    symmetric: bool,
    weighted: bool,
    fault_specs: Vec<String>,
    fault_seed: u64,
    compact_threshold: Option<u64>,
}

/// Operator-facing fatal error: report and exit instead of panicking
/// (`clippy::panic` is denied across the engine crate, binaries included).
fn fatal(msg: &str) -> ! {
    eprintln!("ligra-serve: {msg}");
    std::process::exit(2);
}

fn usage() -> ! {
    eprintln!(
        "usage: ligra-serve [--listen ADDR | --client ADDR] [--metrics-addr ADDR] \
         [--workers N] [--queue N] [--cache N] \
         [--graph PATH [--directed] [--weighted]] [--fault SPEC]... [--fault-seed N] \
         [--compact-threshold ARCS]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        listen: None,
        client: None,
        metrics_addr: None,
        engine: EngineConfig::default(),
        graph: None,
        symmetric: true,
        weighted: false,
        fault_specs: Vec::new(),
        fault_seed: 1,
        compact_threshold: MutationConfig::default().compact_threshold,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let cfg = &mut args.engine;
        let mut value =
            |name: &str| it.next().unwrap_or_else(|| fatal(&format!("{name} needs a value")));
        fn parsed<T: std::str::FromStr>(name: &str, raw: &str) -> T {
            raw.parse().unwrap_or_else(|_| fatal(&format!("{name}: cannot parse {raw:?}")))
        }
        match a.as_str() {
            "--listen" => args.listen = Some(value("--listen")),
            "--client" => args.client = Some(value("--client")),
            "--metrics-addr" => args.metrics_addr = Some(value("--metrics-addr")),
            "--workers" => cfg.workers = parsed("--workers", &value("--workers")),
            "--queue" => cfg.queue_capacity = parsed("--queue", &value("--queue")),
            "--cache" => cfg.cache_capacity = parsed("--cache", &value("--cache")),
            "--graph" => args.graph = Some(value("--graph")),
            "--directed" => args.symmetric = false,
            "--weighted" => args.weighted = true,
            "--fault" => args.fault_specs.push(value("--fault")),
            "--fault-seed" => args.fault_seed = parsed("--fault-seed", &value("--fault-seed")),
            "--compact-threshold" => {
                // 0 disables auto-compaction (explicit `compact` still works).
                let arcs: u64 = parsed("--compact-threshold", &value("--compact-threshold"));
                args.compact_threshold = (arcs > 0).then_some(arcs);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    if args.listen.is_some() && args.client.is_some() {
        eprintln!("--listen and --client are mutually exclusive");
        usage();
    }
    args
}

/// Client-side retry budget for responses flagged `"transient":true`
/// (queue-full, router sheds, injected transient faults).
const CLIENT_RETRIES: u32 = 3;

fn run_client(addr: &str) {
    let stream =
        TcpStream::connect(addr).unwrap_or_else(|e| fatal(&format!("connect {addr}: {e}")));
    let mut reader =
        BufReader::new(stream.try_clone().unwrap_or_else(|e| fatal(&format!("clone stream: {e}"))));
    let mut writer = BufWriter::new(stream);
    let stdin = std::io::stdin();
    for (line_no, line) in stdin.lock().lines().enumerate() {
        let line = line.unwrap_or_else(|e| fatal(&format!("read stdin: {e}")));
        if line.trim().is_empty() {
            continue;
        }
        let mut attempt = 0u32;
        loop {
            if writeln!(writer, "{line}").and_then(|()| writer.flush()).is_err() {
                fatal("send request: connection lost");
            }
            let mut resp = String::new();
            match reader.read_line(&mut resp) {
                Err(e) => fatal(&format!("read response: {e}")),
                Ok(0) => return,
                Ok(_) => {}
            }
            // Transient shed (queue-full, router shed, injected fault):
            // honor the server's retry-after hint when present, else
            // the shared jittered exponential backoff schedule
            // (`ligra_engine::backoff`), up to the retry budget.
            if field_bool(&resp, "transient") == Some(true) && attempt < CLIENT_RETRIES {
                let delay = Backoff::serve_client(line_no as u64)
                    .delay_with_hint(attempt, retry_after_ms(&resp));
                attempt += 1;
                eprintln!(
                    "ligra-serve: transient failure, retry {attempt}/{CLIENT_RETRIES} \
                     in {} ms",
                    delay.as_millis()
                );
                std::thread::sleep(delay);
                continue;
            }
            print!("{resp}");
            break;
        }
    }
}

fn main() {
    let args = parse_args();
    if let Some(addr) = &args.client {
        run_client(addr);
        return;
    }

    let fault = fault_plan(&args.fault_specs, args.fault_seed).unwrap_or_else(|e| fatal(&e));
    let trace_dir = std::env::var("LIGRA_TRACE_DIR").ok().map(std::path::PathBuf::from);
    if let Some(dir) = &trace_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            fatal(&format!("create LIGRA_TRACE_DIR {}: {e}", dir.display()));
        }
        eprintln!("ligra-serve: writing kernel traces to {}", dir.display());
    }
    let engine = Arc::new(Engine::new(EngineConfig { fault, trace_dir, ..args.engine }));
    let log = Arc::new(MutationLog::new(
        Arc::clone(&engine),
        MutationConfig { compact_threshold: args.compact_threshold },
    ));
    let replica = Arc::new(Replica::new(engine, log));
    let server = Server::new(Arc::clone(&replica));
    // An operator who asked for metrics should not silently run without
    // them: a failed bind is fatal.
    if let Some(addr) = &args.metrics_addr {
        let bound = server
            .listen_metrics(addr)
            .unwrap_or_else(|e| fatal(&format!("bind metrics addr {addr}: {e}")));
        eprintln!("ligra-serve: metrics on http://{bound}/metrics");
    }
    if let Some(path) = &args.graph {
        let epoch = replica
            .install_from_file(path, args.symmetric, args.weighted)
            .unwrap_or_else(|e| fatal(&format!("preload {path}: {e}")));
        eprintln!("ligra-serve: loaded {path} at epoch {epoch}");
    }

    // Graceful stop (DESIGN.md §16), same for the `shutdown` op and
    // SIGTERM: close the accept gate, let queued and running queries
    // finish up to the drain deadline, exit 0 — so a clean stop is told
    // from a crash by the exit code alone.
    install_sigterm_latch();
    let stopper = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            if server.wait_for_stop() {
                eprintln!("ligra-serve: SIGTERM received");
            }
            eprintln!(
                "ligra-serve: draining in-flight queries (deadline {} ms)",
                DRAIN_DEADLINE.as_millis()
            );
            if server.quiesce() {
                eprintln!("ligra-serve: drained; exiting");
            } else {
                eprintln!("ligra-serve: drain deadline hit with queries still in flight; exiting");
            }
            std::process::exit(0);
        })
    };

    match &args.listen {
        None => {
            if server.serve_stream(std::io::stdin().lock(), std::io::stdout().lock()) {
                return; // stdin closed without a `shutdown`
            }
        }
        Some(addr) => {
            let bound = server.listen(addr).unwrap_or_else(|e| fatal(&format!("bind {addr}: {e}")));
            eprintln!("ligra-serve: listening on {bound}");
        }
    }
    let _ = stopper.join(); // the stopper exits the process
}
