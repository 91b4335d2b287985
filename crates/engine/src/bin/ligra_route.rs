//! `ligra-route`: a replicated-serving router over `ligra-serve`
//! backends.
//!
//! Speaks the same flat-JSONL protocol as `ligra-serve` on the client
//! side and fans ops out to N backends (DESIGN.md §16): reads go to
//! the least-loaded live replica with failover, writes are journaled
//! and replicated to every replica, and health probes drive each
//! replica's Healthy/Degraded/Down state machine.
//!
//! ```text
//! ligra-route --listen ADDR --backend ADDR [--backend ADDR]...
//!             [--metrics-addr ADDR]
//!             [--probe-interval-ms N] [--probe-deadline-ms N]
//!             [--request-deadline-ms N]
//!             [--fault SPEC]... [--fault-seed N]
//! ```
//!
//! Router-local ops: `ping`, `route-stats` (backend states, cursors,
//! failover/shed/retry counters), `shutdown` (drain for up to
//! `serve::DRAIN_DEADLINE`, then exit 0; also triggered by SIGTERM on
//! unix). `graph-stats` is answered fleet-wide
//! with the per-backend epoch set and an `in_sync` verdict. Everything
//! else is routed: `submit`/`poll`/`wait`/`cancel`/`span`/`stats` as
//! reads, `load`/`gen`/`mutate`/`compact` as replicated writes.
//!
//! `--fault route.forward:action[:nth]` arms a deterministic fault on
//! the router→backend hop (`fault-inject` builds only) so the chaos
//! suite can error or lag forwards and assert failover behavior.
//!
//! This file is flag parsing; the routing logic is `ligra_engine::route`
//! and the connection loop, listeners and shutdown drain are
//! `ligra_engine::serve`, shared with `ligra-serve`.

use ligra_engine::serve::{fault_plan, install_sigterm_latch};
use ligra_engine::{Router, RouterConfig, Server};
use std::sync::Arc;
use std::time::Duration;

struct Args {
    listen: String,
    metrics_addr: Option<String>,
    /// The router's own knobs; `fault` is filled in from the specs.
    router: RouterConfig,
    fault_specs: Vec<String>,
    fault_seed: u64,
}

/// Operator-facing fatal error: report and exit instead of panicking
/// (`clippy::panic` is denied across the engine crate, binaries included).
fn fatal(msg: &str) -> ! {
    eprintln!("ligra-route: {msg}");
    std::process::exit(2);
}

fn usage() -> ! {
    eprintln!(
        "usage: ligra-route --listen ADDR --backend ADDR [--backend ADDR]... \
         [--metrics-addr ADDR] [--probe-interval-ms N] \
         [--probe-deadline-ms N] [--request-deadline-ms N] \
         [--fault SPEC]... [--fault-seed N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        listen: "127.0.0.1:7200".to_string(),
        metrics_addr: None,
        router: RouterConfig::default(),
        fault_specs: Vec::new(),
        fault_seed: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let cfg = &mut args.router;
        let mut value =
            |name: &str| it.next().unwrap_or_else(|| fatal(&format!("{name} needs a value")));
        fn parsed<T: std::str::FromStr>(name: &str, raw: &str) -> T {
            raw.parse().unwrap_or_else(|_| fatal(&format!("{name}: cannot parse {raw:?}")))
        }
        fn ms(name: &str, raw: &str) -> Duration {
            Duration::from_millis(parsed(name, raw))
        }
        match a.as_str() {
            "--listen" => args.listen = value("--listen"),
            "--backend" => cfg.backends.push(value("--backend")),
            "--metrics-addr" => args.metrics_addr = Some(value("--metrics-addr")),
            "--probe-interval-ms" => {
                cfg.probe_interval = ms("--probe-interval-ms", &value("--probe-interval-ms"))
            }
            "--probe-deadline-ms" => {
                cfg.probe_deadline = ms("--probe-deadline-ms", &value("--probe-deadline-ms"))
            }
            "--request-deadline-ms" => {
                cfg.request_deadline = ms("--request-deadline-ms", &value("--request-deadline-ms"))
            }
            "--fault" => args.fault_specs.push(value("--fault")),
            "--fault-seed" => args.fault_seed = parsed("--fault-seed", &value("--fault-seed")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    if args.router.backends.is_empty() {
        eprintln!("at least one --backend is required");
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    let fault = fault_plan(&args.fault_specs, args.fault_seed).unwrap_or_else(|e| fatal(&e));
    let router = Router::start(RouterConfig { fault, ..args.router }).unwrap_or_else(|e| fatal(&e));
    let server = Server::new(Arc::clone(&router));
    if let Some(addr) = &args.metrics_addr {
        let bound = server
            .listen_metrics(addr)
            .unwrap_or_else(|e| fatal(&format!("bind metrics addr {addr}: {e}")));
        eprintln!("ligra-route: metrics on http://{bound}/metrics");
    }
    install_sigterm_latch();
    let bound = server
        .listen(&args.listen)
        .unwrap_or_else(|e| fatal(&format!("bind {}: {e}", args.listen)));
    eprintln!("ligra-route: listening on {bound} over {} backend(s)", router.num_backends());

    // Graceful stop (`shutdown` op or SIGTERM): stop accepting, wait for
    // outstanding forwards to finish up to the drain deadline, exit 0.
    if server.wait_for_stop() {
        eprintln!("ligra-route: SIGTERM received");
    }
    eprintln!("ligra-route: draining {} outstanding forwards", router.outstanding_total());
    if server.quiesce() {
        eprintln!("ligra-route: drained; exiting");
    } else {
        eprintln!("ligra-route: drain deadline hit with forwards still in flight; exiting");
    }
}
