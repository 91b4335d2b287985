//! The serving front-end shared by `ligra-serve` and `ligra-route`: the
//! JSONL connection loop, the accept loop with its shutdown gate, the
//! Prometheus scrape listener, the `--fault` plan builder and the
//! graceful-shutdown drain — written once, generic over a [`Frontend`]
//! ([`crate::Replica`] answers requests itself, [`crate::Router`] fans
//! them out). Both listeners bind whatever address they are given and
//! return the bound one, so a test can serve on `127.0.0.1:0`.
//!
//! Malformed, oversized, or non-UTF-8 request lines get an `error`
//! response and the connection keeps serving; they never tear it down.
//! Nothing here exits the process: the binaries decide what a finished
//! drain means.

use crate::wire::{error_response, read_request_line, MAX_REQUEST_LINE_BYTES};
use crate::FaultPlan;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the connection loop tells its front-end besides request lines,
/// for the wire counters and connection counts each one keeps.
#[derive(Debug, Clone, Copy)]
pub enum WireEvent {
    /// A client connection (or the stdin stream) opened.
    ConnOpened,
    /// That connection ended.
    ConnClosed,
    /// A well-formed line of this many bytes (newline excluded) was
    /// read; blank ones are counted here and then skipped.
    LineRead(usize),
    /// An oversized or non-UTF-8 line was drained and answered with an
    /// error without reaching [`Frontend::handle_line`].
    LineRejected,
    /// The accept gate closed; the drain is about to start.
    Draining,
}

/// What a [`Server`] serves.
pub trait Frontend: Send + Sync + 'static {
    /// Handles one request line; the bool is "keep serving" (false only
    /// after an acknowledged `shutdown`).
    fn handle_line(&self, line: &str) -> (String, bool);

    /// The Prometheus text exposition (format 0.0.4) a scrape returns.
    fn exposition(&self) -> String;

    /// Whether no accepted work is still in flight — the drain's exit
    /// condition.
    fn is_quiescent(&self) -> bool;

    /// Connection and wire-counter hook.
    fn observe(&self, _event: WireEvent) {}
}

/// One front-end behind its listeners. Share via `Arc`.
pub struct Server<F> {
    front: Arc<F>,
    /// Accept-gate for graceful shutdown: once set, newly accepted
    /// connections are dropped unanswered while the drain completes.
    stopping: AtomicBool,
}

impl<F: Frontend> Server<F> {
    /// A server over `front`, with no listener yet.
    pub fn new(front: Arc<F>) -> Arc<Server<F>> {
        Arc::new(Server { front, stopping: AtomicBool::new(false) })
    }

    /// Serves one request stream to its end. Returns false when a
    /// `shutdown` op was acknowledged and flushed (which also closes the
    /// accept gate and releases [`Server::wait_for_stop`]), true on EOF
    /// or a transport failure.
    pub fn serve_stream<R: BufRead, W: Write>(&self, mut reader: R, mut writer: W) -> bool {
        let front = &*self.front;
        front.observe(WireEvent::ConnOpened);
        let keep = loop {
            let line = match read_request_line(&mut reader, MAX_REQUEST_LINE_BYTES) {
                // Clean EOF, or a transport failure with nothing to answer on.
                Ok(None) | Err(_) => break true,
                Ok(Some(Err(e))) => {
                    // Oversized or non-UTF-8 line: answer and keep serving.
                    front.observe(WireEvent::LineRejected);
                    if write_response(&mut writer, &error_response(&e)).is_err() {
                        break true;
                    }
                    continue;
                }
                Ok(Some(Ok(l))) => l,
            };
            front.observe(WireEvent::LineRead(line.len()));
            if line.trim().is_empty() {
                continue;
            }
            let (resp, keep_going) = front.handle_line(&line);
            if write_response(&mut writer, &resp).is_err() {
                break true;
            }
            if !keep_going {
                break false;
            }
        };
        front.observe(WireEvent::ConnClosed);
        if !keep {
            self.stopping.store(true, Ordering::Release);
        }
        keep
    }

    /// Binds `addr` and serves JSONL connections on background threads,
    /// one per connection; returns the bound address.
    pub fn listen(self: &Arc<Self>, addr: &str) -> std::io::Result<SocketAddr> {
        let server = Arc::clone(self);
        accept_on(addr, move |stream| {
            if server.stopping.load(Ordering::Acquire) {
                return; // draining: acknowledge nothing, accept no new work
            }
            if let Ok(read_half) = stream.try_clone() {
                server.serve_stream(BufReader::new(read_half), BufWriter::new(stream));
            }
        })
    }

    /// Binds `addr` and answers Prometheus scrapes of
    /// [`Frontend::exposition`] on background threads; returns the
    /// bound address. Any request path gets the one document.
    pub fn listen_metrics(self: &Arc<Self>, addr: &str) -> std::io::Result<SocketAddr> {
        let front = Arc::clone(&self.front);
        accept_on(addr, move |stream| {
            if let Err(e) = answer_scrape(&*front, stream) {
                eprintln!("ligra-engine: metrics scrape: {e}");
            }
        })
    }

    /// Blocks until a `shutdown` op was acknowledged on some stream or
    /// SIGTERM arrived (see [`install_sigterm_latch`]), then closes the
    /// accept gate. Returns whether it was the signal.
    pub fn wait_for_stop(&self) -> bool {
        while !self.stopping.load(Ordering::Acquire) && !sigterm_received() {
            std::thread::sleep(Duration::from_millis(50));
        }
        let by_signal = !self.stopping.load(Ordering::Acquire);
        self.stopping.store(true, Ordering::Release);
        self.front.observe(WireEvent::Draining);
        by_signal
    }

    /// Waits for the front-end to go quiet, up to `deadline`; returns
    /// whether it did. Work still in flight at the deadline is the
    /// caller's to abandon — a stop must not block forever.
    pub fn quiesce(&self, deadline: Duration) -> bool {
        drain_until(|| self.front.is_quiescent(), deadline)
    }
}

/// Binds `addr` and runs `per_conn` on a thread of its own for every
/// accepted connection; returns the bound address.
fn accept_on(
    addr: &str,
    per_conn: impl Fn(TcpStream) + Send + Sync + 'static,
) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let per_conn = Arc::new(per_conn);
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            let per_conn = Arc::clone(&per_conn);
            std::thread::spawn(move || per_conn(stream));
        }
    });
    Ok(bound)
}

fn write_response<W: Write>(writer: &mut W, resp: &str) -> std::io::Result<()> {
    writeln!(writer, "{resp}").and_then(|()| writer.flush())
}

/// Cap on a whole scrape request head (request line plus headers).
const MAX_SCRAPE_HEAD_BYTES: usize = 4 * MAX_REQUEST_LINE_BYTES;

/// How long a scrape client may take to send its request head.
pub const SCRAPE_HEAD_TIMEOUT: Duration = Duration::from_secs(5);

/// A scrape connection's read half: refuses to read past the head's
/// deadline or byte cap, so neither a silent client nor an endless
/// header can hold the thread or grow memory.
struct BoundedHead {
    stream: TcpStream,
    deadline: Instant,
    bytes_left: usize,
}

impl Read for BoundedHead {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let time_left = self.deadline.saturating_duration_since(Instant::now());
        if time_left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        if self.bytes_left == 0 {
            return Err(std::io::Error::other("request head too long"));
        }
        self.stream.set_read_timeout(Some(time_left))?;
        let want = buf.len().min(self.bytes_left);
        let n = self.stream.read(&mut buf[..want])?;
        self.bytes_left -= n;
        Ok(n)
    }
}

/// Answers one Prometheus scrape: drains the request head (the path is
/// ignored — this endpoint serves exactly one document), then writes
/// the exposition with HTTP/1.0 framing and closes. A head that is
/// oversized, malformed or slower than [`SCRAPE_HEAD_TIMEOUT`] gets the
/// connection closed instead.
fn answer_scrape<F: Frontend>(front: &F, stream: TcpStream) -> std::io::Result<()> {
    let mut reader = BufReader::new(BoundedHead {
        stream: stream.try_clone()?,
        deadline: Instant::now() + SCRAPE_HEAD_TIMEOUT,
        bytes_left: MAX_SCRAPE_HEAD_BYTES,
    });
    // The request line, then headers up to the blank line (or EOF).
    let mut in_headers = false;
    while let Some(line) = read_request_line(&mut reader, MAX_REQUEST_LINE_BYTES)? {
        let line = line.map_err(std::io::Error::other)?;
        if in_headers && line.trim_end().is_empty() {
            break;
        }
        in_headers = true;
    }
    let body = front.exposition();
    let mut w = BufWriter::new(stream);
    write!(
        w,
        "HTTP/1.0 200 OK\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{}",
        body.len(),
        body
    )?;
    w.flush()
}

/// Builds a fault plan from `--fault point:action[:nth]` specs. Specs
/// are rejected when the hooks are compiled out, so an operator can't
/// arm faults that would silently never fire.
pub fn fault_plan(specs: &[String], seed: u64) -> Result<Option<Arc<FaultPlan>>, String> {
    if specs.is_empty() {
        return Ok(None);
    }
    if !cfg!(feature = "fault-inject") {
        return Err("--fault requires a build with the fault-inject feature".to_string());
    }
    let mut plan = FaultPlan::seeded(seed);
    for spec in specs {
        plan = plan.arm_spec(spec).map_err(|e| format!("--fault {spec:?}: {e}"))?;
    }
    Ok(Some(Arc::new(plan)))
}

static SIGTERM: AtomicBool = AtomicBool::new(false);

/// Installs a process-wide SIGTERM latch (no-op off unix): the handler
/// only stores an atomic flag, which [`Server::wait_for_stop`] polls so
/// a serving binary can drain and exit 0 instead of dying mid-response
/// — `kill` for a clean stop, `kill -9` for a crash. Uses a raw
/// `signal(2)` binding because the repo carries no libc crate; the
/// handler is async-signal-safe (one relaxed atomic store, no
/// allocation, no locks).
pub fn install_sigterm_latch() {
    #[cfg(unix)]
    {
        extern "C" fn on_sigterm(_signum: i32) {
            SIGTERM.store(true, Ordering::Relaxed);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGTERM_NUM: i32 = 15;
        // SAFETY: `signal` is the POSIX libc entry point (always linked
        // by std on unix); the handler passed is an `extern "C"`
        // function of the required signature that performs only an
        // atomic store, which is async-signal-safe.
        unsafe {
            signal(SIGTERM_NUM, on_sigterm as *const () as usize);
        }
    }
}

/// True once SIGTERM has been delivered (always false off unix or
/// before [`install_sigterm_latch`]).
pub fn sigterm_received() -> bool {
    SIGTERM.load(Ordering::Relaxed)
}

/// Polls `quiesced` every 10ms until it holds or `deadline` elapses;
/// returns whether the system drained in time.
pub fn drain_until(quiesced: impl Fn() -> bool, deadline: Duration) -> bool {
    let start = Instant::now();
    loop {
        if quiesced() {
            return true;
        }
        if start.elapsed() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_until_times_out_and_succeeds() {
        assert!(drain_until(|| true, Duration::from_millis(1)));
        let start = Instant::now();
        assert!(!drain_until(|| false, Duration::from_millis(30)));
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn fault_specs_need_the_feature_and_a_valid_point() {
        assert!(matches!(fault_plan(&[], 1), Ok(None)));
        let armed = fault_plan(&["wire.read:error:2".to_string()], 1);
        assert_eq!(armed.is_ok(), cfg!(feature = "fault-inject"));
        assert!(fault_plan(&["no.such.point:error".to_string()], 1).is_err());
    }
}
