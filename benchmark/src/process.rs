//! Process hygiene: spawned servers are owned by a guard that kills and
//! reaps them however the run ends, listen on ports the kernel picks, and
//! scratch files live in a directory removed on drop.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// How long a server may take to report its listening address.
const STARTUP_TIMEOUT: Duration = Duration::from_secs(15);
/// Client socket read timeout: no reply in this long fails the run
/// instead of hanging it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A scratch directory under the run's output directory, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `<parent>/tmp-<pid>-<tag>`.
    pub fn create(parent: &Path, tag: &str) -> Result<ScratchDir, String> {
        let dir = parent.join(format!("tmp-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// glibc's `cpu_set_t`: one bit per CPU, 1024 of them.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Sets the calling thread's CPU mask and returns the one it had.
#[cfg(target_os = "linux")]
fn swap_affinity(to: impl FnOnce(&CpuSet) -> CpuSet) -> Option<CpuSet> {
    let mut before: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: both calls get a pointer to a live, correctly sized CpuSet
    // and pid 0 (the calling thread); they touch nothing else.
    unsafe {
        (sched_getaffinity(0, size, &mut before) == 0
            && sched_setaffinity(0, size, &to(&before)) == 0)
            .then_some(before)
    }
}

#[cfg(not(target_os = "linux"))]
fn swap_affinity(_: impl FnOnce(&CpuSet) -> CpuSet) -> Option<CpuSet> {
    None
}

/// Keeps the calling thread on one CPU — the first it may use — until
/// dropped, and with it every thread and process it starts meanwhile:
/// they inherit the mask. A no-op where the mask cannot be set.
///
/// A served read is a chain of hand-overs between threads that each sleep
/// until the one before is done. Spread over the sandbox's two virtual
/// CPUs, every hand-over wakes an idle one, and what that costs depends on
/// what else the host is doing: the same cache-hit exchange takes 45 µs
/// beside busy neighbours and 127 µs on a quiet host. On one CPU a
/// hand-over is a context switch, 42–44 µs either way.
pub struct OneCpu(Option<CpuSet>);

impl OneCpu {
    /// Pins the calling thread.
    pub fn pin() -> OneCpu {
        OneCpu(swap_affinity(|allowed| {
            let mut one: CpuSet = [0; 16];
            if let Some(word) = allowed.iter().position(|&w| w != 0) {
                one[word] = 1 << allowed[word].trailing_zeros();
            }
            one
        }))
    }

    /// Whether the mask could be set.
    pub fn pinned(&self) -> bool {
        self.0.is_some()
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if let Some(before) = self.0 {
            swap_affinity(|_| before);
        }
    }
}

/// A spawned `ligra-serve` or `ligra-route`, killed and reaped on drop.
pub struct Server {
    child: Child,
    /// The address it reported listening on.
    pub addr: SocketAddr,
    name: &'static str,
    stderr: Option<std::thread::JoinHandle<()>>,
    tail: Arc<Mutex<VecDeque<String>>>,
}

impl Server {
    /// Spawns `bin` with `args` plus `--listen 127.0.0.1:0` and waits for
    /// the `listening on ADDR` line it prints to stderr.
    pub fn spawn(bin: &Path, name: &'static str, args: &[String]) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(args)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let pipe = child.stderr.take().expect("stderr was piped");
        let tail = Arc::new(Mutex::new(VecDeque::new()));
        let (tx, rx) = mpsc::channel();
        let tail_writer = Arc::clone(&tail);
        // Drains stderr until the child exits, so the pipe never fills.
        let stderr = std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on ").nth(1) {
                    let addr = rest.split_whitespace().next().unwrap_or("");
                    let _ = tx.send(addr.parse::<SocketAddr>());
                }
                let mut t = tail_writer.lock().unwrap_or_else(|p| p.into_inner());
                if t.len() == 20 {
                    t.pop_front();
                }
                t.push_back(line);
            }
        });
        let mut server =
            Server { child, addr: ([127, 0, 0, 1], 0).into(), name, stderr: Some(stderr), tail };
        match rx.recv_timeout(STARTUP_TIMEOUT) {
            Ok(Ok(addr)) => {
                server.addr = addr;
                Ok(server)
            }
            _ => Err(format!(
                "{name} never reported a listening address; stderr: {}",
                server.stderr_tail()
            )),
        }
    }

    /// The last lines the process wrote to stderr.
    pub fn stderr_tail(&self) -> String {
        let t = self.tail.lock().unwrap_or_else(|p| p.into_inner());
        t.iter().cloned().collect::<Vec<_>>().join(" | ")
    }

    /// OS process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks for a graceful stop over the wire and waits for exit code 0;
    /// drop still kills whatever is left.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut c = Client::connect(self.addr)?;
        c.call("{\"op\":\"shutdown\"}\n")?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("{} exited with {status}", self.name)),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err(format!("{} ignored shutdown", self.name)),
                Err(e) => return Err(format!("wait for {}: {e}", self.name)),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(t) = self.stderr.take() {
            let _ = t.join();
        }
    }
}

/// One JSONL connection: a request line out, a response line back.
pub struct Client {
    reader: BufReader<TcpStream>,
    reply: String,
}

impl Client {
    /// Connects with `TCP_NODELAY` (each request is one small write).
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("set_nodelay: {e}"))?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| format!("set timeout: {e}"))?;
        Ok(Client { reader: BufReader::new(stream), reply: String::new() })
    }

    /// Sends `line` (which must end in `\n`) and returns the reply line.
    pub fn call(&mut self, line: &str) -> Result<&str, String> {
        debug_assert!(line.ends_with('\n'));
        self.reader.get_mut().write_all(line.as_bytes()).map_err(|e| format!("send: {e}"))?;
        self.reply.clear();
        match self.reader.read_line(&mut self.reply) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(self.reply.trim_end()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// The raw value of top-level field `key` in a flat JSON reply: string
/// values without their quotes, everything else as spelled.
pub fn field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &reply[reply.find(&pat)? + pat.len()..];
    match rest.strip_prefix('"') {
        Some(s) => s.find('"').map(|end| &s[..end]),
        None => Some(&rest[..rest.find([',', '}']).unwrap_or(rest.len())]),
    }
}

/// Numeric field `key`.
pub fn num(reply: &str, key: &str) -> Option<f64> {
    field(reply, key)?.parse().ok()
}

/// Integer field `key`.
pub fn int(reply: &str, key: &str) -> Option<u64> {
    field(reply, key)?.parse().ok()
}

/// Whether the reply carries `"ok":true`.
pub fn ok(reply: &str) -> bool {
    field(reply, "ok") == Some("true")
}

/// Locates a release binary in `bin_dir` and refuses one that is older
/// than any source file of the workspace crates it is built from.
pub fn release_binary(bin_dir: &Path, name: &str, repo_root: &Path) -> Result<PathBuf, String> {
    let path = bin_dir.join(name);
    let built = std::fs::metadata(&path)
        .and_then(|m| m.modified())
        .map_err(|_| format!("{} is missing — build it with benchmark/run.sh", path.display()))?;
    if let Some(src) = newest_source(&repo_root.join("crates"), built) {
        return Err(format!(
            "{} is stale: {} is newer — rebuild with benchmark/run.sh",
            path.display(),
            src.display()
        ));
    }
    Ok(path)
}

/// A `.rs`/`.toml` file under `dir` modified after `than`, if any.
fn newest_source(dir: &Path, than: SystemTime) -> Option<PathBuf> {
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let path = entry.path();
        let Ok(meta) = entry.metadata() else { continue };
        if meta.is_dir() {
            if let Some(p) = newest_source(&path, than) {
                return Some(p);
            }
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml")
            && meta.modified().is_ok_and(|m| m > than)
        {
            return Some(path);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_of_flat_replies() {
        let r =
            r#"{"ok":true,"id":7,"trace_id":"ab12","status":"done","dependency_sum":12.500000}"#;
        assert!(ok(r));
        assert_eq!(int(r, "id"), Some(7));
        assert_eq!(field(r, "trace_id"), Some("ab12"));
        assert_eq!(field(r, "status"), Some("done"));
        assert_eq!(num(r, "dependency_sum"), Some(12.5));
        assert_eq!(field(r, "missing"), None);
        assert!(!ok(r#"{"ok":false,"error":"queue full","transient":true}"#));
    }
}
