//! Facts about the machine and the build that every result file stamps.

use std::path::Path;
use std::process::Command;

fn command_line(program: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let out = Command::new(program).args(args).current_dir(cwd).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `git rev-parse HEAD` of the tree at `root`, or `unknown` where the
/// tree is not a git checkout.
pub fn git_commit(root: &Path) -> String {
    command_line("git", &["rev-parse", "HEAD"], root)
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc -V`.
pub fn rustc_version(root: &Path) -> String {
    command_line("rustc", &["-V"], root).unwrap_or_else(|| "unknown".to_string())
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Size in bytes of the highest-level cache `/sys` reports for cpu0
/// (0 when `/sys` has no cache directory).
pub fn llc_bytes() -> u64 {
    let mut best = (0u32, 0u64);
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else { continue };
        let Ok(level) = level.trim().parse::<u32>() else { continue };
        let size = size.trim();
        let (digits, mult) = match size.as_bytes().last() {
            Some(b'K') => (&size[..size.len() - 1], 1u64 << 10),
            Some(b'M') => (&size[..size.len() - 1], 1u64 << 20),
            Some(b'G') => (&size[..size.len() - 1], 1u64 << 30),
            _ => (size, 1),
        };
        let Ok(n) = digits.parse::<u64>() else { continue };
        if level >= best.0 {
            best = (level, n * mult);
        }
    }
    best.1
}

/// Peak resident set (`VmHWM`) of process `pid` in MB; `None` once the
/// process is gone.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
