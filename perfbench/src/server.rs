//! The served processes: the release `serve` and `atlas-shard` binaries,
//! spawned on ephemeral ports, read from `/proc`, and always reaped.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a process may take to announce its listen address.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// Build the served binaries from the checkout's sources.
pub fn build_binaries() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "-p",
            "atlas-serve",
        ])
        .args(["--bin", "serve", "--bin", "atlas-shard"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "cargo build of the served binaries failed: {status}"
        ));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_owned());
    Ok(Path::new(&target).join("release"))
}

/// One running server process, killed and reaped on drop.
pub struct Proc {
    child: Child,
    pub addr: String,
    /// Spawn until the listen line, seconds.
    pub ready_s: f64,
    stderr: mpsc::Receiver<String>,
}

impl Proc {
    /// Spawn `bin` with `args` and wait for its `listening on ADDR` line
    /// on stderr (printed after the registry load, encoder prepare, and
    /// bind).
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Proc, String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut reader = BufReader::new(stderr);
            let mut line = String::new();
            while reader.read_line(&mut line).map(|n| n > 0).unwrap_or(false) {
                if tx.send(std::mem::take(&mut line)).is_err() {
                    // Nobody listens anymore: drain so the child never
                    // blocks on a full pipe.
                    let _ = reader.read_to_end(&mut Vec::new());
                    return;
                }
            }
        });
        let mut proc = Proc {
            child,
            addr: String::new(),
            ready_s: 0.0,
            stderr: rx,
        };
        let mut log = String::new();
        loop {
            let left = READY_TIMEOUT.saturating_sub(started.elapsed());
            match proc.stderr.recv_timeout(left) {
                Ok(line) => {
                    if let Some(rest) = line.split("listening on ").nth(1) {
                        proc.addr = rest.split_whitespace().next().unwrap_or("").to_owned();
                        proc.ready_s = started.elapsed().as_secs_f64();
                        return Ok(proc);
                    }
                    log.push_str(&line);
                }
                Err(_) => {
                    return Err(format!(
                        "{} did not become ready: {}",
                        bin.display(),
                        log.trim()
                    ))
                }
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find(|l| l.starts_with("VmHWM:"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|kb| kb.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// User + system CPU time process `pid` consumed so far, milliseconds.
pub fn cpu_ms(pid: u32) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = fields
        .get(11..13)
        .map(|f| f.iter().filter_map(|v| v.parse::<f64>().ok()).sum())
        .unwrap_or(0.0);
    ticks * 1000.0 / clock_ticks() as f64
}

/// Time the host took from this machine's CPUs while they had work
/// (`steal` in `/proc/stat`), in clock ticks summed over CPUs.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?.to_owned();
            cpu.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Kernel clock ticks per second (`USER_HZ`), which is 100 on every
/// Linux ABI this benchmark targets.
pub fn clock_ticks() -> u64 {
    100
}

/// `serve` arguments for a TCP server on an ephemeral port.
pub fn serve_args(registry: &Path, model: &str, workers: usize, extra: &[String]) -> Vec<String> {
    let mut args = vec![
        "--registry".to_owned(),
        registry.display().to_string(),
        "--model".to_owned(),
        model.to_owned(),
        "--workers".to_owned(),
        workers.to_string(),
        "--tcp".to_owned(),
        "127.0.0.1:0".to_owned(),
    ];
    args.extend_from_slice(extra);
    args
}
