//! The `leakaudit-serve` child process, driven over its stdio protocol
//! by a single-threaded closed-loop client.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

pub struct Server {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    next_job: u64,
}

/// One answered `submit_sweep` + `result` round trip.
pub struct Exchange {
    pub submit: String,
    pub result: String,
    pub latency: Duration,
}

impl Server {
    /// Spawns the daemon with two executor workers.
    pub fn spawn(bin: &Path) -> std::io::Result<Server> {
        let mut child = Command::new(bin)
            .args(["--stdio", "--threads", "2"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Server {
            child,
            stdin,
            stdout,
            next_job: 0,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.stdin.write_all(line.as_bytes())?;
        self.stdin.write_all(b"\n")?;
        self.stdin.flush()?;
        let mut response = String::new();
        if self.stdout.read_line(&mut response)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed its output",
            ));
        }
        response.truncate(response.trim_end().len());
        Ok(response)
    }

    /// Sends one `submit_sweep` line and blocks on its `result`, timing
    /// from the first byte written to the last byte read.
    pub fn sweep(&mut self, submit_line: &str) -> std::io::Result<Exchange> {
        let start = Instant::now();
        let submit = self.call(submit_line)?;
        // Jobs are numbered from 0 per daemon, one per submission; the
        // oracle checks the echoed id afterwards.
        let job = self.next_job;
        self.next_job += 1;
        let result = self.call(&format!("{{\"op\":\"result\",\"job\":{job}}}"))?;
        Ok(Exchange {
            submit,
            result,
            latency: start.elapsed(),
        })
    }

    /// Asks the daemon to exit and waits for it.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        self.call("{\"op\":\"shutdown\"}")?;
        self.child.wait()?;
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Reached with the child still running only on an error path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Scheduler ticks per second of `/proc/<pid>/stat` (USER_HZ, fixed at
/// 100 on Linux for the proc interface).
const TICKS_PER_S: f64 = 100.0;

/// CPU and fault counters of a process from `/proc/<pid>/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    pub cpu_ms: f64,
    pub minor_faults: u64,
}

pub fn proc_stat(pid: u32) -> std::io::Result<ProcStat> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name may hold spaces; fields resume after its `)`.
    let rest = &text[text.rfind(')').map_or(0, |i| i + 2)..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let num = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // Field numbers from proc(5), minus the three consumed above.
    Ok(ProcStat {
        minor_faults: num(10 - 3),
        cpu_ms: (num(14 - 3) + num(15 - 3)) as f64 * 1e3 / TICKS_PER_S,
    })
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: u32) -> std::io::Result<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kb = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| std::io::Error::other("no VmHWM line"))?;
    Ok(kb / 1024.0)
}
