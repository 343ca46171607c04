//! Child processes: `tfsn serve-http` and `tfsn route` on port 0.
//!
//! Each run spawns its own processes and learns the bound address from the
//! `[tfsn] serving http://…` / `[tfsn] routing http://…` stderr line, so a
//! run can never measure a process some earlier run left behind. A server
//! stops through `POST /v1/shutdown`; one that has not exited in time is
//! killed and the run fails.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tfsn_client::client::{HttpClient, RetryPolicy};

/// The stderr line prefix `tfsn serve-http` prints once bound.
pub const SERVING: &str = "[tfsn] serving http://";
/// The stderr line prefix `tfsn route` prints once bound.
pub const ROUTING: &str = "[tfsn] routing http://";

/// How long a process may take to bind, and to exit once told to.
const START_TIMEOUT: Duration = Duration::from_secs(60);
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);
/// Stderr lines kept for error messages.
const STDERR_TAIL: usize = 20;

/// A running `tfsn` process and the address it bound.
pub struct Process {
    label: String,
    child: Child,
    addr: SocketAddr,
    stderr_tail: Arc<Mutex<Vec<String>>>,
    drain: Option<JoinHandle<()>>,
}

impl Process {
    /// Spawns `program args…` and waits for the stderr line starting with
    /// `marker`, which carries the bound address.
    pub fn spawn(program: &Path, args: &[String], marker: &'static str) -> Result<Process, String> {
        let label = args.first().cloned().unwrap_or_default();
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", program.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let stderr_tail = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = mpsc::channel();
        let tail = stderr_tail.clone();
        // Drain stderr for the whole life of the process, so a chatty
        // child can never block on a full pipe.
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.strip_prefix(marker) {
                    let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                    tx.send(addr).ok();
                }
                let mut tail = tail.lock().expect("stderr tail lock poisoned");
                if tail.len() == STDERR_TAIL {
                    tail.remove(0);
                }
                tail.push(line);
            }
        });
        let mut process = Process {
            label,
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr_tail,
            drain: Some(drain),
        };
        match rx.recv_timeout(START_TIMEOUT) {
            Ok(addr) => {
                process.addr = addr
                    .parse()
                    .map_err(|_| format!("unparseable bound address `{addr}`"))?;
                Ok(process)
            }
            Err(_) => Err(format!(
                "`tfsn {}` printed no `{marker}` line: {}",
                process.label,
                process.stderr_text()
            )),
        }
    }

    /// The address the process bound.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM line in {path}"))
    }

    /// Polls `GET /healthz` until it answers 200.
    pub fn wait_healthy(&self) -> Result<(), String> {
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            if let Ok(mut client) = HttpClient::connect_with(self.addr, RetryPolicy::none()) {
                if let Ok(reply) = client.get("/healthz") {
                    if reply.status == 200 {
                        return Ok(());
                    }
                }
            }
            if Instant::now() > deadline {
                return Err(format!("`tfsn {}` never answered /healthz", self.label));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Stops a server through `POST /v1/shutdown` (callers close their own
    /// connections first). Kills it and fails when it does not exit in
    /// time.
    pub fn shutdown(mut self) -> Result<(), String> {
        let acked = HttpClient::connect_with(self.addr, RetryPolicy::none())
            .and_then(|mut c| c.post("/v1/shutdown", ""))
            .map(|reply| reply.status == 200)
            .unwrap_or(false);
        let exited = self.wait_exit(EXIT_TIMEOUT);
        self.reap();
        match (acked, exited) {
            (true, true) => Ok(()),
            (false, _) => Err(format!("`tfsn {}` refused /v1/shutdown", self.label)),
            (true, false) => Err(format!(
                "`tfsn {}` did not exit within {EXIT_TIMEOUT:?} of /v1/shutdown; killed",
                self.label
            )),
        }
    }

    /// Stops a process that has no shutdown endpoint (the router refuses
    /// one by design).
    pub fn kill(mut self) {
        self.reap();
    }

    fn wait_exit(&mut self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }

    /// Kills the child if it still runs, waits for it, and joins the
    /// stderr drain.
    fn reap(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            self.child.kill().ok();
        }
        self.child.wait().ok();
        if let Some(drain) = self.drain.take() {
            drain.join().ok();
        }
    }

    fn stderr_text(&self) -> String {
        self.stderr_tail
            .lock()
            .map(|t| t.join(" | "))
            .unwrap_or_default()
    }
}

/// The CPUs this process may run on, ascending (from `Cpus_allowed_list`,
/// e.g. `0-2,5`); empty when the list cannot be read.
pub fn allowed_cpus() -> Vec<usize> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(parse_cpu_list)
        })
        .unwrap_or_default()
}

/// Parses a kernel CPU list such as `0-2,5`; malformed parts are skipped.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let bounds: Vec<Option<usize>> = part.split('-').map(|b| b.trim().parse().ok()).collect();
        match bounds[..] {
            [Some(cpu)] => cpus.push(cpu),
            [Some(lo), Some(hi)] => cpus.extend(lo..=hi),
            _ => {}
        }
    }
    cpus
}

/// The first CPU this process may run on.
pub fn first_allowed_cpu() -> Option<usize> {
    allowed_cpus().first().copied()
}

/// Attempts [`pin`] makes before it gives up.
const PIN_ATTEMPTS: usize = 5;

/// Restricts every thread of process `pid` to `cpu` with `taskset -a -p`;
/// threads they create later inherit it. `taskset` fails when a thread
/// exits while it walks the list, as a server's per-batch workers do, so
/// a failure is retried. Fails when `taskset` is missing or keeps
/// refusing.
pub fn pin(pid: u32, cpu: usize) -> Result<(), String> {
    for _ in 0..PIN_ATTEMPTS {
        let status = Command::new("taskset")
            .args(["-a", "-p", "-c", &cpu.to_string(), &pid.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map_err(|e| format!("taskset: {e}"))?;
        if status.success() {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Err(format!(
        "taskset could not pin pid {pid} to cpu {cpu} in {PIN_ATTEMPTS} attempts"
    ))
}

impl Drop for Process {
    fn drop(&mut self) {
        self.reap();
    }
}

#[cfg(test)]
mod tests {
    use super::parse_cpu_list;

    #[test]
    fn cpu_lists_expand_ranges() {
        assert_eq!(parse_cpu_list("0-2,5\n"), vec![0, 1, 2, 5]);
        assert_eq!(parse_cpu_list("3"), vec![3]);
        assert_eq!(parse_cpu_list(""), Vec::<usize>::new());
    }
}
