//! One `guardiand` child process per benchmark arm, and the `/proc`
//! readings taken from it.
//!
//! Every arm gets a fresh daemon on a fresh socket path. Readiness is the
//! daemon's own `guardiand: listening` line, not a sleep. The guard kills
//! and reaps the child and unlinks its socket when it drops — on success,
//! on failure, and on unwinding from a panic.

use crate::surface::{self, Wire};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a daemon may take from spawn to its readiness line.
const READY_TIMEOUT: Duration = Duration::from_secs(20);

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed
/// at 100 on every Linux ABI this runs on).
const USER_HZ: f64 = 100.0;

pub struct Daemon {
    child: Child,
    socket: PathBuf,
    /// Drains the child's stdout so it can never block on a full pipe.
    stdout: Option<JoinHandle<()>>,
    spawned: Instant,
}

impl Daemon {
    /// Spawn `guardiand` and wait for its readiness line.
    ///
    /// # Errors
    ///
    /// When the binary cannot be started, exits before it is ready, or
    /// is not ready within [`READY_TIMEOUT`] — the arm must then not run.
    pub fn spawn(bin: &Path, wire: Wire, fenced: bool) -> Result<Daemon, String> {
        let socket = surface::temp_socket_path(wire.name());
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .args(surface::daemon_args(wire, &socket, fenced))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let out = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        let stdout = std::thread::spawn(move || {
            for line in BufReader::new(out).lines() {
                let Ok(line) = line else { break };
                // The receiver goes away after readiness; keep draining.
                let _ = tx.send(line);
            }
        });
        let mut daemon = Daemon {
            child,
            socket,
            stdout: Some(stdout),
            spawned,
        };
        let deadline = spawned + READY_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(line) if line.starts_with(surface::DAEMON_READY_PREFIX) => return Ok(daemon),
                Ok(_) => {}
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    return Err(format!("guardiand not ready after {READY_TIMEOUT:?}"))
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    let status = daemon.child.wait().map_err(|e| e.to_string())?;
                    return Err(format!("guardiand exited before it was ready: {status}"));
                }
            }
        }
    }

    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// When the process was spawned (the start of `setup_s`).
    pub fn spawned(&self) -> Instant {
        self.spawned
    }

    /// Whether the child is still running.
    pub fn alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }

    /// Kill the child now (the arm's clients then see a disconnect).
    pub fn kill(&mut self) {
        let _ = self.child.kill();
    }

    /// Peak resident set of the child so far (`VmHWM`), MiB.
    pub fn rss_hwm_mib(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()));
        status
            .ok()
            .and_then(|s| {
                let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
                line.split_whitespace().nth(1)?.parse::<f64>().ok()
            })
            .map_or(0.0, |kib| kib / 1024.0)
    }

    /// CPU seconds (user + system) the child has used so far.
    pub fn cpu_s(&self) -> f64 {
        cpu_s_of(&self.child.id().to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(t) = self.stdout.take() {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// CPU seconds (user + system) of `/proc/<pid>`, `pid` being a number or
/// `self`; 0 if it cannot be read.
pub fn cpu_s_of(pid: &str) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name, which may hold spaces:
    // state is the first, utime and stime the 12th and 13th.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(fields.next()) + ticks(fields.next())) / USER_HZ
}

/// One-minute load average, if `/proc/loadavg` can be read.
pub fn loadavg_1m() -> Option<f64> {
    let s = std::fs::read_to_string("/proc/loadavg").ok()?;
    s.split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_cpu_time_is_readable_and_grows() {
        let before = cpu_s_of("self");
        let mut x = 0u64;
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_s_of("self") > before);
        assert_eq!(cpu_s_of("0"), 0.0);
    }

    #[test]
    fn a_binary_that_exits_early_is_refused() {
        let err = Daemon::spawn(Path::new("/bin/true"), Wire::Uds, true)
            .err()
            .expect("must refuse");
        assert!(err.contains("exited before it was ready"), "{err}");
        let err = Daemon::spawn(Path::new("/nonexistent/guardiand"), Wire::Uds, true)
            .err()
            .expect("must refuse");
        assert!(err.contains("cannot start"), "{err}");
    }
}
