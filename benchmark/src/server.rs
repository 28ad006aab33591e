//! Building, starting, observing and stopping the release `hcm serve`.

use std::fs::File;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client::one_shot;

/// Builds the release `hcm` binary from the repository at `root` and returns
/// its path. Honours `CARGO_TARGET_DIR` like any cargo invocation.
pub fn build_hcm(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "hc-cli",
            "--bin",
            "hcm",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building hcm failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = root.join(target).join("release").join("hcm");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} was not built", bin.display()))
    }
}

/// `nice` increment the server runs at.
const SERVER_NICE: u8 = 10;

/// A running `hcm serve`. Dropping it kills the process and reaps it.
pub struct Server {
    child: Child,
    pub addr: String,
}

fn free_port() -> Result<u16, String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    Ok(l.local_addr().map_err(|e| e.to_string())?.port())
}

impl Server {
    /// Starts `hcm serve` with its shipped defaults on a loopback port and
    /// returns it with its set-up time: spawn to the first `200` from
    /// `/healthz`. Server stderr goes to `log`.
    pub fn start(hcm: &Path, log: &Path) -> Result<(Server, Duration), String> {
        let mut last_err = String::new();
        // A port freed for the server can be taken by someone else before it
        // binds; try a few.
        for _ in 0..3 {
            let addr = format!("127.0.0.1:{}", free_port()?);
            let err = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
            let t0 = Instant::now();
            // The server runs at a lower CPU priority than this generator,
            // which shares its cores: a client on its own machine would not
            // wait behind the server's workers to send on schedule.
            let child = Command::new("nice")
                .args(["-n", &SERVER_NICE.to_string()])
                .arg(hcm)
                .args(["serve", "--addr", &addr])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(err)
                .spawn()
                .map_err(|e| format!("spawning {}: {e}", hcm.display()))?;
            let mut server = Server { child, addr };
            match server.wait_healthy(t0) {
                Ok(()) => return Ok((server, t0.elapsed())),
                Err(e) => last_err = e,
            }
        }
        Err(format!("hcm serve did not become healthy: {last_err}"))
    }

    fn wait_healthy(&mut self, t0: Instant) -> Result<(), String> {
        while t0.elapsed() < Duration::from_secs(30) {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!("server exited with {status}"));
            }
            match one_shot(&self.addr, "GET", "/healthz") {
                Ok(r) if r.status == 200 => return Ok(()),
                _ => std::thread::sleep(Duration::from_micros(200)),
            }
        }
        Err("no 200 from /healthz within 30 s".into())
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `GET /metrics?format=prometheus`: one `name value` line per series.
    pub fn metrics(&self) -> Result<String, String> {
        let r = one_shot(&self.addr, "GET", "/metrics?format=prometheus")?;
        if r.status != 200 {
            return Err(format!("/metrics answered {}", r.status));
        }
        String::from_utf8(r.body).map_err(|e| e.to_string())
    }

    /// Server user+system CPU time, from `/proc/<pid>/stat`.
    pub fn cpu_time(&self) -> Result<Duration, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| e.to_string())?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let rest = &stat[stat.rfind(')').ok_or("malformed stat")? + 2..];
        let f: Vec<&str> = rest.split_whitespace().collect();
        let ticks: u64 = f
            .get(11..13)
            .ok_or("short stat")?
            .iter()
            .map(|v| v.parse::<u64>().map_err(|e| e.to_string()))
            .sum::<Result<u64, String>>()?;
        // USER_HZ, which Linux fixes at 100 for /proc on x86 and arm.
        Ok(Duration::from_millis(ticks * 10))
    }

    /// The server's peak resident set (`VmHWM`) in KiB.
    pub fn vm_hwm_kib(&self) -> Result<u64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| e.to_string())?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| "no VmHWM in /proc status".into())
    }

    /// Drains the server through `/quitquitquit` and reaps it.
    pub fn stop(mut self) -> Result<(), String> {
        let _ = one_shot(&self.addr, "GET", "/quitquitquit");
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(10) {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("server exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("server did not drain within 10 s".into())
    }
}

/// The value of the unlabelled series `name` in a Prometheus text document.
pub fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        let (series, value) = l.split_once(' ')?;
        (series == name).then(|| value.trim().parse().ok())?
    })
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
