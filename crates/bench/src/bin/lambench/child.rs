//! Server children. Every workload runs its servers as fresh child
//! processes of `lambench` itself (`lambench child server|gateway …`), so
//! set-up is a true cold start, no memo or cache leaks from one workload
//! into the next, and the code under test is always the current library,
//! never a stale server binary.
//!
//! A child announces its bound address as the first line of its stdout
//! and lives until its stdin closes — so a parent that dies, however it
//! dies, takes its children with it.

use lam_serve::cluster::{start_gateway, GatewayConfig};
use lam_serve::http::{start_with, ServeConfig, ServerOptions};
use lam_serve::registry::ModelRegistry;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;

/// Entry point of `lambench child server|gateway …`.
pub fn main(args: &[String]) -> Result<(), String> {
    let (role, flags) = args.split_first().ok_or("child needs a role")?;
    let mut models_dir = None;
    let mut peers = Vec::new();
    let mut backends = Vec::new();
    let mut replicas = 1;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--models-dir" => models_dir = Some(value.clone()),
            "--peer" => peers.push(value.clone()),
            "--backend" => backends.push(value.clone()),
            "--replicas" => replicas = value.parse().map_err(|e| format!("--replicas: {e}"))?,
            other => return Err(format!("unknown child flag {other}")),
        }
    }
    match role.as_str() {
        "server" => {
            let dir = models_dir.ok_or("server child needs --models-dir")?;
            let registry = Arc::new(ModelRegistry::with_peers(dir, peers));
            let handle = start_with(registry, ServeConfig::new(ServerOptions::default()))
                .map_err(|e| e.to_string())?;
            serve_until_parent_exits(&handle.local_addr().to_string())
        }
        "gateway" => {
            let handle = start_gateway(GatewayConfig {
                replicas,
                ..GatewayConfig::new(backends)
            })
            .map_err(|e| e.to_string())?;
            serve_until_parent_exits(&handle.local_addr().to_string())
        }
        other => Err(format!("unknown child role {other}")),
    }
}

/// Announce `addr` to the parent, then block until the parent closes our
/// stdin (it stops us, or it died).
fn serve_until_parent_exits(addr: &str) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{addr}")
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())?;
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    Ok(())
}

/// A running child server, killed and reaped on drop.
pub struct Child {
    proc: std::process::Child,
    /// The child's bound `host:port`.
    pub addr: String,
}

impl Child {
    /// A model server with an empty models dir at `models_dir`, asking
    /// `peers` for artifacts before training.
    pub fn server(models_dir: &Path, peers: &[&str]) -> Result<Self, String> {
        let mut args = vec![
            "server".to_string(),
            "--models-dir".to_string(),
            models_dir.display().to_string(),
        ];
        for peer in peers {
            args.extend(["--peer".to_string(), peer.to_string()]);
        }
        Self::spawn(&args)
    }

    /// A gateway over `backends`, scattering each request across
    /// `replicas` of them.
    pub fn gateway(backends: &[&str], replicas: usize) -> Result<Self, String> {
        let mut args = vec![
            "gateway".to_string(),
            "--replicas".to_string(),
            replicas.to_string(),
        ];
        for backend in backends {
            args.extend(["--backend".to_string(), backend.to_string()]);
        }
        Self::spawn(&args)
    }

    fn spawn(args: &[String]) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut proc = Command::new(exe)
            .arg("child")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn child {}: {e}", args[0]))?;
        let stdout = proc.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let child = Self {
            proc,
            addr: line.trim().to_string(),
        };
        match read {
            Ok(n) if n > 0 && !child.addr.is_empty() => Ok(child),
            _ => Err(format!(
                "child {} exited before announcing its address",
                args[0]
            )),
        }
    }

    /// Peak resident set (`VmHWM`) so far, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.proc.id()))
            .map_err(|e| format!("read child status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in child status".to_string())
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        let _ = self.proc.kill();
        let _ = self.proc.wait();
    }
}
