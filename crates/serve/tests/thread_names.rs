//! Every serving thread carries its role in its name, so `top -H`, `ps`
//! and `/proc/self/task/*/comm` can tell the reactor from a handler, a
//! scheduler worker or the gateway's health prober.
#![cfg(target_os = "linux")]

use lam_serve::cluster::{start_gateway, GatewayConfig};
use lam_serve::http::{self, ServeConfig, ServerOptions};
use lam_serve::registry::ModelRegistry;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Names of every thread of this process (Linux keeps 15 bytes of each).
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

#[test]
fn serving_threads_are_named_by_role() {
    let root = std::env::temp_dir().join("lam_serve_thread_names");
    let _ = std::fs::remove_dir_all(&root);
    let mut cfg = ServeConfig::new(ServerOptions {
        workers: 3,
        ..ServerOptions::default()
    });
    cfg.batch.workers = 2;
    let server = http::start_with(Arc::new(ModelRegistry::new(root)), cfg).expect("binds");
    let gateway = start_gateway(GatewayConfig::new(vec![server.local_addr().to_string()]))
        .expect("gateway binds");

    // A new thread names itself as it starts, so poll briefly.
    let roles = [
        "lam-reactor",
        "lam-handler-0",
        "lam-handler-2",
        "lam-sched-0",
        "lam-sched-1",
        "lam-gw-probe",
    ];
    let deadline = Instant::now() + Duration::from_secs(10);
    let names = loop {
        let names = thread_names();
        let named = roles.iter().all(|role| names.iter().any(|n| n == role));
        if named || Instant::now() > deadline {
            break names;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    for role in roles {
        assert!(names.iter().any(|n| n == role), "no {role} in {names:?}");
    }
    // The server and the gateway each run a reactor.
    assert!(names.iter().filter(|n| *n == "lam-reactor").count() >= 2);
    gateway.stop();
    server.stop();
}
