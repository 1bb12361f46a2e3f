//! Thread cost of the spec-store client. Each `TcpSpecBinding` runs on
//! one reactor event loop: connecting N bindings adds at most N OS
//! threads, and dropping the last clone of each gives them back.
//!
//! This file holds a single test so that it runs alone in its own
//! process: the count read from `/proc/self/status` then sees no other
//! test's threads come and go.

use std::time::{Duration, Instant};

use icg_net::{spawn_local_cluster, ServerConfig, SpecTcpConfig, TcpSpecBinding};

/// The calling process's current OS thread count.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn each_spec_binding_costs_at_most_one_thread() {
    const N: usize = 4;
    let replicas = spawn_local_cluster(3, |id| ServerConfig {
        id,
        ..ServerConfig::default()
    });
    let before = threads();
    let bindings: Vec<TcpSpecBinding> = (0..N as u64)
        .map(|i| {
            TcpSpecBinding::connect(SpecTcpConfig::new(replicas[0].addr(), 9900 + i))
                .expect("connect spec binding")
        })
        .collect();
    let added = threads().saturating_sub(before);
    assert!(
        added <= N,
        "{N} spec bindings added {added} threads, want at most {N}"
    );

    drop(bindings);
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() > before {
        assert!(
            Instant::now() < deadline,
            "dropping every binding left {} extra threads",
            threads().saturating_sub(before)
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    for r in &replicas {
        r.shutdown();
    }
}
