//! Connection-scaling soak: 10,000 concurrent client connections
//! against a 3-replica reactor cluster, sustained under open-loop load.
//!
//! This is the workload the epoll reactor exists for — a
//! thread-per-connection engine would need 20k threads per replica to
//! survive it. The test
//! runs the real binaries as subprocesses (`icg-replicad` holds 10k
//! server-side sockets, `icg-loadgen` holds the 10k client-side ones;
//! splitting them across processes keeps each under the fd rlimit).
//!
//! Ignored by default: it takes ~a minute and wants a quiet machine.
//! CI's oracle-soak job runs it with `--ignored`; locally:
//!
//! ```text
//! cargo test -p icg_apps --release --test conn_soak -- --ignored
//! ```

use std::net::TcpListener;
use std::process::{Child, Command, Stdio};

/// Kills the replica processes even when the test panics.
struct Cluster(Vec<Child>);

impl Drop for Cluster {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Three free loopback ports. Bind-then-drop has a race window, but the
/// replicad boot retried by loadgen's dial loop papers over collisions.
fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("probe bind"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("probe addr").port())
        .collect()
}

fn spawn_cluster(ports: &[u16]) -> Cluster {
    let addrs: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();
    let children = (0..ports.len())
        .map(|i| {
            let peers: Vec<String> = addrs
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, a)| a.clone())
                .collect();
            Command::new(env!("CARGO_BIN_EXE_icg-replicad"))
                .args([
                    "--id",
                    &i.to_string(),
                    "--listen",
                    &addrs[i],
                    "--peers",
                    &peers.join(","),
                ])
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn icg-replicad")
        })
        .collect();
    Cluster(children)
}

#[test]
#[ignore = "10k-connection soak; run with --ignored (CI: oracle-soak job)"]
fn ten_thousand_connections_sustained() {
    let ports = free_ports(3);
    let _cluster = spawn_cluster(&ports);
    let replicas = ports
        .iter()
        .map(|p| format!("127.0.0.1:{p}"))
        .collect::<Vec<_>>()
        .join(",");

    let out = Command::new(env!("CARGO_BIN_EXE_icg-loadgen"))
        .args([
            "--replicas",
            &replicas,
            "--open-loop",
            "--connections",
            "10000",
            "--rate",
            "4000",
            "--duration-secs",
            "20",
            "--keys",
            "1000",
            "--timeout-ms",
            "5000",
        ])
        .output()
        .expect("run icg-loadgen");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "soak loadgen failed (status {:?})\nstdout:\n{stdout}\nstderr:\n{stderr}",
        out.status
    );
    assert!(
        stderr.contains("open-loop: 10000 connections established"),
        "did not reach 10k concurrent connections\nstderr:\n{stderr}"
    );
    // "failed: 0" on the throughput line — every issued op completed.
    assert!(
        stdout.contains("failed: 0"),
        "soak had failed operations\nstdout:\n{stdout}"
    );
}
