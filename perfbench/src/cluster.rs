//! Three `icg-replicad` processes on loopback, and their set-up.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use correctables::{Client, ConsistencyLevel};
use icg_net::{TcpBinding, TcpConfig};
use quorumstore::{Key, StoreOp, Value};

use crate::procfs;

/// Replicas in the set.
pub const REPLICAS: usize = 3;
/// Keys preloaded before any window.
pub const KEYS: u64 = 10_000;

/// Client ids start past the replica-id space.
const CLIENT_BASE: u64 = 1 << 20;
/// Client id of the preload binding.
const PRELOAD_ID: u64 = CLIENT_BASE + 100;
/// Client ids of the per-coordinator probe bindings.
const PROBE_ID: u64 = CLIENT_BASE + 200;
/// Client ids of the per-coordinator check bindings.
const CHECK_ID: u64 = CLIENT_BASE + 300;
/// Preload writes in flight at once.
const PRELOAD_WINDOW: u64 = 500;
/// How long a started replica set may take to report ready.
const BOOT_DEADLINE: Duration = Duration::from_secs(20);

/// The tag a write puts in `Value::Opaque`: a writer slot (0 for the
/// preload) in the top six bits and a per-slot counter below.
pub fn tag(slot: u32, n: u32) -> u32 {
    (slot << 26) | (n & ((1 << 26) - 1))
}

/// Whether `t` is a tag the preload wrote.
pub fn preload_tag(t: u32) -> bool {
    t >> 26 == 0 && u64::from(t) < KEYS
}

/// A running replica set. Dropping it kills and reaps every process.
pub struct Cluster {
    children: Vec<Child>,
    // Held open so a replica never writes into a closed pipe.
    _stdout: Vec<ChildStdout>,
    /// Listen addresses, replica id order.
    pub addrs: Vec<SocketAddr>,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for c in &mut self.children {
            let _ = c.kill();
        }
        for c in &mut self.children {
            let _ = c.wait();
        }
    }
}

/// Operation counts of a set-up.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupOps {
    /// Operations attempted (preload writes and probe reads, retries included).
    pub attempted: u64,
    /// Of those, failed and retried.
    pub failed: u64,
}

impl Cluster {
    /// Process ids, replica id order.
    pub fn pids(&self) -> Vec<u32> {
        self.children.iter().map(Child::id).collect()
    }

    /// Starts the replicas with default flags on free loopback ports.
    fn spawn(replicad: &Path) -> Result<Cluster, String> {
        // Reserve distinct free ports, then release them for the replicas.
        let listeners: Vec<TcpListener> = (0..REPLICAS)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("reserve port: {e}"))?;
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr())
            .collect::<Result<_, _>>()
            .map_err(|e| format!("reserve port: {e}"))?;
        drop(listeners);
        let mut cluster = Cluster {
            children: Vec::new(),
            _stdout: Vec::new(),
            addrs: addrs.clone(),
        };
        // One at a time, each waited for until it prints its readiness
        // line, as a careful boot script would. A replica dials its peers
        // as it starts, so a peer that is not listening yet is retried
        // after the replica's peer-retry backoff; booting in order makes
        // that wait the same on every run.
        for (id, addr) in addrs.iter().enumerate() {
            let peers: Vec<String> = addrs
                .iter()
                .filter(|a| *a != addr)
                .map(ToString::to_string)
                .collect();
            let mut child = Command::new(replicad)
                .args(["--id", &id.to_string(), "--listen", &addr.to_string()])
                .args(["--peers", &peers.join(",")])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", replicad.display()))?;
            let stdout = child.stdout.take().ok_or("replica stdout")?;
            cluster.children.push(child);
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            reader
                .read_line(&mut line)
                .map_err(|e| format!("replica readiness: {e}"))?;
            if !line.contains("listening on") {
                return Err(format!("replica {id} exited before listening: {line:?}"));
            }
            cluster._stdout.push(reader.into_inner());
        }
        Ok(cluster)
    }

    /// Waits until every replica has dialed every peer, as the kernel's
    /// connection table shows it. Polls; no fixed delay.
    fn wait_mesh(&self) -> Result<(), String> {
        let ports: Vec<u16> = self.addrs.iter().map(SocketAddr::port).collect();
        let want = REPLICAS * (REPLICAS - 1);
        let deadline = Instant::now() + BOOT_DEADLINE;
        loop {
            let tcp = std::fs::read_to_string("/proc/net/tcp")
                .map_err(|e| format!("/proc/net/tcp: {e}"))?;
            if procfs::dialed_links(&tcp, &ports) >= want {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err("replica peer links did not come up".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A binding whose preferred coordinator is replica `coord`.
    pub fn connect(
        &self,
        coord: usize,
        client_id: u64,
        confirm: bool,
    ) -> Result<TcpBinding, String> {
        let mut replicas = self.addrs.clone();
        replicas.rotate_left(coord);
        let mut cfg = TcpConfig::new(replicas, client_id);
        cfg.confirm = confirm;
        TcpBinding::connect(cfg).map_err(|e| format!("connect to replica {coord}: {e}"))
    }

    /// Starts a replica set and makes it ready: spawn, peer mesh up,
    /// every key preloaded, and one strong read answered by each
    /// coordinator. Returns the set, the seconds from the first spawn to
    /// the last probe answer, and the operations it took. Failed
    /// operations are retried and counted.
    pub fn start(replicad: &Path) -> Result<(Cluster, f64, SetupOps), String> {
        let t0 = Instant::now();
        let cluster = Cluster::spawn(replicad)?;
        cluster.wait_mesh()?;
        let mut ops = SetupOps::default();
        cluster.preload(&mut ops)?;
        for coord in 0..REPLICAS {
            cluster.probe(coord, &mut ops)?;
        }
        Ok((cluster, t0.elapsed().as_secs_f64(), ops))
    }

    fn preload(&self, ops: &mut SetupOps) -> Result<(), String> {
        let binding = self.connect(0, PRELOAD_ID, false)?;
        let client = Client::new(binding.clone());
        let mut todo: Vec<u64> = (0..KEYS).collect();
        for _attempt in 0..5 {
            let mut retry = Vec::new();
            for chunk in todo.chunks(PRELOAD_WINDOW as usize) {
                let pending: Vec<_> = chunk
                    .iter()
                    .map(|&k| {
                        let v = Value::Opaque(tag(0, k as u32));
                        (k, client.invoke_strong(StoreOp::Write(Key::plain(k), v)))
                    })
                    .collect();
                for (k, c) in pending {
                    ops.attempted += 1;
                    if c.wait_final(Duration::from_secs(5)).is_err() {
                        ops.failed += 1;
                        retry.push(k);
                    }
                }
            }
            todo = retry;
            if todo.is_empty() {
                break;
            }
        }
        binding.shutdown();
        if todo.is_empty() {
            Ok(())
        } else {
            Err(format!("{} preload writes failed five times", todo.len()))
        }
    }

    /// One strong read through coordinator `coord` that returns the
    /// preloaded record.
    fn probe(&self, coord: usize, ops: &mut SetupOps) -> Result<(), String> {
        let binding = self.connect(coord, PROBE_ID + coord as u64, false)?;
        let client = Client::new(binding.clone());
        let key = coord as u64;
        let mut result = Err(format!("coordinator {coord} answered no strong read"));
        for _attempt in 0..5 {
            ops.attempted += 1;
            match client
                .invoke_strong(StoreOp::Read(Key::plain(key)))
                .wait_final(Duration::from_secs(5))
            {
                Ok(v)
                    if v.level == ConsistencyLevel::STRONG
                        && v.value.value == Value::Opaque(tag(0, key as u32)) =>
                {
                    result = Ok(());
                    break;
                }
                Ok(v) => {
                    result = Err(format!("coordinator {coord} probe read returned {v:?}"));
                    break;
                }
                Err(_) => ops.failed += 1,
            }
        }
        binding.shutdown();
        result
    }

    /// Strong-reads `keys` through each coordinator in turn and returns
    /// how many keys did not show one version through all of them.
    pub fn coordinators_agree(&self, keys: &[u64]) -> Result<usize, String> {
        let mut per_coord = Vec::new();
        for coord in 0..REPLICAS {
            let binding = self.connect(coord, CHECK_ID + coord as u64, false)?;
            let client = Client::new(binding.clone());
            let pending: Vec<_> = keys
                .iter()
                .map(|&k| client.invoke_strong(StoreOp::Read(Key::plain(k))))
                .collect();
            let mut versions = Vec::with_capacity(keys.len());
            for c in pending {
                let v = c
                    .wait_final(Duration::from_secs(5))
                    .map_err(|e| format!("check read via coordinator {coord}: {e}"))?;
                versions.push(v.value.version);
            }
            binding.shutdown();
            per_coord.push(versions);
        }
        Ok((0..keys.len())
            .filter(|&i| per_coord.iter().any(|v| v[i] != per_coord[0][i]))
            .count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_separate_writers() {
        assert_eq!(tag(0, 5), 5);
        assert!(preload_tag(tag(0, 9_999)));
        assert!(!preload_tag(tag(0, 10_000)));
        assert!(!preload_tag(tag(1, 5)));
        assert_eq!(tag(3, 7) >> 26, 3);
        assert_ne!(tag(1, 0), tag(2, 0));
    }
}
