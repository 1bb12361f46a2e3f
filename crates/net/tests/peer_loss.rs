//! A quorum read asks only the `R-1` peers that have answered fastest,
//! so it must survive losing one of them and must not wait on a slow
//! one: a peer whose link drops is replaced by another live peer at
//! once, a peer that stays connected but stops answering is hedged
//! around after a fraction of the replica's op timeout, and a slow peer
//! is not asked while a faster one answers. Every test runs `R = 2`
//! strong reads through replica 0 of a 3-replica set, with replica 0's
//! links to its peers running through test-held proxies, and demands
//! that every read ends in a strong view — never `Timeout`, never
//! `Unavailable`.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use correctables::{Client, ConsistencyLevel};
use icg_net::{ReplicaHandle, ReplicaServer, ServerConfig, TcpBinding, TcpConfig};
use quorumstore::{Key, StoreOp};

const CLIENTS: u64 = 8;

/// One read's outcome (the final view's level, or the error) and how
/// long it took.
type Outcome = (Result<ConsistencyLevel, String>, Duration);

/// A TCP proxy in front of one replica. It holds every chunk bound for
/// the replica for `delay`, and once made silent forwards nothing more
/// either way while it keeps reading, so the link stays up.
struct Proxy {
    addr: SocketAddr,
    silent: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    acceptor: thread::JoinHandle<Vec<thread::JoinHandle<()>>>,
}

impl Proxy {
    fn start(target: SocketAddr, delay: Duration) -> Proxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        let addr = listener.local_addr().expect("proxy addr");
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let silent = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let (silent, stop) = (Arc::clone(&silent), Arc::clone(&stop));
            thread::spawn(move || {
                let mut pumps = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    let Ok((inbound, _)) = listener.accept() else {
                        thread::sleep(Duration::from_millis(5));
                        continue;
                    };
                    inbound.set_nonblocking(false).expect("blocking stream");
                    let Ok(outbound) = TcpStream::connect(target) else {
                        continue; // the replica is gone: drop the link
                    };
                    let (a, b) = (
                        inbound.try_clone().expect("clone"),
                        outbound.try_clone().expect("clone"),
                    );
                    let s = Arc::clone(&silent);
                    pumps.push(thread::spawn(move || pump(a, outbound, delay, &s)));
                    let s = Arc::clone(&silent);
                    pumps.push(thread::spawn(move || pump(b, inbound, Duration::ZERO, &s)));
                }
                pumps
            })
        };
        Proxy {
            addr,
            silent,
            stop,
            acceptor,
        }
    }

    fn go_silent(&self) {
        self.silent.store(true, Ordering::Release);
    }

    /// Stops accepting and waits for every link to close; call after the
    /// replicas on both ends are shut down.
    fn stop(self) {
        self.stop.store(true, Ordering::Release);
        for pump in self.acceptor.join().expect("acceptor") {
            pump.join().expect("pump");
        }
    }
}

/// Copies `from` to `to` until either end closes, holding each chunk for
/// `delay` and dropping it while `silent` is set.
fn pump(mut from: TcpStream, mut to: TcpStream, delay: Duration, silent: &AtomicBool) {
    let mut buf = vec![0u8; 64 * 1024];
    while let Ok(n @ 1..) = from.read(&mut buf) {
        thread::sleep(delay);
        if !silent.load(Ordering::Acquire) && to.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    let _ = to.shutdown(Shutdown::Both);
}

/// Boots replicas 0–2 with op timeout `op_timeout`; replica 0 reaches
/// replica `i` (1 or 2) through a proxy holding requests for
/// `delays[i - 1]`. Returns the replicas (once replica 0 has both peer
/// links) and the two proxies.
fn cluster(op_timeout: Duration, delays: [Duration; 2]) -> (Vec<ReplicaHandle>, Vec<Proxy>) {
    let servers: Vec<ReplicaServer> = (0..3)
        .map(|id| {
            let cfg = ServerConfig {
                id,
                op_timeout,
                ..ServerConfig::default()
            };
            ReplicaServer::bind("127.0.0.1:0", cfg).expect("bind replica")
        })
        .collect();
    let addrs: Vec<SocketAddr> = servers.iter().map(|s| s.local_addr()).collect();
    let proxies: Vec<Proxy> = delays
        .iter()
        .zip(&addrs[1..])
        .map(|(delay, addr)| Proxy::start(*addr, *delay))
        .collect();
    let replicas: Vec<ReplicaHandle> = servers
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            let peers = match i {
                0 => proxies.iter().map(|p| p.addr).collect(),
                _ => (0..3).filter(|j| *j != i).map(|j| addrs[j]).collect(),
            };
            s.start(peers)
        })
        .collect();
    assert!(replicas[0].wait_peer_links(2, Duration::from_secs(10)));
    (replicas, proxies)
}

fn shut_down(replicas: Vec<ReplicaHandle>, proxies: Vec<Proxy>) {
    for r in &replicas {
        r.shutdown();
    }
    for p in proxies {
        p.stop();
    }
}

/// Runs `CLIENTS` closed-loop strong readers against `coordinator` until
/// `stop` is set and each has done at least `min_reads`; returns every
/// read's outcome and latency, per client.
fn strong_readers(
    coordinator: SocketAddr,
    stop: &Arc<AtomicBool>,
    min_reads: usize,
) -> Vec<thread::JoinHandle<Vec<Outcome>>> {
    (0..CLIENTS)
        .map(|c| {
            let cfg = TcpConfig::new(vec![coordinator], 100 + c);
            let stop = Arc::clone(stop);
            thread::spawn(move || {
                let binding = TcpBinding::connect(cfg).expect("connect");
                let client = Client::new(binding.clone());
                let mut outcomes = Vec::new();
                let mut k = 0;
                while outcomes.len() < min_reads || !stop.load(Ordering::Acquire) {
                    let started = Instant::now();
                    let outcome = client
                        .invoke_strong(StoreOp::Read(Key::plain(k % 16)))
                        .wait_final(Duration::from_secs(10))
                        .map(|view| view.level)
                        .map_err(|e| format!("{e:?}"));
                    outcomes.push((outcome, started.elapsed()));
                    k += 1;
                }
                binding.shutdown();
                outcomes
            })
        })
        .collect()
}

/// Joins the readers, asserts every read ended in a strong view, and
/// returns every read's latency, sorted.
fn all_strong(readers: Vec<thread::JoinHandle<Vec<Outcome>>>) -> Vec<Duration> {
    let mut took = Vec::new();
    for (c, reader) in readers.into_iter().enumerate() {
        for (i, (outcome, t)) in reader.join().expect("reader").into_iter().enumerate() {
            assert_eq!(
                outcome,
                Ok(ConsistencyLevel::STRONG),
                "client {c}, read {i}"
            );
            took.push(t);
        }
    }
    took.sort();
    took
}

fn pct(sorted: &[Duration], p: usize) -> Duration {
    sorted[(sorted.len() - 1) * p / 100]
}

#[test]
fn strong_reads_survive_a_peer_shut_down_mid_load() {
    // Replica 1 answers 10 ms late, so replica 0 asks replica 2. A
    // replica op timeout of 60 s caps the hedge at its 500 ms ceiling:
    // only the re-ask on link loss lets a read that was waiting on
    // replica 2 finish well inside that.
    let (replicas, proxies) = cluster(
        Duration::from_secs(60),
        [Duration::from_millis(10), Duration::ZERO],
    );
    let stop = Arc::new(AtomicBool::new(false));
    let readers = strong_readers(replicas[0].addr(), &stop, 50);
    thread::sleep(Duration::from_millis(300));
    replicas[2].shutdown();
    thread::sleep(Duration::from_millis(300));
    stop.store(true, Ordering::Release);

    let took = all_strong(readers);
    let slowest = took.last().copied().unwrap_or_default();
    eprintln!(
        "{} strong reads, all served; slowest {slowest:?}",
        took.len()
    );
    assert!(slowest < Duration::from_millis(250), "slowest {slowest:?}");
    shut_down(replicas, proxies);
}

#[test]
fn strong_reads_finish_despite_a_peer_going_silent() {
    // Replica 1 answers 10 ms late, so replica 0 asks replica 2 — until
    // the proxy in front of replica 2 stops forwarding, its link still
    // up. A 1.6 s replica op timeout hedges after 100 ms.
    let (replicas, proxies) = cluster(
        Duration::from_millis(1600),
        [Duration::from_millis(10), Duration::ZERO],
    );
    let stop = Arc::new(AtomicBool::new(false));
    let readers = strong_readers(replicas[0].addr(), &stop, 20);
    thread::sleep(Duration::from_millis(300));
    proxies[1].go_silent();
    thread::sleep(Duration::from_millis(600));
    stop.store(true, Ordering::Release);

    let client_timeout = TcpConfig::new(vec![replicas[0].addr()], 0).op_timeout;
    let took = all_strong(readers);
    let hedged = took
        .iter()
        .filter(|t| **t >= Duration::from_millis(100))
        .count();
    eprintln!("{} strong reads, {hedged} waited for a hedge", took.len());
    let slowest = took.last().copied().unwrap_or_default();
    assert!(slowest < client_timeout / 2, "slowest {slowest:?}");
    shut_down(replicas, proxies);
}

#[test]
fn strong_reads_do_not_wait_on_a_slow_peer() {
    // Replica 1 answers 200 ms late; replica 2 promptly. Asking every
    // peer, replica 0 would finish each read with replica 2's answer;
    // asking one, it must ask replica 2 — a read that waits on replica 1
    // shows as a tail of at least 100 ms.
    let slow = Duration::from_millis(200);
    let (replicas, proxies) = cluster(Duration::from_secs(5), [slow, Duration::ZERO]);
    let stop = Arc::new(AtomicBool::new(true));
    let readers = strong_readers(replicas[0].addr(), &stop, 50);

    let took = all_strong(readers);
    let waited = took.iter().filter(|t| **t >= slow / 2).count();
    eprintln!(
        "{} strong reads: p50 {:?}, p99 {:?}, {waited} at least {:?}",
        took.len(),
        pct(&took, 50),
        pct(&took, 99),
        slow / 2
    );
    assert!(
        pct(&took, 99) < slow / 2,
        "{waited} reads waited on the slow peer"
    );
    shut_down(replicas, proxies);
}
