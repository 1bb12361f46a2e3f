//! A quorum-store replica served over real TCP sockets.
//!
//! [`ReplicaServer`] speaks exactly the protocol of the simulated
//! [`quorumstore::Replica`] — the same [`quorumstore::Msg`] set, the same
//! coordinator roles, the same preliminary-flush and confirmation
//! behaviour — but over the wire codec of this crate, so an unmodified
//! Correctables client drives it through [`crate::TcpBinding`].
//!
//! Like the simulated coordinator, it sends a quorum read's peer reads
//! to the `R-1` nearest peers. The simulator knows the topology; this
//! server measures it: per peer, a smoothed time from `PeerRead` to its
//! answer, and it asks the peers with the lowest. A peer no read has
//! asked for 100 ms gets one extra `PeerRead` alongside the next read,
//! which does not wait for it, so a peer that got faster is seen. Two
//! mechanisms keep an `R = 2` read available when a replica it asked
//! goes away. A read waiting on a peer whose link is lost (or replaced
//! by a redial) re-asks a live peer it has not asked yet, and fails
//! `Unavailable` at once if none is left. A read still short of its
//! quorum after `op_timeout / 16` (at most 500 ms) — the peer is hung,
//! or cut off without its link closing — is hedged to every live peer
//! it has not asked, and the time it waited counts against the silent
//! peer's estimate.
//!
//! The protocol state machine itself lives in `crate::protocol`; the
//! epoll reactor ([`crate::reactor`]) serves it — the listener, the
//! peer links and the protocol core on one event loop, client
//! connections optionally spread over more.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// Tuning knobs of a TCP replica.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// This replica's id: the writer tiebreak in LWW versions and the
    /// client half of the op ids it mints for peer traffic. Must be
    /// unique across the replica set.
    pub id: u32,
    /// Deadline for gathering quorums before failing an operation back
    /// to the client.
    pub op_timeout: Duration,
    /// Base delay between reconnection attempts to an unreachable peer;
    /// doubles per consecutive failure up to [`ServerConfig::peer_retry_cap`].
    pub peer_retry: Duration,
    /// Ceiling on the peer-reconnect backoff.
    pub peer_retry_cap: Duration,
    /// Reactor event loops for client traffic. One loop suffices below
    /// ~10k connections per replica; more loops spread the epoll and
    /// parse work across cores.
    pub loops: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            id: 0,
            op_timeout: Duration::from_secs(5),
            peer_retry: Duration::from_millis(200),
            peer_retry_cap: Duration::from_secs(5),
            loops: 1,
        }
    }
}

/// A bound-but-not-yet-serving replica. Binding first and starting
/// second lets a deployment bind every listener (learning the ephemeral
/// ports), then start each replica with the full peer address list.
pub struct ReplicaServer {
    listener: TcpListener,
    cfg: ServerConfig,
}

impl ReplicaServer {
    /// Binds the listening socket. `127.0.0.1:0` picks an ephemeral port;
    /// read it back with [`ReplicaServer::local_addr`].
    pub fn bind(addr: &str, cfg: ServerConfig) -> io::Result<ReplicaServer> {
        Ok(ReplicaServer {
            listener: TcpListener::bind(addr)?,
            cfg,
        })
    }

    /// The address the replica is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            // lint: allow(panic_path) — setup API, called before serving starts
            .expect("bound socket has an addr")
    }

    /// Starts serving on the reactor. `peers` lists the *other*
    /// replicas.
    pub fn start(self, peers: Vec<SocketAddr>) -> ReplicaHandle {
        crate::reactor::server::start(self.listener, self.cfg, peers)
    }
}

/// A running replica. Dropping the handle does **not** stop the server;
/// call [`ReplicaHandle::shutdown`] (the failover tests use it as the
/// crash switch).
pub struct ReplicaHandle {
    pub(crate) addr: SocketAddr,
    /// Tells the peer dialers to stop redialing.
    pub(crate) stop: Arc<AtomicBool>,
    /// Stops every event loop of the replica.
    pub(crate) shutdown: Box<dyn Fn() + Send + Sync>,
    /// The protocol loop's live peer-link count.
    pub(crate) links: Arc<PeerLinks>,
}

/// The count of live peer links the protocol loop publishes whenever a
/// link comes up or goes down, with a condvar to wait for a change.
#[derive(Default)]
pub(crate) struct PeerLinks {
    live: Mutex<usize>,
    changed: Condvar,
}

impl PeerLinks {
    pub(crate) fn publish(&self, live: usize) {
        *self.live.lock() = live;
        self.changed.notify_all();
    }
}

impl ReplicaHandle {
    /// The address this replica serves on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many of this replica's links to its peers are up. As a
    /// coordinator it fails a quorum op `Unavailable` while fewer than
    /// the quorum's peer count are; a full mesh is one link per peer.
    pub fn live_peer_links(&self) -> usize {
        *self.links.live.lock()
    }

    /// Blocks until at least `n` peer links are up or `timeout` passes,
    /// and returns whether they came up. Boot code that must not race
    /// the peer mesh waits here before sending load.
    pub fn wait_peer_links(&self, n: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut live = self.links.live.lock();
        while *live < n {
            if self
                .links
                .changed
                .wait_until(&mut live, deadline)
                .timed_out()
            {
                return *live >= n;
            }
        }
        true
    }

    /// Stops the replica abruptly: the listener stops accepting, every
    /// open connection is closed, the event loop exits. In-flight
    /// operations are lost without replies — to a client this is
    /// indistinguishable from a crash, which is exactly what the
    /// failover tests need it to be.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        (self.shutdown)();
    }
}

/// Binds and starts a full replica set on loopback ephemeral ports:
/// binds all listeners first (so every replica learns every address),
/// then starts each one with the other replicas as peers. Returns the
/// handles in id order.
pub fn spawn_local_cluster(n: usize, cfg_of: impl Fn(u32) -> ServerConfig) -> Vec<ReplicaHandle> {
    let servers: Vec<ReplicaServer> = (0..n)
        // lint: allow(panic_path) — cluster bootstrap helper, pre-serving
        .map(|i| ReplicaServer::bind("127.0.0.1:0", cfg_of(i as u32)).expect("bind loopback"))
        .collect();
    let addrs: Vec<SocketAddr> = servers.iter().map(|s| s.local_addr()).collect();
    servers
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            let peers: Vec<SocketAddr> = addrs
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, a)| *a)
                .collect();
            s.start(peers)
        })
        .collect()
}
