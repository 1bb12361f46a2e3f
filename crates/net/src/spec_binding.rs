//! The spec-store client: a [`Binding`] over the version-2 wire.
//!
//! [`TcpSpecBinding`] drives the replicated sequential-spec store that
//! rides the replica servers' connections (see `SpecCore` in the
//! protocol module): `Register` and `Counter` operations with the full
//! incremental refinement *weak → update → causal → strong* on a single
//! Correctable.
//!
//! ## The level-directory handshake
//!
//! Custom consistency levels get their wire ids assigned per process, in
//! registration order — a client and a server that registered levels in
//! different orders disagree on the numbering. The handshake resolves
//! this: on connect the binding sends [`NetMsg::Hello`] and the server
//! answers [`NetMsg::HelloAck`] with its complete level directory
//! (`id`, `rank`, `name` per level). The binding registers every
//! directory entry locally (idempotent for levels it already knows) and
//! keeps a two-way id translation table, so:
//!
//! - levels requested on [`Binding::submit`] are sent under the
//!   *server's* ids;
//! - levels on [`NetMsg::SpecReply`] are translated back to local
//!   [`ConsistencyLevel`] values before the upcall sees them.
//!
//! A level the server advertises but this process never registered
//! becomes a fresh local registration — a fifth custom level on the
//! server needs zero client code changes to round-trip.
//!
//! Unlike [`crate::TcpBinding`] this binding holds a single connection
//! with no failover list: the spec store serves every view from the
//! replica the client connected to, and a lost connection fails the
//! in-flight operations with [`Error::Unavailable`] and the binding
//! stays down (reconnect by constructing a new binding).
//!
//! ## Threading
//!
//! Each binding runs on its own reactor event loop (one OS thread):
//! the connection, the directory, the pending-op table and the
//! per-op deadlines all live on that loop, and the handle only injects
//! commands. The handshake runs through the loop too — `connect` waits
//! on a one-shot channel for the loop's verdict on the first frame.
//! Dropping the last clone of the handle fails what is still pending
//! and stops the loop.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{self, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use correctables::{Binding, ConsistencyLevel, Error, LevelSet, Upcall};

use crate::pump::Deadlines;
use crate::reactor::conn::CloseReason;
use crate::reactor::event_loop::{spawn_loop, Cmd, Ctl, Handler, Injector, DEFAULT_WRITE_CAP};
use crate::wire::{LevelInfo, NetMsg, Reader, SpecOp};

/// Configuration of a [`TcpSpecBinding`].
#[derive(Clone, Copy, Debug)]
pub struct SpecTcpConfig {
    /// The replica to connect to.
    pub addr: SocketAddr,
    /// This client's id, echoed in every reply. Must be unique among
    /// concurrently connected spec clients.
    pub client_id: u64,
    /// Client-side deadline per operation; an operation whose strongest
    /// requested view never arrives fails with [`Error::Timeout`]
    /// instead of wedging open.
    pub op_timeout: Duration,
    /// Dial and handshake timeout.
    pub connect_timeout: Duration,
}

impl SpecTcpConfig {
    /// A config for `addr` with the defaults the tests use: 5 s op
    /// timeout, 1 s connect timeout.
    pub fn new(addr: SocketAddr, client_id: u64) -> SpecTcpConfig {
        SpecTcpConfig {
            addr,
            client_id,
            op_timeout: Duration::from_secs(5),
            connect_timeout: Duration::from_secs(1),
        }
    }
}

/// The two-way wire-id translation table built from the handshake.
#[derive(Default)]
struct Directory {
    /// Local wire id → server wire id, for submissions.
    to_server: HashMap<u8, u8>,
    /// Server wire id → local level, for replies.
    from_server: HashMap<u8, ConsistencyLevel>,
    /// Every advertised level, as local values, directory order.
    levels: Vec<ConsistencyLevel>,
}

impl Directory {
    /// Folds the server's level directory into the local registry. An
    /// advertised level unknown here is registered on the spot; one
    /// whose name exists locally under a *different rank* cannot be
    /// represented and is skipped (submitting at it is impossible from
    /// this process anyway — no local value denotes it).
    fn build(infos: &[LevelInfo]) -> Directory {
        let mut dir = Directory::default();
        for info in infos {
            let Ok(local) = ConsistencyLevel::register(&info.name, info.rank) else {
                continue;
            };
            dir.to_server.insert(local.wire_id(), info.id);
            dir.from_server.insert(info.id, local);
            dir.levels.push(local);
        }
        dir
    }
}

/// What the handshake reports back to `connect`: the server's wire
/// version and its directory as local levels.
type Handshake = io::Result<(u8, Vec<ConsistencyLevel>)>;

/// Commands the binding handle injects into its loop.
enum SpecEv {
    Submit {
        op: SpecOp,
        wants: Vec<u8>,
        upcall: Upcall<u64>,
    },
    /// Disconnect and fail everything pending; the binding stays down.
    Close,
}

/// Stops the loop when the last binding clone is dropped: fails what is
/// still pending, then exits the loop thread.
struct StopGuard {
    inj: Injector<SpecEv>,
}

impl Drop for StopGuard {
    fn drop(&mut self) {
        self.inj.send(Cmd::Ev(SpecEv::Close));
        self.inj.send(Cmd::Shutdown);
    }
}

/// A [`Binding`] for the replicated spec store: `Op` = [`SpecOp`],
/// `Val` = `u64`, four incremental levels per invocation. Cloning
/// shares the connection and the op-id space.
#[derive(Clone)]
pub struct TcpSpecBinding {
    inj: Injector<SpecEv>,
    levels: LevelSet,
    server_levels: Vec<ConsistencyLevel>,
    server_version: u8,
    _stop_on_last_drop: Arc<StopGuard>,
}

impl TcpSpecBinding {
    /// Dials `cfg.addr`, starts the binding's event loop, and performs
    /// the level-directory handshake on it.
    ///
    /// Fails if the replica is unreachable, closes mid-handshake,
    /// answers the `Hello` with anything but a `HelloAck`
    /// ([`io::ErrorKind::InvalidData`]), or does not answer within
    /// `cfg.connect_timeout` (e.g. a version-1 server that dropped the
    /// Hello frame as garbage).
    pub fn connect(cfg: SpecTcpConfig) -> io::Result<TcpSpecBinding> {
        let stream = TcpStream::connect_timeout(&cfg.addr, cfg.connect_timeout)?;
        let (done_tx, done_rx) = mpsc::sync_channel(1);
        let handler = SpecHandler {
            client_id: cfg.client_id,
            op_timeout: cfg.op_timeout,
            conn: None,
            handshake: Some(done_tx),
            dir: Directory::default(),
            next_seq: 0,
            pending: HashMap::new(),
            deadlines: Deadlines::new(),
        };
        let name = format!("icg-spec-client-{}", cfg.client_id);
        let (inj, _join) = spawn_loop(&name, handler, None, DEFAULT_WRITE_CAP)?;
        // The loop adopts the stream and sends Hello; its verdict on the
        // first frame back arrives on the one-shot channel.
        inj.send(Cmd::Adopt { stream, tag: 0 });
        let verdict = done_rx
            .recv_timeout(cfg.connect_timeout)
            .unwrap_or_else(|_| {
                Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "no HelloAck within the connect timeout",
                ))
            });
        let (server_version, server_levels) = match verdict {
            Ok(v) => v,
            Err(e) => {
                inj.send(Cmd::Shutdown);
                return Err(e);
            }
        };
        Ok(TcpSpecBinding {
            inj: inj.clone(),
            levels: LevelSet::of(&[
                ConsistencyLevel::WEAK,
                ConsistencyLevel::UPDATE,
                ConsistencyLevel::CAUSAL,
                ConsistencyLevel::STRONG,
            ]),
            server_levels,
            server_version,
            _stop_on_last_drop: Arc::new(StopGuard { inj }),
        })
    }

    /// Every level the server's handshake directory advertised,
    /// translated to local values — including custom levels this
    /// process first learned of from the handshake.
    pub fn server_levels(&self) -> &[ConsistencyLevel] {
        &self.server_levels
    }

    /// The wire version the server announced in its `HelloAck`.
    pub fn server_version(&self) -> u8 {
        self.server_version
    }

    /// Disconnects and stops serving this binding. Pending operations
    /// fail with [`Error::Unavailable`], and so does every later
    /// submission. Idempotent; dropping the last clone has the same
    /// effect.
    pub fn shutdown(&self) {
        self.inj.send(Cmd::Ev(SpecEv::Close));
    }
}

impl Binding for TcpSpecBinding {
    type Op = SpecOp;
    type Val = u64;

    fn consistency_levels(&self) -> LevelSet {
        self.levels.clone()
    }

    fn submit(&self, op: SpecOp, levels: &[ConsistencyLevel], upcall: Upcall<u64>) {
        // Requested levels travel under the *local* ids here; the loop
        // translates to server ids (it owns the directory).
        let wants: Vec<u8> = levels.iter().map(|l| l.wire_id()).collect();
        self.inj.send(Cmd::Ev(SpecEv::Submit { op, wants, upcall }));
    }
}

/// One spec binding's state, living on its event loop.
struct SpecHandler {
    client_id: u64,
    op_timeout: Duration,
    /// The connection to the replica; `None` once it is lost or closed,
    /// after which every submission fails.
    conn: Option<u64>,
    /// Where `connect` waits for the handshake verdict, until the first
    /// frame (or the connection's end) decides it.
    handshake: Option<SyncSender<Handshake>>,
    /// Empty until the `HelloAck` arrives.
    dir: Directory,
    next_seq: u64,
    pending: HashMap<u64, Upcall<u64>>,
    deadlines: Deadlines<u64>,
}

impl SpecHandler {
    fn fail_all(&mut self, why: &str) {
        for (_, upcall) in self.pending.drain() {
            upcall.fail(Error::Unavailable(why.into()));
        }
        self.deadlines.clear();
    }

    /// The first frame decides the handshake: a `HelloAck` builds the
    /// directory, anything else closes the connection.
    fn handshake(&mut self, ctl: &mut Ctl, conn: u64, msg: NetMsg, done: SyncSender<Handshake>) {
        let verdict = match msg {
            NetMsg::HelloAck { version, levels } => {
                self.dir = Directory::build(&levels);
                Ok((version, self.dir.levels.clone()))
            }
            _ => {
                self.conn = None;
                ctl.close(conn);
                Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "expected HelloAck as the first frame",
                ))
            }
        };
        let _ = done.send(verdict);
    }

    fn submit(&mut self, ctl: &mut Ctl, op: SpecOp, local_wants: &[u8], upcall: Upcall<u64>) {
        // Translate requested levels to the server's numbering. A level
        // with no directory entry cannot be requested honestly — fail
        // rather than silently downgrade the guarantee.
        let mut wants = Vec::with_capacity(local_wants.len());
        for &local in local_wants {
            let Some(&server) = self.dir.to_server.get(&local) else {
                upcall.fail(Error::Unavailable(
                    "server does not advertise a requested level".into(),
                ));
                return;
            };
            wants.push(server);
        }
        let Some(conn) = self.conn else {
            upcall.fail(Error::Unavailable("spec connection lost".into()));
            return;
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert(seq, upcall);
        self.deadlines.arm(Instant::now() + self.op_timeout, seq);
        ctl.send(
            conn,
            &NetMsg::SpecSubmit {
                client: self.client_id,
                seq,
                op,
                wants,
            },
        );
    }

    fn handle_reply(&mut self, msg: NetMsg) {
        match msg {
            NetMsg::SpecReply {
                client,
                seq,
                level,
                val,
                closing,
            } if client == self.client_id => {
                // A reply at a level the directory cannot translate
                // would deliver under the wrong name; drop it and let
                // the op's other views (or its deadline) resolve it.
                let Some(&local) = self.dir.from_server.get(&level) else {
                    return;
                };
                if let Some(upcall) = self.pending.get(&seq) {
                    upcall.deliver(val, local);
                }
                if closing {
                    self.pending.remove(&seq);
                }
            }
            NetMsg::SpecFailed { client, seq } if client == self.client_id => {
                if let Some(upcall) = self.pending.remove(&seq) {
                    upcall.fail(Error::Unavailable(
                        "server refused the submission (unknown or unserved level)".into(),
                    ));
                }
            }
            // Anything else: not ours, or not client-bound. Drop.
            _ => {}
        }
    }
}

impl Handler for SpecHandler {
    type Ev = SpecEv;

    fn on_open(&mut self, ctl: &mut Ctl, conn: u64, _tag: u64) {
        self.conn = Some(conn);
        ctl.send(
            conn,
            &NetMsg::Hello {
                client: self.client_id,
            },
        );
    }

    fn on_frame(&mut self, ctl: &mut Ctl, conn: u64, body: &[u8]) {
        let Ok(msg) = Reader::new(body).finish::<NetMsg>() else {
            // A corrupt stream: kill it (on_close fails what is
            // pending) — never guess at what the reply might have been.
            ctl.close_with(conn, CloseReason::Garbage, true);
            return;
        };
        match self.handshake.take() {
            Some(done) => self.handshake(ctl, conn, msg, done),
            None => self.handle_reply(msg),
        }
    }

    fn on_close(&mut self, _ctl: &mut Ctl, conn: u64, _tag: u64, _reason: CloseReason) {
        if self.conn != Some(conn) {
            return;
        }
        self.conn = None;
        if let Some(done) = self.handshake.take() {
            let _ = done.send(Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "connection closed before HelloAck",
            )));
        }
        self.fail_all("spec connection lost");
    }

    fn on_event(&mut self, ctl: &mut Ctl, ev: SpecEv) {
        match ev {
            SpecEv::Submit { op, wants, upcall } => self.submit(ctl, op, &wants, upcall),
            SpecEv::Close => {
                if let Some(conn) = self.conn.take() {
                    ctl.close(conn);
                }
                self.fail_all("spec client shut down");
            }
        }
    }

    fn on_tick(&mut self, _ctl: &mut Ctl) {
        let pending = &mut self.pending;
        self.deadlines.fire_expired(Instant::now(), |seq| {
            if let Some(upcall) = pending.remove(&seq) {
                upcall.fail(Error::Timeout);
            }
        });
    }

    fn next_deadline(&mut self) -> Option<Instant> {
        let pending = &self.pending;
        self.deadlines.next_live(|seq| pending.contains_key(seq))
    }
}
