//! Quorum-store client bindings multiplexed onto shared reactor loops.
//!
//! Thousands of bindings share one [`ClientReactor`]: a fixed set of
//! event loops (bindings are assigned round-robin at creation) plus one
//! dialer thread for the reconnects that must block.
//!
//! ## Who does what
//!
//! A request leaves from the thread that submits it. The submission
//! registers the pending op, encodes its frame into the binding's write
//! buffer and, when the binding is idle (nothing in flight, nothing
//! queued), writes the buffer to the socket itself with one `writev`:
//! no command is injected and the loop is not woken. The loop does the
//! rest: it reads and matches replies, fails expired ops, adopts dialed
//! streams, and flushes bytes the socket pushed back.
//!
//! Each binding's state (`BState`: pending-op table, live connection,
//! failover cursor, write buffer) sits behind one lock that the handle
//! and the loop share. Every socket write happens under it, so the
//! frames of one binding leave in submit order and the caller and the
//! loop never interleave partial frames. Upcall transitions are decided
//! under the lock and run after it is released, so a view callback may
//! submit on the same binding.
//!
//! ## Batching
//!
//! A submit to a binding that already has ops in flight or bytes queued
//! only appends its frame, and wakes the loop (a `Flush` event) unless a
//! wake-up is already pending. A pipelined burst thus costs one wake-up,
//! and everything queued by the time the loop runs leaves in one
//! `writev`.
//!
//! ## Timers
//!
//! A caller cannot shorten the loop's `epoll_wait`, and waking the loop
//! to arm each op's deadline would cost the wake-up this design saves.
//! Instead the loop ticks every sixteenth of the shortest `op_timeout`
//! among its bindings and fails the ops whose deadline has passed: an
//! op times out at most one tick late, and a loop whose bindings are
//! idle wakes only for the tick.
//!
//! ## Failover
//!
//! A dead coordinator fails every in-flight op `Unavailable`, and the
//! next submission asks the dialer for the next address. Ops submitted
//! while the dial runs queue in the write buffer; the loop adopts the
//! new stream and flushes them. Callers write only to streams the loop
//! has adopted, so no reply can reach a socket the loop is not watching.

use std::collections::HashMap;
use std::io::{self, IoSlice, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use correctables::{Error, Upcall};
use quorumstore::messages::Msg;
use quorumstore::types::{ReadKind, Versioned};
use quorumstore::StoreOp;

use crate::binding::{encode_submit, handle_reply, Fire, PendingOp, TcpConfig};
use crate::frame::append_frame;
use crate::wire::Reader;

use super::conn::CloseReason;
use super::event_loop::{spawn_loop, Cmd, Ctl, Handler, Injector, DEFAULT_WRITE_CAP};

/// Deadline checks per `op_timeout`: a lost reply fails at most this
/// fraction of its timeout late.
const TICKS_PER_TIMEOUT: u32 = 16;

/// Floor on the tick, so a tiny `op_timeout` cannot spin the loop.
const MIN_TICK: Duration = Duration::from_millis(1);

/// One binding's state, shared by its handles and its loop.
type Shared = Arc<Mutex<BState>>;

/// Events injected into a client loop.
pub(crate) enum ClientEv {
    /// A freshly created binding arrives with its already-dialed stream.
    Register {
        binding: u64,
        state: Shared,
        stream: TcpStream,
    },
    /// Frames were queued on `binding` behind ops in flight (or pushed
    /// back by the socket): write them.
    Flush { binding: u64 },
    /// A caller gave up connection `conn` (socket error, or a write
    /// buffer over the cap): close it.
    Abandon { conn: u64 },
    /// The dialer re-established a connection for `binding`.
    DialOk {
        binding: u64,
        stream: TcpStream,
        addr_idx: usize,
    },
    /// The dialer found no replica reachable for `binding`.
    DialFailed { binding: u64 },
    /// The binding's last handle is gone (or `shutdown` was called).
    Deregister { binding: u64 },
}

/// One async reconnect job for the dialer thread.
struct DialReq {
    binding: u64,
    loop_idx: usize,
    replicas: Vec<SocketAddr>,
    start_idx: usize,
    connect_timeout: Duration,
}

/// The process-wide home of reactor client bindings: `loops` event-loop
/// threads plus one dialer thread. [`crate::TcpBinding::connect`] uses
/// a lazily created global instance sized to the machine; create your
/// own (and pass it to [`crate::TcpBinding::connect_on`]) to isolate a
/// workload — the load generator runs its many-connection mode on a
/// dedicated reactor.
pub struct ClientReactor {
    loops: Vec<Injector<ClientEv>>,
    dial_tx: Sender<DialReq>,
    next_binding: AtomicU64,
}

impl ClientReactor {
    /// Spawns a reactor with `loops` event loops (clamped to at least
    /// one).
    pub fn new(loops: usize) -> io::Result<ClientReactor> {
        let n = loops.max(1);
        let (dial_tx, dial_rx) = mpsc::channel::<DialReq>();
        let mut injs = Vec::with_capacity(n);
        for i in 0..n {
            let handler = ClientHandler {
                bindings: HashMap::new(),
                tick: Duration::MAX,
                next_tick: Instant::now(),
                fire: Vec::new(),
            };
            let (inj, _join) = spawn_loop(
                &format!("icg-client-loop{i}"),
                handler,
                None,
                DEFAULT_WRITE_CAP,
            )?;
            injs.push(inj);
        }
        {
            let loops = injs.clone();
            std::thread::Builder::new()
                .name("icg-client-dialer".to_string())
                .spawn(move || dialer_loop(dial_rx, loops))?;
        }
        Ok(ClientReactor {
            loops: injs,
            dial_tx,
            next_binding: AtomicU64::new(0),
        })
    }

    /// The shared process-wide reactor, created on first use with one
    /// loop per core (capped at four — client work is parse-and-match,
    /// not compute).
    pub(crate) fn global() -> io::Result<&'static ClientReactor> {
        static GLOBAL: OnceLock<io::Result<ClientReactor>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| {
                let loops = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
                    .clamp(1, 4);
                ClientReactor::new(loops)
            })
            .as_ref()
            .map_err(|e| io::Error::new(e.kind(), e.to_string()))
    }

    /// Dials the first reachable replica (the constructor's synchronous
    /// contract: a dead deployment surfaces here) and registers the
    /// binding with one of the loops.
    pub(crate) fn register(&self, cfg: TcpConfig) -> io::Result<ReactorBinding> {
        let Some((addr_idx, addr, stream)) = dial_first(&cfg.replicas, 0, cfg.connect_timeout)
        else {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "no replica in the list accepted a connection",
            ));
        };
        let binding = self.next_binding.fetch_add(1, Ordering::Relaxed);
        let loop_idx = (binding as usize) % self.loops.len().max(1);
        let Some(inj) = self.loops.get(loop_idx) else {
            return Err(io::Error::other("client reactor has no loops"));
        };
        let (r_strong, confirm) = (cfg.r_strong, cfg.confirm);
        let state = Arc::new(Mutex::new(BState {
            cfg,
            coordinator: addr,
            pending: HashMap::new(),
            next_seq: 0,
            // Frames queue until the loop has adopted the stream.
            link: Link::Connecting,
            addr_idx,
            retry_after: None,
            out: Vec::new(),
            flush_queued: false,
        }));
        inj.send(Cmd::Ev(ClientEv::Register {
            binding,
            state: Arc::clone(&state),
            stream,
        }));
        Ok(ReactorBinding {
            r_strong,
            confirm,
            handle: Arc::new(Handle {
                binding,
                loop_idx,
                state,
                inj: inj.clone(),
                dial_tx: self.dial_tx.clone(),
            }),
        })
    }
}

impl Drop for ClientReactor {
    /// Stops the loops. Their pending ops fail, and bindings still alive
    /// afterwards fail every further submission.
    fn drop(&mut self) {
        for inj in &self.loops {
            inj.send(Cmd::Shutdown);
        }
    }
}

/// The binding half living inside [`crate::TcpBinding`].
#[derive(Clone)]
pub(crate) struct ReactorBinding {
    pub(crate) r_strong: u8,
    pub(crate) confirm: bool,
    handle: Arc<Handle>,
}

/// What every clone of one binding's handle shares. Dropping the last
/// clone deregisters the binding, failing its pending ops and closing
/// its socket.
struct Handle {
    binding: u64,
    loop_idx: usize,
    state: Shared,
    inj: Injector<ClientEv>,
    dial_tx: Sender<DialReq>,
}

impl Drop for Handle {
    fn drop(&mut self) {
        self.inj.send(Cmd::Ev(ClientEv::Deregister {
            binding: self.binding,
        }));
    }
}

impl ReactorBinding {
    /// The coordinator of the binding's most recently adopted stream.
    pub(crate) fn coordinator(&self) -> SocketAddr {
        self.handle.state.lock().coordinator
    }

    /// Submits one operation on the caller's thread: registers it,
    /// encodes its frame and writes it (idle binding), or queues it
    /// behind the ops in flight and makes sure the loop will flush it.
    pub(crate) fn submit(&self, op: StoreOp, kind: ReadKind, upcall: Upcall<Versioned>) {
        let h = &*self.handle;
        let now = Instant::now();
        let mut fire = Vec::new();
        let mut dial = None;
        let mut wake = None;
        let mut guard = h.state.lock();
        let st = &mut *guard;
        match st.link {
            Link::Closed => fire.push(Fire::Fail(
                upcall,
                Error::Unavailable("client connection closed".into()),
            )),
            // A dial round just found nothing reachable; fail fast
            // instead of re-dialing per submission.
            Link::Down if st.retry_after.is_some_and(|at| now < at) => fire.push(Fire::Fail(
                upcall,
                Error::Unavailable("no replica reachable".into()),
            )),
            _ => {
                if matches!(st.link, Link::Down) {
                    st.link = Link::Connecting;
                    dial = Some(DialReq {
                        binding: h.binding,
                        loop_idx: h.loop_idx,
                        replicas: st.cfg.replicas.clone(),
                        start_idx: st.addr_idx,
                        connect_timeout: st.cfg.connect_timeout,
                    });
                }
                let idle = st.pending.is_empty() && st.out.is_empty();
                let seq = st.next_seq;
                st.next_seq += 1;
                let close_level = upcall.strongest();
                let (msg, written) = encode_submit(st.cfg.client_id, seq, op, kind);
                append_frame(&msg, &mut st.out);
                st.pending.insert(
                    seq,
                    PendingOp {
                        upcall,
                        close_level,
                        prelim: None,
                        written,
                        deadline: now + st.cfg.op_timeout,
                    },
                );
                let lost = if idle {
                    st.write_queued(&mut fire)
                } else {
                    st.check_cap(&mut fire)
                };
                wake = match lost {
                    Some(conn) => Some(ClientEv::Abandon { conn }),
                    // Frames left behind (queued behind ops in flight,
                    // or pushed back by the socket) go out from the
                    // loop; one wake-up covers every append until it
                    // runs.
                    None if matches!(st.link, Link::Up { .. })
                        && !st.out.is_empty()
                        && !st.flush_queued =>
                    {
                        st.flush_queued = true;
                        Some(ClientEv::Flush { binding: h.binding })
                    }
                    None => None,
                };
            }
        }
        drop(guard);
        if let Some(req) = dial {
            // The dialer runs while any sender lives, so this cannot
            // fail; were it to, the queued ops would still time out.
            let _ = h.dial_tx.send(req);
        }
        if let Some(ev) = wake {
            h.inj.send(Cmd::Ev(ev));
        }
        for f in fire {
            f.run();
        }
    }

    pub(crate) fn shutdown(&self) {
        self.handle.inj.send(Cmd::Ev(ClientEv::Deregister {
            binding: self.handle.binding,
        }));
    }
}

/// One dial round: tries `replicas` in order starting at `start`,
/// wrapping around once, and returns the first that accepts.
fn dial_first(
    replicas: &[SocketAddr],
    start: usize,
    timeout: Duration,
) -> Option<(usize, SocketAddr, TcpStream)> {
    let n = replicas.len();
    (0..n).find_map(|attempt| {
        let idx = (start + attempt) % n;
        let addr = *replicas.get(idx)?;
        let stream = TcpStream::connect_timeout(&addr, timeout).ok()?;
        Some((idx, addr, stream))
    })
}

/// The dialer thread: walks a binding's replica list one round per
/// request (connecting is the one blocking operation the loops must
/// not perform) and injects the outcome back into the binding's loop.
fn dialer_loop(rx: Receiver<DialReq>, loops: Vec<Injector<ClientEv>>) {
    while let Ok(req) = rx.recv() {
        let Some(inj) = loops.get(req.loop_idx) else {
            continue;
        };
        match dial_first(&req.replicas, req.start_idx, req.connect_timeout) {
            Some((addr_idx, _, stream)) => inj.send(Cmd::Ev(ClientEv::DialOk {
                binding: req.binding,
                stream,
                addr_idx,
            })),
            None => inj.send(Cmd::Ev(ClientEv::DialFailed {
                binding: req.binding,
            })),
        }
    }
}

/// Writes `out` to `stream` until it is empty or the socket pushes back,
/// leaving the unwritten tail in `out`. Always `writev`, as
/// `Conn::flush` does: `/proc/<pid>/io` counts it as a write, where it
/// does not count the `send(2)` that `Write::write` issues.
fn write_out(stream: &TcpStream, out: &mut Vec<u8>) -> io::Result<()> {
    let mut stream = stream;
    while !out.is_empty() {
        match stream.write_vectored(&[IoSlice::new(out)]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                out.drain(..n.min(out.len()));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A binding's connection to its coordinator.
enum Link {
    /// Adopted by the loop as connection `conn`; callers write to
    /// `stream`, the loop reads it.
    Up { conn: u64, stream: Arc<TcpStream> },
    /// A dialed stream is on its way to the loop; frames queue until
    /// it is adopted.
    Connecting,
    /// No connection: the next submission dials.
    Down,
    /// Deregistered: every submission fails.
    Closed,
}

/// One binding's state, behind the lock its handles and loop share.
pub(crate) struct BState {
    cfg: TcpConfig,
    /// The replica the last adopted stream leads to.
    coordinator: SocketAddr,
    pending: HashMap<u64, PendingOp>,
    next_seq: u64,
    link: Link,
    /// Failover cursor into `cfg.replicas`.
    addr_idx: usize,
    /// After a failed dial round, fail submissions fast until here.
    retry_after: Option<Instant>,
    /// Encoded frames not yet written, in submit order.
    out: Vec<u8>,
    /// A `Flush` for this binding is queued on the loop and not yet
    /// handled, so appends need not wake the loop again.
    flush_queued: bool,
}

impl BState {
    /// Fails every pending op with `err` and drops the unwritten frames.
    fn fail_all(&mut self, err: &Error, fire: &mut Vec<Fire>) {
        fire.extend(
            self.pending
                .drain()
                .map(|(_, p)| Fire::Fail(p.upcall, err.clone())),
        );
        self.out.clear();
    }

    /// Gives up the live connection: its in-flight ops fail (their
    /// replies are gone with it) and the next dial prefers the next
    /// replica.
    fn lose_link(&mut self, fire: &mut Vec<Fire>) {
        self.link = Link::Down;
        self.fail_all(
            &Error::Unavailable("coordinator connection lost".into()),
            fire,
        );
        let n = self.cfg.replicas.len().max(1);
        self.addr_idx = (self.addr_idx + 1) % n;
    }

    /// Writes the queued frames if the link is up. A socket error, or a
    /// buffer still over the cap (the coordinator stopped reading),
    /// gives the link up; returns its connection id for closing.
    fn write_queued(&mut self, fire: &mut Vec<Fire>) -> Option<u64> {
        if let Link::Up { conn, stream } = &self.link {
            if write_out(stream, &mut self.out).is_err() {
                let conn = *conn;
                self.lose_link(fire);
                return Some(conn);
            }
        }
        self.check_cap(fire)
    }

    /// Bounds the write buffer: past [`DEFAULT_WRITE_CAP`] the link is
    /// given up (its id returned for closing) and every pending op
    /// fails, rather than buffering for a coordinator that stopped
    /// reading.
    fn check_cap(&mut self, fire: &mut Vec<Fire>) -> Option<u64> {
        if self.out.len() <= DEFAULT_WRITE_CAP {
            return None;
        }
        match self.link {
            Link::Up { conn, .. } => {
                self.lose_link(fire);
                Some(conn)
            }
            _ => {
                self.fail_all(
                    &Error::Unavailable("client write buffer over its cap".into()),
                    fire,
                );
                None
            }
        }
    }
}

/// One client event loop: many bindings, one periodic deadline tick.
struct ClientHandler {
    /// Keyed by binding id — which is also the tag of every connection
    /// this loop owns, so frames route to their binding via the tag.
    bindings: HashMap<u64, Shared>,
    /// Deadline-check period: the shortest `op_timeout` of the
    /// bindings served since the loop last went empty, over
    /// [`TICKS_PER_TIMEOUT`].
    tick: Duration,
    next_tick: Instant,
    /// Upcall transitions decided under a binding lock, run after it.
    fire: Vec<Fire>,
}

impl ClientHandler {
    /// Runs the upcall transitions collected under a binding lock that
    /// has since been released.
    fn run_fire(&mut self) {
        for f in self.fire.drain(..) {
            f.run();
        }
    }

    /// Adopts a dialed stream as `binding`'s live link and flushes the
    /// frames queued while it was dialed.
    fn adopt(&mut self, ctl: &mut Ctl, binding: u64, stream: TcpStream, addr_idx: Option<usize>) {
        let Some(state) = self.bindings.get(&binding) else {
            return; // deregistered while the dial was in flight
        };
        let stream = Arc::new(stream);
        let conn = ctl.adopt(Arc::clone(&stream), binding);
        let mut st = state.lock();
        match conn {
            Some(conn) if matches!(st.link, Link::Connecting) => {
                if let Some(idx) = addr_idx {
                    st.addr_idx = idx;
                }
                if let Some(addr) = st.cfg.replicas.get(st.addr_idx) {
                    st.coordinator = *addr;
                }
                st.retry_after = None;
                st.link = Link::Up { conn, stream };
                if let Some(lost) = st.write_queued(&mut self.fire) {
                    ctl.close(lost);
                }
            }
            Some(conn) => ctl.close(conn),
            None => {
                st.link = Link::Down;
                st.fail_all(
                    &Error::Unavailable("coordinator connection lost".into()),
                    &mut self.fire,
                );
            }
        }
        drop(st);
        self.run_fire();
    }

    /// Writes `binding`'s queued frames to its live link. `woken` marks
    /// the `Flush` wake-up its submitters asked for as handled.
    fn flush_binding(&mut self, ctl: &mut Ctl, binding: u64, woken: bool) {
        let Some(state) = self.bindings.get(&binding) else {
            return;
        };
        let mut st = state.lock();
        if woken {
            st.flush_queued = false;
        }
        if !st.out.is_empty() {
            if let Some(lost) = st.write_queued(&mut self.fire) {
                ctl.close(lost);
            }
        }
        drop(st);
        self.run_fire();
    }
}

impl Handler for ClientHandler {
    type Ev = ClientEv;

    fn on_frame(&mut self, ctl: &mut Ctl, conn: u64, body: &[u8]) {
        let Some(binding) = ctl.tag_of(conn) else {
            return;
        };
        let Some(state) = self.bindings.get(&binding) else {
            return;
        };
        match Reader::new(body).finish::<Msg>() {
            Ok(msg) => {
                let mut st = state.lock();
                let client_id = st.cfg.client_id;
                handle_reply(&mut st.pending, client_id, msg, &mut self.fire);
                drop(st);
                self.run_fire();
            }
            // An unparseable reply means the stream is corrupt: kill the
            // connection (on_close fails the binding's pending ops) —
            // never guess at what the reply might have been.
            Err(_) => ctl.close_with(conn, CloseReason::Garbage, true),
        }
    }

    fn on_close(&mut self, _ctl: &mut Ctl, conn: u64, tag: u64, _reason: CloseReason) {
        let Some(state) = self.bindings.get(&tag) else {
            return;
        };
        let mut st = state.lock();
        // A stale close of an already-replaced connection changes nothing.
        if matches!(st.link, Link::Up { conn: c, .. } if c == conn) {
            st.lose_link(&mut self.fire);
        }
        drop(st);
        self.run_fire();
    }

    fn on_writable(&mut self, ctl: &mut Ctl, conn: u64) {
        if let Some(binding) = ctl.tag_of(conn) {
            self.flush_binding(ctl, binding, false);
        }
    }

    fn on_event(&mut self, ctl: &mut Ctl, ev: ClientEv) {
        match ev {
            ClientEv::Register {
                binding,
                state,
                stream,
            } => {
                let tick = (state.lock().cfg.op_timeout / TICKS_PER_TIMEOUT).max(MIN_TICK);
                if self.bindings.is_empty() {
                    self.tick = tick;
                    self.next_tick = Instant::now() + tick;
                } else {
                    self.tick = self.tick.min(tick);
                    self.next_tick = self.next_tick.min(Instant::now() + tick);
                }
                self.bindings.insert(binding, state);
                self.adopt(ctl, binding, stream, None);
            }
            ClientEv::Flush { binding } => self.flush_binding(ctl, binding, true),
            ClientEv::Abandon { conn } => ctl.close(conn),
            ClientEv::DialOk {
                binding,
                stream,
                addr_idx,
            } => self.adopt(ctl, binding, stream, Some(addr_idx)),
            ClientEv::DialFailed { binding } => {
                let Some(state) = self.bindings.get(&binding) else {
                    return;
                };
                let mut st = state.lock();
                if matches!(st.link, Link::Connecting) {
                    st.link = Link::Down;
                    st.retry_after = Some(Instant::now() + st.cfg.connect_timeout);
                    let n = st.cfg.replicas.len().max(1);
                    st.addr_idx = (st.addr_idx + 1) % n;
                    st.fail_all(
                        &Error::Unavailable("no replica reachable".into()),
                        &mut self.fire,
                    );
                }
                drop(st);
                self.run_fire();
            }
            ClientEv::Deregister { binding } => {
                let Some(state) = self.bindings.remove(&binding) else {
                    return;
                };
                let mut st = state.lock();
                if let Link::Up { conn, .. } = st.link {
                    ctl.close(conn);
                }
                st.link = Link::Closed;
                st.fail_all(
                    &Error::Unavailable("client shut down".into()),
                    &mut self.fire,
                );
                drop(st);
                self.run_fire();
            }
        }
    }

    fn on_tick(&mut self, _ctl: &mut Ctl) {
        let now = Instant::now();
        self.next_tick = now + self.tick;
        for state in self.bindings.values() {
            let mut st = state.lock();
            self.fire.extend(
                st.pending
                    .extract_if(|_, p| p.deadline <= now)
                    .map(|(_, p)| Fire::Fail(p.upcall, Error::Timeout)),
            );
        }
        self.run_fire();
    }

    fn next_deadline(&mut self) -> Option<Instant> {
        (!self.bindings.is_empty()).then_some(self.next_tick)
    }

    fn on_shutdown(&mut self, _ctl: &mut Ctl) {
        for (_, state) in self.bindings.drain() {
            let mut st = state.lock();
            st.link = Link::Closed;
            st.fail_all(
                &Error::Unavailable("client reactor shut down".into()),
                &mut self.fire,
            );
        }
        self.run_fire();
    }
}
