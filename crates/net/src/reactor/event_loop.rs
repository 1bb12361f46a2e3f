//! The reactor event loop: one thread, one `epoll` instance, many
//! connections.
//!
//! A loop owns its connections exclusively — read buffers, write
//! queues, and the protocol handler all live on the loop thread, so no
//! connection state is ever locked or shared. The one exception is the
//! socket itself: a handler may hand an adopted stream's write side to
//! other threads (the quorum-store client binding lets its callers
//! write their request frames directly; see `reactor::client`), while
//! reads stay on the loop. Other threads talk to a loop only through
//! its [`Injector`]: a mutex-protected command queue paired with an
//! `eventfd` that kicks the loop out of `epoll_wait`.
//!
//! Each loop iteration:
//!
//! 1. asks the handler for its next deadline and waits for readiness
//!    (or that deadline, whichever is sooner);
//! 2. drains readable connections edge-to-exhaustion, slicing complete
//!    frames out of the connection buffers and handing each body to the
//!    handler ([`Handler::on_frame`]) for zero-copy decode, and tells
//!    the handler of every connection that reported write readiness
//!    ([`Handler::on_writable`]);
//! 3. drains injected commands (adopt a connection, enqueue bytes,
//!    handler events, shutdown);
//! 4. flushes every connection the iteration touched with vectored
//!    writes — frames produced while handling a burst coalesce into few
//!    syscalls;
//! 5. fires the handler's deadline hook if it expired.
//!
//! Closes are deferred to the end of the iteration so the handler never
//! observes a half-removed connection.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::frame::encode_frame;
use crate::wire::Wire;

use super::conn::{extract_frame, CloseReason, Conn, Extract, ReadStep};
use super::sys::{
    EpollEvent, Poller, WakeFd, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};

/// Token values reserved for the loop's own fds; connection ids start
/// below these and count up.
const TOKEN_WAKE: u64 = u64::MAX;
const TOKEN_LISTENER: u64 = u64::MAX - 1;

/// Default cap on one connection's queued unwritten bytes: past it the
/// connection is closed rather than buffered further.
pub const DEFAULT_WRITE_CAP: usize = 4 * 1024 * 1024;

/// What the loop does on behalf of other threads.
pub(crate) enum Cmd<Ev> {
    /// Register an established stream with this loop; the handler hears
    /// [`Handler::on_open`] with the given tag.
    Adopt { stream: TcpStream, tag: u64 },
    /// Enqueue pre-encoded frame bytes on a connection this loop owns.
    Send { conn: u64, frame: Vec<u8> },
    /// A handler-defined event.
    Ev(Ev),
    /// Exit the loop, closing every connection.
    Shutdown,
}

/// The protocol living on an event loop. All hooks run on the loop
/// thread with exclusive access to the loop's connections via [`Ctl`].
pub(crate) trait Handler: Send + 'static {
    /// Cross-thread event type delivered through the [`Injector`].
    type Ev: Send + 'static;

    /// A connection was adopted through [`Cmd::Adopt`].
    fn on_open(&mut self, _ctl: &mut Ctl, _conn: u64, _tag: u64) {}

    /// The loop's listener accepted `stream`. Only called on loops
    /// spawned with a listener.
    fn on_accept(&mut self, _ctl: &mut Ctl, _stream: TcpStream) {}

    /// One complete frame body (version checked and stripped) arrived.
    fn on_frame(&mut self, ctl: &mut Ctl, conn: u64, body: &[u8]);

    /// A connection this loop owned is gone. Not called for closes the
    /// handler itself requested.
    fn on_close(&mut self, ctl: &mut Ctl, conn: u64, tag: u64, reason: CloseReason);

    /// An injected [`Cmd::Ev`] arrived.
    fn on_event(&mut self, ctl: &mut Ctl, ev: Self::Ev);

    /// The socket of `conn` reported write readiness (after the loop
    /// flushed its own queue for it): a handler that keeps its own
    /// write buffer flushes it here.
    fn on_writable(&mut self, _ctl: &mut Ctl, _conn: u64) {}

    /// The loop is exiting; every connection is about to be dropped.
    fn on_shutdown(&mut self, _ctl: &mut Ctl) {}

    /// The deadline previously returned by [`Handler::next_deadline`]
    /// expired.
    fn on_tick(&mut self, ctl: &mut Ctl);

    /// The soonest instant at which [`Handler::on_tick`] must run.
    fn next_deadline(&mut self) -> Option<Instant>;
}

/// Cross-thread handle into one loop. Cloneable and cheap; sends are
/// lock-push-wake.
pub(crate) struct Injector<Ev> {
    queue: Arc<Mutex<VecDeque<Cmd<Ev>>>>,
    wake: Arc<WakeFd>,
}

impl<Ev> Clone for Injector<Ev> {
    fn clone(&self) -> Self {
        Injector {
            queue: Arc::clone(&self.queue),
            wake: Arc::clone(&self.wake),
        }
    }
}

impl<Ev> Injector<Ev> {
    /// Enqueues `cmd` and wakes the loop.
    pub(crate) fn send(&self, cmd: Cmd<Ev>) {
        self.queue.lock().push_back(cmd);
        self.wake.wake();
    }
}

/// The loop's connection table and write machinery, handed to handler
/// hooks. Split from the handler itself so hooks can mutate both.
pub(crate) struct Ctl {
    poller: Poller,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    /// Connections with bytes enqueued this iteration, flushed together.
    dirty: Vec<u64>,
    /// Closes scheduled this iteration: (conn, reason, notify-handler).
    closing: Vec<(u64, CloseReason, bool)>,
    /// Frame-encode scratch reused across sends.
    scratch: Vec<u8>,
    write_cap: usize,
    shutdown: bool,
}

impl Ctl {
    /// Registers an established stream with this loop and reports it
    /// via the returned id (no `on_open` fires: the calling hook
    /// already knows). `None` if registration failed. The stream is
    /// non-blocking from here on, for every holder of a shared one.
    pub(crate) fn adopt(&mut self, stream: impl Into<Arc<TcpStream>>, tag: u64) -> Option<u64> {
        let stream = stream.into();
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return None;
        }
        let id = self.next_conn;
        let interest = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
        if self.poller.add(stream.as_raw_fd(), id, interest).is_err() {
            return None;
        }
        self.next_conn += 1;
        self.conns
            .insert(id, Conn::new(stream, tag, self.write_cap));
        Some(id)
    }

    /// Encodes `msg` as a frame and enqueues it on `conn`. Unknown or
    /// closing connections drop the message — the semantics of an
    /// unreachable peer.
    pub(crate) fn send<T: Wire>(&mut self, conn: u64, msg: &T) {
        let mut scratch = std::mem::take(&mut self.scratch);
        encode_frame(msg, &mut scratch);
        self.send_frame(conn, &scratch);
        self.scratch = scratch;
    }

    /// Enqueues pre-encoded frame bytes on `conn`.
    pub(crate) fn send_frame(&mut self, conn: u64, frame: &[u8]) {
        let Some(c) = self.conns.get_mut(&conn) else {
            return;
        };
        if c.closing {
            return;
        }
        if !c.enqueue(frame.to_vec()) {
            self.close_with(conn, CloseReason::Backpressure, true);
            return;
        }
        if !self.dirty.contains(&conn) {
            self.dirty.push(conn);
        }
    }

    /// Schedules `conn` for teardown at the end of this iteration,
    /// without an `on_close` callback (the handler asked for it).
    pub(crate) fn close(&mut self, conn: u64) {
        self.close_with(conn, CloseReason::Requested, false);
    }

    /// The tag `conn` was adopted with, if it is still open.
    pub(crate) fn tag_of(&self, conn: u64) -> Option<u64> {
        self.conns.get(&conn).filter(|c| !c.closing).map(|c| c.tag)
    }

    /// Schedules `conn` for teardown with an explicit reason;
    /// `notify` controls whether [`Handler::on_close`] fires for it.
    pub(crate) fn close_with(&mut self, conn: u64, reason: CloseReason, notify: bool) {
        let Some(c) = self.conns.get_mut(&conn) else {
            return;
        };
        if c.closing {
            return;
        }
        c.closing = true;
        self.closing.push((conn, reason, notify));
    }
}

/// Spawns one reactor loop named `name` running `handler`, optionally
/// owning `listener`. Returns the loop's injector and join handle.
pub(crate) fn spawn_loop<H: Handler>(
    name: &str,
    handler: H,
    listener: Option<TcpListener>,
    write_cap: usize,
) -> io::Result<(Injector<H::Ev>, std::thread::JoinHandle<()>)> {
    let poller = Poller::new()?;
    let wake = Arc::new(WakeFd::new()?);
    poller.add(wake.raw(), TOKEN_WAKE, EPOLLIN)?;
    if let Some(l) = &listener {
        l.set_nonblocking(true)?;
        poller.add(l.as_raw_fd(), TOKEN_LISTENER, EPOLLIN | EPOLLET)?;
    }
    let queue: Arc<Mutex<VecDeque<Cmd<H::Ev>>>> = Arc::new(Mutex::new(VecDeque::new()));
    let injector = Injector {
        queue: Arc::clone(&queue),
        wake: Arc::clone(&wake),
    };
    let ctl = Ctl {
        poller,
        conns: HashMap::new(),
        next_conn: 0,
        dirty: Vec::new(),
        closing: Vec::new(),
        scratch: Vec::new(),
        write_cap,
        shutdown: false,
    };
    let mut lp = Loop {
        ctl,
        handler,
        listener,
        wake,
        queue,
        events: Vec::new(),
    };
    let join = std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || lp.run())?;
    Ok((injector, join))
}

struct Loop<H: Handler> {
    ctl: Ctl,
    handler: H,
    listener: Option<TcpListener>,
    wake: Arc<WakeFd>,
    queue: Arc<Mutex<VecDeque<Cmd<H::Ev>>>>,
    events: Vec<EpollEvent>,
}

impl<H: Handler> Loop<H> {
    fn run(&mut self) {
        while !self.ctl.shutdown {
            let timeout = self.handler.next_deadline().map(|at| {
                at.checked_duration_since(Instant::now())
                    .unwrap_or(Duration::ZERO)
            });
            let mut events = std::mem::take(&mut self.events);
            if self.ctl.poller.wait(&mut events, timeout).is_err() {
                // EBADF and friends mean the poller itself is broken;
                // there is nothing useful left to serve.
                break;
            }
            for i in 0..events.len() {
                let Some(ev) = events.get(i) else {
                    break;
                };
                let (token, bits) = (ev.data, ev.events);
                match token {
                    TOKEN_WAKE => {
                        self.wake.drain();
                        self.drain_cmds();
                    }
                    TOKEN_LISTENER => self.accept_burst(),
                    conn => self.conn_ready(conn, bits),
                }
                if self.ctl.shutdown {
                    break;
                }
            }
            self.events = events;
            self.settle();
            if let Some(at) = self.handler.next_deadline() {
                if Instant::now() >= at {
                    self.handler.on_tick(&mut self.ctl);
                    self.settle();
                }
            }
        }
        // Shutdown: drop every connection outright (in-flight frames are
        // lost — to the peers this is a crash, which is what the
        // failover machinery is tested against).
        self.handler.on_shutdown(&mut self.ctl);
        for (_, c) in self.ctl.conns.drain() {
            self.ctl.poller.del(c.stream.as_raw_fd());
        }
    }

    fn drain_cmds(&mut self) {
        loop {
            let Some(cmd) = self.queue.lock().pop_front() else {
                break;
            };
            match cmd {
                Cmd::Adopt { stream, tag } => {
                    if let Some(id) = self.ctl.adopt(stream, tag) {
                        self.handler.on_open(&mut self.ctl, id, tag);
                        // A freshly adopted connection may already have
                        // readable bytes; ET only reports future edges.
                        self.conn_ready(id, EPOLLIN);
                    }
                }
                Cmd::Send { conn, frame } => self.ctl.send_frame(conn, &frame),
                Cmd::Ev(ev) => self.handler.on_event(&mut self.ctl, ev),
                Cmd::Shutdown => {
                    self.ctl.shutdown = true;
                    return;
                }
            }
            self.reap_closed();
        }
    }

    fn accept_burst(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => self.handler.on_accept(&mut self.ctl, stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient per-connection accept errors (ECONNABORTED
                // etc.): skip the connection, keep the listener.
                Err(_) => {}
            }
            if self.ctl.shutdown {
                return;
            }
        }
    }

    fn conn_ready(&mut self, conn: u64, bits: u32) {
        let hup = bits & (EPOLLERR | EPOLLHUP) != 0;
        if bits & (EPOLLIN | EPOLLRDHUP) != 0 || hup {
            let step = match self.ctl.conns.get_mut(&conn) {
                Some(c) if !c.closing => c.drain_read(),
                _ => return,
            };
            self.dispatch_frames(conn);
            match step {
                ReadStep::Progress if !hup => {}
                ReadStep::Progress => self.ctl.close_with(conn, CloseReason::Io, true),
                ReadStep::Closed(reason) => self.ctl.close_with(conn, reason, true),
            }
        }
        if bits & EPOLLOUT != 0 {
            self.flush_one(conn);
            if self.ctl.conns.get(&conn).is_some_and(|c| !c.closing) {
                self.handler.on_writable(&mut self.ctl, conn);
            }
        }
    }

    /// Slices every complete frame out of `conn`'s buffer, dispatching
    /// each body to the handler. The buffer is taken out of the
    /// connection for the duration so the handler may freely use the
    /// connection table (send, close, adopt) mid-dispatch.
    fn dispatch_frames(&mut self, conn: u64) {
        let Some(c) = self.ctl.conns.get_mut(&conn) else {
            return;
        };
        let (buf, mut pos) = c.take_read_buf();
        loop {
            match extract_frame(&buf, pos) {
                Extract::NeedMore => break,
                Extract::Bad => {
                    self.ctl.close_with(conn, CloseReason::Garbage, true);
                    break;
                }
                Extract::Frame {
                    body_start,
                    body_end,
                } => {
                    if let Some(body) = buf.get(body_start..body_end) {
                        self.handler.on_frame(&mut self.ctl, conn, body);
                    }
                    pos = body_end;
                }
            }
            let still_open = self.ctl.conns.get(&conn).is_some_and(|c| !c.closing);
            if !still_open {
                break;
            }
        }
        if let Some(c) = self.ctl.conns.get_mut(&conn) {
            c.restore_read_buf(buf, pos);
        }
    }

    fn flush_one(&mut self, conn: u64) {
        let Some(c) = self.ctl.conns.get_mut(&conn) else {
            return;
        };
        if c.closing || !c.has_pending_writes() {
            return;
        }
        if c.flush().is_err() {
            self.ctl.close_with(conn, CloseReason::Io, true);
        }
    }

    fn flush_dirty(&mut self) {
        let mut dirty = std::mem::take(&mut self.ctl.dirty);
        for conn in dirty.drain(..) {
            self.flush_one(conn);
        }
        self.ctl.dirty = dirty;
    }

    /// Tears down every connection scheduled for close, notifying the
    /// handler for remote-initiated ones.
    fn reap_closed(&mut self) {
        while let Some((conn, reason, notify)) = self.ctl.closing.pop() {
            let Some(c) = self.ctl.conns.remove(&conn) else {
                continue;
            };
            self.ctl.poller.del(c.stream.as_raw_fd());
            let tag = c.tag;
            drop(c);
            if notify {
                self.handler.on_close(&mut self.ctl, conn, tag, reason);
            }
        }
    }

    /// Runs close/flush rounds until quiescent, so frames produced by
    /// `on_close` hooks still go out within this iteration.
    fn settle(&mut self) {
        loop {
            if !self.ctl.closing.is_empty() {
                self.reap_closed();
                continue;
            }
            if !self.ctl.dirty.is_empty() {
                self.flush_dirty();
                continue;
            }
            break;
        }
    }
}
