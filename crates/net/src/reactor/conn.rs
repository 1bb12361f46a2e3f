//! Per-connection state machine: reusable read buffer with in-place
//! frame extraction, and a bounded write queue flushed with vectored
//! writes.
//!
//! The reactor's read path is zero-copy with respect to framing: bytes
//! land in the connection's buffer straight off the socket, complete
//! frames are *sliced* out of that buffer for decoding (the `Wire`
//! codec reads from a borrowed `&[u8]`), and only the undecoded tail of
//! a partial frame ever survives to the next readiness event — moved to
//! the front of the buffer rather than reallocated.
//!
//! The write path is the backpressure boundary. Frames enqueue as
//! pre-encoded byte vectors and drain with `write_vectored` (one
//! syscall for many small frames — the batched-write half of the
//! reactor's throughput win). A peer that stops reading makes the queue
//! grow; past [`Conn::write_cap`] the connection is closed rather than
//! letting one slow consumer hold the loop's memory hostage.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use crate::frame::MAX_FRAME;
use crate::wire::{MIN_WIRE_VERSION, WIRE_VERSION};

/// Bytes asked of the socket per `read` call. Small frames dominate
/// this protocol; 16 KiB keeps per-connection memory modest at high
/// connection counts while still draining a burst in few syscalls.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// How many queued frames one `write_vectored` call covers.
const WRITE_BATCH: usize = 32;

/// Why a connection is being torn down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CloseReason {
    /// Clean EOF from the peer at a frame boundary.
    Eof,
    /// The socket errored (reset, mid-frame EOF surfaced on read, …).
    Io,
    /// The peer sent bytes that cannot be a frame (bad length, bad
    /// version, or a body the handler failed to decode).
    Garbage,
    /// The write queue exceeded its cap: the peer reads too slowly for
    /// the traffic addressed to it.
    Backpressure,
    /// The local handler asked for the close.
    Requested,
}

/// One step of the read-side frame extractor.
pub enum Extract {
    /// No complete frame in the buffer; wait for more bytes.
    NeedMore,
    /// A complete frame body (version byte already checked and
    /// stripped) occupies `buf[body_start..body_end]`.
    Frame {
        /// First byte of the frame body within the read buffer.
        body_start: usize,
        /// One past the last body byte; also where the next frame
        /// header begins.
        body_end: usize,
    },
    /// The stream cannot be parsed as frames from here on.
    Bad,
}

/// Examines the bytes at `buf[pos..]` for one complete frame. The
/// header alone decides a bad length or version, so an oversize or
/// foreign frame is rejected before any of its body is buffered.
pub fn extract_frame(buf: &[u8], pos: usize) -> Extract {
    let Some(header) = pos.checked_add(4).and_then(|end| buf.get(pos..end)) else {
        return Extract::NeedMore;
    };
    let Ok(len_bytes) = <[u8; 4]>::try_from(header) else {
        return Extract::NeedMore;
    };
    let len = u32::from_le_bytes(len_bytes);
    if len == 0 || len > MAX_FRAME {
        return Extract::Bad;
    }
    let body_start = pos + 5;
    let body_end = pos + 4 + len as usize;
    let Some(ver) = buf.get(pos + 4) else {
        return Extract::NeedMore;
    };
    if buf.len() < body_end {
        // The version byte travels first in the frame, so an
        // incompatible peer is rejected before its full frame arrives.
        if !(MIN_WIRE_VERSION..=WIRE_VERSION).contains(ver) {
            return Extract::Bad;
        }
        return Extract::NeedMore;
    }
    if !(MIN_WIRE_VERSION..=WIRE_VERSION).contains(ver) {
        return Extract::Bad;
    }
    Extract::Frame {
        body_start,
        body_end,
    }
}

/// One registered connection owned by exactly one event loop.
pub(crate) struct Conn {
    /// Shared so a handler may also write to the socket from other
    /// threads (the quorum-store client binding's callers do); reads
    /// stay on the loop.
    pub(crate) stream: Arc<TcpStream>,
    /// Handler-defined meaning (peer index, client tag, binding id…).
    pub(crate) tag: u64,
    /// Received-but-unparsed bytes. `read_pos` marks how much of the
    /// front has already been consumed as complete frames.
    read_buf: Vec<u8>,
    read_pos: usize,
    /// Pre-encoded frames awaiting the socket, plus how many bytes of
    /// the front frame have already been written.
    write_q: VecDeque<Vec<u8>>,
    write_head: usize,
    /// Total unwritten bytes across the queue.
    queued: usize,
    /// Cap on `queued`; exceeding it closes the connection.
    write_cap: usize,
    /// Close scheduled; drop new traffic, skip further parsing.
    pub(crate) closing: bool,
}

/// Read-side outcome of draining a readiness edge.
pub(crate) enum ReadStep {
    /// Drained to `WouldBlock`; buffer may hold complete frames.
    Progress,
    /// The peer closed or the socket failed.
    Closed(CloseReason),
}

impl Conn {
    pub(crate) fn new(stream: Arc<TcpStream>, tag: u64, write_cap: usize) -> Conn {
        Conn {
            stream,
            tag,
            read_buf: Vec::new(),
            read_pos: 0,
            write_q: VecDeque::new(),
            write_head: 0,
            queued: 0,
            write_cap,
            closing: false,
        }
    }

    /// Reads until `WouldBlock` (the edge-triggered contract: consume
    /// the whole edge or never hear about those bytes again).
    pub(crate) fn drain_read(&mut self) -> ReadStep {
        loop {
            let filled = self.read_buf.len();
            self.read_buf.resize(filled + READ_CHUNK, 0);
            let Some(spare) = self.read_buf.get_mut(filled..) else {
                self.read_buf.truncate(filled);
                return ReadStep::Closed(CloseReason::Io);
            };
            match (&*self.stream).read(spare) {
                Ok(0) => {
                    self.read_buf.truncate(filled);
                    return ReadStep::Closed(CloseReason::Eof);
                }
                Ok(n) => {
                    self.read_buf.truncate(filled + n);
                    if n < READ_CHUNK {
                        // Short read: the socket buffer is empty now;
                        // a further read would only cost a syscall.
                        return ReadStep::Progress;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.read_buf.truncate(filled);
                    return ReadStep::Progress;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    self.read_buf.truncate(filled);
                }
                Err(_) => {
                    self.read_buf.truncate(filled);
                    return ReadStep::Closed(CloseReason::Io);
                }
            }
        }
    }

    /// Takes the read buffer for borrow-free frame dispatch; pair with
    /// [`Conn::restore_read_buf`].
    pub(crate) fn take_read_buf(&mut self) -> (Vec<u8>, usize) {
        (std::mem::take(&mut self.read_buf), self.read_pos)
    }

    /// Puts the (possibly further-consumed) read buffer back, moving a
    /// partial tail frame to the front so the buffer never grows
    /// without bound across many parse rounds.
    pub(crate) fn restore_read_buf(&mut self, mut buf: Vec<u8>, pos: usize) {
        if pos >= buf.len() {
            buf.clear();
            self.read_pos = 0;
        } else if pos > 0 {
            buf.copy_within(pos.., 0);
            buf.truncate(buf.len() - pos);
            self.read_pos = 0;
        } else {
            self.read_pos = 0;
        }
        // A one-off giant frame should not pin its allocation forever.
        if buf.capacity() > 4 * READ_CHUNK && buf.len() < READ_CHUNK {
            buf.shrink_to(READ_CHUNK);
        }
        self.read_buf = buf;
    }

    /// Enqueues one pre-encoded frame. Returns `false` when the write
    /// cap is exceeded — the caller must close the connection.
    pub(crate) fn enqueue(&mut self, frame: Vec<u8>) -> bool {
        if self.closing {
            return true; // dropped silently, like a dead peer
        }
        self.queued += frame.len();
        self.write_q.push_back(frame);
        self.queued <= self.write_cap
    }

    /// Whether any bytes await the socket.
    pub(crate) fn has_pending_writes(&self) -> bool {
        self.queued > 0
    }

    /// Flushes queued frames with vectored writes until the queue is
    /// empty or the socket pushes back. `Ok(true)` means fully drained.
    pub(crate) fn flush(&mut self) -> io::Result<bool> {
        while !self.write_q.is_empty() {
            let mut slices: Vec<IoSlice<'_>> =
                Vec::with_capacity(WRITE_BATCH.min(self.write_q.len()));
            for (i, frame) in self.write_q.iter().take(WRITE_BATCH).enumerate() {
                let from = if i == 0 { self.write_head } else { 0 };
                let Some(rest) = frame.get(from..) else {
                    continue;
                };
                if !rest.is_empty() {
                    slices.push(IoSlice::new(rest));
                }
            }
            if slices.is_empty() {
                self.write_q.clear();
                self.write_head = 0;
                self.queued = 0;
                break;
            }
            match (&*self.stream).write_vectored(&slices) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.advance(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Accounts `n` written bytes across the queue front.
    fn advance(&mut self, mut n: usize) {
        self.queued = self.queued.saturating_sub(n);
        while n > 0 {
            let Some(front) = self.write_q.front() else {
                break;
            };
            let remaining = front.len().saturating_sub(self.write_head);
            if n >= remaining {
                n -= remaining;
                self.write_q.pop_front();
                self.write_head = 0;
            } else {
                self.write_head += n;
                n = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;
    use crate::wire::{from_bytes, NetMsg};
    use quorumstore::types::{Key, OpId, ReadKind};
    use quorumstore::Msg;
    use simnet::NodeId;

    fn msg(seq: u64) -> Msg {
        Msg::ClientRead {
            op: OpId {
                client: NodeId(1),
                seq,
            },
            key: Key::plain(3),
            kind: ReadKind::Single { r: 1 },
        }
    }

    fn frame_of<T: crate::wire::Wire>(m: &T) -> Vec<u8> {
        let mut f = Vec::new();
        encode_frame(m, &mut f);
        f
    }

    #[test]
    fn extract_handles_partial_and_complete_frames() {
        let f = frame_of(&msg(1));
        // Every strict prefix — a truncated frame — wants more bytes.
        for cut in 0..f.len() {
            match extract_frame(&f[..cut], 0) {
                Extract::NeedMore => {}
                _ => panic!("prefix of {cut} bytes should be NeedMore"),
            }
        }
        match extract_frame(&f, 0) {
            Extract::Frame {
                body_start,
                body_end,
            } => assert_eq!(from_bytes::<Msg>(&f[body_start..body_end]), Ok(msg(1))),
            _ => panic!("complete frame not recognized"),
        }
        // Two frames back to back: body_end is where the *next header*
        // begins.
        let mut two = f.clone();
        two.extend_from_slice(&frame_of(&msg(2)));
        let Extract::Frame { body_end, .. } = extract_frame(&two, 0) else {
            panic!("first frame");
        };
        match extract_frame(&two, body_end) {
            Extract::Frame {
                body_start,
                body_end,
            } => assert_eq!(from_bytes::<Msg>(&two[body_start..body_end]), Ok(msg(2))),
            _ => panic!("second frame not recognized"),
        }
        // Each message travels in the oldest frame version that can
        // carry it: a bare v1 Msg and its NetMsg::Store envelope are
        // byte-identical version-1 frames, and a version-1 frame decodes
        // as a Store envelope; a v2-only message is stamped 2 so an old
        // peer rejects it cleanly instead of misparsing it.
        assert_eq!(f[4], 1);
        assert_eq!(frame_of(&NetMsg::Store(msg(1))), f);
        let Extract::Frame {
            body_start,
            body_end,
        } = extract_frame(&f, 0)
        else {
            panic!("v1 frame");
        };
        assert_eq!(
            from_bytes::<NetMsg>(&f[body_start..body_end]),
            Ok(NetMsg::Store(msg(1)))
        );
        let hello = frame_of(&NetMsg::Hello { client: 7 });
        assert_eq!(hello[4], 2);
        assert!(matches!(extract_frame(&hello, 0), Extract::Frame { .. }));
    }

    #[test]
    fn extract_rejects_garbage() {
        // Zero length.
        assert!(matches!(extract_frame(&[0, 0, 0, 0, 1], 0), Extract::Bad));
        // Oversized announcement, judged from the header alone: nothing
        // of the announced body is ever buffered.
        let huge = (MAX_FRAME + 1).to_le_bytes();
        assert!(matches!(
            extract_frame(&[huge[0], huge[1], huge[2], huge[3], 1], 0),
            Extract::Bad
        ));
        // Wrong version — rejected even before the body arrives.
        let mut f = frame_of(&msg(1));
        f[4] = 9;
        assert!(matches!(extract_frame(&f[..5], 0), Extract::Bad));
        assert!(matches!(extract_frame(&f, 0), Extract::Bad));
    }
}
