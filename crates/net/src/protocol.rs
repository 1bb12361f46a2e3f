//! The quorum-store replica protocol, independent of any transport.
//!
//! [`ReplicaCore`] is the replica's entire protocol brain: the storage
//! map, the pending read/write tables, internal op-id minting, and the
//! operation and hedge deadline heaps. It never touches a socket —
//! every outbound message goes through the [`Egress`] trait, which the
//! reactor implements over its event-loop connection table.
//!
//! The protocol itself is documented in [`crate::server`]: simulated
//! [`quorumstore::Replica`] semantics (preliminary flush, confirmation,
//! LWW adoption, peer reads to the `R-1` fastest peers), plus the two
//! mechanisms that keep a quorum read available when one of the peers
//! it asked is lost or silent (see [`ReplicaCore::on_peer_down`] and
//! [`ReplicaCore::fire_expired`]).

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use correctables::spec::{CounterSpec, RegisterSpec, SeqSpec};
use correctables::ConsistencyLevel;
use quorumstore::messages::{FailReason, Msg, Phase};
use quorumstore::storage::LocalStore;
use quorumstore::types::{Key, OpId, ReadKind, Value, Version, Versioned};
use simnet::NodeId;

use crate::pump::Deadlines;
use crate::wire::{LevelInfo, NetMsg, SpecOp, MAX_LEVELS, WIRE_VERSION};

/// Where a replica's outbound messages go. The core never sees sockets;
/// the transport maps these calls onto its connection plumbing.
pub(crate) trait Egress {
    /// Sends `msg` on client connection `conn`. A connection that no
    /// longer exists drops the message silently (the client is gone;
    /// its ops die by timeout on the client side).
    fn to_client(&mut self, conn: u64, msg: &NetMsg);

    /// Sends `msg` down every currently-live peer link.
    fn to_peers(&mut self, msg: &NetMsg);

    /// Sends `msg` down the link to peer `peer` (an index into the
    /// configured peer list) and returns whether a live link took it.
    fn to_peer(&mut self, peer: usize, msg: &NetMsg) -> bool;

    /// The peer whose current link is connection `conn`, if any.
    fn peer_of(&self, conn: u64) -> Option<usize>;

    /// How many peer links are live right now — the most peers a
    /// request sent through [`Egress::to_peers`] can reach.
    fn live_links(&self) -> usize;

    /// Convenience: wraps a version-1 store message for `to_client`.
    fn store_to_client(&mut self, conn: u64, msg: Msg) {
        self.to_client(conn, &NetMsg::Store(msg));
    }

    /// Convenience: wraps a version-1 store message for `to_peers`.
    fn store_to_peers(&mut self, msg: Msg) {
        self.to_peers(&NetMsg::Store(msg));
    }
}

/// A quorum read still short of its quorum after [`hedge_delay`] is
/// hedged to the peers it has not asked yet.
const HEDGE_DIVISOR: u32 = 16;

/// The most a hedge waits, whatever the op timeout: a silent peer must
/// not cost a read more than a fraction of a client's default 2 s
/// timeout, however long the replica's own op timeout is.
const HEDGE_CAP: Duration = Duration::from_millis(500);

/// Each answer time moves a peer's estimate `1/RTT_GAIN` of the way.
const RTT_GAIN: u32 = 4;

/// A peer no quorum read has asked for this long gets one extra
/// `PeerRead` alongside the next read's chosen peers, so its estimate
/// can catch up when it gets faster. The read does not wait for it.
const PROBE_PERIOD: Duration = Duration::from_millis(100);

/// How long a quorum read waits for the peers it asked before it also
/// asks the rest: `op_timeout / HEDGE_DIVISOR` (the ratio the client
/// binding's deadline tick uses), at most [`HEDGE_CAP`].
fn hedge_delay(op_timeout: Duration) -> Duration {
    (op_timeout / HEDGE_DIVISOR).min(HEDGE_CAP)
}

/// What the coordinator has seen of one peer's answers to quorum reads.
#[derive(Clone, Copy, Default)]
struct PeerRtt {
    /// Smoothed `PeerRead` to `PeerReadResp` time; `None` until the peer
    /// answers a read that still waited on it.
    est: Option<Duration>,
    /// When a quorum read last asked this peer.
    asked: Option<Instant>,
}

impl PeerRtt {
    /// Folds one answer time (or, for a read that stopped waiting, the
    /// time waited so far) into the estimate.
    fn sample(&mut self, took: Duration) {
        self.est = Some(match self.est {
            None => took,
            Some(est) if took >= est => est + (took - est) / RTT_GAIN,
            Some(est) => est - (est - took) / RTT_GAIN,
        });
    }

    /// Whether no quorum read has asked this peer for a probe period.
    fn due(&self, now: Instant) -> bool {
        !matches!(self.asked, Some(at) if now.saturating_duration_since(at) < PROBE_PERIOD)
    }
}

/// Where a pending quorum read stands with one peer.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Ask {
    /// Not asked, or asked over a link that has since been lost.
    No,
    /// Asked at this instant; the answer is outstanding.
    Asked(Instant),
    /// Answered; counted toward the quorum once.
    Answered,
}

struct ReadSt {
    client_conn: u64,
    client_op: OpId,
    kind: ReadKind,
    key: Key,
    best: Versioned,
    /// Responses the final view needs, the coordinator's own included.
    needed: u8,
    prelim: Option<Version>,
    /// Per configured peer, so a duplicate or stray answer never counts
    /// twice toward the quorum.
    peers: Vec<Ask>,
}

impl ReadSt {
    fn answered(&self) -> usize {
        self.peers.iter().filter(|a| **a == Ask::Answered).count()
    }

    fn waiting(&self) -> usize {
        self.peers
            .iter()
            .filter(|a| matches!(a, Ask::Asked(_)))
            .count()
    }

    /// Peer answers the quorum still lacks beyond those already asked
    /// for.
    fn unasked_shortfall(&self) -> usize {
        (self.needed as usize).saturating_sub(1 + self.answered() + self.waiting())
    }

    /// Asks up to `want` peers not asked yet, fastest first: peers with
    /// an estimate by that estimate, then unmeasured ones (which
    /// [`ReadSt::probe`] measures without a read waiting on them).
    /// Returns how many live links took the request.
    fn ask(
        &mut self,
        net: &mut impl Egress,
        peer_op: OpId,
        rtt: &mut [PeerRtt],
        want: usize,
        now: Instant,
    ) -> usize {
        let mut order: Vec<usize> = (0..self.peers.len())
            .filter(|p| self.peers.get(*p) == Some(&Ask::No))
            .collect();
        order.sort_by_key(|p| {
            let est = rtt.get(*p).and_then(|r| r.est);
            (est.is_none(), est, *p)
        });
        let mut asked = 0;
        for peer in order {
            if asked == want {
                break;
            }
            if self.send(net, peer_op, rtt, peer, now) {
                asked += 1;
            }
        }
        asked
    }

    /// Asks one more peer, not waited on, if some peer this read has not
    /// asked is [due](PeerRtt::due) for a measurement. Until some peer
    /// has answered, there is nothing to choose by, so it asks every
    /// peer, as the first read does.
    fn probe(&mut self, net: &mut impl Egress, peer_op: OpId, rtt: &mut [PeerRtt], now: Instant) {
        let blind = rtt.iter().all(|r| r.est.is_none());
        for peer in 0..self.peers.len() {
            let due = blind || rtt.get(peer).is_some_and(|r| r.due(now));
            if due
                && self.peers.get(peer) == Some(&Ask::No)
                && self.send(net, peer_op, rtt, peer, now)
                && !blind
            {
                return;
            }
        }
    }

    /// Sends this read's `PeerRead` to `peer`; returns whether a live
    /// link took it.
    fn send(
        &mut self,
        net: &mut impl Egress,
        peer_op: OpId,
        rtt: &mut [PeerRtt],
        peer: usize,
        now: Instant,
    ) -> bool {
        let msg = NetMsg::Store(Msg::PeerRead {
            op: peer_op,
            key: self.key,
        });
        if !net.to_peer(peer, &msg) {
            return false;
        }
        if let Some(slot) = self.peers.get_mut(peer) {
            *slot = Ask::Asked(now);
        }
        if let Some(r) = rtt.get_mut(peer) {
            r.asked = Some(now);
        }
        true
    }
}

struct WriteSt {
    client_conn: u64,
    client_op: OpId,
    acks_left: u8,
}

/// Transport-agnostic replica protocol state. One instance per replica,
/// owned by exactly one event-loop thread.
pub(crate) struct ReplicaCore {
    /// This replica's id (LWW writer tiebreak + internal op-id client).
    id: u32,
    /// Deadline for gathering quorums before failing an op.
    op_timeout: Duration,
    /// Number of configured peers — *configured*, not currently live:
    /// quorum arithmetic must not shrink when a link flaps.
    n_peers: usize,
    store: LocalStore,
    reads: HashMap<u64, ReadSt>,
    writes: HashMap<u64, WriteSt>,
    /// Monotone source of internal op ids.
    next_internal: u64,
    /// Operation deadlines, soonest first.
    deadlines: Deadlines<u64>,
    /// Quorum reads to hedge to the peers they have not asked yet, if
    /// still short of their quorum by then.
    hedges: Deadlines<u64>,
    /// Per configured peer: its answer-time estimate, which picks the
    /// peers a quorum read asks.
    rtt: Vec<PeerRtt>,
    /// The update/causal/strong spec store riding the same connections.
    spec: SpecCore,
}

impl ReplicaCore {
    pub(crate) fn new(id: u32, op_timeout: Duration, n_peers: usize) -> ReplicaCore {
        ReplicaCore {
            id,
            op_timeout,
            n_peers,
            store: LocalStore::new(),
            reads: HashMap::new(),
            writes: HashMap::new(),
            next_internal: 0,
            deadlines: Deadlines::new(),
            hedges: Deadlines::new(),
            rtt: vec![PeerRtt::default(); n_peers],
            spec: SpecCore::new(id, n_peers + 1),
        }
    }

    /// Dispatches one inbound envelope from connection `conn` — the
    /// version-1 store subset into [`ReplicaCore::on_msg`], the
    /// version-2 handshake and spec-store messages into [`SpecCore`].
    pub(crate) fn on_net(&mut self, net: &mut impl Egress, conn: u64, msg: NetMsg) {
        match msg {
            NetMsg::Store(m) => self.on_msg(net, conn, m),
            NetMsg::Hello { .. } => {
                let levels = self.spec.level_directory();
                net.to_client(
                    conn,
                    &NetMsg::HelloAck {
                        version: WIRE_VERSION,
                        levels,
                    },
                );
            }
            NetMsg::SpecSubmit {
                client,
                seq,
                op,
                wants,
            } => self.spec.submit(net, conn, client, seq, op, &wants),
            NetMsg::SpecGossip {
                origin,
                seq,
                ts,
                vc,
                op,
            } => self.spec.on_gossip(
                net,
                SpecUpdate {
                    ts,
                    origin,
                    seq,
                    vc,
                    op,
                },
            ),
            NetMsg::SpecAck {
                origin,
                seq,
                acker,
                acker_seq,
            } => self.spec.on_ack(net, origin, seq, acker, acker_seq),
            // Client-bound replies have no business arriving at a
            // server; drop them (a confused or hostile peer must not
            // crash us).
            NetMsg::HelloAck { .. } | NetMsg::SpecReply { .. } | NetMsg::SpecFailed { .. } => {}
        }
    }

    /// A peer link (re)connected: give the spec store a chance to
    /// retransmit updates the peer may have missed while down.
    pub(crate) fn on_peer_up(&mut self, net: &mut impl Egress) {
        self.spec.retransmit(net);
    }

    /// The link to peer `peer` was lost or replaced. Reads waiting on
    /// its answer re-ask live peers they have not asked yet (the
    /// replacement link of `peer` itself included); a read that can no
    /// longer reach its quorum fails `Unavailable` at once.
    pub(crate) fn on_peer_down(&mut self, net: &mut impl Egress, peer: usize) {
        let waiting: Vec<u64> = self
            .reads
            .iter()
            .filter(|(_, st)| matches!(st.peers.get(peer), Some(Ask::Asked(_))))
            .map(|(internal, _)| *internal)
            .collect();
        let now = Instant::now();
        for internal in waiting {
            let peer_op = self.peer_op(internal);
            let Some(st) = self.reads.get_mut(&internal) else {
                continue;
            };
            if let Some(slot) = st.peers.get_mut(peer) {
                *slot = Ask::No;
            }
            let short = st.unasked_shortfall();
            if st.ask(net, peer_op, &mut self.rtt, short, now) < short {
                if let Some(st) = self.reads.remove(&internal) {
                    Self::fail_unavailable(net, st.client_conn, st.client_op);
                }
            }
        }
    }

    /// The soonest live operation or hedge deadline, for the
    /// transport's wait.
    pub(crate) fn next_deadline(&mut self) -> Option<Instant> {
        let reads = &self.reads;
        let writes = &self.writes;
        let op = self
            .deadlines
            .next_live(|internal| reads.contains_key(internal) || writes.contains_key(internal));
        let hedge = self
            .hedges
            .next_live(|internal| reads.contains_key(internal));
        match (op, hedge) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Fails every operation whose deadline has passed by `now`, then
    /// hedges every quorum read still short of its quorum
    /// [`hedge_delay`] after it started: it asks every live peer it has
    /// not asked yet, so a silent peer (hung, or cut off without its
    /// link closing) delays the read instead of failing it. The time
    /// waited counts as an answer time of each peer still owing one, so
    /// a peer that went silent stops being asked first.
    pub(crate) fn fire_expired(&mut self, net: &mut impl Egress, now: Instant) {
        let mut failed = Vec::new();
        let reads = &mut self.reads;
        let writes = &mut self.writes;
        self.deadlines.fire_expired(now, |internal| {
            let hit = reads
                .remove(&internal)
                .map(|st| (st.client_conn, st.client_op))
                .or_else(|| {
                    writes
                        .remove(&internal)
                        .map(|st| (st.client_conn, st.client_op))
                });
            failed.extend(hit);
        });
        for (conn, op) in failed {
            net.store_to_client(
                conn,
                Msg::OpFailed {
                    op,
                    reason: FailReason::Timeout,
                },
            );
        }
        let mut hedged = Vec::new();
        self.hedges
            .fire_expired(now, |internal| hedged.push(internal));
        for internal in hedged {
            let peer_op = self.peer_op(internal);
            let Some(st) = self.reads.get_mut(&internal) else {
                continue;
            };
            for (ask, r) in st.peers.iter().zip(&mut self.rtt) {
                if let Ask::Asked(at) = ask {
                    r.sample(now.saturating_duration_since(*at));
                }
            }
            st.ask(net, peer_op, &mut self.rtt, usize::MAX, now);
        }
    }

    fn now_version(&self) -> Version {
        let ts = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        Version {
            ts,
            writer: self.id,
        }
    }

    fn mint_internal(&mut self) -> (u64, OpId) {
        let internal = self.next_internal;
        self.next_internal += 1;
        (internal, self.peer_op(internal))
    }

    /// The op id of internal op `internal` in peer traffic: this
    /// replica's id in the client slot, the internal counter in the
    /// sequence slot. Unique per coordinator, and coordinators' ids are
    /// unique per deployment.
    fn peer_op(&self, internal: u64) -> OpId {
        OpId {
            client: NodeId(self.id as usize),
            seq: internal,
        }
    }

    fn arm(&mut self, internal: u64) {
        self.deadlines
            .arm(Instant::now() + self.op_timeout, internal);
    }

    /// Dispatches one inbound message from connection `conn`.
    pub(crate) fn on_msg(&mut self, net: &mut impl Egress, conn: u64, msg: Msg) {
        match msg {
            Msg::ClientRead { op, key, kind } => self.client_read(net, conn, op, key, kind),
            Msg::ClientWrite { op, key, value, w } => {
                self.client_write(net, conn, op, key, value, w)
            }
            Msg::PeerRead { op, key } => {
                let data = self.store.get(key);
                net.store_to_client(conn, Msg::PeerReadResp { op, data });
            }
            Msg::PeerReadResp { op, data } => self.peer_read_resp(net, conn, op, data),
            Msg::PeerWrite { key, data, ack_op } => {
                self.store.apply(key, data);
                if let Some(op) = ack_op {
                    net.store_to_client(conn, Msg::PeerWriteAck { op });
                }
            }
            Msg::PeerWriteAck { op } => self.peer_write_ack(net, op),
            // Client-bound replies have no business arriving at a server;
            // drop them (a confused or hostile peer must not crash us).
            Msg::ReadReply { .. }
            | Msg::ReadConfirm { .. }
            | Msg::WriteReply { .. }
            | Msg::OpFailed { .. } => {}
        }
    }

    fn client_read(
        &mut self,
        net: &mut impl Egress,
        conn: u64,
        client_op: OpId,
        key: Key,
        kind: ReadKind,
    ) {
        let local = self.store.get(key);
        let n_replicas = (self.n_peers + 1) as u8;
        let needed = kind.quorum().clamp(1, n_replicas);

        let mut prelim = None;
        if kind.is_icg() {
            // Preliminary flush: leak local state before coordinating.
            prelim = Some(local.version);
            net.store_to_client(
                conn,
                Msg::ReadReply {
                    op: client_op,
                    phase: Phase::Preliminary,
                    data: local.clone(),
                },
            );
        }

        if needed <= 1 {
            self.reply_read_final(net, conn, client_op, kind, prelim, local);
            return;
        }

        // With fewer than R-1 links live the quorum is out of reach;
        // fail at once rather than park the op until its deadline.
        if net.live_links() + 1 < needed as usize {
            Self::fail_unavailable(net, conn, client_op);
            return;
        }
        let (internal, peer_op) = self.mint_internal();
        let mut st = ReadSt {
            client_conn: conn,
            client_op,
            kind,
            key,
            best: local,
            needed,
            prelim,
            peers: vec![Ask::No; self.n_peers],
        };
        let now = Instant::now();
        let want = needed as usize - 1;
        if st.ask(net, peer_op, &mut self.rtt, want, now) < want {
            // A link counted live above was already closing.
            Self::fail_unavailable(net, conn, client_op);
            return;
        }
        st.probe(net, peer_op, &mut self.rtt, now);
        if st.peers.contains(&Ask::No) {
            self.hedges
                .arm(now + hedge_delay(self.op_timeout), internal);
        }
        self.reads.insert(internal, st);
        self.arm(internal);
    }

    fn reply_read_final(
        &mut self,
        net: &mut impl Egress,
        conn: u64,
        op: OpId,
        kind: ReadKind,
        prelim: Option<Version>,
        best: Versioned,
    ) {
        let msg = match kind {
            ReadKind::Icg { confirm: true, .. } if prelim == Some(best.version) => {
                Msg::ReadConfirm {
                    op,
                    version: best.version,
                }
            }
            ReadKind::Icg { .. } => Msg::ReadReply {
                op,
                phase: Phase::Final,
                data: best,
            },
            ReadKind::Single { .. } => Msg::ReadReply {
                op,
                phase: Phase::Single,
                data: best,
            },
        };
        net.store_to_client(conn, msg);
    }

    fn peer_read_resp(&mut self, net: &mut impl Egress, conn: u64, peer_op: OpId, data: Versioned) {
        // Only answers to our own requests are meaningful.
        if peer_op.client != NodeId(self.id as usize) {
            return;
        }
        let internal = peer_op.seq;
        let Some(st) = self.reads.get_mut(&internal) else {
            return; // late response after completion or timeout
        };
        // Count one answer per asked peer: a duplicate, or an answer
        // from a link this read no longer waits on, changes nothing.
        let Some(peer) = net.peer_of(conn) else {
            return;
        };
        let Some(slot) = st.peers.get_mut(peer) else {
            return;
        };
        let Ask::Asked(at) = *slot else {
            return;
        };
        *slot = Ask::Answered;
        if let Some(r) = self.rtt.get_mut(peer) {
            r.sample(at.elapsed());
        }
        if data.version > st.best.version {
            st.best = data;
        }
        if 1 + st.answered() < st.needed as usize {
            return;
        }
        let Some(st) = self.reads.remove(&internal) else {
            return;
        };
        // Adopt the winning version locally: later preliminary
        // flushes serve it, and convergence after quiescence holds
        // even if this coordinator missed the original write.
        if st.best.version > self.store.version_of(st.key) {
            self.store.apply(st.key, st.best.clone());
        }
        self.reply_read_final(
            net,
            st.client_conn,
            st.client_op,
            st.kind,
            st.prelim,
            st.best,
        );
    }

    fn client_write(
        &mut self,
        net: &mut impl Egress,
        conn: u64,
        client_op: OpId,
        key: Key,
        value: Value,
        w: u8,
    ) {
        let acks_needed = w.saturating_sub(1).min(self.n_peers as u8);
        if net.live_links() < acks_needed as usize {
            // The write quorum is out of reach: fail before applying.
            Self::fail_unavailable(net, conn, client_op);
            return;
        }
        let data = Versioned {
            value,
            version: self.now_version(),
        };
        self.store.apply(key, data.clone());
        if acks_needed == 0 {
            // W = 1 (the paper's setting): acknowledge immediately,
            // propagate in the background.
            net.store_to_peers(Msg::PeerWrite {
                key,
                data,
                ack_op: None,
            });
            net.store_to_client(conn, Msg::WriteReply { op: client_op });
            return;
        }
        let (internal, peer_op) = self.mint_internal();
        net.store_to_peers(Msg::PeerWrite {
            key,
            data,
            ack_op: Some(peer_op),
        });
        self.writes.insert(
            internal,
            WriteSt {
                client_conn: conn,
                client_op,
                acks_left: acks_needed,
            },
        );
        self.arm(internal);
    }

    fn fail_unavailable(net: &mut impl Egress, conn: u64, op: OpId) {
        net.store_to_client(
            conn,
            Msg::OpFailed {
                op,
                reason: FailReason::Unavailable,
            },
        );
    }

    fn peer_write_ack(&mut self, net: &mut impl Egress, peer_op: OpId) {
        if peer_op.client != NodeId(self.id as usize) {
            return;
        }
        let internal = peer_op.seq;
        let finished = match self.writes.get_mut(&internal) {
            Some(st) => {
                st.acks_left = st.acks_left.saturating_sub(1);
                st.acks_left == 0
            }
            None => false,
        };
        if finished {
            if let Some(st) = self.writes.remove(&internal) {
                net.store_to_client(st.client_conn, Msg::WriteReply { op: st.client_op });
            }
        }
    }
}

/// One replicated spec-store update: the unit of the gossip protocol
/// and of the agreed `(ts, origin, seq)` total order.
pub(crate) struct SpecUpdate {
    ts: u64,
    origin: u32,
    seq: u64,
    vc: Vec<u64>,
    op: SpecOp,
}

impl SpecUpdate {
    fn order_key(&self) -> (u64, u32, u64) {
        (self.ts, self.origin, self.seq)
    }
}

/// Which of the four served levels a submission asked for.
#[derive(Clone, Copy)]
struct SpecWants {
    weak: bool,
    update: bool,
    causal: bool,
    strong: bool,
}

/// An own update still owed views or acks.
struct SpecPending {
    conn: u64,
    client: u64,
    client_seq: u64,
    key: (u64, u32, u64),
    wants: SpecWants,
    /// Per-replica causal-delivery acks (own entry pre-set).
    acked: Vec<bool>,
    /// Per-replica submission counts reported with each ack; a strong
    /// view additionally waits until these are delivered locally.
    acker_seq: Vec<u64>,
    causal_sent: bool,
    strong_sent: bool,
}

impl SpecPending {
    fn fully_acked(&self) -> bool {
        self.acked.iter().all(|a| *a)
    }

    fn served(&self) -> bool {
        (!self.wants.causal || self.causal_sent) && (!self.wants.strong || self.strong_sent)
    }
}

/// The TCP-side spec store: the update-consistency / causal / strong
/// machinery of `specstore::SpecReplica`, ported onto real peer links.
///
/// Every replica keeps a totally-ordered update log (lamport `(ts,
/// origin, seq)` order), a vector clock gating causal delivery (CBCAST
/// buffering), and — for its *own* updates — per-peer delivery acks.
/// The four views a submission can ask for:
///
/// - **weak** — the op applied on top of the local replay, replied
///   before any coordination;
/// - **update** — the op's return in the agreed total order as
///   currently known locally (wait-free; the order is what all
///   replicas converge to);
/// - **causal** — replied once at least one peer confirmed causal
///   delivery (evidence the update propagated with its causal past);
/// - **strong** — replied once *every* replica delivered the update
///   **and** everything those replicas had themselves submitted by
///   their ack is delivered here, so the op's position in the total
///   order can no longer change (stability, not just receipt).
///
/// Anti-entropy is connection-driven rather than timer-driven: peer
/// links re-gossip all not-fully-acked own updates whenever a link
/// comes (back) up, and a replica re-acks retransmissions of updates it
/// already delivered — so a flapping link cannot wedge a strong view
/// open, and no timers race the event loop.
///
/// Replica ids double as vector-clock indexes, so a spec deployment
/// requires ids `0..n` — exactly what [`crate::spawn_local_cluster`]
/// assigns. Gossip from an out-of-range origin is dropped.
pub(crate) struct SpecCore {
    id: u32,
    n: usize,
    lamport: u64,
    /// Own submissions so far (1-based seq of the next own update).
    next_seq: u64,
    /// Deliveries per origin; own entry counts own submissions.
    vc: Vec<u64>,
    /// Causally delivered updates, sorted by `(ts, origin, seq)`.
    log: Vec<SpecUpdate>,
    /// Received but not yet causally deliverable.
    buffer: Vec<SpecUpdate>,
    /// Own updates awaiting views or acks, by own seq.
    pending: HashMap<u64, SpecPending>,
    reg: RegisterSpec,
    ctr: CounterSpec,
}

impl SpecCore {
    fn new(id: u32, n: usize) -> SpecCore {
        SpecCore {
            id,
            n,
            lamport: 0,
            next_seq: 0,
            vc: vec![0; n],
            log: Vec::new(),
            buffer: Vec::new(),
            pending: HashMap::new(),
            reg: RegisterSpec::default(),
            ctr: CounterSpec,
        }
    }

    /// The level directory advertised in the handshake: every level
    /// registered in this process, truncated at the wire bound.
    fn level_directory(&self) -> Vec<LevelInfo> {
        ConsistencyLevel::all_registered()
            .into_iter()
            .take(MAX_LEVELS as usize)
            .map(|l| LevelInfo {
                id: l.wire_id(),
                rank: l.rank(),
                name: l.name().to_string(),
            })
            .collect()
    }

    /// Resolves requested level ids against the four levels this store
    /// implements. `None` means the submission asked for a level the
    /// store cannot honestly serve — the caller replies `SpecFailed`
    /// rather than delivering a weaker guarantee under a stronger name.
    fn resolve_wants(wants: &[u8]) -> Option<SpecWants> {
        let mut w = SpecWants {
            weak: false,
            update: false,
            causal: false,
            strong: false,
        };
        for &id in wants {
            let level = ConsistencyLevel::from_wire_id(id)?;
            if level == ConsistencyLevel::WEAK {
                w.weak = true;
            } else if level == ConsistencyLevel::UPDATE {
                w.update = true;
            } else if level == ConsistencyLevel::CAUSAL {
                w.causal = true;
            } else if level == ConsistencyLevel::STRONG {
                w.strong = true;
            } else {
                return None;
            }
        }
        (w.weak || w.update || w.causal || w.strong).then_some(w)
    }

    /// Applies one op to the running two-spec state, returning the
    /// op's value.
    fn apply(
        &self,
        regs: &mut BTreeMap<u64, u64>,
        ctrs: &mut BTreeMap<u64, u64>,
        op: &SpecOp,
    ) -> u64 {
        match op {
            SpecOp::Reg(op) => {
                let (next, ret) = self.reg.apply(regs, op);
                *regs = next;
                ret
            }
            SpecOp::Ctr(op) => {
                let (next, ret) = self.ctr.apply(ctrs, op);
                *ctrs = next;
                ret
            }
        }
    }

    /// Replays the log in the agreed order and returns the value of the
    /// update at `key` (or, with `key` absent from the log, of `extra`
    /// applied on top — the weak pre-stamp view).
    fn replay(&self, key: (u64, u32, u64), extra: Option<&SpecOp>) -> u64 {
        let mut regs = BTreeMap::new();
        let mut ctrs = BTreeMap::new();
        for u in &self.log {
            let ret = self.apply(&mut regs, &mut ctrs, &u.op);
            if u.order_key() == key {
                return ret;
            }
        }
        match extra {
            Some(op) => self.apply(&mut regs, &mut ctrs, op),
            None => 0,
        }
    }

    fn insert_sorted(&mut self, u: SpecUpdate) {
        let at = self
            .log
            .partition_point(|have| have.order_key() < u.order_key());
        self.log.insert(at, u);
    }

    fn reply(
        &self,
        net: &mut impl Egress,
        p: &SpecPending,
        level: ConsistencyLevel,
        val: u64,
        closing: bool,
    ) {
        net.to_client(
            p.conn,
            &NetMsg::SpecReply {
                client: p.client,
                seq: p.client_seq,
                level: level.wire_id(),
                val,
                closing,
            },
        );
    }

    /// One client submission: weak view immediately, then the update
    /// enters the replicated log and the stronger views follow the
    /// protocol (see the type docs).
    fn submit(
        &mut self,
        net: &mut impl Egress,
        conn: u64,
        client: u64,
        client_seq: u64,
        op: SpecOp,
        wants: &[u8],
    ) {
        let Some(w) = Self::resolve_wants(wants) else {
            net.to_client(
                conn,
                &NetMsg::SpecFailed {
                    client,
                    seq: client_seq,
                },
            );
            return;
        };
        // Weak: the op on top of the local replay, before any ordering.
        // Even when weak is the *only* requested level the update still
        // enters the replicated log below — only the client's view is
        // weak, never the store's state.
        if w.weak {
            let val = self.replay((u64::MAX, u32::MAX, u64::MAX), Some(&op));
            let closing = !(w.update || w.causal || w.strong);
            net.to_client(
                conn,
                &NetMsg::SpecReply {
                    client,
                    seq: client_seq,
                    level: ConsistencyLevel::WEAK.wire_id(),
                    val,
                    closing,
                },
            );
        }

        // Stamp and deliver locally.
        self.lamport += 1;
        self.next_seq += 1;
        let seq = self.next_seq;
        if let Some(slot) = self.vc.get_mut(self.id as usize) {
            *slot = seq;
        }
        let u = SpecUpdate {
            ts: self.lamport,
            origin: self.id,
            seq,
            vc: self.vc.clone(),
            op,
        };
        let key = u.order_key();
        net.to_peers(&NetMsg::SpecGossip {
            origin: u.origin,
            seq: u.seq,
            ts: u.ts,
            vc: u.vc.clone(),
            op: u.op.clone(),
        });
        self.insert_sorted(u);

        let mut acked = vec![false; self.n];
        let mut acker_seq = vec![0; self.n];
        if let Some(slot) = acked.get_mut(self.id as usize) {
            *slot = true;
        }
        if let Some(slot) = acker_seq.get_mut(self.id as usize) {
            *slot = seq;
        }
        let p = SpecPending {
            conn,
            client,
            client_seq,
            key,
            wants: w,
            acked,
            acker_seq,
            causal_sent: false,
            strong_sent: false,
        };
        if w.update {
            let val = self.replay(key, None);
            let closing = !(w.causal || w.strong);
            self.reply(net, &p, ConsistencyLevel::UPDATE, val, closing);
        }
        // Track every own update until fully acked — even one whose
        // client is already served: peers that missed the gossip can
        // only be healed by the retransmit path, and a permanently
        // missing seq would wedge their vector clocks forever.
        self.pending.insert(seq, p);
        self.settle(net);
    }

    /// One gossiped update from a peer: re-ack retransmissions of
    /// already-delivered updates, buffer the rest, deliver causally.
    fn on_gossip(&mut self, net: &mut impl Egress, u: SpecUpdate) {
        if u.origin as usize >= self.n || u.origin == self.id || u.vc.len() != self.n {
            return;
        }
        let delivered = self.vc.get(u.origin as usize).copied().unwrap_or(0);
        if u.seq <= delivered {
            // A retransmission of something we already delivered — the
            // origin is missing our ack; repeat the cumulative one.
            self.ack(net, u.origin, delivered);
            return;
        }
        if self
            .buffer
            .iter()
            .any(|b| b.origin == u.origin && b.seq == u.seq)
        {
            return;
        }
        self.lamport = self.lamport.max(u.ts);
        self.buffer.push(u);
        self.deliver_causal(net);
    }

    /// Broadcasts a *cumulative* delivery ack: "I have delivered every
    /// update of `origin` up through `seq`". Cumulative semantics make
    /// acks freely re-sendable — a lost ack is healed by any later one
    /// (or by the peer-up re-broadcast in [`SpecCore::retransmit`]).
    /// Peer links form a full mesh; everyone but the origin ignores it.
    fn ack(&self, net: &mut impl Egress, origin: u32, seq: u64) {
        net.to_peers(&NetMsg::SpecAck {
            origin,
            seq,
            acker: self.id,
            acker_seq: self.next_seq,
        });
    }

    /// CBCAST delivery: an update is deliverable once its causal past
    /// is — its origin entry is exactly our next expected, every other
    /// entry is no newer than what we delivered.
    fn deliver_causal(&mut self, net: &mut impl Egress) {
        loop {
            let next = self.buffer.iter().position(|u| {
                u.vc.iter().enumerate().all(|(j, &c)| {
                    let have = self.vc.get(j).copied().unwrap_or(0);
                    if j == u.origin as usize {
                        c == have + 1
                    } else {
                        c <= have
                    }
                })
            });
            let Some(at) = next else { break };
            let u = self.buffer.swap_remove(at);
            if let Some(slot) = self.vc.get_mut(u.origin as usize) {
                *slot = u.seq;
            }
            let (origin, seq) = (u.origin, u.seq);
            self.insert_sorted(u);
            self.ack(net, origin, seq);
        }
        self.settle(net);
    }

    /// One cumulative delivery ack for our own updates: marks `acker`
    /// on every pending update with seq at or below the acked one.
    fn on_ack(&mut self, net: &mut impl Egress, origin: u32, seq: u64, acker: u32, acker_seq: u64) {
        if origin != self.id || acker as usize >= self.n {
            return;
        }
        for (own_seq, p) in self.pending.iter_mut() {
            if *own_seq > seq {
                continue;
            }
            if let Some(slot) = p.acked.get_mut(acker as usize) {
                *slot = true;
            }
            if let Some(slot) = p.acker_seq.get_mut(acker as usize) {
                *slot = (*slot).max(acker_seq);
            }
        }
        self.settle(net);
    }

    /// Serves every causal/strong view whose condition now holds and
    /// retires own updates that are fully served and fully acked.
    fn settle(&mut self, net: &mut impl Egress) {
        let mut done = Vec::new();
        let seqs: Vec<u64> = self.pending.keys().copied().collect();
        for seq in seqs {
            let Some(p) = self.pending.get(&seq) else {
                continue;
            };
            let others_acked = p
                .acked
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != self.id as usize)
                .filter(|(_, a)| **a)
                .count();
            let causal_ready = self.n == 1 || others_acked > 0;
            let stable = p.fully_acked()
                && p.acker_seq
                    .iter()
                    .enumerate()
                    .all(|(i, &s)| self.vc.get(i).copied().unwrap_or(0) >= s);
            let key = p.key;
            let wants = p.wants;

            if wants.causal && !p.causal_sent && causal_ready {
                let val = self.replay(key, None);
                let closing = !wants.strong;
                if let Some(p) = self.pending.get_mut(&seq) {
                    p.causal_sent = true;
                }
                if let Some(p) = self.pending.get(&seq) {
                    self.reply(net, p, ConsistencyLevel::CAUSAL, val, closing);
                }
            }
            if wants.strong && stable {
                let strong_sent = self
                    .pending
                    .get(&seq)
                    .map(|p| p.strong_sent)
                    .unwrap_or(true);
                if !strong_sent {
                    let val = self.replay(key, None);
                    if let Some(p) = self.pending.get_mut(&seq) {
                        p.strong_sent = true;
                    }
                    if let Some(p) = self.pending.get(&seq) {
                        self.reply(net, p, ConsistencyLevel::STRONG, val, true);
                    }
                }
            }
            if let Some(p) = self.pending.get(&seq) {
                if p.served() && p.fully_acked() {
                    done.push(seq);
                }
            }
        }
        for seq in done {
            self.pending.remove(&seq);
        }
    }

    /// Connection-driven anti-entropy, run whenever a peer link comes
    /// (back) up. Two roles:
    ///
    /// - *origin*: re-gossip every own update still awaiting acks — the
    ///   peer may have been down (or the link not yet established) when
    ///   the gossip first went out;
    /// - *acker*: re-broadcast the cumulative delivery ack for every
    ///   other origin — an ack sent while our own outbound link was
    ///   still down was lost, and the origin's strong views wait on it.
    fn retransmit(&mut self, net: &mut impl Egress) {
        let keys: Vec<(u64, u32, u64)> = self.pending.values().map(|p| p.key).collect();
        for key in keys {
            let Some(u) = self.log.iter().find(|u| u.order_key() == key) else {
                continue;
            };
            net.to_peers(&NetMsg::SpecGossip {
                origin: u.origin,
                seq: u.seq,
                ts: u.ts,
                vc: u.vc.clone(),
                op: u.op.clone(),
            });
        }
        for (j, &delivered) in self.vc.clone().iter().enumerate() {
            if j != self.id as usize && delivered > 0 {
                self.ack(net, j as u32, delivered);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The client connection every test read arrives on.
    const CLIENT: u64 = 7;
    /// Peer link `i` is connection `PEER_CONN + i`.
    const PEER_CONN: u64 = 100;
    const OP_TIMEOUT: Duration = Duration::from_secs(5);

    /// An in-memory [`Egress`]: records every send per peer and per
    /// client connection, and lets a test take peer links down.
    struct MemNet {
        live: Vec<bool>,
        to_peer: Vec<Vec<NetMsg>>,
        to_client: Vec<(u64, NetMsg)>,
    }

    impl MemNet {
        fn new(peers: usize) -> MemNet {
            MemNet {
                live: vec![true; peers],
                to_peer: vec![Vec::new(); peers],
                to_client: Vec::new(),
            }
        }

        /// `PeerRead`s sent to each peer so far.
        fn peer_reads(&self) -> Vec<usize> {
            self.to_peer
                .iter()
                .map(|sent| {
                    sent.iter()
                        .filter(|m| matches!(m, NetMsg::Store(Msg::PeerRead { .. })))
                        .count()
                })
                .collect()
        }

        /// The op id of the last `PeerRead` sent to `peer`.
        fn last_peer_read(&self, peer: usize) -> OpId {
            self.to_peer[peer]
                .iter()
                .rev()
                .find_map(|m| match m {
                    NetMsg::Store(Msg::PeerRead { op, .. }) => Some(*op),
                    _ => None,
                })
                .expect("peer was asked")
        }

        /// The store messages sent to the client, in order.
        fn client_msgs(&self) -> Vec<Msg> {
            self.to_client
                .iter()
                .filter_map(|(conn, m)| match m {
                    NetMsg::Store(msg) if *conn == CLIENT => Some(msg.clone()),
                    _ => None,
                })
                .collect()
        }

        fn finals(&self) -> Vec<Versioned> {
            self.client_msgs()
                .into_iter()
                .filter_map(|m| match m {
                    Msg::ReadReply {
                        phase: Phase::Final,
                        data,
                        ..
                    } => Some(data),
                    _ => None,
                })
                .collect()
        }

        fn unavailable(&self) -> usize {
            self.client_msgs()
                .iter()
                .filter(|m| {
                    matches!(
                        m,
                        Msg::OpFailed {
                            reason: FailReason::Unavailable,
                            ..
                        }
                    )
                })
                .count()
        }
    }

    impl Egress for MemNet {
        fn to_client(&mut self, conn: u64, msg: &NetMsg) {
            self.to_client.push((conn, msg.clone()));
        }

        fn to_peers(&mut self, msg: &NetMsg) {
            for (live, sent) in self.live.iter().zip(&mut self.to_peer) {
                if *live {
                    sent.push(msg.clone());
                }
            }
        }

        fn to_peer(&mut self, peer: usize, msg: &NetMsg) -> bool {
            if !self.live[peer] {
                return false;
            }
            self.to_peer[peer].push(msg.clone());
            true
        }

        fn peer_of(&self, conn: u64) -> Option<usize> {
            let peer = conn.checked_sub(PEER_CONN)? as usize;
            (self.live.get(peer) == Some(&true)).then_some(peer)
        }

        fn live_links(&self) -> usize {
            self.live.iter().filter(|l| **l).count()
        }
    }

    fn setup(peers: usize) -> (ReplicaCore, MemNet) {
        (ReplicaCore::new(0, OP_TIMEOUT, peers), MemNet::new(peers))
    }

    /// A client ICG read of key 1 at read quorum `r`.
    fn read(core: &mut ReplicaCore, net: &mut MemNet, seq: u64, r: u8) {
        let op = OpId {
            client: NodeId(1000),
            seq,
        };
        let kind = ReadKind::Icg { r, confirm: false };
        core.on_msg(
            net,
            CLIENT,
            Msg::ClientRead {
                op,
                key: Key::plain(1),
                kind,
            },
        );
    }

    /// Peer `peer` answers the last read it was asked with a record of
    /// timestamp `ts`, on the link `via`.
    fn answer_via(core: &mut ReplicaCore, net: &mut MemNet, peer: usize, via: u64, ts: u64) {
        let op = net.last_peer_read(peer);
        let data = Versioned {
            value: Value::Opaque(8),
            version: Version { ts, writer: 9 },
        };
        core.on_msg(net, via, Msg::PeerReadResp { op, data });
    }

    fn answer(core: &mut ReplicaCore, net: &mut MemNet, peer: usize, ts: u64) {
        answer_via(core, net, peer, PEER_CONN + peer as u64, ts);
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Gives every peer the answer-time estimate in `ests` and marks it
    /// asked just now, so no read probes it for a while.
    fn measured(core: &mut ReplicaCore, ests: &[u64]) {
        let now = Instant::now();
        for (r, est) in core.rtt.iter_mut().zip(ests) {
            r.est = Some(ms(*est));
            r.asked = Some(now);
        }
    }

    #[test]
    fn r2_asks_only_the_fastest_peer() {
        let (mut core, mut net) = setup(2);
        measured(&mut core, &[5, 1]);
        read(&mut core, &mut net, 1, 2);
        assert_eq!(net.peer_reads(), [0, 1]);
        read(&mut core, &mut net, 2, 2);
        assert_eq!(net.peer_reads(), [0, 2]);
        // The preliminary view still goes out first, once per read.
        let prelims = net
            .client_msgs()
            .iter()
            .filter(|m| {
                matches!(
                    m,
                    Msg::ReadReply {
                        phase: Phase::Preliminary,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(prelims, 2);
    }

    #[test]
    fn an_unmeasured_peer_is_probed_not_waited_on() {
        let (mut core, mut net) = setup(2);
        // Nothing measured yet: peer 0 is asked, peer 1 probed.
        read(&mut core, &mut net, 1, 2);
        assert_eq!(net.peer_reads(), [1, 1]);
        // Either answer completes the read; the probed peer's does here.
        answer(&mut core, &mut net, 1, 3);
        assert_eq!(net.finals().len(), 1);
        assert!(core.rtt[1].est.is_some());
        assert!(core.rtt[0].est.is_none());
        // A measured peer goes before an unmeasured one, and peer 0 was
        // asked too recently to be probed again.
        read(&mut core, &mut net, 2, 2);
        assert_eq!(net.peer_reads(), [1, 2]);
    }

    #[test]
    fn until_a_peer_answers_every_read_asks_every_peer() {
        let (mut core, mut net) = setup(3);
        read(&mut core, &mut net, 1, 2);
        read(&mut core, &mut net, 2, 2);
        assert_eq!(net.peer_reads(), [2, 2, 2]);
        answer(&mut core, &mut net, 2, 3);
        read(&mut core, &mut net, 3, 2);
        assert_eq!(net.peer_reads(), [2, 2, 3], "peer 2 answered first");
    }

    #[test]
    fn a_peer_not_asked_for_a_probe_period_is_probed_once() {
        let (mut core, mut net) = setup(2);
        measured(&mut core, &[1, 5]);
        core.rtt[1].asked = Instant::now().checked_sub(PROBE_PERIOD);
        read(&mut core, &mut net, 1, 2);
        assert_eq!(net.peer_reads(), [1, 1]);
        read(&mut core, &mut net, 2, 2);
        assert_eq!(net.peer_reads(), [2, 1]);
        // The read waits for either answer, not for the probe's.
        answer(&mut core, &mut net, 0, 3);
        assert_eq!(net.finals().len(), 1);
    }

    #[test]
    fn an_answer_time_moves_the_estimate_a_quarter_of_the_way() {
        let mut r = PeerRtt::default();
        r.sample(ms(8));
        assert_eq!(r.est, Some(ms(8)));
        r.sample(ms(4));
        assert_eq!(r.est, Some(ms(7)));
        r.sample(ms(11));
        assert_eq!(r.est, Some(ms(8)));
    }

    #[test]
    fn an_answer_is_timed_into_the_estimate() {
        let (mut core, mut net) = setup(2);
        measured(&mut core, &[1_000, 5_000]);
        read(&mut core, &mut net, 1, 2);
        answer(&mut core, &mut net, 0, 3);
        let est = core.rtt[0].est.expect("peer 0 measured");
        assert!(est < ms(1_000), "a fast answer pulls the estimate down");
        assert_eq!(core.rtt[1].est, Some(ms(5_000)), "peer 1 was not asked");
    }

    #[test]
    fn r2_skips_a_down_link() {
        let (mut core, mut net) = setup(2);
        measured(&mut core, &[1, 5]);
        net.live[0] = false;
        read(&mut core, &mut net, 1, 2);
        read(&mut core, &mut net, 2, 2);
        assert_eq!(net.peer_reads(), [0, 2]);
        answer(&mut core, &mut net, 1, 5);
        assert_eq!(net.finals().len(), 1);
    }

    #[test]
    fn r3_asks_both_peers_and_completes_on_both_answers() {
        let (mut core, mut net) = setup(2);
        read(&mut core, &mut net, 1, 3);
        assert_eq!(net.peer_reads(), [1, 1]);
        answer(&mut core, &mut net, 0, 4);
        assert!(net.finals().is_empty());
        answer(&mut core, &mut net, 1, 6);
        let finals = net.finals();
        assert_eq!(finals.len(), 1);
        assert_eq!(finals[0].version.ts, 6, "the newest answer wins");
    }

    #[test]
    fn losing_an_asked_peer_reasks_the_other() {
        let (mut core, mut net) = setup(2);
        measured(&mut core, &[1, 5]);
        read(&mut core, &mut net, 1, 2);
        assert_eq!(net.peer_reads(), [1, 0]);
        net.live[0] = false;
        core.on_peer_down(&mut net, 0);
        assert_eq!(net.peer_reads(), [1, 1]);
        answer(&mut core, &mut net, 1, 3);
        assert_eq!(net.finals().len(), 1);
        assert_eq!(net.unavailable(), 0);
    }

    #[test]
    fn losing_a_peer_that_was_not_asked_asks_no_one() {
        let (mut core, mut net) = setup(2);
        measured(&mut core, &[1, 5]);
        read(&mut core, &mut net, 1, 2);
        net.live[1] = false;
        core.on_peer_down(&mut net, 1);
        assert_eq!(net.peer_reads(), [1, 0]);
        assert_eq!(net.unavailable(), 0);
    }

    #[test]
    fn a_replaced_link_may_be_asked_again() {
        // One peer, R=2: the redialed link is the only one left to ask.
        let (mut core, mut net) = setup(1);
        read(&mut core, &mut net, 1, 2);
        core.on_peer_down(&mut net, 0);
        assert_eq!(net.peer_reads(), [2]);
        answer(&mut core, &mut net, 0, 3);
        assert_eq!(net.finals().len(), 1);
    }

    #[test]
    fn losing_the_last_askable_peer_fails_unavailable() {
        let (mut core, mut net) = setup(2);
        measured(&mut core, &[1, 5]);
        read(&mut core, &mut net, 1, 2);
        net.live[1] = false;
        core.on_peer_down(&mut net, 1);
        net.live[0] = false;
        core.on_peer_down(&mut net, 0);
        assert_eq!(net.peer_reads(), [1, 0]);
        assert_eq!(net.unavailable(), 1);
        assert!(core.reads.is_empty());
        // Nothing is left to time out or to hedge.
        core.fire_expired(&mut net, Instant::now() + OP_TIMEOUT * 2);
        assert_eq!(net.client_msgs().len(), 2, "preliminary + OpFailed only");
    }

    #[test]
    fn the_hedge_delay_is_a_sixteenth_of_the_op_timeout_capped() {
        assert_eq!(hedge_delay(Duration::from_millis(1600)), ms(100));
        assert_eq!(hedge_delay(OP_TIMEOUT), OP_TIMEOUT / 16);
        assert!(OP_TIMEOUT / 16 < HEDGE_CAP);
        assert_eq!(hedge_delay(Duration::from_secs(60)), HEDGE_CAP);
    }

    #[test]
    fn an_expired_hedge_asks_the_peers_not_yet_asked() {
        let (mut core, mut net) = setup(3);
        measured(&mut core, &[1, 1, 1]);
        read(&mut core, &mut net, 1, 2);
        assert_eq!(net.peer_reads(), [1, 0, 0]);
        // Before the hedge delay nothing happens.
        core.fire_expired(&mut net, Instant::now());
        assert_eq!(net.peer_reads(), [1, 0, 0]);
        let hedge_at = core.next_deadline().expect("a hedge is armed");
        assert!(hedge_at <= Instant::now() + hedge_delay(OP_TIMEOUT));
        net.live[2] = false;
        core.fire_expired(&mut net, hedge_at);
        assert_eq!(net.peer_reads(), [1, 1, 0], "live peers not asked yet");
        answer(&mut core, &mut net, 1, 3);
        assert_eq!(net.finals().len(), 1);
        // The silent peer's late answer finds nothing to complete.
        answer(&mut core, &mut net, 0, 9);
        assert_eq!(net.finals().len(), 1);
        assert_eq!(net.unavailable(), 0);
    }

    #[test]
    fn a_hedge_stops_the_silent_peer_from_being_asked_first() {
        let (mut core, mut net) = setup(2);
        measured(&mut core, &[1, 2]);
        read(&mut core, &mut net, 1, 2);
        assert_eq!(net.peer_reads(), [1, 0]);
        let hedge_at = core.next_deadline().expect("a hedge is armed");
        core.fire_expired(&mut net, hedge_at);
        assert_eq!(net.peer_reads(), [1, 1]);
        // The wait counted as an answer time of the silent peer 0.
        let est = core.rtt[0].est.expect("peer 0 measured");
        assert!(est > ms(2), "{est:?}");
        answer(&mut core, &mut net, 1, 3);
        read(&mut core, &mut net, 2, 2);
        assert_eq!(net.peer_reads(), [1, 2]);
    }

    #[test]
    fn a_read_that_asked_every_peer_arms_no_hedge() {
        let (mut core, mut net) = setup(2);
        read(&mut core, &mut net, 1, 3);
        let next = core.next_deadline().expect("the op deadline is armed");
        assert!(next > Instant::now() + OP_TIMEOUT / 2);
        // Nor does an R=2 read whose probe asked the other peer.
        let (mut core, mut net) = setup(2);
        read(&mut core, &mut net, 1, 2);
        assert_eq!(net.peer_reads(), [1, 1]);
        let next = core.next_deadline().expect("the op deadline is armed");
        assert!(next > Instant::now() + OP_TIMEOUT / 2);
    }

    #[test]
    fn a_duplicate_answer_does_not_complete_an_r3_read() {
        let (mut core, mut net) = setup(2);
        read(&mut core, &mut net, 1, 3);
        answer(&mut core, &mut net, 0, 4);
        answer(&mut core, &mut net, 0, 4);
        assert!(net.finals().is_empty());
        // Nor does an answer arriving on a connection that is no peer
        // link.
        answer_via(&mut core, &mut net, 1, CLIENT, 4);
        assert!(net.finals().is_empty());
        answer(&mut core, &mut net, 1, 5);
        assert_eq!(net.finals().len(), 1);
    }

    #[test]
    fn a_w1_write_still_propagates_to_every_peer() {
        let (mut core, mut net) = setup(2);
        let op = OpId {
            client: NodeId(1000),
            seq: 1,
        };
        core.on_msg(
            &mut net,
            CLIENT,
            Msg::ClientWrite {
                op,
                key: Key::plain(1),
                value: Value::Opaque(8),
                w: 1,
            },
        );
        for sent in &net.to_peer {
            assert!(matches!(
                sent.as_slice(),
                [NetMsg::Store(Msg::PeerWrite { ack_op: None, .. })]
            ));
        }
        assert!(net.client_msgs().contains(&Msg::WriteReply { op }));
    }
}
