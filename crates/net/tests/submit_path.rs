//! The submit path of `TcpBinding`: the caller's thread registers an
//! operation and writes its request frame; the binding's event loop
//! reads replies, fires deadlines and flushes what the socket pushed
//! back. These tests pin the rules that split rests on: upcalls run
//! after the binding lock is released, queued frames leave in submit
//! order, and the write buffer is bounded.

mod common;

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use common::recv_msg;
use correctables::{Client, Error, State};
use icg_net::frame::encode_frame;
use icg_net::reactor::DEFAULT_WRITE_CAP;
use icg_net::{
    spawn_local_cluster, ClientReactor, ReplicaHandle, ServerConfig, TcpBinding, TcpConfig,
};
use quorumstore::types::ReadKind;
use quorumstore::{Key, Msg, Phase, StoreOp, Value, Version, Versioned};

/// A 3-replica cluster with its peer mesh up.
fn cluster() -> Vec<ReplicaHandle> {
    let replicas = spawn_local_cluster(3, |id| ServerConfig {
        id,
        ..ServerConfig::default()
    });
    for r in &replicas {
        assert!(
            r.wait_peer_links(2, Duration::from_secs(10)),
            "peer mesh did not come up"
        );
    }
    replicas
}

fn shutdown(replicas: Vec<ReplicaHandle>) {
    for r in &replicas {
        r.shutdown();
    }
}

/// Binds a fake coordinator and hands each accepted stream to `serve`
/// on its own thread. The threads outlive the test.
fn fake_coordinator(serve: impl Fn(TcpStream) + Send + Clone + 'static) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake coordinator");
    let addr = listener.local_addr().expect("local addr");
    thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(stream) = conn else { continue };
            let serve = serve.clone();
            thread::spawn(move || serve(stream));
        }
    });
    addr
}

fn send(stream: &mut TcpStream, msg: &Msg) -> bool {
    let mut out = Vec::new();
    encode_frame(msg, &mut out);
    std::io::Write::write_all(stream, &out).is_ok()
}

fn record(value: u32) -> Versioned {
    Versioned {
        value: Value::Opaque(value),
        version: Version::ZERO,
    }
}

/// A preliminary-view callback and a final-view callback each submit on
/// the binding that is delivering to them. Both run on the binding's
/// loop thread; if an upcall ran under the binding lock, the nested
/// submission would deadlock on it.
#[test]
fn view_callbacks_may_submit_on_their_own_binding() {
    // The fake holds the ICG read's replies until the callbacks are
    // registered, so they run on the loop thread rather than being
    // replayed on this one. Every other request is answered at once.
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let go_rx = std::sync::Arc::new(std::sync::Mutex::new(go_rx));
    let addr = fake_coordinator(move |mut stream| {
        let mut buf = Vec::new();
        let mut reader = stream.try_clone().expect("clone");
        while let Some(msg) = recv_msg::<Msg>(&mut reader, &mut buf) {
            let ok = match msg {
                Msg::ClientRead {
                    op,
                    kind: ReadKind::Icg { .. },
                    ..
                } => {
                    let _ = go_rx.lock().expect("go").recv();
                    send(
                        &mut stream,
                        &Msg::ReadReply {
                            op,
                            phase: Phase::Preliminary,
                            data: record(1),
                        },
                    ) && send(
                        &mut stream,
                        &Msg::ReadReply {
                            op,
                            phase: Phase::Final,
                            data: record(2),
                        },
                    )
                }
                Msg::ClientRead { op, .. } => send(
                    &mut stream,
                    &Msg::ReadReply {
                        op,
                        phase: Phase::Single,
                        data: record(3),
                    },
                ),
                Msg::ClientWrite { op, .. } => send(&mut stream, &Msg::WriteReply { op }),
                _ => true,
            };
            if !ok {
                return;
            }
        }
    });

    let watchdog = Instant::now() + Duration::from_secs(5);
    let left = || watchdog.saturating_duration_since(Instant::now());
    let binding = TcpBinding::connect(TcpConfig::new(vec![addr], 9000)).expect("connect");
    let client = Client::new(binding.clone());
    let (tx, rx) = mpsc::channel();
    let read = client.invoke(StoreOp::Read(Key::plain(1)));
    {
        let (binding, tx) = (binding.clone(), tx.clone());
        read.on_update(move |_| {
            let nested = Client::new(binding.clone()).invoke_strong(StoreOp::Read(Key::plain(2)));
            let on = thread::current().name().map(str::to_owned);
            let _ = tx.send(("preliminary", on, nested));
        });
    }
    {
        let binding = binding.clone();
        read.on_final(move |_| {
            let nested = Client::new(binding.clone())
                .invoke_strong(StoreOp::Write(Key::plain(3), Value::Opaque(4)));
            let on = thread::current().name().map(str::to_owned);
            let _ = tx.send(("final", on, nested));
        });
    }
    go_tx.send(()).expect("release the replies");
    let view = read.wait_final(left()).expect("outer read closes");
    assert_eq!(view.value.value, Value::Opaque(2));
    for _ in 0..2 {
        let (which, on, nested) = rx.recv_timeout(left()).expect("callback submitted");
        assert!(
            on.as_deref()
                .is_some_and(|n| n.starts_with("icg-client-loop")),
            "{which} callback ran on {on:?}, not the binding's loop"
        );
        nested
            .wait_final(left())
            .unwrap_or_else(|e| panic!("op submitted from the {which} callback: {e:?}"));
    }
    binding.shutdown();
}

/// Ten thousand strong writes issued before any wait — a burst that
/// queues behind the first write in flight and leaves through the loop
/// in batches — all complete, and per key the last write wins.
#[test]
fn burst_of_ten_thousand_writes_completes_and_last_write_wins() {
    const WRITES: u32 = 10_000;
    const KEYS: u32 = 100;
    let replicas = cluster();
    let addrs = replicas.iter().map(|r| r.addr()).collect();
    let binding = TcpBinding::connect(TcpConfig::new(addrs, 9100)).expect("connect");
    let client = Client::new(binding.clone());
    let writes: Vec<_> = (0..WRITES)
        .map(|i| {
            client.invoke_strong(StoreOp::Write(
                Key::plain(u64::from(i % KEYS)),
                Value::Opaque(i),
            ))
        })
        .collect();
    for (i, w) in writes.iter().enumerate() {
        w.wait_final(Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("write {i} of the burst: {e:?}"));
    }
    for k in 0..KEYS {
        let view = client
            .invoke_strong(StoreOp::Read(Key::plain(u64::from(k))))
            .wait_final(Duration::from_secs(5))
            .expect("strong read");
        assert_eq!(
            view.value.value,
            Value::Opaque(WRITES - KEYS + k),
            "key {k} does not hold its last write"
        );
    }
    binding.shutdown();
    shutdown(replicas);
}

/// The frames of a burst reach the coordinator in submit order, whole:
/// the first one written by the caller, the rest flushed by the loop.
#[test]
fn burst_frames_reach_the_coordinator_in_submit_order() {
    const WRITES: u64 = 2_000;
    let (seen_tx, seen_rx) = mpsc::channel::<u64>();
    let addr = fake_coordinator(move |mut stream| {
        let mut buf = Vec::new();
        let mut reader = stream.try_clone().expect("clone");
        // An undecodable frame ends the loop, and the test with it.
        while let Some(Msg::ClientWrite { op, .. }) = recv_msg::<Msg>(&mut reader, &mut buf) {
            let _ = seen_tx.send(op.seq);
            if !send(&mut stream, &Msg::WriteReply { op }) {
                return;
            }
        }
    });
    let binding = TcpBinding::connect(TcpConfig::new(vec![addr], 9200)).expect("connect");
    let client = Client::new(binding.clone());
    let writes: Vec<_> = (0..WRITES)
        .map(|i| client.invoke_strong(StoreOp::Write(Key::plain(i), Value::Opaque(8))))
        .collect();
    for w in &writes {
        w.wait_final(Duration::from_secs(10)).expect("write");
    }
    let seen: Vec<u64> = seen_rx.try_iter().collect();
    assert_eq!(seen, (0..WRITES).collect::<Vec<_>>());
    binding.shutdown();
}

/// A frame queued behind an op in flight leaves without waiting for
/// that op's reply: here the read ahead of it is never answered, and
/// the write behind it must still complete long before the read's
/// deadline.
#[test]
fn queued_frame_does_not_wait_for_the_reply_ahead_of_it() {
    let addr = fake_coordinator(move |mut stream| {
        let mut buf = Vec::new();
        let mut reader = stream.try_clone().expect("clone");
        while let Some(msg) = recv_msg::<Msg>(&mut reader, &mut buf) {
            if let Msg::ClientWrite { op, .. } = msg {
                if !send(&mut stream, &Msg::WriteReply { op }) {
                    return;
                }
            }
        }
    });
    let mut cfg = TcpConfig::new(vec![addr], 9250);
    cfg.op_timeout = Duration::from_secs(10);
    let binding = TcpBinding::connect(cfg).expect("connect");
    let client = Client::new(binding.clone());
    // One round trip first, so the binding is connected and idle: the
    // read below is written by this thread and the write queues.
    client
        .invoke_strong(StoreOp::Write(Key::plain(0), Value::Opaque(8)))
        .wait_final(Duration::from_secs(2))
        .expect("warm-up write");
    // Let the loop finish that reply's readiness event (which also
    // reports the socket writable) and go back to sleep, so nothing but
    // the binding's own wake-up can flush the queued write.
    thread::sleep(Duration::from_millis(50));
    let read = client.invoke_strong(StoreOp::Read(Key::plain(1)));
    let write = client.invoke_strong(StoreOp::Write(Key::plain(2), Value::Opaque(8)));
    write
        .wait_final(Duration::from_secs(2))
        .expect("the write behind an unanswered read");
    assert_eq!(read.state(), State::Updating, "the read is still in flight");
    binding.shutdown();
}

/// Dropping a dedicated reactor stops its loops: an op pending at that
/// moment and one submitted afterwards both fail `Unavailable` at once
/// instead of waiting on a loop that will never read or tick again.
#[test]
fn dropped_reactor_fails_pending_and_later_ops() {
    let addr = fake_coordinator(|stream| {
        // Read and ignore: no reply ever comes.
        let mut reader = stream;
        let mut sink = [0u8; 4096];
        while matches!(reader.read(&mut sink), Ok(n) if n > 0) {}
    });
    let reactor = ClientReactor::new(1).expect("reactor");
    let mut cfg = TcpConfig::new(vec![addr], 9260);
    cfg.op_timeout = Duration::from_secs(60);
    let binding = TcpBinding::connect_on(cfg, &reactor).expect("connect");
    let client = Client::new(binding.clone());
    let pending = client.invoke_strong(StoreOp::Read(Key::plain(1)));
    drop(reactor);
    let later = client.invoke_strong(StoreOp::Read(Key::plain(2)));
    for (which, c) in [("pending", &pending), ("later", &later)] {
        match c.wait_final(Duration::from_secs(5)) {
            Err(Error::Unavailable(_)) => {}
            other => panic!("{which} op: want Unavailable, got {other:?}"),
        }
    }
}

/// The most payload bytes loopback TCP can hold between a writer and a
/// reader that never reads: the writer's send buffer plus the reader's
/// receive buffer, each at most its autotuning maximum.
fn socket_buffer_bound() -> usize {
    let max_of = |path: &str| -> Option<usize> {
        std::fs::read_to_string(path)
            .ok()?
            .split_whitespace()
            .last()?
            .parse()
            .ok()
    };
    match (
        max_of("/proc/sys/net/ipv4/tcp_wmem"),
        max_of("/proc/sys/net/ipv4/tcp_rmem"),
    ) {
        (Some(w), Some(r)) => w + r,
        _ => 64 << 20,
    }
}

/// A coordinator that accepts but never reads. Once the socket stops
/// taking bytes the binding queues them, and at [`DEFAULT_WRITE_CAP`]
/// queued bytes it closes the connection: every pending op fails
/// `Unavailable` rather than hanging, and the queue never grows past
/// the cap.
#[test]
fn coordinator_that_never_reads_is_dropped_at_the_write_cap() {
    let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
    let addr = fake_coordinator(move |stream| {
        let _ = conn_tx.send(stream);
    });
    let mut cfg = TcpConfig::new(vec![addr], 9300);
    // Far past the test: an op that ends here ended by the close.
    cfg.op_timeout = Duration::from_secs(60);
    let binding = TcpBinding::connect(cfg).expect("connect");
    let client = Client::new(binding.clone());
    let mut held = conn_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("binding connected");

    let value = Value::Ids(vec![7; 2048]); // 16 KiB a write
    let bound = DEFAULT_WRITE_CAP + socket_buffer_bound();
    let mut ops = Vec::new();
    let mut submitted = 0usize;
    loop {
        ops.push(client.invoke_strong(StoreOp::Write(Key::plain(1), value.clone())));
        submitted += 16 * 1024;
        // The first op is pending until the connection goes.
        if ops.first().is_some_and(|c| c.state() == State::Error) {
            break;
        }
        assert!(
            submitted <= bound + 64 * 1024,
            "{submitted} bytes submitted and the connection is still up"
        );
    }
    for (i, c) in ops.iter().enumerate() {
        match c.wait_final(Duration::from_secs(5)) {
            Err(Error::Unavailable(_)) => {}
            other => panic!("op {i} of {}: want Unavailable, got {other:?}", ops.len()),
        }
    }
    // The binding closed its end: what it wrote drains, then EOF.
    held.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut drained = 0usize;
    let mut chunk = vec![0u8; 1 << 16];
    loop {
        match held.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => drained += n,
            Err(e) => panic!("connection not closed after {drained} bytes: {e}"),
        }
    }
    assert!(drained <= submitted, "read {drained} of {submitted} bytes");
    binding.shutdown();
}
