//! End-to-end tests of the version-2 spec store: the full incremental
//! refinement *weak → update → causal → strong* on a single
//! Correctable, against a real 3-replica TCP cluster — plus the
//! level-directory handshake, custom-level round-tripping,
//! version-1/version-2 coexistence on one port, and the client's
//! handshake and connection-loss failure modes.

mod common;

use std::time::Duration;

use common::recv_msg;
use correctables::spec::{CtrOp, RegOp};
use correctables::{Client, ConsistencyLevel, Error};
use icg_net::{
    spawn_local_cluster, ReplicaHandle, ServerConfig, SpecOp, SpecTcpConfig, TcpBinding, TcpConfig,
    TcpSpecBinding,
};
use quorumstore::{Key, StoreOp, Value};

fn cluster() -> Vec<ReplicaHandle> {
    spawn_local_cluster(3, |id| ServerConfig {
        id,
        ..ServerConfig::default()
    })
}

fn connect(cluster: &[ReplicaHandle], client_id: u64) -> TcpSpecBinding {
    TcpSpecBinding::connect(SpecTcpConfig::new(cluster[0].addr(), client_id))
        .expect("connect spec binding")
}

/// Collects the level names of every view an invocation delivered, in
/// delivery order (preliminaries then the final).
fn level_trace(c: &correctables::Correctable<u64>) -> Vec<&'static str> {
    let fin = c
        .wait_final(Duration::from_secs(10))
        .expect("refinement closes");
    let mut names: Vec<&'static str> = c
        .preliminary_views()
        .iter()
        .map(|v| v.level.name())
        .collect();
    names.push(fin.level.name());
    names
}

/// The acceptance scenario: one invocation refines through all four
/// levels on Register *and* Counter.
#[test]
fn refinement_runs_weak_update_causal_strong_on_register_and_counter() {
    let replicas = cluster();
    let binding = connect(&replicas, 9000);
    let client = Client::new(binding.clone());

    // Register: a write refines through all four levels, every view
    // agreeing on the written value (no concurrent writers).
    let write = client.invoke(SpecOp::Reg(RegOp::Write(1, 42)));
    assert_eq!(
        level_trace(&write),
        ["weak", "update", "causal", "strong"],
        "register write must refine through all four levels"
    );
    for v in write.preliminary_views() {
        assert_eq!(v.value, 42, "register view diverged");
    }

    // A read through the same refinement sees the settled write.
    let read = client.invoke(SpecOp::Reg(RegOp::Read(1)));
    assert_eq!(level_trace(&read), ["weak", "update", "causal", "strong"]);
    let fin = read.final_view().expect("closed above");
    assert_eq!(fin.value, 42, "strong register read");

    // Counter: same refinement, arithmetic semantics.
    let add = client.invoke(SpecOp::Ctr(CtrOp::Add(5, 7)));
    assert_eq!(
        level_trace(&add),
        ["weak", "update", "causal", "strong"],
        "counter add must refine through all four levels"
    );
    let get = client.invoke(SpecOp::Ctr(CtrOp::Get(5)));
    assert_eq!(level_trace(&get), ["weak", "update", "causal", "strong"]);
    assert_eq!(get.final_view().expect("closed above").value, 7);

    binding.shutdown();
    for r in &replicas {
        r.shutdown();
    }
}

/// `invoke_at` collapses the refinement to a single level: a weak-only
/// submission closes at Weak without waiting for any coordination, an
/// update-only submission closes at Update without acks.
#[test]
fn single_level_submissions_close_at_that_level() {
    let replicas = cluster();
    let binding = connect(&replicas, 9100);
    let client = Client::new(binding.clone());

    let weak = client.invoke_at(SpecOp::Ctr(CtrOp::Add(1, 1)), ConsistencyLevel::WEAK);
    let v = weak
        .wait_final(Duration::from_secs(5))
        .expect("weak closes");
    assert_eq!(v.level, ConsistencyLevel::WEAK);
    assert!(weak.preliminary_views().is_empty());

    let update = client.invoke_at(SpecOp::Ctr(CtrOp::Add(1, 1)), ConsistencyLevel::UPDATE);
    let v = update
        .wait_final(Duration::from_secs(5))
        .expect("update closes");
    assert_eq!(v.level, ConsistencyLevel::UPDATE);
    assert_eq!(v.value, 2, "update view replays the agreed order");

    binding.shutdown();
    for r in &replicas {
        r.shutdown();
    }
}

/// Sequential counter increments through the strong level observe
/// strictly increasing values — each strong view is stable in the total
/// order before the next submission starts.
#[test]
fn sequential_strong_counter_increments_are_exact() {
    let replicas = cluster();
    let binding = connect(&replicas, 9200);
    let client = Client::new(binding.clone());
    for expect in 1..=5u64 {
        let add = client.invoke(SpecOp::Ctr(CtrOp::Add(3, 1)));
        let fin = add.wait_final(Duration::from_secs(10)).expect("closes");
        assert_eq!(fin.level, ConsistencyLevel::STRONG);
        assert_eq!(fin.value, expect, "strong add #{expect}");
    }
    binding.shutdown();
    for r in &replicas {
        r.shutdown();
    }
}

/// A custom fifth level registered before startup rides the handshake
/// directory to the client with zero changes anywhere in the stack: the
/// client learns it by name and rank, and a submission at it is refused
/// cleanly — by the client-side level arbitration (the binding does not
/// serve it), and by the server with `SpecFailed` when the request is
/// forced onto the wire anyway — never silently downgraded, never a
/// crash.
#[test]
fn custom_level_rides_the_handshake_directory() {
    use icg_net::frame::encode_frame;
    use icg_net::NetMsg;
    use std::io::Write;
    use std::net::TcpStream;

    let audit = ConsistencyLevel::register("audit-spec-net", 30).expect("register a fifth level");
    let replicas = cluster();
    let binding = connect(&replicas, 9300);
    assert!(
        binding.server_levels().contains(&audit),
        "handshake directory must carry the custom level"
    );
    // Through the stack: the Upcall arbitration refuses the level the
    // binding never offered.
    let client = Client::new(binding.clone());
    let c = client.invoke_at(SpecOp::Reg(RegOp::Read(1)), audit);
    match c.wait_final(Duration::from_secs(5)) {
        Err(Error::UnsupportedLevel(l)) => assert_eq!(l, audit),
        other => panic!("unserved level must fail UnsupportedLevel, got {other:?}"),
    }
    // On the wire: a raw submission at the custom level (and at a wire
    // id nobody registered) draws a clean SpecFailed, not a hang or a
    // torn connection.
    let mut stream = TcpStream::connect(replicas[0].addr()).expect("raw connect");
    let mut frame = Vec::new();
    let mut scratch = Vec::new();
    for bogus in [audit.wire_id(), 200] {
        encode_frame(
            &NetMsg::SpecSubmit {
                client: 9301,
                seq: bogus as u64,
                op: SpecOp::Reg(RegOp::Read(1)),
                wants: vec![bogus],
            },
            &mut frame,
        );
        stream.write_all(&frame).expect("raw submit");
        let reply = recv_msg::<NetMsg>(&mut stream, &mut scratch).expect("reply");
        assert_eq!(
            reply,
            NetMsg::SpecFailed {
                client: 9301,
                seq: bogus as u64
            }
        );
    }
    binding.shutdown();
    for r in &replicas {
        r.shutdown();
    }
}

/// Version-1 and version-2 clients coexist on the same listener: the
/// legacy store binding (bare `Msg` frames, version byte 1) and the
/// spec binding (version-2 envelope) run side by side against one
/// cluster, neither disturbing the other.
#[test]
fn v1_store_client_and_v2_spec_client_share_a_cluster() {
    let replicas = cluster();
    let addrs = replicas.iter().map(|r| r.addr()).collect();

    let store = TcpBinding::connect(TcpConfig::new(addrs, 9400)).expect("connect v1 store binding");
    let spec = connect(&replicas, 9500);

    let store_client = Client::new(store.clone());
    let spec_client = Client::new(spec.clone());

    let w = store_client.invoke_strong(StoreOp::Write(Key::plain(9), Value::Opaque(1)));
    w.wait_final(Duration::from_secs(5)).expect("v1 write");
    let s = spec_client.invoke(SpecOp::Reg(RegOp::Write(9, 2)));
    s.wait_final(Duration::from_secs(10)).expect("v2 write");
    let r = store_client.invoke_strong(StoreOp::Read(Key::plain(9)));
    let view = r.wait_final(Duration::from_secs(5)).expect("v1 read");
    assert_eq!(
        view.value.value,
        Value::Opaque(1),
        "the stores are distinct — the spec write must not leak"
    );

    store.shutdown();
    spec.shutdown();
    for rep in &replicas {
        rep.shutdown();
    }
}

/// A server whose first frame is anything but `HelloAck` fails the
/// handshake: `connect` returns `InvalidData` instead of starting a
/// binding on a peer that does not speak the version-2 protocol.
#[test]
fn connect_rejects_a_first_frame_that_is_not_hello_ack() {
    use icg_net::frame::encode_frame;
    use icg_net::NetMsg;
    use std::io::Write;
    use std::net::TcpListener;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut frame = Vec::new();
        encode_frame(
            &NetMsg::SpecFailed {
                client: 9600,
                seq: 0,
            },
            &mut frame,
        );
        stream.write_all(&frame).expect("write wrong first frame");
        // Hold the socket open so the client judges the frame, not EOF.
        std::thread::sleep(Duration::from_millis(500));
    });
    match TcpSpecBinding::connect(SpecTcpConfig::new(addr, 9600)) {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}"),
        Ok(_) => panic!("a non-HelloAck first frame must fail connect"),
    }
    server.join().expect("fake server");
}

/// A server that accepts the connection but never answers the `Hello`
/// fails `connect` within about `connect_timeout`, not never.
#[test]
fn connect_gives_up_on_a_silent_server_within_the_connect_timeout() {
    use std::net::TcpListener;
    use std::time::Instant;

    // The kernel completes the TCP handshake from the listen backlog;
    // nobody ever reads the Hello or writes a reply.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind silent server");
    let mut cfg = SpecTcpConfig::new(listener.local_addr().expect("local addr"), 9700);
    cfg.connect_timeout = Duration::from_millis(300);
    let start = Instant::now();
    assert!(
        TcpSpecBinding::connect(cfg).is_err(),
        "a silent server must fail connect"
    );
    let took = start.elapsed();
    assert!(
        took >= Duration::from_millis(250) && took < Duration::from_secs(2),
        "connect gave up after {took:?}, want about the 300 ms connect timeout"
    );
    drop(listener);
}

/// A replica shut down under an in-flight operation fails that
/// operation `Unavailable`, and the binding stays down: a later submit
/// fails `Unavailable` at once rather than waiting for its deadline.
#[test]
fn replica_shutdown_fails_in_flight_and_later_ops_unavailable() {
    let replicas = spawn_local_cluster(3, |id| ServerConfig {
        id,
        ..ServerConfig::default()
    });
    // With both peers gone, a strong view can never become stable, so
    // the operation is still in flight when its coordinator dies.
    replicas[1].shutdown();
    replicas[2].shutdown();
    let mut cfg = SpecTcpConfig::new(replicas[0].addr(), 9800);
    cfg.op_timeout = Duration::from_secs(30);
    let binding = TcpSpecBinding::connect(cfg).expect("connect spec binding");
    let client = Client::new(binding.clone());

    let op = client.invoke(SpecOp::Ctr(CtrOp::Add(8, 1)));
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while op.preliminary_views().len() < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "weak and update views never arrived"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    replicas[0].shutdown();
    match op.wait_final(Duration::from_secs(5)) {
        Err(Error::Unavailable(_)) => {}
        other => panic!("in-flight op must fail Unavailable, got {other:?}"),
    }
    let later = client.invoke(SpecOp::Ctr(CtrOp::Get(8)));
    match later.wait_final(Duration::from_secs(5)) {
        Err(Error::Unavailable(_)) => {}
        other => panic!("a submit after connection loss must fail Unavailable, got {other:?}"),
    }
    binding.shutdown();
}
