//! End-to-end tests of the TCP deployment layer: a real replica set on
//! loopback sockets, an unmodified Correctables client, and the
//! consistency oracle attached through [`RecordingBinding`].
//!
//! These are the only tests in the workspace that cross real sockets;
//! everything they assert about *consistency* is checked by the same
//! oracle checkers the simulated stacks use, so the guarantees carry
//! over from simulation to deployment unchanged. CI runs this file in
//! the `net-smoke` step.

use std::sync::Arc;
use std::time::{Duration, Instant};

use icg::correctables::{Client, ConsistencyLevel, History, Invocation, RecordingBinding, State};
use icg::net::{spawn_local_cluster, ReplicaHandle, ServerConfig, TcpBinding, TcpConfig};
use icg::oracle::{check_convergence, check_monotonicity};
use icg::quorumstore::{Key, StoreOp, Value, Versioned};

/// Client ids: replicas use their own ids (0..n) for peer traffic, so
/// clients start well past them.
const CLIENT_BASE: u64 = 1000;

/// Snapshots `history` once every invocation has a closing event.
///
/// `Correctable::wait_final` wakes the moment the state machine closes,
/// but the recording observer appends the closing view *after* the
/// transition (see the `DeliveryObserver` ordering contract) — so a
/// snapshot taken immediately after the last wait can be one event
/// short. Settling here keeps the oracle checks race-free.
fn settled_snapshot(
    history: &History<StoreOp, Versioned>,
    at_least: usize,
) -> Vec<Invocation<StoreOp, Versioned>> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let snap = history.snapshot();
        if snap.len() >= at_least && snap.iter().all(|i| i.closing_event().is_some()) {
            return snap;
        }
        assert!(
            Instant::now() < deadline,
            "history never settled: {} invocations, {} open",
            snap.len(),
            snap.iter().filter(|i| i.closing_event().is_none()).count()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Boots `n` replicas and waits until every one has a live link to
/// each peer: load sent earlier could reach a coordinator that cannot
/// gather a quorum yet and fail `Unavailable`.
fn cluster(n: usize, op_timeout: Duration) -> Vec<ReplicaHandle> {
    let replicas = spawn_local_cluster(n, |id| ServerConfig {
        id,
        op_timeout,
        ..ServerConfig::default()
    });
    for (id, r) in replicas.iter().enumerate() {
        assert!(
            r.wait_peer_links(n - 1, Duration::from_secs(10)),
            "replica {id} has {} of {} peer links after 10 s",
            r.live_peer_links(),
            n - 1
        );
    }
    replicas
}

fn config(replicas: &[ReplicaHandle], client_id: u64) -> TcpConfig {
    TcpConfig::new(replicas.iter().map(|r| r.addr()).collect(), client_id)
}

/// Writes `keys` through `client` and waits for every acknowledgment.
fn preload(
    client: &Client<impl icg::correctables::Binding<Op = StoreOp, Val = Versioned>>,
    keys: u64,
) {
    for k in 0..keys {
        let w = client.invoke_strong(StoreOp::Write(Key::plain(k), Value::Opaque(64)));
        w.wait_final(Duration::from_secs(5)).expect("preload write");
    }
    // W = 1 acks before propagation; give the background peer writes a
    // moment to land so preliminary views start converged.
    std::thread::sleep(Duration::from_millis(150));
}

#[test]
fn preliminary_then_final_over_loopback() {
    let replicas = cluster(3, Duration::from_secs(2));
    let binding = TcpBinding::connect(config(&replicas, CLIENT_BASE)).expect("connect");
    let client = Client::new(binding.clone());
    preload(&client, 8);

    for k in 0..8 {
        let c = client.invoke(StoreOp::Read(Key::plain(k)));
        let fin = c.wait_final(Duration::from_secs(5)).expect("final view");
        assert_eq!(fin.level, ConsistencyLevel::STRONG);
        assert_eq!(fin.value.value, Value::Opaque(64));
        // The preliminary flush arrived first, at Weak, with the same
        // converged record.
        let prelims = c.preliminary_views();
        assert_eq!(prelims.len(), 1, "one preliminary per ICG read");
        assert_eq!(prelims[0].level, ConsistencyLevel::WEAK);
        assert_eq!(prelims[0].value.value, Value::Opaque(64));
    }

    // Weak-only and strong-only invocations close with a single view.
    let weak = client.invoke_weak(StoreOp::Read(Key::plain(1)));
    let v = weak.wait_final(Duration::from_secs(5)).expect("weak read");
    assert_eq!(v.level, ConsistencyLevel::WEAK);
    assert!(weak.preliminary_views().is_empty());

    let strong = client.invoke_strong(StoreOp::Read(Key::plain(1)));
    let v = strong
        .wait_final(Duration::from_secs(5))
        .expect("strong read");
    assert_eq!(v.level, ConsistencyLevel::STRONG);

    binding.shutdown();
    for r in &replicas {
        r.shutdown();
    }
}

#[test]
fn confirmation_mode_promotes_the_preliminary() {
    let replicas = cluster(3, Duration::from_secs(2));
    let mut cfg = config(&replicas, CLIENT_BASE + 1);
    cfg.confirm = true;
    let binding = TcpBinding::connect(cfg).expect("connect");
    let client = Client::new(binding.clone());
    preload(&client, 4);

    // Quiescent store: every final equals its preliminary, so the final
    // view travels as a confirmation — the value must still be real.
    for k in 0..4 {
        let c = client.invoke(StoreOp::Read(Key::plain(k)));
        let fin = c.wait_final(Duration::from_secs(5)).expect("final view");
        assert_eq!(fin.level, ConsistencyLevel::STRONG);
        assert_eq!(fin.value.value, Value::Opaque(64));
    }

    binding.shutdown();
    for r in &replicas {
        r.shutdown();
    }
}

#[test]
fn write_then_strong_read_sees_value_across_processes_boundary() {
    let replicas = cluster(3, Duration::from_secs(2));
    // Two independent clients — the second must observe the first's
    // write through the quorum.
    let writer = Client::new(TcpBinding::connect(config(&replicas, CLIENT_BASE + 2)).unwrap());
    let reader = Client::new(TcpBinding::connect(config(&replicas, CLIENT_BASE + 3)).unwrap());

    writer
        .invoke_strong(StoreOp::Write(Key::plain(9), Value::Opaque(777)))
        .wait_final(Duration::from_secs(5))
        .expect("write");
    let v = reader
        .invoke_strong(StoreOp::Read(Key::plain(9)))
        .wait_final(Duration::from_secs(5))
        .expect("read");
    assert_eq!(v.value.value, Value::Opaque(777));

    for r in &replicas {
        r.shutdown();
    }
}

/// The acceptance-criteria test: a real-socket run with one replica
/// killed mid-workload. The client binding fails over to a surviving
/// coordinator, the workload keeps completing, and the recorded history
/// passes the oracle's monotonicity check everywhere plus convergence
/// over the quiescent tail.
#[test]
fn killed_replica_failover_keeps_oracle_guarantees() {
    const KEYS: u64 = 16;

    let replicas = cluster(3, Duration::from_millis(800));
    let mut cfg = config(&replicas, CLIENT_BASE + 4);
    // Short client deadline: ops whose replies died with the coordinator
    // must fail fast instead of wedging the run.
    cfg.op_timeout = Duration::from_millis(800);
    let history: History<StoreOp, Versioned> = History::new();
    let tcp = TcpBinding::connect(cfg).expect("connect");
    let binding = RecordingBinding::new(tcp.clone(), history.clone());
    let client = Client::new(binding);
    preload(&client, KEYS);

    // Mixed workload: interleaved writes and ICG reads, closed loop.
    // Kill the coordinator partway through.
    let mut completed_after_kill = 0u32;
    let mut killed = false;
    let coordinator_before = tcp.coordinator();
    let deadline = Instant::now() + Duration::from_secs(30);
    for round in 0..120u64 {
        assert!(Instant::now() < deadline, "workload wedged");
        if round == 40 {
            // Crash the replica the client is currently coordinated by —
            // the strongest failover case.
            let coord = tcp.coordinator();
            let victim = replicas
                .iter()
                .find(|r| r.addr() == coord)
                .expect("coordinator is one of ours");
            victim.shutdown();
            killed = true;
        }
        let k = Key::plain(round % KEYS);
        let c = if round % 3 == 0 {
            client.invoke_strong(StoreOp::Write(k, Value::Opaque(100 + round as u32)))
        } else {
            client.invoke(StoreOp::Read(k))
        };
        // Closed loop: wait for each op's outcome. Failures are expected
        // around the crash (lost replies, reconnect); what is *not*
        // allowed is a consistency violation, which the oracle checks
        // below.
        match c.wait_final(Duration::from_secs(5)) {
            Ok(_) if killed => completed_after_kill += 1,
            Ok(_) => {}
            Err(_) => assert!(killed, "op failed before any replica was killed"),
        }
    }
    assert!(
        completed_after_kill > 40,
        "only {completed_after_kill} ops completed after the kill — failover did not engage"
    );
    assert_ne!(
        tcp.coordinator(),
        coordinator_before,
        "client never moved off the killed coordinator"
    );

    // Quiesce, then issue a marked tail of ICG reads: with no writes in
    // flight, every preliminary must equal its final (convergence), and
    // the survivors must still run the full preliminary→final protocol.
    std::thread::sleep(Duration::from_millis(300));
    let mark = history.mark();
    for k in 0..KEYS {
        let c = client.invoke(StoreOp::Read(Key::plain(k)));
        let fin = c
            .wait_final(Duration::from_secs(5))
            .expect("quiescent read on the surviving quorum");
        assert_eq!(fin.level, ConsistencyLevel::STRONG);
        assert_eq!(c.state(), State::Final);
    }

    let snapshot = settled_snapshot(&history, 120);
    let mono = check_monotonicity(&snapshot, true);
    assert!(mono.is_empty(), "monotonicity violations: {mono:?}");
    let conv: Vec<_> = check_convergence(&snapshot, mark);
    assert!(conv.is_empty(), "convergence violations: {conv:?}");

    tcp.shutdown();
    for r in &replicas {
        r.shutdown();
    }
}

/// Multiple concurrent clients against one replica set: op-id spaces are
/// disjoint by client id, every op resolves, and each client's history
/// stays monotonic.
#[test]
fn concurrent_clients_do_not_cross_wires() {
    const CLIENTS: u64 = 4;
    const OPS: u64 = 40;

    let replicas = cluster(3, Duration::from_secs(2));
    let addrs: Vec<_> = replicas.iter().map(|r| r.addr()).collect();
    let replicas = Arc::new(replicas);

    let mut joins = Vec::new();
    for c in 0..CLIENTS {
        let addrs = addrs.clone();
        joins.push(std::thread::spawn(move || {
            let history: History<StoreOp, Versioned> = History::new();
            let tcp =
                TcpBinding::connect(TcpConfig::new(addrs, CLIENT_BASE + 10 + c)).expect("connect");
            let client = Client::new(RecordingBinding::new(tcp.clone(), history.clone()));
            for i in 0..OPS {
                let k = Key::plain((c * OPS + i) % 8);
                let done = if i % 2 == 0 {
                    client.invoke_strong(StoreOp::Write(k, Value::Opaque(c as u32 + 1)))
                } else {
                    client.invoke(StoreOp::Read(k))
                };
                done.wait_final(Duration::from_secs(5))
                    .expect("op resolves");
            }
            let snapshot = settled_snapshot(&history, OPS as usize);
            assert_eq!(snapshot.len() as u64, OPS);
            let mono = check_monotonicity(&snapshot, true);
            assert!(mono.is_empty(), "client {c}: {mono:?}");
            tcp.shutdown();
        }));
    }
    for j in joins {
        j.join().expect("client thread");
    }
    for r in replicas.iter() {
        r.shutdown();
    }
}
