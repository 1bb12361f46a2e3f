//! Zero-delay startup: load that arrives the instant a replica set is
//! up must never stall.
//!
//! A replica dials its peers as it starts. A quorum read that reaches a
//! coordinator before enough of those links are live can never gather
//! its quorum; it must fail `Unavailable` at once instead of parking
//! until a deadline. Each round boots a fresh 3-replica cluster and
//! immediately runs closed-loop strong reads from 8 clients spread over
//! all three coordinators. Every operation must end in a strong view
//! or `Unavailable` — never `Timeout`.

use std::net::SocketAddr;
use std::thread;
use std::time::Duration;

use correctables::{Client, ConsistencyLevel, Error};
use icg_net::{spawn_local_cluster, ServerConfig, TcpBinding, TcpConfig};
use quorumstore::{Key, StoreOp};

const BOOTS: u64 = 20;
const CLIENTS: u64 = 8;
const READS: u64 = 10;

#[test]
fn strong_reads_at_boot_end_in_a_view_or_unavailable_never_timeout() {
    let mut unavailable = 0;
    for boot in 0..BOOTS {
        let replicas = spawn_local_cluster(3, |id| ServerConfig {
            id,
            ..ServerConfig::default()
        });
        let addrs: Vec<SocketAddr> = replicas.iter().map(|r| r.addr()).collect();
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mut prefer = addrs.clone();
                prefer.rotate_left((c % 3) as usize);
                let cfg = TcpConfig::new(prefer, 1000 + boot * CLIENTS + c);
                thread::spawn(move || {
                    let binding = TcpBinding::connect(cfg).expect("connect");
                    let client = Client::new(binding.clone());
                    let outcomes: Vec<_> = (0..READS)
                        .map(|k| {
                            client
                                .invoke_strong(StoreOp::Read(Key::plain(k)))
                                .wait_final(Duration::from_secs(10))
                        })
                        .collect();
                    binding.shutdown();
                    outcomes
                })
            })
            .collect();
        for (c, handle) in clients.into_iter().enumerate() {
            for (k, outcome) in handle
                .join()
                .expect("client thread")
                .into_iter()
                .enumerate()
            {
                match outcome {
                    Ok(view) => assert_eq!(view.level, ConsistencyLevel::STRONG),
                    Err(Error::Unavailable(_)) => unavailable += 1,
                    Err(e) => panic!("boot {boot}, client {c}, read {k}: {e:?}"),
                }
            }
        }
        for r in &replicas {
            r.shutdown();
        }
    }
    eprintln!(
        "{unavailable} of {} reads failed Unavailable",
        BOOTS * CLIENTS * READS
    );
}
