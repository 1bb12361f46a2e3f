//! `sim-ec2-a`: the YCSB-A mix in simnet virtual time.
//!
//! The paper's deployment (`SimStore::ec2`: replicas in FRK, IRL and
//! VRG, the client in IRL coordinated by FRK, R = 2, confirmations on,
//! 1 KiB records) driven through `Client` over `SimStore::binding()`,
//! 32 operations in flight per `settle()`.
//!
//! A run is a sequence of identical rounds: each builds [`BUILDS`] fresh
//! stores from the seed, timing them, and plays the same 65,536
//! operations on the last. Virtual-time outputs therefore come from the
//! first round and every later round must reproduce them exactly. Host
//! time is what varies. As in the TCP workload, host-time figures are
//! medians over the quieter rounds, those in which the hypervisor took
//! no more CPU time from the machine than in the median round.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use correctables::Correctable;
use quorumstore::{Key, OpTiming, ReplicaConfig, SimStore, Value, Versioned};
use ycsb::{Distribution, Op, Workload};

use crate::cluster::KEYS;
use crate::layers;
use crate::ops::{OpRec, Outcome, Seen, Summary};
use crate::procfs::{self, Delta};
use crate::report::Report;
use crate::stats::{histogram, median_f64, quiet};
use crate::trace::{Invoke, Plain, TracedClient, Tracer};
use crate::Args;

/// Operations in flight per `settle()`.
const IN_FLIGHT: usize = 32;
/// Operations per round.
const ROUND_OPS: usize = IN_FLIGHT * 2048;
/// Record size.
const RECORD: u32 = 1024;
/// Stores built per round for `setup_s`, whose figure for the round is
/// their mean. Single builds vary widely with the host (in one run the
/// fastest tenth took about 2.4 ms, the median about 4 ms).
const BUILDS: usize = 8;
/// Rounds of a traced run's traced half (spans of every operation stay
/// in memory, so this is bounded).
const TRACED_ROUNDS: usize = 2;

/// Builds and preloads a store; returns it with the seconds that took.
fn store(seed: u64) -> (SimStore, f64) {
    let t0 = Instant::now();
    let s = SimStore::ec2(ReplicaConfig::default(), 2, true, "IRL", 0, seed);
    s.preload((0..KEYS).map(|k| (Key::plain(k), Value::Opaque(RECORD))));
    (s, t0.elapsed().as_secs_f64())
}

/// Builds [`BUILDS`] stores and keeps the last; returns it with the
/// mean seconds of a build.
fn stores(seed: u64) -> (SimStore, f64) {
    // Each store is dropped before the next is built.
    let dropped: f64 = (1..BUILDS).map(|_| store(seed).1).sum();
    let (s, secs) = store(seed);
    (s, (dropped + secs) / BUILDS as f64)
}

/// Host-time figures of one round.
#[derive(Default)]
struct Host {
    /// Seconds of the operation loop.
    secs: f64,
    /// Nanoseconds this thread ran on a CPU during the operation loop.
    cpu_ns: u64,
    /// Mean seconds of a store build before it (untraced rounds only).
    build_secs: f64,
    /// CPU ticks the hypervisor took from the machine during the builds
    /// and the operation loop (untraced rounds only).
    stolen: u64,
}

/// What one round produced.
struct Round {
    host: Host,
    /// This process's counters over the operation loop.
    client: Delta,
    /// Host ns inside `settle()`.
    settle_ns: u64,
    /// One record per operation, in issue order (views and outcome only).
    recs: Vec<OpRec>,
    /// Virtual-time latencies, in completion order.
    timings: Vec<OpTiming>,
    /// Modeled bytes on the client link.
    link_bytes: u64,
    /// Fingerprint of every virtual-time output.
    digest: u64,
    /// Reads that returned a version older than the client's own
    /// completed write of the key.
    stale_reads: u64,
}

fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
}

fn round<I: Invoke>(s: &SimStore, inv: &I, seed: u64, tracer: Option<&Tracer>) -> Round {
    let mut w = Workload::a(Distribution::ScrambledZipfian, KEYS);
    w = w.with_sizes(RECORD as usize, RECORD as usize);
    let mut gen = w.generator(seed);
    let mut recs = Vec::with_capacity(ROUND_OPS);
    // Key → virtual time its last write was submitted (the write's
    // version is stamped later, at the coordinator).
    let mut written: HashMap<u64, u64> = HashMap::new();
    let mut stale_reads = 0;
    let mut settle_ns = 0;
    let before = procfs::sample("self").unwrap_or_default();
    let cpu0 = procfs::thread_cpu_ns();
    let t0 = Instant::now();
    for _ in 0..ROUND_OPS / IN_FLIGHT {
        let now_vt = (s.now_ms() * 1e6) as u64;
        let batch: Vec<(OpRec, Correctable<Versioned>)> = (0..IN_FLIGHT)
            .map(|_| {
                let mut r = OpRec::default();
                let c = match gen.next_op() {
                    Op::Read(k) => {
                        r.is_read = true;
                        r.key = k;
                        inv.read(k)
                    }
                    Op::Update { key, .. } => {
                        r.key = key;
                        inv.write(key, RECORD)
                    }
                };
                r.op_id = inv.last_op();
                (r, c)
            })
            .collect();
        let st = Instant::now();
        let span_start = tracer.map_or(0, Tracer::now);
        s.settle();
        settle_ns += st.elapsed().as_nanos() as u64;
        if let Some(t) = tracer {
            t.record(0, "sim.settle", span_start, t.now());
        }
        let mut batch_writes = Vec::new();
        for (mut r, c) in batch {
            let prelims = c.preliminary_views();
            r.prelims = prelims.len() as u32;
            r.prelim_level = prelims.last().map(|v| v.level);
            r.prelim = prelims.last().map(|v| Seen::of(&v.value));
            match (c.final_view(), c.error()) {
                (Some(v), _) => {
                    r.outcome = Outcome::Ok;
                    r.final_level = Some(v.level);
                    r.fin = Some(Seen::of(&v.value));
                    if r.is_read {
                        if written
                            .get(&r.key)
                            .is_some_and(|&at| v.value.version.ts < at)
                        {
                            stale_reads += 1;
                        }
                    } else {
                        batch_writes.push(r.key);
                    }
                }
                (None, Some(e)) => r.outcome = Outcome::of(&e),
                (None, None) => r.outcome = Outcome::Pending,
            }
            recs.push(r);
        }
        // Only later batches must see this batch's writes.
        for k in batch_writes {
            written.insert(k, now_vt);
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    let cpu_ns = procfs::thread_cpu_ns().saturating_sub(cpu0);
    let client = Delta::between(&before, &procfs::sample("self").unwrap_or_default());
    let timings = s.timings();
    let link_bytes = s.gateway_link_bytes();
    let mut digest = 0xCBF2_9CE4_8422_2325;
    for t in &timings {
        digest = fnv(digest, t.final_ms.to_bits());
        digest = fnv(digest, t.prelim_ms.map_or(0, f64::to_bits));
    }
    digest = fnv(digest, link_bytes);
    digest = fnv(digest, timings.len() as u64);
    Round {
        host: Host {
            secs,
            cpu_ns,
            ..Host::default()
        },
        client,
        settle_ns,
        recs,
        timings,
        link_bytes,
        digest,
        stale_reads,
    }
}

fn plain_round(seed: u64) -> Round {
    let stolen = procfs::stolen_ticks();
    let (s, build_secs) = stores(seed);
    let mut r = round(
        &s,
        &Plain(correctables::Client::new(s.binding())),
        seed,
        None,
    );
    r.host.build_secs = build_secs;
    r.host.stolen = procfs::stolen_ticks().saturating_sub(stolen);
    r
}

fn traced_round(seed: u64, tracer: &Arc<Tracer>) -> Round {
    let (s, _) = store(seed);
    round(
        &s,
        &TracedClient::new(s.binding(), tracer),
        seed,
        Some(tracer),
    )
}

/// Runs `sim-ec2-a` and reports it.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let measure_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let t0 = Instant::now();
    let mut first = plain_round(args.seed);
    let round_secs = t0.elapsed().as_secs_f64();
    let mut rounds = vec![(first.digest, first.recs.len(), first.stale_reads)];
    let mut client = first.client;
    let mut settle_ns = first.settle_ns;
    let mut hosts = vec![std::mem::take(&mut first.host)];
    // Later rounds keep only what the checks and figures need.
    while t0.elapsed().as_secs_f64() + round_secs < measure_secs {
        let r = plain_round(args.seed);
        rounds.push((r.digest, r.recs.len(), r.stale_reads));
        client.add(&r.client);
        settle_ns += r.settle_ns;
        hosts.push(r.host);
    }
    let hwm_kb = procfs::sample("self")
        .map_err(|e| format!("/proc: {e}"))?
        .hwm_kb;
    let total_ops = (ROUND_OPS * rounds.len()) as f64;

    let mut traced_rounds = Vec::new();
    let tracer = Tracer::new();
    for _ in 0..if args.trace { TRACED_ROUNDS } else { 0 } {
        traced_rounds.push(traced_round(args.seed, &tracer));
    }
    // Correctness: the first round's records, then exact repetition.
    let s = Summary::of(&first.recs);
    for v in crate::ops::check_view_order(&first.recs) {
        report.violation(v);
    }
    if first.stale_reads > 0 {
        report.violation(format!(
            "{} reads after the client's own write returned an older version",
            first.stale_reads
        ));
    }
    if s.attempted != ROUND_OPS as u64 || s.completed != ROUND_OPS as u64 || s.failed() != 0 {
        report.violation(format!(
            "round counts: {} attempted, {} completed, {} failed; expected {ROUND_OPS}, {ROUND_OPS}, 0",
            s.attempted,
            s.completed,
            s.failed()
        ));
    }
    let expect = (first.digest, ROUND_OPS, first.stale_reads);
    let traced = traced_rounds
        .iter()
        .map(|r| (r.digest, r.recs.len(), r.stale_reads));
    let differing = rounds
        .iter()
        .copied()
        .chain(traced)
        .filter(|r| *r != expect)
        .count();
    if differing > 0 {
        report.violation(format!(
            "{differing} rounds did not reproduce the first round's virtual-time outputs"
        ));
    }
    let all_rounds = rounds.len() + traced_rounds.len();
    let stolen: Vec<u64> = hosts.iter().map(|h| h.stolen).collect();
    let quiet_rounds = quiet(&stolen);
    let kept: Vec<&Host> = quiet_rounds.iter().map(|&k| &hosts[k]).collect();
    let med = |f: fn(&Host) -> f64| {
        let v: Vec<f64> = kept.iter().map(|h| f(h)).collect();
        median_f64(&v).unwrap_or(f64::NAN)
    };
    let median_secs = med(|h| h.secs);
    let cpu_per_op = med(|h| h.cpu_ns as f64) / 1e3 / ROUND_OPS as f64;
    let setup_median = med(|h| h.build_secs);
    let per_round: Vec<String> = hosts
        .iter()
        .enumerate()
        .map(|(k, h)| {
            let mark = if quiet_rounds.contains(&k) { "*" } else { "" };
            format!(
                "{mark}{:.3}/{:.3}/{}",
                h.secs,
                h.cpu_ns as f64 / 1e9,
                h.stolen
            )
        })
        .collect();
    report.notes.push(format!(
        "{all_rounds} rounds of {ROUND_OPS} ops, virtual-time digest {:016x}; \
         untraced rounds (host s, on-CPU s, stolen ticks; * = quieter): {}",
        first.digest,
        per_round.join(" "),
    ));
    report.notes.push(format!(
        "{} stores built; median over the quieter rounds of a round's mean build: {setup_median:.4} s",
        hosts.len() * BUILDS
    ));
    report.attempted = (ROUND_OPS * all_rounds) as u64;
    report.failed = s.failed() * all_rounds as u64;

    let mut s = s;
    let vt_ns = |ms: f64| (ms * 1e6) as u64;
    let t = &first.timings;
    s.prelim = histogram(t.iter().filter_map(|t| t.prelim_ms.map(vt_ns)));
    s.fin = histogram(t.iter().filter(|t| t.is_read).map(|t| vt_ns(t.final_ms)));
    s.write = histogram(t.iter().filter(|t| !t.is_read).map(|t| vt_ns(t.final_ms)));
    report.e2e("throughput_ops_s", ROUND_OPS as f64 / median_secs, "ops/s");
    report.e2e("prelim_p50_ms", Summary::ms(&mut s.prelim, 50.0), "ms");
    report.e2e("prelim_p99_ms", Summary::ms(&mut s.prelim, 99.0), "ms");
    report.e2e("final_p50_ms", Summary::ms(&mut s.fin, 50.0), "ms");
    report.e2e("final_p99_ms", Summary::ms(&mut s.fin, 99.0), "ms");
    report.e2e("write_p50_ms", Summary::ms(&mut s.write, 50.0), "ms");
    report.e2e("write_p99_ms", Summary::ms(&mut s.write, 99.0), "ms");
    report.e2e(
        "failed_ratio",
        (s.failed() + 1) as f64 / (ROUND_OPS + 1) as f64,
        "ratio",
    );
    report.e2e("setup_s", setup_median, "s");
    report.e2e("cpu_us_per_op", cpu_per_op, "us");
    report.e2e(
        "bytes_per_op",
        first.link_bytes as f64 / ROUND_OPS as f64,
        "B",
    );
    report.e2e("peak_rss_mb", hwm_kb as f64 / 1024.0, "MiB");

    if args.trace {
        let spans = tracer.spans();
        let recs: Vec<OpRec> = traced_rounds
            .iter()
            .flat_map(|r| r.recs.iter().cloned())
            .collect();
        let ts = Summary::of(&recs);
        let l = layers::Spans::of(&spans, &recs);
        l.report(&mut report, ts.completed);
        report.layer(
            "core.prelim_final_equal_ratio",
            s.equal as f64 / s.reads.max(1) as f64,
            "ratio",
        );
        report.layer("binding.failed.timeout", s.timeouts as f64, "count");
        report.layer("binding.failed.unavailable", s.unavailable as f64, "count");
        report.layer("binding.cpu_us_per_op", cpu_per_op, "us");
        report.layer(
            "binding.syscw_per_op",
            client.syscw as f64 / total_ops,
            "count",
        );
        report.layer("binding.vcs_per_op", client.vcs as f64 / total_ops, "count");
        layers::report_wire(&mut report, None);
        // No replica processes in simnet.
        for (name, unit) in [
            ("replica.coord.cpu_us_per_op", "us"),
            ("replica.peer.cpu_us_per_op", "us"),
            ("replica.coord.syscw_per_op", "count"),
            ("replica.peer.syscw_per_op", "count"),
            ("replica.coord.vcs_per_op", "count"),
            ("replica.coord.ivcs_per_op", "count"),
            ("replica.coord.bytes_per_op", "B"),
            ("replica.peer.bytes_per_op", "B"),
            ("replica.coord.peak_rss_mb", "MiB"),
        ] {
            report.layer(name, 0.0, unit);
        }
        report.layer(
            "sim.settle_us_per_op",
            settle_ns as f64 / 1e3 / total_ops,
            "us",
        );
        let traced_secs: f64 =
            traced_rounds.iter().map(|r| r.host.secs).sum::<f64>() / traced_rounds.len() as f64;
        let traced_cpu = traced_rounds.iter().map(|r| r.host.cpu_ns).sum::<u64>() as f64
            / 1e3
            / (ROUND_OPS * traced_rounds.len()) as f64;
        report.layer(
            "trace.overhead_throughput_pct",
            100.0 * (1.0 - median_secs / traced_secs),
            "%",
        );
        report.layer(
            "trace.overhead_cpu_pct",
            100.0 * (traced_cpu / cpu_per_op - 1.0),
            "%",
        );
        report.layer("budget.cpu_wire_us_per_op", 0.0, "us");
        report.layer(
            "budget.cpu_kernel_us_per_op",
            client.sys_us / total_ops,
            "us",
        );
        report.layer(
            "budget.cpu_user_other_us_per_op",
            client.user_us / total_ops,
            "us",
        );
        // In simnet every view arrives inside settle(): an operation's
        // host-time latency is its batch's, so there is no budget to split.
        for name in [
            "budget.final_p50_ms",
            "budget.invoke_p50_ms",
            "budget.final_wait_p50_ms",
            "budget.residue_p50_ms",
        ] {
            report.layer(name, 0.0, "ms");
        }
        let path = args.out_dir.join("sim-ec2-a.spans.jsonl");
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(report)
}
