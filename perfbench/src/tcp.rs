//! The TCP workload: load from one client process against three
//! `icg-replicad` processes, through the shipping `TcpBinding`.
//!
//! A measured window is cut into one-second slices. A monitor thread
//! reads every process's `/proc` counters, and the machine's stolen CPU
//! time, at each slice boundary. The end-to-end figures come from the
//! quieter slices, those in which the hypervisor took no more CPU from
//! this machine than in the median slice: throughput and per-operation
//! costs as the median over those slices, latency percentiles over all
//! their samples pooled. On a shared host, other tenants then move a
//! run's result less; the share of time stolen is recorded with every
//! result.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use correctables::Client;
use icg_net::TcpBinding;
use parking_lot::Mutex;
use simnet::Histogram;
use ycsb::{Distribution, Generator, Op, Workload};

use crate::cluster::{self, Cluster, KEYS};
use crate::layers;
use crate::ops::{self, Clock, OpRec, Outcome, Summary};
use crate::procfs::{self, Delta, Sample};
use crate::report::Report;
use crate::stats::{median_f64, quiet};
use crate::trace::{Invoke, Plain, TracedClient, Tracer};
use crate::wirecost;
use crate::Args;

/// One TCP workload.
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Read share of the YCSB mix.
    pub read_proportion: f64,
    /// *CC confirmation replies.
    pub confirm: bool,
}

/// YCSB-B, closed loop, confirm off.
pub const CLOSED_B: Spec = Spec {
    name: "tcp-closed-b",
    read_proportion: 0.95,
    confirm: false,
};

/// Issuer threads, each with its own binding.
const THREADS: usize = 2;
/// Replica sets started per run; `setup_s` is their median, and each
/// runs an equal share of the measured window.
const SETUPS: usize = 3;
/// Warm-up before the measured window: operations per issuer.
const WARMUP_OPS: u64 = 5_000;
/// Length of one slice of a measured window.
const SLICE_NS: u64 = 1_000_000_000;
/// Longest wait for one operation: past the binding's 2 s op timeout.
const WAIT: Duration = Duration::from_secs(3);
/// Client ids of the load bindings.
const LOAD_ID: u64 = (1 << 20) + 1;
/// Keys read through every coordinator after the load.
const CHECK_KEYS: usize = 200;
/// Operations a run schedules outside its measured windows: each set's
/// preload, one probe per coordinator and the warm-up. `failed_ratio`
/// divides by this fixed count, so it moves only when failures do.
const SCHEDULED_OPS: u64 =
    SETUPS as u64 * (KEYS + cluster::REPLICAS as u64 + WARMUP_OPS * THREADS as u64);

fn generator(spec: &Spec, seed: u64, slot: u32) -> Generator {
    let mut w = Workload::b(Distribution::ScrambledZipfian, KEYS);
    w.read_proportion = spec.read_proportion;
    w.generator(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(slot))
}

/// When an issuer stops.
#[derive(Clone, Copy)]
struct Stop {
    /// Time after which nothing more is issued (relative to the window
    /// start when passed to [`window`], on the run clock inside it).
    end_ns: u64,
    /// Operations after which an issuer stops.
    max_ops: u64,
}

/// A closed-loop issuer: one operation at a time, each waited for.
fn closed<I: Invoke>(
    inv: &I,
    gen: &mut Generator,
    slot: u32,
    clock: Clock,
    stop: Stop,
) -> Vec<OpRec> {
    let mut recs = Vec::with_capacity(1 << 16);
    let mut own: HashMap<u64, u32> = HashMap::new();
    let mut n = 0u32;
    while clock.ns() < stop.end_ns && (recs.len() as u64) < stop.max_ops {
        let mut rec = OpRec::default();
        match gen.next_op() {
            Op::Read(k) => {
                rec.is_read = true;
                rec.key = k;
                rec.ryw_tag = own.get(&k).copied();
            }
            Op::Update { key, .. } => {
                rec.key = key;
                rec.tag = cluster::tag(slot, n);
                n += 1;
            }
        }
        let (is_read, key, tag) = (rec.is_read, rec.key, rec.tag);
        let rec = Arc::new(Mutex::new(rec));
        let start = clock.ns();
        let c = if is_read {
            inv.read(key)
        } else {
            inv.write(key, tag)
        };
        ops::watch_prelims(&c, &rec, clock);
        let result = c.wait_final(WAIT);
        let at = clock.ns();
        let mut r = rec.lock().clone();
        r.op_id = inv.last_op();
        r.start_ns = start;
        match result {
            Ok(v) => {
                r.final_at = at;
                r.final_level = Some(v.level);
                r.fin = Some(ops::Seen::of(&v.value));
                r.outcome = Outcome::Ok;
                if !is_read {
                    own.insert(key, tag);
                }
            }
            Err(e) => r.outcome = Outcome::of(&e),
        }
        recs.push(r);
    }
    recs
}

/// What one window of load produced.
struct Window {
    recs: Vec<OpRec>,
    /// Run-clock start of the window.
    start_ns: u64,
    /// `/proc` counters of every replica and the client process at each slice
    /// boundary (empty for an unmonitored window).
    marks: Vec<Vec<Sample>>,
    /// The machine's stolen CPU ticks at each slice boundary.
    steal: Vec<u64>,
    /// Context switches of the exited issuer threads: (vcs, ivcs).
    issuer_switches: (u64, u64),
}

impl Window {
    fn slices(&self) -> usize {
        self.marks.len().saturating_sub(1)
    }
}

#[allow(clippy::too_many_arguments)]
fn window(
    spec: &Spec,
    bindings: &[TcpBinding],
    seed: u64,
    index: u32,
    clock: Clock,
    stop_after: Stop,
    monitor: Option<&[u32]>,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Window, String> {
    let start_ns = clock.ns();
    let stop = Stop {
        end_ns: start_ns.saturating_add(stop_after.end_ns),
        ..stop_after
    };
    let (results, marks) = std::thread::scope(|s| {
        // The monitor reads counters at every slice boundary of the window.
        let marks = monitor.map(|pids| {
            s.spawn(move || -> Result<(Vec<Vec<Sample>>, Vec<u64>), String> {
                let mut out = Vec::new();
                let mut steal = Vec::new();
                for k in 0..=stop_after.end_ns / SLICE_NS {
                    let at = start_ns + k * SLICE_NS;
                    let now = clock.ns();
                    if at > now {
                        std::thread::sleep(Duration::from_nanos(at - now));
                    }
                    out.push(snapshot(pids)?);
                    steal.push(procfs::stolen_ticks());
                }
                Ok((out, steal))
            })
        });
        let issuers: Vec<_> = bindings
            .iter()
            .enumerate()
            .map(|(t, binding)| {
                let binding = binding.clone();
                s.spawn(move || {
                    let sw0 = procfs::thread_switches();
                    let slot = 1 + index * THREADS as u32 + t as u32;
                    let g = &mut generator(spec, seed, slot);
                    let recs = match tracer {
                        None => closed(&Plain(Client::new(binding)), g, slot, clock, stop),
                        Some(tr) => closed(&TracedClient::new(binding, tr), g, slot, clock, stop),
                    };
                    let sw1 = procfs::thread_switches();
                    (
                        recs,
                        (sw1.0.saturating_sub(sw0.0), sw1.1.saturating_sub(sw0.1)),
                    )
                })
            })
            .collect();
        let results: Vec<_> = issuers
            .into_iter()
            .map(|h| h.join().expect("issuer thread panicked"))
            .collect();
        let marks = marks.map(|h| h.join().expect("monitor thread panicked"));
        (results, marks)
    });
    let (marks, steal) = marks.transpose()?.unwrap_or_default();
    let mut w = Window {
        recs: Vec::new(),
        start_ns,
        marks,
        steal,
        issuer_switches: (0, 0),
    };
    for (mut recs, (v, iv)) in results {
        w.recs.append(&mut recs);
        w.issuer_switches.0 += v;
        w.issuer_switches.1 += iv;
    }
    Ok(w)
}

/// Counters of every replica, then of the client process (this one).
fn snapshot(pids: &[u32]) -> Result<Vec<Sample>, String> {
    let mut out: Vec<Sample> = pids
        .iter()
        .map(|p| procfs::sample(&p.to_string()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("/proc: {e}"))?;
    out.push(procfs::sample("self").map_err(|e| format!("/proc: {e}"))?);
    Ok(out)
}

/// Per-process work between two readings.
#[derive(Clone, Copy, Default)]
struct ProcWork {
    coord: Delta,
    peers: Delta,
    client: Delta,
}

impl ProcWork {
    fn between(before: &[Sample], after: &[Sample]) -> ProcWork {
        let d: Vec<Delta> = before
            .iter()
            .zip(after)
            .map(|(b, a)| Delta::between(b, a))
            .collect();
        let mut peers = Delta::default();
        for p in &d[1..cluster::REPLICAS] {
            peers.add(p);
        }
        ProcWork {
            coord: d[0],
            peers,
            client: d[cluster::REPLICAS],
        }
    }

    /// The whole window; issuer threads exited before the last reading,
    /// so their own switch counts are added.
    fn of_window(w: &Window) -> ProcWork {
        let (Some(first), Some(last)) = (w.marks.first(), w.marks.last()) else {
            return ProcWork::default();
        };
        let mut p = ProcWork::between(first, last);
        p.client.vcs += w.issuer_switches.0;
        p.client.ivcs += w.issuer_switches.1;
        p
    }

    fn add(&mut self, other: &ProcWork) {
        self.coord.add(&other.coord);
        self.peers.add(&other.peers);
        self.client.add(&other.client);
    }

    fn total(&self) -> Delta {
        let mut t = self.coord;
        t.add(&self.peers);
        t.add(&self.client);
        t
    }
}

/// One slice's end-to-end figures.
struct SliceFigures {
    throughput: f64,
    /// Latencies of the operations started in the slice.
    lat: Summary,
    cpu_us_per_op: f64,
    bytes_per_op: f64,
}

/// Figures of every full slice of a monitored window. Latencies belong
/// to the slice the operation started in; throughput and
/// per-operation costs to the slice it completed in.
fn slice_figures(w: &Window) -> Vec<SliceFigures> {
    (0..w.slices())
        .map(|k| {
            let lo = w.start_ns + k as u64 * SLICE_NS;
            let hi = lo + SLICE_NS;
            let started: Vec<OpRec> = w
                .recs
                .iter()
                .filter(|r| (lo..hi).contains(&r.start_ns))
                .cloned()
                .collect();
            let done = w
                .recs
                .iter()
                .filter(|r| r.outcome == Outcome::Ok && (lo..hi).contains(&r.final_at))
                .count() as f64;
            let work = ProcWork::between(&w.marks[k], &w.marks[k + 1]).total();
            SliceFigures {
                throughput: done / (SLICE_NS as f64 / 1e9),
                lat: Summary::of(&started),
                cpu_us_per_op: work.cpu_us() / done.max(1.0),
                bytes_per_op: work.wchar as f64 / done.max(1.0),
            }
        })
        .collect()
}

/// Runs `tcp-closed-b` end to end and reports it.
///
/// The run starts [`SETUPS`] replica sets one after another; each is set
/// up (timed), warmed up, measured for its share of the window, checked
/// and stopped. Fresh processes each time put a run's figures over
/// several thread placements and memory layouts, not one. In a traced
/// run the measured half is followed by a traced window on the last set.
pub fn run(spec: &Spec, args: &Args, replicad: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let clock = Clock(Instant::now());
    let measured = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let part = Stop {
        end_ns: (measured / SETUPS as f64).ceil().max(1.0) as u64 * SLICE_NS,
        max_ops: u64::MAX,
    };
    let warm_stop = Stop {
        end_ns: u64::MAX,
        max_ops: WARMUP_OPS,
    };
    let tracer = Tracer::new();
    let mut setup_secs = Vec::new();
    let mut slices = Vec::new();
    let mut main_recs = Vec::new();
    let mut work = ProcWork::default();
    let mut replicas_kb = Vec::new();
    let mut coord_kb = 0;
    let mut client_kb = None;
    let mut traced = None;
    for set in 0..SETUPS {
        let (cluster, secs, ops) = Cluster::start(replicad)?;
        setup_secs.push(secs);
        report.attempted += ops.attempted;
        report.failed += ops.failed;
        if ops.failed > 0 {
            report.notes.push(format!(
                "set-up: {} of {} operations failed and were retried",
                ops.failed, ops.attempted
            ));
        }
        let bindings: Vec<TcpBinding> = (0..THREADS)
            .map(|t| cluster.connect(0, LOAD_ID + t as u64, spec.confirm))
            .collect::<Result<_, _>>()?;
        let pids = cluster.pids();
        let warm = window(spec, &bindings, args.seed, 0, clock, warm_stop, None, None)?;
        // The client process's memory before any measured window: the client
        // library after set-up and warm-up, without the per-operation
        // records the benchmark keeps for itself.
        if client_kb.is_none() {
            client_kb = Some(
                procfs::sample("self")
                    .map_err(|e| format!("/proc: {e}"))?
                    .hwm_kb,
            );
        }
        let main = window(
            spec,
            &bindings,
            args.seed,
            1,
            clock,
            part,
            Some(&pids),
            None,
        )?;
        let tw = if args.trace && set + 1 == SETUPS {
            let stop = Stop {
                end_ns: measured.ceil().max(1.0) as u64 * SLICE_NS,
                ..part
            };
            Some(window(
                spec,
                &bindings,
                args.seed,
                2,
                clock,
                stop,
                Some(&pids),
                Some(&tracer),
            )?)
        } else {
            None
        };
        for b in &bindings {
            b.shutdown();
        }
        let windows: Vec<&Window> = [&warm, &main].into_iter().chain(tw.as_ref()).collect();
        check(&mut report, &windows, &cluster)?;
        drop(cluster);
        for w in &windows {
            let s = Summary::of(&w.recs);
            report.attempted += s.attempted;
            report.failed += s.failed();
        }
        let w = ProcWork::of_window(&main);
        work.add(&w);
        replicas_kb.push((w.coord.hwm_kb + w.peers.hwm_kb) as f64);
        coord_kb = coord_kb.max(w.coord.hwm_kb);
        slices.extend(
            slice_figures(&main)
                .into_iter()
                .zip(main.steal.windows(2).map(|s| s[1] - s[0])),
        );
        main_recs.extend(main.recs);
        traced = tw;
    }

    // Summed over the sets, except peak memory: the largest coordinator.
    work.coord.hwm_kb = coord_kb;
    let s = Summary::of(&main_recs);
    let rss_kb = median_f64(&replicas_kb).unwrap_or(0.0) + client_kb.unwrap_or(0) as f64;
    end_to_end(&mut report, &s, &slices, &setup_secs, rss_kb);
    if let Some(tw) = &traced {
        per_layer(&mut report, spec, &s, slices.len(), &work, tw, &tracer)?;
        let path = args.out_dir.join(format!("{}.spans.jsonl", spec.name));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(report)
}

/// The correctness checks over every operation of every window, then
/// the cross-coordinator read of a sample of keys.
fn check(report: &mut Report, windows: &[&Window], cluster: &Cluster) -> Result<(), String> {
    let all: Vec<OpRec> = windows
        .iter()
        .flat_map(|w| w.recs.iter().cloned())
        .collect();
    for v in ops::check_view_order(&all) {
        report.violation(v);
    }
    let tags = ops::check_tags(&all, &cluster::preload_tag);
    report.notes.push(format!(
        "read-your-writes: {} reads checked, {} unverifiable (own write overlapped the write read)",
        tags.ryw_checked, tags.ryw_unverifiable
    ));
    for v in tags.violations {
        report.violation(v);
    }
    let mut keys: Vec<u64> = all.iter().filter(|r| !r.is_read).map(|r| r.key).collect();
    keys.sort_unstable();
    keys.dedup();
    let step = (keys.len() / CHECK_KEYS).max(1);
    let mut sample: Vec<u64> = keys.into_iter().step_by(step).take(CHECK_KEYS).collect();
    sample.extend(0..8);
    let disagree = cluster.coordinators_agree(&sample)?;
    report.attempted += (sample.len() * cluster::REPLICAS) as u64;
    report.notes.push(format!(
        "coordinators agree on {} of {} sampled keys",
        sample.len() - disagree,
        sample.len()
    ));
    if disagree > 0 {
        report.violation(format!(
            "{disagree} sampled keys read different versions through different coordinators"
        ));
    }
    Ok(())
}

fn end_to_end(
    report: &mut Report,
    s: &Summary,
    all: &[(SliceFigures, u64)],
    setup_secs: &[f64],
    rss_kb: f64,
) {
    let stolen: Vec<u64> = all.iter().map(|(_, st)| *st).collect();
    let kept = quiet(&stolen);
    let med = |f: fn(&SliceFigures) -> f64| {
        let v: Vec<f64> = kept.iter().map(|&k| f(&all[k].0)).collect();
        median_f64(&v).unwrap_or(0.0)
    };
    // Latency percentiles pool the quieter slices' samples, so even the
    // 5% writes put well over ten samples beyond their p99.
    let pool = |f: fn(&Summary) -> &Histogram| -> Histogram {
        let mut h = Histogram::new();
        for &k in &kept {
            h.merge(f(&all[k].0.lat));
        }
        h
    };
    let (mut prelim, mut fin, mut write) =
        (pool(|s| &s.prelim), pool(|s| &s.fin), pool(|s| &s.write));
    report.e2e("throughput_ops_s", med(|f| f.throughput), "ops/s");
    report.e2e("prelim_p50_ms", Summary::ms(&mut prelim, 50.0), "ms");
    report.e2e("prelim_p99_ms", Summary::ms(&mut prelim, 99.0), "ms");
    report.e2e("final_p50_ms", Summary::ms(&mut fin, 50.0), "ms");
    report.e2e("final_p99_ms", Summary::ms(&mut fin, 99.0), "ms");
    report.e2e("write_p50_ms", Summary::ms(&mut write, 50.0), "ms");
    report.e2e("write_p99_ms", Summary::ms(&mut write, 99.0), "ms");
    report.e2e(
        "failed_ratio",
        (report.failed + 1) as f64 / SCHEDULED_OPS as f64,
        "ratio",
    );
    report.e2e("setup_s", median_f64(setup_secs).unwrap_or(0.0), "s");
    report.e2e("cpu_us_per_op", med(|f| f.cpu_us_per_op), "us");
    report.e2e("bytes_per_op", med(|f| f.bytes_per_op), "B");
    report.e2e("peak_rss_mb", rss_kb / 1024.0, "MiB");
    report.notes.push(format!(
        "measured: {} slices, {} ops ({} reads, {} with final equal to preliminary; {} writes); \
         whole-window final p99 {:.3} ms; set-up seconds {setup_secs:.3?}",
        all.len(),
        s.completed,
        s.reads,
        s.equal,
        s.writes,
        Summary::ms(&mut s.fin.clone(), 99.0),
    ));
    let per_slice: Vec<String> = all
        .iter()
        .enumerate()
        .map(|(k, (f, stolen))| {
            let mark = if kept.contains(&k) { "*" } else { "" };
            let mut fin = f.lat.fin.clone();
            let (p50, p99) = (Summary::ms(&mut fin, 50.0), Summary::ms(&mut fin, 99.0));
            format!("{mark}{:.0}/{p50:.3}/{p99:.3}/{stolen}", f.throughput)
        })
        .collect();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let capacity = all.len().max(1) as f64 * procfs::USER_HZ as f64 * cpus as f64;
    report.notes.push(format!(
        "slices (ops/s, final p50 ms, final p99 ms, stolen ticks; * = quieter): {}; \
         hypervisor took {:.1}% of the machine's CPU time",
        per_slice.join(" "),
        100.0 * stolen.iter().sum::<u64>() as f64 / capacity,
    ));
}

/// The per-layer metrics of a traced TCP run: `/proc` counters from the
/// untraced window, spans from the traced one.
fn per_layer(
    report: &mut Report,
    spec: &Spec,
    s: &Summary,
    main_slices: usize,
    work: &ProcWork,
    tw: &Window,
    tracer: &Tracer,
) -> Result<(), String> {
    let done = s.completed.max(1) as f64;
    let ts = Summary::of(&tw.recs);
    let spans = layers::Spans::of(&tracer.spans(), &tw.recs);
    spans.report(report, ts.completed);
    let equal_ratio = s.equal as f64 / s.reads.max(1) as f64;
    report.layer("core.prelim_final_equal_ratio", equal_ratio, "ratio");
    let timeouts = (s.timeouts + ts.timeouts) as f64;
    report.layer("binding.failed.timeout", timeouts, "count");
    let unavailable = (s.unavailable + ts.unavailable) as f64;
    report.layer("binding.failed.unavailable", unavailable, "count");
    report.layer("binding.cpu_us_per_op", work.client.cpu_us() / done, "us");
    report.layer(
        "binding.syscw_per_op",
        work.client.syscw as f64 / done,
        "count",
    );
    report.layer("binding.vcs_per_op", work.client.vcs as f64 / done, "count");

    let costs = wirecost::measure(spec.confirm, 20_000, 5, Some(tracer))?;
    layers::report_wire(report, Some(&costs));
    let mut per_op = |name: &str, v: f64, unit| report.layer(name, v / done, unit);
    per_op("replica.coord.cpu_us_per_op", work.coord.cpu_us(), "us");
    per_op("replica.peer.cpu_us_per_op", work.peers.cpu_us(), "us");
    per_op(
        "replica.coord.syscw_per_op",
        work.coord.syscw as f64,
        "count",
    );
    per_op(
        "replica.peer.syscw_per_op",
        work.peers.syscw as f64,
        "count",
    );
    per_op("replica.coord.vcs_per_op", work.coord.vcs as f64, "count");
    per_op("replica.coord.ivcs_per_op", work.coord.ivcs as f64, "count");
    per_op("replica.coord.bytes_per_op", work.coord.wchar as f64, "B");
    per_op("replica.peer.bytes_per_op", work.peers.wchar as f64, "B");
    report.layer(
        "replica.coord.peak_rss_mb",
        work.coord.hwm_kb as f64 / 1024.0,
        "MiB",
    );
    report.layer("sim.settle_us_per_op", 0.0, "us");

    // Tracing overhead: the traced window against the untraced one.
    let thr = s.completed as f64 / main_slices.max(1) as f64;
    let traced_thr = ts.completed as f64 / tw.slices().max(1) as f64;
    let cpu = work.total().cpu_us() / done;
    let traced_cpu = ProcWork::of_window(tw).total().cpu_us() / ts.completed.max(1) as f64;
    report.layer(
        "trace.overhead_throughput_pct",
        100.0 * (1.0 - traced_thr / thr),
        "%",
    );
    report.layer(
        "trace.overhead_cpu_pct",
        100.0 * (traced_cpu / cpu - 1.0),
        "%",
    );

    // The layer budget.
    let total = work.total();
    let confirmed = if spec.confirm { s.equal as f64 } else { 0.0 };
    let frames = wirecost::frames_per_op(s.reads as f64, s.writes as f64, confirmed);
    let wire_us = wirecost::per_op_us(&costs, &frames);
    let kernel_us = total.sys_us / done;
    let user_us = total.user_us / done;
    report.layer("budget.cpu_wire_us_per_op", wire_us, "us");
    report.layer("budget.cpu_kernel_us_per_op", kernel_us, "us");
    report.layer("budget.cpu_user_other_us_per_op", user_us - wire_us, "us");
    spans.budget(
        report,
        "waking the client thread parked in wait_final after the binding accepts the view",
    );
    report.notes.push(format!(
        "cpu per op {:.2} us = client {:.2} + coordinator {:.2} + peers {:.2}; \
         wire codec (isolated) {wire_us:.3} us = {:.2}%; kernel (syscalls, wakeups) {kernel_us:.2} us; \
         user outside the codec {:.2} us",
        total.cpu_us() / done,
        work.client.cpu_us() / done,
        work.coord.cpu_us() / done,
        work.peers.cpu_us() / done,
        100.0 * wire_us / (total.cpu_us() / done),
        user_us - wire_us,
    ));
    Ok(())
}
