//! Per-operation records and the checks and summaries built on them.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use correctables::{ConsistencyLevel, Correctable, Error};
use parking_lot::Mutex;
use quorumstore::{Value, Version, Versioned};
use simnet::{Histogram, SimDuration};

/// How an operation ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Outcome {
    /// Not resolved (yet).
    #[default]
    Pending,
    /// Closed with a final view.
    Ok,
    /// Failed with `Error::Timeout`.
    Timeout,
    /// Failed with `Error::Unavailable`.
    Unavailable,
    /// Failed with any other error.
    Other,
}

impl Outcome {
    /// The outcome a failed operation's error maps to.
    pub fn of(err: &Error) -> Outcome {
        match err {
            Error::Timeout => Outcome::Timeout,
            Error::Unavailable(_) => Outcome::Unavailable,
            _ => Outcome::Other,
        }
    }
}

/// What a view carried: the value's tag and the record's version.
///
/// Over TCP `Value::Opaque(n)` travels as its length field only, so the
/// benchmark writes a unique `n` per write and uses it as the write's
/// tag; in simnet `n` is the record size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seen {
    /// `n` of `Value::Opaque(n)`, `u32::MAX` for any other value.
    pub tag: u32,
    /// The record's last-writer-wins version.
    pub version: Version,
}

impl Seen {
    /// The tag and version of a view value.
    pub fn of(v: &Versioned) -> Seen {
        Seen {
            tag: match v.value {
                Value::Opaque(n) => n,
                _ => u32::MAX,
            },
            version: v.version,
        }
    }
}

/// Everything the client process learned about one operation. Times are
/// nanoseconds from the window start.
#[derive(Clone, Debug, Default)]
pub struct OpRec {
    /// An ICG read (otherwise a strong write).
    pub is_read: bool,
    /// The key.
    pub key: u64,
    /// For writes, the tag written.
    pub tag: u32,
    /// Op id of a traced run (0 when untraced).
    pub op_id: u64,
    /// When `Client::invoke*` was called; latency starts here.
    pub start_ns: u64,
    /// Preliminary views delivered.
    pub prelims: u32,
    /// When the (last) preliminary view arrived.
    pub prelim_at: u64,
    /// Its level.
    pub prelim_level: Option<ConsistencyLevel>,
    /// Its content.
    pub prelim: Option<Seen>,
    /// When the final view was seen by the caller.
    pub final_at: u64,
    /// The final view's level.
    pub final_level: Option<ConsistencyLevel>,
    /// Its content.
    pub fin: Option<Seen>,
    /// How the operation ended.
    pub outcome: Outcome,
    /// For reads: the tag of this client's own last write of the key, if
    /// that write had completed before the read was issued.
    pub ryw_tag: Option<u32>,
}

/// A window's clock, shared with callbacks.
#[derive(Clone, Copy)]
pub struct Clock(pub Instant);

impl Clock {
    /// Nanoseconds since the window start.
    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Records every preliminary view of `c` into `rec` as it arrives.
pub fn watch_prelims(c: &Correctable<Versioned>, rec: &Arc<Mutex<OpRec>>, clock: Clock) {
    let rec = Arc::clone(rec);
    c.on_update(move |v| {
        let at = clock.ns();
        let mut r = rec.lock();
        r.prelims += 1;
        r.prelim_at = at;
        r.prelim_level = Some(v.level);
        r.prelim = Some(Seen::of(&v.value));
    });
}

/// Latency and outcome summary of a set of operations.
#[derive(Debug, Default)]
pub struct Summary {
    /// Preliminary latencies of ICG reads.
    pub prelim: Histogram,
    /// Final latencies of ICG reads.
    pub fin: Histogram,
    /// Write latencies.
    pub write: Histogram,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that closed with a final view.
    pub completed: u64,
    /// Completed reads.
    pub reads: u64,
    /// Completed writes.
    pub writes: u64,
    /// `Timeout` failures.
    pub timeouts: u64,
    /// `Unavailable` failures.
    pub unavailable: u64,
    /// Other failures and unresolved operations.
    pub other: u64,
    /// Completed ICG reads whose final view equals the preliminary.
    pub equal: u64,
}

impl Summary {
    /// Summarises `recs`.
    pub fn of(recs: &[OpRec]) -> Summary {
        let mut s = Summary {
            attempted: recs.len() as u64,
            ..Summary::default()
        };
        let ns = SimDuration::from_nanos;
        for r in recs {
            match r.outcome {
                Outcome::Ok => {}
                Outcome::Timeout => {
                    s.timeouts += 1;
                    continue;
                }
                Outcome::Unavailable => {
                    s.unavailable += 1;
                    continue;
                }
                Outcome::Other | Outcome::Pending => {
                    s.other += 1;
                    continue;
                }
            }
            s.completed += 1;
            let lat = ns(r.final_at.saturating_sub(r.start_ns));
            if r.is_read {
                s.reads += 1;
                s.fin.record(lat);
                if r.prelims > 0 {
                    s.prelim.record(ns(r.prelim_at.saturating_sub(r.start_ns)));
                }
                if r.prelim.is_some() && r.prelim.map(|p| p.version) == r.fin.map(|f| f.version) {
                    s.equal += 1;
                }
            } else {
                s.writes += 1;
                s.write.record(lat);
            }
        }
        s
    }

    /// Failed or unresolved operations.
    pub fn failed(&self) -> u64 {
        self.timeouts + self.unavailable + self.other
    }

    /// A latency percentile in ms (0 without samples).
    pub fn ms(h: &mut Histogram, p: f64) -> f64 {
        h.percentile(p).as_millis_f64()
    }
}

/// Checks that every completed ICG read delivered exactly one weak view
/// and closed at strong, and every completed write closed at strong.
/// Returns one line per kind of violation found.
pub fn check_view_order(recs: &[OpRec]) -> Vec<String> {
    let mut bad_reads = 0u64;
    let mut bad_writes = 0u64;
    for r in recs.iter().filter(|r| r.outcome == Outcome::Ok) {
        let closed_strong = r.final_level == Some(ConsistencyLevel::STRONG);
        if r.is_read {
            let weak_first = r.prelims == 1
                && r.prelim_level == Some(ConsistencyLevel::WEAK)
                && r.prelim_at <= r.final_at;
            if !(weak_first && closed_strong) {
                bad_reads += 1;
            }
        } else if !closed_strong || r.prelims != 0 {
            bad_writes += 1;
        }
    }
    let mut out = Vec::new();
    if bad_reads > 0 {
        out.push(format!(
            "{bad_reads} ICG reads did not deliver weak then strong and close at strong"
        ));
    }
    if bad_writes > 0 {
        out.push(format!(
            "{bad_writes} strong writes did not close with one strong view"
        ));
    }
    out
}

/// Tallies of the tag checks.
#[derive(Debug, Default)]
pub struct TagCheck {
    /// Findings, one line each.
    pub violations: Vec<String>,
    /// Reads of a key after the reader's own completed write.
    pub ryw_checked: u64,
    /// Of those, reads that returned another client's write which
    /// overlapped the own write in time, when no view ever showed the
    /// own write's version: either order is allowed.
    pub ryw_unverifiable: u64,
}

/// Checks the tagged views of a TCP run against what was written.
///
/// - Every view shows a tag that was written, and one tag always comes
///   with one version (no fabricated or torn views).
/// - Read-your-writes: a client's read of a key it wrote returns that
///   write's version or a newer one. A read that returns the own tag
///   passes. Otherwise its version must exceed the own write's version,
///   known whenever any view showed the own tag; failing that, the write
///   it returned must not have completed before the own write was
///   issued (one coordinator orders writes by arrival), and must not be
///   the preload.
///
/// `preload` tells which tags the preload wrote; the others written
/// are those of the write records in `recs`.
pub fn check_tags(recs: &[OpRec], preload: &dyn Fn(u32) -> bool) -> TagCheck {
    let mut out = TagCheck::default();
    // Tag → (issued, completed) of every write, on the run clock.
    let times: HashMap<u32, (u64, u64)> = recs
        .iter()
        .filter(|r| !r.is_read)
        .map(|r| {
            (
                r.tag,
                (
                    r.start_ns,
                    if r.outcome == Outcome::Ok {
                        r.final_at
                    } else {
                        u64::MAX
                    },
                ),
            )
        })
        .collect();
    let written = |t: u32| preload(t) || times.contains_key(&t);
    let mut versions: HashMap<u32, Version> = HashMap::new();
    let (mut unknown, mut conflicts) = (0u64, 0u64);
    // Only reads show a stored version: a write's final view is the
    // binding's local copy of the written record, at version zero.
    let reads = recs.iter().filter(|r| r.is_read);
    for seen in reads.flat_map(|r| r.prelim.iter().chain(r.fin.iter())) {
        if !written(seen.tag) {
            unknown += 1;
            continue;
        }
        match versions.insert(seen.tag, seen.version) {
            Some(prev) if prev != seen.version => conflicts += 1,
            _ => {}
        }
    }
    let mut ryw_bad = 0u64;
    for r in recs
        .iter()
        .filter(|r| r.is_read && r.outcome == Outcome::Ok)
    {
        let (Some(own), Some(got)) = (r.ryw_tag, r.fin) else {
            continue;
        };
        out.ryw_checked += 1;
        if got.tag == own {
            continue;
        }
        let stale = match versions.get(&own) {
            Some(own_version) => got.version <= *own_version,
            None => {
                let own_issued = times.get(&own).map_or(0, |t| t.0);
                preload(got.tag) || times.get(&got.tag).is_some_and(|t| t.1 < own_issued)
            }
        };
        if stale {
            ryw_bad += 1;
        } else if !versions.contains_key(&own) {
            out.ryw_unverifiable += 1;
        }
    }
    if unknown > 0 {
        out.violations.push(format!(
            "{unknown} views showed a value that was never written"
        ));
    }
    if conflicts > 0 {
        out.violations.push(format!(
            "{conflicts} views showed a written value with a second version"
        ));
    }
    if ryw_bad > 0 {
        out.violations.push(format!(
            "{ryw_bad} reads after the client's own write returned an older version"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(ts: u64) -> Version {
        Version { ts, writer: 0 }
    }

    fn read(tag: u32, ts: u64, ryw: Option<u32>) -> OpRec {
        let seen = Seen {
            tag,
            version: v(ts),
        };
        OpRec {
            is_read: true,
            prelims: 1,
            prelim_at: 10,
            prelim_level: Some(ConsistencyLevel::WEAK),
            prelim: Some(seen),
            final_at: 20,
            final_level: Some(ConsistencyLevel::STRONG),
            fin: Some(seen),
            outcome: Outcome::Ok,
            ryw_tag: ryw,
            ..OpRec::default()
        }
    }

    #[test]
    fn summary_splits_latencies_and_failures() {
        let mut w = read(1, 1, None);
        w.is_read = false;
        w.prelims = 0;
        w.final_at = 50;
        let mut failed = read(1, 1, None);
        failed.outcome = Outcome::Timeout;
        let pending = OpRec::default();
        let s = Summary::of(&[read(1, 1, None), w, failed, pending]);
        assert_eq!((s.attempted, s.completed, s.failed()), (4, 2, 2));
        assert_eq!((s.timeouts, s.other), (1, 1));
        let only = |h: &Histogram| (h.count(), h.max().as_nanos());
        assert_eq!(
            (only(&s.prelim), only(&s.fin), only(&s.write)),
            ((1, 10), (1, 20), (1, 50))
        );
        assert_eq!(s.equal, 1);
    }

    #[test]
    fn view_order_flags_missing_weak_view() {
        let good = read(1, 1, None);
        let mut no_weak = read(1, 1, None);
        no_weak.prelims = 0;
        let mut weak_close = read(1, 1, None);
        weak_close.final_level = Some(ConsistencyLevel::WEAK);
        assert!(check_view_order(std::slice::from_ref(&good)).is_empty());
        assert_eq!(check_view_order(&[good, no_weak, weak_close]).len(), 1);
    }

    #[test]
    fn tags_detect_fabrication_and_stale_reads() {
        let preload = |t: u32| t < 100;
        // Preload tags 5 and 6 seen at versions 10 and 20.
        let base = [read(5, 10, None), read(6, 20, None)];
        assert!(check_tags(&base, &preload).violations.is_empty());
        // Own write tag 6 (version 20); the read returns tag 5 (older).
        let stale = [base[0].clone(), base[1].clone(), read(5, 10, Some(6))];
        assert_eq!(check_tags(&stale, &preload).violations.len(), 1);
        // Own write tag 5 (version 10); the read returns newer tag 6.
        let newer = [base[0].clone(), base[1].clone(), read(6, 20, Some(5))];
        let c = check_tags(&newer, &preload);
        assert!(c.violations.is_empty());
        assert_eq!(c.ryw_checked, 1);
        // A never-written tag and a second version for tag 5.
        let forged = [read(500, 1, None), read(5, 10, None), read(5, 11, None)];
        assert_eq!(check_tags(&forged, &preload).violations.len(), 2);
    }

    #[test]
    fn unseen_own_write_is_judged_by_real_time() {
        let preload = |t: u32| t < 100;
        let write = |tag: u32, issued: u64, done: u64| OpRec {
            tag,
            start_ns: issued,
            final_at: done,
            outcome: Outcome::Ok,
            ..OpRec::default()
        };
        // Own write 200 at [50, 60]; write 300 at [10, 20] finished before
        // it started, write 400 at [55, 70] overlapped it.
        let w = [write(200, 50, 60), write(300, 10, 20), write(400, 55, 70)];
        let before = [
            w[0].clone(),
            w[1].clone(),
            w[2].clone(),
            read(300, 7, Some(200)),
        ];
        assert_eq!(check_tags(&before, &preload).violations.len(), 1);
        let overlap = [
            w[0].clone(),
            w[1].clone(),
            w[2].clone(),
            read(400, 9, Some(200)),
        ];
        let c = check_tags(&overlap, &preload);
        assert!(c.violations.is_empty());
        assert_eq!(c.ryw_unverifiable, 1);
        // Returning the preload after an own write is always stale.
        let old = [w[0].clone(), read(7, 1, Some(200))];
        assert_eq!(check_tags(&old, &preload).violations.len(), 1);
    }
}
