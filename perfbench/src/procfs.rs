//! Black-box process counters read from `/proc`.
//!
//! The benchmark never asks a replica how busy it is; it reads the
//! kernel's accounting of each process before and after a measured
//! window:
//!
//! - `/proc/<pid>/stat` — user and system CPU time of the whole thread
//!   group, dead threads included, in clock ticks;
//! - `/proc/<pid>/io` — bytes and syscalls of the write family
//!   (`wchar`, `syscw`). Socket sends through `write`/`writev` count;
//!   `recv`-family reads do not show in `rchar`, so byte metrics count
//!   bytes *sent*;
//! - `/proc/<pid>/status` — `VmHWM`, the peak resident set;
//! - `/proc/<pid>/task/*/status` — voluntary and involuntary context
//!   switches per thread, summed (the process-level file reports only
//!   the main thread);
//! - `/proc/thread-self/schedstat` — nanoseconds the calling thread has
//!   run on a CPU, which leaves out time the hypervisor stole;
//! - `/proc/net/tcp` — established loopback connections, used to see
//!   that the replicas' peer links are up.

use std::fs;
use std::io;

/// Clock ticks per second of `/proc/<pid>/stat` times. Linux fixes
/// `USER_HZ` at 100 on every architecture this benchmark targets.
pub const USER_HZ: u64 = 100;

/// User and system CPU ticks from the text of `/proc/<pid>/stat`.
///
/// Fields are counted after the last `)`, because the command name in
/// parentheses may itself contain spaces and parentheses.
pub fn parse_stat(text: &str) -> Option<(u64, u64)> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3 of the full line, utime 14 and
    // stime 15, so they sit at offsets 11 and 12 here.
    let utime = fields.get(11)?.parse().ok()?;
    let stime = fields.get(12)?.parse().ok()?;
    Some((utime, stime))
}

/// The value of a `Name:   123 ...` line in `status`/`io` style text.
pub fn field(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        if k.trim() != name {
            return None;
        }
        v.split_whitespace().next()?.parse().ok()
    })
}

/// Counts established TCP connections in `/proc/net/tcp` text whose
/// remote port is one of `ports` and whose local port is not — that is,
/// connections *dialed to* a listener on one of `ports` from elsewhere.
pub fn dialed_links(tcp_text: &str, ports: &[u16]) -> usize {
    let port_of =
        |addr: &str| -> Option<u16> { u16::from_str_radix(addr.rsplit_once(':')?.1, 16).ok() };
    tcp_text
        .lines()
        .skip(1)
        .filter(|line| {
            let cols: Vec<&str> = line.split_whitespace().collect();
            let (Some(local), Some(remote), Some(state)) = (cols.get(1), cols.get(2), cols.get(3))
            else {
                return false;
            };
            // State 01 is TCP_ESTABLISHED.
            *state == "01"
                && port_of(remote).is_some_and(|p| ports.contains(&p))
                && port_of(local).is_some_and(|p| !ports.contains(&p))
        })
        .count()
}

/// One reading of a process's counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sample {
    /// User CPU, clock ticks.
    pub utime: u64,
    /// System CPU, clock ticks.
    pub stime: u64,
    /// Bytes passed to write-family syscalls.
    pub wchar: u64,
    /// Write-family syscalls.
    pub syscw: u64,
    /// Voluntary context switches, summed over live threads.
    pub vcs: u64,
    /// Involuntary context switches, summed over live threads.
    pub ivcs: u64,
    /// Peak resident set, KiB.
    pub hwm_kb: u64,
}

/// Reads every counter of process `pid` (`"self"` for this process).
pub fn sample(pid: &str) -> io::Result<Sample> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("{pid}: {what}"));
    let stat = fs::read_to_string(format!("/proc/{pid}/stat"))?;
    let (utime, stime) = parse_stat(&stat).ok_or_else(|| bad("stat"))?;
    let io_text = fs::read_to_string(format!("/proc/{pid}/io"))?;
    let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
    let (mut vcs, mut ivcs) = (0, 0);
    for task in fs::read_dir(format!("/proc/{pid}/task"))? {
        // A thread may exit between listing and reading; skip it.
        if let Ok(text) = fs::read_to_string(task?.path().join("status")) {
            vcs += field(&text, "voluntary_ctxt_switches").unwrap_or(0);
            ivcs += field(&text, "nonvoluntary_ctxt_switches").unwrap_or(0);
        }
    }
    Ok(Sample {
        utime,
        stime,
        wchar: field(&io_text, "wchar").ok_or_else(|| bad("io wchar"))?,
        syscw: field(&io_text, "syscw").ok_or_else(|| bad("io syscw"))?,
        vcs,
        ivcs,
        hwm_kb: field(&status, "VmHWM").ok_or_else(|| bad("status VmHWM"))?,
    })
}

/// CPU ticks the hypervisor has taken from this machine so far (the
/// `steal` column of `/proc/stat`), 0 if unknown.
pub fn stolen_ticks() -> u64 {
    let text = fs::read_to_string("/proc/stat").unwrap_or_default();
    text.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Nanoseconds on a CPU: the first field of `schedstat` text.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// Nanoseconds the calling thread has run on a CPU so far, 0 if unknown.
pub fn thread_cpu_ns() -> u64 {
    let text = fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    parse_schedstat(&text).unwrap_or(0)
}

/// Context switches of the calling thread so far: (voluntary, involuntary).
pub fn thread_switches() -> (u64, u64) {
    let text = fs::read_to_string("/proc/thread-self/status").unwrap_or_default();
    (
        field(&text, "voluntary_ctxt_switches").unwrap_or(0),
        field(&text, "nonvoluntary_ctxt_switches").unwrap_or(0),
    )
}

/// What a process did between two samples.
#[derive(Clone, Copy, Debug, Default)]
pub struct Delta {
    /// User CPU, microseconds.
    pub user_us: f64,
    /// System CPU, microseconds.
    pub sys_us: f64,
    /// Bytes written.
    pub wchar: u64,
    /// Write syscalls.
    pub syscw: u64,
    /// Voluntary context switches.
    pub vcs: u64,
    /// Involuntary context switches.
    pub ivcs: u64,
    /// Peak resident set at the end, KiB.
    pub hwm_kb: u64,
}

impl Delta {
    /// The change from `before` to `after`.
    pub fn between(before: &Sample, after: &Sample) -> Delta {
        let tick_us = 1e6 / USER_HZ as f64;
        Delta {
            user_us: after.utime.saturating_sub(before.utime) as f64 * tick_us,
            sys_us: after.stime.saturating_sub(before.stime) as f64 * tick_us,
            wchar: after.wchar.saturating_sub(before.wchar),
            syscw: after.syscw.saturating_sub(before.syscw),
            vcs: after.vcs.saturating_sub(before.vcs),
            ivcs: after.ivcs.saturating_sub(before.ivcs),
            hwm_kb: after.hwm_kb,
        }
    }

    /// Total CPU, microseconds.
    pub fn cpu_us(&self) -> f64 {
        self.user_us + self.sys_us
    }

    /// Adds `other` into `self` (peak memory adds too: the sum of peaks).
    pub fn add(&mut self, other: &Delta) {
        self.user_us += other.user_us;
        self.sys_us += other.sys_us;
        self.wchar += other.wchar;
        self.syscw += other.syscw;
        self.vcs += other.vcs;
        self.ivcs += other.ivcs;
        self.hwm_kb += other.hwm_kb;
    }
}

/// The machine a result was measured on.
pub fn machine_record() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")?
                .split_once(':')
                .map(|(_, v)| v.trim())
        })
        .unwrap_or("unknown");
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"kernel\": {}}}",
        crate::report::json_str(model),
        crate::report::json_str(kernel.trim()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (icg (re) plicad) S 1 4242 4242 0 -1 4194560 611 0 0 0 \
                        1234 567 0 0 20 0 3 0 98765 123456789 2048 18446744073709551615";

    #[test]
    fn stat_fields_follow_the_last_paren() {
        assert_eq!(parse_stat(STAT), Some((1234, 567)));
    }

    #[test]
    fn stat_rejects_truncated_text() {
        assert_eq!(parse_stat("12 (x) S 1 2 3"), None);
        assert_eq!(parse_stat("no parens here"), None);
    }

    const IO: &str = "rchar: 1904\nwchar: 88211\nsyscr: 7\nsyscw: 3301\n\
                      read_bytes: 0\nwrite_bytes: 0\ncancelled_write_bytes: 0\n";

    #[test]
    fn io_fields() {
        assert_eq!(field(IO, "wchar"), Some(88211));
        assert_eq!(field(IO, "syscw"), Some(3301));
        assert_eq!(field(IO, "rchar"), Some(1904));
        assert_eq!(field(IO, "read"), None);
    }

    const STATUS: &str = "Name:\ticg-replicad\nState:\tS (sleeping)\nVmPeak:\t  80000 kB\n\
                          VmHWM:\t    5120 kB\nVmRSS:\t    4900 kB\nThreads:\t3\n\
                          voluntary_ctxt_switches:\t150\nnonvoluntary_ctxt_switches:\t7\n";

    #[test]
    fn status_fields_ignore_units() {
        assert_eq!(field(STATUS, "VmHWM"), Some(5120));
        assert_eq!(field(STATUS, "voluntary_ctxt_switches"), Some(150));
        assert_eq!(field(STATUS, "nonvoluntary_ctxt_switches"), Some(7));
        assert_eq!(field(STATUS, "Name"), None);
    }

    #[test]
    fn schedstat_first_field_is_cpu_time() {
        assert_eq!(
            parse_schedstat("528780798 14098249 45\n"),
            Some(528_780_798)
        );
        assert_eq!(parse_schedstat(""), None);
    }

    // Ports 0x1F41 = 8001, 0x1F42 = 8002; 0xA000 = 40960 is ephemeral.
    const TCP: &str = "  sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode\n\
   0: 0100007F:1F41 00000000:0000 0A 00000000:00000000 00:00000000 00000000     0        0 1 1\n\
   1: 0100007F:A000 0100007F:1F41 01 00000000:00000000 00:00000000 00000000     0        0 2 1\n\
   2: 0100007F:1F41 0100007F:A000 01 00000000:00000000 00:00000000 00000000     0        0 3 1\n\
   3: 0100007F:A001 0100007F:1F42 01 00000000:00000000 00:00000000 00000000     0        0 4 1\n\
   4: 0100007F:A002 0100007F:1F42 06 00000000:00000000 00:00000000 00000000     0        0 5 1\n\
   5: 0100007F:A003 0100007F:0050 01 00000000:00000000 00:00000000 00000000     0        0 6 1\n";

    #[test]
    fn dialed_links_counts_established_outbound_only() {
        // Row 1 and row 3 qualify. Row 0 listens, row 2 is the accepted
        // end, row 4 is TIME_WAIT, row 5 goes to another port.
        assert_eq!(dialed_links(TCP, &[8001, 8002]), 2);
        assert_eq!(dialed_links(TCP, &[8001]), 1);
        assert_eq!(dialed_links(TCP, &[9999]), 0);
        assert_eq!(dialed_links("", &[8001]), 0);
    }

    #[test]
    fn delta_converts_ticks_and_sums() {
        let before = Sample {
            utime: 100,
            stime: 50,
            wchar: 1000,
            syscw: 10,
            vcs: 5,
            ivcs: 1,
            hwm_kb: 2048,
        };
        let after = Sample {
            utime: 130,
            stime: 60,
            wchar: 4000,
            syscw: 40,
            vcs: 25,
            ivcs: 3,
            hwm_kb: 4096,
        };
        let d = Delta::between(&before, &after);
        assert_eq!(d.user_us, 300_000.0);
        assert_eq!(d.sys_us, 100_000.0);
        assert_eq!(d.cpu_us(), 400_000.0);
        assert_eq!(
            (d.wchar, d.syscw, d.vcs, d.ivcs, d.hwm_kb),
            (3000, 30, 20, 2, 4096)
        );
        let mut sum = d;
        sum.add(&d);
        assert_eq!((sum.wchar, sum.hwm_kb), (6000, 8192));
    }
}
