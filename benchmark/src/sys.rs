//! Readers for the `/proc` files the benchmark samples.

use std::fs;

/// Linux reports process CPU time in ticks of 1/100 s (`USER_HZ`) on
/// every architecture this benchmark runs on.
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds consumed by this process so far, threads
/// that have already exited included (`/proc/self/stat` fields 14, 15).
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SEC)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Sockets in TIME_WAIT on this host (`tw` in `/proc/net/sockstat`).
pub fn timewait_sockets() -> Option<u64> {
    let sockstat = fs::read_to_string("/proc/net/sockstat").ok()?;
    let line = sockstat.lines().find(|l| l.starts_with("TCP:"))?;
    let mut words = line.split_whitespace();
    words.find(|w| *w == "tw")?;
    words.next()?.parse().ok()
}
