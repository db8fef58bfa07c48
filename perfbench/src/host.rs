//! Facts about the host and the process that every output carries.

use std::process::Command;

/// Cores the standard library reports as available.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line printed by `program args`, or `"unknown"`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The rustc on `PATH` (the one `cargo run` built this binary with).
pub fn rustc_version() -> String {
    first_line("rustc", &["--version"])
}

/// The checked-out commit, or `"unknown"` outside a git work tree.
pub fn commit() -> String {
    first_line("git", &["rev-parse", "--short=12", "HEAD"])
}

fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Resets the process's peak resident set size to its current size, so the
/// next [`peak_rss_mb`] covers only what ran after this call.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS through /proc/self/clear_refs: {e}"))
}

/// The process's current resident set size (`VmRSS`) in megabytes.
pub fn rss_mb() -> Result<f64, String> {
    status_kib("VmRSS:")
        .map(|kib| kib * 1024.0 / 1e6)
        .ok_or_else(|| "cannot read VmRSS from /proc/self/status".into())
}

/// The process's peak resident set size (`VmHWM`) in megabytes.
pub fn peak_rss_mb() -> Result<f64, String> {
    status_kib("VmHWM:")
        .map(|kib| kib * 1024.0 / 1e6)
        .ok_or_else(|| "cannot read VmHWM from /proc/self/status".into())
}

/// CPU seconds this process has used: user and system time over all its
/// threads, live and ended, from `/proc/self/stat` (in 10 ms clock ticks).
pub fn cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // utime and stime are fields 14 and 15; count from the end of the
    // command name, which may hold spaces.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => Ok((user + system) as f64 / CLOCK_TICKS_PER_S),
        _ => Err("cannot parse the CPU times in /proc/self/stat".into()),
    }
}

/// `USER_HZ`, the unit of the CPU times in `/proc`: 100 on every Linux
/// architecture the benchmark builds for.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// The host's CPU time counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct HostTicks {
    steal: u64,
    total: u64,
}

impl HostTicks {
    /// Share of the host's CPU time between `self` and `later` that the
    /// hypervisor gave to other guests.
    pub fn steal_share(&self, later: &HostTicks) -> f64 {
        (later.steal - self.steal) as f64 / (later.total - self.total).max(1) as f64
    }
}

/// The host's CPU time counters now, if `/proc/stat` is readable.
pub fn host_ticks() -> Option<HostTicks> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some(HostTicks {
        steal: *ticks.get(7)?,
        total: ticks.iter().sum(),
    })
}
