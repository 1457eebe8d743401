//! Host and process readings from `/proc`: the host record printed with
//! every result (core count, CPU model, steal share, CPU seconds) and
//! the memory and CPU figures of this process and the daemon.

use std::time::Instant;

/// `/proc/<pid>/stat` counts CPU time in USER_HZ ticks, which the kernel
/// ABI fixes at 100 per second.
const TICKS_PER_SEC: f64 = 100.0;

/// Logical cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The first `model name` of `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A `kB` field of `/proc/<pid>/status` (`VmRSS`, `VmHWM`), in bytes.
fn status_bytes(pid: &str, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb = text
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse::<u64>()
        .ok()?;
    Some(kb * 1024)
}

/// Resident bytes of this process now.
pub fn rss_bytes() -> u64 {
    status_bytes("self", "VmRSS").unwrap_or(0)
}

/// Peak resident bytes (VmHWM) of a process (`"self"` or a pid).
pub fn peak_rss_bytes(pid: &str) -> u64 {
    status_bytes(pid, "VmHWM").unwrap_or(0)
}

/// User + system CPU seconds of a process; with `children`, also those
/// of its children that it has waited for.
pub fn cpu_secs(pid: &str, children: bool) -> f64 {
    let Ok(text) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name, which may hold spaces.
    let Some((_, rest)) = text.rsplit_once(')') else {
        return 0.0;
    };
    let f: Vec<f64> = rest
        .split_whitespace()
        .map(|v| v.parse().unwrap_or(0.0))
        .collect();
    // utime, stime, cutime, cstime are fields 14..=17 of stat(5); `rest`
    // starts at field 3.
    let own = f.get(11).unwrap_or(&0.0) + f.get(12).unwrap_or(&0.0);
    let kids = f.get(13).unwrap_or(&0.0) + f.get(14).unwrap_or(&0.0);
    (own + if children { kids } else { 0.0 }) / TICKS_PER_SEC
}

/// Aggregate `(steal, total)` jiffies from the `cpu` line of `/proc/stat`.
fn steal_and_total() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user, so it is left out.
    let total = v.iter().take(8).sum();
    (v.get(7).copied().unwrap_or(0), total)
}

/// A reading at the start of a run, to difference at its end.
pub struct HostSample {
    at: Instant,
    steal: u64,
    total: u64,
}

impl HostSample {
    /// Read the counters now.
    pub fn now() -> HostSample {
        let (steal, total) = steal_and_total();
        HostSample {
            at: Instant::now(),
            steal,
            total,
        }
    }

    /// Share of all CPU time since this sample that the hypervisor stole.
    pub fn steal_frac(&self) -> f64 {
        let (steal, total) = steal_and_total();
        let dt = total.saturating_sub(self.total);
        if dt == 0 {
            0.0
        } else {
            steal.saturating_sub(self.steal) as f64 / dt as f64
        }
    }

    /// Wall seconds since this sample.
    pub fn elapsed(&self) -> f64 {
        self.at.elapsed().as_secs_f64()
    }
}
