//! What the operating system says about this process, read from `/proc`:
//! CPU time, resident memory, context switches, threads, load — plus the
//! memory pre-fault every workload performs before any timer starts.

use std::time::Duration;

/// Kernel clock ticks per second. `/proc/self/stat` reports CPU time in
/// `USER_HZ`, which Linux fixes at 100 on every architecture it supports.
const TICKS_PER_SECOND: u64 = 100;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// User + system CPU time of the whole process (live and exited threads).
pub fn cpu_time() -> Duration {
    let stat = read("/proc/self/stat");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    Duration::from_millis((utime + stime) * 1000 / TICKS_PER_SECOND)
}

/// CPU time the hypervisor withheld from this VM while it had work to
/// run (`steal`, summed over the hardware threads).
pub fn stolen_time() -> Duration {
    let stat = read("/proc/stat");
    // cpu user nice system idle iowait irq softirq steal …
    let steal: u64 = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|f| f.parse().ok())
        .unwrap_or(0);
    Duration::from_millis(steal * 1000 / TICKS_PER_SECOND)
}

fn status_kb(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) in MiB since the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    status_kb(&read("/proc/self/status"), "VmHWM:") as f64 / 1024.0
}

/// Reset `VmHWM` to the current resident set, so the pre-fault buffer
/// does not count as the workload's peak.
pub fn reset_peak_rss() {
    // "5" is the documented clear_refs value for resetting the peak RSS.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Voluntary + involuntary context switches summed over the live threads,
/// and the number of live threads.
pub fn ctx_switches_and_threads() -> (u64, u64) {
    let mut switches = 0;
    let mut threads = 0;
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return (0, 0);
    };
    for task in tasks.flatten() {
        let status = read(&format!("{}/status", task.path().display()));
        if status.is_empty() {
            continue; // the thread exited between readdir and read
        }
        threads += 1;
        switches += status_kb(&status, "voluntary_ctxt_switches:")
            + status_kb(&status, "nonvoluntary_ctxt_switches:");
    }
    (switches, threads)
}

/// The 1-minute load average.
pub fn load_average() -> f64 {
    read("/proc/loadavg")
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The checked-out commit, read from `.git` without spawning a process;
/// `unknown` where there is no repository (the driver's checkout).
pub fn git_commit() -> String {
    let head = read(".git/HEAD");
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => {
            let loose = read(&format!(".git/{reference}"));
            if loose.trim().is_empty() {
                read(".git/packed-refs")
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
                    .unwrap_or_default()
            } else {
                loose.trim().to_string()
            }
        }
    };
    if commit.is_empty() {
        "unknown".into()
    } else {
        commit
    }
}

/// Allocate, touch and free `mb` MiB. On this kind of host the first
/// touch of guest memory the VM has never used runs at tens of MB/s, so a
/// workload that grows into fresh memory under a timer measures the
/// hypervisor; touching 1.25× the expected peak first moves that cost
/// out of every timed interval.
pub fn prefault(mb: usize) {
    const PAGE: usize = 4096;
    let mut buf = vec![0u8; mb << 20];
    for i in (0..buf.len()).step_by(PAGE) {
        buf[i] = 1;
    }
    std::hint::black_box(&mut buf);
    drop(buf);
    reset_peak_rss();
}
