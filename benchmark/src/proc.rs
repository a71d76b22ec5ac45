//! What the benchmark reads about its own process: allowed CPUs, CPU
//! time split, peak resident set — all from `/proc`, std only — and
//! the one foreign call it makes, to pin itself to a single CPU.

use std::fs;

/// CPUs this process may run on, from `Cpus_allowed_list` (e.g.
/// `0-1,4`). Empty when `/proc` is unreadable.
pub fn allowed_cpus() -> Vec<usize> {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return Vec::new();
    };
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let mut ends = part.splitn(2, '-').map(|x| x.trim().parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(a)), None) => cpus.push(a),
            (Some(Ok(a)), Some(Ok(b))) if a <= b && b - a < 4096 => cpus.extend(a..=b),
            _ => return Vec::new(),
        }
    }
    cpus
}

extern "C" {
    // int sched_setaffinity(pid_t pid, size_t cpusetsize, const cpu_set_t *mask)
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread (and every thread it spawns afterwards) to
/// one CPU of its allowed set. Returns the CPU, or `None` when the set
/// is unknown or the kernel refuses — the run then proceeds unpinned
/// and says so in its output.
///
/// The simulator is turn-based (one LP thread runs at a time), so a
/// second core only adds cross-core wake-ups: measured on the 2-core
/// development box, six P=256 shapes x 100 calls took 25-33 s unpinned
/// with up to 4x per-shape spread and 8.5-9.3 s pinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    // The highest allowed CPU: CPU 0 takes most device interrupts.
    let cpu = *allowed_cpus().last()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, properly aligned array of the byte
    // length passed; pid 0 names the calling thread; the call only
    // reads the mask.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// `(utime, stime)` of this process in clock ticks, all threads.
pub fn cpu_ticks() -> (u64, u64) {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return (0, 0);
    };
    // Fields after the parenthesised command name; utime and stime
    // are fields 14 and 15 of the line, 12 and 13 after the ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return (0, 0);
    };
    let mut f = rest.split_ascii_whitespace().skip(11);
    let mut next = || f.next().and_then(|x| x.parse().ok()).unwrap_or(0);
    (next(), next())
}

/// Peak resident set (`VmHWM`) in MiB; 0 when unreadable.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(!allowed_cpus().is_empty());
        assert!(peak_rss_mb() > 0.0);
        let (u, s) = cpu_ticks();
        assert!(u + s < u64::MAX / 2);
    }
}
