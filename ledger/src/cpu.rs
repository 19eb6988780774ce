//! CPU time and memory of this process as the kernel accounts them, read
//! from `/proc/self`. Off Linux (or where a file is missing) every reader
//! returns `None` and the metric built on it is reported as not measured,
//! never as zero.

use std::collections::BTreeMap;
use std::fs;

/// CPU seconds consumed so far by each live thread, summed by thread
/// name (`comm`, which the kernel cuts to 15 bytes) with any trailing
/// `-<digits>` index removed: `tsv-worker-7` counts under `tsv-worker`.
/// Threads that have exited are not listed; [`process_cpu`] still counts
/// them.
pub fn thread_cpu() -> Option<BTreeMap<String, f64>> {
    let mut by_name = BTreeMap::new();
    for task in fs::read_dir("/proc/self/task").ok()? {
        let dir = task.ok()?.path();
        // a thread may exit between the listing and the reads
        let (Ok(comm), Ok(stat)) = (
            fs::read_to_string(dir.join("comm")),
            fs::read_to_string(dir.join("schedstat")),
        ) else {
            continue;
        };
        let ns: f64 = stat.split_whitespace().next()?.parse().ok()?;
        *by_name.entry(group_name(comm.trim())).or_insert(0.0) += ns * 1e-9;
    }
    Some(by_name)
}

/// CPU seconds the calling thread has used since it started.
pub fn own_thread_cpu() -> Option<f64> {
    let stat = fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    Some(stat.split_whitespace().next()?.parse::<f64>().ok()? * 1e-9)
}

fn group_name(comm: &str) -> String {
    let stem = comm.trim_end_matches(|c: char| c.is_ascii_digit());
    match stem.strip_suffix('-') {
        Some(s) if stem.len() < comm.len() => s.to_string(),
        _ => comm.to_string(),
    }
}

/// Seconds of `group`'s CPU between two [`thread_cpu`] readings.
pub fn group_delta(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    group: &str,
) -> f64 {
    let at = |m: &BTreeMap<String, f64>| m.get(group).copied().unwrap_or(0.0);
    (at(after) - at(before)).max(0.0)
}

/// User + system CPU seconds of the whole process, exited threads
/// included. `/proc/self/stat` counts in clock ticks, which Linux fixes
/// at 100 per second for user space on every mainstream architecture.
pub fn process_cpu() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // the name field may hold spaces; the numeric fields follow its ')'
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Peak resident set of the process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Bytes of the last-level cache of CPU 0, from sysfs.
pub fn llc_bytes() -> Option<usize> {
    let mut best: Option<(u32, usize)> = None;
    for entry in fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()? {
        let dir = entry.ok()?.path();
        let (Ok(level), Ok(size)) = (
            fs::read_to_string(dir.join("level")),
            fs::read_to_string(dir.join("size")),
        ) else {
            continue; // `uevent` and the like
        };
        let level: u32 = level.trim().parse().ok()?;
        let size = size.trim();
        let bytes = match size.as_bytes().last()? {
            b'K' => size[..size.len() - 1].parse::<usize>().ok()? << 10,
            b'M' => size[..size.len() - 1].parse::<usize>().ok()? << 20,
            _ => size.parse().ok()?,
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, bytes)| bytes)
}

/// `MemAvailable` in bytes.
pub fn mem_available_bytes() -> Option<usize> {
    let info = fs::read_to_string("/proc/meminfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("MemAvailable:"))?;
    Some(line.split_whitespace().nth(1)?.parse::<usize>().ok()? << 10)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_indices_fold_into_one_group() {
        assert_eq!(group_name("tsv-worker-12"), "tsv-worker");
        assert_eq!(group_name("ldg-gen-0"), "ldg-gen");
        assert_eq!(group_name("tsv-evloop"), "tsv-evloop");
        assert_eq!(group_name("ledger"), "ledger");
        assert_eq!(group_name("core2"), "core2");
    }

    #[test]
    fn own_thread_cpu_is_attributed_by_name() {
        let Some(before) = thread_cpu() else {
            return; // not measured on this platform
        };
        let after = std::thread::Builder::new()
            .name("ldg-gen-3".to_string())
            .spawn(|| {
                let mut x = 0u64;
                let t = std::time::Instant::now();
                while t.elapsed().as_millis() < 30 {
                    x = std::hint::black_box(x.wrapping_mul(3).wrapping_add(1));
                }
                thread_cpu().unwrap()
            })
            .unwrap()
            .join()
            .unwrap();
        let burned = group_delta(&before, &after, "ldg-gen");
        assert!(burned > 0.005 && burned < 1.0, "{burned}");
        assert_eq!(group_delta(&before, &after, "no-such-thread"), 0.0);
        assert!(process_cpu().unwrap() > 0.0);
        assert!(peak_rss_mb().unwrap() > 0.5);
    }
}
