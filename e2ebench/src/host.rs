//! What the host says about the process and the machine: CPU clocks,
//! resident memory, hypervisor steal and per-thread scheduler accounting,
//! all read from the kernel (`clock_gettime`, `/proc`).

use std::collections::BTreeMap;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_MMAP_THRESHOLD`.
const M_MMAP_THRESHOLD: i32 = -3;

/// Fixes glibc's mmap threshold at its default of 128 KiB. Left
/// dynamic, glibc raises it after the first large free, and later
/// repetitions then reuse pool memory an earlier one left resident; with
/// it fixed, every large allocation is mapped fresh and unmapped on free,
/// so each repetition's set-up and memory are those of a fresh engine.
pub fn fix_mmap_threshold() {
    // SAFETY: `mallopt` takes two integers and only changes allocator
    // tuning; it is called before any other thread exists.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) failed");
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME: i32 = 2;

/// CPU time consumed by every thread of this process (user plus system),
/// in nanoseconds, including threads that have already exited.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id
    // is a constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Resident set size of this process in bytes.
pub fn rss_bytes() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap_or_default();
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    pages * 4096
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`: (steal, total).
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|s| s.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user, so the total stops at steal.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Steal share of all CPU time between two [`cpu_jiffies`] readings, in %.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 * 100.0 / total as f64
}

/// Scheduler accounting of one thread, from
/// `/proc/self/task/<tid>/{schedstat,status}`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThreadStat {
    /// Time on a CPU, ns.
    pub run_ns: u64,
    /// Time runnable but waiting on a run queue, ns.
    pub wait_ns: u64,
    /// Voluntary context switches (blocking, parking, sleeping).
    pub voluntary: u64,
    /// Threads summed into this reading.
    pub threads: u64,
}

impl ThreadStat {
    fn add(&mut self, o: &ThreadStat) {
        self.run_ns += o.run_ns;
        self.wait_ns += o.wait_ns;
        self.voluntary += o.voluntary;
        self.threads += o.threads;
    }
}

/// Every live thread of this process, summed per role. The role is the
/// thread name with its trailing `-N` index removed, so
/// `wirecap-capture-0` and `wirecap-capture-1` both count as
/// `wirecap-capture`.
pub fn threads_by_role() -> BTreeMap<String, ThreadStat> {
    let mut out: BTreeMap<String, ThreadStat> = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let path = entry.path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        let comm = comm.trim();
        let role = match comm.rsplit_once('-') {
            Some((head, idx)) if idx.chars().all(|c| c.is_ascii_digit()) => head,
            _ => comm,
        };
        let mut st = ThreadStat {
            threads: 1,
            ..ThreadStat::default()
        };
        let sched = std::fs::read_to_string(path.join("schedstat")).unwrap_or_default();
        let mut it = sched
            .split_whitespace()
            .map(|s| s.parse::<u64>().unwrap_or(0));
        st.run_ns = it.next().unwrap_or(0);
        st.wait_ns = it.next().unwrap_or(0);
        let status = std::fs::read_to_string(path.join("status")).unwrap_or_default();
        for line in status.lines() {
            let value = |l: &str| l.split_whitespace().nth(1).and_then(|v| v.parse().ok());
            if line.starts_with("voluntary_ctxt_switches") {
                st.voluntary = value(line).unwrap_or(0);
            }
        }
        out.entry(role.to_string()).or_default().add(&st);
    }
    out
}

/// Per-role scheduler accounting accrued between two readings. Engine
/// threads are created per repetition, so a role missing from `before`
/// started from zero.
pub fn role_delta(
    before: &BTreeMap<String, ThreadStat>,
    after: &BTreeMap<String, ThreadStat>,
) -> BTreeMap<String, ThreadStat> {
    after
        .iter()
        .map(|(role, a)| {
            let b = before.get(role).copied().unwrap_or_default();
            let d = ThreadStat {
                run_ns: a.run_ns.saturating_sub(b.run_ns),
                wait_ns: a.wait_ns.saturating_sub(b.wait_ns),
                voluntary: a.voluntary.saturating_sub(b.voluntary),
                threads: a.threads,
            };
            (role.clone(), d)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_clock_advances_with_work() {
        let a = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_ns() > a, "{x}");
    }

    #[test]
    fn named_threads_group_by_role() {
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let h = std::thread::Builder::new()
            .name("probe-role-7".into())
            .spawn(move || {
                // The name is set before this closure runs.
                ready_tx.send(()).unwrap();
                rx.recv().ok()
            })
            .unwrap();
        ready_rx.recv().unwrap();
        let roles = threads_by_role();
        tx.send(()).unwrap();
        h.join().unwrap();
        assert!(roles.contains_key("probe-role"), "{roles:?}");
        assert!(rss_bytes() > 0);
    }
}
