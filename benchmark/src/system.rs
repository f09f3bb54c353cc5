//! Facts about the machine and the code a result was measured on.

use std::path::Path;

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// The first `model name` in `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Cap glibc's malloc arenas at `arenas`; call it before any thread
/// starts. With glibc's default of 8 arenas per core, a thread that meets
/// contention may open a fresh arena, so peak RSS depends on thread
/// timing. Returns whether the cap took effect (`false` off glibc).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn pin_malloc_arenas(arenas: i32) -> bool {
    use std::os::raw::c_int;
    /// `M_ARENA_MAX` from glibc's `malloc.h`.
    const M_ARENA_MAX: c_int = -8;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    // SAFETY: `mallopt` only sets an allocator parameter; glibc documents
    // `M_ARENA_MAX` as settable at any time, and no other thread runs yet.
    unsafe { mallopt(M_ARENA_MAX, arenas) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn pin_malloc_arenas(_arenas: i32) -> bool {
    false
}

/// The machine's CPU time so far, from the `cpu` line of `/proc/stat`, in
/// clock ticks: time the CPUs were busy (stolen time included) and time the
/// hypervisor withheld them while they had work (`steal`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTicks {
    pub busy: u64,
    pub steal: u64,
}

impl CpuTicks {
    /// Now; zeros where `/proc/stat` is missing, so that no share is seen.
    pub fn now() -> CpuTicks {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|text| text.lines().next().map(CpuTicks::parse))
            .unwrap_or_default()
    }

    /// Parse the aggregate line: `cpu user nice system idle iowait irq
    /// softirq steal ...`; `guest` time is already inside `user`.
    fn parse(line: &str) -> CpuTicks {
        let f: Vec<u64> = line.split_whitespace().skip(1).map(|x| x.parse().unwrap_or(0)).collect();
        let at = |i: usize| f.get(i).copied().unwrap_or(0);
        let steal = at(7);
        CpuTicks { busy: at(0) + at(1) + at(2) + at(5) + at(6) + steal, steal }
    }

    /// Share of the CPU time wanted between `self` and `later` that the
    /// hypervisor withheld: `0.0` on a machine of its own.
    pub fn steal_share(self, later: CpuTicks) -> f64 {
        let busy = later.busy.saturating_sub(self.busy);
        let steal = later.steal.saturating_sub(self.steal);
        if busy == 0 {
            0.0
        } else {
            steal as f64 / busy as f64
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
pub fn git_commit() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(hash) = read(&git.join(reference)) {
        return hash;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.split_once(' ').filter(|(_, r)| *r == reference).map(|(h, _)| h.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_is_stolen_over_busy_time() {
        let a = CpuTicks::parse("cpu  100 0 50 900 5 0 10 40 0 0");
        let b = CpuTicks::parse("cpu  160 0 70 950 5 0 10 60 0 0");
        assert_eq!(a, CpuTicks { busy: 200, steal: 40 });
        assert_eq!(a.steal_share(b), 0.2);
        assert_eq!(a.steal_share(a), 0.0);
        assert_eq!(CpuTicks::parse("cpu").steal_share(CpuTicks::parse("cpu")), 0.0);
    }
}
