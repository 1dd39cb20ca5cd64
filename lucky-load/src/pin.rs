//! Pin the benchmark to one CPU before the store starts its threads.
//!
//! Every store thread (router, servers, frame readers, reactor) inherits
//! the affinity of the thread that spawns it. On one CPU a round's hops
//! run back to back instead of waking idle CPUs, so the latency figures
//! follow the program's work rather than how fast a shared host wakes
//! an idle virtual CPU.

/// Restrict the calling thread, and every thread it spawns afterwards,
/// to the lowest-numbered CPU it may run on. Returns that CPU.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    use std::io::Error;

    /// `cpu_set_t` as glibc lays it out: 1024 CPUs, one bit each.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size_of::<CpuSet>(), allowed.as_mut_ptr()) } != 0 {
        return Err(Error::last_os_error());
    }
    let cpu = allowed
        .iter()
        .enumerate()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| 64 * i + word.trailing_zeros() as usize)
        .ok_or_else(|| Error::other("no CPU in the affinity mask"))?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, size_of::<CpuSet>(), one.as_ptr()) } != 0 {
        return Err(Error::last_os_error());
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    Err(std::io::Error::new(std::io::ErrorKind::Unsupported, "CPU affinity is Linux-only here"))
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pinned_thread_and_its_children_see_one_cpu() {
        // On a thread of its own, so the test runner's threads keep
        // their affinity.
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("pin");
            let allowed = |status: &str| {
                status
                    .lines()
                    .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                    .map(|l| l.trim().to_string())
            };
            let own = std::fs::read_to_string("/proc/thread-self/status").expect("status");
            assert_eq!(allowed(&own), Some(cpu.to_string()));
            let child = std::thread::spawn(|| {
                std::fs::read_to_string("/proc/thread-self/status").expect("status")
            })
            .join()
            .unwrap();
            assert_eq!(allowed(&child), Some(cpu.to_string()));
        })
        .join()
        .unwrap();
    }
}
