//! Moving the measuring thread between the CPUs the process may use.
//!
//! The host's contention bursts often slow one vCPU and leave the other
//! alone for tens of seconds (each shares its core with a different
//! neighbour), and the kernel keeps a lone busy thread on one vCPU for
//! as long. A run that takes its passes on each allowed CPU in turn
//! gives every repeated op a chance at whichever CPU is quiet, which the
//! fastest-repeat estimate (see [`crate::stats::minimum`]) then picks up.
//! Off Linux, or where the kernel refuses, the thread stays where it is.

/// Words of the affinity mask: 1,024 CPUs, the size of glibc's
/// `cpu_set_t`.
#[cfg(target_os = "linux")]
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, ascending; empty if the
/// kernel does not say.
#[cfg(target_os = "linux")]
pub fn allowed() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread to `cpus`; false if the kernel refused
/// (the thread then keeps its old set).
#[cfg(target_os = "linux")]
pub fn restrict(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &c in cpus.iter().filter(|&&c| c < MASK_WORDS * 64) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn allowed() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
pub fn restrict(_cpus: &[usize]) -> bool {
    false
}

/// Takes the `turn`-th of `cpus` in rotation; does nothing for an empty
/// list.
pub fn take_turn(cpus: &[usize], turn: usize) {
    if let Some(&cpu) = cpus.get(turn % cpus.len().max(1)) {
        restrict(&[cpu]);
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn turns_visit_every_allowed_cpu_and_the_set_comes_back() {
        let cpus = allowed();
        assert!(!cpus.is_empty(), "the kernel names at least one CPU");
        for turn in 0..cpus.len() {
            take_turn(&cpus, turn);
            assert_eq!(allowed(), vec![cpus[turn]]);
        }
        assert!(restrict(&cpus));
        assert_eq!(allowed(), cpus);
    }
}
