//! Thread placement. With as many busy threads as hardware threads, where
//! the scheduler happens to put them decides what a window measures: a
//! client that shares a CPU with the migration thread stalls for whole
//! time slices (1.5 ms, in a third of the rounds measured here) while the
//! other CPU idles. The benchmark therefore gives every client a CPU of
//! its own and leaves the last one to the coordinator and to whatever the
//! coordinator starts: the migration and backfill threads inherit its
//! mask. Best effort: where the call is refused the run goes on unpinned.

/// Room for 1024 CPUs, the size of glibc's `cpu_set_t`.
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this thread may run on, in ascending order.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pin the calling thread to one CPU; false if the kernel refused.
pub fn pin_to(cpu: usize) -> bool {
    if cpu >= WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed and the
    // kernel only reads it; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}
