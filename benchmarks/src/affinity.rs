//! CPU affinity of the calling thread, for the layer pass.
//!
//! On a small VM a blocking round trip between two threads costs a
//! context switch when they share a CPU and a cross-CPU wake-up (several
//! times more) when they do not, and which one it is depends on what the
//! scheduler saw in the seconds before. Per-layer numbers must measure the
//! code, not that history, so the layer pass pins itself — and with it
//! every thread and child process it starts — to one CPU.

/// Room for 1024 CPUs, the size of glibc's `cpu_set_t`.
const WORDS: usize = 16;

// The container vendors no `libc` crate, but every Rust binary links the
// C runtime; declare the two symbols needed directly.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

type CpuSet = [u64; WORDS];

fn get() -> Option<CpuSet> {
    let mut set = [0u64; WORDS];
    // SAFETY: `set` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

fn set(set: &CpuSet) -> bool {
    // SAFETY: `set` is a live buffer of exactly the size passed, only read;
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

/// While it lives, the calling thread may run only on the first CPU it
/// was allowed; threads and processes started meanwhile inherit that.
/// Dropping it restores the previous mask.
pub struct Pinned {
    previous: Option<CpuSet>,
}

impl Pinned {
    pub fn to_first_cpu() -> Pinned {
        let previous = get().filter(|prev| {
            let mut one = [0u64; WORDS];
            match prev.iter().position(|&w| w != 0) {
                Some(i) => one[i] = 1 << prev[i].trailing_zeros(),
                None => return false,
            }
            set(&one)
        });
        if previous.is_none() {
            eprintln!("grdbench: warning: cannot pin the layer pass to one CPU; its round-trip numbers depend on thread placement");
        }
        Pinned { previous }
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Some(prev) = &self.previous {
            set(prev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_to_one_cpu_and_restores() {
        let before = get().expect("affinity is readable");
        {
            let _pin = Pinned::to_first_cpu();
            let during = get().unwrap();
            assert_eq!(during.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            // A thread started while pinned inherits the mask.
            let child = std::thread::spawn(get).join().unwrap().unwrap();
            assert_eq!(child, during);
        }
        assert_eq!(get().unwrap(), before);
    }
}
