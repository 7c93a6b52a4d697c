//! CPU-time clocks.
//!
//! On a shared virtual machine the hypervisor takes a core away for
//! seconds at a time ("steal"). Wall-clock figures move with that steal
//! from one set of runs to the next; CPU time does not, because a kernel
//! with paravirtual steal accounting leaves stolen time out of its CPU
//! clocks. Every gated timing in this benchmark is therefore CPU time.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec and both clock ids are
    // defined on every Linux target; the call writes only into `ts`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of every thread of this process so far (live and exited), in
/// nanoseconds.
pub fn process_ns() -> u64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread so far, in nanoseconds.
pub fn thread_ns() -> u64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_count_work_not_sleep() {
        let (p0, t0) = (process_ns(), thread_ns());
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = thread_ns() - t0;
        assert!(slept < 10_000_000, "30 ms of sleep cost {slept} ns of CPU");
        let mut x = 0u64;
        while thread_ns() - t0 < 20_000_000 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_ns() - p0 >= thread_ns() - t0);
    }
}
