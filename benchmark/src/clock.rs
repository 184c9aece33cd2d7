//! The clock of `host_s` and `setup_s`: CPU time of the calling thread
//! (`CLOCK_THREAD_CPUTIME_ID`). The benchmark runs on one thread, so this
//! is the host work a pass costs. Unlike wall-clock time it leaves out the
//! time the thread waits for a core while other processes run. Reading it
//! is a system call, so the per-poll spans of a traced pass keep the
//! wall clock.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU seconds the calling thread has used so far.
fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec, and every Linux kernel
    // supports the clock id.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// A stopwatch reading thread CPU time and wall-clock time together.
pub struct Stopwatch {
    cpu_s: f64,
    wall: Instant,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            cpu_s: thread_cpu_s(),
            wall: Instant::now(),
        }
    }

    /// Thread CPU seconds since the start.
    pub fn cpu_s(&self) -> f64 {
        thread_cpu_s() - self.cpu_s
    }

    /// Wall-clock seconds since the start.
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_not_with_sleep() {
        let w = Stopwatch::start();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let busy = w.cpu_s();
        assert!(busy > 0.0);
        let w = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(w.wall_s() >= 0.05);
        assert!(w.cpu_s() < 0.025, "sleeping used {} CPU s", w.cpu_s());
    }
}
