//! CPU time from the kernel's process and thread clocks. A thread that
//! waits (on fsync, a socket, a sleep) or is descheduled by the host
//! gains no CPU time, so these figures follow the work the program does
//! rather than the host's disk and scheduler.

use std::os::raw::{c_int, c_long};
use std::sync::atomic::{AtomicU64, Ordering};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn read(clock: c_int) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time the calling thread has used, ns.
pub fn thread_ns() -> u64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// The process's CPU clock (every thread, live or ended) less the CPU
/// of the benchmark's own helper threads — the resident-set sampler and
/// the fleet's frame-timing proxy — which report what they used.
#[derive(Default)]
pub struct Meter {
    excluded: AtomicU64,
}

impl Meter {
    /// CPU the program has used so far, ns.
    pub fn now(&self) -> u64 {
        read(CLOCK_PROCESS_CPUTIME_ID).saturating_sub(self.excluded.load(Ordering::Relaxed))
    }

    /// Takes `ns` of helper-thread CPU out of every later reading.
    pub fn exclude(&self, ns: u64) {
        self.excluded.fetch_add(ns, Ordering::Relaxed);
    }
}

/// `later - earlier` CPU readings, ms.
pub fn ms(earlier: u64, later: u64) -> f64 {
    later.saturating_sub(earlier) as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_work_costs_cpu_and_sleep_does_not() {
        let meter = Meter::default();
        let t0 = thread_ns();
        let p0 = meter.now();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let busy = thread_ns() - t0;
        assert!(busy > 0);
        assert!(meter.now() - p0 >= busy);
        let t1 = thread_ns();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(thread_ns() - t1 < 10_000_000, "sleeping used CPU");
        // Excluding more than the process ever used reads as zero.
        meter.exclude(u64::MAX / 2);
        assert_eq!(meter.now(), 0);
    }
}
