//! The process CPU clock, and a probe of the host's current speed.
//!
//! The end-to-end timings are CPU time of the whole process (every thread,
//! user and system), not wall time. On a guest whose host takes CPUs away
//! (steal time), the kernel leaves the stolen time out of the task clocks,
//! so CPU time measures the work the program did and wall time measures the
//! host as well.
//!
//! CPU time still moves with the host's load: on a busy stretch the
//! neighbours share the cores' caches and execution units, and the same
//! pass takes a third more CPU time than on a calm one. [`SpeedProbe`] times
//! a fixed loop of the benchmark's own between passes, so the run's timings
//! can be scaled to a calm host.

use std::ffi::c_long;

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU nanoseconds this process has used so far, over all its threads.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id is a constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Runs `f` and returns its result with the wall and process CPU seconds
/// it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu = process_cpu_ns();
    let wall = std::time::Instant::now();
    let out = f();
    let wall_s = wall.elapsed().as_secs_f64();
    (out, wall_s, (process_cpu_ns() - cpu) as f64 / 1e9)
}

/// CPU milliseconds one probe takes on a calm stretch of the 2-core host
/// the benchmark was written on; the unit the scaled timings are in.
pub const PROBE_NOMINAL_MS: f64 = 25.0;
/// Probes run at each gap between passes.
pub const PROBES_PER_GAP: usize = 5;
/// `f32` elements the probe sweeps over (256 KiB, so the probe's memory
/// barely moves the peak resident set).
const PROBE_LEN: usize = 1 << 16;
/// Sweeps in one probe.
const PROBE_SWEEPS: usize = 512;

/// Measures the host's current speed with a fixed loop: 512 sweeps that
/// update and sum a 256 KiB buffer. The loop is the benchmark's own code, so
/// no change to the program moves it; it slows with the host's load, by
/// about half as much as the program's passes do.
pub struct SpeedProbe {
    buf: Vec<f32>,
    samples_ms: Vec<f64>,
}

impl Default for SpeedProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl SpeedProbe {
    /// A probe with no samples yet; allocates and touches its buffer.
    pub fn new() -> Self {
        Self {
            buf: vec![1.0; PROBE_LEN],
            samples_ms: Vec::new(),
        }
    }

    fn run_once(buf: &mut [f32]) -> f64 {
        let start = process_cpu_ns();
        let mut sum = 0f32;
        for _ in 0..PROBE_SWEEPS {
            for x in buf.iter_mut() {
                *x = *x * 0.999 + 0.001;
                sum += *x;
            }
        }
        std::hint::black_box(sum);
        (process_cpu_ns() - start) as f64 / 1e6
    }

    /// Runs `n` probes and keeps their CPU times.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let ms = Self::run_once(&mut self.buf);
            self.samples_ms.push(ms);
        }
    }

    /// CPU milliseconds of each probe kept, in order.
    pub fn samples_ms(&self) -> &[f64] {
        &self.samples_ms
    }

    /// How much slower the host ran than the calm nominal: the median
    /// probe over [`PROBE_NOMINAL_MS`] (1 without samples).
    pub fn slowdown(&self) -> f64 {
        if self.samples_ms.is_empty() {
            1.0
        } else {
            crate::stats::median(&self.samples_ms) / PROBE_NOMINAL_MS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_ns();
        let (sum, wall, cpu) =
            timed(|| (0..20_000_000u64).fold(0u64, |a, x| a ^ x.wrapping_mul(x)));
        std::hint::black_box(sum);
        assert!(wall > 0.0);
        assert!(cpu > 0.0);
        assert!(process_cpu_ns() >= before);
    }

    #[test]
    fn probe_slowdown_is_median_over_nominal() {
        let mut probe = SpeedProbe::new();
        assert_eq!(probe.slowdown(), 1.0);
        probe.sample(3);
        assert_eq!(probe.samples_ms().len(), 3);
        let median = crate::stats::median(probe.samples_ms());
        assert_eq!(probe.slowdown(), median / PROBE_NOMINAL_MS);
        assert!(probe.slowdown() > 0.0);
    }
}
