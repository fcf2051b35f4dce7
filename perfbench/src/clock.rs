//! Host time the calling thread spent on a CPU, in ns.
//!
//! The benchmark times its measure window, slices, phases and component
//! microbenchmarks with this clock instead of wall time: on a shared or
//! paravirtualised host it leaves out the time the thread waited for a CPU
//! (other tenants, steal time), which wall time counts. It does not undo
//! a host whose CPUs run slower for a while. `wall_s` stays wall time.
//!
//! The clock is POSIX `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`, which the
//! C library the standard library links already provides. Linux's
//! `/proc/thread-self/schedstat` carries the same counter, but read on its
//! own it is only brought up to date at scheduler ticks (4 ms apart), too
//! coarse for a slice.

use std::ffi::{c_int, c_long};

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// `struct timespec` on Linux, where `time_t` is a `long`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// The calling thread's CPU time in ns, or an error when the host does
/// not provide it.
pub fn try_thread_cpu_ns() -> Result<u64, String> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C
    // layout, and `clock_gettime` writes only through the pointer it is
    // given, before it returns.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    Ok(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// The calling thread's CPU time in ns. `main` checks the clock works
/// before any run, so a failure here is a broken host, not bad input.
pub fn thread_cpu_ns() -> u64 {
    try_thread_cpu_ns().expect("thread CPU time was readable at start-up")
}

/// CPU seconds the calling thread spent since `start_ns`.
pub fn cpu_secs_since(start_ns: u64) -> f64 {
    thread_cpu_ns().saturating_sub(start_ns) as f64 / 1e9
}
