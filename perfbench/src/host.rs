//! Facts about the host the benchmark ran on: the processor's brand
//! string from `cpuid`, the thread count the standard library sees, the
//! process's CPU clock and its peak resident set.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads 64-bit Linux's per-process CPU clock and /proc");

/// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// `mallopt` parameters of glibc's `<malloc.h>`.
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;

/// Makes glibc's allocator keep freed memory in the process: blocks up
/// to 32 MiB (glibc's largest mmap threshold) come from the heap rather
/// than from fresh mappings, and the heap is never trimmed.
///
/// Without this, every replay asks the kernel for tens of megabytes of
/// fresh zeroed pages (20 k minor page faults for one paper day), and on
/// a virtual machine what those faults cost depends on the host's memory
/// pressure: the same replay's CPU time then varies by a third between
/// repeats. With it, replays after the first reuse the heap and fault
/// nothing; the allocator's own work is still measured.
///
/// # Errors
///
/// Returns a message if glibc refuses a setting.
pub fn keep_freed_memory() -> Result<(), String> {
    for (param, value, name) in [
        (M_MMAP_THRESHOLD, 32 << 20, "M_MMAP_THRESHOLD"),
        (M_TRIM_THRESHOLD, i32::MAX, "M_TRIM_THRESHOLD"),
    ] {
        // SAFETY: `mallopt` takes two integers and touches only the
        // allocator's settings; it is called before any other thread
        // exists.
        if unsafe { mallopt(param, value) } != 1 {
            return Err(format!("mallopt({name}) failed"));
        }
    }
    Ok(())
}

/// CPU time used so far by every thread of this process, in
/// nanoseconds.
///
/// The benchmark times with this clock rather than the wall clock. On a
/// virtual machine the hypervisor takes the processor away to run other
/// guests (steal time); the wall clock counts those gaps, the process's
/// CPU clock does not. The replay itself runs on one thread, so for it
/// the two clocks differ only by that stolen time.
///
/// # Panics
///
/// Panics if the kernel refuses the clock, which Linux has provided
/// since 2.6.12.
#[must_use]
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two `i64`s on
    // 64-bit Linux) that outlives the call, and the clock id is a
    // constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    let secs = u64::try_from(ts.tv_sec).expect("the CPU clock is non-negative");
    let nanos = u64::try_from(ts.tv_nsec).expect("the CPU clock is non-negative");
    secs * 1_000_000_000 + nanos
}

/// Logical processors available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The processor brand string, or `"unknown"`.
#[must_use]
pub fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        if __cpuid(0x8000_0000).eax >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&reg.to_le_bytes());
                }
            }
            let s = String::from_utf8_lossy(&bytes);
            let s = s.trim_matches(char::from(0)).trim();
            if !s.is_empty() {
                return s.to_owned();
            }
        }
    }
    "unknown".to_owned()
}

/// Peak resident memory of this process image, in MiB: the kernel's
/// `VmHWM` high-water mark. (`getrusage`'s `ru_maxrss` would not do: it
/// survives `execve`, so a small benchmark would report the size of the
/// process that launched it.)
///
/// # Errors
///
/// Returns a message when the kernel does not report it.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}
