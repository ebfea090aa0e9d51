//! Pins the measuring thread to one CPU, so the timed passes do not
//! migrate between cores mid-pass (which shows up as latency outliers).
//! Multi-threaded passes release the pin first: threads inherit the
//! affinity of the thread that spawns them.

use std::sync::Mutex;

/// `cpu_set_t` of glibc: 1024 CPU bits.
#[repr(C)]
#[derive(Clone, Copy)]
struct CpuSet {
    bits: [u64; 16],
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The affinity the process started with, saved by the first `pin`.
static ORIGINAL: Mutex<Option<CpuSet>> = Mutex::new(None);

fn set(mask: &CpuSet) -> bool {
    // SAFETY: `mask` points to a live `CpuSet` whose size is passed
    // alongside; pid 0 addresses the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) == 0 }
}

/// Pins the calling thread to the highest-numbered CPU it may run on.
/// Returns the CPU, or `None` when the affinity cannot be read or set
/// (the run then continues unpinned).
pub fn pin() -> Option<usize> {
    let mut mask = CpuSet { bits: [0; 16] };
    // SAFETY: `mask` is a writable `CpuSet` of the size passed.
    let read = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    if read != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| mask.bits[c / 64] >> (c % 64) & 1 == 1)?;
    let mut original = ORIGINAL.lock().expect("pin state lock is never poisoned");
    if original.is_none() {
        *original = Some(mask);
    }
    let mut one = CpuSet { bits: [0; 16] };
    one.bits[cpu / 64] = 1 << (cpu % 64);
    set(&one).then_some(cpu)
}

/// Restores the affinity saved by [`pin`] (no-op when never pinned).
pub fn release() {
    let original = ORIGINAL.lock().expect("pin state lock is never poisoned");
    if let Some(mask) = original.as_ref() {
        set(mask);
    }
}
