//! The benchmark's clock: process CPU time, scaled to a reference host
//! speed.
//!
//! On a shared host the wall clock measures the neighbours as much as
//! the program, so every end-to-end timing is CPU time ([`CpuTime`]).
//! CPU time still drifts with the speed the host gives a core (clock
//! frequency, a busy sibling hyperthread, shared caches), by tens of
//! percent over seconds. [`RefTimer`] takes that out: just before each
//! timed campaign it times a fixed probe computation that never changes
//! with the repository, and scales the campaign's CPU time by
//! `PROBE_REF_MS / probe time`. The result reads as CPU time on a host
//! of the reference speed, whatever speed this host runs at just then.

use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::sync::Mutex;

/// A reading of this process's CPU-time clock
/// (`CLOCK_PROCESS_CPUTIME_ID`): the time all of its threads have spent
/// on a core, in seconds. Unlike the wall clock it stands still while
/// the host runs other work.
#[derive(Debug, Clone, Copy)]
pub struct CpuTime(f64);

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread, and every thread it starts afterwards, to
/// the CPU it runs on now, so that the probe and the campaign it scales
/// always share a core. Returns that CPU, or `None` if pinning failed.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads state.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a 1024-bit `cpu_set_t` that outlives the call,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

impl CpuTime {
    /// The clock now.
    pub fn now() -> Self {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `struct timespec` (two
        // 64-bit fields on 64-bit Linux) and the clock id is defined.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
        CpuTime(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
    }

    /// CPU seconds spent since `self`.
    pub fn elapsed_s(self) -> f64 {
        Self::now().0 - self.0
    }
}

/// CPU milliseconds the probe takes on the reference host. This
/// defines the reference host; the x86-64 container the benchmark was
/// written on takes 0.65 to 1.2 ms, depending on the moment.
const PROBE_REF_MS: f64 = 1.0;

/// Every host speed [`RefTimer::start`] measured, for the run's header.
static SPEEDS: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// The probe: a fixed mix of what a Rust program spends its time on —
/// allocation, ordered-map inserts and lookups, sorting, hashing —
/// over a few hundred KB. It depends on the toolchain alone.
fn probe() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut ordered = BTreeMap::new();
    let mut keys = Vec::with_capacity(4000);
    for _ in 0..4000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        ordered.insert(x % 5000, x);
        keys.push(x);
    }
    keys.sort_unstable();
    let mut acc = 0u64;
    for k in 0..5000 {
        if let Some(v) = ordered.get(&k) {
            acc = acc.wrapping_add(*v);
        }
    }
    let hashed: HashMap<u64, u64, BuildHasherDefault<std::collections::hash_map::DefaultHasher>> =
        keys.iter().map(|&k| (k, k ^ acc)).collect();
    for k in &keys {
        acc ^= hashed[k];
    }
    acc
}

/// The host's speed now, relative to the reference host (above 1 is
/// faster).
fn host_speed() -> f64 {
    let t = CpuTime::now();
    std::hint::black_box(probe());
    let speed = PROBE_REF_MS / (t.elapsed_s() * 1e3);
    SPEEDS.lock().expect("speed log poisoned").push(speed);
    speed
}

/// The median host speed measured so far.
pub fn median_host_speed() -> f64 {
    crate::median(&SPEEDS.lock().expect("speed log poisoned"))
}

/// Times one campaign in reference CPU seconds.
#[derive(Debug, Clone, Copy)]
pub struct RefTimer {
    start: CpuTime,
    speed: f64,
}

impl RefTimer {
    /// Measure the host speed, then start timing.
    pub fn start() -> Self {
        let speed = host_speed();
        RefTimer {
            start: CpuTime::now(),
            speed,
        }
    }

    /// Reference CPU seconds since [`RefTimer::start`].
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed_s() * self.speed
    }
}
