//! Measurements of the host process rather than of a layer: CPU time,
//! resident and heap memory, and the host's speed at the moment.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// User plus system CPU seconds this process has used so far, from
/// `/proc/self/stat` (0 where it cannot be read).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        // utime and stime (fields 14 and 15), in USER_HZ = 100 ticks/s.
        (Some(u), Some(s)) => (u + s) as f64 / 100.0,
        _ => 0.0,
    }
}

/// Host speed now: the best of eight timings of a fixed chain of
/// dependent integer multiplies and shifts, in ns per iteration. The
/// chain shares no code with the simulator, yet on a shared host its
/// speed follows the simulator's through co-tenants' slow phases
/// (correlation 0.9 over seven minutes of them on a 2-vCPU Xeon host),
/// though it slows less than the memory-heavy sweeps do.
pub fn reference_ns_per_iter() -> f64 {
    const ITERS: u64 = 2_500_000;
    (0..8)
        .map(|_| {
            let t = Instant::now();
            let mut h = black_box(0xcbf2_9ce4_8422_2325u64);
            for i in 0..black_box(ITERS) {
                h ^= i;
                h = h.wrapping_mul(0x0100_0000_01b3);
                h ^= h >> 29;
            }
            black_box(h);
            t.elapsed().as_nanos() as f64 / ITERS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// The global allocator of the benchmark: `System`, counting live heap
/// bytes and their peak. A seed's allocation sequence repeats exactly on
/// the single-lane untraced path, so the peak repeats too, unlike the
/// resident set, which moves by megabytes from run to run with what the
/// allocator keeps mapped.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn note_alloc(size: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns its result, so `System`'s guarantees are this allocator's; the
// counters only read sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s
        // contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s
        // contract, and `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s
        // contract, and `ptr` came from `System` through this allocator.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            note_alloc(new_size);
        }
        p
    }
}

/// Peak live heap of this process in MiB.
pub fn peak_heap_mib() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
