//! The allocation budget of the steady-state hot loop.
//!
//! A counting global allocator wraps [`System`] and tallies every
//! `alloc`/`realloc` in a per-thread counter, so each test measures only
//! the allocations of its own thread, whatever runs beside it. The test
//! warms an engine into steady state (all streams admitted, scratch
//! vectors and heap capacities grown), then advances simulated time
//! across a window of pure service cycles and asserts the window
//! allocated **nothing** (static scheme) or within a tiny amortised
//! bound (dynamic scheme, whose audit log may grow).
//!
//! Meaningful only in release mode: debug builds run the engine's
//! shadow-scan `debug_assert!`s, which are allowed to allocate. The test
//! is a no-op under `debug_assertions` so plain `cargo test` stays
//! green; CI runs it with `cargo test --release`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vod_core::SchemeKind;
use vod_sched::SchedulingMethod;
use vod_sim::{DiskEngine, EngineConfig};
use vod_types::{DiskId, Instant, Seconds, VideoId};
use vod_workload::Arrival;

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates or re-enters.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is being torn down, after
    // any measurement has ended.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Drives `streams` arrivals into a fresh engine, warms it for
/// `warm_s` simulated seconds, then measures allocations across a
/// `window_s` steady-state window. Returns `(allocs_in_window, cycles)`
/// where `cycles` is the whole run's cycle count (a sanity floor that
/// the window actually contained service cycles).
fn measure(scheme: SchemeKind, streams: u64, warm_s: f64, window_s: f64) -> (u64, u64) {
    let cfg = EngineConfig::paper(SchedulingMethod::RoundRobin, scheme);
    let mut engine = DiskEngine::new(cfg).expect("paper config is valid");
    // All viewings outlast the window: the measured stretch is pure
    // cycle service — no arrivals, no departures, no pool churn.
    for i in 0..streams {
        engine.offer(&Arrival {
            at: Instant::ZERO,
            disk: DiskId::new(0),
            video: VideoId::new(i % 8),
            viewing: Seconds::from_secs(warm_s + window_s + 600.0),
        });
    }
    engine.advance_to(Instant::from_secs(warm_s));
    let before = allocations();
    engine.advance_to(Instant::from_secs(warm_s + window_s));
    let in_window = allocations() - before;
    let stats = engine.finish();
    assert_eq!(
        stats.underflows, 0,
        "{scheme:?}: steady state must not underflow"
    );
    (in_window, stats.cycles)
}

#[test]
fn static_steady_state_cycles_are_allocation_free() {
    if cfg!(debug_assertions) {
        eprintln!("alloc_budget: skipped (debug build runs allocating shadow-scan asserts)");
        return;
    }
    let (allocs, cycles) = measure(SchemeKind::Static, 20, 120.0, 60.0);
    assert!(
        cycles > 100,
        "window must span real service cycles, got {cycles}"
    );
    assert_eq!(
        allocs, 0,
        "static steady-state window performed {allocs} heap allocations; the hot loop must not allocate"
    );
}

#[test]
fn dynamic_steady_state_cycles_stay_within_the_amortised_budget() {
    if cfg!(debug_assertions) {
        eprintln!("alloc_budget: skipped (debug build runs allocating shadow-scan asserts)");
        return;
    }
    // The dynamic scheme's estimator window state and table cache make
    // its steady-state cycle allocation-free too; the only permitted heap
    // traffic is amortised growth of long-lived containers (audit log,
    // due heap) — a handful of reallocs across thousands of cycles.
    let (allocs, cycles) = measure(SchemeKind::Dynamic, 20, 120.0, 60.0);
    assert!(
        cycles > 100,
        "window must span real service cycles, got {cycles}"
    );
    assert!(
        allocs <= 8,
        "dynamic steady-state window performed {allocs} heap allocations (budget 8)"
    );
}
