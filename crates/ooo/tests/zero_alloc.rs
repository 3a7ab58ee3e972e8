//! Counting-allocator proof that the core simulator's steady-state hot
//! loops allocate nothing: after one warm-up run populates the scratch
//! (decoded trace + rings + predictor tables), further runs — including
//! a different configuration over the same trace and a full CPI stack —
//! must perform **zero** heap allocations. Kept in its own integration-test
//! binary (one test function, so no concurrent test can perturb the
//! global counter) so the allocator hook does not interfere with other
//! suites.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cryowire_ooo::{CoreConfig, CoreScratch, CoreSimulator, TraceConfig};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Passes everything through to the system allocator, counting every
/// allocation (and growth reallocation).
struct CountingAllocator;

// SAFETY: defers entirely to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_hot_loop_allocates_nothing() {
    let trace = TraceConfig::parsec_like().generate(40_000, 7);
    let skylake = CoreSimulator::new(CoreConfig::skylake_8_wide());
    let cryosp = CoreSimulator::new(CoreConfig::cryosp());
    let mut scratch = CoreScratch::new();

    // Warm-up: decodes the trace, sizes the rings for the largest
    // window, allocates the predictor tables.
    let warm = skylake.run_with_scratch(&trace, &mut scratch);
    let _ = cryosp.run_with_scratch(&trace, &mut scratch);
    let _ = skylake.cpi_stack_with_scratch(&trace, &mut scratch);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let steady = skylake.run_with_scratch(&trace, &mut scratch);
    let again = cryosp.run_with_scratch(&trace, &mut scratch);
    let stack = skylake.cpi_stack_with_scratch(&trace, &mut scratch);
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(warm, steady, "scratch reuse must not change results");
    assert_eq!(again, cryosp.run_with_scratch(&trace, &mut scratch));
    assert_eq!(stack.iter().sum::<u64>(), steady.cycles);
    assert_eq!(
        after - before,
        0,
        "steady-state run_with_scratch / cpi_stack must not allocate"
    );
}
