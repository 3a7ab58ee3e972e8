//! Counting-allocator proof that the steady-state hot loops allocate
//! nothing: after one warm-up run populates the scratch (route arena +
//! free vector), a further fault-free run must perform **zero** heap
//! allocations. The same holds for a reused flit-level network, whose
//! `run` resets its buffers and injection queues in place. Kept in its
//! own integration-test binary (one test function, so no concurrent test
//! can perturb the global counter) so the allocator hook does not
//! interfere with other suites.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cryowire_device::Temperature;
use cryowire_faults::FaultSchedule;
use cryowire_noc::{
    CryoBus, FlitConfig, FlitNetwork, RouterClass, SimConfig, SimScratch, Simulator, TrafficPattern,
};

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
    let t77 = Temperature::liquid_nitrogen();
    let net = CryoBus::two_way(64, t77);
    let sim = Simulator::new(SimConfig {
        cycles: 6_000,
        warmup: 1_000,
        ..SimConfig::default()
    });
    let empty = FaultSchedule::default();
    let mut scratch = SimScratch::new();

    // Warm-up: builds the route arena and sizes the free vector.
    let warm = sim
        .run_with_scratch(
            &net,
            TrafficPattern::UniformRandom,
            0.008,
            &empty,
            &mut scratch,
        )
        .expect("valid run");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let steady = sim
        .run_with_scratch(
            &net,
            TrafficPattern::UniformRandom,
            0.008,
            &empty,
            &mut scratch,
        )
        .expect("valid run");
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(warm, steady, "scratch reuse must not change results");
    assert_eq!(
        after - before,
        0,
        "steady-state run_with_scratch must not allocate"
    );

    // Flit-level engine: the first run sizes the injection queues; a
    // second run on the same network must reuse everything.
    let mut flit = FlitNetwork::new(FlitConfig::table4_mesh64(RouterClass::OneCycle))
        .expect("valid flit config");
    let warm = flit
        .run(TrafficPattern::UniformRandom, 0.05, 4_000, 1_000, 7)
        .expect("valid run");
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let steady = flit
        .run(TrafficPattern::UniformRandom, 0.05, 4_000, 1_000, 7)
        .expect("valid run");
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(warm, steady, "a reused flit network must reset completely");
    assert_eq!(
        after - before,
        0,
        "a reused FlitNetwork::run must not allocate"
    );
}
