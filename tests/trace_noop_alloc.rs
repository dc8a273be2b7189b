//! What a run does not ask for, it does not pay for: a request under a
//! default config plus a never-firing `CancelToken` performs exactly the
//! same heap allocations as the request without the token — no trace
//! header strings, no `PoolMonitor`, no counter series — while a
//! collecting sink allocates strictly more than both. The check runs
//! alone in this binary so a counting global allocator sees only its own
//! traffic: each run builds its own two-thread pool (the allocation
//! counter is global, so the worker's traffic is included; the pool is
//! joined before the run returns) with a grain large enough that every
//! phase executes inline on the calling thread, making the allocation
//! count exact and repeatable.

use branch_avoiding_graphs::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator with a global allocation counter. `dealloc` is not
/// counted — the contract under test is about performing extra work, and
/// frees mirror the allocations anyway.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// One request three ways — default config, plus a never-firing cancel
/// token, plus a collecting sink — each closure returning whether the
/// run completed.
fn check(
    kernel: &str,
    sink: &MemorySink,
    plain: impl Fn() -> bool,
    cancellable: impl Fn() -> bool,
    traced: impl Fn() -> bool,
) {
    // Warm up once so lazy one-time initialisation is off the books.
    assert!(plain());
    let baseline = allocations_during(|| assert!(plain()));
    assert_eq!(
        allocations_during(|| assert!(plain())),
        baseline,
        "{kernel}: plain runs are not repeatable"
    );
    assert_eq!(
        allocations_during(|| assert!(cancellable())),
        baseline,
        "{kernel}: a never-firing cancel token changed the run's allocations"
    );
    // A collecting sink pays for what it records — header strings, a pool
    // monitor, a counter series, the events — strictly more than either.
    let collected = allocations_during(|| assert!(traced()));
    assert!(!sink.take().is_empty(), "{kernel}: the sink saw no events");
    assert!(
        collected > baseline,
        "{kernel}: collecting sink ({collected} allocations) should exceed the plain run ({baseline})"
    );
}

#[test]
fn a_cancel_token_adds_no_allocations_to_a_request() {
    let g = generators::grid_2d(32, 32, generators::MeshStencil::VonNeumann);
    // A grain far above the total edge weight keeps every phase inline.
    let config = RunConfig::new().threads(2).grain(1_000_000_000);
    let token = CancelToken::new();
    let sink = MemorySink::new();

    let cc = Variant::BranchAvoiding;
    check(
        "cc",
        &sink,
        || run_components(&g, cc, &config).1.is_completed(),
        || {
            run_components(&g, cc, &config.cancel(&token))
                .1
                .is_completed()
        },
        || {
            run_components(&g, cc, &config.traced(&sink))
                .1
                .is_completed()
        },
    );
    let bfs = BfsStrategy::Plain(Variant::BranchAvoiding);
    check(
        "bfs",
        &sink,
        || run_bfs(&g, 0, bfs, &config).1.is_completed(),
        || run_bfs(&g, 0, bfs, &config.cancel(&token)).1.is_completed(),
        || run_bfs(&g, 0, bfs, &config.traced(&sink)).1.is_completed(),
    );
}
