//! Pins the headline property of the fused pipeline: once the grow-only
//! workspaces are warm, a full RK3 step on a single rank with serial
//! transforms performs **zero** heap allocations.
//!
//! The counting allocator is thread-local and armed only around the
//! measured step, so the test is immune to allocation traffic from other
//! test threads and from the rank-spawning harness itself. The guarantee
//! intentionally excludes multi-rank runs (per-message exchange staging)
//! and the threaded pool (scoped-thread spawns) — see DESIGN.md section
//! 4.1.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // const-init Cells: reading them from inside `alloc` cannot itself
    // trigger lazy TLS initialisation (which may allocate)
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.with(|a| a.get()) {
            ALLOCS.with(|c| c.set(c.get() + 1));
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_rk3_step_performs_zero_heap_allocations() {
    // the multi-RHS panels in StepScratch are grow-only, so they must
    // not allocate once warm.
    let params = dns_core::Params::channel(16, 25, 16, 100.0);
    let allocs = dns_core::run_serial(params, |dns| {
        dns.set_laminar(1.0);
        dns.add_perturbation(0.3, 17);
        // two warmup steps size every grow-only buffer (workspaces,
        // batch plans, transpose staging) to steady state
        for _ in 0..2 {
            dns.step();
        }
        ARMED.with(|a| a.set(true));
        dns.step();
        ARMED.with(|a| a.set(false));
        ALLOCS.with(|c| c.get())
    });
    assert_eq!(
        allocs, 0,
        "steady-state RK3 step made {allocs} heap allocations"
    );
}

#[test]
fn solver_setup_allocates_per_block_not_per_mode() {
    let setup_allocs = |params: dns_core::Params| -> u64 {
        let per_rank = dns_minimpi::run(1, move |world| {
            ARMED.with(|a| a.set(true));
            let dns = dns_core::ChannelDns::new(world, params.clone());
            ARMED.with(|a| a.set(false));
            drop(dns);
            ALLOCS.with(|c| c.get())
        });
        per_rank[0]
    };
    // 16 x 17 x 16: 119 regular modes in 15 panel blocks. The lane-blocked
    // wall-normal set-up allocates its streams, Green's columns and two
    // work blocks once, plus the nodes of the factor-block index; one
    // scalar solver per mode took ~30 allocations per *mode*. What does
    // not scale with the batch (plans, operators) cancels against the
    // same construction at a quarter of the modes.
    let full = setup_allocs(dns_core::Params::channel(16, 17, 16, 100.0));
    let base = setup_allocs(dns_core::Params::channel(8, 17, 8, 100.0));
    let blocks = 15u64;
    assert!(
        full.saturating_sub(base) < 2 * blocks,
        "ChannelDns::new made {full} allocations ({base} at a quarter of the modes)"
    );
}
