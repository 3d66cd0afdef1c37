//! Pins the largest number of live heap bytes a 32x33x32 single-rank run
//! holds through set-up and three RK3 steps, exactly.
//!
//! `peak_rss_mb` moves between glibc heap modes on identical code; the
//! live-byte count of an allocator that tracks frees as well as
//! allocations does not. As in `zero_alloc.rs`, the counters are
//! thread-local and armed only on the rank thread around the measured
//! run, so allocation traffic of the test harness cannot reach them; the
//! run is single-rank with serial transforms, so the rank thread does all
//! of its work and the peak repeats bit for bit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct PeakAlloc;

thread_local! {
    // const-init Cells: reading them from inside `alloc` cannot itself
    // trigger lazy TLS initialisation (which may allocate)
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// `delta` more bytes are live on this thread (fewer when negative).
fn count(delta: isize) {
    if ARMED.with(|a| a.get()) {
        let live = LIVE.with(|l| {
            l.set(l.get() + delta);
            l.get()
        });
        PEAK.with(|p| p.set(p.get().max(live)));
    }
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// The measured peak: a change that holds more fails here, and one that
/// holds less lowers it to its own value.
const CEILING: isize = 9_945_080;

#[test]
fn set_up_and_three_steps_hold_at_most_the_pinned_peak() {
    let params = dns_core::Params::channel(32, 33, 32, 180.0);
    let peak = dns_minimpi::run(1, move |world| {
        ARMED.with(|a| a.set(true));
        let mut dns = dns_core::ChannelDns::new(world, params.clone());
        dns.set_laminar(1.0);
        dns.add_perturbation(0.3, 17);
        for _ in 0..3 {
            dns.step();
        }
        ARMED.with(|a| a.set(false));
        drop(dns);
        PEAK.with(|p| p.get())
    })[0];
    println!("peak live bytes over set-up + 3 steps at 32x33x32: {peak}");
    assert!(peak <= CEILING, "peak live {peak} B > pinned {CEILING} B");
}
