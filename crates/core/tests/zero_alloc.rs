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
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.with(|a| a.get()) {
            ALLOCS.with(|c| c.set(c.get() + 1));
            BYTES.with(|c| c.set(c.get() + layout.size() as u64));
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

/// `(step, allocations, bytes)` of each production loop iteration, from
/// one `on_step` to the next, on the rank thread.
struct IterationAllocs(std::sync::Mutex<Vec<(u64, u64, u64)>>);

impl dns_core::run::RunObserver for IterationAllocs {
    fn on_start(&self, _: &dns_core::ChannelDns, _: Option<u64>, _: usize) {
        ARMED.with(|a| a.set(true));
    }

    fn on_step(&self, _: &dns_core::ChannelDns, ctx: dns_core::run::StepCtx) {
        let seen = (
            ctx.step,
            ALLOCS.with(|c| c.replace(0)),
            BYTES.with(|c| c.replace(0)),
        );
        // room for every step was reserved up front: the push is free
        self.0.lock().expect("no panic holds it").push(seen);
    }
}

#[test]
fn steady_production_iteration_allocates_a_small_constant() {
    use dns_core::run::{execute, RunConfig, RunControl, RunSpec, RunStatus};
    let dir = std::env::temp_dir().join(format!("dns_zero_alloc_{}", std::process::id()));
    // long enough for the flight recorder's buffer to see its first
    // write-through (16 KiB, some 60 steps of two lines): from then on
    // it has its final capacity
    let (steps, warm) = (80, 64);
    let spec = RunSpec {
        params: dns_core::Params::channel(16, 25, 16, 100.0).with_dt(1e-3),
        steps,
        ckpt_every: 0,
        ..RunSpec::default()
    };
    let cfg = RunConfig {
        final_checkpoint: false,
        health: Some(dns_core::health::MonitorConfig {
            log: Some(dir.join("health.jsonl")),
            ..Default::default()
        }),
        stats: Some(dns_core::stats::StatsConfig {
            every: 5,
            warmup: 0,
        }),
        ..RunConfig::in_dir(&dir)
    };
    let seen = std::sync::Arc::new(IterationAllocs(std::sync::Mutex::new(Vec::with_capacity(
        steps as usize,
    ))));
    let ctl = std::sync::Arc::new(RunControl::new());
    let outcome = execute(&spec, &cfg, ctl, seen.clone(), |_| {
        dns_minimpi::FaultPlan::none()
    });
    assert_eq!(outcome.status, RunStatus::Done);
    let _ = std::fs::remove_dir_all(&dir);

    // an iteration: the verdict broadcast, the step, the sentinels (one
    // sweep on the monitor's scratch, the reductions' own vectors), the
    // gathered row and two recorder lines; every fifth also samples
    let seen = seen.0.lock().unwrap();
    let plain: Vec<_> = seen
        .iter()
        .filter(|(step, ..)| *step > warm && step % 5 != 0)
        .collect();
    assert_eq!(plain.len(), 12, "{seen:?}");
    // 0 / 0 would mean the counter never saw this thread's iterations:
    // the reductions' own vectors alone are a handful
    assert!(
        plain[0].1 > 0 && plain[0].2 > 0,
        "counting unarmed: {seen:?}"
    );
    for &&(step, allocs, bytes) in &plain {
        assert_eq!((allocs, bytes), (plain[0].1, plain[0].2), "step {step}");
        assert!(
            allocs <= 16 && bytes <= 8192,
            "step {step}: {allocs} allocations, {bytes} B"
        );
    }
}
