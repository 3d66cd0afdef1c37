//! Fixed-step workload probes for the scaling campaign.
//!
//! The campaign needs to run the *real* stack — the full RK3 step and
//! the bare pfft cycle — at many rank/thread configurations and come
//! back with two things per configuration: measured per-phase wall
//! seconds, and the telemetry counter totals that produced them. The
//! probes package the measurement-window protocol so every point is
//! measured the same way:
//!
//! 1. telemetry off, registry reset (driver, before spawning ranks);
//! 2. warmup steps (plans built, scratch allocated, pools spun up);
//! 3. barrier; rank 0 enables phase-level telemetry; barrier;
//! 4. timed steps, each rank clocking its own wall time;
//! 5. barrier; rank 0 disables telemetry; per-rank timers returned;
//! 6. driver snapshots the registry after every rank has flushed.
//!
//! Flipping the global level at a barrier (rather than resetting
//! mid-run) keeps warmup work out of the counters even when it ran on
//! rayon pool threads, whose buffers cannot be flushed from the rank
//! thread.
//!
//! The RK3 probe owns no step loop: it is a [`RunObserver`] on
//! [`dns_core::run::execute`], so the steps it times are the engine's
//! steps, clocked by the engine's own [`StepCtx::wall_s`].
//!
//! The host rows of Tables 2, 4 and 5 come from three kernel probes
//! below the stack probes — one banded solve, the on-node reorders, the
//! CommA x CommB split sweep — each the fastest of N calls, not a mean.

use crate::campaign::grid;
use dns_banded::testmat::CollocationLike;
use dns_banded::CornerLu;
use dns_core::params::Params;
use dns_core::run::{
    execute, InitialCondition, RunConfig, RunControl, RunObserver, RunSpec, RunStatus, StepCtx,
};
use dns_core::solver::{ChannelDns, PhaseTimers};
use dns_minimpi::{CartComm, Communicator, FaultPlan};
use dns_netmodel::dnscost::Grid;
use dns_pencil::reorder::{reorder_blocked, reorder_naive};
use dns_pencil::{block_len, ExchangeStrategy, RowsPlacement, TransposePlan};
use dns_pfft::{ParallelFft, PfftConfig};
use dns_telemetry as telemetry;
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One probed configuration: measured per-step phase seconds plus the
/// telemetry snapshot covering exactly the timed steps.
pub struct Probe {
    /// minimpi ranks the probe ran on.
    pub ranks: usize,
    /// FFT threads per rank.
    pub threads: usize,
    /// Timed steps (or cycles) the measurements cover.
    pub steps: usize,
    /// Critical-path wall seconds per step (max over ranks).
    pub wall_s_per_step: f64,
    /// Critical-path per-phase seconds per step (max over ranks of each
    /// phase accumulator). `ns_advance` is zero for pfft-cycle probes.
    pub seconds_per_step: PhaseTimers,
    /// Telemetry snapshot of the timed window — feed to
    /// [`dns_telemetry::counts_json`] for the machine-readable export.
    pub snapshot: telemetry::Snapshot,
}

impl Probe {
    /// Fold the per-rank `(wall, phase)` seconds of a `steps`-long window
    /// into critical-path per-step numbers, and snapshot the registry
    /// (the ranks' world has wound down, so every thread has flushed).
    fn from_ranks(threads: usize, steps: usize, per_rank: &[(f64, PhaseTimers)]) -> Probe {
        let max = |f: fn(&(f64, PhaseTimers)) -> f64| {
            per_rank.iter().map(f).fold(0.0, f64::max) / steps as f64
        };
        Probe {
            ranks: per_rank.len(),
            threads,
            steps,
            wall_s_per_step: max(|r| r.0),
            seconds_per_step: PhaseTimers {
                transpose: max(|r| r.1.transpose),
                fft: max(|r| r.1.fft),
                ns_advance: max(|r| r.1.ns_advance),
            },
            snapshot: telemetry::snapshot(),
        }
    }
}

/// Steps 3 and 5: sync the 2D grid and let its root rank flip the
/// telemetry level; when opening, sync again so no rank starts before
/// the flip.
fn fence(a: &Communicator, b: &Communicator, level: telemetry::Level) {
    b.barrier();
    a.barrier();
    if a.rank() == 0 && b.rank() == 0 {
        telemetry::set_level(level);
    }
    if level != telemetry::Level::Off {
        a.barrier();
        b.barrier();
    }
}

/// The measurement window as a [`RunObserver`]: opens once `open_at`
/// steps are done, closes once `close_at` are, and keeps one
/// `(wall seconds, phase seconds)` slot per rank — until the close the
/// phase field holds the timers read at the opening.
struct Rk3Window {
    open_at: u64,
    close_at: u64,
    per_rank: Mutex<Vec<(f64, PhaseTimers)>>,
}

impl Rk3Window {
    /// Every rank, once `step` steps are done (the last took `wall_s`).
    fn after_step(&self, dns: &ChannelDns, step: u64, wall_s: f64) {
        if step < self.open_at {
            return;
        }
        let (a, b) = (dns.pfft().comm_a(), dns.pfft().comm_b());
        if step == self.open_at {
            fence(a, b, telemetry::Level::Phases);
        } else if step == self.close_at {
            fence(a, b, telemetry::Level::Off);
        }
        let mut per_rank = self.per_rank.lock().expect("a rank panicked mid-probe");
        let slot = &mut per_rank[a.rank() * b.size() + b.rank()];
        let now = dns.timers();
        if step == self.open_at {
            *slot = (0.0, now);
            return;
        }
        slot.0 += wall_s;
        if step == self.close_at {
            slot.1 = PhaseTimers {
                transpose: now.transpose - slot.1.transpose,
                fft: now.fft - slot.1.fft,
                ns_advance: now.ns_advance - slot.1.ns_advance,
            };
        }
    }
}

impl RunObserver for Rk3Window {
    // a fresh start has zero steps done: a warmup-free window opens here
    fn on_start(&self, dns: &ChannelDns, _resumed_from: Option<u64>, _attempt: usize) {
        self.after_step(dns, dns.state().steps, 0.0);
    }

    fn on_step(&self, dns: &ChannelDns, ctx: StepCtx) {
        self.after_step(dns, ctx.step, ctx.wall_s);
    }
}

/// Run `steps` timed RK3 steps of the full solver after `warmup`
/// untimed ones, on the `pa x pb` rank grid and thread count in
/// `params`, and return the measured phase seconds and counters.
///
/// The field is seeded with the laminar profile plus a deterministic
/// perturbation so the nonlinear terms, dealiasing passes, and banded
/// solves all do representative work. The steps run through
/// [`execute`] (no checkpoints, no restarts, no health monitor) with the
/// measurement window riding along as its observer.
pub fn probe_rk3(params: Params, warmup: usize, steps: usize) -> Probe {
    assert!(steps >= 1, "need at least one timed step");
    let ranks = params.pa * params.pb;
    let threads = params.fft_threads;
    telemetry::set_level(telemetry::Level::Off);
    telemetry::reset();
    let window = Arc::new(Rk3Window {
        open_at: warmup as u64,
        close_at: (warmup + steps) as u64,
        per_rank: Mutex::new(vec![(0.0, PhaseTimers::default()); ranks]),
    });
    let spec = RunSpec {
        name: "probe_rk3".to_string(),
        params,
        steps: window.close_at,
        ckpt_every: 0,
        ic: InitialCondition::SeededTransition {
            scale: 1.0,
            amplitude: 1e-3,
            seed: 42,
        },
    };
    // nothing is written under the stem: no cadence, no final generation
    let cfg = RunConfig {
        final_checkpoint: false,
        ..RunConfig::in_dir(Path::new(""))
    };
    let outcome = execute(
        &spec,
        &cfg,
        Arc::new(RunControl::new()),
        window.clone(),
        |_| FaultPlan::none(),
    );
    assert_eq!(outcome.status, RunStatus::Done, "probe run did not finish");
    let per_rank = window.per_rank.lock().expect("a rank panicked mid-probe");
    Probe::from_ranks(threads, steps, &per_rank)
}

/// Run `cycles` timed forward+inverse pfft cycles after `warmup`
/// untimed ones. `customized` selects the paper's kernel
/// ([`PfftConfig::customized`]) vs the P3DFFT-style baseline; the
/// probe's `ns_advance` phase is always zero.
#[allow(clippy::too_many_arguments)]
pub fn probe_pfft_cycle(
    nx: usize,
    ny: usize,
    nz: usize,
    pa: usize,
    pb: usize,
    threads: usize,
    customized: bool,
    warmup: usize,
    cycles: usize,
) -> Probe {
    assert!(cycles >= 1, "need at least one timed cycle");
    telemetry::set_level(telemetry::Level::Off);
    telemetry::reset();
    let per_rank = dns_minimpi::run(pa * pb, move |world| {
        let cfg = if customized {
            PfftConfig::customized(nx, ny, nz, pa, pb).with_threads(threads)
        } else {
            PfftConfig::p3dfft_baseline(nx, ny, nz, pa, pb).with_threads(threads)
        };
        let p = ParallelFft::new(world, cfg);
        let n = p.x_pencil_len();
        let x: Vec<f64> = (0..n).map(|i| (i % 13) as f64 - 6.0).collect();
        for _ in 0..warmup {
            let _ = p.cycle(&x);
        }
        p.reset_timers();
        fence(p.comm_a(), p.comm_b(), telemetry::Level::Phases);
        let t0 = Instant::now();
        for _ in 0..cycles {
            let _ = p.cycle(&x);
        }
        let wall = t0.elapsed().as_secs_f64();
        fence(p.comm_a(), p.comm_b(), telemetry::Level::Off);
        let t = p.timers();
        (
            wall,
            PhaseTimers {
                transpose: t.transpose,
                fft: t.fft,
                ns_advance: 0.0,
            },
        )
    });
    Probe::from_ranks(threads, cycles, &per_rank)
}

/// Seconds of the fastest of `reps` calls of `f`, after one untimed
/// call. On a shared host the mean of a kernel's timings measures the
/// neighbours; the minimum measures the kernel.
fn fastest(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let timed = (0..reps).map(|_| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64()
    });
    timed.fold(f64::INFINITY, f64::min)
}

/// Table 2's host row: seconds of one bandwidth-15
/// [`CornerLu::solve_complex`] on the N = 1024 Table 1 matrix (complex
/// right-hand side against real factors, solved in place).
pub fn probe_banded_solve(reps: usize) -> f64 {
    let cfg = CollocationLike::table1(15);
    let lu = CornerLu::factor(cfg.corner()).expect("the Table 1 matrix factors");
    let mut rhs = cfg.rhs();
    fastest(reps, || {
        lu.solve_complex(&mut rhs);
        black_box(&rhs);
    })
}

/// Table 4's host rows at the spectral grid `g`, as `(kernel, shape,
/// seconds of one pass)` over 16-byte elements: the reorders the solver
/// runs on one rank — [`TransposePlan::run_with`]'s `p == 1` arm at the
/// x<->z ([`RowsPlacement::Outer`]) and z<->y ([`RowsPlacement::Middle`])
/// shapes `[rows, nf, nt]` that `ParallelFft` plans for `g` — beside
/// [`reorder_naive`] and [`reorder_blocked`] at the z<->y element count
/// (shape `[ni, nj, nk]`).
pub fn probe_reorder(g: Grid, reps: usize) -> Vec<(&'static str, [usize; 3], f64)> {
    let plans = [
        (
            "transpose_outer",
            [g.ny, g.pz(), g.sx()],
            RowsPlacement::Outer,
        ),
        (
            "transpose_middle",
            [g.sx(), g.ny, g.nz],
            RowsPlacement::Middle,
        ),
    ];
    let on_one_rank = dns_minimpi::run(1, move |world| {
        plans.map(|(kernel, shape, placement)| {
            let [rows, nf, nt] = shape;
            let strategy = ExchangeStrategy::AllToAll;
            let plan = TransposePlan::with_placement(&world, rows, nf, nt, strategy, placement);
            let input = vec![[1.0f64; 2]; plan.input_len()];
            let (mut send, mut out) = (Vec::new(), Vec::new());
            let seconds = fastest(reps, || {
                plan.run_with(&world, &input, &mut send, &mut out);
                black_box(&out);
            });
            (kernel, shape, seconds)
        })
    });
    let mut probes = on_one_rank[0].to_vec();
    let shape @ [ni, nj, nk] = [g.ny, g.sx(), g.nz];
    let a = vec![[1.0f64; 2]; ni * nj * nk];
    let mut out = a.clone();
    let naive = fastest(reps, || {
        reorder_naive(&a, ni, nj, nk, &mut out);
        black_box(&out);
    });
    probes.push(("reorder_naive", shape, naive));
    let blocked = fastest(reps, || {
        reorder_blocked(&a, ni, nj, nk, &mut out, 16);
        black_box(&out);
    });
    probes.push(("reorder_blocked_16", shape, blocked));
    probes
}

/// Ranks of the Table 5 functional sweep.
pub const SPLIT_RANKS: usize = 8;
/// Spectral grid of the Table 5 functional sweep.
pub const SPLIT_GRID: Grid = grid(64, 32, 64);

/// Table 5's host rows, `(CommA, CommB, seconds)` like the paper's: every
/// factorisation of [`SPLIT_RANKS`] minimpi ranks, each running one x<->z
/// exchange over CommA and one z<->y exchange over CommB of
/// [`SPLIT_GRID`] (seconds of the pair on the slowest rank). All ranks
/// share one memory, so the paper's preference for a node-local CommB
/// has no analogue here; the rows exercise `CartComm::sub` and the
/// planned exchanges end to end.
pub fn probe_split_sweep(reps: usize) -> Vec<(usize, usize, f64)> {
    let (nx, ny, nz) = (SPLIT_GRID.nx, SPLIT_GRID.ny, SPLIT_GRID.nz);
    let per_rank = dns_minimpi::run(SPLIT_RANKS, move |world| {
        [(8usize, 1usize), (4, 2), (2, 4), (1, 8)].map(|(pa, pb)| {
            let cart = CartComm::new(world.dup(), &[pa, pb]);
            let (comm_a, comm_b) = (cart.sub(0), cart.sub(1));
            let nyl = block_len(ny, pb, comm_b.rank());
            let sxl = block_len(nx / 2, pa, comm_a.rank());
            let (all, middle) = (ExchangeStrategy::AllToAll, RowsPlacement::Middle);
            let t_a = TransposePlan::new(&comm_a, nyl, nz, nx / 2, all);
            let t_b = TransposePlan::with_placement(&comm_b, sxl, ny, nz, all, middle);
            let xa = vec![1.0f64; t_a.input_len()];
            let xb = vec![1.0f64; t_b.input_len()];
            let (mut send, mut mid, mut up) = (Vec::new(), Vec::new(), Vec::new());
            comm_a.barrier();
            let mine = fastest(reps, || {
                t_a.run_with(&comm_a, &xa, &mut send, &mut mid);
                t_b.run_with(&comm_b, &xb, &mut send, &mut up);
                black_box((&mid, &up));
            });
            (pa, pb, comm_b.allreduce_max(comm_a.allreduce_max(mine)))
        })
    });
    per_rank[0].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rk3_probe_measures_time_and_counts() {
        let p = Params::channel(16, 17, 16, 180.0).with_dt(1e-4);
        let probe = probe_rk3(p, 1, 2);
        assert_eq!(probe.ranks, 1);
        assert_eq!(probe.steps, 2);
        assert!(probe.wall_s_per_step > 0.0);
        assert!(probe.seconds_per_step.fft > 0.0);
        assert!(probe.seconds_per_step.ns_advance > 0.0);
        let by_phase = probe.snapshot.total_counters_by_phase();
        use telemetry::{Counter, Phase};
        assert!(by_phase[Phase::Fft as usize].get(Counter::Flops) > 0);
        assert!(by_phase[Phase::NsAdvance as usize].get(Counter::Flops) > 0);
    }

    #[test]
    fn pfft_probe_counts_fft_flops_and_transpose_bytes() {
        let probe = probe_pfft_cycle(16, 9, 16, 2, 1, 1, true, 1, 2);
        assert_eq!(probe.ranks, 2);
        assert!(probe.wall_s_per_step > 0.0);
        assert!(probe.seconds_per_step.ns_advance == 0.0);
        let by_phase = probe.snapshot.total_counters_by_phase();
        use telemetry::{Counter, Phase};
        assert!(by_phase[Phase::Fft as usize].get(Counter::Flops) > 0);
        assert!(by_phase[Phase::Transpose as usize].get(Counter::DdrBytes) > 0);
    }
}
