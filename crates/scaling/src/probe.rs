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
//! The host rows of Tables 1, 2, 4 and 5 and the fusion ablation come
//! from the kernel probes below the stack probes — the banded solvers,
//! the nonlinear evaluation fused and unfused, the on-node reorders,
//! the CommA x CommB split sweep — each the fastest of N calls, not a
//! mean, and each pinned to its oracle before it is timed.

use crate::campaign::grid;
use crate::model::dnscost::Grid;
use crate::paper;
use dns_banded::testmat::CollocationLike;
use dns_banded::{BandedLu, BatchedFactor, CornerLu, LaneBand, RhsPanel, C64, LANES};
use dns_bspline::{tanh_breakpoints, BsplineBasis, CollocationOps};
use dns_core::nonlinear::{self, NlTerms, NlWorkspace};
use dns_core::params::Params;
use dns_core::run::{
    execute, InitialCondition, RunConfig, RunControl, RunObserver, RunSpec, RunStatus, StepCtx,
};
use dns_core::solver::{run_serial, ChannelDns};
use dns_minimpi::{CartComm, Communicator, FaultPlan};
use dns_pencil::reorder::{reorder_blocked, reorder_naive};
use dns_pencil::{block_len, ExchangeStrategy, RowsPlacement, TransposePlan};
use dns_pfft::{ParallelFft, PfftConfig};
use dns_telemetry::{self as telemetry, PhaseSeconds};
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
    pub seconds_per_step: PhaseSeconds,
    /// Telemetry snapshot of the timed window — feed to
    /// [`dns_telemetry::counts_json`] for the machine-readable export.
    pub snapshot: telemetry::Snapshot,
}

impl Probe {
    /// Fold the per-rank `(wall, phase)` seconds of a `steps`-long window
    /// into critical-path per-step numbers, and snapshot the registry
    /// (the ranks' world has wound down, so every thread has flushed).
    fn from_ranks(threads: usize, steps: usize, per_rank: &[(f64, PhaseSeconds)]) -> Probe {
        let per_step = |s: f64| s / steps as f64;
        let phases = per_rank.iter().map(|r| r.1);
        Probe {
            ranks: per_rank.len(),
            threads,
            steps,
            wall_s_per_step: per_step(per_rank.iter().map(|r| r.0).fold(0.0, f64::max)),
            seconds_per_step: phases
                .fold(PhaseSeconds::default(), PhaseSeconds::max)
                .map(per_step),
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
    per_rank: Mutex<Vec<(f64, PhaseSeconds)>>,
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
            slot.1 = now - slot.1;
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
        per_rank: Mutex::new(vec![(0.0, PhaseSeconds::default()); ranks]),
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
        (wall, p.timers())
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

/// Bandwidth of the batched sweep: the DNS operators' width.
pub const SWEEP_BANDWIDTH: usize = 15;
/// Threads of the batched sweep's threaded panel solve.
pub const PANEL_THREADS: usize = 2;

/// One point of Table 1's batched sweep: `width` distinct operators
/// (same band structure, different entries — as the per-(kx,kz)
/// Helmholtz operators of the DNS), solved one by one and as one panel.
pub struct SweepRow {
    /// Matrix size.
    pub n: usize,
    /// Right-hand sides (and operators) per panel.
    pub width: usize,
    /// Seconds of `width` scalar [`CornerLu::solve_complex`] calls, of
    /// one [`BatchedFactor::solve_panel`], and of the same panel on
    /// [`PANEL_THREADS`] threads.
    pub seconds: [f64; 3],
    /// Largest batched-vs-scalar relative difference (pinned < 1e-12).
    pub max_rel_err: f64,
    /// One operator shared by every column: `[scalar, panel]` seconds of
    /// `width` solves ...
    pub shared_solve_s: [f64; 2],
    /// ... and of `width` matvecs.
    pub shared_matvec_s: [f64; 2],
}

/// Table 1's host rows.
pub struct Table1 {
    /// Size of the classic rows' matrix ([`CollocationLike::table1`]'s).
    pub n: usize,
    /// Per bandwidth of [`paper::TABLE1`], seconds of one size-`n`
    /// solve, `[general real-split, general complex, corner]`; the
    /// bandwidth-15 corner solve is also Table 2's host row.
    pub classic: Vec<(usize, [f64; 3])>,
    /// The batched sweep, size by size, width by width.
    pub sweep: Vec<SweepRow>,
    /// `(ny, width, [per mode, lane-blocked])` seconds of building one
    /// Helmholtz family's factors.
    pub setup: Vec<(usize, usize, [f64; 2])>,
}

/// Table 1's host rows: the classic comparison at every bandwidth of
/// [`paper::TABLE1`] (fastest of `10 * reps` solves, the operators
/// factored once as the DNS does), the batched sweep over `sizes` x
/// `widths` and the set-up rows at `setups` (fastest of `reps`). Every
/// timed call refills its right-hand sides, on both sides of a
/// comparison.
pub fn probe_table1(
    sizes: &[usize],
    widths: &[usize],
    setups: &[(usize, usize)],
    reps: usize,
) -> Table1 {
    let classic = paper::TABLE1.iter().map(|&(bw, ..)| {
        let cfg = CollocationLike::table1(bw);
        let rhs = cfg.rhs();
        let lu_r = BandedLu::factor(&cfg.general::<f64>()).expect("Table 1 matrix factors");
        let lu_z = BandedLu::factor(&cfg.general::<C64>()).expect("Table 1 matrix factors");
        let lu_c = CornerLu::factor(cfg.corner()).expect("Table 1 matrix factors");
        let (mut buf, mut scratch) = (rhs.clone(), vec![0.0; 2 * cfg.n]);
        let mut solve = |f: &dyn Fn(&mut [C64], &mut [f64])| {
            fastest(10 * reps, || {
                buf.copy_from_slice(&rhs);
                f(&mut buf, &mut scratch);
                black_box(&buf);
            })
        };
        let seconds = [
            solve(&|x, s| lu_r.solve_complex_split(x, s)),
            solve(&|x, _| lu_z.solve(x)),
            solve(&|x, _| lu_c.solve_complex(x)),
        ];
        (bw, seconds)
    });
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(PANEL_THREADS)
        .build()
        .expect("a rayon pool");
    let points = sizes
        .iter()
        .flat_map(|&n| widths.iter().map(move |&w| (n, w)));
    let sweep = points.map(|(n, width)| sweep_point(n, width, reps, &pool));
    let setup = setups
        .iter()
        .map(|&(ny, w)| (ny, w, setup_point(ny, w, reps)));
    Table1 {
        n: CollocationLike::table1(SWEEP_BANDWIDTH).n,
        classic: classic.collect(),
        sweep: sweep.collect(),
        setup: setup.collect(),
    }
}

fn sweep_point(n: usize, width: usize, reps: usize, pool: &rayon::ThreadPool) -> SweepRow {
    let p = SWEEP_BANDWIDTH / 2;
    let mats: Vec<_> = (1..=width as u64)
        .map(|seed| CollocationLike { n, p, nc: 2, seed }.corner())
        .collect();
    let lus: Vec<_> = mats
        .iter()
        .map(|m| CornerLu::factor(m.clone()).expect("sweep matrix factors"))
        .collect();
    let a = mats[0].clone();
    let batch = BatchedFactor::factor(mats).expect("sweep matrices factor");
    // one distinct complex RHS per operator, as each mode of the DNS
    let rhs: Vec<Vec<C64>> = (0..width).map(|m| wave(n, m)).collect();
    let mut panel = RhsPanel::new(n, width);
    let refill = |panel: &mut RhsPanel| {
        for (m, col) in rhs.iter().enumerate() {
            panel.load_col(m, col);
        }
    };
    refill(&mut panel);
    batch.solve_panel(&mut panel);
    let mut max_rel_err = 0.0f64;
    for (m, col) in rhs.iter().enumerate() {
        let mut x = col.clone();
        lus[m].solve_complex(&mut x);
        for (j, xs) in x.iter().enumerate() {
            let rel = (panel.at(j, m) - xs).norm() / (1.0 + xs.norm());
            max_rel_err = max_rel_err.max(rel);
        }
    }
    assert!(
        max_rel_err < 1e-12,
        "batched/scalar drift {max_rel_err:.3e} at n={n} width={width}"
    );
    // one operator shared by every column: the panel sweeps are pinned
    // bitwise to the scalar kernels
    let lu = &lus[0];
    refill(&mut panel);
    let mut y = RhsPanel::new(n, width);
    a.matvec_panel(&panel, &mut y);
    lu.solve_panel(&mut panel);
    let mut want = vec![C64::new(0.0, 0.0); n];
    for (m, col) in rhs.iter().enumerate() {
        a.matvec_complex(col, &mut want);
        assert_eq!(y.col_to_vec(m), want, "shared matvec, n={n} col {m}");
        want.copy_from_slice(col);
        lu.solve_complex(&mut want);
        assert_eq!(panel.col_to_vec(m), want, "shared solve, n={n} col {m}");
    }

    // a scalar timing calls `f(column, out)` per column, a panel timing
    // refills the panel and sweeps it once
    let mut buf = want;
    let mut per_col = |f: &dyn Fn(usize, &mut [C64])| {
        fastest(reps, || {
            for m in 0..width {
                f(m, &mut buf);
                black_box(&buf);
            }
        })
    };
    let solve = |lu: &CornerLu, m: usize, x: &mut [C64]| {
        x.copy_from_slice(&rhs[m]);
        lu.solve_complex(x);
    };
    let scalar = per_col(&|m, x| solve(&lus[m], m, x));
    let shared_solve = per_col(&|m, x| solve(lu, m, x));
    let shared_matvec = per_col(&|m, x| a.matvec_complex(&rhs[m], x));
    let mut per_panel = |f: &dyn Fn(&mut RhsPanel)| {
        fastest(reps, || {
            refill(&mut panel);
            f(&mut panel);
            black_box(&panel);
        })
    };
    let seconds = [
        scalar,
        per_panel(&|p| batch.solve_panel(p)),
        per_panel(&|p| batch.solve_panel_threaded(p, Some(pool))),
    ];
    let shared_solve_s = [shared_solve, per_panel(&|p| lu.solve_panel(p))];
    // the matvec reads the panel without writing it: one refill serves
    refill(&mut panel);
    let matvec_panel = fastest(reps, || {
        a.matvec_panel(&panel, &mut y);
        black_box(&y);
    });
    SweepRow {
        n,
        width,
        seconds,
        max_rel_err,
        shared_solve_s,
        shared_matvec_s: [shared_matvec, matvec_panel],
    }
}

/// A smooth complex right-hand side of length `n`, the `m`-th of a set.
fn wave(n: usize, m: usize) -> Vec<C64> {
    let x = |i| i as f64 / n as f64 + m as f64;
    let at = |i| C64::new((13.0 * x(i)).sin() + 0.3, (7.0 * x(i)).cos() - 0.1);
    (0..n).map(at).collect()
}

/// `[per mode, lane-blocked]` seconds of building the substep-0
/// Helmholtz factors `(1 + c k^2) B0 - c B2` with Dirichlet wall rows for
/// `width` wavenumbers on an order-8 basis of `ny` functions: `combine`
/// -> `set_boundary_row` -> [`CornerLu::factor`] per mode, vs [`LANES`]
/// modes at a time through [`LaneBand`] into a [`BatchedFactor`]. The
/// two sets of factors are pinned to solve bit-equal first.
fn setup_point(ny: usize, width: usize, reps: usize) -> [f64; 2] {
    let ops = CollocationOps::new(&BsplineBasis::new(8, &tanh_breakpoints(ny - 7, 1.9)));
    let (n, p, c) = (ops.n(), ops.b0().kl(), 0.4 * 5e-4 / 180.0);
    // a 24-wide kx row per kz, as the reference box owns them
    let k2s: Vec<f64> = (1..=width)
        .map(|m| ((m % 24) as f64).powi(2) + (2.5 * (m / 24) as f64).powi(2))
        .collect();
    let scalar = || -> Vec<CornerLu> {
        let factor = |&k2: &f64| {
            let mut m = ops.combine(1.0 + c * k2, 0.0, -c);
            ops.set_boundary_row(&mut m, 0, -1.0, 0);
            ops.set_boundary_row(&mut m, n - 1, 1.0, 0);
            CornerLu::factor(m).expect("Helmholtz operator factors")
        };
        k2s.iter().map(factor).collect()
    };
    let lane = || -> BatchedFactor {
        let mut out = BatchedFactor::zeros(n, p, p, width);
        let mut band = LaneBand::new(n, p, p);
        for (blk, chunk) in k2s.chunks(LANES).enumerate() {
            let a = std::array::from_fn(|l| 1.0 + c * chunk.get(l).unwrap_or(&1.0));
            band.assemble(ops.b0(), ops.b2(), &a, -c, ops.wall_rows());
            band.factor().expect("Helmholtz operators factor");
            out.set_block(blk, &band);
        }
        out
    };
    let (lus, batch) = (scalar(), lane());
    let rhs = wave(n, 0);
    let mut panel = RhsPanel::new(n, width);
    (0..width).for_each(|m| panel.load_col(m, &rhs));
    batch.solve_panel(&mut panel);
    for (m, lu) in lus.iter().enumerate() {
        let mut x = rhs.clone();
        lu.solve_complex(&mut x);
        assert_eq!(panel.col_to_vec(m), x, "lane-built factors, col {m}");
    }
    [
        fastest(reps, || drop(black_box(scalar()))),
        fastest(reps, || drop(black_box(lane()))),
    ]
}

/// The fusion ablation at one thread count: `[unfused, fused]` seconds
/// and telemetry `DdrBytes` of one nonlinear evaluation.
pub struct FusionRow {
    /// FFT threads of the one rank.
    pub threads: usize,
    /// Fastest-of-N seconds per evaluation.
    pub seconds: [f64; 2],
    /// DDR bytes per evaluation (an exact count).
    pub ddr_bytes: [u64; 2],
}

/// The fusion ablation (DESIGN.md section 4.1) on one rank at grid `g`,
/// per thread count: the pre-fusion reference
/// ([`nonlinear::compute_unfused`]: six products through the batched
/// full-field transforms) against the production pipeline
/// ([`nonlinear::compute_into`]: five products formed in cache between
/// the x-inverse and x-forward passes), each the fastest of `reps`.
/// What an evaluation costs depends on the grid alone, not on the box.
pub fn probe_fusion(g: Grid, threads: &[usize], reps: usize) -> Vec<FusionRow> {
    let row = |&threads: &usize| {
        let params = Params::channel(g.nx, g.ny, g.nz, 180.0).with_fft_threads(threads);
        let (seconds, ddr_bytes) = run_serial(params, move |dns| {
            dns.set_turbulent_mean(1.0);
            dns.add_perturbation(0.5, 2024);
            let (mut out, mut ws) = (NlTerms::default(), NlWorkspace::default());
            let mut fused = || {
                nonlinear::compute_into(dns, &mut out, &mut ws);
                black_box(&out);
            };
            let unfused = || drop(black_box(nonlinear::compute_unfused(dns)));
            let seconds = [fastest(reps, unfused), fastest(reps, &mut fused)];
            (seconds, [ddr_of(unfused), ddr_of(fused)])
        });
        FusionRow {
            threads,
            seconds,
            ddr_bytes,
        }
    };
    threads.iter().map(row).collect()
}

/// DDR bytes of one call of `f`, per the transpose-layer counter.
fn ddr_of(f: impl FnOnce()) -> u64 {
    telemetry::set_level(telemetry::Level::Phases);
    telemetry::flush_thread();
    telemetry::reset();
    f();
    telemetry::flush_thread();
    let bytes = telemetry::snapshot()
        .total_counters()
        .get(telemetry::Counter::DdrBytes);
    telemetry::set_level(telemetry::Level::Off);
    bytes
}

/// Table 4's host rows at the spectral grid `g`, as `(kernel, shape,
/// seconds of one pass)` over 16-byte elements: the solver's two
/// transposes as [`TransposePlan::run_with`] runs them on one rank, at
/// the shapes `[rows, nf, nt]` that `ParallelFft` plans for `g` — the
/// z->x hop ([`RowsPlacement::SplitFast`], a plain copy on one rank,
/// where the solver skips it) and the z<->y reorder
/// ([`RowsPlacement::Middle`]) — beside [`reorder_naive`] and the
/// production kernel [`reorder_blocked`] at the z<->y element count
/// (shape `[ni, nj, nk]`).
pub fn probe_reorder(g: Grid, reps: usize) -> Vec<(&'static str, [usize; 3], f64)> {
    let plans = [
        (
            "transpose_split_fast",
            [g.ny, g.sx(), g.pz()],
            RowsPlacement::SplitFast,
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
    // (i, j, k) -> (j, k, i) is one plane with f = i, t = (j, k)
    let blocked = fastest(reps, || {
        reorder_blocked(&a, [nj * nk, 0], &mut out, [ni, 0], [ni, 1, nj * nk]);
        black_box(&out);
    });
    probes.push(("reorder_blocked", shape, blocked));
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
            let all = ExchangeStrategy::AllToAll;
            let (split, middle) = (RowsPlacement::SplitFast, RowsPlacement::Middle);
            let t_a = TransposePlan::with_placement(&comm_a, nyl, nx / 2, nz, all, split);
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
