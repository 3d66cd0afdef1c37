//! Cross-crate integration tests: the full stack (FFT + pencils +
//! B-splines + banded solves + message passing) combined on problems
//! with known answers.

use channel_dns::bspline::{tanh_breakpoints, BsplineBasis, CollocationOps};
use channel_dns::core_solver::wallnormal::ModeSolver;
use channel_dns::fft::C64;
use channel_dns::minimpi;
use channel_dns::pencil::{RowsPlacement, TransposePlan};
use channel_dns::pfft::{ParallelFft, PfftConfig};

/// Solve the 3D Helmholtz problem `laplacian(u) - c u = f` in the
/// channel geometry (periodic x/z, Dirichlet y) with a manufactured
/// solution, through the full distributed pipeline: forward transform of
/// `f`, per-mode banded solves, inverse transform of `u`.
#[test]
fn manufactured_helmholtz_solution_through_the_full_stack() {
    let results = minimpi::run(4, |world| {
        let (nx, ny, nz) = (16usize, 33usize, 16usize);
        let cfg = PfftConfig::customized(nx, ny, nz, 2, 2);
        let p = ParallelFft::new(world, cfg);
        let basis = BsplineBasis::new(8, &tanh_breakpoints(ny - 7, 1.5));
        let ops = CollocationOps::new(&basis);
        let c = 4.0_f64;

        // manufactured u = sin(pi (y+1)) (1 + cos(x) + sin(2 z))
        let g = |y: f64| (std::f64::consts::PI * (y + 1.0)).sin();
        let gpp = |y: f64| -std::f64::consts::PI.powi(2) * g(y);
        let u_exact = |x: f64, y: f64, z: f64| g(y) * (1.0 + x.cos() + (2.0 * z).sin());
        // f = u_xx + u_yy + u_zz - c u
        let f_exact = |x: f64, y: f64, z: f64| {
            let hor = 1.0 + x.cos() + (2.0 * z).sin();
            gpp(y) * hor + g(y) * (-x.cos() - 4.0 * (2.0 * z).sin()) - c * u_exact(x, y, z)
        };

        // fill this rank's x-pencil of f (y index via the y block)
        let (px, pz) = (p.config().px(), p.config().pz());
        let mut data = Vec::with_capacity(p.x_pencil_len());
        for yl in 0..p.y_block().len {
            let y = ops.points()[p.y_block().global(yl)];
            for zl in 0..p.zphys_block().len {
                let z = std::f64::consts::TAU * p.zphys_block().global(zl) as f64 / pz as f64;
                for xi in 0..px {
                    let x = std::f64::consts::TAU * xi as f64 / px as f64;
                    data.push(f_exact(x, y, z));
                }
            }
        }
        let spec_f = p.forward(&data);

        // per-mode solve: (D2 - (k^2 + c)) u_k = f_k with u(+-1) = 0,
        // via the Helmholtz machinery used by the DNS time advance:
        // ModeSolver's operator is B0 + beta*nu*dt*(k2h*B0 - B2); choose
        // beta*nu*dt = 1 by scaling: solve (B0*(1 + k2h) - B2) u = -f ...
        // Here assemble directly with the collocation operators instead.
        let nyl = ny; // y complete in the y-pencil
        let mut spec_u = vec![C64::new(0.0, 0.0); spec_f.len()];
        for kzl in 0..p.kz_block().len {
            let kz = p.kz_signed(p.kz_block().global(kzl)) as f64;
            for kxl in 0..p.kx_block().len {
                let kx = p.kx_block().global(kxl) as f64;
                let k2 = kx * kx + kz * kz;
                let line = (kzl * p.kx_block().len + kxl) * nyl;
                // operator (B2 - (k2 + c) B0), Dirichlet rows
                let mut m = ops.combine(-(k2 + c), 0.0, 1.0);
                ops.set_boundary_row(&mut m, 0, -1.0, 0);
                ops.set_boundary_row(&mut m, nyl - 1, 1.0, 0);
                let lu = channel_dns::banded::CornerLu::factor(m).unwrap();
                let mut rhs: Vec<C64> = spec_f[line..line + nyl].to_vec();
                rhs[0] = C64::new(0.0, 0.0);
                rhs[nyl - 1] = C64::new(0.0, 0.0);
                lu.solve_complex(&mut rhs);
                // rhs now holds spline coefficients; evaluate at points
                let mut vals = vec![C64::new(0.0, 0.0); nyl];
                ops.b0().matvec_complex(&rhs, &mut vals);
                spec_u[line..line + nyl].copy_from_slice(&vals);
            }
        }

        let u_num = p.inverse(&spec_u);
        // compare on the physical grid
        let mut worst = 0.0f64;
        let mut idx = 0;
        for yl in 0..p.y_block().len {
            let y = ops.points()[p.y_block().global(yl)];
            for zl in 0..p.zphys_block().len {
                let z = std::f64::consts::TAU * p.zphys_block().global(zl) as f64 / pz as f64;
                for xi in 0..px {
                    let x = std::f64::consts::TAU * xi as f64 / px as f64;
                    worst = worst.max((u_num[idx] - u_exact(x, y, z)).abs());
                    idx += 1;
                }
            }
        }
        worst
    });
    for w in results {
        assert!(w < 1e-6, "manufactured-solution error {w}");
    }
}

/// The DNS Helmholtz ModeSolver is the same operator family: verify it
/// against an independently assembled solve for one wavenumber.
#[test]
fn mode_solver_matches_direct_assembly() {
    let basis = BsplineBasis::new(8, &tanh_breakpoints(26, 2.0));
    let ops = CollocationOps::new(&basis);
    let (nu, dt, k2) = (0.01, 2e-3, 6.5);
    let ms = ModeSolver::new(&ops, k2, nu, dt);
    let n = ops.n();
    let c0: Vec<C64> = (0..n)
        .map(|j| C64::new((0.3 * j as f64).sin(), (0.17 * j as f64).cos()))
        .collect();
    let nl = vec![C64::new(0.2, -0.1); n];
    let mut got = c0.clone();
    ms.advance(&ops, 2, &mut got, &nl, &nl, nu, dt);

    // independent assembly of the same substep (beta_3 = gamma_3+zeta_3
    // handled explicitly)
    let beta = 1.0 / 6.0;
    let alpha = 1.0 / 6.0;
    let gamma = 0.75;
    let zeta = -5.0 / 12.0;
    let cc = beta * nu * dt;
    let mut m = ops.combine(1.0 + cc * k2, 0.0, -cc);
    ops.set_boundary_row(&mut m, 0, -1.0, 0);
    ops.set_boundary_row(&mut m, n - 1, 1.0, 0);
    let lu = channel_dns::banded::CornerLu::factor(m).unwrap();
    let mut b0c = vec![C64::new(0.0, 0.0); n];
    let mut b2c = vec![C64::new(0.0, 0.0); n];
    ops.b0().matvec_complex(&c0, &mut b0c);
    ops.b2().matvec_complex(&c0, &mut b2c);
    let mut rhs: Vec<C64> = (0..n)
        .map(|j| b0c[j] + nu * dt * alpha * (b2c[j] - k2 * b0c[j]) + dt * (gamma + zeta) * nl[j])
        .collect();
    rhs[0] = C64::new(0.0, 0.0);
    rhs[n - 1] = C64::new(0.0, 0.0);
    lu.solve_complex(&mut rhs);
    for (a, b) in got.iter().zip(&rhs) {
        assert!((a - b).norm() < 1e-12);
    }
}

/// Distributed transposes compose: a full y -> z -> x -> z -> y pencil
/// cycle over both sub-communicators restores the field exactly.
#[test]
fn pencil_cycle_over_both_communicators_is_identity() {
    let results = minimpi::run(6, |world| {
        let me = world.rank();
        let cart = minimpi::CartComm::new(world, &[3, 2]);
        let comm_a = cart.sub(0);
        let comm_b = cart.sub(1);
        let (nx, ny, nz) = (12usize, 10usize, 9usize);
        let nyl = channel_dns::pencil::block_len(ny, 2, comm_b.rank());
        let sxl = channel_dns::pencil::block_len(nx, 3, comm_a.rank());
        // y-pencil [kz_loc][kx_loc][y] -> z-pencil [y_loc][kx_loc][kz]
        let t_yz = TransposePlan::plan(&comm_b, sxl, nz, ny, RowsPlacement::Middle);
        // z-pencil [y_loc][kx_loc][z] -> x-pencil [y_loc][z_loc][x]
        let t_zx = TransposePlan::plan(&comm_a, nyl, nx, nz, RowsPlacement::Outer);
        let field: Vec<f64> = (0..t_yz.input_len())
            .map(|i| (i as f64 * 0.73).sin() + me as f64)
            .collect();
        let zp = t_yz.run(&comm_b, &field);
        let xp = t_zx.run(&comm_a, &zp);
        let zp2 = t_zx.inverse(&comm_a).run(&comm_a, &xp);
        let back = t_yz.inverse(&comm_b).run(&comm_b, &zp2);
        back == field
    });
    assert!(results.into_iter().all(|ok| ok));
}

/// The production run path end to end: `run::execute` with statistics
/// on is paused (one checkpoint), then resumed by a second `execute`,
/// and the time-average continues from the checkpointed accumulator
/// instead of restarting.
#[test]
fn paused_run_resumes_its_statistics_through_execute() {
    use channel_dns::core_solver::run::{
        execute, InitialCondition, ResumePolicy, RunConfig, RunControl, RunObserver, RunSpec,
        RunStatus, RunSummary, StepCtx,
    };
    use channel_dns::core_solver::stats::StatsConfig;
    use channel_dns::core_solver::{ChannelDns, Params};
    use std::sync::{Arc, Mutex};

    /// Pauses the run after `pause_at` steps; records the sample count
    /// at start and the sampled steps at finish.
    struct Probe {
        ctl: Arc<RunControl>,
        pause_at: u64,
        start_count: Mutex<Option<u64>>,
        sampled: Mutex<Vec<u64>>,
    }
    impl RunObserver for Probe {
        fn on_start(&self, dns: &ChannelDns, _resumed_from: Option<u64>, _attempt: usize) {
            *self.start_count.lock().unwrap() = dns.stats().map(|acc| acc.count());
        }
        fn on_step(&self, _dns: &ChannelDns, ctx: StepCtx) {
            if ctx.step == self.pause_at {
                self.ctl.request_pause();
            }
        }
        fn on_finish(&self, dns: &ChannelDns, _summary: RunSummary) {
            let acc = dns.stats().expect("statistics enabled");
            assert_eq!(acc.count() as usize, acc.history().len());
            *self.sampled.lock().unwrap() = acc.history().iter().map(|h| h.step).collect();
        }
    }

    let dir = std::env::temp_dir().join(format!("integration-execute-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = RunSpec {
        name: "integration".into(),
        params: Params::channel(16, 17, 16, 50.0).with_dt(1e-3),
        steps: 4,
        ckpt_every: 0,
        ic: InitialCondition::Turbulent {
            amplitude: 0.1,
            seed: 3,
        },
    };
    let mut cfg = RunConfig::in_dir(&dir);
    cfg.stats = Some(StatsConfig {
        every: 1,
        warmup: 0,
    });
    let run = |cfg: &RunConfig, pause_at: u64| {
        let ctl = Arc::new(RunControl::new());
        let probe = Arc::new(Probe {
            ctl: Arc::clone(&ctl),
            pause_at,
            start_count: Mutex::new(None),
            sampled: Mutex::new(Vec::new()),
        });
        let outcome = execute(
            &spec,
            cfg,
            ctl,
            Arc::clone(&probe) as Arc<dyn RunObserver>,
            |_| minimpi::FaultPlan::none(),
        );
        let start_count = *probe.start_count.lock().unwrap();
        let sampled = probe.sampled.lock().unwrap().clone();
        (outcome, start_count, sampled)
    };

    let (first, start_count, _) = run(&cfg, 2);
    assert_eq!((first.status, first.steps_done), (RunStatus::Paused, 2));
    assert_eq!(start_count, Some(0));

    cfg.resume = ResumePolicy::IfPresent;
    let (second, start_count, sampled) = run(&cfg, u64::MAX);
    assert_eq!((second.status, second.steps_done), (RunStatus::Done, 4));
    assert_eq!(
        start_count,
        Some(2),
        "the accumulator came back with the state"
    );
    assert_eq!(sampled, [1, 2, 3, 4], "history continues across the pause");
    let _ = std::fs::remove_dir_all(&dir);
}
