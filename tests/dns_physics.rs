//! Physics-level integration tests of the full DNS: global budgets and
//! invariants that combine every part of the stack, run on multiple
//! rank layouts.

use channel_dns::core_solver::stats::{kinetic_energy, profiles};
use channel_dns::core_solver::{run_parallel, run_serial, Params};

/// Global streamwise momentum: d/dt int <u> dy = 2 F - (tau_lower +
/// tau_upper). Checked in a transitional state, where every term is
/// active.
#[test]
fn mean_momentum_budget_closes() {
    let p = Params::channel(16, 33, 16, 60.0).with_dt(5e-4);
    let (dm_dt, rhs) = run_serial(p, |dns| {
        dns.set_laminar(0.5);
        dns.add_perturbation(0.4, 9);
        for _ in 0..10 {
            dns.step();
        }
        // momentum integral before
        let weights = channel_dns::bspline::integration_weights(dns.ops());
        let momentum = |dns: &channel_dns::core_solver::ChannelDns| {
            let pr = profiles(dns);
            pr.u_mean
                .iter()
                .zip(&weights)
                .map(|(&u, &w)| u * w)
                .sum::<f64>()
        };
        let wall_stress = |dns: &channel_dns::core_solver::ChannelDns| {
            let pr = profiles(dns);
            let coef = dns.ops().interpolate(&pr.u_mean);
            let nu = dns.params().nu;
            // drag at both walls
            nu * (dns.ops().basis().eval_deriv(&coef, -1.0, 1)
                - dns.ops().basis().eval_deriv(&coef, 1.0, 1))
        };
        let m0 = momentum(dns);
        let s0 = wall_stress(dns);
        let n_sub = 8;
        for _ in 0..n_sub {
            dns.step();
        }
        let m1 = momentum(dns);
        let s1 = wall_stress(dns);
        let dt_tot = n_sub as f64 * dns.params().dt;
        let dm_dt = (m1 - m0) / dt_tot;
        // RHS evaluated at the midpoint of the interval
        let rhs = 2.0 * 1.0 - 0.5 * (s0 + s1);
        (dm_dt, rhs)
    });
    assert!(
        (dm_dt - rhs).abs() < 0.02 * rhs.abs().max(0.1),
        "momentum budget: d/dt = {dm_dt}, 2F - drag = {rhs}"
    );
}

/// The solver must give bit-identical physics regardless of the process
/// grid (1x1, 4x1, 1x4, 2x2) — decomposition invariance. 4x1 leaves each
/// rank 2 of the 8 kx, so its lane-blocked pencils are mostly pad lanes.
/// The kinetic energy is compared bit for bit. The mean profile keeps a
/// tolerance: the statistics reduce over CommA, then CommB, so their
/// summation order follows the grid.
#[test]
fn physics_is_independent_of_the_process_grid() {
    let run = |pa: usize, pb: usize| -> (Vec<f64>, f64) {
        let p = Params::channel(16, 25, 16, 80.0)
            .with_dt(1e-3)
            .with_grid(pa, pb);
        let mut out = run_parallel(p, |dns| {
            dns.set_laminar(0.6);
            dns.add_perturbation(0.3, 31);
            for _ in 0..4 {
                dns.step();
            }
            (profiles(dns).u_mean, kinetic_energy(dns))
        });
        out.pop().unwrap()
    };
    let (ref_profile, ref_e) = run(1, 1);
    for (pa, pb) in [(4, 1), (1, 4), (2, 2)] {
        let (prof, e) = run(pa, pb);
        assert_eq!(
            e.to_bits(),
            ref_e.to_bits(),
            "energy mismatch on {pa}x{pb}: {e} vs {ref_e}"
        );
        for (a, b) in prof.iter().zip(&ref_profile) {
            assert!((a - b).abs() < 1e-9, "{pa}x{pb}: {a} vs {b}");
        }
    }
}

/// Transient growth: infinitesimal perturbations on a strong mean shear
/// must extract energy (the lift-up mechanism) — the physical process
/// behind transition in the channel.
#[test]
fn perturbations_grow_on_a_sheared_base_flow() {
    let p = Params::channel(16, 33, 16, 120.0).with_dt(5e-4);
    let (e0, e1) = run_serial(p, |dns| {
        dns.set_laminar(0.4);
        dns.add_perturbation(0.05, 5);
        let fluct = |dns: &channel_dns::core_solver::ChannelDns| {
            let pr = profiles(dns);
            pr.uu
                .iter()
                .zip(&pr.vv)
                .zip(&pr.ww)
                .map(|((a, b), c)| a + b + c)
                .fold(0.0f64, f64::max)
        };
        let e0 = fluct(dns);
        for _ in 0..300 {
            dns.step();
        }
        (e0, fluct(dns))
    });
    assert!(e1 > 1.5 * e0, "no transient growth: {e0} -> {e1}");
}

/// With the nonlinear terms disabled and no forcing, every mode decays
/// monotonically (the discrete operator is dissipative).
#[test]
fn linear_operator_is_dissipative() {
    let mut p = Params::channel(16, 33, 16, 200.0).with_dt(1e-3);
    p.forcing = channel_dns::core_solver::Forcing::None;
    p.nonlinear = false;
    let energies = run_serial(p, |dns| {
        dns.add_perturbation(0.3, 77);
        let mut es = vec![kinetic_energy(dns)];
        for _ in 0..5 {
            for _ in 0..10 {
                dns.step();
            }
            es.push(kinetic_energy(dns));
        }
        es
    });
    for w in energies.windows(2) {
        assert!(w[1] < w[0], "energy must decay monotonically: {energies:?}");
    }
}
