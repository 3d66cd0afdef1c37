//! The low-storage third-order IMEX Runge-Kutta scheme of Spalart, Moser
//! & Rogers (JCP 1991), the time discretisation named in section 2.1.
//!
//! For `du/dt = L u + N(u)` each substep `i` solves
//!
//! ```text
//! (I - beta_i dt L) u_{i+1} =
//!     u_i + dt (alpha_i L u_i + gamma_i N(u_i) + zeta_i N(u_{i-1}))
//! ```
//!
//! with the viscous operator `L` implicit and the convective terms
//! explicit. `zeta_1 = 0`, so each timestep is self-starting and only one
//! previous nonlinear term is ever stored — the "low storage" property.

/// Implicit weights on the new-time viscous term.
pub const BETA: [f64; 3] = [37.0 / 160.0, 5.0 / 24.0, 1.0 / 6.0];
/// Explicit weights on the old-time viscous term.
pub const ALPHA: [f64; 3] = [29.0 / 96.0, -3.0 / 40.0, 1.0 / 6.0];
/// Weights on the current nonlinear term.
pub const GAMMA: [f64; 3] = [8.0 / 15.0, 5.0 / 12.0, 3.0 / 4.0];
/// Weights on the previous substep's nonlinear term.
pub const ZETA: [f64; 3] = [0.0, -17.0 / 60.0, -5.0 / 12.0];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_are_consistent() {
        // each substep advances by (alpha+beta) = (gamma+zeta)
        for i in 0..3 {
            assert!(
                (ALPHA[i] + BETA[i] - GAMMA[i] - ZETA[i]).abs() < 1e-15,
                "substep {i}"
            );
        }
        // the three substeps sum to one full step
        let total: f64 = (0..3).map(|i| ALPHA[i] + BETA[i]).sum();
        assert!((total - 1.0).abs() < 1e-15);
    }

    fn integrate(l: f64, dt: f64, steps: usize) -> f64 {
        // du/dt = L u + sin(u), L implicit, sin(u) explicit
        let mut u = 1.0_f64;
        for _ in 0..steps {
            let mut n_old = 0.0;
            for i in 0..3 {
                let n = u.sin();
                let rhs = u + dt * (ALPHA[i] * l * u + GAMMA[i] * n + ZETA[i] * n_old);
                u = rhs / (1.0 - dt * BETA[i] * l);
                n_old = n;
            }
        }
        u
    }

    #[test]
    fn explicit_part_is_third_order() {
        // with L = 0 the scheme reduces to the pure explicit RK3, which
        // must converge at third order
        let exact = integrate(0.0, 1e-5, 100_000); // t = 1
        let e1 = (integrate(0.0, 0.01, 100) - exact).abs();
        let e2 = (integrate(0.0, 0.005, 200) - exact).abs();
        let rate = (e1 / e2).log2();
        assert!(rate > 2.7, "observed explicit order {rate}");
    }

    #[test]
    fn combined_imex_scheme_is_at_least_second_order() {
        // the implicit (viscous) treatment of SMR'91 is formally
        // second-order; the combined problem must show clean order 2
        let exact = integrate(-2.0, 1e-5, 100_000);
        let e1 = (integrate(-2.0, 0.01, 100) - exact).abs();
        let e2 = (integrate(-2.0, 0.005, 200) - exact).abs();
        let rate = (e1 / e2).log2();
        assert!(rate > 1.9, "observed IMEX order {rate}");
    }

    #[test]
    fn implicit_part_is_second_order_stiffly_stable() {
        // pure diffusion du/dt = L u must be advanced stably for
        // dt |L| >> 1 (IMEX property): amplification magnitude < 1
        let l = -1e4;
        let dt = 0.1;
        let mut u = 1.0_f64;
        for _ in 0..50 {
            for i in 0..3 {
                let rhs = u * (1.0 + dt * ALPHA[i] * l);
                u = rhs / (1.0 - dt * BETA[i] * l);
            }
        }
        assert!(u.abs() < 1.0, "unstable: {u}");
    }
}
