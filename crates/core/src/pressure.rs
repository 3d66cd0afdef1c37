//! Pressure recovery and pressure statistics.
//!
//! The KMM formulation eliminates the pressure, but the pressure field is
//! itself a primary data product of channel DNS (its wall fluctuations,
//! its role in the energy redistribution terms). It is recovered after
//! the fact from the pressure Poisson equation
//!
//! ```text
//! laplacian(p) = div(H),   dp/dy |wall = H_y + nu * laplacian(v) |wall
//! ```
//!
//! solved per horizontal wavenumber with the same corner-banded
//! collocation machinery as the time advance. The mean mode carries the
//! classic exact identity `<p>(y) + <v'v'>(y) = const`, which the tests
//! verify.

use crate::nonlinear::{self, HFields};
use crate::solver::ChannelDns;
use crate::wallnormal::row_dot_complex;
use crate::C64;
use dns_banded::{BatchedFactor, CornerBanded, CornerLu, RhsPanel};

/// Spline coefficients of the pressure for every locally-owned mode
/// (y-pencil layout), gauge-fixed so the mean pressure vanishes at the
/// lower wall.
pub fn pressure_coefficients(dns: &ChannelDns) -> Vec<C64> {
    let h = nonlinear::quadratic_h(dns);
    pressure_from_h(dns, &h)
}

/// Pressure solve from precomputed convective fluxes: every non-mean
/// mode goes through one batched multi-RHS panel solve.
pub fn pressure_from_h(dns: &ChannelDns, h: &HFields) -> Vec<C64> {
    let ops = dns.ops();
    let ny = ops.n();
    let mut out = vec![C64::new(0.0, 0.0); dns.field_len()];
    // the batched panel covers the regular modes; the mean mode's gauge
    // row gives it a different boundary-row structure, so it stays on
    // the scalar path (one mode, not worth a panel)
    let batched: Vec<usize> = (0..dns.local_modes())
        .filter(|&m| !dns.is_nyquist(m) && !dns.is_mean(m))
        .collect();
    for m in 0..dns.local_modes() {
        if dns.is_mean(m) {
            let r = dns.line_range(m);
            let (rhs, op) = mode_system(dns, h, m);
            let lu = CornerLu::factor(op).expect("pressure operator nonsingular");
            let mut rhs = rhs;
            lu.solve_complex(&mut rhs);
            out[r].copy_from_slice(&rhs);
        }
    }
    if batched.is_empty() {
        return out;
    }
    let mut mats = Vec::with_capacity(batched.len());
    let mut panel = RhsPanel::new(ny, batched.len());
    for (r, &m) in batched.iter().enumerate() {
        let (rhs, op) = mode_system(dns, h, m);
        panel.load_col(r, &rhs);
        mats.push(op);
    }
    let batch = BatchedFactor::factor(mats).expect("pressure operators nonsingular");
    batch.solve_panel(&mut panel);
    for (r, &m) in batched.iter().enumerate() {
        panel.store_col(r, &mut out[dns.line_range(m)]);
    }
    out
}

/// Assemble mode `m`'s pressure Poisson system: the right-hand side
/// (divergence of `H` with the wall rows overwritten by the Neumann /
/// gauge data) and the boundary-conditioned `B2 - k^2 B0` operator.
fn mode_system(dns: &ChannelDns, h: &HFields, m: usize) -> (Vec<C64>, CornerBanded) {
    let ops = dns.ops();
    let ny = ops.n();
    let nu = dns.params().nu;
    let r = dns.line_range(m);
    let (ikx, ikz, k2) = dns.mode_wavenumbers(m);

    // RHS = div H = ikx Hx + d/dy Hy + ikz Hz (values)
    let hy_coef = ops.interpolate_complex(&h.hy[r.clone()]);
    let mut dy_vals = vec![C64::new(0.0, 0.0); ny];
    ops.b1().matvec_complex(&hy_coef, &mut dy_vals);
    let mut rhs: Vec<C64> = (0..ny)
        .map(|j| ikx * h.hx[r.start + j] + dy_vals[j] + ikz * h.hz[r.start + j])
        .collect();

    // operator (B2 - k^2 B0) with Neumann rows; the mean mode gets a
    // Dirichlet gauge row at the lower wall instead (Neumann-Neumann
    // is singular at k = 0)
    let mut op = ops.combine(-k2, 0.0, 1.0);
    if dns.is_mean(m) {
        ops.set_boundary_row(&mut op, 0, -1.0, 0);
    } else {
        ops.set_boundary_row(&mut op, 0, -1.0, 1);
    }
    ops.set_boundary_row(&mut op, ny - 1, 1.0, 1);

    // Neumann data: dp/dy = H_y + nu (D2 - k^2) v at the walls
    let cv = &dns.state().v()[r.clone()];
    let mut lap_v = vec![C64::new(0.0, 0.0); ny];
    let mut b0v = vec![C64::new(0.0, 0.0); ny];
    ops.b2().matvec_complex(cv, &mut lap_v);
    ops.b0().matvec_complex(cv, &mut b0v);
    let bc = |row: usize| h.hy[r.start + row] + nu * (lap_v[row] - k2 * b0v[row]);
    rhs[0] = if dns.is_mean(m) {
        C64::new(0.0, 0.0) // gauge p(-1) = 0
    } else {
        bc(0)
    };
    rhs[ny - 1] = bc(ny - 1);
    (rhs, op)
}

/// Mean-pressure profile and pressure-fluctuation variance at the
/// collocation points (collective).
pub struct PressureProfiles {
    /// Collocation points.
    pub y: Vec<f64>,
    /// `<p>(y)` (gauge: zero at the lower wall).
    pub p_mean: Vec<f64>,
    /// `<p'p'>(y)`.
    pub pp: Vec<f64>,
}

/// Compute pressure statistics (collective).
pub fn pressure_profiles(dns: &ChannelDns) -> PressureProfiles {
    let coef = pressure_coefficients(dns);
    let ny = dns.params().ny;
    let ops = dns.ops();
    let mut acc = vec![0.0f64; 2 * ny];
    let mut vals = vec![C64::new(0.0, 0.0); ny];
    for m in 0..dns.local_modes() {
        if dns.is_nyquist(m) {
            continue;
        }
        let r = dns.line_range(m);
        ops.b0().matvec_complex(&coef[r], &mut vals);
        if dns.is_mean(m) {
            for j in 0..ny {
                acc[j] += vals[j].re;
            }
        } else {
            let w = dns.mode_weight(m);
            for j in 0..ny {
                acc[ny + j] += w * vals[j].norm_sqr();
            }
        }
    }
    let acc = dns.pfft().comm_a().allreduce(&acc, |a, b| a + b);
    let acc = dns.pfft().comm_b().allreduce(&acc, |a, b| a + b);
    PressureProfiles {
        y: ops.points().to_vec(),
        p_mean: acc[..ny].to_vec(),
        pp: acc[ny..].to_vec(),
    }
}

/// Residual of the discrete pressure Poisson equation for mode `m`
/// (diagnostics/tests): max over interior rows of
/// `|(D2 - k^2) p - div H|`.
pub fn poisson_residual(dns: &ChannelDns, m: usize, coef: &[C64], h: &HFields) -> f64 {
    let ops = dns.ops();
    let ny = ops.n();
    let r = dns.line_range(m);
    let (ikx, ikz, k2) = dns.mode_wavenumbers(m);
    let hy_coef = ops.interpolate_complex(&h.hy[r.clone()]);
    let mut dy_vals = vec![C64::new(0.0, 0.0); ny];
    ops.b1().matvec_complex(&hy_coef, &mut dy_vals);
    let mut d2p = vec![C64::new(0.0, 0.0); ny];
    let mut b0p = vec![C64::new(0.0, 0.0); ny];
    ops.b2().matvec_complex(&coef[r.clone()], &mut d2p);
    ops.b0().matvec_complex(&coef[r.clone()], &mut b0p);
    let mut worst = 0.0f64;
    for j in 1..ny - 1 {
        let lhs = d2p[j] - k2 * b0p[j];
        let rhs = ikx * h.hx[r.start + j] + dy_vals[j] + ikz * h.hz[r.start + j];
        worst = worst.max((lhs - rhs).norm());
    }
    // boundary rows: Neumann condition (skip the mean gauge row)
    if !dns.is_mean(m) {
        let slope0 = row_dot_complex(ops.b1(), 0, &coef[r.clone()]);
        let mut lap_v = vec![C64::new(0.0, 0.0); ny];
        let mut b0v = vec![C64::new(0.0, 0.0); ny];
        let cv = &dns.state().v()[r.clone()];
        ops.b2().matvec_complex(cv, &mut lap_v);
        ops.b0().matvec_complex(cv, &mut b0v);
        let want0 = h.hy[r.start] + dns.params().nu * (lap_v[0] - k2 * b0v[0]);
        worst = worst.max((slope0 - want0).norm());
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::solver::run_serial;
    use crate::stats::profiles;

    /// Per-mode scalar pressure solve (the batched path's agreement oracle).
    fn pressure_from_h_scalar(dns: &ChannelDns, h: &HFields) -> Vec<C64> {
        let mut out = vec![C64::new(0.0, 0.0); dns.field_len()];
        for m in 0..dns.local_modes() {
            if dns.is_nyquist(m) {
                continue;
            }
            let r = dns.line_range(m);
            let (mut rhs, op) = mode_system(dns, h, m);
            let lu = CornerLu::factor(op).expect("pressure operator nonsingular");
            lu.solve_complex(&mut rhs);
            out[r].copy_from_slice(&rhs);
        }
        out
    }

    #[test]
    fn laminar_flow_has_no_pressure_fluctuations() {
        let p = Params::channel(16, 25, 16, 50.0);
        let pp = run_serial(p, |dns| {
            dns.set_laminar(1.0);
            pressure_profiles(dns)
        });
        // parallel laminar flow: H vanishes identically, so does p
        assert!(pp.pp.iter().all(|&x| x.abs() < 1e-20));
        assert!(pp.p_mean.iter().all(|&x| x.abs() < 1e-10));
    }

    #[test]
    fn discrete_poisson_equation_is_satisfied() {
        let p = Params::channel(16, 25, 16, 80.0).with_dt(1e-3);
        let worst = run_serial(p, |dns| {
            dns.set_laminar(0.5);
            dns.add_perturbation(0.3, 29);
            for _ in 0..3 {
                dns.step();
            }
            let h = nonlinear::quadratic_h(dns);
            let coef = pressure_from_h(dns, &h);
            let mut worst = 0.0f64;
            for m in 0..dns.local_modes() {
                if dns.is_nyquist(m) {
                    continue;
                }
                worst = worst.max(poisson_residual(dns, m, &coef, &h));
            }
            worst
        });
        assert!(worst < 1e-9, "Poisson residual {worst}");
    }

    #[test]
    fn batched_pressure_matches_scalar_oracle() {
        let p = Params::channel(16, 25, 16, 80.0).with_dt(1e-3);
        let worst = run_serial(p, |dns| {
            dns.set_laminar(0.5);
            dns.add_perturbation(0.3, 17);
            for _ in 0..2 {
                dns.step();
            }
            let h = nonlinear::quadratic_h(dns);
            let batched = pressure_from_h(dns, &h);
            let scalar = pressure_from_h_scalar(dns, &h);
            batched
                .iter()
                .zip(&scalar)
                .map(|(b, s)| (b - s).norm() / (1.0 + s.norm()))
                .fold(0.0f64, f64::max)
        });
        assert!(worst < 1e-12, "batched pressure deviates: {worst}");
    }

    #[test]
    fn mean_pressure_balances_vv_in_sheared_flow() {
        // exact identity for channel flow: d<p>/dy = -d<v'v'>/dy, i.e.
        // <p>(y) + <v'v'>(y) is constant in y
        let p = Params::channel(16, 33, 16, 120.0).with_dt(5e-4);
        let (pp, prof) = run_serial(p, |dns| {
            dns.set_laminar(0.4);
            dns.add_perturbation(0.4, 41);
            for _ in 0..40 {
                dns.step();
            }
            (pressure_profiles(dns), profiles(dns))
        });
        let combo: Vec<f64> = pp.p_mean.iter().zip(&prof.vv).map(|(p, v)| p + v).collect();
        let c0 = combo[0];
        let scale = prof.vv.iter().cloned().fold(0.0, f64::max).max(1e-30);
        for (j, &c) in combo.iter().enumerate() {
            assert!(
                (c - c0).abs() < 0.05 * scale,
                "identity violated at j={j}: {c} vs {c0} (scale {scale})"
            );
        }
        // and the fluctuation variance is positive where turbulence lives
        assert!(pp.pp.iter().cloned().fold(0.0, f64::max) > 0.0);
    }
}
