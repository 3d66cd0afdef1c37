//! Banded collocation operators at the Greville points.
//!
//! Applying B-spline collocation to the two-point boundary-value problems
//! of the time advance (paper eqs. 3-4) needs the matrices
//! `B0[i][j] = B_j(xi_i)`, `B1[i][j] = B_j'(xi_i)`, `B2[i][j] = B_j''(xi_i)`.
//! A Greville row reaches at most `order - 1` columns to either side,
//! which bounds the total bandwidth by `2*order - 1` — the 15 of Table 1
//! for order 8. The operators are stored directly in the corner-folded
//! format consumed by the custom solver, at the band the basis actually
//! has: the smallest half-bandwidth `k` whose corner-anchored windows
//! hold every row, the few wider rows next to each wall folded into the
//! corner slots. At order 8 that is `k = 4` (9 slots per row) on the
//! channel's tanh grids from `ny = 25` up, `k = 5` at `ny = 17`.

use crate::basis::BsplineBasis;
use dns_banded::{CornerBanded, CornerLu, C64};

/// Collocation points plus the value/derivative operators, and a factored
/// `B0` for interpolation.
pub struct CollocationOps {
    basis: BsplineBasis,
    points: Vec<f64>,
    b0: CornerBanded,
    b1: CornerBanded,
    b2: CornerBanded,
    b0_lu: CornerLu,
    /// Row windows of the Dirichlet conditions at `x = -1` (as row `0`)
    /// and `x = +1` (as row `n - 1`).
    walls: [Vec<f64>; 2],
}

impl CollocationOps {
    /// Assemble the operators for a basis at its Greville points, in the
    /// band the basis derives (see the module docs).
    pub fn new(basis: &BsplineBasis) -> Self {
        let points = basis.greville();
        let n = basis.len();
        let p = basis.degree();
        let (k, nc_top, nc_bot) = band_geometry(basis, &points);
        let mut b0 = CornerBanded::zeros(n, k, k, nc_top, nc_bot);
        let mut b1 = b0.clone();
        let mut b2 = b0.clone();
        for (i, &x) in points.iter().enumerate() {
            let (first, ders) = basis.eval_derivs(x, 2);
            for j in 0..=p {
                let col = first + j;
                // the set() below panics if an entry falls outside the
                // derived band
                if ders[0][j] != 0.0 {
                    b0.set(i, col, ders[0][j]);
                }
                if ders[1][j] != 0.0 {
                    b1.set(i, col, ders[1][j]);
                }
                if ders[2][j] != 0.0 {
                    b2.set(i, col, ders[2][j]);
                }
            }
        }
        let b0_lu = CornerLu::factor(b0.clone()).expect("Greville B0 is nonsingular");
        let walls =
            [(0, -1.0), (n - 1, 1.0)].map(|(row, x)| boundary_window(basis, &b0, row, x, 0));
        CollocationOps {
            basis: basis.clone(),
            points,
            b0,
            b1,
            b2,
            b0_lu,
            walls,
        }
    }

    /// The underlying basis.
    pub fn basis(&self) -> &BsplineBasis {
        &self.basis
    }

    /// Collocation (Greville) points, one per basis function.
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// Number of basis functions / collocation points.
    pub fn n(&self) -> usize {
        self.points.len()
    }

    /// Value operator `B0`.
    pub fn b0(&self) -> &CornerBanded {
        &self.b0
    }
    /// First-derivative operator `B1`.
    pub fn b1(&self) -> &CornerBanded {
        &self.b1
    }
    /// Second-derivative operator `B2`.
    pub fn b2(&self) -> &CornerBanded {
        &self.b2
    }
    /// The factored `B0` interpolation operator — the shared-operator
    /// solve behind [`CollocationOps::interpolate_complex`], exposed so
    /// the batched hot path can sweep whole panels against it.
    pub fn b0_lu(&self) -> &CornerLu {
        &self.b0_lu
    }
    /// The stored windows of the two Dirichlet wall rows — row `0` for
    /// `x = -1`, row `n - 1` for `x = +1` — evaluated once: what
    /// [`set_boundary_row`](Self::set_boundary_row) writes for them, and
    /// what a lane-blocked assembly broadcasts.
    pub fn wall_rows(&self) -> [&[f64]; 2] {
        [&self.walls[0], &self.walls[1]]
    }

    /// Coefficients interpolating real `values` at the collocation points.
    pub fn interpolate(&self, values: &[f64]) -> Vec<f64> {
        let mut c = values.to_vec();
        self.b0_lu.solve(&mut c);
        c
    }

    /// Coefficients interpolating complex `values` (real `B0` factors
    /// applied directly to the complex data, custom-solver style).
    pub fn interpolate_complex(&self, values: &[C64]) -> Vec<C64> {
        let mut c = values.to_vec();
        self.b0_lu.solve_complex(&mut c);
        c
    }

    /// [`CollocationOps::interpolate_complex`] into a caller-owned buffer
    /// (the hot-path variant: no allocation).
    pub fn interpolate_complex_into(&self, values: &[C64], out: &mut [C64]) {
        out.copy_from_slice(values);
        self.b0_lu.solve_complex(out);
    }

    /// Evaluate coefficient vector at all collocation points (`B0 c`).
    pub fn values(&self, coef: &[f64]) -> Vec<f64> {
        let mut v = vec![0.0; self.n()];
        self.b0.matvec(coef, &mut v);
        v
    }

    /// Collocation matrix of the `d`-th derivative, `Bd[i][j] =
    /// B_j^(d)(xi_i)`, in the corner-folded band of `B0` (`d` up to the
    /// spline degree; the Orr-Sommerfeld operator needs `d = 4`).
    pub fn deriv_matrix(&self, d: usize) -> CornerBanded {
        let p = self.basis.degree();
        assert!(d <= p, "derivative order {d} exceeds the spline degree {p}");
        let b = &self.b0;
        let mut m = CornerBanded::zeros(self.n(), b.kl(), b.ku(), b.nc_top(), b.nc_bot());
        for (i, &x) in self.points.iter().enumerate() {
            let (first, ders) = self.basis.eval_derivs(x, d);
            for (j, &v) in ders[d].iter().enumerate() {
                if v != 0.0 {
                    m.set(i, first + j, v);
                }
            }
        }
        m
    }

    /// Build `a*B0 + b*B1 + c*B2` in corner-folded storage — the operator
    /// shape of the viscous time advance (`B0 - beta*nu*dt*(B2 - k^2 B0)`
    /// is `combine(1 + beta*nu*dt*k^2, 0, -beta*nu*dt)`).
    pub fn combine(&self, a: f64, b: f64, c: f64) -> CornerBanded {
        CornerBanded::weighted_sum(&[(a, &self.b0), (b, &self.b1), (c, &self.b2)])
    }

    /// Replace row `row` of `m` with the collocation row of the `deriv`-th
    /// derivative at boundary point `x` — how Dirichlet (`deriv = 0`) and
    /// Neumann (`deriv = 1`) conditions enter the banded systems.
    pub fn set_boundary_row(&self, m: &mut CornerBanded, row: usize, x: f64, deriv: usize) {
        // the two Dirichlet wall rows of an operator of this shape are
        // cached; anything else is evaluated here
        let cached = [(0, -1.0), (self.n() - 1, 1.0)]
            .iter()
            .position(|&at| at == (row, x))
            .filter(|_| deriv == 0 && m.width() == self.b0.width());
        let fresh;
        let window = match cached {
            Some(side) => &self.walls[side],
            None => {
                fresh = boundary_window(&self.basis, m, row, x, deriv);
                &fresh
            }
        };
        for (t, &v) in window.iter().enumerate() {
            m.set(row, m.col_start(row) + t, v);
        }
    }
}

/// The corner-folded band `(k, nc_top, nc_bot)` of a basis's collocation
/// operators at `points`: the smallest half-bandwidth `k >= ceil(p/2)`
/// (`kl = ku = k`) whose corner-anchored windows hold the nonzeros of
/// every derivative at every point, with at most `k` wide rows at each
/// end; else `k = p` (a Greville row never reaches past `p` columns from
/// its diagonal) with no corner rows.
fn band_geometry(basis: &BsplineBasis, points: &[f64]) -> (usize, usize, usize) {
    let (n, p) = (basis.len(), basis.degree());
    // each row's first and last nonzero column over all derivatives
    let spans: Vec<(usize, usize)> = points
        .iter()
        .map(|&x| {
            let (first, ders) = basis.eval_derivs(x, p);
            let nonzero = |j: &usize| ders.iter().any(|d| d[*j] != 0.0);
            let lo = (0..=p).find(nonzero).unwrap_or(0);
            let hi = (0..=p).rev().find(nonzero).unwrap_or(0);
            (first + lo, first + hi)
        })
        .collect();
    let fits = |k: usize| {
        let w = 2 * k + 1;
        if n < w {
            return None;
        }
        let (mut nc_top, mut nc_bot) = (0, 0);
        for (i, &(lo, hi)) in spans.iter().enumerate() {
            let ci = i.saturating_sub(k).min(n - w);
            if lo < ci || hi >= ci + w {
                return None;
            }
            // past the plain band: a row of a corner-anchored window
            if hi > i + k {
                nc_top = i + 1;
            }
            if lo + k < i {
                nc_bot = nc_bot.max(n - i);
            }
        }
        (nc_top <= k && nc_bot <= k).then_some((k, nc_top, nc_bot))
    };
    (p.div_ceil(2)..p).find_map(fits).unwrap_or((p, 0, 0))
}

/// Row `row`'s stored window (in the geometry of `shape`) of the
/// collocation row of the `deriv`-th derivative at `x`.
fn boundary_window(
    basis: &BsplineBasis,
    shape: &CornerBanded,
    row: usize,
    x: f64,
    deriv: usize,
) -> Vec<f64> {
    let (first, ders) = basis.eval_derivs(x, deriv);
    let mut window = vec![0.0; shape.width()];
    for (j, &v) in ders[deriv].iter().enumerate() {
        if v != 0.0 {
            window[first + j - shape.col_start(row)] = v;
        }
    }
    window
}

/// Quadrature weights `w` such that `sum_i w[i] * f(xi_i)` approximates
/// `int f dy` exactly for any function in the spline space: solve
/// `B0^T w = q` with `q` the basis integrals.
pub fn integration_weights(ops: &CollocationOps) -> Vec<f64> {
    let n = ops.n();
    let p = ops.basis().degree();
    // transpose of B0 in the plain (p, p) band: the wide entries of B0's
    // corner rows become wide *columns* here, which the corner-folded
    // format does not fold
    let mut bt = CornerBanded::zeros(n, p, p, 0, 0);
    for i in 0..n {
        let ci = bt.col_start(i);
        for j in ci..(ci + bt.width()).min(n) {
            let v = ops.b0().get(j, i);
            if v != 0.0 {
                bt.set(i, j, v);
            }
        }
    }
    let lu = CornerLu::factor(bt).expect("B0^T nonsingular");
    let mut w = ops.basis().basis_integrals();
    lu.solve(&mut w);
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{tanh_breakpoints, uniform_breakpoints};

    fn ops(order: usize, m: usize, s: f64) -> CollocationOps {
        CollocationOps::new(&BsplineBasis::new(order, &tanh_breakpoints(m, s)))
    }

    #[test]
    fn interpolation_reproduces_polynomials_exactly() {
        let ops = ops(8, 12, 2.0);
        // any polynomial of degree < order is in the spline space
        let f = |y: f64| 1.0 - 2.0 * y + 3.0 * y.powi(3) - 0.5 * y.powi(7);
        let vals: Vec<f64> = ops.points().iter().map(|&y| f(y)).collect();
        let coef = ops.interpolate(&vals);
        for &y in &[-1.0, -0.83, -0.4, 0.0, 0.31, 0.77, 1.0] {
            assert!((ops.basis().eval(&coef, y) - f(y)).abs() < 1e-10, "y={y}");
        }
    }

    #[test]
    fn derivative_operators_are_consistent_with_basis_derivatives() {
        let ops = ops(6, 10, 1.5);
        let f = |y: f64| y.powi(4) - y;
        let fp = |y: f64| 4.0 * y.powi(3) - 1.0;
        let fpp = |y: f64| 12.0 * y * y;
        let vals: Vec<f64> = ops.points().iter().map(|&y| f(y)).collect();
        let coef = ops.interpolate(&vals);
        let n = ops.n();
        let mut d1 = vec![0.0; n];
        let mut d2 = vec![0.0; n];
        ops.b1().matvec(&coef, &mut d1);
        ops.b2().matvec(&coef, &mut d2);
        for (i, &y) in ops.points().iter().enumerate() {
            assert!((d1[i] - fp(y)).abs() < 1e-9, "B1 at y={y}");
            assert!((d2[i] - fpp(y)).abs() < 1e-8, "B2 at y={y}");
        }
    }

    #[test]
    fn dirichlet_bvp_converges_to_analytic_solution() {
        // u'' = -(pi/2)^2 u with u(+-1) = 0, i.e. u = sin(pi (y+1)/2):
        // solve (B2 + (pi/2)^2 B0) c = 0 with Dirichlet rows and a
        // normalising interior condition via the RHS of the exact f.
        let ops = ops(8, 24, 1.8);
        let n = ops.n();
        let lam = std::f64::consts::FRAC_PI_2;
        let u_exact = |y: f64| (lam * (y + 1.0)).sin();
        // solve u'' = f with f = -(lam^2) u_exact, u(+-1)=0
        let mut m = ops.combine(0.0, 0.0, 1.0);
        ops.set_boundary_row(&mut m, 0, -1.0, 0);
        ops.set_boundary_row(&mut m, n - 1, 1.0, 0);
        let mut rhs: Vec<f64> = ops
            .points()
            .iter()
            .map(|&y| -lam * lam * u_exact(y))
            .collect();
        rhs[0] = 0.0;
        rhs[n - 1] = 0.0;
        let lu = CornerLu::factor(m).unwrap();
        lu.solve(&mut rhs);
        for &y in &[-0.9, -0.5, 0.0, 0.4, 0.88] {
            let got = ops.basis().eval(&rhs, y);
            assert!((got - u_exact(y)).abs() < 1e-7, "y={y}: {got}");
        }
    }

    #[test]
    fn neumann_row_enforces_zero_slope() {
        // solve u'' = 2 with u(-1) = 0 (Dirichlet) and u'(1) = 0 (Neumann):
        // exact u = y^2 - 2y*1... u = (y+1)^2/... solve: u'' = 2 ->
        // u = y^2 + ay + b; u'(1)=0 -> a = -2; u(-1)=0 -> 1 + 2 + b = 0 -> b=-3.
        let ops = ops(8, 16, 1.2);
        let n = ops.n();
        let u_exact = |y: f64| y * y - 2.0 * y - 3.0;
        let mut m = ops.combine(0.0, 0.0, 1.0);
        ops.set_boundary_row(&mut m, 0, -1.0, 0);
        ops.set_boundary_row(&mut m, n - 1, 1.0, 1);
        let mut rhs = vec![2.0; n];
        rhs[0] = 0.0;
        rhs[n - 1] = 0.0;
        let lu = CornerLu::factor(m).unwrap();
        lu.solve(&mut rhs);
        for &y in &[-1.0, -0.3, 0.2, 1.0] {
            assert!(
                (ops.basis().eval(&rhs, y) - u_exact(y)).abs() < 1e-8,
                "y={y}"
            );
        }
    }

    #[test]
    fn combine_and_wall_rows_keep_the_entrywise_bits() {
        let ops = ops(8, 12, 1.8);
        let n = ops.n();
        for (a, b, c) in [(1.37, 0.0, -0.02), (-3.1, 0.0, 1.0), (0.5, -2.0, 0.25)] {
            let mut m = ops.combine(a, b, c);
            ops.set_boundary_row(&mut m, 0, -1.0, 0);
            ops.set_boundary_row(&mut m, n - 1, 1.0, 0);
            for i in 0..n {
                let ci = m.col_start(i);
                for j in ci..ci + m.width() {
                    let want = match i {
                        0 => ops.basis().eval_derivs(-1.0, 0).1[0].get(j).copied(),
                        i if i == n - 1 => {
                            let (first, ders) = ops.basis().eval_derivs(1.0, 0);
                            (j >= first).then(|| ders[0][j - first])
                        }
                        _ => Some(
                            a * ops.b0().get(i, j)
                                + b * ops.b1().get(i, j)
                                + c * ops.b2().get(i, j),
                        ),
                    };
                    let want = want.unwrap_or(0.0);
                    assert_eq!(m.get(i, j).to_bits(), want.to_bits(), "({i},{j})");
                }
            }
        }
    }

    #[test]
    fn deriv_matrix_matches_the_cached_operators_and_extends_to_b4() {
        let ops = ops(8, 12, 1.8);
        let n = ops.n();
        for (d, cached) in [(0usize, ops.b0()), (1, ops.b1()), (2, ops.b2())] {
            let built = ops.deriv_matrix(d);
            for i in 0..n {
                for j in 0..n {
                    assert!((built.get(i, j) - cached.get(i, j)).abs() < 1e-14);
                }
            }
        }
        // B4 differentiates y^6 to 360 y^2 exactly
        let f: Vec<f64> = ops.points().iter().map(|&y| y.powi(6)).collect();
        let c = ops.interpolate(&f);
        let b4 = ops.deriv_matrix(4);
        let mut out = vec![0.0; n];
        b4.matvec(&c, &mut out);
        for (i, &y) in ops.points().iter().enumerate() {
            let want = 360.0 * y * y;
            assert!((out[i] - want).abs() < 1e-6 * (1.0 + want.abs()), "y={y}");
        }
    }

    #[test]
    fn integration_weights_integrate_spline_space_exactly() {
        let basis = BsplineBasis::new(8, &uniform_breakpoints(14));
        let ops = CollocationOps::new(&basis);
        let w = integration_weights(&ops);
        // int_{-1}^{1} y^6 dy = 2/7 (degree 6 < order 8, in the space)
        let approx: f64 = ops
            .points()
            .iter()
            .zip(&w)
            .map(|(&y, &wi)| wi * y.powi(6))
            .sum();
        assert!((approx - 2.0 / 7.0).abs() < 1e-12, "{approx}");
        // weights are positive and sum to the domain length
        let s: f64 = w.iter().sum();
        assert!((s - 2.0).abs() < 1e-12);
    }

    #[test]
    fn complex_interpolation_matches_split_real() {
        let ops = ops(8, 10, 2.0);
        let vals: Vec<C64> = ops
            .points()
            .iter()
            .map(|&y| C64::new((3.0 * y).sin(), (2.0 * y).cos()))
            .collect();
        let c = ops.interpolate_complex(&vals);
        let cr = ops.interpolate(&vals.iter().map(|v| v.re).collect::<Vec<_>>());
        let ci = ops.interpolate(&vals.iter().map(|v| v.im).collect::<Vec<_>>());
        for k in 0..ops.n() {
            assert!((c[k].re - cr[k]).abs() < 1e-12);
            assert!((c[k].im - ci[k]).abs() < 1e-12);
        }
    }
}
