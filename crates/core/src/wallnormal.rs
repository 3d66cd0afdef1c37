//! Per-wavenumber wall-normal solves: the Helmholtz time advances, the
//! `v`-from-`phi` Poisson solve, and the influence-matrix enforcement of
//! the no-slip/no-penetration conditions `v(+-1) = v'(+-1) = 0`.
//!
//! Everything here runs through the corner-folded custom banded solver
//! (section 4.1.1 of the paper) on B-spline collocation operators; these
//! are the "three linear systems per wavenumber" of section 2.1.

use std::collections::BTreeMap;

use crate::rk3;
use crate::C64;
use dns_banded::{BatchedFactor, CornerBanded, CornerLu, LaneBand, LaneRow, RhsPanel, LANES};
use dns_bspline::CollocationOps;

/// Dot product of one stored row of a banded operator with a complex
/// coefficient vector: [`ModeSolver`]'s residual wall slopes.
fn row_dot_complex(m: &CornerBanded, row: usize, c: &[C64]) -> C64 {
    let ci = m.col_start(row);
    let mut s = C64::new(0.0, 0.0);
    for j in ci..(ci + m.width()).min(c.len()) {
        s += m.get(row, j) * c[j];
    }
    s
}

/// Row `row` of `B1` against a real coefficient vector read through `c`:
/// the wall slope of a Green's column.
fn wall_slope(b1: &CornerBanded, row: usize, c: impl Fn(usize) -> f64) -> f64 {
    let ci = b1.col_start(row);
    (ci..(ci + b1.width()).min(b1.n()))
        .map(|j| b1.get(row, j) * c(j))
        .sum()
}

/// Inverse of the 2x2 wall-slope matrix of an influence-matrix pair.
fn invert_slopes(m: [[f64; 2]; 2]) -> [[f64; 2]; 2] {
    let det = m[0][0] * m[1][1] - m[0][1] * m[1][0];
    assert!(det.abs() > 1e-300, "singular influence matrix");
    [
        [m[1][1] / det, -m[0][1] / det],
        [-m[1][0] / det, m[0][0] / det],
    ]
}

/// Derivative in coefficient space: coefficients of `df/dy` from
/// coefficients of `f` (`B0 c' = B1 c`).
pub fn dy_coefficients(ops: &CollocationOps, c: &[C64]) -> Vec<C64> {
    let mut vals = vec![C64::new(0.0, 0.0); c.len()];
    ops.b1().matvec_complex(c, &mut vals);
    ops.interpolate_complex(&vals)
}

/// Influence-matrix data for one substep: two homogeneous Helmholtz
/// solutions (boundary Green's functions) and their induced `v` columns.
struct Greens {
    c_phi_a: Vec<f64>,
    c_phi_b: Vec<f64>,
    c_v_a: Vec<f64>,
    c_v_b: Vec<f64>,
    /// Inverse of the 2x2 wall-slope matrix `[vA'(-1) vB'(-1); vA'(1) vB'(1)]`.
    minv: [[f64; 2]; 2],
}

/// Factored operators for one `(kx, kz)` wavenumber (k^2 > 0).
pub struct ModeSolver {
    k2: f64,
    /// One Helmholtz factorisation per RK substep:
    /// `B0 + beta_i nu dt (k^2 B0 - B2)` with Dirichlet boundary rows.
    helm: [CornerLu; 3],
    /// Poisson operator `B2 - k^2 B0` with Dirichlet rows.
    pois: CornerLu,
    greens: [Greens; 3],
}

impl ModeSolver {
    /// Build the apparatus for one wavenumber.
    pub fn new(ops: &CollocationOps, k2: f64, nu: f64, dt: f64) -> ModeSolver {
        assert!(k2 > 0.0, "mode (0,0) uses MeanSolver");
        let n = ops.n();
        let helm: [CornerLu; 3] = std::array::from_fn(|i| {
            let c = rk3::BETA[i] * nu * dt;
            // B0 - c (B2 - k^2 B0) = (1 + c k^2) B0 - c B2
            let mut m = ops.combine(1.0 + c * k2, 0.0, -c);
            ops.set_boundary_row(&mut m, 0, -1.0, 0);
            ops.set_boundary_row(&mut m, n - 1, 1.0, 0);
            CornerLu::factor(m).expect("Helmholtz operator is nonsingular")
        });
        let mut pm = ops.combine(-k2, 0.0, 1.0);
        ops.set_boundary_row(&mut pm, 0, -1.0, 0);
        ops.set_boundary_row(&mut pm, n - 1, 1.0, 0);
        let pois = CornerLu::factor(pm).expect("Poisson operator is nonsingular");

        let greens = std::array::from_fn(|i| {
            let mut c_phi_a = vec![0.0; n];
            c_phi_a[0] = 1.0;
            helm[i].solve(&mut c_phi_a);
            let mut c_phi_b = vec![0.0; n];
            c_phi_b[n - 1] = 1.0;
            helm[i].solve(&mut c_phi_b);
            let solve_v = |c_phi: &[f64]| -> Vec<f64> {
                let mut rhs = vec![0.0; n];
                ops.b0().matvec(c_phi, &mut rhs);
                rhs[0] = 0.0;
                rhs[n - 1] = 0.0;
                pois.solve(&mut rhs);
                rhs
            };
            let c_v_a = solve_v(&c_phi_a);
            let c_v_b = solve_v(&c_phi_b);
            let slope = |c_v: &[f64], row: usize| wall_slope(ops.b1(), row, |j| c_v[j]);
            let minv = invert_slopes([
                [slope(&c_v_a, 0), slope(&c_v_b, 0)],
                [slope(&c_v_a, n - 1), slope(&c_v_b, n - 1)],
            ]);
            Greens {
                c_phi_a,
                c_phi_b,
                c_v_a,
                c_v_b,
                minv,
            }
        });
        ModeSolver {
            k2,
            helm,
            pois,
            greens,
        }
    }

    /// The squared horizontal wavenumber.
    pub fn k2(&self) -> f64 {
        self.k2
    }

    /// Advance one prognostic variable (`omega_y` or `phi`) through RK
    /// substep `i`: solve
    /// `(B0 - beta_i nu dt (B2 - k^2 B0)) c_new = rhs` with
    /// `rhs = B0 c + nu dt alpha_i (B2 - k^2 B0) c
    ///        + dt gamma_i n_new + dt zeta_i n_old`
    /// and homogeneous Dirichlet walls. `n_new`/`n_old` are nonlinear-term
    /// *values at the collocation points*.
    #[allow(clippy::too_many_arguments)]
    pub fn advance(
        &self,
        ops: &CollocationOps,
        i: usize,
        c: &mut [C64],
        n_new: &[C64],
        n_old: &[C64],
        nu: f64,
        dt: f64,
    ) {
        let n = c.len();
        let mut b0c = vec![C64::new(0.0, 0.0); n];
        let mut b2c = vec![C64::new(0.0, 0.0); n];
        ops.b0().matvec_complex(c, &mut b0c);
        ops.b2().matvec_complex(c, &mut b2c);
        let a = nu * dt * rk3::ALPHA[i];
        let g = dt * rk3::GAMMA[i];
        let z = dt * rk3::ZETA[i];
        for j in 0..n {
            c[j] = b0c[j] + a * (b2c[j] - self.k2 * b0c[j]) + g * n_new[j] + z * n_old[j];
        }
        c[0] = C64::new(0.0, 0.0);
        c[n - 1] = C64::new(0.0, 0.0);
        self.helm[i].solve_complex(c);
    }

    /// Recover `v` from `phi` after substep `i`: solve the Dirichlet
    /// Poisson problem, then add the influence-matrix correction so that
    /// `v'(+-1) = 0` while `phi` keeps satisfying its Helmholtz equation
    /// (its wall values become the correction amplitudes). `c_phi` is
    /// updated in place; returns the coefficients of `v`.
    pub fn solve_v(&self, ops: &CollocationOps, i: usize, c_phi: &mut [C64]) -> Vec<C64> {
        let n = c_phi.len();
        let mut c_v = vec![C64::new(0.0, 0.0); n];
        ops.b0().matvec_complex(c_phi, &mut c_v);
        c_v[0] = C64::new(0.0, 0.0);
        c_v[n - 1] = C64::new(0.0, 0.0);
        self.pois.solve_complex(&mut c_v);
        // residual wall slopes
        let r0 = row_dot_complex(ops.b1(), 0, &c_v);
        let r1 = row_dot_complex(ops.b1(), n - 1, &c_v);
        let g = &self.greens[i];
        let a = -(g.minv[0][0] * r0 + g.minv[0][1] * r1);
        let b = -(g.minv[1][0] * r0 + g.minv[1][1] * r1);
        for j in 0..n {
            c_phi[j] += a * g.c_phi_a[j] + b * g.c_phi_b[j];
            c_v[j] += a * g.c_v_a[j] + b * g.c_v_b[j];
        }
        c_v
    }
}

/// Block analogue of [`dy_coefficients`]: derivative coefficients of the
/// [`LANES`] columns of one block (`B0 c' = B1 c` against the shared `B0`
/// factors). `out` is overwritten.
pub fn dy_coefficients_block(ops: &CollocationOps, c: &[LaneRow], out: &mut [LaneRow]) {
    ops.b1().matvec_block(c, out);
    ops.b0_lu().solve_block(out);
}

/// The influence-matrix columns of every factor block for one substep,
/// in [`RhsPanel`] block layout: the real parts carry the lower-wall
/// Green's column (`A`), the imaginary parts the upper-wall one (`B`).
struct BatchGreens {
    c_phi: Vec<LaneRow>,
    c_v: Vec<LaneRow>,
    /// Per-lane 2x2 inverse wall-slope matrices.
    minv: Vec<[[f64; 2]; 2]>,
}

/// The batched counterpart of a rank's worth of [`ModeSolver`]s: every
/// normal `(kx, kz)` mode's Helmholtz/Poisson factors in
/// [`BatchedFactor`]s (one per RK substep plus one Poisson), advanced
/// [`LANES`] modes per sweep instead of by per-mode scalar solves — the
/// paper's "many right-hand sides at once" amortisation (section 4.1.1)
/// applied to the DNS hot path.
///
/// The operators depend on the mode only through `k^2`, so panel blocks
/// whose eight `k^2` agree bit for bit (a `+kz` block and its `-kz`
/// twin) share one *factor block*: one set of factor streams and
/// Green's columns.
pub struct BatchNormalSolver {
    width: usize,
    /// Panel block -> factor block.
    fblock: Vec<usize>,
    /// [`walk`](Self::walk).
    walk: Vec<usize>,
    /// Per factor block, the lanes' `k^2` (1.0 past the last mode; those
    /// lanes are never read back).
    k2: Vec<[f64; LANES]>,
    helm: [BatchedFactor; 3],
    pois: BatchedFactor,
    greens: [BatchGreens; 3],
}

impl BatchNormalSolver {
    /// Build the apparatus for the given squared wavenumbers, in any
    /// column order, [`LANES`] modes at a time: each factor block's
    /// operators are assembled, eliminated and Green's-solved side by
    /// side in a [`LaneBand`], every lane repeating the arithmetic of
    /// [`ModeSolver::new`] — so the factors, Green's columns and `minv`
    /// are that oracle's, bit for bit.
    pub fn new(ops: &CollocationOps, k2s: &[f64], nu: f64, dt: f64) -> BatchNormalSolver {
        let (n, kl, ku) = (ops.n(), ops.b0().kl(), ops.b0().ku());
        let mut k2 = Vec::new();
        let mut seen = BTreeMap::new();
        let fblock: Vec<usize> = k2s
            .chunks(LANES)
            .map(|chunk| {
                let mut lanes = [1.0; LANES];
                lanes[..chunk.len()].copy_from_slice(chunk);
                *seen.entry(lanes.map(f64::to_bits)).or_insert_with(|| {
                    k2.push(lanes);
                    k2.len() - 1
                })
            })
            .collect();
        let fwidth = k2.len() * LANES;
        let mut helm: [BatchedFactor; 3] =
            std::array::from_fn(|_| BatchedFactor::zeros(n, kl, ku, fwidth));
        let mut pois = BatchedFactor::zeros(n, kl, ku, fwidth);
        let mut greens: [BatchGreens; 3] = std::array::from_fn(|_| BatchGreens {
            c_phi: vec![LaneRow::ZERO; k2.len() * n],
            c_v: vec![LaneRow::ZERO; k2.len() * n],
            minv: vec![[[0.0; 2]; 2]; fwidth],
        });
        let (b0, b1, b2, walls) = (ops.b0(), ops.b1(), ops.b2(), ops.wall_rows());
        let (mut hband, mut pband) = (LaneBand::new(n, kl, ku), LaneBand::new(n, kl, ku));
        for (fb, k2) in k2.iter().enumerate() {
            // B2 - k^2 B0 with Dirichlet rows
            pband.assemble(b0, b2, &k2.map(|k2| -k2), 1.0, walls);
            pband.factor().expect("Poisson operator is nonsingular");
            pois.set_block(fb, &pband);
            for (i, g) in greens.iter_mut().enumerate() {
                let c = rk3::BETA[i] * nu * dt;
                // B0 - c (B2 - k^2 B0) = (1 + c k^2) B0 - c B2
                hband.assemble(b0, b2, &k2.map(|k2| 1.0 + c * k2), -c, walls);
                hband.factor().expect("Helmholtz operator is nonsingular");
                helm[i].set_block(fb, &hband);
                // both Green's columns in one block: unit value at the
                // lower wall in the real parts, at the upper in the
                // imaginary, then their induced v columns
                let c_phi = &mut g.c_phi[fb * n..][..n];
                let c_v = &mut g.c_v[fb * n..][..n];
                c_phi[0].re.0 = [1.0; LANES];
                c_phi[n - 1].im.0 = [1.0; LANES];
                hband.solve(c_phi);
                b0.matvec_block(c_phi, c_v);
                c_v[0] = LaneRow::ZERO;
                c_v[n - 1] = LaneRow::ZERO;
                pband.solve(c_v);
                for (l, minv) in g.minv[fb * LANES..][..LANES].iter_mut().enumerate() {
                    let (a, b) = (|j: usize| c_v[j].re[l], |j: usize| c_v[j].im[l]);
                    *minv = invert_slopes([
                        [wall_slope(b1, 0, a), wall_slope(b1, 0, b)],
                        [wall_slope(b1, n - 1, a), wall_slope(b1, n - 1, b)],
                    ]);
                }
            }
        }
        BatchNormalSolver {
            width: k2s.len(),
            walk: {
                let mut walk: Vec<usize> = (0..fblock.len()).collect();
                walk.sort_by_key(|&b| fblock[b]);
                walk
            },
            fblock,
            k2,
            helm,
            pois,
            greens,
        }
    }

    /// Number of [`LANES`]-wide panel blocks.
    pub fn blocks(&self) -> usize {
        self.fblock.len()
    }

    /// The panel blocks, those sharing a factor block back to back: a walk
    /// in this order finds shared factor streams in cache.
    pub fn walk(&self) -> &[usize] {
        &self.walk
    }

    /// Number of distinct factor blocks behind them.
    pub fn factor_blocks(&self) -> usize {
        self.k2.len()
    }

    /// Resident bytes of the factor streams and Green's columns.
    pub fn factor_bytes(&self) -> usize {
        let greens = 2 * self.factor_blocks() * self.pois.n() * size_of::<LaneRow>();
        self.pois.bytes() + self.helm.iter().map(|h| h.bytes() + greens).sum::<usize>()
    }

    /// Number of batched columns (= panel width of every solve).
    pub fn width(&self) -> usize {
        self.width
    }

    /// The lanes' `k^2` of panel block `b` (1.0 past the last column).
    pub fn k2(&self, b: usize) -> &[f64; LANES] {
        &self.k2[self.fblock[b]]
    }

    /// Telemetry of `stages` solve stages of `columns` solves each (the
    /// packed Helmholtz and Poisson factors share one shape): the block
    /// methods below are uncounted, so a caller that walks blocks itself
    /// reports each stage once, counting the columns that hold a mode.
    pub fn count_solves(&self, columns: usize, stages: usize) {
        self.pois.count_solves(columns, stages);
    }

    /// Panel analogue of [`ModeSolver::advance`]: advance one
    /// prognostic panel (`omega_y` or `phi` columns) through RK substep
    /// `i`, block by block. Block 0 of `b0c`/`b2c` is the matvec scratch
    /// of every block (overwritten), so it stays cache-resident.
    #[allow(clippy::too_many_arguments)]
    pub fn advance_panel(
        &self,
        ops: &CollocationOps,
        i: usize,
        c: &mut RhsPanel,
        n_new: &RhsPanel,
        n_old: &RhsPanel,
        nu: f64,
        dt: f64,
        b0c: &mut RhsPanel,
        b2c: &mut RhsPanel,
    ) {
        self.count_solves(self.width, 1);
        let (b0c, b2c) = (b0c.block_mut(0), b2c.block_mut(0));
        for b in 0..self.blocks() {
            let (nn, no) = (n_new.block(b), n_old.block(b));
            self.advance_block(ops, i, b, c.block_mut(b), nn, no, nu, dt, b0c, b2c);
        }
    }

    /// [`advance_panel`](Self::advance_panel) on the rows of block `b`
    /// (uncounted); `b0c`/`b2c` are one-block scratch.
    #[allow(clippy::too_many_arguments)]
    pub fn advance_block(
        &self,
        ops: &CollocationOps,
        i: usize,
        b: usize,
        c: &mut [LaneRow],
        n_new: &[LaneRow],
        n_old: &[LaneRow],
        nu: f64,
        dt: f64,
        b0c: &mut [LaneRow],
        b2c: &mut [LaneRow],
    ) {
        let n = ops.n();
        ops.b0().matvec_block(c, b0c);
        ops.b2().matvec_block(c, b2c);
        let a = nu * dt * rk3::ALPHA[i];
        let g = dt * rk3::GAMMA[i];
        let z = dt * rk3::ZETA[i];
        let fb = self.fblock[b];
        let k2 = &self.k2[fb];
        for (j, c) in c.iter_mut().enumerate() {
            let (b0, b2, nn, no) = (&b0c[j], &b2c[j], &n_new[j], &n_old[j]);
            for l in 0..LANES {
                c.re[l] =
                    b0.re[l] + a * (b2.re[l] - k2[l] * b0.re[l]) + g * nn.re[l] + z * no.re[l];
                c.im[l] =
                    b0.im[l] + a * (b2.im[l] - k2[l] * b0.im[l]) + g * nn.im[l] + z * no.im[l];
            }
        }
        c[0] = LaneRow::ZERO;
        c[n - 1] = LaneRow::ZERO;
        self.helm[i].solve_block(fb, c);
    }

    /// Block analogue of [`ModeSolver::solve_v`] (uncounted): recover
    /// the `v` columns of block `b` from its `phi` columns after substep
    /// `i`, applying the per-lane influence-matrix corrections so every
    /// column satisfies `v(+-1) = v'(+-1) = 0`. `c_phi` is corrected in
    /// place.
    pub fn solve_v_block(
        &self,
        ops: &CollocationOps,
        i: usize,
        b: usize,
        c_phi: &mut [LaneRow],
        c_v: &mut [LaneRow],
    ) {
        let n = ops.n();
        ops.b0().matvec_block(c_phi, c_v);
        c_v[0] = LaneRow::ZERO;
        c_v[n - 1] = LaneRow::ZERO;
        let fb = self.fblock[b];
        self.pois.solve_block(fb, c_v);
        let b1 = ops.b1();
        let g = &self.greens[i];
        // residual wall slopes of every lane: rows 0 and n-1 of B1 c_v
        let mut s0 = [0.0f64; 2 * LANES]; // re | im
        let mut s1 = [0.0f64; 2 * LANES];
        for (row, s) in [(0, &mut s0), (n - 1, &mut s1)] {
            let ci = b1.col_start(row);
            for j in ci..(ci + b1.width()).min(n) {
                let a = b1.get(row, j);
                for l in 0..LANES {
                    s[l] += a * c_v[j].re[l];
                    s[LANES + l] += a * c_v[j].im[l];
                }
            }
        }
        // correction amplitudes, lane-wise
        let mut ar = [0.0f64; LANES];
        let mut ai = [0.0f64; LANES];
        let mut br = [0.0f64; LANES];
        let mut bi = [0.0f64; LANES];
        for l in 0..LANES {
            let m = &g.minv[fb * LANES + l];
            ar[l] = -(m[0][0] * s0[l] + m[0][1] * s1[l]);
            ai[l] = -(m[0][0] * s0[LANES + l] + m[0][1] * s1[LANES + l]);
            br[l] = -(m[1][0] * s0[l] + m[1][1] * s1[l]);
            bi[l] = -(m[1][0] * s0[LANES + l] + m[1][1] * s1[LANES + l]);
        }
        let greens = g.c_phi[fb * n..][..n].iter().zip(&g.c_v[fb * n..][..n]);
        for ((p, v), (gp, gv)) in c_phi.iter_mut().zip(c_v).zip(greens) {
            for l in 0..LANES {
                p.re[l] += ar[l] * gp.re[l] + br[l] * gp.im[l];
                p.im[l] += ai[l] * gp.re[l] + bi[l] * gp.im[l];
                v.re[l] += ar[l] * gv.re[l] + br[l] * gv.im[l];
                v.im[l] += ai[l] * gv.re[l] + bi[l] * gv.im[l];
            }
        }
    }
}

/// Solver for the `(kx, kz) = (0, 0)` mean-flow modes: real Helmholtz
/// advances of `<u>(y)` and `<w>(y)` with Dirichlet walls.
pub struct MeanSolver {
    helm: [CornerLu; 3],
}

impl MeanSolver {
    /// Factor the three substep operators `B0 - beta_i nu dt B2`.
    pub fn new(ops: &CollocationOps, nu: f64, dt: f64) -> MeanSolver {
        let n = ops.n();
        let helm = std::array::from_fn(|i| {
            let c = rk3::BETA[i] * nu * dt;
            let mut m = ops.combine(1.0, 0.0, -c);
            ops.set_boundary_row(&mut m, 0, -1.0, 0);
            ops.set_boundary_row(&mut m, n - 1, 1.0, 0);
            CornerLu::factor(m).expect("mean Helmholtz nonsingular")
        });
        MeanSolver { helm }
    }

    /// Advance a mean profile through substep `i`. `n_new`/`n_old` are
    /// nonlinear+forcing values at the collocation points.
    #[allow(clippy::too_many_arguments)]
    pub fn advance(
        &self,
        ops: &CollocationOps,
        i: usize,
        c: &mut [f64],
        n_new: &[f64],
        n_old: &[f64],
        nu: f64,
        dt: f64,
    ) {
        let n = c.len();
        let mut b0c = vec![0.0; n];
        let mut b2c = vec![0.0; n];
        self.advance_in(ops, i, c, n_new, n_old, nu, dt, &mut b0c, &mut b2c);
    }

    /// [`MeanSolver::advance`] with caller-owned `B0 c` / `B2 c` scratch
    /// (both overwritten) — the zero-allocation hot-path variant.
    #[allow(clippy::too_many_arguments)]
    pub fn advance_in(
        &self,
        ops: &CollocationOps,
        i: usize,
        c: &mut [f64],
        n_new: &[f64],
        n_old: &[f64],
        nu: f64,
        dt: f64,
        b0c: &mut [f64],
        b2c: &mut [f64],
    ) {
        let n = c.len();
        ops.b0().matvec(c, b0c);
        ops.b2().matvec(c, b2c);
        let a = nu * dt * rk3::ALPHA[i];
        let g = dt * rk3::GAMMA[i];
        let z = dt * rk3::ZETA[i];
        for j in 0..n {
            c[j] = b0c[j] + a * b2c[j] + g * n_new[j] + z * n_old[j];
        }
        c[0] = 0.0;
        c[n - 1] = 0.0;
        self.helm[i].solve(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_bspline::{tanh_breakpoints, BsplineBasis};

    fn make_ops(ny: usize) -> CollocationOps {
        let basis = BsplineBasis::new(8, &tanh_breakpoints(ny - 7, 1.5));
        CollocationOps::new(&basis)
    }

    #[test]
    fn stokes_mode_decays_at_the_analytic_rate() {
        // omega(y, t) = sin(m pi (y+1)/2) exp(-nu (k^2 + (m pi/2)^2) t)
        let ops = make_ops(48);
        let n = ops.n();
        let nu = 0.05;
        let dt = 2e-3;
        let k2: f64 = 4.0;
        let ms = ModeSolver::new(&ops, k2, nu, dt);
        let m = 2.0;
        let lam = nu * (k2 + (m * std::f64::consts::FRAC_PI_2).powi(2));
        let profile: Vec<f64> = ops
            .points()
            .iter()
            .map(|&y| (m * std::f64::consts::FRAC_PI_2 * (y + 1.0)).sin())
            .collect();
        let mut c: Vec<C64> = ops
            .interpolate(&profile)
            .into_iter()
            .map(|v| C64::new(v, 0.0))
            .collect();
        let zero = vec![C64::new(0.0, 0.0); n];
        let steps = 50;
        for _ in 0..steps {
            for i in 0..3 {
                ms.advance(&ops, i, &mut c, &zero, &zero, nu, dt);
            }
        }
        let t = dt * steps as f64;
        let expect = (-lam * t).exp();
        // compare at a midpoint
        let got = ops
            .basis()
            .eval(&c.iter().map(|v| v.re).collect::<Vec<_>>(), 0.31)
            / (m * std::f64::consts::FRAC_PI_2 * 1.31).sin();
        assert!(
            (got - expect).abs() < 2e-5,
            "decay {got} vs analytic {expect}"
        );
    }

    #[test]
    fn solve_v_enforces_all_four_boundary_conditions() {
        let ops = make_ops(40);
        let n = ops.n();
        let ms = ModeSolver::new(&ops, 2.5, 0.01, 1e-2);
        // arbitrary complex phi
        let mut c_phi: Vec<C64> = (0..n)
            .map(|j| C64::new((j as f64 * 0.37).sin(), (j as f64 * 0.71).cos()))
            .collect();
        let c_v = ms.solve_v(&ops, 1, &mut c_phi);
        let re: Vec<f64> = c_v.iter().map(|v| v.re).collect();
        let im: Vec<f64> = c_v.iter().map(|v| v.im).collect();
        for part in [&re, &im] {
            assert!(ops.basis().eval(part, -1.0).abs() < 1e-10, "v(-1)=0");
            assert!(ops.basis().eval(part, 1.0).abs() < 1e-10, "v(1)=0");
            assert!(
                ops.basis().eval_deriv(part, -1.0, 1).abs() < 1e-8,
                "v'(-1)=0"
            );
            assert!(ops.basis().eval_deriv(part, 1.0, 1).abs() < 1e-8, "v'(1)=0");
        }
    }

    #[test]
    fn solve_v_satisfies_the_poisson_equation_in_the_interior() {
        let ops = make_ops(36);
        let n = ops.n();
        let k2 = 3.7;
        let ms = ModeSolver::new(&ops, k2, 0.02, 5e-3);
        let mut c_phi: Vec<C64> = (0..n)
            .map(|j| C64::new((j as f64 * 0.13).cos(), 0.2 * (j as f64 * 0.41).sin()))
            .collect();
        let phi_before = c_phi.clone();
        let c_v = ms.solve_v(&ops, 0, &mut c_phi);
        // (D2 - k^2) v = phi at interior collocation points, with the
        // *corrected* phi
        let n_pts = ops.n();
        let mut d2v = vec![C64::new(0.0, 0.0); n_pts];
        let mut b0v = vec![C64::new(0.0, 0.0); n_pts];
        let mut phi_vals = vec![C64::new(0.0, 0.0); n_pts];
        ops.b2().matvec_complex(&c_v, &mut d2v);
        ops.b0().matvec_complex(&c_v, &mut b0v);
        ops.b0().matvec_complex(&c_phi, &mut phi_vals);
        for j in 1..n_pts - 1 {
            let lhs = d2v[j] - k2 * b0v[j];
            assert!(
                (lhs - phi_vals[j]).norm() < 1e-8,
                "row {j}: {lhs} vs {}",
                phi_vals[j]
            );
        }
        // the correction only acts through the boundary rows of the
        // Helmholtz system: phi changed, but by a combination of the two
        // Green's columns only
        let delta_norm: f64 = c_phi
            .iter()
            .zip(&phi_before)
            .map(|(a, b)| (a - b).norm())
            .sum();
        assert!(delta_norm > 1e-12, "influence correction must engage");
    }

    #[test]
    fn batched_solver_matches_per_mode_solvers() {
        let ops = make_ops(33);
        let n = ops.n();
        let (nu, dt) = (0.02, 2e-3);
        // enough modes to exercise a partial last block
        let k2s: Vec<f64> = (0..11).map(|m| 0.5 + 1.7 * m as f64).collect();
        let batch = BatchNormalSolver::new(&ops, &k2s, nu, dt);
        let scalars: Vec<ModeSolver> = k2s
            .iter()
            .map(|&k2| ModeSolver::new(&ops, k2, nu, dt))
            .collect();
        let line = |r: usize, salt: f64| -> Vec<C64> {
            (0..n)
                .map(|j| {
                    let x = j as f64 * 0.29 + r as f64 * 1.3 + salt;
                    C64::new(x.sin(), (1.7 * x).cos())
                })
                .collect()
        };
        for i in 0..3 {
            let w = k2s.len();
            let mut pc = RhsPanel::new(n, w);
            let mut pn = RhsPanel::new(n, w);
            let mut po = RhsPanel::new(n, w);
            let mut pb0 = RhsPanel::new(n, w);
            let mut pb2 = RhsPanel::new(n, w);
            let mut pv = RhsPanel::new(n, w);
            for r in 0..w {
                pc.load_col(r, &line(r, 0.0));
                pn.load_col(r, &line(r, 0.4));
                po.load_col(r, &line(r, 0.8));
            }
            batch.advance_panel(&ops, i, &mut pc, &pn, &po, nu, dt, &mut pb0, &mut pb2);
            for b in 0..pc.blocks() {
                batch.solve_v_block(&ops, i, b, pc.block_mut(b), pv.block_mut(b));
            }
            for (r, ms) in scalars.iter().enumerate() {
                let mut c = line(r, 0.0);
                ms.advance(&ops, i, &mut c, &line(r, 0.4), &line(r, 0.8), nu, dt);
                let v = ms.solve_v(&ops, i, &mut c);
                // lane-built factors are the oracle's, and the sweeps
                // repeat the scalar kernels: same bits
                for j in 0..n {
                    assert_eq!(pc.at(j, r), c[j], "substep {i} phi col {r} row {j}");
                    assert_eq!(pv.at(j, r), v[j], "substep {i} v col {r} row {j}");
                }
            }
        }
    }

    #[test]
    fn an_empty_batch_has_no_blocks_and_advances_nothing() {
        let ops = make_ops(33);
        let batch = BatchNormalSolver::new(&ops, &[], 0.02, 2e-3);
        let sizes = (batch.width(), batch.blocks(), batch.factor_blocks());
        assert_eq!((sizes, batch.factor_bytes()), ((0, 0, 0), 0));
        let mut c = RhsPanel::new(ops.n(), 0);
        let (nn, no) = (c.clone(), c.clone());
        let (mut b0c, mut b2c) = (RhsPanel::new(ops.n(), 1), RhsPanel::new(ops.n(), 1));
        batch.advance_panel(&ops, 0, &mut c, &nn, &no, 0.02, 2e-3, &mut b0c, &mut b2c);
    }

    #[test]
    fn lane_built_greens_columns_equal_the_mode_solver_oracle_bitwise() {
        let ops = make_ops(33);
        let n = ops.n();
        let (nu, dt) = (0.02, 2e-3);
        // two full blocks with the same eight k^2 (one shared factor
        // block) and a partial third
        let mut k2s: Vec<f64> = (0..8).map(|m| 0.5 + 1.7 * m as f64).collect();
        k2s.extend_from_within(..);
        k2s.extend([3.3, 41.0, 0.07]);
        let batch = BatchNormalSolver::new(&ops, &k2s, nu, dt);
        assert_eq!((batch.blocks(), batch.factor_blocks()), (3, 2));
        assert_eq!(batch.fblock, [0, 0, 1]);
        for (r, &k2) in k2s.iter().enumerate() {
            let ms = ModeSolver::new(&ops, k2, nu, dt);
            let (fb, l) = (batch.fblock[r / LANES], r % LANES);
            for (i, (g, sg)) in batch.greens.iter().zip(&ms.greens).enumerate() {
                for j in 0..n {
                    let (gp, gv) = (&g.c_phi[fb * n + j], &g.c_v[fb * n + j]);
                    let got = [gp.re[l], gp.im[l], gv.re[l], gv.im[l]];
                    let want = [sg.c_phi_a[j], sg.c_phi_b[j], sg.c_v_a[j], sg.c_v_b[j]];
                    assert_eq!(
                        got.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "substep {i} col {r} row {j}"
                    );
                }
                let bits = |m: &[[f64; 2]; 2]| m.map(|row| row.map(f64::to_bits));
                assert_eq!(
                    bits(&g.minv[fb * LANES + l]),
                    bits(&sg.minv),
                    "minv {i} col {r}"
                );
            }
        }
    }

    #[test]
    fn dy_block_matches_scalar_derivative() {
        let ops = make_ops(28);
        let n = ops.n();
        let w = 5;
        let mut c = RhsPanel::new(n, w);
        let mut out = RhsPanel::new(n, w);
        let cols: Vec<Vec<C64>> = (0..w)
            .map(|r| {
                (0..n)
                    .map(|j| C64::new((j as f64 + r as f64).sin(), (j as f64 * 0.3).cos()))
                    .collect()
            })
            .collect();
        for (r, col) in cols.iter().enumerate() {
            c.load_col(r, col);
        }
        dy_coefficients_block(&ops, c.block(0), out.block_mut(0));
        for (r, col) in cols.iter().enumerate() {
            let want = dy_coefficients(&ops, col);
            for j in 0..n {
                assert!(
                    (out.at(j, r) - want[j]).norm() < 1e-12 * (1.0 + want[j].norm()),
                    "col {r} row {j}"
                );
            }
        }
    }

    #[test]
    fn mean_solver_holds_poiseuille_steady() {
        // nu u'' + F = 0 with u(+-1) = 0: u = F (1 - y^2) / (2 nu).
        let ops = make_ops(32);
        let nu = 0.1;
        let dt = 0.01;
        let f = 1.0;
        let msol = MeanSolver::new(&ops, nu, dt);
        let profile: Vec<f64> = ops
            .points()
            .iter()
            .map(|&y| f * (1.0 - y * y) / (2.0 * nu))
            .collect();
        let mut c = ops.interpolate(&profile);
        let forcing = vec![f; ops.n()];
        for _ in 0..20 {
            for i in 0..3 {
                msol.advance(&ops, i, &mut c, &forcing, &forcing, nu, dt);
            }
        }
        for (&y, want) in ops.points().iter().zip(&profile) {
            let got = ops.basis().eval(&c, y);
            assert!((got - want).abs() < 1e-9, "y={y}: {got} vs {want}");
        }
    }

    #[test]
    fn mean_flow_accelerates_from_rest_at_the_forcing_rate() {
        let ops = make_ops(32);
        let nu = 1e-4; // nearly inviscid: du/dt ~ F away from walls
        let dt = 1e-3;
        let msol = MeanSolver::new(&ops, nu, dt);
        let mut c = vec![0.0; ops.n()];
        let forcing = vec![2.0; ops.n()];
        let steps = 10;
        for _ in 0..steps {
            for i in 0..3 {
                msol.advance(&ops, i, &mut c, &forcing, &forcing, nu, dt);
            }
        }
        let u_mid = ops.basis().eval(&c, 0.0);
        let want = 2.0 * dt * steps as f64;
        assert!((u_mid - want).abs() < 1e-4, "{u_mid} vs {want}");
    }
}
