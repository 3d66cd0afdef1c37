//! Set-up at lane speed: [`LANES`] operators of one shape assembled,
//! eliminated and solved side by side in a [`LaneBand`] — one block of a
//! [`BatchedFactor`](crate::BatchedFactor) before it is split into the
//! sweep streams. Each lane repeats the scalar route (`a*B0 + c*B2`
//! entry by entry, [`CornerLu::factor`](crate::CornerLu::factor),
//! [`CornerLu::solve`](crate::CornerLu::solve)) operation for operation,
//! so nothing downstream can tell which route built its factors.

use crate::batch::{LaneRow, LANES};
use crate::corner::{CornerBanded, TINY};
use crate::LinalgError;

/// [`LANES`] corner-banded operators of one `(n, kl, ku)` shape in the
/// row-window layout of [`CornerBanded`], a lane of eight values in every
/// slot; after [`factor`](Self::factor), their unpivoted LU factors.
#[derive(Clone, Debug)]
pub struct LaneBand {
    pub(crate) n: usize,
    pub(crate) kl: usize,
    pub(crate) ku: usize,
    /// Bottom corner rows: the widest any lane declares.
    nc_bot: usize,
    data: Vec<[f64; LANES]>,
}

impl LaneBand {
    /// An all-zero block (the one allocation; every later call reuses it).
    ///
    /// # Panics
    /// If `n < kl + ku + 1`.
    pub fn new(n: usize, kl: usize, ku: usize) -> LaneBand {
        let w = kl + ku + 1;
        assert!(n >= w, "matrix must be at least as large as the bandwidth");
        LaneBand {
            n,
            kl,
            ku,
            nc_bot: 0,
            data: vec![[0.0; LANES]; n * w],
        }
    }

    fn width(&self) -> usize {
        self.kl + self.ku + 1
    }

    #[inline(always)]
    fn col_start(&self, i: usize) -> usize {
        i.saturating_sub(self.kl).min(self.n - self.width())
    }

    /// Row `i`'s window.
    pub(crate) fn row(&self, i: usize) -> &[[f64; LANES]] {
        &self.data[i * self.width()..][..self.width()]
    }

    fn check_shape(&self, m: &CornerBanded) {
        let shape = (self.n, self.kl, self.ku);
        assert_eq!((m.n(), m.kl(), m.ku()), shape, "operator shape");
    }

    /// Lane `l` becomes `a[l]*B0 + c*B2`, slot by slot over the raw
    /// windows, rows `0` and `n - 1` then replaced in every lane by the
    /// windows `walls[0]` / `walls[1]` (the boundary rows: evaluated once
    /// by the caller, not once per operator).
    ///
    /// # Panics
    /// If `b0`/`b2` do not have the block's shape or a wall window is not
    /// `kl + ku + 1` long.
    pub fn assemble(
        &mut self,
        b0: &CornerBanded,
        b2: &CornerBanded,
        a: &[f64; LANES],
        c: f64,
        walls: [&[f64]; 2],
    ) {
        self.check_shape(b0);
        self.check_shape(b2);
        let w = self.width();
        let terms = b0.raw_data().iter().zip(b2.raw_data());
        for (slot, (x0, x2)) in self.data.iter_mut().zip(terms) {
            *slot = a.map(|a| a * x0 + c * x2);
        }
        for (row, wall) in [(0, walls[0]), (self.n - 1, walls[1])] {
            assert_eq!(wall.len(), w, "wall row must be one window long");
            for (slot, &v) in self.data[row * w..][..w].iter_mut().zip(wall) {
                *slot = [v; LANES];
            }
        }
        self.nc_bot = b0.nc_bot().max(b2.nc_bot());
    }

    /// Lane `l` becomes `mats[l]`; lanes past `mats.len()` the identity.
    /// The block eliminates with the widest bottom corner rows among
    /// `mats`; a lane that declares fewer holds exact zeros there, which
    /// stay zeros but may change sign — the one case where a lane's bits
    /// can differ from the scalar route's.
    ///
    /// # Panics
    /// If more than [`LANES`] operators are given or one does not have
    /// the block's shape.
    pub fn load(&mut self, mats: &[CornerBanded]) {
        assert!(mats.len() <= LANES, "one operator per lane");
        self.nc_bot = mats.iter().map(CornerBanded::nc_bot).max().unwrap_or(0);
        for i in 0..self.n {
            let (w, diag) = (self.width(), i - self.col_start(i));
            for (t, slot) in self.data[i * w..][..w].iter_mut().enumerate() {
                *slot = [f64::from(t == diag); LANES];
            }
        }
        for (l, m) in mats.iter().enumerate() {
            self.check_shape(m);
            for (slot, &v) in self.data.iter_mut().zip(m.raw_data()) {
                slot[l] = v;
            }
        }
    }

    /// Factor every lane in place without pivoting:
    /// [`CornerLu::factor`](crate::CornerLu::factor)'s elimination, its
    /// operations in its order, across the lanes. A singular lane reports
    /// the step the scalar kernel would (the lowest lane's, if several).
    pub fn factor(&mut self) -> Result<(), LinalgError> {
        let mut bad = [usize::MAX; LANES];
        factor_lanes(self, &mut bad);
        match bad.iter().find(|&&k| k != usize::MAX) {
            Some(&k) => Err(LinalgError::SingularAt(k)),
            None => Ok(()),
        }
    }

    /// Solve in place against the [`factor`](Self::factor)ed lanes for
    /// two real right-hand sides per lane, the real and imaginary parts
    /// of one block: each equals [`CornerLu::solve`](crate::CornerLu::solve)
    /// of its column bit for bit — zero entries skipped on the way down,
    /// a *division* by the diagonal on the way up (the per-step sweeps
    /// multiply by a stored reciprocal instead, which rounds differently).
    ///
    /// # Panics
    /// If `rhs` is not `n` rows long.
    pub fn solve(&self, rhs: &mut [LaneRow]) {
        assert_eq!(rhs.len(), self.n, "block rows must match the operators");
        solve_lanes(self, rhs);
    }
}

/// The elimination of `factor_kernel` lane-wise. `bad[l]` receives the
/// first step at which lane `l`'s diagonal was numerically zero (that
/// lane's later values are meaningless, as the scalar kernel's would be
/// had it not stopped; the other lanes are unaffected).
#[inline(always)]
fn factor_lanes_body(f: &mut LaneBand, bad: &mut [usize; LANES]) {
    let (n, kl, w) = (f.n, f.kl, f.width());
    let anchor = n - w;
    for k in 0..n {
        let ck = f.col_start(k);
        let pivot = f.data[k * w + (k - ck)];
        for l in 0..LANES {
            if pivot[l].abs() < TINY && bad[l] == usize::MAX {
                bad[l] = k;
            }
        }
        let inv = pivot.map(|p| 1.0 / p);
        let jend = (ck + w - 1).min(n - 1);
        // 1. regular band targets
        let imax = (k + kl).min(n - 1);
        for i in k + 1..=imax {
            eliminate_row(f, i, k, jend, &inv);
        }
        // 2. bottom corner rows whose anchored window reaches column k
        if k >= anchor {
            for i in (n - f.nc_bot).max(imax + 1)..n {
                eliminate_row(f, i, k, jend, &inv);
            }
        }
    }
}

/// Row `i` minus its multiplier times pivot row `k`; a lane whose
/// multiplier is zero keeps its row untouched, as the scalar kernel's
/// early return does.
#[inline(always)]
fn eliminate_row(f: &mut LaneBand, i: usize, k: usize, jend: usize, inv: &[f64; LANES]) {
    let w = f.width();
    let (ci, ck) = (f.col_start(i), f.col_start(k));
    let (above, below) = f.data.split_at_mut(i * w);
    let (lo, hi) = (&above[k * w..][..w], &mut below[..w]);
    let mult: [f64; LANES] = std::array::from_fn(|l| hi[k - ci][l] * inv[l]);
    hi[k - ci] = mult;
    if mult == [0.0; LANES] {
        return;
    }
    for j in k + 1..=jend {
        let (t, p) = (&mut hi[j - ci], &lo[j - ck]);
        for l in 0..LANES {
            let v = t[l] - mult[l] * p[l];
            t[l] = if mult[l] != 0.0 { v } else { t[l] };
        }
    }
}

/// `solve_kernel` lane-wise on both parts of the block: the forward sweep
/// in row-accumulation form (row `i` takes its updates in ascending `k`
/// either way), over the in-band multipliers plus, on a bottom corner
/// row, the rest of the window.
#[inline(always)]
fn solve_lanes_body(f: &LaneBand, rhs: &mut [LaneRow]) {
    let (n, kl, w) = (f.n, f.kl, f.width());
    for i in 1..n {
        let (ci, row) = (f.col_start(i), f.row(i));
        let first = if i + f.nc_bot >= n {
            ci
        } else {
            i.saturating_sub(kl)
        };
        let mut a = rhs[i];
        for k in first..i {
            let (m, x) = (&row[k - ci], &rhs[k]);
            for l in 0..LANES {
                if x.re[l] != 0.0 {
                    a.re[l] -= m[l] * x.re[l];
                }
                if x.im[l] != 0.0 {
                    a.im[l] -= m[l] * x.im[l];
                }
            }
        }
        rhs[i] = a;
    }
    for i in (0..n).rev() {
        let (ci, row) = (f.col_start(i), f.row(i));
        let mut a = rhs[i];
        for j in i + 1..=(ci + w - 1).min(n - 1) {
            let (u, x) = (&row[j - ci], &rhs[j]);
            for l in 0..LANES {
                a.re[l] -= u[l] * x.re[l];
                a.im[l] -= u[l] * x.im[l];
            }
        }
        for l in 0..LANES {
            a.re[l] /= row[i - ci][l];
            a.im[l] /= row[i - ci][l];
        }
        rhs[i] = a;
    }
}

isa_fn! {
    /// [`factor_lanes_body`] under the widest instruction set of this CPU.
    fn factor_lanes(f: &mut LaneBand, bad: &mut [usize; LANES]) = factor_lanes_body
}

isa_fn! {
    /// [`solve_lanes_body`] under the widest instruction set of this CPU.
    fn solve_lanes(f: &LaneBand, rhs: &mut [LaneRow]) = solve_lanes_body
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchedFactor, RhsPanel};
    use crate::testmat::CollocationLike;
    use crate::{CornerLu, C64};

    /// Two collocation-like operators standing in for `B0`/`B2` (with
    /// `nc = 2` rows `1` and `n - 2` stay wide under the walls), and two
    /// in-band wall windows.
    fn family(p: usize, nc: usize) -> (CornerBanded, CornerBanded, [Vec<f64>; 2]) {
        let like = |seed| CollocationLike {
            n: 40,
            p,
            nc: nc.min(p),
            seed,
        };
        let w = 2 * p + 1;
        let mut top = vec![0.0; w];
        let mut bot = vec![0.0; w];
        (top[0], top[1]) = (1.0, -0.25);
        (bot[w - 1], bot[w - 2]) = (1.0, 0.5);
        (like(5).corner(), like(6).corner(), [top, bot])
    }

    /// The scalar route: `a*B0 + c*B2` through `get`/`set`, the wall rows
    /// written over rows `0` and `n - 1`.
    fn scalar_operator(
        b0: &CornerBanded,
        b2: &CornerBanded,
        a: f64,
        c: f64,
        walls: &[Vec<f64>; 2],
    ) -> CornerBanded {
        let n = b0.n();
        let mut m = CornerBanded::zeros(n, b0.kl(), b0.ku(), b0.nc_top(), b0.nc_bot());
        for i in 0..n {
            let ci = m.col_start(i);
            for j in ci..ci + m.width() {
                let wall = match i {
                    0 => Some(walls[0][j - ci]),
                    i if i == n - 1 => Some(walls[1][j - ci]),
                    _ => None,
                };
                m.set(i, j, wall.unwrap_or(a * b0.get(i, j) + c * b2.get(i, j)));
            }
        }
        m
    }

    fn shifts(width: usize) -> Vec<f64> {
        (0..width).map(|m| 1.0 + 0.37 * m as f64).collect()
    }

    /// Lane-assemble and lane-factor `width` operators with the given
    /// elimination body.
    fn lane_route(
        fam: &(CornerBanded, CornerBanded, [Vec<f64>; 2]),
        a: &[f64],
        c: f64,
        factor: impl Fn(&mut LaneBand, &mut [usize; LANES]),
    ) -> BatchedFactor {
        let (b0, b2, walls) = fam;
        let mut out = BatchedFactor::zeros(b0.n(), b0.kl(), b0.ku(), a.len());
        let mut band = LaneBand::new(b0.n(), b0.kl(), b0.ku());
        for (blk, chunk) in a.chunks(LANES).enumerate() {
            let mut lanes = [1.0; LANES];
            lanes[..chunk.len()].copy_from_slice(chunk);
            band.assemble(b0, b2, &lanes, c, [&walls[0], &walls[1]]);
            let mut bad = [usize::MAX; LANES];
            factor(&mut band, &mut bad);
            assert_eq!(bad, [usize::MAX; LANES]);
            out.set_block(blk, &band);
        }
        out
    }

    #[test]
    fn lane_built_streams_equal_packed_scalar_factors_bitwise() {
        for p in [1usize, 3, 7] {
            for nc in [0usize, 2] {
                let fam = family(p, nc);
                for width in [1, LANES - 1, LANES, 2 * LANES + 3] {
                    let a = shifts(width);
                    let mut a_padded = a.clone();
                    a_padded.resize(width.div_ceil(LANES) * LANES, 1.0);
                    let lus: Vec<CornerLu> = a_padded
                        .iter()
                        .map(|&a| {
                            CornerLu::factor(scalar_operator(&fam.0, &fam.1, a, -0.3, &fam.2))
                                .unwrap()
                        })
                        .collect();
                    let want = crate::batch::tests::pack(&lus.iter().collect::<Vec<_>>());
                    let plain = lane_route(&fam, &a, -0.3, factor_lanes_body);
                    let wide = lane_route(&fam, &a, -0.3, factor_lanes);
                    assert!(want.same_streams(&plain), "p={p} nc={nc} width={width}");
                    assert!(
                        want.same_streams(&wide),
                        "p={p} nc={nc} width={width} (isa)"
                    );
                }
            }
        }
    }

    #[test]
    fn loaded_operators_factor_to_the_packed_scalar_factors_bitwise() {
        // `BatchedFactor::factor`: corner structure may change from block
        // to block (bits kept) and inside a block (values kept: the extra
        // slots a narrower lane is eliminated over hold signed zeros)
        for (p, mixed) in [(1usize, false), (3, false), (7, false), (3, true)] {
            let mats: Vec<CornerBanded> = (0..2 * LANES + 3)
                .map(|m| {
                    let like = CollocationLike {
                        n: 40,
                        p,
                        nc: if mixed { m % 2 } else { m / LANES % 2 },
                        seed: 11 + m as u64,
                    };
                    like.corner()
                })
                .collect();
            let lus: Vec<CornerLu> = mats
                .iter()
                .map(|m| CornerLu::factor(m.clone()).unwrap())
                .collect();
            let want = crate::batch::tests::pack(&lus.iter().collect::<Vec<_>>());
            let got = BatchedFactor::factor(mats).unwrap();
            assert!(mixed || want.same_streams(&got), "p={p}");
            let mut panel = RhsPanel::new(40, lus.len());
            for m in 0..lus.len() {
                let col: Vec<C64> = (0..40)
                    .map(|j| C64::new(((j * 5 + m) % 13) as f64 - 6.0, (j % 3) as f64))
                    .collect();
                panel.load_col(m, &col);
            }
            let mut oracle = panel.clone();
            got.solve_panel(&mut panel);
            want.solve_panel(&mut oracle);
            for m in 0..lus.len() {
                assert_eq!(panel.col_to_vec(m), oracle.col_to_vec(m), "p={p} col {m}");
            }
        }
    }

    #[test]
    fn block_solve_equals_the_scalar_real_solve_bitwise() {
        for p in [1usize, 3, 7] {
            for nc in [0usize, 2] {
                let (b0, b2, walls) = family(p, nc);
                let n = b0.n();
                let a: [f64; LANES] = std::array::from_fn(|l| 1.0 + 0.61 * l as f64);
                let mut band = LaneBand::new(n, p, p);
                band.assemble(&b0, &b2, &a, 0.2, [&walls[0], &walls[1]]);
                band.factor().unwrap();
                // a unit column (mostly exact zeros) beside a full one
                let col = |l: usize| -> Vec<C64> {
                    (0..n)
                        .map(|j| C64::new(f64::from(j == 0), ((j * 7 + l) % 11) as f64 - 5.0))
                        .collect()
                };
                let mut panel = RhsPanel::new(n, LANES);
                for l in 0..LANES {
                    panel.load_col(l, &col(l));
                }
                let mut plain = panel.clone();
                solve_lanes_body(&band, plain.block_mut(0));
                band.solve(panel.block_mut(0));
                for l in 0..LANES {
                    let lu = CornerLu::factor(scalar_operator(&b0, &b2, a[l], 0.2, &walls));
                    let lu = lu.unwrap();
                    let mut re: Vec<f64> = col(l).iter().map(|v| v.re).collect();
                    let mut im: Vec<f64> = col(l).iter().map(|v| v.im).collect();
                    lu.solve(&mut re);
                    lu.solve(&mut im);
                    for (j, (got, alt)) in panel
                        .col_to_vec(l)
                        .iter()
                        .zip(plain.col_to_vec(l))
                        .enumerate()
                    {
                        let want = (re[j].to_bits(), im[j].to_bits());
                        assert_eq!(
                            (got.re.to_bits(), got.im.to_bits()),
                            want,
                            "lane {l} row {j}"
                        );
                        assert_eq!((alt.re.to_bits(), alt.im.to_bits()), want, "plain body");
                    }
                }
            }
        }
    }

    #[test]
    fn a_singular_lane_reports_the_scalar_step() {
        let n = 12;
        let mats: Vec<CornerBanded> = (0..3)
            .map(|m| {
                let mut a = CornerBanded::zeros(n, 1, 1, 0, 0);
                for i in 0..n {
                    // lane 1 breaks at step 7, lane 2 (later lane) at 4
                    let dead = (m == 1 && i == 7) || (m == 2 && i == 4);
                    a.set(i, i, if dead { 0.0 } else { 2.0 });
                }
                a
            })
            .collect();
        assert_eq!(
            BatchedFactor::factor(mats).unwrap_err(),
            LinalgError::SingularAt(7)
        );
    }
}
