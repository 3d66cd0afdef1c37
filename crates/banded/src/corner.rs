//! The paper's custom banded solver (section 4.1.1, figure 3 right).
//!
//! Storage: every row holds exactly `w = kl + ku + 1` scalars, but the
//! window *slides* at the matrix corners — row `i` covers columns
//! `[ci, ci + w)` with `ci = clamp(i - kl, 0, n - w)`. Interior rows get
//! the usual `[i-kl, i+ku]` band; the first and last rows' windows are
//! anchored to the matrix corner, so the "extra non zero values in the
//! first and last few rows" of the collocation operators occupy slots
//! that a plain band layout would leave structurally zero. Compared with
//! the general solver this stores `w` instead of `2*kl' + ku' + 1` scalars
//! per row with inflated `kl', ku'` — less than half the memory.
//!
//! The factorisation does **no pivoting** (the collocation operators of
//! the DNS are strongly diagonally dominated by the identity term
//! `I + beta*nu*dt*k^2` and never need it) and the complex right-hand
//! side is applied directly against the real factors: each inner
//! multiply-add is two real FMAs instead of a four-multiply complex
//! product or a de/re-interleaving pass.
//!
//! Provided the wide rows satisfy `nc_top <= kl` and `nc_bot <= ku`, the
//! unpivoted elimination provably creates no fill outside the stored
//! windows (the corner windows absorb it), which is the structural
//! insight behind the format.

use crate::{LinalgError, C64};

/// Real matrix in corner-folded band storage.
#[derive(Clone, Debug)]
pub struct CornerBanded {
    n: usize,
    kl: usize,
    ku: usize,
    nc_top: usize,
    nc_bot: usize,
    data: Vec<f64>,
}

impl CornerBanded {
    /// Create a zero matrix. `nc_top`/`nc_bot` declare how many leading /
    /// trailing rows are "wide" (may extend to the full window anchored at
    /// the corner); they are bounded by `kl` / `ku` respectively so that
    /// unpivoted elimination stays inside the stored windows.
    ///
    /// # Panics
    /// If `n < kl + ku + 1`, `nc_top > kl`, or `nc_bot > ku`.
    pub fn zeros(n: usize, kl: usize, ku: usize, nc_top: usize, nc_bot: usize) -> Self {
        let w = kl + ku + 1;
        assert!(n >= w, "matrix must be at least as large as the bandwidth");
        assert!(nc_top <= kl, "top corner rows limited to kl");
        assert!(nc_bot <= ku, "bottom corner rows limited to ku");
        CornerBanded {
            n,
            kl,
            ku,
            nc_top,
            nc_bot,
            data: vec![0.0; n * w],
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }
    /// Sub-diagonal count of the interior band.
    pub fn kl(&self) -> usize {
        self.kl
    }
    /// Super-diagonal count of the interior band.
    pub fn ku(&self) -> usize {
        self.ku
    }
    /// Stored scalars per row.
    pub fn width(&self) -> usize {
        self.kl + self.ku + 1
    }
    /// Number of leading rows declared "wide" (top corner block).
    pub fn nc_top(&self) -> usize {
        self.nc_top
    }
    /// Number of trailing rows declared "wide" (bottom corner block).
    pub fn nc_bot(&self) -> usize {
        self.nc_bot
    }

    /// Row-major compact storage (`n * width` scalars; row `i` holds
    /// columns `col_start(i) ..`). Read-only view for the batched packers.
    pub(crate) fn raw_data(&self) -> &[f64] {
        &self.data
    }

    /// First stored column of row `i`.
    #[inline]
    pub fn col_start(&self, i: usize) -> usize {
        i.saturating_sub(self.kl).min(self.n - self.width())
    }

    /// True if `(i, j)` falls inside row `i`'s stored window.
    pub fn in_window(&self, i: usize, j: usize) -> bool {
        if i >= self.n || j >= self.n {
            return false;
        }
        let ci = self.col_start(i);
        j >= ci && j < ci + self.width()
    }

    /// Read entry `(i, j)` (zero outside the stored window).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        if self.in_window(i, j) {
            self.data[i * self.width() + (j - self.col_start(i))]
        } else {
            0.0
        }
    }

    /// Write entry `(i, j)`.
    ///
    /// # Panics
    /// If the entry is outside row `i`'s stored window, or if a
    /// beyond-the-band entry is written in a row not declared wide.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(
            self.in_window(i, j),
            "({i},{j}) outside stored window of row {i}"
        );
        let in_plain_band = j + self.kl >= i && j <= i + self.ku;
        if !in_plain_band && v != 0.0 {
            let wide = i < self.nc_top || i + self.nc_bot >= self.n;
            assert!(
                wide,
                "({i},{j}) beyond the band but row {i} was not declared a corner row"
            );
        }
        let w = self.width();
        let ci = self.col_start(i);
        self.data[i * w + (j - ci)] = v;
    }

    /// `y = A x` for a real vector.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        let w = self.width();
        for i in 0..self.n {
            let ci = self.col_start(i);
            let row = &self.data[i * w..(i + 1) * w];
            let mut s = 0.0;
            for (t, &a) in row.iter().enumerate() {
                s += a * x[ci + t];
            }
            y[i] = s;
        }
    }

    /// `y = A x` for a complex vector (real matrix).
    pub fn matvec_complex(&self, x: &[C64], y: &mut [C64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        let w = self.width();
        for i in 0..self.n {
            let ci = self.col_start(i);
            let row = &self.data[i * w..(i + 1) * w];
            let mut s = C64::new(0.0, 0.0);
            for (t, &a) in row.iter().enumerate() {
                s += a * x[ci + t];
            }
            y[i] = s;
        }
    }

    /// `sum_t c_t * M_t` over operators of one shape, slot by slot over
    /// the raw windows: each stored entry is `c_0*m_0 + c_1*m_1 + ...`
    /// evaluated left to right, the bits of the same expression written
    /// with [`get`](Self::get). The result declares the widest corner
    /// rows of its terms.
    ///
    /// # Panics
    /// If `terms` is empty or the operators disagree on `n`, `kl`, `ku`.
    pub fn weighted_sum(terms: &[(f64, &CornerBanded)]) -> CornerBanded {
        let (c0, first) = terms[0];
        let mut out = first.clone();
        out.data.iter_mut().for_each(|v| *v *= c0);
        for &(c, m) in &terms[1..] {
            assert_eq!(
                (m.n, m.kl, m.ku),
                (out.n, out.kl, out.ku),
                "summed operators must share their shape"
            );
            out.nc_top = out.nc_top.max(m.nc_top);
            out.nc_bot = out.nc_bot.max(m.nc_bot);
            for (v, x) in out.data.iter_mut().zip(&m.data) {
                *v += c * x;
            }
        }
        out
    }

    /// Densify (tests only).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.n * self.n];
        for i in 0..self.n {
            let ci = self.col_start(i);
            for t in 0..self.width() {
                d[i * self.n + ci + t] = self.data[i * self.width() + t];
            }
        }
        d
    }
}

/// Unpivoted LU factorisation in corner-folded storage — the customized
/// solver of Table 1. Multipliers overwrite the eliminated sub-diagonal
/// slots; `U` overwrites the rest.
pub struct CornerLu {
    m: CornerBanded,
}

impl CornerLu {
    /// Factor the matrix (consumed; factors reuse its storage in place —
    /// the memory story of figure 3 relies on not copying).
    pub fn factor(mut m: CornerBanded) -> Result<Self, LinalgError> {
        let (kl, ku) = (m.kl, m.ku);
        // Constant-propagated monomorphic kernels for the bandwidths the
        // DNS actually uses (B-spline orders 2..8 give kl = ku = 1..7);
        // this is the Rust rendition of the paper's hand-unrolled loops.
        let r = match (kl, ku) {
            (1, 1) => factor_kernel(&mut m, 1, 1),
            (2, 2) => factor_kernel(&mut m, 2, 2),
            (3, 3) => factor_kernel(&mut m, 3, 3),
            (4, 4) => factor_kernel(&mut m, 4, 4),
            (5, 5) => factor_kernel(&mut m, 5, 5),
            (6, 6) => factor_kernel(&mut m, 6, 6),
            (7, 7) => factor_kernel(&mut m, 7, 7),
            _ => factor_kernel(&mut m, kl, ku),
        };
        r.map(|()| CornerLu { m })
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.m.n
    }

    /// Solve `A x = b` in place for a real right-hand side.
    pub fn solve(&self, b: &mut [f64]) {
        if dns_telemetry::enabled() {
            dns_telemetry::count_phase(
                dns_telemetry::Phase::NsAdvance,
                dns_telemetry::Counter::Flops,
                self.solve_flops(),
            );
        }
        match (self.m.kl, self.m.ku) {
            (3, 3) => solve_kernel(&self.m, b, 3, 3),
            (7, 7) => solve_kernel(&self.m, b, 7, 7),
            (kl, ku) => solve_kernel(&self.m, b, kl, ku),
        }
    }

    /// Solve `A x = b` in place for a complex right-hand side against the
    /// real factors — no splitting, no complex*complex products.
    pub fn solve_complex(&self, b: &mut [C64]) {
        if dns_telemetry::enabled() {
            // complex RHS against real factors: two real solves' worth
            dns_telemetry::count_phase(
                dns_telemetry::Phase::NsAdvance,
                dns_telemetry::Counter::Flops,
                2 * self.solve_flops(),
            );
        }
        // pure tridiagonal factors with no corner rows take the classic
        // two-sweep Thomas path (no window bookkeeping at all)
        if self.m.kl == 1 && self.m.ku == 1 && self.m.nc_top == 0 && self.m.nc_bot == 0 {
            return solve_complex_thomas(&self.m, b);
        }
        match (self.m.kl, self.m.ku) {
            (1, 1) => solve_complex_kernel(&self.m, b, 1, 1),
            (2, 2) => solve_complex_kernel(&self.m, b, 2, 2),
            (3, 3) => solve_complex_kernel(&self.m, b, 3, 3),
            (4, 4) => solve_complex_kernel(&self.m, b, 4, 4),
            (5, 5) => solve_complex_kernel(&self.m, b, 5, 5),
            (6, 6) => solve_complex_kernel(&self.m, b, 6, 6),
            (7, 7) => solve_complex_kernel(&self.m, b, 7, 7),
            (kl, ku) => solve_complex_kernel(&self.m, b, kl, ku),
        }
    }

    /// Borrow the underlying factored storage (diagnostics/tests).
    pub fn factors(&self) -> &CornerBanded {
        &self.m
    }

    /// Nominal flop count of one real solve (forward + backward sweep
    /// multiply-adds per row).
    fn solve_flops(&self) -> u64 {
        let per_row = 2 * self.m.kl + 2 * (self.m.kl + self.m.ku) + 1;
        (self.m.n * per_row) as u64
    }
}

/// Threshold below which an unpivoted diagonal is declared singular.
pub(crate) const TINY: f64 = 1e-300;

/// Thomas-style solve on tridiagonal LU factors (kl = ku = 1, no corner
/// rows): forward multiplier sweep then backward substitution with the
/// stored window layout specialised away.
fn solve_complex_thomas(m: &CornerBanded, b: &mut [C64]) {
    let n = m.n;
    debug_assert_eq!(m.width(), 3);
    let d = &m.data;
    // interior windows are [i-1, i+1]; the first window is [0, 2] and
    // the last is [n-3, n-1]
    for k in 0..n - 1 {
        let i = k + 1;
        let ci = if i + 3 > n { n - 3 } else { i - 1 };
        let mult = d[i * 3 + (k - ci)];
        b[i].re -= mult * b[k].re;
        b[i].im -= mult * b[k].im;
    }
    for i in (0..n).rev() {
        let ci = i.saturating_sub(1).min(n - 3);
        let jend = (ci + 2).min(n - 1);
        let mut sr = b[i].re;
        let mut si = b[i].im;
        for j in i + 1..=jend {
            let a = d[i * 3 + (j - ci)];
            sr -= a * b[j].re;
            si -= a * b[j].im;
        }
        let inv = 1.0 / d[i * 3 + (i - ci)];
        b[i] = C64::new(sr * inv, si * inv);
    }
}

#[inline(always)]
fn factor_kernel(m: &mut CornerBanded, kl: usize, ku: usize) -> Result<(), LinalgError> {
    let n = m.n;
    let w = kl + ku + 1;
    let anchor = n - w; // col_start of every corner-anchored bottom row
    for k in 0..n {
        let ck = k.saturating_sub(kl).min(anchor);
        let pivot = m.data[k * w + (k - ck)];
        if pivot.abs() < TINY {
            return Err(LinalgError::SingularAt(k));
        }
        if k + 1 == n {
            break;
        }
        let inv = 1.0 / pivot;
        // columns of the pivot row to the right of the diagonal
        let jend = (ck + w - 1).min(n - 1);
        // 1. regular band targets
        let imax = (k + kl).min(n - 1);
        for i in k + 1..=imax {
            eliminate_row(m, i, k, jend, inv, w);
        }
        // 2. bottom corner rows whose anchored window reaches column k
        if k >= anchor && m.nc_bot > 0 {
            let first_bot = n - m.nc_bot;
            let start = first_bot.max(imax + 1).max(k + 1);
            for i in start..n {
                eliminate_row(m, i, k, jend, inv, w);
            }
        }
    }
    Ok(())
}

/// Subtract `m(i,k)/pivot` times pivot row `k` from row `i`, storing the
/// multiplier in the `(i,k)` slot. Fill provably stays inside row `i`'s
/// window (see module docs).
#[inline(always)]
fn eliminate_row(m: &mut CornerBanded, i: usize, k: usize, jend: usize, inv: f64, w: usize) {
    let n = m.n;
    let kl = m.kl;
    let anchor = n - w;
    let ci = i.saturating_sub(kl).min(anchor);
    let ck = k.saturating_sub(kl).min(anchor);
    debug_assert!(k >= ci, "column k outside row {i}'s window");
    let mult = m.data[i * w + (k - ci)] * inv;
    m.data[i * w + (k - ci)] = mult;
    if mult == 0.0 {
        // structural zero below the band of a non-corner row: nothing to do
        return;
    }
    debug_assert!(jend - ci < w, "fill outside row {i}'s window");
    // split_at_mut to get disjoint views of rows k and i
    let (lo, hi) = if k < i {
        let (a, b) = m.data.split_at_mut(i * w);
        (&a[k * w..(k + 1) * w], &mut b[..w])
    } else {
        unreachable!("elimination targets are below the pivot")
    };
    for j in k + 1..=jend {
        hi[j - ci] -= mult * lo[j - ck];
    }
}

#[inline(always)]
fn solve_kernel(m: &CornerBanded, b: &mut [f64], kl: usize, ku: usize) {
    let n = m.n;
    let w = kl + ku + 1;
    let anchor = n - w;
    assert_eq!(b.len(), n);
    // forward: apply stored multipliers
    for k in 0..n - 1 {
        let bk = b[k];
        if bk != 0.0 {
            let imax = (k + kl).min(n - 1);
            for i in k + 1..=imax {
                let ci = i.saturating_sub(kl).min(anchor);
                b[i] -= m.data[i * w + (k - ci)] * bk;
            }
            if k >= anchor && m.nc_bot > 0 {
                let start = (n - m.nc_bot).max(imax + 1).max(k + 1);
                for i in start..n {
                    b[i] -= m.data[i * w + (k - anchor)] * bk;
                }
            }
        }
    }
    // backward
    for i in (0..n).rev() {
        let ci = i.saturating_sub(kl).min(anchor);
        let jend = (ci + w - 1).min(n - 1);
        let row = &m.data[i * w..(i + 1) * w];
        let mut s = b[i];
        for j in i + 1..=jend {
            s -= row[j - ci] * b[j];
        }
        b[i] = s / row[i - ci];
    }
}

#[inline(always)]
fn solve_complex_kernel(m: &CornerBanded, b: &mut [C64], kl: usize, ku: usize) {
    let n = m.n;
    let w = kl + ku + 1;
    let anchor = n - w;
    assert_eq!(b.len(), n);
    for k in 0..n - 1 {
        let bk = b[k];
        let imax = (k + kl).min(n - 1);
        for i in k + 1..=imax {
            let ci = i.saturating_sub(kl).min(anchor);
            let mult = m.data[i * w + (k - ci)];
            b[i].re -= mult * bk.re;
            b[i].im -= mult * bk.im;
        }
        if k >= anchor && m.nc_bot > 0 {
            let start = (n - m.nc_bot).max(imax + 1).max(k + 1);
            for i in start..n {
                let mult = m.data[i * w + (k - anchor)];
                b[i].re -= mult * bk.re;
                b[i].im -= mult * bk.im;
            }
        }
    }
    for i in (0..n).rev() {
        let ci = i.saturating_sub(kl).min(anchor);
        let jend = (ci + w - 1).min(n - 1);
        let row = &m.data[i * w..(i + 1) * w];
        let mut sr = b[i].re;
        let mut si = b[i].im;
        for j in i + 1..=jend {
            let a = row[j - ci];
            sr -= a * b[j].re;
            si -= a * b[j].im;
        }
        let d = 1.0 / row[i - ci];
        b[i] = C64::new(sr * d, si * d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseLu;

    fn rng_stream(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        }
    }

    /// Diagonally dominant corner-banded matrix with `nc` wide rows at
    /// each end filled out to the full window.
    fn random_corner(n: usize, kl: usize, ku: usize, nc: usize, seed: u64) -> CornerBanded {
        let mut next = rng_stream(seed);
        let nc_top = nc.min(kl);
        let nc_bot = nc.min(ku);
        let mut m = CornerBanded::zeros(n, kl, ku, nc_top, nc_bot);
        let w = kl + ku + 1;
        for i in 0..n {
            let ci = m.col_start(i);
            let wide = i < nc_top || i + nc_bot >= n;
            for j in ci..ci + w {
                let in_band = j + kl >= i && j <= i + ku;
                if in_band || wide {
                    let v = if i == j {
                        6.0 + w as f64 + next()
                    } else {
                        next()
                    };
                    m.set(i, j, v);
                }
            }
        }
        m
    }

    #[test]
    fn window_geometry() {
        let m = CornerBanded::zeros(10, 2, 3, 1, 1);
        assert_eq!(m.width(), 6);
        assert_eq!(m.col_start(0), 0);
        assert_eq!(m.col_start(1), 0);
        assert_eq!(m.col_start(2), 0);
        assert_eq!(m.col_start(5), 3);
        assert_eq!(m.col_start(9), 4);
        assert!(m.in_window(0, 5)); // corner slot
        assert!(!m.in_window(0, 6));
        assert!(m.in_window(9, 4));
    }

    #[test]
    fn set_rejects_wide_entries_in_plain_rows() {
        let mut m = CornerBanded::zeros(10, 2, 2, 1, 1);
        m.set(0, 4, 1.0); // wide row 0 may use the whole window
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut m2 = CornerBanded::zeros(10, 2, 2, 0, 0);
            m2.set(0, 4, 1.0);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn custom_lu_matches_dense_across_shapes() {
        for (n, kl, ku, nc) in [
            (12usize, 1usize, 1usize, 1usize),
            (16, 2, 2, 2),
            (20, 3, 3, 2),
            (32, 7, 7, 2),
            (10, 2, 3, 1),
            (9, 3, 2, 0),
        ] {
            let m = random_corner(n, kl, ku, nc, (n * 7 + kl + 31 * ku) as u64);
            let dense = DenseLu::factor(n, &m.to_dense()).unwrap();
            let mut next = rng_stream(17);
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let lu = CornerLu::factor(m).unwrap();
            let mut x1 = b.clone();
            let mut x2 = b;
            lu.solve(&mut x1);
            dense.solve(&mut x2);
            for (p, q) in x1.iter().zip(&x2) {
                assert!((p - q).abs() < 1e-9, "n={n} kl={kl} ku={ku} nc={nc}");
            }
        }
    }

    #[test]
    fn complex_solve_matches_split_real_solves() {
        let n = 24;
        let m = random_corner(n, 3, 3, 2, 77);
        let mut next = rng_stream(3);
        let x_true: Vec<C64> = (0..n).map(|_| C64::new(next(), next())).collect();
        let mut b = vec![C64::new(0.0, 0.0); n];
        m.matvec_complex(&x_true, &mut b);
        let lu = CornerLu::factor(m).unwrap();
        lu.solve_complex(&mut b);
        for (p, q) in b.iter().zip(&x_true) {
            assert!((p - q).norm() < 1e-9);
        }
    }

    #[test]
    fn residual_is_small_for_n1024_bandwidth15() {
        // the Table 1 configuration: N = 1024, bandwidth 15 (kl = ku = 7)
        let n = 1024;
        let m = random_corner(n, 7, 7, 2, 2024);
        let mut next = rng_stream(5);
        let x_true: Vec<f64> = (0..n).map(|_| next()).collect();
        let mut b = vec![0.0; n];
        m.matvec(&x_true, &mut b);
        let lu = CornerLu::factor(m).unwrap();
        lu.solve(&mut b);
        let err = b
            .iter()
            .zip(&x_true)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-8, "err={err}");
    }

    #[test]
    fn thomas_path_matches_the_general_kernel() {
        // tridiagonal without corners: the fast path must agree exactly
        // with the generic solve
        let n = 40;
        let mut m = CornerBanded::zeros(n, 1, 1, 0, 0);
        let mut state = 0xDEAD_BEEF_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for i in 0..n {
            for j in i.saturating_sub(1)..=(i + 1).min(n - 1) {
                m.set(i, j, if i == j { 4.0 + next() } else { next() });
            }
        }
        let dense = DenseLu::factor(n, &m.to_dense()).unwrap();
        let rhs: Vec<C64> = (0..n)
            .map(|i| C64::new((i as f64).sin(), (i as f64).cos()))
            .collect();
        let lu = CornerLu::factor(m).unwrap();
        let mut got = rhs.clone();
        lu.solve_complex(&mut got); // takes the Thomas path
                                    // reference via the dense solver on split real systems
        let mut re: Vec<f64> = rhs.iter().map(|c| c.re).collect();
        let mut im: Vec<f64> = rhs.iter().map(|c| c.im).collect();
        dense.solve(&mut re);
        dense.solve(&mut im);
        for i in 0..n {
            assert!((got[i].re - re[i]).abs() < 1e-10);
            assert!((got[i].im - im[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn singularity_detected_without_pivoting() {
        let mut m = CornerBanded::zeros(8, 1, 1, 0, 0);
        for i in 0..8 {
            m.set(i, i, if i == 4 { 0.0 } else { 2.0 });
        }
        assert!(matches!(
            CornerLu::factor(m),
            Err(LinalgError::SingularAt(4))
        ));
    }

    #[test]
    fn corner_entries_affect_the_solution() {
        // Build two matrices differing only in a corner slot; solutions
        // must differ (guards against silently dropping corner data).
        let mut a = random_corner(12, 2, 2, 1, 9);
        let b_mat = a.clone();
        a.set(0, 4, a.get(0, 4) + 1.0);
        let rhs: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let lu_a = CornerLu::factor(a).unwrap();
        let lu_b = CornerLu::factor(b_mat).unwrap();
        let mut xa = rhs.clone();
        let mut xb = rhs;
        lu_a.solve(&mut xa);
        lu_b.solve(&mut xb);
        let diff: f64 = xa.iter().zip(&xb).map(|(p, q)| (p - q).abs()).sum();
        assert!(diff > 1e-8);
    }
}
