//! General banded LU with partial pivoting — the LAPACK `GBTRF`/`GBTRS`
//! equivalent the paper benchmarks against (Table 1).
//!
//! Storage is the conventional band-with-fill layout (figure 3, centre):
//! each row carries a window of `2*kl + ku + 1` scalars so that row
//! interchanges have room for fill-in. For a collocation matrix whose
//! corner rows extend beyond the natural band, `kl`/`ku` must be inflated
//! until the corners fit, which is exactly the waste the custom solver
//! (`crate::corner`) eliminates.

use crate::scalar::Scalar;
use crate::{LinalgError, C64};

/// Simple banded matrix in row-window storage (no fill space): row `i`
/// holds columns `[i-kl, i+ku]`. Used to assemble operators and as the
/// input to [`BandedLu::factor`].
#[derive(Clone, Debug)]
pub struct BandedMatrix<T: Scalar> {
    n: usize,
    kl: usize,
    ku: usize,
    data: Vec<T>,
}

impl<T: Scalar> BandedMatrix<T> {
    /// Zero matrix with the given band widths.
    pub fn zeros(n: usize, kl: usize, ku: usize) -> Self {
        BandedMatrix {
            n,
            kl,
            ku,
            data: vec![T::ZERO; n * (kl + ku + 1)],
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }
    /// Sub-diagonal count.
    pub fn kl(&self) -> usize {
        self.kl
    }
    /// Super-diagonal count.
    pub fn ku(&self) -> usize {
        self.ku
    }

    #[inline]
    fn w(&self) -> usize {
        self.kl + self.ku + 1
    }

    /// True if `(i, j)` lies inside the band.
    pub fn in_band(&self, i: usize, j: usize) -> bool {
        i < self.n && j < self.n && j + self.kl >= i && j <= i + self.ku
    }

    /// Read entry `(i, j)` (zero outside the band).
    pub fn get(&self, i: usize, j: usize) -> T {
        if self.in_band(i, j) {
            self.data[i * self.w() + (j + self.kl - i)]
        } else {
            T::ZERO
        }
    }

    /// Write entry `(i, j)`.
    ///
    /// # Panics
    /// If `(i, j)` is outside the band.
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        assert!(
            self.in_band(i, j),
            "({i},{j}) outside band kl={} ku={}",
            self.kl,
            self.ku
        );
        let w = self.w();
        self.data[i * w + (j + self.kl - i)] = v;
    }

    /// Accumulate into entry `(i, j)`.
    pub fn add(&mut self, i: usize, j: usize, v: T) {
        let cur = self.get(i, j);
        self.set(i, j, cur + v);
    }

    /// `y = A x`.
    pub fn matvec(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        let w = self.w();
        for i in 0..self.n {
            let j0 = i.saturating_sub(self.kl);
            let j1 = (i + self.ku).min(self.n - 1);
            let row = &self.data[i * w..(i + 1) * w];
            let mut s = T::ZERO;
            for j in j0..=j1 {
                s = s + row[j + self.kl - i] * x[j];
            }
            y[i] = s;
        }
    }

    /// `y = A x` for a complex vector against a real matrix (used by the
    /// DNS residual checks; each scalar product is two real multiplies).
    pub fn matvec_complex(&self, x: &[C64], y: &mut [C64])
    where
        T: Into<f64> + Copy,
    {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        let w = self.w();
        for i in 0..self.n {
            let j0 = i.saturating_sub(self.kl);
            let j1 = (i + self.ku).min(self.n - 1);
            let row = &self.data[i * w..(i + 1) * w];
            let mut s = C64::new(0.0, 0.0);
            for j in j0..=j1 {
                let a: f64 = row[j + self.kl - i].into();
                s += a * x[j];
            }
            y[i] = s;
        }
    }

    /// Densify (tests only).
    pub fn to_dense(&self) -> Vec<T> {
        let mut d = vec![T::ZERO; self.n * self.n];
        for i in 0..self.n {
            for j in 0..self.n {
                d[i * self.n + j] = self.get(i, j);
            }
        }
        d
    }
}

/// Factored form of a general banded matrix (`PA = LU`), with fill space —
/// the `GBTRF` analogue.
pub struct BandedLu<T: Scalar> {
    n: usize,
    kl: usize,
    ku: usize,
    /// Row windows `[i-kl, i+ku+kl]`, width `2*kl + ku + 1`.
    data: Vec<T>,
    piv: Vec<usize>,
}

impl<T: Scalar> BandedLu<T> {
    #[inline]
    fn wf(&self) -> usize {
        2 * self.kl + self.ku + 1
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        debug_assert!(j + self.kl >= i && j <= i + self.ku + self.kl);
        i * self.wf() + (j + self.kl - i)
    }

    /// Factor a banded matrix with partial pivoting.
    pub fn factor(a: &BandedMatrix<T>) -> Result<Self, LinalgError> {
        let (n, kl, ku) = (a.n, a.kl, a.ku);
        let wf = 2 * kl + ku + 1;
        let mut lu = BandedLu {
            n,
            kl,
            ku,
            data: vec![T::ZERO; n * wf],
            piv: vec![0; n],
        };
        // copy band into the fill-capable layout
        for i in 0..n {
            let j0 = i.saturating_sub(kl);
            let j1 = (i + ku).min(n.saturating_sub(1));
            for j in j0..=j1 {
                let t = lu.idx(i, j);
                lu.data[t] = a.get(i, j);
            }
        }
        for k in 0..n {
            let imax = (k + kl).min(n - 1);
            // pivot search in column k
            let mut p = k;
            let mut best = lu.data[lu.idx(k, k)].cabs();
            for i in k + 1..=imax {
                let v = lu.data[lu.idx(i, k)].cabs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best == 0.0 {
                return Err(LinalgError::SingularAt(k));
            }
            lu.piv[k] = p;
            let jmax = (k + ku + kl).min(n - 1);
            if p != k {
                for j in k..=jmax {
                    let a = lu.idx(k, j);
                    let b = lu.idx(p, j);
                    lu.data.swap(a, b);
                }
            }
            let pivot = lu.data[lu.idx(k, k)];
            for i in k + 1..=imax {
                let tik = lu.idx(i, k);
                let m = lu.data[tik] / pivot;
                lu.data[tik] = m;
                for j in k + 1..=jmax {
                    let u = lu.data[lu.idx(k, j)];
                    let t = lu.idx(i, j);
                    lu.data[t] = lu.data[t] - m * u;
                }
            }
        }
        Ok(lu)
    }

    /// Solve `A x = b` in place (the `GBTRS` analogue).
    pub fn solve(&self, b: &mut [T]) {
        let n = self.n;
        assert_eq!(b.len(), n);
        if dns_telemetry::enabled() {
            // forward elimination (2 kl) + back substitution (2 (kl+ku) + 1)
            // multiply-adds per row, the GBTRS nominal count
            let per_row = 2 * self.kl + 2 * (self.kl + self.ku) + 1;
            dns_telemetry::count_phase(
                dns_telemetry::Phase::NsAdvance,
                dns_telemetry::Counter::Flops,
                (n * per_row) as u64,
            );
        }
        for k in 0..n {
            b.swap(k, self.piv[k]);
            let bk = b[k];
            let imax = (k + self.kl).min(n - 1);
            for i in k + 1..=imax {
                b[i] = b[i] - self.data[self.idx(i, k)] * bk;
            }
        }
        for i in (0..n).rev() {
            let jmax = (i + self.ku + self.kl).min(n - 1);
            let mut s = b[i];
            for j in i + 1..=jmax {
                s = s - self.data[self.idx(i, j)] * b[j];
            }
            b[i] = s / self.data[self.idx(i, i)];
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }
}

impl BandedLu<f64> {
    /// The paper's "MKL^R" route: solve a complex system against the real
    /// factors by de-interleaving the right-hand side into two real
    /// vectors, running two real solves, and re-interleaving. The copies
    /// are deliberate — they model the data-motion cost the paper calls
    /// out when using `DGBTRS` on complex data.
    pub fn solve_complex_split(&self, b: &mut [C64], scratch: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n);
        assert!(scratch.len() >= 2 * n);
        let (re, rest) = scratch.split_at_mut(n);
        let im = &mut rest[..n];
        for (k, v) in b.iter().enumerate() {
            re[k] = v.re;
            im[k] = v.im;
        }
        self.solve(re);
        self.solve(im);
        for (k, v) in b.iter_mut().enumerate() {
            *v = C64::new(re[k], im[k]);
        }
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

    fn random_banded(n: usize, kl: usize, ku: usize, seed: u64) -> BandedMatrix<f64> {
        let mut next = rng_stream(seed);
        let mut a = BandedMatrix::zeros(n, kl, ku);
        for i in 0..n {
            for j in i.saturating_sub(kl)..=(i + ku).min(n - 1) {
                let v = if i == j {
                    // diagonally dominant so both pivoted and unpivoted
                    // solvers are well-conditioned
                    4.0 + (kl + ku) as f64 + next()
                } else {
                    next()
                };
                a.set(i, j, v);
            }
        }
        a
    }

    #[test]
    fn banded_lu_matches_dense_lu() {
        for (n, kl, ku) in [
            (12usize, 2usize, 3usize),
            (30, 4, 4),
            (17, 1, 5),
            (9, 0, 2),
            (8, 3, 0),
        ] {
            let a = random_banded(n, kl, ku, (n * 100 + kl * 10 + ku) as u64);
            let lu = BandedLu::factor(&a).unwrap();
            let dense = DenseLu::factor(n, &a.to_dense()).unwrap();
            let mut next = rng_stream(7);
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let mut x1 = b.clone();
            let mut x2 = b;
            lu.solve(&mut x1);
            dense.solve(&mut x2);
            for (p, q) in x1.iter().zip(&x2) {
                assert!((p - q).abs() < 1e-10, "n={n} kl={kl} ku={ku}");
            }
        }
    }

    #[test]
    fn pivoting_is_exercised() {
        // matrix designed to force a row interchange
        let mut a = BandedMatrix::zeros(3, 1, 1);
        a.set(0, 0, 1e-14);
        a.set(0, 1, 1.0);
        a.set(1, 0, 1.0);
        a.set(1, 1, 1.0);
        a.set(1, 2, 1.0);
        a.set(2, 1, 1.0);
        a.set(2, 2, 2.0);
        let lu = BandedLu::factor(&a).unwrap();
        // verify against dense on a residual basis
        let x_true = [1.0, -2.0, 3.0];
        let mut b = vec![0.0; 3];
        a.matvec(&x_true, &mut b);
        lu.solve(&mut b);
        for (p, q) in b.iter().zip(&x_true) {
            assert!((p - q).abs() < 1e-9);
        }
    }

    #[test]
    fn complex_banded_lu_solves() {
        let n = 20;
        let (kl, ku) = (3usize, 2usize);
        let mut next = rng_stream(99);
        let mut a = BandedMatrix::<C64>::zeros(n, kl, ku);
        for i in 0..n {
            for j in i.saturating_sub(kl)..=(i + ku).min(n - 1) {
                let v = if i == j {
                    C64::new(8.0 + next(), next())
                } else {
                    C64::new(next(), next())
                };
                a.set(i, j, v);
            }
        }
        let x_true: Vec<C64> = (0..n).map(|_| C64::new(next(), next())).collect();
        let mut b = vec![C64::new(0.0, 0.0); n];
        a.matvec(&x_true, &mut b);
        let lu = BandedLu::factor(&a).unwrap();
        lu.solve(&mut b);
        for (p, q) in b.iter().zip(&x_true) {
            assert!((p - q).norm() < 1e-10);
        }
    }

    #[test]
    fn split_complex_solve_matches_native_complex() {
        let n = 16;
        let (kl, ku) = (2usize, 2usize);
        let a = random_banded(n, kl, ku, 5);
        let mut next = rng_stream(123);
        let x_true: Vec<C64> = (0..n).map(|_| C64::new(next(), next())).collect();
        let mut b = vec![C64::new(0.0, 0.0); n];
        a.matvec_complex(&x_true, &mut b);
        let lu = BandedLu::factor(&a).unwrap();
        let mut scratch = vec![0.0; 2 * n];
        lu.solve_complex_split(&mut b, &mut scratch);
        for (p, q) in b.iter().zip(&x_true) {
            assert!((p - q).norm() < 1e-10);
        }
    }

    #[test]
    fn singular_banded_is_detected() {
        let mut a = BandedMatrix::<f64>::zeros(4, 1, 1);
        for i in 0..4 {
            a.set(i, i, 1.0);
        }
        a.set(2, 2, 0.0); // exactly singular column after elimination
        a.set(2, 1, 0.0);
        a.set(2, 3, 0.0);
        a.set(1, 2, 0.0);
        a.set(3, 2, 0.0);
        assert!(BandedLu::factor(&a).is_err());
    }
}
