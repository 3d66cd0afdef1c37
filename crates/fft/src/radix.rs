//! Butterfly kernels for the recursive Stockham mixed-radix FFT.
//!
//! One *stage* performs, for a current transform length `n_cur = r * m`
//! viewed at stride `s` (with `s * n_cur == n_total`):
//!
//! ```text
//! for p in 0..m, q in 0..s:
//!     u_i  = x[q + s*(p + m*i)]                    (i in 0..r)
//!     t_k  = sum_i u_i * omega_r^(k*i)             (radix-r DFT)
//!     y[q + s*(r*p + k)] = t_k * w^(k*p)           (w = omega_{r*m})
//! ```
//!
//! The twiddles `w^(k*p)` are precomputed per stage (`tw[p*r + k]`). Each
//! radix is stated once, generic over the [`Lane`] value type: `f64` gives
//! the single-line transform, [`crate::Lanes`] the same butterfly on
//! [`crate::LANES`] lines at once. The complex arithmetic is spelled out
//! on the parts so both instantiations perform the same real operations
//! in the same order.

use num_complex::Complex;

use crate::lanes::Lane;
use crate::C64;

#[inline(always)]
pub(crate) fn add<V: Lane>(a: Complex<V>, b: Complex<V>) -> Complex<V> {
    Complex::new(a.re + b.re, a.im + b.im)
}

#[inline(always)]
pub(crate) fn sub<V: Lane>(a: Complex<V>, b: Complex<V>) -> Complex<V> {
    Complex::new(a.re - b.re, a.im - b.im)
}

/// `a * s` for a real scalar `s`.
#[inline(always)]
pub(crate) fn scale<V: Lane>(a: Complex<V>, s: f64) -> Complex<V> {
    Complex::new(a.re * s, a.im * s)
}

/// `a * w` for a complex scalar `w` shared by all lanes.
#[inline(always)]
pub(crate) fn mulw<V: Lane>(a: Complex<V>, w: C64) -> Complex<V> {
    Complex::new(a.re * w.re - a.im * w.im, a.re * w.im + a.im * w.re)
}

/// `i * s * a` for a real scalar `s`.
#[inline(always)]
fn rot90<V: Lane>(a: Complex<V>, s: f64) -> Complex<V> {
    Complex::new(a.im * -s, a.re * s)
}

/// One Stockham stage: radix, sub-transform count, and twiddle table.
#[derive(Clone, Debug)]
pub(crate) struct Stage {
    pub radix: usize,
    /// `m = n_cur / radix` where `n_cur` is the transform length at entry
    /// to this stage.
    pub m: usize,
    /// `tw[p*radix + k] = w^(k*p)`, `w = exp(sign*2*pi*i/(radix*m))`.
    pub tw: Vec<C64>,
    /// Small-DFT matrix powers for the generic butterfly:
    /// `omega[j] = exp(sign*2*pi*i*j/radix)`, `j in 0..radix`.
    pub omega: Vec<C64>,
}

impl Stage {
    pub fn new(radix: usize, m: usize, sign: f64) -> Self {
        let n_cur = radix * m;
        let base = sign * 2.0 * std::f64::consts::PI / n_cur as f64;
        let mut tw = Vec::with_capacity(n_cur);
        for p in 0..m {
            for k in 0..radix {
                let ang = base * ((k * p) % n_cur) as f64;
                tw.push(C64::new(ang.cos(), ang.sin()));
            }
        }
        let wbase = sign * 2.0 * std::f64::consts::PI / radix as f64;
        let omega = (0..radix)
            .map(|j| {
                let ang = wbase * j as f64;
                C64::new(ang.cos(), ang.sin())
            })
            .collect();
        Stage {
            radix,
            m,
            tw,
            omega,
        }
    }

    /// Apply this stage, reading `x` and writing `y` (both of length
    /// `s * radix * m`).
    #[inline(always)]
    pub fn apply<V: Lane>(&self, s: usize, x: &[Complex<V>], y: &mut [Complex<V>]) {
        match self.radix {
            2 => self.apply_r2(s, x, y),
            3 => self.apply_r3(s, x, y),
            4 => self.apply_r4(s, x, y),
            5 => self.apply_r5(s, x, y),
            _ => self.apply_generic(s, x, y),
        }
    }

    #[inline(always)]
    fn apply_r2<V: Lane>(&self, s: usize, x: &[Complex<V>], y: &mut [Complex<V>]) {
        let m = self.m;
        for p in 0..m {
            let w = self.tw[p * 2 + 1];
            let xa = &x[s * p..s * p + s];
            let xb = &x[s * (p + m)..s * (p + m) + s];
            let (ya, yb) = y[s * 2 * p..s * (2 * p + 2)].split_at_mut(s);
            for q in 0..s {
                let a = xa[q];
                let b = xb[q];
                ya[q] = add(a, b);
                yb[q] = mulw(sub(a, b), w);
            }
        }
    }

    #[inline(always)]
    fn apply_r3<V: Lane>(&self, s: usize, x: &[Complex<V>], y: &mut [Complex<V>]) {
        let m = self.m;
        // omega[1] = (-1/2, sign*-sqrt(3)/2); write the radix-3 DFT in the
        // standard two-constant form.
        let tau = self.omega[1].im; // sign * -sqrt(3)/2
        for p in 0..m {
            let w1 = self.tw[p * 3 + 1];
            let w2 = self.tw[p * 3 + 2];
            for q in 0..s {
                let a = x[q + s * p];
                let b = x[q + s * (p + m)];
                let c = x[q + s * (p + 2 * m)];
                let bc_s = add(b, c);
                let t = sub(a, scale(bc_s, 0.5));
                let rot = rot90(sub(b, c), tau);
                y[q + s * (3 * p)] = add(a, bc_s);
                y[q + s * (3 * p + 1)] = mulw(add(t, rot), w1);
                y[q + s * (3 * p + 2)] = mulw(sub(t, rot), w2);
            }
        }
    }

    #[inline(always)]
    fn apply_r4<V: Lane>(&self, s: usize, x: &[Complex<V>], y: &mut [Complex<V>]) {
        let m = self.m;
        // sign = -1 forward: multiply by -i is (im, -re); encode via
        // omega[1] = (0, sign).
        let sgn = self.omega[1].im; // sign * 1.0
        for p in 0..m {
            let w1 = self.tw[p * 4 + 1];
            let w2 = self.tw[p * 4 + 2];
            let w3 = self.tw[p * 4 + 3];
            for q in 0..s {
                let a = x[q + s * p];
                let b = x[q + s * (p + m)];
                let c = x[q + s * (p + 2 * m)];
                let d = x[q + s * (p + 3 * m)];
                let ac_s = add(a, c);
                let ac_d = sub(a, c);
                let bd_s = add(b, d);
                let rot = rot90(sub(b, d), sgn);
                y[q + s * (4 * p)] = add(ac_s, bd_s);
                y[q + s * (4 * p + 1)] = mulw(add(ac_d, rot), w1);
                y[q + s * (4 * p + 2)] = mulw(sub(ac_s, bd_s), w2);
                y[q + s * (4 * p + 3)] = mulw(sub(ac_d, rot), w3);
            }
        }
    }

    #[inline(always)]
    fn apply_r5<V: Lane>(&self, s: usize, x: &[Complex<V>], y: &mut [Complex<V>]) {
        let m = self.m;
        let w5 = &self.omega;
        for p in 0..m {
            let twp = &self.tw[p * 5..p * 5 + 5];
            for q in 0..s {
                let u0 = x[q + s * p];
                let u1 = x[q + s * (p + m)];
                let u2 = x[q + s * (p + 2 * m)];
                let u3 = x[q + s * (p + 3 * m)];
                let u4 = x[q + s * (p + 4 * m)];
                for k in 0..5 {
                    let mut t = add(u0, mulw(u1, w5[k % 5]));
                    t = add(t, mulw(u2, w5[(2 * k) % 5]));
                    t = add(t, mulw(u3, w5[(3 * k) % 5]));
                    t = add(t, mulw(u4, w5[(4 * k) % 5]));
                    y[q + s * (5 * p + k)] = mulw(t, twp[k]);
                }
            }
        }
    }

    /// Generic O(r^2) butterfly for odd prime radices up to
    /// [`MAX_DIRECT_PRIME`].
    #[inline(always)]
    fn apply_generic<V: Lane>(&self, s: usize, x: &[Complex<V>], y: &mut [Complex<V>]) {
        let r = self.radix;
        let m = self.m;
        let mut u = [Complex::new(V::ZERO, V::ZERO); MAX_DIRECT_PRIME];
        for p in 0..m {
            let twp = &self.tw[p * r..p * r + r];
            for q in 0..s {
                for (i, ui) in u[..r].iter_mut().enumerate() {
                    *ui = x[q + s * (p + i * m)];
                }
                for k in 0..r {
                    let mut t = u[0];
                    for i in 1..r {
                        t = add(t, mulw(u[i], self.omega[(k * i) % r]));
                    }
                    y[q + s * (r * p + k)] = mulw(t, twp[k]);
                }
            }
        }
    }
}

/// Run the stage list as a Stockham ping-pong starting in `first`: the
/// result lands in `first` for an even stage count, in `second` for an
/// odd one. The list encodes the recursion `fft0(n, s, x, y) -> stage ->
/// fft0(m, r*s, y, x)`.
#[inline(always)]
pub(crate) fn stockham<V: Lane>(
    stages: &[Stage],
    first: &mut [Complex<V>],
    second: &mut [Complex<V>],
) {
    let (mut x, mut y) = (first, second);
    let mut s = 1usize;
    for st in stages {
        st.apply(s, x, y);
        std::mem::swap(&mut x, &mut y);
        s *= st.radix;
    }
}

/// Largest prime factor handled by the direct butterfly; anything bigger
/// routes the whole transform through Bluestein's algorithm.
pub(crate) const MAX_DIRECT_PRIME: usize = 61;

/// Factorise `n` into the stage radices used by the Stockham driver
/// (4s first for fewer passes, then 2, 3, 5, then odd primes).
/// Returns `None` if a prime factor exceeds [`MAX_DIRECT_PRIME`].
pub(crate) fn factorize(mut n: usize) -> Option<Vec<usize>> {
    let mut f = Vec::new();
    while n.is_multiple_of(4) {
        f.push(4);
        n /= 4;
    }
    for r in [2usize, 3, 5] {
        while n.is_multiple_of(r) {
            f.push(r);
            n /= r;
        }
    }
    let mut p = 7;
    while n > 1 {
        while p * p <= n && !n.is_multiple_of(p) {
            p += 2;
        }
        let fac = if p * p > n { n } else { p };
        if fac > MAX_DIRECT_PRIME {
            return None;
        }
        f.push(fac);
        n /= fac;
    }
    Some(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorize_smooth_lengths() {
        assert_eq!(factorize(1), Some(vec![]));
        assert_eq!(factorize(8), Some(vec![4, 2]));
        assert_eq!(factorize(96), Some(vec![4, 4, 2, 3]));
        assert_eq!(factorize(30), Some(vec![2, 3, 5]));
        assert_eq!(factorize(49), Some(vec![7, 7]));
    }

    #[test]
    fn factorize_rejects_large_primes() {
        assert_eq!(factorize(2 * 67), None);
        assert_eq!(factorize(127), None);
    }

    #[test]
    fn factor_product_reconstructs_n() {
        for n in 1..=512usize {
            if let Some(f) = factorize(n) {
                assert_eq!(f.iter().product::<usize>().max(1), n);
            }
        }
    }
}
