//! Bluestein's chirp-z algorithm: O(n log n) DFT for arbitrary n,
//! including large primes, via a circular convolution of power-of-two
//! length. Used as the fallback when `n` has a prime factor larger than
//! the direct-butterfly limit.

use crate::plan::{CfftPlan, Direction};
use crate::C64;

pub(crate) struct Bluestein {
    n: usize,
    /// Convolution length: power of two >= 2n - 1.
    m: usize,
    /// `chirp[t] = exp(sign * pi * i * t^2 / n)`.
    chirp: Vec<C64>,
    /// Forward FFT (length m) of the zero-padded, wrapped conjugate chirp.
    kernel_spectrum: Vec<C64>,
    fwd: CfftPlan,
    inv: CfftPlan,
}

impl Bluestein {
    pub fn new(n: usize, sign: f64) -> Self {
        assert!(n >= 2);
        let m = (2 * n - 1).next_power_of_two();
        // chirp angles computed with t^2 reduced mod 2n to keep the sin/cos
        // arguments small for large n.
        let chirp: Vec<C64> = (0..n)
            .map(|t| {
                let t2 = ((t as u128 * t as u128) % (2 * n as u128)) as f64;
                let ang = sign * std::f64::consts::PI * t2 / n as f64;
                C64::new(ang.cos(), ang.sin())
            })
            .collect();
        // Kernel b[t] = conj(chirp[|t|]) wrapped circularly into length m.
        let mut kernel = vec![C64::new(0.0, 0.0); m];
        kernel[0] = chirp[0].conj();
        for t in 1..n {
            let v = chirp[t].conj();
            kernel[t] = v;
            kernel[m - t] = v;
        }
        // The inner transforms have power-of-two length, so they always use
        // the Stockham path — no recursive Bluestein.
        let fwd = CfftPlan::new(m, Direction::Forward);
        let inv = CfftPlan::new(m, Direction::Inverse);
        let mut scratch = fwd.make_scratch();
        fwd.execute(&mut kernel, &mut scratch);
        Bluestein {
            n,
            m,
            chirp,
            kernel_spectrum: kernel,
            fwd,
            inv,
        }
    }

    /// Scratch: one length-m work array plus the single-line scratch of
    /// the inner length-m Stockham plans.
    pub fn scratch_len(&self) -> usize {
        2 * self.m
    }

    pub fn execute(&self, data: &mut [C64], scratch: &mut [C64]) {
        let (work, inner) = scratch.split_at_mut(self.m);
        // a_j = x_j * chirp[j], zero padded to m.
        for (j, w) in work.iter_mut().enumerate() {
            *w = if j < self.n {
                data[j] * self.chirp[j]
            } else {
                C64::new(0.0, 0.0)
            };
        }
        self.fwd.execute(work, inner);
        for (w, k) in work.iter_mut().zip(&self.kernel_spectrum) {
            *w *= k;
        }
        self.inv.execute(work, inner);
        let scale = 1.0 / self.m as f64;
        for (k, d) in data.iter_mut().enumerate() {
            *d = work[k] * self.chirp[k] * scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft;

    #[test]
    fn bluestein_matches_dft_for_prime_and_composite() {
        for n in [7usize, 11, 13, 31, 37, 61, 67, 113, 211] {
            let x: Vec<C64> = (0..n)
                .map(|i| C64::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
                .collect();
            let want = dft(&x, -1.0);
            let bs = Bluestein::new(n, -1.0);
            let mut got = x.clone();
            let mut scratch = vec![C64::new(0.0, 0.0); bs.scratch_len()];
            bs.execute(&mut got, &mut scratch);
            let err = got
                .iter()
                .zip(&want)
                .map(|(a, b)| (a - b).norm())
                .fold(0.0, f64::max);
            assert!(err < 1e-8 * n as f64, "n={n} err={err}");
        }
    }

    #[test]
    fn bluestein_inverse_direction() {
        let n = 19;
        let x: Vec<C64> = (0..n).map(|i| C64::new(i as f64, -(i as f64))).collect();
        let want = dft(&x, 1.0);
        let bs = Bluestein::new(n, 1.0);
        let mut got = x;
        let mut scratch = vec![C64::new(0.0, 0.0); bs.scratch_len()];
        bs.execute(&mut got, &mut scratch);
        let err = got
            .iter()
            .zip(&want)
            .map(|(a, b)| (a - b).norm())
            .fold(0.0, f64::max);
        assert!(err < 1e-8 * n as f64);
    }
}
