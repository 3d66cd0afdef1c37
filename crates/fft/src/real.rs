//! Real-to-halfcomplex transforms via the packed half-length complex FFT.
//!
//! The streamwise (x) direction of the DNS transforms real grid data; a
//! length-`n` real transform is computed as a length-`n/2` complex
//! transform of packed even/odd samples plus an O(n) split pass.
//!
//! Two spectrum layouts are supported, reproducing the paper's section
//! 4.4 distinction between P3DFFT and the customized kernel:
//!
//! * [`RealLayout::WithNyquist`]: `n/2 + 1` coefficients (DC..Nyquist),
//!   the conventional FFTW/P3DFFT layout.
//! * [`RealLayout::ElideNyquist`]: `n/2` coefficients. The Nyquist mode is
//!   not representable in the dealiased Fourier basis of the solution, so
//!   it is neither stored nor communicated; the inverse treats it as zero.

use num_complex::Complex;

use crate::lanes::{isa_fn, Interleaved, Lane, LaneC, Lanes, ZERO};
use crate::plan::{CfftPlan, Direction};
use crate::radix::{add, mulw, scale, sub};
use crate::C64;

/// Spectrum storage convention for real transforms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RealLayout {
    /// Keep all `n/2 + 1` half-complex coefficients.
    WithNyquist,
    /// Store only `n/2` coefficients, dropping the (zero) Nyquist mode.
    ElideNyquist,
}

/// Plan for a real transform of fixed even length `n`.
///
/// Scaling follows the FFTW convention: `inverse(forward(x)) == n * x`.
pub struct RfftPlan {
    n: usize,
    h: usize,
    layout: RealLayout,
    pub(crate) fwd: CfftPlan,
    pub(crate) inv: CfftPlan,
    /// `w[k] = exp(-2*pi*i*k/n)` for `k in 0..=h/2` plus symmetric use.
    w: Vec<C64>,
}

#[inline(always)]
fn conj<V: Lane>(a: Complex<V>) -> Complex<V> {
    Complex::new(a.re, -a.im)
}

/// `Z[k] = E[k] + i*O[k]` from `X[k]`, `X[h-k]` and `w^k`, with
/// `E[k] = (X[k] + conj(X[h-k]))/2` and
/// `O[k] = (X[k] - conj(X[h-k]))/2 * conj(w^k)`.
#[inline(always)]
fn merge_one<V: Lane>(xk: Complex<V>, xhk: Complex<V>, wk: C64) -> Complex<V> {
    let xc = conj(xhk);
    let e = scale(add(xk, xc), 0.5);
    let o = mulw(scale(sub(xk, xc), 0.5), wk.conj());
    add(e, Complex::new(-o.im, o.re))
}

/// Synthesis pre-pass, in place: `x` holds the half-complex spectrum
/// `X[0..=h]` (`X[h]` is the Nyquist mode) and leaves the packed spectrum
/// `Z[0..h]` of the half-length complex transform in its first `h`
/// entries (conjugate symmetry of E and O, and `conj(w^(h-k)) = -w^k`).
/// `k` and `h - k` are read together before either is overwritten.
#[inline(always)]
fn merge<V: Lane>(w: &[C64], x: &mut [Complex<V>]) {
    let h = x.len() - 1;
    let (x0, nyq) = (x[0].re, x[h].re);
    x[0] = Complex::new((x0 + nyq) * 0.5, (x0 - nyq) * 0.5);
    for k in 1..=h / 2 {
        let (xa, xb) = (x[k], x[h - k]);
        x[k] = merge_one(xa, xb, w[k]);
        x[h - k] = merge_one(xb, xa, w[h - k]);
    }
}

/// Analysis post-pass: the first `out.len()` coefficients
/// `X[k] = E[k] + w^k * O[k]` from the packed transform `z`, with
/// `E[k] = (Z[k] + conj(Z[h-k]))/2`, `O[k] = (Z[k] - conj(Z[h-k]))/(2i)`.
#[inline(always)]
fn split<V: Lane>(w: &[C64], z: &[Complex<V>], out: &mut [Complex<V>]) {
    let h = z.len();
    out[0] = Complex::new(z[0].re + z[0].im, V::ZERO);
    for k in 1..h.min(out.len()) {
        let zc = conj(z[h - k]);
        let e = scale(add(z[k], zc), 0.5);
        // w^k * (o / i) == -i * w^k * o
        let rot = mulw(scale(sub(z[k], zc), 0.5), w[k]);
        out[k] = add(e, Complex::new(rot.im, -rot.re));
    }
    if out.len() > h {
        out[h] = Complex::new(z[0].re - z[0].im, V::ZERO);
    }
}

/// [`merge`] of the interleaved lines `at` of `src`, `modes` coefficients
/// each, every line zero-padded to the `x.len()`-long spectrum.
#[inline(always)]
fn merge_block(w: &[C64], src: &[C64], modes: usize, at: Interleaved, x: &mut [LaneC]) {
    for (k, v) in x[..modes].iter_mut().enumerate() {
        *v = at.gather(src, k);
    }
    x[modes..].fill(ZERO);
    merge(w, x);
}

/// [`split`] into `out`, then scattered, scaled, into the interleaved
/// lines `at` of `dst`, `out.len()` coefficients each.
#[inline(always)]
fn split_block(
    w: &[C64],
    z: &[LaneC],
    out: &mut [LaneC],
    scale: f64,
    dst: &mut [C64],
    at: Interleaved,
) {
    split(w, z, out);
    for (k, &v) in out.iter().enumerate() {
        at.scatter(v, scale, dst, k);
    }
}

isa_fn! {
    fn merge_lanes(w: &[C64], src: &[C64], modes: usize, at: Interleaved, x: &mut [LaneC]) = merge_block
}

isa_fn! {
    fn split_lanes(w: &[C64], z: &[LaneC], out: &mut [LaneC], scale: f64, dst: &mut [C64], at: Interleaved) = split_block
}

impl RfftPlan {
    /// Plan a real transform of even length `n >= 2`.
    pub fn new(n: usize, layout: RealLayout) -> Self {
        assert!(
            n >= 2 && n.is_multiple_of(2),
            "real transform length must be even, got {n}"
        );
        let h = n / 2;
        let w = (0..=h)
            .map(|k| {
                let ang = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
                C64::new(ang.cos(), ang.sin())
            })
            .collect();
        RfftPlan {
            n,
            h,
            layout,
            fwd: CfftPlan::new(h, Direction::Forward),
            inv: CfftPlan::new(h, Direction::Inverse),
            w,
        }
    }

    /// Real (physical-space) line length `n`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Never empty (length >= 2 enforced at construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of complex coefficients produced by [`RfftPlan::forward`].
    pub fn spectrum_len(&self) -> usize {
        match self.layout {
            RealLayout::WithNyquist => self.h + 1,
            RealLayout::ElideNyquist => self.h,
        }
    }

    /// Scratch length required by any entry point, either direction: the
    /// inner plans' lane blocks with room for the `h + 1`-th spectrum
    /// entry (whose front doubles as the single-line spectrum).
    pub fn scratch_len(&self) -> usize {
        let len = self.h + 1;
        self.fwd
            .lanes_scratch_len(len)
            .max(self.inv.lanes_scratch_len(len))
    }

    /// Allocate scratch for this plan.
    pub fn make_scratch(&self) -> Vec<C64> {
        vec![C64::new(0.0, 0.0); self.scratch_len()]
    }

    /// Add the nominal flops of `lines` transforms to the FFT phase: the
    /// packed half-length complex pass plus the O(n) split/merge (the
    /// inner complex kernel is telemetry-free, so nothing is counted
    /// twice).
    fn count_flops(&self, lines: usize) {
        if dns_telemetry::enabled() {
            dns_telemetry::count_phase(
                dns_telemetry::Phase::Fft,
                dns_telemetry::Counter::Flops,
                lines as u64 * crate::rfft_flops(self.n) as u64,
            );
        }
    }

    /// Analysis: real `input` (length n) to half-complex `output`
    /// (length [`RfftPlan::spectrum_len`]).
    pub fn forward(&self, input: &[f64], output: &mut [C64], scratch: &mut [C64]) {
        assert_eq!(input.len(), self.n);
        assert_eq!(output.len(), self.spectrum_len());
        self.count_flops(1);
        let (z, inner) = scratch.split_at_mut(self.h);
        for (j, zj) in z.iter_mut().enumerate() {
            *zj = C64::new(input[2 * j], input[2 * j + 1]);
        }
        self.fwd.execute_inner(z, inner);
        split(&self.w, z, output);
    }

    /// Synthesis: half-complex `input` to real `output` (length n),
    /// unnormalised (`inverse(forward(x)) == n * x`). With
    /// [`RealLayout::ElideNyquist`] the missing Nyquist mode is zero.
    pub fn inverse(&self, input: &[C64], output: &mut [f64], scratch: &mut [C64]) {
        assert_eq!(input.len(), self.spectrum_len());
        assert_eq!(output.len(), self.n);
        self.count_flops(1);
        let (x, inner) = scratch.split_at_mut(self.h + 1);
        x[..input.len()].copy_from_slice(input);
        x[input.len()..].fill(C64::new(0.0, 0.0));
        merge(&self.w, x);
        let z = &mut x[..self.h];
        self.inv.execute_inner(z, inner);
        // inv gives h * z_packed; desired output is n*x = 2h*x, so double.
        for (j, zj) in z.iter().enumerate() {
            output[2 * j] = 2.0 * zj.re;
            output[2 * j + 1] = 2.0 * zj.im;
        }
    }

    /// Multi-line synthesis, no telemetry. `src` holds up to
    /// [`crate::LANES`] interleaved half-complex lines of
    /// `modes <= spectrum_len()` coefficients: coefficient `k` of line `l`
    /// is `src[k * stride + l]`, for the first
    /// `src.len() - (modes - 1) * stride` lines (at most `stride`). Every
    /// line is zero-padded to the full spectrum (as
    /// [`crate::dealias::pad_half`] does) and transformed, and value `j` of
    /// line `l` lands in `output[j].0[l]`. Lanes past the last line hold
    /// the transform of a zero line.
    pub fn inverse_lanes(
        &self,
        src: &[C64],
        modes: usize,
        stride: usize,
        output: &mut [Lanes],
        scratch: &mut [C64],
    ) {
        assert!((1..=self.spectrum_len()).contains(&modes));
        assert_eq!(output.len(), self.n);
        let at = Interleaved::of(src.len(), modes, stride);
        let (x, b, rest) = self.inv.lane_work(scratch, self.h + 1);
        merge_lanes(self.inv.isa, &self.w, src, modes, at, x);
        let (z, _) = self.inv.transform_block(x, b, rest);
        for (j, zj) in z.iter().enumerate() {
            output[2 * j] = zj.re * 2.0;
            output[2 * j + 1] = zj.im * 2.0;
        }
    }

    /// Multi-line analysis, no telemetry: `input[j].0[l]` is value `j` of
    /// line `l`; the first `modes <= spectrum_len()` coefficients of each
    /// line (what [`crate::dealias::truncate_half`] keeps), multiplied by
    /// `scale`, are written to the interleaved lines of `dst` (coefficient
    /// `k` of line `l` at `dst[k * stride + l]`, for the first
    /// `dst.len() - (modes - 1) * stride` lines; nothing else is written).
    pub fn forward_lanes(
        &self,
        input: &[Lanes],
        dst: &mut [C64],
        modes: usize,
        stride: usize,
        scale: f64,
        scratch: &mut [C64],
    ) {
        assert!((1..=self.spectrum_len()).contains(&modes));
        assert_eq!(input.len(), self.n);
        let at = Interleaved::of(dst.len(), modes, stride);
        let (a, b, rest) = self.fwd.lane_work(scratch, self.h + 1);
        for (j, zj) in a[..self.h].iter_mut().enumerate() {
            *zj = Complex::new(input[2 * j], input[2 * j + 1]);
        }
        // the result lands in one buffer; split through the other
        let (z, free) = self.fwd.transform_block(a, b, rest);
        split_lanes(self.fwd.isa, &self.w, z, &mut free[..modes], scale, dst, at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dealias::{pad_half, truncate_half};
    use crate::dft::rdft;
    use crate::lanes::{Isa, LANES};

    fn rand_reals(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    #[test]
    fn forward_matches_naive_rdft() {
        for n in [2usize, 4, 6, 8, 12, 16, 24, 48, 96, 128] {
            let x = rand_reals(n, n as u64);
            let want = rdft(&x);
            let plan = RfftPlan::new(n, RealLayout::WithNyquist);
            let mut out = vec![C64::new(0.0, 0.0); plan.spectrum_len()];
            let mut scratch = plan.make_scratch();
            plan.forward(&x, &mut out, &mut scratch);
            for (k, (a, b)) in out.iter().zip(&want).enumerate() {
                assert!((a - b).norm() < 1e-9 * n as f64, "n={n} k={k} {a} vs {b}");
            }
        }
    }

    #[test]
    fn roundtrip_scales_by_n() {
        for layout in [RealLayout::WithNyquist, RealLayout::ElideNyquist] {
            let n = 64;
            let mut x = rand_reals(n, 5);
            if layout == RealLayout::ElideNyquist {
                // Remove the Nyquist component so elision is lossless: the
                // Nyquist mode of a real signal is sum_j (-1)^j x_j / n.
                let nyq: f64 = x
                    .iter()
                    .enumerate()
                    .map(|(j, &v)| if j % 2 == 0 { v } else { -v })
                    .sum::<f64>()
                    / n as f64;
                for (j, v) in x.iter_mut().enumerate() {
                    *v -= nyq * if j % 2 == 0 { 1.0 } else { -1.0 };
                }
            }
            let plan = RfftPlan::new(n, layout);
            let mut spec = vec![C64::new(0.0, 0.0); plan.spectrum_len()];
            let mut back = vec![0.0; n];
            let mut scratch = plan.make_scratch();
            plan.forward(&x, &mut spec, &mut scratch);
            plan.inverse(&spec, &mut back, &mut scratch);
            for (a, b) in back.iter().zip(&x) {
                assert!((a / n as f64 - b).abs() < 1e-12, "{layout:?}");
            }
        }
    }

    #[test]
    fn elided_layout_drops_exactly_the_nyquist_mode() {
        let n = 32;
        let x = rand_reals(n, 9);
        let full = RfftPlan::new(n, RealLayout::WithNyquist);
        let elided = RfftPlan::new(n, RealLayout::ElideNyquist);
        let mut sf = vec![C64::new(0.0, 0.0); full.spectrum_len()];
        let mut se = vec![C64::new(0.0, 0.0); elided.spectrum_len()];
        let mut scratch = full.make_scratch();
        full.forward(&x, &mut sf, &mut scratch);
        elided.forward(&x, &mut se, &mut scratch);
        assert_eq!(se.len() + 1, sf.len());
        for (a, b) in se.iter().zip(&sf) {
            assert!((a - b).norm() < 1e-13);
        }
    }

    #[test]
    fn single_mode_synthesis() {
        // inverse of a unit coefficient at k=2 must be 2*cos(2*pi*2*j/n)
        // under the unnormalised convention (coefficient + its conjugate).
        let n = 16;
        let plan = RfftPlan::new(n, RealLayout::WithNyquist);
        let mut spec = vec![C64::new(0.0, 0.0); plan.spectrum_len()];
        spec[2] = C64::new(1.0, 0.0);
        let mut out = vec![0.0; n];
        let mut scratch = plan.make_scratch();
        plan.inverse(&spec, &mut out, &mut scratch);
        for (j, &v) in out.iter().enumerate() {
            let want = 2.0 * (2.0 * std::f64::consts::PI * 2.0 * j as f64 / n as f64).cos();
            assert!((v - want).abs() < 1e-12, "j={j}");
        }
    }

    /// Smooth, odd-prime-radix (h = 7, 49) and Bluestein (h = 67) lengths.
    const LANE_LENGTHS: [usize; 9] = [2, 4, 16, 72, 96, 14, 98, 134, 144];

    fn rand_spectra(n: usize, seed: u64) -> Vec<C64> {
        let v = rand_reals(2 * n, seed);
        v.chunks_exact(2).map(|p| C64::new(p[0], p[1])).collect()
    }

    fn lane_plans(n: usize, layout: RealLayout) -> [RfftPlan; 2] {
        let mut base = RfftPlan::new(n, layout);
        base.fwd.isa = Isa::BASELINE;
        base.inv.isa = Isa::BASELINE;
        [RfftPlan::new(n, layout), base]
    }

    /// Coefficient `k` of each line in `lines` at `k * stride + l`; the
    /// slots between the lines hold NaN, which no lane may read.
    fn interleave(lines: &[&[C64]], stride: usize) -> Vec<C64> {
        let modes = lines[0].len();
        let nan = C64::new(f64::NAN, f64::NAN);
        let slot = |i: usize| lines.get(i % stride).map_or(nan, |line| line[i / stride]);
        (0..(modes - 1) * stride + lines.len()).map(slot).collect()
    }

    #[test]
    fn inverse_lanes_equals_single_lines_bitwise() {
        for n in LANE_LENGTHS {
            for layout in [RealLayout::WithNyquist, RealLayout::ElideNyquist] {
                // the detected and the baseline instantiation
                for plan in lane_plans(n, layout) {
                    let full = plan.spectrum_len();
                    let mut scratch = plan.make_scratch();
                    for modes in [full, (2 * full / 3).max(1)] {
                        for lines in 1..=LANES {
                            let src = rand_spectra(lines * modes, (n * 31 + lines) as u64);
                            let by_line: Vec<&[C64]> = src.chunks_exact(modes).collect();
                            for stride in [lines, lines + 3] {
                                let mut got = vec![Lanes([7.0; LANES]); n];
                                let inter = interleave(&by_line, stride);
                                plan.inverse_lanes(&inter, modes, stride, &mut got, &mut scratch);
                                let mut padded = vec![C64::new(0.0, 0.0); full];
                                let mut want = vec![0.0; n];
                                // a lane past the last line transforms a zero line
                                let zeros = vec![C64::new(0.0, 0.0); modes];
                                let lines_then_zeros =
                                    by_line.iter().copied().chain(std::iter::repeat(&zeros[..]));
                                for (l, line) in lines_then_zeros.take(LANES).enumerate() {
                                    pad_half(line, &mut padded);
                                    plan.inverse(&padded, &mut want, &mut scratch);
                                    for j in 0..n {
                                        assert_eq!(
                                            got[j].0[l].to_bits(),
                                            want[j].to_bits(),
                                            "n={n} {layout:?} modes={modes} lines={lines} \
                                             stride={stride} l={l} j={j}"
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn forward_lanes_equals_single_lines_bitwise() {
        for n in LANE_LENGTHS {
            for layout in [RealLayout::WithNyquist, RealLayout::ElideNyquist] {
                for plan in lane_plans(n, layout) {
                    let full = plan.spectrum_len();
                    let mut scratch = plan.make_scratch();
                    let scale = 1.0 / n as f64;
                    for modes in [full, (2 * full / 3).max(1)] {
                        for lines in 1..=LANES {
                            let reals = rand_reals(LANES * n, (n * 57 + lines) as u64);
                            let input: Vec<Lanes> = (0..n)
                                .map(|j| Lanes(std::array::from_fn(|l| reals[l * n + j])))
                                .collect();
                            for stride in [lines, lines + 3] {
                                let sentinel = C64::new(9.0, 9.0);
                                let mut got = vec![sentinel; (modes - 1) * stride + lines];
                                plan.forward_lanes(
                                    &input,
                                    &mut got,
                                    modes,
                                    stride,
                                    scale,
                                    &mut scratch,
                                );
                                let mut spec = vec![C64::new(0.0, 0.0); full];
                                let mut want = vec![C64::new(0.0, 0.0); modes];
                                for (i, a) in got.iter().enumerate() {
                                    let (k, l) = (i / stride, i % stride);
                                    if l >= lines {
                                        assert_eq!(*a, sentinel, "slot {i} between the lines");
                                        continue;
                                    }
                                    plan.forward(
                                        &reals[l * n..(l + 1) * n],
                                        &mut spec,
                                        &mut scratch,
                                    );
                                    truncate_half(&spec, &mut want);
                                    let b = want[k] * scale;
                                    assert!(
                                        a.re.to_bits() == b.re.to_bits()
                                            && a.im.to_bits() == b.im.to_bits(),
                                        "n={n} {layout:?} modes={modes} lines={lines} \
                                         stride={stride} l={l} k={k}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
