//! Serial fast Fourier transforms for spectral DNS.
//!
//! This crate is the reproduction's stand-in for the serial parts of FFTW
//! 3.3 used by Lee, Malaya & Moser (SC'13): one-dimensional complex and
//! real-half-complex transforms, batched application to many data lines,
//! and the 3/2-rule padding/truncation used for dealiasing the quadratic
//! nonlinear terms of the Navier-Stokes equations.
//!
//! Design notes:
//!
//! * Transforms are driven by immutable [`CfftPlan`] / [`RfftPlan`] objects
//!   (the analogue of FFTW plans). Plans hold precomputed twiddle tables
//!   and are `Send + Sync`, so one plan can be shared by many threads; all
//!   mutable state lives in a caller-provided scratch buffer.
//! * Lengths factorising into 2, 3, 5 (and any prime up to 61 via a direct
//!   small-prime butterfly) use a recursive Stockham autosort algorithm —
//!   no bit-reversal pass. Other lengths fall back to Bluestein's chirp-z
//!   algorithm, so every length is supported.
//! * Each radix butterfly is stated once, generic over the value type.
//!   `C64` gives the single-line transform; [`lanes::LaneRow`] gives the
//!   same butterfly on [`LANES`] lines at once, with the lane index innermost,
//!   which is what the compiler vectorises (a single short line has
//!   nothing to vectorise at Stockham stride 1). The multi-line entries
//!   run an AVX2 instantiation of the same code where the CPU has it (no
//!   FMA). [`CfftPlan::execute_many`] gathers `C64` lines into such
//!   blocks and scatters them back; [`CfftPlan::execute_dealiased`]
//!   transforms in place lines that are already lane-blocked (a run of
//!   [`LaneRow`]s, lane `l` one line), and [`RfftPlan::inverse_lanes`] /
//!   [`RfftPlan::forward_lanes`] read and write spectra lane-blocked over
//!   the coefficient index ([`LaneSpectra`]: one 8 x 8 transposition per
//!   block turns coefficient lanes into line lanes). The 3/2-rule pad /
//!   truncate and the normalisation ride the copies into and out of the
//!   lane scratch. Every lane performs the single-line operations in the
//!   single-line order, so blocked and per-line results are bitwise equal.
//! * [`lanes`] is the stack's on-node kernel substrate: the lane row, the
//!   ISA switch ([`lanes::Isa`], [`isa_fn!`]) `dns-banded` runs under too,
//!   and [`lanes::fan_out`], the one thread fan-out.
//! * The real transform packs `n` reals into an `n/2` complex transform
//!   (`n` even), the classic halving trick. Per the paper (section 4.4),
//!   the Nyquist coefficient can be elided: turbulence codes zero it
//!   anyway, and not storing it shrinks every downstream transpose.
//!
//! # Example
//!
//! ```
//! use dns_fft::{C64, CfftPlan, Direction};
//!
//! let n = 96; // a 3/2-dealiased production length: 2^5 * 3
//! let plan = CfftPlan::new(n, Direction::Forward);
//! let mut scratch = plan.make_scratch();
//! // cos(3x) sampled on the grid
//! let mut data: Vec<C64> = (0..n)
//!     .map(|j| C64::new((3.0 * std::f64::consts::TAU * j as f64 / n as f64).cos(), 0.0))
//!     .collect();
//! plan.execute(&mut data, &mut scratch);
//! // energy sits in bins 3 and n-3, each n/2
//! assert!((data[3].re - n as f64 / 2.0).abs() < 1e-9);
//! assert!((data[n - 3].re - n as f64 / 2.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
// Indexed loops mirror the textbook statements of the numerical
// algorithms (banded elimination, butterflies, stencils); iterator
// rewrites of these kernels obscure the maths without helping codegen.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::type_complexity)]

mod bluestein;
pub mod dealias;
pub mod dft;
pub mod lanes;
mod plan;
mod radix;
mod real;

pub use lanes::{LaneRow, LaneSpectra, Lanes, LANES};
pub use plan::{CfftPlan, Direction};
pub use real::{RealLayout, RfftPlan};

/// Complex double-precision scalar used throughout the DNS stack.
pub type C64 = num_complex::Complex<f64>;

/// Nominal floating-point operation count of a complex FFT of length `n`
/// (the conventional `5 n log2 n` accounting used in HPC flop reporting).
pub fn cfft_flops(n: usize) -> f64 {
    let nf = n as f64;
    5.0 * nf * nf.log2()
}

/// Nominal flop count of a real transform of length `n` (half-length
/// complex transform plus the O(n) split/merge pass).
pub fn rfft_flops(n: usize) -> f64 {
    cfft_flops((n / 2).max(1)) + 6.0 * n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_counts_grow_superlinearly() {
        assert!(cfft_flops(1024) > 2.0 * cfft_flops(512));
        assert!(rfft_flops(1024) > 0.0);
    }
}
