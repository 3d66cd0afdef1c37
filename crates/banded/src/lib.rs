//! Banded linear algebra for B-spline collocation systems.
//!
//! Reproduces section 4.1.1 of Lee, Malaya & Moser (SC'13). The
//! wall-normal collocation operators of the channel DNS are banded
//! matrices "with extra non zero values in the first and last few rows"
//! (their figure 3, left). The paper compares three ways to solve them:
//!
//! * a general banded LU with partial pivoting on an inflated band wide
//!   enough to cover the corner entries — the LAPACK `DGBTRF`/`DGBTRS`
//!   route, applied either to the real matrix with the complex right-hand
//!   side split into two real solves ([`general::BandedLu<f64>`]) or to a
//!   complexified copy of the matrix (`ZGBTRF`, [`general::BandedLu<C64>`]);
//! * the **custom solver** ([`corner::CornerLu`]): a compact storage where
//!   each row's `kl+ku+1` window slides so that the corner entries occupy
//!   otherwise-empty slots (figure 3, right), factorised without pivoting,
//!   with the complex right-hand side applied directly against the real
//!   factors.
//!
//! The custom route stores a third of the general solver's matrix, does no
//! pivot bookkeeping, performs no arithmetic on structural zeros, and does
//! real*complex products (2 real multiplies) instead of complex*complex
//! (4), which is where its ~4x speedup in Table 1 comes from.
//!
//! # Example
//!
//! ```
//! use dns_banded::{CornerBanded, CornerLu, C64};
//!
//! // a small diagonally dominant tridiagonal system with one corner row
//! let n = 8;
//! let mut m = CornerBanded::zeros(n, 1, 1, 1, 0);
//! for i in 0..n {
//!     m.set(i, i, 4.0);
//!     if i > 0 { m.set(i, i - 1, 1.0); }
//!     if i + 1 < n { m.set(i, i + 1, 1.0); }
//! }
//! m.set(0, 2, 0.5); // the "corner" entry beyond the band
//! let lu = CornerLu::factor(m).unwrap();
//! let mut rhs: Vec<C64> = (0..n).map(|i| C64::new(i as f64, 1.0)).collect();
//! lu.solve_complex(&mut rhs); // complex RHS against real factors
//! assert!(rhs.iter().all(|x| x.re.is_finite() && x.im.is_finite()));
//! ```

#![deny(missing_docs)]
// Indexed loops mirror the textbook statements of the numerical
// algorithms (banded elimination, butterflies, stencils); iterator
// rewrites of these kernels obscure the maths without helping codegen.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::type_complexity)]

pub mod batch;
pub mod corner;
pub mod dense;
pub mod general;
pub mod laneband;
pub mod scalar;
pub mod testmat;

pub use batch::{BatchedFactor, RhsPanel};
pub use corner::{CornerBanded, CornerLu};
pub use dense::DenseLu;
pub use dns_fft::lanes::{LaneRow, LANES};
pub use general::{BandedLu, BandedMatrix};
pub use laneband::LaneBand;

/// Complex double-precision scalar (shared alias with the FFT crate).
pub type C64 = num_complex::Complex<f64>;

/// Errors reported by the factorisations.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// A pivot (or, without pivoting, a diagonal element) was exactly or
    /// numerically zero at the given elimination step.
    SingularAt(usize),
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::SingularAt(k) => {
                write!(f, "matrix is singular at elimination step {k}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}
