//! Parallel pencil-decomposed FFTs: the paper's customized kernel and a
//! P3DFFT-like baseline.
//!
//! The DNS transforms its fields between a physical-space x-pencil layout
//! and a spectral-space y-pencil layout (sections 2.2-2.3):
//!
//! ```text
//!  x-pencil [y_loc(B)][z_loc(A)][x ]  -- real grid, x complete
//!     | r2c FFT in x (+ 3/2 truncate)
//!           [y_loc(B)][kx][z_loc(A)]   -- x spectra, z fastest
//!     |                                        } CommA exchange
//!  z-pencil [y_loc(B)][kx_loc(A)][z ]  -- z complete
//!     | c2c FFT in z (+ 3/2 truncate)          } CommB exchange
//!  y-pencil [kz_loc(B)][kx_loc(A)][y ]  -- y complete (solves live here)
//! ```
//!
//! The x spectra are stored z-fastest, so the CommA exchange keeps memory
//! order, and on one CommA rank the two middle layouts coincide: there is
//! no exchange at all.
//!
//! [`ParallelFft::forward`] walks down that pipeline, [`ParallelFft::inverse`]
//! walks back up (padding instead of truncating). The y direction is not
//! transformed — it belongs to the B-spline solver — which also matches
//! the Table 6 benchmark protocol ("the FFT after the last transpose is
//! not performed").
//!
//! Differences between the two kernels (section 4.4), all reproduced:
//!
//! | | customized | P3DFFT-like baseline |
//! |---|---|---|
//! | Nyquist mode of the x spectrum | elided | stored and transposed |
//! | transpose schedule | planned (measured) | fixed alltoall |
//! | communication buffers | reused, 1x | allocated per call, 3x |
//! | threading | caller-side (rayon over lines) | none |

#![deny(missing_docs)]
// Indexed loops mirror the textbook statements of the numerical
// algorithms (banded elimination, butterflies, stencils); iterator
// rewrites of these kernels obscure the maths without helping codegen.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::type_complexity)]

mod pfft;
mod workspace;

pub use pfft::{ParallelFft, PfftConfig, NL_FIELDS, NL_PRODUCTS};
pub use workspace::Workspace;

/// Complex scalar alias shared across the stack.
pub type C64 = num_complex::Complex<f64>;
