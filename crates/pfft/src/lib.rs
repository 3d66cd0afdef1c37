//! Parallel pencil-decomposed FFTs: the paper's customized kernel and a
//! P3DFFT-like baseline.
//!
//! The DNS transforms its fields between a physical-space x-pencil layout
//! and a spectral-space y-pencil layout (sections 2.2-2.3):
//!
//! ```text
//!  x-pencil [y_loc(B)][z_loc(A)][x ]  -- real grid, x complete
//!     | r2c FFT in x (+ 3/2 truncate)
//!           [y_loc(B)][kx_blk][z_loc(A)]   -- x spectra, z fastest
//!     |                                        } CommA exchange
//!  z-pencil [y_loc(B)][kx_blk(A)][z ]  -- z complete
//!     | c2c FFT in z (+ 3/2 truncate)          } CommB exchange
//!  y-pencil [kz_loc(B)][kx_blk(A)][y ]  -- y complete (solves live here)
//! ```
//!
//! The x spectra are stored z-fastest, so the CommA exchange keeps memory
//! order, and on one CommA rank the two middle layouts coincide: there is
//! no exchange at all. Every layout past the x spectra is lane-blocked
//! over kx: an entry is a `dns_fft::LaneRow` whose lane `l` of block `b`
//! is local kx `8b + l` (zero pad lanes past a rank's last kx), so the z-
//! and x-stages read and write whole lane rows and the CommB transposes
//! (`dns_pencil::TransposePlan::{run_into_room, run_from_room}`) move
//! whole lane rows and never split a lane. The y-pencil stacks of
//! [`ParallelFft::nonlinear_lanes`] are the wall-normal solver's panel
//! blocks as they are; the line-order entry points (the batch transforms
//! and [`ParallelFft::nonlinear_products`], on `[kz_loc][kx_loc][y]` `C64`
//! lines) convert once at their boundary.
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
//! | communication buffers | reused, 1x | allocated per call, 3x |
//! | threading | on-node threads over lines (`dns_fft::lanes::fan_out`) | none |
//! | z-pencil / x-pencil spectra | lane rows, pad lanes per rank | the same |
//!
//! Both exchange through the same all-to-all: on minimpi's eager
//! transport a planned and a fixed schedule post the same messages, and
//! the machine model prices the fixed one (`baseline_comm_penalty`).

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
