//! Direct numerical simulation of incompressible turbulent channel flow —
//! the primary contribution of Lee, Malaya & Moser (SC'13).
//!
//! The solver advances the incompressible Navier-Stokes equations between
//! two parallel walls (figure 1 of the paper) in the velocity-vorticity
//! formulation of Kim, Moin & Moser (1987): for every horizontal Fourier
//! mode `(kx, kz)` the prognostic variables are the wall-normal vorticity
//! `omega_y` and `phi = laplacian(v)`, eliminating the pressure and
//! enforcing continuity by construction:
//!
//! ```text
//! d(omega_y)/dt = h_g + nu * laplacian(omega_y)
//! d(phi)/dt     = h_v + nu * laplacian(phi)
//! ```
//!
//! * Space: Fourier-Galerkin in x and z ([`dns_pfft`]), 7th-degree
//!   B-spline collocation in y ([`dns_bspline`]).
//! * Time: three-substep low-storage IMEX Runge-Kutta (Spalart, Moser &
//!   Rogers 1991): nonlinear terms explicit, viscous terms implicit.
//! * Each substep and wavenumber solves three banded systems via the
//!   corner-folded custom solver ([`dns_banded`]): Helmholtz advances for
//!   `omega_y` and `phi`, and the Poisson solve recovering `v`, with a
//!   precomputed two-column influence matrix enforcing both `v = 0` and
//!   `dv/dy = 0` at the walls.
//! * Nonlinear terms: divergence form, evaluated pseudo-spectrally on the
//!   3/2-dealiased grid through the full pencil-transpose pipeline of
//!   section 2.3 (steps (a)-(j)).
//!
//! # Example
//!
//! ```
//! use dns_core::{run_serial, Params};
//! use dns_core::stats::profiles;
//!
//! // a tiny channel at Re_tau = 50: a few steps through the full
//! // pipeline, then wall statistics
//! let params = Params::channel(16, 25, 16, 50.0).with_dt(1e-3);
//! let u_tau = run_serial(params, |dns| {
//!     dns.set_laminar(1.0); // exact laminar equilibrium
//!     for _ in 0..3 {
//!         dns.step();
//!     }
//!     profiles(dns).u_tau
//! });
//! // the laminar balance gives u_tau = 1 by construction
//! assert!((u_tau - 1.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]
// Indexed loops mirror the textbook statements of the numerical
// algorithms (banded elimination, butterflies, stencils); iterator
// rewrites of these kernels obscure the maths without helping codegen.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::type_complexity)]

pub mod checkpoint;
pub mod flags;
pub mod health;
pub mod io;
mod lanes;
#[deny(missing_docs)]
pub mod moser;
pub mod nonlinear;
pub mod orrsommerfeld;
pub mod params;
pub mod rk3;
pub mod run;
pub mod solver;
pub mod spec;
#[deny(missing_docs)]
pub mod spectra;
#[deny(missing_docs)]
pub mod stats;
pub mod wallnormal;

pub use params::{Forcing, Params};
pub use solver::{run_parallel, run_serial, ChannelDns, State};

/// Complex double-precision scalar alias shared across the stack.
pub type C64 = num_complex::Complex<f64>;
