//! # channel-dns
//!
//! A Rust reproduction of *"Petascale Direct Numerical Simulation of
//! Turbulent Channel Flow on up to 786K Cores"* (Lee, Malaya & Moser,
//! SC'13): a complete spectral channel-flow DNS plus every substrate the
//! paper's code relied on, and the benchmark harness regenerating every
//! table and figure of its evaluation.
//!
//! This umbrella crate re-exports the whole stack under short names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`fft`] | `dns-fft` | serial mixed-radix/Bluestein FFTs, real transforms, 3/2 dealiasing |
//! | [`banded`] | `dns-banded` | banded LU; the paper's corner-folded custom solver (Table 1) |
//! | [`bspline`] | `dns-bspline` | B-spline bases, Greville collocation, Galerkin operators |
//! | [`minimpi`] | `dns-minimpi` | thread-backed MPI semantics (communicators, collectives, Cartesian grids) |
//! | [`pencil`] | `dns-pencil` | block decompositions, reorder kernels, distributed transposes |
//! | [`pfft`] | `dns-pfft` | the parallel pencil FFT (customized kernel + P3DFFT-like baseline) |
//! | [`core_solver`] | `dns-core` | the DNS: KMM formulation, RK3-IMEX, statistics, spectra, checkpoints |
//!
//! See the repository `README.md` for a tour, `DESIGN.md` for the
//! reproduction methodology (what is real, what is modelled and why),
//! and `EXPERIMENTS.md` for paper-vs-reproduction results.
//!
//! ## Quick taste
//!
//! ```
//! use channel_dns::core_solver::{run_serial, Params};
//! use channel_dns::core_solver::stats::profiles;
//!
//! let params = Params::channel(16, 25, 16, 50.0).with_dt(1e-3);
//! let p = run_serial(params, |dns| {
//!     dns.set_laminar(1.0);
//!     dns.step();
//!     profiles(dns)
//! });
//! assert!((p.u_tau - 1.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]

pub use dns_banded as banded;
pub use dns_bspline as bspline;
pub use dns_core as core_solver;
pub use dns_fft as fft;
pub use dns_minimpi as minimpi;
pub use dns_pencil as pencil;
pub use dns_pfft as pfft;
