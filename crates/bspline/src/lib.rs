//! B-spline bases and collocation operators for the wall-normal (y)
//! direction of the channel DNS.
//!
//! The paper (section 2) represents the velocity in y with 7th-degree
//! (order 8) basis splines, chosen for their resolution properties (Kwok,
//! Moser & Jimenez 2001) and the simple recursive evaluation of de Boor.
//! This crate provides:
//!
//! * clamped knot vectors on arbitrary breakpoints, including the
//!   hyperbolic-tangent wall-clustered grids channel DNS uses;
//! * basis evaluation and derivatives (Cox-de Boor recursion, the
//!   `BasisFuns`/`DersBasisFuns` algorithms);
//! * Greville collocation points and banded collocation matrices `B0`,
//!   `B1`, `B2` (value, d/dy, d2/dy2) in exactly the banded-plus-corners
//!   structure the custom solver of `dns-banded` consumes;
//! * spline interpolation, evaluation, and integration weights.

#![warn(missing_docs)]
// Indexed loops mirror the textbook statements of the numerical
// algorithms (banded elimination, butterflies, stencils); iterator
// rewrites of these kernels obscure the maths without helping codegen.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::type_complexity)]

mod basis;
mod grid;
mod operators;

pub use basis::BsplineBasis;
pub use grid::{chebyshev_like_breakpoints, tanh_breakpoints, uniform_breakpoints};
pub use operators::{integration_weights, CollocationOps};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_interpolation_of_smooth_function() {
        // order-8 splines on a stretched grid must interpolate a smooth
        // function to near machine precision with modest resolution
        let brk = tanh_breakpoints(32, 2.0);
        let basis = BsplineBasis::new(8, &brk);
        let ops = CollocationOps::new(&basis);
        let f = |y: f64| (2.5 * y).sin() + 0.3 * (4.0 * y).cos();
        let vals: Vec<f64> = ops.points().iter().map(|&y| f(y)).collect();
        let coef = ops.interpolate(&vals);
        for &y in &[-0.99, -0.5, -0.123, 0.0, 0.321, 0.77, 0.999] {
            let got = basis.eval(&coef, y);
            assert!((got - f(y)).abs() < 1e-8, "y={y}: {got} vs {}", f(y));
        }
    }
}
