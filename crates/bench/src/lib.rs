//! Shared infrastructure of the reproduction: the paper's published
//! values ([`paper`]), text tables and the artifact host stamp
//! ([`report`]), and the Figures 5-8 gate ([`validation`]).
//!
//! The binaries here are the host microbenchmarks — `table1` (the
//! paper's Table 1), `fusion` — and `dns-validate` (Figures 5-8).
//! Tables 2-11 and section 7 come from the `dns-scaling` campaign, which
//! cites [`paper`] beside every modelled row.

#![warn(missing_docs)]
// Indexed loops mirror the textbook statements of the numerical
// algorithms (banded elimination, butterflies, stencils); iterator
// rewrites of these kernels obscure the maths without helping codegen.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::type_complexity)]

pub mod paper;
pub mod report;
pub mod validation;

/// Crude wall-clock measurement: run `f` repeatedly for at least
/// `min_time` seconds (and at least `min_iters` times), return seconds
/// per iteration.
pub fn time_it<F: FnMut()>(min_time: f64, min_iters: usize, mut f: F) -> f64 {
    // warm-up
    f();
    let start = std::time::Instant::now();
    let mut iters = 0usize;
    loop {
        f();
        iters += 1;
        let t = start.elapsed().as_secs_f64();
        if t >= min_time && iters >= min_iters {
            return t / iters as f64;
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn time_it_returns_positive_duration() {
        let mut x = 0u64;
        let t = super::time_it(0.01, 3, || {
            x = x.wrapping_add(1);
            std::hint::black_box(x);
        });
        assert!(t > 0.0 && t < 1.0);
    }
}
